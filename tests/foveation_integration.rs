//! Integration tests for the foveated-threshold extension.

use patu_core::FilterPolicy;
use patu_scenes::Workload;
use patu_sim::foveation::Foveation;
use patu_sim::render::{render_frame, RenderConfig};

const RES: (u32, u32) = (224, 160);

#[test]
fn foveation_increases_approximation_coverage() {
    let w = Workload::build("grid", RES).unwrap();
    let base_cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.6 });
    let fov_cfg = base_cfg.with_foveation(Foveation::default());
    let plain = render_frame(&w, 0, &base_cfg).unwrap();
    let foveated = render_frame(&w, 0, &fov_cfg).unwrap();
    // Peripheral thresholds loosen, so more pixels approximate and fewer
    // texels are fetched; the foveal region keeps the base threshold.
    assert!(
        foveated.approx.approximated_fraction() >= plain.approx.approximated_fraction(),
        "foveation must not approximate less: {} vs {}",
        foveated.approx.approximated_fraction(),
        plain.approx.approximated_fraction()
    );
    assert!(foveated.stats.events.texel_fetches <= plain.stats.events.texel_fetches);
}

#[test]
fn foveation_noop_for_fixed_policies() {
    let w = Workload::build("wolf", RES).unwrap();
    let plain = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::Baseline)).unwrap();
    let foveated = render_frame(
        &w,
        0,
        &RenderConfig::new(FilterPolicy::Baseline).with_foveation(Foveation::default()),
    )
    .unwrap();
    assert_eq!(plain.image.pixels(), foveated.image.pixels());
    assert_eq!(
        plain.stats.events.texel_fetches,
        foveated.stats.events.texel_fetches
    );
}

#[test]
fn tight_fovea_approximates_more_than_wide() {
    let w = Workload::build("doom3", RES).unwrap();
    let policy = FilterPolicy::Patu { threshold: 0.8 };
    let wide = Foveation {
        inner_radius: 0.45,
        outer_radius: 0.9,
        ..Foveation::default()
    };
    let tight = Foveation {
        inner_radius: 0.05,
        outer_radius: 0.3,
        ..Foveation::default()
    };
    let r_wide = render_frame(&w, 0, &RenderConfig::new(policy).with_foveation(wide)).unwrap();
    let r_tight = render_frame(&w, 0, &RenderConfig::new(policy).with_foveation(tight)).unwrap();
    assert!(
        r_tight.stats.events.texel_fetches <= r_wide.stats.events.texel_fetches,
        "smaller fovea -> more periphery -> fewer texels"
    );
}
