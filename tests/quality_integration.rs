//! Integration of the quality pipeline: rendered frames → SSIM → the
//! perceptual claims the paper's motivation rests on.

use patu_core::FilterPolicy;
use patu_quality::SsimConfig;
use patu_scenes::Workload;
use patu_sim::render::{render_frame, RenderConfig};

const RES: (u32, u32) = (256, 192);

fn mssim(a: &patu_sim::FrameResult, b: &patu_sim::FrameResult) -> f64 {
    f64::from(SsimConfig::default().mssim(&a.luma(), &b.luma()))
}

#[test]
fn disabling_af_degrades_quality() {
    // The paper's Fig. 7: AF-off costs visible quality on AF-heavy scenes.
    let w = Workload::build("doom3", RES).unwrap();
    let on = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::Baseline)).unwrap();
    let off = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::NoAf)).unwrap();
    let q = mssim(&on, &off);
    assert!(q < 0.97, "AF-off must be measurably different, got {q}");
    assert!(q > 0.3, "but not unrecognizable, got {q}");
}

#[test]
fn patu_quality_beats_noaf() {
    let w = Workload::build("grid", RES).unwrap();
    let on = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::Baseline)).unwrap();
    let off = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::NoAf)).unwrap();
    let patu = render_frame(
        &w,
        0,
        &RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }),
    )
    .unwrap();
    let q_off = mssim(&on, &off);
    let q_patu = mssim(&on, &patu);
    assert!(
        q_patu > q_off,
        "PATU ({q_patu}) preserves more quality than AF-off ({q_off})"
    );
}

#[test]
fn patu_lod_reuse_beats_naive_demotion() {
    // The Fig. 19 claim: PATU recovers >0 quality over AF-SSIM(N)+(Txds)
    // by eliminating the LOD shift.
    let w = Workload::build("doom3", RES).unwrap();
    let on = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::Baseline)).unwrap();
    let naive = render_frame(
        &w,
        0,
        &RenderConfig::new(FilterPolicy::SampleAreaTxds { threshold: 0.4 }),
    )
    .unwrap();
    let patu = render_frame(
        &w,
        0,
        &RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }),
    )
    .unwrap();
    let q_naive = mssim(&on, &naive);
    let q_patu = mssim(&on, &patu);
    assert!(
        q_patu >= q_naive,
        "LOD reuse must not lose quality: PATU {q_patu} vs naive {q_naive}"
    );
}

#[test]
fn ssim_map_localizes_af_sensitive_regions() {
    // The Fig. 8 observation: only part of the frame is AF-sensitive.
    let w = Workload::build("hl2", RES).unwrap();
    let on = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::Baseline)).unwrap();
    let off = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::NoAf)).unwrap();
    let map = SsimConfig::default().ssim_map(&on.luma(), &off.luma());
    let high = map.fraction_above(0.95);
    assert!(
        high > 0.2 && high < 1.0,
        "a nontrivial fraction of windows is unaffected by AF, got {high}"
    );
}

#[test]
fn quality_monotone_in_threshold() {
    let w = Workload::build("grid", RES).unwrap();
    let on = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::Baseline)).unwrap();
    let mut last = 0.0;
    for theta in [0.0, 0.4, 0.8] {
        let r = render_frame(
            &w,
            0,
            &RenderConfig::new(FilterPolicy::Patu { threshold: theta }),
        )
        .unwrap();
        let q = mssim(&on, &r);
        assert!(
            q >= last - 0.02,
            "quality near-monotone in threshold: {q} after {last} at θ={theta}"
        );
        last = q;
    }
}

#[test]
fn conservative_patu_is_visually_lossless() {
    // The headline claim: at the conservative tuning point the MSSIM stays
    // at or above the "difficult to distinguish" band.
    let w = Workload::build("ut3", RES).unwrap();
    let on = render_frame(&w, 0, &RenderConfig::new(FilterPolicy::Baseline)).unwrap();
    let patu = render_frame(
        &w,
        0,
        &RenderConfig::new(FilterPolicy::Patu { threshold: 0.8 }),
    )
    .unwrap();
    let q = mssim(&on, &patu);
    assert!(q > 0.9, "conservative threshold keeps MSSIM high, got {q}");
}
