//! The tentpole invariant of the batched SoA fragment→texel path: rendering
//! with [`BatchMode::Soa`] (the default) is bit-identical to the scalar
//! reference path — same framebuffer bytes, same `FrameStats`, same
//! approximation/sharing/divergence statistics — across policies, scenes,
//! thread counts and fault injection, plus under foveated threshold
//! modulation and watchdog degradation.
//!
//! The same holds for [`render_policies`], the one traversal that renders
//! several policies at once: each of its results equals that policy
//! rendered alone, by the scalar oracle and by the batched path, telemetry
//! included — also with the policy list reversed or holding a duplicate,
//! which would expose state leaking between policies.
//!
//! Also pins the sampled-MSSIM estimator's error bound against the full
//! computation on every seed scene (DESIGN.md §13).

use patu_core::FilterPolicy;
use patu_gpu::FaultConfig;
use patu_quality::{SampledSsimConfig, SsimConfig};
use patu_scenes::{game_names, Workload};
use patu_sim::render::{render_frame, render_policies, BatchMode, FrameResult, RenderConfig};

fn assert_bit_identical(soa: &FrameResult, scalar: &FrameResult, context: &str) {
    assert_eq!(
        soa.image, scalar.image,
        "framebuffer bytes differ: {context}"
    );
    assert_eq!(soa.stats, scalar.stats, "frame stats differ: {context}");
    assert_eq!(soa.approx, scalar.approx, "approx stats differ: {context}");
    assert_eq!(
        soa.sharing, scalar.sharing,
        "sharing stats differ: {context}"
    );
    assert_eq!(
        soa.divergence, scalar.divergence,
        "divergence differs: {context}"
    );
    assert_eq!(
        soa.degraded, scalar.degraded,
        "degradation flag differs: {context}"
    );
}

#[test]
fn batched_path_bit_identical_to_scalar_across_the_grid() {
    let policies = [
        FilterPolicy::Baseline,
        FilterPolicy::SampleArea { threshold: 0.4 },
        FilterPolicy::Patu { threshold: 0.4 },
    ];
    let fault_modes = [FaultConfig::disabled(), FaultConfig::uniform(42, 0.05)];
    for scene in ["doom3", "grid"] {
        let workload = Workload::build(scene, (192, 160)).unwrap();
        for policy in policies {
            for faults in fault_modes {
                for threads in [1usize, 4] {
                    let cfg = |batching: BatchMode| {
                        RenderConfig::new(policy)
                            .with_faults(faults)
                            .with_threads(threads)
                            .with_batching(batching)
                    };
                    let soa = render_frame(&workload, 0, &cfg(BatchMode::Soa)).unwrap();
                    let scalar = render_frame(&workload, 0, &cfg(BatchMode::Scalar)).unwrap();
                    let context = format!(
                        "scene {scene}, policy {policy:?}, faults {faulty}, threads {threads}",
                        faulty = !faults.is_disabled()
                    );
                    assert_bit_identical(&soa, &scalar, &context);
                }
            }
        }
    }
}

#[test]
fn batched_path_matches_scalar_under_foveation() {
    let workload = Workload::build("doom3", (192, 160)).unwrap();
    let fov = patu_sim::Foveation::default();
    for threads in [1usize, 4] {
        let cfg = |batching: BatchMode| {
            RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
                .with_foveation(fov)
                .with_threads(threads)
                .with_batching(batching)
        };
        let soa = render_frame(&workload, 0, &cfg(BatchMode::Soa)).unwrap();
        let scalar = render_frame(&workload, 0, &cfg(BatchMode::Scalar)).unwrap();
        assert_bit_identical(&soa, &scalar, &format!("foveated, threads {threads}"));
        assert!(soa.approx.pixels > 0, "foveated run exercised the policy");
    }
}

#[test]
fn batched_path_matches_scalar_when_the_watchdog_degrades() {
    let workload = Workload::build("grid", (192, 160)).unwrap();
    let cfg = |batching: BatchMode| {
        RenderConfig::new(FilterPolicy::Baseline)
            .with_cycle_budget(1)
            .with_batching(batching)
    };
    let soa = render_frame(&workload, 0, &cfg(BatchMode::Soa)).unwrap();
    let scalar = render_frame(&workload, 0, &cfg(BatchMode::Scalar)).unwrap();
    assert!(soa.degraded, "a 1-cycle budget trips immediately");
    assert_bit_identical(&soa, &scalar, "degraded frame");
}

#[test]
fn batched_telemetry_is_bit_identical_too() {
    use patu_obs::{TelemetryConfig, TraceLevel};
    let workload = Workload::build("doom3", (192, 160)).unwrap();
    let cfg = |batching: BatchMode| {
        RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
            .with_telemetry(TelemetryConfig::with_level(TraceLevel::Spans))
            .with_batching(batching)
    };
    let soa = render_frame(&workload, 2, &cfg(BatchMode::Soa)).unwrap();
    let scalar = render_frame(&workload, 2, &cfg(BatchMode::Scalar)).unwrap();
    assert_bit_identical(&soa, &scalar, "traced frame");
    let (st, sc) = (
        soa.telemetry.expect("spans record"),
        scalar.telemetry.expect("spans record"),
    );
    assert_eq!(st.counters, sc.counters, "telemetry counters differ");
    assert_eq!(
        st.stage_totals(),
        sc.stage_totals(),
        "telemetry stage tree differs"
    );
}

/// The policy set the shared-traversal tests render together.
const SHARED_POLICIES: [FilterPolicy; 6] = [
    FilterPolicy::Baseline,
    FilterPolicy::NoAf,
    FilterPolicy::SampleArea { threshold: 0.4 },
    FilterPolicy::SampleAreaTxds { threshold: 0.4 },
    FilterPolicy::Patu { threshold: 0.4 },
    FilterPolicy::Patu { threshold: 0.9 },
];

/// Renders `policies` in one traversal under `cfg` and checks every result
/// against that policy rendered alone: in full (telemetry included) against
/// the batched `render_frame`, and against the scalar oracle on everything
/// the two paths share.
fn assert_shared_matches_alone(
    workload: &Workload,
    frame: u32,
    cfg: RenderConfig,
    policies: &[FilterPolicy],
    context: &str,
) {
    let shared = render_policies(workload, frame, &cfg, policies).unwrap();
    assert_eq!(
        shared.len(),
        policies.len(),
        "one result per policy: {context}"
    );
    for (result, &policy) in shared.iter().zip(policies) {
        let context = format!("{context}, policy {policy:?}");
        let alone = RenderConfig { policy, ..cfg };
        let batched = render_frame(workload, frame, &alone).unwrap();
        assert_bit_identical(result, &batched, &context);
        assert_eq!(
            result.tile_stats, batched.tile_stats,
            "tile stats: {context}"
        );
        assert_eq!(result.telemetry, batched.telemetry, "telemetry: {context}");
        let scalar =
            render_frame(workload, frame, &alone.with_batching(BatchMode::Scalar)).unwrap();
        assert_bit_identical(result, &scalar, &format!("{context}, scalar oracle"));
        assert_eq!(
            result.tile_stats, scalar.tile_stats,
            "tile stats: {context}"
        );
        match (&result.telemetry, &scalar.telemetry) {
            (Some(a), Some(b)) => {
                assert_eq!(a.counters, b.counters, "telemetry counters: {context}");
                assert_eq!(a.stage_totals(), b.stage_totals(), "stage tree: {context}");
            }
            (None, None) => {}
            _ => panic!("telemetry presence differs: {context}"),
        }
    }
}

#[test]
fn shared_traversal_matches_each_policy_alone() {
    let workload = Workload::build("doom3", (192, 160)).unwrap();
    for faults in [FaultConfig::disabled(), FaultConfig::uniform(42, 0.05)] {
        for threads in [1usize, 4] {
            let cfg = RenderConfig::new(FilterPolicy::Baseline)
                .with_faults(faults)
                .with_threads(threads);
            let context = format!(
                "faults {faulty}, threads {threads}",
                faulty = !faults.is_disabled()
            );
            assert_shared_matches_alone(&workload, 0, cfg, &SHARED_POLICIES, &context);
        }
    }
}

#[test]
fn shared_traversal_matches_under_foveation_budget_and_spans() {
    use patu_obs::{TelemetryConfig, TraceLevel};
    let workload = Workload::build("grid", (192, 160)).unwrap();
    let base = RenderConfig::new(FilterPolicy::Baseline).with_threads(2);
    let cases = [
        (
            "foveated",
            base.with_foveation(patu_sim::Foveation::default()),
        ),
        ("1-cycle budget", base.with_cycle_budget(1)),
        (
            "spans telemetry, faults",
            base.with_telemetry(TelemetryConfig::with_level(TraceLevel::Spans))
                .with_faults(FaultConfig::uniform(42, 0.05)),
        ),
    ];
    for (context, cfg) in cases {
        assert_shared_matches_alone(&workload, 1, cfg, &SHARED_POLICIES, context);
    }
    let degraded = render_policies(&workload, 1, &cases[1].1, &SHARED_POLICIES).unwrap();
    assert!(
        degraded.iter().all(|r| r.degraded),
        "every policy trips the watchdog"
    );
    // A budget only the slower policies blow: each watchdog trips on its
    // own cycle stream, mid-frame, while the others render in full.
    let noaf = render_frame(
        &workload,
        1,
        &RenderConfig {
            policy: FilterPolicy::NoAf,
            ..base
        },
    )
    .unwrap();
    let budget = base.with_cycle_budget(noaf.stats.cycles);
    assert_shared_matches_alone(&workload, 1, budget, &SHARED_POLICIES, "NoAf-sized budget");
    let mixed = render_policies(&workload, 1, &budget, &SHARED_POLICIES).unwrap();
    assert!(
        mixed[0].degraded && !mixed[1].degraded,
        "Baseline trips, NoAf does not"
    );
}

#[test]
fn shared_traversal_is_independent_of_policy_order_and_duplicates() {
    let workload = Workload::build("doom3", (192, 160)).unwrap();
    let cfg = RenderConfig::new(FilterPolicy::Baseline).with_faults(FaultConfig::uniform(42, 0.05));
    let mut reversed = SHARED_POLICIES;
    reversed.reverse();
    assert_shared_matches_alone(&workload, 2, cfg, &reversed, "reversed");
    let duplicated = [
        FilterPolicy::Patu { threshold: 0.4 },
        FilterPolicy::Baseline,
        FilterPolicy::Patu { threshold: 0.4 },
    ];
    assert_shared_matches_alone(&workload, 2, cfg, &duplicated, "duplicated");
    assert!(render_policies(&workload, 2, &cfg, &[]).unwrap().is_empty());
}

#[test]
fn sampled_mssim_error_bounded_on_every_seed_scene() {
    // The serve layer's quality baseline: the stratified estimator must sit
    // within 0.005 of the full MSSIM when comparing a PATU render against
    // the 16×AF baseline, on every seed scene and for several plan seeds.
    // Production-shaped frames: at 512×384 the default plan (8-window
    // tiles, 1/4 fraction) holds the bound with margin on every scene.
    for scene in game_names() {
        let workload = Workload::build(scene, (512, 384)).unwrap();
        let reference = render_frame(&workload, 0, &RenderConfig::new(FilterPolicy::Baseline))
            .unwrap()
            .luma();
        let patu = render_frame(
            &workload,
            0,
            &RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }),
        )
        .unwrap()
        .luma();
        let full = SsimConfig::default()
            .with_threads(1)
            .mssim(&reference, &patu);
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let sampled = SampledSsimConfig::new(seed)
                .with_fraction(patu_quality::sampled::DEFAULT_FRACTION)
                .mssim_sampled(&reference, &patu);
            assert!(
                (sampled - full).abs() <= 0.005,
                "scene {scene}, seed {seed}: sampled {sampled} vs full {full}"
            );
        }
    }
}
