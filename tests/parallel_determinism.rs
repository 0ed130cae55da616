//! The parallel runtime's hard invariant: every simulator output is
//! bit-identical across thread counts, with and without fault injection.
//!
//! Thread counts are pinned through the explicit `threads` knob (never
//! `std::env::set_var` — the test harness itself is multi-threaded), so
//! each case exercises the serial inline path (1), partial occupancy (2),
//! one worker per cluster (4), and whatever the host advertises.

use patu_core::FilterPolicy;
use patu_gpu::FaultConfig;
use patu_scenes::Workload;
use patu_sim::experiment::{
    design_points, run_policies, threshold_sweep, AggregateResult, ExperimentConfig,
};
use patu_sim::render::{render_frame, FrameResult, RenderConfig};

fn thread_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, 4];
    if !counts.contains(&avail) {
        counts.push(avail);
    }
    counts
}

fn assert_frames_identical(reference: &FrameResult, other: &FrameResult, context: &str) {
    assert_eq!(
        reference.image, other.image,
        "framebuffer bytes differ: {context}"
    );
    assert_eq!(
        reference.stats, other.stats,
        "frame stats differ: {context}"
    );
    assert_eq!(
        reference.approx, other.approx,
        "approx stats differ: {context}"
    );
    assert_eq!(
        reference.sharing, other.sharing,
        "sharing stats differ: {context}"
    );
    assert_eq!(
        reference.divergence, other.divergence,
        "divergence differs: {context}"
    );
    assert_eq!(
        reference.degraded, other.degraded,
        "degradation flag differs: {context}"
    );
}

#[test]
fn frame_outputs_bit_identical_across_thread_counts() {
    let workload = Workload::build("doom3", (192, 160)).unwrap();
    let policies = [
        FilterPolicy::Baseline,
        FilterPolicy::SampleArea { threshold: 0.4 },
        FilterPolicy::Patu { threshold: 0.4 },
    ];
    let fault_modes = [FaultConfig::disabled(), FaultConfig::uniform(42, 0.05)];

    for policy in policies {
        for faults in fault_modes {
            let cfg = |threads: usize| {
                RenderConfig::new(policy)
                    .with_faults(faults)
                    .with_threads(threads)
            };
            let reference = render_frame(&workload, 0, &cfg(1)).unwrap();
            for threads in thread_counts() {
                let run = render_frame(&workload, 0, &cfg(threads)).unwrap();
                let context = format!(
                    "policy {policy:?}, faults {faulty}, threads {threads}",
                    faulty = !faults.is_disabled()
                );
                assert_frames_identical(&reference, &run, &context);
            }
        }
    }
}

fn assert_aggregates_identical(r: &AggregateResult, o: &AggregateResult, context: &str) {
    assert_eq!(r.label, o.label, "labels differ: {context}");
    assert_eq!(r.stats, o.stats, "aggregate stats differ: {context}");
    assert_eq!(r.approx, o.approx, "approx differs: {context}");
    assert_eq!(r.sharing, o.sharing, "sharing differs: {context}");
    assert_eq!(r.divergence, o.divergence, "divergence differs: {context}");
    assert_eq!(
        r.mssim.to_bits(),
        o.mssim.to_bits(),
        "mssim not bit-identical: {context} ({} vs {})",
        r.mssim,
        o.mssim
    );
    assert_eq!(
        r.energy_joules.to_bits(),
        o.energy_joules.to_bits(),
        "energy not bit-identical: {context}"
    );
    assert_eq!(
        r.mean_cycles.to_bits(),
        o.mean_cycles.to_bits(),
        "mean cycles not bit-identical: {context}"
    );
    assert_eq!(
        r.mean_filter_latency.to_bits(),
        o.mean_filter_latency.to_bits(),
        "mean filter latency not bit-identical: {context}"
    );
}

#[test]
fn aggregate_sweeps_bit_identical_across_thread_counts() {
    let workload = Workload::build("grid", (160, 128)).unwrap();
    let points = design_points(0.4);
    let thresholds = [0.2, 0.6];
    for faults in [FaultConfig::disabled(), FaultConfig::uniform(7, 0.05)] {
        let cfg = |threads: usize| {
            ExperimentConfig {
                frames: 2,
                frame_stride: 100,
                faults,
                ..ExperimentConfig::default()
            }
            .with_threads(threads)
        };
        let reference = run_policies(&workload, &points, &cfg(1)).unwrap();
        let (sweep_base, sweep) = threshold_sweep(&workload, &thresholds, &cfg(1)).unwrap();
        for threads in [2usize, 4] {
            let faulty = !faults.is_disabled();
            let run = run_policies(&workload, &points, &cfg(threads)).unwrap();
            assert_eq!(reference.len(), run.len());
            for (r, o) in reference.iter().zip(&run) {
                let context = format!("policy {}, faults {faulty}, threads {threads}", r.label);
                assert_aggregates_identical(r, o, &context);
            }
            let (base, points) = threshold_sweep(&workload, &thresholds, &cfg(threads)).unwrap();
            let context = format!("sweep baseline, faults {faulty}, threads {threads}");
            assert_aggregates_identical(&sweep_base, &base, &context);
            assert_eq!(sweep.len(), points.len());
            for ((rt, r), (ot, o)) in sweep.iter().zip(&points) {
                assert_eq!(rt.to_bits(), ot.to_bits());
                let context = format!("sweep θ={rt}, faults {faulty}, threads {threads}");
                assert_aggregates_identical(r, o, &context);
            }
        }
    }
}
