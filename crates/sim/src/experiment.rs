//! Multi-frame experiments: the comparisons behind every figure of the
//! paper's evaluation.

use crate::error::SimError;
use crate::render::{render_policies, FrameResult, RenderConfig};
use patu_core::FilterPolicy;
use patu_energy::EnergyModel;
use patu_gpu::{FaultConfig, FrameStats, GpuConfig};
use patu_quality::{GrayImage, SsimConfig};
use patu_scenes::Workload;

/// How many frames to simulate and how they are spread over the workload's
/// camera loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of frames averaged per data point.
    pub frames: u32,
    /// Stride between sampled frame indices (spreads samples over the path).
    pub frame_stride: u32,
    /// GPU configuration (Table I baseline by default).
    pub gpu: GpuConfig,
    /// Fault-injection configuration applied to every rendered frame
    /// (disabled by default).
    pub faults: FaultConfig,
    /// Worker threads. [`run_policies`] renders each frame's clusters on
    /// them (one traversal serves every policy). `None` uses
    /// [`std::thread::available_parallelism`]. Results are bit-identical
    /// across every value; 1 is the serial path.
    pub threads: Option<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            frames: 3,
            frame_stride: 120,
            gpu: GpuConfig::default(),
            faults: FaultConfig::disabled(),
            threads: None,
        }
    }
}

impl ExperimentConfig {
    /// The frame indices this configuration samples. Indices saturate at
    /// `u32::MAX` instead of overflowing for large `frames × frame_stride`
    /// products (workload builders wrap the camera loop, so a saturated
    /// index still renders).
    pub fn frame_indices(&self) -> Vec<u32> {
        (0..self.frames)
            .map(|i| i.saturating_mul(self.frame_stride))
            .collect()
    }

    /// Sets the worker-thread knob (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ExperimentConfig {
        self.threads = Some(threads);
        self
    }

    /// The configuration every frame of this experiment renders under:
    /// `policy` on the experiment's GPU, with its faults and worker
    /// threads.
    pub fn render_config(&self, policy: FilterPolicy) -> RenderConfig {
        RenderConfig {
            gpu: self.gpu,
            faults: self.faults,
            threads: self.threads,
            ..RenderConfig::new(policy)
        }
    }
}

/// Averaged results of one (workload, policy) pair.
#[derive(Debug, Clone)]
pub struct AggregateResult {
    /// Display label of the policy.
    pub label: String,
    /// The policy that produced this result.
    pub policy: FilterPolicy,
    /// Mean frame cycles.
    pub mean_cycles: f64,
    /// Mean summed filtering latency per frame.
    pub mean_filter_latency: f64,
    /// Mean SSIM against the 16×AF baseline frame (1.0 for the baseline).
    pub mssim: f64,
    /// Mean total GPU+DRAM energy per frame, joules.
    pub energy_joules: f64,
    /// Accumulated statistics over all frames.
    pub stats: FrameStats,
    /// Accumulated approximation coverage.
    pub approx: patu_core::ApproxStats,
    /// Accumulated sharing statistics (Fig. 12).
    pub sharing: patu_core::SharingStats,
    /// Accumulated quad divergence (Sec. V-C(1)).
    pub divergence: patu_core::DivergenceStats,
}

impl AggregateResult {
    /// Speedup of this result relative to `baseline` (>1 = faster).
    pub fn speedup_vs(&self, baseline: &AggregateResult) -> f64 {
        baseline.mean_cycles / self.mean_cycles
    }

    /// Energy relative to `baseline` (<1 = saves energy).
    pub fn energy_ratio_vs(&self, baseline: &AggregateResult) -> f64 {
        self.energy_joules / baseline.energy_joules
    }

    /// Filtering latency relative to `baseline` (<1 = lower latency).
    pub fn filter_latency_ratio_vs(&self, baseline: &AggregateResult) -> f64 {
        self.mean_filter_latency / baseline.mean_filter_latency
    }

    /// The paper's tuning metric: `speedup × MSSIM` (Sec. VII-A).
    pub fn tuning_metric(&self, baseline: &AggregateResult) -> f64 {
        self.speedup_vs(baseline) * self.mssim
    }
}

fn accumulate(result: &FrameResult, agg: &mut AggregateResult, energy: &EnergyModel) {
    agg.stats.accumulate(&result.stats);
    agg.approx.accumulate(&result.approx);
    agg.sharing.accumulate(&result.sharing);
    agg.divergence.accumulate(&result.divergence);
    agg.energy_joules += energy.frame_energy(&result.stats).total_joules();
}

/// Runs `policies` over the sampled frames of `workload`, computing each
/// policy's MSSIM against a 16×AF baseline rendered on the same frames.
///
/// Each frame is one [`render_policies`] call: one traversal renders the
/// baseline and every other policy, sharing geometry, footprints, stage-2
/// keys and texel samples, each result bit-identical to rendering that
/// policy alone. The baseline is always rendered to serve as the quality
/// reference; include [`FilterPolicy::Baseline`] in `policies` to also get
/// it as a result row.
///
/// # Errors
///
/// Returns [`SimError::NotEnoughFrames`] when `cfg` samples no frames (a
/// mean over none is undefined), or [`SimError`] when any policy or the
/// fault configuration is adversarial (see
/// [`crate::render::render_frame`]).
pub fn run_policies(
    workload: &Workload,
    policies: &[(&str, FilterPolicy)],
    cfg: &ExperimentConfig,
) -> Result<Vec<AggregateResult>, SimError> {
    if cfg.frames == 0 {
        return Err(SimError::NotEnoughFrames { got: 0, need: 1 });
    }
    let energy = EnergyModel::default();
    let ssim = SsimConfig::default();
    let mut results: Vec<AggregateResult> = policies
        .iter()
        .map(|(label, policy)| AggregateResult {
            label: (*label).to_string(),
            policy: *policy,
            mean_cycles: 0.0,
            mean_filter_latency: 0.0,
            mssim: 0.0,
            energy_joules: 0.0,
            stats: FrameStats::default(),
            approx: patu_core::ApproxStats::new(),
            sharing: patu_core::SharingStats::new(),
            divergence: patu_core::DivergenceStats::new(),
        })
        .collect();

    // One traversal per frame renders the 16×AF reference and every
    // approximating policy (`Baseline` rows reuse the reference), its
    // clusters in parallel on `cfg.threads` workers. Frames render in
    // order and are scored and accumulated as they finish, frame-major and
    // policy-minor, so `f64` sums match across thread counts and only one
    // frame's renders are alive at a time.
    let mut rendered = vec![FilterPolicy::Baseline];
    let slots: Vec<usize> = policies
        .iter()
        .map(|(_, policy)| match policy {
            FilterPolicy::Baseline => 0,
            _ => {
                rendered.push(*policy);
                rendered.len() - 1
            }
        })
        .collect();
    let rc = cfg.render_config(FilterPolicy::Baseline);
    let frames = cfg.frame_indices();
    for &frame in &frames {
        let frame_results = render_policies(workload, frame, &rc, &rendered)?;
        let baseline_luma = frame_results[0].luma();
        for (agg, &slot) in results.iter_mut().zip(&slots) {
            let result = &frame_results[slot];
            agg.mssim += if slot == 0 {
                1.0
            } else {
                f64::from(ssim.mssim(&baseline_luma, &result.luma()))
            };
            accumulate(result, agg, &energy);
        }
    }

    let n = frames.len() as f64;
    for agg in &mut results {
        agg.mean_cycles = agg.stats.cycles as f64 / n;
        agg.mean_filter_latency = agg.stats.filter_latency_cycles as f64 / n;
        agg.mssim /= n;
        agg.energy_joules /= n;
    }
    Ok(results)
}

/// The paper's four design points at threshold `theta` (Sec. VII-B):
/// Baseline, AF-SSIM(N), AF-SSIM(N)+(Txds), PATU.
pub fn design_points(theta: f64) -> Vec<(&'static str, FilterPolicy)> {
    vec![
        ("Baseline", FilterPolicy::Baseline),
        ("AF-SSIM(N)", FilterPolicy::SampleArea { threshold: theta }),
        (
            "AF-SSIM(N)+(Txds)",
            FilterPolicy::SampleAreaTxds { threshold: theta },
        ),
        ("PATU", FilterPolicy::Patu { threshold: theta }),
    ]
}

/// Runs the Fig. 17 threshold sweep: PATU at each threshold, plus the
/// baseline reference. Returns `(threshold, result)` pairs and the baseline.
///
/// # Errors
///
/// As [`run_policies`].
pub fn threshold_sweep(
    workload: &Workload,
    thresholds: &[f64],
    cfg: &ExperimentConfig,
) -> Result<(AggregateResult, Vec<(f64, AggregateResult)>), SimError> {
    let mut policies: Vec<(String, FilterPolicy)> =
        vec![("Baseline".to_string(), FilterPolicy::Baseline)];
    for &t in thresholds {
        policies.push((format!("PATU@{t:.1}"), FilterPolicy::Patu { threshold: t }));
    }
    let borrowed: Vec<(&str, FilterPolicy)> =
        policies.iter().map(|(s, p)| (s.as_str(), *p)).collect();
    let mut results = run_policies(workload, &borrowed, cfg)?;
    let baseline = results.remove(0);
    let sweep = thresholds.iter().copied().zip(results).collect();
    Ok((baseline, sweep))
}

/// Temporal stability: the mean SSIM between consecutive rendered frames
/// of one run, `lumas` in frame order. Approximation schemes can flicker —
/// a pixel demoted in one frame and not the next — which per-frame MSSIM
/// against the baseline cannot see but video viewers (the paper's Fig. 22
/// raters) do. Values near the baseline's own inter-frame SSIM mean the
/// approximation does not add temporal noise. The frames may come from
/// one [`render_policies`] call per frame (every policy scored on the same
/// frames) or from [`crate::render::render_sequence`] (reuse-aware).
///
/// # Errors
///
/// Returns [`SimError::NotEnoughFrames`] for fewer than two frames.
pub fn temporal_stability(lumas: &[GrayImage]) -> Result<f64, SimError> {
    if lumas.len() < 2 {
        return Err(SimError::NotEnoughFrames {
            got: lumas.len(),
            need: 2,
        });
    }
    let ssim = SsimConfig::default();
    let mut sum = 0.0;
    for pair in lumas.windows(2) {
        sum += f64::from(ssim.mssim(&pair[0], &pair[1]));
    }
    Ok(sum / (lumas.len() - 1) as f64)
}

/// The Best Point (BP) of a sweep: the threshold maximizing
/// `speedup × MSSIM` (Sec. VII-A).
pub fn best_point(baseline: &AggregateResult, sweep: &[(f64, AggregateResult)]) -> f64 {
    sweep
        .iter()
        .max_by(|a, b| {
            a.1.tuning_metric(baseline)
                .total_cmp(&b.1.tuning_metric(baseline))
        })
        .map(|(t, _)| *t)
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig {
            frames: 1,
            frame_stride: 1,
            ..ExperimentConfig::default()
        }
    }

    fn workload() -> Workload {
        Workload::build("grid", (192, 160)).unwrap()
    }

    #[test]
    fn frame_indices_stride() {
        let cfg = ExperimentConfig {
            frames: 3,
            frame_stride: 100,
            ..Default::default()
        };
        assert_eq!(cfg.frame_indices(), vec![0, 100, 200]);
    }

    #[test]
    fn frame_indices_saturate_instead_of_overflowing() {
        let cfg = ExperimentConfig {
            frames: 4,
            frame_stride: u32::MAX / 2,
            ..Default::default()
        };
        assert_eq!(
            cfg.frame_indices(),
            vec![0, u32::MAX / 2, u32::MAX - 1, u32::MAX],
            "indices clamp at u32::MAX rather than wrapping"
        );
    }

    #[test]
    fn design_points_are_four() {
        let pts = design_points(0.4);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].0, "Baseline");
        assert_eq!(pts[3].0, "PATU");
    }

    #[test]
    fn baseline_has_unity_metrics() {
        let w = workload();
        let results = run_policies(&w, &design_points(0.4), &small_cfg()).unwrap();
        let base = &results[0];
        assert!((base.mssim - 1.0).abs() < 1e-9);
        assert!((base.speedup_vs(base) - 1.0).abs() < 1e-12);
        assert!((base.energy_ratio_vs(base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn patu_faster_than_baseline_with_high_quality() {
        let w = workload();
        let results = run_policies(&w, &design_points(0.4), &small_cfg()).unwrap();
        let base = &results[0];
        let patu = &results[3];
        assert!(
            patu.speedup_vs(base) > 1.0,
            "PATU speeds up: {}",
            patu.speedup_vs(base)
        );
        assert!(patu.mssim > 0.8, "PATU quality stays high: {}", patu.mssim);
        assert!(patu.filter_latency_ratio_vs(base) < 1.0);
    }

    #[test]
    fn patu_beats_naive_demotion_on_quality() {
        let w = workload();
        let results = run_policies(&w, &design_points(0.4), &small_cfg()).unwrap();
        let naive = &results[2]; // AF-SSIM(N)+(Txds)
        let patu = &results[3];
        assert!(
            patu.mssim >= naive.mssim,
            "LOD reuse improves quality: {} vs {}",
            patu.mssim,
            naive.mssim
        );
    }

    #[test]
    fn sweep_quality_rises_with_threshold() {
        let w = workload();
        let (baseline, sweep) = threshold_sweep(&w, &[0.0, 0.5, 1.0], &small_cfg()).unwrap();
        assert_eq!(sweep.len(), 3);
        let q0 = sweep[0].1.mssim;
        let q1 = sweep[2].1.mssim;
        assert!(q1 >= q0, "quality monotone-ish in threshold: {q0} -> {q1}");
        // Speedup moves the other way.
        let s0 = sweep[0].1.speedup_vs(&baseline);
        let s1 = sweep[2].1.speedup_vs(&baseline);
        assert!(s0 >= s1, "speedup falls with threshold: {s0} -> {s1}");
    }

    /// Each policy's lumas over `frames`, from one traversal per frame.
    fn lumas_per_policy(
        w: &Workload,
        frames: &[u32],
        policies: &[FilterPolicy],
    ) -> Vec<Vec<GrayImage>> {
        let mut lumas = vec![Vec::new(); policies.len()];
        let rc = small_cfg().render_config(FilterPolicy::Baseline);
        for &f in frames {
            let rendered = render_policies(w, f, &rc, policies).unwrap();
            for (series, r) in lumas.iter_mut().zip(&rendered) {
                series.push(r.luma());
            }
        }
        lumas
    }

    #[test]
    fn temporal_stability_in_unit_range_and_tracks_baseline() {
        let w = workload();
        let policies = [
            FilterPolicy::Baseline,
            FilterPolicy::Patu { threshold: 0.4 },
        ];
        let lumas = lumas_per_policy(&w, &[0, 1, 2], &policies);
        let base = temporal_stability(&lumas[0]).unwrap();
        let patu = temporal_stability(&lumas[1]).unwrap();
        assert!((0.0..=1.0).contains(&base));
        assert!((0.0..=1.0).contains(&patu));
        // Approximation must not add an order of magnitude of flicker.
        assert!(patu > base - 0.1, "patu {patu} vs base {base}");
    }

    #[test]
    fn temporal_stability_of_a_still_frame_is_exactly_one() {
        let w = workload();
        let luma = lumas_per_policy(&w, &[0], &[FilterPolicy::Baseline])
            .remove(0)
            .remove(0);
        let still = temporal_stability(&[luma.clone(), luma.clone(), luma]).unwrap();
        assert_eq!(still.to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn sweeps_need_at_least_one_frame() {
        let w = workload();
        let none = ExperimentConfig {
            frames: 0,
            ..small_cfg()
        };
        let err = run_policies(
            &w,
            &[("PATU", FilterPolicy::Patu { threshold: 0.4 })],
            &none,
        )
        .unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::NotEnoughFrames { got: 0, need: 1 }
        );
        let err = threshold_sweep(&w, &[0.4], &none).unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::NotEnoughFrames { got: 0, need: 1 }
        );
    }

    #[test]
    fn temporal_stability_needs_two_frames() {
        let w = workload();
        let lumas = lumas_per_policy(&w, &[0], &[FilterPolicy::Baseline]).remove(0);
        for frames in [&lumas[..0], &lumas[..]] {
            assert_eq!(
                temporal_stability(frames).unwrap_err(),
                crate::error::SimError::NotEnoughFrames {
                    got: frames.len(),
                    need: 2
                }
            );
        }
    }

    #[test]
    fn reuse_aware_stability_reports_the_kept_fraction() {
        use crate::render::render_sequence;
        use patu_gpu::TemporalCounts;
        use patu_temporal::{TemporalConfig, TemporalMode, TileStore};
        let w = Workload::build("orbit", (192, 144)).unwrap();
        let frames = [0u32, 1, 2, 3];
        let rc = small_cfg().render_config(FilterPolicy::Patu { threshold: 0.4 });
        let run = |temporal| {
            let mut store = TileStore::new(temporal);
            let results = render_sequence(&w, &frames, &rc, &mut store).unwrap();
            let lumas: Vec<GrayImage> = results.iter().map(FrameResult::luma).collect();
            let mut tiles = TemporalCounts::default();
            for r in &results {
                tiles.accumulate(&r.stats.temporal);
            }
            (temporal_stability(&lumas).unwrap(), tiles.reuse_fraction())
        };
        let (stable_off, kept_off) = run(TemporalConfig::off());
        assert_eq!(kept_off, 0.0, "off keeps nothing");
        assert!((0.0..=1.0).contains(&stable_off));
        let (stable_on, kept_on) = run(TemporalConfig::for_mode(TemporalMode::On));
        assert!(kept_on > 0.0, "slow orbit reuses tiles");
        assert!(
            stable_on >= stable_off - 1e-6,
            "blitted tiles cannot flicker: {stable_on} vs {stable_off}"
        );
    }

    /// Every field a figure reads, compared bit for bit.
    fn same_row(a: &AggregateResult, b: &AggregateResult) -> bool {
        a.policy == b.policy
            && a.stats == b.stats
            && a.approx == b.approx
            && a.sharing == b.sharing
            && a.divergence == b.divergence
            && a.mssim.to_bits() == b.mssim.to_bits()
            && a.energy_joules.to_bits() == b.energy_joules.to_bits()
            && a.mean_cycles.to_bits() == b.mean_cycles.to_bits()
    }

    #[test]
    fn a_policys_row_does_not_depend_on_the_policies_beside_it() {
        // The premise of sharing one sweep between figures: a policy run
        // alone, among the design points, or in a union with AF-off and a
        // threshold list yields the same row.
        let w = workload();
        let cfg = ExperimentConfig {
            frames: 2,
            ..small_cfg()
        };
        let points = design_points(0.4);
        let mut union = vec![("NoAF", FilterPolicy::NoAf)];
        union.extend(points.iter().copied());
        for t in [0.0, 0.2, 0.4, 1.0] {
            union.push(("PATU@t", FilterPolicy::Patu { threshold: t }));
        }
        let in_points = run_policies(&w, &points, &cfg).unwrap();
        let in_union = run_policies(&w, &union, &cfg).unwrap();
        for (policy, in_union) in union.iter().zip(&in_union) {
            let alone = run_policies(&w, &[*policy], &cfg).unwrap();
            assert!(same_row(&alone[0], in_union), "{policy:?} alone vs union");
            if let Some(i) = points.iter().position(|p| p.1 == policy.1) {
                assert!(
                    same_row(&alone[0], &in_points[i]),
                    "{policy:?} alone vs points"
                );
            }
        }
    }

    #[test]
    fn fault_counters_flow_into_aggregates() {
        let w = workload();
        let cfg = ExperimentConfig {
            faults: FaultConfig::uniform(5, 0.05),
            ..small_cfg()
        };
        let results = run_policies(&w, &design_points(0.4), &cfg).unwrap();
        let patu = &results[3];
        assert!(patu.stats.faults.faults_injected() > 0);
        assert!(patu.stats.faults.fallbacks > 0);
        assert!(
            (0.0..=1.0).contains(&patu.mssim),
            "SSIM stays valid under faults"
        );
        // Same seed, same chaos: the whole experiment is reproducible.
        let again = run_policies(&w, &design_points(0.4), &cfg).unwrap();
        assert_eq!(patu.stats, again[3].stats);
    }

    #[test]
    fn invalid_fault_rate_is_an_error_not_a_panic() {
        let w = workload();
        let cfg = ExperimentConfig {
            faults: FaultConfig {
                cache_bitflip_rate: -1.0,
                ..FaultConfig::disabled()
            },
            ..small_cfg()
        };
        assert!(run_policies(&w, &design_points(0.4), &cfg).is_err());
    }

    #[test]
    fn best_point_picks_max_tuning_metric() {
        let w = workload();
        let (baseline, sweep) = threshold_sweep(&w, &[0.2, 0.8], &small_cfg()).unwrap();
        let bp = best_point(&baseline, &sweep);
        let metrics: Vec<f64> = sweep
            .iter()
            .map(|(_, r)| r.tuning_metric(&baseline))
            .collect();
        let best_idx = if metrics[0] >= metrics[1] { 0 } else { 1 };
        assert_eq!(bp, sweep[best_idx].0);
    }
}
