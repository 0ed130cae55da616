//! Filtering policies and the two-stage runtime prediction flow (Fig. 13).
//!
//! A [`FilterPolicy`] decides, per pixel, whether anisotropic filtering can
//! be approximated by plain trilinear filtering. The evaluation's four
//! design points (Sec. VII-B) map to:
//!
//! | Paper design point      | Policy                                  |
//! |-------------------------|-----------------------------------------|
//! | Baseline (16×AF)        | [`FilterPolicy::Baseline`]              |
//! | AF disabled (Fig. 5/7)  | [`FilterPolicy::NoAf`]                  |
//! | AF-SSIM(N)              | [`FilterPolicy::SampleArea`]            |
//! | AF-SSIM(N)+(Txds)       | [`FilterPolicy::SampleAreaTxds`]        |
//! | PATU                    | [`FilterPolicy::Patu`]                  |
//!
//! The two predictive stages share one unified threshold (Sec. IV-C(C)).

use crate::afssim::{af_ssim_txds, try_af_ssim_n, txds_from_entropy};
use crate::error::PatuError;
use crate::hash_table::TexelAddressTable;
use patu_gpu::FaultInjector;
use patu_texture::{Footprint, TexelAddress};

/// How the pixel is ultimately filtered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterMode {
    /// Full anisotropic filtering (`N` trilinear taps at the AF LOD).
    Anisotropic,
    /// Trilinear only, at TF's own (coarser) LOD — the naive demotion that
    /// causes the LOD shift of Sec. V-C(2).
    TrilinearTfLod,
    /// Trilinear only, reusing AF's (finer) LOD — PATU's demotion, which
    /// avoids the LOD shift and improves texture-cache locality.
    TrilinearAfLod,
}

/// Which point of the prediction flow produced the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionStage {
    /// The policy never predicts (baseline / no-AF).
    Fixed,
    /// The footprint was isotropic (`N = 1`); no AF was ever needed.
    Isotropic,
    /// Approved for approximation by AF-SSIM(N) after Texel Generation.
    SampleArea,
    /// Approved for approximation by AF-SSIM(Txds) after Texel Address
    /// Calculation.
    Distribution,
    /// Both predictors demanded AF; the pixel keeps full filtering.
    KeptAf,
    /// The prediction state was untrustworthy — a non-finite predictor
    /// value, a corrupted hash table (parity error), or an out-of-domain
    /// input — so the pixel degraded to full AF. Quality-safe: the fallback
    /// always renders at least as accurately as the prediction would have.
    Fallback,
}

/// The per-pixel outcome of a policy decision, including the architectural
/// side costs the timing/energy models charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyDecision {
    /// Chosen filtering mode.
    pub mode: FilterMode,
    /// Which stage decided.
    pub stage: DecisionStage,
    /// Predictor evaluations performed (compute-logic activations).
    pub predictor_evals: u32,
    /// Texel-address hash-table lookups performed.
    pub hash_accesses: u32,
    /// Trilinear taps whose addresses were calculated and then discarded
    /// (a stage-2 approximation recalculates addresses with `N = 1`).
    pub wasted_addr_taps: u32,
}

impl PolicyDecision {
    fn fixed(mode: FilterMode) -> PolicyDecision {
        PolicyDecision {
            mode,
            stage: DecisionStage::Fixed,
            predictor_evals: 0,
            hash_accesses: 0,
            wasted_addr_taps: 0,
        }
    }

    fn fallback(predictor_evals: u32, hash_accesses: u32) -> PolicyDecision {
        PolicyDecision {
            mode: FilterMode::Anisotropic,
            stage: DecisionStage::Fallback,
            predictor_evals,
            hash_accesses,
            wasted_addr_taps: 0,
        }
    }

    /// Whether AF was approximated away (any trilinear-only mode).
    pub fn is_approximated(&self) -> bool {
        self.mode != FilterMode::Anisotropic
    }
}

/// The filtering policy of a texture unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterPolicy {
    /// Always apply full 16×AF (the paper's baseline).
    Baseline,
    /// Never apply AF (the paper's motivation experiments, Fig. 5–7).
    NoAf,
    /// Sample-area based prediction only: AF-SSIM(N) vs. `threshold`.
    SampleArea {
        /// The unified prediction threshold in `[0, 1]`.
        threshold: f64,
    },
    /// Both predictions, but demoted pixels use TF's own LOD (suffers the
    /// LOD shift).
    SampleAreaTxds {
        /// The unified prediction threshold in `[0, 1]`.
        threshold: f64,
    },
    /// The full PATU design: both predictions + AF-LOD reuse for demoted
    /// pixels.
    Patu {
        /// The unified prediction threshold in `[0, 1]`.
        threshold: f64,
    },
}

/// Error returned when parsing a [`FilterPolicy`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    input: String,
}

impl std::fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid policy '{}' (expected baseline, noaf, sample-area[@T], \
             sample-area-txds[@T] or patu[@T] with T in [0,1])",
            self.input
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl std::str::FromStr for FilterPolicy {
    type Err = ParsePolicyError;

    /// Parses `baseline`, `noaf`, or a predictive policy with an optional
    /// `@threshold` suffix (default 0.4): `patu`, `patu@0.6`,
    /// `sample-area@0.2`, `sample-area-txds`.
    fn from_str(s: &str) -> Result<FilterPolicy, ParsePolicyError> {
        let err = || ParsePolicyError {
            input: s.to_string(),
        };
        let (name, threshold) = match s.split_once('@') {
            Some((n, t)) => {
                let t: f64 = t.parse().map_err(|_| err())?;
                if !(0.0..=1.0).contains(&t) {
                    return Err(err());
                }
                (n, t)
            }
            None => (s, 0.4),
        };
        match name.to_ascii_lowercase().as_str() {
            "baseline" | "af" => Ok(FilterPolicy::Baseline),
            "noaf" | "no-af" | "off" => Ok(FilterPolicy::NoAf),
            "sample-area" | "afssim-n" => Ok(FilterPolicy::SampleArea { threshold }),
            "sample-area-txds" | "afssim-n-txds" => Ok(FilterPolicy::SampleAreaTxds { threshold }),
            "patu" => Ok(FilterPolicy::Patu { threshold }),
            _ => Err(err()),
        }
    }
}

impl FilterPolicy {
    /// The approximation mode this policy demotes pixels to.
    fn approx_mode(&self) -> FilterMode {
        match self {
            FilterPolicy::Patu { .. } => FilterMode::TrilinearAfLod,
            _ => FilterMode::TrilinearTfLod,
        }
    }

    /// The unified threshold, if the policy predicts.
    pub fn threshold(&self) -> Option<f64> {
        match *self {
            FilterPolicy::Baseline | FilterPolicy::NoAf => None,
            FilterPolicy::SampleArea { threshold }
            | FilterPolicy::SampleAreaTxds { threshold }
            | FilterPolicy::Patu { threshold } => Some(threshold),
        }
    }

    /// Returns the same policy with its threshold replaced (clamped into
    /// `[0, 1]`). Fixed policies are returned unchanged. Used by per-pixel
    /// threshold modulation such as foveated rendering, where the knob
    /// loosens with eccentricity.
    #[must_use]
    pub fn with_threshold(self, threshold: f64) -> FilterPolicy {
        let threshold = threshold.clamp(0.0, 1.0);
        match self {
            FilterPolicy::Baseline | FilterPolicy::NoAf => self,
            FilterPolicy::SampleArea { .. } => FilterPolicy::SampleArea { threshold },
            FilterPolicy::SampleAreaTxds { .. } => FilterPolicy::SampleAreaTxds { threshold },
            FilterPolicy::Patu { .. } => FilterPolicy::Patu { threshold },
        }
    }

    /// The hook for externally-governed thresholds (the serving layer's
    /// quality governor): replaces the threshold with `theta` snapped onto a
    /// grid of `steps` equal intervals across `[0, 1]`.
    ///
    /// Quantization matters for two reasons. It bounds the set of distinct
    /// policies a continuous controller can emit — so per-policy caches
    /// (rendered-frame reuse across same-scene jobs, design-point tables)
    /// actually hit — and it snaps tiny floating-point differences in the
    /// controller state to the same rendered output, keeping governed runs
    /// reproducible. A non-finite `theta` falls to the quality ceiling
    /// (1.0, the safe direction), matching `ThresholdController::new`;
    /// `steps == 0` sanitizes to 1. Fixed policies are returned unchanged.
    #[must_use]
    pub fn govern(self, theta: f64, steps: u32) -> FilterPolicy {
        let theta = if theta.is_finite() { theta } else { 1.0 };
        let steps = f64::from(steps.max(1));
        let snapped = (theta.clamp(0.0, 1.0) * steps).round() / steps;
        self.with_threshold(snapped)
    }

    /// Whether the policy runs the distribution (Txds) stage.
    pub fn uses_distribution_stage(&self) -> bool {
        matches!(
            self,
            FilterPolicy::SampleAreaTxds { .. } | FilterPolicy::Patu { .. }
        )
    }

    /// Checks the policy's configuration, reporting a non-finite or
    /// out-of-range threshold as a typed error instead of panicking.
    pub fn validate(&self) -> Result<(), PatuError> {
        if let Some(t) = self.threshold() {
            if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                return Err(PatuError::InvalidThreshold { value: t });
            }
        }
        Ok(())
    }

    /// Runs the prediction flow (Fig. 13) for one pixel.
    ///
    /// `tap_sets` provides the texel address set of each AF trilinear tap and
    /// is only invoked when the distribution stage actually runs — exactly
    /// as in hardware, where the hash table observes the address stream that
    /// *Texel Address Calculation* produces anyway. `table` is the unit's
    /// hash table (reset here per pixel; accesses accumulate).
    ///
    /// Adversarial configurations degrade instead of panicking: a finite
    /// out-of-range threshold is clamped into `[0, 1]`, while a non-finite
    /// threshold or an out-of-domain `footprint.n` keeps full AF with
    /// [`DecisionStage::Fallback`] (quality-safe by construction).
    pub fn decide<F>(
        &self,
        footprint: &Footprint,
        table: &mut TexelAddressTable,
        tap_sets: F,
    ) -> PolicyDecision
    where
        F: FnOnce() -> Vec<Vec<TexelAddress>>,
    {
        let mut faults = FaultInjector::disabled();
        self.decide_with(footprint, table, &mut faults, tap_sets)
    }

    /// [`FilterPolicy::decide`] with a [`FaultInjector`] in the loop.
    ///
    /// This is the chaos-suite entry point: the injector may poison either
    /// predictor's output with NaN/±Inf or flip a count-tag bit in the hash
    /// table after the tap stream lands. Every such event is *detected* —
    /// non-finite predictions via an `is_finite` check, table corruption via
    /// the modeled parity bit — and degrades the pixel to full AF with
    /// [`DecisionStage::Fallback`], recording `note_fallback()`. A disabled
    /// injector draws no randomness, so `decide` is bit-identical to the
    /// pre-fault-injection flow.
    pub fn decide_with<F>(
        &self,
        footprint: &Footprint,
        table: &mut TexelAddressTable,
        faults: &mut FaultInjector,
        tap_sets: F,
    ) -> PolicyDecision
    where
        F: FnOnce() -> Vec<Vec<TexelAddress>>,
    {
        let n = footprint.n;
        self.decide_streamed(footprint, table, faults, move |table| {
            let sets = tap_sets();
            debug_assert_eq!(sets.len(), n as usize, "one address set per AF tap");
            table.reset();
            for s in &sets {
                table.insert(s);
            }
            sets.len() as u32
        })
    }

    /// The streaming form of [`FilterPolicy::decide_with`]: instead of
    /// materializing every tap's address set as a `Vec<Vec<TexelAddress>>`,
    /// the caller streams the sets straight into the table. `stream_taps` is
    /// only invoked when the distribution stage runs; it must `reset` the
    /// table, `insert` one normalized set per AF tap, and return the number
    /// of taps streamed. It must not draw from the fault injector — the
    /// injector's draw sequence is part of the bit-exact contract between
    /// the scalar and batched paths, both of which bottom out here.
    pub fn decide_streamed<F>(
        &self,
        footprint: &Footprint,
        table: &mut TexelAddressTable,
        faults: &mut FaultInjector,
        stream_taps: F,
    ) -> PolicyDecision
    where
        F: FnOnce(&mut TexelAddressTable) -> u32,
    {
        let n = footprint.n;

        // An isotropic footprint never takes the AF path, under any policy.
        if n == 1 {
            return PolicyDecision {
                mode: FilterMode::TrilinearTfLod,
                stage: DecisionStage::Isotropic,
                predictor_evals: 0,
                hash_accesses: 0,
                wasted_addr_taps: 0,
            };
        }

        let threshold = match *self {
            FilterPolicy::Baseline => return PolicyDecision::fixed(FilterMode::Anisotropic),
            FilterPolicy::NoAf => return PolicyDecision::fixed(FilterMode::TrilinearTfLod),
            FilterPolicy::SampleArea { threshold }
            | FilterPolicy::SampleAreaTxds { threshold }
            | FilterPolicy::Patu { threshold } => threshold,
        };
        // A broken knob cannot be compared against; keep full quality.
        if !threshold.is_finite() {
            faults.note_fallback();
            return PolicyDecision::fallback(0, 0);
        }
        let threshold = threshold.clamp(0.0, 1.0);

        // Stage 1: sample-area similarity check (PATU component ①),
        // right after Texel Generation.
        let mut predictor_evals = 1;
        let stage1 = match try_af_ssim_n(n) {
            Ok(v) => faults.poison_predictor(v),
            Err(_) => {
                faults.note_fallback();
                return PolicyDecision::fallback(predictor_evals, 0);
            }
        };
        if !stage1.is_finite() {
            faults.note_fallback();
            return PolicyDecision::fallback(predictor_evals, 0);
        }
        if stage1 > threshold {
            return PolicyDecision {
                mode: self.approx_mode(),
                stage: DecisionStage::SampleArea,
                predictor_evals,
                hash_accesses: 0,
                wasted_addr_taps: 0,
            };
        }

        if !self.uses_distribution_stage() {
            return PolicyDecision {
                mode: FilterMode::Anisotropic,
                stage: DecisionStage::KeptAf,
                predictor_evals,
                hash_accesses: 0,
                wasted_addr_taps: 0,
            };
        }

        // Stage 2: texel-distribution check (components ② + ③), right after
        // Texel Address Calculation.
        let hash_accesses = stream_taps(table);
        // Fault site: a soft error strikes a count tag after the tap stream
        // lands. The modeled parity bit detects it below.
        if let Some((selector, bit)) = faults.table_corruption() {
            table.corrupt_count(selector, bit);
        }
        predictor_evals += 1;
        if table.parity_error() {
            faults.note_fallback();
            return PolicyDecision::fallback(predictor_evals, hash_accesses);
        }
        let stage2 = faults.poison_predictor(af_ssim_txds(txds_from_entropy(table.entropy(), n)));
        if !stage2.is_finite() {
            faults.note_fallback();
            return PolicyDecision::fallback(predictor_evals, hash_accesses);
        }
        if stage2 > threshold {
            return PolicyDecision {
                mode: self.approx_mode(),
                stage: DecisionStage::Distribution,
                predictor_evals,
                hash_accesses,
                // The controller re-calculates addresses with N = 1; the N
                // AF taps' address work is discarded.
                wasted_addr_taps: n,
            };
        }

        PolicyDecision {
            mode: FilterMode::Anisotropic,
            stage: DecisionStage::KeptAf,
            predictor_evals,
            hash_accesses,
            wasted_addr_taps: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patu_gmath::Vec2;

    fn footprint(n_texels: f32) -> Footprint {
        Footprint::from_derivatives(
            Vec2::new(n_texels / 256.0, 0.0),
            Vec2::new(0.0, 1.0 / 256.0),
            256,
            256,
            16,
        )
    }

    fn set(base: u64) -> Vec<TexelAddress> {
        (0..8).map(|i| TexelAddress::new(base + i * 4)).collect()
    }

    /// N distinct tap address sets: worst-case distribution (Txds = 0).
    fn distinct_sets(n: u32) -> Vec<Vec<TexelAddress>> {
        (0..u64::from(n)).map(|i| set(i * 0x100)).collect()
    }

    /// N identical tap sets: perfect concentration (Txds = 1).
    fn shared_sets(n: u32) -> Vec<Vec<TexelAddress>> {
        (0..n).map(|_| set(0)).collect()
    }

    #[test]
    fn baseline_always_af() {
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::Baseline.decide(&footprint(8.0), &mut t, Vec::new);
        assert_eq!(d.mode, FilterMode::Anisotropic);
        assert_eq!(d.stage, DecisionStage::Fixed);
        assert!(!d.is_approximated());
    }

    #[test]
    fn noaf_always_trilinear() {
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::NoAf.decide(&footprint(8.0), &mut t, Vec::new);
        assert_eq!(d.mode, FilterMode::TrilinearTfLod);
        assert!(d.is_approximated());
    }

    #[test]
    fn isotropic_pixels_never_need_af() {
        let mut t = TexelAddressTable::new();
        for policy in [
            FilterPolicy::Baseline,
            FilterPolicy::NoAf,
            FilterPolicy::Patu { threshold: 0.4 },
        ] {
            let d = policy.decide(&footprint(1.0), &mut t, Vec::new);
            assert_eq!(d.stage, DecisionStage::Isotropic, "{policy:?}");
            assert_eq!(d.mode, FilterMode::TrilinearTfLod);
        }
    }

    #[test]
    fn stage1_approves_small_n() {
        // N=2: AF_SSIM = 0.64 > 0.4 -> approximate at stage 1.
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::Patu { threshold: 0.4 }.decide(&footprint(2.0), &mut t, || {
            panic!("stage 2 must not run when stage 1 approves")
        });
        assert_eq!(d.stage, DecisionStage::SampleArea);
        assert_eq!(d.mode, FilterMode::TrilinearAfLod);
        assert_eq!(d.hash_accesses, 0);
        assert_eq!(d.predictor_evals, 1);
    }

    #[test]
    fn stage2_approves_concentrated_taps() {
        // N=8: AF_SSIM(N) ≈ 0.061 < 0.4 -> stage 2; all taps share texels.
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::Patu { threshold: 0.4 }
            .decide(&footprint(8.0), &mut t, || shared_sets(8));
        assert_eq!(d.stage, DecisionStage::Distribution);
        assert_eq!(d.mode, FilterMode::TrilinearAfLod);
        assert_eq!(d.hash_accesses, 8);
        assert_eq!(d.wasted_addr_taps, 8);
        assert_eq!(d.predictor_evals, 2);
    }

    #[test]
    fn stage2_keeps_af_for_spread_taps() {
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::Patu { threshold: 0.4 }
            .decide(&footprint(8.0), &mut t, || distinct_sets(8));
        assert_eq!(d.stage, DecisionStage::KeptAf);
        assert_eq!(d.mode, FilterMode::Anisotropic);
        assert_eq!(d.wasted_addr_taps, 0);
    }

    #[test]
    fn sample_area_policy_skips_stage2() {
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::SampleArea { threshold: 0.4 }.decide(&footprint(8.0), &mut t, || {
            panic!("SampleArea policy has no distribution stage")
        });
        assert_eq!(d.stage, DecisionStage::KeptAf);
        assert_eq!(d.mode, FilterMode::Anisotropic);
    }

    #[test]
    fn txds_policy_demotes_to_tf_lod() {
        let mut t = TexelAddressTable::new();
        let d =
            FilterPolicy::SampleAreaTxds { threshold: 0.4 }
                .decide(&footprint(8.0), &mut t, || shared_sets(8));
        assert_eq!(
            d.mode,
            FilterMode::TrilinearTfLod,
            "non-PATU demotion suffers the LOD shift"
        );
    }

    #[test]
    fn threshold_zero_approximates_everything() {
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::Patu { threshold: 0.0 }.decide(&footprint(16.0), &mut t, Vec::new);
        assert!(d.is_approximated(), "AF_SSIM(16) > 0 always");
        assert_eq!(d.stage, DecisionStage::SampleArea);
    }

    #[test]
    fn threshold_one_keeps_af_even_when_concentrated_differs() {
        // At threshold 1.0 only exact-1.0 predictions approve; distinct sets
        // (Txds = 0) certainly keep AF.
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::Patu { threshold: 1.0 }
            .decide(&footprint(8.0), &mut t, || distinct_sets(8));
        assert_eq!(d.mode, FilterMode::Anisotropic);
    }

    #[test]
    fn out_of_range_threshold_clamps() {
        // An adversarial threshold no longer panics: 1.5 behaves like 1.0.
        let mut t = TexelAddressTable::new();
        let wild = FilterPolicy::Patu { threshold: 1.5 }
            .decide(&footprint(8.0), &mut t, || distinct_sets(8));
        let clamped = FilterPolicy::Patu { threshold: 1.0 }
            .decide(&footprint(8.0), &mut t, || distinct_sets(8));
        assert_eq!(wild, clamped);
        assert!(FilterPolicy::Patu { threshold: 1.5 }.validate().is_err());
        assert!(FilterPolicy::Patu { threshold: 0.4 }.validate().is_ok());
    }

    #[test]
    fn nan_threshold_falls_back_to_full_af() {
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::Patu {
            threshold: f64::NAN,
        }
        .decide(&footprint(4.0), &mut t, Vec::new);
        assert_eq!(d.stage, DecisionStage::Fallback);
        assert_eq!(d.mode, FilterMode::Anisotropic, "fallback is quality-safe");
        assert!(FilterPolicy::Patu {
            threshold: f64::NAN
        }
        .validate()
        .is_err());
    }

    #[test]
    fn poisoned_predictor_falls_back_and_counts() {
        use patu_gpu::{FaultConfig, FaultInjector};
        let cfg = FaultConfig {
            predictor_nan_rate: 1.0,
            ..FaultConfig::disabled()
        };
        let mut faults = FaultInjector::new(cfg);
        let mut t = TexelAddressTable::new();
        let d = FilterPolicy::Patu { threshold: 0.4 }.decide_with(
            &footprint(2.0),
            &mut t,
            &mut faults,
            Vec::new,
        );
        assert_eq!(d.stage, DecisionStage::Fallback);
        assert_eq!(d.mode, FilterMode::Anisotropic);
        assert_eq!(faults.counts().predictor_poisons, 1);
        assert_eq!(faults.counts().fallbacks, 1);
    }

    #[test]
    fn corrupted_table_is_detected_by_parity() {
        use patu_gpu::{FaultConfig, FaultInjector};
        let cfg = FaultConfig {
            table_corrupt_rate: 1.0,
            ..FaultConfig::disabled()
        };
        let mut faults = FaultInjector::new(cfg);
        let mut t = TexelAddressTable::new();
        // N=8 passes stage 1 (AF_SSIM ≈ 0.061 < 0.4) and reaches the table.
        let d = FilterPolicy::Patu { threshold: 0.4 }.decide_with(
            &footprint(8.0),
            &mut t,
            &mut faults,
            || shared_sets(8),
        );
        assert_eq!(d.stage, DecisionStage::Fallback);
        assert_eq!(d.hash_accesses, 8, "the tap stream still ran");
        assert_eq!(faults.counts().table_corruptions, 1);
        assert_eq!(faults.counts().fallbacks, 1);
    }

    #[test]
    fn disabled_injector_matches_plain_decide() {
        use patu_gpu::FaultInjector;
        let policy = FilterPolicy::Patu { threshold: 0.4 };
        for n in [1u32, 2, 8, 16] {
            let mut t1 = TexelAddressTable::new();
            let mut t2 = TexelAddressTable::new();
            let mut calm = FaultInjector::disabled();
            let fp = footprint(n as f32);
            let a = policy.decide(&fp, &mut t1, || shared_sets(n));
            let b = policy.decide_with(&fp, &mut t2, &mut calm, || shared_sets(n));
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn policy_parses_from_strings() {
        use std::str::FromStr;
        assert_eq!(
            FilterPolicy::from_str("baseline").unwrap(),
            FilterPolicy::Baseline
        );
        assert_eq!(FilterPolicy::from_str("noaf").unwrap(), FilterPolicy::NoAf);
        assert_eq!(
            FilterPolicy::from_str("patu").unwrap(),
            FilterPolicy::Patu { threshold: 0.4 },
            "default threshold is the paper's average BP"
        );
        assert_eq!(
            FilterPolicy::from_str("patu@0.8").unwrap(),
            FilterPolicy::Patu { threshold: 0.8 }
        );
        assert_eq!(
            FilterPolicy::from_str("sample-area-txds@0.2").unwrap(),
            FilterPolicy::SampleAreaTxds { threshold: 0.2 }
        );
    }

    #[test]
    fn policy_parse_errors() {
        use std::str::FromStr;
        assert!(FilterPolicy::from_str("bilinear").is_err());
        assert!(FilterPolicy::from_str("patu@1.5").is_err());
        assert!(FilterPolicy::from_str("patu@nan").is_err());
        let msg = FilterPolicy::from_str("xyz").unwrap_err().to_string();
        assert!(msg.contains("xyz"));
    }

    #[test]
    fn govern_snaps_onto_the_step_grid() {
        let p = FilterPolicy::Patu { threshold: 0.4 };
        assert_eq!(p.govern(0.437, 20), FilterPolicy::Patu { threshold: 0.45 });
        assert_eq!(p.govern(0.42, 20), FilterPolicy::Patu { threshold: 0.4 });
        assert_eq!(p.govern(0.0, 20), FilterPolicy::Patu { threshold: 0.0 });
        assert_eq!(p.govern(1.0, 20), FilterPolicy::Patu { threshold: 1.0 });
        // Two controller states in the same cell produce the same policy —
        // the property that makes governed render caches hit.
        assert_eq!(p.govern(0.4249, 20), p.govern(0.3751, 20));
    }

    #[test]
    fn govern_sanitizes_adversarial_inputs() {
        let p = FilterPolicy::SampleArea { threshold: 0.4 };
        assert_eq!(
            p.govern(f64::NAN, 20),
            FilterPolicy::SampleArea { threshold: 1.0 },
            "non-finite falls to the quality ceiling"
        );
        assert_eq!(
            p.govern(f64::NEG_INFINITY, 20),
            FilterPolicy::SampleArea { threshold: 1.0 }
        );
        assert_eq!(
            p.govern(7.0, 20),
            FilterPolicy::SampleArea { threshold: 1.0 },
            "out-of-range clamps"
        );
        assert_eq!(
            p.govern(-3.0, 20),
            FilterPolicy::SampleArea { threshold: 0.0 }
        );
        assert_eq!(
            p.govern(0.7, 0),
            FilterPolicy::SampleArea { threshold: 1.0 },
            "zero steps sanitizes to a single-interval grid"
        );
    }

    #[test]
    fn govern_leaves_fixed_policies_alone() {
        assert_eq!(
            FilterPolicy::Baseline.govern(0.3, 20),
            FilterPolicy::Baseline
        );
        assert_eq!(FilterPolicy::NoAf.govern(0.3, 20), FilterPolicy::NoAf);
    }

    #[test]
    fn hash_accesses_accumulate_in_table() {
        let mut t = TexelAddressTable::new();
        let policy = FilterPolicy::Patu { threshold: 0.4 };
        let _ = policy.decide(&footprint(8.0), &mut t, || shared_sets(8));
        let _ = policy.decide(&footprint(8.0), &mut t, || distinct_sets(8));
        assert_eq!(t.accesses(), 16, "cumulative across pixels");
    }
}
