//! The Perception-Aware Texture Unit, functionally: policy decision +
//! the actual filtering that follows from it (paper Sec. V).
//!
//! [`PerceptionAwareTextureUnit::filter`] is the full per-pixel data path of
//! Fig. 14: footprint in, prediction flow through components ①–③, and the
//! final [`patu_texture::SampleRecord`] out — either the original AF fetch
//! or the demoted trilinear fetch (at AF's LOD for the PATU policy, fixing
//! the LOD shift of Sec. V-C(2)). The record carries every texel address the
//! timing model must replay.

use crate::error::PatuError;
use crate::hash_table::{TapKey, TexelAddressTable};
use crate::policy::{FilterMode, FilterPolicy, PolicyDecision};
use crate::stats::{ApproxStats, SharingStats};
use patu_gmath::Vec2;
use patu_gpu::{FaultConfig, FaultCounts, FaultInjector};
use patu_texture::{
    sample_anisotropic, sample_trilinear_record, sampler::bilinear_addresses, AddressMode,
    Footprint, SampleRecord, Texture,
};

/// The complete functional result of filtering one pixel under a policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutcome {
    /// The filtering actually performed (taps + texel addresses + color).
    /// This is what the timing model charges for.
    pub record: SampleRecord,
    /// The policy decision that produced it.
    pub decision: PolicyDecision,
}

impl FilterOutcome {
    /// The final texture color returned to the shader.
    pub fn color(&self) -> patu_texture::Rgba8 {
        self.record.color
    }
}

/// Telemetry-only work counts from the prediction flow, the attribution
/// profiler's weights for the `predictor` / `hash_stage1` / `hash_stage2`
/// stages. Identical between the scalar and batched kernels because both
/// accumulate from the same [`PolicyDecision`] values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionAttrib {
    /// Total predictor (AF-SSIM compute logic) evaluations.
    pub predictor_evals: u64,
    /// Pixels whose decision consulted stage 1 at all.
    pub stage1_consults: u64,
    /// Total stage-2 hash-table accesses.
    pub stage2_accesses: u64,
}

/// A texture unit with the PATU extensions, parameterized by policy.
///
/// ```
/// use patu_core::{FilterPolicy, PerceptionAwareTextureUnit};
/// use patu_texture::{procedural, AddressMode, Footprint, Texture};
/// use patu_gmath::Vec2;
///
/// let tex = Texture::with_mips(procedural::checkerboard(256, 256, 8, 1), 0);
/// let mut patu = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: 0.4 });
/// let fp = Footprint::from_derivatives(
///     Vec2::new(2.0 / 256.0, 0.0),
///     Vec2::new(0.0, 1.0 / 256.0),
///     256, 256, 16,
/// );
/// let out = patu.filter(&tex, Vec2::new(0.5, 0.5), &fp, AddressMode::Wrap);
/// assert!(out.decision.is_approximated(), "N=2 footprint approximated at θ=0.4");
/// assert_eq!(out.record.n, 1, "a single trilinear tap was fetched");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerceptionAwareTextureUnit {
    policy: FilterPolicy,
    table: TexelAddressTable,
    sharing: SharingStats,
    approx: ApproxStats,
    faults: FaultInjector,
    telemetry: bool,
    tap_hist: patu_obs::Log2Histogram,
    attrib: DecisionAttrib,
}

impl PerceptionAwareTextureUnit {
    /// Creates a unit with the given policy and the paper's 16-entry table.
    pub fn new(policy: FilterPolicy) -> PerceptionAwareTextureUnit {
        PerceptionAwareTextureUnit::with_table_capacity(policy, crate::hash_table::TABLE_ENTRIES)
    }

    /// Creates a unit with a custom hash-table capacity (ablation studies).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero. Use
    /// [`PerceptionAwareTextureUnit::try_with_faults`] for a fully checked
    /// constructor.
    pub fn with_table_capacity(
        policy: FilterPolicy,
        capacity: usize,
    ) -> PerceptionAwareTextureUnit {
        PerceptionAwareTextureUnit {
            policy,
            table: TexelAddressTable::with_capacity(capacity),
            sharing: SharingStats::new(),
            approx: ApproxStats::new(),
            faults: FaultInjector::disabled(),
            telemetry: false,
            tap_hist: patu_obs::Log2Histogram::new(),
            attrib: DecisionAttrib::default(),
        }
    }

    /// Fully checked constructor with a fault-injection configuration: the
    /// policy threshold, table capacity and fault rates are all validated,
    /// and the unit's injector is forked from `faults` under `tag` so
    /// per-unit streams are decorrelated but deterministic.
    pub fn try_with_faults(
        policy: FilterPolicy,
        capacity: usize,
        faults: FaultConfig,
        tag: u64,
    ) -> Result<PerceptionAwareTextureUnit, PatuError> {
        policy.validate()?;
        faults.validate()?;
        Ok(PerceptionAwareTextureUnit {
            policy,
            table: TexelAddressTable::try_with_capacity(capacity)?,
            sharing: SharingStats::new(),
            approx: ApproxStats::new(),
            faults: FaultInjector::new(faults).fork(tag),
            telemetry: false,
            tap_hist: patu_obs::Log2Histogram::new(),
            attrib: DecisionAttrib::default(),
        })
    }

    /// Enables or disables tap-count telemetry (off by default).
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled;
    }

    /// Distribution of trilinear taps actually fetched per pixel (`N` for
    /// kept AF, 1 for demotions) — how hard the approximation bites, per
    /// pixel rather than on average (telemetry only; empty unless
    /// [`PerceptionAwareTextureUnit::set_telemetry`] was enabled).
    pub fn tap_hist(&self) -> &patu_obs::Log2Histogram {
        &self.tap_hist
    }

    /// The active policy.
    pub fn policy(&self) -> FilterPolicy {
        self.policy
    }

    /// Rebases the unit's fault stream to the canonical position for `tags`
    /// (prefixed by the unit's `"PATU"` site tag so it never overlaps the
    /// memory system's `"MEMS"`-tagged streams), keeping the accumulated
    /// counts. The temporal renderer calls this with `[frame, tile]` before
    /// each tile so prediction-flow faults are a pure function of
    /// `(seed, frame, tile)` regardless of which tiles were reused.
    pub fn rekey_faults(&mut self, tags: &[u64]) {
        let mut chain = [0u64; 8];
        chain[0] = 0x5041_5455; // "PATU"
        let n = tags.len().min(chain.len() - 1);
        chain[1..=n].copy_from_slice(&tags[..n]);
        self.faults.rekey(&chain[..=n]);
    }

    /// Faults injected into (and fallbacks taken by) this unit's prediction
    /// flow since the last [`PerceptionAwareTextureUnit::reset_stats`].
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.counts()
    }

    /// Filters one pixel: runs the prediction flow, then performs the
    /// decided filtering and returns the record.
    pub fn filter(
        &mut self,
        tex: &Texture,
        uv: Vec2,
        footprint: &Footprint,
        mode: AddressMode,
    ) -> FilterOutcome {
        self.filter_with(self.policy, tex, uv, footprint, mode)
    }

    /// Like [`PerceptionAwareTextureUnit::filter`] but with a per-call
    /// policy override — used when the threshold is modulated per pixel
    /// (e.g. foveated rendering loosening it with eccentricity). Statistics
    /// and the hash table remain this unit's.
    pub fn filter_with(
        &mut self,
        policy_override: FilterPolicy,
        tex: &Texture,
        uv: Vec2,
        footprint: &Footprint,
        mode: AddressMode,
    ) -> FilterOutcome {
        // The AF record is needed (a) when AF is actually performed and
        // (b) by the distribution stage, whose hash table observes the AF
        // taps' addresses. Compute it lazily, at most once.
        let mut af_record: Option<SampleRecord> = None;
        let decision = {
            let policy = policy_override;
            let af_ref = &mut af_record;
            // The hash table compares taps by the TF-level sample area each
            // one falls into (the paper's Fig. 11: taps X_0/X_1/X_3 lie in
            // TF's yellow square). At TF's LOD the tap spacing is 1/N of a
            // texel, so neighboring taps concentrate onto few shared sets —
            // the distribution whose entropy Txds measures.
            let tf_level = footprint.tf_lod.floor() as u32;
            policy.decide_with(footprint, &mut self.table, &mut self.faults, || {
                let rec = af_ref.insert(sample_anisotropic(tex, uv, footprint, mode));
                rec.taps
                    .iter()
                    .map(|t| bilinear_addresses(tex, t.uv, tf_level, mode).to_vec())
                    .collect()
            })
        };
        self.record_decision(&decision);

        let record = match decision.mode {
            FilterMode::Anisotropic => {
                let rec = af_record.unwrap_or_else(|| sample_anisotropic(tex, uv, footprint, mode));
                // Fig. 12 instrumentation: taps sharing the center's texels,
                // at the same TF-sample-area granularity the hash table uses.
                let tf_level = footprint.tf_lod.floor() as u32;
                let sets: Vec<_> = rec
                    .taps
                    .iter()
                    .map(|t| bilinear_addresses(tex, t.uv, tf_level, mode).to_vec())
                    .collect();
                self.sharing.record(&sets);
                rec
            }
            FilterMode::TrilinearTfLod => sample_trilinear_record(tex, uv, footprint.tf_lod, mode),
            FilterMode::TrilinearAfLod => sample_trilinear_record(tex, uv, footprint.af_lod, mode),
        };

        if self.telemetry {
            self.tap_hist.record(u64::from(record.n));
        }
        FilterOutcome { record, decision }
    }

    /// The decision half of the shared batched kernel (see [`crate::batch`]):
    /// runs `policy`'s prediction flow for one lane against this unit's
    /// table and fault stream, with `stream_taps` feeding the stage-2 keys,
    /// and records the decision's statistics. Draws and table accesses are
    /// exactly those of [`PerceptionAwareTextureUnit::filter_with`].
    pub(crate) fn decide_lane<F>(
        &mut self,
        policy: FilterPolicy,
        footprint: &Footprint,
        stream_taps: F,
    ) -> PolicyDecision
    where
        F: FnOnce(&mut TexelAddressTable) -> u32,
    {
        let decision =
            policy.decide_streamed(footprint, &mut self.table, &mut self.faults, stream_taps);
        self.record_decision(&decision);
        decision
    }

    /// The bookkeeping half of the shared batched kernel: `taps` trilinear
    /// taps were fetched for the lane, and `kept_af_keys` holds its stage-2
    /// keys when the decision kept AF (Fig. 12 sharing instrumentation).
    pub(crate) fn finish_lane(&mut self, taps: u32, kept_af_keys: Option<&[TapKey]>) {
        if let Some(keys) = kept_af_keys {
            self.sharing.record_keys(keys);
        }
        if self.telemetry {
            self.tap_hist.record(u64::from(taps));
        }
    }

    fn record_decision(&mut self, decision: &PolicyDecision) {
        self.approx.record(decision);
        if self.telemetry {
            self.attrib.predictor_evals += u64::from(decision.predictor_evals);
            self.attrib.stage1_consults += u64::from(decision.predictor_evals >= 1);
            self.attrib.stage2_accesses += u64::from(decision.hash_accesses);
        }
    }

    /// Cumulative hash-table accesses (energy model input).
    pub fn hash_accesses(&self) -> u64 {
        self.table.accesses()
    }

    /// Texel-set sharing statistics over all AF requests seen (Fig. 12).
    pub fn sharing_stats(&self) -> SharingStats {
        self.sharing
    }

    /// Approximation coverage by stage.
    pub fn approx_stats(&self) -> ApproxStats {
        self.approx
    }

    /// Prediction-flow work counts for the cycle-attribution profiler
    /// (telemetry only; all-zero unless
    /// [`PerceptionAwareTextureUnit::set_telemetry`] was enabled).
    pub fn decision_attrib(&self) -> DecisionAttrib {
        self.attrib
    }

    /// Resets all cumulative statistics (between frames or runs). The fault
    /// injector's counters clear too, but its stream position advances
    /// monotonically — fault patterns never repeat across frames.
    pub fn reset_stats(&mut self) {
        self.table = TexelAddressTable::with_capacity(self.table.capacity());
        self.sharing = SharingStats::new();
        self.approx = ApproxStats::new();
        self.faults.reset_counts();
        self.tap_hist = patu_obs::Log2Histogram::new();
        self.attrib = DecisionAttrib::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DecisionStage;
    use patu_texture::procedural;

    fn texture() -> Texture {
        Texture::with_mips(procedural::checkerboard(256, 256, 8, 7), 0)
    }

    fn footprint(n_texels: f32) -> Footprint {
        Footprint::from_derivatives(
            Vec2::new(n_texels / 256.0, 0.0),
            Vec2::new(0.0, 1.0 / 256.0),
            256,
            256,
            16,
        )
    }

    fn center() -> Vec2 {
        Vec2::new(0.5, 0.5)
    }

    #[test]
    fn baseline_performs_full_af() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::Baseline);
        let out = unit.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        assert_eq!(out.record.n, 8);
        assert_eq!(out.record.texel_fetches(), 64);
        assert_eq!(out.decision.stage, DecisionStage::Fixed);
    }

    #[test]
    fn noaf_fetches_single_tap_at_tf_lod() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::NoAf);
        let fp = footprint(8.0);
        let out = unit.filter(&tex, center(), &fp, AddressMode::Wrap);
        assert_eq!(out.record.n, 1);
        assert_eq!(out.record.texel_fetches(), 8);
        assert!((out.record.lod - fp.tf_lod).abs() < 1e-6);
    }

    #[test]
    fn patu_demotion_reuses_af_lod() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: 0.9 });
        let fp = footprint(2.0); // AF_SSIM(2)=0.64 < 0.9? No: 0.64 < 0.9 -> stage 2.
        let out = unit.filter(&tex, center(), &fp, AddressMode::Wrap);
        if out.decision.is_approximated() {
            assert!(
                (out.record.lod - fp.af_lod).abs() < 1e-6,
                "PATU samples at AF's LOD"
            );
        }
    }

    #[test]
    fn patu_low_threshold_approximates_and_saves_fetches() {
        let tex = texture();
        // AF_SSIM(8) ≈ 0.061 > 0.05: stage 1 approves the demotion.
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: 0.05 });
        let out = unit.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        assert!(out.decision.is_approximated());
        assert_eq!(out.record.texel_fetches(), 8, "8 instead of 64 texels");
    }

    #[test]
    fn lod_shift_visible_between_policies() {
        // The same demoted pixel samples different mip levels under
        // SampleAreaTxds (TF LOD) vs PATU (AF LOD).
        let tex = texture();
        let fp = footprint(8.0);
        let mut naive =
            PerceptionAwareTextureUnit::new(FilterPolicy::SampleAreaTxds { threshold: 0.99 });
        let mut patu = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: 0.99 });
        let a = naive.filter(&tex, center(), &fp, AddressMode::Wrap);
        let b = patu.filter(&tex, center(), &fp, AddressMode::Wrap);
        // Threshold 0.99 forces stage-2; whether each approximates depends on
        // texel sharing, but when both do, their LODs must differ by the shift.
        if a.decision.is_approximated() && b.decision.is_approximated() {
            assert!(a.record.lod > b.record.lod, "TF LOD coarser than AF LOD");
        }
    }

    #[test]
    fn approx_stats_accumulate() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: 0.4 });
        for i in 0..10 {
            let fp = footprint(1.0 + i as f32);
            let _ = unit.filter(&tex, center(), &fp, AddressMode::Wrap);
        }
        let stats = unit.approx_stats();
        assert_eq!(stats.pixels, 10);
        assert!(stats.isotropic >= 1, "the N=1 footprint counted");
    }

    #[test]
    fn sharing_stats_only_from_af_requests() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::NoAf);
        let _ = unit.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        assert_eq!(
            unit.sharing_stats().taps_total,
            0,
            "no AF -> no sharing data"
        );

        let mut base = PerceptionAwareTextureUnit::new(FilterPolicy::Baseline);
        let _ = base.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        assert_eq!(base.sharing_stats().taps_total, 7, "N-1 non-center taps");
    }

    #[test]
    fn color_matches_af_when_kept() {
        let tex = texture();
        let fp = footprint(8.0);
        // Threshold 0 under SampleArea... actually keep AF via threshold that
        // stage-1 rejects and a policy without stage 2.
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::SampleArea { threshold: 0.4 });
        let out = unit.filter(&tex, center(), &fp, AddressMode::Wrap);
        let reference = sample_anisotropic(&tex, center(), &fp, AddressMode::Wrap);
        assert_eq!(out.record.color, reference.color);
        assert_eq!(out.decision.stage, DecisionStage::KeptAf);
    }

    #[test]
    fn reset_stats_clears() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: 0.4 });
        let _ = unit.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        unit.reset_stats();
        assert_eq!(unit.approx_stats().pixels, 0);
        assert_eq!(unit.hash_accesses(), 0);
    }

    #[test]
    fn faulty_unit_degrades_but_never_dies() {
        let tex = texture();
        let cfg = FaultConfig::uniform(11, 1.0);
        let mut unit = PerceptionAwareTextureUnit::try_with_faults(
            FilterPolicy::Patu { threshold: 0.4 },
            crate::hash_table::TABLE_ENTRIES,
            cfg,
            0,
        )
        .unwrap();
        for i in 0..8 {
            let fp = footprint(2.0 + i as f32);
            let out = unit.filter(&tex, center(), &fp, AddressMode::Wrap);
            assert_eq!(
                out.decision.stage,
                DecisionStage::Fallback,
                "rate 1.0 poisons every prediction"
            );
            assert_eq!(out.record.n, fp.n, "fallback performs real AF");
        }
        let counts = unit.fault_counts();
        assert_eq!(counts.fallbacks, 8);
        assert!(counts.predictor_poisons >= 8);
        unit.reset_stats();
        assert_eq!(unit.fault_counts(), patu_gpu::FaultCounts::default());
    }

    #[test]
    fn try_with_faults_validates_everything() {
        let bad_rate = FaultConfig {
            cache_bitflip_rate: 2.0,
            ..FaultConfig::disabled()
        };
        assert!(PerceptionAwareTextureUnit::try_with_faults(
            FilterPolicy::Baseline,
            16,
            bad_rate,
            0
        )
        .is_err());
        assert!(PerceptionAwareTextureUnit::try_with_faults(
            FilterPolicy::Patu {
                threshold: f64::NAN
            },
            16,
            FaultConfig::disabled(),
            0
        )
        .is_err());
        assert!(PerceptionAwareTextureUnit::try_with_faults(
            FilterPolicy::Baseline,
            0,
            FaultConfig::disabled(),
            0
        )
        .is_err());
    }

    #[test]
    fn tap_hist_gates_on_telemetry_and_sees_demotions() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: 0.05 });
        let _ = unit.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        assert!(unit.tap_hist().is_empty(), "off by default");
        unit.set_telemetry(true);
        let demoted = unit.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        assert!(demoted.decision.is_approximated());
        let mut baseline = PerceptionAwareTextureUnit::new(FilterPolicy::Baseline);
        baseline.set_telemetry(true);
        let _ = baseline.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        assert_eq!(unit.tap_hist().max(), 1, "demotion fetched a single tap");
        assert_eq!(baseline.tap_hist().max(), 8, "baseline fetched all N taps");
        unit.reset_stats();
        assert!(unit.tap_hist().is_empty(), "reset clears telemetry");
    }

    #[test]
    fn decision_attrib_gates_on_telemetry_and_mirrors_decisions() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: 0.4 });
        let _ = unit.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        assert_eq!(
            unit.decision_attrib(),
            DecisionAttrib::default(),
            "off by default"
        );
        unit.set_telemetry(true);
        let out = unit.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        let attrib = unit.decision_attrib();
        assert_eq!(
            attrib.predictor_evals,
            u64::from(out.decision.predictor_evals)
        );
        assert_eq!(attrib.stage1_consults, 1, "one pixel consulted stage 1");
        assert_eq!(
            attrib.stage2_accesses,
            u64::from(out.decision.hash_accesses)
        );
        assert!(
            attrib.stage2_accesses > 0,
            "N=8 at θ=0.4 reaches the hash table"
        );
        unit.reset_stats();
        assert_eq!(
            unit.decision_attrib(),
            DecisionAttrib::default(),
            "reset clears attribution"
        );
    }

    #[test]
    fn hash_accesses_counted_for_stage2_pixels() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: 0.4 });
        // N=8 fails stage 1 at θ=0.4, so the hash table sees 8 taps.
        let _ = unit.filter(&tex, center(), &footprint(8.0), AddressMode::Wrap);
        assert_eq!(unit.hash_accesses(), 8);
    }
}
