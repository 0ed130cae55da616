//! Instrumentation the paper reports: texel-set sharing (Fig. 12),
//! quad prediction divergence (Sec. V-C(1)) and approximation coverage.

use crate::hash_table::TapKey;
use crate::policy::{DecisionStage, PolicyDecision};
use patu_texture::TexelAddress;

/// Measures how often AF's input samples share their texel set with the TF
/// sample — the paper's Fig. 12, where an average of 62 % of AF taps share
/// texels with TF during 3D rendering.
///
/// The TF-equivalent tap is the center tap (`X_0` in Eq. 3), which shares
/// its sample center with the TF sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharingStats {
    /// Total AF trilinear taps observed.
    pub taps_total: u64,
    /// Taps whose texel address set equals the center tap's.
    pub taps_shared: u64,
}

impl SharingStats {
    /// Creates empty counters.
    pub fn new() -> SharingStats {
        SharingStats::default()
    }

    /// Records one AF request's taps. `tap_sets[0]` must be the center tap.
    /// Single-tap requests are ignored (there is nothing to share with).
    pub fn record(&mut self, tap_sets: &[Vec<TexelAddress>]) {
        if tap_sets.len() < 2 {
            return;
        }
        let mut center: Vec<TexelAddress> = tap_sets[0].clone();
        center.sort_unstable();
        center.dedup();
        for tap in &tap_sets[1..] {
            let mut key: Vec<TexelAddress> = tap.clone();
            key.sort_unstable();
            key.dedup();
            self.taps_total += 1;
            if key == center {
                self.taps_shared += 1;
            }
        }
    }

    /// Allocation-free form of [`SharingStats::record`] for the batched
    /// fragment path: each tap's key is its 4 TF-level bilinear addresses,
    /// normalized once (the stage-2 keys the hash table compared). Produces
    /// exactly the counters `record` would for the equivalent `Vec` sets.
    pub(crate) fn record_keys(&mut self, keys: &[TapKey]) {
        let Some((center, taps)) = keys.split_first() else {
            return;
        };
        for key in taps {
            self.taps_total += 1;
            if key.as_slice() == center.as_slice() {
                self.taps_shared += 1;
            }
        }
    }

    /// Fraction of non-center AF taps sharing the center's texel set
    /// (0 when nothing was recorded).
    pub fn sharing_fraction(&self) -> f64 {
        if self.taps_total == 0 {
            0.0
        } else {
            self.taps_shared as f64 / self.taps_total as f64
        }
    }

    /// Merges counters from another instance.
    pub fn accumulate(&mut self, other: &SharingStats) {
        self.taps_total += other.taps_total;
        self.taps_shared += other.taps_shared;
    }
}

/// Tracks prediction divergence within 2×2 pixel quads (Sec. V-C(1)): quads
/// whose four pixels are not all filtered the same way. The paper measures
/// an average of 1 % (up to 1.6 %) divergent quads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DivergenceStats {
    /// Quads with at least two pixels observed.
    pub quads: u64,
    /// Quads whose pixels made different approximate/keep decisions.
    pub divergent_quads: u64,
}

impl DivergenceStats {
    /// Creates empty counters.
    pub fn new() -> DivergenceStats {
        DivergenceStats::default()
    }

    /// Records one quad: `fragments` covered fragments of which
    /// `approximated` were demoted. Divergence is a mixed quad
    /// (`0 < approximated < fragments`) — the "any outcome differs from the
    /// first" condition without materializing a per-pixel outcome list; the
    /// renderer's flat per-tile quad buffer feeds this directly. Quads with
    /// fewer than two fragments are skipped — divergence is undefined for
    /// them.
    pub fn record_quad_counts(&mut self, fragments: u64, approximated: u64) {
        if fragments < 2 {
            return;
        }
        self.quads += 1;
        if approximated != 0 && approximated != fragments {
            self.divergent_quads += 1;
        }
    }

    /// Fraction of divergent quads (0 when nothing was recorded).
    pub fn divergence_fraction(&self) -> f64 {
        if self.quads == 0 {
            0.0
        } else {
            self.divergent_quads as f64 / self.quads as f64
        }
    }

    /// Merges counters from another instance.
    pub fn accumulate(&mut self, other: &DivergenceStats) {
        self.quads += other.quads;
        self.divergent_quads += other.divergent_quads;
    }
}

/// Approximation coverage: how many pixels each decision stage handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApproxStats {
    /// Pixels decided.
    pub pixels: u64,
    /// Pixels with isotropic footprints (never AF candidates).
    pub isotropic: u64,
    /// Pixels approximated by the sample-area stage.
    pub stage1_approx: u64,
    /// Pixels approximated by the distribution stage.
    pub stage2_approx: u64,
    /// Pixels that kept full AF.
    pub kept_af: u64,
    /// Pixels handled by non-predictive (fixed) policies.
    pub fixed: u64,
    /// Pixels that degraded to full AF because prediction state could not
    /// be trusted (fault-injection fallbacks).
    pub fallback: u64,
}

impl ApproxStats {
    /// Creates empty counters.
    pub fn new() -> ApproxStats {
        ApproxStats::default()
    }

    /// Records one decision.
    pub fn record(&mut self, decision: &PolicyDecision) {
        self.pixels += 1;
        match decision.stage {
            DecisionStage::Fixed => self.fixed += 1,
            DecisionStage::Isotropic => self.isotropic += 1,
            DecisionStage::SampleArea => self.stage1_approx += 1,
            DecisionStage::Distribution => self.stage2_approx += 1,
            DecisionStage::KeptAf => self.kept_af += 1,
            DecisionStage::Fallback => self.fallback += 1,
        }
    }

    /// Fraction of AF-candidate pixels (anisotropic footprints under a
    /// predictive policy) that were approximated. Fallback pixels count as
    /// candidates that kept AF.
    pub fn approximated_fraction(&self) -> f64 {
        let candidates = self.stage1_approx + self.stage2_approx + self.kept_af + self.fallback;
        if candidates == 0 {
            0.0
        } else {
            (self.stage1_approx + self.stage2_approx) as f64 / candidates as f64
        }
    }

    /// Merges counters from another instance.
    pub fn accumulate(&mut self, other: &ApproxStats) {
        self.pixels += other.pixels;
        self.isotropic += other.isotropic;
        self.stage1_approx += other.stage1_approx;
        self.stage2_approx += other.stage2_approx;
        self.kept_af += other.kept_af;
        self.fixed += other.fixed;
        self.fallback += other.fallback;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FilterMode;

    fn set(base: u64) -> Vec<TexelAddress> {
        (0..8).map(|i| TexelAddress::new(base + i * 4)).collect()
    }

    #[test]
    fn sharing_counts_matches() {
        let mut s = SharingStats::new();
        // Center + 2 sharing + 2 distinct.
        s.record(&[set(0), set(0), set(0), set(0x100), set(0x200)]);
        assert_eq!(s.taps_total, 4);
        assert_eq!(s.taps_shared, 2);
        assert!((s.sharing_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sharing_ignores_single_tap() {
        let mut s = SharingStats::new();
        s.record(&[set(0)]);
        assert_eq!(s.taps_total, 0);
        assert_eq!(s.sharing_fraction(), 0.0);
    }

    #[test]
    fn sharing_order_insensitive() {
        let mut s = SharingStats::new();
        let mut shuffled = set(0);
        shuffled.reverse();
        s.record(&[set(0), shuffled]);
        assert_eq!(s.taps_shared, 1);
    }

    #[test]
    fn sharing_accumulates() {
        let mut a = SharingStats::new();
        a.record(&[set(0), set(0)]);
        let mut b = SharingStats::new();
        b.record(&[set(0), set(0x100)]);
        a.accumulate(&b);
        assert_eq!(a.taps_total, 2);
        assert_eq!(a.taps_shared, 1);
    }

    #[test]
    fn divergence_uniform_quad_not_divergent() {
        let mut d = DivergenceStats::new();
        d.record_quad_counts(4, 4);
        d.record_quad_counts(4, 0);
        assert_eq!(d.quads, 2);
        assert_eq!(d.divergent_quads, 0);
    }

    #[test]
    fn divergence_mixed_quad_divergent() {
        let mut d = DivergenceStats::new();
        d.record_quad_counts(4, 3);
        assert_eq!(d.divergent_quads, 1);
        assert_eq!(d.divergence_fraction(), 1.0);
    }

    #[test]
    fn divergence_counts_match_outcome_lists() {
        // The count form agrees with the definition over explicit outcome
        // lists: divergent iff any outcome differs from the first.
        let mut by_count = DivergenceStats::new();
        let quads: [&[bool]; 5] = [
            &[true, true, true, true],
            &[false, false],
            &[true, false, true],
            &[false],
            &[false, true, false, false],
        ];
        let mut expect_quads = 0;
        let mut expect_divergent = 0;
        for q in quads {
            let approx = q.iter().filter(|&&a| a).count() as u64;
            by_count.record_quad_counts(q.len() as u64, approx);
            if q.len() >= 2 {
                expect_quads += 1;
                expect_divergent += u64::from(q.iter().any(|&a| a != q[0]));
            }
        }
        assert_eq!(by_count.quads, expect_quads);
        assert_eq!(by_count.divergent_quads, expect_divergent);
        assert_eq!(by_count.quads, 4);
        assert_eq!(by_count.divergent_quads, 2);
    }

    #[test]
    fn divergence_skips_single_pixel_quads() {
        let mut d = DivergenceStats::new();
        d.record_quad_counts(1, 1);
        assert_eq!(d.quads, 0);
    }

    #[test]
    fn sharing_fixed_matches_vec_form() {
        // The batched path's normalized-key recorder must agree with the
        // allocating form on every sharing pattern, including unsorted and
        // duplicate-bearing sets.
        let quad = |base: u64| -> [TexelAddress; 4] {
            [
                TexelAddress::new(base + 12),
                TexelAddress::new(base),
                TexelAddress::new(base + 4),
                TexelAddress::new(base + 12),
            ]
        };
        let patterns: [&[u64]; 4] = [
            &[0, 0, 0x100, 0],
            &[0, 0x100, 0x200],
            &[0x40],
            &[0, 0, 0, 0, 0],
        ];
        for bases in patterns {
            let mut by_vec = SharingStats::new();
            let mut by_fixed = SharingStats::new();
            let sets: Vec<Vec<TexelAddress>> = bases.iter().map(|&b| quad(b).to_vec()).collect();
            let keys: Vec<TapKey> = bases.iter().map(|&b| TapKey::new(quad(b))).collect();
            by_vec.record(&sets);
            by_fixed.record_keys(&keys);
            assert_eq!(by_vec, by_fixed, "bases {bases:?}");
        }
    }

    #[test]
    fn approx_stats_by_stage() {
        let mut a = ApproxStats::new();
        let mk = |stage| PolicyDecision {
            mode: FilterMode::TrilinearAfLod,
            stage,
            predictor_evals: 0,
            hash_accesses: 0,
            wasted_addr_taps: 0,
        };
        a.record(&mk(DecisionStage::SampleArea));
        a.record(&mk(DecisionStage::Distribution));
        a.record(&PolicyDecision {
            mode: FilterMode::Anisotropic,
            stage: DecisionStage::KeptAf,
            predictor_evals: 2,
            hash_accesses: 8,
            wasted_addr_taps: 0,
        });
        a.record(&mk(DecisionStage::Isotropic));
        assert_eq!(a.pixels, 4);
        assert_eq!(a.stage1_approx, 1);
        assert_eq!(a.stage2_approx, 1);
        assert_eq!(a.kept_af, 1);
        assert_eq!(a.isotropic, 1);
        assert!((a.approximated_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fallback_pixels_counted_as_kept_candidates() {
        let mut a = ApproxStats::new();
        a.record(&PolicyDecision {
            mode: FilterMode::TrilinearAfLod,
            stage: DecisionStage::SampleArea,
            predictor_evals: 1,
            hash_accesses: 0,
            wasted_addr_taps: 0,
        });
        a.record(&PolicyDecision {
            mode: FilterMode::Anisotropic,
            stage: DecisionStage::Fallback,
            predictor_evals: 1,
            hash_accesses: 0,
            wasted_addr_taps: 0,
        });
        assert_eq!(a.fallback, 1);
        assert!((a.approximated_fraction() - 0.5).abs() < 1e-12);
        let mut b = ApproxStats::new();
        b.accumulate(&a);
        assert_eq!(b.fallback, 1);
    }

    #[test]
    fn approx_fraction_zero_without_candidates() {
        assert_eq!(ApproxStats::new().approximated_fraction(), 0.0);
    }
}
