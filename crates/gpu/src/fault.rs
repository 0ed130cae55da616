//! Deterministic fault injection for the simulated memory hierarchy.
//!
//! PATU's whole premise is controlled degradation: the pipeline may trade
//! quality for throughput when a predictor says the loss is imperceptible.
//! This module extends that stance to *robustness*: a seeded
//! [`FaultInjector`] perturbs the simulated hardware — cache lines lose
//! their contents to bit flips, DRAM reads stall, the texel-address hash
//! table takes soft errors, predictor arithmetic goes non-finite — and
//! every consumer degrades instead of dying, with the damage accounted in
//! [`FaultCounts`].
//!
//! Everything is driven by [`patu_gmath::DetRng`]: the same seed and the
//! same call sequence produce bit-identical fault patterns, so chaos tests
//! are exactly reproducible. With all rates at zero the injector draws no
//! randomness and perturbs nothing — results are bit-identical to a build
//! without it.

use crate::error::GpuError;
use patu_gmath::DetRng;

/// Per-site fault probabilities plus the master seed.
///
/// Rates are per *event* at each site: per cache-line lookup, per DRAM
/// read, per hash-table pixel, per predictor evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; all per-site streams are forked from it.
    pub seed: u64,
    /// Probability a fetched/resident cache line is corrupted by a bit
    /// flip (detected by ECC, forcing a refill).
    pub cache_bitflip_rate: f64,
    /// Probability a DRAM read stalls (retried after a timeout).
    pub dram_stall_rate: f64,
    /// Extra cycles a stalled DRAM read occupies its channel.
    pub dram_stall_cycles: u64,
    /// Probability a pixel's hash-table state takes a soft error.
    pub table_corrupt_rate: f64,
    /// Probability a predictor evaluation's input goes non-finite.
    pub predictor_nan_rate: f64,
}

impl FaultConfig {
    /// All rates zero: injection is a guaranteed no-op.
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            seed: 0,
            cache_bitflip_rate: 0.0,
            dram_stall_rate: 0.0,
            dram_stall_cycles: 2_000,
            table_corrupt_rate: 0.0,
            predictor_nan_rate: 0.0,
        }
    }

    /// The same `rate` at every site, under `seed`.
    pub fn uniform(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            cache_bitflip_rate: rate,
            dram_stall_rate: rate,
            dram_stall_cycles: 2_000,
            table_corrupt_rate: rate,
            predictor_nan_rate: rate,
        }
    }

    /// Whether every rate is zero (injection cannot fire).
    pub fn is_disabled(&self) -> bool {
        self.cache_bitflip_rate == 0.0
            && self.dram_stall_rate == 0.0
            && self.table_corrupt_rate == 0.0
            && self.predictor_nan_rate == 0.0
    }

    /// Validates that every rate is a finite probability in `[0, 1]`.
    pub fn validate(&self) -> Result<(), GpuError> {
        let rates = [
            ("cache_bitflip_rate", self.cache_bitflip_rate),
            ("dram_stall_rate", self.dram_stall_rate),
            ("table_corrupt_rate", self.table_corrupt_rate),
            ("predictor_nan_rate", self.predictor_nan_rate),
        ];
        for (name, value) in rates {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(GpuError::InvalidFaultRate { name, value });
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::disabled()
    }
}

/// Counts of injected faults and the degradations they triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Cache lines corrupted (and invalidated by the modeled ECC).
    pub cache_bitflips: u64,
    /// DRAM reads that stalled past their timeout.
    pub dram_stalls: u64,
    /// Hash-table soft errors.
    pub table_corruptions: u64,
    /// Predictor evaluations whose inputs went non-finite.
    pub predictor_poisons: u64,
    /// Whole-GPU outage windows entered (a crash that takes the unit
    /// offline until its drawn recovery cycle — counted by the serve
    /// layer's health model).
    pub outages: u64,
    /// Straggler episodes hit: windows where a unit's service time is
    /// multiplied by a slowdown factor without going offline.
    pub stragglers: u64,
    /// Pixels that fell back to a quality-safe path (full AF) because
    /// predictor or table state could not be trusted.
    pub fallbacks: u64,
    /// Frames whose cycle-budget watchdog tripped into degraded rendering.
    pub watchdog_trips: u64,
}

impl FaultCounts {
    /// Total faults injected across all sites (excludes the degradation
    /// counters, which are *reactions* to faults).
    pub fn faults_injected(&self) -> u64 {
        self.cache_bitflips
            + self.dram_stalls
            + self.table_corruptions
            + self.predictor_poisons
            + self.outages
            + self.stragglers
    }

    /// Component-wise sum.
    pub fn accumulate(&mut self, other: &FaultCounts) {
        self.cache_bitflips += other.cache_bitflips;
        self.dram_stalls += other.dram_stalls;
        self.table_corruptions += other.table_corruptions;
        self.predictor_poisons += other.predictor_poisons;
        self.outages += other.outages;
        self.stragglers += other.stragglers;
        self.fallbacks += other.fallbacks;
        self.watchdog_trips += other.watchdog_trips;
    }

    /// Component-wise difference against an earlier snapshot — how many
    /// faults fired since `since`. Counters are monotone, so saturating
    /// subtraction only guards against misuse.
    pub fn delta(&self, since: &FaultCounts) -> FaultCounts {
        FaultCounts {
            cache_bitflips: self.cache_bitflips.saturating_sub(since.cache_bitflips),
            dram_stalls: self.dram_stalls.saturating_sub(since.dram_stalls),
            table_corruptions: self
                .table_corruptions
                .saturating_sub(since.table_corruptions),
            predictor_poisons: self
                .predictor_poisons
                .saturating_sub(since.predictor_poisons),
            outages: self.outages.saturating_sub(since.outages),
            stragglers: self.stragglers.saturating_sub(since.stragglers),
            fallbacks: self.fallbacks.saturating_sub(since.fallbacks),
            watchdog_trips: self.watchdog_trips.saturating_sub(since.watchdog_trips),
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounts::default()
    }

    /// Injection-site counters as `(site name, count)` pairs, in a stable
    /// order — the telemetry event stream's fault vocabulary. Excludes the
    /// reaction counters (`fallbacks`, `watchdog_trips`), which telemetry
    /// reports as their own event kinds.
    pub fn sites(&self) -> [(&'static str, u64); 6] {
        [
            ("cache_bitflips", self.cache_bitflips),
            ("dram_stalls", self.dram_stalls),
            ("table_corruptions", self.table_corruptions),
            ("predictor_poisons", self.predictor_poisons),
            ("outages", self.outages),
            ("stragglers", self.stragglers),
        ]
    }
}

/// A seeded fault source for one consumer (a memory system, a texture
/// unit). Fork distinct instances per consumer via [`FaultInjector::fork`]
/// so their draw sequences never interleave nondeterministically.
///
/// ```
/// use patu_gpu::{FaultConfig, FaultInjector};
///
/// let mut chaos = FaultInjector::new(FaultConfig::uniform(7, 1.0));
/// assert!(chaos.flip_cache_line(), "rate 1.0 always fires");
/// let mut calm = FaultInjector::disabled();
/// assert!(!calm.flip_cache_line(), "disabled never fires");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    cfg: FaultConfig,
    /// `!cfg.is_disabled()`, computed once: every draw site checks it.
    active: bool,
    rng: DetRng,
    counts: FaultCounts,
}

impl FaultInjector {
    /// Creates an injector from a (validated or trusted) configuration.
    pub fn new(cfg: FaultConfig) -> FaultInjector {
        FaultInjector {
            cfg,
            active: !cfg.is_disabled(),
            rng: DetRng::new(cfg.seed),
            counts: FaultCounts::default(),
        }
    }

    /// An injector that never fires and never draws randomness.
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultConfig::disabled())
    }

    /// Derives an independent injector for another consumer, sharing the
    /// configuration but with a decorrelated stream tagged by `tag`.
    #[must_use]
    pub fn fork(&self, tag: u64) -> FaultInjector {
        FaultInjector {
            cfg: self.cfg,
            active: self.active,
            rng: self.rng.fork(tag),
            counts: FaultCounts::default(),
        }
    }

    /// Rebases the draw stream to the canonical position for `tags` while
    /// keeping the accumulated counts. Unlike [`FaultInjector::fork`],
    /// which derives from wherever the current stream happens to be, this
    /// rebuilds from the configured seed — so the resulting stream depends
    /// only on the tag chain, never on how many draws the injector made
    /// before. The temporal renderer uses this to key fault streams per
    /// `(frame, tile)`: a tile's faults are then identical whether or not
    /// its neighbours were reused from the previous frame.
    pub fn rekey(&mut self, tags: &[u64]) {
        let mut rng = DetRng::new(self.cfg.seed);
        for &tag in tags {
            rng = rng.fork(tag);
        }
        self.rng = rng;
    }

    /// The configuration in force.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// Whether any fault site can fire.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Faults injected and degradations observed by this injector.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Clears the counters (the configuration and stream position remain).
    pub fn reset_counts(&mut self) {
        self.counts = FaultCounts::default();
    }

    /// Decides whether a cache line is corrupted at this access.
    pub fn flip_cache_line(&mut self) -> bool {
        if !self.is_active() {
            return false;
        }
        let hit = self.rng.chance(self.cfg.cache_bitflip_rate);
        if hit {
            self.counts.cache_bitflips += 1;
        }
        hit
    }

    /// Decides whether a DRAM read stalls; returns the extra channel-busy
    /// cycles when it does.
    pub fn dram_stall(&mut self) -> Option<u64> {
        if !self.is_active() {
            return None;
        }
        if self.rng.chance(self.cfg.dram_stall_rate) {
            self.counts.dram_stalls += 1;
            Some(self.cfg.dram_stall_cycles)
        } else {
            None
        }
    }

    /// Decides whether this pixel's hash-table state takes a soft error;
    /// returns the `(entry_selector, bit)` to corrupt when it does.
    pub fn table_corruption(&mut self) -> Option<(usize, u8)> {
        if !self.is_active() {
            return None;
        }
        if self.rng.chance(self.cfg.table_corrupt_rate) {
            self.counts.table_corruptions += 1;
            let entry = self.rng.range(u64::MAX) as usize;
            let bit = (self.rng.range(4)) as u8;
            Some((entry, bit))
        } else {
            None
        }
    }

    /// Potentially poisons a predictor input: returns `value` untouched, or
    /// a non-finite stand-in (NaN / ±inf) when the fault fires.
    pub fn poison_predictor(&mut self, value: f64) -> f64 {
        if !self.is_active() {
            return value;
        }
        if self.rng.chance(self.cfg.predictor_nan_rate) {
            self.counts.predictor_poisons += 1;
            match self.rng.range(3) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            }
        } else {
            value
        }
    }

    /// Records that a consumer fell back to a quality-safe path.
    pub fn note_fallback(&mut self) {
        self.counts.fallbacks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_sites_expose_per_tile_increments() {
        let before = FaultCounts {
            cache_bitflips: 3,
            dram_stalls: 1,
            ..FaultCounts::default()
        };
        let after = FaultCounts {
            cache_bitflips: 5,
            dram_stalls: 1,
            fallbacks: 2,
            ..FaultCounts::default()
        };
        let d = after.delta(&before);
        assert_eq!(d.cache_bitflips, 2);
        assert_eq!(d.dram_stalls, 0);
        assert_eq!(d.fallbacks, 2);
        assert!(!d.is_zero());
        assert!(FaultCounts::default().is_zero());
        let sites = d.sites();
        assert_eq!(sites[0], ("cache_bitflips", 2));
        assert!(sites.iter().all(|(_, count)| *count == 0 || *count == 2));
    }

    #[test]
    fn outage_and_straggler_sites_flow_through_the_counters() {
        let before = FaultCounts {
            outages: 1,
            stragglers: 4,
            ..FaultCounts::default()
        };
        let after = FaultCounts {
            outages: 3,
            stragglers: 9,
            ..FaultCounts::default()
        };
        let d = after.delta(&before);
        assert_eq!(d.outages, 2);
        assert_eq!(d.stragglers, 5);
        assert_eq!(d.faults_injected(), 7, "serve-level sites count as faults");
        let sites = d.sites();
        assert_eq!(sites[4], ("outages", 2));
        assert_eq!(sites[5], ("stragglers", 5));
        let mut sum = before;
        sum.accumulate(&d);
        assert_eq!(sum, after, "accumulate inverts delta on monotone counts");
        assert!(!FaultCounts {
            outages: 1,
            ..FaultCounts::default()
        }
        .is_zero());
    }

    #[test]
    fn disabled_injector_never_fires() {
        let mut f = FaultInjector::disabled();
        for _ in 0..100 {
            assert!(!f.flip_cache_line());
            assert!(f.dram_stall().is_none());
            assert!(f.table_corruption().is_none());
            assert_eq!(f.poison_predictor(0.5), 0.5);
        }
        assert_eq!(f.counts(), FaultCounts::default());
    }

    #[test]
    fn full_rate_always_fires() {
        let mut f = FaultInjector::new(FaultConfig::uniform(1, 1.0));
        assert!(f.flip_cache_line());
        assert!(f.dram_stall().is_some());
        assert!(f.table_corruption().is_some());
        assert!(!f.poison_predictor(0.5).is_finite());
        let c = f.counts();
        assert_eq!(c.faults_injected(), 4);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let mk = || FaultInjector::new(FaultConfig::uniform(42, 0.3));
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..500 {
            assert_eq!(a.flip_cache_line(), b.flip_cache_line());
            assert_eq!(a.dram_stall(), b.dram_stall());
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn forks_are_decorrelated_but_deterministic() {
        let parent = FaultInjector::new(FaultConfig::uniform(7, 0.5));
        let mut x1 = parent.fork(1);
        let mut x2 = parent.fork(1);
        let mut y = parent.fork(2);
        let sx1: Vec<bool> = (0..64).map(|_| x1.flip_cache_line()).collect();
        let sx2: Vec<bool> = (0..64).map(|_| x2.flip_cache_line()).collect();
        let sy: Vec<bool> = (0..64).map(|_| y.flip_cache_line()).collect();
        assert_eq!(sx1, sx2, "same tag, same stream");
        assert_ne!(sx1, sy, "different tags diverge");
    }

    #[test]
    fn rekey_is_position_independent_and_keeps_counts() {
        let cfg = FaultConfig::uniform(11, 0.5);
        // Injector A draws a lot before rekeying; B rekeys immediately.
        let mut a = FaultInjector::new(cfg);
        for _ in 0..200 {
            a.flip_cache_line();
        }
        let counts_before = a.counts();
        assert!(!counts_before.is_zero());
        let mut b = FaultInjector::new(cfg);
        a.rekey(&[0xAB, 7, 3]);
        b.rekey(&[0xAB, 7, 3]);
        let sa: Vec<bool> = (0..64).map(|_| a.flip_cache_line()).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.flip_cache_line()).collect();
        assert_eq!(sa, sb, "rekeyed stream ignores prior draw position");
        let fired = sa.iter().filter(|&&h| h).count() as u64;
        assert_eq!(
            a.counts().cache_bitflips,
            counts_before.cache_bitflips + fired,
            "rekey preserves accumulated counts"
        );
        let mut c = FaultInjector::new(cfg);
        c.rekey(&[0xAB, 7, 4]);
        let sc: Vec<bool> = (0..64).map(|_| c.flip_cache_line()).collect();
        assert_ne!(sa, sc, "different tags give a different stream");
    }

    #[test]
    fn rates_roughly_respected() {
        let mut f = FaultInjector::new(FaultConfig::uniform(9, 0.1));
        let fired = (0..10_000).filter(|_| f.flip_cache_line()).count();
        assert!((700..1400).contains(&fired), "~10% of 10k: {fired}");
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mut cfg = FaultConfig::disabled();
        assert!(cfg.validate().is_ok());
        cfg.dram_stall_rate = 1.5;
        assert!(cfg.validate().is_err());
        cfg.dram_stall_rate = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg.dram_stall_rate = -0.1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn counts_accumulate() {
        let mut a = FaultCounts {
            cache_bitflips: 1,
            fallbacks: 2,
            ..FaultCounts::default()
        };
        let b = FaultCounts {
            cache_bitflips: 3,
            watchdog_trips: 1,
            ..FaultCounts::default()
        };
        a.accumulate(&b);
        assert_eq!(a.cache_bitflips, 4);
        assert_eq!(a.fallbacks, 2);
        assert_eq!(a.watchdog_trips, 1);
        assert_eq!(a.faults_injected(), 4);
    }

    #[test]
    fn table_corruption_bit_in_tag_range() {
        let mut f = FaultInjector::new(FaultConfig::uniform(3, 1.0));
        for _ in 0..50 {
            let (_, bit) = f.table_corruption().unwrap();
            assert!(bit < 4, "count tags are 4 bits");
        }
    }
}
