//! The quality governor: queue pressure in, quantized thresholds out.
//!
//! This closes the loop the ISSUE's serving layer needs: the
//! [`ThresholdController`] already steers the AF-SSIM threshold toward a
//! per-frame cycle budget; the governor overlays *system-level* pressure on
//! top via [`ThresholdController::set_external_bias`] — bias
//! `= -pressure_gain × queue_depth/capacity` — and snaps the composed
//! threshold onto a small grid with [`FilterPolicy::govern`], so overload
//! trades SSIM for throughput in a handful of cacheable steps instead of a
//! continuum of distinct render configurations.
//!
//! The failure domain adds a second, independent lever: the **brownout
//! ladder**. When GPUs drop out (outage windows, open circuit breakers),
//! the healthy-capacity fraction is quantized onto quarter rungs and fed
//! through [`ThresholdController::set_capacity_bias`], composing
//! additively with queue pressure. Losing capacity therefore degrades
//! quality in the same ordered, cache-friendly steps as overload does —
//! never by dropping contracts first.

use crate::workload::ServeConfig;
use patu_core::FilterPolicy;
use patu_sim::ThresholdController;
use std::ops::RangeInclusive;

/// The quality floor of every serve session: the governor never pushes
/// the threshold below this, bounding how much SSIM can be traded away.
pub(crate) const GOVERNOR_FLOOR: f64 = 0.25;

/// Maps an (already quantized) threshold onto its bucket index.
pub(crate) fn bucket_of(theta: f64, steps: u32) -> u32 {
    let steps = steps.max(1);
    (theta.clamp(0.0, 1.0) * f64::from(steps)).round() as u32
}

/// Every bucket a session under `cfg` can dispatch at. The governor's
/// controller is clamped to `[min(floor, base), base]` and snaps onto the
/// grid, so its buckets are the closed range between those two ends; with
/// the governor off every job renders at the base threshold.
pub(crate) fn reachable_buckets(cfg: &ServeConfig) -> RangeInclusive<u32> {
    let top = bucket_of(cfg.base_threshold, cfg.governor_steps);
    if cfg.governor {
        bucket_of(GOVERNOR_FLOOR.min(cfg.base_threshold), cfg.governor_steps)..=top
    } else {
        top..=top
    }
}

/// The serving layer's outer quality controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityGovernor {
    controller: ThresholdController,
    base: FilterPolicy,
    steps: u32,
    pressure_gain: f64,
    capacity_bias: f64,
    enabled: bool,
}

impl QualityGovernor {
    /// A governor steering `base` (whose threshold seeds the controller)
    /// toward `target_cycles` per job, never dropping below `floor` and
    /// never rising above the base threshold — the governor only ever
    /// *degrades* quality; it cannot spend slack buying quality the client
    /// did not ask for (which would inflate service times and miss
    /// deadlines the ungoverned control meets).
    ///
    /// `steps` is the quantization grid (sanitized to at least 1 by
    /// [`FilterPolicy::govern`]); `pressure_gain` scales how hard queue
    /// pressure leans on the knob. A disabled governor always returns
    /// `base` unchanged.
    pub fn new(
        base: FilterPolicy,
        target_cycles: u64,
        floor: f64,
        steps: u32,
        pressure_gain: f64,
        enabled: bool,
    ) -> QualityGovernor {
        let start = base.threshold().unwrap_or(1.0);
        let controller =
            ThresholdController::new(target_cycles, start).with_bounds(floor.min(start), start);
        QualityGovernor {
            controller,
            base,
            steps,
            pressure_gain: if pressure_gain.is_finite() {
                pressure_gain.max(0.0)
            } else {
                0.0
            },
            capacity_bias: 0.0,
            enabled,
        }
    }

    /// Feeds the brownout ladder: quantizes the *lost* capacity fraction
    /// (`1 - healthy_fraction`) onto quarter rungs and arms a bias of
    /// `-gain × rung`, applied on the next [`QualityGovernor::policy_for`]
    /// call via [`ThresholdController::set_capacity_bias`]. Rung
    /// quantization keeps degradation quality-ordered: a flapping GPU
    /// walks the threshold down a discrete ladder instead of jittering it
    /// continuously.
    pub fn set_capacity_fraction(&mut self, healthy_fraction: f64, gain: f64) {
        let healthy = if healthy_fraction.is_finite() {
            healthy_fraction.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let gain = if gain.is_finite() { gain.max(0.0) } else { 0.0 };
        let rung = ((1.0 - healthy) * 4.0).ceil() / 4.0;
        self.capacity_bias = -gain * rung;
    }

    /// The currently armed brownout bias (0 when the pool is healthy).
    pub fn capacity_bias(&self) -> f64 {
        self.capacity_bias
    }

    /// Whether the loop is closed.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The policy for the next dispatch, given the queue state. Updates the
    /// external bias from pressure (`depth/capacity`), then quantizes the
    /// biased threshold. With the governor disabled this is always the base
    /// policy — the control experiment.
    pub fn policy_for(&mut self, depth: usize, capacity: usize) -> FilterPolicy {
        if !self.enabled {
            return self.base;
        }
        let pressure = depth as f64 / capacity.max(1) as f64;
        self.controller
            .set_external_bias(-self.pressure_gain * pressure);
        self.controller.set_capacity_bias(self.capacity_bias);
        self.base.govern(self.controller.threshold(), self.steps)
    }

    /// Feeds back one job's observed service cycles, letting the inner
    /// proportional term adapt to how expensive frames actually are.
    pub fn observe(&mut self, service_cycles: u64) {
        if self.enabled {
            self.controller.observe(service_cycles);
        }
    }

    /// The effective threshold a policy from [`QualityGovernor::policy_for`]
    /// carries (1.0 for fixed policies, which have no knob).
    pub fn effective_threshold(policy: &FilterPolicy) -> f64 {
        policy.threshold().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patu(t: f64) -> FilterPolicy {
        FilterPolicy::Patu { threshold: t }
    }

    #[test]
    fn disabled_governor_is_the_identity() {
        let mut g = QualityGovernor::new(patu(0.4), 1_000_000, 0.2, 8, 1.0, false);
        assert!(!g.is_enabled());
        for depth in [0, 8, 16] {
            assert_eq!(g.policy_for(depth, 16), patu(0.4));
        }
        g.observe(10_000_000);
        assert_eq!(g.policy_for(16, 16), patu(0.4));
    }

    #[test]
    fn pressure_lowers_the_threshold_monotonically() {
        let mut g = QualityGovernor::new(patu(0.5), 1_000_000, 0.0, 16, 0.5, true);
        let idle = QualityGovernor::effective_threshold(&g.policy_for(0, 16));
        let half = QualityGovernor::effective_threshold(&g.policy_for(8, 16));
        let full = QualityGovernor::effective_threshold(&g.policy_for(16, 16));
        assert!(idle > half, "idle {idle} vs half {half}");
        assert!(half > full, "half {half} vs full {full}");
    }

    #[test]
    fn floor_bounds_the_degradation() {
        let mut g = QualityGovernor::new(patu(0.5), 1_000_000, 0.25, 8, 5.0, true);
        let t = QualityGovernor::effective_threshold(&g.policy_for(64, 16));
        assert!(t >= 0.25 - 1e-12, "floor holds under extreme pressure: {t}");
    }

    #[test]
    fn output_is_quantized() {
        let mut g = QualityGovernor::new(patu(0.5), 1_000_000, 0.0, 4, 1.0, true);
        for depth in 0..=16 {
            let t = QualityGovernor::effective_threshold(&g.policy_for(depth, 16));
            let snapped = (t * 4.0).round() / 4.0;
            assert!((t - snapped).abs() < 1e-12, "t {t} sits on the 4-grid");
        }
    }

    #[test]
    fn brownout_ladder_lowers_quality_in_rungs() {
        let mut g = QualityGovernor::new(patu(0.8), 1_000_000, 0.0, 64, 0.0, true);
        let healthy = QualityGovernor::effective_threshold(&g.policy_for(0, 16));
        g.set_capacity_fraction(0.5, 0.4);
        let brown = QualityGovernor::effective_threshold(&g.policy_for(0, 16));
        assert!(brown < healthy, "lost capacity degrades quality: {brown}");
        // Rung quantization: 60% and 70% healthy share the half-lost rung.
        g.set_capacity_fraction(0.6, 0.4);
        let a = QualityGovernor::effective_threshold(&g.policy_for(0, 16));
        g.set_capacity_fraction(0.7, 0.4);
        let b = QualityGovernor::effective_threshold(&g.policy_for(0, 16));
        assert!((a - b).abs() < 1e-12, "same rung, same threshold");
        g.set_capacity_fraction(1.0, 0.4);
        let restored = QualityGovernor::effective_threshold(&g.policy_for(0, 16));
        assert!(
            (restored - healthy).abs() < 1e-12,
            "recovery restores quality"
        );
        assert_eq!(g.capacity_bias(), 0.0);
        g.set_capacity_fraction(f64::NAN, 0.4);
        assert_eq!(g.capacity_bias(), 0.0, "NaN fraction reads as healthy");
    }

    #[test]
    fn brownout_composes_with_queue_pressure() {
        let mut g = QualityGovernor::new(patu(0.8), 1_000_000, 0.0, 64, 0.5, true);
        g.set_capacity_fraction(0.5, 0.4);
        let brown_idle = QualityGovernor::effective_threshold(&g.policy_for(0, 16));
        let brown_busy = QualityGovernor::effective_threshold(&g.policy_for(16, 16));
        assert!(
            brown_busy < brown_idle,
            "pressure still bites under brownout: {brown_busy} vs {brown_idle}"
        );
    }

    #[test]
    fn observe_adapts_the_inner_term() {
        let mut g = QualityGovernor::new(patu(0.8), 1_000_000, 0.0, 64, 0.0, true);
        let before = QualityGovernor::effective_threshold(&g.policy_for(0, 16));
        for _ in 0..10 {
            g.observe(3_000_000); // persistently 3× over budget
        }
        let after = QualityGovernor::effective_threshold(&g.policy_for(0, 16));
        assert!(after < before, "over-budget service lowers quality");
    }
}
