//! Declarative SLOs with multi-window burn-rate alerting on the virtual
//! clock.
//!
//! An [`SloSpec`] names an objective and its error budget (the fraction of
//! events allowed to be "bad", fixed-point ×1000). An [`SloTracker`]
//! consumes a stream of `(cycle, good/bad)` observations and fires an
//! [`SloAlert`] when *both* of two trailing windows burn budget too fast:
//! a short window (catches sharp regressions quickly) and a long window
//! (filters one-off blips). Burn rate is `observed bad fraction / budget` —
//! a burn of 1.0× exhausts the budget exactly at the horizon; the default
//! thresholds (8× fast and 2× slow, the classic multi-window pairing)
//! fire on sustained fast burns only.
//!
//! Everything is integer arithmetic on the simulated clock, so alert cycles
//! are bit-identical across `PATU_THREADS` and host platforms. Alerts are
//! edge-triggered: once fired, a tracker re-arms only after the fast-window
//! burn drops back below its threshold.

use std::collections::VecDeque;

/// A declarative service-level objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// Stable name (e.g. `slo::miss::interactive`), used in events, JSONL
    /// lines, and reports.
    pub name: &'static str,
    /// Error budget: allowed bad fraction of events, fixed-point ×1000
    /// (50 = 5%). Clamped to at least 1 to keep burn rates finite.
    pub budget_x1000: u64,
    /// Fast (short) trailing window, in cycles.
    pub fast_window: u64,
    /// Slow (long) trailing window, in cycles. Samples older than this are
    /// evicted.
    pub slow_window: u64,
    /// Fast-window burn threshold, ×1000 (8000 = 8× budget rate).
    pub fast_threshold_x1000: u64,
    /// Slow-window burn threshold, ×1000 (2000 = 2× budget rate).
    pub slow_threshold_x1000: u64,
    /// Minimum fast-window sample count before the tracker may fire.
    pub min_samples: u64,
}

/// A fired burn-rate alert — a deterministic function of the observation
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloAlert {
    /// The objective that fired.
    pub slo: &'static str,
    /// Virtual-clock cycle of the observation that tipped the burn over.
    pub cycle: u64,
    /// Id of the job whose observation fired the alert.
    pub job: u64,
    /// Fast-window burn rate at fire time, ×1000.
    pub burn_fast_x1000: u64,
    /// Slow-window burn rate at fire time, ×1000.
    pub burn_slow_x1000: u64,
    /// The spec's budget, ×1000.
    pub budget_x1000: u64,
    /// The spec's fast window, in cycles.
    pub fast_window: u64,
    /// The spec's slow window, in cycles.
    pub slow_window: u64,
}

impl SloAlert {
    /// The `"slo"` JSONL line for this alert. All fields are integers.
    pub fn jsonl_line(&self) -> String {
        format!(
            "{{\"type\":\"slo\",\"slo\":\"{}\",\"cycle\":{},\"job\":{},\
             \"burn_fast_x1000\":{},\"burn_slow_x1000\":{},\"budget_x1000\":{},\
             \"fast_window\":{},\"slow_window\":{}}}",
            self.slo,
            self.cycle,
            self.job,
            self.burn_fast_x1000,
            self.burn_slow_x1000,
            self.budget_x1000,
            self.fast_window,
            self.slow_window
        )
    }
}

/// Rolling multi-window burn-rate state for one [`SloSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloTracker {
    spec: SloSpec,
    /// `(cycle, bad)` observations within the slow window, oldest first.
    samples: VecDeque<(u64, bool)>,
    firing: bool,
    alerts: u64,
}

impl SloTracker {
    /// A tracker for `spec` with sanitized (non-zero) budget and windows.
    pub fn new(mut spec: SloSpec) -> SloTracker {
        spec.budget_x1000 = spec.budget_x1000.max(1);
        spec.fast_window = spec.fast_window.max(1);
        spec.slow_window = spec.slow_window.max(spec.fast_window);
        SloTracker {
            spec,
            samples: VecDeque::new(),
            firing: false,
            alerts: 0,
        }
    }

    /// The tracked spec.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Total alerts fired so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    fn burn_x1000(&self, bad: u64, total: u64) -> u64 {
        if total == 0 {
            return 0;
        }
        bad * 1_000_000 / (total * self.spec.budget_x1000)
    }

    /// Feeds one observation (`bad == true` burns budget) at `cycle`,
    /// attributed to `job`. Returns a fired alert on a false→true edge of
    /// the multi-window burn condition. `cycle` must be non-decreasing
    /// across calls.
    pub fn observe(&mut self, cycle: u64, bad: bool, job: u64) -> Option<SloAlert> {
        let slow_edge = cycle.saturating_sub(self.spec.slow_window);
        while let Some(&(c, _)) = self.samples.front() {
            if c >= slow_edge {
                break;
            }
            self.samples.pop_front();
        }
        self.samples.push_back((cycle, bad));

        let (mut slow_bad, slow_total) = (0u64, self.samples.len() as u64);
        let (mut fast_bad, mut fast_total) = (0u64, 0u64);
        let fast_edge = cycle.saturating_sub(self.spec.fast_window);
        for &(c, b) in self.samples.iter() {
            if b {
                slow_bad += 1;
            }
            if c >= fast_edge {
                fast_total += 1;
                if b {
                    fast_bad += 1;
                }
            }
        }
        let burn_fast = self.burn_x1000(fast_bad, fast_total);
        let burn_slow = self.burn_x1000(slow_bad, slow_total);

        let hot = fast_total >= self.spec.min_samples
            && burn_fast >= self.spec.fast_threshold_x1000
            && burn_slow >= self.spec.slow_threshold_x1000;
        if hot && !self.firing {
            self.firing = true;
            self.alerts += 1;
            return Some(SloAlert {
                slo: self.spec.name,
                cycle,
                job,
                burn_fast_x1000: burn_fast,
                burn_slow_x1000: burn_slow,
                budget_x1000: self.spec.budget_x1000,
                fast_window: self.spec.fast_window,
                slow_window: self.spec.slow_window,
            });
        }
        if burn_fast < self.spec.fast_threshold_x1000 {
            self.firing = false;
        }
        None
    }
}

/// SLO budgets for a serve session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloOptions {
    /// Whether SLO tracking is on ([`SloOptions::disabled`] turns it off).
    pub enabled: bool,
    /// Deadline-miss budget per tier, ×1000. Default 50 (5%).
    pub miss_budget_x1000: u64,
    /// Delivered-SSIM floor, ×1000. A delivery below the floor is "bad".
    /// Default 900 (0.900).
    pub ssim_floor_x1000: u64,
    /// Budget for deliveries below the SSIM floor, ×1000. Default 50.
    pub ssim_budget_x1000: u64,
    /// Queue-shed budget, ×1000. Default 50 (5%).
    pub shed_budget_x1000: u64,
}

impl Default for SloOptions {
    fn default() -> SloOptions {
        SloOptions {
            enabled: true,
            miss_budget_x1000: 50,
            ssim_floor_x1000: 900,
            ssim_budget_x1000: 50,
            shed_budget_x1000: 50,
        }
    }
}

impl SloOptions {
    /// Options with tracking switched off.
    pub fn disabled() -> SloOptions {
        SloOptions {
            enabled: false,
            ..SloOptions::default()
        }
    }

    /// The standard serve-layer SLO suite over a burn horizon of `horizon`
    /// cycles: one deadline-miss objective per tier, a delivered-SSIM
    /// floor, and a queue-shed rate. Fast window = horizon/64, slow
    /// window = horizon/8.
    pub fn standard_specs(&self, horizon: u64) -> Vec<SloSpec> {
        let horizon = horizon.max(64);
        let fast = (horizon / 64).max(1);
        let slow = (horizon / 8).max(1);
        let spec = |name, budget_x1000| SloSpec {
            name,
            budget_x1000,
            fast_window: fast,
            slow_window: slow,
            fast_threshold_x1000: 8_000,
            slow_threshold_x1000: 2_000,
            min_samples: 8,
        };
        vec![
            spec("slo::miss::interactive", self.miss_budget_x1000),
            spec("slo::miss::standard", self.miss_budget_x1000),
            spec("slo::miss::batch", self.miss_budget_x1000),
            spec("slo::ssim_floor", self.ssim_budget_x1000),
            spec("slo::shed", self.shed_budget_x1000),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec {
            name: "slo::test",
            budget_x1000: 50,
            fast_window: 100,
            slow_window: 800,
            fast_threshold_x1000: 8_000,
            slow_threshold_x1000: 2_000,
            min_samples: 4,
        }
    }

    #[test]
    fn healthy_stream_never_fires() {
        let mut t = SloTracker::new(spec());
        for i in 0..200u64 {
            // 1-in-50 bad: 2% < 5% budget, burn < 1×.
            assert_eq!(t.observe(i * 7, i % 50 == 0, i), None);
        }
        assert_eq!(t.alerts(), 0);
    }

    #[test]
    fn sustained_burn_fires_once_then_rearms() {
        let mut t = SloTracker::new(spec());
        for i in 0..20u64 {
            t.observe(i, false, i);
        }
        // Everything bad: burn = 1000/50 = 20× in both windows once the
        // fast window fills.
        let mut fired = Vec::new();
        for i in 20..40u64 {
            if let Some(alert) = t.observe(i, true, i) {
                fired.push(alert);
            }
        }
        assert_eq!(fired.len(), 1, "edge-triggered: one alert per episode");
        assert_eq!(fired[0].slo, "slo::test");
        assert!(fired[0].burn_fast_x1000 >= 8_000);
        // Recovery drains the fast window below threshold…
        for i in 40..300u64 {
            assert_eq!(t.observe(i * 3, false, i), None);
        }
        // …after which a second episode fires again.
        let refired = (300..330u64)
            .filter_map(|i| t.observe(900 + i, true, i))
            .count();
        assert_eq!(refired, 1);
        assert_eq!(t.alerts(), 2);
    }

    #[test]
    fn min_samples_guards_cold_start() {
        let mut t = SloTracker::new(spec());
        assert_eq!(t.observe(0, true, 0), None);
        assert_eq!(t.observe(1, true, 1), None);
        assert_eq!(t.observe(2, true, 2), None);
        // Fourth bad sample reaches min_samples and fires.
        assert!(t.observe(3, true, 3).is_some());
    }

    #[test]
    fn alert_line_is_schema_shaped() {
        let alert = SloAlert {
            slo: "slo::shed",
            cycle: 42,
            job: 7,
            burn_fast_x1000: 9_000,
            burn_slow_x1000: 2_500,
            budget_x1000: 50,
            fast_window: 100,
            slow_window: 800,
        };
        let line = alert.jsonl_line();
        assert!(line.starts_with("{\"type\":\"slo\",\"slo\":\"slo::shed\""));
        assert!(line.contains("\"burn_fast_x1000\":9000"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn standard_specs_scale_windows_from_horizon() {
        let specs = SloOptions::default().standard_specs(64_000);
        assert_eq!(specs.len(), 5);
        for s in &specs {
            assert_eq!(s.fast_window, 1_000);
            assert_eq!(s.slow_window, 8_000);
        }
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        assert!(names.contains(&"slo::miss::interactive"));
        assert!(names.contains(&"slo::ssim_floor"));
        assert!(names.contains(&"slo::shed"));
    }
}
