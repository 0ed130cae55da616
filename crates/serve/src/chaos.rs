//! Named chaos scenarios: fully-seeded failure scripts on the virtual
//! clock.
//!
//! A [`Scenario`] is a recipe that expands into a [`HealthModel`] given
//! the pool size, the calibrated mean service time, and the session
//! horizon. Every draw comes from a `DetRng` stream forked from the
//! scenario seed, so the same scenario at the same seed produces the same
//! outages, the same stragglers, and the same transient draws — on any
//! thread count. That is what makes a chaos run a *regression test*
//! rather than a dice roll.

use crate::exec::fnv1a;
use crate::health::{Episode, EpisodeKind, HealthModel};
use patu_gmath::DetRng;

/// A named, fully-seeded failure script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No failures of any kind — the pre-chaos serve semantics.
    Calm,
    /// A background drizzle: every attempt carries a transient-failure
    /// chance, and each GPU drifts through mild 1.5x straggle windows.
    SteadyTransients,
    /// GPU 0 flaps: short periodic outages with drawn spacing, killing
    /// whatever it was running. The classic flaky-host postmortem.
    SingleGpuFlap,
    /// Half the pool drops out for a correlated mid-session window — the
    /// acceptance scenario for the brownout ladder.
    HalfPoolOutage,
    /// Every GPU takes a staggered 3x slowdown window; nothing crashes,
    /// everything is late. Hedging's home turf.
    StragglerStorm,
}

impl Scenario {
    /// Every scenario, calm first.
    pub const ALL: [Scenario; 5] = [
        Scenario::Calm,
        Scenario::SteadyTransients,
        Scenario::SingleGpuFlap,
        Scenario::HalfPoolOutage,
        Scenario::StragglerStorm,
    ];

    /// The scenarios that actually break things.
    pub const CHAOS: [Scenario; 4] = [
        Scenario::SteadyTransients,
        Scenario::SingleGpuFlap,
        Scenario::HalfPoolOutage,
        Scenario::StragglerStorm,
    ];

    /// Stable name, used in JSON artifacts and accepted by [`Scenario::parse`].
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Calm => "calm",
            Scenario::SteadyTransients => "steady_transients",
            Scenario::SingleGpuFlap => "single_gpu_flap",
            Scenario::HalfPoolOutage => "half_pool_outage",
            Scenario::StragglerStorm => "straggler_storm",
        }
    }

    /// Parses a scenario name as written by [`Scenario::label`].
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.label() == name.trim())
    }

    /// The per-attempt transient-failure probability the scenario runs at.
    pub fn transient_rate(self) -> f64 {
        match self {
            Scenario::Calm => 0.0,
            Scenario::SteadyTransients => 0.08,
            _ => 0.02,
        }
    }

    /// Expands the scenario into a concrete per-GPU health script.
    ///
    /// `horizon` is the expected session makespan in cycles — windows are
    /// placed relative to it so "mid-session" means mid-session at any
    /// load. All draws fork from `seed`; GPU scripts fork per GPU index
    /// so pool size never perturbs another GPU's episodes.
    pub fn model(self, gpus: usize, mean_service: u64, horizon: u64, seed: u64) -> HealthModel {
        let ms = mean_service.max(1);
        let horizon = horizon.max(8 * ms);
        let root = DetRng::new(seed ^ 0x0063_6861_6f73).fork(fnv1a(0, self.label().bytes()));
        let mut per_gpu: Vec<Vec<Episode>> = vec![Vec::new(); gpus];
        match self {
            Scenario::Calm => {}
            Scenario::SteadyTransients => {
                // Mild straggle windows drifting across each GPU.
                for (g, episodes) in per_gpu.iter_mut().enumerate() {
                    let mut rng = root.fork(1).fork(g as u64);
                    let mut t = (ms * 2).saturating_mul(1 + g as u64);
                    while t < horizon {
                        let dur = 2 * ms + rng.range(2 * ms);
                        episodes.push(Episode {
                            start: t,
                            end: t + dur,
                            kind: EpisodeKind::Straggle { factor: 1.5 },
                        });
                        t = t + dur + 6 * ms + rng.range(6 * ms);
                    }
                }
            }
            Scenario::SingleGpuFlap => {
                let Some(episodes) = per_gpu.first_mut() else {
                    return HealthModel::new(per_gpu, self.transient_rate(), seed);
                };
                let mut rng = root.fork(2);
                let mut t = 3 * ms + rng.range(2 * ms);
                while t < horizon {
                    let down = ms + rng.range(2 * ms);
                    episodes.push(Episode {
                        start: t,
                        end: t + down,
                        kind: EpisodeKind::Outage,
                    });
                    t = t + down + 6 * ms + rng.range(4 * ms);
                }
            }
            Scenario::HalfPoolOutage => {
                // A correlated blast radius: the low half of the pool
                // shares one mid-session outage window.
                let mut rng = root.fork(3);
                let start = horizon / 20 * 7 + rng.range(horizon / 20);
                let end = start + horizon / 20 * 4 + rng.range(horizon / 20);
                for episodes in per_gpu.iter_mut().take(gpus.div_ceil(2)) {
                    episodes.push(Episode {
                        start,
                        end,
                        kind: EpisodeKind::Outage,
                    });
                }
            }
            Scenario::StragglerStorm => {
                // Staggered heavy-slowdown windows covering the middle
                // half of the session, one per GPU.
                for (g, episodes) in per_gpu.iter_mut().enumerate() {
                    let mut rng = root.fork(4).fork(g as u64);
                    let stagger = if gpus == 0 {
                        0
                    } else {
                        horizon / 4 / gpus as u64 * g as u64
                    };
                    let start = horizon / 5 + stagger + rng.range(ms);
                    let dur = horizon / 5 * 2 + rng.range(horizon / 10);
                    episodes.push(Episode {
                        start,
                        end: start + dur,
                        kind: EpisodeKind::Straggle { factor: 3.0 },
                    });
                }
            }
        }
        HealthModel::new(per_gpu, self.transient_rate(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;
    const HORIZON: u64 = 40 * MS;

    #[test]
    fn labels_round_trip_through_parse() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::parse(s.label()), Some(s));
        }
        assert_eq!(Scenario::parse(" calm "), Some(Scenario::Calm));
        assert_eq!(Scenario::parse("nope"), None);
        assert_eq!(Scenario::parse(""), None);
    }

    #[test]
    fn calm_expands_to_a_healthy_pool() {
        let m = Scenario::Calm.model(4, MS, HORIZON, 1);
        assert!(m.is_calm(), "no episodes, no transients");
        assert_eq!(m.gpus(), 4);
        assert_eq!(m.transient_rate(), 0.0);
        assert!((0..4).all(|g| m.episodes(g).is_empty()));
    }

    #[test]
    fn models_are_seed_deterministic() {
        for s in Scenario::ALL {
            let a = s.model(4, MS, HORIZON, 1207);
            let b = s.model(4, MS, HORIZON, 1207);
            assert_eq!(a, b, "{} must replay", s.label());
            if s != Scenario::Calm {
                let c = s.model(4, MS, HORIZON, 1208);
                assert_ne!(a, c, "{} must vary with seed", s.label());
            }
        }
    }

    #[test]
    fn flap_hits_only_gpu_zero() {
        let m = Scenario::SingleGpuFlap.model(4, MS, HORIZON, 7);
        assert!(!m.episodes(0).is_empty(), "gpu 0 flaps");
        assert!(m.episodes(0).len() >= 2, "flapping means repeatedly");
        for g in 1..4 {
            assert!(m.episodes(g).is_empty(), "gpu {g} stays healthy");
        }
        assert!(m
            .episodes(0)
            .iter()
            .all(|e| matches!(e.kind, EpisodeKind::Outage)));
    }

    #[test]
    fn half_pool_outage_is_correlated_and_mid_session() {
        let m = Scenario::HalfPoolOutage.model(4, MS, HORIZON, 7);
        let down: Vec<&[Episode]> = (0..4).map(|g| m.episodes(g)).collect();
        assert_eq!(down[0].len(), 1);
        assert_eq!(down[0], down[1], "shared window: correlated failure");
        assert!(
            down[2].is_empty() && down[3].is_empty(),
            "other half survives"
        );
        let e = down[0][0];
        assert!(
            e.start > HORIZON / 4 && e.end < HORIZON,
            "mid-session window"
        );
        // Odd pools round the blast radius up.
        let m5 = Scenario::HalfPoolOutage.model(5, MS, HORIZON, 7);
        assert_eq!((0..5).filter(|&g| !m5.episodes(g).is_empty()).count(), 3);
    }

    #[test]
    fn straggler_storm_slows_every_gpu() {
        let m = Scenario::StragglerStorm.model(3, MS, HORIZON, 7);
        for g in 0..3 {
            let eps = m.episodes(g);
            assert_eq!(eps.len(), 1, "one window per gpu");
            assert!(
                matches!(eps[0].kind, EpisodeKind::Straggle { factor } if factor == 3.0),
                "heavy slowdown"
            );
        }
        let starts: Vec<u64> = (0..3).map(|g| m.episodes(g)[0].start).collect();
        assert!(
            starts[0] < starts[1] && starts[1] < starts[2],
            "staggered onsets"
        );
    }

    #[test]
    fn steady_transients_carries_the_highest_rate() {
        let m = Scenario::SteadyTransients.model(2, MS, HORIZON, 7);
        assert_eq!(m.transient_rate(), 0.08);
        for g in 0..2 {
            assert!(!m.episodes(g).is_empty(), "gpu {g} drifts");
            assert!(m
                .episodes(g)
                .iter()
                .all(|e| matches!(e.kind, EpisodeKind::Straggle { factor } if factor == 1.5)));
        }
    }

    #[test]
    fn degenerate_pools_and_horizons_stay_safe() {
        for s in Scenario::ALL {
            let m = s.model(0, MS, HORIZON, 7);
            assert_eq!(m.gpus(), 0);
            // Tiny horizon is clamped so scripts still terminate.
            let m = s.model(2, MS, 0, 7);
            assert_eq!(m.gpus(), 2);
            let m = s.model(2, 0, HORIZON, 7);
            assert_eq!(m.gpus(), 2);
        }
    }
}
