//! Per-GPU failure domains and the resilience primitives that survive
//! them.
//!
//! The [`HealthModel`] scripts each GPU's misbehavior on the virtual
//! clock as half-open [`Episode`] windows — whole-unit **outages** (the
//! GPU is gone until a drawn recovery cycle; work in flight is lost) and
//! **straggler** windows (service time is multiplied by a slowdown factor
//! without going offline) — plus a hash-derived per-attempt **transient**
//! failure draw that surfaces as a corrupt frame hash. Everything is a
//! pure function of the scenario seed: no wall clock, no ambient
//! randomness, so chaos replays bit-identically at any thread count.
//!
//! The resilience side lives here too: retry scheduling
//! (`next_attempt`: deterministic exponential backoff in virtual cycles,
//! per-tier retry budgets, and a deadline check so a retry that cannot
//! finish in time is never dispatched), a per-GPU [`CircuitBreaker`]
//! (opens after K consecutive failures, cools down for a seeded drawn
//! window, then half-opens for a single probe), and the tuning constants
//! of retries, hedging, breakers and the brownout ladder. One switch,
//! `ServeConfig::resilience`, turns all of them on or off together.

use crate::error::ServeError;
use crate::exec::fnv1a;
use crate::job::Job;
use patu_gmath::DetRng;

/// What a health [`Episode`] does to its GPU while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpisodeKind {
    /// The GPU is offline: nothing dispatches to it, and any work in
    /// flight when the window opens is lost at the window's start cycle.
    Outage,
    /// The GPU still serves, but every job's service time is multiplied
    /// by `factor` (sanitized to at least 1 — a straggler never speeds
    /// anything up).
    Straggle {
        /// Service-time multiplier while the window is active.
        factor: f64,
    },
}

/// One scripted window of GPU misbehavior, half-open `[start, end)` on
/// the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// First cycle the episode is active.
    pub start: u64,
    /// First cycle after recovery (exclusive).
    pub end: u64,
    /// What the episode does.
    pub kind: EpisodeKind,
}

impl Episode {
    /// Whether the episode covers cycle `at`.
    pub fn covers(&self, at: u64) -> bool {
        self.start <= at && at < self.end
    }
}

/// The seeded per-GPU health model a serving session runs against.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthModel {
    per_gpu: Vec<Vec<Episode>>,
    transient_rate: f64,
    seed: u64,
}

impl HealthModel {
    /// A model with no episodes and no transient failures: every GPU is
    /// immortal, reproducing the pre-chaos serve semantics exactly.
    pub fn healthy(gpus: usize) -> HealthModel {
        HealthModel::new(vec![Vec::new(); gpus], 0.0, 0)
    }

    /// Builds a model from per-GPU episode scripts. Episodes are sorted
    /// by start cycle, degenerate windows (`end <= start`) are dropped,
    /// and the transient rate is sanitized into `[0, 1]`.
    pub fn new(mut per_gpu: Vec<Vec<Episode>>, transient_rate: f64, seed: u64) -> HealthModel {
        for episodes in &mut per_gpu {
            episodes.retain(|e| e.end > e.start);
            episodes.sort_by_key(|e| (e.start, e.end));
        }
        HealthModel {
            per_gpu,
            transient_rate: if transient_rate.is_finite() {
                transient_rate.clamp(0.0, 1.0)
            } else {
                0.0
            },
            seed,
        }
    }

    /// Number of GPUs the model covers.
    pub fn gpus(&self) -> usize {
        self.per_gpu.len()
    }

    /// Whether the model is entirely benign: no episodes on any GPU and
    /// no transient failures. A calm model makes hedging stand down —
    /// there is nothing to race against — which keeps calm sessions
    /// bit-identical to the pre-chaos serve semantics.
    pub fn is_calm(&self) -> bool {
        self.transient_rate <= 0.0 && self.per_gpu.iter().all(Vec::is_empty)
    }

    /// The per-attempt transient failure probability.
    pub fn transient_rate(&self) -> f64 {
        self.transient_rate
    }

    /// The episode script for one GPU (sorted by start), empty for
    /// out-of-range indices.
    pub fn episodes(&self, gpu: usize) -> &[Episode] {
        self.per_gpu.get(gpu).map_or(&[], Vec::as_slice)
    }

    /// The outage window covering `at`, as `(start, end)` — `start`
    /// identifies the episode (the postmortem dedup key), `end` is when
    /// the GPU actually comes back. The scheduler never sees this; only
    /// the attempt simulation does.
    pub fn outage_covering(&self, gpu: usize, at: u64) -> Option<(u64, u64)> {
        self.episodes(gpu)
            .iter()
            .filter(|e| matches!(e.kind, EpisodeKind::Outage) && e.covers(at))
            .map(|e| (e.start, e.end))
            .max_by_key(|&(_, end)| end)
    }

    /// The first outage window opening strictly inside `(after, before)`,
    /// as `(start, end)` — the crash that kills work dispatched at
    /// `after` and finishing at `before`.
    pub fn next_outage_in(&self, gpu: usize, after: u64, before: u64) -> Option<(u64, u64)> {
        self.episodes(gpu)
            .iter()
            .find(|e| matches!(e.kind, EpisodeKind::Outage) && e.start > after && e.start < before)
            .map(|e| (e.start, e.end))
    }

    /// The service-time multiplier in force on `gpu` at cycle `at`: the
    /// largest factor of any covering straggle window, 1.0 when none.
    pub fn straggle_factor(&self, gpu: usize, at: u64) -> f64 {
        self.episodes(gpu)
            .iter()
            .filter_map(|e| match e.kind {
                EpisodeKind::Straggle { factor } if e.covers(at) => Some(factor.max(1.0)),
                _ => None,
            })
            .fold(1.0, f64::max)
    }

    /// Whether attempt `attempt` of job `job` on `gpu` suffers a
    /// transient fault (the frame computes, but its hash comes back
    /// corrupt). A pure hash draw: independent of dispatch order, and
    /// decorrelated across GPUs and attempts, so a retry or a hedge
    /// re-rolls the dice.
    pub fn transient_fails(&self, gpu: usize, job: u64, attempt: u32) -> bool {
        if self.transient_rate <= 0.0 {
            return false;
        }
        let h = fnv1a(
            self.seed ^ 0x7472_616e_7369_656e,
            (gpu as u64)
                .to_le_bytes()
                .into_iter()
                .chain(job.to_le_bytes())
                .chain(u64::from(attempt).to_le_bytes()),
        );
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.transient_rate
    }
}

/// Retries per tier (index = `Tier::index()`) once resilience is on.
pub(crate) const RETRY_BUDGETS: [u32; 3] = [2, 2, 3];
/// First retry backoff, as a fraction of the mean service time.
pub(crate) const BACKOFF_FRAC: f64 = 0.25;
/// Backoff ceiling, as a fraction of the mean service time.
pub(crate) const BACKOFF_CAP_FRAC: f64 = 4.0;
/// A job is at risk, and may be hedged, when its remaining slack is below
/// `HEDGE_SLACK × est_service` — one straggle or one transient would blow
/// the deadline.
pub(crate) const HEDGE_SLACK: f64 = 2.0;
/// Consecutive failure incidents that open a circuit breaker.
pub(crate) const BREAKER_THRESHOLD: u32 = 3;
/// A breaker's cooldown is drawn uniformly from this range, in multiples
/// of the mean service time. Deliberately short: the half-open probe is
/// what verifies recovery, so a long quarantine only withholds a GPU that
/// may already be healthy again.
pub(crate) const BREAKER_COOLDOWN_FRAC: (f64, f64) = (1.0, 2.0);
/// How hard a fully lost pool pushes the threshold down: the brownout
/// ladder's bias is `-BROWNOUT_GAIN × rung`, rungs quantized to quarters
/// of lost capacity.
pub(crate) const BROWNOUT_GAIN: f64 = 0.5;

/// The backoff before retry number `retry` (1-based), in virtual cycles:
/// `BACKOFF_FRAC × mean_service × 2^(retry-1)`, capped at
/// `BACKOFF_CAP_FRAC × mean_service`, never below 1 cycle.
pub(crate) fn backoff(retry: u32, mean_service: u64) -> u64 {
    let base = (mean_service as f64 * BACKOFF_FRAC).max(1.0);
    let cap = (mean_service as f64 * BACKOFF_CAP_FRAC).max(1.0);
    let doubling = f64::from(retry.saturating_sub(1).min(32));
    let raw = base * 2.0f64.powf(doubling);
    raw.min(cap).max(1.0) as u64
}

/// Schedules the next attempt for a job whose `failed_attempts`-th
/// execution just failed at cycle `now`, returning the cycle the retry
/// becomes dispatchable.
///
/// # Errors
///
/// Returns [`ServeError::RetriesExhausted`] when the tier's
/// `RETRY_BUDGETS` entry is spent, or when even an immediate retry could
/// not finish by the job's deadline (`due + est_service > deadline`) —
/// a retry never spends GPU cycles on a contract already lost.
pub(crate) fn next_attempt(
    job: &Job,
    failed_attempts: u32,
    now: u64,
    est_service: u64,
    mean_service: u64,
) -> Result<u64, ServeError> {
    let exhausted = || ServeError::RetriesExhausted {
        job: job.id,
        retries: failed_attempts.saturating_sub(1),
    };
    if failed_attempts > RETRY_BUDGETS[job.tier.index()] {
        return Err(exhausted());
    }
    let due = now.saturating_add(backoff(failed_attempts, mean_service));
    if due.saturating_add(est_service) > job.deadline {
        return Err(exhausted());
    }
    Ok(due)
}

/// Where a [`CircuitBreaker`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows.
    Closed,
    /// Tripped: no dispatches until the cooldown expires at `until`.
    Open {
        /// First cycle the breaker half-opens.
        until: u64,
    },
    /// Cooled down: exactly one probe dispatch decides — success closes,
    /// failure re-opens with a fresh drawn cooldown.
    HalfOpen,
}

/// A per-GPU circuit breaker with seeded cooldown draws.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    enabled: bool,
    rng: DetRng,
    state: BreakerState,
    consecutive: u32,
    last_failure: Option<u64>,
    opens: u64,
}

impl CircuitBreaker {
    /// A closed breaker drawing cooldowns from `rng` (fork one stream per
    /// GPU so draws never interleave nondeterministically). A breaker that
    /// is not `enabled` never opens.
    pub fn new(enabled: bool, rng: DetRng) -> CircuitBreaker {
        CircuitBreaker {
            enabled,
            rng,
            state: BreakerState::Closed,
            consecutive: 0,
            last_failure: None,
            opens: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has opened.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Whether a dispatch may target this GPU at `now`. An expired `Open`
    /// is available (it will half-open on the next dispatch).
    pub fn available(&self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => now >= until,
        }
    }

    /// The cycle this breaker stops blocking, when it is blocking at
    /// `now`.
    pub fn blocked_until(&self, now: u64) -> Option<u64> {
        match self.state {
            BreakerState::Open { until } if until > now => Some(until),
            _ => None,
        }
    }

    /// Marks a dispatch at `now`: an expired `Open` transitions to the
    /// single-probe `HalfOpen` state.
    pub fn note_dispatch(&mut self, now: u64) {
        if let BreakerState::Open { until } = self.state {
            if now >= until {
                self.state = BreakerState::HalfOpen;
            }
        }
    }

    /// Records a successful completion: the failure run resets and a
    /// half-open probe closes the breaker.
    pub fn on_success(&mut self) {
        self.consecutive = 0;
        self.last_failure = None;
        self.state = BreakerState::Closed;
    }

    /// Records a failure observed at cycle `at`; returns `true` when this
    /// failure opened (or re-opened) the breaker. A failed half-open
    /// probe re-opens immediately; a closed breaker opens after
    /// `BREAKER_THRESHOLD` consecutive failure *incidents* — failures at
    /// distinct cycles — for a cooldown drawn uniformly from
    /// `BREAKER_COOLDOWN_FRAC × mean_service`. A crashed batch reports one loss
    /// per job at the same cycle, but that is one incident: three jobs
    /// dying in one crash is much weaker evidence of a dead GPU than
    /// three dispatches dying in a row. An already-open breaker ignores
    /// further failures (the GPU only tripped once).
    pub fn on_failure(&mut self, at: u64, mean_service: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => return false,
            BreakerState::Closed => {
                if self.last_failure != Some(at) {
                    self.last_failure = Some(at);
                    self.consecutive += 1;
                }
                self.consecutive >= BREAKER_THRESHOLD
            }
        };
        if trip {
            let (lo, hi) = BREAKER_COOLDOWN_FRAC;
            let u = self.rng.next_f64();
            let cooldown = ((lo + (hi - lo) * u) * mean_service as f64).max(1.0) as u64;
            self.state = BreakerState::Open {
                until: at.saturating_add(cooldown),
            };
            self.consecutive = 0;
            self.opens += 1;
        }
        trip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Tier;

    fn outage(start: u64, end: u64) -> Episode {
        Episode {
            start,
            end,
            kind: EpisodeKind::Outage,
        }
    }

    fn straggle(start: u64, end: u64, factor: f64) -> Episode {
        Episode {
            start,
            end,
            kind: EpisodeKind::Straggle { factor },
        }
    }

    fn job(id: u64, tier: Tier, arrival: u64, deadline: u64) -> Job {
        Job {
            id,
            client: 0,
            tier,
            scene: 0,
            frame: 0,
            arrival,
            deadline,
        }
    }

    #[test]
    fn outage_queries_use_half_open_windows() {
        let m = HealthModel::new(vec![vec![outage(100, 200)], Vec::new()], 0.0, 1);
        assert_eq!(m.outage_covering(0, 99), None);
        assert_eq!(m.outage_covering(0, 100), Some((100, 200)));
        assert_eq!(m.outage_covering(0, 199), Some((100, 200)));
        assert_eq!(m.outage_covering(0, 200), None, "end is exclusive");
        assert_eq!(m.outage_covering(1, 150), None, "other GPU is healthy");
        assert_eq!(m.outage_covering(7, 150), None, "out-of-range is healthy");
    }

    #[test]
    fn next_outage_finds_crashes_inside_the_execution_window() {
        let m = HealthModel::new(vec![vec![outage(100, 200), outage(500, 600)]], 0.0, 1);
        assert_eq!(m.next_outage_in(0, 50, 150), Some((100, 200)));
        assert_eq!(m.next_outage_in(0, 100, 400), None, "start must be strict");
        assert_eq!(m.next_outage_in(0, 250, 501), Some((500, 600)));
        assert_eq!(m.next_outage_in(0, 250, 500), None, "before is exclusive");
    }

    #[test]
    fn straggle_factor_takes_the_worst_covering_window() {
        let m = HealthModel::new(
            vec![vec![straggle(0, 100, 1.5), straggle(50, 80, 3.0)]],
            0.0,
            1,
        );
        assert_eq!(m.straggle_factor(0, 10), 1.5);
        assert_eq!(m.straggle_factor(0, 60), 3.0, "overlap takes the max");
        assert_eq!(m.straggle_factor(0, 200), 1.0, "outside all windows");
        let sub = HealthModel::new(vec![vec![straggle(0, 10, 0.5)]], 0.0, 1);
        assert_eq!(sub.straggle_factor(0, 5), 1.0, "factors below 1 sanitize");
    }

    #[test]
    fn transients_are_deterministic_and_decorrelated() {
        let m = HealthModel::new(vec![Vec::new(); 2], 0.5, 99);
        let a: Vec<bool> = (0..64).map(|j| m.transient_fails(0, j, 1)).collect();
        let b: Vec<bool> = (0..64).map(|j| m.transient_fails(0, j, 1)).collect();
        assert_eq!(a, b, "pure function of (gpu, job, attempt)");
        let other_gpu: Vec<bool> = (0..64).map(|j| m.transient_fails(1, j, 1)).collect();
        let other_attempt: Vec<bool> = (0..64).map(|j| m.transient_fails(0, j, 2)).collect();
        assert_ne!(a, other_gpu, "GPU decorrelates the draw");
        assert_ne!(a, other_attempt, "attempt decorrelates the draw");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&fired), "~50% of 64: {fired}");
        let calm = HealthModel::healthy(2);
        assert!((0..64).all(|j| !calm.transient_fails(0, j, 1)));
    }

    #[test]
    fn model_sanitizes_scripts_and_rates() {
        let m = HealthModel::new(
            vec![vec![outage(50, 50), outage(200, 300), outage(10, 20)]],
            f64::NAN,
            0,
        );
        assert_eq!(m.transient_rate(), 0.0, "NaN rate sanitizes");
        let starts: Vec<u64> = m.episodes(0).iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![10, 200], "degenerate dropped, sorted");
        assert!(!m.is_calm(), "episodes make a model hazardous");
        assert!(HealthModel::healthy(4).is_calm());
        assert!(!HealthModel::new(vec![Vec::new()], 0.1, 0).is_calm());
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let ms = 1_000_000;
        assert_eq!(backoff(1, ms), 250_000);
        assert_eq!(backoff(2, ms), 500_000);
        assert_eq!(backoff(3, ms), 1_000_000);
        assert_eq!(backoff(6, ms), 4_000_000, "capped at 4x mean");
        assert_eq!(backoff(30, ms), 4_000_000, "stays capped");
        assert!(backoff(1, 0) >= 1, "never zero");
    }

    #[test]
    fn retry_respects_budget_and_deadline() {
        let ms = 1_000_000;
        let j = job(5, Tier::Standard, 0, 10_000_000);
        let due = next_attempt(&j, 1, 2_000_000, ms, ms).expect("first retry");
        assert_eq!(due, 2_250_000, "failure time + first backoff");
        assert!(
            matches!(
                next_attempt(&j, 3, 2_000_000, ms, ms),
                Err(ServeError::RetriesExhausted { job: 5, retries: 2 })
            ),
            "standard tier budget is 2"
        );
        // Deadline-aware: a retry that cannot finish in time is refused
        // even with budget left.
        let tight = job(6, Tier::Interactive, 0, 3_000_000);
        assert!(matches!(
            next_attempt(&tight, 1, 2_500_000, ms, ms),
            Err(ServeError::RetriesExhausted { job: 6, retries: 0 })
        ));
    }

    #[test]
    fn breaker_opens_after_k_and_half_open_probes() {
        let ms = 1_000u64;
        let mut b = CircuitBreaker::new(true, DetRng::new(7));
        assert!(b.available(0));
        assert!(!b.on_failure(10, ms));
        assert!(!b.on_failure(20, ms));
        assert!(b.on_failure(30, ms), "third consecutive failure trips");
        assert_eq!(b.opens(), 1);
        let BreakerState::Open { until } = b.state() else {
            unreachable!("breaker must be open");
        };
        assert!((30 + ms..=30 + 2 * ms).contains(&until), "drawn cooldown");
        assert!(!b.available(until - 1));
        assert_eq!(b.blocked_until(31), Some(until));
        assert!(b.available(until), "expired open is probeable");
        b.note_dispatch(until);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.on_failure(until + 5, ms), "failed probe re-opens at once");
        assert_eq!(b.opens(), 2);
        let BreakerState::Open { until: until2 } = b.state() else {
            unreachable!("breaker must re-open");
        };
        b.note_dispatch(until2);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed, "probe success closes");
        assert!(b.blocked_until(0).is_none());
    }

    #[test]
    fn success_resets_the_failure_run() {
        let mut b = CircuitBreaker::new(true, DetRng::new(7));
        b.on_failure(1, 100);
        b.on_failure(2, 100);
        b.on_success();
        assert!(!b.on_failure(3, 100), "run restarted");
        assert!(!b.on_failure(4, 100));
        assert!(b.on_failure(5, 100));
    }

    #[test]
    fn disabled_breaker_never_opens() {
        let mut b = CircuitBreaker::new(false, DetRng::new(7));
        for at in 0..50 {
            assert!(!b.on_failure(at, 100));
        }
        assert_eq!(b.opens(), 0);
        assert!(b.available(0));
    }

    #[test]
    fn breaker_draws_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut b = CircuitBreaker::new(true, DetRng::new(seed));
            for at in 0..9 {
                b.on_failure(at, 1_000);
            }
            b.state()
        };
        assert_eq!(run(42), run(42));
    }
}
