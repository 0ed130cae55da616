//! The serve loop: a discrete-event simulation of the GPU pool on the
//! virtual clock.
//!
//! Time is simulated GPU cycles, advanced only by three event kinds — job
//! arrivals, GPU completions, and retry due-times — so a session is a pure
//! function of its [`ServeConfig`] and [`FrameService`]: bit-identical
//! logs, stats and delivered frames on every run and every thread
//! count. The loop per step: admit every arrival due now (shedding on a
//! full queue), requeue every retry that has cooled down, dispatch EDF
//! batches onto available GPUs with the governor's quantized threshold,
//! else advance the clock to the next event.
//!
//! The failure domain threads through every dispatch: the session's
//! [`HealthModel`] (scripted by [`ServeConfig::scenario`]) can crash a GPU
//! mid-batch (work in flight is lost at the outage's start cycle),
//! stretch its service times through straggle windows, or corrupt a
//! frame's hash in flight. The resilience machinery answers with typed
//! retries, hedged duplicate dispatch for at-risk interactive jobs,
//! per-GPU circuit breakers, and the brownout ladder that leans lost
//! capacity onto the quality governor.

use crate::error::ServeError;
use crate::exec::{corrupted, FrameService, RenderKey, ServedFrame};
use crate::governor::{bucket_of, QualityGovernor, GOVERNOR_FLOOR};
use crate::health::{self, BreakerState, CircuitBreaker, HealthModel, BROWNOUT_GAIN, HEDGE_SLACK};
use crate::job::{CompletedJob, Job, Outcome, Tier};
use crate::queue::{Admission, AdmissionQueue};
use crate::trace::{AttemptTraceKind, TraceBuilder};
use crate::workload::{self, ServeConfig};
use patu_core::FilterPolicy;
use patu_gmath::DetRng;
use patu_obs::json::{escape, num_fixed};
use patu_obs::report::Table;
use patu_obs::{
    sink, Collector, Event, EventKind, FrameTelemetry, Log2Histogram, TelemetryConfig, Track,
};
use std::collections::BTreeMap;

/// Session-level counters and distributions.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Jobs the workload generator submitted.
    pub submitted: u64,
    /// Jobs rendered and delivered (on time or late).
    pub delivered: u64,
    /// Jobs rejected at admission (queue full).
    pub shed: u64,
    /// Jobs whose every attempt failed — crashed mid-render or detected
    /// corrupt — with no retry budget (or deadline headroom) left.
    pub failed: u64,
    /// Delivered jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Delivered jobs rendered below the base threshold — quality the
    /// governor traded for throughput.
    pub degrades: u64,
    /// Batches dispatched (each paid one scene-setup cost).
    pub batches: u64,
    /// Retries scheduled after failed attempts.
    pub retries: u64,
    /// Hedged (duplicate) dispatches issued for at-risk interactive jobs.
    pub hedges: u64,
    /// Hedges the secondary GPU won.
    pub hedge_wins: u64,
    /// Times a per-GPU circuit breaker opened.
    pub breaker_opens: u64,
    /// Distinct GPU outage episodes the session collided with.
    pub outages: u64,
    /// Job executions stretched by a straggle window.
    pub straggles: u64,
    /// Attempts that came back with a corrupt frame hash (transient GPU
    /// faults).
    pub corrupt_frames: u64,
    /// Virtual cycle the last job finished.
    pub makespan: u64,
    /// Sum of delivered SSIM (for the mean).
    pub ssim_sum: f64,
    /// Queue depth observed at each admission.
    pub queue_depth: Log2Histogram,
    /// Deadline headroom of on-time deliveries.
    pub slack: Log2Histogram,
    /// Arrival→delivery latency per tier (index = `Tier::index()`).
    pub latency: [Log2Histogram; 3],
}

impl ServeStats {
    /// Mean SSIM over delivered jobs (1.0 for an empty session: no frame
    /// was degraded).
    pub fn mean_ssim(&self) -> f64 {
        if self.delivered == 0 {
            1.0
        } else {
            self.ssim_sum / self.delivered as f64
        }
    }

    /// The fraction of submitted jobs that were shed at admission or
    /// delivered past deadline (failures are counted separately — see
    /// [`ServeStats::violation_rate`] for the full contract metric).
    pub fn miss_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.deadline_misses + self.shed) as f64 / self.submitted as f64
        }
    }

    /// The fraction of submitted jobs whose contract was violated in any
    /// way: shed at admission, delivered past deadline, or failed
    /// outright. The chaos benchmarks' headline SLO metric.
    pub fn violation_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.deadline_misses + self.shed + self.failed) as f64 / self.submitted as f64
        }
    }

    /// Delivered jobs per million virtual cycles.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.delivered as f64 * 1.0e6 / self.makespan as f64
        }
    }
}

/// Everything a session produces.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Counters and distributions.
    pub stats: ServeStats,
    /// Terminal record of every job, in completion order.
    pub completed: Vec<CompletedJob>,
    /// The JSONL serve log, schema-checked by `patu_obs::schema`: one
    /// `"serve"` line per job, plus (at [`patu_obs::TraceLevel::Spans`])
    /// one `"trace"` causal-tree line per job.
    pub log: String,
    /// Spans (per job and batch, on per-GPU tracks), session counters,
    /// and per-GPU outage postmortems, exportable as a Chrome trace.
    pub telemetry: FrameTelemetry,
}

impl ServeReport {
    /// Per-tier latency table for run summaries.
    pub fn table(&self) -> String {
        let mut t = Table::new(&["tier", "delivered", "p50", "p95", "p99"]);
        for tier in Tier::ALL {
            let h = &self.stats.latency[tier.index()];
            t.row(&[
                tier.label().to_string(),
                h.count().to_string(),
                h.p50().to_string(),
                h.p95().to_string(),
                h.p99().to_string(),
            ]);
        }
        t.render()
    }

    /// The session as a Chrome Trace Event Format document.
    pub fn chrome_trace(&self) -> String {
        sink::chrome_trace(std::slice::from_ref(&self.telemetry))
    }
}

/// Scene-setup cost charged once per dispatched batch, as a fraction of
/// the calibrated mean service time — what same-scene batching amortizes.
pub(crate) const SETUP_FRAC: f64 = 0.2;

/// How one execution attempt on one GPU ended.
enum AttemptEnd {
    /// Delivered a clean frame at `finish`.
    Done { finish: u64 },
    /// Computed to completion but the hash came back corrupt (transient
    /// fault); the cycles are spent either way.
    Corrupt { finish: u64 },
    /// The attempt was lost to an outage; `at` is when the hang detector
    /// reported it (progress stopped + one mean service time), which is
    /// also when the dispatcher reclaims the GPU slot.
    Crashed { at: u64 },
}

/// State for one session run; split out so the event loop reads linearly.
struct Session<'a, S: FrameService> {
    cfg: &'a ServeConfig,
    service: &'a mut S,
    governor: QualityGovernor,
    queue: AdmissionQueue,
    health: HealthModel,
    hazardous: bool,
    breakers: Vec<CircuitBreaker>,
    /// Retries cooling down, keyed `(due, job id)` — drained into the
    /// queue as the clock passes each due cycle.
    retries: BTreeMap<(u64, u64), Job>,
    /// Failed executions so far per in-flight job id.
    attempts: BTreeMap<u64, u32>,
    /// Outage episodes (gpu, start) already postmortem-dumped.
    dumped_outages: Vec<(usize, u64)>,
    gpu_free: Vec<u64>,
    gpu_obs: Vec<Collector>,
    /// Session-track collector: job lifecycle spans (the flow roots the
    /// per-GPU render spans link to).
    obs: Collector,
    /// In-flight causal trace trees, keyed by job id; populated only at
    /// `TraceLevel::Spans`, drained at each job's terminal outcome.
    traces: BTreeMap<u64, TraceBuilder>,
    /// Whether per-job trace trees are being built (spans-level trace).
    trace_jobs: bool,
    mean_service: u64,
    now: u64,
    stats: ServeStats,
    completed: Vec<CompletedJob>,
    log: String,
}

impl<'a, S: FrameService> Session<'a, S> {
    /// Common terminal-outcome bookkeeping: the job's `"serve"` log line,
    /// then (at spans level) its lifecycle span and `"trace"` line.
    fn terminal(&mut self, done: CompletedJob) {
        let job = done.job;
        let scene = self.cfg.scenes.get(job.scene).map_or("?", String::as_str);
        let head = format!(
            "{{\"type\":\"serve\",\"job\":{},\"client\":{},\"tier\":{},\"scene\":\"{}\",\"frame\":{},\"arrival\":{},\"deadline\":{}",
            job.id,
            job.client,
            job.tier.index(),
            escape(scene),
            job.frame,
            job.arrival,
            job.deadline,
        );
        let tail = match done.outcome {
            Outcome::Shed => ",\"outcome\":\"shed\"}".to_string(),
            Outcome::Failed => format!(
                ",\"outcome\":\"failed\",\"finish\":{},\"retries\":{}}}",
                done.finish, done.retries,
            ),
            Outcome::Delivered => format!(
                ",\"outcome\":\"delivered\",\"finish\":{},\"theta\":{},\"ssim\":{},\"hash\":{},\"gpu\":{},\"retries\":{},\"hedged\":{}}}",
                done.finish,
                num_fixed(done.theta, 4),
                num_fixed(done.ssim, 6),
                done.image_hash,
                done.gpu,
                done.retries,
                done.hedged,
            ),
        };
        self.log.push_str(&head);
        self.log.push_str(&tail);
        self.log.push('\n');
        if let Some(builder) = self.traces.remove(&job.id) {
            self.obs.span_with_id(
                builder.flow(),
                "serve::lifecycle",
                job.arrival,
                done.finish.max(job.arrival),
                0,
                ("job", job.id),
            );
            self.log
                .push_str(&builder.finish(done.outcome, done.finish));
        }
        self.completed.push(done);
    }

    /// Opens a causal trace tree for a newly submitted job (spans-level
    /// trace only), reserving the session-track span id its GPU render
    /// spans will flow-link to.
    fn begin_trace(&mut self, job: &Job) {
        if self.trace_jobs {
            let flow = self.obs.reserve_span_id();
            self.traces.insert(job.id, TraceBuilder::new(job, flow));
        }
    }

    fn shed(&mut self, job: Job) {
        self.stats.shed += 1;
        self.terminal(CompletedJob {
            job,
            outcome: Outcome::Shed,
            finish: job.arrival,
            theta: 0.0,
            ssim: 0.0,
            image_hash: 0,
            degraded: false,
            gpu: 0,
            retries: 0,
            hedged: false,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        job: Job,
        finish: u64,
        theta: f64,
        ssim: f64,
        hash: u64,
        gpu: usize,
        retries: u32,
        hedged: bool,
    ) {
        let degraded = theta + 1e-9 < self.cfg.base_threshold;
        let done = CompletedJob {
            job,
            outcome: Outcome::Delivered,
            finish,
            theta,
            ssim,
            image_hash: hash,
            degraded,
            gpu: gpu as u32,
            retries,
            hedged,
        };
        self.stats.delivered += 1;
        self.stats.deadline_misses += u64::from(done.missed_deadline());
        self.stats.degrades += u64::from(degraded);
        self.stats.ssim_sum += ssim;
        self.stats.makespan = self.stats.makespan.max(finish);
        self.stats.latency[job.tier.index()].record(done.latency());
        if !done.missed_deadline() {
            self.stats.slack.record(done.slack());
        }
        self.terminal(done);
    }

    /// Records a job's terminal failure at cycle `finish` after spending
    /// `retries` retries.
    fn fail(&mut self, job: Job, finish: u64, retries: u32) {
        self.stats.failed += 1;
        self.stats.makespan = self.stats.makespan.max(finish);
        self.terminal(CompletedJob {
            job,
            outcome: Outcome::Failed,
            finish,
            theta: 0.0,
            ssim: 0.0,
            image_hash: 0,
            degraded: false,
            gpu: 0,
            retries,
            hedged: false,
        });
    }

    /// Whether `gpu` can take a dispatch right now: idle and not
    /// breaker-blocked. The scheduler deliberately has *no* oracle view
    /// of the health script — a GPU inside an outage window still looks
    /// idle here, the dispatch hangs until the detection timeout, and the
    /// circuit breaker is how the scheduler *learns* the GPU is bad.
    fn gpu_available(&self, gpu: usize) -> bool {
        self.gpu_free.get(gpu).is_some_and(|&f| f <= self.now)
            && self
                .breakers
                .get(gpu)
                .is_some_and(|b| b.available(self.now))
    }

    /// The earliest cycle `gpu` could take work again, folding in its
    /// busy-until time and any open breaker (the scheduler's only
    /// knowledge of GPU health).
    fn gpu_next_free(&self, gpu: usize) -> u64 {
        let mut t = self.gpu_free.get(gpu).copied().unwrap_or(0);
        if let Some(until) = self
            .breakers
            .get(gpu)
            .and_then(|b| b.blocked_until(self.now))
        {
            t = t.max(until);
        }
        t
    }

    /// The fraction of the pool the scheduler believes is healthy at
    /// `now`: GPUs whose breaker is not open. Busy is not unhealthy, and
    /// an undetected outage still counts as healthy — the brownout ladder
    /// reacts to *known* capacity loss, which is exactly what the
    /// breakers encode.
    fn healthy_fraction(&self) -> f64 {
        let total = self.gpu_free.len().max(1);
        let healthy = (0..self.gpu_free.len())
            .filter(|&g| self.breakers[g].available(self.now))
            .count();
        healthy as f64 / total as f64
    }

    /// Records an outage collision: one fault event and one flight-recorder
    /// postmortem per distinct episode, no matter how many jobs it killed.
    fn note_outage(&mut self, gpu: usize, at: u64) {
        if self.dumped_outages.contains(&(gpu, at)) {
            return;
        }
        self.dumped_outages.push((gpu, at));
        self.stats.outages += 1;
        self.gpu_obs[gpu].event(Event {
            cycle: at,
            cluster: gpu as u32,
            tile: 0,
            kind: EventKind::Fault {
                site: "outages",
                count: 1,
            },
        });
        self.gpu_obs[gpu].dump("gpu_outage", at, 0);
    }

    /// Records one attempt (and its render work, when cycles were spent)
    /// into the job's trace tree, if one is being built.
    #[allow(clippy::too_many_arguments)]
    fn trace_attempt(
        &mut self,
        job: &Job,
        span: &'static str,
        kind: AttemptTraceKind,
        gpu: usize,
        attempt: u32,
        start: u64,
        end: u64,
        cycles: u64,
    ) {
        if let Some(builder) = self.traces.get_mut(&job.id) {
            let id = builder.attempt(span == "serve::hedge", kind, gpu, attempt, start, end);
            if cycles > 0 {
                builder.render(id, start, end, cycles);
            }
        }
    }

    /// Runs one attempt of `job` on `gpu` starting at `start`, applying
    /// the health model: straggle windows stretch the cycles, an outage
    /// kills the attempt, and a transient draw corrupts the delivered
    /// hash.
    ///
    /// Outages are detected by timeout, not oracle: an attempt thrown
    /// into a dead GPU (or cut down mid-flight) hangs from the moment
    /// progress stops until one mean service time has passed, and only
    /// then is reported crashed — that detection latency is the price the
    /// control arm keeps paying once its pool loses a GPU.
    fn run_attempt(
        &mut self,
        gpu: usize,
        job: &Job,
        frame: &ServedFrame,
        start: u64,
        attempt: u32,
        span: &'static str,
    ) -> AttemptEnd {
        let timeout = self.mean_service.max(1);
        if let Some((episode, _)) = self.health.outage_covering(gpu, start) {
            self.note_outage(gpu, episode);
            let at = start.saturating_add(timeout);
            self.trace_attempt(
                job,
                span,
                AttemptTraceKind::Crashed,
                gpu,
                attempt,
                start,
                at,
                0,
            );
            return AttemptEnd::Crashed { at };
        }
        let factor = self.health.straggle_factor(gpu, start);
        let mut cycles = frame.cycles.max(1);
        if factor > 1.0 {
            cycles = ((cycles as f64) * factor).max(1.0) as u64;
            self.stats.straggles += 1;
            self.gpu_obs[gpu].event(Event {
                cycle: start,
                cluster: gpu as u32,
                tile: 0,
                kind: EventKind::Fault {
                    site: "stragglers",
                    count: 1,
                },
            });
        }
        let finish = start.saturating_add(cycles);
        if let Some((at, _)) = self.health.next_outage_in(gpu, start, finish) {
            self.note_outage(gpu, at);
            let detected = at.saturating_add(timeout);
            self.trace_attempt(
                job,
                span,
                AttemptTraceKind::Crashed,
                gpu,
                attempt,
                start,
                detected,
                0,
            );
            return AttemptEnd::Crashed { at: detected };
        }
        self.governor.observe(cycles);
        // The per-GPU render span parents to the job's session-track
        // lifecycle span, so the Chrome exporter draws a flow arrow from
        // the job lane down into the GPU lane that executed it.
        let flow = self.traces.get(&job.id).map_or(0, TraceBuilder::flow);
        self.gpu_obs[gpu].span_node(span, start, finish, flow, "job", job.id);
        // A transient fault leaves the cycles spent but the content hash
        // wrong — detection is comparing the observed hash against the
        // frame's own content hash.
        let salt = self.cfg.seed ^ job.id ^ (u64::from(attempt) << 32) ^ ((gpu as u64) << 48);
        let observed = if self.health.transient_fails(gpu, job.id, attempt) {
            corrupted(frame.image_hash, salt)
        } else {
            frame.image_hash
        };
        if observed != frame.image_hash {
            self.stats.corrupt_frames += 1;
            self.trace_attempt(
                job,
                span,
                AttemptTraceKind::Corrupt,
                gpu,
                attempt,
                start,
                finish,
                cycles,
            );
            return AttemptEnd::Corrupt { finish };
        }
        self.trace_attempt(
            job,
            span,
            AttemptTraceKind::Clean,
            gpu,
            attempt,
            start,
            finish,
            cycles,
        );
        AttemptEnd::Done { finish }
    }

    /// Routes a failed attempt: schedule a retry if resilience is on and
    /// [`health::next_attempt`] allows it, else record the terminal
    /// failure. `failed_attempts` counts this
    /// one.
    ///
    /// The completion estimate handed to the retry check includes the expected
    /// *queue wait* (`mean × depth / gpus`), not just the service time,
    /// and carries a 1.5× pessimism margin: retrying into a saturated
    /// pool delivers late — still a contract violation — while delaying
    /// every job queued behind the retry. A retry storm amplifying an
    /// outage into a latency collapse is the textbook failure mode this
    /// guards against, so the estimate errs toward giving up.
    fn schedule_retry(&mut self, job: Job, failed_attempts: u32, at: u64) {
        let wait = self.mean_service.saturating_mul(self.queue.depth() as u64)
            / (self.cfg.gpus as u64).max(1);
        let est = self.mean_service.saturating_add(wait).saturating_mul(3) / 2;
        match health::next_attempt(&job, failed_attempts, at, est, self.mean_service) {
            Ok(due) if self.cfg.resilience => {
                self.stats.retries += 1;
                if let Some(builder) = self.traces.get_mut(&job.id) {
                    builder.retry_wait(at, due);
                }
                self.attempts.insert(job.id, failed_attempts);
                self.retries.insert((due, job.id), job);
            }
            _ => {
                self.attempts.remove(&job.id);
                self.fail(job, at, failed_attempts.saturating_sub(1));
            }
        }
    }

    /// A failed attempt on `gpu`: feed the breaker, then retry or fail.
    fn attempt_failed(&mut self, job: Job, failed_attempts: u32, at: u64, gpu: usize) {
        if self.breakers[gpu].on_failure(at, self.mean_service) {
            self.stats.breaker_opens += 1;
        }
        self.schedule_retry(job, failed_attempts, at);
    }

    /// Dispatches one at-risk interactive job on two GPUs at once: the
    /// primary starts immediately, the secondary queues behind its GPU's
    /// in-flight work. The first clean completion wins (ties break toward
    /// the lower GPU index); the loser's cycles are sunk cost. Both sides
    /// failing counts as one attempt, retried from the later failure
    /// time.
    fn dispatch_hedged(
        &mut self,
        job: Job,
        primary: usize,
        secondary: usize,
        theta: f64,
        bucket: u32,
        setup: u64,
    ) -> Result<(), ServeError> {
        let key = RenderKey {
            scene: job.scene,
            frame: job.frame,
            bucket,
        };
        let served = self.service.serve(&[key])?;
        let Some(frame) = served.first().cloned() else {
            // The service contract is one frame per key; a short result
            // is an internal invariant violation surfaced as data.
            return Err(ServeError::UnknownScene {
                index: job.scene,
                scenes: self.cfg.scenes.len(),
            });
        };
        self.breakers[secondary].note_dispatch(self.now);
        self.stats.hedges += 1;
        if let Some(builder) = self.traces.get_mut(&job.id) {
            builder.dispatched(self.now);
        }
        let prior = self.attempts.get(&job.id).copied().unwrap_or(0);
        let attempt = prior + 1;
        let starts = [
            self.now.saturating_add(setup),
            self.gpu_free[secondary].max(self.now).saturating_add(setup),
        ];
        let mut winner: Option<(u64, usize)> = None;
        let mut last_fail = self.now;
        for (gpu, start) in [primary, secondary].into_iter().zip(starts) {
            match self.run_attempt(gpu, &job, &frame, start, attempt, "serve::hedge") {
                AttemptEnd::Done { finish } => {
                    self.gpu_free[gpu] = finish;
                    self.breakers[gpu].on_success();
                    if winner.is_none_or(|w| (finish, gpu) < w) {
                        winner = Some((finish, gpu));
                    }
                }
                AttemptEnd::Corrupt { finish } => {
                    self.gpu_free[gpu] = finish;
                    if self.breakers[gpu].on_failure(finish, self.mean_service) {
                        self.stats.breaker_opens += 1;
                    }
                    last_fail = last_fail.max(finish);
                }
                AttemptEnd::Crashed { at } => {
                    self.gpu_free[gpu] = at;
                    if self.breakers[gpu].on_failure(at, self.mean_service) {
                        self.stats.breaker_opens += 1;
                    }
                    last_fail = last_fail.max(at);
                }
            }
        }
        self.stats.batches += 1;
        match winner {
            Some((finish, gpu)) => {
                if gpu == secondary {
                    self.stats.hedge_wins += 1;
                }
                self.attempts.remove(&job.id);
                self.deliver(
                    job,
                    finish,
                    theta,
                    frame.ssim,
                    frame.image_hash,
                    gpu,
                    prior,
                    true,
                );
            }
            None => self.schedule_retry(job, attempt, last_fail),
        }
        Ok(())
    }

    /// Dispatches one EDF batch (or hedge) onto GPU `gpu`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::GpuUnavailable`] if `gpu` cannot take work at
    /// the current cycle — the typed replacement for what used to be an
    /// unchecked-index invariant.
    fn dispatch(&mut self, gpu: usize, setup: u64) -> Result<(), ServeError> {
        if !self.gpu_available(gpu) {
            return Err(ServeError::GpuUnavailable {
                gpu,
                until: self.gpu_next_free(gpu),
            });
        }
        if self.cfg.resilience {
            let frac = self.healthy_fraction();
            self.governor.set_capacity_fraction(frac, BROWNOUT_GAIN);
        }
        let policy = self
            .governor
            .policy_for(self.queue.depth(), self.queue.capacity());
        let theta = QualityGovernor::effective_threshold(&policy);
        let bucket = bucket_of(theta, self.cfg.governor_steps);
        let Some(head) = self.queue.pop() else {
            return Ok(());
        };
        self.breakers[gpu].note_dispatch(self.now);
        // A half-open breaker admits exactly one trial job: a failed
        // probe should cost one job and re-open, not burn a whole batch.
        let probing = self.breakers[gpu].state() == BreakerState::HalfOpen;

        // Hedge at-risk interactive heads when the model is hazardous:
        // remaining slack below `HEDGE_SLACK × (setup + mean)` — scaled
        // up by the target GPU's current straggle factor — means one
        // straggle or one transient would blow the deadline.
        if self.cfg.resilience && self.hazardous && head.tier == Tier::Interactive {
            let est = (self.mean_service.saturating_add(setup)) as f64
                * self.health.straggle_factor(gpu, self.now);
            let slack = head.deadline.saturating_sub(self.now);
            let at_risk = (slack as f64) < HEDGE_SLACK * est;
            if at_risk {
                // The duplicate queues behind the soonest-free other GPU
                // whose breaker is closed; hedge only when that side is
                // expected to beat both the deadline and the straggling
                // primary — otherwise the duplicate is pure capacity
                // loss.
                let buddy = (0..self.gpu_free.len())
                    .filter(|&g| g != gpu && self.breakers[g].available(self.now))
                    .min_by_key(|&g| (self.gpu_free[g], g));
                if let Some(buddy) = buddy {
                    let b_done = self.gpu_free[buddy].max(self.now) as f64
                        + (self.mean_service.saturating_add(setup)) as f64
                            * self.health.straggle_factor(buddy, self.now);
                    if b_done <= head.deadline as f64 && b_done < self.now as f64 + est {
                        return self.dispatch_hedged(head, gpu, buddy, theta, bucket, setup);
                    }
                }
            }
        }

        let mut batch = vec![head];
        if !probing {
            batch.extend(
                self.queue
                    .take_same_scene(&head, self.cfg.batch_max.saturating_sub(1)),
            );
        }
        if self.trace_jobs {
            for j in &batch {
                if let Some(builder) = self.traces.get_mut(&j.id) {
                    builder.dispatched(self.now);
                }
            }
        }
        let keys: Vec<RenderKey> = batch
            .iter()
            .map(|j| RenderKey {
                scene: j.scene,
                frame: j.frame,
                bucket,
            })
            .collect();
        let served = self.service.serve(&keys)?;
        let start = self.now;
        let mut t = start.saturating_add(setup);
        let mut crashed: Option<u64> = None;
        for (job, frame) in batch.iter().zip(&served) {
            let prior = self.attempts.get(&job.id).copied().unwrap_or(0);
            let attempt = prior + 1;
            if let Some(at) = crashed {
                // Queued behind the crash: the work is lost at the crash
                // cycle without consuming fresh GPU time.
                self.attempt_failed(*job, attempt, at, gpu);
                continue;
            }
            match self.run_attempt(gpu, job, frame, t, attempt, "serve::job") {
                AttemptEnd::Done { finish } => {
                    t = finish;
                    self.breakers[gpu].on_success();
                    self.attempts.remove(&job.id);
                    self.deliver(
                        *job,
                        finish,
                        theta,
                        frame.ssim,
                        frame.image_hash,
                        gpu,
                        prior,
                        false,
                    );
                }
                AttemptEnd::Corrupt { finish } => {
                    t = finish;
                    self.attempt_failed(*job, attempt, finish, gpu);
                }
                AttemptEnd::Crashed { at } => {
                    crashed = Some(at);
                    self.attempt_failed(*job, attempt, at, gpu);
                }
            }
        }
        let end = crashed.unwrap_or(t);
        self.gpu_obs[gpu].span_arg("serve::batch", start, end, "jobs", batch.len() as u64);
        self.gpu_free[gpu] = end;
        self.stats.batches += 1;
        Ok(())
    }
}

/// Runs one serving session to completion.
///
/// # Errors
///
/// Returns [`ServeError`] for invalid configurations or service failures;
/// a clean run delivers, sheds, or fails every submitted job.
pub fn run_session<S: FrameService>(
    cfg: &ServeConfig,
    service: &mut S,
) -> Result<ServeReport, ServeError> {
    cfg.validate()?;
    let base_bucket = bucket_of(cfg.base_threshold, cfg.governor_steps);
    let mean_service = service.calibrate(base_bucket)?;
    let setup = (mean_service as f64 * SETUP_FRAC) as u64;
    let jobs = workload::generate(cfg, mean_service);
    let base_policy = FilterPolicy::Patu {
        threshold: cfg.base_threshold,
    };
    let telemetry_cfg = TelemetryConfig::with_level(cfg.trace);

    // The chaos horizon: the expected makespan (arrival span or total
    // work over the pool, whichever dominates) plus slack, so scenario
    // windows placed "mid-session" actually land mid-session at any load.
    let last_arrival = jobs.last().map_or(0, |j| j.arrival);
    let work = (jobs.len() as u64).saturating_mul(mean_service.max(1)) / cfg.gpus.max(1) as u64;
    let horizon = last_arrival
        .max(work)
        .saturating_add(mean_service.saturating_mul(4));
    let health = cfg
        .scenario
        .model(cfg.gpus, mean_service, horizon, cfg.seed);

    let mut session = Session {
        cfg,
        service,
        governor: QualityGovernor::new(
            base_policy,
            mean_service,
            GOVERNOR_FLOOR,
            cfg.governor_steps,
            cfg.pressure_gain,
            cfg.governor,
        ),
        queue: AdmissionQueue::new(cfg.queue_capacity),
        hazardous: !health.is_calm(),
        health,
        breakers: (0..cfg.gpus)
            .map(|g| {
                CircuitBreaker::new(
                    cfg.resilience,
                    DetRng::new(cfg.seed ^ 0x6272_6561_6b65_7273).fork(g as u64),
                )
            })
            .collect(),
        retries: BTreeMap::new(),
        attempts: BTreeMap::new(),
        dumped_outages: Vec::new(),
        gpu_free: vec![0; cfg.gpus],
        gpu_obs: (0..cfg.gpus)
            .map(|g| Collector::new(telemetry_cfg, Track::Cluster(g as u32)))
            .collect(),
        obs: Collector::new(telemetry_cfg, Track::Serve),
        traces: BTreeMap::new(),
        trace_jobs: cfg.trace.spans_enabled(),
        mean_service,
        now: 0,
        stats: ServeStats {
            submitted: jobs.len() as u64,
            ..ServeStats::default()
        },
        completed: Vec::with_capacity(jobs.len()),
        log: String::new(),
    };

    let mut next_arrival = 0usize;
    loop {
        // 1. Admit every arrival due by now, in arrival order; a full queue
        //    sheds the newcomer (admission never evicts a promise).
        while next_arrival < jobs.len() && jobs[next_arrival].arrival <= session.now {
            let job = jobs[next_arrival];
            next_arrival += 1;
            session.begin_trace(&job);
            match session.queue.offer(job) {
                Admission::Admitted(depth) => session.stats.queue_depth.record(depth as u64),
                Admission::Rejected(job) => session.shed(job),
            }
        }

        // 1b. Requeue every retry whose backoff has cooled down — the
        //     admission promise was made on first offer, so capacity does
        //     not apply.
        while let Some((&(due, id), _)) = session.retries.first_key_value() {
            if due > session.now {
                break;
            }
            if let Some(job) = session.retries.remove(&(due, id)) {
                // Re-check feasibility at requeue time: the admission
                // estimate went stale while the backoff cooled, and a
                // retry that can no longer meet its deadline is pure
                // load amplification — abandon it instead.
                if session.now.saturating_add(session.mean_service) > job.deadline {
                    let retries = session.attempts.remove(&id).unwrap_or(1).saturating_sub(1);
                    session.fail(job, session.now, retries);
                    continue;
                }
                if let Some(builder) = session.traces.get_mut(&id) {
                    builder.requeued(session.now);
                }
                let depth = session.queue.requeue(job);
                session.stats.queue_depth.record(depth as u64);
            }
        }

        // 2. Dispatch onto the lowest-indexed available GPU (idle,
        //    breaker not open), if any work waits.
        if !session.queue.is_empty() {
            let ready = (0..session.gpu_free.len()).find(|&g| session.gpu_available(g));
            if let Some(gpu) = ready {
                session.dispatch(gpu, setup)?;
                continue; // other GPUs may be available at the same cycle
            }
        }

        // 3. Advance the virtual clock to the next event: an arrival, a
        //    retry coming off backoff, or a GPU becoming available again
        //    (completion, hang-detector timeout, or breaker cooldown).
        let arrival = (next_arrival < jobs.len()).then(|| jobs[next_arrival].arrival);
        let retry_due = session.retries.keys().next().map(|&(due, _)| due);
        let availability = if session.queue.is_empty() {
            None
        } else {
            (0..session.gpu_free.len())
                .map(|g| session.gpu_next_free(g))
                .filter(|&t| t > session.now)
                .min()
        };
        match [arrival, retry_due, availability]
            .into_iter()
            .flatten()
            .min()
        {
            Some(t) => session.now = session.now.max(t),
            None => break, // no arrivals, no retries cooling, queue drained
        }
    }

    // Every admitted job must have terminated; anything still queued here
    // means the availability accounting livelocked — surface it as a
    // typed error rather than silently dropping contracts.
    if !(session.queue.is_empty() && session.retries.is_empty()) {
        return Err(ServeError::GpuUnavailable {
            gpu: 0,
            until: session.now,
        });
    }

    let Session {
        stats,
        completed,
        log,
        gpu_obs,
        obs,
        ..
    } = session;

    let mut telemetry = FrameTelemetry::new(cfg.trace, 0, format!("{base_policy:?}"), cfg.seed);
    for gpu in gpu_obs {
        telemetry.absorb(gpu);
    }
    telemetry.absorb(obs);
    telemetry
        .counters
        .insert("serve::submitted", stats.submitted);
    telemetry
        .counters
        .insert("serve::delivered", stats.delivered);
    telemetry.counters.insert("serve::shed", stats.shed);
    telemetry.counters.insert("serve::failed", stats.failed);
    telemetry
        .counters
        .insert("serve::deadline_misses", stats.deadline_misses);
    telemetry.counters.insert("serve::degrades", stats.degrades);
    telemetry.counters.insert("serve::batches", stats.batches);
    telemetry.counters.insert("serve::retries", stats.retries);
    telemetry.counters.insert("serve::hedges", stats.hedges);
    telemetry
        .counters
        .insert("serve::hedge_wins", stats.hedge_wins);
    telemetry
        .counters
        .insert("serve::breaker_opens", stats.breaker_opens);
    telemetry.counters.insert("serve::outages", stats.outages);
    telemetry
        .counters
        .insert("serve::straggles", stats.straggles);
    telemetry
        .counters
        .insert("serve::corrupt_frames", stats.corrupt_frames);
    telemetry
        .hists
        .insert("serve::queue_depth", stats.queue_depth);
    telemetry.hists.insert("serve::slack", stats.slack);
    telemetry
        .hists
        .insert("serve::latency_interactive", stats.latency[0]);
    telemetry
        .hists
        .insert("serve::latency_standard", stats.latency[1]);
    telemetry
        .hists
        .insert("serve::latency_batch", stats.latency[2]);

    Ok(ServeReport {
        stats,
        completed,
        log,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Scenario;
    use crate::exec::SyntheticService;

    fn cfg() -> ServeConfig {
        ServeConfig {
            clients: 4,
            jobs_per_client: 12,
            load: 1.0,
            gpus: 2,
            queue_capacity: 8,
            scenario: Scenario::Calm,
            ..ServeConfig::default()
        }
    }

    fn run(cfg: &ServeConfig) -> ServeReport {
        let mut service = SyntheticService::new(1_000_000, cfg.governor_steps);
        run_session(cfg, &mut service).expect("session runs")
    }

    fn conserved(s: &ServeStats) -> bool {
        s.delivered + s.shed + s.failed == s.submitted
    }

    /// A synthetic plant that records every bucket asked of it.
    struct Recording {
        plant: SyntheticService,
        buckets: std::collections::BTreeSet<u32>,
    }

    impl FrameService for Recording {
        fn serve(&mut self, keys: &[RenderKey]) -> Result<Vec<ServedFrame>, ServeError> {
            self.buckets.extend(keys.iter().map(|k| k.bucket));
            self.plant.serve(keys)
        }
    }

    #[test]
    fn sessions_request_only_reachable_buckets() {
        let mut spread = 0;
        for scenario in Scenario::ALL {
            for governor in [true, false] {
                for base_threshold in [1.0, 0.6, 0.2] {
                    for load in [0.75, 2.0] {
                        let cfg = ServeConfig {
                            scenario,
                            governor,
                            base_threshold,
                            load,
                            pressure_gain: 0.4,
                            ..cfg()
                        };
                        let mut service = Recording {
                            plant: SyntheticService::new(1_000_000, cfg.governor_steps),
                            buckets: Default::default(),
                        };
                        run_session(&cfg, &mut service).expect("session runs");
                        let reachable = crate::governor::reachable_buckets(&cfg);
                        for bucket in &service.buckets {
                            assert!(
                                reachable.contains(bucket),
                                "{scenario:?} governor {governor} base {base_threshold} \
                                 load {load}: bucket {bucket} outside {reachable:?}"
                            );
                        }
                        spread = spread.max(service.buckets.len());
                    }
                }
            }
        }
        assert!(spread > 2, "some session spans several buckets ({spread})");
    }

    #[test]
    fn every_job_terminates_exactly_once() {
        let report = run(&cfg());
        let s = &report.stats;
        assert_eq!(s.submitted, 48);
        assert_eq!(s.failed, 0, "calm sessions never fail jobs");
        assert!(conserved(s));
        assert_eq!(report.completed.len(), 48);
        let mut ids: Vec<u64> = report.completed.iter().map(|c| c.job.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 48, "no duplicate completions");
        assert_eq!(report.log.lines().count(), 48);
    }

    #[test]
    fn sessions_are_bit_identical() {
        let a = run(&cfg());
        let b = run(&cfg());
        assert_eq!(a.log, b.log);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.stats.makespan, b.stats.makespan);
        assert_eq!(a.chrome_trace(), b.chrome_trace());
    }

    #[test]
    fn serve_log_passes_the_schema_checker() {
        let report = run(&ServeConfig {
            load: 4.0, // force some sheds so both outcomes appear
            queue_capacity: 2,
            ..cfg()
        });
        let checked = patu_obs::schema::check_stream(&report.log).expect("all lines valid");
        assert_eq!(checked as u64, report.stats.submitted);
        assert!(report.stats.shed > 0, "4x load on a 2-deep queue sheds");
    }

    #[test]
    fn governor_cuts_misses_under_overload() {
        let overload = ServeConfig { load: 3.0, ..cfg() };
        let governed = run(&overload);
        let ungoverned = run(&ServeConfig {
            governor: false,
            ..overload
        });
        assert!(
            governed.stats.miss_rate() < ungoverned.stats.miss_rate(),
            "governed {} vs ungoverned {}",
            governed.stats.miss_rate(),
            ungoverned.stats.miss_rate()
        );
        assert!(governed.stats.degrades > 0, "quality was actually traded");
        assert!(
            governed.stats.mean_ssim() >= 0.88,
            "floor bounds the trade: {}",
            governed.stats.mean_ssim()
        );
        assert_eq!(ungoverned.stats.degrades, 0);
    }

    #[test]
    fn sheds_are_monotone_in_load() {
        let base = cfg();
        let mut last = 0u64;
        for load in [0.5, 2.0, 5.0] {
            let report = run(&ServeConfig {
                load,
                queue_capacity: 3,
                governor: false,
                ..base.clone()
            });
            assert!(
                report.stats.shed >= last,
                "shed at load {load}: {} < {last}",
                report.stats.shed
            );
            last = report.stats.shed;
        }
    }

    #[test]
    fn report_table_lists_every_tier() {
        let report = run(&cfg());
        let table = report.table();
        for tier in Tier::ALL {
            assert!(table.contains(tier.label()), "{table}");
        }
    }

    #[test]
    fn batching_amortizes_setup() {
        let batched = run(&ServeConfig {
            batch_max: 4,
            load: 2.0,
            ..cfg()
        });
        let unbatched = run(&ServeConfig {
            batch_max: 1,
            load: 2.0,
            ..cfg()
        });
        assert!(
            batched.stats.batches < unbatched.stats.batches,
            "same-scene jobs coalesce: {} vs {}",
            batched.stats.batches,
            unbatched.stats.batches
        );
        assert_eq!(
            batched.stats.delivered + batched.stats.shed,
            unbatched.stats.delivered + unbatched.stats.shed,
            "both modes account for every job"
        );
    }

    #[test]
    fn telemetry_records_spans_and_counters() {
        let report = run(&ServeConfig {
            trace: patu_obs::TraceLevel::Spans,
            ..cfg()
        });
        assert_eq!(
            report.telemetry.counters["serve::delivered"],
            report.stats.delivered
        );
        let stages: Vec<&str> = report
            .telemetry
            .stage_totals()
            .iter()
            .map(|&(n, _, _)| n)
            .collect();
        assert!(stages.contains(&"serve::job"), "stages: {stages:?}");
        assert!(stages.contains(&"serve::batch"));
        let trace = report.chrome_trace();
        assert!(trace.contains("serve::job"));
    }

    #[test]
    fn every_scenario_conserves_jobs_and_passes_the_schema() {
        for (arm, resilience) in [("resilience on", true), ("resilience off", false)] {
            for scenario in Scenario::ALL {
                let report = run(&ServeConfig {
                    scenario,
                    load: 1.5,
                    resilience,
                    ..cfg()
                });
                assert!(
                    conserved(&report.stats),
                    "{} ({arm}): delivered {} + shed {} + failed {} != submitted {}",
                    scenario.label(),
                    report.stats.delivered,
                    report.stats.shed,
                    report.stats.failed,
                    report.stats.submitted
                );
                let checked = patu_obs::schema::check_stream(&report.log).expect("valid lines");
                assert_eq!(
                    checked as u64,
                    report.stats.submitted,
                    "{} ({arm})",
                    scenario.label()
                );
                if !resilience {
                    // Off means no mechanism acts: failures fail at once.
                    let s = &report.stats;
                    assert_eq!(
                        (s.retries, s.hedges, s.hedge_wins, s.breaker_opens),
                        (0, 0, 0, 0),
                        "{} ({arm})",
                        scenario.label()
                    );
                    assert!(
                        report
                            .log
                            .lines()
                            .filter(|l| l.contains("\"outcome\":\"failed\""))
                            .all(|l| l.contains("\"retries\":0")),
                        "{} ({arm})",
                        scenario.label()
                    );
                }
            }
        }
    }

    #[test]
    fn chaos_sessions_replay_bit_identically() {
        for scenario in Scenario::CHAOS {
            let c = ServeConfig {
                scenario,
                load: 1.5,
                ..cfg()
            };
            let a = run(&c);
            let b = run(&c);
            assert_eq!(a.log, b.log, "{}", scenario.label());
            assert_eq!(a.completed, b.completed, "{}", scenario.label());
        }
    }

    #[test]
    fn flap_trips_breakers_and_dumps_postmortems() {
        let report = run(&ServeConfig {
            scenario: Scenario::SingleGpuFlap,
            jobs_per_client: 24,
            load: 1.5,
            ..cfg()
        });
        let s = &report.stats;
        assert!(s.outages > 0, "the flapping GPU was actually hit");
        assert!(s.retries > 0, "lost work was retried");
        assert!(
            s.breaker_opens > 0,
            "repeated crashes open the breaker: {s:?}"
        );
        assert_eq!(
            report.telemetry.dumps.len() as u64,
            s.outages,
            "one postmortem per distinct outage episode"
        );
        assert!(report
            .telemetry
            .dumps
            .iter()
            .all(|d| d.reason == "gpu_outage"));
        assert!(conserved(s));
    }

    #[test]
    fn resilience_beats_the_control_arm_under_transients() {
        let chaotic = ServeConfig {
            scenario: Scenario::SteadyTransients,
            jobs_per_client: 24,
            load: 1.2,
            ..cfg()
        };
        let on = run(&chaotic);
        let off = run(&ServeConfig {
            resilience: false,
            ..chaotic.clone()
        });
        assert!(
            off.stats.failed > 0,
            "without retries, transients fail jobs outright"
        );
        assert!(
            on.stats.violation_rate() < off.stats.violation_rate(),
            "resilience on {} vs off {}",
            on.stats.violation_rate(),
            off.stats.violation_rate()
        );
        assert!(on.stats.retries > 0);
        assert!(conserved(&on.stats) && conserved(&off.stats));
    }

    #[test]
    fn straggler_storm_stretches_and_hedges() {
        let report = run(&ServeConfig {
            scenario: Scenario::StragglerStorm,
            jobs_per_client: 24,
            load: 1.2,
            ..cfg()
        });
        let s = &report.stats;
        assert!(s.straggles > 0, "storm windows actually stretched work");
        assert!(s.hedges > 0, "at-risk interactive jobs were hedged");
        assert!(conserved(s));
        let hedged_deliveries = report
            .completed
            .iter()
            .filter(|c| c.outcome == Outcome::Delivered && c.hedged)
            .count();
        assert!(hedged_deliveries > 0, "some hedges delivered");
    }

    #[test]
    fn calm_sessions_never_hedge_or_retry() {
        let report = run(&ServeConfig { load: 2.0, ..cfg() });
        let s = &report.stats;
        assert_eq!(s.hedges, 0, "hedging stands down on a calm model");
        assert_eq!(s.retries, 0);
        assert_eq!(s.breaker_opens, 0);
        assert_eq!(s.outages, 0);
        assert_eq!(s.straggles, 0);
        assert_eq!(s.corrupt_frames, 0);
        assert!(report.telemetry.dumps.is_empty());
    }

    #[test]
    fn spans_trace_emits_a_well_formed_tree_per_job() {
        let report = run(&ServeConfig {
            trace: patu_obs::TraceLevel::Spans,
            scenario: Scenario::HalfPoolOutage,
            jobs_per_client: 24,
            load: 1.5,
            ..cfg()
        });
        // One "serve" line plus one schema-validated "trace" tree per job.
        let checked = patu_obs::schema::check_stream(&report.log).expect("valid lines");
        assert_eq!(checked as u64, report.stats.submitted * 2);
        let traces = report
            .log
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"trace\""))
            .count();
        assert_eq!(traces as u64, report.stats.submitted);
        assert!(report.stats.failed > 0, "the outage actually failed jobs");
        assert!(report.log.contains("serve::attempt::crashed"));
        assert!(report.log.contains("serve::retry_wait"));
        // Lifecycle spans land on the serve track and flow into GPU lanes.
        assert!(report.chrome_trace().contains("serve::lifecycle"));
    }

    #[test]
    fn counters_trace_emits_no_trace_lines() {
        let report = run(&cfg());
        assert!(!report.log.contains("\"type\":\"trace\""));
        assert_eq!(report.log.lines().count() as u64, report.stats.submitted);
    }

    #[test]
    fn violation_rate_counts_all_contract_losses() {
        let s = ServeStats {
            submitted: 10,
            shed: 1,
            deadline_misses: 2,
            failed: 3,
            ..ServeStats::default()
        };
        assert!((s.violation_rate() - 0.6).abs() < 1e-12);
        assert!(
            (s.miss_rate() - 0.3).abs() < 1e-12,
            "miss_rate excludes failures"
        );
        assert_eq!(ServeStats::default().violation_rate(), 0.0);
    }
}
