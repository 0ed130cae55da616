//! The `serve_calm` and `serve_chaos` workloads: patu-serve sessions on
//! real `patu_sim` renders.

use crate::cli::{Args, Workload};
use crate::expected::window;
use crate::ledger::{ratio, scenario_metrics, Layers, Ledger};
use crate::{measure_passes, measure_setup, Measured, Simulated, Traced, SETUP_REPS};
use patu_bench::micro::timed;
use patu_serve::exec::fnv1a;
use patu_serve::{
    run_session, FrameService, Outcome, RenderKey, Scenario, ServeConfig, ServeError, ServeReport,
    ServedFrame, SimFrameService,
};
use patu_sim::parallel;
use patu_temporal::TemporalConfig;
use std::error::Error;

/// Sessions per scenario, seeded `1000·window + 1..=SEEDS`.
const SEEDS: u64 = 5;

/// The sessions of one workload in run order: [`SEEDS`] per scenario, one
/// scenario after another.
fn sessions(workload: Workload, seed: u64) -> Vec<ServeConfig> {
    let (scenarios, load): (&[Scenario], f64) = match workload {
        Workload::ServeChaos => (&Scenario::CHAOS, 0.5),
        _ => (&[Scenario::Calm], 0.75),
    };
    let mut all = Vec::new();
    for &scenario in scenarios {
        for k in 1..=SEEDS {
            all.push(ServeConfig {
                seed: 1000 * window(seed) + k,
                clients: 8,
                jobs_per_client: 125,
                scenario,
                load,
                pressure_gain: 0.4,
                threads: Some(1),
                ..ServeConfig::default()
            });
        }
    }
    all
}

/// A service with temporal reuse pinned off, whatever `PATU_TEMPORAL` says.
fn service(cfg: &ServeConfig) -> Result<SimFrameService, ServeError> {
    SimFrameService::with_temporal(cfg, TemporalConfig::off())
}

/// The render bucket the governor's threshold `theta` maps to.
fn bucket(theta: f64, cfg: &ServeConfig) -> u32 {
    (theta.clamp(0.0, 1.0) * f64::from(cfg.governor_steps.max(1))).round() as u32
}

/// Whether a session's report passes the serve checks: every job
/// conserved, and one schema-clean log line per job.
fn session_ok(report: &ServeReport) -> bool {
    let s = &report.stats;
    s.delivered + s.shed + s.failed == s.submitted
        && patu_obs::schema::check_stream(&report.log).is_ok_and(|n| n as u64 == s.submitted)
}

/// Σ render cycles of the delivered jobs at the base threshold, and at the
/// thresholds they were served at. Keys the session rendered are cache
/// hits; base-threshold keys it never rendered render here.
fn served_cycles(
    cfg: &ServeConfig,
    report: &ServeReport,
    svc: &mut SimFrameService,
) -> Result<(u64, u64), ServeError> {
    let delivered: Vec<_> = report
        .completed
        .iter()
        .filter(|c| c.outcome == Outcome::Delivered)
        .collect();
    let key = |scene, frame, theta| RenderKey {
        scene,
        frame,
        bucket: bucket(theta, cfg),
    };
    let served: Vec<RenderKey> = delivered
        .iter()
        .map(|c| key(c.job.scene, c.job.frame, c.theta))
        .collect();
    let base: Vec<RenderKey> = delivered
        .iter()
        .map(|c| key(c.job.scene, c.job.frame, cfg.base_threshold))
        .collect();
    let sum = |frames: Vec<ServedFrame>| frames.iter().map(|f| f.cycles).sum::<u64>();
    Ok((sum(svc.serve(&base)?), sum(svc.serve(&served)?)))
}

/// The simulated outcomes of one set of sessions (one pass).
struct Outcomes {
    violation: f64,
    worst: f64,
    ssim: f64,
    degrade: f64,
}

fn outcomes(sessions: &[(&ServeConfig, &ServeReport)]) -> Outcomes {
    let (mut delivered, mut ssim_sum, mut degrades, mut violation) = (0u64, 0.0, 0u64, 0.0);
    let mut by_scenario: Vec<(Scenario, f64, f64)> = Vec::new();
    for (cfg, report) in sessions {
        let s = &report.stats;
        delivered += s.delivered;
        ssim_sum += s.ssim_sum;
        degrades += s.degrades;
        violation += s.violation_rate();
        match by_scenario
            .iter_mut()
            .find(|(sc, _, _)| *sc == cfg.scenario)
        {
            Some(entry) => {
                entry.1 += s.violation_rate();
                entry.2 += 1.0;
            }
            None => by_scenario.push((cfg.scenario, s.violation_rate(), 1.0)),
        }
    }
    Outcomes {
        violation: ratio(violation, sessions.len() as f64),
        worst: by_scenario
            .iter()
            .map(|(_, sum, n)| sum / n)
            .fold(0.0, f64::max),
        ssim: ratio(ssim_sum, delivered as f64),
        degrade: ratio(degrades as f64, delivered as f64),
    }
}

type Session = Result<(ServeReport, SimFrameService), ServeError>;

/// Runs the untraced workload: each pass runs every session on its own
/// cold service. Each scenario's sessions are a timed section, spread over
/// `threads` workers.
///
/// # Errors
///
/// Returns set-up errors; failed sessions are counted instead.
pub fn measure(args: &Args, threads: usize) -> Result<Measured, Box<dyn Error>> {
    // Set-up checks every session config and proves the scene set renders
    // (one calibration frame) before anything is timed.
    let (cfgs, setup_s) = measure_setup(SETUP_REPS, || {
        let cfgs = sessions(args.workload, args.seed);
        for cfg in &cfgs {
            cfg.validate()?;
        }
        let first = cfgs.first().ok_or("no sessions")?;
        let base = bucket(first.base_threshold, first);
        service(first)?.calibrate(base)?;
        Ok(cfgs)
    })?;
    let jobs: u64 = cfgs.iter().map(|c| c.total_jobs() as u64).sum();

    // Pass 0's clean sessions give the outcomes; their services answer the
    // speedup lookups, untimed, and are dropped before the next pass, so
    // peak memory does not depend on the pass count.
    let mut first: Option<(Outcomes, u64, u64)> = None;
    let mut lookup: Result<(), ServeError> = Ok(());
    let passes = measure_passes(args.seconds, |pass| {
        let mut sessions: Vec<Session> = Vec::with_capacity(cfgs.len());
        let mut section_ms = Vec::new();
        for scenario in cfgs.chunks(SEEDS as usize) {
            let (done, ms) = timed(|| {
                let tasks: Vec<parallel::Task<'_, Session>> = scenario
                    .iter()
                    .map(|cfg| {
                        Box::new(move || {
                            let mut svc = service(cfg)?;
                            let report = run_session(cfg, &mut svc)?;
                            Ok((report, svc))
                        }) as parallel::Task<'_, Session>
                    })
                    .collect();
                parallel::run_tasks(threads, tasks)
            });
            sessions.extend(done);
            section_ms.push(ms);
        }
        let witnesses: Vec<Option<u64>> = sessions
            .iter()
            .map(|s| match s {
                Ok((report, _)) if session_ok(report) => Some(fnv1a(0, report.log.bytes())),
                _ => None,
            })
            .collect();
        if pass == 0 {
            let (mut base, mut served) = (0u64, 0u64);
            let mut clean = Vec::new();
            for ((cfg, session), witness) in cfgs.iter().zip(&mut sessions).zip(&witnesses) {
                let (Ok((report, svc)), Some(_)) = (session, witness) else {
                    continue;
                };
                match served_cycles(cfg, report, svc) {
                    Ok((b, s)) => {
                        base += b;
                        served += s;
                    }
                    Err(e) => lookup = Err(e),
                }
                clean.push((cfg, &*report));
            }
            first = Some((outcomes(&clean), base, served));
        }
        (witnesses, section_ms)
    });
    lookup?;

    let mut failed = 0u64;
    let mut correct = true;
    for witnesses in &passes.outputs {
        correct &= witnesses == &passes.outputs[0];
        for (cfg, witness) in cfgs.iter().zip(witnesses) {
            if witness.is_none() {
                failed += cfg.total_jobs() as u64;
            }
        }
    }
    correct &= passes.outputs[0].iter().all(Option::is_some);
    let (out, base_cycles, served) = first.ok_or("no passes")?;
    let simulated = |name, value, unit| Simulated {
        name,
        value,
        unit,
        paper: None,
    };
    Ok(Measured {
        setup_s,
        passes: passes.outputs.len(),
        ops_per_s: jobs as f64 / passes.fastest_s(),
        attempted: jobs * passes.outputs.len() as u64,
        failed,
        correct,
        simulated: vec![
            simulated("sim_speedup", base_cycles as f64 / served as f64, "x"),
            simulated("sim_mssim", out.ssim, "ssim"),
            simulated("serve_violation_rate", out.violation, "fraction"),
            simulated("serve_violation_rate_worst", out.worst, "fraction"),
            simulated("serve_degrade_rate", out.degrade, "fraction"),
        ],
    })
}

/// A [`FrameService`] that times every call into the wrapped
/// [`SimFrameService`] and counts cache hits: keys served without a new
/// render.
pub struct TimedService {
    inner: SimFrameService,
    /// Milliseconds spent inside `serve` (calibration included).
    pub ms: f64,
    /// Calls into `serve`.
    pub calls: u64,
    /// Keys requested.
    pub keys: u64,
    /// Keys answered from the render cache.
    pub hits: u64,
}

impl TimedService {
    /// Wraps `inner`.
    pub fn new(inner: SimFrameService) -> TimedService {
        TimedService {
            inner,
            ms: 0.0,
            calls: 0,
            keys: 0,
            hits: 0,
        }
    }
}

impl FrameService for TimedService {
    fn serve(&mut self, keys: &[RenderKey]) -> Result<Vec<ServedFrame>, ServeError> {
        let before = self.inner.distinct_renders();
        let (served, ms) = timed(|| self.inner.serve(keys));
        let rendered = (self.inner.distinct_renders() - before) as u64;
        self.ms += ms;
        self.calls += 1;
        self.keys += keys.len() as u64;
        self.hits += (keys.len() as u64).saturating_sub(rendered);
        served
    }
}

/// Runs the traced workload: every session serially, each through a
/// [`TimedService`], so session time splits into serve-loop and render
/// service time.
///
/// # Errors
///
/// Returns errors building a session's service; failed sessions are
/// counted instead.
pub fn trace(args: &Args) -> Result<Traced, Box<dyn Error>> {
    let cfgs = sessions(args.workload, args.seed);
    let mut ledger = Ledger::default();
    let root = ledger.span(args.workload.name(), 0);
    let mut layers = Layers::default();
    let (mut loop_ms, mut service_ms, mut calls, mut keys, mut hits) = (0.0, 0.0, 0u64, 0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut clean: Vec<(&ServeConfig, ServeReport)> = Vec::new();

    let (result, total_ms) = timed(|| -> Result<(), Box<dyn Error>> {
        for cfg in &cfgs {
            attempted += cfg.total_jobs() as u64;
            let mut svc = TimedService::new(service(cfg)?);
            let (report, session_ms) = timed(|| run_session(cfg, &mut svc));
            let session = ledger.record(cfg.scenario.label(), root, session_ms);
            ledger.record("serve.service", session, svc.ms);
            loop_ms += session_ms - svc.ms;
            service_ms += svc.ms;
            calls += svc.calls;
            keys += svc.keys;
            hits += svc.hits;
            match report {
                Ok(report) if session_ok(&report) => clean.push((cfg, report)),
                _ => failed += cfg.total_jobs() as u64,
            }
        }
        Ok(())
    });
    result?;
    ledger.add(root, total_ms);

    let jobs: u64 = clean.iter().map(|(c, _)| c.total_jobs() as u64).sum();
    layers.set("serve.loop_ms", loop_ms);
    layers.set("serve.loop_us_per_job", ratio(loop_ms * 1e3, jobs as f64));
    layers.set("serve.service_ms", service_ms);
    layers.set("serve.service_calls", calls as f64);
    layers.set("serve.cache_hit_rate", ratio(hits as f64, keys as f64));
    let refs: Vec<(&ServeConfig, &ServeReport)> = clean.iter().map(|(c, r)| (*c, r)).collect();
    let out = outcomes(&refs);
    layers.set("serve.violation_rate", out.violation);
    layers.set("serve.violation_rate_worst", out.worst);
    layers.set("serve.degrade_rate", out.degrade);
    for scenario in Scenario::ALL {
        let runs: Vec<&ServeReport> = refs
            .iter()
            .filter(|(c, _)| c.scenario == scenario)
            .map(|(_, r)| *r)
            .collect();
        if runs.is_empty() {
            continue;
        }
        let sum = |f: fn(&ServeReport) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
        let values = [
            sum(|r| r.stats.retries as f64),
            sum(|r| r.stats.hedges as f64),
            sum(|r| r.stats.hedge_wins as f64),
            sum(|r| r.stats.breaker_opens as f64),
            sum(|r| r.stats.shed as f64),
            sum(|r| r.stats.failed as f64),
            ratio(sum(|r| r.stats.violation_rate()), runs.len() as f64),
        ];
        for ((name, _), value) in scenario_metrics(scenario.label()).zip(values) {
            layers.set(&name, value);
        }
    }
    Ok(Traced {
        layers,
        ledger,
        attempted,
        failed,
        correct: failed == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(scenario: Scenario) -> ServeConfig {
        ServeConfig {
            clients: 2,
            jobs_per_client: 6,
            resolution: (96, 64),
            frame_span: 2,
            scenario,
            threads: Some(1),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn timing_wrapper_leaves_the_serve_log_byte_identical() {
        for scenario in [Scenario::Calm, Scenario::SingleGpuFlap] {
            let cfg = small(scenario);
            let plain = run_session(&cfg, &mut service(&cfg).unwrap()).unwrap();
            let mut timed_svc = TimedService::new(service(&cfg).unwrap());
            let wrapped = run_session(&cfg, &mut timed_svc).unwrap();
            assert_eq!(plain.log, wrapped.log, "{}", scenario.label());
            assert_eq!(plain.completed, wrapped.completed);
            assert!(session_ok(&wrapped));
            assert!(timed_svc.calls > 0 && timed_svc.hits <= timed_svc.keys);
        }
    }

    #[test]
    fn sessions_follow_the_workload_definitions() {
        let calm = sessions(Workload::ServeCalm, 2);
        assert_eq!(calm.len(), 5);
        assert!(calm
            .iter()
            .all(|c| c.scenario == Scenario::Calm && c.load == 0.75));
        assert_eq!(calm[0].seed, 2001);
        assert_eq!(calm[0].total_jobs(), 1000);
        let chaos = sessions(Workload::ServeChaos, 2);
        assert_eq!(chaos.len(), 20);
        assert!(chaos
            .iter()
            .all(|c| c.scenario != Scenario::Calm && c.load == 0.5));
        assert_eq!(chaos[19].seed, 2005);
        assert_eq!(
            sessions(Workload::ServeCalm, 10)[0].seed,
            2001,
            "seed 10 is window 2"
        );
    }
}
