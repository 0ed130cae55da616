//! Tier-1 determinism grid for the serving subsystem.
//!
//! Runs real `patu_sim` renders through `patu_serve` over a grid of thread
//! counts × load levels (and, below, chaos scenarios) and asserts the
//! entire observable
//! session — serve log, queue stats, every job's terminal record, telemetry —
//! is bit-identical. Thread counts are pinned via the explicit
//! `ServeConfig::threads` knob.

use patu_serve::{run_session, CompletedJob, Scenario, ServeConfig, ServeReport, SimFrameService};

fn base_cfg() -> ServeConfig {
    ServeConfig {
        seed: 1207,
        clients: 3,
        jobs_per_client: 4,
        scenes: vec!["doom3".to_string(), "hl2".to_string()],
        resolution: (96, 64),
        frame_span: 2,
        gpus: 2,
        queue_capacity: 6,
        batch_max: 3,
        ..ServeConfig::default()
    }
}

fn run(cfg: &ServeConfig) -> ServeReport {
    let mut service = SimFrameService::new(cfg).expect("service builds");
    run_session(cfg, &mut service).expect("session runs")
}

/// Everything we compare between two runs of the same configuration. Every
/// job's terminal record, in completion order, carries its outcome, finish
/// time, θ, SSIM and delivered-image hash; the full `ServeStats` debug form
/// folds in every resilience counter (retries, hedges, breaker opens,
/// outages, corrupt frames, ...).
fn fingerprint(report: &ServeReport) -> (String, Vec<CompletedJob>, String, String) {
    (
        report.log.clone(),
        report.completed.clone(),
        format!("{:?}", report.stats),
        report.chrome_trace(),
    )
}

#[test]
fn serve_sessions_are_bit_identical_across_the_grid() {
    for &threads in &[1usize, 4] {
        for &load in &[1.0f64, 2.5] {
            let cfg = ServeConfig {
                threads: Some(threads),
                load,
                ..base_cfg()
            };
            let a = fingerprint(&run(&cfg));
            let b = fingerprint(&run(&cfg));
            assert_eq!(
                a, b,
                "same config must replay identically (threads={threads}, load={load})"
            );
        }
    }
}

#[test]
fn thread_count_never_leaks_into_results() {
    let cfg = |threads: usize| ServeConfig {
        threads: Some(threads),
        load: 2.0,
        ..base_cfg()
    };
    let one = fingerprint(&run(&cfg(1)));
    let four = fingerprint(&run(&cfg(4)));
    assert_eq!(one, four, "threads 1 vs 4 must be bit-identical");
}

#[test]
fn chaos_scenarios_replay_bit_identically_across_thread_counts() {
    for scenario in Scenario::ALL {
        let cfg = |threads: usize| ServeConfig {
            threads: Some(threads),
            scenario,
            load: 1.5,
            jobs_per_client: 6,
            ..base_cfg()
        };
        let one = fingerprint(&run(&cfg(1)));
        let four = fingerprint(&run(&cfg(4)));
        assert_eq!(
            one,
            four,
            "scenario {} must be bit-identical across threads 1 vs 4",
            scenario.label()
        );
        let replay = fingerprint(&run(&cfg(1)));
        assert_eq!(
            one,
            replay,
            "scenario {} must replay on the same thread count",
            scenario.label()
        );
    }
}

#[test]
fn overload_degradation_is_deterministic_and_monotone() {
    let mut prev_pressure = 0u64;
    for &load in &[0.8f64, 2.0, 4.0] {
        let cfg = ServeConfig {
            threads: Some(2),
            load,
            queue_capacity: 4,
            ..base_cfg()
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.stats.shed, b.stats.shed, "sheds replay at load {load}");
        assert_eq!(
            a.stats.degrades, b.stats.degrades,
            "degrades replay at load {load}"
        );
        // Pressure responses (sheds + governor degrades) grow with load on
        // the same seed: heavier traffic never relieves the system.
        let pressure = a.stats.shed + a.stats.degrades;
        assert!(
            pressure >= prev_pressure,
            "pressure response at load {load}: {pressure} < {prev_pressure}"
        );
        prev_pressure = pressure;
        assert_eq!(
            a.stats.delivered + a.stats.shed + a.stats.failed,
            a.stats.submitted,
            "conservation at load {load}"
        );
    }
}

#[test]
fn delivered_quality_stays_above_the_acceptance_floor() {
    let cfg = ServeConfig {
        threads: Some(2),
        load: 2.0,
        // The quality bar is judged at the default serving resolution; the
        // rest of the grid shrinks it for speed.
        resolution: (192, 144),
        ..base_cfg()
    };
    let report = run(&cfg);
    assert!(report.stats.delivered > 0);
    assert!(
        report.stats.mean_ssim() >= 0.9,
        "mean delivered SSIM {} under 2x overload",
        report.stats.mean_ssim()
    );
    let checked = patu_obs::schema::check_stream(&report.log).expect("schema-clean log");
    assert_eq!(checked as u64, report.stats.submitted);
}
