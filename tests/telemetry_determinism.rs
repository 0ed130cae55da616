//! Telemetry determinism grid: the serialized artifacts (JSONL stream and
//! Chrome trace) must be byte-identical across thread counts,
//! with and without fault injection, at every trace level — and `off` must
//! record nothing at all. The flight recorder's postmortems must name the
//! offending frame, tile, cluster, policy and fault seed. The serve-layer
//! grid extends the same bar to observability v2: causal trace trees and
//! per-frame cycle attribution must be bit-identical across thread counts
//! under every chaos scenario.

use patu_core::FilterPolicy;
use patu_gpu::FaultConfig;
use patu_obs::{schema, sink, EventKind, TelemetryConfig, TraceLevel};
use patu_scenes::Workload;
use patu_sim::render::{render_frame, RenderConfig};

fn workload() -> Workload {
    Workload::build("doom3", (256, 192)).unwrap()
}

/// Renders one frame and serializes its telemetry through both sinks.
fn artifacts(w: &Workload, cfg: &RenderConfig) -> (String, String) {
    let r = render_frame(w, 0, cfg).expect("valid test config");
    let t = r.telemetry.expect("telemetry enabled");
    let frames = [*t];
    (sink::jsonl(&frames), sink::chrome_trace(&frames))
}

#[test]
fn artifacts_bit_identical_across_threads_and_faults() {
    let w = workload();
    for faults in [FaultConfig::disabled(), FaultConfig::uniform(7, 0.02)] {
        for level in [TraceLevel::Counters, TraceLevel::Spans] {
            let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
                .with_faults(faults)
                .with_telemetry(TelemetryConfig::with_level(level));
            let (jsonl_1, trace_1) = artifacts(&w, &cfg.with_threads(1));
            let (jsonl_4, trace_4) = artifacts(&w, &cfg.with_threads(4));
            assert_eq!(
                jsonl_1, jsonl_4,
                "JSONL must not depend on the thread count (level {level:?}, faults {faults:?})"
            );
            assert_eq!(
                trace_1, trace_4,
                "Chrome trace must not depend on the thread count \
                 (level {level:?}, faults {faults:?})"
            );
            let lines = schema::check_stream(&jsonl_1)
                .unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));
            assert!(lines > 0, "an enabled run emits at least the frame header");
        }
    }
}

#[test]
fn off_produces_zero_events() {
    let w = workload();
    for threads in [1usize, 4] {
        let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }).with_threads(threads);
        let r = render_frame(&w, 0, &cfg).unwrap();
        assert!(
            r.telemetry.is_none(),
            "TraceLevel::Off carries no telemetry at all"
        );
    }
}

#[test]
fn spans_level_strictly_extends_counters() {
    let w = workload();
    let base = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 });
    let counters = render_frame(
        &w,
        0,
        &base.with_telemetry(TelemetryConfig::with_level(TraceLevel::Counters)),
    )
    .unwrap()
    .telemetry
    .unwrap();
    let spans = render_frame(
        &w,
        0,
        &base.with_telemetry(TelemetryConfig::with_level(TraceLevel::Spans)),
    )
    .unwrap()
    .telemetry
    .unwrap();
    assert!(counters.spans.is_empty(), "counters level records no spans");
    assert!(
        !spans.spans.is_empty(),
        "spans level records the stage tree"
    );
    assert_eq!(
        counters.counters, spans.counters,
        "counters agree across levels"
    );
    assert_eq!(
        counters.hists, spans.hists,
        "histograms agree across levels"
    );
}

#[test]
fn watchdog_dump_names_the_offender_identically_across_threads() {
    let w = workload();
    let cfg = RenderConfig::new(FilterPolicy::Baseline)
        .with_cycle_budget(1)
        .with_telemetry(TelemetryConfig::with_level(TraceLevel::Counters));
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let r = render_frame(&w, 0, &cfg.with_threads(threads)).unwrap();
        assert!(r.degraded, "a 1-cycle budget trips the watchdog");
        let t = r.telemetry.expect("counters level records");
        assert!(!t.dumps.is_empty(), "the trip leaves a postmortem");
        let dump = &t.dumps[0];
        assert_eq!(dump.reason, "watchdog_trip");
        assert_eq!(dump.frame, 0);
        assert_eq!(dump.policy, "Baseline");
        assert_eq!(dump.fault_seed, 0);
        assert!(
            dump.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::WatchdogTrip)),
            "the ring retains the trip event"
        );
        let rendered = sink::render_dump(dump);
        for needle in ["watchdog_trip", "frame 0", "Baseline", "fault seed 0"] {
            assert!(
                rendered.contains(needle),
                "dump report must name {needle:?}: {rendered}"
            );
        }
        reports.push(sink::jsonl(std::slice::from_ref(&t)));
    }
    assert_eq!(
        reports[0], reports[1],
        "dumps serialize identically across thread counts"
    );
}

#[test]
fn fault_fallback_dump_carries_the_seed() {
    let w = workload();
    let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
        .with_faults(FaultConfig::uniform(42, 0.05))
        .with_telemetry(TelemetryConfig::with_level(TraceLevel::Counters));
    let r = render_frame(&w, 0, &cfg).unwrap();
    assert!(
        r.stats.faults.fallbacks > 0,
        "5% fault rates force fallbacks"
    );
    let t = r.telemetry.unwrap();
    let dump = t
        .dumps
        .iter()
        .find(|d| d.reason == "fault_fallback")
        .expect("a fallback leaves a postmortem");
    assert_eq!(dump.fault_seed, 42);
    assert!(
        dump.policy.starts_with("Patu"),
        "policy label: {}",
        dump.policy
    );
    assert!(
        dump.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Fallback { .. })),
        "the ring retains the fallback event"
    );
}

mod serve_observability {
    //! Observability v2 determinism: per-job causal trace trees and
    //! attribution-bearing artifacts out of full serve sessions, pinned
    //! across thread counts and chaos scenarios.

    use patu_core::FilterPolicy;
    use patu_obs::{schema, sink, TelemetryConfig, TraceLevel};
    use patu_scenes::Workload;
    use patu_serve::{run_session, Scenario, ServeConfig, SimFrameService, SyntheticService};
    use patu_sim::render::{render_frame, RenderConfig};

    const CHAOS_GRID: [Scenario; 3] = [
        Scenario::SingleGpuFlap,
        Scenario::HalfPoolOutage,
        Scenario::StragglerStorm,
    ];

    /// A dense synthetic session: enough jobs for retries and hedges,
    /// cheap enough to run per scenario.
    fn chaos_cfg(scenario: Scenario) -> ServeConfig {
        ServeConfig {
            seed: 1207,
            clients: 4,
            jobs_per_client: 48,
            scenario,
            load: 1.5,
            gpus: 2,
            queue_capacity: 8,
            trace: TraceLevel::Spans,
            pressure_gain: 0.4,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn every_terminal_job_leaves_a_well_formed_trace_tree() {
        for scenario in CHAOS_GRID {
            let cfg = chaos_cfg(scenario);
            let mut svc = SyntheticService::new(1_000_000, cfg.governor_steps);
            let report = run_session(&cfg, &mut svc).unwrap();
            // The schema checker walks every trace line's span tree:
            // single root, valid parent links, children inside bounds.
            schema::check_stream(&report.log)
                .unwrap_or_else(|(line, err)| panic!("{scenario:?}: line {line}: {err}"));
            let traces = report
                .log
                .lines()
                .filter(|l| l.starts_with("{\"type\":\"trace\""))
                .count();
            assert_eq!(
                traces as u64, report.stats.submitted,
                "{scenario:?}: one causal tree per submitted job"
            );
            assert!(
                report.log.contains("serve::lifecycle"),
                "{scenario:?}: every tree is rooted in the job lifecycle"
            );
        }
    }

    #[test]
    fn serve_artifacts_bit_identical_across_threads_under_chaos() {
        for scenario in CHAOS_GRID {
            let base = ServeConfig {
                clients: 3,
                jobs_per_client: 4,
                resolution: (96, 64),
                frame_span: 2,
                ..chaos_cfg(scenario)
            };
            let mut artifacts = Vec::new();
            for threads in [1usize, 4] {
                let cfg = ServeConfig {
                    threads: Some(threads),
                    ..base.clone()
                };
                let mut svc = SimFrameService::new(&cfg).unwrap();
                let report = run_session(&cfg, &mut svc).unwrap();
                schema::check_stream(&report.log)
                    .unwrap_or_else(|(line, err)| panic!("{scenario:?}: line {line}: {err}"));
                artifacts.push((
                    report.log.clone(),
                    report.chrome_trace(),
                    svc.baseline_cycles(),
                ));
            }
            assert_eq!(
                artifacts[0].0, artifacts[1].0,
                "{scenario:?}: serve log must not depend on the thread count"
            );
            assert_eq!(
                artifacts[0].1, artifacts[1].1,
                "{scenario:?}: chrome trace must not depend on the thread count"
            );
            assert_eq!(
                artifacts[0].2, artifacts[1].2,
                "{scenario:?}: ssim-baseline cycle accounting must not depend on the thread count"
            );
        }
    }

    #[test]
    fn attribution_artifacts_conserve_and_match_across_threads() {
        let w = Workload::build("doom3", (128, 96)).unwrap();
        let base = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
            .with_telemetry(TelemetryConfig::with_level(TraceLevel::Counters));
        let mut lines = Vec::new();
        for threads in [1usize, 4] {
            let r = render_frame(&w, 0, &base.with_threads(threads)).unwrap();
            let t = r.telemetry.expect("counters level records");
            assert_eq!(
                t.attrib.frame_total(),
                r.stats.cycles,
                "render-path stage cycles conserve to the frame total"
            );
            lines.push(t.attrib.jsonl_line(0));
        }
        assert_eq!(
            lines[0], lines[1],
            "the attribution line must not depend on the thread count"
        );
        schema::check_stream(&format!("{}\n", lines[0]))
            .unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));
        // The full JSONL sink carries the attribution line per frame.
        let r = render_frame(&w, 0, &base.with_threads(1)).unwrap();
        let stream = sink::jsonl(std::slice::from_ref(&r.telemetry.unwrap()));
        assert!(
            stream.contains("{\"type\":\"attrib\""),
            "sink::jsonl emits the per-frame attribution line"
        );
    }
}

/// An experiment carries no telemetry of its own: its frames render under
/// `ExperimentConfig::render_config`, and telemetry added there surfaces
/// the postmortems with the experiment's fault seed.
#[test]
fn experiment_surfaces_dumps() {
    use patu_sim::experiment::ExperimentConfig;
    let w = Workload::build("grid", (192, 160)).unwrap();
    let cfg = ExperimentConfig {
        frames: 1,
        frame_stride: 1,
        faults: FaultConfig::uniform(5, 0.05),
        ..ExperimentConfig::default()
    };
    let rc = cfg
        .render_config(FilterPolicy::Patu { threshold: 0.4 })
        .with_telemetry(TelemetryConfig::with_level(TraceLevel::Counters));
    let frame = cfg.frame_indices()[0];
    let t = render_frame(&w, frame, &rc).unwrap().telemetry.unwrap();
    assert!(
        !t.dumps.is_empty(),
        "fault fallbacks under 5% rates leave postmortems"
    );
    assert_eq!(t.dumps[0].fault_seed, 5);
}
