//! Chaos benchmark for the serving subsystem: every named failure
//! scenario, resilience on vs off, on real `patu_sim` renders.
//!
//! The headline acceptance claim: under the correlated half-pool outage at
//! 1.5× offered load, the resilience stack (retries + hedged dispatch +
//! circuit breakers + brownout) strictly lowers the contract-violation
//! rate versus the resilience-off control while holding mean delivered
//! SSIM at or above 0.9 — and every scenario replays bit-identically
//! between `threads = 1` and `threads = 4`. Results land in
//! `BENCH_chaos.json` at the repository root.

use patu_bench::{micro, Knobs};
use patu_obs::json::num_fixed;
use patu_serve::{run_session, Scenario, ServeConfig, ServeReport, SimFrameService};
use patu_temporal::TemporalConfig;

fn cfg(knobs: &Knobs, scenario: Scenario, resilience: bool, threads: usize) -> ServeConfig {
    ServeConfig {
        seed: 1207,
        clients: 6,
        jobs_per_client: 6,
        scenario,
        load: 1.5,
        threads: Some(threads),
        // A gentler pressure gain than the default: queue pressure alone
        // must not rail the governor to its floor, or the brownout ladder
        // (the resilient arm's capacity lever) has no headroom left to
        // trade quality for throughput when half the pool drops out.
        pressure_gain: 0.4,
        resilience,
        ssim_sample: knobs.ssim_sample,
        ..ServeConfig::default()
    }
}

fn run(knobs: &Knobs, cfg: &ServeConfig) -> Result<ServeReport, Box<dyn std::error::Error>> {
    let temporal = TemporalConfig::for_mode(knobs.temporal);
    let mut service = SimFrameService::with_temporal(cfg, temporal)?;
    Ok(run_session(cfg, &mut service)?)
}

struct Arm {
    scenario: Scenario,
    on: ServeReport,
    off: ServeReport,
    bit_identical: bool,
}

fn check_session(report: &ServeReport, label: &str) -> Result<(), Box<dyn std::error::Error>> {
    let s = &report.stats;
    if s.delivered + s.shed + s.failed != s.submitted {
        return Err(format!(
            "{label}: jobs not conserved ({} delivered + {} shed + {} failed != {} submitted)",
            s.delivered, s.shed, s.failed, s.submitted
        )
        .into());
    }
    let checked = patu_obs::schema::check_stream(&report.log)
        .map_err(|(line, err)| format!("{label}: serve log line {line}: {err}"))?;
    if checked as u64 != s.submitted {
        return Err(format!(
            "{label}: schema checked {checked} lines but {} jobs were submitted",
            s.submitted
        )
        .into());
    }
    Ok(())
}

fn stats_json(report: &ServeReport) -> String {
    let s = &report.stats;
    format!(
        "{{\"violation_rate\": {}, \"miss_rate\": {}, \"mean_ssim\": {}, \
         \"delivered\": {}, \"shed\": {}, \"failed\": {}, \"retries\": {}, \
         \"hedges\": {}, \"hedge_wins\": {}, \"breaker_opens\": {}, \
         \"outages\": {}, \"straggles\": {}, \"corrupt_frames\": {}, \
         \"degrades\": {}, \"makespan\": {}}}",
        num_fixed(s.violation_rate(), 4),
        num_fixed(s.miss_rate(), 4),
        num_fixed(s.mean_ssim(), 4),
        s.delivered,
        s.shed,
        s.failed,
        s.retries,
        s.hedges,
        s.hedge_wins,
        s.breaker_opens,
        s.outages,
        s.straggles,
        s.corrupt_frames,
        s.degrades,
        s.makespan,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    patu_bench::no_args()?;
    println!("CHAOS: every scenario at 1.5x load, resilience on vs off");

    let mut arms = Vec::new();
    for scenario in Scenario::ALL {
        let on = run(&knobs, &cfg(&knobs, scenario, true, 1))?;
        let wide = run(&knobs, &cfg(&knobs, scenario, true, 4))?;
        let off = run(&knobs, &cfg(&knobs, scenario, false, 1))?;
        check_session(&on, scenario.label())?;
        check_session(&off, &format!("{} (control)", scenario.label()))?;
        let bit_identical = on.log == wide.log
            && on.chrome_trace() == wide.chrome_trace()
            && on.completed == wide.completed;
        arms.push(Arm {
            scenario,
            on,
            off,
            bit_identical,
        });
    }

    println!(
        "\n{:<18} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "scenario", "viol(on)", "viol(off)", "ssim(on)", "retries", "hedges", "opens", "1==4"
    );
    for a in &arms {
        println!(
            "{:<18} {:>10.4} {:>10.4} {:>10.4} {:>8} {:>8} {:>8} {:>8}",
            a.scenario.label(),
            a.on.stats.violation_rate(),
            a.off.stats.violation_rate(),
            a.on.stats.mean_ssim(),
            a.on.stats.retries,
            a.on.stats.hedges,
            a.on.stats.breaker_opens,
            a.bit_identical,
        );
    }

    let all_bit_identical = arms.iter().all(|a| a.bit_identical);
    let headline = arms
        .iter()
        .find(|a| a.scenario == Scenario::HalfPoolOutage)
        .ok_or("half-pool arm missing")?;
    let resilience_wins = headline.on.stats.violation_rate() < headline.off.stats.violation_rate();
    let quality_holds = headline.on.stats.mean_ssim() >= 0.9;
    println!(
        "\nhalf-pool outage: resilience strictly lowers violation rate: {resilience_wins}; \
         mean SSIM >= 0.9: {quality_holds}; \
         threads 1 vs 4 bit-identical everywhere: {all_bit_identical}"
    );

    let mut rows = String::new();
    for (i, a) in arms.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"bit_identical\": {}, \
             \"resilient\": {}, \"control\": {}}}",
            a.scenario.label(),
            a.bit_identical,
            stats_json(&a.on),
            stats_json(&a.off),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"load\": 1.5,\n  \
         \"resilience_wins_half_pool\": {resilience_wins},\n  \
         \"half_pool_mean_ssim_holds\": {quality_holds},\n  \
         \"outputs_bit_identical\": {all_bit_identical},\n  \"scenarios\": [\n{rows}\n  ]\n}}\n"
    );
    let path = micro::repo_root().join("BENCH_chaos.json");
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());

    if !(resilience_wins && quality_holds && all_bit_identical) {
        return Err("chaos acceptance criteria not met".into());
    }
    Ok(())
}
