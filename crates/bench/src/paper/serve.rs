//! The frame-serving sweeps on real `patu_sim` renders: `serve_bench`
//! (offered load, quality governor on vs off) and `serve_chaos` (every
//! failure scenario, resilience on vs off). Each records its rows at the
//! repository root (`BENCH_serve.json`, `BENCH_chaos.json`) and fails
//! when its acceptance claims do not hold, after writing both.

use super::{record, Ctx, Report};
use patu_obs::json::num_fixed;
use patu_serve::{run_session, Scenario, ServeConfig, ServeReport, SimFrameService};
use std::error::Error;
use std::fmt::Write;

/// One session under `cfg`.
fn session(cfg: &ServeConfig) -> Result<ServeReport, Box<dyn Error>> {
    let mut service = SimFrameService::new(cfg)?;
    Ok(run_session(cfg, &mut service)?)
}

/// The loads `serve_bench` offers, as multiples of the pool's capacity.
const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

fn load_cfg(ctx: &Ctx, load: f64, governor: bool) -> ServeConfig {
    ServeConfig {
        seed: 42,
        clients: 6,
        jobs_per_client: 6,
        load,
        governor,
        threads: Some(1),
        scenario: ctx.knobs.scenario,
        ssim_sample: ctx.knobs.ssim_sample,
        ..ServeConfig::default()
    }
}

struct Point {
    load: f64,
    governed: ServeReport,
    ungoverned: ServeReport,
}

/// The load sweep: under overload (load ≥ 2×) the governor must strictly
/// lower the deadline-miss rate versus the ungoverned control while
/// holding mean delivered SSIM at or above 0.9.
pub(super) fn serve_bench(ctx: &Ctx, out: &mut String) -> Report {
    writeln!(
        out,
        "SERVE: load sweep, governor on vs off (fixed seed, 2 GPUs)"
    )?;

    let mut points = Vec::new();
    for load in LOADS {
        points.push(Point {
            load,
            governed: session(&load_cfg(ctx, load, true))?,
            ungoverned: session(&load_cfg(ctx, load, false))?,
        });
    }

    writeln!(
        out,
        "\n{:<6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "load", "thrpt/Mcyc", "miss(gov)", "miss(off)", "ssim(gov)", "shed"
    )?;
    for p in &points {
        writeln!(
            out,
            "{:<6} {:>12.3} {:>12.4} {:>12.4} {:>12.4} {:>10}",
            p.load,
            p.governed.stats.throughput(),
            p.governed.stats.miss_rate(),
            p.ungoverned.stats.miss_rate(),
            p.governed.stats.mean_ssim(),
            p.governed.stats.shed,
        )?;
    }

    let overload: Vec<&Point> = points.iter().filter(|p| p.load >= 2.0).collect();
    let governor_wins = !overload.is_empty()
        && overload
            .iter()
            .all(|p| p.governed.stats.miss_rate() < p.ungoverned.stats.miss_rate());
    let quality_holds = overload.iter().all(|p| p.governed.stats.mean_ssim() >= 0.9);
    writeln!(
        out,
        "\ngovernor strictly lowers overload miss rate: {governor_wins}; \
         overload mean SSIM >= 0.9: {quality_holds}"
    )?;

    if let Some(worst) = overload.last() {
        writeln!(
            out,
            "\nper-tier latency at load {}x (governed):",
            worst.load
        )?;
        writeln!(out, "{}", worst.governed.table())?;
    }

    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "    {{\"load\": {}, \
             \"governed\": {{\"throughput_per_mcycle\": {}, \"miss_rate\": {}, \
             \"mean_ssim\": {}, \"shed\": {}, \"degrades\": {}}}, \
             \"ungoverned\": {{\"throughput_per_mcycle\": {}, \"miss_rate\": {}, \
             \"mean_ssim\": {}, \"shed\": {}, \"degrades\": {}}}}}",
            num_fixed(p.load, 2),
            num_fixed(p.governed.stats.throughput(), 4),
            num_fixed(p.governed.stats.miss_rate(), 4),
            num_fixed(p.governed.stats.mean_ssim(), 4),
            p.governed.stats.shed,
            p.governed.stats.degrades,
            num_fixed(p.ungoverned.stats.throughput(), 4),
            num_fixed(p.ungoverned.stats.miss_rate(), 4),
            num_fixed(p.ungoverned.stats.mean_ssim(), 4),
            p.ungoverned.stats.shed,
            p.ungoverned.stats.degrades,
        )?;
    }
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"governor_wins_at_overload\": {governor_wins},\n  \
         \"overload_mean_ssim_holds\": {quality_holds},\n  \"points\": [\n{rows}\n  ]\n}}\n"
    );
    record(out, "BENCH_serve.json", json)?;

    if !(governor_wins && quality_holds) {
        return Err("serve acceptance criteria not met".into());
    }
    Ok(())
}

fn chaos_cfg(ctx: &Ctx, scenario: Scenario, resilience: bool) -> ServeConfig {
    ServeConfig {
        seed: 1207,
        clients: 6,
        jobs_per_client: 6,
        scenario,
        load: 1.5,
        threads: Some(1),
        // A gentler pressure gain than the default: queue pressure alone
        // must not rail the governor to its floor, or the brownout ladder
        // (the resilient arm's capacity lever) has no headroom left to
        // trade quality for throughput when half the pool drops out.
        pressure_gain: 0.4,
        resilience,
        ssim_sample: ctx.knobs.ssim_sample,
        ..ServeConfig::default()
    }
}

struct Arm {
    scenario: Scenario,
    on: ServeReport,
    off: ServeReport,
}

/// Every job is delivered, shed or failed, and the session log passes the
/// JSONL schema with one line per submitted job.
fn check_session(report: &ServeReport, label: &str) -> Report {
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

/// Every scenario at 1.5× load: under the correlated half-pool outage the
/// resilience stack (retries, hedged dispatch, circuit breakers,
/// brownout) must strictly lower the contract-violation rate versus the
/// resilience-off control while holding mean delivered SSIM at or above
/// 0.9.
pub(super) fn serve_chaos(ctx: &Ctx, out: &mut String) -> Report {
    writeln!(
        out,
        "CHAOS: every scenario at 1.5x load, resilience on vs off"
    )?;

    let mut arms = Vec::new();
    for scenario in Scenario::ALL {
        let on = session(&chaos_cfg(ctx, scenario, true))?;
        let off = session(&chaos_cfg(ctx, scenario, false))?;
        check_session(&on, scenario.label())?;
        check_session(&off, &format!("{} (control)", scenario.label()))?;
        arms.push(Arm { scenario, on, off });
    }

    writeln!(
        out,
        "\n{:<18} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "scenario", "viol(on)", "viol(off)", "ssim(on)", "retries", "hedges", "opens"
    )?;
    for a in &arms {
        writeln!(
            out,
            "{:<18} {:>10.4} {:>10.4} {:>10.4} {:>8} {:>8} {:>8}",
            a.scenario.label(),
            a.on.stats.violation_rate(),
            a.off.stats.violation_rate(),
            a.on.stats.mean_ssim(),
            a.on.stats.retries,
            a.on.stats.hedges,
            a.on.stats.breaker_opens,
        )?;
    }

    let headline = arms
        .iter()
        .find(|a| a.scenario == Scenario::HalfPoolOutage)
        .ok_or("half-pool arm missing")?;
    let resilience_wins = headline.on.stats.violation_rate() < headline.off.stats.violation_rate();
    let quality_holds = headline.on.stats.mean_ssim() >= 0.9;
    writeln!(
        out,
        "\nhalf-pool outage: resilience strictly lowers violation rate: {resilience_wins}; \
         mean SSIM >= 0.9: {quality_holds}"
    )?;

    let mut rows = String::new();
    for (i, a) in arms.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "    {{\"scenario\": \"{}\", \"resilient\": {}, \"control\": {}}}",
            a.scenario.label(),
            stats_json(&a.on),
            stats_json(&a.off),
        )?;
    }
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"load\": 1.5,\n  \
         \"resilience_wins_half_pool\": {resilience_wins},\n  \
         \"half_pool_mean_ssim_holds\": {quality_holds},\n  \"scenarios\": [\n{rows}\n  ]\n}}\n"
    );
    record(out, "BENCH_chaos.json", json)?;

    if !(resilience_wins && quality_holds) {
        return Err("chaos acceptance criteria not met".into());
    }
    Ok(())
}
