//! Load sweep over the frame-serving subsystem: offered load vs.
//! throughput, deadline-miss rate and mean delivered SSIM, with the
//! quality governor on and off at every point.
//!
//! The sweep demonstrates the serving tentpole's claims on a fixed seed:
//! under overload (load ≥ 2×) the governor strictly lowers the
//! deadline-miss rate versus the ungoverned control while holding mean
//! delivered SSIM at or above 0.9, and the whole session is bit-identical
//! between `threads = 1` and `threads = 4`. Results land in
//! `BENCH_serve.json` at the repository root.

use patu_bench::{micro, Knobs};
use patu_obs::json::num_fixed;
use patu_serve::{run_session, ServeConfig, ServeReport, SimFrameService};
use patu_temporal::TemporalConfig;

const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

fn cfg(knobs: &Knobs, load: f64, governor: bool, threads: usize) -> ServeConfig {
    ServeConfig {
        seed: 42,
        clients: 6,
        jobs_per_client: 6,
        load,
        governor,
        threads: Some(threads),
        scenario: knobs.scenario,
        ssim_sample: knobs.ssim_sample,
        ..ServeConfig::default()
    }
}

fn run(knobs: &Knobs, cfg: &ServeConfig) -> Result<ServeReport, Box<dyn std::error::Error>> {
    let temporal = TemporalConfig::for_mode(knobs.temporal);
    let mut service = SimFrameService::with_temporal(cfg, temporal)?;
    Ok(run_session(cfg, &mut service)?)
}

struct Point {
    load: f64,
    governed: ServeReport,
    ungoverned: ServeReport,
    bit_identical: bool,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    patu_bench::no_args()?;
    println!("SERVE: load sweep, governor on vs off (fixed seed, 2 GPUs)");

    let mut points = Vec::new();
    for load in LOADS {
        let governed = run(&knobs, &cfg(&knobs, load, true, 1))?;
        let wide = run(&knobs, &cfg(&knobs, load, true, 4))?;
        let ungoverned = run(&knobs, &cfg(&knobs, load, false, 1))?;
        let bit_identical = governed.log == wide.log
            && governed.chrome_trace() == wide.chrome_trace()
            && governed
                .completed
                .iter()
                .zip(&wide.completed)
                .all(|(a, b)| a.image_hash == b.image_hash);
        points.push(Point {
            load,
            governed,
            ungoverned,
            bit_identical,
        });
    }

    println!(
        "\n{:<6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "load", "thrpt/Mcyc", "miss(gov)", "miss(off)", "ssim(gov)", "shed", "1==4"
    );
    for p in &points {
        println!(
            "{:<6} {:>12.3} {:>12.4} {:>12.4} {:>12.4} {:>10} {:>8}",
            p.load,
            p.governed.stats.throughput(),
            p.governed.stats.miss_rate(),
            p.ungoverned.stats.miss_rate(),
            p.governed.stats.mean_ssim(),
            p.governed.stats.shed,
            p.bit_identical,
        );
    }

    let overload: Vec<&Point> = points.iter().filter(|p| p.load >= 2.0).collect();
    let governor_wins = !overload.is_empty()
        && overload
            .iter()
            .all(|p| p.governed.stats.miss_rate() < p.ungoverned.stats.miss_rate());
    let quality_holds = overload.iter().all(|p| p.governed.stats.mean_ssim() >= 0.9);
    let all_bit_identical = points.iter().all(|p| p.bit_identical);
    println!(
        "\ngovernor strictly lowers overload miss rate: {governor_wins}; \
         overload mean SSIM >= 0.9: {quality_holds}; \
         threads 1 vs 4 bit-identical: {all_bit_identical}"
    );

    if let Some(worst) = overload.last() {
        println!("\nper-tier latency at load {}x (governed):", worst.load);
        println!("{}", worst.governed.table());
    }

    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"load\": {}, \"bit_identical\": {}, \
             \"governed\": {{\"throughput_per_mcycle\": {}, \"miss_rate\": {}, \
             \"mean_ssim\": {}, \"shed\": {}, \"degrades\": {}}}, \
             \"ungoverned\": {{\"throughput_per_mcycle\": {}, \"miss_rate\": {}, \
             \"mean_ssim\": {}, \"shed\": {}, \"degrades\": {}}}}}",
            num_fixed(p.load, 2),
            p.bit_identical,
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
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"governor_wins_at_overload\": {governor_wins},\n  \
         \"overload_mean_ssim_holds\": {quality_holds},\n  \
         \"outputs_bit_identical\": {all_bit_identical},\n  \"points\": [\n{rows}\n  ]\n}}\n"
    );
    let path = micro::repo_root().join("BENCH_serve.json");
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());

    if !(governor_wins && quality_holds && all_bit_identical) {
        return Err("serve acceptance criteria not met".into());
    }
    Ok(())
}
