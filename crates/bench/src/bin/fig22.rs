//! Fig. 22: user satisfaction over thresholds, via the vsync replay and the
//! synthetic satisfaction model (the documented stand-in for the paper's
//! 30-participant study — see DESIGN.md §2 and `patu_sim::satisfaction`).

use patu_bench::{paper_note, Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_obs::Log2Histogram;
use patu_scenes::Workload;
use patu_sim::render::render_frame;
use patu_sim::replay::ReplayModel;
use patu_sim::satisfaction::SatisfactionModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "FIG. 22: user satisfaction vs threshold ({})",
        opts.profile_banner()
    );
    println!("(synthetic satisfaction model — Fig. 22 substitution, DESIGN.md §2)\n");

    let thresholds = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    // The synthetic raters' visibility knee is placed where *this*
    // simulator's MSSIM actually varies (our quality scale is compressed
    // relative to the paper's commercial-content scale; see EXPERIMENTS.md).
    let rater = SatisfactionModel {
        quality_knee: 0.995,
        quality_power: 8,
        ..SatisfactionModel::default()
    };
    let ssim = knobs.ssim();
    let frame_count = opts.frames.max(3);

    let cases: Vec<(&str, (u32, u32))> = vec![
        ("doom3", if opts.full { (1280, 1024) } else { (640, 512) }),
        ("doom3", if opts.full { (640, 480) } else { (320, 240) }),
        ("hl2", if opts.full { (1280, 1024) } else { (640, 512) }),
        ("hl2", if opts.full { (640, 480) } else { (320, 240) }),
    ];

    for (game, res) in cases {
        let workload = Workload::build(game, res)?;
        let frames: Vec<u32> = (0..frame_count).map(|i| i * 80).collect();
        let baselines: Vec<_> = frames
            .iter()
            .map(|&f| render_frame(&workload, f, &knobs.render(FilterPolicy::Baseline)))
            .collect::<Result<_, _>>()?;

        // Display normalization: scale the replay clock so the 16xAF
        // baseline lands in the paper's 33-58 fps band (the simulator's
        // absolute cycle counts are not ATTILA's; the *relative* frame
        // times across thresholds are what the study ranks).
        let mean_base_cycles =
            baselines.iter().map(|r| r.stats.cycles).sum::<u64>() / baselines.len() as u64;
        let clock = mean_base_cycles as f64 * 33.0;
        let replay = ReplayModel {
            gpu_frequency_hz: clock,
            cpu_latency_cycles: (clock / 120.0) as u64,
            ..ReplayModel::default()
        };

        println!("{game} @ {}x{}:", res.0, res.1);
        println!(
            "{:>9} {:>8} {:>8} {:>12} {:>9} {:>7} {:>7} {:>7}",
            "threshold", "fps", "MSSIM", "satisfaction", "lat mean", "p50", "p95", "p99"
        );
        let mut best = (0.0, f64::MIN);
        for &t in &thresholds {
            let policy = if t >= 1.0 {
                FilterPolicy::Baseline
            } else if t <= 0.0 {
                FilterPolicy::NoAf
            } else {
                FilterPolicy::Patu { threshold: t }
            };
            let mut cycles = Vec::new();
            let mut mssim_sum = 0.0;
            let mut latency = Log2Histogram::new();
            for (i, &f) in frames.iter().enumerate() {
                let r = if matches!(policy, FilterPolicy::Baseline) {
                    baselines[i].clone()
                } else {
                    render_frame(&workload, f, &knobs.render(policy))?
                };
                mssim_sum += if matches!(policy, FilterPolicy::Baseline) {
                    1.0
                } else {
                    f64::from(ssim.mssim(&baselines[i].luma(), &r.luma()))
                };
                latency.accumulate(&r.stats.filter_latency_hist);
                cycles.push(r.stats.cycles);
            }
            let mssim = mssim_sum / frames.len() as f64;
            // Smooth fps (capped at the refresh rate); the short uniform
            // replay quantizes too coarsely under strict vsync, so vsync is
            // used for stall accounting only.
            let mean_cycles = cycles.iter().sum::<u64>() as f64 / cycles.len() as f64;
            let fps = (replay.gpu_frequency_hz / mean_cycles).min(replay.refresh_hz);
            let _ = replay.replay(&cycles);
            let score = rater.score(mssim, fps, u64::from(res.0) * u64::from(res.1));
            println!(
                "{:>9.1} {:>8.1} {:>8.3} {:>12.2} {:>9.1} {:>7} {:>7} {:>7}",
                t,
                fps,
                mssim,
                score,
                latency.mean(),
                latency.p50(),
                latency.p95(),
                latency.p99()
            );
            if score > best.1 {
                best = (t, score);
            }
        }
        println!("  preferred threshold: {:.1}\n", best.0);
    }

    paper_note(
        "Fig. 22",
        "PATU's intermediate thresholds outscore both AF-on (θ=1) and AF-off (θ=0); \
         high-resolution users prefer smaller thresholds (e.g. 0.2 for doom3-1280x1024), \
         low-resolution users prefer larger ones (0.8)",
    );
    Ok(())
}
