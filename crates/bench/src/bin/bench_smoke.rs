//! CI bench smoke gate: re-measures the two tentpole perf pairs — the
//! batched SoA kernel vs. the scalar filter path, and the sampled MSSIM
//! estimator vs. the full scan — and hard-fails (exit 1) when either
//! *ratio* regresses more than 10% against the recorded `BENCH_*.json`
//! baselines at the repository root.
//!
//! Ratios, not absolute nanoseconds: CI machines differ in clock speed, but
//! fast-path / slow-path quotients measured on the same machine in the same
//! process are stable. Each sample of a pair times both kernels back to
//! back and the gate reads the median per-sample ratio
//! ([`micro::interleaved_ratio`]), so host load that comes and goes slows
//! both sides of a ratio together. Each pair gets up to [`ATTEMPTS`]
//! measurements and passes on the first one under its limit — a genuine
//! regression fails every attempt, while scheduler noise does not repeat. The gate also
//! enforces the absolute design floors regardless of what the baselines
//! recorded: batched ≤ 0.5× scalar (≥ 2× speedup) and sampled ≤ 0.75× full
//! (the estimator stays clearly cheaper than the streamed full scan).

use patu_bench::micro::{self, Body};
use patu_core::{FilterPolicy, PerceptionAwareTextureUnit, SoaBatch};
use patu_gmath::Vec2;
use patu_obs::json::{self, Json};
use patu_quality::{GrayImage, SampledSsimConfig, SsimConfig};
use patu_texture::{procedural, AddressMode, Footprint, Texture};
use std::hint::black_box;
use std::process::ExitCode;

/// Maximum allowed ratio regression against the recorded baseline ratio.
const SLACK: f64 = 1.10;

/// Absolute ratio headroom on top of [`SLACK`]. At small baseline ratios
/// (the filtering pair records ~0.3) a pure relative bound sits close to
/// timer granularity; one extra percentage point keeps the gate meaningful
/// without tripping on quantization.
const ABS_MARGIN: f64 = 0.01;

/// Measurement attempts per pair before declaring a regression.
const ATTEMPTS: usize = 3;

/// Interleaved samples behind one SSIM ratio. A median of nine samples
/// shifted with host load from one attempt to the next; 31 samples hold
/// the ratio steady against its limit (DESIGN.md §13). The filtering pair
/// keeps [`micro::SAMPLES`], the count every recorded `BENCH_*.json` uses.
const SSIM_SAMPLES: usize = 31;

fn gradient(size: u32, phase: u32) -> GrayImage {
    let data = (0..size)
        .flat_map(|y| (0..size).map(move |x| ((x * 7 + y * 13 + phase) % 256) as f32))
        .collect();
    GrayImage::new(size, size, data)
}

/// The `median_ns` of `label` in a recorded `BENCH_*.json` artifact.
fn recorded_median(text: &str, label: &str) -> Option<f64> {
    json::parse(text)
        .ok()?
        .get("results")?
        .as_arr()?
        .iter()
        .find(|row| row.get("label").and_then(Json::as_str) == Some(label))?
        .get("median_ns")?
        .as_num()
}

/// One fresh measurement of the filtering pair: batched over scalar time
/// per lane.
fn filtering_ratio() -> f64 {
    let tex = Texture::with_mips(procedural::composite(512, 512, 0xBE), 0);
    let uv = Vec2::new(0.37, 0.61);
    let fp = Footprint::from_derivatives(
        Vec2::new(8.0 / 512.0, 0.0),
        Vec2::new(0.0, 1.0 / 512.0),
        512,
        512,
        16,
    );
    let policy = FilterPolicy::Patu { threshold: 0.4 };
    let scalar = Body::batched(
        1,
        || PerceptionAwareTextureUnit::new(policy),
        |mut unit| unit.filter(&tex, black_box(uv), &fp, AddressMode::Wrap),
    );
    const LANES: usize = 64;
    let batched = Body::batched(
        LANES as u64,
        || {
            let unit = PerceptionAwareTextureUnit::new(policy);
            let mut batch = SoaBatch::new();
            for i in 0..LANES {
                let (x, y) = (i as u32 % 8, i as u32 / 8);
                batch.push(
                    x,
                    y,
                    uv,
                    Vec2::new(8.0 / 512.0, 0.0),
                    Vec2::new(0.0, 1.0 / 512.0),
                );
            }
            (unit, batch)
        },
        |(mut unit, mut batch)| {
            unit.filter_batch(&tex, AddressMode::Wrap, 16, &mut batch, |_| policy);
            black_box(batch.color(LANES - 1))
        },
    );
    micro::interleaved_ratio(micro::SAMPLES, batched, scalar)
}

/// One fresh measurement of the SSIM pair: sampled over full scan time.
fn ssim_ratio() -> f64 {
    let a = gradient(512, 0);
    let b = gradient(512, 11);
    let full = Body::looped(|| {
        SsimConfig::default()
            .with_threads(1)
            .mssim(black_box(&a), black_box(&b))
    });
    let sampled =
        SampledSsimConfig::new(0x55A9).with_fraction(patu_quality::sampled::DEFAULT_FRACTION);
    let sampled = Body::looped(|| sampled.mssim_sampled(black_box(&a), black_box(&b)));
    micro::interleaved_ratio(SSIM_SAMPLES, sampled, full)
}

/// Retries `measure` up to [`ATTEMPTS`] times; passes on the first ratio
/// under both the regression limit and the absolute floor, and otherwise
/// reports every attempt's ratio and the lowest one.
fn gate(name: &str, recorded_ratio: f64, floor: f64, measure: impl Fn() -> f64) -> bool {
    let limit = recorded_ratio * SLACK + ABS_MARGIN;
    let mut ratios = Vec::with_capacity(ATTEMPTS);
    let mut best = f64::INFINITY;
    for attempt in 1..=ATTEMPTS {
        let ratio = measure();
        ratios.push(format!("{ratio:.3}"));
        best = best.min(ratio);
        if ratio <= limit && ratio <= floor {
            println!(
                "bench_smoke PASS {name}: ratio {ratio:.3} \
                 (recorded {recorded_ratio:.3}, limit {limit:.3}, floor {floor:.3})"
            );
            return true;
        }
        println!(
            "bench_smoke retry {name}: attempt {attempt} ratio {ratio:.3} over \
             limit {limit:.3} or floor {floor:.3}"
        );
    }
    eprintln!(
        "bench_smoke FAIL {name}: ratios {}, best {best:.3} \
         (recorded {recorded_ratio:.3}, limit {limit:.3}, floor {floor:.3})",
        ratios.join(", ")
    );
    false
}

fn main() -> ExitCode {
    // No knob changes what this gate measures: its kernels pin their own
    // thread counts and sample fractions. Malformed knobs still fail.
    if let Err(e) = patu_bench::Knobs::from_env() {
        eprintln!("bench_smoke: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = patu_bench::no_args() {
        eprintln!("bench_smoke: {e}");
        return ExitCode::FAILURE;
    }
    let root = micro::repo_root();
    let filtering = std::fs::read_to_string(root.join("BENCH_filtering.json"));
    let ssim = std::fs::read_to_string(root.join("BENCH_ssim.json"));
    let (Ok(filtering), Ok(ssim)) = (filtering, ssim) else {
        eprintln!("bench_smoke: missing recorded BENCH_filtering.json / BENCH_ssim.json");
        eprintln!("bench_smoke: run scripts/bench.sh once to record baselines");
        return ExitCode::FAILURE;
    };
    let recorded = |json: &str, label: &str| -> f64 {
        recorded_median(json, label).unwrap_or_else(|| {
            eprintln!("bench_smoke: recorded baseline lacks {label}");
            std::process::exit(1);
        })
    };

    let filtering_recorded = recorded(&filtering, "filtering/patu_batched_n8")
        / recorded(&filtering, "filtering/patu_decide_and_filter_n8");
    let ssim_recorded =
        recorded(&ssim, "ssim/sampled_512x512") / recorded(&ssim, "ssim/mssim_512x512");

    let mut ok = gate(
        "filtering batched/scalar",
        filtering_recorded,
        0.5,
        filtering_ratio,
    );
    ok &= gate("ssim sampled/full", ssim_recorded, 0.75, ssim_ratio);

    if ok {
        println!("bench_smoke: all perf gates hold");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
