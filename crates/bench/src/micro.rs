//! A minimal wall-clock micro-benchmark harness.
//!
//! The `benches/` targets (declared `harness = false`) time the core data
//! structures with `std::time::Instant` and an adaptive iteration count —
//! no external benchmarking crate, so `cargo bench` works in the same
//! offline environment as the rest of the workspace. Each measurement
//! takes [`SAMPLES`] timed samples and reports median/p10/p90 ns/iter;
//! [`Group::write_json`] persists the group's results as
//! `BENCH_<name>.json` at the repository root for cross-run comparison
//! (see `scripts/bench.sh`).

// The one sanctioned wall-clock module (patu-lint `wall-clock`): everything
// else times through `timed` or the harness.

use patu_obs::json::num_fixed;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times `f` once and returns its result plus the elapsed wall time in
/// milliseconds.
///
/// This is the only sanctioned wall-clock entry point outside the bench
/// harness itself: simulator code runs on deterministic cycles, so
/// `patu-lint`'s `wall-clock` rule bans `Instant`/`SystemTime` everywhere
/// but this module, and bench binaries measure through here.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Minimum measured wall time per calibration pass before sampling starts.
const TARGET: Duration = Duration::from_millis(20);

/// Iteration-count ceiling, so ~ns-scale bodies still terminate quickly.
const MAX_ITERS: u64 = 1 << 22;

/// Timed samples per benchmark; quantiles come from this set.
pub const SAMPLES: usize = 9;

/// One benchmark's summarized measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/label` identifier.
    pub label: String,
    /// Median ns per iteration over the samples.
    pub median_ns: f64,
    /// 10th-percentile ns per iteration (fast tail).
    pub p10_ns: f64,
    /// 90th-percentile ns per iteration (slow tail).
    pub p90_ns: f64,
    /// Iterations per sample after calibration.
    pub iters: u64,
}

/// A named group of related micro-benchmarks (mirrors the criterion-style
/// `group/label` naming the bench targets previously used). Collects every
/// measurement so the bench binary can persist them with
/// [`Group::write_json`].
pub struct Group {
    name: String,
    results: Vec<BenchResult>,
}

/// Starts a benchmark group and prints its header.
pub fn group(name: &str) -> Group {
    println!("[{name}]");
    Group {
        name: name.to_string(),
        results: Vec::new(),
    }
}

/// Sorted-sample quantile (nearest-rank on the sorted slice).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

impl Group {
    fn record(&mut self, label: &str, per_iter_ns: &mut [f64], iters: u64) {
        per_iter_ns.sort_by(f64::total_cmp);
        let result = BenchResult {
            label: format!("{}/{label}", self.name),
            median_ns: quantile(per_iter_ns, 0.5),
            p10_ns: quantile(per_iter_ns, 0.1),
            p90_ns: quantile(per_iter_ns, 0.9),
            iters,
        };
        println!(
            "  {:<32} {:>14.1} ns/iter  [p10 {:>12.1}, p90 {:>12.1}]  ({iters} iters)",
            result.label, result.median_ns, result.p10_ns, result.p90_ns
        );
        self.results.push(result);
    }

    /// Times `f`: calibrates an iteration count in a doubling loop until a
    /// pass takes [`TARGET`] wall time (capped at [`MAX_ITERS`]), then
    /// takes [`SAMPLES`] timed samples and records median/p10/p90 ns/iter.
    /// The result is passed through `black_box` so the optimizer cannot
    /// delete the body.
    pub fn bench<T>(&mut self, label: &str, f: impl FnMut() -> T) {
        self.measure(label, Body::looped(f));
    }

    /// Like [`Group::bench`] but re-creates fresh state with `setup` before
    /// every iteration and excludes the setup cost from the measurement
    /// (the replacement for criterion's `iter_batched`).
    pub fn bench_batched<S, T>(
        &mut self,
        label: &str,
        setup: impl FnMut() -> S,
        f: impl FnMut(S) -> T,
    ) {
        self.bench_batched_scaled(label, 1, setup, f);
    }

    /// Like [`Group::bench_batched`] but the measured body processes
    /// `lanes` homogeneous work items per call; recorded quantiles are
    /// normalized to ns per *item*, so batched rows stay directly
    /// comparable with their single-item counterparts.
    pub fn bench_batched_scaled<S, T>(
        &mut self,
        label: &str,
        lanes: u64,
        setup: impl FnMut() -> S,
        f: impl FnMut(S) -> T,
    ) {
        self.measure(label, Body::batched(lanes, setup, f));
    }

    fn measure(&mut self, label: &str, mut body: Body<'_>) {
        let iters = body.calibrate();
        let mut samples = [0.0f64; SAMPLES];
        for sample in &mut samples {
            *sample = body.ns_per_item(iters);
        }
        self.record(label, &mut samples, iters);
    }

    /// The measurements collected so far, in bench order (used by the CI
    /// smoke gate to compare fresh ratios against recorded baselines).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serializes the collected results as a JSON object (hand-rolled — the
    /// workspace has no serde). Quantiles route through
    /// [`patu_obs::json::num_fixed`], the single null-safe float formatter,
    /// so a degenerate sample can never write `inf`/`NaN` into the artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"group\": \"{}\",\n", self.name));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"median_ns\": {}, \"p10_ns\": {}, \
                 \"p90_ns\": {}, \"iters\": {}}}{}\n",
                r.label,
                num_fixed(r.median_ns, 1),
                num_fixed(r.p10_ns, 1),
                num_fixed(r.p90_ns, 1),
                r.iters,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<group>.json` at the repository root. Errors are
    /// reported on stderr, not fatal — the printed table already happened.
    pub fn write_json(&self) {
        let path = repo_root().join(format!("BENCH_{}.json", self.name.replace(['/', ' '], "_")));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("  wrote {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
}

/// A timed body: runs a given number of iterations and reports their wall
/// time, with the number of work items one iteration processes.
pub struct Body<'a> {
    run: Box<dyn FnMut(u64) -> Duration + 'a>,
    items: u64,
}

impl<'a> Body<'a> {
    /// `f` called back to back, one item per call.
    pub fn looped<T>(mut f: impl FnMut() -> T + 'a) -> Body<'a> {
        Body {
            run: Box::new(move |iters| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed()
            }),
            items: 1,
        }
    }

    /// `f` on fresh state from `setup` per call, `items` work items per
    /// call; only `f` is timed.
    pub fn batched<S, T>(
        items: u64,
        mut setup: impl FnMut() -> S + 'a,
        mut f: impl FnMut(S) -> T + 'a,
    ) -> Body<'a> {
        Body {
            run: Box::new(move |iters| {
                let mut elapsed = Duration::ZERO;
                for _ in 0..iters {
                    let state = setup();
                    let start = Instant::now();
                    black_box(f(state));
                    elapsed += start.elapsed();
                }
                elapsed
            }),
            items: items.max(1),
        }
    }

    /// Warms the body up, then doubles the iteration count until one pass
    /// takes [`TARGET`] wall time (capped at [`MAX_ITERS`]).
    fn calibrate(&mut self) -> u64 {
        (self.run)(3);
        let mut iters = 1u64;
        while (self.run)(iters) < TARGET && iters < MAX_ITERS {
            iters *= 2;
        }
        iters
    }

    /// One timed sample of `iters` iterations, in ns per item.
    fn ns_per_item(&mut self, iters: u64) -> f64 {
        (self.run)(iters).as_nanos() as f64 / (iters * self.items) as f64
    }
}

/// The per-item time of `fast` over that of `slow`, as the median of
/// `samples` per-sample ratios (at least one). Each body calibrates its own
/// iteration count; each sample then times both back to back, so load that
/// comes and goes on the host slows both sides of a ratio instead of one.
pub fn interleaved_ratio(samples: usize, mut fast: Body<'_>, mut slow: Body<'_>) -> f64 {
    let (fast_iters, slow_iters) = (fast.calibrate(), slow.calibrate());
    let mut ratios: Vec<f64> = (0..samples.max(1))
        .map(|_| fast.ns_per_item(fast_iters) / slow.ns_per_item(slow_iters))
        .collect();
    ratios.sort_by(f64::total_cmp);
    quantile(&ratios, 0.5)
}

/// The workspace root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_terminates() {
        let mut g = group("micro-selftest");
        let mut calls = 0u64;
        g.bench("counter", || {
            calls += 1;
            calls
        });
        assert!(calls > 0);
        let r = &g.results[0];
        assert_eq!(r.label, "micro-selftest/counter");
        assert!(
            r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns,
            "quantiles ordered"
        );
        assert!(r.iters >= 1);
    }

    #[test]
    fn batched_runs_setup_per_iteration() {
        let mut g = group("micro-selftest");
        let mut setups = 0u64;
        let mut bodies = 0u64;
        g.bench_batched(
            "pairs",
            || {
                setups += 1;
                setups
            },
            |s| {
                bodies += 1;
                // Body cost dwarfs the timer granularity so this finishes fast.
                std::thread::sleep(Duration::from_micros(200));
                s
            },
        );
        assert_eq!(setups, bodies, "one setup per measured body");
        assert!(bodies >= 4, "at least warmup plus one measured iteration");
    }

    #[test]
    fn interleaved_ratio_compares_per_item_time() {
        // The same body at 1 and at 4 items per call: a quarter the time
        // per item.
        let spin = || {
            let mut x = 0u64;
            for i in 0..2_000u64 {
                x = black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            x
        };
        let ratio = interleaved_ratio(
            SAMPLES,
            Body::batched(4, || (), |()| spin()),
            Body::looped(spin),
        );
        assert!(ratio > 0.1 && ratio < 0.6, "ratio {ratio}");
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let mut g = group("micro-selftest");
        g.bench("noop", || 1u32);
        let json = g.to_json();
        assert!(json.contains("\"group\": \"micro-selftest\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn quantiles_pick_sorted_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.1), 2.0);
        assert_eq!(quantile(&sorted, 0.9), 8.0);
    }
}
