//! The host-time ledger: spans recorded around the calls into each crate,
//! the metric catalog both run modes print from, and the order statistics
//! the metrics are reduced with.
//!
//! A span is timed from outside the callee through
//! [`patu_bench::micro::timed`], the only clock the workspace's
//! `wall-clock` rule allows. Layer spans aggregate: one span per layer per
//! replayed frame accumulates every call into that layer during the frame
//! (`calls` counts them), so the trace stays a few thousand lines while
//! still covering every call. A span's self time is its duration minus the
//! durations of its direct children.

use patu_bench::micro::timed;
use patu_obs::json::{escape, num};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or phase name (`raster.run`, `core.filter`, ...).
    pub name: String,
    /// Parent span id (ids start at 1; 0 means no parent).
    pub parent: usize,
    /// Accumulated wall time, milliseconds.
    pub ms: f64,
    /// Timed calls folded into this span.
    pub calls: u64,
}

/// Spans in creation order; a span's id is its index plus one.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    spans: Vec<Span>,
}

impl Ledger {
    /// Opens an empty span under `parent` (0 for a root) and returns its id.
    pub fn span(&mut self, name: &str, parent: usize) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            ms: 0.0,
            calls: 0,
        });
        self.spans.len()
    }

    /// Folds one timed call of `ms` milliseconds into span `id`.
    pub fn add(&mut self, id: usize, ms: f64) {
        let span = &mut self.spans[id - 1];
        span.ms += ms;
        span.calls += 1;
    }

    /// Opens a span under `parent` holding one call of `ms` milliseconds.
    pub fn record(&mut self, name: &str, parent: usize, ms: f64) -> usize {
        let id = self.span(name, parent);
        self.add(id, ms);
        id
    }

    /// Times `f`, which may record child spans, as one call of span `id`.
    pub fn time<T>(&mut self, id: usize, f: impl FnOnce(&mut Ledger) -> T) -> T {
        let (value, ms) = timed(|| f(self));
        self.add(id, ms);
        value
    }

    /// Span `id`.
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id - 1]
    }

    /// Total milliseconds of the direct children of span `id`.
    pub fn children_ms(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == id)
            .fold(0.0, |sum, s| sum + s.ms)
    }

    /// Milliseconds summed over every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).fold(0.0, |sum, s| sum + s.ms)
    }

    /// Calls summed over every span called `name`.
    pub fn total_calls(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.calls).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as JSON lines: id, name, parent, calls, duration and self
    /// time (both milliseconds).
    pub fn to_jsonl(&self) -> String {
        let mut children = vec![0.0f64; self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent] += s.ms;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\": {}, \"name\": \"{}\", \"parent\": {}, \"calls\": {}, \"ms\": {}, \"self_ms\": {}}}\n",
                i + 1,
                escape(&s.name),
                s.parent,
                s.calls,
                num(s.ms),
                num(s.ms - children[i + 1]),
            ));
        }
        out
    }

    /// Writes [`Ledger::to_jsonl`] to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl().as_bytes())?;
        file.sync_all()
    }
}

/// The end-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_speedup", "x"),
    ("sim_mssim", "ssim"),
];

/// The per-layer metrics every traced run prints, `(name, unit)`, except
/// the per-scenario serve counters of [`scenario_metrics`].
const LAYERS: [(&str, &str); 49] = [
    ("scenes.frame_ms", "ms"),
    ("raster.run_ms", "ms"),
    ("raster.ns_per_fragment", "ns"),
    ("raster.triangles", "count"),
    ("raster.fragments", "count"),
    ("raster.shade_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.lanes", "count"),
    ("core.ns_per_lane.baseline", "ns"),
    ("core.ns_per_lane.sample_area", "ns"),
    ("core.ns_per_lane.sample_area_txds", "ns"),
    ("core.ns_per_lane.patu", "ns"),
    ("core.taps_per_lane.baseline", "taps"),
    ("core.taps_per_lane.patu", "taps"),
    ("core.demoted_frac.patu", "fraction"),
    ("gpu.mem_ms", "ms"),
    ("gpu.ns_per_fetch", "ns"),
    ("gpu.texel_fetches", "count"),
    ("gpu.l1_hit_rate", "fraction"),
    ("gpu.l2_hit_rate", "fraction"),
    ("sim.shard_setup_ms", "ms"),
    ("sim.merge_ms", "ms"),
    ("sim.render_frame_p50_ms", "ms"),
    ("sim.render_frame_p90_ms", "ms"),
    ("sim.seq_frame_p50_ms", "ms"),
    ("sim.seq_frame_p90_ms", "ms"),
    ("sim.residual_frac", "fraction"),
    ("sim.replay_exact", "fraction"),
    ("sim.energy_ratio", "ratio"),
    ("sim.filter_latency_ratio", "ratio"),
    ("quality.mssim_ms_per_call", "ms"),
    ("quality.mssim_calls", "count"),
    ("quality.luma_ms", "ms"),
    ("obs.spans_overhead_frac", "fraction"),
    ("temporal.plan_ms_per_frame", "ms"),
    ("temporal.commit_ms_per_frame", "ms"),
    ("temporal.blit_ms", "ms"),
    ("temporal.reuse_frac.orbit", "fraction"),
    ("temporal.reuse_frac.dolly", "fraction"),
    ("temporal.speedup.orbit", "x"),
    ("temporal.speedup.dolly", "x"),
    ("serve.loop_ms", "ms"),
    ("serve.loop_us_per_job", "us"),
    ("serve.service_ms", "ms"),
    ("serve.service_calls", "count"),
    ("serve.cache_hit_rate", "fraction"),
    ("serve.violation_rate", "fraction"),
    ("serve.violation_rate_worst", "fraction"),
    ("serve.degrade_rate", "fraction"),
];

/// Per-scenario serve counters, suffixed `.<scenario label>`.
const SCENARIO: [(&str, &str); 7] = [
    ("serve.retries", "count"),
    ("serve.hedges", "count"),
    ("serve.hedge_wins", "count"),
    ("serve.breaker_opens", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.violation_rate", "fraction"),
];

/// `serve.<counter>.<scenario>` for every counter of [`SCENARIO`].
pub fn scenario_metrics(scenario: &str) -> impl Iterator<Item = (String, &'static str)> + '_ {
    SCENARIO
        .into_iter()
        .map(move |(name, unit)| (format!("{name}.{scenario}"), unit))
}

/// Every per-layer metric, `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYERS
        .into_iter()
        .map(|(name, unit)| (name.to_string(), unit))
        .collect();
    for scenario in patu_serve::Scenario::ALL {
        all.extend(scenario_metrics(scenario.label()));
    }
    all
}

/// Per-layer values of one traced run. Starts with every catalog metric
/// at 0, so a layer the workload never calls reads 0, and refuses names
/// outside the catalog.
#[derive(Debug, Clone)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Default for Layers {
    fn default() -> Layers {
        Layers {
            values: per_layer()
                .into_iter()
                .map(|(name, _)| (name, 0.0))
                .collect(),
        }
    }
}

impl Layers {
    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog — a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("per-layer metric `{name}` is not in the catalog"),
        }
    }

    /// Metric `name` (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Fills the `quality.*` metrics from the ledger.
pub fn record_quality_layers(layers: &mut Layers, ledger: &Ledger) {
    let calls = ledger.total_calls("quality.mssim");
    layers.set(
        "quality.mssim_ms_per_call",
        ratio(ledger.total_ms("quality.mssim"), calls as f64),
    );
    layers.set("quality.mssim_calls", calls as f64);
    layers.set("quality.luma_ms", ledger.total_ms("quality.luma"));
}

/// `part / whole`, or 0 when `whole` is 0 (a layer with no work).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values`: the mean of the two middle values for an even
/// count (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut ledger = Ledger::default();
        let root = ledger.record("render", 0, 10.0);
        let child = ledger.span("core.filter", root);
        ledger.add(child, 3.0);
        ledger.add(child, 1.0);
        ledger.record("gpu.process_flat", child, 2.5);
        let jsonl = ledger.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        let root_line = patu_obs::json::parse(lines[0]).unwrap();
        assert_eq!(root_line.get("self_ms").unwrap().as_num(), Some(6.0));
        let child_line = patu_obs::json::parse(lines[1]).unwrap();
        assert_eq!(child_line.get("calls").unwrap().as_num(), Some(2.0));
        assert_eq!(child_line.get("self_ms").unwrap().as_num(), Some(1.5));
        assert_eq!(ledger.total_ms("core.filter"), 4.0);
        assert_eq!(ledger.children_ms(root), 4.0);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.5), 5.0);
        assert_eq!(quantile(&ten, 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn catalog_names_are_unique_and_layers_refuse_strangers() {
        let all = per_layer();
        assert!(all.len() <= 128, "{} per-layer metrics", all.len());
        let unique: std::collections::BTreeSet<&String> = all.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), all.len());
        let mut layers = Layers::default();
        layers.set("serve.retries.calm", 3.0);
        assert_eq!(layers.get("serve.retries.calm"), 3.0);
        assert!(std::panic::catch_unwind(move || layers.set("nope", 1.0)).is_err());
    }
}
