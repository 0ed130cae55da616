//! Telemetry sinks: per-frame JSONL, Chrome Trace Event Format, and the
//! human-readable run report.
//!
//! All three render from the same merged [`FrameTelemetry`] in fixed field
//! and record order, so each artifact is byte-identical whenever the merged
//! telemetry is — which the collector discipline guarantees across thread
//! counts.

use crate::collect::FrameTelemetry;
use crate::json::{escape, num};
use crate::recorder::FlightDump;
use crate::report::Table;
use crate::span::{Event, EventKind, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn event_fields(frame: u32, e: &Event) -> String {
    let mut out = format!(
        "\"frame\":{frame},\"cycle\":{},\"cluster\":{},\"tile\":{},\"kind\":\"{}\"",
        e.cycle,
        e.cluster,
        e.tile,
        e.kind.label()
    );
    match e.kind {
        EventKind::Fault { site, count } => {
            let _ = write!(out, ",\"site\":\"{}\",\"count\":{count}", escape(site));
        }
        EventKind::Fallback { count } => {
            let _ = write!(out, ",\"count\":{count}");
        }
        EventKind::TileBegin | EventKind::TileEnd | EventKind::WatchdogTrip => {}
    }
    out
}

fn span_line(frame: u32, s: &Span) -> String {
    let mut line = format!(
        "{{\"type\":\"span\",\"frame\":{frame},\"name\":\"{}\",\"track\":\"{}\",\"tid\":{},\"start\":{},\"end\":{},\"dur\":{}",
        escape(s.name),
        s.track.name(),
        s.track.tid(),
        s.start,
        s.end,
        s.duration()
    );
    if !s.arg_name.is_empty() {
        let _ = write!(line, ",\"args\":{{\"{}\":{}}}", escape(s.arg_name), s.arg);
    }
    // Tree spans carry their causal links; flat (legacy) spans omit them so
    // pre-existing artifacts keep their exact shape.
    if s.id != 0 {
        let _ = write!(line, ",\"id\":{},\"parent\":{}", s.id, s.parent);
    }
    line.push('}');
    line
}

fn dump_line(d: &FlightDump) -> String {
    let mut line = format!(
        "{{\"type\":\"dump\",\"reason\":\"{}\",\"frame\":{},\"cluster\":{},\"tile\":{},\"cycle\":{},\"policy\":\"{}\",\"seed\":{},\"events\":[",
        escape(d.reason),
        d.frame,
        d.cluster,
        d.tile,
        d.cycle,
        escape(&d.policy),
        d.fault_seed
    );
    for (i, e) in d.events.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{{{}}}", event_fields(d.frame, e));
    }
    line.push_str("]}");
    line
}

/// Serializes one frame's telemetry as JSONL: a `frame` header line, then
/// counters, histograms, spans, flight-recorder events and dumps — each a
/// self-contained JSON object, in a fixed deterministic order.
pub fn jsonl_frame(t: &FrameTelemetry) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"frame\",\"frame\":{},\"policy\":\"{}\",\"seed\":{},\"level\":\"{}\"}}",
        t.frame,
        escape(&t.policy),
        t.fault_seed,
        t.level.name()
    );
    for (name, value) in &t.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"frame\":{},\"name\":\"{}\",\"value\":{value}}}",
            t.frame,
            escape(name)
        );
    }
    for (name, hist) in &t.hists {
        let mut line = format!(
            "{{\"type\":\"hist\",\"frame\":{},\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
            t.frame,
            escape(name),
            hist.count(),
            hist.sum(),
            hist.min(),
            hist.max(),
            num(hist.mean()),
            hist.p50(),
            hist.p95(),
            hist.p99()
        );
        for (i, (lo, count)) in hist.nonzero_buckets().into_iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "[{lo},{count}]");
        }
        line.push_str("]}");
        let _ = writeln!(out, "{line}");
    }
    if !t.attrib.is_empty() {
        let _ = writeln!(out, "{}", t.attrib.jsonl_line(t.frame));
    }
    for span in &t.spans {
        let _ = writeln!(out, "{}", span_line(t.frame, span));
    }
    for event in &t.events {
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",{}}}",
            event_fields(t.frame, event)
        );
    }
    for dump in &t.dumps {
        let _ = writeln!(out, "{}", dump_line(dump));
    }
    out
}

/// Serializes a run (several frames) as one JSONL stream, frame order
/// preserved.
pub fn jsonl(frames: &[FrameTelemetry]) -> String {
    frames.iter().map(jsonl_frame).collect()
}

/// Serializes spans as a Chrome Trace Event Format document: open the file
/// in `chrome://tracing` or <https://ui.perfetto.dev>. Each [`Track`]
/// becomes a named "thread"; timestamps are simulated cycles (the `ts`
/// unit, nominally microseconds, is irrelevant for relative inspection).
pub fn chrome_trace(frames: &[FrameTelemetry]) -> String {
    let mut tracks: BTreeMap<u32, String> = BTreeMap::new();
    // Tree-span index for causal flow arrows: id -> (tid, start cycle).
    let mut by_id: BTreeMap<u64, (u32, u64)> = BTreeMap::new();
    for t in frames {
        for span in &t.spans {
            tracks
                .entry(span.track.tid())
                .or_insert_with(|| span.track.name());
            if span.id != 0 {
                by_id
                    .entry(span.id)
                    .or_insert((span.track.tid(), span.start));
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, name) in &tracks {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    }
    for t in frames {
        for span in &t.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"sim\",\"args\":{{\"frame\":{}",
                span.track.tid(),
                span.start,
                span.duration(),
                escape(span.name),
                t.frame
            );
            if !span.arg_name.is_empty() {
                let _ = write!(out, ",\"{}\":{}", escape(span.arg_name), span.arg);
            }
            out.push_str("}}");
            // Nesting on one track is implied by ts/dur; a parent on a
            // *different* track gets an explicit flow arrow (start at the
            // parent, finish at the child's first cycle).
            if span.id != 0 && span.parent != 0 {
                if let Some(&(parent_tid, parent_start)) = by_id.get(&span.parent) {
                    if parent_tid != span.track.tid() {
                        let _ = write!(
                            out,
                            ",\n{{\"ph\":\"s\",\"pid\":0,\"tid\":{parent_tid},\"ts\":{parent_start},\"id\":{},\"name\":\"causal\",\"cat\":\"flow\"}}",
                            span.id
                        );
                        let _ = write!(
                            out,
                            ",\n{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{},\"name\":\"causal\",\"cat\":\"flow\"}}",
                            span.track.tid(),
                            span.start,
                            span.id
                        );
                    }
                }
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders a frame's human-readable report: stage-time tree, histogram
/// quantiles, counters, and any flight-recorder dumps.
pub fn report(t: &FrameTelemetry) -> String {
    let mut out = format!(
        "== telemetry: frame {} | policy {} | seed {} | level {} ==\n",
        t.frame,
        t.policy,
        t.fault_seed,
        t.level.name()
    );

    let stages = t.stage_totals();
    if !stages.is_empty() {
        out.push_str("\nstage-time tree (cycles are per-track sums; clusters overlap):\n");
        let mut table = Table::new(&["stage", "spans", "cycles"]);
        for (name, count, cycles) in stages {
            let depth = name.matches("::").count();
            let label = format!("{}{}", "  ".repeat(depth), name);
            table.row(&[label, count.to_string(), cycles.to_string()]);
        }
        out.push_str(&table.render());
    }

    if !t.attrib.is_empty() {
        let _ = write!(
            out,
            "\ncycle attribution (critical path; {} cycles conserved):\n",
            t.attrib.frame_total()
        );
        out.push_str(&t.attrib.table().render());
    }

    if !t.hists.is_empty() {
        out.push_str("\nhistograms (cycles / counts, log2 buckets):\n");
        let mut table = Table::new(&["name", "count", "mean", "p50", "p95", "p99", "max"]);
        for (name, h) in &t.hists {
            table.row(&[
                (*name).to_string(),
                h.count().to_string(),
                format!("{:.1}", h.mean()),
                h.p50().to_string(),
                h.p95().to_string(),
                h.p99().to_string(),
                h.max().to_string(),
            ]);
        }
        out.push_str(&table.render());
    }

    if !t.counters.is_empty() {
        out.push_str("\ncounters:\n");
        let mut table = Table::new(&["name", "value"]);
        for (name, value) in &t.counters {
            table.row(&[(*name).to_string(), value.to_string()]);
        }
        out.push_str(&table.render());
    }

    for dump in &t.dumps {
        out.push_str(&render_dump(dump));
    }
    out
}

/// Renders one flight-recorder dump as human-readable text.
pub fn render_dump(d: &FlightDump) -> String {
    let mut out = format!(
        "\n!! flight recorder: {} | frame {} tile {} cluster {} cycle {} | policy {} | fault seed {}\n",
        d.reason, d.frame, d.tile, d.cluster, d.cycle, d.policy, d.fault_seed
    );
    let mut table = Table::new(&["cycle", "cluster", "tile", "event"]);
    for e in &d.events {
        let what = match e.kind {
            EventKind::Fault { site, count } => format!("fault {site} x{count}"),
            EventKind::Fallback { count } => format!("fallback x{count}"),
            kind => kind.label().to_string(),
        };
        table.row(&[
            e.cycle.to_string(),
            e.cluster.to_string(),
            e.tile.to_string(),
            what,
        ]);
    }
    out.push_str(&table.render());
    out
}

/// Writes a run's artifacts into `dir` (created if missing): a combined
/// `<name>.jsonl` event stream and `<name>.trace.json` Chrome trace.
/// Returns the written paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifacts(
    dir: &Path,
    name: &str,
    frames: &[FrameTelemetry],
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let jsonl_path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&jsonl_path, jsonl(frames))?;
    let trace_path = dir.join(format!("{name}.trace.json"));
    std::fs::write(&trace_path, chrome_trace(frames))?;
    Ok(vec![jsonl_path, trace_path])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Collector;
    use crate::config::{TelemetryConfig, TraceLevel};
    use crate::json;
    use crate::span::Track;

    fn sample_frame() -> FrameTelemetry {
        let mut frame = FrameTelemetry::new(TraceLevel::Spans, 2, "Patu { t: 0.4 }".into(), 7);
        let mut c = Collector::new(
            TelemetryConfig::with_level(TraceLevel::Spans),
            Track::Cluster(0),
        );
        c.span_arg("raster::tile", 10, 50, "tile", 3);
        c.add("events::texel_fetches", 123);
        c.record("texture::filter_latency", 40);
        c.event(Event {
            cycle: 12,
            cluster: 0,
            tile: 3,
            kind: EventKind::TileBegin,
        });
        c.event(Event {
            cycle: 44,
            cluster: 0,
            tile: 3,
            kind: EventKind::Fault {
                site: "dram_stalls",
                count: 2,
            },
        });
        c.dump("fault_fallback", 50, 3);
        frame.absorb(c);
        frame
    }

    #[test]
    fn every_jsonl_line_parses() {
        let frame = sample_frame();
        let stream = jsonl(&[frame]);
        assert!(stream.lines().count() >= 5);
        for line in stream.lines() {
            json::parse(line).unwrap_or_else(|e| panic!("line {line:?}: {e}"));
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_thread_names() {
        let frame = sample_frame();
        let doc = chrome_trace(&[frame]);
        let parsed = json::parse(&doc).expect("valid trace json");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Json::as_arr)
            .unwrap();
        assert!(events.len() >= 2, "metadata + span");
        let metas: Vec<&json::Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 1, "one track in use");
        let spans: Vec<&json::Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans[0].get("dur").and_then(json::Json::as_num), Some(40.0));
    }

    #[test]
    fn report_names_the_offender() {
        let frame = sample_frame();
        let text = report(&frame);
        assert!(text.contains("fault_fallback"));
        assert!(text.contains("frame 2 tile 3 cluster 0"));
        assert!(text.contains("fault seed 7"));
        assert!(text.contains("raster::tile"));
        assert!(text.contains("texture::filter_latency"));
    }

    #[test]
    fn tree_spans_emit_ids_and_cross_track_flows() {
        use crate::attrib::{Attribution, Stage};
        let mut frame = FrameTelemetry::new(TraceLevel::Spans, 0, "Patu".into(), 0);
        let mut serve =
            Collector::new(TelemetryConfig::with_level(TraceLevel::Spans), Track::Serve);
        let job = serve.span_node("serve::job", 0, 500, 0, "job", 1);
        let mut cluster = Collector::new(
            TelemetryConfig::with_level(TraceLevel::Spans),
            Track::Cluster(0),
        );
        cluster.span_node("raster::tile", 100, 400, job, "tile", 0);
        frame.absorb(serve);
        frame.absorb(cluster);
        let mut attrib = Attribution::new();
        attrib.add(Stage::Setup, 100);
        attrib.add(Stage::Shade, 300);
        frame.attrib = attrib;

        let stream = jsonl_frame(&frame);
        let lines: Vec<&str> = stream.lines().collect();
        assert!(lines
            .iter()
            .any(|l| l.contains("\"type\":\"attrib\"") && l.contains("\"total\":400")));
        let tree_span = lines
            .iter()
            .find(|l| l.contains("raster::tile"))
            .expect("tree span serialized");
        assert!(tree_span.contains(&format!("\"parent\":{job}")));
        for line in &lines {
            json::parse(line).unwrap_or_else(|e| panic!("line {line:?}: {e}"));
        }

        let doc = chrome_trace(&[frame.clone()]);
        json::parse(&doc).expect("valid trace json");
        assert!(doc.contains("\"ph\":\"s\""), "flow start emitted");
        assert!(doc.contains("\"ph\":\"f\""), "flow finish emitted");

        let text = report(&frame);
        assert!(text.contains("cycle attribution"));
        assert!(text.contains("shade"));
    }

    #[test]
    fn flat_spans_carry_no_id_or_flow() {
        let frame = sample_frame();
        let stream = jsonl_frame(&frame);
        assert!(!stream.contains("\"id\":"), "legacy spans stay flat");
        let doc = chrome_trace(&[frame]);
        assert!(!doc.contains("\"cat\":\"flow\""));
    }

    #[test]
    fn empty_run_serializes_cleanly() {
        let frame = FrameTelemetry::new(TraceLevel::Counters, 0, "Baseline".into(), 0);
        let stream = jsonl_frame(&frame);
        assert_eq!(stream.lines().count(), 1, "header only");
        json::parse(stream.lines().next().unwrap()).unwrap();
        let doc = chrome_trace(&[frame]);
        json::parse(&doc).unwrap();
    }

    #[test]
    fn artifacts_write_and_validate() {
        let dir = std::env::temp_dir().join(format!("patu_obs_sink_{}", std::process::id()));
        let paths = write_artifacts(&dir, "selftest", &[sample_frame()]).unwrap();
        assert_eq!(paths.len(), 2);
        for path in &paths {
            assert!(path.exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
