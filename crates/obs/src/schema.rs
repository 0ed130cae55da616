//! The JSONL telemetry schema checker.
//!
//! Every line the sink emits is a self-contained JSON object with a
//! `"type"` discriminator; [`check_line`] validates the required keys and
//! key types for each line kind. The determinism tests run it over
//! everything the sinks and the serve layer emit, and `patu_report`
//! refuses an artifact with a bad line — so the writer in [`crate::sink`]
//! cannot drift from the documented format unnoticed.

use crate::json::{self, Json};

/// The line types the sink emits. `"serve"` and `"trace"` lines come from
/// the `patu-serve` layer's per-job log rather than the frame sink, but
/// share the stream format so one checker covers both.
pub const LINE_TYPES: [&str; 10] = [
    "frame", "counter", "hist", "span", "event", "dump", "serve", "trace", "attrib", "temporal",
];

fn require_num(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing or non-numeric \"{key}\""))
}

fn require_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))
}

fn require_bool(obj: &Json, key: &str) -> Result<bool, String> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or non-boolean \"{key}\""))
}

fn check_event_fields(obj: &Json) -> Result<(), String> {
    require_num(obj, "frame")?;
    require_num(obj, "cycle")?;
    require_num(obj, "cluster")?;
    require_num(obj, "tile")?;
    let kind = require_str(obj, "kind")?;
    match kind {
        "tile_begin" | "tile_end" | "watchdog_trip" => Ok(()),
        "fault" => {
            require_str(obj, "site")?;
            require_num(obj, "count")?;
            Ok(())
        }
        "fallback" => {
            require_num(obj, "count")?;
            Ok(())
        }
        other => Err(format!("unknown event kind \"{other}\"")),
    }
}

/// Validates the span array of a `"trace"` line as a well-formed tree:
/// unique ids ≥ 1, exactly one root (`parent == 0`) matching the line's
/// `root` field, every non-zero parent present, and `start <= end` on each
/// node.
fn check_trace_tree(spans: &[Json], root: u64) -> Result<(), String> {
    if spans.is_empty() {
        return Err("trace has no spans".to_string());
    }
    let mut ids = Vec::with_capacity(spans.len());
    let mut parents = Vec::with_capacity(spans.len());
    let mut roots = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let err = |e: String| format!("trace span {i}: {e}");
        let id = require_num(span, "id").map_err(err)? as u64;
        let parent =
            require_num(span, "parent").map_err(|e| format!("trace span {i}: {e}"))? as u64;
        require_str(span, "name").map_err(|e| format!("trace span {i}: {e}"))?;
        let start = require_num(span, "start").map_err(|e| format!("trace span {i}: {e}"))?;
        let end = require_num(span, "end").map_err(|e| format!("trace span {i}: {e}"))?;
        if id == 0 {
            return Err(format!("trace span {i}: id must be >= 1"));
        }
        if start > end {
            return Err(format!("trace span {i}: start {start} > end {end}"));
        }
        if ids.contains(&id) {
            return Err(format!("trace span {i}: duplicate id {id}"));
        }
        if parent == 0 {
            roots.push(id);
        }
        ids.push(id);
        parents.push(parent);
    }
    if roots.len() != 1 {
        return Err(format!("trace has {} roots, want exactly 1", roots.len()));
    }
    if roots[0] != root {
        return Err(format!("trace root field {root} != tree root {}", roots[0]));
    }
    for (i, &parent) in parents.iter().enumerate() {
        if parent != 0 && !ids.contains(&parent) {
            return Err(format!("trace span {i}: parent {parent} not in tree"));
        }
    }
    Ok(())
}

/// Validates one JSONL telemetry line.
///
/// # Errors
///
/// Returns a description of the first problem: unparseable JSON, a missing
/// `"type"`, an unknown type, or a missing/mistyped required key.
pub fn check_line(line: &str) -> Result<(), String> {
    let obj = json::parse(line)?;
    let line_type = require_str(&obj, "type")?.to_string();
    match line_type.as_str() {
        "frame" => {
            require_num(&obj, "frame")?;
            require_str(&obj, "policy")?;
            require_num(&obj, "seed")?;
            let level = require_str(&obj, "level")?;
            if !matches!(level, "off" | "counters" | "spans") {
                return Err(format!("unknown trace level \"{level}\""));
            }
            Ok(())
        }
        "counter" => {
            require_num(&obj, "frame")?;
            require_str(&obj, "name")?;
            require_num(&obj, "value")?;
            Ok(())
        }
        "hist" => {
            require_num(&obj, "frame")?;
            require_str(&obj, "name")?;
            let count = require_num(&obj, "count")?;
            require_num(&obj, "sum")?;
            require_num(&obj, "min")?;
            require_num(&obj, "max")?;
            let p50 = require_num(&obj, "p50")?;
            let p95 = require_num(&obj, "p95")?;
            let p99 = require_num(&obj, "p99")?;
            if count > 0.0 && !(p50 <= p95 && p95 <= p99) {
                return Err(format!(
                    "quantiles out of order: p50={p50} p95={p95} p99={p99}"
                ));
            }
            let buckets = obj
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| "missing or non-array \"buckets\"".to_string())?;
            for (i, bucket) in buckets.iter().enumerate() {
                let pair = bucket
                    .as_arr()
                    .filter(|p| p.len() == 2 && p.iter().all(|v| v.as_num().is_some()))
                    .ok_or_else(|| format!("bucket {i} is not a [lower, count] pair"))?;
                if pair[1].as_num() == Some(0.0) {
                    return Err(format!("bucket {i} has zero count (must be elided)"));
                }
            }
            Ok(())
        }
        "span" => {
            require_num(&obj, "frame")?;
            require_str(&obj, "name")?;
            require_str(&obj, "track")?;
            require_num(&obj, "tid")?;
            let start = require_num(&obj, "start")?;
            let end = require_num(&obj, "end")?;
            let dur = require_num(&obj, "dur")?;
            if end >= start && dur != end - start {
                return Err(format!("dur {dur} != end {end} - start {start}"));
            }
            // Tree spans carry id/parent; flat spans omit both.
            if let Some(id) = obj.get("id") {
                let id = id.as_num().ok_or("non-numeric \"id\"")?;
                if id < 1.0 {
                    return Err(format!("span id {id} must be >= 1"));
                }
                require_num(&obj, "parent")?;
            } else if obj.get("parent").is_some() {
                return Err("span has \"parent\" without \"id\"".to_string());
            }
            Ok(())
        }
        "event" => check_event_fields(&obj),
        "trace" => {
            require_num(&obj, "job")?;
            require_num(&obj, "client")?;
            require_num(&obj, "tier")?;
            let outcome = require_str(&obj, "outcome")?;
            if !matches!(outcome, "delivered" | "shed" | "failed") {
                return Err(format!("unknown trace outcome \"{outcome}\""));
            }
            let root = require_num(&obj, "root")? as u64;
            let spans = obj
                .get("spans")
                .and_then(Json::as_arr)
                .ok_or_else(|| "missing or non-array \"spans\"".to_string())?;
            check_trace_tree(spans, root)
        }
        "attrib" => {
            require_num(&obj, "frame")?;
            let total = require_num(&obj, "total")?;
            let Some(Json::Obj(stages)) = obj.get("stages") else {
                return Err("missing or non-object \"stages\"".to_string());
            };
            let mut stage_sum = 0.0f64;
            for (name, value) in stages {
                if crate::attrib::Stage::from_name(name).is_none() {
                    return Err(format!("unknown attribution stage \"{name}\""));
                }
                let cycles = value
                    .as_num()
                    .ok_or_else(|| format!("non-numeric stage \"{name}\""))?;
                if cycles < 0.0 {
                    return Err(format!("negative stage \"{name}\""));
                }
                stage_sum += cycles;
            }
            if stage_sum != total {
                return Err(format!(
                    "attribution not conserved: stage sum {stage_sum} != total {total}"
                ));
            }
            Ok(())
        }
        "temporal" => {
            require_num(&obj, "frame")?;
            let reused = require_num(&obj, "reused")?;
            let repredicted = require_num(&obj, "repredicted")?;
            let rerendered = require_num(&obj, "rerendered")?;
            require_num(&obj, "reuse_cycles")?;
            for (name, value) in [
                ("reused", reused),
                ("repredicted", repredicted),
                ("rerendered", rerendered),
            ] {
                if value < 0.0 {
                    return Err(format!("negative temporal count \"{name}\""));
                }
            }
            if reused + repredicted + rerendered == 0.0 {
                return Err("temporal line classified no tiles".to_string());
            }
            Ok(())
        }
        "serve" => {
            require_num(&obj, "job")?;
            require_num(&obj, "client")?;
            require_num(&obj, "tier")?;
            require_str(&obj, "scene")?;
            require_num(&obj, "frame")?;
            let arrival = require_num(&obj, "arrival")?;
            require_num(&obj, "deadline")?;
            let outcome = require_str(&obj, "outcome")?;
            match outcome {
                "delivered" => {
                    let finish = require_num(&obj, "finish")?;
                    if finish < arrival {
                        return Err(format!("finish {finish} before arrival {arrival}"));
                    }
                    require_num(&obj, "theta")?;
                    require_num(&obj, "ssim")?;
                    require_num(&obj, "hash")?;
                    require_num(&obj, "gpu")?;
                    require_num(&obj, "retries")?;
                    require_bool(&obj, "hedged")?;
                    Ok(())
                }
                // A job abandoned by the resilience layer: its per-tier
                // retry budget ran out, or no remaining retry could meet
                // the deadline.
                "failed" => {
                    let finish = require_num(&obj, "finish")?;
                    if finish < arrival {
                        return Err(format!("finish {finish} before arrival {arrival}"));
                    }
                    require_num(&obj, "retries")?;
                    Ok(())
                }
                "shed" => Ok(()),
                other => Err(format!("unknown serve outcome \"{other}\"")),
            }
        }
        "dump" => {
            require_str(&obj, "reason")?;
            require_num(&obj, "frame")?;
            require_num(&obj, "cluster")?;
            require_num(&obj, "tile")?;
            require_num(&obj, "cycle")?;
            require_str(&obj, "policy")?;
            require_num(&obj, "seed")?;
            let events = obj
                .get("events")
                .and_then(Json::as_arr)
                .ok_or_else(|| "missing or non-array \"events\"".to_string())?;
            for (i, event) in events.iter().enumerate() {
                check_event_fields(event).map_err(|e| format!("dump event {i}: {e}"))?;
            }
            Ok(())
        }
        other => Err(format!("unknown line type \"{other}\"")),
    }
}

/// Validates a whole JSONL stream, returning `(line number, error)` for the
/// first bad line (1-based), or the number of valid lines.
///
/// # Errors
///
/// See [`check_line`]; blank lines are rejected too.
pub fn check_stream(stream: &str) -> Result<usize, (usize, String)> {
    let mut checked = 0usize;
    for (i, line) in stream.lines().enumerate() {
        check_line(line).map_err(|e| (i + 1, e))?;
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Collector, FrameTelemetry};
    use crate::config::{TelemetryConfig, TraceLevel};
    use crate::sink;
    use crate::span::{Event, EventKind, Track};

    #[test]
    fn sink_output_passes_the_checker() {
        let mut frame = FrameTelemetry::new(TraceLevel::Spans, 1, "Patu".into(), 11);
        let mut c = Collector::new(
            TelemetryConfig::with_level(TraceLevel::Spans),
            Track::Cluster(1),
        );
        c.span_arg("raster::tile", 0, 64, "tile", 9);
        c.add("pixels", 256);
        c.record("texture::filter_latency", 17);
        c.event(Event {
            cycle: 3,
            cluster: 1,
            tile: 9,
            kind: EventKind::WatchdogTrip,
        });
        c.event(Event {
            cycle: 5,
            cluster: 1,
            tile: 9,
            kind: EventKind::Fallback { count: 4 },
        });
        c.dump("watchdog_trip", 6, 9);
        frame.absorb(c);
        let stream = sink::jsonl(&[frame]);
        let checked = check_stream(&stream).expect("all lines valid");
        assert!(
            checked >= 6,
            "frame+counter+hist+span+2 events+dump, got {checked}"
        );
    }

    #[test]
    fn rejects_missing_keys() {
        assert!(check_line("{\"type\":\"frame\",\"frame\":0}").is_err());
        assert!(check_line("{\"type\":\"counter\",\"frame\":0,\"name\":\"x\"}").is_err());
        assert!(check_line("{\"frame\":0}").is_err(), "no type");
        assert!(check_line("{\"type\":\"mystery\"}").is_err());
        assert!(check_line("not json").is_err());
    }

    #[test]
    fn rejects_inconsistent_spans_and_hists() {
        let bad_span = "{\"type\":\"span\",\"frame\":0,\"name\":\"x\",\"track\":\"cluster0\",\"tid\":1,\"start\":10,\"end\":30,\"dur\":5}";
        assert!(check_line(bad_span).unwrap_err().contains("dur"));
        let bad_hist = "{\"type\":\"hist\",\"frame\":0,\"name\":\"x\",\"count\":4,\"sum\":10,\"min\":1,\"max\":9,\"mean\":2.5,\"p50\":8,\"p95\":4,\"p99\":9,\"buckets\":[[1,4]]}";
        assert!(check_line(bad_hist).unwrap_err().contains("quantiles"));
    }

    #[test]
    fn rejects_unknown_event_kind() {
        let line = "{\"type\":\"event\",\"frame\":0,\"cycle\":1,\"cluster\":0,\"tile\":0,\"kind\":\"explosion\"}";
        assert!(check_line(line).unwrap_err().contains("explosion"));
    }

    #[test]
    fn serve_lines_validate() {
        let delivered = "{\"type\":\"serve\",\"job\":3,\"client\":1,\"tier\":0,\"scene\":\"oblivion\",\"frame\":2,\"arrival\":100,\"deadline\":900,\"outcome\":\"delivered\",\"finish\":400,\"theta\":0.4,\"ssim\":0.97,\"hash\":123456,\"gpu\":1,\"retries\":0,\"hedged\":false}";
        assert!(check_line(delivered).is_ok());
        let shed = "{\"type\":\"serve\",\"job\":4,\"client\":2,\"tier\":1,\"scene\":\"crysis\",\"frame\":0,\"arrival\":150,\"deadline\":950,\"outcome\":\"shed\"}";
        assert!(check_line(shed).is_ok());
        let backwards = "{\"type\":\"serve\",\"job\":5,\"client\":0,\"tier\":0,\"scene\":\"x\",\"frame\":0,\"arrival\":500,\"deadline\":900,\"outcome\":\"delivered\",\"finish\":400,\"theta\":0.4,\"ssim\":0.9,\"hash\":1,\"gpu\":0,\"retries\":0,\"hedged\":false}";
        assert!(check_line(backwards)
            .unwrap_err()
            .contains("before arrival"));
        let unknown = "{\"type\":\"serve\",\"job\":5,\"client\":0,\"tier\":0,\"scene\":\"x\",\"frame\":0,\"arrival\":1,\"deadline\":2,\"outcome\":\"vaporized\"}";
        assert!(check_line(unknown).unwrap_err().contains("vaporized"));
        let missing = "{\"type\":\"serve\",\"job\":5,\"outcome\":\"shed\"}";
        assert!(check_line(missing).is_err());
    }

    #[test]
    fn serve_resilience_fields_validate() {
        let hedged = "{\"type\":\"serve\",\"job\":7,\"client\":1,\"tier\":0,\"scene\":\"doom3\",\"frame\":1,\"arrival\":100,\"deadline\":500,\"outcome\":\"delivered\",\"finish\":300,\"theta\":0.75,\"ssim\":0.95,\"hash\":99,\"gpu\":2,\"retries\":1,\"hedged\":true}";
        assert!(check_line(hedged).is_ok());
        let no_gpu = "{\"type\":\"serve\",\"job\":7,\"client\":1,\"tier\":0,\"scene\":\"doom3\",\"frame\":1,\"arrival\":100,\"deadline\":500,\"outcome\":\"delivered\",\"finish\":300,\"theta\":0.75,\"ssim\":0.95,\"hash\":99,\"retries\":1,\"hedged\":true}";
        assert!(check_line(no_gpu).unwrap_err().contains("gpu"));
        let hedged_num = "{\"type\":\"serve\",\"job\":7,\"client\":1,\"tier\":0,\"scene\":\"doom3\",\"frame\":1,\"arrival\":100,\"deadline\":500,\"outcome\":\"delivered\",\"finish\":300,\"theta\":0.75,\"ssim\":0.95,\"hash\":99,\"gpu\":2,\"retries\":1,\"hedged\":1}";
        assert!(check_line(hedged_num).unwrap_err().contains("boolean"));
        let failed = "{\"type\":\"serve\",\"job\":8,\"client\":0,\"tier\":1,\"scene\":\"hl2\",\"frame\":0,\"arrival\":100,\"deadline\":400,\"outcome\":\"failed\",\"finish\":900,\"retries\":2}";
        assert!(check_line(failed).is_ok());
        let failed_backwards = "{\"type\":\"serve\",\"job\":8,\"client\":0,\"tier\":1,\"scene\":\"hl2\",\"frame\":0,\"arrival\":1000,\"deadline\":1400,\"outcome\":\"failed\",\"finish\":900,\"retries\":2}";
        assert!(check_line(failed_backwards)
            .unwrap_err()
            .contains("before arrival"));
        let failed_missing = "{\"type\":\"serve\",\"job\":8,\"client\":0,\"tier\":1,\"scene\":\"hl2\",\"frame\":0,\"arrival\":100,\"deadline\":400,\"outcome\":\"failed\",\"finish\":900}";
        assert!(check_line(failed_missing).unwrap_err().contains("retries"));
    }

    #[test]
    fn trace_lines_validate_tree_shape() {
        let good = "{\"type\":\"trace\",\"job\":3,\"client\":1,\"tier\":0,\"outcome\":\"delivered\",\"root\":1,\"spans\":[{\"id\":1,\"parent\":0,\"name\":\"serve::job\",\"start\":100,\"end\":900},{\"id\":2,\"parent\":1,\"name\":\"serve::queue\",\"start\":100,\"end\":150}]}";
        assert!(check_line(good).is_ok());
        let orphan = "{\"type\":\"trace\",\"job\":3,\"client\":1,\"tier\":0,\"outcome\":\"shed\",\"root\":1,\"spans\":[{\"id\":1,\"parent\":0,\"name\":\"serve::job\",\"start\":0,\"end\":9},{\"id\":2,\"parent\":7,\"name\":\"x\",\"start\":0,\"end\":1}]}";
        assert!(check_line(orphan).unwrap_err().contains("not in tree"));
        let two_roots = "{\"type\":\"trace\",\"job\":3,\"client\":1,\"tier\":0,\"outcome\":\"failed\",\"root\":1,\"spans\":[{\"id\":1,\"parent\":0,\"name\":\"a\",\"start\":0,\"end\":1},{\"id\":2,\"parent\":0,\"name\":\"b\",\"start\":0,\"end\":1}]}";
        assert!(check_line(two_roots).unwrap_err().contains("roots"));
        let dup = "{\"type\":\"trace\",\"job\":3,\"client\":1,\"tier\":0,\"outcome\":\"shed\",\"root\":1,\"spans\":[{\"id\":1,\"parent\":0,\"name\":\"a\",\"start\":0,\"end\":1},{\"id\":1,\"parent\":1,\"name\":\"b\",\"start\":0,\"end\":1}]}";
        assert!(check_line(dup).unwrap_err().contains("duplicate"));
        let empty = "{\"type\":\"trace\",\"job\":3,\"client\":1,\"tier\":0,\"outcome\":\"shed\",\"root\":1,\"spans\":[]}";
        assert!(check_line(empty).unwrap_err().contains("no spans"));
        let bad_outcome = "{\"type\":\"trace\",\"job\":3,\"client\":1,\"tier\":0,\"outcome\":\"lost\",\"root\":1,\"spans\":[{\"id\":1,\"parent\":0,\"name\":\"a\",\"start\":0,\"end\":1}]}";
        assert!(check_line(bad_outcome).unwrap_err().contains("lost"));
    }

    #[test]
    fn attrib_lines_enforce_conservation() {
        use crate::attrib::{Attribution, Stage};
        let mut a = Attribution::new();
        a.add(Stage::Setup, 100);
        a.add(Stage::Shade, 400);
        a.add(Stage::Dram, 500);
        assert!(check_line(&a.jsonl_line(2)).is_ok());
        let broken = "{\"type\":\"attrib\",\"frame\":0,\"total\":100,\"stages\":{\"setup\":60,\"shade\":60}}";
        assert!(check_line(broken).unwrap_err().contains("not conserved"));
        let unknown = "{\"type\":\"attrib\",\"frame\":0,\"total\":5,\"stages\":{\"mystery\":5}}";
        assert!(check_line(unknown).unwrap_err().contains("mystery"));
        // Every stage counts toward conservation; a name outside
        // `Stage::ALL` is rejected, not set aside.
        let side = "{\"type\":\"attrib\",\"frame\":0,\"total\":10,\"stages\":{\"setup\":10,\"ssim_baseline\":77}}";
        assert!(check_line(side)
            .unwrap_err()
            .contains("unknown attribution stage \"ssim_baseline\""));
    }

    #[test]
    fn temporal_lines_validate() {
        let good = "{\"type\":\"temporal\",\"frame\":3,\"reused\":40,\"repredicted\":2,\"rerendered\":6,\"reuse_cycles\":1280}";
        assert!(check_line(good).is_ok());
        let empty = "{\"type\":\"temporal\",\"frame\":3,\"reused\":0,\"repredicted\":0,\"rerendered\":0,\"reuse_cycles\":0}";
        assert!(check_line(empty).unwrap_err().contains("no tiles"));
        let missing = "{\"type\":\"temporal\",\"frame\":3,\"reused\":1}";
        assert!(check_line(missing).is_err());
    }

    #[test]
    fn span_id_parent_pairs_validate() {
        let tree = "{\"type\":\"span\",\"frame\":0,\"name\":\"raster::tile\",\"track\":\"cluster0\",\"tid\":1,\"start\":10,\"end\":30,\"dur\":20,\"id\":4294967297,\"parent\":0}";
        assert!(check_line(tree).is_ok());
        let zero_id = "{\"type\":\"span\",\"frame\":0,\"name\":\"x\",\"track\":\"cluster0\",\"tid\":1,\"start\":0,\"end\":1,\"dur\":1,\"id\":0,\"parent\":0}";
        assert!(check_line(zero_id).unwrap_err().contains(">= 1"));
        let orphan_parent = "{\"type\":\"span\",\"frame\":0,\"name\":\"x\",\"track\":\"cluster0\",\"tid\":1,\"start\":0,\"end\":1,\"dur\":1,\"parent\":3}";
        assert!(check_line(orphan_parent)
            .unwrap_err()
            .contains("without \"id\""));
    }

    #[test]
    fn check_stream_reports_line_number() {
        let good = "{\"type\":\"frame\",\"frame\":0,\"policy\":\"p\",\"seed\":0,\"level\":\"off\"}";
        let stream = format!("{good}\nnot json\n");
        let (line, _) = check_stream(&stream).unwrap_err();
        assert_eq!(line, 2);
    }
}
