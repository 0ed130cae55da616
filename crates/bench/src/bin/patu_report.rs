//! patu_report: renders patu JSONL telemetry artifacts into a
//! self-contained Markdown (or HTML) dashboard, and gates per-frame cycle
//! attribution against its recorded baseline.
//!
//! Modes:
//!
//! * `patu_report <artifact.jsonl> [--html] [-o <path>]` — validate a
//!   JSONL stream line by line against the in-repo schema
//!   (`patu_obs::schema`; the first bad line fails the run, named by its
//!   number), then summarize it (serve lines, causal trace trees, cycle
//!   attribution) into one document. With `--html` the same
//!   tables render as a standalone HTML page; `-o` writes to a file
//!   instead of stdout.
//! * `patu_report --check` — the CI attribution gate: renders every
//!   bundled scene and hard-fails unless per-frame cycle attribution
//!   conserves (stage sums equal total frame cycles), the baseline names
//!   only known stages, and each scene's top-k stage shares hold against
//!   `BENCH_attribution.json`.
//! * `patu_report --record` — (re)records `BENCH_attribution.json`.

use patu_bench::{micro, ArgError, Knobs};
use patu_core::FilterPolicy;
use patu_obs::json::{self, Json};
use patu_obs::{schema, Attribution, Stage, TelemetryConfig, TraceLevel};
use patu_scenes::{game_names, Workload};
use patu_sim::render::render_frame;

/// Resolution for the attribution baseline renders — small enough for CI,
/// large enough that every pipeline stage shows up.
const ATTRIB_RES: (u32, u32) = (96, 64);
/// Threshold for the attribution baseline renders.
const ATTRIB_THETA: f64 = 0.4;
/// Stages compared against the recorded baseline per scene.
const TOP_K: usize = 4;
/// Allowed per-stage share drift vs the baseline, in ×10000 units (500 =
/// 5 percentage points).
const SHARE_TOLERANCE_X10000: u64 = 500;

// ---------------------------------------------------------------------------
// Field access on parsed JSON values.

fn field_u64(value: &Json, key: &str) -> Option<u64> {
    value.get(key)?.as_num().map(|n| n as u64)
}

fn field_str<'a>(value: &'a Json, key: &str) -> Option<&'a str> {
    value.get(key)?.as_str()
}

// ---------------------------------------------------------------------------
// Dashboard model: sections of rows, rendered as Markdown or HTML.

struct Section {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

fn render_markdown(title: &str, sections: &[Section]) -> String {
    let mut out = format!("# {title}\n");
    for s in sections {
        out.push_str(&format!("\n## {}\n\n", s.title));
        if !s.rows.is_empty() {
            out.push_str(&format!("| {} |\n", s.header.join(" | ")));
            out.push_str(&format!(
                "|{}\n",
                s.header.iter().map(|_| "---|").collect::<String>()
            ));
            for row in &s.rows {
                out.push_str(&format!("| {} |\n", row.join(" | ")));
            }
        }
        for n in &s.notes {
            out.push_str(&format!("\n{n}\n"));
        }
    }
    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn render_html(title: &str, sections: &[Section]) -> String {
    let mut out = format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>{0}</title>\n\
         <style>body{{font-family:monospace;margin:2em}}table{{border-collapse:collapse}}\
         td,th{{border:1px solid #999;padding:2px 8px;text-align:right}}\
         th{{background:#eee}}td:first-child,th:first-child{{text-align:left}}</style>\n\
         </head><body><h1>{0}</h1>\n",
        html_escape(title)
    );
    for s in sections {
        out.push_str(&format!("<h2>{}</h2>\n", html_escape(&s.title)));
        if !s.rows.is_empty() {
            out.push_str("<table><tr>");
            for h in &s.header {
                out.push_str(&format!("<th>{}</th>", html_escape(h)));
            }
            out.push_str("</tr>\n");
            for row in &s.rows {
                out.push_str("<tr>");
                for cell in row {
                    out.push_str(&format!("<td>{}</td>", html_escape(cell)));
                }
                out.push_str("</tr>\n");
            }
            out.push_str("</table>\n");
        }
        for n in &s.notes {
            out.push_str(&format!("<p>{}</p>\n", html_escape(n)));
        }
    }
    out.push_str("</body></html>\n");
    out
}

/// A proportional unicode bar for flame-style share columns.
fn bar(share_x10000: u64) -> String {
    "█".repeat(((share_x10000 * 24).div_ceil(10_000)) as usize)
}

/// Builds the dashboard sections from one JSONL stream.
fn dashboard(stream: &str) -> Vec<Section> {
    let lines: Vec<Json> = stream.lines().filter_map(|l| json::parse(l).ok()).collect();
    let of_type = |kind: &'static str| {
        lines
            .iter()
            .filter(move |l| field_str(l, "type") == Some(kind))
    };
    let mut sections = Vec::new();

    // Line inventory.
    let mut kinds: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for line in &lines {
        let kind = field_str(line, "type").unwrap_or("?");
        *kinds.entry(kind).or_insert(0) += 1;
    }
    sections.push(Section {
        title: "Line inventory".into(),
        header: vec!["type".into(), "lines".into()],
        rows: kinds
            .iter()
            .map(|(k, v)| vec![(*k).to_string(), v.to_string()])
            .collect(),
        notes: Vec::new(),
    });

    // Serve outcomes.
    let serve: Vec<&Json> = of_type("serve").collect();
    if !serve.is_empty() {
        let count = |o: &str| {
            serve
                .iter()
                .filter(|l| field_str(l, "outcome") == Some(o))
                .count()
        };
        let missed = serve
            .iter()
            .filter(|l| {
                field_str(l, "outcome") == Some("delivered")
                    && field_u64(l, "finish")
                        .zip(field_u64(l, "deadline"))
                        .is_some_and(|(f, d)| f > d)
            })
            .count();
        sections.push(Section {
            title: "Serve outcomes".into(),
            header: vec!["outcome".into(), "jobs".into()],
            rows: vec![
                vec!["delivered".into(), count("delivered").to_string()],
                vec!["  of which late".into(), missed.to_string()],
                vec!["shed".into(), count("shed").to_string()],
                vec!["failed".into(), count("failed").to_string()],
            ],
            notes: Vec::new(),
        });
    }

    // Causal traces: span-name totals across every tree.
    let mut span_names: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut traces = 0u64;
    for line in of_type("trace") {
        traces += 1;
        let spans = line.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
        for span in spans {
            if let (Some(name), Some(start), Some(end)) = (
                field_str(span, "name"),
                field_u64(span, "start"),
                field_u64(span, "end"),
            ) {
                let e = span_names.entry(name.to_string()).or_insert((0, 0));
                e.0 += 1;
                e.1 += end.saturating_sub(start);
            }
        }
    }
    if traces > 0 {
        sections.push(Section {
            title: format!("Causal traces ({traces} jobs)"),
            header: vec!["span".into(), "count".into(), "total cycles".into()],
            rows: span_names
                .iter()
                .map(|(n, (c, cy))| vec![n.clone(), c.to_string(), cy.to_string()])
                .collect(),
            notes: Vec::new(),
        });
    }

    // Cycle attribution, accumulated over every attrib line.
    let mut attrib = Attribution::new();
    let mut frames = 0u64;
    for line in of_type("attrib") {
        frames += 1;
        for stage in Stage::ALL {
            if let Some(cycles) = line.get("stages").and_then(|s| field_u64(s, stage.name())) {
                attrib.add(stage, cycles);
            }
        }
    }
    if frames > 0 {
        let rows = attrib
            .shares_x10000()
            .into_iter()
            .map(|(stage, share)| {
                vec![
                    stage.name().to_string(),
                    attrib.get(stage).to_string(),
                    format!("{:.1}%", share as f64 / 100.0),
                    bar(share),
                ]
            })
            .collect();
        sections.push(Section {
            title: format!("Cycle attribution ({frames} frames)"),
            header: vec!["stage".into(), "cycles".into(), "share".into(), "".into()],
            rows,
            notes: vec![format!(
                "Stages conserve: {} cycles total.",
                attrib.frame_total()
            )],
        });
    }

    sections
}

// ---------------------------------------------------------------------------
// Attribution baseline (BENCH_attribution.json).

/// Renders frame 0 of `scene` at the baseline resolution and returns its
/// cycle attribution + total cycles, hard-checking conservation.
fn scene_attribution(
    knobs: &Knobs,
    scene: &str,
) -> Result<(Attribution, u64), Box<dyn std::error::Error>> {
    let workload = Workload::build(scene, ATTRIB_RES)?;
    let cfg = knobs
        .render(FilterPolicy::Patu {
            threshold: ATTRIB_THETA,
        })
        .with_telemetry(TelemetryConfig::with_level(TraceLevel::Counters));
    let result = render_frame(&workload, 0, &cfg)?;
    let telemetry = result
        .telemetry
        .as_ref()
        .ok_or("telemetry missing at counters level")?;
    let attrib = telemetry.attrib.clone();
    if attrib.frame_total() != result.stats.cycles {
        return Err(format!(
            "{scene}: attribution leaks cycles ({} attributed != {} total)",
            attrib.frame_total(),
            result.stats.cycles
        )
        .into());
    }
    // The schema checker enforces the same invariant on the wire format.
    schema::check_stream(&format!("{}\n", attrib.jsonl_line(0)))
        .map_err(|(_, e)| format!("{scene}: attrib line rejected: {e}"))?;
    Ok((attrib, result.stats.cycles))
}

fn record_baseline(knobs: &Knobs) -> Result<(), Box<dyn std::error::Error>> {
    let mut rows = String::new();
    for (i, scene) in game_names().into_iter().enumerate() {
        let (attrib, total) = scene_attribution(knobs, scene)?;
        if i > 0 {
            rows.push_str(",\n");
        }
        let mut stages = String::new();
        for (j, (stage, share)) in attrib.shares_x10000().into_iter().enumerate() {
            if j > 0 {
                stages.push_str(", ");
            }
            stages.push_str(&format!("\"{}\": {share}", stage.name()));
        }
        rows.push_str(&format!(
            "    {{\"scene\": \"{scene}\", \"total\": {total}, \"shares_x10000\": {{{stages}}}}}"
        ));
        println!("recorded {scene}: {total} cycles");
    }
    let json = format!(
        "{{\n  \"bench\": \"attribution\",\n  \"resolution\": [{}, {}],\n  \
         \"threshold\": {ATTRIB_THETA},\n  \"scenes\": [\n{rows}\n  ]\n}}\n",
        ATTRIB_RES.0, ATTRIB_RES.1
    );
    let path = micro::repo_root().join("BENCH_attribution.json");
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The recorded share of `stage` in `scene` from the parsed baseline.
fn recorded_share(baseline: &Json, scene: &str, stage: &str) -> Option<u64> {
    let row = baseline
        .get("scenes")?
        .as_arr()?
        .iter()
        .find(|row| field_str(row, "scene") == Some(scene))?;
    field_u64(row.get("shares_x10000")?, stage)
}

/// Rejects a baseline that names a stage [`Stage::from_name`] does not
/// know, so a removed stage's column cannot linger in the recorded file.
fn check_baseline_stages(baseline: &Json) -> Result<(), String> {
    let rows = baseline
        .get("scenes")
        .and_then(Json::as_arr)
        .ok_or("BENCH_attribution.json: missing \"scenes\"")?;
    for row in rows {
        let Some(Json::Obj(shares)) = row.get("shares_x10000") else {
            continue;
        };
        if let Some(name) = shares.keys().find(|name| Stage::from_name(name).is_none()) {
            let scene = field_str(row, "scene").unwrap_or("?");
            return Err(format!(
                "BENCH_attribution.json: {scene} names unknown stage `{name}`; re-record it \
                 with `cargo run --release -p patu-bench --bin patu_report -- --record`"
            ));
        }
    }
    Ok(())
}

/// Diffs each scene's top-k attribution shares against the recorded
/// baseline; any drift beyond tolerance is a hard failure with a
/// regeneration hint.
fn check_against_baseline(knobs: &Knobs) -> Result<(), Box<dyn std::error::Error>> {
    let path = micro::repo_root().join("BENCH_attribution.json");
    let text = std::fs::read_to_string(&path).map_err(|_| {
        "BENCH_attribution.json missing; record it with \
         `cargo run --release -p patu-bench --bin patu_report -- --record`"
    })?;
    let baseline = json::parse(&text).map_err(|e| format!("BENCH_attribution.json: {e}"))?;
    check_baseline_stages(&baseline)?;
    for scene in game_names() {
        let (attrib, _) = scene_attribution(knobs, scene)?;
        let mut shares = attrib.shares_x10000();
        shares.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.name().cmp(b.0.name())));
        for (stage, measured) in shares.into_iter().take(TOP_K) {
            let stage = stage.name();
            let recorded = recorded_share(&baseline, scene, stage).ok_or_else(|| {
                format!("BENCH_attribution.json lacks {scene}/{stage}; re-record it")
            })?;
            let drift = measured.abs_diff(recorded);
            if drift > SHARE_TOLERANCE_X10000 {
                return Err(format!(
                    "{scene}: stage `{stage}` share drifted {:.1}pp (measured {:.1}%, \
                     recorded {:.1}%). If the stage mix change is intended, regenerate \
                     the baseline with `cargo run --release -p patu-bench --bin \
                     patu_report -- --record`.",
                    drift as f64 / 100.0,
                    measured as f64 / 100.0,
                    recorded as f64 / 100.0,
                )
                .into());
            }
        }
        println!("attribution baseline holds for {scene} (top-{TOP_K} within tolerance)");
    }
    Ok(())
}

// ---------------------------------------------------------------------------

/// Validates `stream` against the JSONL schema, then renders its dashboard
/// as Markdown (or HTML). A schema violation names its 1-based line.
fn report(stream: &str, title: &str, html: bool) -> Result<String, String> {
    schema::check_stream(stream).map_err(|(line, err)| format!("line {line}: {err}"))?;
    let sections = dashboard(stream);
    Ok(if html {
        render_html(title, &sections)
    } else {
        render_markdown(title, &sections)
    })
}

const USAGE: &str = "patu_report <artifact.jsonl> [--html] [-o out] | --check | --record";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let (mut check, mut record, mut html) = (false, false, false);
    let (mut out_path, mut input) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--record" => record = true,
            "--html" => html = true,
            "-o" if out_path.is_none() => {
                out_path = Some(args.next().ok_or_else(|| ArgError {
                    arg,
                    accepted: USAGE.into(),
                })?)
            }
            a if !a.starts_with('-') && input.is_none() => input = Some(arg),
            _ => {
                return Err(ArgError {
                    arg,
                    accepted: USAGE.into(),
                }
                .into())
            }
        }
    }
    if check {
        check_against_baseline(&knobs)?;
        println!("patu_report --check: attribution conserves and holds against the baseline");
        return Ok(());
    }
    if record {
        return record_baseline(&knobs);
    }
    let input = input.ok_or(format!("usage: {USAGE}"))?;
    let stream = std::fs::read_to_string(&input)?;
    let doc = report(&stream, &format!("patu report: {input}"), html)
        .map_err(|e| format!("{input}: {e}"))?;
    match out_path {
        Some(path) => {
            std::fs::write(&path, doc)?;
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use patu_serve::{run_session, Scenario, ServeConfig, SyntheticService};

    #[test]
    fn dashboard_renders_a_chaos_session_as_markdown_and_html() {
        let cfg = ServeConfig {
            seed: 1207,
            clients: 4,
            jobs_per_client: 48,
            scenario: Scenario::HalfPoolOutage,
            load: 1.5,
            gpus: 2,
            queue_capacity: 8,
            trace: TraceLevel::Spans,
            pressure_gain: 0.4,
            ..ServeConfig::default()
        };
        let mut plant = SyntheticService::new(1_000_000, cfg.governor_steps);
        let session = run_session(&cfg, &mut plant).expect("session runs");
        for html in [false, true] {
            let doc = report(&session.log, "patu serve session", html).expect("schema-clean log");
            for needle in ["Line inventory", "Causal traces", "serve::lifecycle"] {
                assert!(
                    doc.contains(needle),
                    "html={html}: dashboard lacks `{needle}`"
                );
            }
        }
    }

    #[test]
    fn baseline_naming_an_unknown_stage_is_rejected() {
        let good = json::parse(
            "{\"scenes\": [{\"scene\": \"doom3\", \"shares_x10000\": {\"setup\": 10, \"dram\": 9990}}]}",
        )
        .expect("valid JSON");
        assert_eq!(check_baseline_stages(&good), Ok(()));
        let stale = json::parse(
            "{\"scenes\": [{\"scene\": \"doom3\", \"shares_x10000\": {\"setup\": 10, \"retired\": 0}}]}",
        )
        .expect("valid JSON");
        let err = check_baseline_stages(&stale).expect_err("a stale stage column fails");
        assert!(err.contains("doom3") && err.contains("`retired`"), "{err}");
    }

    #[test]
    fn schema_invalid_lines_are_rejected_by_number() {
        let stream = "{\"type\":\"serve\",\"client\":0,\"tier\":0,\"scene\":\"doom3\",\"frame\":0,\"arrival\":0,\"deadline\":9,\"outcome\":\"shed\"}\n";
        let err = report(stream, "bad", false).expect_err("serve line without a job");
        assert!(err.starts_with("line 1: "), "{err}");
        assert!(err.contains("\"job\""), "{err}");
    }
}
