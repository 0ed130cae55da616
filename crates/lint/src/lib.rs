//! `patu-lint` — the workspace invariant checker.
//!
//! PRs 1–3 established three promises that ordinary tests can only probe
//! after the fact: simulator output is bit-identical across `PATU_THREADS`
//! settings, library crates report typed errors instead of panicking, and
//! telemetry reduces to a single gated branch when `PATU_TRACE=off`. This
//! crate enforces those promises *statically*: a small token-level Rust
//! lexer (comment-, string- and attribute-aware — no `syn`, no external
//! dependencies at all) feeds a rule engine that walks every `.rs` file and
//! `Cargo.toml` in the workspace and reports `file:line` diagnostics.
//!
//! The rules (see [`rules::RULES`] for the machine-readable table):
//!
//! | id             | invariant                                                            |
//! |----------------|----------------------------------------------------------------------|
//! | `wall-clock`   | no `Instant`/`SystemTime` outside `patu_bench::micro`                |
//! | `thread-spawn` | no `std::thread::{spawn,scope}` outside `patu_sim::parallel`         |
//! | `panic-path`   | no `unwrap`/`expect`/`panic!`/`unreachable!` in non-test library code|
//! | `hash-order`   | no `HashMap`/`HashSet` in non-test library code (`BTreeMap` instead) |
//! | `env-var`      | no `std::env::var` in library code (knobs: `patu_bench::knobs`)      |
//! | `float-fmt`    | floats enter JSON via `patu_obs::json::{num,num_fixed}`, never `{:.N}`|
//! | `unsafe-code`  | `unsafe` forbidden workspace-wide; every lib root carries the forbid |
//! | `extern-dep`   | every `Cargo.toml` dependency is a `path` dependency (offline/0-dep) |
//!
//! The linter is also *interprocedural*: an item parser ([`resolve`]) feeds
//! per-function taint summaries ([`dataflow`]) into a workspace call graph
//! ([`callgraph`]), adding three rules a single-file scan cannot check,
//! plus a debt finding:
//!
//! | id                     | invariant                                                      |
//! |------------------------|----------------------------------------------------------------|
//! | `det-rng-discipline`   | RNG streams cross partition boundaries only as `fork(id)` children, even through calls |
//! | `parallel-float-fold`  | no float reduction grouped/ordered by the thread count, even via a helper |
//! | `schema-sync`          | emitted JSONL `"type"` tags ↔ `LINE_TYPES` registry, both directions |
//! | `unused-pragma`        | every reasoned `allow(...)` still suppresses something          |
//!
//! Scoping: library-crate sources are checked strictly; `crates/bench`,
//! `crates/lint` test fixtures, `tests/`, `benches/`, `examples/` and
//! `src/bin/` targets are relaxed (panic/hash/env rules off, determinism
//! rules still on). `#[cfg(test)]` regions inside library crates are
//! relaxed the same way. A violation that is genuinely unreachable can be
//! suppressed inline with a reasoned pragma:
//!
//! ```text
//! // patu-lint: allow(panic-path) — worker panics must propagate verbatim
//! ```
//!
//! A pragma without a reason, or naming an unknown rule, is itself a
//! diagnostic (`bad-pragma`).
//!
//! Run it as `cargo run -p patu-lint --release`; exit code 0 means the
//! workspace is clean, 1 means violations, 2 means usage or I/O failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod dataflow;
pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod resolve;
pub mod rules;
pub mod schema_sync;
pub mod scope;
pub mod walk;

use std::collections::BTreeMap;
use std::path::Path;

pub use diag::Diagnostic;

/// A failure of the linter itself (not a lint finding): unreadable file,
/// missing root, and the like.
#[derive(Debug)]
pub struct LintError {
    /// What the linter was doing when it failed.
    pub context: String,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.context, self.source)
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Lints every `.rs` and `Cargo.toml` under `root` (skipping `target/`,
/// `out/`, `.git/` and lint-fixture directories), returning all diagnostics
/// in deterministic path-then-line order.
///
/// # Errors
///
/// Returns [`LintError`] when the tree cannot be walked or a file cannot be
/// read — never for lint findings, which are data, not errors.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, LintError> {
    let files = walk::workspace_files(root)?;
    let read = |rel: &str| -> Result<String, LintError> {
        let full = root.join(rel);
        std::fs::read_to_string(&full).map_err(|source| LintError {
            context: format!("reading {}", full.display()),
            source,
        })
    };

    // Manifests first: they both lint and name the crates, and module-path
    // resolution for every `.rs` file needs the crate names.
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut crates: BTreeMap<String, String> = BTreeMap::new();
    let mut rs_files: Vec<&String> = Vec::new();
    for rel in &files {
        if rel.ends_with("Cargo.toml") {
            let src = read(rel)?;
            diags.extend(manifest::lint_manifest(rel, &src));
            if let (Some(dir), Some(name)) = (rel.strip_suffix("/Cargo.toml"), package_name(&src)) {
                crates.insert(dir.to_string(), name.replace('-', "_"));
            }
        } else {
            rs_files.push(rel);
        }
    }

    let mut analyses = BTreeMap::new();
    for rel in rs_files {
        let src = read(rel)?;
        analyses.insert(rel.clone(), rules::analyze_source(rel, &src, &crates));
    }
    diags.extend(check_analyses(analyses));
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(diags)
}

/// Finishes a run over per-file analyses (repo-relative path → analysis):
/// the global interprocedural pass (call-site summaries, float-fmt
/// chains, schema sync), then pragma suppression, then an
/// `unused-pragma` finding for every pragma that suppressed nothing.
#[must_use]
pub fn check_analyses(files: BTreeMap<String, rules::FileAnalysis>) -> Vec<Diagnostic> {
    let mut facts = BTreeMap::new();
    let mut local = Vec::new();
    for (path, analysis) in files {
        facts.insert(path.clone(), analysis.facts);
        local.push((path, analysis.raw, analysis.suppressions));
    }
    let mut global = callgraph::check(&facts);
    global.extend(callgraph::float_chain(&facts));
    let schema_files: Vec<schema_sync::FileTags> = facts
        .iter()
        .map(|(p, f)| (p.clone(), f.emits.clone(), f.registry.clone()))
        .collect();
    global.extend(schema_sync::check(&schema_files));

    // Each file's pragmas cover its own per-file *and* global diagnostics.
    let mut diags = Vec::new();
    for (path, mut raw, suppressions) in local {
        raw.extend(global.iter().filter(|d| d.path == path).cloned());
        let mut used = vec![false; suppressions.len()];
        diags.extend(rules::apply_suppressions(raw, &suppressions, &mut used));
        for (sup, _) in suppressions.iter().zip(&used).filter(|(_, fired)| !**fired) {
            diags.push(Diagnostic {
                rule: "unused-pragma",
                path: path.clone(),
                line: sup.pragma_line,
                message: format!(
                    "`allow({})` no longer suppresses anything — the violation \
                     it covered is gone; remove the pragma",
                    sup.rule
                ),
            });
        }
    }
    diags
}

/// Pulls `name = "..."` out of a manifest's `[package]` section.
fn package_name(src: &str) -> Option<String> {
    let mut in_package = false;
    for line in src.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}
