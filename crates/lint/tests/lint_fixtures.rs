//! Fixture-driven tests of the rule engine: every rule must fire at exactly
//! the marked `file:line`, suppressions must hold, and false-positive bait
//! (banned tokens in strings, comments and test regions) must stay silent.
//!
//! Markers are compiletest-style. In a fixture, a trailing `//~ rule`
//! comment (`#~ rule` in TOML) means "this line must be reported under
//! `rule`"; `//~^ rule` points at the line above (used where the flagged
//! line cannot carry a trailing comment, e.g. a pragma line). A marker may
//! repeat a rule when the line yields several diagnostics.

use patu_lint::manifest::lint_manifest;
use patu_lint::Diagnostic;
use std::collections::BTreeMap;

/// Parses the expected `(rule, line)` set out of a fixture's markers.
fn expected(src: &str, comment: &str) -> Vec<(String, u32)> {
    let marker = format!("{comment}~");
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let Some(pos) = line.find(&marker) else {
            continue;
        };
        let rest = &line[pos + marker.len()..];
        let (target, rules) = match rest.strip_prefix('^') {
            Some(r) => (line_no - 1, r),
            None => (line_no, rest),
        };
        for rule in rules.split_whitespace() {
            out.push((rule.to_string(), target));
        }
    }
    out.sort();
    out
}

/// Lints `src` as the single file `path` through the whole pipeline: the
/// per-file analysis, the interprocedural pass (call-site summaries,
/// float-fmt chains, schema sync) over that file's facts,
/// then pragma suppression and `unused-pragma` debt.
fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
    let crates = BTreeMap::from([("crates/fixture".to_string(), "patu_fixture".to_string())]);
    let analysis = patu_lint::rules::analyze_source(path, src, &crates);
    patu_lint::check_analyses(BTreeMap::from([(path.to_string(), analysis)]))
}

/// Lints `src` as `path` and asserts the diagnostics match the markers.
fn check_source(path: &str, src: &str) {
    let diags = lint(path, src);
    for d in &diags {
        assert_eq!(d.path, path, "diagnostic carries the linted path");
        assert!(!d.message.is_empty(), "diagnostic has a message");
    }
    let mut actual: Vec<(String, u32)> = diags
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect();
    actual.sort();
    assert_eq!(
        actual,
        expected(src, "//"),
        "diagnostics mismatch for {path}"
    );
}

#[test]
fn wall_clock_fixture() {
    check_source(
        "crates/fixture/src/wall_clock.rs",
        include_str!("fixtures/wall_clock.rs"),
    );
}

#[test]
fn thread_spawn_fixture() {
    check_source(
        "crates/fixture/src/thread_spawn.rs",
        include_str!("fixtures/thread_spawn.rs"),
    );
}

#[test]
fn panic_path_fixture() {
    check_source(
        "crates/fixture/src/panic_path.rs",
        include_str!("fixtures/panic_path.rs"),
    );
}

#[test]
fn hash_order_fixture() {
    check_source(
        "crates/fixture/src/hash_order.rs",
        include_str!("fixtures/hash_order.rs"),
    );
}

#[test]
fn env_var_fixture() {
    check_source(
        "crates/fixture/src/env_var.rs",
        include_str!("fixtures/env_var.rs"),
    );
}

#[test]
fn float_fmt_fixture() {
    check_source(
        "crates/fixture/src/float_fmt.rs",
        include_str!("fixtures/float_fmt.rs"),
    );
}

#[test]
fn unsafe_code_fixture() {
    check_source(
        "crates/fixture/src/unsafe_code.rs",
        include_str!("fixtures/unsafe_code.rs"),
    );
}

#[test]
fn lib_root_missing_forbid_fixture() {
    check_source(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/lib_missing_forbid.rs"),
    );
}

#[test]
fn suppression_fixture() {
    check_source(
        "crates/fixture/src/suppressed.rs",
        include_str!("fixtures/suppressed.rs"),
    );
}

#[test]
fn false_positive_fixture_is_silent() {
    let src = include_str!("fixtures/false_positive.rs");
    assert_eq!(
        expected(src, "//"),
        Vec::<(String, u32)>::new(),
        "fixture carries no markers"
    );
    check_source("crates/fixture/src/false_positive.rs", src);
}

#[test]
fn extern_dep_fixture() {
    let src = include_str!("fixtures/extern_dep.toml");
    let mut actual: Vec<(String, u32)> = lint_manifest("crates/fixture/Cargo.toml", src)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect();
    actual.sort();
    assert_eq!(actual, expected(src, "#"), "manifest diagnostics mismatch");
}

#[test]
fn det_rng_fixture() {
    check_source(
        "crates/fixture/src/det_rng.rs",
        include_str!("fixtures/det_rng.rs"),
    );
}

#[test]
fn float_fold_fixture() {
    check_source(
        "crates/fixture/src/float_fold.rs",
        include_str!("fixtures/float_fold.rs"),
    );
}

#[test]
fn float_fmt_chain_fixture() {
    check_source(
        "crates/fixture/src/float_fmt_chain.rs",
        include_str!("fixtures/float_fmt_chain.rs"),
    );
}

#[test]
fn schema_sync_fixture() {
    check_source(
        "crates/fixture/src/schema_sync.rs",
        include_str!("fixtures/schema_sync.rs"),
    );
}

#[test]
fn relaxed_scope_silences_strict_only_rules() {
    let panics = include_str!("fixtures/panic_path.rs");
    assert!(lint("crates/bench/src/bin/fixture.rs", panics).is_empty());
    assert!(lint("crates/gpu/tests/fixture.rs", panics).is_empty());
    let hashes = include_str!("fixtures/hash_order.rs");
    assert!(lint("tests/fixture.rs", hashes).is_empty());
    let envs = include_str!("fixtures/env_var.rs");
    assert!(lint("crates/quality/benches/fixture.rs", envs).is_empty());
}

#[test]
fn determinism_rules_apply_even_in_relaxed_scope() {
    let clocks = include_str!("fixtures/wall_clock.rs");
    assert_eq!(lint("crates/bench/src/bin/fixture.rs", clocks).len(), 4);
    let spawns = include_str!("fixtures/thread_spawn.rs");
    assert_eq!(lint("crates/gpu/tests/fixture.rs", spawns).len(), 2);
    let unsafes = include_str!("fixtures/unsafe_code.rs");
    assert_eq!(lint("tests/fixture.rs", unsafes).len(), 1);
}

#[test]
fn sanctioned_entry_points_are_exempt() {
    let clocks = include_str!("fixtures/wall_clock.rs");
    assert!(lint("crates/bench/src/micro.rs", clocks).is_empty());
    let spawns = include_str!("fixtures/thread_spawn.rs");
    assert!(lint("crates/sim/src/parallel.rs", spawns).is_empty());
}
