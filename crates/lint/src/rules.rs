//! The rule engine: token-sequence matching for the workspace invariants,
//! `#[cfg(test)]`-region detection, and suppression-pragma application.

use crate::diag::Diagnostic;
use crate::lexer::{self, ident, matching_close, punct, Lexed, Tok, TokKind};
use crate::scope::{self, Strictness};
use std::collections::BTreeMap;

/// One row of the rule table (also rendered in DESIGN.md §10).
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id, used in diagnostics and `allow(...)` pragmas.
    pub id: &'static str,
    /// The invariant the rule enforces.
    pub invariant: &'static str,
}

/// Every rule `patu-lint` knows, in diagnostic order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        invariant: "no Instant/SystemTime outside patu_bench::micro — simulated \
                    cycles are the only clock, so reruns are bit-identical",
    },
    RuleInfo {
        id: "thread-spawn",
        invariant: "no std::thread::{spawn,scope} outside patu_sim::parallel — \
                    all concurrency goes through the deterministic task runner",
    },
    RuleInfo {
        id: "panic-path",
        invariant: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in \
                    non-test library code — errors are typed end-to-end",
    },
    RuleInfo {
        id: "hash-order",
        invariant: "no HashMap/HashSet in non-test library code — iteration \
                    order must be deterministic (BTreeMap, or sort + allow)",
    },
    RuleInfo {
        id: "env-var",
        invariant: "no std::env::var in library code — every PATU_* knob is \
                    read once, by patu_bench::knobs, and reaches libraries as \
                    a config value",
    },
    RuleInfo {
        id: "float-fmt",
        invariant: "floats enter JSON through patu_obs::json::{num,num_fixed} \
                    (null-safe), never a raw {:.N} format spec",
    },
    RuleInfo {
        id: "unsafe-code",
        invariant: "unsafe is forbidden workspace-wide, and every library \
                    crate root carries #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "extern-dep",
        invariant: "every Cargo.toml dependency is a path dependency — the \
                    workspace builds offline with zero external crates",
    },
    RuleInfo {
        id: "det-rng-discipline",
        invariant: "inside a parallel partition only region-local streams and \
                    fresh fork(tag) children may be drawn — a stream captured \
                    or cloned across the boundary makes draws race with the \
                    schedule",
    },
    RuleInfo {
        id: "parallel-float-fold",
        invariant: "no float reduction grouped by PATU_THREADS-derived values — \
                    reassociation across thread counts breaks bit-identity; \
                    reduce through the ordered partition APIs",
    },
    RuleInfo {
        id: "schema-sync",
        invariant: "every emitted JSONL \"type\" is registered in \
                    patu_obs::schema::LINE_TYPES and every registered type \
                    has a live emitter",
    },
    RuleInfo {
        id: "unused-pragma",
        invariant: "every allow(...) pragma still suppresses something — \
                    stale suppressions are debt",
    },
];

/// Files exempt from a rule because they *are* the sanctioned entry point.
/// The call-graph half of `parallel-float-fold` reads the same list.
pub(crate) fn allowed_files(rule: &str) -> &'static [&'static str] {
    match rule {
        "wall-clock" => &["crates/bench/src/micro.rs"],
        "thread-spawn" => &["crates/sim/src/parallel.rs"],
        "float-fmt" => &["crates/obs/src/json.rs"],
        // The partition runners are the sanctioned ordered-merge
        // implementations; their internals look exactly like the pattern
        // the rule bans everywhere else.
        "parallel-float-fold" => &["crates/sim/src/parallel.rs", "crates/quality/src/par.rs"],
        _ => &[],
    }
}

/// Whether `id` names a known rule (valid inside `allow(...)`).
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Marks every token inside a `#[cfg(test)]`-gated item (or after an inner
/// `#![cfg(test)]`) as test code, where the strict-only rules do not apply.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !punct(toks, i, '#') {
            i += 1;
            continue;
        }
        let inner = punct(toks, i + 1, '!');
        let open = i + 1 + usize::from(inner);
        if !punct(toks, open, '[') {
            i += 1;
            continue;
        }
        // The attribute body runs to its matching `]`.
        let j = matching_close(toks, open) + 1;
        let saw = |id| (open..j).any(|k| ident(toks, k) == Some(id));
        if !(saw("cfg") && saw("test")) {
            i = j;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole enclosing file is test-only.
            for m in mask.iter_mut().skip(i) {
                *m = true;
            }
            return mask;
        }
        // Skip any further attributes on the same item.
        let mut k = j;
        while punct(toks, k, '#') && punct(toks, k + 1, '[') {
            k = matching_close(toks, k + 1) + 1;
        }
        // The gated item runs to its matching `}` (or a terminating `;`).
        let mut m = k;
        while m < toks.len() && !punct(toks, m, '{') && !punct(toks, m, ';') {
            m += 1;
        }
        let end = if punct(toks, m, '{') {
            matching_close(toks, m) + 1
        } else {
            (m + 1).min(toks.len())
        };
        for flag in mask.iter_mut().take(end).skip(i) {
            *flag = true;
        }
        i = end;
    }
    mask
}

/// Whether a format-string literal (raw source text, quotes included) pairs
/// a JSON key (`":`) with a float-style placeholder (`{..:..[.e]..}`).
fn json_float_spec(text: &str) -> bool {
    text.contains("\":") && crate::dataflow::float_spec(text)
}

fn applies(rule: &str, rel_path: &str) -> bool {
    !allowed_files(rule).contains(&rel_path)
}

/// Everything the pipeline derives from one source file: the raw
/// (pre-suppression) per-file diagnostics, the pragma suppression table,
/// and the facts the global interprocedural pass
/// ([`crate::check_analyses`]) consumes.
#[derive(Debug, Default, Clone)]
pub struct FileAnalysis {
    /// Per-file diagnostics before pragma suppression (`bad-pragma`
    /// findings included — those are never suppressible).
    pub raw: Vec<Diagnostic>,
    /// The file's well-formed, reasoned suppressions.
    pub suppressions: Vec<Suppression>,
    /// Call/taint/schema facts for the global pass.
    pub facts: crate::dataflow::FileFacts,
}

/// The full per-file analysis: token rules, intraprocedural dataflow, and
/// fact extraction. `crates` maps `crates/<dir>` → package name for module
/// path resolution.
#[must_use]
pub fn analyze_source(
    rel_path: &str,
    src: &str,
    crates: &BTreeMap<String, String>,
) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let strict = scope::classify(rel_path) == Strictness::Strict;
    let in_test = test_mask(&lexed.toks);
    let mut raw = token_diags(rel_path, &lexed.toks, &in_test, strict);
    let (bad, suppressions) = pragma_table(rel_path, &lexed);
    raw.extend(bad);

    let idx = crate::resolve::index_file(rel_path, &lexed.toks, crates);
    let mut fns = Vec::new();
    for f in &idx.fns {
        let fn_in_test = in_test.get(f.decl).copied().unwrap_or(false);
        let report = strict && !fn_in_test;
        let mut facts =
            crate::dataflow::analyze_fn(rel_path, &idx, f, &lexed.toks, report, &mut raw);
        facts.in_test = fn_in_test;
        fns.push(facts);
    }
    // Schema emissions/registry only count from strict code: fixtures and
    // bench output are not telemetry contracts.
    let (emits, registry) = if strict {
        crate::schema_sync::scan(rel_path, &lexed.toks, &in_test)
    } else {
        (Vec::new(), Vec::new())
    };
    raw.retain(|d| applies(d.rule, rel_path));
    FileAnalysis {
        raw,
        suppressions,
        facts: crate::dataflow::FileFacts {
            fns,
            emits,
            registry,
        },
    }
}

/// Runs the token-sequence rules over one lexed file.
fn token_diags(rel_path: &str, toks: &[Tok], in_test: &[bool], strict: bool) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    let push = |rule: &'static str, line: u32, message: String, raw: &mut Vec<Diagnostic>| {
        raw.push(Diagnostic {
            rule,
            path: rel_path.to_string(),
            line,
            message,
        });
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        let strict_here = strict && !in_test[i];
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                name @ ("Instant" | "SystemTime") if applies("wall-clock", rel_path) => {
                    push(
                        "wall-clock",
                        t.line,
                        format!(
                            "wall-clock source `{name}` — simulated cycles are the only \
                             clock here; time through `patu_bench::micro` instead"
                        ),
                        &mut raw,
                    );
                }
                "thread"
                    if punct(toks, i + 1, ':')
                        && punct(toks, i + 2, ':')
                        && matches!(ident(toks, i + 3), Some("spawn" | "scope"))
                        && applies("thread-spawn", rel_path) =>
                {
                    let what = ident(toks, i + 3).unwrap_or("spawn");
                    push(
                        "thread-spawn",
                        t.line,
                        format!(
                            "`std::thread::{what}` outside `patu_sim::parallel` — use the \
                             deterministic task runner (`parallel::run_tasks`)"
                        ),
                        &mut raw,
                    );
                }
                "env"
                    if strict_here
                        && punct(toks, i + 1, ':')
                        && punct(toks, i + 2, ':')
                        && matches!(ident(toks, i + 3), Some("var" | "var_os" | "vars"))
                        && applies("env-var", rel_path) =>
                {
                    push(
                        "env-var",
                        t.line,
                        "`std::env::var` in library code — `PATU_*` knobs are read \
                         once, by `patu_bench::knobs`, and passed in as config values"
                            .to_string(),
                        &mut raw,
                    );
                }
                name @ ("HashMap" | "HashSet") if strict_here => {
                    push(
                        "hash-order",
                        t.line,
                        format!(
                            "`{name}` in library code can leak nondeterministic iteration \
                             order into outputs — use `BTreeMap`/`BTreeSet`, or sort at the \
                             site and justify with a pragma"
                        ),
                        &mut raw,
                    );
                }
                name @ ("unwrap" | "expect")
                    if strict_here
                        && punct(toks, i.wrapping_sub(1), '.')
                        && punct(toks, i + 1, '(') =>
                {
                    push(
                        "panic-path",
                        t.line,
                        format!(
                            "`.{name}()` in non-test library code — return a typed error, \
                             restructure to an infallible pattern, or justify with \
                             `patu-lint: allow(panic-path)`"
                        ),
                        &mut raw,
                    );
                }
                name @ ("panic" | "unreachable" | "todo" | "unimplemented")
                    if strict_here && punct(toks, i + 1, '!') =>
                {
                    push(
                        "panic-path",
                        t.line,
                        format!(
                            "`{name}!` in non-test library code — library crates report \
                             typed errors end-to-end"
                        ),
                        &mut raw,
                    );
                }
                "unsafe" => {
                    push(
                        "unsafe-code",
                        t.line,
                        "`unsafe` is forbidden workspace-wide".to_string(),
                        &mut raw,
                    );
                }
                _ => {}
            },
            // Test regions hold JSON *data* literals (schema fixtures), not
            // sinks — only live code feeds floats into artifacts.
            TokKind::Str
                if !in_test[i] && applies("float-fmt", rel_path) && json_float_spec(&t.text) =>
            {
                push(
                    "float-fmt",
                    t.line,
                    "float format spec inside a JSON literal — non-finite values \
                     would emit `inf`/`NaN`; route through `patu_obs::json::num` / \
                     `num_fixed`"
                        .to_string(),
                    &mut raw,
                );
            }
            _ => {}
        }
    }

    if scope::is_lib_root(rel_path) && !has_forbid_unsafe(toks) {
        raw.push(Diagnostic {
            rule: "unsafe-code",
            path: rel_path.to_string(),
            line: 1,
            message: "library crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    raw
}

fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    (0..toks.len()).any(|i| {
        ident(toks, i) == Some("forbid")
            && punct(toks, i + 1, '(')
            && ident(toks, i + 2) == Some("unsafe_code")
    })
}

/// One reasoned `allow(...)` pragma, resolved to the line it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Suppression {
    /// The rule the pragma allows.
    pub rule: String,
    /// The code line the pragma covers (its own line, or the next line
    /// bearing code when the pragma stands alone).
    pub target: u32,
    /// Where the pragma itself lives, for `unused-pragma` reporting.
    pub pragma_line: u32,
}

/// Validates pragmas, returning `bad-pragma` findings for the ill-formed
/// ones and a [`Suppression`] table for the rest. A pragma on a code line
/// covers that line; a pragma on its own line covers the next line bearing
/// code.
#[must_use]
pub fn pragma_table(rel_path: &str, lexed: &Lexed) -> (Vec<Diagnostic>, Vec<Suppression>) {
    let mut token_lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
    token_lines.sort_unstable();
    token_lines.dedup();

    let mut sups: Vec<Suppression> = Vec::new();
    let mut out: Vec<Diagnostic> = Vec::new();

    for p in &lexed.pragmas {
        if !p.well_formed {
            out.push(Diagnostic {
                rule: "bad-pragma",
                path: rel_path.to_string(),
                line: p.line,
                message: format!(
                    "unrecognized pragma — expected `{} allow(<rule>) — <reason>`",
                    lexer::PRAGMA_MARKER
                ),
            });
            continue;
        }
        if !p.has_reason {
            out.push(Diagnostic {
                rule: "bad-pragma",
                path: rel_path.to_string(),
                line: p.line,
                message: "suppression pragma needs a reason after `allow(...)`".to_string(),
            });
            continue;
        }
        let mut all_known = true;
        for rule in &p.rules {
            if !is_known_rule(rule) {
                all_known = false;
                out.push(Diagnostic {
                    rule: "bad-pragma",
                    path: rel_path.to_string(),
                    line: p.line,
                    message: format!("unknown rule `{rule}` in allow(...)"),
                });
            }
        }
        if !all_known {
            continue;
        }
        let target = if token_lines.binary_search(&p.line).is_ok() {
            p.line
        } else {
            let next = token_lines.partition_point(|&l| l <= p.line);
            token_lines.get(next).copied().unwrap_or(p.line)
        };
        for rule in &p.rules {
            sups.push(Suppression {
                rule: rule.clone(),
                target,
                pragma_line: p.line,
            });
        }
    }
    (out, sups)
}

/// Filters out diagnostics the suppressions cover, marking each
/// suppression that actually fired in `used` (same indexing as `sups`).
#[must_use]
pub fn apply_suppressions(
    raw: Vec<Diagnostic>,
    sups: &[Suppression],
    used: &mut [bool],
) -> Vec<Diagnostic> {
    raw.into_iter()
        .filter(|d| {
            let mut hit = false;
            for (i, s) in sups.iter().enumerate() {
                if s.rule == d.rule && s.target == d.line {
                    hit = true;
                    if let Some(u) = used.get_mut(i) {
                        *u = true;
                    }
                }
            }
            !hit
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/fake/src/engine.rs";
    const BIN: &str = "crates/bench/src/bin/fake.rs";

    fn rules_hit(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        let analysis = analyze_source(path, src, &BTreeMap::new());
        crate::check_analyses(BTreeMap::from([(path.to_string(), analysis)]))
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn banned_tokens_in_strings_and_comments_are_ignored() {
        let src = "// .unwrap() HashMap Instant std::thread::spawn\n\
                   fn f() -> &'static str { \"Instant::now() HashMap unsafe\" }\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(1).max(x.unwrap_or_default()) }\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn cfg_test_mod_is_exempt_from_strict_rules() {
        let src = "fn good() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       #[test]\n\
                       fn t() { let m: HashMap<u32, u32> = HashMap::new(); \
                        assert_eq!(m.len(), 0); Some(1).unwrap(); }\n\
                   }\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn wall_clock_applies_even_to_test_mods_and_bins() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = Instant::now(); }\n}\n";
        assert_eq!(rules_hit(LIB, src), vec![("wall-clock", 3)]);
        assert_eq!(
            rules_hit(BIN, "fn main() { let _ = Instant::now(); }\n"),
            vec![("wall-clock", 1)]
        );
    }

    #[test]
    fn strict_rules_skip_relaxed_files() {
        let src =
            "fn main() { Some(1).unwrap(); let _ = std::collections::HashMap::<u8, u8>::new(); }\n";
        assert!(rules_hit(BIN, src).is_empty());
    }

    #[test]
    fn pragma_suppresses_exactly_its_line() {
        let src = "// patu-lint: allow(panic-path) — provably non-empty by construction\n\
                   fn f(v: &[u32]) -> u32 { v.first().copied().expect(\"non-empty\") }\n\
                   fn g(v: &[u32]) -> u32 { v.first().copied().expect(\"non-empty\") }\n";
        assert_eq!(rules_hit(LIB, src), vec![("panic-path", 3)]);
    }

    #[test]
    fn reasonless_or_unknown_pragmas_are_diagnosed() {
        let src = "// patu-lint: allow(panic-path)\n\
                   fn f(v: &[u32]) -> u32 { v.first().copied().expect(\"x\") }\n\
                   // patu-lint: allow(no-such-rule) — because\n\
                   fn g() {}\n";
        let hits = rules_hit(LIB, src);
        assert!(hits.contains(&("bad-pragma", 1)));
        assert!(
            hits.contains(&("panic-path", 2)),
            "reasonless pragma must not suppress"
        );
        assert!(hits.contains(&("bad-pragma", 3)));
    }

    #[test]
    fn json_float_spec_detection() {
        assert!(json_float_spec(r#""{{\"mean\": {:.1}}}""#));
        assert!(json_float_spec(r#""\"p90_ns\": {v:.3},""#));
        assert!(
            !json_float_spec(r#""{:>10.1} cycles""#),
            "not JSON — no key"
        );
        assert!(
            !json_float_spec(r#""\"count\": {}""#),
            "plain placeholder is fine"
        );
        assert!(!json_float_spec(r#""{{\"label\": \"{}\"}}""#));
        // JSON *data* (a literal `{` with quoted keys) is not a format sink.
        assert!(!json_float_spec(
            r#""{\"type\":\"hist\",\"mean\":2.5,\"p50\":8}""#
        ));
    }

    #[test]
    fn lib_root_without_forbid_is_flagged() {
        let hits = rules_hit("crates/fake/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(hits, vec![("unsafe-code", 1)]);
        let clean = rules_hit(
            "crates/fake/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        );
        assert!(clean.is_empty());
    }

    #[test]
    fn env_var_fires_in_strict_paths_only() {
        let src = "pub fn knob() -> Option<String> { std::env::var(\"PATU_X\").ok() }\n";
        for strict in [
            LIB,
            "crates/sim/src/parallel.rs",
            "crates/obs/src/config.rs",
        ] {
            let hits = rules_hit(strict, src);
            assert_eq!(hits, vec![("env-var", 1)], "{strict}");
        }
        for relaxed in ["crates/bench/src/knobs.rs", BIN, "tests/fixture.rs"] {
            assert!(rules_hit(relaxed, src).is_empty(), "{relaxed}");
        }
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let src = "#![cfg(test)]\nfn helper() { Some(1).unwrap(); }\n";
        assert!(rules_hit(LIB, src).is_empty());
    }
}
