//! The workspace call graph and the interprocedural rules that run on it.
//!
//! Nodes are every function the item parser found (excluding
//! `#[cfg(test)]` functions, which never resolve as targets); edges come
//! from the per-function [`CallFact`]s. Path calls resolve by crate +
//! suffix (so re-exports like `patu_gmath::DetRng` match the defining
//! module `patu_gmath::rng::DetRng`); method calls resolve by unique-ish
//! bare name with the common `std` method names blocklisted — a documented
//! under-approximation that keeps the graph precise enough for the rules
//! below.
//!
//! Rules implemented here:
//!
//! * `det-rng-discipline` (interprocedural half) — a call that passes an
//!   RNG stream to a function whose summary says the matching parameter
//!   crosses a partition boundary is flagged at the call site.
//! * `parallel-float-fold` (interprocedural half) — a call that passes a
//!   thread-derived value to a function whose summary says the matching
//!   parameter groups a float reduction is flagged at the call site.

use crate::dataflow::FileFacts;
use crate::diag::Diagnostic;
use crate::rules;
use crate::scope::{self, Strictness};
use std::collections::BTreeMap;

struct Node<'a> {
    path: &'a str,
    facts: &'a crate::dataflow::FnFacts,
}

/// Runs every interprocedural rule over the per-file facts. `files` maps
/// repo-relative path → that file's [`FileFacts`].
pub fn check(files: &BTreeMap<String, FileFacts>) -> Vec<Diagnostic> {
    let mut nodes: Vec<Node<'_>> = Vec::new();
    for (path, facts) in files {
        for f in &facts.fns {
            if !f.in_test {
                nodes.push(Node { path, facts: f });
            }
        }
    }
    // Name index for resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.facts.name.as_str()).or_default().push(i);
    }
    let resolve = |target: &str| -> Vec<usize> {
        if let Some(method) = target.strip_prefix("M:") {
            return by_name.get(method).cloned().unwrap_or_default();
        }
        let Some(path) = target.strip_prefix("P:") else {
            return Vec::new();
        };
        let Some(last) = path.rsplit("::").next() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &i in by_name.get(last).map(Vec::as_slice).unwrap_or(&[]) {
            let qual = nodes[i].facts.qual.as_str();
            if qual == path {
                out.push(i);
                continue;
            }
            // Crate + suffix match: `patu_gmath::DetRng::new` resolves to
            // `patu_gmath::rng::DetRng::new`.
            let krate = qual.split("::").next().unwrap_or("");
            if !krate.is_empty() && path.starts_with(krate) {
                if let Some(tail) = path.strip_prefix(krate).and_then(|t| t.strip_prefix("::")) {
                    if qual.ends_with(&format!("::{tail}")) {
                        out.push(i);
                    }
                }
            }
        }
        out
    };

    call_site_rules(&nodes, &resolve)
}

/// The depth-1 summary checks at call sites: RNG streams passed into
/// partition-crossing parameters, thread-derived values passed into
/// float-fold-grouping parameters.
fn call_site_rules(nodes: &[Node<'_>], resolve: &dyn Fn(&str) -> Vec<usize>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let fold_exempt = rules::allowed_files("parallel-float-fold");
    for n in nodes {
        if scope::classify(n.path) != Strictness::Strict {
            continue;
        }
        for call in &n.facts.calls {
            if call.rng_args.is_empty() && call.thread_args.is_empty() {
                continue;
            }
            let is_partition =
                call.target.ends_with("::run_tasks") || call.target.ends_with("::map_rows");
            for j in resolve(&call.target) {
                let callee = &nodes[j];
                for arg in &call.rng_args {
                    // Methods shift explicit args by one (`self` is param 0).
                    let hits = callee.facts.rng_cross_params.contains(arg)
                        || (call.target.starts_with("M:")
                            && callee.facts.rng_cross_params.contains(&(arg + 1)));
                    if hits {
                        diags.push(Diagnostic {
                            rule: "det-rng-discipline",
                            path: n.path.to_string(),
                            line: call.line,
                            message: format!(
                                "RNG stream passed to `{}`, which draws this parameter \
                                 inside a parallel partition — pass a `fork(tag)` child \
                                 so the callee's tasks cannot share the caller's stream",
                                callee.facts.qual
                            ),
                        });
                    }
                }
                if is_partition || fold_exempt.contains(&callee.path) {
                    continue;
                }
                for arg in &call.thread_args {
                    let hits = callee.facts.thread_fold_params.contains(arg)
                        || (call.target.starts_with("M:")
                            && callee.facts.thread_fold_params.contains(&(arg + 1)));
                    if hits {
                        diags.push(Diagnostic {
                            rule: "parallel-float-fold",
                            path: n.path.to_string(),
                            line: call.line,
                            message: format!(
                                "thread-derived value passed to `{}`, which groups a \
                                 float reduction by this parameter — the partial sums \
                                 would reorder with `PATU_THREADS`; reduce through the \
                                 ordered partition APIs",
                                callee.facts.qual
                            ),
                        });
                    }
                }
            }
        }
    }
    diags
}

/// The float-fmt chain closure across calls: a binding whose initializer
/// calls a function returning a float-formatted string, later used in a
/// JSON-keyed macro in the same caller.
pub fn float_chain(files: &BTreeMap<String, FileFacts>) -> Vec<Diagnostic> {
    let mut float_fns: Vec<&str> = Vec::new();
    for facts in files.values() {
        for f in &facts.fns {
            if f.returns_float_string && !f.in_test {
                float_fns.push(f.name.as_str());
            }
        }
    }
    let mut diags = Vec::new();
    if float_fns.is_empty() {
        return diags;
    }
    for (path, facts) in files {
        if scope::classify(path) != Strictness::Strict {
            continue;
        }
        for f in &facts.fns {
            // Bindings in this function whose value came from a
            // float-string-returning call.
            let mut tainted_binds: Vec<&str> = Vec::new();
            for call in &f.calls {
                if call.binds.is_empty() {
                    continue;
                }
                let callee_name = call
                    .target
                    .trim_start_matches("M:")
                    .trim_start_matches("P:")
                    .rsplit("::")
                    .next()
                    .unwrap_or("");
                if float_fns.contains(&callee_name) {
                    tainted_binds.push(call.binds.as_str());
                }
            }
            if tainted_binds.is_empty() {
                continue;
            }
            for (line, args) in &f.json_sinks {
                for arg in args {
                    if tainted_binds.contains(&arg.as_str()) {
                        diags.push(Diagnostic {
                            rule: "float-fmt",
                            path: path.clone(),
                            line: *line,
                            message: format!(
                                "`{arg}` holds a float-formatted string (from a callee's \
                                 `format!(\"{{:.N}}\")`) and reaches a JSON literal here — \
                                 route the number through `patu_obs::json::num`/`num_fixed`"
                            ),
                        });
                    }
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::resolve;

    fn facts_for(path: &str, src: &str) -> (String, FileFacts) {
        let lexed = lexer::lex(src);
        // Mirror the workspace convention: `crates/<dir>` holds `patu-<dir>`.
        let mut crates = BTreeMap::new();
        if let Some(dir) = path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
        {
            crates.insert(format!("crates/{dir}"), format!("patu_{dir}"));
        }
        let idx = resolve::index_file(path, &lexed.toks, &crates);
        let mask = rules::test_mask(&lexed.toks);
        let mut diags = Vec::new();
        let fns = idx
            .fns
            .iter()
            .map(|f| {
                let mut facts =
                    crate::dataflow::analyze_fn(path, &idx, f, &lexed.toks, false, &mut diags);
                facts.in_test = mask.get(f.decl).copied().unwrap_or(false);
                facts
            })
            .collect();
        (
            path.to_string(),
            FileFacts {
                fns,
                emits: Vec::new(),
                registry: Vec::new(),
            },
        )
    }

    #[test]
    fn cross_crate_rng_summary_flags_the_call_site() {
        let mut files = BTreeMap::new();
        let (p1, f1) = facts_for(
            "crates/sim/src/jobs.rs",
            "use patu_gmath::DetRng;\nuse patu_fault::inject_all;\n\
             pub fn drive(seed: u64) -> u64 {\n\
                 let mut rng = DetRng::new(seed);\n\
                 inject_all(&mut rng)\n\
             }\n",
        );
        let (p2, f2) = facts_for(
            "crates/fault/src/lib.rs",
            "use patu_sim::parallel;\nuse patu_gmath::DetRng;\n\
             pub fn inject_all(rng: &mut DetRng) -> u64 {\n\
                 parallel::run_tasks(4, (0..8).map(|i| Box::new(move || rng.next_u64() ^ i) as parallel::Task<'_, u64>).collect()).iter().count() as u64\n\
             }\n",
        );
        files.insert(p1, f1);
        files.insert(p2, f2);
        let diags = check(&files);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "det-rng-discipline");
        assert_eq!(diags[0].path, "crates/sim/src/jobs.rs");
    }

    #[test]
    fn cross_crate_fold_summary_flags_the_call_site() {
        let mut files = BTreeMap::new();
        let (p1, f1) = facts_for(
            "crates/sim/src/stats.rs",
            "use patu_sim::parallel;\nuse patu_stats::grouped_mean;\n\
             pub fn summarize(explicit: Option<usize>, vals: &[f64]) -> f64 {\n\
                 let t = parallel::thread_count(explicit);\n\
                 grouped_mean(t, vals)\n\
             }\n",
        );
        let (p2, f2) = facts_for(
            "crates/stats/src/lib.rs",
            "pub fn grouped_mean(groups: usize, vals: &[f64]) -> f64 {\n\
                 let mut partials = vec![0.0f64; groups];\n\
                 for (i, v) in vals.iter().enumerate() { partials[i % groups] += v; }\n\
                 partials.iter().sum::<f64>() / vals.len() as f64\n\
             }\n",
        );
        files.insert(p1, f1);
        files.insert(p2, f2);
        let diags = check(&files);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "parallel-float-fold");
        assert_eq!(diags[0].path, "crates/sim/src/stats.rs");
    }

    #[test]
    fn test_functions_never_resolve_as_targets() {
        let mut files = BTreeMap::new();
        let (p1, f1) = facts_for(
            "crates/sim/src/stats.rs",
            "use patu_sim::parallel;\n\
             pub fn summarize(explicit: Option<usize>, vals: &[f64]) -> f64 {\n\
                 let t = parallel::thread_count(explicit);\n\
                 grouped_mean(t, vals)\n\
             }\n\
             #[cfg(test)]\nmod tests {\n\
                 pub fn grouped_mean(groups: usize, vals: &[f64]) -> f64 {\n\
                     let mut partials = vec![0.0f64; groups];\n\
                     for (i, v) in vals.iter().enumerate() { partials[i % groups] += v; }\n\
                     partials.iter().sum::<f64>()\n\
                 }\n\
             }\n",
        );
        files.insert(p1, f1);
        assert!(check(&files).is_empty());
    }

    #[test]
    fn float_chain_crosses_function_boundaries() {
        let mut files = BTreeMap::new();
        let (p1, f1) = facts_for(
            "crates/obs/src/report.rs",
            "fn pct(x: f64) -> String { format!(\"{x:.1}%\") }\n\
             pub fn render(x: f64) -> String {\n\
                 let shown = pct(x);\n\
                 format!(\"{{\\\"pct\\\": \\\"{}\\\"}}\", shown)\n\
             }\n",
        );
        files.insert(p1, f1);
        let diags = float_chain(&files);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "float-fmt");
    }
}
