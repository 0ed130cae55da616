//! Flow-sensitive intraprocedural dataflow over function bodies, plus the
//! per-function summaries the call graph propagates across files.
//!
//! Two taint lattices ride the same linear pass:
//!
//! * **RNG streams** — every local is classified by origin
//!   (`DetRng::new`, `.fork(..)` child, `.clone()`/copy of another stream,
//!   or a `DetRng` parameter). Inside a *partition region* (the closure
//!   arguments of `patu_sim::parallel::run_tasks` and
//!   `quality::par::map_rows`, plus statements building `parallel::Task`
//!   vectors) only region-local streams and fresh `fork` children may be
//!   drawn; drawing, cloning, or passing a stream captured from outside the
//!   region is a `det-rng-discipline` violation, as is re-seeding
//!   `DetRng::new` from a drawn value anywhere.
//!
//! * **Float accumulators** — values derived from
//!   `parallel::thread_count`/`available_parallelism` are *thread-tainted*.
//!   A float collection sized or indexed by a thread-tainted value, or a
//!   `chunks(thread_tainted)` grouping, that feeds `sum()`/`fold`/
//!   `product()` is a `parallel-float-fold` violation: the reduction order
//!   depends on `PATU_THREADS`. The ordered-merge results returned by the
//!   partition APIs themselves are untainted — that is the sanctioned path.
//!
//! The same pass extends `float-fmt` across `format!`/`write!`/
//! `format_args!` chains: a string formatted with a float spec that later
//! lands inside a JSON-keyed literal is flagged at the sink.
//!
//! Both lattices are deliberately shallow (assignments are processed in
//! source order, last-write-wins, no branch joins) and the summaries are
//! depth-1: taint that crosses more than one call boundary is caught at the
//! first boundary it crosses. That is enough for every pattern the
//! workspace actually uses, and it keeps a full-workspace run linear.

use crate::diag::Diagnostic;
use crate::lexer::{ident, is_path_sep, matching_close, punct, Tok, TokKind};
use crate::resolve::{FileIndex, FnItem};
use std::collections::BTreeMap;

/// `DetRng` methods that advance the stream.
pub const DRAW_METHODS: &[&str] = &[
    "next_u64",
    "next_u32",
    "next_f64",
    "next_f32",
    "range",
    "range_between",
    "chance",
];

/// Method names too generic to resolve across the workspace; calls through
/// them never create call-graph edges (documented under-approximation).
pub const COMMON_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "borrow",
    "borrow_mut",
    "bytes",
    "ceil",
    "chars",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "end",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "fork",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_finite",
    "is_some",
    "is_none",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "map_err",
    "map_or",
    "max",
    "min",
    "ne",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "parse",
    "partial_cmp",
    "pixels",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "read",
    "remove",
    "resize",
    "retain",
    "rev",
    "round",
    "skip",
    "sort",
    "sort_unstable",
    "split",
    "sqrt",
    "start",
    "starts_with",
    "sum",
    "take",
    "then",
    "then_some",
    "to_bits",
    "to_owned",
    "to_string",
    "trim",
    "try_from",
    "try_into",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "windows",
    "write",
    "zip",
];

/// Rust keywords and enum constructors that look like calls but are not.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "as", "in", "move", "else", "let", "fn",
    "impl", "pub", "use", "mod", "where", "ref", "mut", "box", "await", "dyn", "type", "const",
    "static", "struct", "enum", "trait", "crate", "self", "Self", "super", "break", "continue",
    "true", "false", "Some", "None", "Ok", "Err", "Box", "Vec", "String",
];

/// How an RNG local came to exist.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RngOrigin {
    /// `DetRng::new(..)` or a `.fork(..)` child: an independent stream.
    Fresh,
    /// `.clone()` or a plain copy of another stream: shares its sequence.
    Shared,
    /// A `DetRng` function parameter (index into the signature).
    Param(usize),
}

#[derive(Debug, Clone)]
struct RngVar {
    origin: RngOrigin,
    decl: usize,
}

/// What a thread-taint mark means.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Taint {
    /// Provably derived from `thread_count`/`available_parallelism`.
    Thread,
    /// Derived from a function parameter (index): a *conditional* taint
    /// that becomes real when a caller passes a thread-derived argument.
    Param(usize),
}

/// One call site, as the call graph sees it.
#[derive(Debug, Clone)]
pub struct CallFact {
    /// `P:<absolute::path>` for path/bare calls, `M:<name>` for methods.
    pub target: String,
    /// 1-based line.
    pub line: u32,
    /// Argument positions holding a non-fresh RNG identifier.
    pub rng_args: Vec<usize>,
    /// Argument positions holding a thread-tainted identifier.
    pub thread_args: Vec<usize>,
    /// The `let` binding receiving the call's result, when there is one.
    pub binds: String,
}

/// Facts about one function, as the global pass consumes them.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Fully qualified name.
    pub qual: String,
    /// Bare name (for method-call matching).
    pub name: String,
    /// Call sites in body order.
    pub calls: Vec<CallFact>,
    /// Parameter indices of `DetRng` params used inside a partition region.
    pub rng_cross_params: Vec<usize>,
    /// Parameter indices that group a float reduction when thread-tainted.
    pub thread_fold_params: Vec<usize>,
    /// Whether the function returns a float-formatted string.
    pub returns_float_string: bool,
    /// JSON-keyed macro literals: (line, argument identifiers).
    pub json_sinks: Vec<(u32, Vec<String>)>,
    /// Whether the function lives inside a `#[cfg(test)]` region; test
    /// functions never act as call-graph resolution targets.
    pub in_test: bool,
}

/// Everything the global pass needs from one file.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Per-function facts in declaration order.
    pub fns: Vec<FnFacts>,
    /// JSONL `"type"` strings emitted from non-test code: (type, line).
    pub emits: Vec<(String, u32)>,
    /// `patu_obs::schema::LINE_TYPES` registry entries found here.
    pub registry: Vec<(String, u32)>,
}

/// Whether a format-literal (raw source, quotes included) contains a float
/// format spec (`{:.N}`, `{v:.3}`, `{x:e}`) — JSON key or not.
pub fn float_spec(text: &str) -> bool {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if i + 1 < bytes.len() && bytes[i + 1] == b'{' {
                i += 2;
                continue;
            }
            if let Some(off) = bytes[i + 1..].iter().position(|&b| b == b'}') {
                let inner = &text[i + 1..i + 1 + off];
                // A literal `{` inside a JSON *data* string (as opposed to a
                // format placeholder) drags quotes, spaces or commas into
                // `inner` — a real format spec never contains those.
                if !inner.contains(['"', '\\', ' ', ',', '{']) {
                    if let Some((_, spec)) = inner.split_once(':') {
                        if spec.contains('.') || spec.ends_with('e') || spec.ends_with('E') {
                            return true;
                        }
                    }
                    i += off + 2;
                    continue;
                }
            }
        }
        i += 1;
    }
    false
}

/// If the identifier at `i` heads a call (possibly through a `::<..>`
/// turbofish), returns the index of the opening `(`.
fn call_paren(toks: &[Tok], i: usize) -> Option<usize> {
    if punct(toks, i + 1, '(') {
        return Some(i + 1);
    }
    if !is_path_sep(toks, i + 1) || !punct(toks, i + 3, '<') {
        return None;
    }
    let after = matching_close(toks, i + 3) + 1;
    punct(toks, after, '(').then_some(after)
}

/// Whether an absolute call path is one of the ordered-merge partition
/// APIs whose closure arguments form a partition region.
fn is_partition_api(path: &str) -> bool {
    path.ends_with("::run_tasks") || path.ends_with("::map_rows")
}

/// Walks a path call backwards from the final segment at `i`, returning the
/// segment list (`["parallel", "run_tasks"]`).
fn path_segments(toks: &[Tok], i: usize) -> (Vec<String>, usize) {
    let mut segs = vec![toks[i].text.clone()];
    let mut first = i;
    let mut j = i;
    while j >= 2 && punct(toks, j - 1, ':') && punct(toks, j - 2, ':') {
        if j >= 3 {
            if let Some(prev) = ident(toks, j - 3) {
                segs.push(prev.to_string());
                j -= 3;
                first = j;
                continue;
            }
        }
        break;
    }
    segs.reverse();
    (segs, first)
}

/// Top-level closure regions inside a call's argument parens, plus region
/// extents for statements that build `parallel::Task` vectors.
fn closure_regions(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut j = open;
    while j < close {
        if punct(toks, j, '(') || punct(toks, j, '[') || punct(toks, j, '{') {
            depth += 1;
        } else if punct(toks, j, ')') || punct(toks, j, ']') || punct(toks, j, '}') {
            depth = depth.saturating_sub(1);
        } else if depth == 1 && punct(toks, j, '|') {
            let starts_arg = punct(toks, j - 1, '(')
                || punct(toks, j - 1, ',')
                || ident(toks, j - 1) == Some("move");
            if starts_arg {
                // Params run to the next `|` (or immediately for `||`).
                let mut k = j + 1;
                while k < close && !punct(toks, k, '|') {
                    k += 1;
                }
                k += 1;
                let end = if punct(toks, k, '{') {
                    matching_close(toks, k)
                } else {
                    // Expression body: to the `,`/`)` closing this arg.
                    let mut d = 0usize;
                    let mut m = k;
                    while m < close {
                        if punct(toks, m, '(') || punct(toks, m, '[') || punct(toks, m, '{') {
                            d += 1;
                        } else if punct(toks, m, ')') || punct(toks, m, ']') || punct(toks, m, '}')
                        {
                            if d == 0 {
                                break;
                            }
                            d -= 1;
                        } else if d == 0 && punct(toks, m, ',') {
                            break;
                        }
                        m += 1;
                    }
                    m
                };
                out.push((j, end));
                j = end;
                continue;
            }
        }
        j += 1;
    }
    out
}

/// Statement extent around token `at`: back to the previous `;`/`{`/`}`,
/// forward to the next `;` at balanced depth.
fn statement_extent(toks: &[Tok], body: (usize, usize), at: usize) -> (usize, usize) {
    let mut start = at;
    while start > body.0 + 1 {
        if punct(toks, start - 1, ';') || punct(toks, start - 1, '{') || punct(toks, start - 1, '}')
        {
            break;
        }
        start -= 1;
    }
    let mut depth = 0isize;
    let mut end = at;
    while end < body.1 {
        if punct(toks, end, '(') || punct(toks, end, '[') || punct(toks, end, '{') {
            depth += 1;
        } else if punct(toks, end, ')') || punct(toks, end, ']') || punct(toks, end, '}') {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && punct(toks, end, ';') {
            break;
        }
        end += 1;
    }
    (start, end)
}

/// Finds every partition region in a function body.
fn partition_regions(toks: &[Tok], idx: &FileIndex, body: (usize, usize)) -> Vec<(usize, usize)> {
    let mut regions: Vec<(usize, usize)> = Vec::new();
    let mut i = body.0;
    while i <= body.1 {
        if let Some(name) = ident(toks, i) {
            // Partition API calls: closure args become regions.
            if !punct(toks, i - 1, '.') {
                if let Some(open) = call_paren(toks, i) {
                    let (segs, _) = path_segments(toks, i);
                    let resolved = idx.resolve_path(&segs);
                    if is_partition_api(&resolved) && (name == "run_tasks" || name == "map_rows") {
                        let close = matching_close(toks, open);
                        regions.extend(closure_regions(toks, open, close));
                    }
                }
            }
            // Statements that build `parallel::Task` values: the tasks are
            // executed inside the partition later, so the whole statement
            // is a region for capture purposes.
            if name == "Task" {
                let from_parallel = (punct(toks, i - 1, ':')
                    && punct(toks, i - 2, ':')
                    && ident(toks, i - 3) == Some("parallel"))
                    || idx.uses.get("Task").is_some_and(|p| p.contains("parallel"));
                if from_parallel {
                    let ext = statement_extent(toks, body, i);
                    if !regions.contains(&ext) {
                        regions.push(ext);
                    }
                }
            }
        }
        i += 1;
    }
    regions
}

fn in_region(regions: &[(usize, usize)], i: usize) -> Option<(usize, usize)> {
    regions.iter().copied().find(|&(a, b)| i >= a && i <= b)
}

/// Whether a token run contains a call to an RNG draw method.
fn contains_draw(toks: &[Tok], from: usize, to: usize) -> bool {
    (from..to).any(|k| {
        ident(toks, k).is_some_and(|n| DRAW_METHODS.contains(&n))
            && punct(toks, k - 1, '.')
            && call_paren(toks, k).is_some()
    })
}

/// Analyzes one function body: intraprocedural diagnostics (when `report`
/// is set) plus the facts/summaries for the global pass.
#[allow(clippy::too_many_lines)]
pub fn analyze_fn(
    rel_path: &str,
    idx: &FileIndex,
    item: &FnItem,
    toks: &[Tok],
    report: bool,
    diags: &mut Vec<Diagnostic>,
) -> FnFacts {
    let mut facts = FnFacts {
        qual: item.qual.clone(),
        name: item.name.clone(),
        ..FnFacts::default()
    };
    let Some(body) = item.body else {
        return facts;
    };
    let regions = partition_regions(toks, idx, body);

    let mut rng_vars: BTreeMap<String, RngVar> = BTreeMap::new();
    let mut taints: BTreeMap<String, Taint> = BTreeMap::new();
    // Float collections: name -> (thread-taint of the size expr, decl pos).
    let mut float_vecs: BTreeMap<String, (Option<Taint>, usize)> = BTreeMap::new();
    let mut float_strings: BTreeMap<String, u32> = BTreeMap::new();

    for (p, param) in item.params.iter().enumerate() {
        if param.ty.contains("DetRng") && !param.name.is_empty() {
            rng_vars.insert(
                param.name.clone(),
                RngVar {
                    origin: RngOrigin::Param(p),
                    decl: body.0,
                },
            );
        } else if !param.name.is_empty()
            && (param.ty.contains("usize") || param.ty.contains("u32") || param.ty.contains("u64"))
        {
            taints.insert(param.name.clone(), Taint::Param(p));
        }
    }

    let mut push = |rule: &'static str, line: u32, message: String, diags: &mut Vec<Diagnostic>| {
        if report {
            diags.push(Diagnostic {
                rule,
                path: rel_path.to_string(),
                line,
                message,
            });
        }
    };

    let mut i = body.0 + 1;
    while i < body.1 {
        let line = toks.get(i).map_or(0, |t| t.line);

        // ---- let bindings -------------------------------------------------
        if ident(toks, i) == Some("let") {
            let mut n = i + 1;
            if ident(toks, n) == Some("mut") {
                n += 1;
            }
            if let Some(name) = ident(toks, n) {
                // Optional `: Type` annotation before `=`.
                let mut eq = n + 1;
                if punct(toks, eq, ':') && !punct(toks, eq + 1, ':') {
                    while eq < body.1 && !punct(toks, eq, '=') && !punct(toks, eq, ';') {
                        if punct(toks, eq, '<') {
                            let mut d = 0usize;
                            while eq < body.1 {
                                if punct(toks, eq, '<') {
                                    d += 1;
                                } else if punct(toks, eq, '>') && !punct(toks, eq - 1, '-') {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                eq += 1;
                            }
                        }
                        eq += 1;
                    }
                }
                if punct(toks, eq, '=') {
                    let (_, stmt_end) = statement_extent(toks, body, eq + 1);
                    let rhs = (eq + 1, stmt_end);
                    classify_let(
                        rel_path,
                        idx,
                        toks,
                        name,
                        rhs,
                        i,
                        &regions,
                        &mut rng_vars,
                        &mut taints,
                        &mut float_vecs,
                        &mut float_strings,
                        &mut push,
                        diags,
                    );
                }
            }
        }

        // ---- RNG uses -----------------------------------------------------
        if punct(toks, i, '.') {
            if let Some(method) = ident(toks, i + 1) {
                if let Some(recv) =
                    ident(toks, i.checked_sub(1).map_or(0, |k| k)).map(str::to_string)
                {
                    let recv_at = i - 1;
                    if let Some(var) = rng_vars.get(&recv).cloned() {
                        let region = in_region(&regions, recv_at);
                        let captured = region.is_some_and(|(start, _)| var.decl < start);
                        if DRAW_METHODS.contains(&method) && call_paren(toks, i + 1).is_some() {
                            if captured {
                                match var.origin {
                                    RngOrigin::Param(p) => {
                                        if !facts.rng_cross_params.contains(&p) {
                                            facts.rng_cross_params.push(p);
                                        }
                                    }
                                    _ => push(
                                        "det-rng-discipline",
                                        line,
                                        format!(
                                            "`{recv}` is drawn inside a parallel partition but \
                                             lives outside it — every task must draw from its \
                                             own `fork(task_id)` child, or the stream's position \
                                             depends on task interleaving"
                                        ),
                                        diags,
                                    ),
                                }
                            } else if var.origin == RngOrigin::Shared && region.is_some() {
                                push(
                                    "det-rng-discipline",
                                    line,
                                    format!(
                                        "`{recv}` is a cloned/copied RNG stream drawn inside a \
                                         partition — clones replay the parent sequence; use \
                                         `fork(task_id)`"
                                    ),
                                    diags,
                                );
                            }
                        } else if method == "clone" && captured && call_paren(toks, i + 1).is_some()
                        {
                            match var.origin {
                                RngOrigin::Param(p) => {
                                    if !facts.rng_cross_params.contains(&p) {
                                        facts.rng_cross_params.push(p);
                                    }
                                }
                                _ => push(
                                    "det-rng-discipline",
                                    line,
                                    format!(
                                        "`{recv}.clone()` inside a parallel partition — every \
                                         task would replay the same stream; use `fork(task_id)`"
                                    ),
                                    diags,
                                ),
                            }
                        }
                    }
                }
            }
        }

        // ---- calls --------------------------------------------------------
        if let Some(name) = ident(toks, i) {
            let is_macro = punct(toks, i + 1, '!');
            if is_macro {
                analyze_macro(
                    rel_path,
                    toks,
                    i,
                    name,
                    &float_strings,
                    &mut facts,
                    &mut push,
                    diags,
                );
            } else if !NOT_CALLS.contains(&name) {
                if let Some(open) = call_paren(toks, i) {
                    let close = matching_close(toks, open);
                    let method = punct(toks, i.wrapping_sub(1), '.');
                    let target = if method {
                        if COMMON_METHODS.contains(&name) || DRAW_METHODS.contains(&name) {
                            String::new()
                        } else {
                            format!("M:{name}")
                        }
                    } else {
                        let (segs, _) = path_segments(toks, i);
                        format!("P:{}", idx.resolve_path(&segs))
                    };
                    if !target.is_empty() {
                        let region = in_region(&regions, i);
                        let (rng_args, thread_args) = scan_args(
                            rel_path, toks, open, close, region, &rng_vars, &taints, &mut facts,
                            &mut push, diags,
                        );
                        let binds = binding_before(toks, body, i);
                        facts.calls.push(CallFact {
                            target,
                            line,
                            rng_args,
                            thread_args,
                            binds,
                        });
                    } else if in_region(&regions, i).is_some() {
                        // Still police rng args through unresolved calls.
                        scan_args(
                            rel_path,
                            toks,
                            open,
                            close,
                            in_region(&regions, i),
                            &rng_vars,
                            &taints,
                            &mut facts,
                            &mut push,
                            diags,
                        );
                    }
                }
            }
        }

        // ---- float-fold sinks --------------------------------------------
        scan_fold_sink(
            rel_path,
            toks,
            body,
            i,
            &taints,
            &float_vecs,
            &mut facts,
            &mut push,
            diags,
        );

        i += 1;
    }

    // A function that returns a float-formatted string taints its callers'
    // bindings (depth-1 summary for the float-fmt chain).
    facts.returns_float_string = fn_returns_float_string(toks, body, &float_strings);
    facts.rng_cross_params.sort_unstable();
    facts.thread_fold_params.sort_unstable();
    facts.thread_fold_params.dedup();
    facts
}

/// The `let NAME =` binding immediately preceding a call, if the statement
/// has the shape `let name = call(..)`.
fn binding_before(toks: &[Tok], body: (usize, usize), call_at: usize) -> String {
    let (start, _) = statement_extent(toks, body, call_at);
    if ident(toks, start) == Some("let") {
        let mut n = start + 1;
        if ident(toks, n) == Some("mut") {
            n += 1;
        }
        if let Some(name) = ident(toks, n) {
            return name.to_string();
        }
    }
    String::new()
}

#[allow(clippy::too_many_arguments)]
fn classify_let(
    rel_path: &str,
    idx: &FileIndex,
    toks: &[Tok],
    name: &str,
    rhs: (usize, usize),
    decl: usize,
    regions: &[(usize, usize)],
    rng_vars: &mut BTreeMap<String, RngVar>,
    taints: &mut BTreeMap<String, Taint>,
    float_vecs: &mut BTreeMap<String, (Option<Taint>, usize)>,
    float_strings: &mut BTreeMap<String, u32>,
    push: &mut impl FnMut(&'static str, u32, String, &mut Vec<Diagnostic>),
    diags: &mut Vec<Diagnostic>,
) {
    let (from, to) = rhs;
    let line = toks.get(from).map_or(0, |t| t.line);

    // DetRng::new(seed): fresh stream; flag drawn-value reseeds.
    for k in from..to {
        if ident(toks, k) == Some("DetRng")
            && is_path_sep(toks, k + 1)
            && ident(toks, k + 3) == Some("new")
        {
            if let Some(open) = call_paren(toks, k + 3) {
                let close = matching_close(toks, open);
                if contains_draw(toks, open, close) {
                    push(
                        "det-rng-discipline",
                        line,
                        "`DetRng::new` re-seeded from a drawn value — seeds must be \
                         constants or derived keys (`seed ^ key`, `fork(tag)`), or the \
                         stream depends on another stream's position"
                            .to_string(),
                        diags,
                    );
                }
            }
            rng_vars.insert(
                name.to_string(),
                RngVar {
                    origin: RngOrigin::Fresh,
                    decl,
                },
            );
            return;
        }
    }

    // rng.fork(..) / rng.clone() / plain copy.
    if let Some(first) = ident(toks, from) {
        if let Some(parent) = rng_vars.get(first).cloned() {
            if punct(toks, from + 1, '.') && ident(toks, from + 2) == Some("fork") {
                rng_vars.insert(
                    name.to_string(),
                    RngVar {
                        origin: RngOrigin::Fresh,
                        decl,
                    },
                );
                return;
            }
            let is_clone = punct(toks, from + 1, '.') && ident(toks, from + 2) == Some("clone");
            let is_copy = to == from + 1;
            if is_clone || is_copy {
                if let Some((start, _)) = in_region(regions, from) {
                    if parent.decl < start {
                        match parent.origin {
                            RngOrigin::Param(_) => {}
                            _ => push(
                                "det-rng-discipline",
                                line,
                                format!(
                                    "RNG stream `{first}` is cloned/copied into a parallel \
                                     partition — tasks would replay the parent's sequence; \
                                     pass `{first}.fork(task_id)` instead"
                                ),
                                diags,
                            ),
                        }
                    }
                }
                rng_vars.insert(
                    name.to_string(),
                    RngVar {
                        origin: RngOrigin::Shared,
                        decl,
                    },
                );
                return;
            }
        }
    }

    // Thread-count taint: `thread_count(..)` / `available_parallelism()`,
    // or propagation from an already-tainted identifier. Results of the
    // partition APIs themselves are ordered merges: never tainted.
    let mut first_call_partition = false;
    for k in from..to {
        if let Some(n) = ident(toks, k) {
            if call_paren(toks, k).is_some() && !punct(toks, k.wrapping_sub(1), '.') {
                let (segs, _) = path_segments(toks, k);
                if is_partition_api(&idx.resolve_path(&segs)) {
                    first_call_partition = true;
                }
                let _ = n;
                break;
            }
        }
    }
    if !first_call_partition {
        let mut taint: Option<Taint> = None;
        for k in from..to {
            if let Some(n) = ident(toks, k) {
                if (n == "thread_count" || n == "available_parallelism")
                    && call_paren(toks, k).is_some()
                {
                    taint = Some(Taint::Thread);
                    break;
                }
                if let Some(t) = taints.get(n) {
                    taint = Some(match (taint, *t) {
                        (Some(Taint::Thread), _) | (_, Taint::Thread) => Taint::Thread,
                        (_, p) => p,
                    });
                }
            }
        }
        // vec![0.0; size]: a float collection, grouped by `size`.
        let is_float_vec = (from..to).any(|k| {
            ident(toks, k) == Some("vec")
                && punct(toks, k + 1, '!')
                && toks
                    .get(k + 3)
                    .is_some_and(|t| t.kind == TokKind::Num && t.text.contains('.'))
        });
        if is_float_vec {
            float_vecs.insert(name.to_string(), (taint, decl));
            return;
        }
        if let Some(t) = taint {
            taints.insert(name.to_string(), t);
            let _ = rel_path;
            return;
        }
        taints.remove(name);
    }

    // format!("{:.N}", ..): a float-formatted string.
    if ident(toks, from) == Some("format") && punct(toks, from + 1, '!') {
        let has_float = (from..to).any(|k| {
            toks.get(k)
                .is_some_and(|t| t.kind == TokKind::Str && float_spec(&t.text))
        });
        if has_float {
            float_strings.insert(name.to_string(), line);
            return;
        }
    }
    float_strings.remove(name);
    rng_vars.remove(name);
}

/// Scans a call's arguments for RNG and thread-tainted identifiers; flags
/// RNG streams captured from outside a partition region.
#[allow(clippy::too_many_arguments)]
fn scan_args(
    rel_path: &str,
    toks: &[Tok],
    open: usize,
    close: usize,
    region: Option<(usize, usize)>,
    rng_vars: &BTreeMap<String, RngVar>,
    taints: &BTreeMap<String, Taint>,
    facts: &mut FnFacts,
    push: &mut impl FnMut(&'static str, u32, String, &mut Vec<Diagnostic>),
    diags: &mut Vec<Diagnostic>,
) -> (Vec<usize>, Vec<usize>) {
    let mut rng_args = Vec::new();
    let mut thread_args = Vec::new();
    let mut arg = 0usize;
    let mut depth = 0usize;
    let mut j = open + 1;
    while j < close {
        if punct(toks, j, '(') || punct(toks, j, '[') || punct(toks, j, '{') || punct(toks, j, '<')
        {
            depth += 1;
        } else if punct(toks, j, ')')
            || punct(toks, j, ']')
            || punct(toks, j, '}')
            || (punct(toks, j, '>') && !punct(toks, j - 1, '-'))
        {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && punct(toks, j, ',') {
            arg += 1;
        } else if let Some(name) = ident(toks, j) {
            // A bare identifier argument (not a field access / method recv).
            let bare = !punct(toks, j + 1, '.') && !punct(toks, j.wrapping_sub(1), '.');
            if bare {
                if let Some(var) = rng_vars.get(name) {
                    // `&mut rng` / `rng` passed along.
                    if !rng_args.contains(&arg) {
                        rng_args.push(arg);
                    }
                    if let Some((start, _)) = region {
                        if var.decl < start {
                            match var.origin {
                                RngOrigin::Param(p) => {
                                    if !facts.rng_cross_params.contains(&p) {
                                        facts.rng_cross_params.push(p);
                                    }
                                }
                                _ => push(
                                    "det-rng-discipline",
                                    toks.get(j).map_or(0, |t| t.line),
                                    format!(
                                        "RNG stream `{name}` captured from outside the \
                                         partition is passed into a call — pass a \
                                         `fork(task_id)` child so each task owns its stream"
                                    ),
                                    diags,
                                ),
                            }
                        }
                    }
                }
                if taints.contains_key(name) && !thread_args.contains(&arg) {
                    thread_args.push(arg);
                }
            }
        }
        j += 1;
    }
    let _ = rel_path;
    (rng_args, thread_args)
}

/// Detects float reductions grouped by thread-derived values:
/// `vec![0.0; threads]` accumulators, `x[i % threads] += ..`, and
/// `.chunks(threads) .. .sum()/.fold(..)` chains.
#[allow(clippy::too_many_arguments)]
fn scan_fold_sink(
    rel_path: &str,
    toks: &[Tok],
    body: (usize, usize),
    i: usize,
    taints: &BTreeMap<String, Taint>,
    float_vecs: &BTreeMap<String, (Option<Taint>, usize)>,
    facts: &mut FnFacts,
    push: &mut impl FnMut(&'static str, u32, String, &mut Vec<Diagnostic>),
    diags: &mut Vec<Diagnostic>,
) {
    let _ = rel_path;
    let Some(name) = ident(toks, i) else {
        return;
    };
    let line = toks.get(i).map_or(0, |t| t.line);

    // `partials[expr] += v` where partials is a float vec and expr is
    // thread-tainted (directly or via the vec's size expression).
    if let Some((vec_taint, _)) = float_vecs.get(name) {
        if punct(toks, i + 1, '[') {
            let j = matching_close(toks, i + 1).min(body.1);
            let mut idx_taint: Option<Taint> = *vec_taint;
            for t in (i + 1..j).filter_map(|k| taints.get(ident(toks, k)?)) {
                idx_taint = Some(match (idx_taint, *t) {
                    (Some(Taint::Thread), _) | (_, Taint::Thread) => Taint::Thread,
                    (_, p) => p,
                });
            }
            let accum = punct(toks, j + 1, '+') && punct(toks, j + 2, '=');
            if accum {
                match idx_taint {
                    Some(Taint::Thread) => push(
                        "parallel-float-fold",
                        line,
                        format!(
                            "float accumulator `{name}` is indexed by a thread-derived \
                             value — per-worker partial sums reduce in thread order; merge \
                             through `parallel::run_tasks` results instead"
                        ),
                        diags,
                    ),
                    Some(Taint::Param(p)) if !facts.thread_fold_params.contains(&p) => {
                        facts.thread_fold_params.push(p);
                    }
                    _ => {}
                }
            }
        }
        // `partials.iter()...sum()` / `.fold(..)` where the vec was sized
        // by a thread-derived value.
        if punct(toks, i + 1, '.') {
            let (_, stmt_end) = statement_extent(toks, body, i);
            let reduces = (i + 2..stmt_end).any(|k| {
                matches!(ident(toks, k), Some("sum" | "fold" | "product"))
                    && punct(toks, k - 1, '.')
            });
            if reduces {
                match vec_taint {
                    Some(Taint::Thread) => push(
                        "parallel-float-fold",
                        line,
                        format!(
                            "float reduction over `{name}`, a collection sized by the \
                             thread count — the fold visits per-worker partials in thread \
                             order; use the ordered-merge results of \
                             `parallel::run_tasks`"
                        ),
                        diags,
                    ),
                    Some(Taint::Param(p)) if !facts.thread_fold_params.contains(p) => {
                        facts.thread_fold_params.push(*p);
                    }
                    _ => {}
                }
            }
        }
    }

    // `.chunks(threads)` followed by a float reduction in the same
    // statement.
    if name == "chunks" && punct(toks, i.wrapping_sub(1), '.') {
        if let Some(open) = call_paren(toks, i) {
            let close = matching_close(toks, open);
            let mut group_taint: Option<Taint> = None;
            for k in open + 1..close {
                if let Some(n) = ident(toks, k) {
                    if let Some(t) = taints.get(n) {
                        group_taint = Some(match (group_taint, *t) {
                            (Some(Taint::Thread), _) | (_, Taint::Thread) => Taint::Thread,
                            (_, p) => p,
                        });
                    }
                }
            }
            if let Some(t) = group_taint {
                let (_, stmt_end) = statement_extent(toks, body, i);
                let float_reduce = (close..stmt_end).any(|k| {
                    matches!(ident(toks, k), Some("sum" | "fold" | "product"))
                        && punct(toks, k - 1, '.')
                }) && (close..stmt_end).any(|k| {
                    matches!(ident(toks, k), Some("f64" | "f32"))
                        || toks
                            .get(k)
                            .is_some_and(|t| t.kind == TokKind::Num && t.text.contains('.'))
                });
                if float_reduce {
                    match t {
                        Taint::Thread => push(
                            "parallel-float-fold",
                            line,
                            "float reduction over `.chunks(thread_count)` groups — chunk \
                             boundaries move with `PATU_THREADS`, so the partial sums \
                             reorder; reduce through the ordered partition APIs"
                                .to_string(),
                            diags,
                        ),
                        Taint::Param(p) => {
                            if !facts.thread_fold_params.contains(&p) {
                                facts.thread_fold_params.push(p);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Handles format-family macros for the float-fmt chain extension and
/// records JSON-keyed macro sinks for the global pass.
#[allow(clippy::too_many_arguments)]
fn analyze_macro(
    rel_path: &str,
    toks: &[Tok],
    i: usize,
    name: &str,
    float_strings: &BTreeMap<String, u32>,
    facts: &mut FnFacts,
    push: &mut impl FnMut(&'static str, u32, String, &mut Vec<Diagnostic>),
    diags: &mut Vec<Diagnostic>,
) {
    let _ = rel_path;
    if !matches!(
        name,
        "format" | "write" | "writeln" | "format_args" | "print" | "println"
    ) {
        return;
    }
    if !punct(toks, i + 2, '(') {
        return;
    }
    let open = i + 2;
    let close = matching_close(toks, open);
    // The controlling literal: first Str token at top level.
    let mut literal: Option<&Tok> = None;
    let mut depth = 0usize;
    for j in open + 1..close {
        if punct(toks, j, '(') || punct(toks, j, '[') || punct(toks, j, '{') {
            depth += 1;
        } else if punct(toks, j, ')') || punct(toks, j, ']') || punct(toks, j, '}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 {
            if let Some(t) = toks.get(j) {
                if t.kind == TokKind::Str {
                    literal = Some(t);
                    break;
                }
            }
        }
    }
    let Some(lit) = literal else {
        return;
    };
    let json_keyed = lit.text.contains("\\\":") || lit.text.contains("\":");
    if !json_keyed {
        return;
    }
    // Collect top-level identifier args after the literal.
    let mut args: Vec<(String, u32)> = Vec::new();
    let mut nested_float = None;
    let mut d = 0usize;
    let mut j = open + 1;
    while j < close {
        if punct(toks, j, '(') || punct(toks, j, '[') || punct(toks, j, '{') {
            d += 1;
        } else if punct(toks, j, ')') || punct(toks, j, ']') || punct(toks, j, '}') {
            d = d.saturating_sub(1);
        } else if let Some(n) = ident(toks, j) {
            if matches!(n, "format" | "format_args") && punct(toks, j + 1, '!') {
                let mopen = j + 2;
                if punct(toks, mopen, '(') {
                    let mclose = matching_close(toks, mopen);
                    let has_float = (mopen..mclose).any(|k| {
                        toks.get(k)
                            .is_some_and(|t| t.kind == TokKind::Str && float_spec(&t.text))
                    });
                    if has_float {
                        nested_float = toks.get(j).map(|t| t.line);
                    }
                    j = mclose;
                }
            } else if d == 0 && !punct(toks, j + 1, '.') && !punct(toks, j.wrapping_sub(1), '.') {
                if let Some(t) = toks.get(j) {
                    args.push((n.to_string(), t.line));
                }
            }
        }
        j += 1;
    }
    for (arg, aline) in &args {
        if float_strings.contains_key(arg) {
            push(
                "float-fmt",
                *aline,
                format!(
                    "`{arg}` was formatted with a float spec upstream and reaches a JSON \
                     literal here — non-finite values would emit `inf`/`NaN`; route the \
                     number through `patu_obs::json::num`/`num_fixed` at this sink"
                ),
                diags,
            );
        }
    }
    if let Some(nline) = nested_float {
        push(
            "float-fmt",
            nline,
            "nested `format!`/`format_args!` with a float spec inside a JSON literal — \
             route through `patu_obs::json::num`/`num_fixed`"
                .to_string(),
            diags,
        );
    }
    facts
        .json_sinks
        .push((lit.line, args.into_iter().map(|(a, _)| a).collect()));
}

/// Whether the function's trailing expression (or an explicit `return`)
/// yields a float-formatted string.
fn fn_returns_float_string(
    toks: &[Tok],
    body: (usize, usize),
    float_strings: &BTreeMap<String, u32>,
) -> bool {
    // Direct: `format!("{:.N}"..)` as the trailing expression or returned.
    for k in body.0..body.1 {
        if ident(toks, k) == Some("format") && punct(toks, k + 1, '!') && punct(toks, k + 2, '(') {
            let close = matching_close(toks, k + 2);
            let has_float = (k + 2..close).any(|m| {
                toks.get(m)
                    .is_some_and(|t| t.kind == TokKind::Str && float_spec(&t.text))
            });
            if has_float {
                let terminated = punct(toks, close + 1, ';');
                let returned = ident(toks, k.wrapping_sub(1)) == Some("return");
                if !terminated || returned {
                    return true;
                }
            }
        }
    }
    // Indirect: trailing bare identifier that holds a float string.
    if body.1 >= 1 {
        if let Some(last) = ident(toks, body.1 - 1) {
            if float_strings.contains_key(last) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::resolve;
    use std::collections::BTreeMap;

    fn analyze(src: &str) -> (Vec<FnFacts>, Vec<Diagnostic>) {
        let lexed = lexer::lex(src);
        let idx = resolve::index_file("crates/fake/src/engine.rs", &lexed.toks, &BTreeMap::new());
        let mut diags = Vec::new();
        let facts = idx
            .fns
            .iter()
            .map(|f| {
                analyze_fn(
                    "crates/fake/src/engine.rs",
                    &idx,
                    f,
                    &lexed.toks,
                    true,
                    &mut diags,
                )
            })
            .collect();
        (facts, diags)
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn captured_rng_draw_in_partition_is_flagged() {
        let src = "use patu_sim::parallel;\nuse patu_gmath::DetRng;\n\
                   fn bad(seed: u64) -> Vec<u64> {\n\
                       let mut rng = DetRng::new(seed);\n\
                       parallel::run_tasks(4, (0..8).map(|i| Box::new(move || rng.next_u64() + i) as parallel::Task<'_, u64>).collect())\n\
                   }\n";
        let (_, diags) = analyze(src);
        assert_eq!(rules(&diags), vec!["det-rng-discipline"]);
    }

    #[test]
    fn forked_child_in_partition_is_clean() {
        let src = "use patu_sim::parallel;\nuse patu_gmath::DetRng;\n\
                   fn good(seed: u64) -> Vec<u64> {\n\
                       let rng = DetRng::new(seed);\n\
                       parallel::run_tasks(4, (0..8).map(|i| Box::new(move || {\n\
                           let mut child = rng.fork(i);\n\
                           child.next_u64()\n\
                       }) as parallel::Task<'_, u64>).collect())\n\
                   }\n";
        let (_, diags) = analyze(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn reseed_from_drawn_value_is_flagged() {
        let src = "use patu_gmath::DetRng;\n\
                   fn bad(seed: u64) -> u64 {\n\
                       let mut a = DetRng::new(seed);\n\
                       let mut b = DetRng::new(a.next_u64());\n\
                       b.next_u64()\n\
                   }\n";
        let (_, diags) = analyze(src);
        assert_eq!(rules(&diags), vec!["det-rng-discipline"]);
    }

    #[test]
    fn thread_grouped_float_fold_is_flagged() {
        let src = "use patu_sim::parallel;\n\
                   fn bad(explicit: Option<usize>, vals: &[f64]) -> f64 {\n\
                       let t = parallel::thread_count(explicit);\n\
                       let mut partials = vec![0.0f64; t];\n\
                       for (i, v) in vals.iter().enumerate() {\n\
                           partials[i % t] += v;\n\
                       }\n\
                       partials.iter().sum::<f64>()\n\
                   }\n";
        let (_, diags) = analyze(src);
        assert_eq!(
            rules(&diags),
            vec!["parallel-float-fold", "parallel-float-fold"]
        );
    }

    #[test]
    fn ordered_merge_results_are_not_tainted() {
        let src = "use patu_sim::parallel;\n\
                   fn good(explicit: Option<usize>) -> f64 {\n\
                       let t = parallel::thread_count(explicit);\n\
                       let outputs = parallel::run_tasks(t, tasks(8));\n\
                       outputs.iter().sum::<f64>()\n\
                   }\n";
        let (_, diags) = analyze(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn chunked_float_reduction_is_flagged() {
        let src = "use patu_sim::parallel;\n\
                   fn bad(explicit: Option<usize>, vals: &[f64]) -> f64 {\n\
                       let t = parallel::thread_count(explicit);\n\
                       vals.chunks(t).map(|c| c.iter().sum::<f64>()).sum::<f64>()\n\
                   }\n";
        let (_, diags) = analyze(src);
        assert_eq!(rules(&diags), vec!["parallel-float-fold"]);
    }

    #[test]
    fn rng_param_in_partition_becomes_a_summary_not_a_diag() {
        let src = "use patu_sim::parallel;\nuse patu_gmath::DetRng;\n\
                   fn helper(rng: &mut DetRng) -> Vec<u64> {\n\
                       parallel::run_tasks(4, (0..8).map(|i| Box::new(move || rng.next_u64() + i) as parallel::Task<'_, u64>).collect())\n\
                   }\n";
        let (facts, diags) = analyze(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(facts[0].rng_cross_params, vec![0]);
    }

    #[test]
    fn calls_and_bindings_are_recorded() {
        let src = "fn reader() -> Option<String> { None }\n\
                   fn caller() { let x = reader(); let _ = x; }\n";
        let (facts, _) = analyze(src);
        assert!(facts[0].calls.is_empty());
        assert_eq!(facts[1].calls.len(), 1);
        assert_eq!(facts[1].calls[0].target, "P:fake::engine::reader");
        assert_eq!(facts[1].calls[0].binds, "x");
    }

    #[test]
    fn float_string_reaching_json_literal_is_flagged() {
        let src = "fn bad(v: f64) -> String {\n\
                       let pretty = format!(\"{v:.3}\");\n\
                       format!(\"{{\\\"mean\\\": {}}}\", pretty)\n\
                   }\n";
        let (_, diags) = analyze(src);
        assert_eq!(rules(&diags), vec!["float-fmt"]);
    }

    #[test]
    fn float_string_to_human_output_is_fine() {
        let src = "fn good(v: f64) -> String {\n\
                       let pretty = format!(\"{v:.3}\");\n\
                       println!(\"| {} |\", pretty);\n\
                       pretty\n\
                   }\n";
        let (facts, diags) = analyze(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(facts[0].returns_float_string, "trailing float string");
    }

    #[test]
    fn task_vector_statements_are_partition_regions() {
        let src = "use patu_sim::parallel;\nuse patu_gmath::DetRng;\n\
                   fn bad(seed: u64) {\n\
                       let mut rng = DetRng::new(seed);\n\
                       let tasks: Vec<parallel::Task<'_, u64>> = (0..4)\n\
                           .map(|i| Box::new(move || rng.next_u64() + i) as parallel::Task<'_, u64>)\n\
                           .collect();\n\
                       let _ = parallel::run_tasks(2, tasks);\n\
                   }\n";
        let (_, diags) = analyze(src);
        assert_eq!(rules(&diags), vec!["det-rng-discipline"]);
    }
}
