//! Item-level resolution on top of the token stream: module paths, `use`
//! maps, and `fn`/`impl` boundaries with generics-tolerant signatures.
//!
//! This is still not a full parser — it recognizes exactly the item shapes
//! the interprocedural rules need (`mod`, `use`, `impl`, `trait`, `fn`) and
//! treats everything else as opaque token runs. The payoff is a
//! [`FileIndex`] per source file: every function with its qualified name,
//! parameter list and body token range, plus an alias→absolute-path map
//! for resolving calls, all with zero external dependencies.

use crate::lexer::{ident, is_path_sep, matching_close, punct, Tok, TokKind};
use std::collections::BTreeMap;

/// One function parameter: the binding name (empty for tuple/struct
/// patterns) and the flattened type text.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name, or `""` when the pattern is not a plain identifier.
    pub name: String,
    /// The type tokens, space-joined (`"& mut DetRng"`).
    pub ty: String,
}

/// One `fn` item (free function, inherent/trait method, or default trait
/// method) with its token extents.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Fully qualified name: `module::[Type::]name`.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (for test-region lookups).
    pub decl: usize,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Token-index range of the body, inclusive of both braces; `None` for
    /// bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

/// The resolved view of one source file.
#[derive(Debug, Default)]
pub struct FileIndex {
    /// The file's module path (`patu_serve::exec`).
    pub module: String,
    /// The owning crate's package name, underscored (`patu_serve`).
    pub crate_name: String,
    /// `use` alias → absolute path (`DetRng` → `patu_gmath::DetRng`).
    pub uses: BTreeMap<String, String>,
    /// Prefixes imported via `use path::*`.
    pub globs: Vec<String>,
    /// Every function item in the file.
    pub fns: Vec<FnItem>,
}

/// Computes the module path for a repo-relative file given the
/// `crates/<dir>` → package-name map from the workspace manifests.
pub fn module_path(rel_path: &str, crates: &BTreeMap<String, String>) -> (String, String) {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some((dir, tail)) = rest.split_once("/src/") {
            let key = format!("crates/{dir}");
            let crate_name = crates
                .get(&key)
                .cloned()
                .unwrap_or_else(|| dir.replace('-', "_"));
            let module = match tail {
                "lib.rs" | "main.rs" => crate_name.clone(),
                _ => {
                    let stem = tail.trim_end_matches(".rs").trim_end_matches("/mod");
                    format!("{crate_name}::{}", stem.replace('/', "::"))
                }
            };
            return (module, crate_name);
        }
    }
    // Integration tests, examples, top-level targets: a unique synthetic
    // module so their symbols never collide with library items.
    let sanitized: String = rel_path
        .trim_end_matches(".rs")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    (format!("t::{sanitized}"), "t".to_string())
}

fn parse_params(toks: &[Tok], open: usize, close: usize) -> Vec<Param> {
    let mut params = Vec::new();
    let mut start = open + 1;
    let mut depth = 0usize;
    let mut i = open + 1;
    while i <= close {
        let at_end = i == close;
        let top_comma = depth == 0 && punct(toks, i, ',');
        if at_end || top_comma {
            if i > start {
                params.push(parse_one_param(&toks[start..i]));
            }
            start = i + 1;
        } else if punct(toks, i, '(') || punct(toks, i, '[') || punct(toks, i, '<') {
            depth += 1;
        } else if punct(toks, i, ')')
            || punct(toks, i, ']')
            || (punct(toks, i, '>') && !punct(toks, i.wrapping_sub(1), '-'))
        {
            depth = depth.saturating_sub(1);
        }
        i += 1;
    }
    params
}

fn parse_one_param(chunk: &[Tok]) -> Param {
    // `self`, `&self`, `&mut self`, `mut self`:
    let plain: Vec<&Tok> = chunk.iter().filter(|t| t.kind == TokKind::Ident).collect();
    if plain.first().is_some_and(|t| t.text == "mut") && plain.len() == 1
        || plain.first().is_some_and(|t| t.text == "self")
        || (plain.first().is_some_and(|t| t.text == "mut")
            && plain.get(1).is_some_and(|t| t.text == "self"))
    {
        return Param {
            name: "self".to_string(),
            ty: "Self".to_string(),
        };
    }
    // Find the top-level `:` separating pattern from type.
    let mut depth = 0usize;
    for (i, t) in chunk.iter().enumerate() {
        if t.kind == TokKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(') | Some(b'[') | Some(b'<') => depth += 1,
                Some(b')') | Some(b']') | Some(b'>') => depth = depth.saturating_sub(1),
                Some(b':') if depth == 0 => {
                    // `::` is a path separator, not the pattern/type colon.
                    if chunk.get(i + 1).is_some_and(|n| n.text.starts_with(':')) {
                        continue;
                    }
                    let name = chunk[..i]
                        .iter()
                        .rev()
                        .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    let pattern_is_ident = chunk[..i]
                        .iter()
                        .all(|t| t.kind == TokKind::Ident || t.text.starts_with('&'));
                    let ty: Vec<String> = chunk[i + 1..].iter().map(|t| t.text.clone()).collect();
                    return Param {
                        name: if pattern_is_ident {
                            name
                        } else {
                            String::new()
                        },
                        ty: ty.join(" "),
                    };
                }
                _ => {}
            }
        }
    }
    Param {
        name: String::new(),
        ty: chunk
            .iter()
            .map(|t| t.text.clone())
            .collect::<Vec<_>>()
            .join(" "),
    }
}

/// Parses one `use` declaration starting just after the `use` keyword.
/// Returns (flat alias→path list, glob prefixes, index past the `;`).
fn parse_use(toks: &[Tok], start: usize) -> (Vec<(String, String)>, Vec<String>, usize) {
    let mut end = start;
    while end < toks.len() && !punct(toks, end, ';') {
        end += 1;
    }
    let mut flat = Vec::new();
    let mut globs = Vec::new();
    use_tree(&toks[start..end], &[], &mut flat, &mut globs);
    (flat, globs, end + 1)
}

/// Recursively expands a use-tree token slice under `prefix`.
fn use_tree(
    toks: &[Tok],
    prefix: &[String],
    flat: &mut Vec<(String, String)>,
    globs: &mut Vec<String>,
) {
    let mut segs: Vec<String> = prefix.to_vec();
    let mut i = 0;
    // Leading `pub` / visibility was consumed by the caller; skip stray ones.
    while let Some(t) = toks.get(i) {
        match t.kind {
            TokKind::Ident if t.text == "as" => {
                if let Some(alias) = ident(toks, i + 1) {
                    flat.push((alias.to_string(), segs.join("::")));
                    return;
                }
                return;
            }
            TokKind::Ident => {
                segs.push(t.text.clone());
                i += 1;
                if is_path_sep(toks, i) {
                    i += 2;
                    continue;
                }
            }
            TokKind::Punct if t.text.starts_with('*') => {
                globs.push(segs.join("::"));
                return;
            }
            TokKind::Punct if t.text.starts_with('{') => {
                // Split the brace group on top-level commas; recurse.
                let close = matching_close(toks, i);
                let mut depth = 0usize;
                let mut item_start = i + 1;
                let mut j = i + 1;
                while j <= close {
                    if punct(toks, j, '{') {
                        depth += 1;
                    } else if punct(toks, j, '}') {
                        if depth == 0 {
                            if j > item_start {
                                use_tree(&toks[item_start..j], &segs, flat, globs);
                            }
                            break;
                        }
                        depth -= 1;
                    } else if depth == 0 && punct(toks, j, ',') {
                        if j > item_start {
                            use_tree(&toks[item_start..j], &segs, flat, globs);
                        }
                        item_start = j + 1;
                    }
                    j += 1;
                }
                return;
            }
            _ => {
                i += 1;
                continue;
            }
        }
        // No `::` after the segment: the path ends here, possibly renamed.
        if ident(toks, i) == Some("as") {
            if let Some(alias) = ident(toks, i + 1) {
                flat.push((alias.to_string(), segs.join("::")));
            }
            return;
        }
        if let Some(last) = segs.last() {
            flat.push((last.clone(), segs.join("::")));
        }
        return;
    }
    if segs.len() > prefix.len() {
        if let Some(last) = segs.last() {
            flat.push((last.clone(), segs.join("::")));
        }
    }
}

/// Builds the [`FileIndex`] for one lexed file.
pub fn index_file(rel_path: &str, toks: &[Tok], crates: &BTreeMap<String, String>) -> FileIndex {
    let (module, crate_name) = module_path(rel_path, crates);
    let mut idx = FileIndex {
        module: module.clone(),
        crate_name: crate_name.clone(),
        ..FileIndex::default()
    };

    // Scope stack: what each open brace belongs to.
    #[derive(Clone, Copy, PartialEq)]
    enum Tag {
        Mod,
        Impl,
        Other,
    }
    let mut stack: Vec<Tag> = Vec::new();
    let mut mods: Vec<String> = Vec::new();
    let mut impls: Vec<String> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        if punct(toks, i, '{') {
            stack.push(Tag::Other);
            i += 1;
            continue;
        }
        if punct(toks, i, '}') {
            match stack.pop() {
                Some(Tag::Mod) => {
                    mods.pop();
                }
                Some(Tag::Impl) => {
                    impls.pop();
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        let Some(word) = ident(toks, i) else {
            i += 1;
            continue;
        };
        match word {
            "mod" => {
                if let Some(name) = ident(toks, i + 1) {
                    if punct(toks, i + 2, '{') {
                        mods.push(name.to_string());
                        stack.push(Tag::Mod);
                        i += 3;
                        continue;
                    }
                }
                i += 1;
            }
            "use" => {
                let (flat, globs, next) = parse_use(toks, i + 1);
                for (alias, path) in flat {
                    idx.uses
                        .insert(alias, absolutize(&path, &module, &crate_name, &mods));
                }
                for g in globs {
                    idx.globs.push(absolutize(&g, &module, &crate_name, &mods));
                }
                i = next;
            }
            "impl" | "trait" => {
                let is_trait = word == "trait";
                let mut j = i + 1;
                if punct(toks, j, '<') {
                    j = matching_close(toks, j) + 1;
                }
                // Collect the subject type: for `impl A for B`, B wins.
                let mut ty = String::new();
                while j < toks.len() && !punct(toks, j, '{') && !punct(toks, j, ';') {
                    if let Some(id) = ident(toks, j) {
                        match id {
                            "for" if !is_trait => ty.clear(),
                            "where" => break,
                            _ if ty.is_empty() => ty = id.to_string(),
                            _ => {}
                        }
                        j += 1;
                    } else if punct(toks, j, '<') {
                        j = matching_close(toks, j) + 1;
                    } else {
                        j += 1;
                    }
                }
                // Seek the opening brace (past any where clause).
                while j < toks.len() && !punct(toks, j, '{') && !punct(toks, j, ';') {
                    j += 1;
                }
                if punct(toks, j, '{') {
                    impls.push(ty);
                    stack.push(Tag::Impl);
                    i = j + 1;
                } else {
                    i = j + 1;
                }
            }
            "fn" => {
                if let Some((item, next)) = parse_fn(toks, i, &module, &mods, impls.last()) {
                    idx.fns.push(item);
                    i = next;
                } else {
                    i += 1;
                }
            }
            _ => {
                i += 1;
            }
        }
    }
    idx
}

fn parse_fn(
    toks: &[Tok],
    fn_kw: usize,
    module: &str,
    mods: &[String],
    impl_ty: Option<&String>,
) -> Option<(FnItem, usize)> {
    let name = ident(toks, fn_kw + 1)?.to_string();
    let line = toks.get(fn_kw).map(|t| t.line)?;
    let mut j = fn_kw + 2;
    if punct(toks, j, '<') {
        j = matching_close(toks, j) + 1;
    }
    if !punct(toks, j, '(') {
        return None;
    }
    let close = matching_close(toks, j);
    let params = parse_params(toks, j, close);
    // Seek the body `{` or a `;` terminator, skipping return type, where
    // clauses, and any generics inside them.
    j = close + 1;
    while j < toks.len() && !punct(toks, j, '{') && !punct(toks, j, ';') {
        if punct(toks, j, '<') {
            j = matching_close(toks, j) + 1;
        } else {
            j += 1;
        }
    }
    let body = punct(toks, j, '{').then(|| (j, matching_close(toks, j)));
    let next = match body {
        Some((_, end)) => end + 1,
        None => j + 1,
    };
    let mut qual = module.to_string();
    for m in mods {
        qual.push_str("::");
        qual.push_str(m);
    }
    if let Some(ty) = impl_ty {
        if !ty.is_empty() {
            qual.push_str("::");
            qual.push_str(ty);
        }
    }
    qual.push_str("::");
    qual.push_str(&name);
    Some((
        FnItem {
            name,
            qual,
            line,
            decl: fn_kw,
            params,
            body,
        },
        next,
    ))
}

/// Rewrites a use-path's leading `crate`/`self`/`super` to absolute form.
fn absolutize(path: &str, module: &str, crate_name: &str, mods: &[String]) -> String {
    let mut here = module.to_string();
    for m in mods {
        here.push_str("::");
        here.push_str(m);
    }
    if let Some(rest) = path.strip_prefix("crate::") {
        return format!("{crate_name}::{rest}");
    }
    if path == "crate" {
        return crate_name.to_string();
    }
    if let Some(rest) = path.strip_prefix("self::") {
        return format!("{here}::{rest}");
    }
    if let Some(rest) = path.strip_prefix("super::") {
        let parent = here.rsplit_once("::").map(|(p, _)| p).unwrap_or(crate_name);
        return format!("{parent}::{rest}");
    }
    path.to_string()
}

impl FileIndex {
    /// Resolves a call path (`["parallel", "run_tasks"]`) to an absolute
    /// candidate using the file's use map and module.
    pub fn resolve_path(&self, segs: &[String]) -> String {
        let Some(first) = segs.first() else {
            return String::new();
        };
        let rest = &segs[1..];
        let join = |head: &str, tail: &[String]| {
            if tail.is_empty() {
                head.to_string()
            } else {
                format!("{head}::{}", tail.join("::"))
            }
        };
        if let Some(abs) = self.uses.get(first) {
            return join(abs, rest);
        }
        match first.as_str() {
            "crate" => join(&self.crate_name, rest),
            "self" => join(&self.module, rest),
            "super" => {
                let parent = self
                    .module
                    .rsplit_once("::")
                    .map(|(p, _)| p)
                    .unwrap_or(&self.crate_name);
                join(parent, rest)
            }
            f if f == self.crate_name || f.starts_with("patu_") => segs.join("::"),
            "std" | "core" | "alloc" => segs.join("::"),
            _ => join(&self.module, segs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn index(src: &str) -> FileIndex {
        let lexed = lexer::lex(src);
        index_file("crates/fake/src/engine.rs", &lexed.toks, &BTreeMap::new())
    }

    #[test]
    fn fns_and_methods_get_qualified_names() {
        let src = "fn free(a: u32, b: &mut DetRng) -> u32 { a }\n\
                   struct S;\n\
                   impl S {\n    pub fn method(&self, x: f64) -> f64 { x }\n}\n\
                   impl std::fmt::Display for S {\n    fn fmt(&self) {}\n}\n\
                   mod inner {\n    fn nested() {}\n}\n";
        let idx = index(src);
        let quals: Vec<&str> = idx.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "fake::engine::free",
                "fake::engine::S::method",
                "fake::engine::S::fmt",
                "fake::engine::inner::nested",
            ]
        );
        let free = &idx.fns[0];
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[0].name, "a");
        assert_eq!(free.params[1].name, "b");
        assert!(free.params[1].ty.contains("DetRng"));
        assert!(free.body.is_some());
    }

    #[test]
    fn generic_signatures_parse() {
        let src =
            "fn run<F: Fn(u32) -> u32, T>(n: usize, f: F) -> Vec<T> where T: Clone { loop {} }\n\
                   fn after() {}\n";
        let idx = index(src);
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.fns[0].name, "run");
        assert_eq!(idx.fns[0].params.len(), 2);
        assert_eq!(idx.fns[1].name, "after");
    }

    #[test]
    fn use_map_expands_groups_and_aliases() {
        let src = "use patu_gmath::{DetRng, vec::Vec3 as V3};\n\
                   use crate::par::map_rows;\n\
                   use patu_sim::parallel;\n\
                   use std::collections::*;\n";
        let idx = index(src);
        assert_eq!(
            idx.uses.get("DetRng").map(String::as_str),
            Some("patu_gmath::DetRng")
        );
        assert_eq!(
            idx.uses.get("V3").map(String::as_str),
            Some("patu_gmath::vec::Vec3")
        );
        assert_eq!(
            idx.uses.get("map_rows").map(String::as_str),
            Some("fake::par::map_rows")
        );
        assert_eq!(
            idx.uses.get("parallel").map(String::as_str),
            Some("patu_sim::parallel")
        );
        assert_eq!(idx.globs, vec!["std::collections".to_string()]);
    }

    #[test]
    fn resolve_path_follows_uses() {
        let idx = index("use patu_sim::parallel;\n");
        let segs = vec!["parallel".to_string(), "run_tasks".to_string()];
        assert_eq!(idx.resolve_path(&segs), "patu_sim::parallel::run_tasks");
        let local = vec!["helper".to_string()];
        assert_eq!(idx.resolve_path(&local), "fake::engine::helper");
    }

    #[test]
    fn module_paths_map_crate_layout() {
        let mut crates = BTreeMap::new();
        crates.insert("crates/sim".to_string(), "patu_sim".to_string());
        assert_eq!(
            module_path("crates/sim/src/render.rs", &crates).0,
            "patu_sim::render"
        );
        assert_eq!(module_path("crates/sim/src/lib.rs", &crates).0, "patu_sim");
        assert_eq!(
            module_path("tests/parallel_determinism.rs", &crates).0,
            "t::tests_parallel_determinism"
        );
    }

    #[test]
    fn trait_methods_qualify_under_the_trait() {
        let src = "pub trait FrameService {\n    fn serve(&mut self, n: usize) -> u32;\n    fn idle(&self) {}\n}\n";
        let idx = index(src);
        let quals: Vec<&str> = idx.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "fake::engine::FrameService::serve",
                "fake::engine::FrameService::idle"
            ]
        );
        assert!(idx.fns[0].body.is_none());
        assert!(idx.fns[1].body.is_some());
    }
}
