//! A token-level Rust lexer: just enough syntax awareness for invariant
//! checking — comments (line, nested block, doc), string literals (plain,
//! raw, byte), char literals vs. lifetimes, identifiers and punctuation —
//! with line numbers on every token. Suppression pragmas are harvested from
//! line comments during the same pass.
//!
//! This is deliberately not a parser. The rules in [`crate::rules`] match
//! short token sequences (`thread` `::` `spawn`, `.` `unwrap` `(`), which a
//! lexer resolves exactly as long as it never mistakes a comment or string
//! for code — the classic grep failure mode this module exists to avoid.

/// What kind of token was lexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `thread`, `HashMap`, ...).
    Ident,
    /// Any string literal; [`Tok::text`] keeps the raw source slice,
    /// including quotes, escapes and raw-string hashes.
    Str,
    /// A character literal (`'x'`, `'\n'`).
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A numeric literal.
    Num,
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Raw source text (for [`TokKind::Punct`], a single character).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// Whether `toks[i]` is the punctuation character `ch`. Every `Punct`
/// token is a single character, so this is an exact match.
pub(crate) fn punct(toks: &[Tok], i: usize, ch: char) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text.starts_with(ch))
}

/// The identifier at `toks[i]`, if that token is one.
pub(crate) fn ident(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i) {
        Some(t) if t.kind == TokKind::Ident => Some(&t.text),
        _ => None,
    }
}

/// Whether `toks[i..i + 2]` is a `::` path separator.
pub(crate) fn is_path_sep(toks: &[Tok], i: usize) -> bool {
    punct(toks, i, ':') && punct(toks, i + 1, ':')
}

/// Index of the delimiter closing the `(`, `[`, `{` or `<` at `open`
/// (`toks.len()` if it never closes). Only that delimiter pair nests, and
/// the `>` of a `->` (`F: Fn() -> u32`) does not close a `<`.
pub(crate) fn matching_close(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks.get(open).map(|t| t.text.as_str()) {
        Some("(") => ('(', ')'),
        Some("[") => ('[', ']'),
        Some("{") => ('{', '}'),
        _ => ('<', '>'),
    };
    let mut depth = 0usize;
    for i in open..toks.len() {
        if punct(toks, i, o) {
            depth += 1;
        } else if punct(toks, i, c) && !(c == '>' && punct(toks, i.wrapping_sub(1), '-')) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// A `// patu-lint: ...` suppression pragma found in a line comment.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// Rule ids inside `allow(...)`; empty when the pragma is malformed.
    pub rules: Vec<String>,
    /// Whether a non-empty justification follows the `allow(...)` clause.
    pub has_reason: bool,
    /// Whether the pragma parsed at all (`allow(` present and closed).
    pub well_formed: bool,
}

/// The output of [`lex`]: the token stream plus any pragmas seen.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens, in source order.
    pub toks: Vec<Tok>,
    /// All suppression pragmas, in source order.
    pub pragmas: Vec<Pragma>,
}

/// The marker that introduces a suppression pragma in a line comment.
pub const PRAGMA_MARKER: &str = "patu-lint:";

/// Parses a suppression pragma out of a comment body (the text after `//`
/// or TOML's `#`). Returns `None` when the comment is not a pragma at all.
pub fn parse_comment_pragma(comment: &str, line: u32) -> Option<Pragma> {
    let rest = comment
        .trim_start()
        .strip_prefix(PRAGMA_MARKER)?
        .trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Some(Pragma {
            line,
            rules: Vec::new(),
            has_reason: false,
            well_formed: false,
        });
    };
    let Some(close) = args.find(')') else {
        return Some(Pragma {
            line,
            rules: Vec::new(),
            has_reason: false,
            well_formed: false,
        });
    };
    let rules: Vec<String> = args[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let tail = args[close + 1..]
        .trim_start_matches([' ', '\t', '-', '—', '–', ':'])
        .trim();
    Some(Pragma {
        line,
        rules,
        has_reason: tail.chars().count() >= 3,
        well_formed: true,
    })
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Consumes a string body after the opening quote; `pos` is left after the
/// closing quote.
fn eat_string_body(c: &mut Cursor<'_>) {
    while !c.eof() {
        match c.bump() {
            b'"' => return,
            b'\\' => {
                c.bump();
            }
            _ => {}
        }
    }
}

/// Consumes a raw-string body after `r##...#"`; `hashes` is the number of
/// `#` markers.
fn eat_raw_string_body(c: &mut Cursor<'_>, hashes: usize) {
    while !c.eof() {
        if c.bump() == b'"' {
            let mut matched = 0;
            while matched < hashes && c.peek(0) == b'#' {
                c.bump();
                matched += 1;
            }
            if matched == hashes {
                return;
            }
        }
    }
}

/// Lexes `src` into tokens and pragmas. Never fails: malformed input
/// degrades to punctuation tokens, which no rule matches.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while !c.eof() {
        let start = c.pos;
        let line = c.line;
        let b = c.peek(0);

        // Whitespace.
        if b.is_ascii_whitespace() {
            c.bump();
            continue;
        }

        // Comments (and pragma harvesting from line comments).
        if b == b'/' && c.peek(1) == b'/' {
            while !c.eof() && c.peek(0) != b'\n' {
                c.bump();
            }
            let text = &src[start + 2..c.pos];
            let body = text.trim_start_matches(['/', '!']);
            if let Some(pragma) = parse_comment_pragma(body, line) {
                out.pragmas.push(pragma);
            }
            continue;
        }
        if b == b'/' && c.peek(1) == b'*' {
            c.bump();
            c.bump();
            let mut depth = 1usize;
            while !c.eof() && depth > 0 {
                if c.peek(0) == b'/' && c.peek(1) == b'*' {
                    c.bump();
                    c.bump();
                    depth += 1;
                } else if c.peek(0) == b'*' && c.peek(1) == b'/' {
                    c.bump();
                    c.bump();
                    depth -= 1;
                } else {
                    c.bump();
                }
            }
            continue;
        }

        // Raw strings and raw/byte-string prefixes: r"..", r#".."#, b"..",
        // br#".."#, and raw identifiers r#ident.
        if is_ident_start(b) {
            // Try the string-literal prefixes first.
            let mut prefix_len = 0usize;
            if (b == b'r' || b == b'b') && (c.peek(1) == b'"' || c.peek(1) == b'#') {
                prefix_len = 1;
            } else if (b == b'b' && c.peek(1) == b'r' || b == b'r' && c.peek(1) == b'b')
                && (c.peek(2) == b'"' || c.peek(2) == b'#')
            {
                prefix_len = 2;
            }
            if prefix_len > 0 {
                let after = c.peek(prefix_len);
                if after == b'"' {
                    for _ in 0..=prefix_len {
                        c.bump();
                    }
                    if src.as_bytes()[start] == b'b' && prefix_len == 1 {
                        // b"..." honors escapes; r"..." and br"..." do not.
                        eat_string_body(&mut c);
                    } else {
                        eat_raw_string_body(&mut c, 0);
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Str,
                        text: src[start..c.pos].to_string(),
                        line,
                    });
                    continue;
                }
                if after == b'#' {
                    // Count hashes; a quote after them makes a raw string,
                    // an identifier char makes a raw identifier (r#type).
                    let mut hashes = 0usize;
                    while c.peek(prefix_len + hashes) == b'#' {
                        hashes += 1;
                    }
                    if c.peek(prefix_len + hashes) == b'"' {
                        for _ in 0..prefix_len + hashes + 1 {
                            c.bump();
                        }
                        eat_raw_string_body(&mut c, hashes);
                        out.toks.push(Tok {
                            kind: TokKind::Str,
                            text: src[start..c.pos].to_string(),
                            line,
                        });
                        continue;
                    }
                    if hashes == 1 && prefix_len == 1 && is_ident_start(c.peek(2)) {
                        c.bump();
                        c.bump();
                        while is_ident_continue(c.peek(0)) {
                            c.bump();
                        }
                        out.toks.push(Tok {
                            kind: TokKind::Ident,
                            text: src[start + 2..c.pos].to_string(),
                            line,
                        });
                        continue;
                    }
                }
            }
            // Ordinary identifier / keyword.
            while is_ident_continue(c.peek(0)) {
                c.bump();
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: src[start..c.pos].to_string(),
                line,
            });
            continue;
        }

        // Plain string literal.
        if b == b'"' {
            c.bump();
            eat_string_body(&mut c);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: src[start..c.pos].to_string(),
                line,
            });
            continue;
        }

        // Char literal vs lifetime.
        if b == b'\'' {
            // Lifetime: 'ident not followed by a closing quote.
            if is_ident_start(c.peek(1)) {
                let mut end = 2;
                while is_ident_continue(c.peek(end)) {
                    end += 1;
                }
                if c.peek(end) != b'\'' {
                    for _ in 0..end {
                        c.bump();
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[start..c.pos].to_string(),
                        line,
                    });
                    continue;
                }
            }
            // Char literal: consume the (possibly escaped, possibly
            // multi-byte) payload, then the closing quote.
            c.bump();
            if c.peek(0) == b'\\' {
                c.bump();
                c.bump();
                // \u{...} escapes
                if c.peek(0) == b'{' {
                    while !c.eof() && c.bump() != b'}' {}
                }
            } else {
                let first = c.peek(0);
                let width = if first < 0x80 {
                    1
                } else if first < 0xE0 {
                    2
                } else if first < 0xF0 {
                    3
                } else {
                    4
                };
                for _ in 0..width {
                    c.bump();
                }
            }
            if c.peek(0) == b'\'' {
                c.bump();
            }
            out.toks.push(Tok {
                kind: TokKind::Char,
                text: src[start..c.pos].to_string(),
                line,
            });
            continue;
        }

        // Numbers.
        if b.is_ascii_digit() {
            while is_ident_continue(c.peek(0)) {
                c.bump();
            }
            if c.peek(0) == b'.' && c.peek(1).is_ascii_digit() {
                c.bump();
                while is_ident_continue(c.peek(0)) {
                    c.bump();
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: src[start..c.pos].to_string(),
                line,
            });
            continue;
        }

        // Everything else is single-char punctuation.
        c.bump();
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: src[start..c.pos].to_string(),
            line,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // unwrap() in a comment
            /* thread::spawn in a block /* nested */ still comment */
            let s = "HashMap::unwrap()"; // also hidden
            let r = r#"Instant::now()"#;
            let done = 1;
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"done".to_string()));
        for banned in ["unwrap", "thread", "HashMap", "Instant"] {
            assert!(
                !ids.contains(&banned.to_string()),
                "{banned} leaked out of a literal"
            );
        }
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x.trim() }");
        assert!(ids.contains(&"trim".to_string()));
        let lifetimes: Vec<Tok> = lex("&'static str")
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 1);
    }

    #[test]
    fn char_literals_close() {
        let ids = idents(r"let c = '\n'; let q = '\''; let b = '{'; after()");
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn matching_close_pairs_one_delimiter_kind() {
        let toks = lex("f::<Box<dyn Fn() -> u8>>(a[0], { b }) [").toks;
        let generics = matching_close(&toks, 3);
        assert_eq!(toks[generics + 1].text, "(", "`->` does not close a `<`");
        let call = matching_close(&toks, generics + 1);
        assert_eq!(
            toks[call + 1].text,
            "[",
            "the call's `)` skips the `[0]` and block"
        );
        let block = toks.iter().position(|t| t.text == "{").unwrap();
        assert_eq!(toks[matching_close(&toks, block)].text, "}");
        assert_eq!(
            matching_close(&toks, toks.len() - 1),
            toks.len(),
            "unclosed"
        );
    }

    #[test]
    fn lines_are_tracked() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn pragma_parses_rules_and_reason() {
        let lexed = lex("// patu-lint: allow(panic-path, hash-order) — worker panics propagate\n");
        assert_eq!(lexed.pragmas.len(), 1);
        let p = &lexed.pragmas[0];
        assert!(p.well_formed && p.has_reason);
        assert_eq!(
            p.rules,
            vec!["panic-path".to_string(), "hash-order".to_string()]
        );
    }

    #[test]
    fn pragma_without_reason_or_allow_is_flagged() {
        let lexed = lex("// patu-lint: allow(panic-path)\n// patu-lint: suppress everything\n");
        assert_eq!(lexed.pragmas.len(), 2);
        assert!(lexed.pragmas[0].well_formed && !lexed.pragmas[0].has_reason);
        assert!(!lexed.pragmas[1].well_formed);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let ids = idents("let r#type = 1; use_it(r#type)");
        assert!(ids.contains(&"type".to_string()));
        assert!(ids.contains(&"use_it".to_string()));
    }
}
