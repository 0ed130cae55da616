//! Lint diagnostics and their one-line rendering.

/// One lint finding, anchored to a repo-relative `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// What was found and what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// `path:line: [rule] message` — the clickable one-line form.
    pub fn human(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_form_is_clickable() {
        let d = Diagnostic {
            rule: "panic-path",
            path: "crates/gpu/src/cache.rs".to_string(),
            line: 129,
            message: "`.expect()` in library code".to_string(),
        };
        assert_eq!(
            d.human(),
            "crates/gpu/src/cache.rs:129: [panic-path] `.expect()` in library code"
        );
    }
}
