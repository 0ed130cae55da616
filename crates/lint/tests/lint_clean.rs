//! The workspace self-lint: the tree this test runs in must hold every
//! invariant `patu-lint` enforces. A violation anywhere in the workspace —
//! including in the linter's own sources — fails this test with the full
//! `file:line` diagnostic list. Pragma debt counts: every reasoned
//! `allow(...)` in the tree must still be suppressing a live violation.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let diags = match patu_lint::run(&root) {
        Ok(diags) => diags,
        Err(e) => panic!("patu-lint failed to walk the workspace: {e}"),
    };
    assert!(
        diags.is_empty(),
        "workspace must be patu-lint clean, pragma debt included, found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.human())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The stricter self-lint: every reasoned pragma in the tree must still be
/// suppressing a live violation, and a second run over the same tree must
/// reproduce the first one exactly.
#[test]
fn workspace_is_debt_free_and_cache_faithful() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let first = match patu_lint::run(&root) {
        Ok(diags) => diags,
        Err(e) => panic!("patu-lint failed to walk the workspace: {e}"),
    };
    assert!(
        first.iter().all(|d| d.rule != "unused-pragma"),
        "workspace must carry no pragma debt, found:\n{}",
        first
            .iter()
            .filter(|d| d.rule == "unused-pragma")
            .map(|d| d.human())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let second = match patu_lint::run(&root) {
        Ok(diags) => diags,
        Err(e) => panic!("patu-lint failed on the second run: {e}"),
    };
    assert_eq!(first, second, "a repeated run must agree with the first");
}
