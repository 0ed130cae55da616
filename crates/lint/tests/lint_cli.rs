//! End-to-end tests of the `patu-lint` binary: exit codes, the report, and
//! the ci.sh hard-fail contract — a violation injected into a temp tree must
//! flip the exit code and name the offending `file:line`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_patu-lint"))
}

/// Builds a minimal clean workspace under `CARGO_TARGET_TMPDIR`.
fn temp_tree(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale temp tree");
    }
    std::fs::create_dir_all(dir.join("crates/demo/src")).expect("create temp tree");
    std::fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/demo\"]\n",
    )
    .expect("write workspace manifest");
    std::fs::write(
        dir.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\nversion = \"0.1.0\"\n\n[dependencies]\n",
    )
    .expect("write crate manifest");
    std::fs::write(
        dir.join("crates/demo/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn ok() -> u32 {\n    7\n}\n",
    )
    .expect("write lib.rs");
    dir
}

#[test]
fn clean_tree_exits_zero() {
    let dir = temp_tree("patu_lint_clean_tree");
    let out = bin()
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("run patu-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean tree must exit 0; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("workspace clean"));
}

#[test]
fn injected_violation_fails_with_file_and_line() {
    let dir = temp_tree("patu_lint_dirty_tree");
    std::fs::write(
        dir.join("crates/demo/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn bad(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("inject violation");
    let out = bin()
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("run patu-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a violation must exit 1, the ci.sh hard-fail contract"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("crates/demo/src/lib.rs:3: [panic-path]"),
        "got: {text}"
    );
    assert!(text.contains("patu-lint: 1 violation(s)"), "got: {text}");
}

#[test]
fn injected_manifest_violation_fails() {
    let dir = temp_tree("patu_lint_dirty_manifest");
    std::fs::write(
        dir.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\nversion = \"0.1.0\"\n\n[dependencies]\nserde = \"1.0\"\n",
    )
    .expect("inject external dependency");
    let out = bin()
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("run patu-lint");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("crates/demo/Cargo.toml:6: [extern-dep]"),
        "got: {text}"
    );
}

#[test]
fn the_real_workspace_is_clean_through_the_cli() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let out = bin()
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run patu-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_usage_and_missing_root_exit_two() {
    let out = bin().arg("--no-such-flag").output().expect("run patu-lint");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unknown flag is a usage error"
    );

    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("patu_lint_no_such_tree");
    let out = bin()
        .arg("--root")
        .arg(&missing)
        .output()
        .expect("run patu-lint");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unwalkable root is an I/O failure"
    );
}

#[test]
fn rules_listing_names_every_rule() {
    let out = bin().arg("--rules").output().expect("run patu-lint");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "wall-clock",
        "thread-spawn",
        "panic-path",
        "hash-order",
        "env-var",
        "float-fmt",
        "unsafe-code",
        "extern-dep",
        "det-rng-discipline",
        "parallel-float-fold",
        "schema-sync",
        "unused-pragma",
    ] {
        assert!(text.contains(rule), "--rules must list {rule}");
    }
}
