//! Integration tests of the interprocedural pipeline on temp-tree
//! workspaces: cross-crate taint, knob reads and schema sync, all
//! through the public [`patu_lint::run`] entry point.

use std::path::{Path, PathBuf};

/// Builds a throwaway workspace under `CARGO_TARGET_TMPDIR` from
/// `(relative path, contents)` pairs.
fn tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale temp tree");
    }
    for (rel, contents) in files {
        let full = dir.join(rel);
        std::fs::create_dir_all(full.parent().expect("parent")).expect("mkdirs");
        std::fs::write(full, contents).expect("write fixture file");
    }
    dir
}

const WORKSPACE_TOML: &str = "[workspace]\nmembers = [\"crates/*\"]\n";

fn package_toml(name: &str, deps: &str) -> String {
    format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\n\n[dependencies]\n{deps}")
}

fn rules_of(diags: &[patu_lint::Diagnostic]) -> Vec<(&'static str, String, u32)> {
    diags
        .iter()
        .map(|d| (d.rule, d.path.clone(), d.line))
        .collect()
}

#[test]
fn cross_crate_rng_taint_flags_the_call_site() {
    let dir = tree(
        "patu_lint_v2_rng",
        &[
            ("Cargo.toml", WORKSPACE_TOML),
            ("crates/alpha/Cargo.toml", &package_toml("patu-alpha", "")),
            (
                "crates/alpha/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 use patu_sim::parallel;\n\
                 use patu_gmath::DetRng;\n\
                 \n\
                 pub fn draws(rng: &mut DetRng) -> Vec<u64> {\n\
                 \x20   parallel::run_tasks(4, (0..8).map(|i| Box::new(move || rng.next_u64() + i) as parallel::Task<'_, u64>).collect())\n\
                 }\n",
            ),
            (
                "crates/beta/Cargo.toml",
                &package_toml("patu-beta", "patu-alpha = { path = \"../alpha\" }\n"),
            ),
            (
                "crates/beta/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 use patu_alpha::draws;\n\
                 use patu_gmath::DetRng;\n\
                 \n\
                 pub fn go(seed: u64) -> Vec<u64> {\n\
                 \x20   let mut rng = DetRng::new(seed);\n\
                 \x20   draws(&mut rng)\n\
                 }\n",
            ),
        ],
    );
    let diags = patu_lint::run(&dir).expect("lint temp tree");
    assert_eq!(
        rules_of(&diags),
        vec![(
            "det-rng-discipline",
            "crates/beta/src/lib.rs".to_string(),
            7
        )],
        "the call site passing a live stream into a partitioned callee must \
         be flagged, and nothing else"
    );
}

#[test]
fn knob_reachability_crosses_crates() {
    let dir = tree(
        "patu_lint_v2_knob",
        &[
            ("Cargo.toml", WORKSPACE_TOML),
            ("crates/alpha/Cargo.toml", &package_toml("patu-alpha", "")),
            (
                "crates/alpha/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn helper(n: u32) -> u32 {\n\
                 \x20   let raw = std::env::var(\"PATU_TEMP_KNOB\").ok();\n\
                 \x20   raw.map_or(n, |v| v.len() as u32)\n\
                 }\n",
            ),
            (
                "crates/beta/Cargo.toml",
                &package_toml("patu-beta", "patu-alpha = { path = \"../alpha\" }\n"),
            ),
            (
                "crates/beta/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn render_frame(n: u32) -> u32 {\n\
                 \x20   patu_alpha::helper(n)\n\
                 }\n",
            ),
        ],
    );
    let diags = patu_lint::run(&dir).expect("lint temp tree");
    assert_eq!(
        rules_of(&diags),
        vec![("env-var", "crates/alpha/src/lib.rs".to_string(), 3)],
        "an env read one crate away from render_frame is flagged once, by \
         env-var: no library may read the environment, reachable or not"
    );
}

#[test]
fn schema_sync_checks_both_directions_across_crates() {
    let dir = tree(
        "patu_lint_v2_schema",
        &[
            ("Cargo.toml", WORKSPACE_TOML),
            ("crates/alpha/Cargo.toml", &package_toml("patu-alpha", "")),
            (
                "crates/alpha/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub const LINE_TYPES: [&str; 2] = [\"frame\", \"ghost\"];\n",
            ),
            ("crates/beta/Cargo.toml", &package_toml("patu-beta", "")),
            (
                "crates/beta/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn emit_frame(n: u32) -> String {\n\
                 \x20   format!(\"{{\\\"type\\\":\\\"frame\\\",\\\"n\\\":{n}}}\")\n\
                 }\n\
                 pub fn emit_rogue(n: u32) -> String {\n\
                 \x20   format!(\"{{\\\"type\\\":\\\"rogue\\\",\\\"n\\\":{n}}}\")\n\
                 }\n",
            ),
        ],
    );
    let diags = patu_lint::run(&dir).expect("lint temp tree");
    assert_eq!(
        rules_of(&diags),
        vec![
            ("schema-sync", "crates/alpha/src/lib.rs".to_string(), 2),
            ("schema-sync", "crates/beta/src/lib.rs".to_string(), 6),
        ],
        "dead registry entry flagged at the registry, rogue tag at the \
         emission — the registered-and-emitted tag stays silent"
    );
}
