//! The `patu-lint` command: walk the workspace, print diagnostics, exit
//! nonzero when invariants are violated.
//!
//! ```text
//! cargo run -p patu-lint --release -- [--root <dir>] [--rules]
//! ```
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: patu-lint [--root <dir>] [--rules]\n\
                     \n\
                     Statically checks the PATU workspace invariants:\n\
                     determinism (wall-clock, thread-spawn, hash-order, env-var,\n\
                     det-rng-discipline, parallel-float-fold),\n\
                     error hygiene (panic-path), telemetry/JSON hygiene (float-fmt,\n\
                     schema-sync), memory safety (unsafe-code), the offline\n\
                     guarantee (extern-dep) and pragma debt (unused-pragma).\n\
                     \n\
                     --root <dir>   lint this tree instead of the enclosing workspace\n\
                     --rules        list every rule id and its invariant";

fn fail(msg: &str) -> ExitCode {
    eprintln!("patu-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return fail("--root expects a directory"),
            },
            "--rules" => {
                for rule in patu_lint::rules::RULES {
                    println!("{:<20} {}", rule.id, rule.invariant);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other:?}")),
        }
    }
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });

    let diags = match patu_lint::run(&root) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("patu-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &diags {
        println!("{}", d.human());
    }
    if diags.is_empty() {
        println!("patu-lint: workspace clean");
        ExitCode::SUCCESS
    } else {
        println!("patu-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
