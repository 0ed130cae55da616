//! Regenerates the paper's tables, figures and ablations, and runs the
//! serve, chaos, temporal and telemetry harnesses, by name; see
//! [`patu_bench::paper`].
//!
//! Usage: `paper <name>… | all [--full] [--frames N]`

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = patu_bench::Knobs::from_env()?;
    let (experiments, opts) = patu_bench::paper::parse(std::env::args().skip(1))?;
    let out = std::path::Path::new("out");
    patu_bench::paper::run(&experiments, opts, knobs, out, &mut std::io::stdout())
}
