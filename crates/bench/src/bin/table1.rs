//! Prints Table I: the baseline simulator configuration.

use patu_gpu::GpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The table is the same under every knob and profile; `--full` and
    // `--frames` are accepted so one command line drives every harness.
    patu_bench::Knobs::from_env()?;
    patu_bench::RunOptions::from_args()?;
    println!("TABLE I: BASELINE SIMULATOR CONFIGURATION");
    println!("{}", "-".repeat(72));
    for (name, value) in GpuConfig::default().table1() {
        println!("{name:<32} | {value}");
    }
    Ok(())
}
