//! Prints Table II: the 3D gaming benchmark inventory.

use patu_scenes::catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The table is the same under every knob and profile; `--full` and
    // `--frames` are accepted so one command line drives every harness.
    patu_bench::Knobs::from_env()?;
    patu_bench::RunOptions::from_args()?;
    println!("TABLE II: 3D GAMING BENCHMARKS");
    println!("{}", "-".repeat(72));
    println!(
        "{:<7} {:<32} {:<12} {:<10}",
        "Abbr.", "Name", "Resolution", "Library"
    );
    for spec in catalog() {
        println!(
            "{:<7} {:<32} {:<12} {:<10}",
            spec.name,
            spec.title,
            format!("{}x{}", spec.resolution.0, spec.resolution.1),
            spec.library
        );
    }
    println!("\n(Each workload is a procedural stand-in scene; see DESIGN.md §2.)");
    Ok(())
}
