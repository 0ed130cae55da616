//! Determinism grid for the cross-frame tile-reuse path (`patu-temporal` +
//! `render_sequence`): sequences must be bit-identical across worker thread
//! counts, across reruns, and — whenever invalidation is forced every frame
//! — byte-identical to a reuse-disabled run, including under fault
//! injection. Reuse itself must respond to camera speed monotonically.

use patu_core::FilterPolicy;
use patu_gpu::FaultConfig;
use patu_obs::schema;
use patu_quality::SsimConfig;
use patu_scenes::Workload;
use patu_sim::render::{render_sequence, RenderConfig};
use patu_sim::FrameResult;
use patu_temporal::{TemporalConfig, TemporalMode, TileStore};

/// Small frames keep the full grid affordable; every property under test is
/// resolution-independent.
const RES: (u32, u32) = (192, 144);
const FRAMES: [u32; 5] = [0, 1, 2, 3, 4];

fn run(scene: &str, mode_cfg: TemporalConfig, cfg: &RenderConfig) -> Vec<FrameResult> {
    let w = Workload::build(scene, RES).expect("preset builds");
    let mut store = TileStore::new(mode_cfg);
    render_sequence(&w, &FRAMES, cfg, &mut store).expect("sequence renders")
}

fn assert_sequences_identical(a: &[FrameResult], b: &[FrameResult], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: frame counts");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.image.pixels(),
            y.image.pixels(),
            "{label}: frame {i} pixels diverge"
        );
        assert_eq!(x.stats, y.stats, "{label}: frame {i} stats diverge");
    }
}

/// The tentpole grid: (threads 1, 4) × (fault rate 0, 2%) × (policy
/// Baseline, Patu) × (temporal off, on, aggressive). Every cell must be
/// bit-identical across reruns and across thread counts.
#[test]
fn grid_is_bit_identical_across_threads_faults_policies_and_modes() {
    for fault_rate in [0.0, 0.02] {
        for policy in [
            FilterPolicy::Baseline,
            FilterPolicy::Patu { threshold: 0.4 },
        ] {
            for mode in [
                TemporalMode::Off,
                TemporalMode::On,
                TemporalMode::Aggressive,
            ] {
                let mut cfg = RenderConfig::new(policy).with_threads(1);
                if fault_rate > 0.0 {
                    cfg = cfg.with_faults(FaultConfig::uniform(7, fault_rate));
                }
                let label = format!("faults={fault_rate} {policy:?} {mode}");
                let mode_cfg = TemporalConfig::for_mode(mode);
                let serial = run("orbit", mode_cfg, &cfg);
                let rerun = run("orbit", mode_cfg, &cfg);
                assert_sequences_identical(&serial, &rerun, &format!("{label} rerun"));
                let threaded = run("orbit", mode_cfg, &cfg.with_threads(4));
                assert_sequences_identical(&serial, &threaded, &format!("{label} threads 1v4"));
            }
        }
    }
}

/// With invalidation forced every frame, the sequence path does all the
/// same rendering work as mode `off` — outputs must match byte for byte,
/// even under fault injection (per-(frame, tile) fault keying).
#[test]
fn forced_invalidation_matches_off_exactly() {
    for faults in [FaultConfig::disabled(), FaultConfig::uniform(42, 0.02)] {
        let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }).with_faults(faults);
        for scene in ["orbit", "dolly"] {
            let off = run(scene, TemporalConfig::off(), &cfg);
            let forced = run(
                scene,
                TemporalConfig::for_mode(TemporalMode::On).with_force_invalidate(),
                &cfg,
            );
            assert_sequences_identical(&off, &forced, &format!("{scene} off vs forced"));
            assert_eq!(
                forced.last().unwrap().stats.temporal.tiles_reused,
                0,
                "{scene}: forcing leaves nothing reused"
            );
        }
    }
}

/// Reuse must actually fire on the slow-camera presets, reused tiles must
/// make sequences cheaper than rendering every tile of every frame, the
/// reused frames must hold the 0.93 MSSIM floor against the reuse-disabled
/// ones, and every frame's `"temporal"` JSONL line must pass the schema.
#[test]
fn slow_sequences_reuse_tiles_and_save_cycles() {
    let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 });
    for scene in ["orbit", "dolly"] {
        let off = run(scene, TemporalConfig::off(), &cfg);
        let on = run(scene, TemporalConfig::for_mode(TemporalMode::On), &cfg);
        let reused: u64 = on
            .iter()
            .map(|f| f.stats.temporal.tiles_reused + f.stats.temporal.tiles_repredicted)
            .sum();
        assert!(reused > 0, "{scene}: slow camera must reuse tiles");
        let off_cycles: u64 = off.iter().map(|f| f.stats.cycles).sum();
        let on_cycles: u64 = on.iter().map(|f| f.stats.cycles).sum();
        assert!(
            on_cycles < off_cycles,
            "{scene}: reuse must shed cycles ({on_cycles} vs {off_cycles})"
        );
        // First frame renders cold either way.
        assert_eq!(on[0].stats.temporal.tiles_reused, 0);
        assert_eq!(on[0].image.pixels(), off[0].image.pixels());
        let ssim = SsimConfig::default();
        let mean_mssim = off
            .iter()
            .zip(&on)
            .map(|(a, b)| f64::from(ssim.mssim(&a.luma(), &b.luma())))
            .sum::<f64>()
            / on.len() as f64;
        assert!(
            mean_mssim >= 0.93,
            "{scene}: reuse MSSIM {mean_mssim:.4} under the 0.93 floor"
        );
        for (frame, f) in FRAMES.iter().zip(&on) {
            schema::check_line(&f.stats.temporal.jsonl_line(*frame))
                .unwrap_or_else(|e| panic!("{scene}: temporal line of frame {frame}: {e}"));
        }
    }
}

/// Faster camera motion (larger frame strides over the same orbit path)
/// must never increase the reused-tile fraction.
#[test]
fn reuse_fraction_is_monotone_in_camera_speed() {
    let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 });
    let w = Workload::build("orbit", RES).unwrap();
    let mut fractions = Vec::new();
    for stride in [1u32, 8, 64] {
        let frames: Vec<u32> = (0..FRAMES.len() as u32).map(|i| i * stride).collect();
        let mut store = TileStore::new(TemporalConfig::for_mode(TemporalMode::On));
        let results = render_sequence(&w, &frames, &cfg, &mut store).unwrap();
        // Skip the cold first frame; it rerenders at every speed.
        let (mut kept, mut total) = (0u64, 0u64);
        for f in &results[1..] {
            kept += f.stats.temporal.tiles_reused + f.stats.temporal.tiles_repredicted;
            total += f.stats.temporal.tiles_total();
        }
        fractions.push(kept as f64 / total.max(1) as f64);
    }
    assert!(
        fractions.windows(2).all(|w| w[0] >= w[1]),
        "reuse fraction must fall with camera speed: {fractions:?}"
    );
    assert!(
        fractions[0] > fractions[2],
        "slowest vs fastest must differ: {fractions:?}"
    );
    assert!(
        fractions[0] > 0.5,
        "slow orbit mostly reuses: {fractions:?}"
    );
}

/// `aggressive` keeps tiles at least as often as `on` over the same
/// sequence, and its attribution still conserves frame cycles.
#[test]
fn aggressive_reuses_at_least_as_much_and_attribution_conserves() {
    let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }).with_telemetry(
        patu_obs::TelemetryConfig::with_level(patu_obs::TraceLevel::Counters),
    );
    let on = run("orbit", TemporalConfig::for_mode(TemporalMode::On), &cfg);
    let aggr = run(
        "orbit",
        TemporalConfig::for_mode(TemporalMode::Aggressive),
        &cfg,
    );
    let kept = |rs: &[FrameResult]| -> u64 {
        rs.iter()
            .map(|f| f.stats.temporal.tiles_reused + f.stats.temporal.tiles_repredicted)
            .sum()
    };
    assert!(kept(&aggr) >= kept(&on));
    for f in on.iter().chain(&aggr) {
        let t = f.telemetry.as_deref().expect("counters level records");
        assert_eq!(
            t.attrib.frame_total(),
            f.stats.cycles,
            "cycle conservation with a reuse stage"
        );
        if f.stats.temporal.reuse_cycles > 0 {
            assert!(
                t.attrib.get(patu_obs::Stage::Reuse) > 0,
                "blit cycles must surface in the attribution"
            );
        }
    }
}
