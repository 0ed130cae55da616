//! Pins of the geometry pass and of the frames built on it, recorded
//! before the tile rasterizer moved into the cluster workers.
//!
//! The geometry pins hash every emitted fragment, so any change to binning,
//! the liveness probe, per-tile early-Z or the traversal order shows here
//! first. The frame pins cover what the render path derives from the
//! geometry: the static tile partition (through the image and the cycles),
//! the depth traffic and shader work (from `fragments_generated` and
//! `fragments_shaded`) and the `geom::*` telemetry, including tiles that
//! sequence mode blits.

use patu_obs::{TelemetryConfig, TraceLevel};
use patu_raster::{Fragment, GeometryStats, Pipeline, TraversalOrder};
use patu_scenes::Workload;
use patu_sim::experiment::design_points;
use patu_sim::render::{render_policies, render_sequence, FrameResult, RenderConfig};
use patu_temporal::{TemporalConfig, TemporalMode, TileStore};

/// FNV-1a, folded one 32-bit word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn fragment(&mut self, f: &Fragment) {
        self.word(f.x);
        self.word(f.y);
        for v in [f.uv, f.duv_dx, f.duv_dy] {
            self.word(v.x.to_bits());
            self.word(v.y.to_bits());
        }
        self.word(f.material as u32);
        self.word(f.primitive);
    }
}

const RES: (u32, u32) = (320, 256);

/// `(game, frame)` pairs the geometry pins render.
const GEOMETRY_FRAMES: [(&str, u32); 3] = [("hl2", 0), ("grid", 3), ("wolf", 5)];

/// `[vertices, triangles in, clipped out, culled, rasterized, fragments
/// generated, fragments shaded, tiles covered]`.
fn stats_row(s: &GeometryStats) -> [u64; 8] {
    [
        s.vertices_processed,
        s.triangles_in,
        s.triangles_clipped_out,
        s.triangles_culled,
        s.triangles_rasterized,
        s.fragments_generated,
        s.fragments_shaded,
        s.tiles_covered,
    ]
}

/// Per `GEOMETRY_FRAMES` entry and traversal order (row-major, Morton):
/// the stats row, the number of emitted tiles and the fragment hash.
const GEOMETRY_PINS: [([u64; 8], usize, u64); 6] = [
    (
        [184, 92, 0, 56, 42, 82_100, 81_300, 316],
        312,
        10_203_452_602_970_381_772,
    ),
    (
        [184, 92, 0, 56, 42, 82_100, 81_300, 316],
        312,
        8_083_745_313_053_602_160,
    ),
    (
        [40, 20, 0, 0, 31, 124_515, 85_473, 320],
        320,
        14_976_691_485_541_405_821,
    ),
    (
        [40, 20, 0, 0, 31, 124_515, 85_473, 320],
        320,
        3_451_194_561_045_601_513,
    ),
    (
        [20, 10, 0, 0, 18, 81_920, 81_920, 320],
        320,
        14_309_247_527_108_550_637,
    ),
    (
        [20, 10, 0, 0, 18, 81_920, 81_920, 320],
        320,
        13_952_149_979_052_991_445,
    ),
];

/// Hashes one emitted tile: its position, fragment count and fragments.
fn hash_tile(h: &mut Fnv, tx: u32, ty: u32, fragments: &[Fragment]) {
    h.word(tx);
    h.word(ty);
    h.word(fragments.len() as u32);
    for f in fragments {
        h.fragment(f);
    }
}

#[test]
fn geometry_pass_reproduces_its_pins() {
    let mut run = Vec::new();
    let mut split = Vec::new();
    for (game, frame) in GEOMETRY_FRAMES {
        let w = Workload::build(game, RES).expect("bundled game");
        let scene = w.frame(frame);
        for order in [TraversalOrder::RowMajor, TraversalOrder::Morton] {
            let pipeline = Pipeline::new(RES.0, RES.1).with_traversal(order);
            let out = pipeline.run(&scene.meshes, &scene.camera);
            let mut h = Fnv::new();
            for tile in &out.tiles {
                hash_tile(&mut h, tile.tx, tile.ty, &tile.fragments);
            }
            run.push((stats_row(&out.stats), out.tiles.len(), h.0));

            // The same pass split at the bin boundary, as the renderer runs it.
            let binned = pipeline.bin(&scene.meshes, &scene.camera);
            let (mut stats, mut fragments, mut h) = (binned.stats(), Vec::new(), Fnv::new());
            for (i, bin) in binned.bins().iter().enumerate() {
                binned.rasterize(i, &mut fragments, &mut stats);
                hash_tile(&mut h, bin.tx, bin.ty, &fragments);
            }
            split.push((stats_row(&stats), binned.bins().len(), h.0));
        }
    }
    assert_eq!(run, GEOMETRY_PINS, "Pipeline::run: {run:?}");
    assert_eq!(split, GEOMETRY_PINS, "bin + rasterize: {split:?}");
}

/// What a frame pin records: `[image hash, cycles, depth bytes, shader ALU
/// ops, geom::fragments_generated, geom::fragments_shaded,
/// geom::tiles_covered, tiles reused]`.
fn frame_row(r: &FrameResult) -> [u64; 8] {
    let mut h = Fnv::new();
    for p in r.image.pixels() {
        h.word(u32::from_le_bytes([p.r, p.g, p.b, p.a]));
    }
    let t = r.telemetry.as_deref().expect("counters level records");
    [
        h.0,
        r.stats.cycles,
        r.stats.bandwidth.depth,
        r.stats.events.shader_alu_ops,
        t.counters["geom::fragments_generated"],
        t.counters["geom::fragments_shaded"],
        t.counters["geom::tiles_covered"],
        r.stats.temporal.tiles_reused,
    ]
}

fn counters(threads: usize, policy: patu_core::FilterPolicy) -> RenderConfig {
    RenderConfig::new(policy)
        .with_threads(threads)
        .with_telemetry(TelemetryConfig::with_level(TraceLevel::Counters))
}

/// Per frame, one row per design point at θ = 0.4.
const POLICY_FRAMES: [(&str, u32); 2] = [("hl2", 0), ("nfs", 4)];
const POLICY_PINS: [[[u64; 8]; 4]; 2] = [
    [
        [
            16_997_497_951_958_074_518,
            135_220,
            82_100,
            5_203_200,
            82_100,
            81_300,
            316,
            0,
        ],
        [
            7_014_666_064_157_321_231,
            134_264,
            82_100,
            5_203_200,
            82_100,
            81_300,
            316,
            0,
        ],
        [
            13_944_543_065_628_901_014,
            56_558,
            82_100,
            5_203_200,
            82_100,
            81_300,
            316,
            0,
        ],
        [
            10_887_749_719_744_871_233,
            67_771,
            82_100,
            5_203_200,
            82_100,
            81_300,
            316,
            0,
        ],
    ],
    [
        [
            2_142_320_774_525_980_477,
            137_431,
            106_553,
            5_123_008,
            106_553,
            80_047,
            320,
            0,
        ],
        [
            8_042_698_269_202_286_144,
            118_052,
            106_553,
            5_123_008,
            106_553,
            80_047,
            320,
            0,
        ],
        [
            12_663_781_390_578_435_621,
            51_087,
            106_553,
            5_123_008,
            106_553,
            80_047,
            320,
            0,
        ],
        [
            4_896_251_398_485_531_145,
            76_087,
            106_553,
            5_123_008,
            106_553,
            80_047,
            320,
            0,
        ],
    ],
];

#[test]
fn design_point_frames_reproduce_their_pins() {
    let policies: Vec<_> = design_points(0.4).into_iter().map(|(_, p)| p).collect();
    for threads in [1, 4] {
        let mut actual = Vec::new();
        for (game, frame) in POLICY_FRAMES {
            let w = Workload::build(game, RES).expect("bundled game");
            let cfg = counters(threads, policies[0]);
            let results = render_policies(&w, frame, &cfg, &policies).expect("renders");
            let rows: Vec<[u64; 8]> = results.iter().map(frame_row).collect();
            actual.push(<[[u64; 8]; 4]>::try_from(rows).expect("four design points"));
        }
        assert_eq!(actual, POLICY_PINS, "threads {threads}, actual: {actual:?}");
    }
}

/// One row per frame of an orbit sequence with reuse on.
const SEQUENCE_FRAMES: [u32; 4] = [0, 1, 2, 3];
const SEQUENCE_PINS: [[u64; 8]; 4] = [
    [
        1_573_920_941_882_931_299,
        76_260,
        60_353,
        3_862_592,
        60_353,
        60_353,
        231,
        0,
    ],
    [
        1_573_920_941_882_931_299,
        1_380,
        60_357,
        3_862_848,
        60_357,
        60_357,
        231,
        231,
    ],
    [
        1_573_920_941_882_931_299,
        2_062,
        60_359,
        3_862_976,
        60_359,
        60_359,
        231,
        175,
    ],
    [
        12_616_135_538_688_956_823,
        40_181,
        60_365,
        3_863_360,
        60_365,
        60_365,
        231,
        126,
    ],
];

#[test]
fn reuse_sequence_reproduces_its_pins() {
    let w = Workload::build("orbit", RES).expect("sequence preset");
    for threads in [1, 4] {
        let mut store = TileStore::new(TemporalConfig::for_mode(TemporalMode::On));
        let cfg = counters(threads, patu_core::FilterPolicy::Patu { threshold: 0.4 });
        let results = render_sequence(&w, &SEQUENCE_FRAMES, &cfg, &mut store).expect("renders");
        let actual: Vec<[u64; 8]> = results.iter().map(frame_row).collect();
        assert_eq!(
            actual, SEQUENCE_PINS,
            "threads {threads}, actual: {actual:?}"
        );
        assert!(
            actual[1..].iter().any(|row| row[7] > 0),
            "some tiles are blitted, so their counts must still be pinned"
        );
    }
}
