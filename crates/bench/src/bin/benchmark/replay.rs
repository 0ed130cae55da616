//! Layer-by-layer replay of one frame of `patu_sim::render`.
//!
//! [`replay_frame`] makes, in order, the public calls `render_scene` makes
//! for the default render path (no faults, no cycle budget, no foveation,
//! batched fragments), timing each layer from outside:
//!
//! - `scenes.frame`: [`Workload::frame`];
//! - `temporal.plan` / `temporal.blit` / `temporal.commit`, in sequence
//!   mode only: the [`TileStore`] calls `render_sequence` makes;
//! - `raster.run`: [`Pipeline::run`];
//! - `sim.shards`: per-cluster memory, texture and PATU units;
//! - `core.filter`: [`SoaBatch::push`] and `filter_batch` per material run;
//! - `gpu.process_flat`: `TextureUnit::process_flat` per lane, which drives
//!   the `MemorySystem`;
//! - `raster.shade`: `ShaderKind::apply` and [`Framebuffer::put`];
//! - `sim.merge`: the [`FrameTimer`] merge and `copy_rect_from` stitching.
//!
//! Clusters run serially, in index order. The replay must reproduce the
//! renderer's pixels and `FrameStats::cycles` exactly (the tests below and
//! the traced runs' `sim.replay_exact` check it); otherwise its layer times
//! would describe some other program.

use crate::ledger::{ratio, Layers, Ledger};
use patu_bench::micro::timed;
use patu_core::{FilterPolicy, PerceptionAwareTextureUnit, SoaBatch};
use patu_gpu::{FaultConfig, FrameTimer, GpuConfig, MemorySystem, TextureUnit};
use patu_raster::{Framebuffer, Pipeline, Tile};
use patu_scenes::Workload;
use patu_sim::render::{BatchMode, RenderConfig};
use patu_sim::{parallel, SimError};
use patu_temporal::{TileClass, TileDecision, TileStore};
use patu_texture::Rgba8;
use std::error::Error;

// The renderer's private cost constants (`crates/sim/src/render.rs`),
// mirrored so the replayed cycle count can be checked for equality.
const CYCLES_PER_VERTEX: u64 = 4;
const CYCLES_PER_TRIANGLE: u64 = 2;
const REUSE_PIXELS_PER_CYCLE: u64 = 16;
const REPREDICT_FRAGS_PER_CYCLE: u64 = 8;

/// Work counts of one replayed frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Triangles rasterized.
    pub triangles: u64,
    /// Fragments the rasterizer shaded (reused tiles included).
    pub fragments: u64,
    /// Fragments filtered (lanes through `filter_batch`).
    pub lanes: u64,
    /// Trilinear taps fetched over those lanes.
    pub taps: u64,
    /// Lanes whose filtering the policy approximated.
    pub demoted: u64,
    /// Texel fetches issued to the memory system.
    pub texel_fetches: u64,
    /// L1 lookups and misses, summed over clusters.
    pub l1_accesses: u64,
    /// See `l1_accesses`.
    pub l1_misses: u64,
    /// L2 lookups and misses, summed over clusters.
    pub l2_accesses: u64,
    /// See `l2_accesses`.
    pub l2_misses: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn accumulate(&mut self, other: &Counts) {
        self.triangles += other.triangles;
        self.fragments += other.fragments;
        self.lanes += other.lanes;
        self.taps += other.taps;
        self.demoted += other.demoted;
        self.texel_fetches += other.texel_fetches;
        self.l1_accesses += other.l1_accesses;
        self.l1_misses += other.l1_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
    }
}

/// What a replayed frame produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The stitched image; must equal the renderer's.
    pub image: Framebuffer,
    /// The frame's cycles; must equal `FrameStats::cycles`.
    pub cycles: u64,
    /// Work done.
    pub counts: Counts,
    /// Milliseconds spent in `core.filter` (attributed per policy by the
    /// caller).
    pub filter_ms: f64,
}

struct Shard {
    mem: MemorySystem,
    tex: TextureUnit,
    patu: PerceptionAwareTextureUnit,
}

/// One tile's decision summary, as `render_sequence` hands it to
/// [`TileStore::commit`].
struct TileSummary {
    tile: usize,
    tx: u32,
    ty: u32,
    fragments: u64,
    demoted: u64,
}

fn rect(tile: &Tile, gpu: &GpuConfig, width: u32, height: u32) -> (u32, u32, u32, u32) {
    let x0 = tile.tx * gpu.tile_size;
    let y0 = tile.ty * gpu.tile_size;
    (
        x0,
        y0,
        gpu.tile_size.min(width - x0),
        gpu.tile_size.min(height - y0),
    )
}

/// Rejects configurations whose render path the replay does not mirror.
fn check_default_path(cfg: &RenderConfig) -> Result<(), Box<dyn Error>> {
    let default_path = cfg.faults == FaultConfig::disabled()
        && cfg.cycle_budget.is_none()
        && cfg.foveation.is_none()
        && cfg.batching == BatchMode::Soa
        && !cfg.telemetry.level.counters_enabled();
    if default_path {
        Ok(())
    } else {
        Err("replay covers the default render path only \
             (no faults, cycle budget, foveation or telemetry)"
            .into())
    }
}

fn build_shards(cfg: &RenderConfig) -> Result<Vec<Shard>, SimError> {
    MemorySystem::try_new(&cfg.gpu)?;
    let shard_gpu = cfg.gpu.cluster_shard();
    let mut shards = Vec::new();
    for c in 0..cfg.gpu.clusters.max(1) as usize {
        let mut mem = MemorySystem::try_new(&shard_gpu)?;
        mem.set_cluster_faults(cfg.faults, c as u64)?;
        let patu = PerceptionAwareTextureUnit::try_with_faults(
            cfg.policy,
            cfg.hash_table_capacity,
            cfg.faults,
            c as u64,
        )?;
        shards.push(Shard {
            mem,
            tex: TextureUnit::new(0, &shard_gpu),
            patu,
        });
    }
    Ok(shards)
}

/// Replays frame `index` of `workload` under `cfg`, recording layer spans
/// as children of `parent`. With `store`, replays one `render_sequence`
/// frame against it (planning, blitting reused tiles and committing);
/// without, one `render_frame`.
///
/// # Errors
///
/// Returns the [`SimError`] the renderer would, or an error for a
/// configuration whose path the replay does not mirror.
pub fn replay_frame(
    workload: &Workload,
    index: u32,
    cfg: &RenderConfig,
    store: Option<&mut TileStore>,
    ledger: &mut Ledger,
    parent: usize,
) -> Result<Replayed, Box<dyn Error>> {
    check_default_path(cfg)?;
    let (width, height) = workload.resolution();
    let gpu = &cfg.gpu;
    let tile_size = gpu.tile_size;

    let (scene, ms) = timed(|| workload.frame(index));
    ledger.record("scenes.frame", parent, ms);
    let plan = match store.as_deref() {
        Some(st) => {
            let (plan, ms) = timed(|| st.plan(&scene, width, height, tile_size));
            ledger.record("temporal.plan", parent, ms);
            Some(plan)
        }
        None => None,
    };
    let (geometry, ms) = timed(|| {
        Pipeline::with_tile_size(width, height, tile_size)
            .with_traversal(cfg.traversal)
            .run(&scene.meshes, &scene.camera)
    });
    ledger.record("raster.run", parent, ms);

    let clusters = gpu.clusters.max(1) as usize;
    let (shards, ms) = timed(|| {
        let mut cluster_tiles: Vec<Vec<usize>> = vec![Vec::new(); clusters];
        for i in 0..geometry.tiles.len() {
            cluster_tiles[parallel::tile_cluster(i, clusters)].push(i);
        }
        build_shards(cfg).map(|shards| (shards, cluster_tiles))
    });
    let (shards, cluster_tiles) = shards?;
    ledger.record("sim.shards", parent, ms);

    let frontend = geometry.stats.vertices_processed * CYCLES_PER_VERTEX
        + geometry.stats.triangles_rasterized * CYCLES_PER_TRIANGLE;
    let mut counts = Counts {
        triangles: geometry.stats.triangles_rasterized,
        fragments: geometry.stats.fragments_shaded,
        ..Counts::default()
    };
    let filter = ledger.span("core.filter", parent);
    let fetch = ledger.span("gpu.process_flat", parent);
    let shade = ledger.span("raster.shade", parent);
    let blit = match plan {
        Some(_) => ledger.span("temporal.blit", parent),
        None => 0,
    };
    let policy: FilterPolicy = cfg.policy;
    let mut outputs: Vec<(Framebuffer, u64)> = Vec::with_capacity(clusters);
    let mut summaries: Vec<TileSummary> = Vec::with_capacity(geometry.tiles.len());
    let mut batch = SoaBatch::new();
    for (c, mut shard) in shards.into_iter().enumerate() {
        let mut timer = FrameTimer::new(gpu);
        timer.add_frontend_cycles(frontend);
        let mut image = Framebuffer::new(width, height, Rgba8::BLACK);
        for &ti in &cluster_tiles[c] {
            let tile = &geometry.tiles[ti];
            if let (Some(st), Some(plan)) = (store.as_deref(), plan.as_ref()) {
                shard.mem.rekey_faults(&[u64::from(index), ti as u64]);
                shard.patu.rekey_faults(&[u64::from(index), ti as u64]);
                let class = plan.class(tile.tx, tile.ty);
                if let (true, Some(prev)) = (class != TileClass::Rerender, st.prev_image()) {
                    let start = timer.begin_tile_on(c);
                    let (x0, y0, w, h) = rect(tile, gpu, width, height);
                    let ((), ms) = timed(|| image.copy_rect_from(prev, x0, y0, w, h));
                    ledger.add(blit, ms);
                    let stored = st.decision(tile.tx, tile.ty).unwrap_or_default();
                    let mut cost =
                        (u64::from(w) * u64::from(h)).div_ceil(REUSE_PIXELS_PER_CYCLE) + 1;
                    if class == TileClass::Repredict {
                        cost += stored.fragments.div_ceil(REPREDICT_FRAGS_PER_CYCLE) + 1;
                    }
                    timer.end_tile(c, cost, start);
                    summaries.push(TileSummary {
                        tile: ti,
                        tx: tile.tx,
                        ty: tile.ty,
                        fragments: stored.fragments,
                        demoted: stored.demoted,
                    });
                    continue;
                }
            }
            let start = timer.begin_tile_on(c);
            let mut texture_done = start;
            let mut tile_demoted = 0u64;
            let frags = &tile.fragments;
            let mut i = 0;
            while i < frags.len() {
                let material = frags[i].material;
                let mut j = i + 1;
                while j < frags.len() && frags[j].material == material {
                    j += 1;
                }
                let run = &frags[i..j];
                let tex = &workload.textures()[material];
                let ((), ms) = timed(|| {
                    batch.clear();
                    for frag in run {
                        batch.push(frag.x, frag.y, frag.uv, frag.duv_dx, frag.duv_dy);
                    }
                    shard.patu.filter_batch(
                        tex,
                        cfg.address_mode,
                        gpu.max_aniso,
                        &mut batch,
                        |_| policy,
                    );
                });
                ledger.add(filter, ms);
                let ((done, taps, demoted), ms) = timed(|| {
                    let (mut done, mut taps, mut demoted) = (texture_done, 0u64, 0u64);
                    for lane in 0..run.len() {
                        let lane_taps = u64::from(batch.taps(lane));
                        let timing = shard.tex.process_flat(
                            batch.tap_addresses(lane),
                            lane_taps,
                            &mut shard.mem,
                            start,
                        );
                        done = done.max(timing.completion);
                        taps += lane_taps;
                        demoted += u64::from(batch.decision(lane).is_approximated());
                    }
                    (done, taps, demoted)
                });
                ledger.add(fetch, ms);
                texture_done = done;
                counts.taps += taps;
                tile_demoted += demoted;
                let ((), ms) = timed(|| {
                    for (lane, frag) in run.iter().enumerate() {
                        let shaded = workload.shader(frag.material).apply(batch.color(lane));
                        image.put(frag.x, frag.y, shaded);
                    }
                });
                ledger.add(shade, ms);
                i = j;
            }
            let shading = timer.shading_cycles(frags.len() as u64);
            timer.end_tile(c, shading, texture_done);
            counts.lanes += frags.len() as u64;
            counts.demoted += tile_demoted;
            summaries.push(TileSummary {
                tile: ti,
                tx: tile.tx,
                ty: tile.ty,
                fragments: frags.len() as u64,
                demoted: tile_demoted,
            });
        }
        let events = shard.mem.events();
        counts.texel_fetches += events.texel_fetches;
        counts.l1_accesses += events.l1_accesses;
        counts.l1_misses += events.l1_misses;
        counts.l2_accesses += events.l2_accesses;
        counts.l2_misses += events.l2_misses;
        outputs.push((image, timer.cluster_cycles(c)));
    }

    let ((image, cycles), ms) = timed(|| {
        let mut image = Framebuffer::new(width, height, Rgba8::BLACK);
        let mut timer = FrameTimer::new(gpu);
        timer.add_frontend_cycles(frontend);
        for (c, (cluster_image, finish)) in outputs.iter().enumerate() {
            timer.merge_cluster(c, *finish);
            for &ti in &cluster_tiles[c] {
                let (x0, y0, w, h) = rect(&geometry.tiles[ti], gpu, width, height);
                image.copy_rect_from(cluster_image, x0, y0, w, h);
            }
        }
        (image, timer.frame_cycles())
    });
    ledger.record("sim.merge", parent, ms);

    if let (Some(st), Some(plan)) = (store, plan.as_ref()) {
        let threshold_bp = policy
            .threshold()
            .map(|t| (t * 10_000.0).round() as u32)
            .unwrap_or(0);
        let ((), ms) = timed(|| {
            summaries.sort_unstable_by_key(|t| t.tile);
            let tiles_x = width.div_ceil(tile_size);
            let tiles_y = height.div_ceil(tile_size);
            let mut fresh = vec![TileDecision::default(); (tiles_x * tiles_y) as usize];
            for t in &summaries {
                fresh[(t.ty * tiles_x + t.tx) as usize] =
                    TileDecision::new(t.fragments, t.demoted, threshold_bp);
            }
            st.commit(scene, image.clone(), tile_size, plan, &fresh);
        });
        ledger.record("temporal.commit", parent, ms);
    }

    let filter_ms = ledger.get(filter).ms;
    Ok(Replayed {
        image,
        cycles,
        counts,
        filter_ms,
    })
}

/// Fills the layer metrics the replay measures (`scenes`, `raster`,
/// `core` totals, `gpu`, and `sim` shard/merge time) from the ledger and
/// the summed work counts.
pub fn record_replay_layers(layers: &mut Layers, ledger: &Ledger, counts: &Counts) {
    let raster_ms = ledger.total_ms("raster.run");
    let mem_ms = ledger.total_ms("gpu.process_flat");
    layers.set("scenes.frame_ms", ledger.total_ms("scenes.frame"));
    layers.set("raster.run_ms", raster_ms);
    layers.set(
        "raster.ns_per_fragment",
        ratio(raster_ms * 1e6, counts.fragments as f64),
    );
    layers.set("raster.triangles", counts.triangles as f64);
    layers.set("raster.fragments", counts.fragments as f64);
    layers.set("raster.shade_ms", ledger.total_ms("raster.shade"));
    layers.set("core.filter_ms", ledger.total_ms("core.filter"));
    layers.set("core.lanes", counts.lanes as f64);
    layers.set("gpu.mem_ms", mem_ms);
    layers.set(
        "gpu.ns_per_fetch",
        ratio(mem_ms * 1e6, counts.texel_fetches as f64),
    );
    layers.set("gpu.texel_fetches", counts.texel_fetches as f64);
    let hit_rate = |misses: u64, accesses: u64| {
        if accesses == 0 {
            0.0
        } else {
            1.0 - misses as f64 / accesses as f64
        }
    };
    layers.set(
        "gpu.l1_hit_rate",
        hit_rate(counts.l1_misses, counts.l1_accesses),
    );
    layers.set(
        "gpu.l2_hit_rate",
        hit_rate(counts.l2_misses, counts.l2_accesses),
    );
    layers.set("sim.shard_setup_ms", ledger.total_ms("sim.shards"));
    layers.set("sim.merge_ms", ledger.total_ms("sim.merge"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use patu_sim::render::{render_frame, render_sequence};
    use patu_temporal::{TemporalConfig, TemporalMode};

    fn policies() -> Vec<FilterPolicy> {
        let mut all: Vec<FilterPolicy> = patu_sim::experiment::design_points(0.4)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        all.push(FilterPolicy::NoAf);
        all
    }

    #[test]
    fn replay_matches_render_frame_pixels_and_cycles() {
        for (scene, frame) in [("doom3", 150u32), ("wolf", 300)] {
            let workload = Workload::build(scene, (160, 128)).unwrap();
            for policy in policies() {
                let cfg = RenderConfig::new(policy).with_threads(1);
                let rendered = render_frame(&workload, frame, &cfg).unwrap();
                let mut ledger = Ledger::default();
                let root = ledger.span("replay", 0);
                let replayed =
                    replay_frame(&workload, frame, &cfg, None, &mut ledger, root).unwrap();
                assert_eq!(
                    replayed.image.pixels(),
                    rendered.image.pixels(),
                    "{scene} {policy:?} pixels"
                );
                assert_eq!(replayed.cycles, rendered.stats.cycles, "{scene} {policy:?}");
                assert_eq!(
                    replayed.counts.texel_fetches,
                    rendered.stats.events.texel_fetches
                );
                assert_eq!(replayed.counts.lanes, rendered.stats.filter_requests);
                assert_eq!(ledger.total_calls("scenes.frame"), 1);
            }
        }
    }

    #[test]
    fn sequence_replay_matches_render_sequence_frame_by_frame() {
        let workload = Workload::build("orbit", (160, 120)).unwrap();
        let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }).with_threads(1);
        let on = TemporalConfig::for_mode(TemporalMode::On);
        let mut rendered_store = TileStore::new(on);
        let mut replay_store = TileStore::new(on);
        let mut ledger = Ledger::default();
        let mut reused = 0;
        for frame in 40..46u32 {
            let rendered = render_sequence(&workload, &[frame], &cfg, &mut rendered_store).unwrap();
            let root = ledger.span("replay", 0);
            let replayed = replay_frame(
                &workload,
                frame,
                &cfg,
                Some(&mut replay_store),
                &mut ledger,
                root,
            )
            .unwrap();
            assert_eq!(
                replayed.image.pixels(),
                rendered[0].image.pixels(),
                "frame {frame}"
            );
            assert_eq!(replayed.cycles, rendered[0].stats.cycles, "frame {frame}");
            reused += rendered[0].stats.temporal.tiles_reused;
        }
        assert!(reused > 0, "the slow orbit must exercise the blit path");
        assert!(ledger.total_calls("temporal.blit") > 0);
    }

    #[test]
    fn non_default_paths_are_refused() {
        let workload = Workload::build("doom3", (64, 48)).unwrap();
        let cfg = RenderConfig::new(FilterPolicy::Baseline).with_cycle_budget(10);
        let mut ledger = Ledger::default();
        assert!(replay_frame(&workload, 0, &cfg, None, &mut ledger, 0).is_err());
    }
}
