//! Rendering one frame through the full simulated stack.

use crate::error::SimError;
use crate::parallel;
use patu_core::{
    filter_batch_shared, DecisionAttrib, DivergenceStats, FilterPolicy, PerceptionAwareTextureUnit,
    PolicyDecision, SoaBatch,
};
use patu_gpu::{
    FaultConfig, FaultCounts, FrameStats, FrameTimer, GpuConfig, MemAttribCycles, MemSideEffects,
    MemorySystem, TemporalCounts, TextureRequest, TextureUnit, TrafficClass,
};
use patu_obs::{
    Attribution, Collector, Event, EventKind, FrameTelemetry, Log2Histogram, Stage,
    TelemetryConfig, Track,
};
use patu_quality::GrayImage;
use patu_raster::tiler::TileBin;
use patu_raster::{BinnedFrame, Fragment, Framebuffer, GeometryStats, Pipeline};
use patu_scenes::Workload;
use patu_temporal::{TileClass, TileDecision, TileStore};
use patu_texture::{AddressMode, Footprint, Rgba8};

/// Bytes fetched per vertex (position + UV + padding, like a packed
/// attribute stream).
const BYTES_PER_VERTEX: u64 = 32;

/// Bytes per depth-buffer element spilled per generated fragment. A
/// tile-based GPU keeps depth on chip; only a fraction of traffic reaches
/// DRAM (modeled as 1 byte per tested fragment).
const DEPTH_BYTES_PER_FRAGMENT: u64 = 1;

/// Front-end processing cost per vertex (transform + clip setup), cycles.
const CYCLES_PER_VERTEX: u64 = 4;

/// Front-end cost per rasterized triangle (setup), cycles.
const CYCLES_PER_TRIANGLE: u64 = 2;

/// Pixels a reused tile blits forward per cycle (on-chip copy bandwidth;
/// the blit replaces the whole fragment→texel path for that tile).
const REUSE_PIXELS_PER_CYCLE: u64 = 16;

/// Stored fragment decisions a repredicted tile re-validates per cycle
/// (stage-1 summary consult, no texel traffic).
const REPREDICT_FRAGS_PER_CYCLE: u64 = 8;

/// How fragments flow through the texture unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// One `filter_with` + `TextureUnit::process` call per fragment — the
    /// original reference path, kept for equivalence testing and ablation.
    Scalar,
    /// Material-run struct-of-arrays batches through the fused
    /// predictor+filter kernel and `TextureUnit::process_flat` (the
    /// default). Bit-identical to [`BatchMode::Scalar`] — see
    /// `tests/batch_equivalence.rs`.
    Soa,
}

/// Configuration for rendering a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderConfig {
    /// GPU architectural parameters (Table I baseline by default).
    pub gpu: GpuConfig,
    /// The texture-filtering policy under test.
    pub policy: FilterPolicy,
    /// Texture coordinate wrapping mode.
    pub address_mode: AddressMode,
    /// PATU texel-address hash-table entries (paper design point: 16).
    pub hash_table_capacity: usize,
    /// Intra-tile fragment traversal order.
    pub traversal: patu_raster::TraversalOrder,
    /// Optional foveated threshold modulation (VR extension).
    pub foveation: Option<crate::foveation::Foveation>,
    /// Fault-injection configuration for the chaos suite (disabled by
    /// default: rendering is then bit-identical to a faultless build).
    pub faults: FaultConfig,
    /// Optional per-frame cycle budget. Once a tile starts past the budget,
    /// the rest of that cluster's tile stream degrades to trilinear-only
    /// filtering (NoAf) and the result is flagged [`FrameResult::degraded`]
    /// — the frame always completes instead of livelocking under injected
    /// stalls.
    pub cycle_budget: Option<u64>,
    /// Worker threads for intra-frame cluster parallelism. `None` uses
    /// [`std::thread::available_parallelism`]. Every output is bit-identical
    /// across thread counts (see [`crate::parallel`]); 1 takes the serial
    /// path with no thread spawns.
    pub threads: Option<usize>,
    /// Telemetry level and flight-recorder depth (off by default). Clocked
    /// in simulated cycles, so recorded artifacts are bit-identical across
    /// thread counts like everything else.
    pub telemetry: TelemetryConfig,
    /// Fragment→texel execution strategy. [`BatchMode::Soa`] (default)
    /// streams material runs through the fused SoA kernel;
    /// [`BatchMode::Scalar`] takes the per-fragment reference path. Both
    /// produce bit-identical frames and statistics.
    pub batching: BatchMode,
}

impl RenderConfig {
    /// A Table I baseline GPU running the given policy.
    pub fn new(policy: FilterPolicy) -> RenderConfig {
        RenderConfig {
            gpu: GpuConfig::default(),
            policy,
            address_mode: AddressMode::Wrap,
            hash_table_capacity: 16,
            traversal: patu_raster::TraversalOrder::RowMajor,
            foveation: None,
            faults: FaultConfig::disabled(),
            cycle_budget: None,
            threads: None,
            telemetry: TelemetryConfig::disabled(),
            batching: BatchMode::Soa,
        }
    }

    /// Selects the fragment→texel execution strategy (equivalence testing
    /// and ablation; outputs are bit-identical either way).
    #[must_use]
    pub fn with_batching(mut self, batching: BatchMode) -> RenderConfig {
        self.batching = batching;
        self
    }

    /// Enables telemetry recording at the given level/depth.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> RenderConfig {
        self.telemetry = telemetry;
        self
    }

    /// Pins intra-frame parallelism to `threads` workers (1 = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> RenderConfig {
        self.threads = Some(threads);
        self
    }

    /// Enables fault injection with the given configuration.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> RenderConfig {
        self.faults = faults;
        self
    }

    /// Sets a per-frame cycle budget for the degradation watchdog.
    #[must_use]
    pub fn with_cycle_budget(mut self, budget: u64) -> RenderConfig {
        self.cycle_budget = Some(budget);
        self
    }

    /// Enables foveated threshold modulation.
    #[must_use]
    pub fn with_foveation(mut self, foveation: crate::foveation::Foveation) -> RenderConfig {
        self.foveation = Some(foveation);
        self
    }

    /// Sets the intra-tile fragment traversal order (locality ablation).
    #[must_use]
    pub fn with_traversal(mut self, traversal: patu_raster::TraversalOrder) -> RenderConfig {
        self.traversal = traversal;
        self
    }

    /// Overrides the PATU hash-table capacity (ablation studies).
    ///
    /// # Panics
    ///
    /// Panics (in the constructor downstream) if `capacity` is zero.
    #[must_use]
    pub fn with_hash_table_capacity(mut self, capacity: usize) -> RenderConfig {
        self.hash_table_capacity = capacity;
        self
    }

    /// Overrides the GPU configuration (e.g. scaled caches for Fig. 21).
    #[must_use]
    pub fn with_gpu(mut self, gpu: GpuConfig) -> RenderConfig {
        self.gpu = gpu;
        self
    }
}

/// Per-tile approximation coverage: how many fragments the tile shaded and
/// how many of them the policy demoted. This is the raw material for the
/// `PATU_OBS_DUMP` demotion-decision map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileApproxStats {
    /// Tile index in the frame's tile list.
    pub tile: u32,
    /// Tile column.
    pub tx: u32,
    /// Tile row.
    pub ty: u32,
    /// Fragments shaded in this tile.
    pub fragments: u64,
    /// Fragments whose filtering was approximated (demoted).
    pub demoted: u64,
}

/// Everything produced by rendering one frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// The rendered image.
    pub image: Framebuffer,
    /// Timing, traffic and event statistics.
    pub stats: FrameStats,
    /// Approximation coverage by decision stage.
    pub approx: patu_core::ApproxStats,
    /// Texel-set sharing among AF taps (Fig. 12 instrumentation).
    pub sharing: patu_core::SharingStats,
    /// Quad prediction divergence (Sec. V-C(1)).
    pub divergence: DivergenceStats,
    /// Whether the cycle-budget watchdog tripped and part of the frame was
    /// rendered with degraded (trilinear-only) filtering.
    pub degraded: bool,
    /// Merged per-frame telemetry when [`RenderConfig::telemetry`] is
    /// enabled; `None` at [`patu_obs::TraceLevel::Off`]. Boxed so the
    /// disabled path carries one pointer.
    pub telemetry: Option<Box<FrameTelemetry>>,
    /// Per-tile approximation coverage in tile-index order (for demotion
    /// maps; always collected — the counters ride the existing per-fragment
    /// decision flow).
    pub tile_stats: Vec<TileApproxStats>,
}

impl FrameResult {
    /// The luma plane of the rendered image, for SSIM comparisons.
    pub fn luma(&self) -> GrayImage {
        GrayImage::new(
            self.image.width(),
            self.image.height(),
            self.image.luma_plane(),
        )
    }
}

/// Renders frame `index` of `workload` under `cfg` through the full stack:
/// geometry pass → per-tile fragment shading with the policy-driven texture
/// unit → timing/energy event accounting. This is [`render_policies`] with
/// the one policy `cfg.policy`.
///
/// # Errors
///
/// Returns [`SimError`] for adversarial configurations: a non-finite or
/// out-of-range policy threshold, a zero-entry hash table, invalid fault
/// rates, a zero-valued GPU config divisor ([`GpuConfig::validate`]) or
/// degenerate cache geometry.
pub fn render_frame(
    workload: &Workload,
    index: u32,
    cfg: &RenderConfig,
) -> Result<FrameResult, SimError> {
    let mut results = render_policies(workload, index, cfg, &[cfg.policy])?;
    // One policy in, one result out.
    Ok(results.swap_remove(0))
}

/// Renders frame `index` of `workload` once for every policy in
/// `policies`, in one traversal, returning one [`FrameResult`] per policy
/// in the same order. `cfg` is shared; each policy replaces `cfg.policy`.
///
/// The work that is the same for every policy runs once: the scene, the
/// geometry pass, each material run's footprints, the stage-2 tap keys and
/// the texel samples the policies' decisions need (see
/// [`patu_core::filter_batch_shared`]). Everything a policy's outcome
/// depends on stays its own — prediction unit (hash table, fault stream
/// forked by cluster index, statistics), texture unit, memory system,
/// frame timer, watchdog, foveated thresholds, telemetry and framebuffer —
/// so each result is bit-identical to [`render_frame`] with that policy,
/// faults, cycle budgets and telemetry included. Clusters render in
/// parallel on `cfg.threads` workers.
///
/// # Errors
///
/// As [`render_frame`], for the first policy (in order) that is invalid.
pub fn render_policies(
    workload: &Workload,
    index: u32,
    cfg: &RenderConfig,
    policies: &[FilterPolicy],
) -> Result<Vec<FrameResult>, SimError> {
    let scene = workload.frame(index);
    let cfgs: Vec<RenderConfig> = policies
        .iter()
        .map(|&policy| RenderConfig { policy, ..*cfg })
        .collect();
    let mut results = render_scene(workload, &scene, cfg, cfgs, None)?;
    // `render_scene` takes a scene, not a frame index; stamp the frame here
    // so telemetry artifacts name it.
    for result in &mut results {
        stamp_frame(result, index);
    }
    Ok(results)
}

/// Names frame `frame` in a result's telemetry artifacts.
fn stamp_frame(result: &mut FrameResult, frame: u32) {
    if let Some(t) = result.telemetry.as_deref_mut() {
        t.frame = frame;
        for dump in &mut t.dumps {
            dump.frame = frame;
        }
    }
}

/// Renders the frames of `workload` listed in `frames` (in order) with
/// cross-frame tile reuse through `store`. Tiles the store's invalidation
/// engine classifies [`TileClass::Reuse`]/[`TileClass::Repredict`] are
/// blitted from the previous frame and skip the fragment→texel path
/// entirely; per-frame reuse counters land in
/// [`FrameStats::temporal`](patu_gpu::FrameStats). Fault streams are keyed
/// per `(frame, tile)` in sequence mode, so outputs are bit-identical
/// across thread counts and reruns even under fault injection.
///
/// With the store's mode `off` every tile rerenders, but the sequence
/// still flows through the store (fault keying included), so `off` vs a
/// force-invalidated `on` run is byte-comparable.
///
/// # Errors
///
/// See [`render_frame`].
pub fn render_sequence(
    workload: &Workload,
    frames: &[u32],
    cfg: &RenderConfig,
    store: &mut TileStore,
) -> Result<Vec<FrameResult>, SimError> {
    // The tile planner divides by the tile size before any frame renders.
    cfg.gpu.validate()?;
    let (width, height) = workload.resolution();
    let tile_size = cfg.gpu.tile_size;
    let threshold_bp = cfg
        .policy
        .threshold()
        .map(|t| (t * 10_000.0).round() as u32)
        .unwrap_or(0);
    let mut results = Vec::with_capacity(frames.len());
    for &frame in frames {
        let scene = workload.frame(frame);
        let plan = store.plan(&scene, width, height, tile_size);
        let mut result = {
            let ctx = SeqCtx {
                frame,
                plan: &plan,
                prev: store.prev_image(),
                store,
            };
            render_scene(workload, &scene, cfg, vec![*cfg], Some(&ctx))?.swap_remove(0)
        };
        stamp_frame(&mut result, frame);
        // Refresh the store: rendered tiles contribute fresh decision
        // summaries (grid-indexed; tiles with no geometry stay default),
        // reused tiles carry their stored summaries forward inside commit.
        let tiles_x = width.div_ceil(tile_size);
        let tiles_y = height.div_ceil(tile_size);
        let mut fresh = vec![TileDecision::default(); (tiles_x as usize) * (tiles_y as usize)];
        for t in &result.tile_stats {
            fresh[(t.ty * tiles_x + t.tx) as usize] =
                TileDecision::new(t.fragments, t.demoted, threshold_bp);
        }
        store.commit(scene, result.image.clone(), tile_size, &plan, &fresh);
        results.push(result);
    }
    Ok(results)
}

/// The sequence-mode context one frame renders under: the invalidation
/// plan, the previous frame's pixels and the store's per-tile decision
/// summaries. Shared read-only across cluster workers.
struct SeqCtx<'a> {
    frame: u32,
    plan: &'a patu_temporal::FramePlan,
    prev: Option<&'a Framebuffer>,
    store: &'a TileStore,
}

/// The shared frame renderer: renders `scene` with `workload`'s texture and
/// shader tables in one traversal for every per-policy configuration in
/// `cfgs` (each `cfg` with its own policy and faults), one result per
/// entry. `temporal` is `Some` only on the [`render_sequence`] path; with
/// `None` every tile renders.
fn render_scene(
    workload: &Workload,
    scene: &patu_scenes::FrameScene,
    cfg: &RenderConfig,
    cfgs: Vec<RenderConfig>,
    temporal: Option<&SeqCtx<'_>>,
) -> Result<Vec<FrameResult>, SimError> {
    // Fallible setup happens serially, before any worker spawns, so
    // adversarial configurations surface as the same typed errors on every
    // thread count. The full-config probe validates the configuration
    // (a zero tile size included) before the tiler sees it, and catches
    // degenerate geometry that shard clamping would otherwise mask.
    MemorySystem::try_new(&cfg.gpu)?;
    let (width, height) = workload.resolution();
    // Only binning runs here; each cluster rasterizes its own tiles.
    let binned = Pipeline::with_tile_size(width, height, cfg.gpu.tile_size)
        .with_traversal(cfg.traversal)
        .bin(&scene.meshes, &scene.camera);

    let clusters = cfg.gpu.clusters.max(1) as usize;
    let shard_gpu = cfg.gpu.cluster_shard();
    let mut shards = Vec::with_capacity(clusters);
    for c in 0..clusters {
        let mut units = Vec::with_capacity(cfgs.len());
        let mut memory = Vec::with_capacity(cfgs.len());
        for pc in &cfgs {
            let mut mem = MemorySystem::try_new(&shard_gpu)?;
            mem.set_cluster_faults(pc.faults, c as u64)?;
            // Per-cluster units fork the fault stream under their cluster
            // index, so fault patterns are deterministic regardless of tile
            // scheduling — and the same whichever policies render beside.
            units.push(PerceptionAwareTextureUnit::try_with_faults(
                pc.policy,
                pc.hash_table_capacity,
                pc.faults,
                c as u64,
            )?);
            memory.push((mem, TextureUnit::new(0, &shard_gpu)));
        }
        shards.push(ClusterShard {
            cluster: c,
            units,
            memory,
        });
    }

    // Geometry front-end time, shared by every cluster's cycle stream.
    let frontend = binned.stats().vertices_processed * CYCLES_PER_VERTEX
        + binned.stats().triangles_rasterized * CYCLES_PER_TRIANGLE;

    // Static tile partition: a pure function of the index among the bins
    // that emit fragments, identical for serial and parallel runs (see
    // DESIGN.md "Parallel execution model").
    let mut cluster_tiles: Vec<Vec<usize>> = vec![Vec::new(); clusters];
    for i in 0..binned.bins().len() {
        cluster_tiles[parallel::tile_cluster(i, clusters)].push(i);
    }
    let layouts: Vec<TileBlocks> = cluster_tiles
        .iter()
        .map(|tiles| TileBlocks::new(tiles, &binned, cfg.gpu.tile_size))
        .collect();

    // Simulate each cluster independently: worker-private memory shards,
    // texture units, pixels and counters — no locks or atomics on the
    // per-fragment path. `threads <= 1` runs the same code inline.
    let threads = parallel::thread_count(cfg.threads);
    let (binned_ref, cfgs_ref) = (&binned, &cfgs[..]);
    let tasks: Vec<parallel::Task<'_, (GeometryStats, Vec<ClusterOutput>)>> = shards
        .into_iter()
        .map(|shard| {
            let tiles: &[usize] = &cluster_tiles[shard.cluster];
            let layout = &layouts[shard.cluster];
            Box::new(move || {
                run_cluster(
                    shard, tiles, layout, binned_ref, workload, cfg, cfgs_ref, frontend, temporal,
                )
            }) as parallel::Task<'_, (GeometryStats, Vec<ClusterOutput>)>
        })
        .collect();
    let mut per_policy: Vec<Vec<ClusterOutput>> =
        cfgs.iter().map(|_| Vec::with_capacity(clusters)).collect();
    let mut geometry = binned.stats();
    for (raster, outputs) in parallel::run_tasks(threads, tasks) {
        geometry.fragments_generated += raster.fragments_generated;
        geometry.fragments_shaded += raster.fragments_shaded;
        for (slot, out) in per_policy.iter_mut().zip(outputs) {
            slot.push(out);
        }
    }
    let size = (binned.width(), binned.height());
    Ok(cfgs
        .iter()
        .zip(per_policy)
        .map(|(pc, outputs)| merge_clusters(pc, size, &geometry, &layouts, frontend, outputs))
        .collect())
}

/// Merges one policy's cluster outputs in cluster order. Counters are
/// commutative sums; the frame timer replays each cluster's finish time;
/// each cluster's tiles are disjoint rects, stitched back into the frame.
/// `geometry` holds the whole frame's counts, every cluster's rasterized
/// fragments included.
fn merge_clusters(
    cfg: &RenderConfig,
    (width, height): (u32, u32),
    geometry: &GeometryStats,
    layouts: &[TileBlocks],
    frontend: u64,
    outputs: Vec<ClusterOutput>,
) -> FrameResult {
    let mut image = Framebuffer::new(width, height, Rgba8::BLACK);
    let mut timer = FrameTimer::new(&cfg.gpu);
    timer.add_frontend_cycles(frontend);
    let mut side = MemSideEffects::default();
    side.record_traffic(
        TrafficClass::Vertex,
        geometry.vertices_processed * BYTES_PER_VERTEX,
    );
    side.record_traffic(
        TrafficClass::Depth,
        geometry.fragments_generated * DEPTH_BYTES_PER_FRAGMENT,
    );
    let mut filter_latency = 0u64;
    let mut filter_requests = 0u64;
    let mut wasted_addr_taps = 0u64;
    let mut hash_accesses = 0u64;
    let mut degraded = false;
    let mut divergence = DivergenceStats::new();
    let mut approx = patu_core::ApproxStats::new();
    let mut sharing = patu_core::SharingStats::new();
    let mut fault_counts = FaultCounts::default();
    let mut filter_hist = Log2Histogram::new();
    let mut cluster_obs = Vec::with_capacity(outputs.len());
    let mut cluster_attrib: Vec<ClusterAttribInput> = Vec::with_capacity(outputs.len());
    let mut tile_stats: Vec<TileApproxStats> = Vec::new();
    let mut temporal_counts = TemporalCounts::default();
    for (c, out) in outputs.into_iter().enumerate() {
        timer.merge_cluster(c, out.finish);
        layouts[c].stitch(&out.pixels, &mut image);
        side.accumulate(&out.side);
        filter_latency += out.filter_latency;
        filter_requests += out.filter_requests;
        wasted_addr_taps += out.wasted_addr_taps;
        hash_accesses += out.hash_accesses;
        degraded |= out.degraded;
        divergence.accumulate(&out.divergence);
        approx.accumulate(&out.approx);
        sharing.accumulate(&out.sharing);
        fault_counts.accumulate(&out.faults);
        filter_hist.accumulate(&out.filter_hist);
        temporal_counts.accumulate(&out.temporal);
        cluster_attrib.push(ClusterAttribInput {
            finish: out.finish,
            shade_cycles: out.shade_cycles,
            reuse_cycles: out.temporal.reuse_cycles,
            tex_work_cycles: out.tex_work_cycles,
            mem: out.mem_attrib,
            decisions: out.decisions,
        });
        tile_stats.extend(out.tiles);
        cluster_obs.push(out.obs);
    }
    // Cluster partitions interleave tiles, so restore frame tile order.
    tile_stats.sort_unstable_by_key(|t| t.tile);

    // Framebuffer writeout: each tile's pixels once per frame, with
    // lossless framebuffer compression (~2:1, standard on mobile GPUs).
    side.record_traffic(
        TrafficClass::Framebuffer,
        u64::from(width) * u64::from(height) * 2,
    );
    side.record_traffic(TrafficClass::Other, 4096); // command stream
    fault_counts.watchdog_trips += u64::from(degraded);

    let mut stats = FrameStats {
        cycles: timer.frame_cycles(),
        filter_latency_cycles: filter_latency,
        filter_requests,
        filter_latency_hist: filter_hist,
        bandwidth: side.bandwidth,
        events: side.events,
        faults: fault_counts,
        temporal: temporal_counts,
    };
    // Discarded address calculations for stage-2 approximations (8 addresses
    // per wasted tap).
    stats.events.address_calc_ops += wasted_addr_taps * 8;
    stats.events.shader_alu_ops =
        geometry.fragments_shaded * u64::from(cfg.gpu.shader_ops_per_fragment);
    stats.events.vertices = geometry.vertices_processed;
    stats.events.hash_table_accesses += hash_accesses;
    stats.events.predictor_evals = approx.stage1_approx
        + approx.stage2_approx * 2
        + approx.kept_af
            * if cfg.policy.uses_distribution_stage() {
                2
            } else {
                1
            };

    // Merge telemetry in a fixed order — front-end first, then clusters by
    // index — so the artifact is a pure function of the frame, independent
    // of how tiles were scheduled onto worker threads.
    let telemetry = if cfg.telemetry.level.counters_enabled() {
        let mut front = Collector::new(cfg.telemetry, Track::Frontend);
        front.span_arg(
            "geom::frontend",
            0,
            frontend,
            "triangles",
            geometry.triangles_rasterized,
        );
        geometry.export_counters(&mut front);
        let mut merged = FrameTelemetry::new(
            cfg.telemetry.level,
            0,
            format!("{:?}", cfg.policy),
            cfg.faults.seed,
        );
        merged.absorb(front);
        for obs in cluster_obs {
            merged.absorb(obs);
        }
        merged.counters.insert("frame::cycles", stats.cycles);
        merged
            .hists
            .insert("filter::latency", stats.filter_latency_hist);
        merged.attrib = assemble_attribution(frontend, stats.cycles, &cluster_attrib);
        Some(Box::new(merged))
    } else {
        None
    };

    FrameResult {
        image,
        stats,
        approx,
        sharing,
        divergence,
        degraded,
        telemetry,
        tile_stats,
    }
}

/// Per-cluster inputs to the critical-path cycle attribution: the cluster's
/// finish cycle plus the telemetry-gated component work counters measured
/// while its tile stream ran.
struct ClusterAttribInput {
    finish: u64,
    shade_cycles: u64,
    reuse_cycles: u64,
    tex_work_cycles: u64,
    mem: MemAttribCycles,
    decisions: DecisionAttrib,
}

/// Builds the frame's cycle attribution from the critical cluster (the one
/// whose finish cycle equals the frame time; ties break toward the lowest
/// cluster index). See `patu_obs::attrib` for the conservation identity —
/// the returned breakdown's [`Attribution::frame_total`] always equals
/// `total`.
fn assemble_attribution(frontend: u64, total: u64, clusters: &[ClusterAttribInput]) -> Attribution {
    let mut attrib = Attribution::new();
    let crit = clusters
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.finish.cmp(&b.finish).then(ib.cmp(ia)))
        .map(|(_, c)| c);
    match crit {
        Some(c) if c.finish > frontend => {
            attrib.add(Stage::Setup, frontend);
            // The identity guarantees reuse + shade <= finish - frontend;
            // the clamps keep conservation unconditional rather than
            // trusting it. Reuse (tile blits on the sequence path) comes
            // off the top: a blitted tile occupies the cluster exactly its
            // blit cost, never stalling on memory.
            let avail = c.finish - frontend;
            let reuse = c.reuse_cycles.min(avail);
            if reuse > 0 {
                attrib.add(Stage::Reuse, reuse);
            }
            let shade = c.shade_cycles.min(avail - reuse);
            attrib.add(Stage::Shade, shade);
            let stall = avail - reuse - shade;
            attrib.scatter_stall(
                stall,
                &[
                    (Stage::Predictor, c.decisions.predictor_evals),
                    (Stage::HashStage1, c.decisions.stage1_consults),
                    (Stage::HashStage2, c.decisions.stage2_accesses),
                    (Stage::TexelFetch, c.tex_work_cycles + c.mem.l1),
                    (Stage::CacheStall, c.mem.l2),
                    (Stage::Dram, c.mem.dram),
                ],
            );
        }
        // No tile ever outran the front end: the whole frame is setup.
        _ => attrib.add(Stage::Setup, total),
    }
    attrib
}

/// One cluster's worker-private simulation state, per policy: its
/// prediction unit (with its fault stream), and its slice of the memory
/// hierarchy with the texture unit in front of it. Built serially
/// (construction is fallible), then moved into the worker.
struct ClusterShard {
    cluster: usize,
    units: Vec<PerceptionAwareTextureUnit>,
    memory: Vec<(MemorySystem, TextureUnit)>,
}

/// Everything a cluster worker produces for one policy; merged in cluster
/// order.
struct ClusterOutput {
    /// The cluster's tiles only, laid out by its [`TileBlocks`].
    pixels: Vec<Rgba8>,
    finish: u64,
    filter_latency: u64,
    filter_requests: u64,
    wasted_addr_taps: u64,
    hash_accesses: u64,
    degraded: bool,
    divergence: DivergenceStats,
    approx: patu_core::ApproxStats,
    sharing: patu_core::SharingStats,
    side: MemSideEffects,
    faults: FaultCounts,
    filter_hist: Log2Histogram,
    obs: Collector,
    shade_cycles: u64,
    tex_work_cycles: u64,
    mem_attrib: MemAttribCycles,
    decisions: DecisionAttrib,
    tiles: Vec<TileApproxStats>,
    temporal: TemporalCounts,
}

/// Where a cluster's tiles sit in its pixel buffer: each tile's rect, back
/// to back in the order the cluster renders them. A cluster's image per
/// policy then holds its own tiles only, not a whole frame.
struct TileBlocks {
    /// Per tile, in render order: `(x0, y0, w, h, offset)`.
    rects: Vec<(u32, u32, u32, u32, usize)>,
    pixels: usize,
}

impl TileBlocks {
    fn new(tiles: &[usize], binned: &BinnedFrame, tile_size: u32) -> TileBlocks {
        let mut rects = Vec::with_capacity(tiles.len());
        let mut pixels = 0usize;
        for &ti in tiles {
            let bin = &binned.bins()[ti];
            let (x0, y0) = (bin.x0(tile_size), bin.y0(tile_size));
            let w = tile_size.min(binned.width() - x0);
            let h = tile_size.min(binned.height() - y0);
            rects.push((x0, y0, w, h, pixels));
            pixels += (w as usize) * (h as usize);
        }
        TileBlocks { rects, pixels }
    }

    /// A cleared buffer for one policy's pixels.
    fn buffer(&self) -> Vec<Rgba8> {
        vec![Rgba8::BLACK; self.pixels]
    }

    /// Index of frame pixel `(x, y)` inside tile `slot`'s block.
    #[inline]
    fn index(&self, slot: usize, x: u32, y: u32) -> usize {
        let (x0, y0, w, _, offset) = self.rects[slot];
        offset + ((y - y0) as usize) * (w as usize) + (x - x0) as usize
    }

    /// Copies tile `slot`'s rect of `src` into its block.
    fn blit(&self, slot: usize, src: &Framebuffer, pixels: &mut [Rgba8]) {
        let (x0, y0, w, h, offset) = self.rects[slot];
        src.read_rect(x0, y0, w, h, &mut pixels[offset..offset + (w * h) as usize]);
    }

    /// Writes every block back to its rect of the frame.
    fn stitch(&self, pixels: &[Rgba8], image: &mut Framebuffer) {
        for &(x0, y0, w, h, offset) in &self.rects {
            image.write_rect(x0, y0, w, h, &pixels[offset..offset + (w * h) as usize]);
        }
    }
}

/// Reusable per-tile quad-outcome accumulator: a flat `(fragments,
/// approximated)` grid indexed by the quad's position inside the tile,
/// replacing the per-tile `HashMap<QuadId, Vec<bool>>` whose allocation
/// churn dominated the divergence accounting (see `benches/raster.rs`).
struct QuadScratch {
    quads_per_side: usize,
    fragments: Vec<u32>,
    approximated: Vec<u32>,
}

impl QuadScratch {
    fn new(tile_size: u32) -> QuadScratch {
        let q = (tile_size as usize).div_ceil(2).max(1);
        QuadScratch {
            quads_per_side: q,
            fragments: vec![0; q * q],
            approximated: vec![0; q * q],
        }
    }

    #[inline]
    fn record(&mut self, frag_x: u32, frag_y: u32, tile_x0: u32, tile_y0: u32, approx: bool) {
        let qx = ((frag_x - tile_x0) / 2) as usize;
        let qy = ((frag_y - tile_y0) / 2) as usize;
        let idx = qy * self.quads_per_side + qx;
        self.fragments[idx] += 1;
        self.approximated[idx] += u32::from(approx);
    }

    /// Flushes all touched quads into `divergence` (quad-index order; the
    /// counts are order-independent sums) and clears the grid for the next
    /// tile.
    fn flush(&mut self, divergence: &mut DivergenceStats) {
        for (count, approx) in self.fragments.iter_mut().zip(&mut self.approximated) {
            if *count > 0 {
                divergence.record_quad_counts(u64::from(*count), u64::from(*approx));
                *count = 0;
                *approx = 0;
            }
        }
    }
}

/// One policy's state inside a cluster worker: everything its outcome
/// depends on except its prediction unit, which the shared kernel takes
/// as a slice beside the other policies' units.
struct PolicyRun<'a> {
    cfg: &'a RenderConfig,
    mem: MemorySystem,
    tex: TextureUnit,
    timer: FrameTimer,
    pixels: Vec<Rgba8>,
    quads: QuadScratch,
    divergence: DivergenceStats,
    filter_latency: u64,
    filter_requests: u64,
    wasted_addr_taps: u64,
    degraded: bool,
    filter_hist: Log2Histogram,
    shade_cycles: u64,
    temporal: TemporalCounts,
    tiles: Vec<TileApproxStats>,
    obs: Collector,
    trace: bool,
    // The tile in flight.
    start: u64,
    texture_done: u64,
    tile_demoted: u64,
    faults_before: FaultCounts,
}

impl<'a> PolicyRun<'a> {
    fn new(
        cfg: &'a RenderConfig,
        (mut mem, mut tex): (MemorySystem, TextureUnit),
        unit: &mut PerceptionAwareTextureUnit,
        cluster: usize,
        frontend: u64,
        layout: &TileBlocks,
    ) -> PolicyRun<'a> {
        let mut timer = FrameTimer::new(&cfg.gpu);
        timer.add_frontend_cycles(frontend);
        let obs = Collector::new(cfg.telemetry, Track::Cluster(cluster as u32));
        let trace = obs.is_enabled();
        if trace {
            mem.set_telemetry(true);
            tex.set_telemetry(true);
            unit.set_telemetry(true);
        }
        PolicyRun {
            cfg,
            mem,
            tex,
            timer,
            pixels: layout.buffer(),
            quads: QuadScratch::new(cfg.gpu.tile_size),
            divergence: DivergenceStats::new(),
            filter_latency: 0,
            filter_requests: 0,
            wasted_addr_taps: 0,
            degraded: false,
            filter_hist: Log2Histogram::new(),
            shade_cycles: 0,
            temporal: TemporalCounts::default(),
            tiles: Vec::with_capacity(layout.rects.len()),
            obs,
            trace,
            start: 0,
            texture_done: 0,
            tile_demoted: 0,
            faults_before: FaultCounts::default(),
        }
    }

    fn event(&mut self, cycle: u64, cluster: usize, ti: usize, kind: EventKind) {
        self.obs.event(Event {
            cycle,
            cluster: cluster as u32,
            tile: ti as u32,
            kind,
        });
    }

    /// Sequence mode: carries a reused or repredicted tile forward from the
    /// previous frame instead of rendering it.
    #[allow(clippy::too_many_arguments)]
    fn blit_tile(
        &mut self,
        cluster: usize,
        ti: usize,
        tile: &TileBin,
        slot: usize,
        layout: &TileBlocks,
        prev: &Framebuffer,
        class: TileClass,
        stored: TileDecision,
    ) {
        let start = self.timer.begin_tile_on(cluster);
        if self.trace {
            self.event(start, cluster, ti, EventKind::TileBegin);
        }
        layout.blit(slot, prev, &mut self.pixels);
        let (_, _, w, h, _) = layout.rects[slot];
        let mut cost = (u64::from(w) * u64::from(h)).div_ceil(REUSE_PIXELS_PER_CYCLE) + 1;
        if class == TileClass::Repredict {
            cost += stored.fragments.div_ceil(REPREDICT_FRAGS_PER_CYCLE) + 1;
            self.temporal.tiles_repredicted += 1;
        } else {
            self.temporal.tiles_reused += 1;
        }
        self.timer.end_tile(cluster, cost, start);
        self.temporal.reuse_cycles += cost;
        self.tiles.push(TileApproxStats {
            tile: ti as u32,
            tx: tile.tx,
            ty: tile.ty,
            fragments: stored.fragments,
            demoted: stored.demoted,
        });
        if self.trace {
            let end = self.timer.cluster_cycles(cluster);
            self.obs
                .span_node("raster::tile", start, end, 0, "tile", ti as u64);
            self.event(end, cluster, ti, EventKind::TileEnd);
        }
    }

    fn begin_tile(&mut self, unit: &PerceptionAwareTextureUnit, cluster: usize, ti: usize) {
        let start = self.timer.begin_tile_on(cluster);
        // Watchdog: a tile starting past the budget means injected stalls
        // (or sheer load) blew the frame time. Degrade the rest of this
        // cluster's stream to the cheapest real filtering instead of piling
        // on.
        if let Some(budget) = self.cfg.cycle_budget {
            if start > budget {
                if self.trace && !self.degraded {
                    self.event(start, cluster, ti, EventKind::WatchdogTrip);
                    if self.obs.dump_count() == 0 {
                        self.obs.dump("watchdog_trip", start, ti as u32);
                    }
                }
                self.degraded = true;
            }
        }
        if self.trace {
            let mut f = self.mem.fault_counts();
            f.accumulate(&unit.fault_counts());
            self.faults_before = f;
            self.event(start, cluster, ti, EventKind::TileBegin);
        }
        self.start = start;
        self.texture_done = start;
        self.tile_demoted = 0;
    }

    /// The fragment's policy: degraded clusters demote everything to
    /// trilinear; foveation loosens the knob with eccentricity (scaled
    /// threshold, same two-stage flow).
    fn policy_for(&self, x: u32, y: u32, width: u32, height: u32) -> FilterPolicy {
        if self.degraded {
            return FilterPolicy::NoAf;
        }
        let policy = self.cfg.policy;
        match (self.cfg.foveation, policy.threshold()) {
            (Some(fov), Some(base)) => {
                policy.with_threshold(base * fov.threshold_scale(x, y, width, height))
            }
            _ => policy,
        }
    }

    /// Accounts one filtered fragment: its request timing, decision and
    /// shaded pixel.
    #[allow(clippy::too_many_arguments)]
    fn fragment(
        &mut self,
        timing: patu_gpu::texture_unit::RequestTiming,
        decision: PolicyDecision,
        frag: &Fragment,
        shaded: Rgba8,
        slot: usize,
        layout: &TileBlocks,
        tile_origin: (u32, u32),
    ) {
        self.filter_latency += timing.latency;
        self.filter_requests += 1;
        self.filter_hist.record(timing.latency);
        self.texture_done = self.texture_done.max(timing.completion);
        self.wasted_addr_taps += u64::from(decision.wasted_addr_taps);
        let demoted = decision.is_approximated();
        self.tile_demoted += u64::from(demoted);
        self.quads
            .record(frag.x, frag.y, tile_origin.0, tile_origin.1, demoted);
        self.pixels[layout.index(slot, frag.x, frag.y)] = shaded;
    }

    fn end_tile(
        &mut self,
        unit: &PerceptionAwareTextureUnit,
        cluster: usize,
        ti: usize,
        tile: &TileBin,
        fragments: u64,
    ) {
        self.quads.flush(&mut self.divergence);
        let start = self.start;
        let shading = self.timer.shading_cycles(fragments);
        self.timer.end_tile(cluster, shading, self.texture_done);
        self.shade_cycles += shading;
        self.tiles.push(TileApproxStats {
            tile: ti as u32,
            tx: tile.tx,
            ty: tile.ty,
            fragments,
            demoted: self.tile_demoted,
        });
        if !self.trace {
            return;
        }
        let end = self.timer.cluster_cycles(cluster);
        let tile_span = self
            .obs
            .span_node("raster::tile", start, end, 0, "tile", ti as u64);
        if shading > 0 {
            self.obs.span_node(
                "raster::tile::shade",
                start,
                start + shading,
                tile_span,
                "",
                0,
            );
        }
        if self.texture_done > start {
            self.obs.span_node(
                "raster::tile::texture",
                start,
                self.texture_done,
                tile_span,
                "",
                0,
            );
        }
        self.event(end, cluster, ti, EventKind::TileEnd);
        // Per-tile fault attribution: diff the cumulative counters across
        // the tile and pin each increment on this tile.
        let mut after = self.mem.fault_counts();
        after.accumulate(&unit.fault_counts());
        let delta = after.delta(&self.faults_before);
        if delta.is_zero() {
            return;
        }
        for (site, count) in delta.sites() {
            if count > 0 {
                self.event(end, cluster, ti, EventKind::Fault { site, count });
            }
        }
        if delta.fallbacks > 0 {
            let count = delta.fallbacks;
            self.event(end, cluster, ti, EventKind::Fallback { count });
            if self.obs.dump_count() == 0 {
                self.obs.dump("fault_fallback", end, ti as u32);
            }
        }
    }

    fn finish(mut self, unit: &PerceptionAwareTextureUnit, cluster: usize) -> ClusterOutput {
        let mut side = MemSideEffects {
            bandwidth: self.mem.bandwidth(),
            events: self.mem.events(),
        };
        side.events.accumulate(&self.tex.events());
        let mut faults = self.mem.fault_counts();
        faults.accumulate(&unit.fault_counts());
        if self.trace {
            let obs = &mut self.obs;
            obs.add("tiles", self.tiles.len() as u64);
            obs.add("filter::requests", self.filter_requests);
            obs.merge_hist("mem::fetch_latency", self.mem.fetch_latency_hist());
            obs.merge_hist("mem::miss_penalty", self.mem.miss_penalty_hist());
            obs.merge_hist("tex::queue_wait", self.tex.queue_wait_hist());
            obs.merge_hist("patu::af_taps", unit.tap_hist());
        }
        ClusterOutput {
            pixels: self.pixels,
            finish: self.timer.cluster_cycles(cluster),
            filter_latency: self.filter_latency,
            filter_requests: self.filter_requests,
            wasted_addr_taps: self.wasted_addr_taps,
            hash_accesses: unit.hash_accesses(),
            degraded: self.degraded,
            divergence: self.divergence,
            approx: unit.approx_stats(),
            sharing: unit.sharing_stats(),
            side,
            faults,
            filter_hist: self.filter_hist,
            obs: self.obs,
            shade_cycles: self.shade_cycles,
            tex_work_cycles: self.tex.attrib_work_cycles(),
            mem_attrib: self.mem.attrib_cycles(),
            decisions: unit.decision_attrib(),
            tiles: self.tiles,
            temporal: self.temporal,
        }
    }
}

/// Simulates one cluster's statically assigned tiles end to end, for every
/// policy in `cfgs` at once. Pure function of its inputs — every mutable
/// structure is worker-private — so it runs identically inline or on a
/// worker thread. Each tile is rasterized just before it is shaded, into
/// one reused fragment buffer, and traversed once: its material runs fill
/// one [`SoaBatch`] whose footprints, stage-2 keys and texel samples serve
/// every policy, while each policy keeps its own units, timer, watchdog,
/// telemetry and pixels. Returns the cluster's rasterized fragment counts
/// beside one output per policy.
#[allow(clippy::too_many_arguments)]
fn run_cluster(
    shard: ClusterShard,
    tiles: &[usize],
    layout: &TileBlocks,
    binned: &BinnedFrame,
    workload: &Workload,
    cfg: &RenderConfig,
    cfgs: &[RenderConfig],
    frontend: u64,
    temporal: Option<&SeqCtx<'_>>,
) -> (GeometryStats, Vec<ClusterOutput>) {
    let ClusterShard {
        cluster,
        mut units,
        memory,
    } = shard;
    let (width, height) = (binned.width(), binned.height());
    let tile_size = cfg.gpu.tile_size;
    let mut runs: Vec<PolicyRun<'_>> = cfgs
        .iter()
        .zip(memory)
        .zip(&mut units)
        .map(|((pc, mem), unit)| PolicyRun::new(pc, mem, unit, cluster, frontend, layout))
        .collect();
    let mut batch = SoaBatch::new();
    let mut raster = GeometryStats::default();
    let mut fragments: Vec<Fragment> = Vec::new();

    for (slot, &ti) in tiles.iter().enumerate() {
        let tile = &binned.bins()[ti];
        // Blitted tiles rasterize too: their fragments count in the frame.
        binned.rasterize(ti, &mut fragments, &mut raster);
        if let Some(seq) = temporal {
            // Sequence mode: re-key both fault streams so this tile's
            // faults are a pure function of (seed, frame, tile). A blitted
            // tile then consumes no stream state, and reuse cannot shift
            // the faults of any tile rendered after it — the property the
            // determinism grid asserts under fault injection.
            let tags = [u64::from(seq.frame), ti as u64];
            for (run, unit) in runs.iter_mut().zip(&mut units) {
                run.mem.rekey_faults(&tags);
                unit.rekey_faults(&tags);
            }
            let class = seq.plan.class(tile.tx, tile.ty);
            if let (true, Some(prev)) = (class != TileClass::Rerender, seq.prev) {
                let stored = seq.store.decision(tile.tx, tile.ty).unwrap_or_default();
                for run in &mut runs {
                    run.blit_tile(cluster, ti, tile, slot, layout, prev, class, stored);
                }
                continue;
            }
            for run in &mut runs {
                run.temporal.tiles_rerendered += 1;
            }
        }
        for (run, unit) in runs.iter_mut().zip(&units) {
            run.begin_tile(unit, cluster, ti);
        }
        let origin = (tile.tx * tile_size, tile.ty * tile_size);

        match cfg.batching {
            BatchMode::Scalar => {
                for (run, unit) in runs.iter_mut().zip(&mut units) {
                    for frag in &fragments {
                        let tex = &workload.textures()[frag.material];
                        let fp = Footprint::from_derivatives(
                            frag.duv_dx,
                            frag.duv_dy,
                            tex.width(),
                            tex.height(),
                            cfg.gpu.max_aniso,
                        );
                        let outcome = unit.filter_with(
                            run.policy_for(frag.x, frag.y, width, height),
                            tex,
                            frag.uv,
                            &fp,
                            cfg.address_mode,
                        );
                        // Timing: replay the performed fetches through the
                        // texture unit (index 0 of this cluster's private
                        // shard).
                        let request = TextureRequest::new(
                            outcome
                                .record
                                .taps
                                .iter()
                                .map(|t| t.addresses.clone())
                                .collect(),
                        );
                        let timing = run.tex.process(&request, &mut run.mem, run.start);
                        // Fragment shading applies the material's (possibly
                        // non-linear) response to the filtered texel — the
                        // paper's vanished-effects mechanism lives here.
                        let shaded = workload.shader(frag.material).apply(outcome.color());
                        run.fragment(timing, outcome.decision, frag, shaded, slot, layout, origin);
                    }
                }
            }
            BatchMode::Soa => {
                // Material runs: consecutive fragments sharing a texture
                // form one SoA batch, in traversal order — batching changes
                // layout, never ordering, so outputs stay bit-identical to
                // the scalar path.
                for frags in fragments.chunk_by(|a, b| a.material == b.material) {
                    let tex = &workload.textures()[frags[0].material];
                    let shader = workload.shader(frags[0].material);
                    batch.clear();
                    for frag in frags {
                        batch.push(frag.x, frag.y, frag.uv, frag.duv_dx, frag.duv_dy);
                    }
                    filter_batch_shared(
                        &mut units,
                        tex,
                        cfg.address_mode,
                        cfg.gpu.max_aniso,
                        &mut batch,
                        |u, lane| runs[u].policy_for(frags[lane].x, frags[lane].y, width, height),
                    );
                    for (u, run) in runs.iter_mut().enumerate() {
                        for (lane, frag) in frags.iter().enumerate() {
                            // Timing: replay the lane's slice of the batch's
                            // contiguous fetch buffer through the flat
                            // texture-unit path.
                            let out = batch.outcome(u, lane);
                            let timing = run.tex.process_flat(
                                batch.tap_addresses_of(u, lane),
                                u64::from(out.taps),
                                &mut run.mem,
                                run.start,
                            );
                            let shaded = shader.apply(out.color);
                            run.fragment(timing, out.decision, frag, shaded, slot, layout, origin);
                        }
                    }
                }
            }
        }

        for (run, unit) in runs.iter_mut().zip(&units) {
            run.end_tile(unit, cluster, ti, tile, fragments.len() as u64);
        }
    }

    let outputs = runs
        .into_iter()
        .zip(&units)
        .map(|(run, unit)| run.finish(unit, cluster))
        .collect();
    (raster, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        Workload::build("doom3", (256, 192)).unwrap()
    }

    fn render(w: &Workload, index: u32, cfg: &RenderConfig) -> FrameResult {
        render_frame(w, index, cfg).expect("valid test config")
    }

    #[test]
    fn baseline_renders_and_times() {
        let w = workload();
        let r = render(&w, 0, &RenderConfig::new(FilterPolicy::Baseline));
        assert!(r.stats.cycles > 0);
        assert!(r.stats.filter_requests > 10_000);
        assert!(
            r.stats.events.trilinear_ops > r.stats.filter_requests,
            "AF multiplies taps"
        );
        assert!(r.stats.bandwidth.texture > 0);
    }

    #[test]
    fn noaf_is_faster_and_fetches_less() {
        let w = workload();
        let base = render(&w, 0, &RenderConfig::new(FilterPolicy::Baseline));
        let noaf = render(&w, 0, &RenderConfig::new(FilterPolicy::NoAf));
        assert!(
            noaf.stats.cycles < base.stats.cycles,
            "disabling AF speeds up"
        );
        assert!(noaf.stats.events.texel_fetches < base.stats.events.texel_fetches);
        assert!(
            noaf.stats.filter_latency_cycles < base.stats.filter_latency_cycles,
            "filter latency drops without AF"
        );
    }

    #[test]
    fn patu_sits_between_baseline_and_noaf() {
        let w = workload();
        let base = render(&w, 0, &RenderConfig::new(FilterPolicy::Baseline));
        let noaf = render(&w, 0, &RenderConfig::new(FilterPolicy::NoAf));
        let patu = render(
            &w,
            0,
            &RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }),
        );
        assert!(patu.stats.events.texel_fetches <= base.stats.events.texel_fetches);
        assert!(patu.stats.events.texel_fetches >= noaf.stats.events.texel_fetches);
        assert!(patu.approx.pixels > 0);
        assert!(
            patu.stats.events.hash_table_accesses > 0,
            "stage 2 exercised"
        );
    }

    #[test]
    fn images_match_resolution() {
        let w = workload();
        let r = render(&w, 0, &RenderConfig::new(FilterPolicy::Baseline));
        assert_eq!(r.image.width(), 256);
        assert_eq!(r.image.height(), 192);
        let luma = r.luma();
        assert_eq!(luma.width(), 256);
    }

    #[test]
    fn rendering_is_deterministic() {
        let w = workload();
        let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 });
        let a = render(&w, 3, &cfg);
        let b = render(&w, 3, &cfg);
        assert_eq!(a.image.pixels(), b.image.pixels());
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.events.texel_fetches, b.stats.events.texel_fetches);
    }

    #[test]
    fn divergence_is_rare() {
        let w = workload();
        let r = render(
            &w,
            0,
            &RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }),
        );
        assert!(r.divergence.quads > 100);
        // The paper reports ~1% on commercial traces; our procedural scenes
        // have sharper decision boundaries, so allow more headroom while
        // still asserting divergence is the exception, not the rule.
        assert!(
            r.divergence.divergence_fraction() < 0.25,
            "quad divergence should be rare, got {}",
            r.divergence.divergence_fraction()
        );
    }

    #[test]
    fn bandwidth_dominated_by_texture_under_af() {
        let w = workload();
        let r = render(&w, 0, &RenderConfig::new(FilterPolicy::Baseline));
        assert!(
            r.stats.bandwidth.texture_fraction() > 0.4,
            "texture share {}",
            r.stats.bandwidth.texture_fraction()
        );
    }

    #[test]
    fn disabled_faults_are_bit_identical_to_default() {
        let w = workload();
        let plain = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 });
        // A non-zero seed with all-zero rates must change nothing.
        let seeded = plain.with_faults(FaultConfig {
            seed: 99,
            ..FaultConfig::disabled()
        });
        let a = render(&w, 0, &plain);
        let b = render(&w, 0, &seeded);
        assert_eq!(a.image.pixels(), b.image.pixels());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stats.faults, FaultCounts::default());
        assert!(!a.degraded && !b.degraded);
    }

    #[test]
    fn faulty_frame_completes_and_counts() {
        let w = workload();
        let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
            .with_faults(FaultConfig::uniform(42, 0.05));
        let r = render(&w, 0, &cfg);
        let f = r.stats.faults;
        assert!(f.faults_injected() > 0, "5% rates must fire: {f:?}");
        assert!(f.fallbacks > 0, "poisoned predictions degrade to AF");
        assert!(r.stats.cycles > 0);
        // Fault runs are just as deterministic as clean ones.
        let r2 = render(&w, 0, &cfg);
        assert_eq!(r.stats, r2.stats);
        assert_eq!(r.image.pixels(), r2.image.pixels());
    }

    #[test]
    fn watchdog_degrades_instead_of_livelocking() {
        let w = workload();
        let cfg = RenderConfig::new(FilterPolicy::Baseline).with_cycle_budget(1);
        let r = render(&w, 0, &cfg);
        assert!(r.degraded, "a 1-cycle budget trips immediately");
        assert_eq!(r.stats.faults.watchdog_trips, 1);
        // Degraded tiles render trilinear-only: cheaper than full AF.
        let full = render(&w, 0, &RenderConfig::new(FilterPolicy::Baseline));
        assert!(r.stats.events.texel_fetches < full.stats.events.texel_fetches);
        assert!(!full.degraded);
        assert_eq!(full.stats.faults.watchdog_trips, 0);
    }

    #[test]
    fn adversarial_configs_are_typed_errors() {
        let w = workload();
        let nan_threshold = RenderConfig::new(FilterPolicy::Patu {
            threshold: f64::NAN,
        });
        assert!(render_frame(&w, 0, &nan_threshold).is_err());
        let zero_table =
            RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }).with_hash_table_capacity(0);
        assert!(render_frame(&w, 0, &zero_table).is_err());
        let bad_rate = RenderConfig::new(FilterPolicy::Baseline).with_faults(FaultConfig {
            dram_stall_rate: 7.0,
            ..FaultConfig::disabled()
        });
        let err = render_frame(&w, 0, &bad_rate).unwrap_err();
        assert!(err.to_string().contains("dram_stall_rate"));
    }

    #[test]
    fn zero_divisor_gpu_configs_are_typed_errors_on_every_render_path() {
        let w = workload();
        for gpu in [
            GpuConfig {
                address_alus: 0,
                ..GpuConfig::default()
            },
            GpuConfig {
                tile_size: 0,
                ..GpuConfig::default()
            },
        ] {
            let cfg = RenderConfig::new(FilterPolicy::Baseline).with_gpu(gpu);
            let err = render_frame(&w, 0, &cfg).unwrap_err();
            assert!(err.to_string().contains("must be positive"), "{err}");
            let mut store = TileStore::new(patu_temporal::TemporalConfig::default());
            assert!(render_sequence(&w, &[0, 1], &cfg, &mut store).is_err());
        }
    }

    #[test]
    fn telemetry_off_yields_none() {
        let w = workload();
        let r = render(&w, 0, &RenderConfig::new(FilterPolicy::Baseline));
        assert!(
            r.telemetry.is_none(),
            "off is the default and carries nothing"
        );
    }

    #[test]
    fn spans_telemetry_builds_the_stage_tree() {
        let w = workload();
        let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
            .with_telemetry(TelemetryConfig::with_level(patu_obs::TraceLevel::Spans));
        let r = render(&w, 2, &cfg);
        let t = r.telemetry.expect("spans level records");
        assert_eq!(t.frame, 2, "render_frame stamps the frame index");
        assert_eq!(t.counters["frame::cycles"], r.stats.cycles);
        assert_eq!(
            t.hists["filter::latency"].count(),
            r.stats.filter_requests,
            "one latency sample per filter request"
        );
        let stages: Vec<&str> = t.stage_totals().iter().map(|&(n, _, _)| n).collect();
        assert!(stages.contains(&"geom::frontend"), "stages: {stages:?}");
        assert!(stages.contains(&"raster::tile"));
        assert!(stages.contains(&"raster::tile::texture"));
        assert!(t.counters["geom::fragments_shaded"] > 0);
        assert!(t.hists.contains_key("mem::fetch_latency"));
        assert!(!t.events.is_empty(), "tile begin/end events in the ring");
        // The rendered pixels are untouched by observation.
        let plain = render(
            &w,
            2,
            &RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }),
        );
        assert_eq!(plain.image.pixels(), r.image.pixels());
        assert_eq!(plain.stats, r.stats);
    }

    #[test]
    fn watchdog_trip_captures_a_flight_dump() {
        let w = workload();
        let cfg = RenderConfig::new(FilterPolicy::Baseline)
            .with_cycle_budget(1)
            .with_telemetry(TelemetryConfig::with_level(patu_obs::TraceLevel::Counters));
        let r = render(&w, 0, &cfg);
        assert!(r.degraded);
        let t = r.telemetry.expect("counters level records");
        assert!(!t.dumps.is_empty(), "a trip must leave a postmortem");
        let dump = &t.dumps[0];
        assert_eq!(dump.reason, "watchdog_trip");
        assert_eq!(dump.frame, 0);
        assert_eq!(dump.policy, "Baseline");
        assert_eq!(dump.fault_seed, 0);
        assert!(
            dump.events
                .iter()
                .any(|e| matches!(e.kind, patu_obs::EventKind::WatchdogTrip)),
            "the ring holds the trip event itself"
        );
    }

    #[test]
    fn fault_fallback_captures_a_flight_dump() {
        let w = workload();
        let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
            .with_faults(FaultConfig::uniform(42, 0.05))
            .with_telemetry(TelemetryConfig::with_level(patu_obs::TraceLevel::Counters));
        let r = render(&w, 0, &cfg);
        assert!(r.stats.faults.fallbacks > 0);
        let t = r.telemetry.expect("counters level records");
        assert!(t.dumps.iter().any(|d| d.reason == "fault_fallback"));
        let dump = t
            .dumps
            .iter()
            .find(|d| d.reason == "fault_fallback")
            .unwrap();
        assert_eq!(dump.fault_seed, 42);
        assert!(dump.policy.starts_with("Patu"));
    }

    #[test]
    fn attribution_conserves_frame_cycles() {
        let w = workload();
        for policy in [
            FilterPolicy::Baseline,
            FilterPolicy::NoAf,
            FilterPolicy::Patu { threshold: 0.4 },
        ] {
            let cfg = RenderConfig::new(policy)
                .with_telemetry(TelemetryConfig::with_level(patu_obs::TraceLevel::Counters));
            let r = render(&w, 0, &cfg);
            let t = r.telemetry.expect("counters level records");
            assert_eq!(
                t.attrib.frame_total(),
                r.stats.cycles,
                "conservation for {policy:?}"
            );
            assert!(t.attrib.get(Stage::Setup) > 0, "front-end work exists");
            assert!(t.attrib.get(Stage::Shade) > 0, "shading work exists");
        }
    }

    #[test]
    fn patu_attribution_sees_prediction_flow_work() {
        let w = workload();
        let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 })
            .with_telemetry(TelemetryConfig::with_level(patu_obs::TraceLevel::Counters));
        let r = render(&w, 0, &cfg);
        let t = r.telemetry.expect("counters level records");
        assert!(
            t.attrib.get(Stage::Predictor) > 0,
            "predictor evaluations attributed"
        );
        assert!(t.attrib.get(Stage::TexelFetch) > 0, "texel work attributed");
    }

    #[test]
    fn tile_stats_cover_every_tile_and_count_demotions() {
        let w = workload();
        let r = render(
            &w,
            0,
            &RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }),
        );
        assert!(!r.tile_stats.is_empty());
        assert!(
            r.tile_stats.windows(2).all(|w| w[0].tile < w[1].tile),
            "tile order restored after the cluster merge"
        );
        let fragments: u64 = r.tile_stats.iter().map(|t| t.fragments).sum();
        let demoted: u64 = r.tile_stats.iter().map(|t| t.demoted).sum();
        assert_eq!(fragments, r.approx.pixels);
        assert_eq!(demoted, r.approx.stage1_approx + r.approx.stage2_approx);
        assert!(demoted > 0, "the policy demotes at θ=0.4");
    }

    #[test]
    fn raster_spans_form_a_tree() {
        let w = workload();
        let cfg = RenderConfig::new(FilterPolicy::Baseline)
            .with_telemetry(TelemetryConfig::with_level(patu_obs::TraceLevel::Spans));
        let r = render(&w, 0, &cfg);
        let t = r.telemetry.expect("spans level records");
        let spans = &t.spans;
        assert!(spans.iter().any(|s| s.name == "raster::tile" && s.id != 0));
        for s in spans {
            if s.name.starts_with("raster::tile::") {
                assert_ne!(s.parent, 0, "{} must link to its tile", s.name);
                let parent = spans.iter().find(|p| p.id == s.parent);
                assert!(
                    parent.is_some_and(|p| p.name == "raster::tile"),
                    "{} parent must be a tile span",
                    s.name
                );
            }
        }
    }

    #[test]
    fn baseline_records_sharing_stats() {
        let w = workload();
        let r = render(&w, 0, &RenderConfig::new(FilterPolicy::Baseline));
        assert!(r.sharing.taps_total > 0);
        let f = r.sharing.sharing_fraction();
        assert!(f > 0.0 && f < 1.0, "sharing fraction {f}");
    }
}
