//! Frame-level statistics: traffic classes, event counts and the aggregate
//! metrics every experiment binary reports.

use patu_obs::Log2Histogram;
use std::fmt;

/// Memory-traffic categories for the paper's Fig. 6 bandwidth breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Texel fetches missing to DRAM — the dominant class (≈71 % with AF on).
    TextureFetch,
    /// Vertex attribute reads.
    Vertex,
    /// Depth buffer spills/fills.
    Depth,
    /// Color/framebuffer writes.
    Framebuffer,
    /// Command stream and miscellaneous.
    Other,
}

impl TrafficClass {
    /// All classes in display order.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::TextureFetch,
        TrafficClass::Vertex,
        TrafficClass::Depth,
        TrafficClass::Framebuffer,
        TrafficClass::Other,
    ];
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TrafficClass::TextureFetch => "texture",
            TrafficClass::Vertex => "vertex",
            TrafficClass::Depth => "depth",
            TrafficClass::Framebuffer => "framebuffer",
            TrafficClass::Other => "other",
        };
        f.write_str(name)
    }
}

/// Off-chip bytes moved, split by traffic class (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BandwidthBreakdown {
    /// Texture fetch bytes (L2-miss refills).
    pub texture: u64,
    /// Vertex fetch bytes.
    pub vertex: u64,
    /// Depth traffic bytes.
    pub depth: u64,
    /// Framebuffer write bytes.
    pub framebuffer: u64,
    /// Everything else.
    pub other: u64,
}

impl BandwidthBreakdown {
    /// Adds `bytes` to a class.
    pub fn add(&mut self, class: TrafficClass, bytes: u64) {
        match class {
            TrafficClass::TextureFetch => self.texture += bytes,
            TrafficClass::Vertex => self.vertex += bytes,
            TrafficClass::Depth => self.depth += bytes,
            TrafficClass::Framebuffer => self.framebuffer += bytes,
            TrafficClass::Other => self.other += bytes,
        }
    }

    /// Bytes in a class.
    pub fn get(&self, class: TrafficClass) -> u64 {
        match class {
            TrafficClass::TextureFetch => self.texture,
            TrafficClass::Vertex => self.vertex,
            TrafficClass::Depth => self.depth,
            TrafficClass::Framebuffer => self.framebuffer,
            TrafficClass::Other => self.other,
        }
    }

    /// Total bytes across all classes.
    pub fn total(&self) -> u64 {
        self.texture + self.vertex + self.depth + self.framebuffer + self.other
    }

    /// Texture share of total traffic in `[0, 1]` (the paper reports ≈0.71
    /// with AF enabled). Zero when there is no traffic.
    pub fn texture_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.texture as f64 / total as f64
        }
    }

    /// Component-wise sum.
    pub fn accumulate(&mut self, other: &BandwidthBreakdown) {
        self.texture += other.texture;
        self.vertex += other.vertex;
        self.depth += other.depth;
        self.framebuffer += other.framebuffer;
        self.other += other.other;
    }
}

/// Raw micro-architectural event counts — the energy model's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// Fragment-shader ALU operations.
    pub shader_alu_ops: u64,
    /// Trilinear filter operations executed by texture units.
    pub trilinear_ops: u64,
    /// Texel address calculations.
    pub address_calc_ops: u64,
    /// Texel fetches issued (pre-cache).
    pub texel_fetches: u64,
    /// Texture L1 accesses.
    pub l1_accesses: u64,
    /// Texture L1 misses.
    pub l1_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM line reads.
    pub dram_reads: u64,
    /// DRAM bytes moved (all classes).
    pub dram_bytes: u64,
    /// Vertices processed.
    pub vertices: u64,
    /// PATU texel-address hash-table accesses (0 for the baseline).
    pub hash_table_accesses: u64,
    /// PATU predictor evaluations (0 for the baseline).
    pub predictor_evals: u64,
}

impl EventCounts {
    /// Component-wise sum.
    pub fn accumulate(&mut self, other: &EventCounts) {
        self.shader_alu_ops += other.shader_alu_ops;
        self.trilinear_ops += other.trilinear_ops;
        self.address_calc_ops += other.address_calc_ops;
        self.texel_fetches += other.texel_fetches;
        self.l1_accesses += other.l1_accesses;
        self.l1_misses += other.l1_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.dram_reads += other.dram_reads;
        self.dram_bytes += other.dram_bytes;
        self.vertices += other.vertices;
        self.hash_table_accesses += other.hash_table_accesses;
        self.predictor_evals += other.predictor_evals;
    }
}

/// Off-chip side effects — bandwidth plus event counters — accumulated
/// outside any cache model. The deterministic parallel renderer gives each
/// worker one of these (seeded from its private memory shard), then merges
/// them in cluster order; every field is a commutative sum, so the merged
/// totals are independent of thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemSideEffects {
    /// Off-chip bandwidth by traffic class.
    pub bandwidth: BandwidthBreakdown,
    /// Cache/DRAM/ALU event counters.
    pub events: EventCounts,
}

impl MemSideEffects {
    /// Accounts traffic that bypasses the texture caches, mirroring
    /// [`crate::MemorySystem::record_traffic`]: the bytes land in both the
    /// class breakdown and the DRAM byte counter.
    pub fn record_traffic(&mut self, class: TrafficClass, bytes: u64) {
        debug_assert!(
            class != TrafficClass::TextureFetch,
            "texture traffic is accounted by the memory system's fetch path"
        );
        self.bandwidth.add(class, bytes);
        self.events.dram_bytes += bytes;
    }

    /// Component-wise sum (cluster-order merge).
    pub fn accumulate(&mut self, other: &MemSideEffects) {
        self.bandwidth.accumulate(&other.bandwidth);
        self.events.accumulate(&other.events);
    }
}

/// Cross-frame tile-reuse counters, filled by the temporal renderer
/// (`render_sequence`). All zero on the single-frame path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TemporalCounts {
    /// Tiles blitted verbatim from the previous frame (fragment→texel path
    /// skipped entirely).
    pub tiles_reused: u64,
    /// Tiles whose pixels were reused but whose PATU decisions were
    /// re-evaluated (stale predictor state, stable geometry).
    pub tiles_repredicted: u64,
    /// Tiles rendered from scratch (dirty, aged out, or temporal off).
    pub tiles_rerendered: u64,
    /// Cycles charged to reuse/repredict work (blit + decision refresh) —
    /// the `reuse` stage of cycle attribution.
    pub reuse_cycles: u64,
}

impl TemporalCounts {
    /// Tiles the invalidation engine classified this frame.
    pub fn tiles_total(&self) -> u64 {
        self.tiles_reused + self.tiles_repredicted + self.tiles_rerendered
    }

    /// Fraction of tiles that skipped the fragment→texel path (reused or
    /// repredicted), in `[0, 1]`. Zero when nothing was classified.
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.tiles_total();
        if total == 0 {
            0.0
        } else {
            (self.tiles_reused + self.tiles_repredicted) as f64 / total as f64
        }
    }

    /// Whether every counter is zero (single-frame path / temporal off).
    pub fn is_zero(&self) -> bool {
        *self == TemporalCounts::default()
    }

    /// Component-wise sum.
    pub fn accumulate(&mut self, other: &TemporalCounts) {
        self.tiles_reused += other.tiles_reused;
        self.tiles_repredicted += other.tiles_repredicted;
        self.tiles_rerendered += other.tiles_rerendered;
        self.reuse_cycles += other.reuse_cycles;
    }

    /// The `"temporal"` JSONL line for one sequence frame — all-integer
    /// fields, validated by `patu_obs::schema::check_line` (which rejects a
    /// line that classified no tiles, so callers should only emit this on
    /// sequence frames where the store ran).
    pub fn jsonl_line(&self, frame: u32) -> String {
        format!(
            "{{\"type\":\"temporal\",\"frame\":{frame},\"reused\":{},\"repredicted\":{},\
             \"rerendered\":{},\"reuse_cycles\":{}}}",
            self.tiles_reused, self.tiles_repredicted, self.tiles_rerendered, self.reuse_cycles
        )
    }
}

/// The complete timing/traffic result of rendering one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameStats {
    /// Total frame cycles (max over clusters + front-end).
    pub cycles: u64,
    /// Summed texture-filtering latency over all requests (Fig. 18's metric).
    pub filter_latency_cycles: u64,
    /// Number of texture filtering requests (shaded fragments that sampled).
    pub filter_requests: u64,
    /// Log2-bucketed distribution of per-request filtering latency. The
    /// mean alone hides tail effects (a few DRAM-missing requests dominate
    /// perceived hitching); benches report p50/p95/p99 from here.
    pub filter_latency_hist: Log2Histogram,
    /// Off-chip traffic by class.
    pub bandwidth: BandwidthBreakdown,
    /// Event counts for the energy model.
    pub events: EventCounts,
    /// Faults injected and degradations taken while rendering (all zero
    /// when fault injection is disabled).
    pub faults: crate::FaultCounts,
    /// Cross-frame tile reuse counters (all zero outside `render_sequence`).
    pub temporal: TemporalCounts,
}

impl FrameStats {
    /// Mean filtering latency per request in cycles (0 when no requests).
    pub fn mean_filter_latency(&self) -> f64 {
        if self.filter_requests == 0 {
            0.0
        } else {
            self.filter_latency_cycles as f64 / self.filter_requests as f64
        }
    }

    /// 95th-percentile per-request filtering latency in cycles.
    pub fn filter_latency_p95(&self) -> u64 {
        self.filter_latency_hist.p95()
    }

    /// 99th-percentile per-request filtering latency in cycles.
    pub fn filter_latency_p99(&self) -> u64 {
        self.filter_latency_hist.p99()
    }

    /// Frames per second at `frequency_hz` (∞ when the frame took 0 cycles).
    ///
    /// Callers writing JSON must route the result through
    /// `patu_obs::json::num`, which maps the non-finite zero-cycle case to
    /// `null` — raw `{}` formatting would emit the unparseable token `inf`.
    pub fn fps(&self, frequency_hz: u64) -> f64 {
        if self.cycles == 0 {
            f64::INFINITY
        } else {
            frequency_hz as f64 / self.cycles as f64
        }
    }

    /// Component-wise accumulation (for multi-frame averaging).
    pub fn accumulate(&mut self, other: &FrameStats) {
        self.cycles += other.cycles;
        self.filter_latency_cycles += other.filter_latency_cycles;
        self.filter_requests += other.filter_requests;
        self.filter_latency_hist
            .accumulate(&other.filter_latency_hist);
        self.bandwidth.accumulate(&other.bandwidth);
        self.events.accumulate(&other.events);
        self.faults.accumulate(&other.faults);
        self.temporal.accumulate(&other.temporal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_effects_record_and_merge() {
        let mut a = MemSideEffects::default();
        a.record_traffic(TrafficClass::Vertex, 100);
        let mut b = MemSideEffects::default();
        b.record_traffic(TrafficClass::Framebuffer, 50);
        a.accumulate(&b);
        assert_eq!(a.bandwidth.vertex, 100);
        assert_eq!(a.bandwidth.framebuffer, 50);
        assert_eq!(
            a.events.dram_bytes, 150,
            "record_traffic also counts DRAM bytes"
        );
    }

    #[test]
    fn breakdown_add_get_total() {
        let mut b = BandwidthBreakdown::default();
        b.add(TrafficClass::TextureFetch, 700);
        b.add(TrafficClass::Vertex, 100);
        b.add(TrafficClass::Framebuffer, 200);
        assert_eq!(b.get(TrafficClass::TextureFetch), 700);
        assert_eq!(b.total(), 1000);
        assert!((b.texture_fraction() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_fraction_zero() {
        assert_eq!(BandwidthBreakdown::default().texture_fraction(), 0.0);
    }

    #[test]
    fn accumulate_sums() {
        let mut a = BandwidthBreakdown::default();
        a.add(TrafficClass::Depth, 5);
        let mut b = BandwidthBreakdown::default();
        b.add(TrafficClass::Depth, 7);
        b.add(TrafficClass::Other, 1);
        a.accumulate(&b);
        assert_eq!(a.depth, 12);
        assert_eq!(a.other, 1);
    }

    #[test]
    fn frame_stats_mean_latency() {
        let s = FrameStats {
            filter_latency_cycles: 100,
            filter_requests: 4,
            ..FrameStats::default()
        };
        assert_eq!(s.mean_filter_latency(), 25.0);
        assert_eq!(FrameStats::default().mean_filter_latency(), 0.0);
    }

    #[test]
    fn filter_latency_percentiles_expose_the_tail() {
        let mut s = FrameStats::default();
        for _ in 0..90 {
            s.filter_latency_hist.record(1);
        }
        for _ in 0..10 {
            s.filter_latency_hist.record(1000);
        }
        assert_eq!(s.filter_latency_hist.p50(), 1, "median ignores the tail");
        assert_eq!(s.filter_latency_p95(), 1000, "p95 lands in the tail bucket");
        assert_eq!(s.filter_latency_p99(), 1000);
        let mut merged = FrameStats::default();
        merged.accumulate(&s);
        merged.accumulate(&s);
        assert_eq!(
            merged.filter_latency_hist.count(),
            200,
            "hist merges on accumulate"
        );
        assert_eq!(merged.filter_latency_hist.p50(), 1);
    }

    #[test]
    fn fps_at_one_ghz() {
        let s = FrameStats {
            cycles: 20_000_000,
            ..FrameStats::default()
        };
        assert!((s.fps(1_000_000_000) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn event_counts_accumulate() {
        let mut a = EventCounts {
            trilinear_ops: 3,
            ..EventCounts::default()
        };
        let b = EventCounts {
            trilinear_ops: 4,
            l1_accesses: 10,
            ..EventCounts::default()
        };
        a.accumulate(&b);
        assert_eq!(a.trilinear_ops, 7);
        assert_eq!(a.l1_accesses, 10);
    }

    #[test]
    fn temporal_counts_accumulate_and_fraction() {
        let mut a = TemporalCounts {
            tiles_reused: 3,
            tiles_rerendered: 1,
            reuse_cycles: 40,
            ..TemporalCounts::default()
        };
        assert!((a.reuse_fraction() - 0.75).abs() < 1e-9);
        let b = TemporalCounts {
            tiles_repredicted: 2,
            tiles_rerendered: 2,
            reuse_cycles: 8,
            ..TemporalCounts::default()
        };
        a.accumulate(&b);
        assert_eq!(a.tiles_total(), 8);
        assert_eq!(a.reuse_cycles, 48);
        assert!((a.reuse_fraction() - 5.0 / 8.0).abs() < 1e-9);
        assert!(!a.is_zero());
        assert!(TemporalCounts::default().is_zero());
        assert_eq!(TemporalCounts::default().reuse_fraction(), 0.0);
        let mut frame = FrameStats {
            temporal: a,
            ..FrameStats::default()
        };
        frame.accumulate(&FrameStats {
            temporal: b,
            ..FrameStats::default()
        });
        assert_eq!(frame.temporal.tiles_total(), 12, "FrameStats sums temporal");
    }

    #[test]
    fn traffic_class_display() {
        assert_eq!(TrafficClass::TextureFetch.to_string(), "texture");
        assert_eq!(TrafficClass::ALL.len(), 5);
    }
}
