//! Property-based tests for the cache, DRAM and timing models, driven by
//! the workspace's deterministic generator (`DetRng`): each test sweeps a
//! fixed-seed randomized sample of the input space, so any failure
//! reproduces bit-for-bit from the test name alone.

use patu_gmath::DetRng;
use patu_gpu::{Cache, Dram, FrameTimer, GpuConfig, MemorySystem, TextureRequest, TextureUnit};
use patu_texture::TexelAddress;

const SWEEPS: usize = 48;

fn addr_stream(rng: &mut DetRng) -> Vec<u64> {
    let len = rng.range_between(1, 200) as usize;
    (0..len).map(|_| rng.range(1 << 20)).collect()
}

#[test]
fn cache_same_line_hits_after_any_fill() {
    let mut rng = DetRng::new(0x9_01);
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        let probe = rng.range(1 << 20);
        let mut c = Cache::new(16 * 1024, 4, 64);
        for a in addrs {
            c.access(TexelAddress::new(a));
        }
        // After touching a line it must be resident immediately after.
        c.access(TexelAddress::new(probe));
        assert!(c.probe(TexelAddress::new(probe)));
    }
}

#[test]
fn cache_stats_consistent() {
    let mut rng = DetRng::new(0x9_02);
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        let mut c = Cache::new(4 * 1024, 2, 64);
        for a in &addrs {
            c.access(TexelAddress::new(*a));
        }
        let s = c.stats();
        assert_eq!(s.accesses, addrs.len() as u64);
        assert!(s.hits <= s.accesses);
        assert!(s.hit_rate() <= 1.0);
    }
}

#[test]
fn bigger_cache_never_fewer_hits_on_repeat_pass() {
    let mut rng = DetRng::new(0x9_03);
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        // Two passes over the same stream: the second pass's hits measure
        // retained working set, which can only grow with capacity under
        // the same associativity and LRU.
        let run = |bytes: u64| {
            let mut c = Cache::new(bytes, 4, 64);
            for a in &addrs {
                c.access(TexelAddress::new(*a));
            }
            let before = c.stats().hits;
            for a in &addrs {
                c.access(TexelAddress::new(*a));
            }
            c.stats().hits - before
        };
        assert!(run(64 * 1024) >= run(8 * 1024));
    }
}

#[test]
fn dram_latency_positive_and_bounded() {
    let mut rng = DetRng::new(0x9_04);
    let cfg = GpuConfig::default();
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        let mut d = Dram::new(&cfg);
        for (now, a) in addrs.iter().enumerate() {
            let lat = d.read(TexelAddress::new(*a), now as u64);
            assert!(lat >= cfg.dram_row_hit_cycles);
            // Bounded by worst queueing: all prior requests on one channel.
            assert!(lat < 1_000_000);
        }
        assert_eq!(d.stats().reads, addrs.len() as u64);
    }
}

#[test]
fn dram_row_hits_never_exceed_reads() {
    let mut rng = DetRng::new(0x9_05);
    for _ in 0..SWEEPS {
        let addrs = addr_stream(&mut rng);
        let mut d = Dram::new(&GpuConfig::default());
        for (i, a) in addrs.iter().enumerate() {
            let _ = d.read(TexelAddress::new(*a), i as u64 * 10);
        }
        assert!(d.stats().row_hits <= d.stats().reads);
        assert_eq!(d.stats().bytes, addrs.len() as u64 * 64);
    }
}

#[test]
fn memsys_latency_hierarchy() {
    let mut rng = DetRng::new(0x9_06);
    let cfg = GpuConfig::default();
    for _ in 0..SWEEPS {
        let addr = rng.range(1 << 24);
        let mut m = MemorySystem::new(&cfg);
        let cold = m.fetch_texel(0, TexelAddress::new(addr), 0);
        let warm = m.fetch_texel(0, TexelAddress::new(addr), 1_000);
        let other_cluster = m.fetch_texel(1, TexelAddress::new(addr), 2_000);
        assert!(warm <= other_cluster, "L1 <= L2");
        assert!(other_cluster <= cold, "L2 <= DRAM");
    }
}

#[test]
fn texture_unit_latency_scales_with_taps() {
    let cfg = GpuConfig::default();
    for n in 1usize..=16 {
        let mut tu = TextureUnit::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        let taps: Vec<Vec<TexelAddress>> = (0..n)
            .map(|i| {
                (0..8)
                    .map(|j| TexelAddress::new((i * 64 + j * 4) as u64))
                    .collect()
            })
            .collect();
        let req = TextureRequest::new(taps);
        let t = tu.process(&req, &mut mem, 0);
        // At least the filter throughput cost.
        assert!(t.latency >= (n as u64) * u64::from(cfg.cycles_per_trilinear));
        assert_eq!(t.completion, t.latency);
    }
}

#[test]
fn frame_timer_monotone() {
    let mut rng = DetRng::new(0x9_07);
    for _ in 0..SWEEPS {
        let tiles = rng.range_between(1, 60) as usize;
        let mut timer = FrameTimer::new(&GpuConfig::default());
        let mut last_frame = 0;
        for _ in 0..tiles {
            let shade = rng.range(5_000);
            let texture_extra = rng.range(5_000);
            let (cluster, start) = timer.begin_tile();
            timer.end_tile(cluster, shade, start + texture_extra);
            let f = timer.frame_cycles();
            assert!(f >= last_frame, "frame time never decreases");
            last_frame = f;
        }
    }
}

#[test]
fn shading_cycles_linear_bounds() {
    let mut rng = DetRng::new(0x9_08);
    let cfg = GpuConfig::default();
    let timer = FrameTimer::new(&cfg);
    let lanes = u64::from(cfg.shaders_per_cluster * cfg.simd_width);
    for _ in 0..512 {
        let frags = rng.range(1_000_000);
        let cycles = timer.shading_cycles(frags);
        if let Some(per_cycle) = lanes
            .checked_div(u64::from(cfg.shader_ops_per_fragment))
            .filter(|&p| p > 0)
        {
            assert!(cycles >= frags / per_cycle);
            assert!(cycles <= frags / per_cycle + 1);
        }
    }
}

/// Naive reference LRU: nested per-set way lists indexed with `/` and `%`,
/// a full scan on every access, no memo. A miss fills the first invalid
/// way, else the least recently used one.
struct ReferenceLru {
    sets: Vec<Vec<Option<(u64, u64)>>>,
    line_size: u64,
    clock: u64,
    accesses: u64,
    hits: u64,
}

impl ReferenceLru {
    fn new(size_bytes: u64, ways: u32, line_size: u64) -> ReferenceLru {
        let num_sets = size_bytes / (u64::from(ways) * line_size);
        ReferenceLru {
            sets: vec![vec![None; ways as usize]; num_sets as usize],
            line_size,
            clock: 0,
            accesses: 0,
            hits: 0,
        }
    }

    /// `(set, tag)` of the line holding `addr`.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_size;
        let n = self.sets.len() as u64;
        ((line % n) as usize, line / n)
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let (set, tag) = self.locate(addr);
        let clock = self.clock;
        let ways = &mut self.sets[set];
        if let Some(way) = ways.iter_mut().flatten().find(|(t, _)| *t == tag) {
            way.1 = clock;
            self.hits += 1;
            return true;
        }
        let victim = ways.iter().position(Option::is_none).unwrap_or_else(|| {
            (0..ways.len())
                .min_by_key(|&i| ways[i].map_or(0, |(_, stamp)| stamp))
                .unwrap_or(0)
        });
        ways[victim] = Some((tag, clock));
        false
    }

    fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets[set].iter().flatten().any(|&(t, _)| t == tag)
    }

    fn invalidate_line(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let ways = &mut self.sets[set];
        match ways
            .iter()
            .position(|w| matches!(w, Some((t, _)) if *t == tag))
        {
            Some(i) => {
                ways[i] = None;
                true
            }
            None => false,
        }
    }

    fn reset(&mut self) {
        for ways in &mut self.sets {
            ways.fill(None);
        }
        self.clock = 0;
        self.accesses = 0;
        self.hits = 0;
    }
}

/// Drives `Cache` and the naive reference with one seeded operation stream
/// — same-line repeats, strides, random lines (over 4× the capacity, so
/// sets conflict and evict), line invalidations and whole-cache resets —
/// and asserts they agree on every hit/miss, probe and statistic.
fn cache_matches_reference_lru(size_bytes: u64, ways: u32, line_size: u64, seed: u64) {
    let mut rng = DetRng::new(seed);
    let mut cache = Cache::new(size_bytes, ways, line_size);
    let mut reference = ReferenceLru::new(size_bytes, ways, line_size);
    let span = 4 * size_bytes;
    let mut addr = 0u64;
    for step in 0..20_000 {
        let op = rng.range(100);
        if op < 2 {
            let victim = if rng.chance(0.5) {
                addr
            } else {
                rng.range(span)
            };
            assert_eq!(
                cache.invalidate_line(TexelAddress::new(victim)),
                reference.invalidate_line(victim),
                "step {step}: invalidate {victim:#x}"
            );
            continue;
        }
        if op == 2 && rng.chance(0.1) {
            cache.reset();
            reference.reset();
            continue;
        }
        addr = match op {
            0..=44 => addr - addr % line_size + rng.range(line_size),
            45..=69 => addr + [2, 4, 64, 128, 1024][rng.range(5) as usize],
            _ => rng.range(span),
        };
        assert_eq!(
            cache.access(TexelAddress::new(addr)),
            reference.access(addr),
            "step {step}: access {addr:#x}"
        );
        let other = rng.range(span);
        for a in [addr, other, addr + line_size] {
            assert_eq!(
                cache.probe(TexelAddress::new(a)),
                reference.probe(a),
                "step {step}: probe {a:#x}"
            );
        }
        assert_eq!(cache.stats().accesses, reference.accesses, "step {step}");
        assert_eq!(cache.stats().hits, reference.hits, "step {step}");
    }
}

#[test]
fn cache_matches_reference_lru_on_default_l1() {
    let cfg = GpuConfig::default();
    cache_matches_reference_lru(
        cfg.tex_l1_bytes,
        cfg.tex_l1_ways,
        cfg.cache_line_bytes,
        0x9_20,
    );
}

#[test]
fn cache_matches_reference_lru_on_default_shard_l2() {
    let shard = GpuConfig::default().cluster_shard();
    cache_matches_reference_lru(
        shard.tex_l2_bytes,
        shard.tex_l2_ways,
        shard.cache_line_bytes,
        0x9_21,
    );
}

#[test]
fn cache_matches_reference_lru_on_non_power_of_two_geometry() {
    // 24 sets: set index and tag by division.
    cache_matches_reference_lru(3 * 1024, 2, 64, 0x9_22);
    // The L2 of a 3-cluster shard.
    let shard = GpuConfig {
        clusters: 3,
        ..GpuConfig::default()
    }
    .cluster_shard();
    assert!(!Cache::new(shard.tex_l2_bytes, shard.tex_l2_ways, 64)
        .num_sets()
        .is_power_of_two());
    cache_matches_reference_lru(shard.tex_l2_bytes, shard.tex_l2_ways, 64, 0x9_23);
    // 48-byte lines: the line index by division too.
    cache_matches_reference_lru(48 * 2 * 10, 2, 48, 0x9_24);
}
