//! The texture memory hierarchy: per-cluster L1 → shared L2 → DRAM, with
//! per-class off-chip bandwidth accounting.

use crate::cache::Cache;
use crate::config::GpuConfig;
use crate::dram::Dram;
use crate::error::GpuError;
use crate::fault::{FaultConfig, FaultCounts, FaultInjector};
use crate::stats::{BandwidthBreakdown, EventCounts, TrafficClass};
use patu_obs::Log2Histogram;
use patu_texture::TexelAddress;

/// Telemetry-only cycle totals by memory level, the attribution profiler's
/// raw material: how many fetch-latency cycles each level of the hierarchy
/// contributed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemAttribCycles {
    /// Cycles spent in L1 hit latency (every fetch pays this).
    pub l1: u64,
    /// Cycles spent in L2 hit latency (L1 misses pay this).
    pub l2: u64,
    /// Cycles spent in the DRAM round-trip, including injected stalls.
    pub dram: u64,
}

/// Where a texel fetch was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchLevel {
    /// Texture L1 hit.
    L1,
    /// L2 hit.
    L2,
    /// Serviced by DRAM.
    Dram,
}

/// The memory system shared by all texture units.
///
/// ```
/// use patu_gpu::{GpuConfig, MemorySystem};
/// use patu_texture::TexelAddress;
/// let cfg = GpuConfig::default();
/// let mut mem = MemorySystem::new(&cfg);
/// let cold = mem.fetch_texel(0, TexelAddress::new(0x1000), 0);
/// let warm = mem.fetch_texel(0, TexelAddress::new(0x1000), 1000);
/// assert!(warm < cold, "L1 hit beats the cold DRAM fill");
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l1: Vec<Cache>,
    l2: Cache,
    dram: Dram,
    l1_hit_cycles: u64,
    l2_hit_cycles: u64,
    line_size: u64,
    bandwidth: BandwidthBreakdown,
    events: EventCounts,
    faults: FaultInjector,
    telemetry: bool,
    fetch_latency_hist: Log2Histogram,
    miss_penalty_hist: Log2Histogram,
    attrib_cycles: MemAttribCycles,
}

impl MemorySystem {
    /// Builds the hierarchy from the GPU configuration: one L1 per cluster,
    /// one shared L2, one DRAM.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or degenerate cache geometry; use
    /// [`MemorySystem::try_new`] for a non-panicking variant.
    pub fn new(cfg: &GpuConfig) -> MemorySystem {
        // patu-lint: allow(panic-path) — documented panicking convenience for tests; library paths use try_new
        MemorySystem::try_new(cfg).expect("valid GPU config")
    }

    /// Like [`MemorySystem::new`] but reports an invalid configuration
    /// ([`GpuConfig::validate`]) or degenerate cache geometry as a typed
    /// error instead of panicking. Every render path builds its memory
    /// system here, so this is where a bad `GpuConfig` is turned away.
    pub fn try_new(cfg: &GpuConfig) -> Result<MemorySystem, GpuError> {
        cfg.validate()?;
        Ok(MemorySystem {
            l1: (0..cfg.clusters)
                .map(|_| Cache::try_new(cfg.tex_l1_bytes, cfg.tex_l1_ways, cfg.cache_line_bytes))
                .collect::<Result<Vec<Cache>, GpuError>>()?,
            l2: Cache::try_new(cfg.tex_l2_bytes, cfg.tex_l2_ways, cfg.cache_line_bytes)?,
            dram: Dram::new(cfg),
            l1_hit_cycles: cfg.l1_hit_cycles,
            l2_hit_cycles: cfg.l2_hit_cycles,
            line_size: cfg.cache_line_bytes,
            bandwidth: BandwidthBreakdown::default(),
            events: EventCounts::default(),
            faults: FaultInjector::disabled(),
            telemetry: false,
            fetch_latency_hist: Log2Histogram::new(),
            miss_penalty_hist: Log2Histogram::new(),
            attrib_cycles: MemAttribCycles::default(),
        })
    }

    /// Arms fault injection on the fetch path. Cache bit flips invalidate
    /// the affected line before lookup (the ECC-detected corruption forces
    /// a refill from the level below); DRAM stalls occupy the read's
    /// channel for the configured timeout. Both perturb *latency* and
    /// *hit rates* while keeping the byte/event accounting invariants
    /// (`dram bytes == dram reads × line size`) intact.
    pub fn set_faults(&mut self, cfg: FaultConfig) -> Result<(), GpuError> {
        cfg.validate()?;
        // Tag the fork so the memory system's stream never overlaps the
        // texture units', which fork from the same master seed.
        self.faults = FaultInjector::new(cfg).fork(0x4D45_4D53); // "MEMS"
        Ok(())
    }

    /// Like [`MemorySystem::set_faults`] but additionally forks the stream
    /// by `cluster`. The parallel renderer gives every cluster its own
    /// memory shard; tagging each shard's stream with its cluster index
    /// keeps fault patterns a pure function of (seed, cluster), independent
    /// of which worker thread executes the shard.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError`] for out-of-range fault rates.
    pub fn set_cluster_faults(&mut self, cfg: FaultConfig, cluster: u64) -> Result<(), GpuError> {
        cfg.validate()?;
        self.faults = FaultInjector::new(cfg).fork(0x4D45_4D53).fork(cluster);
        Ok(())
    }

    /// Rebases the fault stream to the canonical position for `tags`
    /// (prefixed by the memory system's `"MEMS"` site tag), keeping the
    /// accumulated counts. The temporal renderer calls this with
    /// `[frame, tile]` before rendering each tile so the tile's fault draws
    /// are a pure function of `(seed, frame, tile)` — independent of which
    /// other tiles this shard rendered or reused before it.
    pub fn rekey_faults(&mut self, tags: &[u64]) {
        let mut chain = [0u64; 8];
        chain[0] = 0x4D45_4D53; // "MEMS" — matches set_faults/set_cluster_faults
        let n = tags.len().min(chain.len() - 1);
        chain[1..=n].copy_from_slice(&tags[..n]);
        self.faults.rekey(&chain[..=n]);
    }

    /// Faults injected into this memory system so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.counts()
    }

    /// Enables or disables per-fetch latency telemetry. Off by default so
    /// the untraced fetch path pays nothing beyond this flag's branch.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled;
    }

    /// Distribution of end-to-end texel-fetch latencies (telemetry only;
    /// empty unless [`MemorySystem::set_telemetry`] was enabled).
    pub fn fetch_latency_hist(&self) -> &Log2Histogram {
        &self.fetch_latency_hist
    }

    /// Distribution of cache-miss penalties — the DRAM round-trip portion
    /// of fetches that missed both cache levels (telemetry only).
    pub fn miss_penalty_hist(&self) -> &Log2Histogram {
        &self.miss_penalty_hist
    }

    /// Cycle totals by memory level (telemetry only; all zero unless
    /// [`MemorySystem::set_telemetry`] was enabled).
    pub fn attrib_cycles(&self) -> MemAttribCycles {
        self.attrib_cycles
    }

    /// Fetches one texel through `cluster`'s L1; returns the latency in
    /// cycles from issue (`now`) to data return.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn fetch_texel(&mut self, cluster: usize, addr: TexelAddress, now: u64) -> u64 {
        let (latency, _level) = self.fetch_texel_detailed(cluster, addr, now);
        latency
    }

    /// Like [`MemorySystem::fetch_texel`] but also reports which level
    /// satisfied the fetch.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn fetch_texel_detailed(
        &mut self,
        cluster: usize,
        addr: TexelAddress,
        now: u64,
    ) -> (u64, FetchLevel) {
        let (latency, level) = self.fetch_texel_inner(cluster, addr, now);
        if self.telemetry {
            self.record_fetch(latency, level);
        }
        (latency, level)
    }

    /// Telemetry for one fetch: its latency, and its cycles by level.
    fn record_fetch(&mut self, latency: u64, level: FetchLevel) {
        self.fetch_latency_hist.record(latency);
        self.attrib_cycles.l1 += self.l1_hit_cycles;
        match level {
            FetchLevel::L1 => {}
            FetchLevel::L2 => self.attrib_cycles.l2 += self.l2_hit_cycles,
            FetchLevel::Dram => {
                self.attrib_cycles.l2 += self.l2_hit_cycles;
                self.attrib_cycles.dram +=
                    latency.saturating_sub(self.l1_hit_cycles + self.l2_hit_cycles);
            }
        }
    }

    fn fetch_texel_inner(
        &mut self,
        cluster: usize,
        addr: TexelAddress,
        now: u64,
    ) -> (u64, FetchLevel) {
        self.events.texel_fetches += 1;
        // Fault site: a resident line's ECC detects a bit flip. The line is
        // dropped before lookup, so the access takes the miss path and the
        // refill recovers clean data — degraded latency, correct results.
        if self.faults.flip_cache_line() {
            // Alternate the struck level deterministically so both caches
            // exercise their recovery path under any rate.
            if self.faults.counts().cache_bitflips.is_multiple_of(2) {
                self.l2.invalidate_line(addr);
            } else {
                self.l1[cluster].invalidate_line(addr);
            }
        }
        self.events.l1_accesses += 1;
        if self.l1[cluster].access(addr) {
            return (self.l1_hit_cycles, FetchLevel::L1);
        }
        self.fetch_below_l1(addr, now)
    }

    /// The rest of a fetch that missed L1: the shared L2, then DRAM.
    #[cold]
    #[inline(never)]
    fn fetch_below_l1(&mut self, addr: TexelAddress, now: u64) -> (u64, FetchLevel) {
        self.events.l1_misses += 1;
        self.events.l2_accesses += 1;
        if self.l2.access(addr) {
            return (self.l1_hit_cycles + self.l2_hit_cycles, FetchLevel::L2);
        }
        self.events.l2_misses += 1;
        let issue = now + self.l1_hit_cycles + self.l2_hit_cycles;
        // Fault site: the DRAM read times out and is retried, holding the
        // channel bus for the configured stall before the real transfer.
        if let Some(stall) = self.faults.dram_stall() {
            self.dram.inject_stall(addr, stall, issue);
        }
        let dram_latency = self.dram.read(addr, issue);
        if self.telemetry {
            self.miss_penalty_hist.record(dram_latency);
        }
        self.events.dram_reads += 1;
        self.events.dram_bytes += self.line_size;
        self.bandwidth
            .add(TrafficClass::TextureFetch, self.line_size);
        (
            self.l1_hit_cycles + self.l2_hit_cycles + dram_latency,
            FetchLevel::Dram,
        )
    }

    /// Fetches one request's texels in order through `cluster`'s L1,
    /// issuing `ports` per cycle: the `i`-th address issues at cycle
    /// `start + first_offset + i / ports`. Returns the worst issue offset
    /// plus fetch latency over the request (0 for no addresses). Every
    /// counter, fault draw and telemetry sample is the one
    /// [`MemorySystem::fetch_texel`] at each address's issue cycle makes.
    ///
    /// With faults armed, each address takes `fetch_texel`, so fault
    /// draws happen per fetch. Otherwise nothing can touch a cache between
    /// two fetches, so an address on the same line as the one before it
    /// is an L1 hit on that set's most recent line: it is counted without
    /// a lookup. The fetch and access counters, and the telemetry of L1
    /// hits, are then added once per request.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn fetch_request<'a>(
        &mut self,
        cluster: usize,
        addresses: impl IntoIterator<Item = &'a TexelAddress>,
        start: u64,
        first_offset: u64,
        ports: u64,
    ) -> u64 {
        let per_fetch = self.faults.is_active();
        let l1_hit = self.l1_hit_cycles;
        let (mut offset, mut slot) = (first_offset, 0u64);
        let (mut worst, mut fetches, mut misses, mut repeats) = (0u64, 0u64, 0u64, 0u64);
        let mut last_line = None;
        for &addr in addresses {
            let latency = if per_fetch {
                self.fetch_texel(cluster, addr, start + offset)
            } else {
                fetches += 1;
                let l1 = &mut self.l1[cluster];
                let line = l1.line(addr);
                if last_line == Some(line) {
                    repeats += 1;
                    l1_hit
                } else {
                    last_line = Some(line);
                    if l1.access_line(line) {
                        l1_hit
                    } else {
                        misses += 1;
                        let (latency, level) = self.fetch_below_l1(addr, start + offset);
                        if self.telemetry {
                            self.record_fetch(latency, level);
                        }
                        latency
                    }
                }
            };
            worst = worst.max(offset + latency);
            // Count issue slots up instead of dividing by `ports`.
            slot += 1;
            if slot == ports {
                slot = 0;
                offset += 1;
            }
        }
        self.l1[cluster].repeat_hits(repeats);
        self.events.texel_fetches += fetches;
        self.events.l1_accesses += fetches;
        if self.telemetry {
            let hits = fetches - misses;
            self.fetch_latency_hist.record_n(l1_hit, hits);
            self.attrib_cycles.l1 += l1_hit * hits;
        }
        worst
    }

    /// Accounts off-chip traffic that bypasses the texture caches (vertex
    /// fetch, depth spill, framebuffer write, command stream).
    pub fn record_traffic(&mut self, class: TrafficClass, bytes: u64) {
        debug_assert!(
            class != TrafficClass::TextureFetch,
            "texture traffic is accounted by fetch_texel"
        );
        self.bandwidth.add(class, bytes);
        self.events.dram_bytes += bytes;
    }

    /// Off-chip bandwidth by class.
    pub fn bandwidth(&self) -> BandwidthBreakdown {
        self.bandwidth
    }

    /// Event counters (cache/DRAM activity).
    pub fn events(&self) -> EventCounts {
        self.events
    }

    /// L1 hit rate of one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn l1_hit_rate(&self, cluster: usize) -> f64 {
        self.l1[cluster].stats().hit_rate()
    }

    /// Shared L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.stats().hit_rate()
    }

    /// Clears all cache/DRAM state and counters (between frames or runs).
    pub fn reset(&mut self) {
        for c in &mut self.l1 {
            c.reset();
        }
        self.l2.reset();
        self.dram.reset();
        self.bandwidth = BandwidthBreakdown::default();
        self.events = EventCounts::default();
        self.faults.reset_counts();
        self.fetch_latency_hist = Log2Histogram::new();
        self.miss_penalty_hist = Log2Histogram::new();
        self.attrib_cycles = MemAttribCycles::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(&GpuConfig::default())
    }

    #[test]
    fn fetch_path_levels() {
        let mut m = mem();
        let (cold, lvl) = m.fetch_texel_detailed(0, TexelAddress::new(0), 0);
        assert_eq!(lvl, FetchLevel::Dram);
        let (warm, lvl) = m.fetch_texel_detailed(0, TexelAddress::new(0), 100);
        assert_eq!(lvl, FetchLevel::L1);
        assert_eq!(warm, 1);
        assert!(cold > warm + 10);
    }

    #[test]
    fn l2_shared_between_clusters() {
        let mut m = mem();
        let _ = m.fetch_texel_detailed(0, TexelAddress::new(0), 0);
        // Other cluster misses its own L1 but hits the shared L2.
        let (lat, lvl) = m.fetch_texel_detailed(1, TexelAddress::new(0), 100);
        assert_eq!(lvl, FetchLevel::L2);
        assert_eq!(lat, 1 + 12);
    }

    #[test]
    fn texture_bandwidth_counts_l2_miss_lines_only() {
        let mut m = mem();
        let _ = m.fetch_texel(0, TexelAddress::new(0), 0);
        let _ = m.fetch_texel(0, TexelAddress::new(4), 10); // same line: L1 hit
        assert_eq!(m.bandwidth().texture, 64, "one line fetched once");
        assert_eq!(m.events().texel_fetches, 2);
        assert_eq!(m.events().dram_reads, 1);
    }

    #[test]
    fn non_texture_traffic_recorded() {
        let mut m = mem();
        m.record_traffic(TrafficClass::Vertex, 320);
        m.record_traffic(TrafficClass::Framebuffer, 1000);
        assert_eq!(m.bandwidth().vertex, 320);
        assert_eq!(m.bandwidth().framebuffer, 1000);
        assert_eq!(m.bandwidth().total(), 1320);
    }

    #[test]
    fn hit_rates_update() {
        let mut m = mem();
        let _ = m.fetch_texel(0, TexelAddress::new(0), 0);
        let _ = m.fetch_texel(0, TexelAddress::new(0), 10);
        assert!((m.l1_hit_rate(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn faulted_fetches_keep_accounting_invariants() {
        let mut m = mem();
        m.set_faults(FaultConfig::uniform(11, 0.2)).unwrap();
        for i in 0..2_000u64 {
            let _ = m.fetch_texel(0, TexelAddress::new((i % 300) * 32), i * 3);
        }
        let e = m.events();
        assert_eq!(e.l1_accesses, e.texel_fetches);
        assert_eq!(e.l2_accesses, e.l1_misses);
        assert_eq!(e.dram_reads, e.l2_misses);
        assert_eq!(e.dram_bytes, e.dram_reads * 64, "bytes == reads * line");
        assert!(
            m.fault_counts().faults_injected() > 0,
            "faults actually fired"
        );
    }

    #[test]
    fn bitflips_lower_hit_rate() {
        let run = |rate: f64| {
            let mut m = mem();
            m.set_faults(FaultConfig::uniform(5, rate)).unwrap();
            for i in 0..3_000u64 {
                let _ = m.fetch_texel(0, TexelAddress::new((i % 50) * 64), i);
            }
            m.l1_hit_rate(0)
        };
        assert!(run(0.3) < run(0.0), "corrupted lines force refills");
    }

    #[test]
    fn disabled_faults_change_nothing() {
        let mut clean = mem();
        let mut armed = mem();
        armed.set_faults(FaultConfig::disabled()).unwrap();
        for i in 0..500u64 {
            let a = clean.fetch_texel(0, TexelAddress::new(i * 48), i * 2);
            let b = armed.fetch_texel(0, TexelAddress::new(i * 48), i * 2);
            assert_eq!(a, b);
        }
        assert_eq!(clean.events(), armed.events());
        assert_eq!(armed.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn cluster_forks_draw_distinct_deterministic_streams() {
        let run = |cluster: u64| {
            let mut m = MemorySystem::new(&GpuConfig::default().cluster_shard());
            m.set_cluster_faults(FaultConfig::uniform(9, 0.1), cluster)
                .unwrap();
            for i in 0..1_000u64 {
                let _ = m.fetch_texel(0, TexelAddress::new((i % 200) * 48), i * 2);
            }
            (m.events(), m.fault_counts())
        };
        let (e0, f0) = run(0);
        let (e0_again, f0_again) = run(0);
        assert_eq!(e0, e0_again, "same cluster tag, same stream");
        assert_eq!(f0, f0_again);
        let (_, f1) = run(1);
        assert!(f0.faults_injected() > 0 && f1.faults_injected() > 0);
        assert_ne!(
            (f0.cache_bitflips, f0.dram_stalls),
            (f1.cache_bitflips, f1.dram_stalls),
            "different cluster tags decorrelate"
        );
    }

    #[test]
    fn cluster_faults_reject_bad_rates() {
        let mut m = mem();
        let bad = FaultConfig {
            cache_bitflip_rate: -0.5,
            ..FaultConfig::disabled()
        };
        assert!(m.set_cluster_faults(bad, 2).is_err());
    }

    #[test]
    fn set_faults_rejects_bad_rates() {
        let mut m = mem();
        let bad = FaultConfig {
            dram_stall_rate: 7.0,
            ..FaultConfig::disabled()
        };
        assert!(m.set_faults(bad).is_err());
    }

    #[test]
    fn telemetry_hists_gate_on_the_flag() {
        let mut m = mem();
        let _ = m.fetch_texel(0, TexelAddress::new(0), 0);
        assert!(m.fetch_latency_hist().is_empty(), "off by default");
        assert!(m.miss_penalty_hist().is_empty());
        m.set_telemetry(true);
        let _ = m.fetch_texel(0, TexelAddress::new(4096), 10); // cold: DRAM
        let _ = m.fetch_texel(0, TexelAddress::new(4096), 500); // warm: L1
        assert_eq!(m.fetch_latency_hist().count(), 2);
        assert_eq!(m.miss_penalty_hist().count(), 1, "only the miss pays DRAM");
        assert!(m.fetch_latency_hist().max() > m.fetch_latency_hist().min());
        m.reset();
        assert!(m.fetch_latency_hist().is_empty(), "reset clears telemetry");
    }

    #[test]
    fn attrib_cycles_split_by_level_and_gate_on_telemetry() {
        let mut m = mem();
        let _ = m.fetch_texel(0, TexelAddress::new(0), 0);
        assert_eq!(
            m.attrib_cycles(),
            MemAttribCycles::default(),
            "off by default"
        );
        m.set_telemetry(true);
        let (cold, _) = m.fetch_texel_detailed(0, TexelAddress::new(4096), 0); // DRAM
        let _ = m.fetch_texel(1, TexelAddress::new(4096), 400); // L2 (other cluster's L1 misses)
        let _ = m.fetch_texel(0, TexelAddress::new(4096), 800); // L1
        let a = m.attrib_cycles();
        assert_eq!(a.l1, 3, "every fetch pays the 1-cycle L1 latency");
        assert_eq!(a.l2, 24, "DRAM and L2 fetches pay the 12-cycle L2 latency");
        assert_eq!(
            a.dram,
            cold - 1 - 12,
            "DRAM share is the rest of the cold fetch"
        );
        m.reset();
        assert_eq!(m.attrib_cycles(), MemAttribCycles::default());
    }

    /// One fetch request: addresses, start cycle, first issue offset and
    /// issue ports.
    type Request = (Vec<TexelAddress>, u64, u64, u64);

    /// Requests shaped like texture taps: runs of bilinear-quad texels
    /// that share lines, neighbours in the same and nearby sets, jumps to
    /// cold lines far beyond the L2, overlapping issue times.
    fn request_stream(seed: u64) -> Vec<Request> {
        let mut rng = patu_gmath::DetRng::new(seed);
        let mut cursor = 0u64;
        let mut now = 0u64;
        (0..600)
            .map(|_| {
                let taps = 1 + rng.range(16);
                let mut addresses = Vec::new();
                for _ in 0..taps {
                    cursor = match rng.range(10) {
                        0 => rng.range(4 << 20),
                        1..=3 => cursor + 64 * rng.range(8),
                        _ => cursor + 4 * rng.range(4),
                    };
                    for level in [0, 1 << 20] {
                        for row in [0, 1024] {
                            let texel = level + cursor + row;
                            addresses.extend([texel, texel + 4].map(TexelAddress::new));
                        }
                    }
                }
                now += rng.range(40);
                (addresses, now, rng.range(8), 1 + rng.range(4))
            })
            .collect()
    }

    /// The request loop's reference: one `fetch_texel` per address at its
    /// issue cycle, `start + first + i / ports`.
    fn per_fetch(m: &mut MemorySystem, cluster: usize, request: &Request) -> u64 {
        let (addresses, start, first, ports) = request;
        let mut worst = 0;
        for (i, &addr) in addresses.iter().enumerate() {
            let offset = first + i as u64 / ports;
            worst = worst.max(offset + m.fetch_texel(cluster, addr, start + offset));
        }
        worst
    }

    #[test]
    fn request_loop_matches_per_fetch_path() {
        let requests = request_stream(0xFE7C);
        let faults = FaultConfig::uniform(3, 0.05);
        for (armed, telemetry) in [(false, false), (true, false), (false, true), (true, true)] {
            let (mut batched, mut single) = (mem(), mem());
            for m in [&mut batched, &mut single] {
                if armed {
                    m.set_cluster_faults(faults, 1).unwrap();
                }
                m.set_telemetry(telemetry);
            }
            for (i, request) in requests.iter().enumerate() {
                let cluster = i % 2;
                let (addresses, start, first, ports) = request;
                assert_eq!(
                    batched.fetch_request(cluster, addresses, *start, *first, *ports),
                    per_fetch(&mut single, cluster, request),
                    "request {i}, faults {armed}, telemetry {telemetry}"
                );
            }
            let e = batched.events();
            assert_eq!(e, single.events());
            assert!(e.l1_misses > 0 && e.l2_misses > 0 && e.dram_reads > 0);
            assert_eq!(batched.bandwidth(), single.bandwidth());
            for cluster in 0..2 {
                assert_eq!(batched.l1[cluster].stats(), single.l1[cluster].stats());
                assert_eq!(batched.l1_hit_rate(cluster), single.l1_hit_rate(cluster));
            }
            assert_eq!(batched.l2.stats(), single.l2.stats());
            assert_eq!(batched.l2_hit_rate(), single.l2_hit_rate());
            assert_eq!(batched.dram.stats(), single.dram.stats());
            assert_eq!(batched.fault_counts(), single.fault_counts());
            assert_eq!(armed, batched.fault_counts().faults_injected() > 0);
            assert_eq!(batched.fetch_latency_hist(), single.fetch_latency_hist());
            assert_eq!(batched.miss_penalty_hist(), single.miss_penalty_hist());
            assert_eq!(batched.attrib_cycles(), single.attrib_cycles());
            assert_eq!(telemetry, !batched.fetch_latency_hist().is_empty());
        }
    }

    #[test]
    fn try_new_rejects_degenerate_config() {
        let cfg = GpuConfig {
            tex_l1_bytes: 1,
            ..GpuConfig::default()
        };
        assert!(MemorySystem::try_new(&cfg).is_err());
    }

    #[test]
    fn try_new_rejects_zero_fetch_width() {
        let cfg = GpuConfig {
            address_alus: 0,
            ..GpuConfig::default()
        };
        assert_eq!(
            MemorySystem::try_new(&cfg).err(),
            Some(GpuError::InvalidConfig {
                field: "address_alus",
                value: 0
            })
        );
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut m = mem();
        let _ = m.fetch_texel(0, TexelAddress::new(0), 0);
        m.reset();
        let (_, lvl) = m.fetch_texel_detailed(0, TexelAddress::new(0), 0);
        assert_eq!(lvl, FetchLevel::Dram);
        assert_eq!(m.events().texel_fetches, 1);
    }
}
