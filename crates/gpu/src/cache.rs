//! A set-associative cache with true LRU replacement.
//!
//! Used for the per-cluster texture L1 and the shared L2 (Table I). The cache
//! tracks real tag state, so locality effects — including the extra reuse
//! PATU creates by sampling approximated pixels from AF's mip level
//! (Sec. V-C(2)) — show up as measured hit-rate changes, not assumptions.
//! Each set stores only its tags, in recency order: LRU replacement needs
//! the order of a set's lines, not a timestamp per way.

use patu_texture::TexelAddress;

/// Hit/miss counters for one cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// The tag of an empty way. No line has it: [`Cache::try_new`] requires
/// each way to span at least two bytes (`num_sets * line_size >= 2`), so
/// every tag is at most `u64::MAX / 2`.
const EMPTY: u64 = u64::MAX;

/// How an address splits into line, set and tag. Each divisor that is a
/// power of two becomes a shift (and the set index a mask); any other stays
/// an exact division, so both forms compute the same numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Indexing {
    line_size: u64,
    num_sets: u64,
    line_shift: Option<u32>,
    set_shift: Option<u32>,
}

impl Indexing {
    fn new(line_size: u64, num_sets: u64) -> Indexing {
        let shift = |v: u64| v.is_power_of_two().then(|| v.trailing_zeros());
        Indexing {
            line_size,
            num_sets,
            line_shift: shift(line_size),
            set_shift: shift(num_sets),
        }
    }

    /// The line holding `addr`.
    #[inline]
    fn line(&self, addr: TexelAddress) -> u64 {
        match self.line_shift {
            Some(s) => addr.as_u64() >> s,
            None => addr.cache_line(self.line_size),
        }
    }

    /// The set `line` maps to, and its tag.
    #[inline]
    fn set_and_tag(&self, line: u64) -> (usize, u64) {
        match self.set_shift {
            Some(s) => ((line & (self.num_sets - 1)) as usize, line >> s),
            None => ((line % self.num_sets) as usize, line / self.num_sets),
        }
    }
}

/// A set-associative, write-allocate, LRU cache over byte addresses.
///
/// Each set keeps its tags in recency order, most recently used first,
/// with empty ways at the end. A hit moves its tag to the front; a miss
/// drops the last way (an empty one if the set has any, else the least
/// recently used line) and puts the new tag first. Whether an access hits
/// depends only on a set's contents and their LRU order, so this is the
/// same cache as one that stamps each way with an access clock and evicts
/// the first invalid way, else the oldest stamp. A repeat of a set's most
/// recent line hits on the first compare.
///
/// ```
/// use patu_gpu::Cache;
/// use patu_texture::TexelAddress;
/// let mut c = Cache::new(1024, 2, 64);
/// assert!(!c.access(TexelAddress::new(0)));
/// assert!(c.access(TexelAddress::new(32)), "same 64B line");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    /// Every set's tags, set-major, each set most recent first.
    tags: Vec<u64>,
    assoc: usize,
    index: Indexing,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` associativity and
    /// `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `size_bytes` is not divisible into
    /// at least one full set (`ways * line_size`), or a way spans a single
    /// byte (one set of 1-byte lines). Use [`Cache::try_new`] for a
    /// non-panicking variant.
    pub fn new(size_bytes: u64, ways: u32, line_size: u64) -> Cache {
        assert!(
            size_bytes > 0 && ways > 0 && line_size > 0,
            "cache parameters must be positive"
        );
        let num_sets = size_bytes / (u64::from(ways) * line_size);
        assert!(num_sets > 0, "cache too small for its associativity");
        assert!(num_sets * line_size > 1, "a way must span at least 2 bytes");
        Cache {
            tags: vec![EMPTY; num_sets as usize * ways as usize],
            assoc: ways as usize,
            index: Indexing::new(line_size, num_sets),
            stats: CacheStats::default(),
        }
    }

    /// Like [`Cache::new`] but reports degenerate geometry as a typed error
    /// instead of panicking.
    pub fn try_new(size_bytes: u64, ways: u32, line_size: u64) -> Result<Cache, crate::GpuError> {
        let err = crate::GpuError::InvalidCacheGeometry {
            size_bytes,
            ways,
            line_size,
        };
        if size_bytes == 0 || ways == 0 || line_size == 0 {
            return Err(err);
        }
        let num_sets = size_bytes / (u64::from(ways) * line_size);
        if num_sets == 0 || num_sets * line_size < 2 {
            return Err(err);
        }
        Ok(Cache::new(size_bytes, ways, line_size))
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.index.num_sets
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.index.line_size
    }

    /// The line holding `addr`.
    #[inline]
    pub(crate) fn line(&self, addr: TexelAddress) -> u64 {
        self.index.line(addr)
    }

    /// The tags of `line`'s set, and `line`'s tag.
    #[inline]
    fn set_of(&mut self, line: u64) -> (&mut [u64], u64) {
        let (set, tag) = self.index.set_and_tag(line);
        (
            &mut self.tags[set * self.assoc..(set + 1) * self.assoc],
            tag,
        )
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    /// Returns `true` on hit.
    pub fn access(&mut self, addr: TexelAddress) -> bool {
        self.access_line(self.index.line(addr))
    }

    /// [`Cache::access`] by line number.
    #[inline]
    pub(crate) fn access_line(&mut self, line: u64) -> bool {
        self.stats.accesses += 1;
        let (ways, tag) = self.set_of(line);
        if ways[0] == tag {
            self.stats.hits += 1;
            return true;
        }
        // Put the tag first and move each tag before it one way back: a
        // hit stops where the tag was, a miss drops the last way.
        let mut carry = tag;
        for way in ways.iter_mut() {
            let held = std::mem::replace(way, carry);
            if held == tag {
                self.stats.hits += 1;
                return true;
            }
            carry = held;
        }
        false
    }

    /// Counts `n` more accesses to the line the last access touched. That
    /// line is already the most recent of its set, so each one hits and
    /// only the statistics change.
    #[inline]
    pub(crate) fn repeat_hits(&mut self, n: u64) {
        self.stats.accesses += n;
        self.stats.hits += n;
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change, no stats update).
    pub fn probe(&self, addr: TexelAddress) -> bool {
        let (set, tag) = self.index.set_and_tag(self.index.line(addr));
        self.tags[set * self.assoc..(set + 1) * self.assoc].contains(&tag)
    }

    /// Invalidates the line containing `addr` if resident, returning
    /// whether a line was dropped. Models an ECC-detected bit flip: the
    /// corrupted line cannot be served, so the next access refills it from
    /// the level below (keeping hit/miss accounting consistent).
    pub fn invalidate_line(&mut self, addr: TexelAddress) -> bool {
        let (ways, tag) = self.set_of(self.index.line(addr));
        match ways.iter().position(|&t| t == tag) {
            Some(i) => {
                ways.copy_within(i + 1.., i);
                ways[ways.len() - 1] = EMPTY;
                true
            }
            None => false,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u64) -> TexelAddress {
        TexelAddress::new(a)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(addr(0x100)));
        assert!(c.access(addr(0x100)));
        assert!(c.access(addr(0x13F)), "last byte of the same line");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn distinct_lines_conflict_only_within_set() {
        // 2 ways, 8 sets of 64B lines = 1KB.
        let mut c = Cache::new(1024, 2, 64);
        assert_eq!(c.num_sets(), 8);
        // Three lines mapping to set 0: lines 0, 8, 16.
        assert!(!c.access(addr(0)));
        assert!(!c.access(addr(8 * 64)));
        assert!(!c.access(addr(16 * 64))); // evicts LRU = line 0
        assert!(!c.access(addr(0)), "line 0 was evicted");
        assert!(c.probe(addr(16 * 64)));
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(addr(0)); // set 0, way A
        c.access(addr(8 * 64)); // set 0, way B
        c.access(addr(0)); // touch A -> B becomes LRU
        c.access(addr(16 * 64)); // evicts B
        assert!(c.probe(addr(0)), "recently used line survives");
        assert!(!c.probe(addr(8 * 64)), "LRU line evicted");
    }

    #[test]
    fn fully_associative_single_set() {
        // 16 ways * 64B = 1024: one set.
        let mut c = Cache::new(1024, 16, 64);
        assert_eq!(c.num_sets(), 1);
        for i in 0..16 {
            assert!(!c.access(addr(i * 64)));
        }
        for i in 0..16 {
            assert!(c.access(addr(i * 64)), "all 16 lines resident");
        }
    }

    #[test]
    fn larger_cache_has_fewer_capacity_misses() {
        let mut small = Cache::new(1024, 4, 64);
        let mut large = Cache::new(4096, 4, 64);
        // Stream over 2KB twice.
        for pass in 0..2 {
            for i in 0..32u64 {
                small.access(addr(i * 64));
                large.access(addr(i * 64));
            }
            let _ = pass;
        }
        assert!(large.stats().hits > small.stats().hits);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(addr(0));
        let before = c.stats();
        assert!(c.probe(addr(0)));
        assert!(!c.probe(addr(0x4000)));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(addr(0));
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.probe(addr(0)));
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = Cache::new(1024, 2, 64);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(addr(0));
        c.access(addr(0));
        assert_eq!(c.stats().hit_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn degenerate_geometry_panics() {
        let _ = Cache::new(64, 4, 64);
    }

    #[test]
    fn try_new_reports_bad_geometry() {
        assert!(Cache::try_new(64, 4, 64).is_err(), "one set won't fit");
        assert!(Cache::try_new(0, 4, 64).is_err());
        assert!(Cache::try_new(1024, 0, 64).is_err());
        assert!(Cache::try_new(1024, 4, 0).is_err());
        assert!(Cache::try_new(4, 4, 1).is_err(), "one set of 1-byte lines");
        assert!(Cache::try_new(8, 4, 1).is_ok(), "two sets of 1-byte lines");
        assert!(Cache::try_new(8, 4, 2).is_ok(), "one set of 2-byte lines");
        assert!(Cache::try_new(1024, 4, 64).is_ok());
    }

    /// The replacement rule the recency order stands in for: each valid
    /// way carries the clock of its last use, and a miss fills the first
    /// invalid way, else the way with the oldest stamp.
    struct StampLru {
        ways: Vec<Option<(u64, u64)>>,
        assoc: usize,
        line_size: u64,
        num_sets: u64,
        clock: u64,
        stats: CacheStats,
    }

    impl StampLru {
        fn new(size_bytes: u64, ways: u32, line_size: u64) -> StampLru {
            let num_sets = size_bytes / (u64::from(ways) * line_size);
            StampLru {
                ways: vec![None; (num_sets * u64::from(ways)) as usize],
                assoc: ways as usize,
                line_size,
                num_sets,
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        /// `addr`'s set and tag, by division.
        fn locate(&mut self, addr: u64) -> (&mut [Option<(u64, u64)>], u64) {
            let line = addr / self.line_size;
            let set = (line % self.num_sets) as usize;
            let ways = &mut self.ways[set * self.assoc..(set + 1) * self.assoc];
            (ways, line / self.num_sets)
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            self.stats.accesses += 1;
            let clock = self.clock;
            let (ways, tag) = self.locate(addr);
            if let Some(way) = ways.iter_mut().flatten().find(|(t, _)| *t == tag) {
                way.1 = clock;
                self.stats.hits += 1;
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

        fn probe(&mut self, addr: u64) -> bool {
            let (ways, tag) = self.locate(addr);
            ways.iter().flatten().any(|&(t, _)| t == tag)
        }

        fn invalidate_line(&mut self, addr: u64) -> bool {
            let (ways, tag) = self.locate(addr);
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
            self.ways.fill(None);
            self.clock = 0;
            self.stats = CacheStats::default();
        }
    }

    /// Drives `Cache` and the stamp-clock model with one seeded stream
    /// over a few hot sets, each with more lines than ways so they evict:
    /// repeats of the last line (through `repeat_hits` too), new lines,
    /// invalidations and resets. Every hit, statistic and probe must agree.
    fn matches_stamp_lru(num_sets: u64, ways: u32, line_size: u64, seed: u64) {
        let size_bytes = num_sets * u64::from(ways) * line_size;
        let mut cache = Cache::new(size_bytes, ways, line_size);
        let mut model = StampLru::new(size_bytes, ways, line_size);
        assert_eq!(cache.num_sets(), num_sets);
        let mut rng = patu_gmath::DetRng::new(seed);
        let hot_sets = num_sets.min(3);
        let lines_per_set = 2 * u64::from(ways) + 1;
        let line_addr = |set: u64, tag: u64| (tag * num_sets + set) * line_size;
        let mut last = 0u64;
        for step in 0..4_000 {
            let op = rng.range(100);
            let a = if op < 35 {
                last - last % line_size + rng.range(line_size)
            } else {
                line_addr(rng.range(hot_sets), rng.range(lines_per_set)) + rng.range(line_size)
            };
            match op {
                0..=2 => {
                    let repeats = rng.range(4);
                    assert_eq!(cache.access(addr(a)), model.access(a), "step {step}");
                    cache.repeat_hits(repeats);
                    for _ in 0..repeats {
                        assert!(model.access(a), "step {step}: a repeat hits");
                    }
                }
                3..=6 => assert_eq!(
                    cache.invalidate_line(addr(a)),
                    model.invalidate_line(a),
                    "step {step}: invalidate {a:#x}"
                ),
                7 if rng.chance(0.2) => {
                    cache.reset();
                    model.reset();
                }
                _ => assert_eq!(
                    cache.access(addr(a)),
                    model.access(a),
                    "step {step}: access {a:#x}"
                ),
            }
            last = a;
            assert_eq!(cache.stats(), model.stats, "step {step}");
            for set in 0..hot_sets {
                for tag in 0..lines_per_set {
                    let p = line_addr(set, tag);
                    assert_eq!(cache.probe(addr(p)), model.probe(p), "step {step}: {p:#x}");
                }
            }
        }
        assert!(cache.stats().hits > 0 && cache.stats().misses() > 0);
    }

    #[test]
    fn recency_order_matches_stamp_clock_lru() {
        for (i, ways) in [1u32, 2, 4, 8, 16].into_iter().enumerate() {
            let seed = 0xCAC4E + i as u64;
            matches_stamp_lru(8, ways, 64, seed);
            matches_stamp_lru(1, ways, 64, seed);
            // Set index, tag and line all by division.
            matches_stamp_lru(5, ways, 48, seed);
        }
    }

    #[test]
    fn invalidate_line_forces_refill() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(addr(0x100));
        assert!(c.probe(addr(0x100)));
        assert!(c.invalidate_line(addr(0x100)));
        assert!(!c.probe(addr(0x100)), "corrupted line dropped");
        assert!(!c.access(addr(0x100)), "next access misses and refills");
        assert!(!c.invalidate_line(addr(0x4000)), "absent line is a no-op");
    }
}
