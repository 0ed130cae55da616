//! A set-associative cache with true LRU replacement.
//!
//! Used for the per-cluster texture L1 and the shared L2 (Table I). The cache
//! tracks real tag state, so locality effects — including the extra reuse
//! PATU creates by sampling approximated pixels from AF's mip level
//! (Sec. V-C(2)) — show up as measured hit-rate changes, not assumptions.

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

/// One cache way: a tag plus an LRU timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    tag: u64,
    last_used: u64,
    valid: bool,
}

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
/// The ways of all sets live in one flat array, set-major. The cache also
/// remembers where the most recent access landed: a repeat of that line (a
/// bilinear quad's second texel on the same line as its first) is served
/// from the memo without scanning the set, with exactly the clock, LRU
/// stamp and statistics updates a scan would make.
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
    ways: Vec<Way>,
    assoc: usize,
    index: Indexing,
    /// `(line, flat way index)` of the last access; `None` after a reset or
    /// an invalidation, which may have dropped that line.
    last: Option<(u64, usize)>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` associativity and
    /// `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `size_bytes` is not divisible into
    /// at least one full set (`ways * line_size`). Use [`Cache::try_new`]
    /// for a non-panicking variant.
    pub fn new(size_bytes: u64, ways: u32, line_size: u64) -> Cache {
        assert!(
            size_bytes > 0 && ways > 0 && line_size > 0,
            "cache parameters must be positive"
        );
        let num_sets = size_bytes / (u64::from(ways) * line_size);
        assert!(num_sets > 0, "cache too small for its associativity");
        let invalid = Way {
            tag: 0,
            last_used: 0,
            valid: false,
        };
        Cache {
            ways: vec![invalid; num_sets as usize * ways as usize],
            assoc: ways as usize,
            index: Indexing::new(line_size, num_sets),
            last: None,
            clock: 0,
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
        if size_bytes / (u64::from(ways) * line_size) == 0 {
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

    /// Flat index range of `set`'s ways.
    #[inline]
    fn set_ways(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Flat index of the valid way of `set` holding `tag`, if any.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let ways = self.set_ways(set);
        let base = ways.start;
        self.ways[ways]
            .iter()
            .position(|w| w.valid && w.tag == tag)
            .map(|i| base + i)
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    /// Returns `true` on hit.
    pub fn access(&mut self, addr: TexelAddress) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = self.index.line(addr);
        if let Some((last_line, way)) = self.last {
            if last_line == line {
                self.ways[way].last_used = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        let (set, tag) = self.index.set_and_tag(line);
        let ways = self.set_ways(set);
        let base = ways.start;
        let clock = self.clock;
        let ways = &mut self.ways[ways];
        let (i, hit) = match ways.iter().position(|w| w.valid && w.tag == tag) {
            Some(i) => {
                ways[i].last_used = clock;
                self.stats.hits += 1;
                (i, true)
            }
            // Miss: fill the LRU (or first invalid) way. Sets are non-empty
            // by `try_new`'s geometry validation; if that were ever
            // violated the miss is still reported, just without a fill.
            None => match ways
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| if w.valid { w.last_used } else { 0 })
            {
                Some((i, _)) => {
                    ways[i] = Way {
                        tag,
                        last_used: clock,
                        valid: true,
                    };
                    (i, false)
                }
                None => return false,
            },
        };
        self.last = Some((line, base + i));
        hit
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change, no stats update).
    pub fn probe(&self, addr: TexelAddress) -> bool {
        let (set, tag) = self.index.set_and_tag(self.index.line(addr));
        self.find(set, tag).is_some()
    }

    /// Invalidates the line containing `addr` if resident, returning
    /// whether a line was dropped. Models an ECC-detected bit flip: the
    /// corrupted line cannot be served, so the next access refills it from
    /// the level below (keeping hit/miss accounting consistent).
    pub fn invalidate_line(&mut self, addr: TexelAddress) -> bool {
        let (set, tag) = self.index.set_and_tag(self.index.line(addr));
        match self.find(set, tag) {
            Some(way) => {
                self.ways[way].valid = false;
                self.last = None;
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
        for way in &mut self.ways {
            way.valid = false;
        }
        self.last = None;
        self.clock = 0;
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
        assert!(Cache::try_new(1024, 4, 64).is_ok());
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
