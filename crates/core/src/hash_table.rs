//! The runtime texel-address hash table — PATU component ② (paper Sec. V-A).
//!
//! A 16-entry fully-associative buffer, one entry per distinct *texel address
//! set* observed among a pixel's trilinear taps, with a saturating 4-bit
//! count tag per entry. After all of a pixel's tap addresses stream through,
//! the count tags form the probability vector `P` of Eq. (8): how AF's
//! samples distribute over shared texel sets.
//!
//! The hardware table stores eight 32-bit addresses per entry plus the 4-bit
//! tag (260 bits/entry, ≈2 KB per texture unit across the 4 quad pipelines);
//! this model stores the same information and counts every access for the
//! energy model.

use patu_texture::TexelAddress;

/// Maximum entries: the max AF level of the modeled texture unit (16).
pub const TABLE_ENTRIES: usize = 16;

/// Saturation value of the 4-bit count tag.
const COUNT_TAG_MAX: u8 = 15;

/// One table entry: where its tap's texel address set sits in the table's
/// key arena, and the set's occurrence count.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    /// The key is `keys[start..start + len]`.
    start: usize,
    len: usize,
    /// Saturating 4-bit occurrence count.
    count: u8,
}

/// One trilinear tap's stage-2 key, normalized once: its bilinear quad's 4
/// texel addresses sorted and deduplicated — the form the table and the
/// Fig. 12 sharing statistics compare. The shared batched kernel builds it
/// once per tap and hands it to every unit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapKey {
    set: [TexelAddress; 4],
    len: u8,
}

impl TapKey {
    /// The key of a bilinear quad whose distinct addresses are already
    /// sorted: the first `len` entries of `set`, as
    /// [`patu_texture::sampler::bilinear_address_set`] returns them.
    #[inline]
    pub(crate) fn from_sorted((set, len): ([TexelAddress; 4], usize)) -> TapKey {
        TapKey {
            set,
            len: len as u8,
        }
    }

    /// The key of a quad's 4 addresses in fetch order: sorted, then
    /// deduplicated: the reference [`TapKey::from_sorted`] must match.
    #[cfg(test)]
    pub(crate) fn new(mut set: [TexelAddress; 4]) -> TapKey {
        set.sort_unstable();
        let mut len = 0;
        for i in 0..set.len() {
            if len == 0 || set[i] != set[len - 1] {
                set[len] = set[i];
                len += 1;
            }
        }
        TapKey {
            set,
            len: len as u8,
        }
    }

    pub(crate) fn as_slice(&self) -> &[TexelAddress] {
        &self.set[..usize::from(self.len)]
    }
}

/// The texel-address hash table for one pixel's prediction.
///
/// ```
/// use patu_core::TexelAddressTable;
/// use patu_texture::TexelAddress;
///
/// let mut table = TexelAddressTable::new();
/// let set_a: Vec<_> = (0..8).map(|i| TexelAddress::new(i * 4)).collect();
/// let set_b: Vec<_> = (8..16).map(|i| TexelAddress::new(i * 4)).collect();
/// table.insert(&set_a);
/// table.insert(&set_a); // shared texels: count tag bumps
/// table.insert(&set_b);
/// assert_eq!(table.counts(), vec![2, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TexelAddressTable {
    entries: Vec<Entry>,
    /// Every entry's key (its tap's addresses, sorted and deduplicated),
    /// back to back in insertion order. [`TexelAddressTable::reset`] clears
    /// it but keeps its capacity, so steady-state per-pixel operation does
    /// not allocate.
    keys: Vec<TexelAddress>,
    capacity: usize,
    accesses: u64,
    overflowed: bool,
    parity_error: bool,
}

impl Default for TexelAddressTable {
    fn default() -> TexelAddressTable {
        TexelAddressTable::new()
    }
}

impl TexelAddressTable {
    /// Creates an empty table with the paper's 16 entries.
    pub fn new() -> TexelAddressTable {
        TexelAddressTable::with_capacity(TABLE_ENTRIES)
    }

    /// Creates an empty table with a custom entry count (for the capacity
    /// ablation study; the paper's design point is 16).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero. Use
    /// [`TexelAddressTable::try_with_capacity`] for a non-panicking variant.
    pub fn with_capacity(capacity: usize) -> TexelAddressTable {
        assert!(capacity > 0, "hash table needs at least one entry");
        TexelAddressTable {
            entries: Vec::new(),
            keys: Vec::new(),
            capacity,
            accesses: 0,
            overflowed: false,
            parity_error: false,
        }
    }

    /// Like [`TexelAddressTable::with_capacity`] but reports a zero capacity
    /// as a typed error instead of panicking.
    pub fn try_with_capacity(capacity: usize) -> Result<TexelAddressTable, crate::PatuError> {
        if capacity == 0 {
            return Err(crate::PatuError::InvalidTableCapacity);
        }
        Ok(TexelAddressTable::with_capacity(capacity))
    }

    /// The table's entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Streams one trilinear tap's texel address set through the table:
    /// a matching entry's count tag increments (saturating at 15); otherwise
    /// the set occupies the first available entry. Returns `true` if the set
    /// matched an existing entry.
    ///
    /// If all 16 entries are in use and the set matches none, the insert is
    /// dropped and the table is marked [`TexelAddressTable::overflowed`] —
    /// this cannot happen for well-formed AF requests, whose tap count never
    /// exceeds the max AF level of 16.
    pub fn insert(&mut self, addresses: &[TexelAddress]) -> bool {
        self.accesses += 1;
        // Sort + dedup the key on the stack for hardware-sized taps (a
        // trilinear tap has 8 addresses; the hardware comparator width is
        // 16). Only oversized test inputs take the heap path.
        if addresses.len() <= TABLE_ENTRIES {
            let mut buf = [TexelAddress::default(); TABLE_ENTRIES];
            let buf = &mut buf[..addresses.len()];
            buf.copy_from_slice(addresses);
            buf.sort_unstable();
            let mut len = 0;
            for i in 0..buf.len() {
                if len == 0 || buf[i] != buf[len - 1] {
                    buf[len] = buf[i];
                    len += 1;
                }
            }
            self.insert_key(&buf[..len])
        } else {
            let mut key = addresses.to_vec();
            key.sort_unstable();
            key.dedup();
            self.insert_key(&key)
        }
    }

    /// [`TexelAddressTable::insert`] for a key normalized up front: the
    /// same access count and the same table update.
    pub(crate) fn insert_tap(&mut self, key: &TapKey) -> bool {
        self.accesses += 1;
        self.insert_key(key.as_slice())
    }

    /// Inserts an already-normalized (sorted, deduplicated) key.
    fn insert_key(&mut self, key: &[TexelAddress]) -> bool {
        let keys = &self.keys;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| keys[e.start..e.start + e.len] == *key)
        {
            e.count = (e.count + 1).min(COUNT_TAG_MAX);
            return true;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(Entry {
                start: self.keys.len(),
                len: key.len(),
                count: 1,
            });
            self.keys.extend_from_slice(key);
        } else {
            self.overflowed = true;
        }
        false
    }

    /// The per-entry occurrence counts, in insertion order.
    pub fn counts(&self) -> Vec<u8> {
        self.entries.iter().map(|e| e.count).collect()
    }

    /// The probability vector `P` of Eq. (8): counts normalized by the total
    /// number of taps streamed in. Empty when nothing was inserted.
    pub fn probability_vector(&self) -> Vec<f64> {
        let total: u64 = self.entries.iter().map(|e| u64::from(e.count)).sum();
        if total == 0 {
            return Vec::new();
        }
        self.entries
            .iter()
            .map(|e| f64::from(e.count) / total as f64)
            .collect()
    }

    /// Shannon entropy (bits) of [`TexelAddressTable::probability_vector`],
    /// computed from the count tags without materializing the vector: the
    /// same terms summed in the same order, so the result is identical to
    /// `entropy(&table.probability_vector())`.
    pub(crate) fn entropy(&self) -> f64 {
        let total: u64 = self.entries.iter().map(|e| u64::from(e.count)).sum();
        if total == 0 {
            // `probability_vector` is empty here.
            return crate::afssim::entropy(&[]);
        }
        crate::afssim::entropy_of_counts(self.entries.iter().map(|e| u64::from(e.count)), total)
    }

    /// Number of distinct texel sets observed.
    pub fn distinct_sets(&self) -> usize {
        self.entries.len()
    }

    /// Total lookups performed (for the energy model's access count).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Whether an insert was dropped because the table was full.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Injects a soft error: flips bit `bit & 3` of one occupied entry's
    /// 4-bit count tag (selected by `entry_selector` modulo the occupancy)
    /// and raises the parity flag the modeled per-entry parity bit would.
    /// A no-op on an empty table (there is no state to corrupt).
    pub fn corrupt_count(&mut self, entry_selector: usize, bit: u8) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        let idx = entry_selector % self.entries.len();
        self.entries[idx].count ^= 1 << (bit & 3);
        self.parity_error = true;
        true
    }

    /// Whether a soft error was detected since the last reset. Consumers
    /// must treat the count tags — and anything derived from them, like
    /// [`TexelAddressTable::probability_vector`] — as untrustworthy and
    /// fall back to full AF for the affected pixel.
    pub fn parity_error(&self) -> bool {
        self.parity_error
    }

    /// Clears the table for the next pixel (the paper resets it per request).
    /// The access counter is preserved — it is cumulative over a frame.
    /// The key arena keeps its capacity, so a steady-state reset→insert
    /// cycle performs no heap allocation.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.keys.clear();
        self.overflowed = false;
        self.parity_error = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(base: u64) -> Vec<TexelAddress> {
        (0..8).map(|i| TexelAddress::new(base + i * 4)).collect()
    }

    #[test]
    fn sorted_quad_key_matches_the_sorted_fetch_order() {
        use patu_gmath::Vec2;
        use patu_texture::sampler::{bilinear_address_set, bilinear_addresses};
        use patu_texture::{AddressMode, Rgba8, Texture};
        // 4×2 base: its mip chain ends in a 2×1 and a 1×1 level, where
        // folded columns and rows collapse onto each other.
        let texels = (0..8).map(|i| Rgba8::new(i, 0, 0, 255)).collect();
        let tex = Texture::with_mips((4, 2, texels), 0x4000);
        let mut checked = 0;
        for mode in [AddressMode::Wrap, AddressMode::Clamp, AddressMode::Mirror] {
            for level in 0..tex.mip_count() {
                // Sample points inside, on and past every edge.
                for iy in -6..=6 {
                    for ix in -6..=6 {
                        let uv = Vec2::new(ix as f32 * 0.2 + 0.01, iy as f32 * 0.2 - 0.03);
                        let sorted =
                            TapKey::from_sorted(bilinear_address_set(&tex, uv, level, mode));
                        let reference = TapKey::new(bilinear_addresses(&tex, uv, level, mode));
                        assert_eq!(
                            sorted.as_slice(),
                            reference.as_slice(),
                            "{mode:?} level {level} uv {uv:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 3 * 3 * 13 * 13);
    }

    #[test]
    fn first_insert_misses_second_hits() {
        let mut t = TexelAddressTable::new();
        assert!(!t.insert(&set(0)));
        assert!(t.insert(&set(0)));
        assert_eq!(t.counts(), vec![2]);
    }

    #[test]
    fn order_of_addresses_within_set_is_irrelevant() {
        let mut t = TexelAddressTable::new();
        let mut shuffled = set(0);
        shuffled.reverse();
        t.insert(&set(0));
        assert!(t.insert(&shuffled), "same set in different order matches");
    }

    #[test]
    fn distinct_sets_get_distinct_entries() {
        let mut t = TexelAddressTable::new();
        t.insert(&set(0));
        t.insert(&set(0x100));
        t.insert(&set(0x200));
        assert_eq!(t.distinct_sets(), 3);
        assert_eq!(t.counts(), vec![1, 1, 1]);
    }

    #[test]
    fn paper_example_probability_vector() {
        // Fig. 11: 5 taps; 3 share one set, the other two are distinct.
        let mut t = TexelAddressTable::new();
        t.insert(&set(0));
        t.insert(&set(0));
        t.insert(&set(0));
        t.insert(&set(0x100));
        t.insert(&set(0x200));
        let p = t.probability_vector();
        assert_eq!(p.len(), 3);
        assert!((p[0] - 0.6).abs() < 1e-12);
        assert!((p[1] - 0.2).abs() < 1e-12);
        assert!((p[2] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn probability_vector_sums_to_one() {
        let mut t = TexelAddressTable::new();
        for i in 0..7u64 {
            t.insert(&set((i % 3) * 0x100));
        }
        let sum: f64 = t.probability_vector().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_properties() {
        let t = TexelAddressTable::new();
        assert!(t.probability_vector().is_empty());
        assert_eq!(t.distinct_sets(), 0);
        assert!(!t.overflowed());
    }

    #[test]
    fn count_tag_saturates_at_15() {
        let mut t = TexelAddressTable::new();
        for _ in 0..20 {
            t.insert(&set(0));
        }
        assert_eq!(t.counts(), vec![15]);
    }

    #[test]
    fn capacity_is_sixteen_entries() {
        let mut t = TexelAddressTable::new();
        for i in 0..16u64 {
            t.insert(&set(i * 0x100));
        }
        assert_eq!(t.distinct_sets(), 16);
        assert!(!t.overflowed());
        t.insert(&set(99 * 0x100));
        assert!(t.overflowed(), "17th distinct set overflows");
        assert_eq!(t.distinct_sets(), 16);
    }

    #[test]
    fn reset_preserves_access_count() {
        let mut t = TexelAddressTable::new();
        t.insert(&set(0));
        t.insert(&set(0x100));
        t.reset();
        assert_eq!(t.distinct_sets(), 0);
        assert_eq!(t.accesses(), 2, "energy accounting is cumulative");
    }

    #[test]
    fn try_with_capacity_rejects_zero() {
        assert!(TexelAddressTable::try_with_capacity(0).is_err());
        assert_eq!(
            TexelAddressTable::try_with_capacity(8).unwrap().capacity(),
            8
        );
    }

    #[test]
    fn corruption_raises_parity_and_reset_clears_it() {
        let mut t = TexelAddressTable::new();
        assert!(
            !t.corrupt_count(0, 0),
            "empty table has no state to corrupt"
        );
        t.insert(&set(0));
        t.insert(&set(0));
        assert!(t.corrupt_count(0, 1));
        assert!(t.parity_error());
        assert_ne!(t.counts(), vec![2], "the stored tag really flipped");
        t.reset();
        assert!(!t.parity_error(), "parity clears with the per-pixel reset");
    }

    #[test]
    fn corrupted_vector_is_still_a_distribution_or_empty() {
        // Even ignoring the parity flag, downstream math stays finite: the
        // vector renormalizes over the corrupted tags.
        let mut t = TexelAddressTable::new();
        t.insert(&set(0));
        t.insert(&set(0x100));
        t.corrupt_count(1, 0); // count 1 -> 0
        let p = t.probability_vector();
        let sum: f64 = p.iter().sum();
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((sum - 1.0).abs() < 1e-12 || p.is_empty());
    }

    #[test]
    fn reset_recycling_preserves_semantics() {
        // Entry buffers recycled across resets must behave exactly like
        // fresh allocations: same counts, same insertion order.
        let mut t = TexelAddressTable::new();
        for round in 0..4u64 {
            t.reset();
            t.insert(&set(round * 0x1000));
            t.insert(&set(round * 0x1000));
            t.insert(&set(0x5000));
            assert_eq!(t.counts(), vec![2, 1], "round {round}");
            assert_eq!(t.distinct_sets(), 2);
        }
    }

    #[test]
    fn entropy_from_counts_is_bitwise_the_probability_vector_entropy() {
        let bits = |t: &TexelAddressTable| {
            let expected = crate::afssim::entropy(&t.probability_vector());
            (t.entropy().to_bits(), expected.to_bits())
        };
        let mut t = TexelAddressTable::new();
        let (got, expected) = bits(&t);
        assert_eq!(got, expected, "empty table");
        // A soft error can zero the only count tag.
        t.insert(&set(0));
        t.corrupt_count(0, 0);
        let (got, expected) = bits(&t);
        assert_eq!(got, expected, "all-zero counts");
        for (round, taps) in [1u64, 2, 3, 5, 7, 11, 16].into_iter().enumerate() {
            t.reset();
            for i in 0..taps {
                t.insert(&set((i * i + round as u64) % 5 * 0x100));
            }
            if round % 2 == 1 {
                t.corrupt_count(round, round as u8);
            }
            let (got, expected) = bits(&t);
            assert_eq!(got, expected, "{taps} taps");
        }
    }

    #[test]
    fn oversized_key_takes_heap_path() {
        // More than 16 addresses in one tap exceeds the stack comparator
        // width; the key must still normalize identically.
        let mut t = TexelAddressTable::new();
        let big: Vec<TexelAddress> = (0..20).map(|i| TexelAddress::new(i % 5)).collect();
        t.insert(&big);
        let small: Vec<TexelAddress> = (0..5).map(TexelAddress::new).collect();
        assert!(t.insert(&small), "deduped oversized key matches");
    }

    #[test]
    fn duplicate_addresses_within_tap_deduped() {
        // A tap whose LOD clamps at the mip-chain end repeats addresses;
        // the stored key is the distinct set.
        let mut t = TexelAddressTable::new();
        let mut tap = set(0);
        tap.extend_from_slice(&set(0));
        t.insert(&tap);
        assert!(t.insert(&set(0)), "deduped key matches the plain set");
    }
}
