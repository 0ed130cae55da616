//! Baseline GPU configuration (paper Table I), with the cache-scaling knobs
//! used by the Fig. 21 sensitivity study.

use crate::error::GpuError;

/// The simulated GPU's architectural parameters.
///
/// Defaults reproduce the paper's Table I baseline, which itself references
/// the PowerVR Rogue mobile architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Core frequency in Hz (Table I: 1 GHz).
    pub frequency_hz: u64,
    /// Number of unified-shader clusters (Table I: 4).
    pub clusters: u32,
    /// Unified shaders per cluster (Table I: 16).
    pub shaders_per_cluster: u32,
    /// SIMD width of each shader ALU (Table I: SIMD4).
    pub simd_width: u32,
    /// Tile edge in pixels (Table I: 16×16).
    pub tile_size: u32,
    /// Address ALUs per texture unit (Table I: 4).
    pub address_alus: u32,
    /// Filtering ALUs per texture unit (Table I: 8).
    pub filter_alus: u32,
    /// Texture-unit throughput: cycles per trilinear sample (Table I: 2).
    pub cycles_per_trilinear: u32,
    /// Texture L1 cache capacity in bytes (Table I: 16 KB).
    pub tex_l1_bytes: u64,
    /// Texture L1 associativity (Table I: 4-way).
    pub tex_l1_ways: u32,
    /// Shared L2 / last-level cache capacity in bytes (Table I: 128 KB).
    pub tex_l2_bytes: u64,
    /// L2 associativity (Table I: 8-way).
    pub tex_l2_ways: u32,
    /// Cache line size in bytes.
    pub cache_line_bytes: u64,
    /// DRAM channels (Table I: 8).
    pub dram_channels: u32,
    /// Banks per DRAM channel (Table I: 8).
    pub dram_banks_per_channel: u32,
    /// Aggregate DRAM bandwidth in bytes per core cycle (Table I: 16 B/cycle).
    pub dram_bytes_per_cycle: u32,
    /// DRAM row-buffer hit latency in core cycles.
    pub dram_row_hit_cycles: u64,
    /// DRAM row-activate + access latency in core cycles.
    pub dram_row_miss_cycles: u64,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u64,
    /// L2 hit latency in cycles.
    pub l2_hit_cycles: u64,
    /// Fragment-shader ALU operations charged per shaded fragment.
    pub shader_ops_per_fragment: u32,
    /// Maximum anisotropic filtering level (16× AF baseline).
    pub max_aniso: u32,
}

impl Default for GpuConfig {
    fn default() -> GpuConfig {
        GpuConfig {
            frequency_hz: 1_000_000_000,
            clusters: 4,
            shaders_per_cluster: 16,
            simd_width: 4,
            tile_size: 16,
            address_alus: 4,
            filter_alus: 8,
            cycles_per_trilinear: 2,
            tex_l1_bytes: 16 * 1024,
            tex_l1_ways: 4,
            tex_l2_bytes: 128 * 1024,
            tex_l2_ways: 8,
            cache_line_bytes: 64,
            dram_channels: 8,
            dram_banks_per_channel: 8,
            dram_bytes_per_cycle: 16,
            dram_row_hit_cycles: 36,
            dram_row_miss_cycles: 72,
            l1_hit_cycles: 1,
            l2_hit_cycles: 12,
            shader_ops_per_fragment: 64,
            max_aniso: 16,
        }
    }
}

impl GpuConfig {
    /// Rejects a zero in any field the model divides by or clamps against:
    /// the texture unit's address/fetch width, the tile edge, the DRAM
    /// channel, bank and bandwidth counts, and the max AF level. Each would
    /// otherwise panic mid-frame, or silently issue every fetch in one
    /// cycle.
    ///
    /// # Errors
    ///
    /// [`GpuError::InvalidConfig`] naming the first zero field.
    pub fn validate(&self) -> Result<(), GpuError> {
        let nonzero = [
            ("address_alus", self.address_alus),
            ("tile_size", self.tile_size),
            ("dram_channels", self.dram_channels),
            ("dram_banks_per_channel", self.dram_banks_per_channel),
            ("dram_bytes_per_cycle", self.dram_bytes_per_cycle),
            ("max_aniso", self.max_aniso),
        ];
        match nonzero.into_iter().find(|&(_, v)| v == 0) {
            Some((field, value)) => Err(GpuError::InvalidConfig {
                field,
                value: u64::from(value),
            }),
            None => Ok(()),
        }
    }

    /// Scales the last-level (L2) cache capacity, as in Fig. 21's
    /// 2×LLC / 4×LLC design points.
    #[must_use]
    pub fn with_llc_scale(mut self, factor: u64) -> GpuConfig {
        self.tex_l2_bytes *= factor;
        self
    }

    /// Scales the texture (L1) cache capacity, as in Fig. 21's 2×TC point.
    #[must_use]
    pub fn with_tc_scale(mut self, factor: u64) -> GpuConfig {
        self.tex_l1_bytes *= factor;
        self
    }

    /// Per-channel DRAM bandwidth in bytes per cycle.
    pub fn dram_channel_bytes_per_cycle(&self) -> f64 {
        f64::from(self.dram_bytes_per_cycle) / f64::from(self.dram_channels)
    }

    /// The per-cluster slice of this configuration used by the deterministic
    /// parallel renderer: a single cluster owning its L1, a private `1/N`
    /// share of the L2, and a `1/N` subset of the DRAM channels with the
    /// per-channel bandwidth preserved (so an isolated cluster sees the same
    /// transfer occupancy it would on the shared bus). Shares are clamped so
    /// a valid full configuration always yields a valid shard. The fidelity
    /// trade-off (no inter-cluster L2 sharing or channel contention) is
    /// documented in DESIGN.md §"Parallel execution model".
    #[must_use]
    pub fn cluster_shard(&self) -> GpuConfig {
        let n = u64::from(self.clusters.max(1));
        let min_l2 = (self.cache_line_bytes * u64::from(self.tex_l2_ways)).max(1);
        let channels = (self.dram_channels / self.clusters.max(1)).max(1);
        let bytes_per_cycle = (u64::from(self.dram_bytes_per_cycle) * u64::from(channels)
            / u64::from(self.dram_channels.max(1)))
        .max(1) as u32;
        GpuConfig {
            clusters: 1,
            tex_l2_bytes: (self.tex_l2_bytes / n).max(min_l2),
            dram_channels: channels,
            dram_bytes_per_cycle: bytes_per_cycle,
            ..*self
        }
    }

    /// The Table I rows as (name, value) pairs — printed by the `table1`
    /// harness binary.
    pub fn table1(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "Frequency",
                format!("{} GHz", self.frequency_hz as f64 / 1e9),
            ),
            ("Number of cluster", self.clusters.to_string()),
            (
                "Unified shader per cluster",
                self.shaders_per_cluster.to_string(),
            ),
            (
                "Unified shader configuration",
                format!(
                    "SIMD{}-scale ALUs, {} shader elements, {}x{} tile size",
                    self.simd_width, self.clusters, self.tile_size, self.tile_size
                ),
            ),
            ("Number of Texture Units", "1 per cluster".to_string()),
            (
                "Texture unit configuration",
                format!(
                    "{} address ALUs, {} filtering ALUs",
                    self.address_alus, self.filter_alus
                ),
            ),
            (
                "Texture throughput",
                format!("{} cycle per trilinear", self.cycles_per_trilinear),
            ),
            (
                "Texture L1 cache",
                format!("{}KB, {}-way", self.tex_l1_bytes / 1024, self.tex_l1_ways),
            ),
            (
                "Texture L2 cache",
                format!("{}KB, {}-way", self.tex_l2_bytes / 1024, self.tex_l2_ways),
            ),
            (
                "Memory configuration",
                format!(
                    "1GB, {} bytes/cycle, {} channel, {} banks per channel",
                    self.dram_bytes_per_cycle, self.dram_channels, self.dram_banks_per_channel
                ),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = GpuConfig::default();
        assert_eq!(c.frequency_hz, 1_000_000_000);
        assert_eq!(c.clusters, 4);
        assert_eq!(c.shaders_per_cluster, 16);
        assert_eq!(c.tex_l1_bytes, 16 * 1024);
        assert_eq!(c.tex_l1_ways, 4);
        assert_eq!(c.tex_l2_bytes, 128 * 1024);
        assert_eq!(c.tex_l2_ways, 8);
        assert_eq!(c.dram_channels, 8);
        assert_eq!(c.dram_banks_per_channel, 8);
        assert_eq!(c.cycles_per_trilinear, 2);
        assert_eq!(c.max_aniso, 16);
    }

    #[test]
    fn llc_scaling() {
        let c = GpuConfig::default().with_llc_scale(4);
        assert_eq!(c.tex_l2_bytes, 512 * 1024);
        assert_eq!(c.tex_l1_bytes, 16 * 1024, "L1 untouched");
    }

    #[test]
    fn tc_scaling() {
        let c = GpuConfig::default().with_tc_scale(2).with_llc_scale(4);
        assert_eq!(c.tex_l1_bytes, 32 * 1024);
        assert_eq!(c.tex_l2_bytes, 512 * 1024);
    }

    #[test]
    fn cluster_shard_preserves_per_channel_bandwidth() {
        let full = GpuConfig::default();
        let shard = full.cluster_shard();
        assert_eq!(shard.clusters, 1);
        assert_eq!(
            shard.tex_l1_bytes, full.tex_l1_bytes,
            "L1 is already per-cluster"
        );
        assert_eq!(shard.tex_l2_bytes, full.tex_l2_bytes / 4);
        assert_eq!(shard.dram_channels, 2);
        assert_eq!(shard.dram_bytes_per_cycle, 4);
        assert!(
            (shard.dram_channel_bytes_per_cycle() - full.dram_channel_bytes_per_cycle()).abs()
                < 1e-12
        );
    }

    #[test]
    fn cluster_shard_clamps_degenerate_shares() {
        let skinny = GpuConfig {
            dram_channels: 1,
            dram_bytes_per_cycle: 1,
            ..GpuConfig::default()
        };
        let shard = skinny.cluster_shard();
        assert_eq!(shard.dram_channels, 1);
        assert!(shard.dram_bytes_per_cycle >= 1);
        // L2 share never drops below one full set.
        let tiny = GpuConfig {
            tex_l2_bytes: 1024,
            tex_l2_ways: 8,
            ..GpuConfig::default()
        };
        let shard = tiny.cluster_shard();
        assert_eq!(shard.tex_l2_bytes, 64 * 8);
    }

    #[test]
    fn default_and_its_shard_validate() {
        assert_eq!(GpuConfig::default().validate(), Ok(()));
        assert_eq!(GpuConfig::default().cluster_shard().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_each_zero_divisor() {
        type Zero = fn(&mut GpuConfig);
        let cases: [(&str, Zero); 6] = [
            ("address_alus", |c| c.address_alus = 0),
            ("tile_size", |c| c.tile_size = 0),
            ("dram_channels", |c| c.dram_channels = 0),
            ("dram_banks_per_channel", |c| c.dram_banks_per_channel = 0),
            ("dram_bytes_per_cycle", |c| c.dram_bytes_per_cycle = 0),
            ("max_aniso", |c| c.max_aniso = 0),
        ];
        for (field, zero) in cases {
            let mut cfg = GpuConfig::default();
            zero(&mut cfg);
            assert_eq!(
                cfg.validate(),
                Err(GpuError::InvalidConfig { field, value: 0 }),
                "{field}"
            );
        }
    }

    #[test]
    fn table1_has_all_rows() {
        let rows = GpuConfig::default().table1();
        assert_eq!(rows.len(), 10);
        assert!(rows
            .iter()
            .any(|(k, v)| *k == "Texture L1 cache" && v.contains("16KB")));
    }
}
