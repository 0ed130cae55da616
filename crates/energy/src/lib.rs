//! # patu-energy
//!
//! A McPAT-style event-based energy model for the simulated GPU, standing in
//! for the paper's McPAT + Micron DDR3 power methodology (Sec. VI): every
//! micro-architectural event carries a fixed dynamic energy cost at a
//! 28 nm-class operating point, and leakage accrues per cycle. Total GPU
//! energy (the paper's Fig. 20 metric, DRAM included) is
//!
//! ```text
//! E = Σ events × cost(event) + P_static × cycles
//! ```
//!
//! Because energy is an explicit function of the same event counts the
//! timing model produces, the paper's energy effects — less texel traffic
//! and shorter runtime beating PATU's small overheads (hash table accesses,
//! slightly higher texel throughput power) — arise mechanically.
//!
//! # Examples
//!
//! ```
//! use patu_energy::{EnergyModel, EnergyReport};
//! use patu_gpu::FrameStats;
//!
//! let model = EnergyModel::default();
//! let mut stats = FrameStats::default();
//! stats.cycles = 1_000_000;
//! stats.events.trilinear_ops = 500_000;
//! let report = model.frame_energy(&stats);
//! assert!(report.total_joules() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use patu_gpu::FrameStats;

/// Per-event dynamic energy costs in picojoules, plus leakage.
///
/// Defaults approximate a 28 nm mobile GPU (the paper models PATU with
/// McPAT at 28 nm): SRAM accesses scale with array size, DRAM costs
/// dominate per byte, and the PATU additions (a 2 KB hash table and a few
/// comparators) are orders of magnitude cheaper than the texel traffic they
/// remove.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Shader ALU operation (pJ).
    pub shader_alu_pj: f64,
    /// One trilinear filtering operation — 8 texel blends (pJ).
    pub trilinear_pj: f64,
    /// One texel address calculation (pJ).
    pub address_calc_pj: f64,
    /// Texture L1 access (pJ).
    pub l1_access_pj: f64,
    /// L2 access (pJ).
    pub l2_access_pj: f64,
    /// DRAM transfer cost per byte (pJ/B), Micron-style.
    pub dram_pj_per_byte: f64,
    /// Vertex processing cost per vertex (pJ).
    pub vertex_pj: f64,
    /// PATU texel-address hash table access (pJ) — a 2 KB SRAM.
    pub hash_table_pj: f64,
    /// PATU predictor evaluation (compute logic ①/③) (pJ).
    pub predictor_pj: f64,
    /// Static (leakage + clock) power of GPU + DRAM in watts.
    pub static_watts: f64,
    /// Core frequency in Hz (converts cycles to seconds for leakage).
    pub frequency_hz: f64,
    /// PATU area overhead in mm² per unified shader cluster (Sec. V-D:
    /// ≈0.15 mm², 0.2 % of a 66 mm² GPU).
    pub patu_area_mm2_per_cluster: f64,
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        EnergyModel {
            shader_alu_pj: 2.0,
            trilinear_pj: 18.0,
            address_calc_pj: 1.2,
            l1_access_pj: 6.0,
            l2_access_pj: 18.0,
            dram_pj_per_byte: 24.0,
            vertex_pj: 40.0,
            hash_table_pj: 1.5,
            predictor_pj: 0.8,
            static_watts: 0.35,
            frequency_hz: 1e9,
            patu_area_mm2_per_cluster: 0.15,
        }
    }
}

/// The energy of one frame (or any accumulated [`FrameStats`]), split by
/// component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Shader core dynamic energy (J).
    pub shader_joules: f64,
    /// Texture unit dynamic energy — filtering + address ALUs (J).
    pub texture_unit_joules: f64,
    /// Cache dynamic energy, L1 + L2 (J).
    pub cache_joules: f64,
    /// DRAM dynamic energy (J).
    pub dram_joules: f64,
    /// Geometry front-end energy (J).
    pub geometry_joules: f64,
    /// PATU overhead energy — hash table + predictors (J).
    pub patu_overhead_joules: f64,
    /// Static/leakage energy over the frame (J).
    pub static_joules: f64,
}

impl EnergyReport {
    /// Total GPU + DRAM energy in joules (the Fig. 20 metric).
    pub fn total_joules(&self) -> f64 {
        self.shader_joules
            + self.texture_unit_joules
            + self.cache_joules
            + self.dram_joules
            + self.geometry_joules
            + self.patu_overhead_joules
            + self.static_joules
    }
}

impl EnergyModel {
    /// Computes the energy of a frame from its timing/event statistics.
    pub fn frame_energy(&self, stats: &FrameStats) -> EnergyReport {
        const PJ: f64 = 1e-12;
        let e = &stats.events;
        EnergyReport {
            shader_joules: e.shader_alu_ops as f64 * self.shader_alu_pj * PJ,
            texture_unit_joules: (e.trilinear_ops as f64 * self.trilinear_pj
                + e.address_calc_ops as f64 * self.address_calc_pj)
                * PJ,
            cache_joules: (e.l1_accesses as f64 * self.l1_access_pj
                + e.l2_accesses as f64 * self.l2_access_pj)
                * PJ,
            dram_joules: e.dram_bytes as f64 * self.dram_pj_per_byte * PJ,
            geometry_joules: e.vertices as f64 * self.vertex_pj * PJ,
            patu_overhead_joules: (e.hash_table_accesses as f64 * self.hash_table_pj
                + e.predictor_evals as f64 * self.predictor_pj)
                * PJ,
            static_joules: self.static_watts * stats.cycles as f64 / self.frequency_hz,
        }
    }

    /// PATU's total area overhead in mm² for `clusters` clusters
    /// (Sec. V-D reports 0.15 mm² per cluster, ≈0.2 % of a 66 mm² GPU).
    pub fn patu_area_overhead_mm2(&self, clusters: u32) -> f64 {
        self.patu_area_mm2_per_cluster * f64::from(clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patu_gpu::EventCounts;

    fn stats_with(events: EventCounts, cycles: u64) -> FrameStats {
        FrameStats {
            cycles,
            events,
            ..FrameStats::default()
        }
    }

    #[test]
    fn zero_events_zero_cycles_zero_energy() {
        let r = EnergyModel::default().frame_energy(&FrameStats::default());
        assert_eq!(r.total_joules(), 0.0);
    }

    #[test]
    fn static_energy_scales_with_cycles() {
        let m = EnergyModel::default();
        let a = m.frame_energy(&stats_with(EventCounts::default(), 1_000_000));
        let b = m.frame_energy(&stats_with(EventCounts::default(), 2_000_000));
        assert!((b.static_joules / a.static_joules - 2.0).abs() < 1e-9);
        assert_eq!(a.total_joules(), a.static_joules, "no events, only leakage");
    }

    #[test]
    fn known_static_value() {
        // 0.35 W for 1e6 cycles at 1 GHz = 0.35 mJ * 1e-3 = 0.35e-3 J... 1e6/1e9 s = 1 ms.
        let m = EnergyModel::default();
        let r = m.frame_energy(&stats_with(EventCounts::default(), 1_000_000));
        assert!((r.static_joules - 0.35e-3).abs() < 1e-12);
    }

    #[test]
    fn dram_dominates_sram_per_byte() {
        let m = EnergyModel::default();
        // Fetching 64 bytes from DRAM vs one L1 access.
        assert!(64.0 * m.dram_pj_per_byte > 10.0 * m.l1_access_pj);
    }

    #[test]
    fn component_attribution() {
        let m = EnergyModel::default();
        let events = EventCounts {
            trilinear_ops: 1000,
            address_calc_ops: 8000,
            l1_accesses: 8000,
            l2_accesses: 500,
            dram_bytes: 64 * 100,
            shader_alu_ops: 5000,
            vertices: 10,
            hash_table_accesses: 200,
            predictor_evals: 100,
            ..EventCounts::default()
        };
        let r = m.frame_energy(&stats_with(events, 0));
        assert!(r.texture_unit_joules > 0.0);
        assert!(r.cache_joules > 0.0);
        assert!(r.dram_joules > 0.0);
        assert!(r.shader_joules > 0.0);
        assert!(r.geometry_joules > 0.0);
        assert!(r.patu_overhead_joules > 0.0);
        // PATU overhead is tiny next to the traffic it polices.
        assert!(r.patu_overhead_joules < 0.01 * r.total_joules());
    }

    #[test]
    fn fewer_texel_events_lower_energy() {
        let m = EnergyModel::default();
        let af = EventCounts {
            trilinear_ops: 16_000,
            address_calc_ops: 128_000,
            l1_accesses: 128_000,
            l2_accesses: 20_000,
            dram_bytes: 64 * 10_000,
            ..EventCounts::default()
        };
        let tf = EventCounts {
            trilinear_ops: 1_000,
            address_calc_ops: 8_000,
            l1_accesses: 8_000,
            l2_accesses: 1_500,
            dram_bytes: 64 * 900,
            ..EventCounts::default()
        };
        let e_af = m.frame_energy(&stats_with(af, 1_000_000)).total_joules();
        let e_tf = m.frame_energy(&stats_with(tf, 700_000)).total_joules();
        assert!(e_tf < e_af);
    }

    #[test]
    fn area_overhead_matches_paper() {
        let m = EnergyModel::default();
        let total = m.patu_area_overhead_mm2(4);
        assert!((total - 0.6).abs() < 1e-12);
        // 0.15 mm² per cluster is ~0.2% of the 66 mm² GPU the paper cites.
        assert!(m.patu_area_mm2_per_cluster / 66.0 < 0.003);
    }
}
