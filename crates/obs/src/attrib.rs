//! Per-frame cycle attribution: where a frame's simulated cycles went.
//!
//! The timing model is max-semantics (a frame ends when its slowest cluster
//! drains), so a naive per-stage sum would overcount. Attribution instead
//! follows the *critical cluster* — the one whose finish cycle equals the
//! frame time — where the identity
//!
//! ```text
//! finish = frontend + Σ_tiles (shading + stall)
//! ```
//!
//! holds exactly: each tile starts the cycle its predecessor ended (the
//! front-end only gates the first tile), advances by its shading cycles,
//! then stalls until its texture traffic drains. The shading part is
//! attributed to [`Stage::Shade`]; the stall part is scattered over the
//! measured texture-side work (predictor evaluations, hash probes, texel
//! fetches, cache and DRAM cycles) by largest-remainder proportional split,
//! which keeps the split integral and exactly conserving:
//!
//! ```text
//! frame_total() == frame cycles, always.
//! ```
//!
//! Every stage counts toward that sum. The serve layer keeps its
//! reference-render cycles in `SimFrameService::baseline_cycles`, outside
//! any attribution.

use crate::report::Table;

/// A cycle-attribution stage. Order is the canonical report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Geometry front-end: vertex processing and tile binning.
    Setup,
    /// Fragment shading throughput on the critical cluster.
    Shade,
    /// Quality-predictor evaluations (stage-0 of the PATU decision).
    Predictor,
    /// Stage-1 approximation-table consultations.
    HashStage1,
    /// Stage-2 hash-table probe work.
    HashStage2,
    /// Texel addressing, fetch issue, and filtering math.
    TexelFetch,
    /// Cycles absorbed by L2 cache hits (L1 misses).
    CacheStall,
    /// DRAM access latency, including injected DRAM stall faults.
    Dram,
    /// Cross-frame tile reuse: blit and decision-refresh cycles spent on
    /// tiles the temporal store carried over instead of rerendering. On the
    /// critical path (a reused tile still occupies its cluster), but orders
    /// of magnitude cheaper than the fragment→texel work it replaces.
    Reuse,
}

impl Stage {
    /// All stages, in canonical report order.
    pub const ALL: [Stage; 9] = [
        Stage::Setup,
        Stage::Shade,
        Stage::Predictor,
        Stage::HashStage1,
        Stage::HashStage2,
        Stage::TexelFetch,
        Stage::CacheStall,
        Stage::Dram,
        Stage::Reuse,
    ];

    /// The stage's stable JSONL / report label.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Setup => "setup",
            Stage::Shade => "shade",
            Stage::Predictor => "predictor",
            Stage::HashStage1 => "hash_stage1",
            Stage::HashStage2 => "hash_stage2",
            Stage::TexelFetch => "texel_fetch",
            Stage::CacheStall => "cache_stall",
            Stage::Dram => "dram",
            Stage::Reuse => "reuse",
        }
    }

    /// Parses a stable label back into a stage.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The stage's position in [`Stage::ALL`]: the declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// A frame's cycle budget broken down by [`Stage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    cycles: [u64; Stage::ALL.len()],
}

impl Attribution {
    /// An all-zero attribution.
    pub fn new() -> Attribution {
        Attribution::default()
    }

    /// Adds `cycles` to `stage`.
    pub fn add(&mut self, stage: Stage, cycles: u64) {
        self.cycles[stage.index()] += cycles;
    }

    /// Cycles attributed to `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        self.cycles[stage.index()]
    }

    /// Whether every stage is zero (nothing was attributed).
    pub fn is_empty(&self) -> bool {
        self.cycles.iter().all(|&c| c == 0)
    }

    /// Sum over all stages — by the conservation invariant, equal to the
    /// frame's total simulated cycles.
    pub fn frame_total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Element-wise accumulation (for session-level aggregates).
    pub fn accumulate(&mut self, other: &Attribution) {
        for (mine, theirs) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *mine += theirs;
        }
    }

    /// `(stage, cycles)` pairs in canonical order, zeros included.
    pub fn entries(&self) -> Vec<(Stage, u64)> {
        Stage::ALL.iter().map(|&s| (s, self.get(s))).collect()
    }

    /// Splits `stall` cycles over the weighted stages by largest-remainder
    /// proportional division: the split is integral, sums to exactly
    /// `stall`, and ties break toward the earlier weight. With an all-zero
    /// weight vector the whole stall lands on [`Stage::TexelFetch`] (the
    /// stall observably came from texturing even if no component counter
    /// captured it).
    pub fn scatter_stall(&mut self, stall: u64, weights: &[(Stage, u64)]) {
        if stall == 0 {
            return;
        }
        let sum: u128 = weights.iter().map(|&(_, w)| u128::from(w)).sum();
        if sum == 0 {
            self.add(Stage::TexelFetch, stall);
            return;
        }
        // (remainder, original index, stage, floor share)
        let mut parts: Vec<(u128, usize, Stage, u64)> = Vec::with_capacity(weights.len());
        let mut assigned = 0u64;
        for (i, &(stage, w)) in weights.iter().enumerate() {
            let prod = u128::from(stall) * u128::from(w);
            let floor = (prod / sum) as u64;
            assigned += floor;
            parts.push((prod % sum, i, stage, floor));
        }
        let mut leftover = stall - assigned;
        parts.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for part in parts.iter_mut() {
            if leftover == 0 {
                break;
            }
            part.3 += 1;
            leftover -= 1;
        }
        for &(_, _, stage, share) in &parts {
            self.add(stage, share);
        }
    }

    /// Per-stage share of the frame total, fixed-point ×10000 (basis
    /// points), in canonical order.
    pub fn shares_x10000(&self) -> Vec<(Stage, u64)> {
        let total = self.frame_total().max(1);
        Stage::ALL
            .iter()
            .map(|&s| (s, self.get(s) * 10_000 / total))
            .collect()
    }

    /// The `"attrib"` JSONL line for this frame: total cycles plus every
    /// non-zero stage. All values are integers, so no float formatting is
    /// involved.
    pub fn jsonl_line(&self, frame: u32) -> String {
        let mut line = format!(
            "{{\"type\":\"attrib\",\"frame\":{frame},\"total\":{},\"stages\":{{",
            self.frame_total()
        );
        let mut first = true;
        for (stage, cycles) in self.entries() {
            if cycles == 0 {
                continue;
            }
            if !first {
                line.push(',');
            }
            first = false;
            line.push_str(&format!("\"{}\":{cycles}", stage.name()));
        }
        line.push_str("}}");
        line
    }

    /// A flame-style table: stage, cycles, share (basis points rendered as
    /// a percentage), and a proportional bar.
    pub fn table(&self) -> Table {
        let mut table = Table::new(&["stage", "cycles", "share", ""]);
        let total = self.frame_total().max(1);
        for (stage, cycles) in self.entries() {
            if cycles == 0 {
                continue;
            }
            let bps = cycles * 10_000 / total;
            let bar_len = (cycles * 32 / total).min(32) as usize;
            table.row(&[
                stage.name().to_string(),
                cycles.to_string(),
                format!("{}.{:02}%", bps / 100, bps % 100),
                "#".repeat(bar_len),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert_eq!(Stage::ALL[stage.index()], stage);
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn scatter_conserves_exactly() {
        let mut a = Attribution::new();
        a.scatter_stall(
            1_000_003,
            &[
                (Stage::Predictor, 7),
                (Stage::HashStage2, 11),
                (Stage::TexelFetch, 13),
                (Stage::Dram, 3),
            ],
        );
        assert_eq!(a.frame_total(), 1_000_003);
    }

    #[test]
    fn scatter_with_zero_weights_lands_on_texel_fetch() {
        let mut a = Attribution::new();
        a.scatter_stall(42, &[(Stage::Predictor, 0), (Stage::Dram, 0)]);
        assert_eq!(a.get(Stage::TexelFetch), 42);
        assert_eq!(a.frame_total(), 42);
    }

    #[test]
    fn scatter_ties_break_toward_earlier_weight() {
        // 3 cycles over two equal weights: floors are 1 each, the leftover
        // cycle goes to the first listed stage.
        let mut a = Attribution::new();
        a.scatter_stall(3, &[(Stage::CacheStall, 1), (Stage::Dram, 1)]);
        assert_eq!(a.get(Stage::CacheStall), 2);
        assert_eq!(a.get(Stage::Dram), 1);
    }

    #[test]
    fn reuse_is_on_the_render_path() {
        let mut a = Attribution::new();
        a.add(Stage::Setup, 100);
        a.add(Stage::Reuse, 40);
        assert_eq!(a.frame_total(), 140, "reuse counts toward conservation");
        assert_eq!(Stage::from_name("reuse"), Some(Stage::Reuse));
    }

    #[test]
    fn jsonl_line_skips_zero_stages() {
        let mut a = Attribution::new();
        a.add(Stage::Setup, 10);
        a.add(Stage::Dram, 5);
        assert_eq!(
            a.jsonl_line(3),
            "{\"type\":\"attrib\",\"frame\":3,\"total\":15,\"stages\":{\"setup\":10,\"dram\":5}}"
        );
    }

    #[test]
    fn table_renders_nonzero_rows() {
        let mut a = Attribution::new();
        a.add(Stage::Setup, 25);
        a.add(Stage::Shade, 75);
        let table = a.table();
        assert_eq!(table.len(), 2);
        let rendered = table.render();
        assert!(rendered.contains("25.00%"));
        assert!(rendered.contains("75.00%"));
    }
}
