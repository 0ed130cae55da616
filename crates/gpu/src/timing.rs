//! Frame-level cycle assembly: tiles are scheduled onto shader clusters;
//! shading and texturing overlap within a tile; the frame finishes when the
//! slowest cluster drains.

use crate::config::GpuConfig;

/// Schedules per-tile work onto clusters and accumulates frame time.
///
/// Tiles are the basic execution units (paper Sec. II-A); the timer assigns
/// each tile to the least-loaded cluster (dynamic load balancing), overlaps
/// the tile's shader and texture work, and reports the frame's critical-path
/// cycles.
///
/// ```
/// use patu_gpu::{FrameTimer, GpuConfig};
/// let cfg = GpuConfig::default();
/// let mut timer = FrameTimer::new(&cfg);
/// let (cluster, start) = timer.begin_tile();
/// timer.end_tile(cluster, 100, start + 250);
/// assert_eq!(timer.frame_cycles(), 250);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTimer {
    cluster_time: Vec<u64>,
    frontend_cycles: u64,
    fragments_per_cycle_num: u64,
    fragments_per_cycle_den: u64,
}

impl FrameTimer {
    /// Creates a timer for `cfg.clusters` clusters.
    pub fn new(cfg: &GpuConfig) -> FrameTimer {
        FrameTimer {
            cluster_time: vec![0; cfg.clusters as usize],
            frontend_cycles: 0,
            fragments_per_cycle_num: u64::from(cfg.shaders_per_cluster * cfg.simd_width),
            fragments_per_cycle_den: u64::from(cfg.shader_ops_per_fragment),
        }
    }

    /// Charges geometry front-end work (vertex processing, clipping, tiling)
    /// that precedes fragment shading.
    pub fn add_frontend_cycles(&mut self, cycles: u64) {
        self.frontend_cycles += cycles;
    }

    /// Picks the least-loaded cluster for the next tile; returns the cluster
    /// index and the cycle at which that tile starts there.
    pub fn begin_tile(&mut self) -> (usize, u64) {
        // Config validation guarantees at least one cluster; an empty list
        // degrades to cluster 0 at the frontend fence rather than panicking.
        let (cluster, start) = self
            .cluster_time
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(c, &t)| (c, t))
            .unwrap_or((0, 0));
        (cluster, start.max(self.frontend_cycles))
    }

    /// Start cycle for the next tile on a *statically chosen* `cluster` —
    /// the deterministic-parallel counterpart of [`FrameTimer::begin_tile`].
    /// The tile→cluster assignment is lifted out of the timer (a pure
    /// function of the tile index), so each cluster's cycle stream can be
    /// simulated independently and replayed in any order.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn begin_tile_on(&mut self, cluster: usize) -> u64 {
        self.cluster_time[cluster].max(self.frontend_cycles)
    }

    /// One cluster's finish time so far (its cycle-stream tail).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn cluster_cycles(&self, cluster: usize) -> u64 {
        self.cluster_time[cluster]
    }

    /// Replays a cluster finish time computed on a worker's private timer
    /// into this (merge) timer, keeping the later of the two. Merging every
    /// cluster in index order reproduces the serial timer state exactly.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn merge_cluster(&mut self, cluster: usize, finish: u64) {
        self.cluster_time[cluster] = self.cluster_time[cluster].max(finish);
    }

    /// Completes a tile on `cluster`: the tile occupied the cluster until
    /// shading finished and until the texture unit returned its last result
    /// (`texture_done`, an absolute cycle), whichever is later.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn end_tile(&mut self, cluster: usize, shading_cycles: u64, texture_done: u64) {
        let start = self.cluster_time[cluster].max(self.frontend_cycles);
        let shade_done = start + shading_cycles;
        self.cluster_time[cluster] = shade_done.max(texture_done);
    }

    /// Shading cycles for `fragments` fragments on one cluster
    /// (`ops-per-fragment / (shaders × simd)` each).
    pub fn shading_cycles(&self, fragments: u64) -> u64 {
        (fragments * self.fragments_per_cycle_den).div_ceil(self.fragments_per_cycle_num.max(1))
    }

    /// The frame's total cycles: the slowest cluster's finish time (which
    /// already includes the front-end offset).
    pub fn frame_cycles(&self) -> u64 {
        self.cluster_time
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.frontend_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer() -> FrameTimer {
        FrameTimer::new(&GpuConfig::default())
    }

    #[test]
    fn tiles_balance_across_clusters() {
        let mut t = timer();
        let mut used = std::collections::HashSet::new();
        for _ in 0..4 {
            let (c, start) = t.begin_tile();
            assert_eq!(start, 0);
            t.end_tile(c, 100, 100);
            used.insert(c);
        }
        assert_eq!(used.len(), 4, "four tiles spread over four clusters");
        assert_eq!(t.frame_cycles(), 100);
    }

    #[test]
    fn frame_is_max_cluster_time() {
        let mut t = timer();
        let (c0, _) = t.begin_tile();
        t.end_tile(c0, 500, 0);
        let (c1, _) = t.begin_tile();
        t.end_tile(c1, 100, 0);
        assert_eq!(t.frame_cycles(), 500);
    }

    #[test]
    fn texture_latency_extends_tile() {
        let mut t = timer();
        let (c, start) = t.begin_tile();
        // Shading takes 50 cycles but texturing returns at cycle start+400.
        t.end_tile(c, 50, start + 400);
        assert_eq!(t.frame_cycles(), 400);
    }

    #[test]
    fn shading_overlaps_texture() {
        let mut t = timer();
        let (c, start) = t.begin_tile();
        // Texture finishes earlier than shading: shading bound.
        t.end_tile(c, 300, start + 100);
        assert_eq!(t.frame_cycles(), 300);
    }

    #[test]
    fn frontend_precedes_tiles() {
        let mut t = timer();
        t.add_frontend_cycles(1000);
        let (c, start) = t.begin_tile();
        assert_eq!(start, 1000);
        t.end_tile(c, 50, 0);
        assert_eq!(t.frame_cycles(), 1050);
    }

    #[test]
    fn serial_tiles_accumulate_on_one_cluster() {
        let mut t = timer();
        // Fill all four clusters, then the fifth tile queues behind one.
        for _ in 0..4 {
            let (c, _) = t.begin_tile();
            t.end_tile(c, 100, 0);
        }
        let (c, start) = t.begin_tile();
        assert_eq!(start, 100);
        t.end_tile(c, 100, 0);
        assert_eq!(t.frame_cycles(), 200);
    }

    #[test]
    fn static_assignment_matches_dynamic_on_one_cluster() {
        let mut t = timer();
        t.add_frontend_cycles(40);
        let start = t.begin_tile_on(2);
        assert_eq!(start, 40, "front-end offset applies");
        t.end_tile(2, 100, 0);
        assert_eq!(t.begin_tile_on(2), 140, "tiles queue on their cluster");
        assert_eq!(t.cluster_cycles(2), 140);
        assert_eq!(t.cluster_cycles(0), 0, "other clusters untouched");
    }

    #[test]
    fn merge_cluster_replays_worker_streams() {
        let mut merged = timer();
        merged.add_frontend_cycles(10);
        merged.merge_cluster(0, 500);
        merged.merge_cluster(1, 300);
        merged.merge_cluster(0, 200); // earlier finish never rolls back
        assert_eq!(merged.cluster_cycles(0), 500);
        assert_eq!(merged.frame_cycles(), 500);
    }

    #[test]
    fn shading_cycles_formula() {
        let t = timer();
        // 64 lanes / 64 ops = 1 fragment per cycle.
        assert_eq!(t.shading_cycles(256), 256);
        assert_eq!(t.shading_cycles(0), 0);
        assert_eq!(t.shading_cycles(1), 1, "rounds up");
    }
}
