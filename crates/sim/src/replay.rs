//! The analysis-layer game replay of the paper's Sec. VI: vertical
//! synchronization against a 60 Hz display, with motion-lag accounting.
//!
//! The paper builds replay videos in MATLAB: each frame is drawn at the
//! start of a screen refresh, or the draw stalls if the frame is incomplete
//! within the refresh interval — users perceive those stalls as motion lag.
//! A fixed CPU latency of half the refresh interval precedes each frame's
//! GPU work.

/// The vsync replay model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayModel {
    /// Display refresh rate in Hz (60 in the paper).
    pub refresh_hz: f64,
    /// GPU frequency in Hz (1 GHz in Table I).
    pub gpu_frequency_hz: f64,
    /// Fixed CPU time charged before each frame's GPU work, in cycles.
    /// The paper uses half the refresh interval — 8 M cycles at 1 GHz.
    pub cpu_latency_cycles: u64,
}

impl Default for ReplayModel {
    fn default() -> ReplayModel {
        ReplayModel {
            refresh_hz: 60.0,
            gpu_frequency_hz: 1e9,
            cpu_latency_cycles: 8_000_000,
        }
    }
}

/// The outcome of replaying a frame sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// Refresh interval in GPU cycles.
    pub refresh_cycles: u64,
    /// For each frame, the refresh tick (0-based) at which it was displayed.
    pub display_ticks: Vec<u64>,
    /// Number of refreshes where the pending frame missed its deadline and
    /// the previous image was shown again (perceived motion lag).
    pub stalled_refreshes: u64,
}

impl ReplayResult {
    /// Average displayed frames per second over the replay: the frame count
    /// over the refresh span they occupied (inclusive of the first tick).
    pub fn average_fps(&self, refresh_hz: f64) -> f64 {
        let (Some(&first), Some(&last)) = (self.display_ticks.first(), self.display_ticks.last())
        else {
            return 0.0;
        };
        let span_ticks = last - first + 1;
        self.display_ticks.len() as f64 / (span_ticks as f64 / refresh_hz)
    }
}

impl ReplayModel {
    /// Replays a sequence of per-frame GPU cycle counts through the vsync
    /// display loop.
    ///
    /// Each frame's work (CPU latency + GPU cycles) starts when the previous
    /// frame is displayed; the frame appears at the first refresh tick after
    /// its work completes. A frame that spans `k` extra refresh intervals
    /// contributes `k` stalled refreshes.
    pub fn replay(&self, frame_cycles: &[u64]) -> ReplayResult {
        let refresh_cycles = (self.gpu_frequency_hz / self.refresh_hz).round() as u64;
        let mut display_ticks = Vec::with_capacity(frame_cycles.len());
        let mut stalled = 0u64;
        // Time (in cycles) at which the pipeline is free to start a frame.
        let mut free_at = 0u64;
        let mut last_tick: Option<u64> = None;

        for &cycles in frame_cycles {
            let done = free_at + self.cpu_latency_cycles + cycles;
            // First refresh tick at or after completion.
            let mut tick = done.div_ceil(refresh_cycles);
            // Never display two frames on the same tick.
            if let Some(prev) = last_tick {
                tick = tick.max(prev + 1);
                // Extra refresh intervals beyond back-to-back = stalls.
                stalled += tick - prev - 1;
            }
            display_ticks.push(tick);
            last_tick = Some(tick);
            free_at = tick * refresh_cycles;
        }

        ReplayResult {
            refresh_cycles,
            display_ticks,
            stalled_refreshes: stalled,
        }
    }

    /// Convenience: average displayed fps for a frame-cycle sequence.
    pub fn average_fps(&self, frame_cycles: &[u64]) -> f64 {
        self.replay(frame_cycles).average_fps(self.refresh_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model with a small CPU latency so GPU time dominates.
    fn fast_cpu() -> ReplayModel {
        ReplayModel {
            cpu_latency_cycles: 1_000,
            ..ReplayModel::default()
        }
    }

    #[test]
    fn fast_frames_hit_every_refresh() {
        let m = fast_cpu();
        // 1M cycles per frame = 1ms << 16.7ms refresh.
        let r = m.replay(&[1_000_000; 10]);
        assert_eq!(r.stalled_refreshes, 0);
        let fps = r.average_fps(60.0);
        assert!((fps - 60.0).abs() < 1.0, "fps {fps}");
    }

    #[test]
    fn slow_frames_stall() {
        let m = fast_cpu();
        // 25M cycles = 25ms: misses one refresh every frame.
        let r = m.replay(&[25_000_000; 10]);
        assert!(r.stalled_refreshes > 0);
        let fps = r.average_fps(60.0);
        assert!(fps < 45.0, "halved-ish fps, got {fps}");
    }

    #[test]
    fn paper_cpu_latency_limits_fps() {
        // With the paper's 8M-cycle CPU latency, even instant GPU frames
        // display on every refresh (8ms < 16.7ms).
        let m = ReplayModel::default();
        let r = m.replay(&[100_000; 20]);
        assert_eq!(r.stalled_refreshes, 0);
    }

    #[test]
    fn mixed_sequence_counts_specific_stalls() {
        let m = fast_cpu();
        let refresh = (1e9f64 / 60.0).round() as u64;
        // One fast frame, one 2.5-refresh frame, one fast frame.
        let r = m.replay(&[1_000_000, refresh * 5 / 2, 1_000_000]);
        assert_eq!(r.display_ticks.len(), 3);
        assert!(r.stalled_refreshes >= 2, "long frame skipped refreshes");
    }

    #[test]
    fn ticks_strictly_increase() {
        let m = ReplayModel::default();
        let r = m.replay(&[3_000_000; 30]);
        for pair in r.display_ticks.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    fn empty_sequence() {
        let m = ReplayModel::default();
        let r = m.replay(&[]);
        assert!(r.display_ticks.is_empty());
        assert_eq!(r.average_fps(60.0), 0.0);
        assert_eq!(r.stalled_refreshes, 0);
    }

    #[test]
    fn faster_gpu_frames_higher_fps() {
        let m = fast_cpu();
        // 40ms frames need 3 refresh intervals; 18ms frames need 2.
        let slow = m.average_fps(&[40_000_000; 10]);
        let fast = m.average_fps(&[18_000_000; 10]);
        assert!(fast > slow, "{fast} vs {slow}");
    }
}
