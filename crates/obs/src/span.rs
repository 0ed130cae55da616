//! Spans and events on the simulated-cycle timeline.

/// The timeline a span or event belongs to. Chrome-trace export lays each
/// track out as its own "thread".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The geometry front-end (vertex processing + tile binning), shared by
    /// all clusters.
    Frontend,
    /// One shader cluster's cycle stream.
    Cluster(u32),
    /// Off-pipeline analysis work (SSIM, report generation) clocked in
    /// deterministic work units instead of GPU cycles.
    Analysis,
    /// The serving layer's job-lifecycle timeline (admit, queue, dispatch,
    /// deliver), clocked on the same virtual clock as the GPU tracks.
    Serve,
}

impl Track {
    /// A stable small integer for Chrome-trace `tid` assignment: front-end
    /// 0, clusters 1..=N, serve 500, analysis 999.
    pub fn tid(self) -> u32 {
        match self {
            Track::Frontend => 0,
            Track::Cluster(c) => c + 1,
            Track::Serve => 500,
            Track::Analysis => 999,
        }
    }

    /// Human-readable track name (the Chrome-trace thread name).
    pub fn name(self) -> String {
        match self {
            Track::Frontend => "frontend".to_string(),
            Track::Cluster(c) => format!("cluster{c}"),
            Track::Serve => "serve".to_string(),
            Track::Analysis => "analysis".to_string(),
        }
    }
}

/// A named `[start, end)` interval on a track, clocked in simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage name, `::`-separated for the report's stage tree (e.g.
    /// `raster::tile::texture`).
    pub name: &'static str,
    /// The timeline the span lies on.
    pub track: Track,
    /// First cycle of the interval.
    pub start: u64,
    /// One past the last cycle of the interval.
    pub end: u64,
    /// Name of the span's single argument (`""` for none).
    pub arg_name: &'static str,
    /// Argument value (tile index, item count, …).
    pub arg: u64,
    /// Deterministic span id (`(tid + 1) << 32 | seq`), or 0 for legacy
    /// flat spans that never participate in a causal tree.
    pub id: u64,
    /// Id of the causal parent span, or 0 for roots and flat spans.
    pub parent: u64,
}

impl Span {
    /// The span's duration in cycles (0 for degenerate ranges).
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// What happened at a point on the timeline — the flight recorder's and the
/// JSONL event stream's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A tile began executing on its cluster.
    TileBegin,
    /// A tile finished (shading and texturing both drained).
    TileEnd,
    /// `count` faults fired at `site` while the tile ran (site names come
    /// from `patu_gpu::FaultCounts::sites`).
    Fault {
        /// Fault-site name (e.g. `cache_bitflips`).
        site: &'static str,
        /// How many fired within the tile.
        count: u64,
    },
    /// `count` pixels fell back to the quality-safe full-AF path.
    Fallback {
        /// Fallback count within the tile.
        count: u64,
    },
    /// The per-frame cycle-budget watchdog tripped; the rest of the
    /// cluster's tile stream renders degraded.
    WatchdogTrip,
}

impl EventKind {
    /// The stable event-kind label used in JSONL output.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::TileBegin => "tile_begin",
            EventKind::TileEnd => "tile_end",
            EventKind::Fault { .. } => "fault",
            EventKind::Fallback { .. } => "fallback",
            EventKind::WatchdogTrip => "watchdog_trip",
        }
    }
}

/// One timeline event, tagged with the cluster and tile it happened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// Cluster index.
    pub cluster: u32,
    /// Tile index within the frame's tile grid.
    pub tile: u32,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_tids_are_distinct() {
        assert_eq!(Track::Frontend.tid(), 0);
        assert_eq!(Track::Cluster(0).tid(), 1);
        assert_eq!(Track::Cluster(3).tid(), 4);
        assert_eq!(Track::Analysis.tid(), 999);
        assert_eq!(Track::Cluster(2).name(), "cluster2");
    }

    #[test]
    fn span_duration_saturates() {
        let s = Span {
            name: "x",
            track: Track::Frontend,
            start: 10,
            end: 4,
            arg_name: "",
            arg: 0,
            id: 0,
            parent: 0,
        };
        assert_eq!(s.duration(), 0);
    }

    #[test]
    fn serve_track_is_distinct() {
        assert_eq!(Track::Serve.tid(), 500);
        assert_eq!(Track::Serve.name(), "serve");
    }

    #[test]
    fn event_labels_are_stable() {
        assert_eq!(EventKind::TileBegin.label(), "tile_begin");
        assert_eq!(
            EventKind::Fault {
                site: "dram_stalls",
                count: 2
            }
            .label(),
            "fault"
        );
        assert_eq!(EventKind::WatchdogTrip.label(), "watchdog_trip");
    }
}
