//! Worker-private collectors and their deterministic frame-level merge.

use crate::attrib::Attribution;
use crate::config::{TelemetryConfig, TraceLevel, FLIGHT_DEPTH};
use crate::hist::Log2Histogram;
use crate::recorder::{FlightDump, FlightRecorder};
use crate::span::{Event, Span, Track};
use std::collections::BTreeMap;

/// A worker-private telemetry recorder for one track (one cluster, the
/// front-end, or the analysis timeline).
///
/// Every method is level-gated: at [`TraceLevel::Off`] each call reduces to
/// one branch and touches no state, so the disabled path stays off the
/// profile. Collectors are never shared between workers — the frame-level
/// [`FrameTelemetry::absorb`] walks them in cluster order, which is what
/// makes the merged artifact independent of the thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Collector {
    level: TraceLevel,
    track: Track,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Log2Histogram>,
    recorder: FlightRecorder,
    dumps: Vec<FlightDump>,
    next_span: u64,
}

impl Collector {
    /// A collector for `track` under `cfg`.
    pub fn new(cfg: TelemetryConfig, track: Track) -> Collector {
        Collector {
            level: cfg.level,
            track,
            spans: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            recorder: FlightRecorder::new(if cfg.level.counters_enabled() {
                FLIGHT_DEPTH as usize
            } else {
                0
            }),
            dumps: Vec::new(),
            next_span: 1,
        }
    }

    /// A collector that records nothing (the `Off` fast path).
    pub fn disabled(track: Track) -> Collector {
        Collector::new(TelemetryConfig::disabled(), track)
    }

    /// The active level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// The collector's track.
    pub fn track(&self) -> Track {
        self.track
    }

    /// Whether anything at all records (`level != Off`).
    pub fn is_enabled(&self) -> bool {
        self.level.counters_enabled()
    }

    /// Records a `[start, end)` span (only at [`TraceLevel::Spans`]).
    #[inline]
    pub fn span(&mut self, name: &'static str, start: u64, end: u64) {
        self.span_arg(name, start, end, "", 0);
    }

    /// Records a span carrying one named argument (a tile index, a work
    /// count).
    #[inline]
    pub fn span_arg(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        arg_name: &'static str,
        arg: u64,
    ) {
        if self.level.spans_enabled() {
            self.spans.push(Span {
                name,
                track: self.track,
                start,
                end,
                arg_name,
                arg,
                id: 0,
                parent: 0,
            });
        }
    }

    /// Records a span as a node of a causal tree and returns its
    /// deterministic id (`(tid + 1) << 32 | seq`, where `seq` counts tree
    /// spans within this collector), or 0 when spans are disabled. Pass
    /// `parent == 0` for a root. Ids are a pure function of the collector's
    /// track and call order, so merged artifacts stay byte-identical across
    /// thread counts.
    pub fn span_node(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u64,
        arg_name: &'static str,
        arg: u64,
    ) -> u64 {
        if !self.level.spans_enabled() {
            return 0;
        }
        let id = (u64::from(self.track.tid()) + 1) << 32 | self.next_span;
        self.next_span += 1;
        self.spans.push(Span {
            name,
            track: self.track,
            start,
            end,
            arg_name,
            arg,
            id,
            parent,
        });
        id
    }

    /// Reserves the next span id on this collector's track without
    /// recording a span — for roots whose end cycle is only known later
    /// (e.g. a job's lifecycle span, closed at its terminal outcome) while
    /// children recorded in the meantime need the parent id for causal
    /// links. Returns 0 when spans are disabled. Pair with
    /// [`Collector::span_with_id`] to record the span once it closes.
    pub fn reserve_span_id(&mut self) -> u64 {
        if !self.level.spans_enabled() {
            return 0;
        }
        let id = (u64::from(self.track.tid()) + 1) << 32 | self.next_span;
        self.next_span += 1;
        id
    }

    /// Records a span under an id previously handed out by
    /// [`Collector::reserve_span_id`]. A no-op when `id == 0` (spans
    /// disabled at reservation time), so callers can thread the reserved id
    /// unconditionally. `arg` is the span's `(name, value)` annotation.
    pub fn span_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u64,
        arg: (&'static str, u64),
    ) {
        if id == 0 || !self.level.spans_enabled() {
            return;
        }
        self.spans.push(Span {
            name,
            track: self.track,
            start,
            end,
            arg_name: arg.0,
            arg: arg.1,
            id,
            parent,
        });
    }

    /// Adds `value` to the named counter (at `Counters` and above).
    #[inline]
    pub fn add(&mut self, name: &'static str, value: u64) {
        if self.level.counters_enabled() {
            *self.counters.entry(name).or_insert(0) += value;
        }
    }

    /// Records one sample into the named histogram (at `Counters` and
    /// above).
    #[inline]
    pub fn record(&mut self, name: &'static str, value: u64) {
        if self.level.counters_enabled() {
            self.hists.entry(name).or_default().record(value);
        }
    }

    /// Merges an externally accumulated histogram (a memory system's fetch
    /// latencies, a texture unit's queue waits) into the named slot.
    pub fn merge_hist(&mut self, name: &'static str, hist: &Log2Histogram) {
        if self.level.counters_enabled() && !hist.is_empty() {
            self.hists.entry(name).or_default().accumulate(hist);
        }
    }

    /// Appends a timeline event to the flight-recorder ring (at `Counters`
    /// and above).
    #[inline]
    pub fn event(&mut self, event: Event) {
        if self.level.counters_enabled() {
            self.recorder.push(event);
        }
    }

    /// Captures a postmortem dump of the ring as of now. The frame-level
    /// merge fills in frame/policy/seed context.
    pub fn dump(&mut self, reason: &'static str, cycle: u64, tile: u32) {
        if self.level.counters_enabled() {
            self.dumps.push(FlightDump {
                reason,
                cluster: self.track.tid().saturating_sub(1),
                tile,
                cycle,
                frame: 0,
                policy: String::new(),
                fault_seed: 0,
                events: self.recorder.snapshot(),
            });
        }
    }

    /// Number of dumps captured so far (used to trigger at-most-once dumps
    /// per cluster without extra state at the call site).
    pub fn dump_count(&self) -> usize {
        self.dumps.len()
    }
}

/// A frame's merged telemetry: the cluster-order combination of every
/// collector that participated in rendering it.
///
/// Serialization lives in [`crate::sink`]; this type is pure data plus the
/// merge discipline.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTelemetry {
    /// The level the frame was recorded at.
    pub level: TraceLevel,
    /// Frame index within the workload.
    pub frame: u32,
    /// Filtering policy label (`format!("{policy:?}")`).
    pub policy: String,
    /// Fault-injection master seed (0 when faults are disabled).
    pub fault_seed: u64,
    /// All spans, in absorb order (front-end first, then clusters in index
    /// order, then analysis) — deterministic by construction.
    pub spans: Vec<Span>,
    /// Merged named counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Merged named histograms.
    pub hists: BTreeMap<&'static str, Log2Histogram>,
    /// Flight-recorder rings of every cluster, concatenated in cluster
    /// order (oldest first within a cluster).
    pub events: Vec<Event>,
    /// Captured postmortems, enriched with frame/policy/seed context.
    pub dumps: Vec<FlightDump>,
    /// Per-stage cycle attribution for the frame (empty unless the renderer
    /// filled it in).
    pub attrib: Attribution,
}

impl FrameTelemetry {
    /// An empty frame record.
    pub fn new(level: TraceLevel, frame: u32, policy: String, fault_seed: u64) -> FrameTelemetry {
        FrameTelemetry {
            level,
            frame,
            policy,
            fault_seed,
            spans: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            events: Vec::new(),
            dumps: Vec::new(),
            attrib: Attribution::default(),
        }
    }

    /// Absorbs one collector. **Call in cluster order** — the artifact's
    /// byte-identity across thread counts rests on every absorb sequence
    /// being a pure function of the frame, not of scheduling.
    pub fn absorb(&mut self, collector: Collector) {
        let Collector {
            spans,
            counters,
            hists,
            recorder,
            dumps,
            ..
        } = collector;
        self.spans.extend(spans);
        for (name, value) in counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, hist) in hists {
            self.hists.entry(name).or_default().accumulate(&hist);
        }
        self.events.extend(recorder.snapshot());
        for mut dump in dumps {
            dump.frame = self.frame;
            dump.policy.clone_from(&self.policy);
            dump.fault_seed = self.fault_seed;
            self.dumps.push(dump);
        }
    }

    /// Per-stage span totals: `(name, span count, total cycles)` sorted by
    /// stage name — the report's stage-time tree. Names nest on `::`.
    pub fn stage_totals(&self) -> Vec<(&'static str, u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += span.duration();
        }
        totals
            .into_iter()
            .map(|(name, (count, cycles))| (name, count, cycles))
            .collect()
    }

    /// Whether the frame recorded nothing (the `Off` invariant).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.hists.is_empty()
            && self.events.is_empty()
            && self.dumps.is_empty()
            && self.attrib.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::EventKind;

    fn spans_cfg() -> TelemetryConfig {
        TelemetryConfig::with_level(TraceLevel::Spans)
    }

    #[test]
    fn off_records_absolutely_nothing() {
        let mut c = Collector::disabled(Track::Cluster(0));
        c.span("raster::tile", 0, 100);
        c.add("pixels", 10);
        c.record("latency", 42);
        c.event(Event {
            cycle: 1,
            cluster: 0,
            tile: 0,
            kind: EventKind::TileBegin,
        });
        c.dump("watchdog_trip", 5, 0);
        let mut frame = FrameTelemetry::new(TraceLevel::Off, 0, "p".into(), 0);
        frame.absorb(c);
        assert!(frame.is_empty());
    }

    #[test]
    fn reserved_ids_share_the_sequence_with_span_node() {
        let mut c = Collector::new(spans_cfg(), Track::Serve);
        let root = c.reserve_span_id();
        let child = c.span_node("serve::batch", 10, 20, root, "", 0);
        c.span_with_id(root, "serve::lifecycle", 0, 50, 0, ("job", 7));
        assert_ne!(root, 0);
        assert_eq!(child, root + 1);
        let mut frame = FrameTelemetry::new(TraceLevel::Spans, 0, "p".into(), 0);
        frame.absorb(c);
        let life = frame
            .spans
            .iter()
            .find(|s| s.name == "serve::lifecycle")
            .unwrap();
        assert_eq!((life.id, life.parent), (root, 0));
        let batch = frame
            .spans
            .iter()
            .find(|s| s.name == "serve::batch")
            .unwrap();
        assert_eq!(batch.parent, root);
    }

    #[test]
    fn reservation_is_inert_when_spans_are_disabled() {
        let mut c = Collector::new(
            TelemetryConfig::with_level(TraceLevel::Counters),
            Track::Serve,
        );
        let id = c.reserve_span_id();
        assert_eq!(id, 0);
        c.span_with_id(id, "serve::lifecycle", 0, 50, 0, ("", 0));
        let mut frame = FrameTelemetry::new(TraceLevel::Counters, 0, "p".into(), 0);
        frame.absorb(c);
        assert!(frame.spans.is_empty());
    }

    #[test]
    fn counters_level_drops_spans_only() {
        let mut c = Collector::new(
            TelemetryConfig::with_level(TraceLevel::Counters),
            Track::Cluster(1),
        );
        c.span("raster::tile", 0, 100);
        c.add("pixels", 10);
        c.record("latency", 42);
        let mut frame = FrameTelemetry::new(TraceLevel::Counters, 0, "p".into(), 0);
        frame.absorb(c);
        assert!(frame.spans.is_empty());
        assert_eq!(frame.counters["pixels"], 10);
        assert_eq!(frame.hists["latency"].count(), 1);
    }

    #[test]
    fn absorb_merges_in_call_order() {
        let mut frame = FrameTelemetry::new(TraceLevel::Spans, 7, "PATU".into(), 42);
        for cluster in 0..3u32 {
            let mut c = Collector::new(spans_cfg(), Track::Cluster(cluster));
            c.span_arg(
                "raster::tile",
                u64::from(cluster),
                u64::from(cluster) + 10,
                "tile",
                0,
            );
            c.add("pixels", 1);
            frame.absorb(c);
        }
        assert_eq!(frame.spans.len(), 3);
        let tracks: Vec<Track> = frame.spans.iter().map(|s| s.track).collect();
        assert_eq!(
            tracks,
            vec![Track::Cluster(0), Track::Cluster(1), Track::Cluster(2)],
            "spans keep cluster order"
        );
        assert_eq!(frame.counters["pixels"], 3);
    }

    #[test]
    fn dumps_get_frame_context() {
        let mut c = Collector::new(spans_cfg(), Track::Cluster(2));
        c.event(Event {
            cycle: 9,
            cluster: 2,
            tile: 5,
            kind: EventKind::TileBegin,
        });
        c.dump("fault_fallback", 12, 5);
        assert_eq!(c.dump_count(), 1);
        let mut frame = FrameTelemetry::new(TraceLevel::Spans, 3, "PATU@0.4".into(), 99);
        frame.absorb(c);
        let dump = &frame.dumps[0];
        assert_eq!(dump.frame, 3);
        assert_eq!(dump.policy, "PATU@0.4");
        assert_eq!(dump.fault_seed, 99);
        assert_eq!(dump.cluster, 2);
        assert_eq!(dump.tile, 5);
        assert_eq!(dump.events.len(), 1);
    }

    #[test]
    fn stage_totals_aggregate_by_name() {
        let mut frame = FrameTelemetry::new(TraceLevel::Spans, 0, "p".into(), 0);
        let mut c = Collector::new(spans_cfg(), Track::Cluster(0));
        c.span("raster::tile", 0, 10);
        c.span("raster::tile", 10, 30);
        c.span("geom::frontend", 0, 5);
        frame.absorb(c);
        assert_eq!(
            frame.stage_totals(),
            vec![("geom::frontend", 1, 5), ("raster::tile", 2, 30)]
        );
    }

    #[test]
    fn span_node_ids_are_deterministic_per_track() {
        let mut c = Collector::new(spans_cfg(), Track::Cluster(1));
        let root = c.span_node("raster::tile", 0, 10, 0, "tile", 3);
        let child = c.span_node("raster::tile::shade", 0, 5, root, "", 0);
        assert_eq!(root, (3u64 << 32) | 1, "Cluster(1) has tid 2, so id base 3");
        assert_eq!(child, (3u64 << 32) | 2);
        let mut frame = FrameTelemetry::new(TraceLevel::Spans, 0, "p".into(), 0);
        frame.absorb(c);
        assert_eq!(frame.spans[1].parent, root);

        let mut off = Collector::disabled(Track::Cluster(1));
        assert_eq!(off.span_node("raster::tile", 0, 10, 0, "", 0), 0);
    }

    #[test]
    fn merge_hist_respects_level() {
        let mut h = Log2Histogram::new();
        h.record(8);
        let mut off = Collector::disabled(Track::Analysis);
        off.merge_hist("x", &h);
        let mut frame = FrameTelemetry::new(TraceLevel::Off, 0, "p".into(), 0);
        frame.absorb(off);
        assert!(frame.is_empty());
    }
}
