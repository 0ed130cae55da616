//! Telemetry configuration: the trace level, and the flight-recorder depth
//! every enabled collector uses.

/// How much the telemetry layer records.
///
/// Levels are ordered: `Off < Counters < Spans`. Each level includes
/// everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing. Every instrumentation site reduces to one branch;
    /// no event, counter, histogram or flight-recorder state is touched.
    #[default]
    Off,
    /// Counters, histograms and the flight recorder, but no spans — the
    /// cheap always-on production setting.
    Counters,
    /// Everything, including per-tile spans for Chrome-trace export.
    Spans,
}

impl TraceLevel {
    /// Parses `off | counters | spans` (case-insensitive, surrounding
    /// whitespace ignored); `None` for anything else.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(TraceLevel::Off),
            "counters" => Some(TraceLevel::Counters),
            "spans" => Some(TraceLevel::Spans),
            _ => None,
        }
    }

    /// Whether counters/histograms/flight-recorder sites record.
    pub fn counters_enabled(self) -> bool {
        self >= TraceLevel::Counters
    }

    /// Whether span sites record.
    pub fn spans_enabled(self) -> bool {
        self >= TraceLevel::Spans
    }

    /// The canonical lowercase name (`off`, `counters`, `spans`).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Counters => "counters",
            TraceLevel::Spans => "spans",
        }
    }
}

/// Telemetry configuration carried by render/experiment configs.
///
/// Deliberately `Copy` and tiny: the output *directory* is not part of it —
/// sinks are driven by whoever writes files (bench binaries, tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// What to record.
    pub level: TraceLevel,
}

impl TelemetryConfig {
    /// Telemetry fully off (the default).
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig {
            level: TraceLevel::Off,
        }
    }

    /// A configuration at `level`.
    pub fn with_level(level: TraceLevel) -> TelemetryConfig {
        TelemetryConfig { level }
    }
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig::disabled()
    }
}

/// Flight-recorder ring depth per cluster (events kept) whenever counters
/// are enabled.
pub const FLIGHT_DEPTH: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_inclusive() {
        assert!(TraceLevel::Off < TraceLevel::Counters);
        assert!(TraceLevel::Counters < TraceLevel::Spans);
        assert!(!TraceLevel::Off.counters_enabled());
        assert!(TraceLevel::Counters.counters_enabled());
        assert!(!TraceLevel::Counters.spans_enabled());
        assert!(TraceLevel::Spans.counters_enabled());
        assert!(TraceLevel::Spans.spans_enabled());
    }

    #[test]
    fn parse_rejects_unknown_levels() {
        assert_eq!(TraceLevel::parse("spans"), Some(TraceLevel::Spans));
        assert_eq!(TraceLevel::parse(" Counters "), Some(TraceLevel::Counters));
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("bogus"), None, "typos are not off");
        assert_eq!(TraceLevel::parse("span"), None);
        assert_eq!(TraceLevel::parse(""), None);
    }

    #[test]
    fn names_round_trip() {
        for level in [TraceLevel::Off, TraceLevel::Counters, TraceLevel::Spans] {
            assert_eq!(TraceLevel::parse(level.name()), Some(level));
        }
    }

    #[test]
    fn default_is_disabled() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg.level, TraceLevel::Off);
    }
}
