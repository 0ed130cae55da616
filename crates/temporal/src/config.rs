//! Temporal-reuse configuration: the reuse mode and the thresholds it
//! selects.

use std::fmt;

/// How aggressively the tile store trades freshness for throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TemporalMode {
    /// No cross-frame reuse: every tile of every frame renders from
    /// scratch (the store still tracks frames so switching modes later
    /// starts warm).
    #[default]
    Off,
    /// Conservative reuse: sub-pixel accumulated motion only, short tile
    /// lifetimes. The default quality/throughput trade.
    On,
    /// Loose thresholds and long lifetimes: maximum reuse, bounded only by
    /// the bench's MSSIM floor.
    Aggressive,
}

impl TemporalMode {
    /// Whether reuse is disabled entirely.
    pub fn is_off(self) -> bool {
        self == TemporalMode::Off
    }
}

impl fmt::Display for TemporalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TemporalMode::Off => "off",
            TemporalMode::On => "on",
            TemporalMode::Aggressive => "aggressive",
        })
    }
}

/// Thresholds driving the per-tile reuse decision. All limits apply to the
/// *accumulated* screen-space drift since a tile's last full render, so a
/// slowly creeping camera cannot smear a tile indefinitely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalConfig {
    /// The reuse mode the thresholds below were derived from.
    pub mode: TemporalMode,
    /// Accumulated drift (pixels) at or below which a stable tile's pixels
    /// are blitted forward unchanged.
    pub reuse_px: f32,
    /// Accumulated drift (pixels) at or below which the tile's pixels are
    /// still blitted but its PATU decision summary is refreshed.
    pub repredict_px: f32,
    /// Frames a tile may survive without a full render; reaching the limit
    /// forces a rerender regardless of motion.
    pub max_age: u16,
    /// Testing hook: classify every tile `Rerender` every frame. The
    /// sequence path still runs (per-`(frame, tile)` fault keying, temporal
    /// counters), making `off` vs `on` outputs byte-comparable.
    pub force_invalidate: bool,
}

impl TemporalConfig {
    /// The canonical thresholds for `mode`.
    pub fn for_mode(mode: TemporalMode) -> TemporalConfig {
        let (reuse_px, repredict_px, max_age) = match mode {
            TemporalMode::Off => (0.0, 0.0, 0),
            TemporalMode::On => (0.15, 0.35, 16),
            TemporalMode::Aggressive => (0.8, 1.8, 64),
        };
        TemporalConfig {
            mode,
            reuse_px,
            repredict_px,
            max_age,
            force_invalidate: false,
        }
    }

    /// Reuse disabled.
    pub fn off() -> TemporalConfig {
        TemporalConfig::for_mode(TemporalMode::Off)
    }

    /// Testing hook: force every tile to rerender every frame.
    #[must_use]
    pub fn with_force_invalidate(mut self) -> TemporalConfig {
        self.force_invalidate = true;
        self
    }
}

impl Default for TemporalConfig {
    fn default() -> TemporalConfig {
        TemporalConfig::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggressive_is_looser_than_on() {
        let on = TemporalConfig::for_mode(TemporalMode::On);
        let aggressive = TemporalConfig::for_mode(TemporalMode::Aggressive);
        assert!(aggressive.reuse_px > on.reuse_px);
        assert!(aggressive.repredict_px > on.repredict_px);
        assert!(aggressive.max_age > on.max_age);
        assert!(TemporalConfig::off().mode.is_off());
        assert!(!on.force_invalidate);
        assert!(on.with_force_invalidate().force_invalidate);
    }
}
