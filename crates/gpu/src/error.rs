//! Typed errors for the GPU timing/memory model.
//!
//! Constructors and configuration entry points return these instead of
//! panicking, so adversarial configs surface as recoverable errors at the
//! API boundary rather than aborting a frame loop.

use std::fmt;

/// Errors raised by the GPU model's configuration and construction paths.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuError {
    /// A cache cannot be built from the given geometry: every parameter
    /// must be positive, `size_bytes` must hold at least one full set, and
    /// each way must span at least two bytes.
    InvalidCacheGeometry {
        /// Requested capacity in bytes.
        size_bytes: u64,
        /// Requested associativity.
        ways: u32,
        /// Requested line size in bytes.
        line_size: u64,
    },
    /// A configuration field the model divides by was zero.
    InvalidConfig {
        /// The `GpuConfig` field.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A cluster index exceeded the configured cluster count.
    ClusterOutOfRange {
        /// The offending index.
        cluster: usize,
        /// The configured number of clusters.
        clusters: usize,
    },
    /// A fault-injection rate was not a finite probability in `[0, 1]`.
    InvalidFaultRate {
        /// Which rate field was invalid.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::InvalidCacheGeometry {
                size_bytes,
                ways,
                line_size,
            } => write!(
                f,
                "invalid cache geometry: {size_bytes} bytes, {ways} ways, \
                 {line_size}-byte lines (need positive parameters, at \
                 least one full set and ways of at least 2 bytes)"
            ),
            GpuError::InvalidConfig { field, value } => {
                write!(
                    f,
                    "GPU config field `{field}` must be positive, got {value}"
                )
            }
            GpuError::ClusterOutOfRange { cluster, clusters } => {
                write!(f, "cluster {cluster} out of range (have {clusters})")
            }
            GpuError::InvalidFaultRate { name, value } => {
                write!(f, "fault rate `{name}` must be in [0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        let e = GpuError::InvalidCacheGeometry {
            size_bytes: 64,
            ways: 4,
            line_size: 64,
        };
        assert!(e.to_string().contains("cache geometry"));
        let e = GpuError::ClusterOutOfRange {
            cluster: 9,
            clusters: 4,
        };
        assert!(e.to_string().contains("cluster 9"));
        let e = GpuError::InvalidConfig {
            field: "address_alus",
            value: 0,
        };
        assert!(e.to_string().contains("address_alus"));
        let e = GpuError::InvalidFaultRate {
            name: "cache_bitflip_rate",
            value: 2.0,
        };
        assert!(e.to_string().contains("cache_bitflip_rate"));
    }

    #[test]
    fn implements_error_trait() {
        let e: Box<dyn std::error::Error> = Box::new(GpuError::ClusterOutOfRange {
            cluster: 1,
            clusters: 1,
        });
        assert!(!e.to_string().is_empty());
    }
}
