//! Telemetry counters for distance computation.
//!
//! `dist.pairs` counts the pairwise distances
//! [`crate::DistanceMatrix::compute`] evaluates, which additionally
//! records a per-pair latency histogram under `dist.pair_ms` when a sink
//! is installed.

use traj_obs::Counter;

/// Pairwise distances requested from [`crate::DistanceMatrix::compute`]
/// (cumulative over the process).
pub static DIST_PAIRS: Counter = Counter::new("dist.pairs");

/// Every counter this crate maintains, for bulk snapshotting.
pub fn counters() -> [&'static Counter; 1] {
    [&DIST_PAIRS]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_namespaced() {
        assert_eq!(DIST_PAIRS.name(), "dist.pairs");
        assert_eq!(counters().len(), 1);
    }
}
