//! Kernel-level telemetry counters.
//!
//! The hot paths of this crate (matmul micro-kernels, GRU cell steps,
//! Adam updates) cannot afford spans — a span takes two clock reads and
//! an event per call. What they *can* afford is a relaxed atomic add per
//! kernel invocation, which is noise next to the thousands of FLOPs each
//! call performs. These statics are always on; sinks receive snapshots
//! when a run harness calls [`counters`] and hands them to a
//! `traj_obs::Recorder`.
//!
//! Values are cumulative per process, so two snapshots bracket a region:
//! `matmul FLOPs of fit = snapshot_after - snapshot_before`.

use traj_obs::Counter;

/// Matrix-product kernel invocations (all of `matmul`/`matmul_tn` and
/// their accumulate variants).
pub static MATMUL_CALLS: Counter = Counter::new("nn.matmul_calls");

/// Floating-point operations issued by matrix-product kernels
/// (`2·m·k·n` per call).
pub static MATMUL_FLOPS: Counter = Counter::new("nn.matmul_flops");

/// Single-layer GRU cell recurrence steps.
pub static GRU_CELL_STEPS: Counter = Counter::new("nn.gru_cell_steps");

/// Batch rows the GRU cell kernel computed, summed over its steps. Rows of
/// sequences that have already ended are not computed, so
/// `gru_cell_rows / (gru_cell_steps · batch)` is the share of live rows.
pub static GRU_CELL_ROWS: Counter = Counter::new("nn.gru_cell_rows");

/// Adam optimizer updates applied.
pub static ADAM_STEPS: Counter = Counter::new("nn.adam_steps");

/// Every counter this crate maintains, for bulk snapshotting.
pub fn counters() -> [&'static Counter; 5] {
    [
        &MATMUL_CALLS,
        &MATMUL_FLOPS,
        &GRU_CELL_STEPS,
        &GRU_CELL_ROWS,
        &ADAM_STEPS,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn matmul_bumps_call_and_flop_counters() {
        let calls0 = MATMUL_CALLS.get();
        let flops0 = MATMUL_FLOPS.get();
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0], vec![6.0]]);
        let _ = a.matmul(&b);
        assert_eq!(MATMUL_CALLS.get() - calls0, 1);
        // 2 * m * k * n = 2 * 2 * 2 * 1 = 8 FLOPs.
        assert_eq!(MATMUL_FLOPS.get() - flops0, 8);
    }

    #[test]
    fn counter_names_are_namespaced() {
        for c in counters() {
            assert!(c.name().starts_with("nn."), "{}", c.name());
        }
    }
}
