//! Test-only fault injection for the training pipeline.
//!
//! Compiled only with the `fault-injection` cargo feature; production
//! builds carry none of this code. A [`FaultPlan`] is installed on a model
//! with [`crate::E2dtc::set_fault_plan`] and consulted from two seams:
//!
//! - **Loss poisoning** — the `E2dtc` training step routes every batch
//!   loss through the plan, which can replace chosen batches' losses with
//!   NaN. This exercises the [`traj_nn::NonFiniteGuard`] skip and rollback
//!   paths without relying on genuine numerical blow-ups.
//! - **Save faults** — `E2dtc::save_checkpoint` asks the plan whether the
//!   current save should fail. [`SaveFault::Kill`] dies "mid-write": a
//!   partial temp file is left behind and the target path is never
//!   touched, proving the atomic-rename protocol keeps the last good
//!   checkpoint intact. [`SaveFault::Torn`] simulates a non-atomic
//!   writer / post-crash filesystem: a truncated blob lands at the final
//!   path, which `E2dtc::resume` must detect (checksum) and fall back
//!   past.
//!
//! Faults are addressed by *counter*: the plan counts batches and saves as
//! the seams consult it, and fires when a counter hits a scheduled index.
//! Counters make plans deterministic under the deterministic training
//! loop, so tests can target e.g. "the 3rd batch of the 2nd epoch".

/// How a scheduled checkpoint save should fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaveFault {
    /// Write only this many bytes of the encoded checkpoint *at the final
    /// path* (simulating a torn, non-atomic write surviving a crash).
    Torn(usize),
    /// Abort mid-write: leave a partial temp file, never touch the final
    /// path, and return an I/O error (simulating a crash or full disk
    /// during the atomic protocol).
    Kill,
}

/// Deterministic schedule of injected training faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    nan_loss_batches: Vec<usize>,
    save_faults: Vec<(usize, SaveFault)>,
    batches_seen: usize,
    saves_seen: usize,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules NaN losses for the given global batch indices (counting
    /// every training batch the model processes, across epochs and
    /// phases).
    pub fn poison_loss_at(mut self, batches: &[usize]) -> Self {
        self.nan_loss_batches.extend_from_slice(batches);
        self
    }

    /// Schedules NaN losses for `len` consecutive batches starting at
    /// global batch index `start` — enough consecutive poison trips the
    /// guard's rollback patience.
    pub fn poison_loss_run(mut self, start: usize, len: usize) -> Self {
        self.nan_loss_batches.extend(start..start + len);
        self
    }

    /// Schedules the `save_idx`-th checkpoint save (0-based) to leave a
    /// torn `keep_bytes`-byte file at the final path.
    pub fn tear_save(mut self, save_idx: usize, keep_bytes: usize) -> Self {
        self.save_faults.push((save_idx, SaveFault::Torn(keep_bytes)));
        self
    }

    /// Schedules the `save_idx`-th checkpoint save (0-based) to die
    /// mid-write without touching the final path.
    pub fn kill_save(mut self, save_idx: usize) -> Self {
        self.save_faults.push((save_idx, SaveFault::Kill));
        self
    }

    /// Counts one training batch; true when its loss must become NaN.
    pub(crate) fn poison_next_loss(&mut self) -> bool {
        let idx = self.batches_seen;
        self.batches_seen += 1;
        self.nan_loss_batches.contains(&idx)
    }

    /// Counts one checkpoint save; returns the fault scheduled for it.
    pub(crate) fn next_save_fault(&mut self) -> Option<SaveFault> {
        let idx = self.saves_seen;
        self.saves_seen += 1;
        self.save_faults.iter().find(|(i, _)| *i == idx).map(|&(_, f)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_fires_on_scheduled_batches_only() {
        let mut plan = FaultPlan::new().poison_loss_at(&[1, 3]);
        let fired: Vec<bool> = (0..5).map(|_| plan.poison_next_loss()).collect();
        assert_eq!(fired, vec![false, true, false, true, false]);
    }

    #[test]
    fn poison_run_covers_consecutive_batches() {
        let mut plan = FaultPlan::new().poison_loss_run(2, 3);
        let fired: Vec<bool> = (0..6).map(|_| plan.poison_next_loss()).collect();
        assert_eq!(fired, vec![false, false, true, true, true, false]);
    }

    #[test]
    fn save_faults_address_by_save_index() {
        let mut plan = FaultPlan::new().tear_save(1, 64).kill_save(2);
        assert_eq!(plan.next_save_fault(), None);
        assert_eq!(plan.next_save_fault(), Some(SaveFault::Torn(64)));
        assert_eq!(plan.next_save_fault(), Some(SaveFault::Kill));
        assert_eq!(plan.next_save_fault(), None);
    }
}
