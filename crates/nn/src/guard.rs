//! Non-finite training guards.
//!
//! DEC-style self-training objectives are numerically touchy: one NaN
//! batch poisons every parameter it touches and silently destroys the
//! whole pretrain + self-training investment. [`NonFiniteGuard`] sits
//! between `backward` and the optimizer step: it inspects the batch loss
//! and every accumulated gradient, and tells the training loop whether to
//! apply the update ([`GuardVerdict::Proceed`]), drop the poisoned update
//! ([`GuardVerdict::Skip`]), or — after too many consecutive poisoned
//! batches — restore the last known-good parameter snapshot
//! ([`GuardVerdict::Rollback`]).
//!
//! The guard itself never mutates parameters; skipping and rolling back
//! are the caller's job (it owns the snapshot). This keeps the guard a
//! pure detector that any training loop can adopt.

use crate::params::ParamStore;

/// What the training loop should do with the current batch's update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardVerdict {
    /// Loss and gradients are finite: apply the optimizer step.
    Proceed,
    /// Non-finite loss or gradient: zero the gradients and skip the step.
    Skip,
    /// `patience` consecutive poisoned batches: restore the last good
    /// snapshot (and back off the learning rate) before continuing.
    Rollback,
}

/// Per-batch NaN/Inf detector with consecutive-trip escalation.
#[derive(Clone, Debug)]
pub struct NonFiniteGuard {
    /// Consecutive poisoned batches that trigger a rollback; `0` disables
    /// escalation (the guard only ever skips).
    patience: usize,
    consecutive: usize,
}

impl NonFiniteGuard {
    /// Creates a guard that requests a rollback after `patience`
    /// consecutive non-finite batches (`0` = skip-only, never roll back).
    pub fn new(patience: usize) -> Self {
        Self { patience, consecutive: 0 }
    }

    /// Inspects one batch: `loss` is the scalar training loss, `store`
    /// holds the gradients accumulated by `backward`. Must be called
    /// after `backward` and before the optimizer step.
    pub fn observe(&mut self, loss: f32, store: &ParamStore) -> GuardVerdict {
        if loss.is_finite() && !store.grads_non_finite() {
            self.consecutive = 0;
            return GuardVerdict::Proceed;
        }
        self.consecutive += 1;
        if self.patience > 0 && self.consecutive >= self.patience {
            self.consecutive = 0;
            GuardVerdict::Rollback
        } else {
            GuardVerdict::Skip
        }
    }

    /// Clears the consecutive-trip counter (call after restoring a
    /// snapshot, so the replayed epoch starts with a clean slate).
    pub fn reset_streak(&mut self) {
        self.consecutive = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn store_with_grad(g: f32) -> ParamStore {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(1, 1));
        store.grad_mut(id).set(0, 0, g);
        store
    }

    #[test]
    fn finite_batch_proceeds() {
        let mut guard = NonFiniteGuard::new(3);
        let store = store_with_grad(0.5);
        assert_eq!(guard.observe(1.0, &store), GuardVerdict::Proceed);
    }

    #[test]
    fn nan_loss_skips() {
        let mut guard = NonFiniteGuard::new(3);
        let store = store_with_grad(0.5);
        assert_eq!(guard.observe(f32::NAN, &store), GuardVerdict::Skip);
    }

    #[test]
    fn inf_gradient_skips_even_with_finite_loss() {
        let mut guard = NonFiniteGuard::new(3);
        let store = store_with_grad(f32::INFINITY);
        assert_eq!(guard.observe(1.0, &store), GuardVerdict::Skip);
    }

    #[test]
    fn patience_trips_rollback_and_resets() {
        let mut guard = NonFiniteGuard::new(3);
        let store = store_with_grad(0.5);
        assert_eq!(guard.observe(f32::NAN, &store), GuardVerdict::Skip);
        assert_eq!(guard.observe(f32::NAN, &store), GuardVerdict::Skip);
        assert_eq!(guard.observe(f32::NAN, &store), GuardVerdict::Rollback);
        // Streak restarts after the rollback.
        assert_eq!(guard.observe(f32::NAN, &store), GuardVerdict::Skip);
    }

    #[test]
    fn finite_batch_breaks_the_streak() {
        let mut guard = NonFiniteGuard::new(2);
        let store = store_with_grad(0.5);
        assert_eq!(guard.observe(f32::NAN, &store), GuardVerdict::Skip);
        assert_eq!(guard.observe(1.0, &store), GuardVerdict::Proceed);
        assert_eq!(guard.observe(f32::NAN, &store), GuardVerdict::Skip);
        assert_eq!(guard.observe(f32::NAN, &store), GuardVerdict::Rollback);
    }

    #[test]
    fn zero_patience_never_rolls_back() {
        let mut guard = NonFiniteGuard::new(0);
        let store = store_with_grad(0.5);
        for _ in 0..10 {
            assert_eq!(guard.observe(f32::NAN, &store), GuardVerdict::Skip);
        }
    }
}
