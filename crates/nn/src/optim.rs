//! Optimizers.
//!
//! The paper trains with "Adam stochastic gradient descent with an initial
//! learning rate of 0.0001" and clips gradients to a maximum global norm of
//! 5 (§VII-B). [`Adam`] implements exactly that recipe.

use crate::params::ParamStore;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Adam optimizer (Kingma & Ba, 2014) with optional global-norm clipping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Max global gradient norm; `None` disables clipping.
    max_grad_norm: Option<f32>,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and the
    /// standard (0.9, 0.999, 1e-8) moment hyper-parameters.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            max_grad_norm: None,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Enables global-norm gradient clipping.
    pub fn with_max_grad_norm(mut self, max_norm: f32) -> Self {
        self.max_grad_norm = Some(max_norm);
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update using the gradients accumulated in `store`, then
    /// zeroes them. Returns the (pre-clip) global gradient norm.
    pub fn step(&mut self, store: &mut ParamStore) -> f32 {
        // Lazily size the moment buffers; parameters may have been added
        // after the optimizer was constructed.
        while self.m.len() < store.len() {
            let id = crate::params::ParamId(self.m.len());
            let (r, c) = store.get(id).shape();
            self.m.push(Tensor::zeros(r, c));
            self.v.push(Tensor::zeros(r, c));
        }

        crate::telemetry::ADAM_STEPS.inc();
        let pre_clip_norm = match self.max_grad_norm {
            Some(max) => store.clip_grad_norm(max),
            None => store.grad_global_norm(),
        };

        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);

        for id in store.ids().collect::<Vec<_>>() {
            let idx = id.index();
            // Move grad out to appease the borrow checker (single pass).
            let grad = std::mem::replace(
                store.grad_mut(id),
                Tensor::zeros(0, 0),
            );
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            let param = store.get_mut(id);
            for ((p, &g), (mi, vi)) in param
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            // Restore a zeroed gradient buffer of the right shape.
            let (r, c) = store.get(id).shape();
            *store.grad_mut(id) = Tensor::zeros(r, c);
        }
        pre_clip_norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimize f(w) = (w - 3)^2 by feeding grad = 2(w - 3).
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(1, 1, vec![0.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let w = store.get(id).get(0, 0);
            store.grad_mut(id).set(0, 0, 2.0 * (w - 3.0));
            opt.step(&mut store);
        }
        let w = store.get(id).get(0, 0);
        assert!((w - 3.0).abs() < 0.05, "converged to {w}, expected 3");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(1, 1, vec![1.0]));
        store.grad_mut(id).set(0, 0, 1.0);
        let mut opt = Adam::new(0.01);
        opt.step(&mut store);
        assert_eq!(store.grad(id).get(0, 0), 0.0);
    }

    #[test]
    fn clipping_reports_preclip_norm() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(1, 2, vec![0.0, 0.0]));
        store.grad_mut(id).set(0, 0, 30.0);
        store.grad_mut(id).set(0, 1, 40.0);
        let mut opt = Adam::new(0.01).with_max_grad_norm(5.0);
        let norm = opt.step(&mut store);
        assert!((norm - 50.0).abs() < 1e-4);
    }

    #[test]
    fn params_added_after_construction_are_tracked() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(1, 1, vec![0.0]));
        let mut opt = Adam::new(0.1);
        store.grad_mut(a).set(0, 0, 1.0);
        opt.step(&mut store);
        let b = store.add("b", Tensor::from_vec(1, 1, vec![0.0]));
        store.grad_mut(b).set(0, 0, 1.0);
        opt.step(&mut store); // must not panic and must update b
        assert!(store.get(b).get(0, 0) < 0.0);
    }
}
