//! Trainable-parameter storage.
//!
//! Parameters live outside the autograd [`Tape`](crate::tape::Tape) so that a
//! fresh tape can be built per mini-batch while the weights (and their
//! accumulated gradients / optimizer state) persist across steps.

use crate::init::Init;
use crate::tensor::Tensor;
use rand::Rng;

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index of the parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Container for all trainable tensors of a model plus their gradients.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    params: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tensor as a trainable parameter.
    pub fn add(&mut self, name: impl Into<String>, tensor: Tensor) -> ParamId {
        let id = ParamId(self.params.len());
        self.grads.push(Tensor::zeros(tensor.rows(), tensor.cols()));
        self.params.push(tensor);
        self.names.push(name.into());
        id
    }

    /// Registers a randomly-initialized parameter.
    pub fn add_init(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        init: Init,
        rng: &mut impl Rng,
    ) -> ParamId {
        self.add(name, init.tensor(rows, cols, rng))
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(Tensor::len).sum()
    }

    /// Immutable access to a parameter value.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutable access to a parameter value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// Immutable access to a parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Mutable access to a parameter's accumulated gradient.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0]
    }

    /// Name given at registration time.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// All parameter handles in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Resets every gradient to zero. Call once per optimization step.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill(0.0);
        }
    }

    /// Global L2 norm over all gradients (used for max-norm clipping).
    pub fn grad_global_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.data().iter().map(|&x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// True when any accumulated gradient holds a NaN or infinity.
    pub fn grads_non_finite(&self) -> bool {
        self.grads.iter().any(Tensor::has_non_finite)
    }

    /// Name of the first parameter whose *value* holds a NaN or infinity,
    /// if any (used to validate loaded checkpoints).
    pub fn first_non_finite_param(&self) -> Option<&str> {
        self.params
            .iter()
            .position(Tensor::has_non_finite)
            .map(|i| self.names[i].as_str())
    }

    /// Scales every gradient so the global norm does not exceed `max_norm`.
    ///
    /// This is the "clip the gradients by enforcing a maximum gradient norm
    /// constraint" step from the paper's training parameters (set to 5).
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_global_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for g in &mut self.grads {
                for x in g.data_mut() {
                    *x *= scale;
                }
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_roundtrip() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_rows(&[vec![1.0, 2.0]]));
        assert_eq!(store.get(id).get(0, 1), 2.0);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.grad(id).shape(), (1, 2));
        assert_eq!(store.num_scalars(), 2);
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(1, 2));
        store.grad_mut(id).set(0, 0, 3.0);
        store.zero_grads();
        assert_eq!(store.grad(id).get(0, 0), 0.0);
    }

    #[test]
    fn clip_grad_norm_scales_to_max() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(1, 2));
        store.grad_mut(id).set(0, 0, 3.0);
        store.grad_mut(id).set(0, 1, 4.0);
        let pre = store.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((store.grad_global_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_is_noop_under_threshold() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(1, 1));
        store.grad_mut(id).set(0, 0, 0.5);
        store.clip_grad_norm(5.0);
        assert_eq!(store.grad(id).get(0, 0), 0.5);
    }
}
