//! Fully-connected layer.

use crate::init::Init;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use rand::Rng;

/// `y = x @ W + b` with `W: (in, out)`, `b: (1, out)`.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    weight: ParamId,
    bias: Option<ParamId>,
}

impl Linear {
    /// Registers a Xavier-initialized linear layer in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let weight =
            store.add_init(format!("{name}.weight"), in_dim, out_dim, Init::XavierUniform, rng);
        let bias = bias.then(|| store.add_init(format!("{name}.bias"), 1, out_dim, Init::Zeros, rng));
        Self { weight, bias }
    }

    /// Forward pass for a `(batch, in)` input, producing `(batch, out)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        debug_assert_eq!(
            tape.value(x).cols(),
            store.get(self.weight).rows(),
            "linear input width mismatch"
        );
        let w = tape.param(store, self.weight);
        let y = tape.matmul(x, w);
        match self.bias {
            Some(b) => {
                let bv = tape.param(store, b);
                tape.add_row_broadcast(y, bv)
            }
            None => y,
        }
    }

    /// Weight parameter handle.
    pub fn weight(&self) -> ParamId {
        self.weight
    }

    /// Bias parameter handle, if the layer has one.
    pub fn bias(&self) -> Option<ParamId> {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 3, 2, true, &mut rng);
        // Make the weights deterministic for the check.
        *store.get_mut(layer.weight()) =
            Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        *store.get_mut(layer.bias().expect("bias enabled")) = Tensor::row_vector(vec![10.0, 20.0]);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(&[vec![1.0, 2.0, 3.0]]));
        let y = layer.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).data(), &[14.0, 25.0]);
    }

    #[test]
    fn no_bias_variant_skips_bias_param() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 4, 4, false, &mut rng);
        assert!(layer.bias().is_none());
        assert_eq!(store.len(), 1);
    }
}
