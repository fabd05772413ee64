//! Fully-connected layer, used as the decoder's vocabulary projection.

use crate::init::Init;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use rand::Rng;

/// `y = x @ W + b` with `W: (in, out)`, `b: (1, out)`, scored by a softmax
/// NLL in the same tape node ([`Linear::softmax_nll`]).
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
}

impl Linear {
    /// Registers a Xavier-initialized linear layer in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weight =
            store.add_init(format!("{name}.weight"), in_dim, out_dim, Init::XavierUniform, rng);
        let bias = store.add_init(format!("{name}.bias"), 1, out_dim, Init::Zeros, rng);
        Self { weight, bias }
    }

    /// The decoder output layer of one step as one tape node: the
    /// spatial-proximity-aware softmax NLL (paper Eq. 8) of
    /// `p = softmax(h W + b)` on the `live` rows of the `(batch, in)` input
    /// `h` (all rows when `None`). `targets` holds one sparse
    /// `(column, weight)` distribution `w` per live row, in `live` order:
    /// the kNN cell weights of that row's ground-truth cell. Returns the
    /// scalar mean over the live rows of `−Σ_j w_j · log p_j`; rows outside
    /// `live` get no gradient. With each `w` summing to 1 the gradient
    /// w.r.t. the logits is `p − w`, standard cross-entropy when `w` is
    /// one-hot (the α → 0 limit in the paper).
    pub fn softmax_nll(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: Var,
        live: Option<&[usize]>,
        targets: Vec<Vec<(usize, f32)>>,
    ) -> Var {
        debug_assert_eq!(
            tape.value(h).cols(),
            store.get(self.weight).rows(),
            "linear input width mismatch"
        );
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        tape.projected_softmax_nll(h, w, b, live, targets)
    }

    /// Weight parameter handle.
    pub fn weight(&self) -> ParamId {
        self.weight
    }

    /// Bias parameter handle.
    pub fn bias(&self) -> ParamId {
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
        let layer = Linear::new(&mut store, "fc", 3, 2, &mut rng);
        // Make the weights deterministic for the check.
        *store.get_mut(layer.weight()) =
            Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        *store.get_mut(layer.bias()) = Tensor::row_vector(vec![10.0, 20.0]);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(&[vec![9.0, 9.0, 9.0], vec![1.0, 2.0, 3.0]]));
        // Only row 1 is live: its logits are [14, 25], so the NLL of
        // column 0 is 11 + ln(1 + e^-11).
        let loss = layer.softmax_nll(&mut tape, &store, x, Some(&[1]), vec![vec![(0, 1.0)]]);
        assert_eq!(tape.value(loss).shape(), (1, 1));
        let want = 11.0 + (-11.0f32).exp().ln_1p();
        assert!((tape.value(loss).get(0, 0) - want).abs() < 1e-5, "{:?}", tape.value(loss));
    }
}
