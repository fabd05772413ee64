//! Luong-style dot-product attention (Luong, Pham, Manning — EMNLP 2015).
//!
//! An optional decoder enhancement for the seq2seq model (not used by the
//! E²DTC paper itself; provided as the natural extension — follow-up
//! trajectory-representation work such as Liu et al. TKDE'20 adds
//! attention to the t2vec architecture):
//!
//! ```text
//! score_t = h_dec · h_enc_t            (per batch row)
//! α       = softmax(score_1 … score_T)
//! context = Σ_t α_t · h_enc_t
//! h~      = tanh(W_c [context | h_dec])
//! ```

use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use rand::Rng;

/// Dot-product attention with the Luong output projection.
#[derive(Clone, Copy, Debug)]
pub struct DotAttention {
    combine: super::Linear,
    hidden: usize,
}

impl DotAttention {
    /// Registers the `W_c: (2·hidden, hidden)` combination projection.
    pub fn new(store: &mut ParamStore, name: &str, hidden: usize, rng: &mut impl Rng) -> Self {
        let combine =
            super::Linear::new(store, &format!("{name}.combine"), 2 * hidden, hidden, false, rng);
        Self { combine, hidden }
    }

    /// One attention step: attends `query` (`(batch, hidden)`) over the
    /// encoder outputs (`T` tensors of `(batch, hidden)`), returning the
    /// attentional hidden state `h~` of the same shape.
    ///
    /// # Panics
    /// Panics on an empty encoder sequence or width mismatch.
    pub fn attend(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        query: Var,
        encoder_outputs: &[Var],
    ) -> Var {
        assert!(!encoder_outputs.is_empty(), "attention needs encoder outputs");
        assert_eq!(tape.value(query).cols(), self.hidden, "query width mismatch");

        // Scores: rowwise dot products, assembled into (batch, T).
        let mut scores: Option<Var> = None;
        for &h_enc in encoder_outputs {
            let prod = tape.hadamard(query, h_enc);
            let s = tape.row_sum(prod); // (batch, 1)
            scores = Some(match scores {
                Some(acc) => tape.concat_cols(acc, s),
                None => s,
            });
        }
        let scores = scores.expect("non-empty");
        let alpha = tape.softmax(scores); // (batch, T)

        // Context: Σ_t α_t ⊙ h_enc_t.
        let mut context: Option<Var> = None;
        for (t, &h_enc) in encoder_outputs.iter().enumerate() {
            let a_t = tape.slice_cols(alpha, t, t + 1); // (batch, 1)
            let weighted = tape.col_broadcast_mul(h_enc, a_t);
            context = Some(match context {
                Some(acc) => tape.add(acc, weighted),
                None => weighted,
            });
        }
        let context = context.expect("non-empty");

        // h~ = tanh(W_c [context | query])
        let cat = tape.concat_cols(context, query);
        let proj = self.combine.forward(tape, store, cat);
        tape.tanh(proj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(hidden: usize) -> (ParamStore, DotAttention, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let attn = DotAttention::new(&mut store, "attn", hidden, &mut rng);
        (store, attn, rng)
    }

    #[test]
    fn output_shape_matches_query() {
        let (store, attn, mut rng) = setup(6);
        let mut tape = Tape::new();
        let q = tape.constant(Init::Normal(0.5).tensor(3, 6, &mut rng));
        let enc: Vec<Var> = (0..4)
            .map(|_| tape.constant(Init::Normal(0.5).tensor(3, 6, &mut rng)))
            .collect();
        let out = attn.attend(&mut tape, &store, q, &enc);
        assert_eq!(tape.value(out).shape(), (3, 6));
    }

    #[test]
    fn attention_weights_favor_the_matching_timestep() {
        // With a single strong match, the context should be dominated by
        // that encoder state. We verify indirectly: the attended output
        // differs sharply between a query matching step 0 vs step 2.
        let (store, attn, _) = setup(2);
        let mut tape = Tape::new();
        let e0 = tape.constant(Tensor::from_rows(&[vec![5.0, 0.0]]));
        let e1 = tape.constant(Tensor::from_rows(&[vec![0.0, 5.0]]));
        let q0 = tape.constant(Tensor::from_rows(&[vec![5.0, 0.0]]));
        let q1 = tape.constant(Tensor::from_rows(&[vec![0.0, 5.0]]));
        let o0 = attn.attend(&mut tape, &store, q0, &[e0, e1]);
        let o1 = attn.attend(&mut tape, &store, q1, &[e0, e1]);
        let diff: f32 = tape
            .value(o0)
            .data()
            .iter()
            .zip(tape.value(o1).data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "attention output insensitive to the query");
    }

    #[test]
    fn single_timestep_attention_is_fully_concentrated() {
        let (store, attn, mut rng) = setup(4);
        let mut tape = Tape::new();
        let q = tape.constant(Init::Normal(0.5).tensor(2, 4, &mut rng));
        let e = tape.constant(Init::Normal(0.5).tensor(2, 4, &mut rng));
        // With one timestep, softmax gives weight 1 — output = tanh(W[e|q]).
        let out = attn.attend(&mut tape, &store, q, &[e]);
        let cat = tape.concat_cols(e, q);
        let proj = attn.combine.forward(&mut tape, &store, cat);
        let expect = tape.tanh(proj);
        assert_eq!(tape.value(out), tape.value(expect));
    }

    #[test]
    #[should_panic(expected = "needs encoder outputs")]
    fn empty_encoder_sequence_panics() {
        let (store, attn, mut rng) = setup(4);
        let mut tape = Tape::new();
        let q = tape.constant(Init::Normal(0.5).tensor(2, 4, &mut rng));
        let _ = attn.attend(&mut tape, &store, q, &[]);
    }
}
