//! Reverse-mode automatic differentiation on a tape of 2-D tensors.
//!
//! A [`Tape`] records a dynamic computation graph: every operation appends a
//! node holding its forward value and an op descriptor naming its inputs.
//! [`Tape::backward`] walks the nodes in reverse, accumulating gradients, and
//! finally scatters gradients of parameter nodes back into the
//! [`ParamStore`]. A fresh tape is built per mini-batch; parameters persist
//! in the store across batches.
//!
//! Ops are a closed enum (rather than boxed closures) so the backward pass
//! is a single exhaustive `match` — easy to audit and to test op-by-op with
//! finite differences (see `crate::gradcheck`).
//!
//! One op is fused: a GRU cell step is one node whose value comes from the
//! kernel the tape-free eval forward runs and whose backward lives beside
//! that kernel in `layers::gru`. In a ragged batch the node computes only
//! its live rows, forward and backward; its value and gradients are
//! full-batch tensors, with ended rows passing `h` and its gradient
//! through unchanged.

use crate::layers::{gru, GruCell};
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::borrow::Cow;
use std::collections::HashMap;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// One recorded operation. Inputs are earlier tape nodes.
enum Op {
    /// Constant input; no gradient flows into it.
    Constant,
    /// Trainable parameter; gradient is scattered into the store.
    Param(ParamId),
    /// `a @ b`
    MatMul(Var, Var),
    /// `a + b` (same shape)
    Add(Var, Var),
    /// `a - b` (same shape)
    Sub(Var, Var),
    /// matrix + row-vector broadcast over rows
    AddRowBroadcast(Var, Var),
    /// element-wise product
    Hadamard(Var, Var),
    /// `mul * a + add` element-wise
    Affine { a: Var, mul: f32 },
    /// logistic sigmoid
    Sigmoid(Var),
    /// hyperbolic tangent
    Tanh(Var),
    /// row gather (embedding lookup)
    GatherRows { table: Var, indices: Vec<usize> },
    /// mean over all elements, producing `(1, 1)`
    MeanAll(Var),
    /// sum over all elements, producing `(1, 1)`
    SumAll(Var),
    /// Spatial-proximity-aware softmax NLL (paper Eq. 8). For each row of
    /// `logits`, `targets[row]` is a sparse distribution over columns
    /// (the kNN cell weights `w`). Loss = mean over rows of
    /// `-Σ_j w_j · log softmax(logits)_j`. `probs` caches the forward
    /// softmax for the backward pass.
    WeightedSoftmaxNll { logits: Var, targets: Vec<Vec<(usize, f32)>>, probs: Tensor },
    /// DEC clustering loss `KL(P ‖ Q)` with Student-t soft assignment
    /// (paper Eqs. 9–11). Differentiable w.r.t. both the embeddings `v`
    /// (n × d) and the centroids `c` (k × d). `q` caches the forward
    /// soft assignment.
    DecKl { v: Var, c: Var, p: Tensor, q: Tensor },
    /// Triplet margin loss (paper Eq. 13) over row-aligned anchor /
    /// positive / negative matrices; mean over rows.
    Triplet { anchor: Var, positive: Var, negative: Var, active: Vec<bool> },
    /// One GRU cell step (see [`Tape::gru_cell`]), caching the gates
    /// `[r | z | n]` and `gh = h W_h + b_h` of the live rows (all rows when
    /// `live` is `None`).
    GruCell {
        x: Var,
        h: Var,
        w_x: Var,
        w_h: Var,
        b_x: Var,
        b_h: Var,
        gates: Tensor,
        gh: Tensor,
        live: Option<Vec<usize>>,
    },
}

struct Node {
    value: Tensor,
    op: Op,
}

/// A dynamic reverse-mode autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// One node per parameter per tape, so a parameter used in many ops
    /// (e.g. the decoder projection at each timestep) is cloned only once.
    param_nodes: HashMap<ParamId, Var>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Empties the tape for reuse while keeping the node buffer's
    /// allocation, so building one graph per mini-batch stops re-growing
    /// the vector from scratch every step. Any [`Var`] handle issued
    /// before the call is invalidated.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.param_nodes.clear();
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        debug_assert!(!value.has_non_finite(), "non-finite forward value");
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Records a constant (non-trainable) input.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Constant)
    }

    /// Records (or reuses) a parameter node.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.param_nodes.get(&id) {
            return v;
        }
        let v = self.push(store.get(id).clone(), Op::Param(id));
        self.param_nodes.insert(id, v);
        v
    }

    /// `a @ b`
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul(a, b))
    }

    /// `a + b` (same shape)
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// `a - b` (same shape)
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        self.push(value, Op::Sub(a, b))
    }

    /// Adds a `(1, cols)` row vector to every row of `m`.
    pub fn add_row_broadcast(&mut self, m: Var, row: Var) -> Var {
        let value = self.value(m).add_row_broadcast(self.value(row));
        self.push(value, Op::AddRowBroadcast(m, row))
    }

    /// Element-wise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).hadamard(self.value(b));
        self.push(value, Op::Hadamard(a, b))
    }

    /// `mul * a + add`, element-wise.
    pub fn affine(&mut self, a: Var, mul: f32, add: f32) -> Var {
        let value = self.value(a).map(|x| mul * x + add);
        self.push(value, Op::Affine { a, mul })
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        self.affine(a, s, 0.0)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(crate::tensor::fast_sigmoid);
        self.push(value, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(crate::tensor::fast_tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Row gather (embedding lookup): output row `i` is `table` row
    /// `indices[i]`.
    pub fn gather_rows(&mut self, table: Var, indices: &[usize]) -> Var {
        let value = self.value(table).gather_rows(indices);
        self.push(value, Op::GatherRows { table, indices: indices.to_vec() })
    }

    /// Mean over all elements, producing a `(1, 1)` scalar node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Tensor::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push(value, Op::MeanAll(a))
    }

    /// Sum over all elements, producing a `(1, 1)` scalar node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(value, Op::SumAll(a))
    }

    /// Spatial-proximity-aware softmax NLL (paper Eq. 8).
    ///
    /// `targets` holds, per row of `logits`, the sparse cell-weight
    /// distribution `w` over vocabulary columns (the kNN weights of the
    /// ground-truth cell). Each row's weights should sum to 1; the backward
    /// pass then reduces to `softmax(logits) − w`, matching standard
    /// cross-entropy when `w` is one-hot (the α→0 limit in the paper).
    ///
    /// Rows with an *empty* target list are padding: they contribute
    /// neither loss nor gradient, and the mean is taken over active rows
    /// only.
    pub fn weighted_softmax_nll(&mut self, logits: Var, targets: Vec<Vec<(usize, f32)>>) -> Var {
        let l = self.value(logits);
        assert_eq!(l.rows(), targets.len(), "one target distribution per logit row");
        let probs = l.softmax_rows();
        let mut loss = 0.0;
        let mut active = 0usize;
        for (r, tgt) in targets.iter().enumerate() {
            if tgt.is_empty() {
                continue;
            }
            active += 1;
            let p = probs.row(r);
            for &(j, w) in tgt {
                // Clamp to avoid -inf when a kNN weight lands on a ~0 prob.
                loss -= w * p[j].max(1e-12).ln();
            }
        }
        let n = active.max(1) as f32;
        let value = Tensor::from_vec(1, 1, vec![loss / n]);
        self.push(value, Op::WeightedSoftmaxNll { logits, targets, probs })
    }

    /// DEC clustering loss `L_c = KL(P ‖ Q)` (paper Eqs. 9–11).
    ///
    /// `v` is the `(n, d)` embedding matrix, `c` the `(k, d)` centroid
    /// matrix, and `p` the fixed `(n, k)` target distribution (computed from
    /// a detached `Q` via [`target_distribution`]). Returns the scalar loss.
    pub fn dec_kl(&mut self, v: Var, c: Var, p: Tensor) -> Var {
        let q = student_t_assignment(self.value(v), self.value(c));
        assert_eq!(p.shape(), q.shape(), "P/Q shape mismatch");
        let mut loss = 0.0;
        for (pi, qi) in p.data().iter().zip(q.data()) {
            if *pi > 0.0 {
                loss += pi * (pi / qi.max(1e-12)).ln();
            }
        }
        let value = Tensor::from_vec(1, 1, vec![loss]);
        self.push(value, Op::DecKl { v, c, p, q })
    }

    /// Triplet margin loss (paper Eq. 13), mean over row-aligned triplets:
    /// `mean_i [ ‖a_i − p_i‖² − ‖a_i − n_i‖² + margin ]₊`.
    pub fn triplet(&mut self, anchor: Var, positive: Var, negative: Var, margin: f32) -> Var {
        let a = self.value(anchor);
        let p = self.value(positive);
        let n = self.value(negative);
        assert_eq!(a.shape(), p.shape(), "triplet shape mismatch");
        assert_eq!(a.shape(), n.shape(), "triplet shape mismatch");
        let rows = a.rows();
        let mut active = vec![false; rows];
        let mut loss = 0.0;
        for i in 0..rows {
            let dap = a.row_sq_dist(i, p, i);
            let dan = a.row_sq_dist(i, n, i);
            let l = dap - dan + margin;
            if l > 0.0 {
                active[i] = true;
                loss += l;
            }
        }
        let value = Tensor::from_vec(1, 1, vec![loss / rows.max(1) as f32]);
        self.push(value, Op::Triplet { anchor, positive, negative, active })
    }

    /// One step of `cell` as a single node: registers its parameters
    /// (`w_x`, `w_h`, `b_x`, `b_h`, in that order) and computes `h'` with the
    /// kernel [`Gru::eval_step`](crate::layers::Gru::eval_step) runs, on the
    /// `live` rows only (all rows when `None`). Other rows keep `h`.
    pub(crate) fn gru_cell(
        &mut self,
        store: &ParamStore,
        cell: &GruCell,
        x: Var,
        h: Var,
        live: Option<&[usize]>,
    ) -> Var {
        let w_x = self.param(store, cell.w_x());
        let w_h = self.param(store, cell.w_h());
        let b_x = self.param(store, cell.b_x());
        let b_h = self.param(store, cell.b_h());
        let (h_val, hd) = (self.value(h), cell.hidden_dim());
        let rows = live.map_or(h_val.rows(), <[usize]>::len);
        let mut gates = Tensor::zeros(rows, 3 * hd);
        let mut gh = Tensor::zeros(rows, 3 * hd);
        let mut out = Tensor::zeros(rows, hd);
        let (x_live, h_live) = (live_view(self.value(x), live), live_view(h_val, live));
        cell.forward_into(store, &x_live, &h_live, &mut gates, &mut gh, &mut out);
        drop((x_live, h_live));
        if let Some(live) = live {
            let mut full = self.value(h).clone();
            full.scatter_rows(&out, live);
            out = full;
        }
        let live = live.map(<[usize]>::to_vec);
        self.push(out, Op::GruCell { x, h, w_x, w_h, b_x, b_h, gates, gh, live })
    }

    /// Reverse pass from a scalar `(1, 1)` loss node.
    ///
    /// Accumulates parameter gradients into `store` (adding to whatever is
    /// already there, so several losses/batches can be accumulated before an
    /// optimizer step).
    ///
    /// # Panics
    /// Panics if `loss` is not scalar-shaped.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward expects a scalar loss");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::from_vec(1, 1, vec![1.0]));
        // Transposed right operands of matmuls, memoized per backward pass.
        // Parameters dedupe to a single node per tape, so a weight used at
        // every timestep of a recurrence is transposed once here instead of
        // once per step. `matmul(g, bᵀ)` runs the same kernel on the same
        // buffer `matmul_nt(g, b)` would build internally, bit for bit.
        let mut bt_cache: HashMap<usize, Tensor> = HashMap::new();

        for idx in (0..=loss.0).rev() {
            let Some(g) = grads[idx].take() else { continue };
            // Split borrows: the node being differentiated vs. the gradient
            // slots of its (strictly earlier) inputs.
            let node = &self.nodes[idx];
            match &node.op {
                Op::Constant => {}
                Op::Param(id) => store.grad_mut(*id).add_assign(&g),
                Op::MatMul(a, b) => {
                    matmul_backward(&self.nodes, &mut grads, &mut bt_cache, *a, *b, &g, None);
                }
                Op::Add(a, b) => {
                    accumulate_ref(&mut grads, *a, &g);
                    accumulate(&mut grads, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *b, g.scale(-1.0));
                    accumulate(&mut grads, *a, g);
                }
                Op::AddRowBroadcast(m, row) => {
                    accumulate(&mut grads, *row, g.sum_rows());
                    accumulate(&mut grads, *m, g);
                }
                Op::Hadamard(a, b) => {
                    let ga = g.hadamard(&self.nodes[b.0].value);
                    let gb = g.hadamard(&self.nodes[a.0].value);
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Affine { a, mul, .. } => {
                    accumulate(&mut grads, *a, g.scale(*mul));
                }
                Op::Sigmoid(a) => {
                    // y' = y(1-y), fused into one pass over g and y.
                    let y = &node.value;
                    let ga = g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Tanh(a) => {
                    // y' = 1 - y^2, fused into one pass over g and y.
                    let y = &node.value;
                    let ga = g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv));
                    accumulate(&mut grads, *a, ga);
                }
                Op::GatherRows { table, indices } => {
                    // Sum the gradient rows of each distinct index (in
                    // gather order, from +0) and add each sum once to its
                    // table row: the bits of adding a zeroed table-sized
                    // scatter, at O(batch · dim) instead of O(vocab · dim).
                    let t = &self.nodes[table.0].value;
                    let gt = grads[table.0]
                        .get_or_insert_with(|| Tensor::zeros(t.rows(), t.cols()));
                    let mut order: Vec<usize> = (0..indices.len()).collect();
                    order.sort_by_key(|&i| indices[i]);
                    let mut sum = vec![0.0f32; g.cols()];
                    for group in order.chunk_by(|&i, &j| indices[i] == indices[j]) {
                        sum.fill(0.0);
                        for &i in group {
                            for (s, &gv) in sum.iter_mut().zip(g.row(i)) {
                                *s += gv;
                            }
                        }
                        for (d, &s) in gt.row_mut(indices[group[0]]).iter_mut().zip(&sum) {
                            *d += s;
                        }
                    }
                }
                Op::MeanAll(a) => {
                    let src = &self.nodes[a.0].value;
                    let gv = g.get(0, 0) / src.len().max(1) as f32;
                    accumulate(&mut grads, *a, Tensor::full(src.rows(), src.cols(), gv));
                }
                Op::SumAll(a) => {
                    let src = &self.nodes[a.0].value;
                    accumulate(
                        &mut grads,
                        *a,
                        Tensor::full(src.rows(), src.cols(), g.get(0, 0)),
                    );
                }
                Op::WeightedSoftmaxNll { logits, targets, probs } => {
                    // d loss / d logits = (softmax - w) / n_active for
                    // active rows, 0 for padding rows.
                    let active = targets.iter().filter(|t| !t.is_empty()).count();
                    let gscale = g.get(0, 0) / active.max(1) as f32;
                    let mut gl = Tensor::zeros(probs.rows(), probs.cols());
                    for (r, tgt) in targets.iter().enumerate() {
                        if tgt.is_empty() {
                            continue;
                        }
                        let row = gl.row_mut(r);
                        row.copy_from_slice(probs.row(r));
                        for x in row.iter_mut() {
                            *x *= gscale;
                        }
                        for &(j, w) in tgt {
                            row[j] -= w * gscale;
                        }
                    }
                    accumulate(&mut grads, *logits, gl);
                }
                Op::DecKl { v, c, p, q } => {
                    let (gv, gc) =
                        dec_kl_grads(&self.nodes[v.0].value, &self.nodes[c.0].value, p, q);
                    let s = g.get(0, 0);
                    accumulate(&mut grads, *v, gv.scale(s));
                    accumulate(&mut grads, *c, gc.scale(s));
                }
                Op::Triplet { anchor, positive, negative, active, .. } => {
                    let a = &self.nodes[anchor.0].value;
                    let p = &self.nodes[positive.0].value;
                    let n = &self.nodes[negative.0].value;
                    let rows = a.rows();
                    let scale = g.get(0, 0) / rows.max(1) as f32;
                    let mut ga = Tensor::zeros(rows, a.cols());
                    let mut gp = Tensor::zeros(rows, a.cols());
                    let mut gn = Tensor::zeros(rows, a.cols());
                    for i in 0..rows {
                        if !active[i] {
                            continue;
                        }
                        for j in 0..a.cols() {
                            let av = a.get(i, j);
                            let pv = p.get(i, j);
                            let nv = n.get(i, j);
                            // d/da (|a-p|^2 - |a-n|^2) = 2(n - p)
                            ga.set(i, j, 2.0 * scale * (nv - pv));
                            gp.set(i, j, -2.0 * scale * (av - pv));
                            gn.set(i, j, 2.0 * scale * (av - nv));
                        }
                    }
                    accumulate(&mut grads, *anchor, ga);
                    accumulate(&mut grads, *positive, gp);
                    accumulate(&mut grads, *negative, gn);
                }
                Op::GruCell { x, h, w_x, w_h, b_x, b_h, gates, gh, live } => {
                    let live = live.as_deref();
                    let (dh_update, dgx, dgh) = {
                        let h_val = &self.nodes[h.0].value;
                        gru::step_backward(&live_view(&g, live), &live_view(h_val, live), gates, gh)
                    };
                    // Ended rows pass their gradient straight through to h.
                    let dh = match live {
                        Some(live) => {
                            let mut dh = g;
                            dh.scatter_rows(&dh_update, live);
                            dh
                        }
                        None => dh_update,
                    };
                    accumulate(&mut grads, *h, dh);
                    accumulate(&mut grads, *b_h, dgh.sum_rows());
                    let nodes = &self.nodes;
                    matmul_backward(nodes, &mut grads, &mut bt_cache, *h, *w_h, &dgh, live);
                    accumulate(&mut grads, *b_x, dgx.sum_rows());
                    matmul_backward(nodes, &mut grads, &mut bt_cache, *x, *w_x, &dgx, live);
                }
            }
        }
    }
}

/// Backward of `a @ b` given `g = ∂L/∂(a @ b)`, using the memoized `bᵀ`.
///
/// With `live`, the product was computed on those rows of `a` only and
/// `g` holds their gradient: each gradient row of `a` lands where and
/// how the full-batch product with zero rows elsewhere would put it (see
/// [`Tensor::matmul_acc_rows`]), and `b`'s gradient sums over the live
/// rows, which leaves out only zero terms.
fn matmul_backward(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    bt_cache: &mut HashMap<usize, Tensor>,
    a: Var,
    b: Var,
    g: &Tensor,
    live: Option<&[usize]>,
) {
    let bt = bt_cache.entry(b.0).or_insert_with(|| nodes[b.0].value.transpose());
    let a_val = &nodes[a.0].value;
    // Accumulate straight into existing gradient buffers: in a recurrence
    // the weight-grad slot exists from the first (latest-timestep) step
    // onward, so the other 23 steps skip a zeroed temporary plus an add
    // pass each.
    match (&mut grads[a.0], live) {
        (Some(existing), None) => g.matmul_acc(bt, existing),
        (slot @ None, None) => *slot = Some(g.matmul(bt)),
        (slot, Some(live)) => {
            let ga = slot.get_or_insert_with(|| Tensor::zeros(a_val.rows(), a_val.cols()));
            g.matmul_acc_rows(bt, ga, live);
        }
    }
    let a_live = live_view(a_val, live);
    match &mut grads[b.0] {
        Some(existing) => a_live.matmul_tn_acc(g, existing),
        slot @ None => *slot = Some(a_live.matmul_tn(g)),
    }
}

/// The `live` rows of `t` (all of `t`, borrowed, when `None`).
fn live_view<'a>(t: &'a Tensor, live: Option<&[usize]>) -> Cow<'a, Tensor> {
    live.map_or(Cow::Borrowed(t), |rows| Cow::Owned(t.gather_rows(rows)))
}

fn accumulate(grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
    match &mut grads[v.0] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// Like [`accumulate`], but adds into an existing buffer without taking
/// ownership; the tensor is cloned only when `v` has no gradient yet.
/// Lets ops that fan one upstream gradient into several inputs skip an
/// unconditional `g.clone()`.
fn accumulate_ref(grads: &mut [Option<Tensor>], v: Var, g: &Tensor) {
    match &mut grads[v.0] {
        Some(existing) => existing.add_assign(g),
        slot @ None => *slot = Some(g.clone()),
    }
}

/// Student-t soft cluster assignment (paper Eq. 9):
/// `q_ij = (1 + ‖v_i − c_j‖²)⁻¹ / Σ_j' (1 + ‖v_i − c_j'‖²)⁻¹`.
pub fn student_t_assignment(v: &Tensor, c: &Tensor) -> Tensor {
    assert_eq!(v.cols(), c.cols(), "embedding/centroid dimensionality mismatch");
    let (n, k) = (v.rows(), c.rows());
    let mut q = Tensor::zeros(n, k);
    for i in 0..n {
        let row = q.row_mut(i);
        let mut sum = 0.0;
        for (j, slot) in row.iter_mut().enumerate() {
            let s = 1.0 / (1.0 + v.row_sq_dist(i, c, j));
            *slot = s;
            sum += s;
        }
        for slot in row.iter_mut() {
            *slot /= sum;
        }
    }
    q
}

/// Auxiliary target distribution (paper Eq. 10):
/// `p_ij = (q_ij² / f_j) / Σ_j' (q_ij'² / f_j')` with `f_j = Σ_i q_ij`.
pub fn target_distribution(q: &Tensor) -> Tensor {
    let (n, k) = q.shape();
    let mut freq = vec![0.0f32; k];
    for i in 0..n {
        for (f, &x) in freq.iter_mut().zip(q.row(i)) {
            *f += x;
        }
    }
    let mut p = Tensor::zeros(n, k);
    for i in 0..n {
        let src = q.row(i);
        let dst = p.row_mut(i);
        let mut sum = 0.0;
        for j in 0..k {
            let v = src[j] * src[j] / freq[j].max(1e-12);
            dst[j] = v;
            sum += v;
        }
        for d in dst.iter_mut() {
            *d /= sum.max(1e-12);
        }
    }
    p
}

/// Analytic gradients of `KL(P‖Q)` w.r.t. embeddings and centroids
/// (Xie et al., ICML 2016, with Student-t dof α = 1):
/// `∂L/∂v_i = 2 Σ_j (1+‖v_i−c_j‖²)⁻¹ (p_ij − q_ij)(v_i − c_j)`
/// `∂L/∂c_j = −2 Σ_i (1+‖v_i−c_j‖²)⁻¹ (p_ij − q_ij)(v_i − c_j)`
fn dec_kl_grads(v: &Tensor, c: &Tensor, p: &Tensor, q: &Tensor) -> (Tensor, Tensor) {
    let (n, d) = v.shape();
    let k = c.rows();
    let mut gv = Tensor::zeros(n, d);
    let mut gc = Tensor::zeros(k, d);
    for i in 0..n {
        for j in 0..k {
            let s = 1.0 / (1.0 + v.row_sq_dist(i, c, j));
            let coef = 2.0 * s * (p.get(i, j) - q.get(i, j));
            for t in 0..d {
                let diff = v.get(i, t) - c.get(j, t);
                *gv.row_mut(i).get_mut(t).expect("in range") += coef * diff;
                *gc.row_mut(j).get_mut(t).expect("in range") -= coef * diff;
            }
        }
    }
    (gv, gc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(t: &Tensor) -> f32 {
        t.get(0, 0)
    }

    #[test]
    fn constant_forward_value_is_preserved() {
        let mut tape = Tape::new();
        let c = tape.constant(Tensor::row_vector(vec![1.0, 2.0]));
        assert_eq!(tape.value(c).data(), &[1.0, 2.0]);
    }

    #[test]
    fn param_nodes_are_deduplicated() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(1, 1));
        let mut tape = Tape::new();
        let a = tape.param(&store, id);
        let b = tape.param(&store, id);
        assert_eq!(a, b);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn backward_linear_chain_matches_hand_gradient() {
        // loss = mean( (x @ w) * 3 + 1 ), x = [1, 2], w = [[2], [3]]
        // pre-affine y = 8, loss = 25; dloss/dw = 3 * x^T = [3, 6]^T
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[vec![2.0], vec![3.0]]));
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::row_vector(vec![1.0, 2.0]));
        let wv = tape.param(&store, w);
        let y = tape.matmul(x, wv);
        let z = tape.affine(y, 3.0, 1.0);
        let loss = tape.mean_all(z);
        assert!((scalar(tape.value(loss)) - 25.0).abs() < 1e-5);
        tape.backward(loss, &mut store);
        assert!((store.grad(w).get(0, 0) - 3.0).abs() < 1e-5);
        assert!((store.grad(w).get(1, 0) - 6.0).abs() < 1e-5);
    }

    #[test]
    fn backward_accumulates_across_reused_param() {
        // loss = sum(w + w) => dloss/dw = 2 everywhere
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[vec![1.0, 1.0]]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let s = tape.add(wv, wv);
        let loss = tape.sum_all(s);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w).data(), &[2.0, 2.0]);
    }

    #[test]
    fn clear_retains_capacity_and_allows_reuse() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[vec![1.0, 1.0]]));
        let mut tape = Tape::new();
        for _ in 0..3 {
            tape.clear();
            let wv = tape.param(&store, w);
            let s = tape.add(wv, wv);
            let loss = tape.sum_all(s);
            tape.backward(loss, &mut store);
        }
        // Three backward passes of d(sum(w + w))/dw = 2 accumulate to 6,
        // and the cleared tape re-registers the param node each time.
        assert_eq!(store.grad(w).data(), &[6.0, 6.0]);
        assert_eq!(tape.len(), 3);
    }

    #[test]
    fn gather_rows_backward_is_bitwise_the_dense_scatter() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let varied = |rows: usize, cols: usize, salt: u32| {
            let data = (0..rows * cols)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                    ((h % 2000) as f32 / 313.0 - 3.0) * 10f32.powi((h % 7) as i32 - 3)
                })
                .collect();
            Tensor::from_vec(rows, cols, data)
        };
        let (vocab, dim) = (9, 5);
        // Repeated indices; the second gather adds into the gradient the
        // first one (visited later, backward) leaves in the table's slot.
        let gathers = [vec![3usize, 0, 3, 5, 3, 0, 7], vec![8, 3, 3, 1]];
        let cs: Vec<Tensor> = (0..gathers.len())
            .map(|j| varied(gathers[j].len(), dim, 40 + j as u32))
            .collect();
        let mut store = ParamStore::new();
        let table = store.add("table", varied(vocab, dim, 1));
        let mut tape = Tape::new();
        let tv = tape.param(&store, table);
        let mut loss = None;
        for (ids, c) in gathers.iter().zip(&cs) {
            let rows = tape.gather_rows(tv, ids);
            let cv = tape.constant(c.clone());
            let weighted = tape.hadamard(rows, cv);
            let term = tape.sum_all(weighted);
            loss = Some(loss.map_or(term, |acc| tape.add(acc, term)));
        }
        tape.backward(loss.expect("two gathers"), &mut store);

        // The dense formulation: each gather scatters into a zeroed
        // table-sized buffer, added into the running gradient.
        let mut total: Option<Tensor> = None;
        for (ids, c) in gathers.iter().zip(&cs).rev() {
            let mut gt = Tensor::zeros(vocab, dim);
            for (i, &idx) in ids.iter().enumerate() {
                for (d, &s) in gt.row_mut(idx).iter_mut().zip(c.row(i)) {
                    *d += s;
                }
            }
            match &mut total {
                Some(t) => t.add_assign(&gt),
                None => total = Some(gt),
            }
        }
        let mut want = Tensor::zeros(vocab, dim);
        want.add_assign(&total.expect("two gathers"));
        assert_eq!(bits(store.grad(table)), bits(&want));
    }

    #[test]
    fn student_t_assignment_rows_are_distributions() {
        let v = Tensor::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0]]);
        let c = Tensor::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![10.0, 0.0]]);
        let q = student_t_assignment(&v, &c);
        for i in 0..2 {
            let sum: f32 = q.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Each point is closest to its own centroid.
        assert!(q.get(0, 0) > q.get(0, 1) && q.get(0, 0) > q.get(0, 2));
        assert!(q.get(1, 1) > q.get(1, 0) && q.get(1, 1) > q.get(1, 2));
    }

    #[test]
    fn target_distribution_sharpens_confident_assignments() {
        let q = Tensor::from_rows(&[vec![0.9, 0.1], vec![0.6, 0.4]]);
        let p = target_distribution(&q);
        // Rows remain distributions.
        for i in 0..2 {
            let sum: f32 = p.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // High-confidence assignment gets sharper.
        assert!(p.get(0, 0) > q.get(0, 0));
    }

    #[test]
    fn weighted_softmax_nll_reduces_to_cross_entropy_for_one_hot() {
        let mut tape = Tape::new();
        let logits = tape.constant(Tensor::from_rows(&[vec![2.0, 0.0, -1.0]]));
        let loss = tape.weighted_softmax_nll(logits, vec![vec![(0, 1.0)]]);
        let expected = {
            let p = Tensor::from_rows(&[vec![2.0, 0.0, -1.0]]).softmax_rows();
            -p.get(0, 0).ln()
        };
        assert!((scalar(tape.value(loss)) - expected).abs() < 1e-5);
    }

    #[test]
    fn dec_kl_is_zero_when_p_equals_q() {
        let v = Tensor::from_rows(&[vec![0.0, 0.0], vec![4.0, 4.0]]);
        let c = Tensor::from_rows(&[vec![0.0, 0.0], vec![4.0, 4.0]]);
        let q = student_t_assignment(&v, &c);
        let mut tape = Tape::new();
        let vv = tape.constant(v);
        let cv = tape.constant(c);
        let loss = tape.dec_kl(vv, cv, q);
        assert!(scalar(tape.value(loss)).abs() < 1e-6);
    }

    #[test]
    fn triplet_loss_is_zero_when_margin_satisfied() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_rows(&[vec![0.0, 0.0]]));
        let p = tape.constant(Tensor::from_rows(&[vec![0.1, 0.0]]));
        let n = tape.constant(Tensor::from_rows(&[vec![10.0, 0.0]]));
        let loss = tape.triplet(a, p, n, 1.0);
        assert_eq!(scalar(tape.value(loss)), 0.0);
    }

    #[test]
    fn triplet_loss_positive_when_violated() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_rows(&[vec![0.0, 0.0]]));
        let p = tape.constant(Tensor::from_rows(&[vec![3.0, 0.0]]));
        let n = tape.constant(Tensor::from_rows(&[vec![1.0, 0.0]]));
        let loss = tape.triplet(a, p, n, 0.5);
        // |a-p|^2 = 9, |a-n|^2 = 1, margin 0.5 -> 8.5
        assert!((scalar(tape.value(loss)) - 8.5).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar_loss() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let c = tape.constant(Tensor::zeros(2, 2));
        tape.backward(c, &mut store);
    }
}
