//! Dense row-major 2-D `f32` tensor.
//!
//! Everything in the E²DTC training stack is expressible with 2-D tensors:
//! a batch of hidden states is `(batch, hidden)`, an embedding table is
//! `(vocab, dim)`, a single vector is `(1, dim)`. Keeping the representation
//! flat and two-dimensional keeps the hot loops simple enough for the
//! compiler to vectorize.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Multiply-add count above which a matmul is split across the rayon pool.
///
/// Below this the whole product runs on the calling thread. On a shared
/// 2-vCPU host two threads gain no wall time on decoder-sized products
/// (the fast preset's `(32, 48) @ (48, V)` projection, ~0.85M madds at
/// V = 554, and 1.2M at V = 800) and spend more CPU; 256³ products run
/// ~1.6–1.8× faster. So every fast-preset product stays serial, while the
/// paper preset's GRU-step products (≥ 7.5M madds) still go to the pool.
const PAR_FLOP_THRESHOLD: usize = 1 << 21;

/// Output rows fused per pass in the register-blocked micro-kernels.
///
/// Grouping rows lets one streamed load of a `b` row feed several
/// accumulator rows. Per output element the `k` accumulation order is
/// unchanged, so any row grouping produces bit-identical results.
const MR: usize = 4;

/// Output columns per register tile in the matmul micro-kernels. An
/// `MR x NR` f32 accumulator block (4x16) fits comfortably in SIMD
/// registers on AVX2 and AVX-512.
const NR: usize = 16;

/// Square tile edge for the cache-blocked transpose.
const TRANSPOSE_BLOCK: usize = 32;

/// Branch-free single-precision `e^x` (Cephes polynomial over a reduced
/// range plus an exponent rebuild through the float bit pattern).
///
/// Accurate to ~2 ulp over the finite range and clamped outside it. Every
/// step is a SIMD-friendly primitive, so `map`-style loops over a buffer
/// auto-vectorize where libm's `expf` would stay a scalar call.
#[inline]
pub(crate) fn fast_exp(x: f32) -> f32 {
    let x = x.clamp(-88.376_26, 88.376_26);
    let fx = (x * std::f32::consts::LOG2_E + 0.5).floor();
    // Two-part ln(2) split keeps the range reduction exact in f32.
    let x = x - fx * 0.693_359_4 - fx * -2.121_944_4e-4;
    let z = x * x;
    let mut y = 1.987_569_2e-4f32;
    y = y * x + 1.398_199_9e-3;
    y = y * x + 8.333_452e-3;
    y = y * x + 4.166_579_6e-2;
    y = y * x + 1.666_666_5e-1;
    y = y * x + 5e-1;
    y = y * z + x + 1.0;
    // After the clamp `fx` is an integer in [-127, 128].
    let pow2n = f32::from_bits(((float_int_to_i32(fx) + 127) << 23) as u32);
    y * pow2n
}

/// `fx as i32` for an integer-valued `fx` in [-2²², 2²²], read from the
/// float bit pattern: adding 1.5·2²³ places `fx` exactly in the low
/// mantissa bits. The saturating `as i32` compiles to one scalar
/// conversion per lane; this is one vector add and one integer subtract.
#[inline]
fn float_int_to_i32(fx: f32) -> i32 {
    (fx + 12_582_912.0).to_bits() as i32 - 0x4B40_0000
}

/// Logistic sigmoid built on [`fast_exp`].
#[inline]
pub(crate) fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

/// `tanh` built on [`fast_exp`]: `1 − 2 / (e^{2x} + 1)`.
///
/// Absolute error stays at the ~1e-7 level everywhere (the formulation
/// avoids computing `e^{2x} − 1`, so there is no cancellation blow-up
/// near zero), which is below f32 round-off noise for network activations.
#[inline]
pub(crate) fn fast_tanh(x: f32) -> f32 {
    1.0 - 2.0 / (fast_exp(2.0 * x) + 1.0)
}

/// Row count per parallel task: a multiple of [`MR`], sized for a few
/// tasks per worker so the atomic-counter scheduler can balance load.
fn par_row_chunk(m: usize) -> usize {
    let threads = rayon::current_num_threads().max(1);
    let target = m.div_ceil(threads * 2).max(1);
    target.div_ceil(MR) * MR
}

/// Computes a block of output rows of `A @ B` into `out`, where `b` is all
/// of `B` (`k_dim x n`) and `a` holds `A` from the block's first row on:
/// `A[i][k]` is `a[i * k_dim + k]`, or with `TN` (`A` stored transposed
/// with row stride `lda`, as in the weight gradient `Xᵀ·G`)
/// `a[k * lda + i]`. Only where a coefficient is read depends on the
/// layout.
///
/// Each step is one `mul_add` (a single rounding, so the result does not
/// depend on whether the target has hardware FMA). Full `MR x NR` tiles
/// accumulate from `+0.0` over increasing `k` and then add the sum to
/// `out`; the ragged column tail and the tail rows accumulate straight
/// into `out` in the same `k` order. Which path an element takes depends
/// only on its position in the whole output (row chunks are multiples of
/// `MR`), so serial and row-parallel invocations agree bit-for-bit. Into a
/// zeroed output both paths give the same bits unless the sum underflows
/// to `-0.0`, which the tile epilogue turns into `+0.0`.
fn mm_block<const TN: bool>(a: &[f32], lda: usize, k_dim: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let coef = |i: usize, k: usize| if TN { a[k * lda + i] } else { a[i * k_dim + k] };
    let rows = out.len() / n;
    let mut r = 0;
    while r + MR <= rows {
        // Full MR x NR tiles: the 4x16 accumulator block lives in
        // registers across the whole k loop, so output elements are
        // touched once instead of read-modified-written per k step.
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for k in 0..k_dim {
                let bv = &b[k * n + j..k * n + j + NR];
                for (i, acc_row) in acc.iter_mut().enumerate() {
                    let c = coef(r + i, k);
                    for (slot, &bx) in acc_row.iter_mut().zip(bv) {
                        *slot = c.mul_add(bx, *slot);
                    }
                }
            }
            for (i, acc_row) in acc.iter().enumerate() {
                let dst = &mut out[(r + i) * n + j..(r + i) * n + j + NR];
                for (o, &v) in dst.iter_mut().zip(acc_row) {
                    *o += v;
                }
            }
            j += NR;
        }
        // Ragged column tail: stream b rows through the remaining columns.
        if j < n {
            for k in 0..k_dim {
                let b_tail = &b[k * n + j..(k + 1) * n];
                for i in 0..MR {
                    let c = coef(r + i, k);
                    let dst = &mut out[(r + i) * n + j..(r + i + 1) * n];
                    for (o, &bv) in dst.iter_mut().zip(b_tail) {
                        *o = c.mul_add(bv, *o);
                    }
                }
            }
        }
        r += MR;
    }
    while r < rows {
        let out_row = &mut out[r * n..(r + 1) * n];
        for k in 0..k_dim {
            let c = coef(r, k);
            let b_row = &b[k * n..(k + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o = c.mul_add(bv, *o);
            }
        }
        r += 1;
    }
}

/// Records one `(m, k) @ (k, n)` product in the kernel telemetry.
fn count_matmul(m: usize, k: usize, n: usize) {
    crate::telemetry::MATMUL_CALLS.inc();
    crate::telemetry::MATMUL_FLOPS.add(2 * (m * k * n) as u64);
}

/// A dense row-major matrix of `f32` values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape ({rows}, {cols})",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a `(1, n)` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self { rows: 1, cols, data }
    }

    /// Creates a tensor from nested rows (convenient in tests).
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Matrix product `self @ other`.
    ///
    /// Register-blocked `MR`-row micro-kernel; large products are split
    /// over output-row blocks on the rayon pool. Per output element the
    /// `k` accumulation order is fixed, so the serial and parallel paths
    /// return bit-identical tensors.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: ({}, {}) @ ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        self.matmul_with(other, m * k * n >= PAR_FLOP_THRESHOLD)
    }

    /// [`Tensor::matmul`] with the kernel path chosen explicitly. The two
    /// paths are bit-identical; tests exercise both on the same inputs.
    pub fn matmul_with(&self, other: &Tensor, parallel: bool) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out, parallel);
        out
    }

    /// `out += self @ other` without allocating a temporary.
    ///
    /// Gradient accumulation sites call this to fold a product straight
    /// into an existing buffer, skipping the zeroed temporary and the
    /// extra add pass. The kernels always accumulate into `out`, so this
    /// is the same code path as [`Tensor::matmul`] minus the fresh zeros.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_acc(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "matmul_acc inner dimension mismatch");
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul_acc output shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        self.matmul_into(other, out, m * k * n >= PAR_FLOP_THRESHOLD);
    }

    /// `out += self @ w + b`, with the `(1, cols)` bias added to every row:
    /// the affine map of the GRU gates and of the decoder logits. Into a
    /// zeroed `out` this is bit-identical to `matmul` followed by
    /// `add_row_broadcast`, without the two temporaries.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub(crate) fn affine_acc(&self, w: &Tensor, b: &Tensor, out: &mut Tensor) {
        assert_eq!(b.shape(), (1, out.cols), "bias must be a (1, {}) row", out.cols);
        self.matmul_acc(w, out);
        for row in 0..out.rows {
            for (d, &bv) in out.row_mut(row).iter_mut().zip(&b.data) {
                *d += bv;
            }
        }
    }

    fn matmul_into(&self, other: &Tensor, out: &mut Tensor, parallel: bool) {
        count_matmul(self.rows, self.cols, other.cols);
        self.mm_into::<false>(other, out, parallel);
    }

    /// `out += self @ other`, or `out += selfᵀ @ other` with `TN`,
    /// uncounted: the one dispatch behind every product. Large products
    /// split over row chunks (multiples of `MR`) on the rayon pool.
    fn mm_into<const TN: bool>(&self, other: &Tensor, out: &mut Tensor, parallel: bool) {
        let (m, k, n) = (out.rows, other.rows, other.cols);
        // With k = 0 a transposed `self` is empty and has no row offsets.
        if parallel && m > 0 && n > 0 && k > 0 {
            let chunk_rows = par_row_chunk(m);
            out.data.par_chunks_mut(chunk_rows * n).enumerate_for_each(|idx, chunk| {
                let row0 = idx * chunk_rows;
                let a = &self.data[if TN { row0 } else { row0 * k }..];
                mm_block::<TN>(a, self.cols, k, &other.data, n, chunk);
            });
        } else {
            mm_block::<TN>(&self.data, self.cols, k, &other.data, n, &mut out.data);
        }
    }

    /// `out[rows[i]] += self[i] @ other` for every row `i` of `self`, with
    /// the bits of `full.matmul_acc(other, out)`, where `full` has `out`'s
    /// row count, `self`'s rows at `rows` and zeros elsewhere (its zero
    /// rows leave `out` as it is).
    ///
    /// Into a non-zero `out` the kernel rounds a row by its position
    /// (DESIGN §9): a row inside a full 4-row tile adds a chain from
    /// `+0.0` to `out` in the tiled columns, while the last
    /// `out.rows() % 4` rows chain from `out` in every column. So the
    /// rows at tile positions run as one product, zero-padded to a
    /// multiple of 4, and the rows at tail positions (at most 3)
    /// as a second one; each accumulates into a gathered copy of its `out`
    /// rows, which is scattered back. Counted as one product of
    /// `rows.len()` rows.
    ///
    /// # Panics
    /// Panics on a shape mismatch or a row index out of range. `rows`
    /// must not repeat an index.
    pub(crate) fn matmul_acc_rows(&self, other: &Tensor, out: &mut Tensor, rows: &[usize]) {
        let (m, k, n) = (self.rows, self.cols, other.cols);
        self.matmul_acc_rows_with(other, out, rows, m * k * n >= PAR_FLOP_THRESHOLD);
    }

    fn matmul_acc_rows_with(
        &self,
        other: &Tensor,
        out: &mut Tensor,
        rows: &[usize],
        parallel: bool,
    ) {
        assert_eq!(self.rows, rows.len(), "matmul_acc_rows needs one row index per row");
        assert_eq!(self.cols, other.rows, "matmul_acc_rows inner dimension mismatch");
        assert_eq!(out.cols, other.cols, "matmul_acc_rows output width mismatch");
        count_matmul(self.rows, self.cols, other.cols);
        let tile_end = out.rows / MR * MR;
        let (tiled, tail): (Vec<usize>, Vec<usize>) =
            (0..rows.len()).partition(|&i| rows[i] < tile_end);
        for (group, padded) in [(tiled, true), (tail, false)] {
            if group.is_empty() {
                continue;
            }
            let m = if padded { group.len().next_multiple_of(MR) } else { group.len() };
            let mut a = Tensor::zeros(m, self.cols);
            let mut acc = Tensor::zeros(m, out.cols);
            for (dst, &i) in group.iter().enumerate() {
                a.row_mut(dst).copy_from_slice(self.row(i));
                acc.row_mut(dst).copy_from_slice(out.row(rows[i]));
            }
            a.mm_into::<false>(other, &mut acc, parallel);
            for (src, &i) in group.iter().enumerate() {
                out.row_mut(rows[i]).copy_from_slice(acc.row(src));
            }
        }
    }

    /// `self^T @ other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}, {})^T @ ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        self.matmul_tn_with(other, m * k * n >= PAR_FLOP_THRESHOLD)
    }

    /// [`Tensor::matmul_tn`] with the kernel path chosen explicitly.
    pub fn matmul_tn_with(&self, other: &Tensor, parallel: bool) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out, parallel);
        out
    }

    /// `out += selfᵀ @ other` without allocating a temporary (the
    /// transpose-A analogue of [`Tensor::matmul_acc`]).
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_tn_acc(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, other.rows, "matmul_tn_acc inner dimension mismatch");
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul_tn_acc output shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        self.matmul_tn_into(other, out, m * k * n >= PAR_FLOP_THRESHOLD);
    }

    fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor, parallel: bool) {
        count_matmul(self.cols, self.rows, other.cols);
        self.mm_into::<true>(other, out, parallel);
    }

    /// Returns the transpose, copying in `TRANSPOSE_BLOCK`-square tiles
    /// so both the read and write sides stay within a cache-friendly
    /// footprint even for tall or wide matrices.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        const B: usize = TRANSPOSE_BLOCK;
        let mut rb = 0;
        while rb < self.rows {
            let r_end = (rb + B).min(self.rows);
            let mut cb = 0;
            while cb < self.cols {
                let c_end = (cb + B).min(self.cols);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
                cb = c_end;
            }
            rb = r_end;
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map over two same-shape tensors in a single pass.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place element-wise `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise sum, returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds a `(1, cols)` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let dst = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (d, &b) in dst.iter_mut().zip(&row.data) {
                *d += b;
            }
        }
        out
    }

    /// Sum over rows, producing a `(1, cols)` row vector.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            let src = self.row(r);
            for (o, &x) in out.data.iter_mut().zip(src) {
                *o += x;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Squared L2 distance between row `r` of `self` and row `s` of `other`.
    pub fn row_sq_dist(&self, r: usize, other: &Tensor, s: usize) -> f32 {
        assert_eq!(self.cols, other.cols, "row_sq_dist width mismatch");
        self.row(r)
            .iter()
            .zip(other.row(s))
            .map(|(&a, &b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let mut out = Tensor::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            let dst = out.row_mut(r);
            dst[..self.cols].copy_from_slice(self.row(r));
            dst[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Copies the given rows into a new tensor (gather).
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.cols);
        out.gather_rows_from(self, indices);
        out
    }

    /// Overwrites row `i` of `self` with row `indices[i]` of `src`, for
    /// every row of `self` (a gather into an existing buffer).
    ///
    /// # Panics
    /// Panics on a shape mismatch or an index out of range.
    pub(crate) fn gather_rows_from(&mut self, src: &Tensor, indices: &[usize]) {
        assert_eq!(self.shape(), (indices.len(), src.cols), "gather_rows shape mismatch");
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < src.rows, "gather_rows index {idx} out of range {}", src.rows);
            self.row_mut(i).copy_from_slice(src.row(idx));
        }
    }

    /// Overwrites row `indices[i]` of `self` with row `i` of `src`, for
    /// every row of `src` (the inverse of [`Tensor::gather_rows_from`]).
    ///
    /// # Panics
    /// Panics on a shape mismatch or an index out of range.
    pub(crate) fn scatter_rows(&mut self, src: &Tensor, indices: &[usize]) {
        assert_eq!((src.rows, src.cols), (indices.len(), self.cols), "scatter_rows shape mismatch");
        for (i, &idx) in indices.iter().enumerate() {
            self.row_mut(idx).copy_from_slice(src.row(i));
        }
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

/// Numerically-stable in-place softmax over a slice.
///
/// The exp pass and the sum are separate loops: the exp pass vectorizes,
/// while the sum stays one serial left-to-right `f32` accumulation (a
/// lane-parallel sum would round differently).
pub fn softmax_in_place(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for x in row.iter_mut() {
        *x = fast_exp(*x - max);
    }
    let mut sum = 0.0;
    for &x in row.iter() {
        sum += x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let t = Tensor::zeros(2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_wrong_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    /// Deterministic pseudo-random fill that exercises non-trivial float
    /// values without needing an RNG dependency in unit tests.
    fn varied(rows: usize, cols: usize, salt: u32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (h % 2000) as f32 / 313.0 - 3.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn serial_and_parallel_matmul_are_bit_identical() {
        // Shapes straddle the MR blocking and chunk boundaries.
        for &(m, k, n) in &[(1, 7, 5), (4, 4, 4), (33, 17, 29), (70, 23, 41)] {
            let a = varied(m, k, 1);
            let b = varied(k, n, 2);
            assert_eq!(a.matmul_with(&b, false), a.matmul_with(&b, true), "nn {m}x{k}x{n}");
            let at = varied(k, m, 4);
            assert_eq!(at.matmul_tn_with(&b, false), at.matmul_tn_with(&b, true), "tn {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_handles_degenerate_dims() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(5, 3);
        assert_eq!(a.matmul(&b).shape(), (0, 3));
        let a = Tensor::zeros(3, 0);
        let b = Tensor::zeros(0, 2);
        assert_eq!(a.matmul(&b), Tensor::zeros(3, 2));
        let a = Tensor::zeros(2, 4);
        let b = Tensor::zeros(4, 0);
        assert_eq!(a.matmul(&b).shape(), (2, 0));
    }

    #[test]
    fn large_matmul_crosses_parallel_threshold_and_matches_serial() {
        // 128 * 128 * 160 = 2.6M madds > PAR_FLOP_THRESHOLD, so plain
        // matmul takes the pool path; compare against the forced-serial one.
        const _: () = assert!(128 * 128 * 160 >= super::PAR_FLOP_THRESHOLD);
        let a = varied(128, 128, 7);
        let b = varied(128, 160, 8);
        assert_eq!(a.matmul(&b), a.matmul_with(&b, false));
    }

    #[test]
    fn blocked_transpose_matches_naive_beyond_one_tile() {
        // 70x45 spans multiple TRANSPOSE_BLOCK tiles with ragged edges.
        let a = varied(70, 45, 9);
        let t = a.transpose();
        assert_eq!(t.shape(), (45, 70));
        for r in 0..70 {
            for c in 0..45 {
                assert_eq!(t.get(c, r), a.get(r, c));
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut s = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![-10.0, 0.0, 10.0]]);
        for r in 0..2 {
            softmax_in_place(s.row_mut(r));
        }
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut s = [1000.0, 1000.0];
        softmax_in_place(&mut s);
        assert!((s[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn broadcast_add_applies_row_to_each_row() {
        let a = Tensor::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let b = Tensor::row_vector(vec![10.0, 20.0]);
        let c = a.add_row_broadcast(&b);
        assert_eq!(c, Tensor::from_rows(&[vec![11.0, 21.0], vec![12.0, 22.0]]));
    }

    #[test]
    fn sum_rows_collapses_to_row_vector() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.sum_rows(), Tensor::row_vector(vec![4.0, 6.0]));
    }

    #[test]
    fn gather_rows_copies_selected_rows() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g, Tensor::from_rows(&[vec![5.0, 6.0], vec![1.0, 2.0], vec![5.0, 6.0]]));
    }

    #[test]
    fn concat_cols_widths_add() {
        let a = Tensor::from_rows(&[vec![1.0], vec![2.0]]);
        let b = Tensor::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c, Tensor::from_rows(&[vec![1.0, 3.0, 4.0], vec![2.0, 5.0, 6.0]]));
    }

    #[test]
    fn row_sq_dist_matches_manual() {
        let a = Tensor::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
        assert_eq!(a.row_sq_dist(0, &a, 1), 25.0);
    }

    #[test]
    fn norm_is_frobenius() {
        let a = Tensor::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn float_int_to_i32_matches_the_cast_over_the_exponent_range() {
        for i in -127i32..=128 {
            let fx = i as f32;
            assert_eq!(float_int_to_i32(fx), fx as i32, "fx = {fx}");
        }
    }

    /// `fast_exp` as written with the saturating `fx as i32` cast.
    fn fast_exp_with_cast(x: f32) -> f32 {
        let x = x.clamp(-88.376_26, 88.376_26);
        let fx = (x * std::f32::consts::LOG2_E + 0.5).floor();
        let x = x - fx * 0.693_359_4 - fx * -2.121_944_4e-4;
        let z = x * x;
        let mut y = 1.987_569_2e-4f32;
        y = y * x + 1.398_199_9e-3;
        y = y * x + 8.333_452e-3;
        y = y * x + 4.166_579_6e-2;
        y = y * x + 1.666_666_5e-1;
        y = y * x + 5e-1;
        y = y * z + x + 1.0;
        y * f32::from_bits((((fx as i32) + 127) << 23) as u32)
    }

    #[test]
    fn fast_exp_is_bitwise_the_cast_formula() {
        let mut xs = vec![
            0.0,
            -0.0,
            88.376_26,
            -88.376_26,
            88.38,
            -88.38,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        // Every 4099th bit pattern covers all exponents and signs.
        xs.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        // Dense over the range the clamp and the exponent rebuild see.
        let mut x = -90.0f32;
        while x <= 90.0 {
            xs.push(x);
            x += 0.000_731;
        }
        for x in xs {
            assert_eq!(fast_exp(x).to_bits(), fast_exp_with_cast(x).to_bits(), "x = {x:e}");
        }
    }

    /// Softmax with the exp and the running sum fused in one loop.
    fn softmax_one_pass(row: &mut [f32]) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = fast_exp(*x - max);
            sum += *x;
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }

    #[test]
    fn softmax_is_bitwise_the_one_pass_reference() {
        for (len, scale, salt) in [(1, 1.0, 1), (7, 3.0, 2), (144, 10.0, 3), (554, 1.0, 4), (800, 40.0, 5)] {
            let logits = varied(1, len, salt).scale(scale);
            let mut got = logits.data().to_vec();
            let mut want = got.clone();
            softmax_in_place(&mut got);
            softmax_one_pass(&mut want);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "len {len} scale {scale}");
        }
    }

    /// `out + a @ b` element by element under the matmul kernel contract.
    /// An element inside a full `MR x NR` tile sums its `mul_add` chain
    /// from `+0.0` and then adds it to `out`; an element in the tail rows
    /// or the ragged column tail runs the chain starting from `out`.
    fn mul_add_reference(a: &Tensor, b: &Tensor, out: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut want = out.clone();
        for i in 0..m {
            for j in 0..n {
                let in_tile = i < m / MR * MR && j < n / NR * NR;
                let mut acc = if in_tile { 0.0f32 } else { out.get(i, j) };
                for kk in 0..k {
                    acc = a.get(i, kk).mul_add(b.get(kk, j), acc);
                }
                want.set(i, j, if in_tile { out.get(i, j) + acc } else { acc });
            }
        }
        want
    }

    #[test]
    fn matmuls_are_bitwise_the_mul_add_reference() {
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Ragged in both rows and columns; the last shape is above
        // PAR_FLOP_THRESHOLD, so the `_acc` variants take the pool path.
        const _: () = assert!(37 * 61 * 1000 >= super::PAR_FLOP_THRESHOLD);
        for &(m, k, n) in &[(7, 33, 554), (33, 5, 17), (4, 3, 16), (37, 61, 1000)] {
            let a = varied(m, k, 11);
            let b = varied(k, n, 12);
            let zeroed = Tensor::zeros(m, n);
            let filled = varied(m, n, 13);
            let at = a.transpose();
            let want = bits(&mul_add_reference(&a, &b, &zeroed));
            for parallel in [false, true] {
                assert_eq!(bits(&a.matmul_with(&b, parallel)), want, "nn {m}x{k}x{n}");
                assert_eq!(bits(&at.matmul_tn_with(&b, parallel)), want, "tn {m}x{k}x{n}");
            }
            for out0 in [&zeroed, &filled] {
                let want = bits(&mul_add_reference(&a, &b, out0));
                let mut out = out0.clone();
                a.matmul_acc(&b, &mut out);
                assert_eq!(bits(&out), want, "nn acc {m}x{k}x{n}");
                let mut out = out0.clone();
                at.matmul_tn_acc(&b, &mut out);
                assert_eq!(bits(&out), want, "tn acc {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn matmul_acc_rows_is_bitwise_the_full_product() {
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let k = 40;
        for batch in [1, 3, 4, 5, 7, 14, 27, 30, 32, 37] {
            // Row subsets: all rows, the batch's tail rows alone, a suffix
            // (how a length-sorted batch ends), every third row, a hashed
            // pick, and the last row alone.
            let tail: Vec<usize> = (batch / MR * MR..batch).collect();
            let subsets: Vec<Vec<usize>> = vec![
                (0..batch).collect(),
                tail,
                (batch / 3..batch).collect(),
                (0..batch).step_by(3).collect(),
                (0..batch).filter(|&r| (r as u32).wrapping_mul(2654435761) >> 29 < 5).collect(),
                vec![batch - 1],
            ];
            for n in [24, 32, 48, 72] {
                let b = varied(k, n, 21);
                for rows in subsets.iter().filter(|s| !s.is_empty()) {
                    let g = varied(rows.len(), k, 22 + batch as u32);
                    let mut full = Tensor::zeros(batch, k);
                    full.scatter_rows(&g, rows);
                    for out0 in [Tensor::zeros(batch, n), varied(batch, n, 23)] {
                        let mut want = out0.clone();
                        full.matmul_into(&b, &mut want, false);
                        for parallel in [false, true] {
                            let mut got = out0.clone();
                            g.matmul_acc_rows_with(&b, &mut got, rows, parallel);
                            assert_eq!(bits(&got), bits(&want), "b{batch} n{n} rows {rows:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_activations_track_libm() {
        // Dense sweep over the range activations actually see. The tape's
        // gradient checks tolerate ~1e-2; the polynomial approximations
        // must sit orders of magnitude below that.
        let mut x = -20.0f32;
        while x <= 20.0 {
            let e = fast_exp(x);
            if x.abs() <= 8.0 {
                let rel = (e - x.exp()).abs() / x.exp().max(f32::MIN_POSITIVE);
                assert!(rel < 3e-7, "exp({x}): rel err {rel}");
            }
            let s = fast_sigmoid(x);
            assert!((s - 1.0 / (1.0 + (-x).exp())).abs() < 1e-6, "sigmoid({x})");
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) out of range");
            let t = fast_tanh(x);
            assert!((t - x.tanh()).abs() < 1e-6, "tanh({x})");
            assert!((-1.0..=1.0).contains(&t), "tanh({x}) out of range");
            x += 0.0037;
        }
        // Saturation and edge behaviour.
        assert_eq!(fast_tanh(0.0), 0.0);
        assert_eq!(fast_sigmoid(0.0), 0.5);
        assert!((fast_tanh(100.0) - 1.0).abs() < 1e-6);
        assert!((fast_tanh(-100.0) + 1.0).abs() < 1e-6);
        assert!(fast_exp(-200.0) >= 0.0 && fast_exp(-200.0) < 1e-30);
        assert!(fast_exp(200.0).is_finite(), "clamped, must not overflow to inf bits");
    }
}
