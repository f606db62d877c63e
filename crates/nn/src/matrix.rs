//! Dense row-major matrices over `f32`.
//!
//! The MOCC policy networks are tiny (two hidden layers of 64 and 32
//! units), so a plain row-major representation keeps the arithmetic
//! auditable — but naive loops are *not* fast enough: a serial dot
//! product is one floating-point dependency chain the compiler may not
//! reorder, and it dominated the PPO update until the products were
//! rewritten (docs/PERFORMANCE.md, "The training update path"). Every
//! product here therefore fills each output row through the one
//! register-blocked row kernel, `simd::add_products`, which the
//! compiler vectorises across columns: each output element is still one
//! accumulator updated in ascending `k`, so results are bitwise equal
//! to the naive triple loops, which survive as the test oracle.

use crate::simd;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A dense `rows × cols` matrix of `f32` in row-major order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `data[r * cols + c]`.
    pub data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty 0 × 0 matrix (a reusable scratch buffer in its initial
    /// state).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization, the conventional choice for
    /// tanh networks like the MOCC policy.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..limit))
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols` reusing the existing allocation. The
    /// contents are unspecified afterwards — callers overwrite every
    /// element. No allocation occurs once the buffer has grown to its
    /// steady-state size.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows × cols` and zeroes every element, reusing the
    /// existing allocation.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.reshape(rows, cols);
        self.fill_zero();
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self · other` written into `out` (reshaped to
    /// fit, allocation-free at steady state), through the one tiled row
    /// kernel: every result bit is the naive loop's.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        out.reshape_zeroed(self.rows, other.cols);
        Matrix::accumulate(self, other, out);
    }

    /// `selfᵀ · other`, without materializing the transpose, written
    /// into `out` (reshaped to fit, allocation-free at steady state).
    /// Element `(k, c)` accumulates
    /// `self[r][k] · other[r][c]` in ascending `r` from `+0.0`,
    /// skipping rows where `self[r][k] == 0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        out.reshape_zeroed(self.cols, other.cols);
        if self.rows == 0 {
            return; // No column to slice below.
        }
        for k in 0..self.cols {
            // Column `k` of `self` weighs the rows of `other`.
            let column = self.data[k..].iter().step_by(self.cols).copied();
            simd::add_products(out.row_mut(k), column, &other.data, true);
        }
    }

    /// Columns `cols` of `self · otherᵀ` written into `out` (reshaped
    /// to `self.rows × cols.len()`), using `other_t` as the reusable
    /// buffer for the transposed block of `other`; both are
    /// allocation-free at steady state. Back-propagation asks only for
    /// the input-gradient columns somebody reads, down to none.
    ///
    /// Rows `cols` of `other` are transposed once, then every output
    /// row adds `self[r][k] · other_t.row(k)` in ascending `k`: each
    /// element is one accumulator that starts at `+0.0` and takes the
    /// same products in the same order as a serial dot product, now
    /// vectorised across columns. No term is skipped, so NaN and
    /// infinities propagate exactly as in the dot product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or `cols` reaches past
    /// `other.rows`.
    pub fn matmul_t_into(
        &self,
        other: &Matrix,
        cols: Range<usize>,
        other_t: &mut Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        assert!(
            cols.start <= cols.end && cols.end <= other.rows,
            "column range out of bounds"
        );
        let n = cols.len();
        out.reshape_zeroed(self.rows, n);
        if n == 0 {
            return;
        }
        other_t.reshape(other.cols, n);
        for (c, r) in cols.enumerate() {
            for (k, &w) in other.row(r).iter().enumerate() {
                other_t.data[k * n + c] = w;
            }
        }
        for r in 0..self.rows {
            let coeffs = self.row(r).iter().copied();
            simd::add_products(out.row_mut(r), coeffs, &other_t.data, false);
        }
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Adds `bias` (length `cols`) to every row, in place.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Applies `f` to every element, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Accumulates `x · w` into the pre-initialized `out` (`+=`, not
    /// `=`): the one blocked kernel behind both [`Matrix::matmul_into`]
    /// (zero-initialized `out`) and the bias-initialized dense-layer
    /// forward in `mlp.rs` — a single implementation is what keeps the
    /// "batched == scalar, bitwise" contract from depending on two
    /// hand-synchronized copies of the same loop. Per-element
    /// accumulation order is ascending `k` with zero entries of `x`
    /// skipped, identical to the naive triple loop.
    pub(crate) fn accumulate(x: &Matrix, w: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(x.cols, w.rows);
        debug_assert_eq!(out.rows, x.rows);
        debug_assert_eq!(out.cols, w.cols);
        for r in 0..x.rows {
            let coeffs = x.row(r).iter().copied();
            simd::add_products(out.row_mut(r), coeffs, &w.data, true);
        }
    }

    /// Sums each column into a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// `self += k * other`.
    pub fn axpy(&mut self, k: f32, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len(), "axpy shape mismatch");
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x += k * y;
        }
    }

    /// Horizontal concatenation `[self | other]` (same row count).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// A copy of columns `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_cols(&self, from: usize, to: usize) -> Matrix {
        assert!(from <= to && to <= self.cols, "column range out of bounds");
        let mut out = Matrix::zeros(self.rows, to - from);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[from..to]);
        }
        out
    }

    /// Copies columns `[from, to)` into `out` (reshaped to fit,
    /// allocation-free at steady state).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn copy_cols_into(&self, from: usize, to: usize, out: &mut Matrix) {
        assert!(from <= to && to <= self.cols, "column range out of bounds");
        out.reshape(self.rows, to - from);
        for r in 0..self.rows {
            let src = &self.row(r)[from..to];
            out.row_mut(r).copy_from_slice(src);
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// The naive triple loops the products above replaced, kept verbatim
/// as the executable reference the fast kernels (and, in `mlp.rs`,
/// the whole back-propagation) must match bit for bit.
#[cfg(test)]
pub(crate) mod naive {
    use super::Matrix;

    /// `out += a · b`, skipping zero entries of `a`.
    pub(crate) fn matmul_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        for r in 0..a.rows {
            for k in 0..a.cols {
                let x = a.get(r, k);
                if x == 0.0 {
                    continue;
                }
                for c in 0..b.cols {
                    let v = out.get(r, c) + x * b.get(k, c);
                    out.set(r, c, v);
                }
            }
        }
    }

    pub(crate) fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for r in 0..a.rows {
            let srow = a.row(r);
            let orow = b.row(r);
            for (k, &x) in srow.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(k);
                for c in 0..b.cols {
                    out_row[c] += x * orow[c];
                }
            }
        }
        out
    }

    pub(crate) fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.rows);
        for r in 0..a.rows {
            let srow = a.row(r);
            for c in 0..b.rows {
                let orow = b.row(c);
                let mut acc = 0.0;
                for k in 0..a.cols {
                    acc += srow[k] * orow[k];
                }
                out.set(r, c, acc);
            }
        }
        out
    }
}

/// Bitwise equality of two matrices, shape included.
#[cfg(test)]
pub(crate) fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(
        (got.rows, got.cols),
        (want.rows, want.cols),
        "{what}: shape"
    );
    for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// All columns of `a · bᵀ` through fresh scratch.
    fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        a.matmul_t_into(b, 0..b.rows, &mut Matrix::default(), &mut out);
        out
    }

    /// Seeded values in (-1, 1) with exact `0.0` and `-0.0` mixed in.
    fn with_zeros(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| match (r * 7 + c * 3) % 11 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
    }

    /// Shapes cover batch 1/16/64/65 and widths that are not multiples
    /// of the 8-lane vector width on either side of the product.
    const ORACLE_SHAPES: [(usize, usize, usize); 6] = [
        (1, 1, 1),
        (1, 33, 46),
        (16, 64, 46),
        (64, 32, 64),
        (65, 7, 13),
        (64, 1, 32),
    ];

    #[test]
    fn matmul_t_bitwise_matches_naive() {
        let mut rng = StdRng::seed_from_u64(31);
        let (mut other_t, mut out) = (Matrix::default(), Matrix::default());
        for (m, k, n) in ORACLE_SHAPES {
            let a = with_zeros(m, k, &mut rng);
            let b = with_zeros(n, k, &mut rng);
            let want = naive::matmul_t(&a, &b);
            // Every column range, through warm wrong-shaped scratch,
            // equals the same columns of the full product.
            for cols in [0..n, 0..n / 2, n / 3..n, n..n] {
                a.matmul_t_into(&b, cols.clone(), &mut other_t, &mut out);
                assert_bits_eq(&out, &want.slice_cols(cols.start, cols.end), "range");
            }
        }
    }

    /// No term is skipped: a NaN or infinite weight reaches every
    /// output it touches even when the gradient entry is zero. (Which
    /// NaN comes out is not compared: IEEE 754 leaves the sign and
    /// payload of a NaN result to the implementation.)
    #[test]
    fn matmul_t_propagates_non_finite_like_naive() {
        let a = m(2, 3, &[0.0, 1.0, -0.0, 2.0, 0.0, 0.5]);
        let b = m(
            3,
            3,
            &[
                f32::NAN,
                1.0,
                f32::INFINITY,
                1.0,
                f32::NEG_INFINITY,
                2.0,
                f32::INFINITY,
                1.0,
                1.0,
            ],
        );
        let got = matmul_t(&a, &b);
        let want = naive::matmul_t(&a, &b);
        for (g, w) in got.data.iter().zip(&want.data) {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{g} vs {w}"
            );
        }
        // 0·NaN, -0·∞ and 0·-∞ are NaN; 2·∞ is ∞.
        assert!(got.get(0, 0).is_nan() && got.get(1, 1).is_nan());
        assert_eq!(got.get(1, 2), f32::INFINITY);
    }

    #[test]
    fn t_matmul_bitwise_matches_naive() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut out = Matrix::zeros(3, 3); // Wrong shape, stale contents.
        out.map_inplace(|_| 99.0);
        for (m, k, n) in ORACLE_SHAPES {
            let a = with_zeros(m, k, &mut rng);
            let b = with_zeros(m, n, &mut rng);
            a.t_matmul_into(&b, &mut out);
            assert_bits_eq(&out, &naive::t_matmul(&a, &b), "t_matmul");
        }
    }

    #[test]
    #[should_panic(expected = "column range out of bounds")]
    fn matmul_t_into_rejects_range_past_other_rows() {
        let (a, b) = (Matrix::zeros(2, 3), Matrix::zeros(4, 3));
        a.matmul_t_into(&b, 2..5, &mut Matrix::default(), &mut Matrix::default());
    }

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[1., 0., 0., 1., 1., 1.]);
        let mut out = Matrix::default();
        a.t_matmul_into(&b, &mut out);
        assert_eq!(out.data, a.transpose().matmul(&b).data);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &[1., 0., 0., 0., 1., 0., 0., 0., 1., 1., 1., 1.]);
        assert_eq!(matmul_t(&a, &b).data, a.matmul(&b.transpose()).data);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.col_sums(), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Matrix::xavier(64, 32, &mut rng);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(w.data.iter().all(|x| x.abs() <= limit));
        // Not all identical.
        assert!(w.data.iter().any(|&x| x != w.data[0]));
    }

    #[test]
    fn hstack_and_slice_roundtrip() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 3, &[5., 6., 7., 8., 9., 10.]);
        let c = a.hstack(&b);
        assert_eq!(c.cols, 5);
        assert_eq!(c.row(0), &[1., 2., 5., 6., 7.]);
        assert_eq!(c.slice_cols(0, 2).data, a.data);
        assert_eq!(c.slice_cols(2, 5).data, b.data);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Output widths on both sides of every tile width (64, 32, 16, 8,
    /// 4 and 1) and of their sums, and reduction lengths from empty to
    /// past two 64-deep blocks.
    const WIDTHS: [usize; 24] = [
        1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 46, 63, 64, 65, 95, 96, 97, 127, 128, 129,
    ];
    const DEPTHS: [usize; 7] = [0, 1, 2, 63, 64, 65, 130];

    /// Seeded values in (-1, 1) with `0.0` and `-0.0` mixed in, and,
    /// when `special`, NaN, `∞` and `−∞` at about one entry in 64.
    fn hostile(rows: usize, cols: usize, special: bool, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..192u32) {
            0..=7 => 0.0,
            8..=15 => -0.0,
            16 if special => f32::NAN,
            17 if special => f32::INFINITY,
            18 if special => f32::NEG_INFINITY,
            _ => rng.gen_range(-1.0f32..1.0),
        })
    }

    /// `got` is `want` bit for bit, element by element, or both are NaN
    /// (IEEE 754 leaves the sign and payload of a NaN result to the
    /// implementation).
    fn assert_same(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(
            (got.rows, got.cols),
            (want.rows, want.cols),
            "{what}: shape"
        );
        for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i}: {g} vs {w}"
            );
        }
    }

    /// Every product through the blocked row kernel — `matmul_into`,
    /// `accumulate` over a stale non-zero `out`, `t_matmul_into` and
    /// `matmul_t_into` — equals its naive reference to the last bit at
    /// every width and reduction length above, over inputs holding exact
    /// `0.0` and `-0.0` (skipped by the first three, added by the last)
    /// and, in a second pass, NaN and infinities.
    #[test]
    fn every_product_bitwise_matches_naive_at_every_tile_edge() {
        let mut rng = StdRng::seed_from_u64(41);
        let (mut out, mut other_t) = (Matrix::default(), Matrix::default());
        for special in [false, true] {
            for n in WIDTHS {
                for k in DEPTHS {
                    for m in [1, 3] {
                        let what = format!("{m}x{k} by {k}x{n}, special {special}");
                        let a = hostile(m, k, special, &mut rng);
                        let b = hostile(k, n, special, &mut rng);
                        let mut want = Matrix::zeros(m, n);
                        naive::matmul_acc(&a, &b, &mut want);
                        a.matmul_into(&b, &mut out);
                        assert_same(&out, &want, &format!("matmul {what}"));

                        let init = hostile(m, n, special, &mut rng);
                        let (mut got, mut want) = (init.clone(), init);
                        Matrix::accumulate(&a, &b, &mut got);
                        naive::matmul_acc(&a, &b, &mut want);
                        assert_same(&got, &want, &format!("accumulate {what}"));

                        let at = hostile(k, m, special, &mut rng);
                        at.t_matmul_into(&b, &mut out);
                        assert_same(&out, &naive::t_matmul(&at, &b), &format!("t_matmul {what}"));

                        let bt = hostile(n, k, special, &mut rng);
                        a.matmul_t_into(&bt, 0..n, &mut other_t, &mut out);
                        assert_same(&out, &naive::matmul_t(&a, &bt), &format!("matmul_t {what}"));
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_into_reuses_buffer_across_shapes() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let mut out = Matrix::zeros(5, 5); // Wrong shape, stale contents.
        out.map_inplace(|_| 99.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.rows, 2);
        assert_eq!(out.cols, 2);
        assert_eq!(out.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn reshape_and_copy_cols() {
        let a = m(2, 4, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let mut out = Matrix::default();
        a.copy_cols_into(1, 3, &mut out);
        assert_eq!(out.rows, 2);
        assert_eq!(out.cols, 2);
        assert_eq!(out.data, vec![2., 3., 6., 7.]);
        let mut z = Matrix::default();
        z.reshape_zeroed(2, 2);
        assert_eq!(z.data, vec![0.0; 4]);
    }
}
