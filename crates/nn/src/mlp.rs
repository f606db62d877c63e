//! Multi-layer perceptrons with explicit backpropagation.
//!
//! The paper's policy and value networks are fully connected MLPs with
//! two hidden layers of 64 and 32 tanh units (§5). [`Mlp`] implements
//! batched forward passes with an activation cache and exact reverse-
//! mode gradients, accumulated into per-layer gradient buffers that an
//! optimizer consumes through [`Mlp::for_each_param`].

use crate::matrix::Matrix;
use crate::simd::{self, ForwardTier};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Activation function applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent (the paper's choice).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Identity (used for output layers).
    Linear,
}

impl Activation {
    pub(crate) fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Tanh => simd::exact_tanh(x),
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *post-activation* value,
    /// which every supported function admits (tanh' = 1 − y², relu' =
    /// [y > 0], linear' = 1) and which avoids caching pre-activations.
    fn dydx_from_y(self, y: f32) -> f32 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Linear => 1.0,
        }
    }
}

/// One dense layer with its gradient buffers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
    /// Activation applied to the affine output.
    pub act: Activation,
    /// Accumulated weight gradient.
    #[serde(skip)]
    pub gw: Option<Matrix>,
    /// Accumulated bias gradient.
    #[serde(skip)]
    pub gb: Option<Vec<f32>>,
}

impl Dense {
    /// A Xavier-initialized dense layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, act: Activation, rng: &mut R) -> Self {
        Dense {
            w: Matrix::xavier(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            act,
            gw: None,
            gb: None,
        }
    }

    fn ensure_grads(&mut self) {
        if self.gw.is_none() {
            self.gw = Some(Matrix::zeros(self.w.rows, self.w.cols));
        }
        if self.gb.is_none() {
            self.gb = Some(vec![0.0; self.b.len()]);
        }
    }

    /// Batched layer application `out = act(bias ⊕ x · W)`, reshaping
    /// `out` to fit (allocation-free at steady state). The accumulation
    /// is [`Matrix::accumulate`] — the same blocked kernel behind
    /// `matmul_into` — over bias-initialized rows: per output element,
    /// bias first, then the weight rows in ascending input order with
    /// zero inputs skipped, whatever the number of rows. The affine
    /// part is identical in both tiers; only a tanh activation differs
    /// under [`ForwardTier::Fast`].
    fn forward_batch_into_tier(&self, x: &Matrix, out: &mut Matrix, tier: ForwardTier) {
        assert_eq!(x.cols, self.w.rows, "layer input dimension mismatch");
        out.reshape(x.rows, self.w.cols);
        for r in 0..x.rows {
            out.row_mut(r).copy_from_slice(&self.b);
        }
        Matrix::accumulate(x, &self.w, out);
        simd::apply_activation(self.act, tier, &mut out.data);
    }
}

/// Reusable buffers for allocation-free inference. One scratch serves
/// any number of [`Mlp::forward_batch_into_tier`] calls; buffers grow
/// to the largest activation matrix seen and are then reused verbatim.
/// Cheap to create, but meant to live as long as the caller's
/// inference loop.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    /// Ping-pong activation matrices.
    m0: Matrix,
    m1: Matrix,
}

/// Forward-pass cache: the input and each layer's post-activation
/// output, needed by [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// `activations[0]` is the input batch; `activations[i + 1]` the
    /// output of layer `i`.
    pub activations: Vec<Matrix>,
}

impl ForwardCache {
    /// The network output for this cache.
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("nonempty cache")
    }
}

/// Back-propagation temporaries, kept beside the gradient buffers so a
/// training loop allocates none of them per minibatch. Never
/// serialized; contents are unspecified between calls.
#[derive(Debug, Clone, Default)]
struct BackwardScratch {
    /// ∂L/∂(current layer's output), turned into ∂L/∂z in place.
    grad: Matrix,
    /// ∂L/∂(current layer's input), swapped into `grad` per layer.
    grad_in: Matrix,
    /// `xᵀ · grad`, the minibatch's weight gradient before it is added
    /// to the accumulated `gw`.
    xt_grad: Matrix,
    /// The transposed weight block of [`Matrix::matmul_t_into`].
    w_t: Matrix,
}

/// A fully connected feed-forward network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    /// The layers, applied in order.
    pub layers: Vec<Dense>,
    #[serde(skip)]
    scratch: BackwardScratch,
}

impl Mlp {
    /// Builds an MLP with the given layer `sizes` (input first), hidden
    /// activation `hidden`, and output activation `out`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng>(sizes: &[usize], hidden: Activation, out: Activation, rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == sizes.len() { out } else { hidden };
                Dense::new(w[0], w[1], act, rng)
            })
            .collect();
        Mlp {
            layers,
            scratch: BackwardScratch::default(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("nonempty").w.rows
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("nonempty").w.cols
    }

    /// Batched forward pass with cache for backprop.
    pub fn forward_batch(&self, x: &Matrix) -> ForwardCache {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(x.clone());
        for layer in &self.layers {
            let mut z = activations.last().unwrap().matmul(&layer.w);
            z.add_row_broadcast(&layer.b);
            simd::apply_activation(layer.act, ForwardTier::Scalar, &mut z.data);
            activations.push(z);
        }
        ForwardCache { activations }
    }

    /// Inference without a backprop cache — the one forward kernel:
    /// `x` is one observation per row, `out` receives one output row
    /// per input row (reshaped to fit). Allocation-free at steady
    /// state. A row's output depends on that row alone, so one call
    /// may serve many flows or environments without perturbing any of
    /// them. [`ForwardTier::Scalar`] evaluates tanh through libm;
    /// [`ForwardTier::Fast`] swaps in `fast_tanh` (see the `simd`
    /// module docs for the error bound and determinism contract);
    /// pre-activations are tier-independent.
    pub fn forward_batch_into_tier(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        scratch: &mut MlpScratch,
        tier: ForwardTier,
    ) {
        assert_eq!(x.cols, self.in_dim(), "batch input dimension mismatch");
        let n = self.layers.len();
        if n == 1 {
            self.layers[0].forward_batch_into_tier(x, out, tier);
            return;
        }
        self.layers[0].forward_batch_into_tier(x, &mut scratch.m0, tier);
        for layer in &self.layers[1..n - 1] {
            layer.forward_batch_into_tier(&scratch.m0, &mut scratch.m1, tier);
            std::mem::swap(&mut scratch.m0, &mut scratch.m1);
        }
        self.layers[n - 1].forward_batch_into_tier(&scratch.m0, out, tier);
    }

    /// Backpropagates `grad_out` (∂L/∂output, same shape as the cached
    /// output), *accumulating* parameter gradients, and returns
    /// ∂L/∂input. Callers that read only some input columns, or none,
    /// use [`Mlp::backward_cols`], which leaves the same bits in every
    /// gradient buffer.
    pub fn backward(&mut self, cache: &ForwardCache, grad_out: &Matrix) -> Matrix {
        let in_dim = self.in_dim();
        self.backward_cols(cache, grad_out, 0..in_dim).clone()
    }

    /// The back-propagation core: accumulates parameter gradients for
    /// `grad_out` like [`Mlp::backward`] and returns columns
    /// `input_cols` of ∂L/∂input, borrowed from the network's scratch
    /// (valid until the next backward call). An empty range computes
    /// no input gradient at all — a learner that only steps its own
    /// parameters pays for nothing it would throw away.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not come from this network, if
    /// `grad_out` is not `batch × out_dim`, or if `input_cols` reaches
    /// past `in_dim`.
    pub fn backward_cols(
        &mut self,
        cache: &ForwardCache,
        grad_out: &Matrix,
        input_cols: Range<usize>,
    ) -> &Matrix {
        assert_eq!(
            cache.activations.len(),
            self.layers.len() + 1,
            "cache does not match network depth"
        );
        let out = cache.output();
        assert!(
            grad_out.rows == out.rows && grad_out.cols == out.cols,
            "grad_out is {}×{} but the cached output is {}×{}",
            grad_out.rows,
            grad_out.cols,
            out.rows,
            out.cols
        );
        let Mlp { layers, scratch: s } = self;
        s.grad.reshape(grad_out.rows, grad_out.cols);
        s.grad.data.copy_from_slice(&grad_out.data);
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            let y = &cache.activations[i + 1];
            // Through the activation: dL/dz = dL/dy ⊙ act'(y).
            for (g, &yv) in s.grad.data.iter_mut().zip(&y.data) {
                *g *= layer.act.dydx_from_y(yv);
            }
            let x = &cache.activations[i];
            layer.ensure_grads();
            // The minibatch's product is formed from zero and *then*
            // added: accumulating straight into a non-zero `gw` would
            // change the summation order.
            x.t_matmul_into(&s.grad, &mut s.xt_grad);
            layer.gw.as_mut().unwrap().axpy(1.0, &s.xt_grad);
            for (gb, sum) in layer.gb.as_mut().unwrap().iter_mut().zip(s.grad.col_sums()) {
                *gb += sum;
            }
            let cols = if i > 0 {
                0..layer.w.rows
            } else {
                input_cols.clone()
            };
            s.grad
                .matmul_t_into(&layer.w, cols, &mut s.w_t, &mut s.grad_in);
            std::mem::swap(&mut s.grad, &mut s.grad_in);
        }
        &s.grad
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            if let Some(gw) = &mut layer.gw {
                gw.fill_zero();
            }
            if let Some(gb) = &mut layer.gb {
                gb.iter_mut().for_each(|x| *x = 0.0);
            }
        }
    }

    /// Visits each parameter tensor with its gradient, giving the
    /// optimizer `(slot, params, grads)`. Slots are stable across calls.
    pub fn for_each_param(&mut self, mut f: impl FnMut(usize, &mut [f32], &[f32])) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.ensure_grads();
            let Dense { w, b, gw, gb, .. } = layer;
            f(2 * i, &mut w.data, &gw.as_ref().unwrap().data);
            f(2 * i + 1, b, gb.as_ref().unwrap());
        }
    }

    /// Number of parameter slots visited by [`Mlp::for_each_param`]
    /// (two per layer: weights then bias). Slot indices are dense in
    /// `0..param_slots()`, so wrappers adding their own tensors can
    /// keep a dense numbering by continuing from here.
    pub fn param_slots(&self) -> usize {
        2 * self.layers.len()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.data.len() + l.b.len()).sum()
    }

    /// Copies all parameters from `other` (same architecture).
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(a.w.data.len(), b.w.data.len());
            a.w.data.copy_from_slice(&b.w.data);
            a.b.copy_from_slice(&b.b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{assert_bits_eq, naive};
    use crate::network::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The back-propagation [`Mlp::backward_cols`] replaced, kept
    /// verbatim over the naive matrix products as its reference: a
    /// fresh matrix per layer per step, the full input gradient always.
    fn naive_backward(mlp: &mut Mlp, cache: &ForwardCache, grad_out: &Matrix) -> Matrix {
        let mut grad = grad_out.clone();
        for (i, layer) in mlp.layers.iter_mut().enumerate().rev() {
            let y = &cache.activations[i + 1];
            for (g, &yv) in grad.data.iter_mut().zip(&y.data) {
                *g *= layer.act.dydx_from_y(yv);
            }
            let x = &cache.activations[i];
            layer.ensure_grads();
            layer
                .gw
                .as_mut()
                .unwrap()
                .axpy(1.0, &naive::t_matmul(x, &grad));
            for (gb, s) in layer.gb.as_mut().unwrap().iter_mut().zip(grad.col_sums()) {
                *gb += s;
            }
            grad = naive::matmul_t(&grad, &layer.w);
        }
        grad
    }

    fn assert_grads_bits_eq(got: &mut Mlp, want: &mut Mlp, what: &str) {
        let mut slots: Vec<Vec<u32>> = Vec::new();
        want.for_each_param(|_, _, g| slots.push(g.iter().map(|x| x.to_bits()).collect()));
        got.for_each_param(|slot, _, g| {
            let g: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
            assert_eq!(g, slots[slot], "{what}: slot {slot}");
        });
    }

    /// Every `gw`/`gb` and the returned input gradient equal the naive
    /// reference bit for bit: three activations, batch 1/16/64/65,
    /// widths off the vector width, inputs holding exact `0.0` and
    /// `-0.0`, and a second backward without `zero_grad` in between
    /// (accumulation into non-zero buffers). The column-range and
    /// params-only entries leave the same bits in every slot.
    #[test]
    fn backward_bitwise_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(41);
        for hidden in [Activation::Tanh, Activation::Relu, Activation::Linear] {
            for (sizes, batch) in [
                (&[46, 64, 32, 1][..], 64usize),
                (&[5, 7, 3], 1),
                (&[13, 9, 11, 2], 16),
                (&[4, 4], 65),
            ] {
                let mut fast = Mlp::new(sizes, hidden, Activation::Linear, &mut rng);
                let mut naive_net = fast.clone();
                let mut cols_net = fast.clone();
                let mut params_net = fast.clone();
                let in_dim = sizes[0];
                let out_dim = *sizes.last().unwrap();
                for pass in 0..2 {
                    let x = Matrix::from_fn(batch, in_dim, |r, c| match (r + 2 * c + pass) % 7 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-1.5f32..1.5),
                    });
                    let gout = Matrix::from_fn(batch, out_dim, |r, _| match r % 5 {
                        0 => 0.0,
                        _ => rng.gen_range(-1.0f32..1.0),
                    });
                    let cache = fast.forward_batch(&x);
                    let want = naive_backward(&mut naive_net, &cache, &gout);
                    let what = format!("{hidden:?} {sizes:?} b{batch} pass {pass}");
                    assert_bits_eq(&fast.backward(&cache, &gout), &want, &what);
                    assert_grads_bits_eq(&mut fast, &mut naive_net, &what);

                    let cols = in_dim / 3..in_dim - 1;
                    let part = cols_net.backward_cols(&cache, &gout, cols.clone());
                    assert_bits_eq(part, &want.slice_cols(cols.start, cols.end), &what);
                    assert_grads_bits_eq(&mut cols_net, &mut naive_net, &what);

                    Network::backward_params(&mut params_net, &cache, &gout);
                    assert_grads_bits_eq(&mut params_net, &mut naive_net, &what);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "grad_out is 3×1 but the cached output is 3×2")]
    fn backward_rejects_wrong_shaped_gradient() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut mlp = Mlp::new(&[4, 5, 2], Activation::Tanh, Activation::Linear, &mut rng);
        let cache = mlp.forward_batch(&Matrix::zeros(3, 4));
        let _ = mlp.backward(&cache, &Matrix::zeros(3, 1));
    }

    /// Scratch is working memory, not state: it is never serialized,
    /// so a network that has trained writes the same JSON shape as a
    /// fresh one.
    #[test]
    fn backward_scratch_is_not_serialized() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Linear, &mut rng);
        let before = serde_json::to_string(&mlp).unwrap();
        let cache = mlp.forward_batch(&Matrix::zeros(2, 3));
        let _ = mlp.backward(&cache, &Matrix::zeros(2, 2));
        assert_eq!(serde_json::to_string(&mlp).unwrap(), before);
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(
            &[5, 64, 32, 2],
            Activation::Tanh,
            Activation::Linear,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.param_count(), 5 * 64 + 64 + 64 * 32 + 32 + 32 * 2 + 2);
        let y = mlp.forward(&[0.1, -0.2, 0.3, 0.0, 1.0]);
        assert_eq!(y.len(), 2);
    }

    /// The forward pass as one would write it first, kept as the
    /// executable reference of the one inference kernel: a row at a
    /// time, every output starts at its bias and adds `x[i] · w[i][j]`
    /// in ascending `i` with zero inputs skipped — no blocking, no row
    /// kernel. `tanh` is libm's for the scalar tier; the fast tier's
    /// reference passes `fast_tanh`, whose distance from libm the
    /// dense-grid test in `simd.rs` bounds.
    fn naive_forward(mlp: &Mlp, x: &Matrix, tanh: fn(f32) -> f32) -> Matrix {
        let mut cur = x.clone();
        for layer in &mlp.layers {
            cur = Matrix::from_fn(cur.rows, layer.w.cols, |r, j| {
                let mut acc = layer.b[j];
                for (i, &xi) in cur.row(r).iter().enumerate() {
                    if xi != 0.0 {
                        acc += xi * layer.w.get(i, j);
                    }
                }
                match layer.act {
                    Activation::Tanh => tanh(acc),
                    act => act.apply(acc),
                }
            });
        }
        cur
    }

    /// The kernel equals the naive reference bit for bit on both tiers
    /// at 1, 3 and 70 rows — over the paper's trunk, layers wider than
    /// 64 columns on either side, a single-layer network and inputs
    /// holding exact `0.0` and `-0.0` — through one warm scratch of
    /// the wrong shape; and row *r* of an *n*-row call equals that row
    /// sent alone.
    #[test]
    fn forward_bitwise_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut scratch = MlpScratch::default();
        let (mut out, mut alone) = (Matrix::zeros(5, 5), Matrix::default());
        for hidden in [Activation::Tanh, Activation::Relu] {
            for sizes in [&[33, 64, 32, 1][..], &[70, 100, 3], &[3, 8, 2], &[6, 6]] {
                let mlp = Mlp::new(sizes, hidden, Activation::Linear, &mut rng);
                for rows in [1usize, 3, 70] {
                    let x = Matrix::from_fn(rows, sizes[0], |r, c| match (r + 2 * c) % 7 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-1.5f32..1.5),
                    });
                    for (tier, tanh) in [
                        (ForwardTier::Scalar, f32::tanh as fn(f32) -> f32),
                        (ForwardTier::Fast, simd::fast_tanh),
                    ] {
                        let what = format!("{hidden:?} {sizes:?} {rows} rows {tier:?}");
                        mlp.forward_batch_into_tier(&x, &mut out, &mut scratch, tier);
                        assert_bits_eq(&out, &naive_forward(&mlp, &x, tanh), &what);
                        for r in 0..rows {
                            let row = Matrix::from_vec(1, x.cols, x.row(r).to_vec());
                            mlp.forward_batch_into_tier(&row, &mut alone, &mut scratch, tier);
                            assert_eq!(bits(alone.row(0)), bits(out.row(r)), "{what} row {r}");
                        }
                    }
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// With no tanh layer there is nothing for the fast tier to
    /// approximate: Fast and Scalar are bitwise identical, proving the
    /// affine kernels themselves are tier-independent.
    #[test]
    fn fast_tier_is_bitwise_scalar_without_tanh_layers() {
        let mut rng = StdRng::seed_from_u64(22);
        let mlp = Mlp::new(&[9, 24, 3], Activation::Relu, Activation::Linear, &mut rng);
        let batch = Matrix::from_fn(13, 9, |r, c| ((r + 3 * c) % 7) as f32 * 0.4 - 1.1);
        let mut scratch = MlpScratch::default();
        let (mut fast, mut scalar) = (Matrix::default(), Matrix::default());
        mlp.forward_batch_into_tier(&batch, &mut fast, &mut scratch, ForwardTier::Fast);
        mlp.forward_batch_into_tier(&batch, &mut scalar, &mut scratch, ForwardTier::Scalar);
        for (a, b) in fast.data.iter().zip(&scalar.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Fast-tier outputs stay within the per-activation error budget
    /// of the scalar reference on the paper's network shape.
    #[test]
    fn fast_tier_tracks_scalar_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(23);
        let mlp = Mlp::new(
            &[33, 64, 32, 1],
            Activation::Tanh,
            Activation::Linear,
            &mut rng,
        );
        let batch = Matrix::from_fn(64, 33, |r, c| ((r * 13 + c * 3) % 17) as f32 * 0.12 - 1.0);
        let mut scratch = MlpScratch::default();
        let (mut fast, mut scalar) = (Matrix::default(), Matrix::default());
        mlp.forward_batch_into_tier(&batch, &mut fast, &mut scratch, ForwardTier::Fast);
        mlp.forward_batch_into_tier(&batch, &mut scalar, &mut scratch, ForwardTier::Scalar);
        for (i, (a, b)) in fast.data.iter().zip(&scalar.data).enumerate() {
            // Per-tanh error ≤ 4e-6 amplified through two hidden
            // layers of this width stays well under 1e-3.
            assert!((a - b).abs() < 1e-3, "row {i}: fast {a} vs scalar {b}");
        }
    }

    #[test]
    fn batch_and_single_forward_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[3, 8, 2], Activation::Tanh, Activation::Linear, &mut rng);
        let xs = [[0.5f32, -1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]];
        let batch = Matrix::from_vec(3, 3, xs.concat());
        let cache = mlp.forward_batch(&batch);
        for (i, x) in xs.iter().enumerate() {
            let single = mlp.forward(x);
            for (a, b) in single.iter().zip(cache.output().row(i)) {
                assert!((a - b).abs() < 1e-5, "row {i}: {a} vs {b}");
            }
        }
    }

    /// Finite-difference check of the full backward pass on a scalar
    /// loss L = Σ output².
    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[4, 6, 3], Activation::Tanh, Activation::Linear, &mut rng);
        let x = Matrix::from_vec(2, 4, vec![0.1, -0.4, 0.7, 0.2, -0.3, 0.5, 0.0, 1.0]);

        let loss = |m: &Mlp| -> f32 {
            let out = m.forward_batch(&x);
            out.output().data.iter().map(|v| v * v).sum()
        };

        // Analytic gradients: dL/dout = 2·out.
        mlp.zero_grad();
        let cache = mlp.forward_batch(&x);
        let mut gout = cache.output().clone();
        gout.map_inplace(|v| 2.0 * v);
        let _ = mlp.backward(&cache, &gout);

        // Collect analytic grads.
        let mut analytic: Vec<(usize, Vec<f32>)> = Vec::new();
        mlp.for_each_param(|slot, _p, g| analytic.push((slot, g.to_vec())));

        // Compare a sample of coordinates per tensor against central
        // differences.
        let eps = 1e-3f32;
        for (slot, grads) in &analytic {
            let n = grads.len();
            for idx in [0, n / 2, n - 1] {
                let mut plus = mlp.clone();
                let mut minus = mlp.clone();
                plus.for_each_param(|s, p, _| {
                    if s == *slot {
                        p[idx] += eps;
                    }
                });
                minus.for_each_param(|s, p, _| {
                    if s == *slot {
                        p[idx] -= eps;
                    }
                });
                let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                let an = grads[idx];
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                    "slot {slot} idx {idx}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn input_gradient_flows() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Linear, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![0.3, -0.6]);
        let cache = mlp.forward_batch(&x);
        let gout = Matrix::from_vec(1, 1, vec![1.0]);
        let gin = mlp.backward(&cache, &gout);
        assert_eq!(gin.rows, 1);
        assert_eq!(gin.cols, 2);
        assert!(gin.data.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn copy_params() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Mlp::new(&[2, 3, 1], Activation::Tanh, Activation::Linear, &mut rng);
        let mut b = Mlp::new(&[2, 3, 1], Activation::Tanh, Activation::Linear, &mut rng);
        b.copy_params_from(&a);
        assert_eq!(a.layers[0].w.data, b.layers[0].w.data);
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Linear, &mut rng);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(mlp.layers[0].w.data, back.layers[0].w.data);
        let x = [0.1, 0.2, 0.3];
        assert_eq!(mlp.forward(&x), back.forward(&x));
    }
}
