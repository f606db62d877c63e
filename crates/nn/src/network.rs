//! The trainable-network abstraction.
//!
//! [`Network`] is the minimal interface the RL layer needs from a
//! differentiable function approximator: cache-free inference (one
//! kernel, any number of rows), batched forward with a cache,
//! reverse-mode backward (with or without the input gradient), and
//! parameter/gradient iteration for an optimizer. [`crate::Mlp`]
//! implements it directly; MOCC's preference-sub-network composite
//! (Fig. 3 of the paper) implements it in `mocc-core` by wiring two
//! MLPs together.

use crate::matrix::Matrix;
use crate::mlp::{ForwardCache, Mlp, MlpScratch};
use crate::simd::ForwardTier;

/// A differentiable network trainable by gradient descent.
pub trait Network: Clone + Send {
    /// Opaque forward-pass cache consumed by [`Network::backward`].
    type Cache;

    /// Reusable inference buffers consumed by
    /// [`Network::forward_batch_into_tier`]. Implementations size the
    /// scratch lazily; a `Default` scratch works with any network of
    /// the implementing type.
    type Scratch: Default + Clone + Send;

    /// Input dimensionality.
    fn in_dim(&self) -> usize;

    /// Output dimensionality.
    fn out_dim(&self) -> usize;

    /// Inference without a backprop cache — the only inference kernel:
    /// one observation per row of `x`, one output per row of `out`
    /// (reshaped to fit), allocation-free once `scratch` has warmed
    /// up. Row *r* of an *n*-row call equals that row sent alone, bit
    /// for bit. `tier` selects the activation kernels (see
    /// `mocc_nn::simd`); an implementation without a fast tier may
    /// treat [`ForwardTier::Fast`] as [`ForwardTier::Scalar`] — the
    /// fast tier is an approximation license, never an obligation.
    fn forward_batch_into_tier(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        scratch: &mut Self::Scratch,
        tier: ForwardTier,
    );

    /// One observation through [`Network::forward_batch_into_tier`] as
    /// a one-row scalar-tier batch, with a fresh scratch: the
    /// convenience for callers outside a steady-state loop.
    fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Matrix::default();
        self.forward_batch_into_tier(
            &Matrix::from_vec(1, x.len(), x.to_vec()),
            &mut out,
            &mut Self::Scratch::default(),
            ForwardTier::Scalar,
        );
        out.data
    }

    /// Batched forward pass returning a cache for backprop.
    fn forward_batch(&self, x: &Matrix) -> Self::Cache;

    /// The output matrix stored in a cache.
    fn cache_output(cache: &Self::Cache) -> &Matrix;

    /// Backpropagates `grad_out`, accumulating parameter gradients;
    /// returns the gradient with respect to the input batch.
    fn backward(&mut self, cache: &Self::Cache, grad_out: &Matrix) -> Matrix;

    /// [`Network::backward`] for a learner that only steps this
    /// network's own parameters: leaves the same bits in every gradient
    /// buffer but computes no gradient with respect to the input batch.
    fn backward_params(&mut self, cache: &Self::Cache, grad_out: &Matrix);

    /// Zeroes accumulated gradients.
    fn zero_grad(&mut self);

    /// Visits each parameter tensor with its gradient under a stable
    /// slot index (for per-slot optimizer state). Slot indices must be
    /// dense in `0..param_slots()` — the optimizer keys its moment
    /// buffers by index, so sparse sentinel slots are not allowed.
    fn for_each_param(&mut self, f: impl FnMut(usize, &mut [f32], &[f32]));

    /// Number of parameter slots visited by [`Network::for_each_param`].
    /// Wrappers that append their own tensors (extra sub-networks,
    /// scalar parameters) keep the numbering dense by continuing from
    /// the inner network's count.
    fn param_slots(&self) -> usize;

    /// Copies all parameters from another network of the same shape.
    fn copy_params_from(&mut self, other: &Self);
}

impl Network for Mlp {
    type Cache = ForwardCache;
    type Scratch = MlpScratch;

    fn in_dim(&self) -> usize {
        Mlp::in_dim(self)
    }

    fn out_dim(&self) -> usize {
        Mlp::out_dim(self)
    }

    fn forward_batch_into_tier(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        scratch: &mut MlpScratch,
        tier: ForwardTier,
    ) {
        Mlp::forward_batch_into_tier(self, x, out, scratch, tier)
    }

    fn forward_batch(&self, x: &Matrix) -> ForwardCache {
        Mlp::forward_batch(self, x)
    }

    fn cache_output(cache: &ForwardCache) -> &Matrix {
        cache.output()
    }

    fn backward(&mut self, cache: &ForwardCache, grad_out: &Matrix) -> Matrix {
        Mlp::backward(self, cache, grad_out)
    }

    fn backward_params(&mut self, cache: &ForwardCache, grad_out: &Matrix) {
        self.backward_cols(cache, grad_out, 0..0);
    }

    fn zero_grad(&mut self) {
        Mlp::zero_grad(self)
    }

    fn for_each_param(&mut self, mut f: impl FnMut(usize, &mut [f32], &[f32])) {
        Mlp::for_each_param(self, &mut f)
    }

    fn param_slots(&self) -> usize {
        Mlp::param_slots(self)
    }

    fn copy_params_from(&mut self, other: &Self) {
        Mlp::copy_params_from(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The provided single-observation entry is a one-row call of the
    /// required kernel, on the scalar tier.
    #[test]
    fn provided_forward_is_a_one_row_scalar_batch() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Linear, &mut rng);
        let x = [0.1, 0.0, 0.3];
        let mut out = Matrix::default();
        mlp.forward_batch_into_tier(
            &Matrix::from_vec(1, 3, x.to_vec()),
            &mut out,
            &mut MlpScratch::default(),
            ForwardTier::Scalar,
        );
        assert_eq!(mlp.forward(&x), out.data);
        assert_eq!(Network::in_dim(&mlp), 3);
        assert_eq!(Network::out_dim(&mlp), 2);
    }
}
