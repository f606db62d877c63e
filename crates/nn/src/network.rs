//! The trainable-network abstraction.
//!
//! [`Network`] is the minimal interface the RL layer needs from a
//! differentiable function approximator: batched forward with a cache,
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

    /// Reusable inference buffers consumed by [`Network::forward_into`]
    /// and [`Network::forward_batch_into`]. Implementations size the
    /// scratch lazily; a `Default` scratch works with any network of
    /// the implementing type.
    type Scratch: Default + Clone + Send;

    /// Input dimensionality.
    fn in_dim(&self) -> usize;

    /// Output dimensionality.
    fn out_dim(&self) -> usize;

    /// Single-sample forward pass (inference path).
    fn forward(&self, x: &[f32]) -> Vec<f32>;

    /// Single-sample forward pass into `out` using reusable `scratch`
    /// buffers — allocation-free at steady state and bitwise identical
    /// to [`Network::forward`].
    fn forward_into(&self, x: &[f32], out: &mut Vec<f32>, scratch: &mut Self::Scratch);

    /// Batched inference without a backprop cache: one observation per
    /// row of `x`, one output per row of `out` (reshaped to fit). Each
    /// output row is bitwise identical to [`Network::forward`] of the
    /// corresponding input row.
    fn forward_batch_into(&self, x: &Matrix, out: &mut Matrix, scratch: &mut Self::Scratch);

    /// [`Network::forward_batch_into`] under an explicit kernel tier
    /// (see `mocc_nn::simd`). The default implementation ignores the
    /// tier and runs the scalar reference — implementations without a
    /// fast tier treat [`ForwardTier::Fast`] as
    /// [`ForwardTier::Scalar`], which is always correct (the fast tier
    /// is an approximation license, never an obligation).
    fn forward_batch_into_tier(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        scratch: &mut Self::Scratch,
        tier: ForwardTier,
    ) {
        let _ = tier;
        self.forward_batch_into(x, out, scratch);
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

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        Mlp::forward(self, x)
    }

    fn forward_into(&self, x: &[f32], out: &mut Vec<f32>, scratch: &mut MlpScratch) {
        let y = Mlp::forward_into(self, x, scratch);
        out.clear();
        out.extend_from_slice(y);
    }

    fn forward_batch_into(&self, x: &Matrix, out: &mut Matrix, scratch: &mut MlpScratch) {
        Mlp::forward_batch_into(self, x, out, scratch)
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

    fn generic_roundtrip<N: Network>(net: &N, x: &[f32]) -> Vec<f32> {
        net.forward(x)
    }

    #[test]
    fn mlp_usable_through_trait() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Linear, &mut rng);
        let direct = mlp.forward(&[0.1, 0.2, 0.3]);
        let via_trait = generic_roundtrip(&mlp, &[0.1, 0.2, 0.3]);
        assert_eq!(direct, via_trait);
        assert_eq!(Network::in_dim(&mlp), 3);
        assert_eq!(Network::out_dim(&mlp), 2);
    }
}
