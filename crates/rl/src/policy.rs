//! Stochastic Gaussian policy over a continuous scalar action.
//!
//! The actor network outputs the mean of a Gaussian action distribution
//! (Fig. 3 of the paper); the log standard deviation is a separate
//! state-independent learned parameter, the standard PPO
//! parameterization for continuous control. The policy is generic over
//! [`Network`] so that MOCC's preference-sub-network composite can be
//! used as the mean network.

use mocc_nn::rng::{gaussian_entropy, gaussian_log_prob, normal};
use mocc_nn::{ForwardTier, Matrix, Mlp, Network};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Reusable buffers for allocation-free (batched) policy inference:
/// the network's own scratch plus the batched-mean output matrix. One
/// scratch serves any number of [`GaussianPolicy::act_batch_tier`] /
/// [`GaussianPolicy::mean_action_batch`] calls.
#[derive(Clone)]
pub struct PolicyScratch<N: Network> {
    net: N::Scratch,
    means: Matrix,
}

impl<N: Network> Default for PolicyScratch<N> {
    fn default() -> Self {
        PolicyScratch {
            net: N::Scratch::default(),
            means: Matrix::default(),
        }
    }
}

/// A diagonal-Gaussian policy with learned state-independent log-std.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianPolicy<N: Network = Mlp> {
    /// The mean network (obs → scalar mean).
    pub net: N,
    /// Log standard deviation of the action distribution.
    pub log_std: f32,
    /// Accumulated gradient of the log-std (not serialized).
    #[serde(skip)]
    pub g_log_std: f32,
}

impl GaussianPolicy<Mlp> {
    /// Builds an MLP-backed policy with the given hidden sizes
    /// (paper: 64, 32 tanh).
    pub fn new<R: Rng>(obs_dim: usize, hidden: &[usize], rng: &mut R) -> Self {
        let mut sizes = vec![obs_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        GaussianPolicy::from_net(Mlp::new(
            &sizes,
            mocc_nn::Activation::Tanh,
            mocc_nn::Activation::Linear,
            rng,
        ))
    }
}

impl<N: Network> GaussianPolicy<N> {
    /// Wraps an arbitrary mean network into a Gaussian policy.
    ///
    /// # Panics
    ///
    /// Panics if the network does not output exactly one value.
    pub fn from_net(net: N) -> Self {
        assert_eq!(net.out_dim(), 1, "policy mean network must be scalar");
        GaussianPolicy {
            net,
            log_std: -0.5,
            g_log_std: 0.0,
        }
    }

    /// The current standard deviation.
    pub fn std(&self) -> f32 {
        self.log_std.exp().max(1e-4)
    }

    /// Deterministic action: the mean (used at deployment time), a
    /// one-row scalar-tier forward with a fresh scratch.
    pub fn mean_action(&self, obs: &[f32]) -> f32 {
        self.net.forward(obs)[0]
    }

    /// Deterministic actions on the scalar tier, the one evaluation
    /// forward: one observation per row of `obs`, one mean per entry
    /// of `out`. Each entry depends on its own row alone — batching
    /// flows or sweep cells cannot perturb a trajectory.
    pub fn mean_action_batch(
        &self,
        obs: &Matrix,
        out: &mut Vec<f32>,
        scratch: &mut PolicyScratch<N>,
    ) {
        self.net.forward_batch_into_tier(
            obs,
            &mut scratch.means,
            &mut scratch.net,
            ForwardTier::Scalar,
        );
        out.clear();
        out.extend((0..scratch.means.rows).map(|r| scratch.means.get(r, 0)));
    }

    /// Samples one `(action, log_prob)` per row of `obs`, rows in
    /// order from `rng` — so one call over *n* rows consumes the stream
    /// exactly like *n* one-row calls in sequence. The affine sampling
    /// around each row's mean is identical in both tiers: `Scalar`
    /// computes [`GaussianPolicy::mean_action_batch`]'s means, `Fast`
    /// (training rollouts only) permits the approximate tanh kernels of
    /// `mocc_nn::simd` on networks that implement them (others fall
    /// back to scalar). Both tiers are fully deterministic; `Fast`
    /// trades ≤ 4e-6 of mean accuracy for speed.
    pub fn act_batch_tier<R: Rng>(
        &self,
        obs: &Matrix,
        rng: &mut R,
        out: &mut Vec<(f32, f32)>,
        scratch: &mut PolicyScratch<N>,
        tier: ForwardTier,
    ) {
        self.net
            .forward_batch_into_tier(obs, &mut scratch.means, &mut scratch.net, tier);
        let std = self.std();
        out.clear();
        out.extend((0..scratch.means.rows).map(|r| {
            let mean = scratch.means.get(r, 0);
            let a = normal(rng, mean, std);
            (a, gaussian_log_prob(a, mean, std))
        }));
    }

    /// Log-probability of `action` at `obs` under the current policy.
    pub fn log_prob(&self, obs: &[f32], action: f32) -> f32 {
        gaussian_log_prob(action, self.mean_action(obs), self.std())
    }

    /// Differential entropy of the action distribution.
    pub fn entropy(&self) -> f32 {
        gaussian_entropy(self.std())
    }

    /// Zeroes accumulated gradients (network and log-std).
    pub fn zero_grad(&mut self) {
        self.net.zero_grad();
        self.g_log_std = 0.0;
    }

    /// Visits every parameter tensor with its gradient, including the
    /// log-std scalar under the slot right after the network's (the
    /// numbering stays dense, as the optimizer's index-keyed moment
    /// buffers require).
    pub fn for_each_param(&mut self, mut f: impl FnMut(usize, &mut [f32], &[f32])) {
        self.net.for_each_param(&mut f);
        let mut p = [self.log_std];
        let g = [self.g_log_std];
        f(self.net.param_slots(), &mut p, &g);
        self.log_std = p[0].clamp(-3.0, 0.3);
    }

    /// Copies parameters from another policy of the same architecture.
    pub fn copy_params_from(&mut self, other: &GaussianPolicy<N>) {
        self.net.copy_params_from(&other.net);
        self.log_std = other.log_std;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One sampled `(action, log_prob)` through a one-row call.
    fn act_one(pol: &GaussianPolicy, obs: &[f32], rng: &mut StdRng) -> (f32, f32) {
        let row = Matrix::from_vec(1, obs.len(), obs.to_vec());
        let mut out = Vec::new();
        let mut scratch = PolicyScratch::default();
        pol.act_batch_tier(&row, rng, &mut out, &mut scratch, ForwardTier::Scalar);
        out[0]
    }

    #[test]
    fn sampled_actions_concentrate_near_mean() {
        let mut rng = StdRng::seed_from_u64(0);
        let pol = GaussianPolicy::new(3, &[8], &mut rng);
        let obs = [0.2, -0.1, 0.4];
        let mean = pol.mean_action(&obs);
        let n = 4000;
        let avg: f32 = (0..n).map(|_| act_one(&pol, &obs, &mut rng).0).sum::<f32>() / n as f32;
        assert!((avg - mean).abs() < 0.05, "avg {avg} vs mean {mean}");
    }

    #[test]
    fn log_prob_consistent_with_sampling_density() {
        let mut rng = StdRng::seed_from_u64(1);
        let pol = GaussianPolicy::new(2, &[4], &mut rng);
        let obs = [1.0, 0.0];
        let m = pol.mean_action(&obs);
        assert!(pol.log_prob(&obs, m) > pol.log_prob(&obs, m + 3.0 * pol.std()));
    }

    /// Row *r* of an *n*-row call equals that row sent alone, on both
    /// tiers: the same action and log-probability bits, the same RNG
    /// stream as the one-row calls made in row order, and on the
    /// scalar tier the same mean bits. A second pass through the warm
    /// scratch does not drift.
    #[test]
    fn each_row_equals_that_row_sent_alone() {
        let mut rng = StdRng::seed_from_u64(3);
        let pol = GaussianPolicy::new(4, &[8, 6], &mut rng);
        let rows = 9;
        let obs = Matrix::from_fn(rows, 4, |r, c| {
            if (r + c) % 3 == 0 {
                0.0
            } else {
                ((r * 7 + c) % 5) as f32 * 0.4 - 0.9
            }
        });
        let mut scratch = PolicyScratch::default();
        let mut lone = PolicyScratch::default();
        let (mut acts, mut means, mut one) = (Vec::new(), Vec::new(), Vec::new());
        let (mut act1, mut row) = (Vec::new(), Matrix::default());
        for tier in [ForwardTier::Scalar, ForwardTier::Fast, ForwardTier::Scalar] {
            let mut rng_a = StdRng::seed_from_u64(42);
            let mut rng_b = StdRng::seed_from_u64(42);
            pol.act_batch_tier(&obs, &mut rng_a, &mut acts, &mut scratch, tier);
            pol.mean_action_batch(&obs, &mut means, &mut scratch);
            assert_eq!((acts.len(), means.len()), (rows, rows));
            for r in 0..rows {
                row.reshape(1, 4);
                row.row_mut(0).copy_from_slice(obs.row(r));
                pol.act_batch_tier(&row, &mut rng_b, &mut act1, &mut lone, tier);
                pol.mean_action_batch(&row, &mut one, &mut lone);
                assert_eq!(acts[r].0.to_bits(), act1[0].0.to_bits(), "action row {r}");
                assert_eq!(acts[r].1.to_bits(), act1[0].1.to_bits(), "log_prob row {r}");
                assert_eq!(means[r].to_bits(), one[0].to_bits(), "mean row {r}");
                assert_eq!(means[r].to_bits(), pol.mean_action(obs.row(r)).to_bits());
            }
            assert_eq!(rng_a.state(), rng_b.state());
        }
    }

    #[test]
    fn log_std_clamped_after_update() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pol = GaussianPolicy::new(2, &[4], &mut rng);
        pol.g_log_std = 0.0;
        pol.log_std = 5.0; // Out of range on purpose.
        pol.for_each_param(|_, _, _| {});
        assert!(pol.log_std <= 0.3);
    }
}
