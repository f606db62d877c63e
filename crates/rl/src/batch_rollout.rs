//! Lockstep batched rollout collection.
//!
//! Drives N environments in lockstep through one batched actor forward
//! and one batched critic forward per step — the training-side
//! counterpart of the batched evaluator (mocc-core's `batch_eval`),
//! replacing the per-env scalar forwards that dominated rollout cost.
//!
//! The determinism contract mirrors [`GaussianPolicy::act_batch`]: rows
//! are sampled from the RNG in env order, and the batched network
//! forwards are bitwise identical to their scalar counterparts. With a
//! single environment the collector therefore reproduces the scalar
//! act → value → step loop bit for bit — including the RNG stream —
//! which is what lets checkpointed training runs resume
//! byte-identically regardless of which path collected the rollout.

use crate::env::Env;
use crate::policy::{GaussianPolicy, PolicyScratch};
use crate::rollout::Rollout;
use mocc_nn::{ForwardTier, Matrix, Network};
use rand::Rng;

/// Reusable buffers for [`collect_rollouts_batched`]: the policy's
/// batched-inference scratch, the critic's scratch, and the lockstep
/// observation/value matrices. One scratch serves any number of calls;
/// buffers reach steady-state size after the first step.
pub struct BatchRolloutScratch<N: Network> {
    policy: PolicyScratch<N>,
    critic: N::Scratch,
    obs: Matrix,
    values: Matrix,
    acts: Vec<(f32, f32)>,
}

impl<N: Network> Default for BatchRolloutScratch<N> {
    fn default() -> Self {
        BatchRolloutScratch {
            policy: PolicyScratch::default(),
            critic: N::Scratch::default(),
            obs: Matrix::default(),
            values: Matrix::default(),
            acts: Vec::new(),
        }
    }
}

impl<N: Network> Clone for BatchRolloutScratch<N> {
    fn clone(&self) -> Self {
        BatchRolloutScratch {
            policy: self.policy.clone(),
            critic: self.critic.clone(),
            obs: self.obs.clone(),
            values: self.values.clone(),
            acts: self.acts.clone(),
        }
    }
}

/// Collects one on-policy rollout of `steps` transitions per
/// environment, driving all environments in lockstep: each step runs
/// one batched actor forward (sampling actions row by row from `rng`)
/// and one batched critic forward, then advances every environment,
/// resetting at episode boundaries. A final batched critic forward
/// fills each rollout's bootstrap value.
///
/// With `envs.len() == 1` the result — including the RNG stream — is
/// bitwise identical to the scalar act → value → step loop; with more
/// environments it is bitwise identical to interleaving scalar
/// per-env steps in env order against the same RNG.
///
/// # Panics
///
/// Panics if the environments disagree on `obs_dim`.
pub fn collect_rollouts_batched<N: Network, R: Rng>(
    policy: &GaussianPolicy<N>,
    value: &N,
    envs: &mut [&mut dyn Env],
    steps: usize,
    rng: &mut R,
    scratch: &mut BatchRolloutScratch<N>,
) -> Vec<Rollout> {
    collect_rollouts_batched_tier(
        policy,
        value,
        envs,
        steps,
        rng,
        scratch,
        ForwardTier::Scalar,
    )
}

/// [`collect_rollouts_batched`] under an explicit forward kernel tier.
///
/// Both tiers are fully deterministic — the RNG stream, env stepping,
/// and reward accounting are tier-independent — so checkpointed runs
/// resume byte-identically under either. `Scalar` is the bit-exact
/// reference against the per-env scalar loop; `Fast` permits the
/// approximate-tanh inference kernels (means move by ≤ 4e-6, well
/// inside the Gaussian exploration noise), which is what the batched
/// training pipeline uses: rollout collection is gradient-free
/// inference, so it takes the inference tier, while PPO's
/// learner-side forwards stay on the exact kernels.
///
/// # Panics
///
/// Panics if the environments disagree on `obs_dim`.
#[allow(clippy::too_many_arguments)]
pub fn collect_rollouts_batched_tier<N: Network, R: Rng>(
    policy: &GaussianPolicy<N>,
    value: &N,
    envs: &mut [&mut dyn Env],
    steps: usize,
    rng: &mut R,
    scratch: &mut BatchRolloutScratch<N>,
    tier: ForwardTier,
) -> Vec<Rollout> {
    let n = envs.len();
    if n == 0 {
        return Vec::new();
    }
    let obs_dim = envs[0].obs_dim();
    for env in envs.iter() {
        assert_eq!(env.obs_dim(), obs_dim, "envs disagree on obs_dim");
    }

    let mut rollouts: Vec<Rollout> = (0..n).map(|_| Rollout::new(obs_dim)).collect();
    let mut cur: Vec<Vec<f32>> = envs.iter_mut().map(|e| e.reset()).collect();

    let fill_obs = |obs: &mut Matrix, cur: &[Vec<f32>]| {
        obs.reshape(n, obs_dim);
        for (i, o) in cur.iter().enumerate() {
            obs.row_mut(i).copy_from_slice(o);
        }
    };

    for _ in 0..steps {
        fill_obs(&mut scratch.obs, &cur);
        policy.act_batch_tier(
            &scratch.obs,
            rng,
            &mut scratch.acts,
            &mut scratch.policy,
            tier,
        );
        value.forward_batch_into_tier(&scratch.obs, &mut scratch.values, &mut scratch.critic, tier);
        for (i, env) in envs.iter_mut().enumerate() {
            let (a, logp) = scratch.acts[i];
            let v = scratch.values.get(i, 0);
            let (next, r, done) = env.step(a);
            rollouts[i].push(&cur[i], a, logp, r, v, done);
            cur[i] = if done { env.reset() } else { next };
        }
    }

    // Bootstrap values for the observation following each last step.
    fill_obs(&mut scratch.obs, &cur);
    value.forward_batch_into_tier(&scratch.obs, &mut scratch.values, &mut scratch.critic, tier);
    for (i, rollout) in rollouts.iter_mut().enumerate() {
        rollout.last_value = scratch.values.get(i, 0);
    }
    rollouts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{IntegratorEnv, TargetEnv};
    use crate::ppo::{Ppo, PpoConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_rollouts_bitwise_eq(a: &Rollout, b: &Rollout, tag: &str) {
        assert_eq!(a.len(), b.len(), "{tag}: len");
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.obs), bits(&b.obs), "{tag}: obs");
        assert_eq!(bits(&a.actions), bits(&b.actions), "{tag}: actions");
        assert_eq!(bits(&a.log_probs), bits(&b.log_probs), "{tag}: log_probs");
        assert_eq!(bits(&a.rewards), bits(&b.rewards), "{tag}: rewards");
        assert_eq!(bits(&a.values), bits(&b.values), "{tag}: values");
        assert_eq!(a.dones, b.dones, "{tag}: dones");
        assert_eq!(
            a.last_value.to_bits(),
            b.last_value.to_bits(),
            "{tag}: last_value"
        );
    }

    #[test]
    fn single_env_bitwise_matches_scalar_collect_rollout() {
        let mut rng = StdRng::seed_from_u64(5);
        let ppo = Ppo::new(2, &[8, 6], PpoConfig::default(), &mut rng);

        // The historical scalar loop, inlined as the reference.
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut env_a = IntegratorEnv::new(1.0, 7, 0.0);
        let mut scalar = Rollout::new(2);
        let mut obs = env_a.reset();
        for _ in 0..40 {
            let (a, logp) = ppo.policy.act(&obs, &mut rng_a);
            let v = ppo.value.forward(&obs)[0];
            let (next, r, done) = env_a.step(a);
            scalar.push(&obs, a, logp, r, v, done);
            obs = if done { env_a.reset() } else { next };
        }
        scalar.last_value = ppo.value.forward(&obs)[0];

        let mut rng_b = StdRng::seed_from_u64(11);
        let mut env = IntegratorEnv::new(1.0, 7, 0.0);
        let mut refs: [&mut dyn Env; 1] = [&mut env];
        let mut scratch = BatchRolloutScratch::default();
        let batched = collect_rollouts_batched(
            &ppo.policy,
            &ppo.value,
            &mut refs,
            40,
            &mut rng_b,
            &mut scratch,
        );
        assert_eq!(batched.len(), 1);
        assert_rollouts_bitwise_eq(&batched[0], &scalar, "n=1");
        // The RNG streams must have advanced identically too.
        assert_eq!(rng_a.state(), rng_b.state());
    }

    #[test]
    fn lockstep_bitwise_matches_interleaved_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(6);
        let ppo = Ppo::new(2, &[8], PpoConfig::default(), &mut rng);
        let n = 4;
        let steps = 25;

        // Scalar lockstep reference: same env order, same single RNG.
        let mut rng_a = StdRng::seed_from_u64(13);
        let mut envs_a: Vec<TargetEnv> =
            (0..n).map(|i| TargetEnv::new(0.1 * i as f32, 6)).collect();
        let mut reference: Vec<Rollout> = (0..n).map(|_| Rollout::new(2)).collect();
        let mut cur: Vec<Vec<f32>> = envs_a.iter_mut().map(|e| e.reset()).collect();
        for _ in 0..steps {
            for i in 0..n {
                let (a, logp) = ppo.policy.act(&cur[i], &mut rng_a);
                let v = ppo.value.forward(&cur[i])[0];
                let (next, r, done) = envs_a[i].step(a);
                reference[i].push(&cur[i], a, logp, r, v, done);
                cur[i] = if done { envs_a[i].reset() } else { next };
            }
        }
        for i in 0..n {
            reference[i].last_value = ppo.value.forward(&cur[i])[0];
        }

        let mut rng_b = StdRng::seed_from_u64(13);
        let mut envs_b: Vec<TargetEnv> =
            (0..n).map(|i| TargetEnv::new(0.1 * i as f32, 6)).collect();
        let mut refs: Vec<&mut dyn Env> = envs_b.iter_mut().map(|e| e as &mut dyn Env).collect();
        let mut scratch = BatchRolloutScratch::default();
        let batched = collect_rollouts_batched(
            &ppo.policy,
            &ppo.value,
            &mut refs,
            steps,
            &mut rng_b,
            &mut scratch,
        );
        assert_eq!(batched.len(), n);
        for i in 0..n {
            assert_rollouts_bitwise_eq(&batched[i], &reference[i], &format!("env {i}"));
        }
        assert_eq!(rng_a.state(), rng_b.state());
    }

    /// The tier contract: under [`ForwardTier::Fast`] the lockstep
    /// collector is bitwise identical to interleaving per-env steps
    /// whose means come from 1-row fast-tier forwards against the same
    /// RNG — the fast tier changes *which* deterministic kernels run,
    /// never the collection structure or the RNG stream.
    #[test]
    fn fast_tier_lockstep_matches_single_row_fast_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let ppo = Ppo::new(2, &[8, 6], PpoConfig::default(), &mut rng);
        let n = 3;
        let steps = 25;

        let mut rng_a = StdRng::seed_from_u64(17);
        let mut envs_a: Vec<TargetEnv> =
            (0..n).map(|i| TargetEnv::new(0.2 * i as f32, 6)).collect();
        let mut reference: Vec<Rollout> = (0..n).map(|_| Rollout::new(2)).collect();
        let mut cur: Vec<Vec<f32>> = envs_a.iter_mut().map(|e| e.reset()).collect();
        let mut scratch_ref = crate::policy::PolicyScratch::default();
        let mut critic_scratch = <mocc_nn::Mlp as Network>::Scratch::default();
        let mut acts = Vec::new();
        let mut vout = Matrix::default();
        let mut row = Matrix::default();
        let mut fast_row = |obs: &[f32], rng: &mut StdRng| {
            row.reshape(1, 2);
            row.row_mut(0).copy_from_slice(obs);
            ppo.policy
                .act_batch_tier(&row, rng, &mut acts, &mut scratch_ref, ForwardTier::Fast);
            ppo.value.forward_batch_into_tier(
                &row,
                &mut vout,
                &mut critic_scratch,
                ForwardTier::Fast,
            );
            (acts[0], vout.get(0, 0))
        };
        for _ in 0..steps {
            for i in 0..n {
                let ((a, logp), v) = fast_row(&cur[i].clone(), &mut rng_a);
                let (next, r, done) = envs_a[i].step(a);
                reference[i].push(&cur[i], a, logp, r, v, done);
                cur[i] = if done { envs_a[i].reset() } else { next };
            }
        }
        for i in 0..n {
            // Bootstrap: critic only, no action sampling.
            row.reshape(1, 2);
            row.row_mut(0).copy_from_slice(&cur[i]);
            ppo.value.forward_batch_into_tier(
                &row,
                &mut vout,
                &mut critic_scratch,
                ForwardTier::Fast,
            );
            reference[i].last_value = vout.get(0, 0);
        }

        let mut rng_b = StdRng::seed_from_u64(17);
        let mut envs_b: Vec<TargetEnv> =
            (0..n).map(|i| TargetEnv::new(0.2 * i as f32, 6)).collect();
        let mut refs: Vec<&mut dyn Env> = envs_b.iter_mut().map(|e| e as &mut dyn Env).collect();
        let mut scratch = BatchRolloutScratch::default();
        let batched = collect_rollouts_batched_tier(
            &ppo.policy,
            &ppo.value,
            &mut refs,
            steps,
            &mut rng_b,
            &mut scratch,
            ForwardTier::Fast,
        );
        for i in 0..n {
            assert_rollouts_bitwise_eq(&batched[i], &reference[i], &format!("fast env {i}"));
        }
        assert_eq!(rng_a.state(), rng_b.state());
    }

    #[test]
    fn empty_env_slice_yields_no_rollouts() {
        let mut rng = StdRng::seed_from_u64(7);
        let ppo = Ppo::new(2, &[4], PpoConfig::default(), &mut rng);
        let mut refs: Vec<&mut dyn Env> = Vec::new();
        let mut scratch = BatchRolloutScratch::default();
        let out = collect_rollouts_batched(
            &ppo.policy,
            &ppo.value,
            &mut refs,
            10,
            &mut rng,
            &mut scratch,
        );
        assert!(out.is_empty());
    }
}
