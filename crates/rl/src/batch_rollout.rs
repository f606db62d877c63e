//! Lockstep batched rollout collection.
//!
//! Drives N environments in lockstep through one batched actor forward
//! and one batched critic forward per step — the training-side
//! counterpart of the paper's parallel rollout workers.
//!
//! The determinism contract: rows are sampled from the RNG in env
//! order, and a row's forward depends on that row alone
//! ([`Network::forward_batch_into_tier`]). One call over N
//! environments therefore equals N one-environment loops interleaved
//! in env order against the same RNG, bit for bit — including the RNG
//! stream — which is what lets checkpointed training runs resume
//! byte-identically whatever `batch_envs` collected the rollout.

use crate::env::Env;
use crate::policy::{GaussianPolicy, PolicyScratch};
use crate::rollout::Rollout;
use mocc_nn::{ForwardTier, Matrix, Network};
use rand::Rng;

/// Reusable buffers for [`collect_rollouts_batched_tier`]: the policy's
/// batched-inference scratch, the critic's scratch, and the lockstep
/// observation/value matrices. One scratch serves any number of calls;
/// buffers reach steady-state size after the first step.
#[derive(Clone)]
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

/// Collects one on-policy rollout of `steps` transitions per
/// environment, driving all environments in lockstep: each step runs
/// one batched actor forward (sampling actions row by row from `rng`)
/// and one batched critic forward, then advances every environment,
/// resetting at episode boundaries. A final batched critic forward
/// fills each rollout's bootstrap value. The result — including the
/// RNG stream — is bitwise identical to interleaving one-environment
/// act → value → step loops in env order against the same RNG.
///
/// Both tiers are fully deterministic — the RNG stream, env stepping,
/// and reward accounting are tier-independent — so checkpointed runs
/// resume byte-identically under either. `Scalar` is the bit-exact
/// reference; `Fast` permits the approximate-tanh inference kernels
/// (means move by ≤ 4e-6, well inside the Gaussian exploration noise),
/// which is what the batched training pipeline uses: rollout
/// collection is gradient-free inference, so it takes the inference
/// tier, while PPO's learner-side forwards stay on the exact kernels.
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
    use crate::env::TargetEnv;
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

    /// *n* environments in one collector call equal *n*
    /// one-environment loops interleaved in env order on the same RNG
    /// — each step a one-row actor call and a one-row critic call —
    /// on both tiers, rollouts and RNG stream alike. With one
    /// environment this is the plain act → value → step loop.
    #[test]
    fn one_call_equals_interleaved_one_env_loops() {
        let mut rng = StdRng::seed_from_u64(8);
        let ppo = Ppo::new(2, &[8, 6], PpoConfig::default(), &mut rng);
        let steps = 25;
        let envs = |n: usize| -> Vec<TargetEnv> {
            (0..n).map(|i| TargetEnv::new(0.2 * i as f32, 6)).collect()
        };
        for (n, tier) in [
            (1, ForwardTier::Scalar),
            (4, ForwardTier::Scalar),
            (3, ForwardTier::Fast),
        ] {
            let mut rng_a = StdRng::seed_from_u64(17);
            let mut envs_a = envs(n);
            let mut reference: Vec<Rollout> = (0..n).map(|_| Rollout::new(2)).collect();
            let mut cur: Vec<Vec<f32>> = envs_a.iter_mut().map(|e| e.reset()).collect();
            let mut actor_scratch = PolicyScratch::default();
            let mut critic_scratch = <mocc_nn::Mlp as Network>::Scratch::default();
            let (mut acts, mut vout) = (Vec::new(), Matrix::default());
            let mut value_of = |obs: &[f32]| {
                let row = Matrix::from_vec(1, 2, obs.to_vec());
                ppo.value
                    .forward_batch_into_tier(&row, &mut vout, &mut critic_scratch, tier);
                vout.get(0, 0)
            };
            for _ in 0..steps {
                for i in 0..n {
                    let row = Matrix::from_vec(1, 2, cur[i].clone());
                    ppo.policy.act_batch_tier(
                        &row,
                        &mut rng_a,
                        &mut acts,
                        &mut actor_scratch,
                        tier,
                    );
                    let ((a, logp), v) = (acts[0], value_of(&cur[i]));
                    let (next, r, done) = envs_a[i].step(a);
                    reference[i].push(&cur[i], a, logp, r, v, done);
                    cur[i] = if done { envs_a[i].reset() } else { next };
                }
            }
            for i in 0..n {
                reference[i].last_value = value_of(&cur[i]);
            }

            let mut rng_b = StdRng::seed_from_u64(17);
            let mut envs_b = envs(n);
            let mut refs: Vec<&mut dyn Env> =
                envs_b.iter_mut().map(|e| e as &mut dyn Env).collect();
            let batched = collect_rollouts_batched_tier(
                &ppo.policy,
                &ppo.value,
                &mut refs,
                steps,
                &mut rng_b,
                &mut BatchRolloutScratch::default(),
                tier,
            );
            assert_eq!(batched.len(), n);
            for i in 0..n {
                assert_rollouts_bitwise_eq(
                    &batched[i],
                    &reference[i],
                    &format!("{tier:?} env {i}"),
                );
            }
            assert_eq!(rng_a.state(), rng_b.state());
        }
    }

    #[test]
    fn empty_env_slice_yields_no_rollouts() {
        let mut rng = StdRng::seed_from_u64(7);
        let ppo = Ppo::new(2, &[4], PpoConfig::default(), &mut rng);
        let mut refs: Vec<&mut dyn Env> = Vec::new();
        let mut scratch = BatchRolloutScratch::default();
        let out = collect_rollouts_batched_tier(
            &ppo.policy,
            &ppo.value,
            &mut refs,
            10,
            &mut rng,
            &mut scratch,
            ForwardTier::Scalar,
        );
        assert!(out.is_empty());
    }
}
