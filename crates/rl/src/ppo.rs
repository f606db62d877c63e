//! Proximal Policy Optimization (Schulman et al., 2017).
//!
//! Implements the clipped surrogate objective with entropy
//! regularization (Eqs. 3–5 of the MOCC paper), GAE advantages, and an
//! actor-critic with separate Adam optimizers — the paper's training
//! algorithm (§4.2, "Policy optimization algorithm").

use crate::batch_rollout::{collect_rollouts_batched_tier, BatchRolloutScratch};
use crate::env::Env;
use crate::policy::GaussianPolicy;
use crate::rollout::{normalize, Rollout};
use mocc_nn::{Activation, Adam, ForwardTier, Matrix, Mlp, Network};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// PPO hyperparameters. Defaults follow Table 2 of the paper where the
/// paper specifies them (γ = 0.99, lr = 1e-3, ε = 0.2) and
/// stable-baselines defaults elsewhere.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub lam: f32,
    /// Clipping threshold ε.
    pub clip_eps: f32,
    /// Actor learning rate.
    pub lr: f32,
    /// Critic learning rate.
    pub value_lr: f32,
    /// Optimization epochs per update.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Per-tensor gradient-norm clip (0 disables).
    pub max_grad_norm: f32,
    /// Entropy-bonus coefficient β (decayed externally per §5).
    pub entropy_coef: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            gamma: 0.99,
            lam: 0.95,
            clip_eps: 0.2,
            lr: 1e-3,
            value_lr: 1e-3,
            epochs: 4,
            minibatch: 64,
            max_grad_norm: 0.5,
            entropy_coef: 0.01,
        }
    }
}

/// Diagnostics from one PPO update.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PpoStats {
    /// Mean per-step reward of the consumed rollouts.
    pub mean_reward: f32,
    /// Mean clipped-surrogate policy loss.
    pub policy_loss: f32,
    /// Mean squared value error.
    pub value_loss: f32,
    /// Policy entropy.
    pub entropy: f32,
    /// Fraction of samples hitting the clip.
    pub clip_frac: f32,
    /// Approximate KL divergence between old and new policy.
    pub approx_kl: f32,
}

/// An actor-critic PPO learner, generic over the network architecture
/// (MOCC plugs in its preference-sub-network composite here).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ppo<N: Network = Mlp> {
    /// The Gaussian actor.
    pub policy: GaussianPolicy<N>,
    /// The critic (obs → scalar value).
    pub value: N,
    /// Hyperparameters.
    pub cfg: PpoConfig,
    opt_pi: Adam,
    opt_v: Adam,
}

impl Ppo<Mlp> {
    /// Builds a PPO learner with the paper's 64/32-tanh architecture
    /// for both actor and critic.
    pub fn new<R: Rng>(obs_dim: usize, hidden: &[usize], cfg: PpoConfig, rng: &mut R) -> Self {
        let mut vsizes = vec![obs_dim];
        vsizes.extend_from_slice(hidden);
        vsizes.push(1);
        Ppo::from_nets(
            GaussianPolicy::new(obs_dim, hidden, rng),
            Mlp::new(&vsizes, Activation::Tanh, Activation::Linear, rng),
            cfg,
        )
    }
}

impl<N: Network> Ppo<N> {
    /// Builds a PPO learner from explicit actor and critic networks.
    ///
    /// # Panics
    ///
    /// Panics if the critic does not output exactly one value.
    pub fn from_nets(policy: GaussianPolicy<N>, value: N, cfg: PpoConfig) -> Self {
        assert_eq!(value.out_dim(), 1, "critic must output a scalar value");
        Ppo {
            policy,
            value,
            opt_pi: Adam::new(cfg.lr),
            opt_v: Adam::new(cfg.value_lr),
            cfg,
        }
    }

    /// Checks both optimizers' moment buffers against the tensors they
    /// move ([`Adam::check_moments`]), so optimizer state restored from
    /// a checkpoint is refused at load instead of panicking the first
    /// update. The error names the buffer, as in `opt_v.m[0] holds …`.
    pub fn check_optimizers(&self) -> Result<(), String> {
        let (mut policy_lens, mut value_lens) = (Vec::new(), Vec::new());
        // Clones: `for_each_param` takes `&mut` (it sizes gradients and
        // clamps `log_std`), and a check must not change the learner.
        self.policy
            .clone()
            .for_each_param(|_, p, _| policy_lens.push(p.len()));
        self.value
            .clone()
            .for_each_param(|_, p, _| value_lens.push(p.len()));
        for (name, opt, lens) in [
            ("opt_pi", &self.opt_pi, policy_lens),
            ("opt_v", &self.opt_v, value_lens),
        ] {
            opt.check_moments(&lens)
                .map_err(|e| format!("{name}.{e}"))?;
        }
        Ok(())
    }

    /// Collects one on-policy rollout of `steps` transitions, resetting
    /// the environment at episode boundaries: the lockstep collector
    /// ([`collect_rollouts_batched_tier`]) over one environment, on
    /// the scalar tier.
    pub fn collect_rollout(&self, env: &mut dyn Env, steps: usize, rng: &mut StdRng) -> Rollout {
        let mut refs: [&mut dyn Env; 1] = [env];
        collect_rollouts_batched_tier(
            &self.policy,
            &self.value,
            &mut refs,
            steps,
            rng,
            &mut BatchRolloutScratch::default(),
            ForwardTier::Scalar,
        )
        .pop()
        .expect("one env yields one rollout")
    }

    /// Runs the PPO update (epochs × minibatches) over the rollouts.
    ///
    /// The actor and the critic share nothing but the samples and the
    /// minibatch order, so they update on two threads. Every epoch's
    /// shuffle is drawn from `rng` up front — the same draws in the
    /// same order as shuffling before each epoch — then the critic's
    /// minibatch loop runs on a scoped thread while the caller runs the
    /// actor's, and each side sums its own statistics in minibatch
    /// order. Every parameter, Adam moment and statistic has the bits
    /// one loop stepping the actor and then the critic per minibatch
    /// gives (this module's tests hold it to that loop).
    pub fn update(&mut self, rollouts: &[Rollout], rng: &mut StdRng) -> PpoStats {
        let obs_dim = self.policy.net.in_dim();
        let Some(samples) = Samples::flatten(rollouts, obs_dim, &self.cfg) else {
            return PpoStats::default();
        };
        let n = samples.actions.len();
        let mut index: Vec<usize> = (0..n).collect();
        let mut order = Vec::with_capacity(self.cfg.epochs * n);
        for _epoch in 0..self.cfg.epochs {
            index.shuffle(rng);
            order.extend_from_slice(&index);
        }
        let size = self.cfg.minibatch.max(1);
        let minibatches = || order.chunks(n).flat_map(move |epoch| epoch.chunks(size));
        let batches = minibatches().count();
        let Ppo {
            policy,
            value,
            cfg,
            opt_pi,
            opt_v,
        } = self;
        let cfg = &*cfg;
        let ([policy_loss, approx_kl, clip_frac], value_loss) = std::thread::scope(|scope| {
            let critic = scope.spawn(|| critic_steps(value, opt_v, cfg, &samples, minibatches()));
            let actor = actor_steps(policy, opt_pi, cfg, &samples, minibatches());
            let critic = critic
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (actor, critic)
        });
        let mut stats = PpoStats {
            mean_reward: samples.mean_reward,
            policy_loss,
            value_loss,
            approx_kl,
            clip_frac,
            entropy: policy.entropy(),
        };
        if batches > 0 {
            let k = batches as f32;
            stats.policy_loss /= k;
            stats.value_loss /= k;
            stats.approx_kl /= k;
            stats.clip_frac /= k;
        }
        stats
    }
}

/// The rollouts flattened for one update: observations row-major,
/// per-sample actions, old log-probabilities, normalised GAE
/// advantages and returns.
struct Samples {
    obs_dim: usize,
    obs: Vec<f32>,
    actions: Vec<f32>,
    old_logp: Vec<f32>,
    advs: Vec<f32>,
    rets: Vec<f32>,
    mean_reward: f32,
}

impl Samples {
    /// `None` when the rollouts hold no step.
    fn flatten(rollouts: &[Rollout], obs_dim: usize, cfg: &PpoConfig) -> Option<Self> {
        let mut s = Samples {
            obs_dim,
            obs: Vec::new(),
            actions: Vec::new(),
            old_logp: Vec::new(),
            advs: Vec::new(),
            rets: Vec::new(),
            mean_reward: 0.0,
        };
        let mut reward_sum = 0.0f32;
        for r in rollouts.iter().filter(|r| !r.is_empty()) {
            let (a, ret) = r.gae(cfg.gamma, cfg.lam);
            s.obs.extend_from_slice(&r.obs);
            s.actions.extend_from_slice(&r.actions);
            s.old_logp.extend_from_slice(&r.log_probs);
            s.advs.extend(a);
            s.rets.extend(ret);
            reward_sum += r.rewards.iter().sum::<f32>();
        }
        let n = s.actions.len();
        if n == 0 {
            return None;
        }
        s.mean_reward = reward_sum / n as f32;
        normalize(&mut s.advs);
        Some(s)
    }

    /// The observations of `chunk`'s samples as the rows of `x`.
    fn gather(&self, chunk: &[usize], x: &mut Matrix) {
        let d = self.obs_dim;
        x.reshape(chunk.len(), d);
        for (j, &i) in chunk.iter().enumerate() {
            x.row_mut(j).copy_from_slice(&self.obs[i * d..(i + 1) * d]);
        }
    }
}

/// The gradient-norm cap of a config (`None` when disabled).
fn max_grad_norm(cfg: &PpoConfig) -> Option<f32> {
    Some(cfg.max_grad_norm).filter(|&m| m > 0.0)
}

/// The actor's half of [`Ppo::update`]: one clipped-surrogate step per
/// minibatch. Returns the per-minibatch policy loss, approximate KL and
/// clip fraction, each summed in minibatch order.
fn actor_steps<'a, N: Network>(
    policy: &mut GaussianPolicy<N>,
    opt: &mut Adam,
    cfg: &PpoConfig,
    s: &Samples,
    minibatches: impl Iterator<Item = &'a [usize]>,
) -> [f32; 3] {
    let (mut policy_loss, mut approx_kl, mut clip_frac) = (0.0f32, 0.0f32, 0.0f32);
    let mut x = Matrix::default();
    for chunk in minibatches {
        let b = chunk.len();
        s.gather(chunk, &mut x);
        let cache = policy.net.forward_batch(&x);
        let means = N::cache_output(&cache);
        let std = policy.std();
        let log_std = policy.log_std;
        let mut gmean = Matrix::zeros(b, 1);
        let mut g_log_std = 0.0f32;
        let (mut ploss, mut kl, mut clipped) = (0.0f32, 0.0f32, 0usize);
        for (j, &i) in chunk.iter().enumerate() {
            let mean = means.get(j, 0);
            let a = s.actions[i];
            let z = (a - mean) / std;
            let logp = -0.5 * z * z - log_std - 0.5 * (2.0 * std::f32::consts::PI).ln();
            let ratio = (logp - s.old_logp[i]).exp();
            let adv = s.advs[i];
            let unclipped = ratio * adv;
            let rc = ratio.clamp(1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps);
            let clipped_obj = rc * adv;
            // Gradient of −min(unclipped, clipped) w.r.t. logp: the
            // unclipped branch is active when it is the min or when
            // the clamp did not bite (ratio == rc).
            let g_logp = if unclipped <= clipped_obj || (ratio - rc).abs() < 1e-12 {
                -adv * ratio
            } else {
                clipped += 1;
                0.0
            };
            ploss -= unclipped.min(clipped_obj);
            kl += s.old_logp[i] - logp;
            // Chain rule: ∂logp/∂mean = z/std, ∂logp/∂log_std = z² − 1.
            gmean.set(j, 0, g_logp * (z / std) / b as f32);
            g_log_std += g_logp * (z * z - 1.0) / b as f32;
        }
        // Entropy bonus: H = log_std + c ⇒ ∂(−βH)/∂log_std = −β.
        g_log_std -= cfg.entropy_coef;

        policy.zero_grad();
        policy.g_log_std = g_log_std;
        policy.net.backward_params(&cache, &gmean);
        opt.begin_step();
        let max_norm = max_grad_norm(cfg);
        policy.for_each_param(|slot, p, g| opt.update_slot_clipped(slot, p, g, max_norm));

        policy_loss += ploss / b as f32;
        approx_kl += kl / b as f32;
        clip_frac += clipped as f32 / b as f32;
    }
    [policy_loss, approx_kl, clip_frac]
}

/// The critic's half of [`Ppo::update`]: one squared-error step per
/// minibatch. Returns the per-minibatch value loss summed in minibatch
/// order.
fn critic_steps<'a, N: Network>(
    value: &mut N,
    opt: &mut Adam,
    cfg: &PpoConfig,
    s: &Samples,
    minibatches: impl Iterator<Item = &'a [usize]>,
) -> f32 {
    let mut value_loss = 0.0f32;
    let mut x = Matrix::default();
    for chunk in minibatches {
        let b = chunk.len();
        s.gather(chunk, &mut x);
        let vcache = value.forward_batch(&x);
        let mut gv = Matrix::zeros(b, 1);
        let mut vloss = 0.0f32;
        for (j, &i) in chunk.iter().enumerate() {
            let v = N::cache_output(&vcache).get(j, 0);
            let err = v - s.rets[i];
            vloss += err * err / b as f32;
            gv.set(j, 0, 2.0 * err / b as f32);
        }
        value.zero_grad();
        value.backward_params(&vcache, &gv);
        opt.begin_step();
        let max_norm = max_grad_norm(cfg);
        value.for_each_param(|slot, p, g| opt.update_slot_clipped(slot, p, g, max_norm));
        value_loss += vloss;
    }
    value_loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{IntegratorEnv, TargetEnv};
    use rand::SeedableRng;

    /// Mean per-step reward of the deterministic (mean-action) policy.
    fn mean_reward(ppo: &Ppo, env: &mut dyn Env, episodes: usize, max_steps: usize) -> f32 {
        let (mut total, mut count) = (0.0f32, 0usize);
        for _ in 0..episodes {
            let mut o = env.reset();
            for _ in 0..max_steps {
                let (next, r, done) = env.step(ppo.policy.mean_action(&o));
                total += r;
                count += 1;
                o = next;
                if done {
                    break;
                }
            }
        }
        total / count.max(1) as f32
    }

    #[test]
    fn ppo_learns_constant_target() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = PpoConfig {
            lr: 3e-3,
            value_lr: 3e-3,
            entropy_coef: 0.0,
            ..Default::default()
        };
        let mut ppo = Ppo::new(2, &[16], cfg, &mut rng);
        let mut env = TargetEnv::new(0.6, 16);
        for _ in 0..120 {
            let rollout = ppo.collect_rollout(&mut env, 128, &mut rng);
            ppo.update(&[rollout], &mut rng);
        }
        let mean = ppo.policy.mean_action(&[1.0, 0.0]);
        assert!((mean - 0.6).abs() < 0.15, "learned mean {mean}");
    }

    #[test]
    fn ppo_improves_reward_on_integrator() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PpoConfig {
            lr: 3e-3,
            value_lr: 3e-3,
            entropy_coef: 0.001,
            ..Default::default()
        };
        let mut ppo = Ppo::new(2, &[16, 16], cfg, &mut rng);
        let mut env = IntegratorEnv::new(1.5, 32, 0.0);
        let before = mean_reward(&ppo, &mut env, 5, 32);
        for _ in 0..150 {
            let rollout = ppo.collect_rollout(&mut env, 256, &mut rng);
            ppo.update(&[rollout], &mut rng);
        }
        let after = mean_reward(&ppo, &mut env, 5, 32);
        assert!(
            after > before + 0.1,
            "no improvement: before {before}, after {after}"
        );
        assert!(after > 0.5, "final reward too low: {after}");
    }

    #[test]
    fn update_stats_are_finite() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ppo = Ppo::new(2, &[8], PpoConfig::default(), &mut rng);
        let mut env = TargetEnv::new(0.0, 8);
        let rollout = ppo.collect_rollout(&mut env, 64, &mut rng);
        let stats = ppo.update(&[rollout], &mut rng);
        assert!(stats.policy_loss.is_finite());
        assert!(stats.value_loss.is_finite());
        assert!(stats.approx_kl.is_finite());
        assert!(stats.clip_frac >= 0.0 && stats.clip_frac <= 1.0);
    }
}
