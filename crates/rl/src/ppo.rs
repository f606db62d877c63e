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
#[derive(Debug, Clone)]
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

// Hand-written impls: the vendored serde derive does not support
// generic types (vendor/README.md).
impl<N: Network + Serialize> Serialize for Ppo<N> {
    fn to_value(&self) -> serde::Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("policy".to_string(), self.policy.to_value());
        m.insert("value".to_string(), self.value.to_value());
        m.insert("cfg".to_string(), self.cfg.to_value());
        m.insert("opt_pi".to_string(), self.opt_pi.to_value());
        m.insert("opt_v".to_string(), self.opt_v.to_value());
        serde::Value::Obj(m)
    }

    fn write_json(&self, out: &mut String) {
        let mut w = serde::json::ObjectWriter::begin(out);
        w.field("cfg", &self.cfg);
        w.field("opt_pi", &self.opt_pi);
        w.field("opt_v", &self.opt_v);
        w.field("policy", &self.policy);
        w.field("value", &self.value);
        w.end();
    }
}

impl<'de, N: Network + Serialize + for<'a> Deserialize<'a>> Deserialize<'de> for Ppo<N> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Obj(m) => Ok(Ppo {
                policy: serde::from_field(m, "policy", "Ppo")?,
                value: serde::from_field(m, "value", "Ppo")?,
                cfg: serde::from_field(m, "cfg", "Ppo")?,
                opt_pi: serde::from_field(m, "opt_pi", "Ppo")?,
                opt_v: serde::from_field(m, "opt_v", "Ppo")?,
            }),
            _ => Err(serde::Error::custom("expected object for Ppo")),
        }
    }

    fn from_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::Error> {
        use serde::json::take_field;
        if p.peek_token() != Some(b'{') {
            return serde::json::from_tree(p);
        }
        let (mut policy, mut value, mut cfg, mut opt_pi, mut opt_v) =
            (None, None, None, None, None);
        p.object(|key, p| match &*key {
            "policy" => p.field(&mut policy),
            "value" => p.field(&mut value),
            "cfg" => p.field(&mut cfg),
            "opt_pi" => p.field(&mut opt_pi),
            "opt_v" => p.field(&mut opt_v),
            _ => p.skip_value(),
        })?;
        Ok(Ppo {
            policy: take_field(policy, "policy", "Ppo")?,
            value: take_field(value, "value", "Ppo")?,
            cfg: take_field(cfg, "cfg", "Ppo")?,
            opt_pi: take_field(opt_pi, "opt_pi", "Ppo")?,
            opt_v: take_field(opt_v, "opt_v", "Ppo")?,
        })
    }
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

    /// One training iteration: collect a rollout and update on it.
    pub fn train_iteration(
        &mut self,
        env: &mut dyn Env,
        steps: usize,
        rng: &mut StdRng,
    ) -> PpoStats {
        let rollout = self.collect_rollout(env, steps, rng);
        self.update(&[rollout], rng)
    }

    /// Runs the PPO update (epochs × minibatches) over the rollouts.
    pub fn update(&mut self, rollouts: &[Rollout], rng: &mut StdRng) -> PpoStats {
        let obs_dim = self.policy.net.in_dim();
        // Flatten rollouts and compute advantages.
        let mut obs: Vec<f32> = Vec::new();
        let mut actions: Vec<f32> = Vec::new();
        let mut old_logp: Vec<f32> = Vec::new();
        let mut advs: Vec<f32> = Vec::new();
        let mut rets: Vec<f32> = Vec::new();
        let mut reward_sum = 0.0f32;
        let mut reward_n = 0usize;
        for r in rollouts {
            if r.is_empty() {
                continue;
            }
            let (a, ret) = r.gae(self.cfg.gamma, self.cfg.lam);
            obs.extend_from_slice(&r.obs);
            actions.extend_from_slice(&r.actions);
            old_logp.extend_from_slice(&r.log_probs);
            advs.extend(a);
            rets.extend(ret);
            reward_sum += r.rewards.iter().sum::<f32>();
            reward_n += r.len();
        }
        let n = actions.len();
        if n == 0 {
            return PpoStats::default();
        }
        normalize(&mut advs);

        let mut stats = PpoStats {
            mean_reward: reward_sum / reward_n.max(1) as f32,
            ..Default::default()
        };
        let mut stat_batches = 0usize;

        let mut index: Vec<usize> = (0..n).collect();
        for _epoch in 0..self.cfg.epochs {
            index.shuffle(rng);
            for chunk in index.chunks(self.cfg.minibatch.max(1)) {
                let b = chunk.len();
                // Assemble the minibatch.
                let mut mb_obs = Vec::with_capacity(b * obs_dim);
                for &i in chunk {
                    mb_obs.extend_from_slice(&obs[i * obs_dim..(i + 1) * obs_dim]);
                }
                let x = Matrix::from_vec(b, obs_dim, mb_obs);

                // ---- Actor ----
                let cache = self.policy.net.forward_batch(&x);
                let means = N::cache_output(&cache).clone();
                let std = self.policy.std();
                let log_std = self.policy.log_std;
                let mut gmean = Matrix::zeros(b, 1);
                let mut g_log_std = 0.0f32;
                let (mut ploss, mut kl, mut clipped) = (0.0f32, 0.0f32, 0usize);
                for (j, &i) in chunk.iter().enumerate() {
                    let mean = means.get(j, 0);
                    let a = actions[i];
                    let z = (a - mean) / std;
                    let logp = -0.5 * z * z - log_std - 0.5 * (2.0 * std::f32::consts::PI).ln();
                    let ratio = (logp - old_logp[i]).exp();
                    let adv = advs[i];
                    let unclipped = ratio * adv;
                    let rc = ratio.clamp(1.0 - self.cfg.clip_eps, 1.0 + self.cfg.clip_eps);
                    let clipped_obj = rc * adv;
                    // Gradient of −min(unclipped, clipped) w.r.t. logp:
                    // the unclipped branch is active when it is the min
                    // or when the clamp did not bite (ratio == rc).
                    let g_logp = if unclipped <= clipped_obj || (ratio - rc).abs() < 1e-12 {
                        -adv * ratio
                    } else {
                        clipped += 1;
                        0.0
                    };
                    ploss -= unclipped.min(clipped_obj);
                    kl += old_logp[i] - logp;
                    // Chain rule: ∂logp/∂mean = z/std, ∂logp/∂log_std = z² − 1.
                    gmean.set(j, 0, g_logp * (z / std) / b as f32);
                    g_log_std += g_logp * (z * z - 1.0) / b as f32;
                }
                // Entropy bonus: H = log_std + c ⇒ ∂(−βH)/∂log_std = −β.
                g_log_std -= self.cfg.entropy_coef;

                self.policy.zero_grad();
                self.policy.g_log_std = g_log_std;
                self.policy.net.backward_params(&cache, &gmean);
                let max_norm = Some(self.cfg.max_grad_norm).filter(|&m| m > 0.0);
                self.opt_pi.begin_step();
                let opt_pi = &mut self.opt_pi;
                self.policy
                    .for_each_param(|slot, p, g| opt_pi.update_slot_clipped(slot, p, g, max_norm));

                // ---- Critic ----
                let vcache = self.value.forward_batch(&x);
                let mut gv = Matrix::zeros(b, 1);
                let mut vloss = 0.0f32;
                for (j, &i) in chunk.iter().enumerate() {
                    let v = N::cache_output(&vcache).get(j, 0);
                    let err = v - rets[i];
                    vloss += err * err / b as f32;
                    gv.set(j, 0, 2.0 * err / b as f32);
                }
                self.value.zero_grad();
                self.value.backward_params(&vcache, &gv);
                self.opt_v.begin_step();
                let opt_v = &mut self.opt_v;
                self.value
                    .for_each_param(|slot, p, g| opt_v.update_slot_clipped(slot, p, g, max_norm));

                stats.policy_loss += ploss / b as f32;
                stats.value_loss += vloss;
                stats.approx_kl += kl / b as f32;
                stats.clip_frac += clipped as f32 / b as f32;
                stat_batches += 1;
            }
        }
        if stat_batches > 0 {
            let k = stat_batches as f32;
            stats.policy_loss /= k;
            stats.value_loss /= k;
            stats.approx_kl /= k;
            stats.clip_frac /= k;
        }
        stats.entropy = self.policy.entropy();
        stats
    }
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
            ppo.train_iteration(&mut env, 128, &mut rng);
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
            ppo.train_iteration(&mut env, 256, &mut rng);
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
        let stats = ppo.train_iteration(&mut env, 64, &mut rng);
        assert!(stats.policy_loss.is_finite());
        assert!(stats.value_loss.is_finite());
        assert!(stats.approx_kl.is_finite());
        assert!(stats.clip_frac >= 0.0 && stats.clip_frac <= 1.0);
    }
}
