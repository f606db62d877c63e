//! Offline two-phase training (§4.2).
//!
//! Phase 1 (*bootstrapping*) trains a small set of pivot objectives to
//! convergence from scratch. Phase 2 (*fast traversing*) visits the
//! remaining landmark objectives in the neighborhood order of
//! Algorithm 1, training each for only a few PPO iterations per visit
//! and cycling until the budget is exhausted — neighboring objectives
//! have neighboring optima, so each visit starts from an already-good
//! policy. A rollout can step several environments in lockstep
//! (`TrainSpec::batch_envs`, the paper's Ray/RLlib substitute).
//!
//! Each of those iterations is a [`ppo_iteration`], the one PPO step
//! every learner takes — online adaptation (§4.3) and the Aurora
//! baseline included — and [`evaluate`] is the one deterministic
//! scorer of a trained model.

use crate::config::MoccConfig;
use crate::env::MoccEnv;
use crate::preference::Preference;
use mocc_netsim::{Scenario, ScenarioRange};
use mocc_nn::{ForwardTier, Network};
use mocc_rl::{collect_rollouts_batched_tier, BatchRolloutScratch, Env, Ppo};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Which training regime to run (the Fig. 19 comparison). How many
/// environments a rollout uses is `TrainSpec::batch_envs`, not a regime.
/// The JSON labels are `"individual"` and `"transfer"`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum TrainRegime {
    /// Every landmark trained independently from the shared model
    /// without neighborhood ordering (the "Individual Training" bar).
    Individual,
    /// Two-phase training with neighborhood transfer (the default).
    #[default]
    Transfer,
}

/// Outcome of an offline training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainOutcome {
    /// Total PPO iterations executed.
    pub iterations: usize,
    /// Wall-clock seconds spent.
    pub wall_secs: f64,
    /// Mean per-step reward after each iteration (training curve).
    pub curve: Vec<f32>,
}

/// One PPO iteration — the only one in the product, behind offline
/// training (`train_spec`), online adaptation with requirement replay
/// (§4.3, Eq. 6) and the Aurora baseline ([`crate::AuroraAgent::train`])
/// alike. It rolls `pref` out on `cfg.parallel_envs` environments,
/// adds one rollout for `contrast` when there is one, updates once,
/// and returns the mean reward of the first environment's rollout.
///
/// All of its randomness comes from `rng`, in one order: the env seed,
/// the main rollouts' actions, the contrast rollout's actions (its env
/// seeded `seed + 1000`), the update's shuffles. A caller that draws
/// the contrast preference from `rng` draws it before calling. The
/// entropy coefficient is `ppo.cfg.entropy_coef` as the caller's
/// schedule left it. The observation carries the preference when the
/// networks take `cfg.obs_dim()` inputs (MOCC) and leaves it out
/// otherwise (Aurora).
///
/// The contrast rollout makes one gradient step see *different
/// objectives side by side*: the dynamic-weights minibatch of Abels et
/// al. (the MORL framework the paper builds on, Appendix A) in offline
/// training, and the ½(L(w_i) + L(w_j)) replay loss of Eq. 6 online.
pub fn ppo_iteration<N: Network>(
    ppo: &mut Ppo<N>,
    cfg: &MoccConfig,
    pref: Preference,
    contrast: Option<Preference>,
    range: ScenarioRange,
    rng: &mut StdRng,
) -> f32 {
    let n_envs = cfg.parallel_envs.max(1);
    // One env collects `rollout_steps` on the exact tier. More envs
    // split that budget (the paper's Ray setup) and step in lockstep,
    // one batched actor and critic forward per monitor round, on the
    // fast tier: collection is gradient-free inference, deterministic
    // either way, while the PPO update keeps the exact kernels.
    let (steps, tier) = if n_envs > 1 {
        ((cfg.rollout_steps / n_envs).max(20), ForwardTier::Fast)
    } else {
        (cfg.rollout_steps, ForwardTier::Scalar)
    };
    let seed = rand::Rng::gen::<u64>(rng);
    let env = |p, seed| observed_by(ppo, cfg, MoccEnv::training(*cfg, p, range, seed));
    let mut envs: Vec<MoccEnv> = (0..n_envs)
        .map(|i| env(pref, seed.wrapping_add(i as u64)))
        .collect();
    let mut refs: Vec<&mut dyn Env> = envs.iter_mut().map(|e| e as &mut dyn Env).collect();
    let mut rollouts = collect_rollouts_batched_tier(
        &ppo.policy,
        &ppo.value,
        &mut refs,
        steps,
        rng,
        &mut BatchRolloutScratch::default(),
        tier,
    );
    let main_reward = rollouts[0].mean_reward();
    if let Some(c) = contrast {
        let mut env = env(c, seed.wrapping_add(1000));
        rollouts.push(ppo.collect_rollout(&mut env, cfg.rollout_steps, rng));
    }
    let _ = ppo.update(&rollouts, rng);
    main_reward
}

/// Mean per-step Eq. 2 reward under `pref` of `episodes` episodes of
/// `ppo`'s deterministic policy on a fixed scenario — MOCC and Aurora
/// models alike, the observation decided as in [`ppo_iteration`].
pub fn evaluate<N: Network>(
    ppo: &Ppo<N>,
    cfg: &MoccConfig,
    pref: Preference,
    scenario: Scenario,
    episodes: usize,
) -> f32 {
    let mut env = observed_by(ppo, cfg, MoccEnv::fixed(*cfg, pref, scenario, 7));
    let mut total = 0.0f32;
    let mut count = 0usize;
    for _ in 0..episodes {
        let mut obs = env.reset();
        loop {
            let (next, r, done) = env.step(ppo.policy.mean_action(&obs));
            total += r;
            count += 1;
            obs = next;
            if done {
                break;
            }
        }
    }
    total / count.max(1) as f32
}

/// `env` with the preference left out of its observation unless
/// `ppo`'s networks take it (`cfg.obs_dim()` inputs).
fn observed_by<N: Network>(ppo: &Ppo<N>, cfg: &MoccConfig, env: MoccEnv) -> MoccEnv {
    if ppo.policy.net.in_dim() == cfg.obs_dim() {
        env
    } else {
        env.without_pref_obs()
    }
}

/// Iteration at which a curve first reaches `frac` of its maximum gain
/// over its starting value — the paper's convergence criterion
/// ("99 % of the maximum reward gain", §6.2).
pub fn convergence_iter(rewards: &[f32], frac: f32) -> Option<usize> {
    if rewards.is_empty() {
        return None;
    }
    let start = rewards[0];
    let max = rewards.iter().cloned().fold(f32::MIN, f32::max);
    if max <= start {
        return Some(0);
    }
    let threshold = start + frac * (max - start);
    rewards.iter().position(|&r| r >= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::MoccAgent;
    use rand::SeedableRng;

    #[test]
    fn convergence_iter_on_known_curve() {
        let curve = [0.0, 0.2, 0.5, 0.9, 0.99, 1.0, 1.0];
        assert_eq!(convergence_iter(&curve, 0.99), Some(4));
        assert_eq!(convergence_iter(&curve, 0.5), Some(2));
        assert_eq!(convergence_iter(&[], 0.99), None);
        // Flat curve converges immediately.
        assert_eq!(convergence_iter(&[1.0, 1.0], 0.99), Some(0));
    }

    /// End-to-end smoke test: a few iterations must improve the agent's
    /// throughput-preference reward on a fixed link.
    #[test]
    fn training_improves_reward() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MoccConfig {
            episode_mis: 60,
            rollout_steps: 120,
            ..MoccConfig::fast()
        };
        let mut agent = MoccAgent::new(cfg, &mut rng);
        let pref = Preference::throughput();
        let eval_sc = Scenario::single(4e6, 20, 500, 0.0, 120);
        let before = evaluate(&agent.ppo, &cfg, pref, eval_sc.clone(), 1);
        let range = ScenarioRange {
            bandwidth_bps: (3e6, 5e6),
            owd_ms: (15, 25),
            queue_pkts: (200, 800),
            loss: (0.0, 0.0),
        };
        for i in 0..30 {
            agent.ppo.cfg.entropy_coef = cfg.entropy_at(i);
            let _ = ppo_iteration(&mut agent.ppo, &cfg, pref, None, range, &mut rng);
        }
        let after = evaluate(&agent.ppo, &cfg, pref, eval_sc, 1);
        assert!(
            after > before - 0.05,
            "training regressed: before {before}, after {after}"
        );
        assert!(after > 0.3, "post-training reward too low: {after}");
    }
}
