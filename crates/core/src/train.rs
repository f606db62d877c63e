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

use crate::agent::MoccAgent;
use crate::env::MoccEnv;
use crate::preference::Preference;
use mocc_netsim::ScenarioRange;
use mocc_nn::ForwardTier;
use mocc_rl::{collect_rollouts_batched_tier, BatchRolloutScratch, Env};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Which training regime to run (the Fig. 19 comparison). How many
/// environments a rollout uses is `TrainSpec::batch_envs`, not a regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainRegime {
    /// Every landmark trained independently from the shared model
    /// without neighborhood ordering (the "Individual Training" bar).
    Individual,
    /// Two-phase training with neighborhood transfer.
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

/// Runs one PPO iteration for `pref` over `MoccConfig::parallel_envs`
/// environments and returns the mean reward of the first one's rollout.
///
/// When `contrast` holds a preference, the update additionally
/// consumes one rollout for it, so a single gradient step sees
/// *different objectives side by side*. This is the dynamic-weights
/// minibatch technique of Abels et al. (the MORL framework the paper
/// builds on, Appendix A) and is what makes the preference sub-network
/// separate objectives at our reduced training scale instead of
/// collapsing to one compromise policy.
pub fn train_iteration_contrast(
    agent: &mut MoccAgent,
    pref: Preference,
    contrast: Option<Preference>,
    range: ScenarioRange,
    global_iter: usize,
    rng: &mut StdRng,
) -> f32 {
    agent.ppo.cfg.entropy_coef = agent.cfg.entropy_at(global_iter);
    let cfg = agent.cfg;
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
    let mut envs: Vec<MoccEnv> = (0..n_envs)
        .map(|i| MoccEnv::training(cfg, pref, range, seed.wrapping_add(i as u64)))
        .collect();
    let mut refs: Vec<&mut dyn Env> = envs.iter_mut().map(|e| e as &mut dyn Env).collect();
    let mut rollouts = collect_rollouts_batched_tier(
        &agent.ppo.policy,
        &agent.ppo.value,
        &mut refs,
        steps,
        rng,
        &mut BatchRolloutScratch::default(),
        tier,
    );
    let main_reward = rollouts[0].mean_reward();
    if let Some(c) = contrast {
        let mut env = MoccEnv::training(cfg, c, range, seed.wrapping_add(1000));
        rollouts.push(agent.ppo.collect_rollout(&mut env, cfg.rollout_steps, rng));
    }
    let _ = agent.ppo.update(&rollouts, rng);
    main_reward
}

/// Evaluates the deterministic policy for `pref` on a fixed scenario,
/// returning the mean per-step Eq. 2 reward.
pub fn evaluate(
    agent: &MoccAgent,
    pref: Preference,
    scenario: mocc_netsim::Scenario,
    episodes: usize,
) -> f32 {
    let env = MoccEnv::fixed(agent.cfg, pref, scenario, 7);
    mean_step_reward(env, episodes, |obs| agent.ppo.policy.mean_action(obs))
}

/// Mean per-step reward of `episodes` episodes of the deterministic
/// policy `act` in `env` — the one evaluation loop behind [`evaluate`]
/// and `AuroraAgent::evaluate_for`.
pub(crate) fn mean_step_reward(
    mut env: MoccEnv,
    episodes: usize,
    act: impl Fn(&[f32]) -> f32,
) -> f32 {
    let mut total = 0.0f32;
    let mut count = 0usize;
    for _ in 0..episodes {
        let mut obs = env.reset();
        loop {
            let (next, r, done) = env.step(act(&obs));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoccConfig;
    use mocc_netsim::Scenario;
    use rand::SeedableRng;

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
        let before = evaluate(&agent, pref, eval_sc.clone(), 1);
        let range = ScenarioRange {
            bandwidth_bps: (3e6, 5e6),
            owd_ms: (15, 25),
            queue_pkts: (200, 800),
            loss: (0.0, 0.0),
        };
        for i in 0..30 {
            let _ = train_iteration_contrast(&mut agent, pref, None, range, i, &mut rng);
        }
        let after = evaluate(&agent, pref, eval_sc, 1);
        assert!(
            after > before - 0.05,
            "training regressed: before {before}, after {after}"
        );
        assert!(after > 0.3, "post-training reward too low: {after}");
    }
}
