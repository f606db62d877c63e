//! Offline two-phase training (§4.2).
//!
//! Phase 1 (*bootstrapping*) trains a small set of pivot objectives to
//! convergence from scratch. Phase 2 (*fast traversing*) visits the
//! remaining landmark objectives in the neighborhood order of
//! Algorithm 1, training each for only a few PPO iterations per visit
//! and cycling until the budget is exhausted — neighboring objectives
//! have neighboring optima, so each visit starts from an already-good
//! policy. Rollouts can be collected in parallel (the paper's
//! Ray/RLlib substitute).

use crate::agent::MoccAgent;
use crate::env::MoccEnv;
use crate::preference::Preference;
use mocc_netsim::ScenarioRange;
use mocc_nn::ForwardTier;
use mocc_rl::{collect_rollouts_batched_tier, BatchRolloutScratch, Env};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Which training regime to run (the Fig. 19 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainRegime {
    /// Every landmark trained independently from the shared model
    /// without neighborhood ordering (the "Individual Training" bar).
    Individual,
    /// Two-phase training with neighborhood transfer, serial rollouts.
    Transfer,
    /// Two-phase training with parallel rollout collection.
    TransferParallel,
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

/// Runs one PPO iteration for `pref`, honouring the agent's parallel
/// setting, and returns the mean rollout reward.
///
/// When `contrast` holds extra preferences, each update additionally
/// consumes one rollout per contrast preference, so a single gradient
/// step sees *different objectives side by side*. This is the
/// dynamic-weights minibatch technique of Abels et al. (the MORL
/// framework the paper builds on, Appendix A) and is what makes the
/// preference sub-network separate objectives at our reduced training
/// scale instead of collapsing to one compromise policy.
pub fn train_iteration_contrast(
    agent: &mut MoccAgent,
    pref: Preference,
    contrast: &[Preference],
    range: ScenarioRange,
    global_iter: usize,
    rng: &mut StdRng,
) -> f32 {
    agent.ppo.cfg.entropy_coef = agent.cfg.entropy_at(global_iter);
    let steps = agent.cfg.rollout_steps;
    let n_envs = agent.cfg.parallel_envs.max(1);
    let seed = rand::Rng::gen::<u64>(rng);
    let mut rollouts = if n_envs > 1 {
        let cfg = agent.cfg;
        // Parallelism splits the same experience budget across
        // lockstep environments (the paper's Ray setup): total steps
        // per iteration stays `rollout_steps`, and each monitor round
        // costs one batched actor and one batched critic forward
        // instead of `n_envs` scalar ones. Collection is gradient-free
        // inference, so it runs on the fast kernel tier — deterministic
        // (resume stays byte-identical), with means within 4e-6 of the
        // exact kernels the PPO update itself keeps using.
        let per_env = (steps / n_envs).max(20);
        let mut envs: Vec<MoccEnv> = (0..n_envs)
            .map(|i| MoccEnv::training(cfg, pref, range, seed.wrapping_add(i as u64)))
            .collect();
        let mut refs: Vec<&mut dyn Env> = envs.iter_mut().map(|e| e as &mut dyn Env).collect();
        let mut scratch = BatchRolloutScratch::default();
        collect_rollouts_batched_tier(
            &agent.ppo.policy,
            &agent.ppo.value,
            &mut refs,
            per_env,
            rng,
            &mut scratch,
            ForwardTier::Fast,
        )
    } else {
        let mut env = MoccEnv::training(agent.cfg, pref, range, seed);
        vec![agent.ppo.collect_rollout(&mut env, steps, rng)]
    };
    let main_reward = rollouts[0].mean_reward();
    for (k, &c) in contrast.iter().enumerate() {
        let mut env = MoccEnv::training(agent.cfg, c, range, seed.wrapping_add(1000 + k as u64));
        rollouts.push(agent.ppo.collect_rollout(&mut env, steps, rng));
    }
    let _ = agent.ppo.update(&rollouts, rng);
    main_reward
}

/// Runs one PPO iteration for `pref` alone (no contrast rollouts).
pub fn train_iteration(
    agent: &mut MoccAgent,
    pref: Preference,
    range: ScenarioRange,
    global_iter: usize,
    rng: &mut StdRng,
) -> f32 {
    train_iteration_contrast(agent, pref, &[], range, global_iter, rng)
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
            let _ = train_iteration(&mut agent, pref, range, i, &mut rng);
        }
        let after = evaluate(&agent, pref, eval_sc, 1);
        assert!(
            after > before - 0.05,
            "training regressed: before {before}, after {after}"
        );
        assert!(after > 0.3, "post-training reward too low: {after}");
    }
}
