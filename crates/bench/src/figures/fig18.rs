//! Figure 18 — learning-algorithm ablation: MOCC-PPO vs MOCC-DQN.
//!
//! Trains a DQN variant (discretized rate actions, same environment,
//! same budget) and compares reward CDFs. The paper finds PPO ≈ 3× the
//! reward because Q-learning handles the continuous sending-rate action
//! poorly.

use super::{header, percentile_row, trained_mocc, Cases};
use crate::timing::Stopwatch;
use mocc_core::{MoccEnv, PolicyCc};
use mocc_netsim::metrics::mean;
use mocc_netsim::ScenarioRange;
use mocc_rl::{Dqn, DqnConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Prints Figure 18.
pub fn run() -> Result<(), String> {
    let (episodes, n_objectives, n_conditions) = (250, 20, 3);

    let ppo_agent = trained_mocc()?;

    // Train the DQN on the same environment with a comparable budget,
    // cycling the preference across landmarks like the PPO training.
    let cfg = ppo_agent.cfg;
    let mut rng = StdRng::seed_from_u64(55);
    let actions = Dqn::uniform_grid(-cfg.action_clip as f32, cfg.action_clip as f32, 9);
    let mut dqn = Dqn::new(
        cfg.obs_dim(),
        &cfg.hidden,
        actions,
        DqnConfig {
            eps_decay_steps: (episodes * cfg.episode_mis / 2) as u64,
            ..Default::default()
        },
        &mut rng,
    );
    let landmarks = mocc_core::landmarks(cfg.omega_step);
    eprintln!("[fig18] training MOCC-DQN for {episodes} episodes...");
    let t0 = Stopwatch::start();
    for ep in 0..episodes {
        let pref = landmarks[ep % landmarks.len()];
        let seed: u64 = rng.gen();
        let mut env = MoccEnv::training(cfg, pref, ScenarioRange::training(), seed);
        let _ = dqn.train_episode(&mut env, cfg.episode_mis, &mut rng);
    }
    eprintln!("[fig18] DQN training: {:.1}s", t0.elapsed_secs());
    let dqn = Arc::new(dqn);

    // Score both on random objectives × conditions.
    let cases = Cases::draw(77, n_objectives, n_conditions, 20);
    let ppo_rewards = cases.score_mocc(ppo_agent);
    // The DQN variant deployed greedily: its action grid spans
    // `±action_clip`, so Eq. 1 applies each grid point unclipped.
    let dqn_rewards = cases.score(
        |j, _| j,
        |w, rate| {
            let dqn = dqn.clone();
            let act = move |obs: &[f32]| dqn.best_action(obs);
            Box::new(PolicyCc::new("mocc-dqn", cfg, Some(*w), rate, act))
        },
    );

    println!("== Figure 18: MOCC-PPO vs MOCC-DQN reward CDF ==");
    header("variant", &["p25", "p50", "p75", "mean"], 9);
    let (ppo_mean, dqn_mean) = (mean(&ppo_rewards), mean(&dqn_rewards));
    for (name, rewards, mean) in [
        ("mocc-ppo", &ppo_rewards, ppo_mean),
        ("mocc-dqn", &dqn_rewards, dqn_mean),
    ] {
        percentile_row(name, rewards, &[25.0, 50.0, 75.0], &[mean], 9, 3);
    }
    println!(
        "\nPPO/DQN mean-reward ratio: {:.2}x (paper: ~3x on its reward scale)",
        ppo_mean / dqn_mean.max(1e-9)
    );
    Ok(())
}
