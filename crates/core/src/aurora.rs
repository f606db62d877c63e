//! Aurora (ICML'19) — the single-objective RL baseline.
//!
//! Aurora is the same PPO-over-monitor-intervals design as MOCC but
//! with a *fixed* reward weighting and no preference in the state
//! (Fig. 2a): one trained model per objective. "Enhanced Aurora"
//! (Fig. 6) is a bank of such models dispatched by nearest preference.
//! Deployment is [`crate::PolicyCc::aurora`].

use crate::config::MoccConfig;
use crate::env::MoccEnv;
use crate::preference::Preference;
use mocc_nn::Mlp;
use mocc_rl::{Ppo, PpoConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A single-objective Aurora agent.
#[derive(Clone, Serialize, Deserialize)]
pub struct AuroraAgent {
    /// Shared MOCC hyperparameters (η, α, rollout sizes).
    pub cfg: MoccConfig,
    /// The objective this model was trained for.
    pub pref: Preference,
    /// PPO learner over a plain MLP (no preference sub-network).
    pub ppo: Ppo<Mlp>,
}

impl AuroraAgent {
    /// Builds an untrained Aurora model for a fixed objective.
    pub fn new<R: Rng>(cfg: MoccConfig, pref: Preference, rng: &mut R) -> Self {
        let obs_dim = 3 * cfg.history;
        let ppo_cfg = PpoConfig {
            gamma: cfg.gamma,
            lr: cfg.lr,
            value_lr: cfg.lr,
            entropy_coef: cfg.entropy_start,
            ..Default::default()
        };
        AuroraAgent {
            cfg,
            pref,
            ppo: Ppo::new(obs_dim, &cfg.hidden, ppo_cfg, rng),
        }
    }

    /// Runs `iters` PPO iterations (training from scratch is exactly
    /// what the paper's Figs. 1c and 7a measure), returning the mean
    /// rollout reward per iteration.
    pub fn train(
        &mut self,
        range: mocc_netsim::ScenarioRange,
        iters: usize,
        seed: u64,
    ) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut curve = Vec::with_capacity(iters);
        for i in 0..iters {
            self.ppo.cfg.entropy_coef = self.cfg.entropy_at(i);
            let ep_seed: u64 = rng.gen();
            let mut env = MoccEnv::training(self.cfg, self.pref, range, ep_seed).without_pref_obs();
            let stats = self
                .ppo
                .train_iteration(&mut env, self.cfg.rollout_steps, &mut rng);
            curve.push(stats.mean_reward);
        }
        curve
    }

    /// Deterministic evaluation on a fixed scenario (mean Eq. 2 reward
    /// under this model's own objective).
    pub fn evaluate(&self, scenario: mocc_netsim::Scenario, episodes: usize) -> f32 {
        self.evaluate_for(self.pref, scenario, episodes)
    }

    /// Deterministic evaluation scored under an arbitrary preference
    /// (how well this fixed model serves someone else's objective).
    pub fn evaluate_for(
        &self,
        pref: Preference,
        scenario: mocc_netsim::Scenario,
        episodes: usize,
    ) -> f32 {
        let env = MoccEnv::fixed(self.cfg, pref, scenario, 7).without_pref_obs();
        crate::train::mean_step_reward(env, episodes, |obs| self.ppo.policy.mean_action(obs))
    }
}

/// "Enhanced Aurora": a bank of fixed-objective models with nearest-
/// preference dispatch (the 10-model comparison of Fig. 6).
#[derive(Clone, Serialize, Deserialize)]
pub struct AuroraBank {
    /// The trained models.
    pub models: Vec<AuroraAgent>,
}

impl AuroraBank {
    /// Trains one model per preference.
    pub fn train<R: Rng>(
        cfg: MoccConfig,
        prefs: &[Preference],
        range: mocc_netsim::ScenarioRange,
        iters_each: usize,
        rng: &mut R,
    ) -> Self {
        let models = prefs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut m = AuroraAgent::new(cfg, p, rng);
                let _ = m.train(range, iters_each, 100 + i as u64);
                m
            })
            .collect();
        AuroraBank { models }
    }

    /// Index of the model whose training objective is nearest (L1) to
    /// `pref`.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty.
    pub fn index_for(&self, pref: &Preference) -> usize {
        (0..self.models.len())
            .min_by(|&a, &b| {
                let (a, b) = (self.models[a].pref.l1(pref), self.models[b].pref.l1(pref));
                a.total_cmp(&b)
            })
            .expect("nonempty bank")
    }

    /// The model [`AuroraBank::index_for`] selects.
    pub fn best_for(&self, pref: &Preference) -> &AuroraAgent {
        &self.models[self.index_for(pref)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_netsim::{Scenario, ScenarioRange, Simulator};

    fn small_cfg() -> MoccConfig {
        MoccConfig {
            rollout_steps: 60,
            episode_mis: 60,
            ..MoccConfig::fast()
        }
    }

    #[test]
    fn aurora_trains_and_curve_has_len() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = AuroraAgent::new(small_cfg(), Preference::throughput(), &mut rng);
        let curve = agent.train(ScenarioRange::training(), 3, 5);
        assert_eq!(curve.len(), 3);
        assert!(curve.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn bank_dispatches_nearest() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = small_cfg();
        let bank = AuroraBank {
            models: vec![
                AuroraAgent::new(cfg, Preference::throughput(), &mut rng),
                AuroraAgent::new(cfg, Preference::latency(), &mut rng),
            ],
        };
        let near_thr = Preference::new(0.7, 0.2, 0.1);
        assert_eq!(bank.best_for(&near_thr).pref, Preference::throughput());
        let near_lat = Preference::new(0.2, 0.7, 0.1);
        assert_eq!(bank.best_for(&near_lat).pref, Preference::latency());
    }

    #[test]
    fn aurora_cc_runs_in_simulator() {
        let mut rng = StdRng::seed_from_u64(2);
        let agent = AuroraAgent::new(small_cfg(), Preference::throughput(), &mut rng);
        let sc = Scenario::single(5e6, 20, 500, 0.0, 10);
        let cc = crate::PolicyCc::aurora(&agent, 1e6);
        let res = Simulator::new(sc, vec![Box::new(cc)]).run();
        assert!(res.flows[0].total_sent > 0, "untrained policy still paces");
    }
}
