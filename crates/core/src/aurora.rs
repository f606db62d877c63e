//! Aurora (ICML'19) — the single-objective RL baseline.
//!
//! Aurora is the same PPO-over-monitor-intervals design as MOCC but
//! with a *fixed* reward weighting and no preference in the state
//! (Fig. 2a): one trained model per objective. "Enhanced Aurora"
//! (Fig. 6) is a bank of such models dispatched by nearest preference.
//! Deployment is [`crate::PolicyCc::aurora`].

use crate::agent::check_mlp;
use crate::config::MoccConfig;
use crate::preference::Preference;
use crate::train::ppo_iteration;
use mocc_nn::Mlp;
use mocc_rl::Ppo;
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
        AuroraAgent {
            cfg,
            pref,
            ppo: Ppo::new(3 * cfg.history, &cfg.hidden, cfg.ppo_config(), rng),
        }
    }

    /// Runs `iters` [`ppo_iteration`]s for this model's objective from
    /// a generator seeded with `seed`, the entropy coefficient decaying
    /// as in offline training (training from scratch is exactly what
    /// the paper's Figs. 1c and 7a measure), and returns the mean
    /// rollout reward per iteration.
    pub fn train(
        &mut self,
        range: mocc_netsim::ScenarioRange,
        iters: usize,
        seed: u64,
    ) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..iters)
            .map(|i| {
                self.ppo.cfg.entropy_coef = self.cfg.entropy_at(i);
                ppo_iteration(&mut self.ppo, &self.cfg, self.pref, None, range, &mut rng)
            })
            .collect()
    }

    /// Restores a model from its JSON, checking what the derived
    /// decoder cannot, as [`crate::MoccAgent::from_json`] does: both
    /// networks are well-formed MLPs mapping the η × 3 history to one
    /// output, and every Adam moment buffer fits its tensor.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let agent: AuroraAgent = serde_json::from_str(json)?;
        agent.validate().map_err(serde_json::Error::custom)?;
        Ok(agent)
    }

    fn validate(&self) -> Result<(), String> {
        let history = self.cfg.history;
        let Some(inputs) = history.checked_mul(3).filter(|&n| n > 0) else {
            return Err(format!(
                "cfg.history is {history}; it must be >= 1 and fit 3x in usize"
            ));
        };
        for (name, net) in [("policy", &self.ppo.policy.net), ("value", &self.ppo.value)] {
            check_mlp(name, net)?;
            if net.in_dim() != inputs || net.out_dim() != 1 {
                return Err(format!(
                    "the {name} network maps {} inputs to {}; cfg.history {history} needs \
                     {inputs} to 1",
                    net.in_dim(),
                    net.out_dim(),
                ));
            }
        }
        self.ppo.check_optimizers().map_err(|e| format!("ppo.{e}"))
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

    /// Restores a bank from its JSON: at least one model, each one
    /// checked as [`AuroraAgent::from_json`] checks it.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let bank: AuroraBank = serde_json::from_str(json)?;
        if bank.models.is_empty() {
            return Err(serde_json::Error::custom("the bank holds no model"));
        }
        for (i, model) in bank.models.iter().enumerate() {
            model
                .validate()
                .map_err(|e| serde_json::Error::custom(format!("models[{i}]: {e}")))?;
        }
        Ok(bank)
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
