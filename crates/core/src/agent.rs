//! The MOCC agent: preference-conditioned actor-critic.

use crate::config::MoccConfig;
use crate::preference::Preference;
use crate::prefnet::PrefNet;
use mocc_netsim::MonitorStats;
use mocc_nn::Network;
use mocc_rl::{GaussianPolicy, Ppo, PpoConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Converts one monitor interval into the three state features
/// `(l_t − 1, p_t − 1, 10·q_t)`, clamped for numerical stability. Used
/// identically by the training environment, the deployment adapter, and
/// the library facade so the policy always sees the same distribution.
pub fn stats_features(stats: &MonitorStats) -> [f32; 3] {
    ratio_features(
        stats.send_ratio,
        stats.latency_ratio,
        stats.latency_gradient,
    )
}

/// The §4.1 feature map itself, on the three raw statistics: the one
/// copy behind [`stats_features`] (simulator intervals) and
/// `MoccLib::report_status` (datapath-reported intervals).
pub(crate) fn ratio_features(
    send_ratio: f64,
    latency_ratio: f64,
    latency_gradient: f64,
) -> [f32; 3] {
    [
        (send_ratio as f32 - 1.0).clamp(0.0, 5.0),
        (latency_ratio as f32 - 1.0).clamp(0.0, 5.0),
        (latency_gradient as f32 * 10.0).clamp(-1.0, 1.0),
    ]
}

/// Assembles the policy observation — the preference followed by the
/// η-interval feature history — into `out` (length
/// [`MoccConfig::obs_dim`]). One writer serves the library facade and
/// the sweep evaluator, so their observation layouts can never drift
/// apart; the deployment adapter, whose preference prefix is optional,
/// appends the same layout and is pinned to this one bit for bit
/// (`api::tests`).
///
/// # Panics
///
/// Panics if `out` is shorter than `3 + 3 × history.len()`.
pub fn write_obs(
    pref: &Preference,
    history: &std::collections::VecDeque<[f32; 3]>,
    out: &mut [f32],
) {
    out[..3].copy_from_slice(&pref.as_array());
    for (chunk, h) in out[3..].chunks_exact_mut(3).zip(history) {
        chunk.copy_from_slice(h);
    }
}

/// The complete MOCC learner: a PPO actor-critic whose actor and critic
/// both carry the preference sub-network (Fig. 3).
#[derive(Clone, Serialize, Deserialize)]
pub struct MoccAgent {
    /// Hyperparameters (Table 2).
    pub cfg: MoccConfig,
    /// The PPO learner over [`PrefNet`] networks.
    pub ppo: Ppo<PrefNet>,
}

impl MoccAgent {
    /// Builds an untrained agent with the paper's architecture.
    pub fn new<R: Rng>(cfg: MoccConfig, rng: &mut R) -> Self {
        let hist_dim = 3 * cfg.history;
        let actor = PrefNet::new(3, cfg.pn_features, hist_dim, &cfg.hidden, 1, rng);
        let critic = PrefNet::new(3, cfg.pn_features, hist_dim, &cfg.hidden, 1, rng);
        let ppo_cfg = PpoConfig {
            gamma: cfg.gamma,
            lr: cfg.lr,
            value_lr: cfg.lr,
            entropy_coef: cfg.entropy_start,
            ..Default::default()
        };
        MoccAgent {
            cfg,
            ppo: Ppo::from_nets(GaussianPolicy::from_net(actor), critic, ppo_cfg),
        }
    }

    /// Deterministic action for `pref` given a flattened history
    /// observation (η × 3 features, oldest first).
    pub fn act(&self, pref: &Preference, history: &[f32]) -> f32 {
        debug_assert_eq!(history.len(), 3 * self.cfg.history);
        let mut obs = Vec::with_capacity(3 + history.len());
        obs.extend_from_slice(&pref.as_array());
        obs.extend_from_slice(history);
        self.ppo.policy.mean_action(&obs)
    }

    /// Serializes the agent to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("agent serialization")
    }

    /// Restores an agent from [`MoccAgent::to_json`] output. A
    /// document whose `cfg` disagrees with its networks (an edited
    /// `cfg.history`, a network of another shape) is an error here, not
    /// a slice-length panic at the first forward pass.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let agent: MoccAgent = serde_json::from_str(json)?;
        let history = agent.cfg.history;
        if history == 0 {
            return Err(serde_json::Error::custom(
                "cfg.history is 0; it must be >= 1",
            ));
        }
        let obs_dim = agent.cfg.obs_dim();
        for (name, net) in [
            ("policy", &agent.ppo.policy.net),
            ("value", &agent.ppo.value),
        ] {
            if net.in_dim() != obs_dim {
                return Err(serde_json::Error::custom(format!(
                    "cfg.history {history} means {obs_dim} observation inputs, \
                     but the {name} network takes {}",
                    net.in_dim()
                )));
            }
            if net.out_dim() != 1 {
                return Err(serde_json::Error::custom(format!(
                    "the {name} network has {} outputs; it must have 1",
                    net.out_dim()
                )));
            }
        }
        Ok(agent)
    }

    /// Saves the agent to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads an agent from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn act_depends_on_preference() {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let hist = vec![0.1f32; 30];
        let a = agent.act(&Preference::throughput(), &hist);
        let b = agent.act(&Preference::latency(), &hist);
        assert!(a.is_finite() && b.is_finite());
        assert_ne!(a, b, "preference must steer the policy");
    }

    #[test]
    fn json_roundtrip_preserves_policy() {
        let mut rng = StdRng::seed_from_u64(1);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let back = MoccAgent::from_json(&agent.to_json()).unwrap();
        let hist = vec![0.2f32; 30];
        assert_eq!(
            agent.act(&Preference::balanced(), &hist),
            back.act(&Preference::balanced(), &hist)
        );
    }

    /// A model file whose config disagrees with its networks is
    /// refused at decode time, naming both numbers.
    #[test]
    fn config_and_networks_must_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let json = MoccAgent::new(MoccConfig::fast(), &mut rng).to_json();
        assert!(
            json.contains("\"history\":10"),
            "fast preset stacks 10 intervals"
        );
        for (history, want) in [
            (
                5,
                "cfg.history 5 means 18 observation inputs, but the policy network takes 33",
            ),
            (0, "cfg.history is 0"),
        ] {
            let edited = json.replace("\"history\":10", &format!("\"history\":{history}"));
            let err = MoccAgent::from_json(&edited).map(|_| ()).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
        // A value network of another width is caught as well.
        let mut agent = MoccAgent::from_json(&json).unwrap();
        agent.ppo.value = PrefNet::new(3, 4, 12, &[8], 1, &mut rng);
        let err = MoccAgent::from_json(&agent.to_json())
            .map(|_| ())
            .unwrap_err();
        assert!(
            err.to_string().contains("the value network takes 15"),
            "{err}"
        );
    }

    #[test]
    fn save_and_load_file() {
        let mut rng = StdRng::seed_from_u64(2);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let dir = std::env::temp_dir().join("mocc-agent-test.json");
        agent.save(&dir).unwrap();
        let back = MoccAgent::load(&dir).unwrap();
        let hist = vec![0.0f32; 30];
        assert_eq!(
            agent.act(&Preference::throughput(), &hist),
            back.act(&Preference::throughput(), &hist)
        );
        let _ = std::fs::remove_file(dir);
    }
}
