//! The MOCC agent: preference-conditioned actor-critic.

use crate::config::MoccConfig;
use crate::preference::Preference;
use crate::prefnet::PrefNet;
use mocc_netsim::MonitorStats;
use mocc_nn::{Mlp, Network};
use mocc_rl::{GaussianPolicy, Ppo};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
/// [`MoccConfig::obs_dim`]). The one writer of the layout: every
/// policy-driven flow in this crate assembles its observation through
/// it, and the benchmark harness's restated evaluator loop calls it
/// directly.
///
/// # Panics
///
/// Panics if `out` is shorter than `3 + 3 × history.len()`.
pub fn write_obs(pref: &Preference, history: &VecDeque<[f32; 3]>, out: &mut [f32]) {
    out[..3].copy_from_slice(&pref.as_array());
    write_history(history, &mut out[3..]);
}

/// The history part of [`write_obs`], oldest interval first.
fn write_history(history: &VecDeque<[f32; 3]>, out: &mut [f32]) {
    for (chunk, h) in out.chunks_exact_mut(3).zip(history) {
        chunk.copy_from_slice(h);
    }
}

/// One policy-driven flow's state, and the one copy of what happens to
/// it at a monitor interval: the interval's features enter the
/// η-interval history (all zeros before the first), the observation is
/// assembled from it ([`write_obs`]; no preference prefix for a
/// preference-free policy), the policy maps it to an action, and Eq. 1
/// ([`MoccConfig::apply_action`]) turns the action into the next rate.
/// The deployment adapter, the library facade, the sweep evaluator and
/// the training environment all hold one of these per flow, beside the
/// [`MoccConfig`] they already own (η and the Eq. 1 constants are read
/// from it, not copied per flow).
pub(crate) struct PolicyFlow {
    /// The observation's preference prefix; `None` leaves it out.
    pub(crate) pref: Option<Preference>,
    history: VecDeque<[f32; 3]>,
    obs: Vec<f32>,
}

impl PolicyFlow {
    /// A flow that has seen no interval yet.
    pub(crate) fn new(cfg: &MoccConfig, pref: Option<Preference>) -> Self {
        PolicyFlow {
            pref,
            history: VecDeque::from(vec![[0.0; 3]; cfg.history]),
            obs: Vec::new(),
        }
    }

    /// Observation length: the optional preference, then η × 3.
    pub(crate) fn obs_dim(&self) -> usize {
        self.pref.map_or(0, |_| 3) + 3 * self.history.len()
    }

    /// Shifts one interval's features into the history.
    pub(crate) fn push(&mut self, features: [f32; 3]) {
        self.history.pop_front();
        self.history.push_back(features);
    }

    /// The observation for the current preference and history.
    pub(crate) fn obs(&mut self) -> &[f32] {
        self.obs.resize(self.obs_dim(), 0.0);
        match &self.pref {
            Some(pref) => write_obs(pref, &self.history, &mut self.obs),
            None => write_history(&self.history, &mut self.obs),
        }
        &self.obs
    }

    /// One monitor interval: `features` in, the observation through
    /// `act`, Eq. 1 applied to `rate_bps`. Returns the next rate.
    pub(crate) fn decide(
        &mut self,
        cfg: &MoccConfig,
        features: [f32; 3],
        rate_bps: f64,
        act: impl FnOnce(&[f32]) -> f32,
    ) -> f64 {
        self.push(features);
        let action = act(self.obs());
        cfg.apply_action(rate_bps, action)
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
        MoccAgent {
            cfg,
            ppo: Ppo::from_nets(GaussianPolicy::from_net(actor), critic, cfg.ppo_config()),
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

    /// Restores an agent from [`MoccAgent::to_json`] output, checking
    /// what the derived decoder cannot: every network has layers,
    /// every weight matrix holds `rows × cols` values, every bias
    /// matches its weights, consecutive layers chain, the preference
    /// sub-network takes `pref_dim` inputs and feeds a trunk at least
    /// that wide, both networks map `cfg.obs_dim()` observations to one
    /// output, and every Adam moment buffer fits the tensor it moves
    /// (`Ppo::check_optimizers`). A document that fails one is an error
    /// here, naming the first disagreement — not a panic at the first
    /// forward pass or update.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let agent: MoccAgent = serde_json::from_str(json)?;
        agent.validate().map_err(serde_json::Error::custom)?;
        Ok(agent)
    }

    /// The shape checks of [`MoccAgent::from_json`], for agents that
    /// arrive inside another document (a checkpoint).
    pub(crate) fn validate(&self) -> Result<(), String> {
        let history = self.cfg.history;
        if history == 0 {
            return Err("cfg.history is 0; it must be >= 1".to_string());
        }
        let obs_dim = self.cfg.obs_dim();
        for (name, net) in [("policy", &self.ppo.policy.net), ("value", &self.ppo.value)] {
            check_mlp(&format!("{name}.pn"), &net.pn)?;
            check_mlp(&format!("{name}.main"), &net.main)?;
            if net.pref_dim != net.pn.in_dim() {
                return Err(format!(
                    "the {name} network's pref_dim is {} but its sub-network takes {}",
                    net.pref_dim,
                    net.pn.in_dim()
                ));
            }
            if net.main.in_dim() < net.pn.out_dim() {
                return Err(format!(
                    "the {name} network's trunk takes {} inputs, fewer than the {} \
                     sub-network features",
                    net.main.in_dim(),
                    net.pn.out_dim()
                ));
            }
            if net.in_dim() != obs_dim {
                return Err(format!(
                    "cfg.history {history} means {obs_dim} observation inputs, \
                     but the {name} network takes {}",
                    net.in_dim()
                ));
            }
            if net.out_dim() != 1 {
                return Err(format!(
                    "the {name} network has {} outputs; it must have 1",
                    net.out_dim()
                ));
            }
        }
        self.ppo.check_optimizers().map_err(|e| format!("ppo.{e}"))
    }

    /// Saves the agent to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads an agent from a file; a file over
    /// [`mocc_store::MAX_FILE_BYTES`] is an `InvalidData` error, not a
    /// read.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let json = mocc_store::read_text(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// The internal consistency of one decoded [`Mlp`]: at least one
/// layer, `rows × cols` values per weight matrix, one bias per output,
/// and each layer as wide as the next one's input.
pub(crate) fn check_mlp(name: &str, mlp: &Mlp) -> Result<(), String> {
    if mlp.layers.is_empty() {
        return Err(format!("{name} has no layers"));
    }
    for (k, layer) in mlp.layers.iter().enumerate() {
        let w = &layer.w;
        if w.rows.checked_mul(w.cols) != Some(w.data.len()) {
            return Err(format!(
                "{name} layer {k}: a {}x{} weight matrix holds {} values",
                w.rows,
                w.cols,
                w.data.len()
            ));
        }
        if layer.b.len() != w.cols {
            return Err(format!(
                "{name} layer {k}: {} biases for {} outputs",
                layer.b.len(),
                w.cols
            ));
        }
        if let Some(next) = mlp.layers.get(k + 1) {
            if next.w.rows != w.cols {
                return Err(format!(
                    "{name} layer {k} has {} outputs but layer {} takes {}",
                    w.cols,
                    k + 1,
                    next.w.rows
                ));
            }
        }
    }
    Ok(())
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

    /// Each shape inconsistency a hand-edited or truncated model file
    /// can carry is a decode error naming the spot — never a panic in
    /// the decoder or at the first forward pass — and a well-formed
    /// model still round-trips to the same bytes.
    #[test]
    fn inconsistent_shapes_are_decode_errors() {
        use mocc_nn::{Activation, Matrix};
        let mut rng = StdRng::seed_from_u64(1);
        let good = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let json = good.to_json();
        assert_eq!(MoccAgent::from_json(&json).unwrap().to_json(), json);

        type Edit = fn(&mut MoccAgent);
        let table: [(Edit, &str); 6] = [
            (
                |a| a.ppo.policy.net.main.layers.clear(),
                "policy.main has no layers",
            ),
            (
                |a| {
                    a.ppo.value.main.layers[1].w.data.pop();
                },
                "value.main layer 1: a 64x32 weight matrix holds 2047 values",
            ),
            (
                |a| {
                    a.ppo.policy.net.pn.layers[0].b.pop();
                },
                "policy.pn layer 0: 15 biases for 16 outputs",
            ),
            (
                |a| a.ppo.value.main.layers[1].w = Matrix::zeros(5, 32),
                "value.main layer 0 has 64 outputs but layer 1 takes 5",
            ),
            (
                |a| a.ppo.policy.net.pref_dim = 2,
                "the policy network's pref_dim is 2 but its sub-network takes 3",
            ),
            (
                |a| {
                    let mut rng = StdRng::seed_from_u64(2);
                    a.ppo.value.pn =
                        Mlp::new(&[3, 99], Activation::Tanh, Activation::Tanh, &mut rng);
                },
                "the value network's trunk takes 46 inputs, fewer than the 99",
            ),
        ];
        for (edit, want) in table {
            let mut bad = good.clone();
            edit(&mut bad);
            let err = MoccAgent::from_json(&bad.to_json())
                .map(|_| ())
                .unwrap_err();
            assert!(err.to_string().contains(want), "{want}: {err}");
        }
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
