//! Deployment adapter: a trained policy as a [`CongestionControl`].
//!
//! This is how learned policies run *inside* multi-flow simulations
//! (fairness, friendliness, application experiments): at each monitor
//! interval the policy performs inference on the feature history and
//! the Eq. 1 rate update is applied, exactly like the user-space and
//! kernel-space deployments in §5. [`PolicyCc`] is the one shim behind
//! MOCC, the Aurora baseline and the DQN ablation; they differ only in
//! the action function and in whether the observation starts with a
//! registered preference.

use crate::agent::{stats_features, MoccAgent, PolicyFlow};
use crate::aurora::AuroraAgent;
use crate::config::MoccConfig;
use crate::preference::Preference;
use mocc_netsim::cc::{CongestionControl, MonitorStats, RateControl, SenderView};

/// Observation → raw Eq. 1 action.
type Act = Box<dyn Fn(&[f32]) -> f32 + Send>;

/// A deployed learned policy: feature history → optional preference
/// prefix → action function → [`MoccConfig::apply_action`], once per
/// monitor interval.
pub struct PolicyCc {
    name: &'static str,
    cfg: MoccConfig,
    flow: PolicyFlow,
    act: Act,
    initial_rate_bps: f64,
}

impl PolicyCc {
    /// Deploys `act`, a map from the observation — `pref` when given,
    /// then `cfg.history` intervals of features, oldest first — to the
    /// raw Eq. 1 action, starting at `initial_rate_bps`.
    pub fn new(
        name: &'static str,
        cfg: MoccConfig,
        pref: Option<Preference>,
        initial_rate_bps: f64,
        act: impl Fn(&[f32]) -> f32 + Send + 'static,
    ) -> Self {
        PolicyCc {
            name,
            cfg,
            flow: PolicyFlow::new(&cfg, pref),
            act: Box::new(act),
            initial_rate_bps,
        }
    }

    /// A trained MOCC agent's policy under the given application
    /// preference (the `Register(w)` step of §5).
    pub fn mocc(agent: &MoccAgent, pref: Preference, initial_rate_bps: f64) -> Self {
        let policy = agent.ppo.policy.clone();
        Self::new(
            "mocc",
            agent.cfg,
            Some(pref),
            initial_rate_bps,
            move |obs| policy.mean_action(obs),
        )
    }

    /// A trained fixed-objective Aurora policy (no preference input).
    pub fn aurora(agent: &AuroraAgent, initial_rate_bps: f64) -> Self {
        let policy = agent.ppo.policy.clone();
        Self::new("aurora", agent.cfg, None, initial_rate_bps, move |obs| {
            policy.mean_action(obs)
        })
    }
}

impl CongestionControl for PolicyCc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn init(&mut self, _view: &SenderView, ctl: &mut RateControl) {
        ctl.pacing_rate_bps = self.initial_rate_bps;
        ctl.cwnd_pkts = f64::INFINITY;
    }

    fn on_monitor(&mut self, _view: &SenderView, mi: &MonitorStats, ctl: &mut RateControl) {
        ctl.pacing_rate_bps = self.flow.decide(
            &self.cfg,
            stats_features(mi),
            ctl.pacing_rate_bps,
            &self.act,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_netsim::{Scenario, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mocc_cc_paces_in_simulator() {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let sc = Scenario::single(5e6, 20, 500, 0.0, 10);
        let cc = PolicyCc::mocc(&agent, Preference::throughput(), 1e6);
        assert_eq!(cc.name(), "mocc");
        let res = Simulator::new(sc, vec![Box::new(cc)]).run();
        assert!(res.flows[0].total_sent > 0);
        assert!(res.flows[0].total_acked > 0);
    }

    #[test]
    fn two_mocc_flows_coexist() {
        let mut rng = StdRng::seed_from_u64(1);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let sc = Scenario::dumbbell(10e6, 10, 200, 2, 0.0, 10);
        let res = Simulator::new(
            sc,
            vec![
                Box::new(PolicyCc::mocc(&agent, Preference::throughput(), 1e6)),
                Box::new(PolicyCc::mocc(&agent, Preference::latency(), 1e6)),
            ],
        )
        .run();
        assert!(res.flows[0].total_acked > 0);
        assert!(res.flows[1].total_acked > 0);
    }

    #[test]
    fn observation_is_the_optional_preference_then_the_history() {
        use std::sync::{Arc, Mutex};
        for pref in [None, Some(Preference::latency())] {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let sink = seen.clone();
            let cfg = MoccConfig::fast();
            let cc = PolicyCc::new("probe", cfg, pref, 1e6, move |obs| {
                *sink.lock().unwrap() = obs.to_vec();
                0.0
            });
            let sc = Scenario::single(5e6, 20, 500, 0.0, 2);
            let _ = Simulator::new(sc, vec![Box::new(cc)]).run();
            let obs = seen.lock().unwrap().clone();
            let prefix = pref.map_or(0, |_| 3);
            assert_eq!(obs.len(), prefix + 3 * cfg.history);
            if let Some(p) = pref {
                assert_eq!(obs[..3], p.as_array());
            }
        }
    }
}
