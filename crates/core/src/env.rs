//! The MOCC reinforcement-learning environment (§4.1).
//!
//! Wraps one single-bottleneck simulation: the agent's flow is driven
//! externally; at each monitor interval the environment returns the
//! state (preference ⊕ η-history of send ratio, latency ratio, latency
//! gradient), applies the continuous rate update of Eq. 1, and computes
//! the dynamically parameterized reward of Eq. 2.

use crate::agent::{stats_features, PolicyFlow};
use crate::config::MoccConfig;
use crate::preference::Preference;
use mocc_netsim::cc::ExternalRate;
use mocc_netsim::scenario::MiMode;
use mocc_netsim::time::SimDuration;
use mocc_netsim::{MonitorStats, Scenario, ScenarioRange, Simulator};
use mocc_rl::Env;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where the environment's episode scenarios come from.
#[derive(Debug, Clone)]
pub enum ScenarioSource {
    /// Sample a fresh random scenario each episode (training).
    Random(ScenarioRange),
    /// Replay one fixed scenario every episode (evaluation).
    Fixed(Scenario),
}

/// The congestion-control environment for MOCC and Aurora agents.
pub struct MoccEnv {
    cfg: MoccConfig,
    pref: Preference,
    source: ScenarioSource,
    sim: Option<Simulator>,
    /// The agent flow's history and observation. Its preference prefix
    /// is present for MOCC and absent for the single-objective Aurora
    /// baseline, which observes only the network history (Fig. 2a vs
    /// 2b).
    flow: PolicyFlow,
    steps: usize,
    rng: StdRng,
    capacity_bps: f64,
    base_rtt_s: f64,
}

impl MoccEnv {
    fn new(cfg: MoccConfig, pref: Preference, source: ScenarioSource, seed: u64) -> Self {
        MoccEnv {
            cfg,
            pref,
            source,
            sim: None,
            flow: PolicyFlow::new(&cfg, Some(pref)),
            steps: 0,
            rng: StdRng::seed_from_u64(seed),
            capacity_bps: 1.0,
            base_rtt_s: 0.04,
        }
    }

    /// A training environment sampling scenarios from `range`.
    pub fn training(cfg: MoccConfig, pref: Preference, range: ScenarioRange, seed: u64) -> Self {
        Self::new(cfg, pref, ScenarioSource::Random(range), seed)
    }

    /// An evaluation environment replaying one fixed scenario.
    pub fn fixed(cfg: MoccConfig, pref: Preference, scenario: Scenario, seed: u64) -> Self {
        Self::new(cfg, pref, ScenarioSource::Fixed(scenario), seed)
    }

    /// Makes the observation preference-free (Aurora mode, Fig. 2a).
    pub fn without_pref_obs(mut self) -> Self {
        self.flow.pref = None;
        self
    }

    /// Replaces the active preference (the dynamic reward of Eq. 2 and
    /// the state input both follow).
    pub fn set_pref(&mut self, pref: Preference) {
        self.pref = pref;
        if self.flow.pref.is_some() {
            self.flow.pref = Some(pref);
        }
    }

    /// The active preference.
    pub fn pref(&self) -> Preference {
        self.pref
    }

    fn build_scenario(&mut self) -> Scenario {
        let mut sc = match &self.source {
            ScenarioSource::Random(range) => {
                let r = *range;
                r.sample(&mut self.rng, 1)
            }
            ScenarioSource::Fixed(sc) => sc.clone(),
        };
        // Size the horizon so the episode never outruns the simulation:
        // episode_mis intervals at the (capped) MI length plus slack.
        let base_rtt = sc.link.base_rtt();
        let mi = mi_for(base_rtt);
        sc.duration = SimDuration(mi.0 * (self.cfg.episode_mis as u64 + 10) + 2_000_000_000);
        sc.flows[0].mi = MiMode::Fixed(mi);
        if matches!(self.source, ScenarioSource::Random(_)) {
            sc.seed = self.rng.gen();
        }
        sc
    }

    /// The Eq. 2 reward for one monitor interval under preference `w`.
    pub fn reward_of(
        pref: &Preference,
        stats: &MonitorStats,
        capacity_bps: f64,
        base_rtt_s: f64,
    ) -> f32 {
        let o_thr = (stats.throughput_bps / capacity_bps).clamp(0.0, 1.0) as f32;
        let (o_lat, o_loss) = if stats.pkts_acked > 0 {
            let o_lat = stats
                .mean_rtt
                .map(|m| (base_rtt_s / m.as_secs_f64()).clamp(0.0, 1.0) as f32)
                .unwrap_or(0.0);
            (o_lat, 1.0 - stats.loss_rate as f32)
        } else if stats.pkts_sent > 0 {
            // Sent but nothing delivered: the interval is unmeasurable
            // and almost certainly congested — score it as worst-case.
            (0.0, 0.0)
        } else {
            // Idle interval: neutral latency, no losses.
            (1.0, 1.0)
        };
        pref.reward(o_thr, o_lat, o_loss)
    }

    /// Ground-truth capacity of the current episode's bottleneck, bps.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }
}

/// Monitor-interval length for a given base RTT: one RTT, clamped to
/// [10 ms, 200 ms] so bufferbloated paths cannot stretch episodes
/// unboundedly.
fn mi_for(base_rtt: SimDuration) -> SimDuration {
    SimDuration((2 * base_rtt.0).clamp(10_000_000, 200_000_000))
}

impl Env for MoccEnv {
    fn obs_dim(&self) -> usize {
        self.flow.obs_dim()
    }

    fn reset(&mut self) -> Vec<f32> {
        let sc = self.build_scenario();
        self.capacity_bps = sc.link.trace.max_rate();
        self.base_rtt_s = sc.link.base_rtt().as_secs_f64();
        let initial = 0.3 * self.capacity_bps;
        let mut sim = Simulator::new(
            sc,
            vec![Box::new(ExternalRate {
                initial_rate_bps: initial,
            })],
        );
        self.flow = PolicyFlow::new(&self.cfg, self.flow.pref);
        // Prime the pipeline for one interval so the first observation
        // carries real statistics.
        if let Some(stats) = sim.advance_until_monitor(0) {
            self.flow.push(stats_features(&stats));
        }
        self.sim = Some(sim);
        self.steps = 0;
        self.flow.obs().to_vec()
    }

    fn step(&mut self, action: f32) -> (Vec<f32>, f32, bool) {
        let sim = self.sim.as_mut().expect("reset before step");
        // Eq. 1, bounded by what this episode's link could ever carry.
        let new_rate = self
            .cfg
            .scale_rate(sim.rate(0), action)
            .clamp(1e4, 4.0 * self.capacity_bps);
        sim.set_rate(0, new_rate);
        match sim.advance_until_monitor(0) {
            Some(stats) => {
                let r = Self::reward_of(&self.pref, &stats, self.capacity_bps, self.base_rtt_s);
                self.flow.push(stats_features(&stats));
                self.steps += 1;
                let done = self.steps >= self.cfg.episode_mis;
                (self.flow.obs().to_vec(), r, done)
            }
            None => (self.flow.obs().to_vec(), 0.0, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> MoccConfig {
        MoccConfig {
            episode_mis: 30,
            ..MoccConfig::fast()
        }
    }

    fn fixed_env(pref: Preference) -> MoccEnv {
        let sc = Scenario::single(5e6, 20, 500, 0.0, 60);
        MoccEnv::fixed(test_cfg(), pref, sc, 1)
    }

    #[test]
    fn obs_layout_and_dims() {
        let mut env = fixed_env(Preference::throughput());
        assert_eq!(env.obs_dim(), 33);
        let obs = env.reset();
        assert_eq!(obs.len(), 33);
        // First three entries are the preference.
        assert!((obs[0] - 0.8).abs() < 1e-6);
        assert!((obs[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn aurora_mode_strips_preference() {
        let mut env = fixed_env(Preference::throughput()).without_pref_obs();
        assert_eq!(env.obs_dim(), 30);
        assert_eq!(env.reset().len(), 30);
    }

    #[test]
    fn episode_runs_to_done() {
        let mut env = fixed_env(Preference::balanced());
        let _ = env.reset();
        let mut steps = 0;
        loop {
            let (_, r, done) = env.step(0.5);
            assert!(r.is_finite());
            assert!((0.0..=1.0).contains(&r), "reward {r} out of [0,1]");
            steps += 1;
            if done {
                break;
            }
            assert!(steps < 1000, "episode never terminated");
        }
        assert_eq!(steps, 30);
    }

    #[test]
    fn positive_actions_raise_rate_and_throughput_reward() {
        let mut up = fixed_env(Preference::new(1.0, 0.0, 0.0));
        let _ = up.reset();
        let mut r_up = 0.0;
        for _ in 0..30 {
            let (_, r, done) = up.step(4.0);
            r_up += r;
            if done {
                break;
            }
        }
        let mut down = fixed_env(Preference::new(1.0, 0.0, 0.0));
        let _ = down.reset();
        let mut r_down = 0.0;
        for _ in 0..30 {
            let (_, r, done) = down.step(-4.0);
            r_down += r;
            if done {
                break;
            }
        }
        assert!(
            r_up > r_down + 1.0,
            "ramping up ({r_up}) must beat ramping down ({r_down}) for a throughput preference"
        );
    }

    #[test]
    fn reward_eq2_hand_check() {
        use mocc_netsim::time::SimTime;
        let stats = MonitorStats {
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            pkts_sent: 100,
            pkts_acked: 95,
            pkts_lost: 5,
            throughput_bps: 5e6,
            sending_rate_bps: 6e6,
            mean_rtt: Some(SimDuration::from_millis(50)),
            loss_rate: 0.05,
            send_ratio: 1.05,
            latency_ratio: 1.25,
            latency_gradient: 0.0,
        };
        let w = Preference::new(0.5, 0.3, 0.2);
        // O_thr = 0.5, O_lat = 40/50 = 0.8, O_loss = 0.95.
        let r = MoccEnv::reward_of(&w, &stats, 10e6, 0.040);
        let expect = 0.5 * 0.5 + 0.3 * 0.8 + 0.2 * 0.95;
        assert!((r - expect).abs() < 1e-6, "{r} vs {expect}");
    }

    #[test]
    fn unmeasurable_interval_scores_worst_case() {
        use mocc_netsim::time::SimTime;
        let stats = MonitorStats {
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            pkts_sent: 50,
            pkts_acked: 0,
            pkts_lost: 0,
            throughput_bps: 0.0,
            sending_rate_bps: 1e6,
            mean_rtt: None,
            loss_rate: 0.0,
            send_ratio: 10.0,
            latency_ratio: 1.0,
            latency_gradient: 0.0,
        };
        let w = Preference::new(0.0, 0.5, 0.5);
        assert_eq!(MoccEnv::reward_of(&w, &stats, 10e6, 0.04), 0.0);
    }

    #[test]
    fn preference_switch_changes_reward_weighting() {
        let mut env = fixed_env(Preference::throughput());
        let _ = env.reset();
        env.set_pref(Preference::latency());
        assert_eq!(env.pref(), Preference::latency());
        let obs = env.flow.obs();
        assert!((obs[1] - 0.8).abs() < 1e-6, "latency weight in obs");
    }
}
