//! The portable MOCC library facade (§5).
//!
//! The paper packages MOCC behind three functions so any datapath (UDT
//! user-space, CCP kernel-space, or this repository's simulator) can
//! embed it:
//!
//! - `Register(w)` — declare the application's preference,
//! - `ReportStatus(s_t)` — feed the latest network statistics,
//! - `GetSendingRate()` — read back the rate for the next interval.

use crate::agent::{ratio_features, MoccAgent, PolicyFlow};
use crate::config::MoccConfig;
use crate::preference::Preference;
use crate::prefnet::PrefNet;
use mocc_rl::GaussianPolicy;
use serde::{Deserialize, Serialize};

/// One interval's network status, as reported by the datapath.
/// Mirrors the state statistics of §4.1.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetStatus {
    /// Send ratio `l_t`: packets sent over packets acknowledged.
    pub send_ratio: f64,
    /// Latency ratio `p_t`: interval mean RTT over historical min RTT.
    pub latency_ratio: f64,
    /// Latency gradient `q_t`: d(RTT)/dt.
    pub latency_gradient: f64,
}

/// Errors from the library facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoccLibError {
    /// `report_status`/`get_sending_rate` before `register`.
    NotRegistered,
}

impl std::fmt::Display for MoccLibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoccLibError::NotRegistered => {
                write!(f, "no application registered; call register(w) first")
            }
        }
    }
}

impl std::error::Error for MoccLibError {}

/// The plug-and-play MOCC library.
pub struct MoccLib {
    policy: GaussianPolicy<PrefNet>,
    cfg: MoccConfig,
    /// The registered application's flow; `None` before `register`.
    flow: Option<PolicyFlow>,
    rate_bps: f64,
}

impl MoccLib {
    /// Builds the library around a trained agent, starting at
    /// `initial_rate_bps`.
    pub fn new(agent: &MoccAgent, initial_rate_bps: f64) -> Self {
        MoccLib {
            policy: agent.ppo.policy.clone(),
            cfg: agent.cfg,
            flow: None,
            rate_bps: initial_rate_bps,
        }
    }

    /// `Register(w)`: declares the application's requirement and
    /// starts from an empty history.
    pub fn register(&mut self, w: Preference) {
        self.flow = Some(PolicyFlow::new(&self.cfg, Some(w)));
    }

    /// `ReportStatus(s_t)`: feeds the latest interval statistics and
    /// advances the rate decision.
    pub fn report_status(&mut self, s: NetStatus) -> Result<(), MoccLibError> {
        let flow = self.flow.as_mut().ok_or(MoccLibError::NotRegistered)?;
        let features = ratio_features(s.send_ratio, s.latency_ratio, s.latency_gradient);
        let policy = &self.policy;
        self.rate_bps = flow.decide(&self.cfg, features, self.rate_bps, |obs| {
            policy.mean_action(obs)
        });
        Ok(())
    }

    /// `GetSendingRate()`: the rate (bits per second) for the next
    /// interval.
    pub fn get_sending_rate(&self) -> Result<f64, MoccLibError> {
        if self.flow.is_none() {
            return Err(MoccLibError::NotRegistered);
        }
        Ok(self.rate_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lib() -> MoccLib {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        MoccLib::new(&agent, 2e6)
    }

    fn status() -> NetStatus {
        NetStatus {
            send_ratio: 1.1,
            latency_ratio: 1.2,
            latency_gradient: 0.0,
        }
    }

    #[test]
    fn requires_registration() {
        let mut l = lib();
        assert_eq!(
            l.report_status(status()).unwrap_err(),
            MoccLibError::NotRegistered
        );
        assert!(l.get_sending_rate().is_err());
    }

    #[test]
    fn register_report_get_roundtrip() {
        let mut l = lib();
        l.register(Preference::throughput());
        assert_eq!(l.get_sending_rate().unwrap(), 2e6);
        l.report_status(status()).unwrap();
        let r = l.get_sending_rate().unwrap();
        assert!(r > 0.0 && r.is_finite());
        // Rate moved by at most the Eq. 1 bound (α × clip = 12.5 %).
        assert!(r / 2e6 < 1.2 && r / 2e6 > 0.8, "rate {r}");
    }

    /// The §5 library and the in-simulator adapter are one controller:
    /// fed the monitor intervals a `PolicyCc::mocc` flow sees, `MoccLib`
    /// reports bit-identical rates at every interval.
    #[test]
    fn library_tracks_the_simulator_adapter_bit_for_bit() {
        use crate::adapter::PolicyCc;
        use mocc_netsim::{Processed, Scenario, Simulator};

        let mut rng = StdRng::seed_from_u64(3);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let pref = Preference::latency();
        let mut lib = MoccLib::new(&agent, 1e6);
        lib.register(pref);
        let sc = Scenario::single(5e6, 20, 100, 0.01, 10);
        let mut sim = Simulator::new(sc, vec![Box::new(PolicyCc::mocc(&agent, pref, 1e6))]);
        let mut intervals = 0;
        while let Some(event) = sim.process_next() {
            let Processed::Monitor(flow, mi) = event else {
                continue;
            };
            lib.report_status(NetStatus {
                send_ratio: mi.send_ratio,
                latency_ratio: mi.latency_ratio,
                latency_gradient: mi.latency_gradient,
            })
            .unwrap();
            let (lib_rate, sim_rate) = (lib.get_sending_rate().unwrap(), sim.rate(flow));
            assert_eq!(
                lib_rate.to_bits(),
                sim_rate.to_bits(),
                "interval {intervals}: library {lib_rate} vs adapter {sim_rate}"
            );
            intervals += 1;
        }
        assert!(intervals > 100, "only {intervals} monitor intervals");
    }

    #[test]
    fn reregistration_resets_history() {
        let mut l = lib();
        l.register(Preference::throughput());
        for _ in 0..5 {
            l.report_status(status()).unwrap();
        }
        l.register(Preference::latency());
        // History cleared; next decision comes from fresh state.
        l.report_status(status()).unwrap();
        assert!(l.get_sending_rate().is_ok());
    }
}
