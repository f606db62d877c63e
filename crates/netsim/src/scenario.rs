//! Experiment scenario descriptions.
//!
//! A [`Scenario`] fully describes one simulation: the bottleneck link,
//! the competing flows, and global knobs such as the maximum segment
//! size. Scenarios for the paper's parameter ranges (Table 3) are
//! provided by [`ScenarioRange`].

use crate::time::{SimDuration, SimTime};
use crate::trace::BandwidthTrace;
use rand::Rng;

/// Description of the shared bottleneck link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Bottleneck bandwidth over time.
    pub trace: BandwidthTrace,
    /// One-way propagation delay (data direction). ACKs take the same
    /// time back, so the base RTT is `2 × one_way_delay` plus
    /// serialization.
    pub one_way_delay: SimDuration,
    /// DropTail queue capacity in packets.
    pub queue_pkts: usize,
    /// Independent random loss probability applied to data packets.
    pub loss_rate: f64,
}

impl LinkSpec {
    /// A constant-rate link.
    pub fn constant(rate_bps: f64, owd: SimDuration, queue_pkts: usize, loss_rate: f64) -> Self {
        LinkSpec {
            trace: BandwidthTrace::constant(rate_bps),
            one_way_delay: owd,
            queue_pkts,
            loss_rate,
        }
    }

    /// Base round-trip time excluding serialization delay.
    pub fn base_rtt(&self) -> SimDuration {
        SimDuration(self.one_way_delay.0 * 2)
    }

    /// The bandwidth-delay product in packets of `mss` bytes, at the
    /// link's maximum rate.
    pub fn bdp_pkts(&self, mss_bytes: u32) -> f64 {
        self.trace.max_rate() * self.base_rtt().as_secs_f64() / (mss_bytes as f64 * 8.0)
    }

    /// The learning agents' deployment monitor-interval convention:
    /// 2 × base RTT clamped to [10 ms, 200 ms]. The single source of
    /// truth shared by the figure harness and the sweep harness, so
    /// learned and heuristic schemes always see the same interval
    /// boundaries.
    pub fn agent_mi(&self) -> SimDuration {
        SimDuration(
            self.base_rtt()
                .0
                .saturating_mul(2)
                .clamp(10_000_000, 200_000_000),
        )
    }
}

/// How a flow's monitor-interval length is chosen.
#[derive(Debug, Clone, Copy)]
pub enum MiMode {
    /// Fixed interval length.
    Fixed(SimDuration),
    /// A multiple of the smoothed RTT, re-evaluated at every tick, with
    /// a floor to avoid degenerate intervals before the first sample.
    RttFraction(f64),
}

impl Default for MiMode {
    fn default() -> Self {
        // Aurora uses monitor intervals on the order of one RTT.
        MiMode::RttFraction(1.0)
    }
}

/// The application traffic pattern driving a flow, declaratively.
///
/// A scenario that names its traffic pattern here is fully
/// self-describing: [`crate::sim::Simulator::new`] instantiates the
/// matching [`crate::app::AppSource`] automatically, so two runs of the
/// same `Scenario` are identical without any post-construction
/// [`crate::sim::Simulator::set_app`] calls. Custom sources (the §6.3
/// video/RTC workloads) still use `set_app`, which overrides this.
#[derive(Debug, Clone, Copy, Default)]
pub enum AppPattern {
    /// Unlimited bulk data (the classic greedy sender).
    #[default]
    Greedy,
    /// On/off cross traffic: `rate_bps` of fluid data during each ON
    /// window of length `on`, nothing during the following OFF window
    /// of length `off`.
    OnOff {
        /// ON window length (must be nonzero).
        on: SimDuration,
        /// OFF window length.
        off: SimDuration,
        /// Production rate during ON windows, bits per second.
        rate_bps: f64,
    },
    /// Closed-loop request-response RPC traffic: a `request_bytes`
    /// message, a `think` pause after it is fully delivered, then the
    /// next request (a datacenter-style workload).
    Rpc {
        /// Bytes per request (must be nonzero).
        request_bytes: u64,
        /// Think time between a completed request and the next one.
        think: SimDuration,
    },
}

/// Description of one flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Time the flow starts sending.
    pub start: SimTime,
    /// Optional time the flow stops sending.
    pub stop: Option<SimTime>,
    /// Extra one-way delay on this flow's access path, letting flows in
    /// a dumbbell differ in base RTT.
    pub extra_owd: SimDuration,
    /// Total bytes to transfer; `None` means an unbounded flow.
    pub bytes_to_send: Option<u64>,
    /// Monitor-interval policy for this flow.
    pub mi: MiMode,
    /// Application traffic pattern for this flow.
    pub app: AppPattern,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec {
            start: SimTime::ZERO,
            stop: None,
            extra_owd: SimDuration::ZERO,
            bytes_to_send: None,
            mi: MiMode::default(),
            app: AppPattern::Greedy,
        }
    }
}

impl FlowSpec {
    /// A flow starting at `start` seconds with default settings.
    pub fn starting_at(start_s: f64) -> Self {
        FlowSpec {
            start: SimTime::from_secs_f64(start_s),
            ..Default::default()
        }
    }

    /// A greedy flow alive over `[start_s, stop_s)` seconds — the
    /// building block for churn scenarios where flows join and leave
    /// mid-run. `stop_s` is clamped to at least `start_s` so a
    /// degenerate window yields a flow that never sends rather than
    /// one that never stops.
    pub fn running(start_s: f64, stop_s: f64) -> Self {
        FlowSpec {
            start: SimTime::from_secs_f64(start_s),
            stop: Some(SimTime::from_secs_f64(stop_s.max(start_s))),
            ..Default::default()
        }
    }

    /// An on/off cross-traffic flow starting at `start_s` seconds with
    /// symmetric `on_s`/`off_s` windows producing at `rate_bps`.
    pub fn on_off_cross(start_s: f64, on_s: f64, off_s: f64, rate_bps: f64) -> Self {
        FlowSpec {
            start: SimTime::from_secs_f64(start_s),
            app: AppPattern::OnOff {
                on: SimDuration::from_secs_f64(on_s),
                off: SimDuration::from_secs_f64(off_s),
                rate_bps,
            },
            ..Default::default()
        }
    }

    /// A closed-loop RPC cross flow starting at `start_s` seconds,
    /// issuing `request_bytes` requests with `think_s` seconds of think
    /// time between completions.
    pub fn rpc_cross(start_s: f64, request_bytes: u64, think_s: f64) -> Self {
        FlowSpec {
            start: SimTime::from_secs_f64(start_s),
            app: AppPattern::Rpc {
                request_bytes,
                think: SimDuration::from_secs_f64(think_s),
            },
            ..Default::default()
        }
    }
}

/// A complete simulation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The shared bottleneck.
    pub link: LinkSpec,
    /// The participating flows (one congestion controller each).
    pub flows: Vec<FlowSpec>,
    /// Maximum segment size in bytes (data packets).
    pub mss_bytes: u32,
    /// Simulation horizon; events after this time are not processed.
    pub duration: SimDuration,
    /// RNG seed for random loss and traces.
    pub seed: u64,
}

impl Scenario {
    /// A single-flow scenario over a constant link — the workhorse setup
    /// for Figs. 5, 6 and the training environment.
    pub fn single(rate_bps: f64, owd_ms: u64, queue_pkts: usize, loss: f64, dur_s: u64) -> Self {
        Scenario {
            link: LinkSpec::constant(rate_bps, SimDuration::from_millis(owd_ms), queue_pkts, loss),
            flows: vec![FlowSpec::default()],
            mss_bytes: 1500,
            duration: SimDuration::from_secs(dur_s),
            seed: 7,
        }
    }

    /// A dumbbell with `n` flows starting `stagger_s` seconds apart —
    /// the fairness setup of Fig. 11.
    pub fn dumbbell(
        rate_bps: f64,
        owd_ms: u64,
        queue_pkts: usize,
        n: usize,
        stagger_s: f64,
        dur_s: u64,
    ) -> Self {
        Scenario {
            link: LinkSpec::constant(rate_bps, SimDuration::from_millis(owd_ms), queue_pkts, 0.0),
            flows: (0..n)
                .map(|i| FlowSpec::starting_at(stagger_s * i as f64))
                .collect(),
            mss_bytes: 1500,
            duration: SimDuration::from_secs(dur_s),
            seed: 7,
        }
    }
}

/// A range of network parameters from which random scenarios are drawn
/// (Table 3 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRange {
    /// Bandwidth range, bits per second.
    pub bandwidth_bps: (f64, f64),
    /// One-way delay range, milliseconds.
    pub owd_ms: (u64, u64),
    /// Queue size range, packets.
    pub queue_pkts: (usize, usize),
    /// Random loss-rate range.
    pub loss: (f64, f64),
}

impl ScenarioRange {
    /// The paper's training ranges: 1–5 Mbps, 10–50 ms, 0–3000 pkts,
    /// 0–3 % loss (Table 3).
    pub fn training() -> Self {
        ScenarioRange {
            bandwidth_bps: (1e6, 5e6),
            owd_ms: (10, 50),
            queue_pkts: (2, 3000),
            loss: (0.0, 0.03),
        }
    }

    /// The paper's testing ranges: 10–50 Mbps, 10–200 ms, 500–5000
    /// pkts, 0–10 % loss (Table 3).
    pub fn testing() -> Self {
        ScenarioRange {
            bandwidth_bps: (10e6, 50e6),
            owd_ms: (10, 200),
            queue_pkts: (500, 5000),
            loss: (0.0, 0.10),
        }
    }

    /// Draws one single-flow scenario uniformly from the range.
    pub fn sample<R: Rng>(&self, rng: &mut R, dur_s: u64) -> Scenario {
        let mut sc = Scenario::single(
            rng.gen_range(self.bandwidth_bps.0..=self.bandwidth_bps.1),
            rng.gen_range(self.owd_ms.0..=self.owd_ms.1),
            rng.gen_range(self.queue_pkts.0..=self.queue_pkts.1),
            rng.gen_range(self.loss.0..=self.loss.1),
            dur_s,
        );
        sc.seed = rng.gen();
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bdp_arithmetic() {
        // 12 Mbps, 40 ms RTT -> BDP = 12e6 * 0.04 / (1500*8) = 40 pkts.
        let link = LinkSpec::constant(12e6, SimDuration::from_millis(20), 100, 0.0);
        assert!((link.bdp_pkts(1500) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn agent_mi_is_twice_base_rtt_clamped() {
        let mi = |owd_ms| {
            LinkSpec::constant(10e6, SimDuration::from_millis(owd_ms), 100, 0.0).agent_mi()
        };
        assert_eq!(mi(20), SimDuration::from_millis(80));
        assert_eq!(mi(1), SimDuration::from_millis(10), "clamped to the floor");
        assert_eq!(mi(200), SimDuration::from_millis(200), "clamped to the cap");
    }

    #[test]
    fn dumbbell_staggers_flows() {
        let sc = Scenario::dumbbell(12e6, 10, 100, 3, 100.0, 400);
        assert_eq!(sc.flows.len(), 3);
        assert_eq!(sc.flows[2].start, SimTime::from_secs(200));
    }

    #[test]
    fn running_flow_clamps_degenerate_windows() {
        let f = FlowSpec::running(3.0, 8.0);
        assert_eq!(f.start, SimTime::from_secs(3));
        assert_eq!(f.stop, Some(SimTime::from_secs(8)));
        let degenerate = FlowSpec::running(5.0, 2.0);
        assert_eq!(degenerate.stop, Some(degenerate.start));
    }

    #[test]
    fn sampled_scenario_within_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = ScenarioRange::training();
        for _ in 0..50 {
            let sc = r.sample(&mut rng, 10);
            let rate = sc.link.trace.max_rate();
            assert!((1e6..=5e6).contains(&rate));
            assert!(sc.link.loss_rate <= 0.03);
            assert!(sc.link.queue_pkts <= 3000);
        }
    }
}
