//! BBR (Cardwell et al., 2016) — the model-based heuristic baseline.
//!
//! BBR maintains explicit estimates of the bottleneck bandwidth
//! (windowed-max of the delivery rate) and the round-trip propagation
//! delay (windowed-min RTT), and paces at `gain × BtlBw` while capping
//! inflight at `2 × BDP`. The implementation is the standard simplified
//! four-state machine: Startup → Drain → ProbeBW (8-phase gain cycle)
//! with periodic ProbeRTT.

use mocc_netsim::cc::{
    AckInfo, CongestionControl, LossInfo, MonitorStats, RateControl, SenderView,
};
use mocc_netsim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Startup/Drain pacing gain (2/ln 2).
const STARTUP_GAIN: f64 = 2.885;
/// ProbeBW gain cycle.
const CYCLE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Bandwidth-filter window, in monitor intervals (≈ rounds).
const BW_WINDOW: usize = 10;
/// How often ProbeRTT triggers.
const PROBE_RTT_INTERVAL: SimDuration = SimDuration(10_000_000_000);
/// ProbeRTT duration.
const PROBE_RTT_TIME: SimDuration = SimDuration(200_000_000);
/// Plateau threshold for leaving Startup (bandwidth growth < 25 %).
const STARTUP_GROWTH: f64 = 1.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// BBR congestion control.
#[derive(Debug, Clone)]
pub struct Bbr {
    state: State,
    /// Recent delivery-rate samples (bps) for the max filter.
    bw_samples: VecDeque<f64>,
    full_bw: f64,
    full_bw_count: u32,
    cycle_index: usize,
    cycle_start: SimTime,
    last_probe_rtt: SimTime,
    probe_rtt_start: SimTime,
    initial_rate_bps: f64,
}

impl Bbr {
    /// A fresh BBR instance in Startup.
    pub fn new() -> Self {
        Bbr {
            state: State::Startup,
            bw_samples: VecDeque::new(),
            full_bw: 0.0,
            full_bw_count: 0,
            cycle_index: 0,
            cycle_start: SimTime::ZERO,
            last_probe_rtt: SimTime::ZERO,
            probe_rtt_start: SimTime::ZERO,
            initial_rate_bps: 1e6,
        }
    }

    /// Max-filtered bottleneck-bandwidth estimate, bps.
    pub fn btl_bw(&self) -> f64 {
        self.bw_samples
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    #[cfg(test)]
    fn state_name(&self) -> State {
        self.state
    }

    fn bdp_pkts(&self, view: &SenderView) -> f64 {
        let rtprop = view
            .min_rtt
            .map(|r| r.as_secs_f64())
            .unwrap_or(0.04)
            .max(1e-4);
        self.btl_bw().max(self.initial_rate_bps) * rtprop / (view.mss_bytes as f64 * 8.0)
    }

    fn apply(&self, view: &SenderView, ctl: &mut RateControl) {
        let bw = self.btl_bw().max(self.initial_rate_bps * 0.1);
        let gain = match self.state {
            State::Startup => STARTUP_GAIN,
            State::Drain => 1.0 / STARTUP_GAIN,
            State::ProbeBw => CYCLE_GAINS[self.cycle_index],
            State::ProbeRtt => 1.0,
        };
        ctl.pacing_rate_bps = (gain * bw).max(self.initial_rate_bps * 0.05);
        ctl.cwnd_pkts = match self.state {
            State::ProbeRtt => 4.0,
            _ => (2.0 * gain.max(1.0) * self.bdp_pkts(view)).max(4.0),
        };
    }
}

impl Default for Bbr {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn init(&mut self, view: &SenderView, ctl: &mut RateControl) {
        self.last_probe_rtt = view.now;
        ctl.pacing_rate_bps = self.initial_rate_bps * STARTUP_GAIN;
        ctl.cwnd_pkts = 10.0;
    }

    fn on_ack(&mut self, _view: &SenderView, _ack: &AckInfo, _ctl: &mut RateControl) {
        // BBR's per-ACK bookkeeping (delivery-rate sampling) happens at
        // monitor granularity in this implementation.
    }

    fn on_loss(&mut self, _view: &SenderView, _loss: &LossInfo, _ctl: &mut RateControl) {
        // BBR deliberately does not react to individual losses.
    }

    fn on_monitor(&mut self, view: &SenderView, mi: &MonitorStats, ctl: &mut RateControl) {
        // Delivery-rate sample into the max filter.
        if mi.throughput_bps > 0.0 {
            self.bw_samples.push_back(mi.throughput_bps);
            if self.bw_samples.len() > BW_WINDOW {
                self.bw_samples.pop_front();
            }
        }
        match self.state {
            State::Startup => {
                let bw = self.btl_bw();
                if bw > self.full_bw * STARTUP_GROWTH {
                    self.full_bw = bw;
                    self.full_bw_count = 0;
                } else if bw > 0.0 {
                    self.full_bw_count += 1;
                    if self.full_bw_count >= 3 {
                        self.state = State::Drain;
                    }
                }
            }
            State::Drain => {
                let bdp = self.bdp_pkts(view);
                if (view.inflight_pkts as f64) <= bdp {
                    self.state = State::ProbeBw;
                    self.cycle_index = 0;
                    self.cycle_start = view.now;
                }
            }
            State::ProbeBw => {
                let phase_len = view
                    .min_rtt
                    .unwrap_or(SimDuration::from_millis(40))
                    .max(SimDuration::from_millis(10));
                if view.now - self.cycle_start >= phase_len {
                    self.cycle_index = (self.cycle_index + 1) % CYCLE_GAINS.len();
                    self.cycle_start = view.now;
                }
                if view.now - self.last_probe_rtt >= PROBE_RTT_INTERVAL {
                    self.state = State::ProbeRtt;
                    self.probe_rtt_start = view.now;
                }
            }
            State::ProbeRtt => {
                if view.now - self.probe_rtt_start >= PROBE_RTT_TIME {
                    self.last_probe_rtt = view.now;
                    self.state = State::ProbeBw;
                    self.cycle_index = 0;
                    self.cycle_start = view.now;
                }
            }
        }
        self.apply(view, ctl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_at(now_s: f64, inflight: u64, min_rtt_ms: u64) -> SenderView {
        SenderView {
            now: SimTime::from_secs_f64(now_s),
            mss_bytes: 1500,
            min_rtt: Some(SimDuration::from_millis(min_rtt_ms)),
            srtt_s: Some(min_rtt_ms as f64 / 1e3),
            inflight_pkts: inflight,
            total_sent: 0,
            total_acked: 0,
            total_lost: 0,
        }
    }

    fn mi(thr_bps: f64, t0: f64, t1: f64) -> MonitorStats {
        MonitorStats {
            start: SimTime::from_secs_f64(t0),
            end: SimTime::from_secs_f64(t1),
            pkts_sent: 100,
            pkts_acked: 100,
            pkts_lost: 0,
            throughput_bps: thr_bps,
            sending_rate_bps: thr_bps,
            mean_rtt: Some(SimDuration::from_millis(20)),
            loss_rate: 0.0,
            send_ratio: 1.0,
            latency_ratio: 1.0,
            latency_gradient: 0.0,
        }
    }

    #[test]
    fn startup_exits_on_bandwidth_plateau() {
        let mut cc = Bbr::new();
        let mut ctl = RateControl::open();
        cc.init(&view_at(0.0, 0, 20), &mut ctl);
        assert_eq!(cc.state_name(), State::Startup);
        // Growing bandwidth: stay in startup.
        cc.on_monitor(&view_at(0.1, 50, 20), &mi(1e6, 0.0, 0.1), &mut ctl);
        cc.on_monitor(&view_at(0.2, 50, 20), &mi(2e6, 0.1, 0.2), &mut ctl);
        assert_eq!(cc.state_name(), State::Startup);
        // Plateau for three rounds: drain.
        for i in 0..3 {
            let t = 0.3 + 0.1 * i as f64;
            cc.on_monitor(&view_at(t, 50, 20), &mi(2.05e6, t - 0.1, t), &mut ctl);
        }
        assert_eq!(cc.state_name(), State::Drain);
    }

    #[test]
    fn drain_enters_probe_bw_when_inflight_below_bdp() {
        let mut cc = Bbr::new();
        let mut ctl = RateControl::open();
        cc.init(&view_at(0.0, 0, 20), &mut ctl);
        cc.state = State::Drain;
        cc.bw_samples.push_back(10e6);
        // BDP = 10e6 * 0.02 / 12000 ≈ 16.7 pkts; inflight 10 < BDP.
        cc.on_monitor(&view_at(1.0, 10, 20), &mi(10e6, 0.9, 1.0), &mut ctl);
        assert_eq!(cc.state_name(), State::ProbeBw);
    }

    #[test]
    fn probe_bw_cycles_gains() {
        let mut cc = Bbr::new();
        let mut ctl = RateControl::open();
        cc.init(&view_at(0.0, 0, 20), &mut ctl);
        cc.state = State::ProbeBw;
        cc.bw_samples.push_back(10e6);
        cc.cycle_start = SimTime::ZERO;
        let start = cc.cycle_index;
        // One phase length (≥ min RTT) later the gain index advances.
        cc.on_monitor(&view_at(0.05, 20, 20), &mi(10e6, 0.0, 0.05), &mut ctl);
        assert_eq!(cc.cycle_index, (start + 1) % CYCLE_GAINS.len());
    }

    #[test]
    fn pacing_rate_tracks_btlbw() {
        let mut cc = Bbr::new();
        let mut ctl = RateControl::open();
        cc.init(&view_at(0.0, 0, 20), &mut ctl);
        cc.state = State::ProbeBw;
        cc.cycle_index = 2; // gain 1.0
        cc.bw_samples.push_back(8e6);
        cc.on_monitor(&view_at(0.01, 20, 20), &mi(8e6, 0.0, 0.01), &mut ctl);
        // Gain may have cycled to index 3 (still 1.0).
        assert!(
            (ctl.pacing_rate_bps - 8e6).abs() / 8e6 < 0.01,
            "pacing {}",
            ctl.pacing_rate_bps
        );
    }

    #[test]
    fn probe_rtt_caps_window() {
        let mut cc = Bbr::new();
        let mut ctl = RateControl::open();
        cc.init(&view_at(0.0, 0, 20), &mut ctl);
        cc.state = State::ProbeRtt;
        cc.probe_rtt_start = SimTime::from_secs_f64(100.0);
        cc.on_monitor(&view_at(100.05, 20, 20), &mi(8e6, 100.0, 100.05), &mut ctl);
        assert_eq!(ctl.cwnd_pkts, 4.0);
        // After 200 ms it returns to ProbeBW.
        cc.on_monitor(&view_at(100.30, 4, 20), &mi(1e6, 100.05, 100.30), &mut ctl);
        assert_eq!(cc.state_name(), State::ProbeBw);
    }
}
