//! The congestion-control plug-in interface.
//!
//! Every algorithm evaluated in the paper — the hand-crafted heuristics,
//! the PCC family, Aurora, and MOCC itself — implements
//! [`CongestionControl`]. The simulator invokes the callbacks and then
//! reads the requested pacing rate / congestion window from
//! [`RateControl`]. Both rate-based algorithms (PCC, Aurora, MOCC) and
//! window-based ones (CUBIC, Vegas) fit this interface: a rate-based
//! algorithm leaves `cwnd_pkts` effectively unbounded, a window-based
//! one leaves `pacing_rate_bps` unbounded and lets ACK clocking pace it.

use crate::time::{SimDuration, SimTime};

/// Sending-rate and window limits requested by a congestion controller.
#[derive(Debug, Clone, Copy)]
pub struct RateControl {
    /// Pacing rate in bits per second. `f64::INFINITY` disables pacing.
    pub pacing_rate_bps: f64,
    /// Congestion window in packets. `f64::INFINITY` disables the window.
    pub cwnd_pkts: f64,
}

impl RateControl {
    /// A fully open control (no pacing, no window) — callers must set at
    /// least one limit in `init`.
    pub fn open() -> Self {
        RateControl {
            pacing_rate_bps: f64::INFINITY,
            cwnd_pkts: f64::INFINITY,
        }
    }
}

/// Read-only view of the sender state exposed to controllers.
#[derive(Debug, Clone, Copy)]
pub struct SenderView {
    /// Current simulated time.
    pub now: SimTime,
    /// Maximum segment size in bytes.
    pub mss_bytes: u32,
    /// Minimum RTT observed so far (the best base-RTT estimate).
    pub min_rtt: Option<SimDuration>,
    /// Smoothed RTT in seconds (EWMA, gain 1/8), as the sender keeps
    /// it; [`SenderView::srtt`] puts it on the clock.
    pub srtt_s: Option<f64>,
    /// Packets currently in flight.
    pub inflight_pkts: u64,
    /// Cumulative packets sent.
    pub total_sent: u64,
    /// Cumulative packets acknowledged.
    pub total_acked: u64,
    /// Cumulative packets declared lost.
    pub total_lost: u64,
}

impl SenderView {
    /// The smoothed RTT on the simulator's clock (whole nanoseconds),
    /// converted on demand: most controllers never read it.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt_s.map(SimDuration::from_secs_f64)
    }
}

/// Information delivered with each acknowledgment.
#[derive(Debug, Clone, Copy)]
pub struct AckInfo {
    /// Sequence number of the acknowledged packet.
    pub seq: u64,
    /// Round-trip time sample for this packet.
    pub rtt: SimDuration,
    /// Bytes acknowledged by this ACK.
    pub acked_bytes: u32,
}

/// How a loss was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Inferred from reordering (three later packets acknowledged).
    Reorder,
    /// Inferred from a retransmission-timeout expiry.
    Timeout,
}

/// Information delivered with each loss notification.
#[derive(Debug, Clone, Copy)]
pub struct LossInfo {
    /// Number of packets declared lost in this notification.
    pub lost_pkts: u64,
    /// Detection mechanism.
    pub kind: LossKind,
}

/// Per-monitor-interval statistics, the observation unit of the
/// learning-based algorithms (§4.1 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct MonitorStats {
    /// Interval start time.
    pub start: SimTime,
    /// Interval end time.
    pub end: SimTime,
    /// Packets sent during the interval.
    pub pkts_sent: u64,
    /// Packets acknowledged during the interval.
    pub pkts_acked: u64,
    /// Packets declared lost during the interval.
    pub pkts_lost: u64,
    /// Delivered throughput over the interval, bits per second.
    pub throughput_bps: f64,
    /// Actual sending rate over the interval, bits per second.
    pub sending_rate_bps: f64,
    /// Mean RTT of the ACKs in the interval, if any.
    pub mean_rtt: Option<SimDuration>,
    /// Loss rate: lost / (lost + acked), in [0, 1].
    pub loss_rate: f64,
    /// Send ratio `l_t`: packets sent over packets acknowledged (≥ 0).
    pub send_ratio: f64,
    /// Latency ratio `p_t`: mean RTT over historical minimum RTT (≥ 1).
    pub latency_ratio: f64,
    /// Latency gradient `q_t`: d(RTT)/dt over the interval, dimensionless.
    pub latency_gradient: f64,
}

impl MonitorStats {
    /// Interval length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A congestion-control algorithm driven by simulator callbacks.
///
/// All callbacks receive a [`SenderView`] snapshot and may mutate the
/// [`RateControl`]. Default implementations are no-ops so algorithms
/// implement only the signals they use.
pub trait CongestionControl: Send {
    /// Short human-readable algorithm name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Called once when the flow starts; must establish an initial rate
    /// or window.
    fn init(&mut self, view: &SenderView, ctl: &mut RateControl);

    /// Called for every acknowledgment.
    fn on_ack(&mut self, _view: &SenderView, _ack: &AckInfo, _ctl: &mut RateControl) {}

    /// Called for every loss notification.
    fn on_loss(&mut self, _view: &SenderView, _loss: &LossInfo, _ctl: &mut RateControl) {}

    /// Called at each monitor-interval boundary.
    fn on_monitor(&mut self, _view: &SenderView, _mi: &MonitorStats, _ctl: &mut RateControl) {}
}

/// A fixed-rate controller, useful for tests and as the actuation shim
/// for externally driven agents (the RL training loop sets the rate via
/// [`crate::sim::Simulator::set_rate`]).
#[derive(Debug, Clone)]
pub struct FixedRate {
    /// The constant pacing rate, bits per second.
    pub rate_bps: f64,
}

impl FixedRate {
    /// Creates a fixed-rate controller.
    pub fn new(rate_bps: f64) -> Self {
        FixedRate { rate_bps }
    }
}

impl CongestionControl for FixedRate {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn init(&mut self, _view: &SenderView, ctl: &mut RateControl) {
        ctl.pacing_rate_bps = self.rate_bps;
        ctl.cwnd_pkts = f64::INFINITY;
    }
}

/// An externally driven rate controller: the embedding program (an RL
/// environment) owns the rate decisions and pushes them between events.
/// The controller itself never changes the rate.
#[derive(Debug, Clone)]
pub struct ExternalRate {
    /// Rate applied at flow start, bits per second.
    pub initial_rate_bps: f64,
}

impl CongestionControl for ExternalRate {
    fn name(&self) -> &'static str {
        "external"
    }

    fn init(&mut self, _view: &SenderView, ctl: &mut RateControl) {
        ctl.pacing_rate_bps = self.initial_rate_bps;
        ctl.cwnd_pkts = f64::INFINITY;
    }
}

/// A textbook AIMD (additive-increase, multiplicative-decrease) window
/// controller. Serves as a simple self-test of the ACK/loss plumbing and
/// as a miniature stand-in for Reno-style behaviour in unit tests.
#[derive(Debug, Clone)]
pub struct Aimd {
    cwnd: f64,
    ssthresh: f64,
}

impl Aimd {
    /// Creates an AIMD controller with the conventional initial window.
    pub fn new() -> Self {
        Aimd {
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
        }
    }
}

impl Default for Aimd {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Aimd {
    fn name(&self) -> &'static str {
        "aimd"
    }

    fn init(&mut self, _view: &SenderView, ctl: &mut RateControl) {
        ctl.cwnd_pkts = self.cwnd;
        ctl.pacing_rate_bps = f64::INFINITY;
    }

    fn on_ack(&mut self, _view: &SenderView, _ack: &AckInfo, ctl: &mut RateControl) {
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0; // Slow start.
        } else {
            self.cwnd += 1.0 / self.cwnd; // Congestion avoidance.
        }
        ctl.cwnd_pkts = self.cwnd;
    }

    fn on_loss(&mut self, _view: &SenderView, _loss: &LossInfo, ctl: &mut RateControl) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        ctl.cwnd_pkts = self.cwnd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> SenderView {
        SenderView {
            now: SimTime::ZERO,
            mss_bytes: 1500,
            min_rtt: None,
            srtt_s: None,
            inflight_pkts: 0,
            total_sent: 0,
            total_acked: 0,
            total_lost: 0,
        }
    }

    #[test]
    fn aimd_slow_start_doubles_per_rtt() {
        let mut cc = Aimd::new();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        let start = ctl.cwnd_pkts;
        // One ACK per outstanding packet => window doubles.
        for _ in 0..start as usize {
            cc.on_ack(
                &view(),
                &AckInfo {
                    seq: 0,
                    rtt: SimDuration::from_millis(10),
                    acked_bytes: 1500,
                },
                &mut ctl,
            );
        }
        assert_eq!(ctl.cwnd_pkts, 2.0 * start);
    }

    #[test]
    fn aimd_halves_on_loss() {
        let mut cc = Aimd::new();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        cc.on_loss(
            &view(),
            &LossInfo {
                lost_pkts: 1,
                kind: LossKind::Reorder,
            },
            &mut ctl,
        );
        assert_eq!(ctl.cwnd_pkts, 5.0);
    }

    #[test]
    fn fixed_rate_sets_rate_only() {
        let mut cc = FixedRate::new(5e6);
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        assert_eq!(ctl.pacing_rate_bps, 5e6);
        assert!(ctl.cwnd_pkts.is_infinite());
    }
}
