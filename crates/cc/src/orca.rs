//! OrcaLike — a qualitative stand-in for Orca (SIGCOMM'20).
//!
//! Orca couples classic CUBIC with a coarse-grained learned controller
//! that periodically rescales the congestion window toward a
//! throughput-oriented objective, keeping CPU overhead low because the
//! learned part runs far less often than per-ACK processing. We
//! reproduce that architecture: an inner [`Cubic`] provides fine-grained
//! per-ACK dynamics, and a monitor-interval policy (distilled to the
//! decision rules an RL agent trained for high throughput converges to:
//! scale up while the path is underutilized and clean, scale down when
//! queueing or loss appears) applies a multiplicative correction on top.
//! DESIGN.md documents this substitution; we do not claim bit-for-bit
//! Orca.

use crate::cubic::Cubic;
use mocc_netsim::cc::{
    AckInfo, CongestionControl, LossInfo, MonitorStats, RateControl, SenderView,
};

/// Correction bounds: the learned layer may scale CUBIC's window within
/// this range (Orca's action space is similarly bounded).
const MIN_SCALE: f64 = 0.5;
const MAX_SCALE: f64 = 3.0;
/// Latency-ratio threshold below which the path is considered clean.
const CLEAN_LATENCY: f64 = 1.25;
/// Latency-ratio threshold above which the queue is considered deep.
const DEEP_LATENCY: f64 = 1.6;

/// Orca-style hybrid: CUBIC inner loop plus a coarse learned rescaler.
#[derive(Debug, Clone)]
pub struct OrcaLike {
    inner: Cubic,
    inner_ctl: RateControl,
    scale: f64,
}

impl OrcaLike {
    /// A fresh OrcaLike instance.
    pub fn new() -> Self {
        OrcaLike {
            inner: Cubic::new(),
            inner_ctl: RateControl::open(),
            scale: 1.0,
        }
    }

    /// The current learned scale factor applied to CUBIC's window.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    fn apply(&self, ctl: &mut RateControl) {
        ctl.cwnd_pkts = (self.inner_ctl.cwnd_pkts * self.scale).max(2.0);
        ctl.pacing_rate_bps = f64::INFINITY;
    }
}

impl Default for OrcaLike {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for OrcaLike {
    fn name(&self) -> &'static str {
        "orca"
    }

    fn init(&mut self, view: &SenderView, ctl: &mut RateControl) {
        self.inner.init(view, &mut self.inner_ctl);
        self.apply(ctl);
    }

    fn on_ack(&mut self, view: &SenderView, ack: &AckInfo, ctl: &mut RateControl) {
        self.inner.on_ack(view, ack, &mut self.inner_ctl);
        self.apply(ctl);
    }

    fn on_loss(&mut self, view: &SenderView, loss: &LossInfo, ctl: &mut RateControl) {
        self.inner.on_loss(view, loss, &mut self.inner_ctl);
        self.apply(ctl);
    }

    fn on_monitor(&mut self, _view: &SenderView, mi: &MonitorStats, ctl: &mut RateControl) {
        // The coarse "learned" correction, evaluated once per interval.
        if mi.loss_rate < 0.01 && mi.latency_ratio < CLEAN_LATENCY {
            self.scale = (self.scale * 1.15).min(MAX_SCALE);
        } else if mi.loss_rate > 0.02 || mi.latency_ratio > DEEP_LATENCY {
            self.scale = (self.scale * 0.85).max(MIN_SCALE);
        }
        self.apply(ctl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_netsim::time::{SimDuration, SimTime};

    fn view() -> SenderView {
        SenderView {
            now: SimTime::from_secs(1),
            mss_bytes: 1500,
            min_rtt: Some(SimDuration::from_millis(20)),
            srtt_s: Some(0.022),
            inflight_pkts: 10,
            total_sent: 100,
            total_acked: 90,
            total_lost: 0,
        }
    }

    fn mi(loss: f64, latency_ratio: f64) -> MonitorStats {
        MonitorStats {
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            pkts_sent: 100,
            pkts_acked: 100,
            pkts_lost: 0,
            throughput_bps: 5e6,
            sending_rate_bps: 5e6,
            mean_rtt: Some(SimDuration::from_millis(22)),
            loss_rate: loss,
            send_ratio: 1.0,
            latency_ratio,
            latency_gradient: 0.0,
        }
    }

    #[test]
    fn scale_grows_on_clean_path() {
        let mut cc = OrcaLike::new();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        for _ in 0..20 {
            cc.on_monitor(&view(), &mi(0.0, 1.0), &mut ctl);
        }
        assert!((cc.scale() - MAX_SCALE).abs() < 1e-9);
    }

    #[test]
    fn scale_shrinks_under_loss() {
        let mut cc = OrcaLike::new();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        cc.scale = 2.0;
        for _ in 0..30 {
            cc.on_monitor(&view(), &mi(0.05, 1.8), &mut ctl);
        }
        assert!((cc.scale() - MIN_SCALE).abs() < 1e-9);
    }

    #[test]
    fn window_is_cubic_times_scale() {
        let mut cc = OrcaLike::new();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        cc.on_monitor(&view(), &mi(0.0, 1.0), &mut ctl);
        let expected = cc.inner_ctl.cwnd_pkts * cc.scale();
        assert!((ctl.cwnd_pkts - expected).abs() < 1e-9);
    }

    #[test]
    fn neutral_region_holds_scale() {
        let mut cc = OrcaLike::new();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        cc.scale = 1.5;
        // loss 1.5 % and latency ratio 1.4: neither clean nor deep.
        cc.on_monitor(&view(), &mi(0.015, 1.4), &mut ctl);
        assert_eq!(cc.scale(), 1.5);
    }
}
