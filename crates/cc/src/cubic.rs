//! TCP CUBIC (Ha, Rhee, Xu, 2008) — the loss-based heuristic baseline.
//!
//! Window growth follows the cubic function
//! `W(t) = C·(t − K)³ + W_max` with `K = ∛(W_max·β/C)`, where `t` is
//! the time since the last congestion event. On loss the window is
//! reduced multiplicatively by `β_cubic = 0.7`.

use mocc_netsim::cc::{AckInfo, CongestionControl, LossInfo, RateControl, SenderView};
use mocc_netsim::time::SimTime;

/// CUBIC's aggressiveness constant.
const C: f64 = 0.4;
/// Multiplicative-decrease factor (window keeps 70 % on loss).
const BETA: f64 = 0.7;
/// Initial congestion window, packets.
const INIT_CWND: f64 = 10.0;

/// TCP CUBIC congestion control.
#[derive(Debug, Clone)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    w_max: f64,
    epoch_start: Option<SimTime>,
    k: f64,
    last_cut: Option<SimTime>,
}

impl Cubic {
    /// A fresh CUBIC instance in slow start.
    pub fn new() -> Self {
        Cubic {
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            last_cut: None,
        }
    }

    /// Current congestion window (packets), exposed for tests.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// The cubic window target at `t` seconds into the current epoch.
    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn init(&mut self, _view: &SenderView, ctl: &mut RateControl) {
        ctl.cwnd_pkts = self.cwnd;
        ctl.pacing_rate_bps = f64::INFINITY;
    }

    fn on_ack(&mut self, view: &SenderView, _ack: &AckInfo, ctl: &mut RateControl) {
        if self.cwnd < self.ssthresh {
            // Slow start: one packet per ACK.
            self.cwnd += 1.0;
        } else {
            let epoch = *self.epoch_start.get_or_insert_with(|| {
                // New congestion-avoidance epoch: compute K from the
                // pre-loss maximum.
                if self.w_max < self.cwnd {
                    self.w_max = self.cwnd;
                }
                self.k = ((self.w_max * (1.0 - BETA)) / C).cbrt();
                view.now
            });
            let t = (view.now - epoch).as_secs_f64();
            // TCP-friendly region (RFC 8312 §4.2): never grow slower
            // than an AIMD flow with the same loss response.
            let rtt = view.srtt().map_or(0.04, |r| r.as_secs_f64()).max(1e-4);
            let w_tcp = self.w_max * BETA + 3.0 * (1.0 - BETA) / (1.0 + BETA) * (t / rtt);
            let target = self.w_cubic(t).max(w_tcp);
            if target > self.cwnd {
                // Converge toward the cubic target within one RTT.
                self.cwnd += (target - self.cwnd) / self.cwnd;
            } else {
                // Minimal growth in the TCP-friendly plateau.
                self.cwnd += 0.01 / self.cwnd;
            }
        }
        ctl.cwnd_pkts = self.cwnd;
    }

    fn on_loss(&mut self, view: &SenderView, _loss: &LossInfo, ctl: &mut RateControl) {
        // React at most once per RTT: losses inside one window belong to
        // the same congestion event (TCP's fast-recovery behaviour).
        if let (Some(cut), Some(srtt)) = (self.last_cut, view.srtt()) {
            if view.now - cut < srtt {
                return;
            }
        }
        self.last_cut = Some(view.now);
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * BETA).max(2.0);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        self.k = ((self.w_max * (1.0 - BETA)) / C).cbrt();
        ctl.cwnd_pkts = self.cwnd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_netsim::cc::LossKind;
    use mocc_netsim::time::SimDuration;

    fn view_at(now_s: f64) -> SenderView {
        SenderView {
            now: SimTime::from_secs_f64(now_s),
            mss_bytes: 1500,
            min_rtt: Some(SimDuration::from_millis(20)),
            srtt_s: Some(0.025),
            inflight_pkts: 10,
            total_sent: 100,
            total_acked: 90,
            total_lost: 0,
        }
    }

    fn ack() -> AckInfo {
        AckInfo {
            seq: 0,
            rtt: SimDuration::from_millis(25),
            acked_bytes: 1500,
        }
    }

    fn loss() -> LossInfo {
        LossInfo {
            lost_pkts: 1,
            kind: LossKind::Reorder,
        }
    }

    #[test]
    fn slow_start_then_multiplicative_decrease() {
        let mut cc = Cubic::new();
        let mut ctl = RateControl::open();
        cc.init(&view_at(0.0), &mut ctl);
        for _ in 0..20 {
            cc.on_ack(&view_at(0.1), &ack(), &mut ctl);
        }
        assert_eq!(cc.cwnd(), 30.0, "slow start adds 1 per ACK");
        cc.on_loss(&view_at(0.2), &loss(), &mut ctl);
        assert!((cc.cwnd() - 21.0).abs() < 1e-9, "β = 0.7 decrease");
        assert_eq!(ctl.cwnd_pkts, cc.cwnd());
    }

    #[test]
    fn cubic_growth_recovers_toward_wmax() {
        let mut cc = Cubic::new();
        let mut ctl = RateControl::open();
        cc.init(&view_at(0.0), &mut ctl);
        // Grow then lose to leave slow start with w_max = 50.
        for _ in 0..40 {
            cc.on_ack(&view_at(0.1), &ack(), &mut ctl);
        }
        cc.on_loss(&view_at(0.2), &loss(), &mut ctl);
        let after_loss = cc.cwnd();
        // ACK stream over the next seconds: window should climb back
        // toward w_max (the plateau of the cubic curve).
        let mut t = 0.25;
        for _ in 0..400 {
            cc.on_ack(&view_at(t), &ack(), &mut ctl);
            t += 0.01;
        }
        assert!(cc.cwnd() > after_loss, "window grew after loss");
        assert!(
            cc.cwnd() > 40.0,
            "window {} should recover to the w_max region (50)",
            cc.cwnd()
        );
    }

    #[test]
    fn k_formula() {
        // K = cbrt(w_max * (1-β) / C) for w_max = 100:
        // cbrt(100 * 0.3 / 0.4) = cbrt(75) ≈ 4.217.
        let mut cc = Cubic::new();
        let mut ctl = RateControl::open();
        cc.init(&view_at(0.0), &mut ctl);
        cc.cwnd = 100.0;
        cc.on_loss(&view_at(1.0), &loss(), &mut ctl);
        assert!((cc.k - 75.0f64.cbrt()).abs() < 1e-9);
    }

    #[test]
    fn window_never_below_two() {
        let mut cc = Cubic::new();
        let mut ctl = RateControl::open();
        cc.init(&view_at(0.0), &mut ctl);
        for _ in 0..50 {
            cc.on_loss(&view_at(0.1), &loss(), &mut ctl);
        }
        assert!(cc.cwnd() >= 2.0);
    }
}
