//! TCP Vegas (Brakmo & Peterson, 1994) — the delay-based heuristic
//! baseline.
//!
//! Vegas estimates the number of packets queued at the bottleneck as
//! `diff = cwnd · (1 − baseRTT / RTT)` and steers the window so that
//! `diff` stays between `α` and `β` packets, backing off *before*
//! loss occurs.

use mocc_netsim::cc::{AckInfo, CongestionControl, LossInfo, RateControl, SenderView};

/// Lower bound on queued packets before increasing.
const ALPHA: f64 = 2.0;
/// Upper bound on queued packets before decreasing.
const BETA: f64 = 4.0;
/// Slow-start exit threshold on queued packets.
const GAMMA: f64 = 1.0;
/// Initial congestion window, packets.
const INIT_CWND: f64 = 10.0;

/// TCP Vegas congestion control.
#[derive(Debug, Clone)]
pub struct Vegas {
    cwnd: f64,
    in_slow_start: bool,
    acks_this_rtt: f64,
    last_cut: Option<mocc_netsim::time::SimTime>,
}

impl Vegas {
    /// A fresh Vegas instance in slow start.
    pub fn new() -> Self {
        Vegas {
            cwnd: INIT_CWND,
            in_slow_start: true,
            acks_this_rtt: 0.0,
            last_cut: None,
        }
    }

    /// Current congestion window (packets).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }
}

impl Default for Vegas {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Vegas {
    fn name(&self) -> &'static str {
        "vegas"
    }

    fn init(&mut self, _view: &SenderView, ctl: &mut RateControl) {
        ctl.cwnd_pkts = self.cwnd;
        ctl.pacing_rate_bps = f64::INFINITY;
    }

    fn on_ack(&mut self, view: &SenderView, ack: &AckInfo, ctl: &mut RateControl) {
        let base = match view.min_rtt {
            Some(b) => b.as_secs_f64(),
            None => {
                ctl.cwnd_pkts = self.cwnd;
                return;
            }
        };
        let rtt = ack.rtt.as_secs_f64().max(base);
        // Expected minus actual throughput, in packets queued.
        let diff = self.cwnd * (1.0 - base / rtt);
        if self.in_slow_start {
            if diff > GAMMA {
                self.in_slow_start = false;
            } else {
                // Vegas doubles every *other* RTT; approximate with
                // half-rate slow start.
                self.cwnd += 0.5;
            }
        }
        if !self.in_slow_start {
            // Linear adjustment once per RTT, spread across ACKs.
            if diff < ALPHA {
                self.cwnd += 1.0 / self.cwnd;
            } else if diff > BETA {
                self.cwnd -= 1.0 / self.cwnd;
            }
            self.acks_this_rtt += 1.0;
        }
        self.cwnd = self.cwnd.max(2.0);
        ctl.cwnd_pkts = self.cwnd;
    }

    fn on_loss(&mut self, view: &SenderView, _loss: &LossInfo, ctl: &mut RateControl) {
        // React at most once per RTT (one congestion event per window).
        if let (Some(cut), Some(srtt)) = (self.last_cut, view.srtt()) {
            if view.now - cut < srtt {
                return;
            }
        }
        self.last_cut = Some(view.now);
        // Vegas falls back to Reno-style halving on actual loss.
        self.cwnd = (self.cwnd / 2.0).max(2.0);
        self.in_slow_start = false;
        ctl.cwnd_pkts = self.cwnd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_netsim::cc::LossKind;
    use mocc_netsim::time::{SimDuration, SimTime};

    fn view(min_rtt_ms: u64) -> SenderView {
        SenderView {
            now: SimTime::from_secs(1),
            mss_bytes: 1500,
            min_rtt: Some(SimDuration::from_millis(min_rtt_ms)),
            srtt_s: Some(min_rtt_ms as f64 / 1e3),
            inflight_pkts: 10,
            total_sent: 100,
            total_acked: 90,
            total_lost: 0,
        }
    }

    fn ack_with_rtt(ms: f64) -> AckInfo {
        AckInfo {
            seq: 0,
            rtt: SimDuration::from_secs_f64(ms / 1e3),
            acked_bytes: 1500,
        }
    }

    #[test]
    fn grows_when_no_queueing() {
        let mut cc = Vegas::new();
        let mut ctl = RateControl::open();
        cc.init(&view(20), &mut ctl);
        let before = cc.cwnd();
        // RTT equals base RTT: diff = 0 < α ⇒ grow.
        for _ in 0..20 {
            cc.on_ack(&view(20), &ack_with_rtt(20.0), &mut ctl);
        }
        assert!(cc.cwnd() > before);
    }

    #[test]
    fn backs_off_when_queue_builds() {
        let mut cc = Vegas::new();
        let mut ctl = RateControl::open();
        cc.init(&view(20), &mut ctl);
        cc.in_slow_start = false;
        cc.cwnd = 50.0;
        // RTT 2× base: diff = 50·(1 − 0.5) = 25 > β ⇒ shrink.
        for _ in 0..30 {
            cc.on_ack(&view(20), &ack_with_rtt(40.0), &mut ctl);
        }
        assert!(cc.cwnd() < 50.0, "cwnd {}", cc.cwnd());
    }

    #[test]
    fn equilibrium_between_alpha_and_beta() {
        let mut cc = Vegas::new();
        let mut ctl = RateControl::open();
        cc.init(&view(20), &mut ctl);
        cc.in_slow_start = false;
        cc.cwnd = 30.0;
        // diff = 30·(1 − 20/22) ≈ 2.7, inside [α, β] ⇒ hold.
        let before = cc.cwnd();
        for _ in 0..50 {
            cc.on_ack(&view(20), &ack_with_rtt(22.0), &mut ctl);
        }
        assert!((cc.cwnd() - before).abs() < 0.5, "cwnd {}", cc.cwnd());
    }

    #[test]
    fn loss_halves_window() {
        let mut cc = Vegas::new();
        let mut ctl = RateControl::open();
        cc.init(&view(20), &mut ctl);
        cc.cwnd = 40.0;
        cc.on_loss(
            &view(20),
            &LossInfo {
                lost_pkts: 1,
                kind: LossKind::Timeout,
            },
            &mut ctl,
        );
        assert_eq!(cc.cwnd(), 20.0);
    }

    #[test]
    fn exits_slow_start_on_queueing() {
        let mut cc = Vegas::new();
        let mut ctl = RateControl::open();
        cc.init(&view(20), &mut ctl);
        cc.cwnd = 40.0;
        assert!(cc.in_slow_start);
        // diff = 40·(1 − 20/30) ≈ 13 > γ ⇒ exit slow start.
        cc.on_ack(&view(20), &ack_with_rtt(30.0), &mut ctl);
        assert!(!cc.in_slow_start);
    }
}
