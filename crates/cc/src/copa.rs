//! Copa (Arun & Balakrishnan, 2018) — the delay-based model baseline.
//!
//! Copa steers its congestion window so that the sending rate tracks
//! the target `λ* = 1 / (δ · d_q)` packets per second, where `d_q` is
//! the measured queueing delay (RTTstanding − RTTmin). The window moves
//! by `v / (δ · cwnd)` per ACK, with the velocity `v` doubling while
//! the direction is stable.

use mocc_netsim::cc::{AckInfo, CongestionControl, LossInfo, RateControl, SenderView};

/// The default-mode delta (1/δ packets of standing queue tolerated).
const DELTA: f64 = 0.5;
/// Initial congestion window, packets.
const INIT_CWND: f64 = 10.0;
/// Velocity cap to avoid runaway doubling.
const MAX_VELOCITY: f64 = 32.0;

/// Copa congestion control (default mode, fixed δ).
#[derive(Debug, Clone)]
pub struct Copa {
    cwnd: f64,
    velocity: f64,
    last_direction: i8,
    direction_streak: u32,
    last_cut: Option<mocc_netsim::time::SimTime>,
}

impl Copa {
    /// A fresh Copa instance.
    pub fn new() -> Self {
        Copa {
            cwnd: INIT_CWND,
            velocity: 1.0,
            last_direction: 0,
            direction_streak: 0,
            last_cut: None,
        }
    }

    /// Current congestion window (packets).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }
}

impl Default for Copa {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Copa {
    fn name(&self) -> &'static str {
        "copa"
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
        let dq = (rtt - base).max(1e-5); // Queueing delay, seconds.
        let target_rate = 1.0 / (DELTA * dq); // Packets per second.
        let current_rate = self.cwnd / rtt;
        let direction: i8 = if current_rate < target_rate { 1 } else { -1 };
        // Velocity doubles after a full window of consistent direction.
        if direction == self.last_direction {
            self.direction_streak += 1;
            if self.direction_streak as f64 >= self.cwnd {
                self.velocity = (self.velocity * 2.0).min(MAX_VELOCITY);
                self.direction_streak = 0;
            }
        } else {
            self.velocity = 1.0;
            self.direction_streak = 0;
            self.last_direction = direction;
        }
        let step = self.velocity / (DELTA * self.cwnd);
        self.cwnd = (self.cwnd + direction as f64 * step).max(2.0);
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
        // Copa reacts mildly to loss (it is delay-driven); halve once.
        self.cwnd = (self.cwnd / 2.0).max(2.0);
        self.velocity = 1.0;
        self.direction_streak = 0;
        ctl.cwnd_pkts = self.cwnd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_netsim::time::{SimDuration, SimTime};

    fn view(min_rtt_ms: u64) -> SenderView {
        SenderView {
            now: SimTime::from_secs(1),
            mss_bytes: 1500,
            min_rtt: Some(SimDuration::from_millis(min_rtt_ms)),
            srtt_s: Some(min_rtt_ms as f64 / 1e3),
            inflight_pkts: 10,
            total_sent: 0,
            total_acked: 0,
            total_lost: 0,
        }
    }

    fn ack_ms(ms: f64) -> AckInfo {
        AckInfo {
            seq: 0,
            rtt: SimDuration::from_secs_f64(ms / 1e3),
            acked_bytes: 1500,
        }
    }

    #[test]
    fn grows_when_below_target() {
        // Tiny queueing delay ⇒ huge target rate ⇒ grow.
        let mut cc = Copa::new();
        let mut ctl = RateControl::open();
        cc.init(&view(20), &mut ctl);
        let before = cc.cwnd();
        for _ in 0..20 {
            cc.on_ack(&view(20), &ack_ms(20.2), &mut ctl);
        }
        assert!(cc.cwnd() > before);
    }

    #[test]
    fn shrinks_when_queue_is_deep() {
        // 80 ms of queueing: target = 1/(0.5·0.08) = 25 pkt/s;
        // current = 100/0.1 = 1000 pkt/s ⇒ shrink.
        let mut cc = Copa::new();
        let mut ctl = RateControl::open();
        cc.init(&view(20), &mut ctl);
        cc.cwnd = 100.0;
        for _ in 0..50 {
            cc.on_ack(&view(20), &ack_ms(100.0), &mut ctl);
        }
        assert!(cc.cwnd() < 100.0, "cwnd {}", cc.cwnd());
    }

    #[test]
    fn velocity_resets_on_direction_change() {
        let mut cc = Copa::new();
        let mut ctl = RateControl::open();
        cc.init(&view(20), &mut ctl);
        cc.cwnd = 4.0;
        // Push up repeatedly to build velocity.
        for _ in 0..40 {
            cc.on_ack(&view(20), &ack_ms(20.1), &mut ctl);
        }
        assert!(cc.velocity >= 2.0, "velocity {}", cc.velocity);
        // One deep-queue ACK flips the direction and resets velocity.
        cc.on_ack(&view(20), &ack_ms(200.0), &mut ctl);
        assert_eq!(cc.velocity, 1.0);
    }

    #[test]
    fn loss_halves() {
        let mut cc = Copa::new();
        let mut ctl = RateControl::open();
        cc.init(&view(20), &mut ctl);
        cc.cwnd = 64.0;
        cc.on_loss(
            &view(20),
            &LossInfo {
                lost_pkts: 1,
                kind: mocc_netsim::cc::LossKind::Reorder,
            },
            &mut ctl,
        );
        assert_eq!(cc.cwnd(), 32.0);
    }
}
