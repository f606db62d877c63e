//! PCC Allegro (NSDI'15) and PCC Vivace (NSDI'18) — the online-learning
//! baselines.
//!
//! Both run *micro-experiments*: the sender perturbs its rate around
//! the current operating point over consecutive monitor intervals,
//! measures the resulting utility, and moves in the direction of higher
//! utility. Allegro uses a sigmoid-gated throughput/loss utility with
//! step amplification; Vivace uses the gradient of
//! `u = x^0.9 − b·x·(dRTT/dt)⁺ − c·x·L`. As §6.1 of the MOCC paper
//! notes, this greedy online optimization can settle in local optima.

use mocc_netsim::cc::{CongestionControl, MonitorStats, RateControl, SenderView};

/// Which PCC utility function drives the micro-experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PccUtility {
    /// Allegro: `T·S(L) − T·L` with a sigmoid cliff at 5 % loss.
    Allegro,
    /// Vivace: `T^0.9 − 900·T·(dRTT/dt)⁺ − 11.35·T·L`.
    Vivace,
}

/// Probing perturbation (±5 % around the base rate).
const EPS: f64 = 0.05;
/// Number of probe intervals per decision (two up, two down).
const PROBES_PER_DECISION: usize = 4;
/// Minimum sending rate, bps.
const MIN_RATE: f64 = 50_000.0;
/// Maximum sending rate, bps.
const MAX_RATE: f64 = 1e9;
/// Vivace gradient-ascent step scale.
const VIVACE_THETA: f64 = 0.08;
/// Cap on a single Vivace rate move, as a fraction of the base rate.
const VIVACE_MAX_STEP: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Slow-start analogue: double while utility keeps rising.
    Starting,
    /// Steady-state micro-experiments.
    Probing,
}

/// A PCC sender (Allegro or Vivace flavour).
#[derive(Debug, Clone)]
pub struct Pcc {
    utility: PccUtility,
    base_rate: f64,
    phase: Phase,
    prev_utility: Option<f64>,
    probe_idx: usize,
    probe_utilities: [f64; PROBES_PER_DECISION],
    dir: f64,
    consecutive: u32,
}

impl Pcc {
    /// Creates a PCC sender with the given utility flavour.
    pub fn new(utility: PccUtility) -> Self {
        Pcc {
            utility,
            base_rate: 1e6,
            phase: Phase::Starting,
            prev_utility: None,
            probe_idx: 0,
            probe_utilities: [0.0; PROBES_PER_DECISION],
            dir: 1.0,
            consecutive: 0,
        }
    }

    /// PCC Allegro.
    pub fn allegro() -> Self {
        Pcc::new(PccUtility::Allegro)
    }

    /// PCC Vivace.
    pub fn vivace() -> Self {
        Pcc::new(PccUtility::Vivace)
    }

    /// The current base (pre-perturbation) rate, bps.
    pub fn base_rate(&self) -> f64 {
        self.base_rate
    }

    /// Evaluates the utility of one monitor interval.
    pub fn utility_of(&self, mi: &MonitorStats) -> f64 {
        let x = mi.throughput_bps / 1e6; // Mbps
        let loss = mi.loss_rate;
        match self.utility {
            PccUtility::Allegro => {
                // Sigmoid gate collapses utility once loss passes 5 %.
                let gate = 1.0 - 1.0 / (1.0 + (-100.0 * (loss - 0.05)).exp());
                x * gate - x * loss
            }
            PccUtility::Vivace => {
                let grad = mi.latency_gradient.max(0.0);
                x.powf(0.9) - 900.0 * x * grad - 11.35 * x * loss
            }
        }
    }

    /// The rate the current probe interval should use.
    fn probe_rate(&self) -> f64 {
        match self.phase {
            Phase::Starting => self.base_rate,
            Phase::Probing => {
                // Alternate +ε, −ε, +ε, −ε.
                let sign = if self.probe_idx % 2 == 0 { 1.0 } else { -1.0 };
                self.base_rate * (1.0 + sign * EPS)
            }
        }
    }

    fn clamp(rate: f64) -> f64 {
        rate.clamp(MIN_RATE, MAX_RATE)
    }

    fn decide(&mut self) {
        let u_plus = (self.probe_utilities[0] + self.probe_utilities[2]) / 2.0;
        let u_minus = (self.probe_utilities[1] + self.probe_utilities[3]) / 2.0;
        let new_dir = if u_plus >= u_minus { 1.0 } else { -1.0 };
        if new_dir == self.dir {
            self.consecutive = (self.consecutive + 1).min(3);
        } else {
            self.consecutive = 0;
            self.dir = new_dir;
        }
        let step = match self.utility {
            PccUtility::Allegro => {
                // Step amplification with consecutive wins.
                EPS * (1 + self.consecutive) as f64 * self.dir
            }
            PccUtility::Vivace => {
                // Gradient ascent on utility w.r.t. rate (Mbps).
                let base_mbps = (self.base_rate / 1e6).max(1e-3);
                let grad = (u_plus - u_minus) / (2.0 * EPS * base_mbps);
                (VIVACE_THETA * grad).clamp(-VIVACE_MAX_STEP, VIVACE_MAX_STEP)
            }
        };
        self.base_rate = Self::clamp(self.base_rate * (1.0 + step));
    }
}

impl CongestionControl for Pcc {
    fn name(&self) -> &'static str {
        match self.utility {
            PccUtility::Allegro => "pcc-allegro",
            PccUtility::Vivace => "pcc-vivace",
        }
    }

    fn init(&mut self, _view: &SenderView, ctl: &mut RateControl) {
        ctl.pacing_rate_bps = self.base_rate;
        ctl.cwnd_pkts = f64::INFINITY;
    }

    fn on_monitor(&mut self, _view: &SenderView, mi: &MonitorStats, ctl: &mut RateControl) {
        let u = self.utility_of(mi);
        match self.phase {
            Phase::Starting => {
                match self.prev_utility {
                    Some(prev) if u < prev => {
                        // Overshot: back off and enter probing.
                        self.base_rate = Self::clamp(self.base_rate / 2.0);
                        self.phase = Phase::Probing;
                        self.probe_idx = 0;
                    }
                    _ => {
                        self.prev_utility = Some(u);
                        self.base_rate = Self::clamp(self.base_rate * 2.0);
                    }
                }
            }
            Phase::Probing => {
                self.probe_utilities[self.probe_idx] = u;
                self.probe_idx += 1;
                if self.probe_idx == PROBES_PER_DECISION {
                    self.decide();
                    self.probe_idx = 0;
                }
            }
        }
        ctl.pacing_rate_bps = self.probe_rate();
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
            srtt_s: Some(0.020),
            inflight_pkts: 10,
            total_sent: 0,
            total_acked: 0,
            total_lost: 0,
        }
    }

    fn mi(thr_mbps: f64, loss: f64, grad: f64) -> MonitorStats {
        MonitorStats {
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            pkts_sent: 100,
            pkts_acked: 100,
            pkts_lost: 0,
            throughput_bps: thr_mbps * 1e6,
            sending_rate_bps: thr_mbps * 1e6,
            mean_rtt: Some(SimDuration::from_millis(20)),
            loss_rate: loss,
            send_ratio: 1.0,
            latency_ratio: 1.0,
            latency_gradient: grad,
        }
    }

    #[test]
    fn allegro_utility_cliff_at_5pct_loss() {
        let cc = Pcc::allegro();
        let low = cc.utility_of(&mi(10.0, 0.01, 0.0));
        let high = cc.utility_of(&mi(10.0, 0.09, 0.0));
        assert!(low > 0.0);
        assert!(high < low * 0.2, "utility collapses past the cliff");
    }

    #[test]
    fn vivace_penalizes_latency_growth() {
        let cc = Pcc::vivace();
        let flat = cc.utility_of(&mi(10.0, 0.0, 0.0));
        let rising = cc.utility_of(&mi(10.0, 0.0, 0.01));
        assert!(flat > rising);
        // Negative gradient (draining queue) is not rewarded beyond flat.
        let draining = cc.utility_of(&mi(10.0, 0.0, -0.01));
        assert_eq!(flat, draining);
    }

    #[test]
    fn starting_phase_doubles_until_utility_drops() {
        let mut cc = Pcc::allegro();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        let r0 = cc.base_rate();
        cc.on_monitor(&view(), &mi(1.0, 0.0, 0.0), &mut ctl);
        assert!((cc.base_rate() - 2.0 * r0).abs() < 1.0);
        cc.on_monitor(&view(), &mi(2.0, 0.0, 0.0), &mut ctl);
        assert!((cc.base_rate() - 4.0 * r0).abs() < 1.0);
        // Utility drops (heavy loss): halve and switch to probing.
        cc.on_monitor(&view(), &mi(2.0, 0.2, 0.0), &mut ctl);
        assert_eq!(cc.phase, Phase::Probing);
        assert!((cc.base_rate() - 2.0 * r0).abs() < 1.0);
    }

    #[test]
    fn probing_moves_toward_higher_utility() {
        let mut cc = Pcc::allegro();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        cc.phase = Phase::Probing;
        cc.base_rate = 4e6;
        let before = cc.base_rate();
        // Feed 4 probe MIs where the +ε intervals saw more throughput.
        cc.on_monitor(&view(), &mi(4.4, 0.0, 0.0), &mut ctl); // +ε
        cc.on_monitor(&view(), &mi(3.6, 0.0, 0.0), &mut ctl); // −ε
        cc.on_monitor(&view(), &mi(4.4, 0.0, 0.0), &mut ctl); // +ε
        cc.on_monitor(&view(), &mi(3.6, 0.0, 0.0), &mut ctl); // −ε
        assert!(cc.base_rate() > before, "rate should move up");
    }

    #[test]
    fn probing_backs_off_when_loss_hurts() {
        let mut cc = Pcc::allegro();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        cc.phase = Phase::Probing;
        cc.base_rate = 10e6;
        let before = cc.base_rate();
        // +ε probes suffer the loss cliff; −ε probes are clean.
        cc.on_monitor(&view(), &mi(10.0, 0.10, 0.0), &mut ctl);
        cc.on_monitor(&view(), &mi(9.5, 0.0, 0.0), &mut ctl);
        cc.on_monitor(&view(), &mi(10.0, 0.10, 0.0), &mut ctl);
        cc.on_monitor(&view(), &mi(9.5, 0.0, 0.0), &mut ctl);
        assert!(cc.base_rate() < before, "rate should move down");
    }

    #[test]
    fn rate_respects_bounds() {
        let mut cc = Pcc::vivace();
        let mut ctl = RateControl::open();
        cc.init(&view(), &mut ctl);
        cc.base_rate = MIN_RATE;
        cc.phase = Phase::Probing;
        for _ in 0..20 {
            cc.on_monitor(&view(), &mi(0.01, 0.5, 0.1), &mut ctl);
        }
        assert!(cc.base_rate() >= MIN_RATE);
        assert!(ctl.pacing_rate_bps >= MIN_RATE * (1.0 - EPS));
    }
}
