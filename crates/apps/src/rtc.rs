//! Real-time communications (the Fig. 9 workload).
//!
//! Models a Salsify-style video call: an encoder emits a frame every
//! `1/fps` seconds; the transport drains the frame queue at whatever
//! rate the congestion controller allows. Frames that would make the
//! queue exceed the staleness cap are dropped at the sender (real-time
//! sources never let stale data displace fresh data). The figure's
//! metric is the receiver-side *inter-packet delay* — the mean gap
//! between consecutive packet deliveries — which grows when the
//! transport queues or slumps.

use mocc_netsim::app::AppSource;
use mocc_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// RTC source parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RtcConfig {
    /// Frames per second.
    pub fps: f64,
    /// Encoder bitrate, bits per second.
    pub bitrate_bps: f64,
    /// Maximum frames queued at the sender before old data is dropped.
    pub max_queued_frames: usize,
}

impl Default for RtcConfig {
    fn default() -> Self {
        RtcConfig {
            fps: 30.0,
            bitrate_bps: 2e6,
            max_queued_frames: 4,
        }
    }
}

/// Outcome of an RTC session.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RtcStats {
    /// Mean inter-packet delay at the receiver, milliseconds.
    pub mean_inter_packet_ms: f64,
    /// 95th-percentile inter-packet delay, milliseconds.
    pub p95_inter_packet_ms: f64,
    /// Packets delivered.
    pub packets: usize,
    /// Frames dropped at the sender (encoder outran the transport).
    pub frames_dropped: usize,
}

struct RtcState {
    cfg: RtcConfig,
    frame_bytes: u64,
    backlog_bytes: u64,
    next_frame: SimTime,
    deliveries: Vec<SimTime>,
    frames_dropped: usize,
}

/// The sender-side RTC application source.
pub struct RtcSource {
    state: Arc<Mutex<RtcState>>,
}

/// Read-side handle to an [`RtcSource`]'s statistics.
pub struct RtcHandle {
    state: Arc<Mutex<RtcState>>,
}

impl RtcSource {
    /// Creates the source and its statistics handle.
    pub fn new(cfg: RtcConfig) -> (Self, RtcHandle) {
        let frame_bytes = (cfg.bitrate_bps / cfg.fps / 8.0) as u64;
        let state = Arc::new(Mutex::new(RtcState {
            cfg,
            frame_bytes,
            backlog_bytes: 0,
            next_frame: SimTime::ZERO,
            deliveries: Vec::new(),
            frames_dropped: 0,
        }));
        (
            RtcSource {
                state: state.clone(),
            },
            RtcHandle { state },
        )
    }
}

impl RtcHandle {
    /// Computes delivery statistics (call after the simulation).
    pub fn stats(&self) -> RtcStats {
        let st = crate::locked(&self.state);
        let mut gaps_ms: Vec<f64> = st
            .deliveries
            .windows(2)
            .map(|w| (w[1] - w[0]).as_millis_f64())
            .collect();
        let mean = if gaps_ms.is_empty() {
            0.0
        } else {
            gaps_ms.iter().sum::<f64>() / gaps_ms.len() as f64
        };
        gaps_ms.sort_by(f64::total_cmp);
        let p95 = if gaps_ms.is_empty() {
            0.0
        } else {
            gaps_ms[((gaps_ms.len() as f64 * 0.95) as usize).min(gaps_ms.len() - 1)]
        };
        RtcStats {
            mean_inter_packet_ms: mean,
            p95_inter_packet_ms: p95,
            packets: st.deliveries.len(),
            frames_dropped: st.frames_dropped,
        }
    }
}

impl AppSource for RtcSource {
    fn take(&mut self, now: SimTime, max_bytes: u64) -> u64 {
        let mut st = crate::locked(&self.state);
        // Encode frames up to now, dropping when the queue is stale.
        let interval = SimDuration::from_secs_f64(1.0 / st.cfg.fps);
        while st.next_frame <= now {
            let cap = st.cfg.max_queued_frames as u64 * st.frame_bytes;
            if st.backlog_bytes + st.frame_bytes > cap {
                st.frames_dropped += 1;
            } else {
                st.backlog_bytes += st.frame_bytes;
            }
            st.next_frame += interval;
        }
        let granted = st.backlog_bytes.min(max_bytes);
        st.backlog_bytes -= granted;
        granted
    }

    fn on_delivered(&mut self, now: SimTime, _bytes: u64) {
        crate::locked(&self.state).deliveries.push(now);
    }

    fn next_wakeup(&self, _now: SimTime, _need_bytes: u64) -> Option<SimTime> {
        Some(crate::locked(&self.state).next_frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_cc::{Bbr, Cubic};
    use mocc_netsim::{Scenario, Simulator};

    fn run_rtc(cc: Box<dyn mocc_netsim::CongestionControl>, queue: usize) -> RtcStats {
        let sc = Scenario::single(5e6, 15, queue, 0.0, 30);
        let (src, handle) = RtcSource::new(RtcConfig::default());
        let mut sim = Simulator::new(sc, vec![cc]);
        sim.set_app(0, Box::new(src));
        let _ = sim.run();
        handle.stats()
    }

    #[test]
    fn rtc_delivers_most_packets() {
        let stats = run_rtc(Box::new(Cubic::new()), 500);
        // 2 Mbps over 30 s ≈ 7.5 MB ≈ 5000 packets.
        assert!(stats.packets > 3000, "packets {}", stats.packets);
        assert!(stats.mean_inter_packet_ms > 0.0);
    }

    #[test]
    fn inter_packet_delay_reflects_pacing() {
        let stats = run_rtc(Box::new(Bbr::new()), 500);
        // 2 Mbps of 1500 B packets ≈ 167 pkt/s ≈ 6 ms spacing; bursts
        // compress some gaps, so the mean must be in the low ms.
        assert!(
            stats.mean_inter_packet_ms < 20.0,
            "mean gap {}",
            stats.mean_inter_packet_ms
        );
    }

    #[test]
    fn encoder_drops_when_transport_starves() {
        // A 0.5 Mbps link cannot carry a 2 Mbps call.
        let sc = Scenario::single(0.5e6, 15, 100, 0.0, 20);
        let (src, handle) = RtcSource::new(RtcConfig::default());
        let mut sim = Simulator::new(sc, vec![Box::new(Cubic::new())]);
        sim.set_app(0, Box::new(src));
        let _ = sim.run();
        let stats = handle.stats();
        assert!(stats.frames_dropped > 100, "drops {}", stats.frames_dropped);
    }

    #[test]
    fn p95_at_least_mean() {
        let stats = run_rtc(Box::new(Cubic::new()), 300);
        assert!(stats.p95_inter_packet_ms >= stats.mean_inter_packet_ms * 0.5);
    }
}
