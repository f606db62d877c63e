//! Adaptive-bitrate video streaming (the Fig. 8 workload).
//!
//! Models a Pensieve-style client/server pair: the video is cut into
//! fixed-duration chunks encoded at several quality levels; the client
//! maintains a playback buffer and an MPC-flavoured ABR controller
//! (harmonic-mean throughput prediction with a buffer-scaled safety
//! factor) that picks each next chunk's level. The transport underneath
//! is whatever congestion controller the experiment installs; a better
//! transport yields more level-5 chunks and fewer rebuffers, exactly
//! the comparison Fig. 8 draws.

use mocc_netsim::app::AppSource;
use mocc_netsim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Video/ABR parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VideoConfig {
    /// Bitrate of each quality level, kbps (Pensieve's ladder).
    pub levels_kbps: Vec<f64>,
    /// Chunk duration in seconds.
    pub chunk_secs: f64,
    /// Playback-buffer cap in seconds; downloads pause above it.
    pub max_buffer_secs: f64,
    /// Seconds of buffered video before playback starts.
    pub startup_secs: f64,
    /// Number of chunks in the video.
    pub total_chunks: usize,
    /// Chunks remembered by the throughput predictor.
    pub predictor_window: usize,
}

impl Default for VideoConfig {
    fn default() -> Self {
        VideoConfig {
            levels_kbps: vec![300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0],
            chunk_secs: 4.0,
            max_buffer_secs: 30.0,
            startup_secs: 4.0,
            total_chunks: 25,
            predictor_window: 5,
        }
    }
}

/// Outcome of one streaming session.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VideoStats {
    /// Quality level of each downloaded chunk.
    pub chunk_levels: Vec<usize>,
    /// Download time of each chunk, seconds.
    pub chunk_download_secs: Vec<f64>,
    /// Per-chunk delivery throughput, Mbps.
    pub chunk_throughput_mbps: Vec<f64>,
    /// Total rebuffering (stall) time, seconds.
    pub rebuffer_secs: f64,
    /// Whether all chunks finished within the simulation horizon.
    pub completed: bool,
}

impl VideoStats {
    /// Mean bitrate of the downloaded chunks, kbps.
    pub fn avg_bitrate_kbps(&self, cfg: &VideoConfig) -> f64 {
        if self.chunk_levels.is_empty() {
            return 0.0;
        }
        self.chunk_levels
            .iter()
            .map(|&l| cfg.levels_kbps[l])
            .sum::<f64>()
            / self.chunk_levels.len() as f64
    }

    /// Histogram of chunk counts per quality level.
    pub fn level_histogram(&self, n_levels: usize) -> Vec<usize> {
        let mut h = vec![0usize; n_levels];
        for &l in &self.chunk_levels {
            h[l] += 1;
        }
        h
    }
}

struct VideoState {
    cfg: VideoConfig,
    level: usize,
    chunk_to_send: u64,
    chunk_to_ack: u64,
    chunk_bytes: u64,
    chunk_started: SimTime,
    chunks_done: usize,
    buffer_secs: f64,
    playing: bool,
    last_drain: SimTime,
    wait_until: Option<SimTime>,
    predictor: VecDeque<f64>,
    stats: VideoStats,
}

impl VideoState {
    fn chunk_size_bytes(cfg: &VideoConfig, level: usize) -> u64 {
        (cfg.levels_kbps[level] * 1e3 * cfg.chunk_secs / 8.0) as u64
    }

    fn start_chunk(&mut self, now: SimTime) {
        self.chunk_bytes = Self::chunk_size_bytes(&self.cfg, self.level);
        self.chunk_to_send = self.chunk_bytes;
        self.chunk_to_ack = self.chunk_bytes;
        self.chunk_started = now;
    }

    /// Lazily advances playback, accounting stalls.
    fn drain(&mut self, now: SimTime) {
        let dt = (now - self.last_drain).as_secs_f64();
        self.last_drain = now;
        if !self.playing {
            return;
        }
        if dt <= self.buffer_secs {
            self.buffer_secs -= dt;
        } else {
            self.stats.rebuffer_secs += dt - self.buffer_secs;
            self.buffer_secs = 0.0;
        }
    }

    /// Harmonic-mean throughput prediction, Mbps.
    fn predicted_mbps(&self) -> f64 {
        if self.predictor.is_empty() {
            return self.cfg.levels_kbps[0] / 1e3;
        }
        let inv: f64 = self.predictor.iter().map(|t| 1.0 / t.max(1e-6)).sum();
        self.predictor.len() as f64 / inv
    }

    /// MPC-flavoured level choice: rate prediction with a buffer-scaled
    /// safety factor (low buffer ⇒ conservative, deep buffer ⇒ bold).
    fn choose_level(&self) -> usize {
        let est_kbps = self.predicted_mbps() * 1e3;
        let safety = (self.buffer_secs / 10.0).clamp(0.5, 1.0) * 0.9;
        let budget = est_kbps * safety;
        self.cfg
            .levels_kbps
            .iter()
            .rposition(|&b| b <= budget)
            .unwrap_or(0)
    }

    fn on_chunk_complete(&mut self, now: SimTime) {
        let dl = (now - self.chunk_started).as_secs_f64().max(1e-6);
        let thr_mbps = self.chunk_bytes as f64 * 8.0 / dl / 1e6;
        self.stats.chunk_levels.push(self.level);
        self.stats.chunk_download_secs.push(dl);
        self.stats.chunk_throughput_mbps.push(thr_mbps);
        self.predictor.push_back(thr_mbps);
        if self.predictor.len() > self.cfg.predictor_window {
            self.predictor.pop_front();
        }
        self.drain(now);
        self.buffer_secs += self.cfg.chunk_secs;
        if !self.playing && self.buffer_secs >= self.cfg.startup_secs {
            self.playing = true;
        }
        self.chunks_done += 1;
        if self.chunks_done >= self.cfg.total_chunks {
            self.stats.completed = true;
            return;
        }
        // Pause while the buffer is above the cap.
        if self.buffer_secs > self.cfg.max_buffer_secs {
            let wait = self.buffer_secs - self.cfg.max_buffer_secs;
            self.wait_until = Some(now + mocc_netsim::time::SimDuration::from_secs_f64(wait));
        }
        self.level = self.choose_level();
        self.start_chunk(now);
    }
}

/// The sender-side application source streaming chunks over a flow.
pub struct VideoSource {
    state: Arc<Mutex<VideoState>>,
}

impl VideoSource {
    /// Creates the source and a handle for reading statistics after the
    /// simulation completes.
    pub fn new(cfg: VideoConfig) -> (Self, VideoHandle) {
        let mut st = VideoState {
            cfg,
            level: 0,
            chunk_to_send: 0,
            chunk_to_ack: 0,
            chunk_bytes: 0,
            chunk_started: SimTime::ZERO,
            chunks_done: 0,
            buffer_secs: 0.0,
            playing: false,
            last_drain: SimTime::ZERO,
            wait_until: None,
            predictor: VecDeque::new(),
            stats: VideoStats::default(),
        };
        st.start_chunk(SimTime::ZERO);
        let state = Arc::new(Mutex::new(st));
        (
            VideoSource {
                state: state.clone(),
            },
            VideoHandle { state },
        )
    }
}

/// Read-side handle to a [`VideoSource`]'s statistics.
pub struct VideoHandle {
    state: Arc<Mutex<VideoState>>,
}

impl VideoHandle {
    /// The session statistics (call after the simulation).
    pub fn stats(&self) -> VideoStats {
        crate::locked(&self.state).stats.clone()
    }

    /// The configured quality ladder size.
    pub fn n_levels(&self) -> usize {
        crate::locked(&self.state).cfg.levels_kbps.len()
    }
}

impl AppSource for VideoSource {
    fn take(&mut self, now: SimTime, max_bytes: u64) -> u64 {
        let mut st = crate::locked(&self.state);
        if st.stats.completed {
            return 0;
        }
        if let Some(w) = st.wait_until {
            if now < w {
                return 0;
            }
            st.wait_until = None;
        }
        let granted = st.chunk_to_send.min(max_bytes);
        st.chunk_to_send -= granted;
        granted
    }

    fn on_delivered(&mut self, now: SimTime, bytes: u64) {
        let mut st = crate::locked(&self.state);
        if st.stats.completed {
            return;
        }
        st.chunk_to_ack = st.chunk_to_ack.saturating_sub(bytes);
        if st.chunk_to_ack == 0 {
            st.on_chunk_complete(now);
        }
    }

    fn on_lost(&mut self, _now: SimTime, bytes: u64) {
        // Chunk delivery is reliable (HTTP over a reliable transport):
        // lost bytes are re-supplied for retransmission.
        let mut st = crate::locked(&self.state);
        if !st.stats.completed {
            st.chunk_to_send += bytes;
        }
    }

    fn next_wakeup(&self, _now: SimTime, _need_bytes: u64) -> Option<SimTime> {
        crate::locked(&self.state).wait_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_cc::Cubic;
    use mocc_netsim::{Scenario, Simulator};

    #[test]
    fn chunk_sizes_follow_ladder() {
        let cfg = VideoConfig::default();
        // Level 0: 300 kbps × 4 s / 8 = 150 kB.
        assert_eq!(VideoState::chunk_size_bytes(&cfg, 0), 150_000);
        assert_eq!(VideoState::chunk_size_bytes(&cfg, 5), 2_150_000);
    }

    #[test]
    fn abr_is_conservative_when_buffer_low() {
        let cfg = VideoConfig::default();
        let (src, _h) = VideoSource::new(cfg);
        let mut st = crate::locked(&src.state);
        st.predictor.push_back(3.0); // 3 Mbps measured
        st.buffer_secs = 2.0; // Low buffer: safety 0.5 × 0.9.
        let low = st.choose_level();
        st.buffer_secs = 20.0; // Deep buffer: safety 0.9.
        let high = st.choose_level();
        assert!(high >= low, "deeper buffer never picks a lower level");
        // 3 Mbps × 0.9 = 2700 kbps budget → level 4 (2850 too big).
        assert_eq!(high, 3);
    }

    #[test]
    fn streaming_over_good_link_reaches_top_levels() {
        let cfg = VideoConfig {
            total_chunks: 10,
            ..Default::default()
        };
        let sc = Scenario::single(10e6, 20, 500, 0.0, 120);
        let (src, handle) = VideoSource::new(cfg.clone());
        let mut sim = Simulator::new(sc, vec![Box::new(Cubic::new())]);
        sim.set_app(0, Box::new(src));
        let _ = sim.run();
        let stats = handle.stats();
        assert!(stats.completed, "all chunks downloaded");
        assert_eq!(stats.chunk_levels.len(), 10);
        // A 10 Mbps link comfortably carries the 4.3 Mbps top level.
        assert!(
            *stats.chunk_levels.iter().max().unwrap() >= 4,
            "levels {:?}",
            stats.chunk_levels
        );
        assert!(
            stats.rebuffer_secs < 2.0,
            "rebuffer {}",
            stats.rebuffer_secs
        );
    }

    #[test]
    fn starved_link_stays_at_low_levels() {
        let cfg = VideoConfig {
            total_chunks: 6,
            ..Default::default()
        };
        let sc = Scenario::single(0.6e6, 20, 200, 0.0, 300);
        let (src, handle) = VideoSource::new(cfg);
        let mut sim = Simulator::new(sc, vec![Box::new(Cubic::new())]);
        sim.set_app(0, Box::new(src));
        let _ = sim.run();
        let stats = handle.stats();
        assert!(
            stats.chunk_levels.iter().all(|&l| l <= 1),
            "600 kbps cannot carry level ≥ 2: {:?}",
            stats.chunk_levels
        );
    }

    #[test]
    fn histogram_sums_to_chunks() {
        let stats = VideoStats {
            chunk_levels: vec![0, 5, 5, 3],
            ..Default::default()
        };
        let h = stats.level_histogram(6);
        assert_eq!(h, vec![1, 0, 0, 1, 0, 2]);
        assert_eq!(h.iter().sum::<usize>(), 4);
    }
}
