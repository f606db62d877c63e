//! # mocc-apps — application workloads for the MOCC evaluation
//!
//! The three real-application traffic patterns of §6.3, rebuilt over
//! the simulator's [`mocc_netsim::app::AppSource`] interface so any
//! congestion controller (MOCC included) can carry them:
//!
//! - [`video`]: Pensieve-style adaptive-bitrate streaming (Fig. 8),
//! - [`rtc`]: Salsify-style real-time communications (Fig. 9),
//! - [`bulk`]: fixed-size file transfers with FCT statistics (Fig. 10).
//!
//! ## Example
//!
//! ```
//! use mocc_apps::video::{VideoConfig, VideoSource};
//! use mocc_netsim::{Scenario, Simulator};
//!
//! let cfg = VideoConfig { total_chunks: 3, ..Default::default() };
//! let (src, handle) = VideoSource::new(cfg);
//! let mut sim = Simulator::new(
//!     Scenario::single(10e6, 20, 500, 0.0, 60),
//!     vec![mocc_cc::by_name("bbr").unwrap()],
//! );
//! sim.set_app(0, Box::new(src));
//! let _ = sim.run();
//! assert!(handle.stats().completed);
//! ```

#![forbid(unsafe_code)]

pub mod bulk;
pub mod rtc;
pub mod video;

pub use bulk::{run_bulk, BulkConfig, BulkStats};
pub use rtc::{RtcConfig, RtcHandle, RtcSource, RtcStats};
pub use video::{VideoConfig, VideoHandle, VideoSource, VideoStats};

/// Locks the state an app source shares with its stats handle. The
/// lock is poisoned only if a holder panicked mid-update — the
/// simulation is already lost then, so the panic propagates.
fn locked<T>(state: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    state
        .lock()
        .expect("app state lock poisoned: a holder panicked")
}
