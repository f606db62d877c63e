//! The workspace's single monotonic-clock chokepoint.
//!
//! The byte-determinism contract (docs/PERFORMANCE.md, docs/AUDIT.md)
//! forbids clock reads in library code: golden reports, the
//! content-addressed cache, and training checkpoints must not depend
//! on when they were produced. Timing is still needed — the figures,
//! the trainer's log lines and the kernel-ratio test
//! (`tests/kernel_ratios.rs`) report wall time — so every monotonic
//! read in the workspace funnels through this module, which is the
//! one file on `mocc audit`'s clock-discipline allowlist. Timing
//! values must only ever flow into logs and printed measurements,
//! never into simulation state or model bytes.

use std::time::Instant;

/// Seconds since the first call to any function in this module
/// (a process-wide monotonic epoch).
///
/// This is the `fn() -> f64` shape that `mocc_core::TrainOptions`
/// accepts as an injected clock, so trainer wall-time logging never
/// reads `Instant` itself.
pub fn monotonic_secs() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_secs_f64()
}

/// A started wall-clock measurement, for the figures and the
/// kernel-ratio test.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_secs_is_monotone() {
        let a = monotonic_secs();
        let b = monotonic_secs();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn stopwatch_measures_forward() {
        let sw = Stopwatch::start();
        let e1 = sw.elapsed_secs();
        let e2 = sw.elapsed_secs();
        assert!(e2 >= e1 && e1 >= 0.0);
    }
}
