//! Time-varying bottleneck bandwidth traces.
//!
//! Experiments such as Fig. 1(a) of the paper drive the bottleneck with
//! a bandwidth that changes over time (20–30 Mbps square wave). A
//! [`BandwidthTrace`] is a piecewise-constant function from simulated
//! time to link rate; the link looks up the active rate whenever it
//! services a packet.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Piecewise-constant bandwidth schedule for a link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthTrace {
    /// Sorted `(start_time, rate_bps)` steps. The first entry must start
    /// at time zero; each step is active until the next one begins.
    steps: Vec<(SimTime, f64)>,
}

impl BandwidthTrace {
    /// A constant-rate trace.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_bps` is finite and strictly positive (see
    /// [`BandwidthTrace::from_steps`]).
    pub fn constant(rate_bps: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "bandwidth trace rates must be finite and > 0 (got {rate_bps})"
        );
        BandwidthTrace {
            steps: vec![(SimTime::ZERO, rate_bps)],
        }
    }

    /// Builds a trace from explicit `(start, rate)` steps.
    ///
    /// Steps are sorted by start time; a step at time zero is prepended
    /// (duplicating the first rate) if missing so that the trace is
    /// total. This **zero-prepend contract** is what downstream
    /// consumers rely on: [`BandwidthTrace::rate_at`] and
    /// [`BandwidthTrace::mean_rate`] never see a gap before the first
    /// step, so a recorded trace whose first sample starts after
    /// `t = 0` cannot under-report the mean-rate (utilization)
    /// denominator.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, or if any rate is non-finite or not
    /// strictly positive — a NaN rate would poison
    /// [`BandwidthTrace::max_rate`] and a zero rate would make the
    /// utilization denominator meaningless, so both are rejected at
    /// construction. Spec-driven paths reject these as typed errors
    /// before a trace is ever built.
    pub fn from_steps(mut steps: Vec<(SimTime, f64)>) -> Self {
        assert!(
            !steps.is_empty(),
            "a bandwidth trace needs at least one step"
        );
        for &(t, rate) in &steps {
            assert!(
                rate.is_finite() && rate > 0.0,
                "bandwidth trace rates must be finite and > 0 (got {rate} at {t:?})"
            );
        }
        steps.sort_by_key(|&(t, _)| t);
        if steps[0].0 != SimTime::ZERO {
            let first_rate = steps[0].1;
            steps.insert(0, (SimTime::ZERO, first_rate));
        }
        BandwidthTrace { steps }
    }

    /// Builds a trace from recorded `(time_s, rate_bps)` samples — the
    /// replay entry point for trace files. Unlike the generator
    /// constructors this is total: every malformed input comes back as
    /// a typed error instead of a panic, so spec validation can report
    /// bad trace files to the user.
    ///
    /// Requirements: at least one sample; times finite, non-negative,
    /// and strictly increasing on the simulator's nanosecond clock (two
    /// steps at one instant would leave the link's rate there to the
    /// search); rates finite and strictly positive. The first sample's rate extends back to `t = 0` (the
    /// [`BandwidthTrace::from_steps`] zero-prepend contract) and the
    /// last sample's rate holds forever past the end of the recording.
    pub fn from_samples(samples: &[(f64, f64)]) -> Result<Self, String> {
        if samples.is_empty() {
            return Err("a replay trace needs at least one sample".to_string());
        }
        let mut steps: Vec<(SimTime, f64)> = Vec::with_capacity(samples.len());
        for (i, &(t, rate)) in samples.iter().enumerate() {
            if !t.is_finite() || t < 0.0 {
                return Err(format!(
                    "sample {i}: time {t} must be finite and >= 0 seconds"
                ));
            }
            if !rate.is_finite() || rate <= 0.0 {
                return Err(format!("sample {i}: rate {rate} must be finite and > 0"));
            }
            let at = SimTime::from_secs_f64(t);
            if steps.last().is_some_and(|&(prev_at, _)| at <= prev_at) {
                let prev_t = samples[i - 1].0;
                return Err(format!(
                    "samples {} and {i}: time {t} is not after {prev_t} on the simulator's \
                     nanosecond clock; sample times must be strictly increasing",
                    i - 1
                ));
            }
            steps.push((at, rate));
        }
        Ok(BandwidthTrace::from_steps(steps))
    }

    /// A square wave alternating between `low_bps` and `high_bps`, holding
    /// each level for `period_s` seconds, starting at `low_bps`.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not strictly positive (the trace would
    /// never advance).
    pub fn square_wave(low_bps: f64, high_bps: f64, period_s: f64, total_s: f64) -> Self {
        assert!(period_s > 0.0, "square wave needs a positive period");
        let mut steps = Vec::new();
        let mut t = 0.0;
        let mut high = false;
        while t < total_s {
            steps.push((
                SimTime::from_secs_f64(t),
                if high { high_bps } else { low_bps },
            ));
            high = !high;
            t += period_s;
        }
        BandwidthTrace::from_steps(steps)
    }

    /// An oscillating staircase: the rate climbs from `lo_bps` to
    /// `hi_bps` in `steps_per_ramp` equal steps, descends back the same
    /// way, and repeats until `total_s`. Each level is held for
    /// `dwell_s` seconds. This is the "step/oscillating" link shape of
    /// the sweep-evaluation harness: unlike [`square_wave`] the
    /// bottleneck drifts gradually, exercising how quickly a controller
    /// tracks capacity in both directions.
    ///
    /// [`square_wave`]: BandwidthTrace::square_wave
    ///
    /// # Panics
    ///
    /// Panics if `dwell_s` is not strictly positive (the trace would
    /// never advance).
    pub fn oscillating(
        lo_bps: f64,
        hi_bps: f64,
        steps_per_ramp: usize,
        dwell_s: f64,
        total_s: f64,
    ) -> Self {
        assert!(dwell_s > 0.0, "oscillating trace needs a positive dwell");
        let n = steps_per_ramp.max(1);
        let level = |i: usize| lo_bps + (hi_bps - lo_bps) * i as f64 / n as f64;
        // One period is 2n levels: lo → hi inclusive, then back down
        // exclusive of both endpoints (they belong to the neighbouring
        // ramps). Step k holds the (k mod 2n)-th, computed from k, so a
        // trace costs the steps it emits whatever n is.
        let level_of = |k: usize| {
            let j = n.checked_mul(2).map_or(k, |period| k % period);
            level(if j <= n { j } else { 2 * n - j })
        };
        let mut steps = Vec::new();
        let mut t = 0.0;
        let mut k = 0usize;
        while t < total_s {
            steps.push((SimTime::from_secs_f64(t), level_of(k)));
            k += 1;
            t += dwell_s;
        }
        BandwidthTrace::from_steps(steps)
    }

    /// Returns the rate (bps) active at time `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self.steps.binary_search_by_key(&t, |&(s, _)| s) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Returns the mean rate over `[0, horizon]`, weighting each step by
    /// its active duration. Used as the utilization denominator when the
    /// bottleneck varies.
    pub fn mean_rate(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return self.steps[0].1;
        }
        let mut acc = 0.0;
        for (i, &(start, rate)) in self.steps.iter().enumerate() {
            if start >= horizon {
                break;
            }
            let end = self
                .steps
                .get(i + 1)
                .map(|&(s, _)| s.min(horizon))
                .unwrap_or(horizon);
            acc += rate * (end - start).as_secs_f64();
        }
        acc / horizon.as_secs_f64()
    }

    /// Maximum rate over all steps (used for capacity normalization).
    ///
    /// Folding from the first step (never from a `0.0` sentinel) is
    /// sound because construction guarantees a non-empty step list with
    /// finite, strictly positive rates — the old
    /// `fold(0.0, f64::max)` silently returned `0.0` for degenerate
    /// step sets (`f64::max` discards NaN operands), which zeroed
    /// BDP and utilization denominators downstream.
    pub fn max_rate(&self) -> f64 {
        self.steps
            .iter()
            .map(|&(_, r)| r)
            .fold(self.steps[0].1, f64::max)
    }

    /// The trace steps, for inspection and plotting.
    pub fn steps(&self) -> &[(SimTime, f64)] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace() {
        let tr = BandwidthTrace::constant(10e6);
        assert_eq!(tr.rate_at(SimTime::ZERO), 10e6);
        assert_eq!(tr.rate_at(SimTime::from_secs(100)), 10e6);
        assert_eq!(tr.mean_rate(SimTime::from_secs(10)), 10e6);
    }

    #[test]
    fn square_wave_alternates() {
        let tr = BandwidthTrace::square_wave(20e6, 30e6, 5.0, 20.0);
        assert_eq!(tr.rate_at(SimTime::from_secs_f64(1.0)), 20e6);
        assert_eq!(tr.rate_at(SimTime::from_secs_f64(6.0)), 30e6);
        assert_eq!(tr.rate_at(SimTime::from_secs_f64(11.0)), 20e6);
        let mean = tr.mean_rate(SimTime::from_secs(20));
        assert!((mean - 25e6).abs() < 1e3, "mean {mean}");
    }

    /// The zero-prepend contract: a trace whose first step starts
    /// after t = 0 extends that first rate back to t = 0, so both the
    /// point lookup and the duration-weighted mean see no dead air
    /// before the recording begins. Replay traces rely on this —
    /// without the prepend, `mean_rate` would under-count the
    /// utilization denominator by the missing prefix.
    #[test]
    fn from_steps_prepends_zero() {
        let tr = BandwidthTrace::from_steps(vec![(SimTime::from_secs(5), 7e6)]);
        assert_eq!(tr.rate_at(SimTime::ZERO), 7e6);
        assert_eq!(tr.rate_at(SimTime::from_secs_f64(2.5)), 7e6);
        assert_eq!(tr.mean_rate(SimTime::from_secs(4)), 7e6);
        assert_eq!(tr.mean_rate(SimTime::from_secs(20)), 7e6);
        // A two-step late-starting trace: [0, 10) holds the first
        // sample's rate, [10, 20) the second's.
        let tr = BandwidthTrace::from_steps(vec![
            (SimTime::from_secs(4), 8e6),
            (SimTime::from_secs(10), 2e6),
        ]);
        assert_eq!(tr.rate_at(SimTime::from_secs(1)), 8e6);
        let mean = tr.mean_rate(SimTime::from_secs(20));
        assert!((mean - 5e6).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn from_samples_replays_recordings() {
        let tr = BandwidthTrace::from_samples(&[(0.5, 3e6), (1.5, 9e6), (4.0, 6e6)]).unwrap();
        // First rate extends back to zero; last rate holds forever.
        assert_eq!(tr.rate_at(SimTime::ZERO), 3e6);
        assert_eq!(tr.rate_at(SimTime::from_secs_f64(2.0)), 9e6);
        assert_eq!(tr.rate_at(SimTime::from_secs(100)), 6e6);
        assert_eq!(tr.max_rate(), 9e6);
    }

    #[test]
    fn from_samples_rejects_malformed_recordings() {
        for (samples, needle) in [
            (vec![], "at least one sample"),
            (vec![(0.0, 1e6), (0.0, 2e6)], "strictly increasing"),
            (vec![(1.0, 1e6), (0.5, 2e6)], "strictly increasing"),
            (
                vec![(0.0, 1e6), (1e-10, 2e6)],
                "samples 0 and 1: time 0.0000000001 is not after 0 on the simulator's nanosecond",
            ),
            (vec![(-1.0, 1e6)], "finite and >= 0"),
            (vec![(f64::NAN, 1e6)], "finite and >= 0"),
            (vec![(0.0, 0.0)], "finite and > 0"),
            (vec![(0.0, -2e6)], "finite and > 0"),
            (vec![(0.0, f64::NAN)], "finite and > 0"),
            (vec![(0.0, f64::INFINITY)], "finite and > 0"),
        ] {
            let err = BandwidthTrace::from_samples(&samples).unwrap_err();
            assert!(err.contains(needle), "{samples:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "finite and > 0")]
    fn from_steps_rejects_nan_rates() {
        let _ = BandwidthTrace::from_steps(vec![(SimTime::ZERO, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "finite and > 0")]
    fn constant_rejects_zero_rate() {
        let _ = BandwidthTrace::constant(0.0);
    }

    #[test]
    fn oscillating_climbs_and_descends() {
        // lo = 10, hi = 20, 2 steps per ramp, 1 s dwell:
        // levels 10, 15, 20, 15 | 10, 15, 20, 15 | ...
        let tr = BandwidthTrace::oscillating(10e6, 20e6, 2, 1.0, 8.0);
        let at = |s: f64| tr.rate_at(SimTime::from_secs_f64(s));
        assert_eq!(at(0.5), 10e6);
        assert_eq!(at(1.5), 15e6);
        assert_eq!(at(2.5), 20e6);
        assert_eq!(at(3.5), 15e6);
        assert_eq!(at(4.5), 10e6, "period restarts at lo");
        assert_eq!(tr.max_rate(), 20e6);
    }

    /// Each level is computed from its step's index: the same rates as
    /// walking the materialized 2n-level cycle, and a ramp of
    /// `usize::MAX` steps costs only the steps the horizon holds.
    #[test]
    fn oscillating_levels_follow_the_cycle_without_building_it() {
        let (lo, hi) = (10e6, 20e6);
        for n in 1..=6usize {
            let level = |i: usize| lo + (hi - lo) * i as f64 / n as f64;
            let mut cycle: Vec<f64> = (0..=n).map(level).collect();
            cycle.extend((1..n).rev().map(level));
            let tr = BandwidthTrace::oscillating(lo, hi, n, 1.0, 40.0);
            for k in 0..40 {
                let at = SimTime::from_secs_f64(k as f64 + 0.5);
                assert_eq!(tr.rate_at(at).to_bits(), cycle[k % cycle.len()].to_bits());
            }
        }
        let tr = BandwidthTrace::oscillating(lo, hi, usize::MAX, 1.0, 3.0);
        assert_eq!(tr.steps.len(), 3);
        assert_eq!(tr.rate_at(SimTime::ZERO), lo);
    }

    #[test]
    #[should_panic(expected = "positive dwell")]
    fn oscillating_rejects_zero_dwell() {
        let _ = BandwidthTrace::oscillating(1e6, 2e6, 2, 0.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "positive period")]
    fn square_wave_rejects_zero_period() {
        let _ = BandwidthTrace::square_wave(1e6, 2e6, 0.0, 4.0);
    }

    #[test]
    fn oscillating_single_step_degenerates_to_square() {
        let tr = BandwidthTrace::oscillating(1e6, 2e6, 1, 1.0, 4.0);
        let at = |s: f64| tr.rate_at(SimTime::from_secs_f64(s));
        assert_eq!(at(0.5), 1e6);
        assert_eq!(at(1.5), 2e6);
        assert_eq!(at(2.5), 1e6);
    }

    #[test]
    fn lookup_exact_boundary() {
        let tr =
            BandwidthTrace::from_steps(vec![(SimTime::ZERO, 1e6), (SimTime::from_secs(2), 2e6)]);
        assert_eq!(tr.rate_at(SimTime::from_secs(2)), 2e6);
        assert_eq!(tr.rate_at(SimTime(1_999_999_999)), 1e6);
    }
}
