//! Evaluation metrics used throughout the paper's figures.

use crate::sim::FlowResult;

/// Jain's fairness index over a slice of allocations.
///
/// `J = (Σx)² / (n · Σx²)`, in `(0, 1]`; 1 means perfectly equal shares.
/// Returns 1.0 for an empty or all-zero input (a degenerate but fair
/// allocation).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (s * s) / (xs.len() as f64 * sq)
}

/// Per-second Jain indices over the seconds in which at least two flows
/// are active (nonzero delivery), as used for Fig. 12.
pub fn per_second_jain(flows: &[FlowResult]) -> Vec<f64> {
    let horizon = flows
        .iter()
        .map(|f| f.per_sec_mbits.len())
        .max()
        .unwrap_or(0);
    let mut out = Vec::new();
    for sec in 0..horizon {
        let active: Vec<f64> = flows
            .iter()
            .filter_map(|f| f.per_sec_mbits.get(sec).copied())
            .filter(|&x| x > 0.0)
            .collect();
        if active.len() >= 2 {
            out.push(jain_index(&active));
        }
    }
    out
}

/// Delivered megabits of each flow within the whole-second window
/// `[lo_s, hi_s)`. Seconds a flow never delivered in count as zero, so
/// the result is a valid share vector for [`jain_index`] even when
/// some flows were absent or starved.
pub fn window_mbits(flows: &[FlowResult], lo_s: u64, hi_s: u64) -> Vec<f64> {
    flows
        .iter()
        .map(|f| {
            (lo_s..hi_s)
                .map(|s| f.per_sec_mbits.get(s as usize).copied().unwrap_or(0.0))
                .sum()
        })
        .collect()
}

/// Time to fair share: seconds from `from_s` until the per-second
/// Jain index over all *scheduled-active* flows first reaches
/// `threshold` and stays there for `sustain` consecutive seconds.
///
/// `windows[i] = (start_s, end_s)` is flow `i`'s scheduled lifetime;
/// a flow counts as active in second `s` when it is scheduled for the
/// entire second, and a starved active flow contributes a zero share
/// (dragging the index down, as it should). Seconds with fewer than
/// two active flows, or with no delivery at all (mutual starvation is
/// not fairness), never qualify and reset the sustained streak.
/// Returns the offset of the first second of the qualifying streak,
/// or `None` when fair share is never reached before `horizon_s`.
pub fn time_to_fair_share(
    flows: &[FlowResult],
    windows: &[(f64, f64)],
    from_s: u64,
    horizon_s: u64,
    threshold: f64,
    sustain: u64,
) -> Option<f64> {
    assert_eq!(flows.len(), windows.len(), "one window per flow");
    let sustain = sustain.max(1);
    let mut streak = 0u64;
    for s in from_s..horizon_s {
        let sec = s as f64;
        let active: Vec<f64> = flows
            .iter()
            .zip(windows)
            .filter(|&(_, &(start, end))| start <= sec && sec + 1.0 <= end)
            .map(|(f, _)| f.per_sec_mbits.get(s as usize).copied().unwrap_or(0.0))
            .collect();
        // `jain_index` treats an all-zero vector as degenerately fair
        // (1.0); here mutual starvation must not count as a fair
        // share, so the second also needs some actual delivery.
        let delivered = active.iter().any(|&x| x > 0.0);
        if active.len() >= 2 && delivered && jain_index(&active) >= threshold {
            streak += 1;
            if streak >= sustain {
                return Some((s + 1 - sustain - from_s) as f64);
            }
        } else {
            streak = 0;
        }
    }
    None
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of a slice (0 for fewer than 2 items).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Percentile (nearest-rank) of a slice; `p` in `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    // `total_cmp`, not `partial_cmp().unwrap()`: identical order for
    // ordinary floats, but a stray NaN (e.g. from a degenerate
    // all-loss cell) sorts last instead of panicking mid-report.
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize - 1;
    v[rank.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_shares_is_one() {
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog() {
        // One of n flows hogging everything gives J = 1/n.
        let j = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_empty_and_zero() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    /// Builds a minimal [`FlowResult`] carrying only a per-second
    /// delivery series, for exercising the window/convergence helpers.
    fn flow_with_series(per_sec_mbits: Vec<f64>) -> FlowResult {
        FlowResult {
            per_sec_mbits,
            ..FlowResult::default()
        }
    }

    #[test]
    fn window_mbits_sums_only_the_window() {
        let flows = [
            flow_with_series(vec![1.0, 2.0, 3.0, 4.0]),
            flow_with_series(vec![1.0]), // short series: missing = 0
        ];
        assert_eq!(window_mbits(&flows, 1, 3), vec![5.0, 0.0]);
        assert_eq!(window_mbits(&flows, 0, 10), vec![10.0, 1.0]);
        assert_eq!(window_mbits(&flows, 3, 3), vec![0.0, 0.0]);
    }

    #[test]
    fn fair_share_found_after_transient() {
        // Flow 1 ramps up: seconds 0-2 unfair, fair from second 3 on.
        let flows = [
            flow_with_series(vec![8.0, 8.0, 7.0, 5.0, 5.0, 5.0, 5.0, 5.0]),
            flow_with_series(vec![0.0, 0.5, 2.0, 5.0, 5.0, 5.0, 5.0, 5.0]),
        ];
        let windows = [(0.0, 8.0), (0.0, 8.0)];
        let t = time_to_fair_share(&flows, &windows, 0, 8, 0.95, 3);
        assert_eq!(t, Some(3.0), "first second of the sustained streak");
        // Measured from a later origin, the offset shrinks.
        assert_eq!(
            time_to_fair_share(&flows, &windows, 2, 8, 0.95, 3),
            Some(1.0)
        );
    }

    #[test]
    fn fair_share_never_reached_is_none() {
        let flows = [
            flow_with_series(vec![9.0; 10]),
            flow_with_series(vec![1.0; 10]),
        ];
        let windows = [(0.0, 10.0), (0.0, 10.0)];
        assert_eq!(time_to_fair_share(&flows, &windows, 0, 10, 0.9, 3), None);
    }

    /// Seconds where every active flow delivers nothing are mutual
    /// starvation, not fairness — they must not satisfy the threshold
    /// (jain_index alone would call an all-zero vector 1.0).
    #[test]
    fn mutual_starvation_is_not_convergence() {
        let flows = [
            flow_with_series(vec![0.0; 10]),
            flow_with_series(vec![0.0; 10]),
        ];
        let windows = [(0.0, 10.0), (0.0, 10.0)];
        assert_eq!(time_to_fair_share(&flows, &windows, 0, 10, 0.9, 2), None);
        // A dead prefix also must not start the streak early: delivery
        // begins at second 4 and convergence is measured from there.
        let late = [
            flow_with_series(vec![0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]),
            flow_with_series(vec![0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]),
        ];
        assert_eq!(
            time_to_fair_share(&late, &windows, 0, 10, 0.9, 2),
            Some(4.0)
        );
    }

    #[test]
    fn fair_share_needs_two_scheduled_flows() {
        // Second flow only scheduled from t = 4: the equal-looking
        // early seconds (one active flow) must not count, and the
        // streak starts once both flows share.
        let flows = [
            flow_with_series(vec![5.0; 10]),
            flow_with_series(vec![0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]),
        ];
        let windows = [(0.0, 10.0), (4.0, 10.0)];
        assert_eq!(
            time_to_fair_share(&flows, &windows, 0, 10, 0.95, 2),
            Some(4.0)
        );
        // A starved-but-scheduled flow counts as zero and blocks
        // convergence entirely.
        let starved = [flow_with_series(vec![5.0; 10]), flow_with_series(vec![])];
        assert_eq!(time_to_fair_share(&starved, &windows, 0, 10, 0.9, 2), None);
    }

    /// An all-loss window — every flow acked zero bytes — must keep
    /// every metric finite and deterministic: Jain degenerates to 1.0
    /// and convergence is `None`, never NaN.
    #[test]
    fn all_loss_window_yields_finite_deterministic_metrics() {
        let zeros = vec![0.0; 8];
        assert_eq!(jain_index(&zeros), 1.0);
        assert_eq!(
            window_mbits(&[flow_with_series(zeros.clone())], 0, 8),
            vec![0.0]
        );
        let flows = [
            flow_with_series(vec![0.0; 8]),
            flow_with_series(vec![0.0; 8]),
        ];
        assert_eq!(per_second_jain(&flows), Vec::<f64>::new());
        assert_eq!(
            time_to_fair_share(&flows, &[(0.0, 8.0), (0.0, 8.0)], 0, 8, 0.9, 2),
            None
        );
    }

    /// `percentile` must not panic when a NaN does sneak into a
    /// series; it sorts last under `total_cmp` and everything else
    /// keeps its ordinary order.
    #[test]
    fn percentile_tolerates_nan_without_panicking() {
        let with_nan = [2.0, f64::NAN, 1.0];
        assert_eq!(percentile(&with_nan, 50.0), 2.0);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
    }
}
