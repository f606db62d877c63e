//! Medians, quartiles and guarded percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), because that is what the driver
//! uses when it checks the spread of this benchmark's metrics.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of `xs`; with a single sample all
/// three are that sample.
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "a metric needs at least one sample");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            min: v[0],
            max: v[0],
            n,
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        min: v[0],
        max: v[n - 1],
        n,
    }
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// The `p`-th percentile (`0 < p < 1`, nearest rank), reported only
/// when at least ten samples lie beyond it; fewer make the tail a
/// guess, so the caller gets `None` instead of a number.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(500.0));
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // 999 samples leave only 9 beyond the 99th percentile.
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
