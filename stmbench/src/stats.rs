//! Exact order statistics over raw samples, and the compare verdict.
//!
//! Every gated number is computed from the raw samples, never from a
//! bucketed histogram: `stm_obs::Histogram` keeps log2 buckets, so its
//! p99 is a power of two and cannot resolve a 10% change.
//!
//! Quantiles use the "exclusive" method of Python's
//! `statistics.quantiles` (the default), so the medians and quartiles
//! `stmbench compare` prints are the ones a script computes from the
//! same values.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as written in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `true` when `b` reads strictly better than `a`.
    pub fn improves(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => b < a,
            Better::Higher => b > a,
        }
    }
}

/// The `num/den` quantile of ascending `sorted`, by Python's exclusive
/// method: position `num/den · (n + 1)`, clamped to the inner interval
/// and linearly inter- (or, at the clamp, extra-) polated exactly as
/// `statistics.quantiles` does. A single sample is its own quantile.
///
/// # Panics
/// On an empty slice.
pub fn quantile(sorted: &[f64], num: usize, den: usize) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (num * m / den).clamp(1, n - 1);
    let delta = (num * m) as f64 - (j * den) as f64;
    let den = den as f64;
    (sorted[j - 1] * (den - delta) + sorted[j] * delta) / den
}

/// The `q` quantile (0 ≤ q ≤ 1) of ascending `sorted` by linear
/// interpolation between closest ranks (Python's "inclusive" method).
/// Unlike [`quantile`] it never leaves the sample range, so the p99 of
/// a campaign's three passes is at most its slowest pass.
///
/// # Panics
/// On an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let i = pos.floor() as usize;
    match sorted.get(i + 1) {
        Some(next) => sorted[i] + (pos - i as f64) * (next - sorted[i]),
        None => sorted[i],
    }
}

/// Median, quartiles and p99 of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes `values` (any order). `None` for no values.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            q1: quantile(&v, 1, 4),
            median: quantile(&v, 2, 4),
            q3: quantile(&v, 3, 4),
            p99: quantile(&v, 99, 100),
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

/// The outcome of comparing one (metric, workload) pair across two
/// sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is better by more than the base runs' own spread,
    /// and the new run wins at least nine tenths of the paired runs.
    Better,
    /// The new median is worse than the base median by more than the
    /// bound.
    Worse,
    /// Neither.
    Same,
    /// A spread is wider than the bound, so the medians cannot be told
    /// apart at this bound.
    Unresolved,
}

impl Verdict {
    /// Lowercase name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares new runs `b` against base runs `a` of one metric.
///
/// `bound` is the share of the base median by which the metric may get
/// worse. When either side's interquartile spread exceeds the bound the
/// verdict is [`Verdict::Unresolved`], unless every new run reads better
/// (or, past the bound, worse) than every base run.
///
/// # Panics
/// When either side has no values.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let sa = Summary::of(a).expect("base runs");
    let sb = Summary::of(b).expect("new runs");
    let worsening = match better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
    };
    let every = |pred: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| pred(x, y)));
    if sa.spread().max(sb.spread()) > bound {
        return if every(&|x, y| better.improves(x, y)) {
            Verdict::Better
        } else if worsening > bound && every(&|x, y| better.improves(y, x)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|&(&x, &y)| better.improves(x, y))
        .count();
    if -worsening > sa.spread() && wins * 10 >= pairs * 9 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 1, 4), 2.75);
        assert_eq!(quantile(&v, 2, 4), 5.5);
        assert_eq!(quantile(&v, 3, 4), 8.25);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the clamp.
        let two = [1.0, 2.0];
        assert_eq!(quantile(&two, 1, 4), 0.75);
        assert_eq!(quantile(&two, 2, 4), 1.5);
        assert_eq!(quantile(&two, 3, 4), 2.25);
        // statistics.quantiles(range(1, 101), n=100)[98] == 99.99
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 99, 100) - 99.99).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 3, 4), 7.0);
    }

    #[test]
    fn percentiles_interpolate_inside_the_sample_range() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.5);
        assert!((percentile(&v, 0.99) - 9.91).abs() < 1e-12);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        // Three passes: p99 stays below the slowest, unlike the
        // exclusive method, which extrapolates past it.
        let passes = [4.8, 4.9, 5.3];
        assert!(percentile(&passes, 0.99) <= 5.3);
        assert!(quantile(&passes, 99, 100) > 5.3);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_sorts_and_measures_spread() {
        let s = Summary::of(&[10.0, 1.0, 4.0, 3.0, 2.0, 9.0, 6.0, 8.0, 7.0, 5.0]).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same within the bound.
        let same = [100.2, 100.9, 99.1, 100.4, 99.8];
        assert_eq!(verdict(&base, &same, Better::Lower, 0.05), Verdict::Same);
        // 10% slower against a 5% bound.
        let slow: Vec<f64> = base.iter().map(|x| x * 1.10).collect();
        assert_eq!(verdict(&base, &slow, Better::Lower, 0.05), Verdict::Worse);
        // The same change on a higher-is-better metric is a gain.
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.05), Verdict::Better);
        // 3% faster, beyond the base spread, winning every pair.
        let fast: Vec<f64> = base.iter().map(|x| x * 0.97).collect();
        assert_eq!(verdict(&base, &fast, Better::Lower, 0.05), Verdict::Better);
        // A spread wider than the bound cannot resolve a small change.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        let shifted = [81.0, 118.0, 103.0, 92.0, 112.0];
        assert_eq!(
            verdict(&noisy, &shifted, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // ... unless every new run is better than every base run.
        let far = [10.0, 12.0, 11.0, 9.0, 10.5];
        assert_eq!(verdict(&noisy, &far, Better::Lower, 0.05), Verdict::Better);
        // ... or, past the bound, worse than every base run.
        let awful = [300.0, 320.0, 310.0, 290.0, 305.0];
        assert_eq!(verdict(&noisy, &awful, Better::Lower, 0.05), Verdict::Worse);
    }
}
