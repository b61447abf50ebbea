//! Percentiles and medians over raw nanosecond samples.
//!
//! Samples are kept as plain `u64`s (`obs::Histogram` is log₂-bucketed and
//! cannot resolve a change smaller than 2×) and summarised once per round.

/// A percentile in thousandths of a percent, so 99.9 is exact and rank
/// arithmetic stays in integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pct(pub u64);

impl Pct {
    pub const P50: Pct = Pct(50_000);
    pub const P99: Pct = Pct(99_000);
    /// Tail candidates, ascending.
    const LADDER: [Pct; 6] = [
        Pct(50_000),
        Pct(90_000),
        Pct(99_000),
        Pct(99_900),
        Pct(99_990),
        Pct(99_999),
    ];

    pub fn as_percent(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Nearest-rank position (1-based) of this percentile among `n` samples.
    fn rank(self, n: usize) -> usize {
        ((n as u64 * self.0).div_ceil(100_000) as usize).clamp(1, n)
    }
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn percentile(sorted: &[u64], pct: Pct) -> u64 {
    sorted[pct.rank(sorted.len()) - 1]
}

/// The highest percentile on the ladder that still has at least ten
/// samples beyond it — the tail that repeats. `None` below 20 samples.
pub fn supported_tail(n: usize) -> Option<Pct> {
    Pct::LADDER
        .iter()
        .copied()
        .rfind(|p| n > 0 && n - p.rank(n) >= 10)
}

/// Median of a set of per-round values (mean of the middle two when even).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// p50 / p99 of one round's samples of one operation class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatSummary {
    pub n: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Sorts `samples` in place. `None` when there are none.
pub fn summarize(samples: &mut [u64]) -> Option<LatSummary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(LatSummary {
        n: samples.len(),
        p50_ns: percentile(samples, Pct::P50),
        p99_ns: percentile(samples, Pct::P99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, Pct::P50), 50);
        assert_eq!(percentile(&s, Pct::P99), 99);
        assert_eq!(percentile(&s, Pct(100_000)), 100);
        assert_eq!(percentile(&s, Pct(1)), 1);
        // 10 000 samples: p99.9 is the 9 990th, not the 9 991st a float
        // product of 0.999 × 10 000 would round up to.
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&s, Pct(99_900)), 9_990);
        assert_eq!(percentile(&[7], Pct::P99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(Pct(50_000)));
        // p90 of 100 leaves exactly 10 beyond; p99 leaves 1.
        assert_eq!(supported_tail(100), Some(Pct(90_000)));
        assert_eq!(supported_tail(999), Some(Pct(90_000)));
        assert_eq!(supported_tail(1_000), Some(Pct(99_000)));
        assert_eq!(supported_tail(10_000), Some(Pct(99_900)));
        assert_eq!(supported_tail(100_000), Some(Pct(99_990)));
        assert_eq!(supported_tail(50_000_000), Some(Pct(99_999)));
    }

    #[test]
    fn median_over_rounds() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One slow build out of five does not move the reported value.
        assert_eq!(median(&[0.5, 0.5, 0.05, 0.5, 0.5]), Some(0.5));
    }

    #[test]
    fn summarize_sorts_and_counts() {
        let mut s = vec![5, 1, 9, 3, 7];
        let sum = summarize(&mut s).unwrap();
        assert_eq!((sum.n, sum.p50_ns, sum.p99_ns), (5, 5, 9));
        assert_eq!(summarize(&mut []), None);
    }
}
