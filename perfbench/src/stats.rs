//! Summary statistics of the benchmark: medians, the tail-percentile
//! rule, and the seeded generator every workload draws its inputs from.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller reports a metric that has at
/// least one sample by construction.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A tail percentile that is still backed by data: the requested
/// percentile `want` (nearest rank), lowered when needed to the highest
/// rank that leaves at least `beyond` samples above it. Returns the
/// percentile actually used and its value, or `None` when there are too
/// few samples for any rank to qualify.
pub fn tail_percentile(xs: &[f64], want: f64, beyond: usize) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least `want`% of the
    // samples at or below it (0-based index).
    let wanted_rank = ((want / 100.0) * n as f64).ceil().max(1.0) as usize - 1;
    let rank = wanted_rank.min(n - 1 - beyond);
    let used = 100.0 * (rank + 1) as f64 / n as f64;
    Some((used.min(want), v[rank]))
}

/// A statistic of the quietest stretch of a run: `xs`, in the order
/// measured, is cut into consecutive windows of `window` samples (a
/// shorter remainder is dropped), `stat` is taken in each, and the lowest
/// value is returned with every window's value, in order. For a quantity
/// with a floor the host cannot lower, a slow spell then moves the result
/// only if it covers every window. `None` when there is no full window or
/// `stat` has no value for one.
pub fn quietest(
    xs: &[f64],
    window: usize,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<(f64, Vec<f64>)> {
    let per_window: Option<Vec<f64>> = xs.chunks_exact(window.max(1)).map(stat).collect();
    let per_window = per_window.filter(|v| !v.is_empty())?;
    let lowest = per_window.iter().copied().fold(f64::INFINITY, f64::min);
    Some((lowest, per_window))
}

/// SplitMix64: a tiny, well-mixed generator, so every input a workload
/// builds is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p95_is_kept_when_ten_samples_lie_beyond_it() {
        // 200 samples 1..=200: nearest-rank p95 is the 190th value and
        // exactly ten samples (191..=200) lie above it.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 95.0, 10), Some((95.0, 190.0)));
    }

    #[test]
    fn percentile_is_lowered_until_ten_samples_lie_beyond_it() {
        // 100 samples: p95 would leave five above it, so the rule falls
        // back to the 90th value (p90), which leaves ten.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (used, value) = tail_percentile(&xs, 95.0, 10).unwrap();
        assert_eq!(value, 90.0);
        assert!((used - 90.0).abs() < 1e-9);
        let beyond = xs.iter().filter(|&&x| x > value).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn no_percentile_without_enough_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 95.0, 10), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 95.0, 10).map(|(_, v)| v), Some(1.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=300).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 50.0, 10), Some((50.0, 150.0)));
    }

    #[test]
    fn quietest_window_ignores_a_slow_spell() {
        // Three windows of 200 in measured order; the first is a slow
        // spell that shifts every sample by 100. Each window's p95 is its
        // 190th value: 290, 190 and 190.
        let mut xs: Vec<f64> = (1..=200).map(|x| f64::from(x) + 100.0).collect();
        xs.extend((1..=200).map(f64::from));
        xs.extend((1..=200).map(f64::from));
        let p95 = |c: &[f64]| tail_percentile(c, 95.0, 10).map(|p| p.1);
        let (lowest, per_window) = quietest(&xs, 200, p95).unwrap();
        assert_eq!(per_window, vec![290.0, 190.0, 190.0]);
        assert_eq!(lowest, 190.0);
        // A pooled p95 lands in the slow spell.
        assert_eq!(tail_percentile(&xs, 95.0, 10), Some((95.0, 270.0)));
        let (p50, _) = quietest(&xs, 200, |c| Some(median(c))).unwrap();
        assert_eq!(p50, 100.5);
    }

    #[test]
    fn quietest_drops_the_remainder_and_needs_a_full_window() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.extend([0.0; 150]);
        let p95 = |c: &[f64]| tail_percentile(c, 95.0, 10).map(|p| p.1);
        assert_eq!(quietest(&xs, 200, p95), Some((190.0, vec![190.0])));
        assert_eq!(quietest(&xs[..199], 200, p95), None);
        // A window too small for the percentile rule has no value.
        assert_eq!(quietest(&xs[..10], 5, p95), None);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(7).next_u64(), SplitMix64::new(8).next_u64());
    }
}
