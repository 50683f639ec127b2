//! Sample statistics: quantiles by the same rule as Python's
//! `statistics.quantiles` (its default "exclusive" method), the
//! "highest percentile with ten samples beyond it" rule, and the
//! per-metric summary the report prints.

/// How many samples must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The `p`-quantile (`0 < p < 1`) of an ascending sample, interpolated at
/// rank `p * (n + 1)` — the rule `statistics.quantiles(data, n=k)` uses
/// for its cut points `i / k`, including its clamping at the ends.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `(0, 1)`.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!(p > 0.0 && p < 1.0, "quantile {p} outside (0, 1)");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
}

/// Sorts a copy of `values` ascending (NaN-free input expected).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The highest percentile on the ladder (50, 90, 99, 99.9) that has at
/// least [`TAIL_SAMPLES`] samples beyond it, or `None` when even the
/// median has fewer (fewer than 20 samples).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| samples as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES as f64 - 1e-9)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Summary {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
        }
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + b.abs())
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values printed by Python's
        // `statistics.quantiles(data, n=4)` for each sample.
        let cases: [(&[f64], [f64; 3]); 5] = [
            (&[1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 3.0, 4.5]),
            (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
            (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
            (
                &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
                [27.5, 55.0, 82.5],
            ),
            (&[5.5, 1.25, 9.0, 2.0, 7.75, 3.5], [1.8125, 4.5, 8.0625]),
        ];
        for (data, want) in cases {
            let s = Summary::of(data);
            assert!(close(s.q1, want[0]), "{data:?}: q1 {} != {}", s.q1, want[0]);
            assert!(close(s.median, want[1]), "{data:?}: median {}", s.median);
            assert!(close(s.q3, want[2]), "{data:?}: q3 {}", s.q3);
            assert_eq!(s.n, data.len());
        }
    }

    #[test]
    fn p90_of_one_to_hundred_matches_python() {
        // statistics.quantiles(range(1, 101), n=10)[-1] == 90.9
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(quantile(&data, 0.9), 90.9));
    }

    #[test]
    fn median_of_even_sample_is_mean_of_middle_pair() {
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.0]), 7.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!(close(s.spread(), (3.75 - 1.25) / 2.5));
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
