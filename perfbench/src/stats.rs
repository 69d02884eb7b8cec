//! Sample statistics: medians, the percentile rule, and failure ratios.

/// The `q`-th percentile of `samples` (nearest rank on the sorted
/// samples), or `None` when fewer than [`min_samples`]`(q)` samples
/// exist — a percentile is only reported when at least ten samples lie
/// beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.len() < min_samples(q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The fewest samples for which the `q`-th percentile has at least ten
/// samples above it: `n - ceil(q/100 * n) >= 10`.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q / 100.0) * n as f64).ceil() as usize;
            n >= rank + 10
        })
        .expect("some sample count satisfies the rule")
}

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Failed operations over attempted ones. Every failure counts: nothing
/// is filtered, and an empty run (no attempts) is not a pass.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    assert!(failed <= attempted, "more failures than attempts");
    if attempted == 0 {
        return 1.0;
    }
    failed as f64 / attempted as f64
}

/// The fastest observation of each piece of work: element `i` is the
/// least of the rows' `i`-th samples. The rows are repetitions of the
/// same work, so a sample above the least is time the host took away;
/// the result is as long as the shortest row.
pub fn fastest(rows: &[Vec<f64>]) -> Vec<f64> {
    let n = rows.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| rows.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(50.0), 20);
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&short, 90.0), None);
        let full: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&full, 90.0), Some(90.0));
    }

    #[test]
    fn ten_samples_lie_beyond_every_reported_percentile() {
        for q in [50.0, 90.0, 95.0] {
            for n in min_samples(q)..min_samples(q) + 300 {
                let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let p = percentile(&samples, q).expect("enough samples");
                let beyond = samples.iter().filter(|&&s| s > p).count();
                assert!(beyond >= 10, "q={q} n={n}: only {beyond} beyond");
            }
        }
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let p = percentile(&samples, 90.0);
        samples.sort_by(f64::total_cmp);
        assert_eq!(percentile(&samples, 90.0), p);
        assert_eq!(p, Some(179.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fastest_takes_each_position_on_its_own() {
        let rows = vec![
            vec![5.0, 1.0, 7.0],
            vec![2.0, 3.0, 9.0, 0.5],
            vec![4.0, 2.0, 6.0],
        ];
        assert_eq!(fastest(&rows), vec![2.0, 1.0, 6.0]);
        assert_eq!(fastest(&rows[..1]), rows[0]);
        assert!(fastest(&[]).is_empty());
    }

    #[test]
    fn failed_frac_counts_every_failure() {
        assert_eq!(failed_frac(200, 0), 0.0);
        assert_eq!(failed_frac(200, 3), 0.015);
        assert_eq!(failed_frac(4, 4), 1.0);
        // Nothing attempted is reported as total failure, not success.
        assert_eq!(failed_frac(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "more failures than attempts")]
    fn failed_frac_rejects_impossible_counts() {
        failed_frac(1, 2);
    }
}
