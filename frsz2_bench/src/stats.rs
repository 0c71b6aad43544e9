//! Order statistics used by the run report and `--compare`.

/// Samples that must lie strictly beyond a reported percentile: a
/// percentile with fewer is an extrapolation, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of ascending `sorted`:
/// the sample at rank `⌈p·n/100⌉`. Refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank — so `p90` needs at
/// least 100 samples and `p50` at least 20.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank_of = |n: usize| ((p / 100.0) * n as f64).ceil() as usize;
    let n = sorted.len();
    let rank = rank_of(n);
    if rank == 0 || n - rank < MIN_BEYOND {
        let needed = (1..)
            .find(|&m| m - rank_of(m) >= MIN_BEYOND)
            .expect("p < 100 leaves room beyond the rank");
        return Err(format!(
            "p{p} needs at least {needed} samples ({MIN_BEYOND} beyond it), got {n}"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Ascending copy of `values` (total order, so NaN cannot panic a sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the `exclusive` method of Python's
/// `statistics.quantiles(values, n=4)` — the definition the benchmark's
/// run-to-run spread is judged by. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (the run-to-run
/// spread); `None` below two samples or at a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0).unwrap(), 50.0);
        assert_eq!(percentile(&s, 90.0).unwrap(), 90.0);
        let s = ramp(101);
        // ⌈0.9 · 101⌉ = 91 → the 91st sample; 10 lie beyond it.
        assert_eq!(percentile(&s, 90.0).unwrap(), 91.0);
        assert_eq!(percentile(&s, 50.0).unwrap(), 51.0);
        // Order statistics, not interpolation: duplicates are fine.
        let s = sorted(&[3.0, 1.0, 2.0, 2.0, 5.0, 4.0, 1.0, 2.0, 9.0, 7.0].repeat(4));
        assert_eq!(percentile(&s, 50.0).unwrap(), 2.0);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let err = percentile(&ramp(99), 90.0).unwrap_err();
        assert!(err.contains("at least 100 samples"), "{err}");
        assert!(percentile(&ramp(100), 90.0).is_ok());
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&ramp(20), 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&ramp(10)), 5.5);
        assert_eq!(relative_spread(&ramp(10)), Some((8.25 - 2.75) / 5.5));
    }
}
