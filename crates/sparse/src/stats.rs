//! Value and exponent statistics for matrices and Krylov vectors.
//!
//! Backs Figure 2 (value/exponent histograms of Krylov vectors — the
//! decorrelation argument of §III-A) and Figure 10 (base-2 exponent
//! histogram of PR02R's non-zeros).

/// Unbiased base-2 exponent of a nonzero finite value
/// (`floor(log2(|v|))`, exact, including subnormals).
#[inline]
pub fn exponent_of(v: f64) -> i32 {
    debug_assert!(v != 0.0 && v.is_finite());
    let bits = v.to_bits();
    let e = ((bits >> 52) & 0x7FF) as i32;
    if e != 0 {
        e - 1023
    } else {
        // Subnormal: leading mantissa bit at position p encodes 2^(p-1074),
        // and p = 63 - leading_zeros.
        let m = bits & ((1u64 << 52) - 1);
        -1011 - m.leading_zeros() as i32
    }
}

/// Histogram of base-2 exponents of the nonzero entries, as sorted
/// `(exponent, count)` pairs (Fig. 10).
pub fn exponent_histogram(values: &[f64]) -> Vec<(i32, usize)> {
    let mut map = std::collections::BTreeMap::new();
    for &v in values {
        if v != 0.0 && v.is_finite() {
            *map.entry(exponent_of(v)).or_insert(0usize) += 1;
        }
    }
    map.into_iter().collect()
}

/// `(min, max)` base-2 exponent over nonzero entries; `(0, 0)` if none.
pub fn exponent_range(values: &[f64]) -> (i32, i32) {
    let mut lo = i32::MAX;
    let mut hi = i32::MIN;
    for &v in values {
        if v != 0.0 && v.is_finite() {
            let e = exponent_of(v);
            lo = lo.min(e);
            hi = hi.max(e);
        }
    }
    if lo > hi {
        (0, 0)
    } else {
        (lo, hi)
    }
}

/// Fixed-width linear histogram of raw values over `[lo, hi]` (Fig. 2a).
/// Out-of-range values land in the edge bins. Returns bin centers and counts.
pub fn value_histogram(values: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<(f64, usize)> {
    assert!(bins > 0 && hi > lo);
    let mut counts = vec![0usize; bins];
    let w = (hi - lo) / bins as f64;
    for &v in values {
        let b = ((v - lo) / w).floor();
        let b = (b.max(0.0) as usize).min(bins - 1);
        counts[b] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (lo + (i as f64 + 0.5) * w, c))
        .collect()
}

/// Summary used by the Fig. 2 commentary: are the values uniform-ish
/// while the exponents cluster? Returns (distinct exponents covering 90 %
/// of mass, total distinct exponents).
pub fn exponent_concentration(values: &[f64]) -> (usize, usize) {
    let hist = exponent_histogram(values);
    let total: usize = hist.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return (0, 0);
    }
    let mut counts: Vec<usize> = hist.iter().map(|&(_, c)| c).collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let mut acc = 0usize;
    let mut k = 0usize;
    for c in counts {
        acc += c;
        k += 1;
        if acc * 10 >= total * 9 {
            break;
        }
    }
    (k, hist.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_of_known_values() {
        assert_eq!(exponent_of(1.0), 0);
        assert_eq!(exponent_of(1.5), 0);
        assert_eq!(exponent_of(2.0), 1);
        assert_eq!(exponent_of(-0.25), -2);
        assert_eq!(exponent_of(0.75), -1);
        assert_eq!(exponent_of(f64::MIN_POSITIVE), -1022);
        assert_eq!(exponent_of(f64::MIN_POSITIVE / 2.0), -1023);
        assert_eq!(exponent_of(f64::from_bits(1)), -1074);
    }

    #[test]
    fn histogram_counts_and_range() {
        let vals = [1.0, 1.5, -2.0, 0.25, 0.0, 3.9];
        let h = exponent_histogram(&vals);
        // exponents: 0, 0, 1, -2, (skip 0.0), 1
        assert_eq!(h, vec![(-2, 1), (0, 2), (1, 2)]);
        assert_eq!(exponent_range(&vals), (-2, 1));
        assert_eq!(exponent_range(&[0.0]), (0, 0));
    }

    #[test]
    fn value_histogram_bins() {
        let vals = [-1.0, -0.5, 0.0, 0.5, 0.99, 2.0];
        let h = value_histogram(&vals, -1.0, 1.0, 4);
        let counts: Vec<usize> = h.iter().map(|&(_, c)| c).collect();
        // bins: [-1,-0.5): {-1}, [-0.5,0): {-0.5}, [0,0.5): {0}, [0.5,1]: {0.5,0.99,2.0->clamped}
        assert_eq!(counts, vec![1, 1, 1, 3]);
        assert_eq!(counts.iter().sum::<usize>(), 6);
    }

    #[test]
    fn concentration_separates_clustered_from_wide() {
        // Clustered: all exponents equal.
        let clustered: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 / 256.0).collect();
        let (k, total) = exponent_concentration(&clustered);
        assert_eq!((k, total), (1, 1));
        // Wide: one value per binade.
        let wide: Vec<f64> = (0..40).map(|i| f64::powi(2.0, i)).collect();
        let (k2, total2) = exponent_concentration(&wide);
        assert_eq!(total2, 40);
        assert!(k2 >= 36);
    }
}
