//! Order statistics over small samples of host timings.

/// Smallest value (`+inf` for an empty slice).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value (`-inf` for an empty slice).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Geometric mean of positive values; `0` when the slice is empty or any
/// value is not positive (a unit that found no valid schedule).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || x.is_nan()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or `0` when the denominator is zero (a layer that did no
/// work on this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_of_samples() {
        let xs = [3.0, 1.5, 2.0];
        assert_eq!(min(&xs), 1.5);
        assert_eq!(max(&xs), 3.0);
        assert_eq!(min(&[]), f64::INFINITY);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&xs, 90.0), 46.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn geomean_is_zero_when_a_unit_found_nothing() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[2.0, 0.0]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn ratio_of_an_idle_layer_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
