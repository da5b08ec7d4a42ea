//! Order statistics for the report.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, linearly
/// interpolated between the two nearest ranks. An empty slice has none:
/// a metric nothing was measured for is left out, never reported as 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    match sorted.len() {
        0 => None,
        1 => Some(sorted[0]),
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
        }
    }
}

/// Sorts `values` in place and returns its `q`-quantile.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![40.0, 10.0, 30.0, 20.0];
        assert_eq!(median(&mut v), Some(25.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(10.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(40.0));
        assert!((quantile_sorted(&v, 0.99).unwrap() - 39.7).abs() < 1e-9);
        assert_eq!(median(&mut [7.0]), Some(7.0));
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [1.0, 3.0, 2.0]), Some(2.0));
    }
}
