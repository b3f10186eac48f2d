//! Order statistics for the timed reps and for the A-A comparison.

/// Minimum, median and maximum of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub med: f64,
    pub max: f64,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    let mid = v.len() / 2;
    let med = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    Summary {
        min: v[0],
        med,
        max: v[v.len() - 1],
    }
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) gives them — the
/// rule the acceptance check is stated in.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / summarize(xs).med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.med, s.max), (1.0, 2.0, 3.0));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.min, s.med, s.max), (1.0, 2.5, 4.0));
        let s = summarize(&[7.0]);
        assert_eq!((s.min, s.med, s.max), (7.0, 7.0, 7.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
