//! Order statistics with the sample count carried beside every value.

/// Samples a percentile needs beyond it before it is reported as
/// supported (choosing-metrics §1).
pub const TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample so an unexercised metric reads 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the acceptance driver
/// computes spreads with. Fewer than two samples have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile `p` in (0, 1], and how many samples lie beyond
/// it. A tail percentile is *supported* only when that count reaches
/// [`TAIL_SAMPLES`]; an unsupported one is still returned so every
/// workload reports every metric, and the caller prints the count.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let v = sorted(values);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// A metric value with what it was computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Samples behind `value`.
    pub n: usize,
}

impl Summary {
    /// Median with quartiles over per-job samples.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            value: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A value that is not a median of samples (a ratio of totals, a
    /// count): quartiles collapse onto it and `n` says what it covers.
    pub fn single(value: f64, n: usize) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let (p, beyond) = percentile(&v, 0.9);
        assert_eq!((p, beyond), (90.0, 9));
        assert!(beyond < TAIL_SAMPLES, "99 samples leave 9 beyond p90");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, beyond) = percentile(&v, 0.9);
        assert_eq!((p, beyond), (90.0, 10));
        assert!(beyond >= TAIL_SAMPLES);
        assert_eq!(percentile(&[], 0.9), (0.0, 0));
        assert_eq!(percentile(&[5.0], 0.9), (5.0, 0));
    }

    #[test]
    fn summary_carries_its_sample_count() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.value, s.n), (3.0, 5));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(
            Summary::single(9.0, 40),
            Summary {
                value: 9.0,
                q1: 9.0,
                q3: 9.0,
                n: 40
            }
        );
    }
}
