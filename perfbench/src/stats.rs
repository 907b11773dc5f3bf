//! Sample summaries: median, quartiles and the highest percentile that
//! still has at least ten samples beyond it. No best-of-N: the spread
//! is part of every reported number.

/// A summary of one metric's samples.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// The highest of p99.9/p99/p95/p90/p75 with at least ten samples
    /// beyond it, as `(percentile, value)`; `None` below 40 samples.
    pub tail: Option<(f64, f64)>,
}

/// Percentiles considered for the tail, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

impl Summary {
    /// Summarises `samples` (must be non-empty and free of NaN).
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAILS
            .iter()
            .find(|&&p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
            .map(|&p| (p, quantile(&sorted, p / 100.0)));
        Self {
            n,
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            tail,
        }
    }

    /// The tail value, or the maximum's stand-in (the third quartile)
    /// when there are too few samples for any tail percentile.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(self.q3, |(_, v)| v)
    }

    /// `median [q1, q3] n=…` plus the tail, for the report lines.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={}", fmt(v)),
            None => String::new(),
        };
        format!(
            "median {} [q1 {}, q3 {}]{tail} n={}",
            fmt(self.median),
            fmt(self.q1),
            fmt(self.q3),
            self.n
        )
    }
}

/// Means of consecutive runs of `samples`, about `groups` of them: for
/// per-call timings of a few nanoseconds, whose single samples are
/// whole nanoseconds and whose medians would repeat to the digit.
pub fn group_means(samples: &[f64], groups: usize) -> Vec<f64> {
    let size = (samples.len() / groups.max(1)).max(1);
    samples
        .chunks(size)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Linear-interpolated quantile of sorted data (`q` in `[0, 1]`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Four significant digits, whatever the magnitude.
pub fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_and_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!((s.q1 - 25.75).abs() < 1e-9);
        // 100 samples: p90 has 10 beyond it, p95 only 5.
        assert_eq!(s.tail.map(|t| t.0), Some(90.0));
    }

    #[test]
    fn group_means_average_runs() {
        let xs = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(group_means(&xs, 2), vec![2.0, 6.0, 9.0]);
        assert_eq!(group_means(&xs, 10), xs.to_vec());
    }

    #[test]
    fn few_samples_have_no_tail() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.median, 2.0);
        assert!(s.tail.is_none());
        assert_eq!(s.tail_value(), s.q3);
    }
}
