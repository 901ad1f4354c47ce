//! Order statistics for the report: medians, quartiles, and the tail
//! percentile rule (a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it).

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [(f64, &str); 4] = [(0.99, "p99"), (0.95, "p95"), (0.90, "p90"), (0.75, "p75")];

/// Median of `xs` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
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

/// Value at percentile `p` by nearest rank, and how many samples lie
/// strictly beyond that rank.
fn at_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The highest tail percentile of `xs` with at least [`MIN_BEYOND`]
/// samples beyond it, as `(label, value)`. `None` when even p75 has too
/// few samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    TAILS.iter().find_map(|&(p, label)| {
        let (v, beyond) = at_rank(&s, p);
        (beyond >= MIN_BEYOND).then_some((label, v))
    })
}

/// Percentile `p` of `xs` (nearest rank) when at least [`MIN_BEYOND`]
/// samples lie beyond it, else the median. On the 2-vCPU VM the
/// benchmark was built on, an idle thread's 500 µs sleep overshoots by
/// 2.5 ms at p99 and 10 ms at p99.9 (the host deschedules the vCPU), so
/// the benchmark fixes its tail at p95 (`cpu_tail_ms`) rather than p99.
pub fn percentile_or_median(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    let (v, beyond) = at_rank(&s, p);
    if beyond >= MIN_BEYOND {
        Some(v)
    } else {
        median(&s)
    }
}

/// Median and tail of one timing, with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Option<Self> {
        Some(Self {
            n: xs.len(),
            median: median(xs)?,
            tail: tail(xs),
        })
    }

    /// `"median 1.23 (n=3)"` or `"median 1.23, p95 4.56 (n=400)"`.
    pub fn describe(&self, digits: usize) -> String {
        match self.tail {
            Some((label, v)) => format!(
                "median {:.digits$}, {label} {v:.digits$} (n={})",
                self.median, self.n
            ),
            None => format!("median {:.digits$} (n={})", self.median, self.n),
        }
    }
}

/// [`Summary::describe`] of `xs` plus its interquartile range as a share
/// of the median; `"-"` for no samples.
pub fn describe(xs: &[f64], digits: usize) -> String {
    let Some(s) = Summary::of(xs) else {
        return "-".into();
    };
    match relative_spread(xs) {
        Some(r) => format!("{}, iqr {:.1}%", s.describe(digits), r * 100.0),
        None => s.describe(digits),
    }
}

/// Interquartile range of `xs` as a share of its median: the spread
/// figure the run-to-run steadiness check uses.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs)?)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: rank 990 is p99, exactly 10 beyond.
        assert_eq!(tail(&xs(1000)), Some(("p99", 990.0)));
        // 999 samples: p99 has 9 beyond, p95 (rank 950) has 49.
        assert_eq!(tail(&xs(999)), Some(("p95", 950.0)));
        // 200 samples: p95 at rank 190, exactly 10 beyond.
        assert_eq!(tail(&xs(200)), Some(("p95", 190.0)));
        // 100 samples: p90 at rank 90, exactly 10 beyond.
        assert_eq!(tail(&xs(100)), Some(("p90", 90.0)));
        // 40 samples: p75 at rank 30, exactly 10 beyond.
        assert_eq!(tail(&xs(40)), Some(("p75", 30.0)));
        // 39 samples: nothing qualifies.
        assert_eq!(tail(&xs(39)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn fixed_percentile_falls_back_to_the_median() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_or_median(&xs, 0.95), Some(190.0));
        assert_eq!(percentile_or_median(&xs[..199], 0.95), Some(100.0));
        assert_eq!(percentile_or_median(&[], 0.95), None);
    }

    #[test]
    fn summary_without_enough_samples_has_no_tail() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!(s.n, 3);
        assert_eq!(s.tail, None);
        assert_eq!(s.median, 2.0);
        assert!(Summary::of(&[]).is_none());
    }
}
