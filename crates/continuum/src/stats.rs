//! Small statistics helpers shared by monitors and experiment harnesses.

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use myrtus_continuum::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Summary of a sample set with order statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary from samples. Returns `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |p: f64| -> f64 {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        Some(Summary {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_equals_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = Summary::of(&xs).expect("non-empty");
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.count, 1000);
        assert!((s.p50 - 500.0).abs() <= 1.0);
        assert!((s.p95 - 950.0).abs() <= 1.0);
    }
}
