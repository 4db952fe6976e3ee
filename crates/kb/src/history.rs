//! Historical batch store for learning agents and the control plane.
//!
//! Besides the live Resource Registry, the KB keeps "historical batch
//! data needed to implement, for example, Reinforcement Learning-based
//! strategy within the Network Manager" (paper Sect. VI). This module is
//! a per-series time-series store with window and tail queries and
//! fixed-bucket downsampling. Each series is a bounded ring: once full,
//! every append evicts the oldest sample in O(1).

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use myrtus_continuum::stats::Summary;
use myrtus_continuum::time::{SimDuration, SimTime};

/// One sample of a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Sample instant.
    pub at: SimTime,
    /// Value.
    pub value: f64,
}

/// Store of named time series, each a ring with bounded retention.
///
/// # Examples
///
/// ```
/// use myrtus_kb::history::HistoryStore;
/// use myrtus_continuum::time::SimTime;
///
/// let mut h = HistoryStore::new(1_000);
/// h.append("edge-0/util", SimTime::from_millis(1), 0.25);
/// h.append("edge-0/util", SimTime::from_millis(2), 0.75);
/// let s = h.summary("edge-0/util", SimTime::ZERO, SimTime::from_secs(1)).unwrap();
/// assert_eq!(s.count, 2);
/// assert_eq!(h.last_n("edge-0/util", 1)[0].value, 0.75);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryStore {
    series: BTreeMap<String, VecDeque<Sample>>,
    max_samples_per_series: usize,
}

impl HistoryStore {
    /// Creates a store that retains at most `max_samples_per_series`
    /// samples per series (oldest evicted first); 0 means unbounded.
    pub fn new(max_samples_per_series: usize) -> Self {
        HistoryStore { series: BTreeMap::new(), max_samples_per_series }
    }

    /// Appends a sample, evicting the series' oldest sample when it is
    /// already at the retention cap. The series name is only copied the
    /// first time the series appears.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when samples go backwards in time within a
    /// series.
    pub fn append(&mut self, series: &str, at: SimTime, value: f64) {
        let v = match self.series.get_mut(series) {
            Some(v) => v,
            None => self.series.entry(series.to_owned()).or_default(),
        };
        debug_assert!(v.back().is_none_or(|s| s.at <= at), "samples must be in time order");
        if self.max_samples_per_series > 0 && v.len() >= self.max_samples_per_series {
            v.pop_front();
        }
        v.push_back(Sample { at, value });
    }

    /// Names of the stored series.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// Number of samples in a series.
    pub fn len(&self, series: &str) -> usize {
        self.series.get(series).map_or(0, VecDeque::len)
    }

    /// Whether the store holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Samples of `series` with `from <= at < to`.
    pub fn window(&self, series: &str, from: SimTime, to: SimTime) -> Vec<Sample> {
        self.series
            .get(series)
            .map(|v| v.iter().filter(|s| s.at >= from && s.at < to).copied().collect())
            .unwrap_or_default()
    }

    /// The last `n` samples of `series`, oldest first (fewer when the
    /// series is shorter; empty when absent). Costs O(n), not O(len).
    pub fn last_n(&self, series: &str, n: usize) -> Vec<Sample> {
        self.series
            .get(series)
            .map(|v| v.range(v.len().saturating_sub(n)..).copied().collect())
            .unwrap_or_default()
    }

    /// Statistical summary of a window, if it holds samples.
    pub fn summary(&self, series: &str, from: SimTime, to: SimTime) -> Option<Summary> {
        let vals: Vec<f64> = self.window(series, from, to).iter().map(|s| s.value).collect();
        Summary::of(&vals)
    }

    /// Downsamples a window into fixed `bucket`-wide means (empty buckets
    /// are skipped). Returns `(bucket start, mean)` pairs.
    pub fn downsample(
        &self,
        series: &str,
        from: SimTime,
        to: SimTime,
        bucket: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        if bucket.is_zero() {
            return Vec::new();
        }
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut acc: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
        for s in self.window(series, from, to) {
            let idx = (s.at.as_micros() - from.as_micros()) / bucket.as_micros();
            let e = acc.entry(idx).or_insert((0.0, 0));
            e.0 += s.value;
            e.1 += 1;
        }
        for (idx, (sum, n)) in acc {
            let start = from + SimDuration::from_micros(idx * bucket.as_micros());
            out.push((start, sum / n as f64));
        }
        out
    }

    /// Latest sample of a series.
    pub fn latest(&self, series: &str) -> Option<Sample> {
        self.series.get(series).and_then(|v| v.back().copied())
    }
}

/// Whether a window of samples shows a (weakly) rising trend: at least
/// two samples, non-decreasing throughout, and strictly higher at the
/// end than at the start. The MAPE Analyze phase uses this over rolling
/// windows to react to *degradation trends* rather than single
/// snapshots.
pub fn trend_rising(samples: &[Sample]) -> bool {
    samples.len() >= 2
        && samples.windows(2).all(|w| w[1].value >= w[0].value)
        && samples.last().map(|s| s.value).unwrap_or(0.0)
            > samples.first().map(|s| s.value).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_half_open() {
        let mut h = HistoryStore::new(0);
        for ms in [1u64, 2, 3, 4] {
            h.append("s", SimTime::from_millis(ms), ms as f64);
        }
        let w = h.window("s", SimTime::from_millis(2), SimTime::from_millis(4));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].value, 2.0);
        assert_eq!(w[1].value, 3.0);
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut h = HistoryStore::new(3);
        for ms in 1..=5u64 {
            h.append("s", SimTime::from_millis(ms), ms as f64);
        }
        assert_eq!(h.len("s"), 3);
        assert_eq!(h.window("s", SimTime::ZERO, SimTime::from_secs(1))[0].value, 3.0);
    }

    fn values(samples: &[Sample]) -> Vec<f64> {
        samples.iter().map(|s| s.value).collect()
    }

    fn filled(cap: usize, n: u64) -> HistoryStore {
        let mut h = HistoryStore::new(cap);
        for ms in 1..=n {
            h.append("s", SimTime::from_millis(ms), ms as f64);
        }
        h
    }

    #[test]
    fn ring_retains_exactly_the_cap() {
        let at_cap = filled(4, 4);
        assert_eq!(at_cap.len("s"), 4, "nothing evicted at exactly the cap");
        assert_eq!(values(&at_cap.last_n("s", 99)), vec![1.0, 2.0, 3.0, 4.0]);
        let over = filled(4, 5);
        assert_eq!(over.len("s"), 4, "one over the cap evicts one");
        assert_eq!(values(&over.last_n("s", 99)), vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn ring_keeps_time_order_across_many_evictions() {
        let h = filled(5, 103);
        let all = h.last_n("s", 99);
        assert_eq!(values(&all), vec![99.0, 100.0, 101.0, 102.0, 103.0]);
        assert!(all.windows(2).all(|w| w[0].at < w[1].at), "oldest first after wrap");
        // The other readers see the same ring contents.
        assert_eq!(h.latest("s"), all.last().copied());
        assert_eq!(h.window("s", SimTime::ZERO, SimTime::MAX), all);
        let tail = h.window("s", SimTime::from_millis(101), SimTime::from_millis(103));
        assert_eq!(values(&tail), vec![101.0, 102.0]);
    }

    #[test]
    fn last_n_below_at_and_above_the_length() {
        let h = filled(0, 4);
        assert_eq!(values(&h.last_n("s", 0)), Vec::<f64>::new());
        assert_eq!(values(&h.last_n("s", 3)), vec![2.0, 3.0, 4.0]);
        assert_eq!(values(&h.last_n("s", 4)), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(values(&h.last_n("s", 5)), vec![1.0, 2.0, 3.0, 4.0]);
        assert!(h.last_n("nope", 3).is_empty());
    }

    #[test]
    fn trend_detection() {
        let s = |vals: &[f64]| -> Vec<Sample> {
            vals.iter()
                .enumerate()
                .map(|(i, &v)| Sample { at: SimTime::from_micros(i as u64), value: v })
                .collect()
        };
        assert!(trend_rising(&s(&[0.1, 0.2, 0.3])));
        assert!(trend_rising(&s(&[0.1, 0.1, 0.3])));
        assert!(!trend_rising(&s(&[0.3, 0.2, 0.1])));
        assert!(!trend_rising(&s(&[0.1, 0.1, 0.1])));
        assert!(!trend_rising(&s(&[0.1, 0.3, 0.2])));
        assert!(!trend_rising(&s(&[0.5])));
        assert!(!trend_rising(&[]));
    }

    #[test]
    fn downsample_means_per_bucket() {
        let mut h = HistoryStore::new(0);
        // Two samples in bucket 0, one in bucket 2.
        h.append("s", SimTime::from_millis(1), 1.0);
        h.append("s", SimTime::from_millis(2), 3.0);
        h.append("s", SimTime::from_millis(25), 10.0);
        let ds = h.downsample(
            "s",
            SimTime::ZERO,
            SimTime::from_millis(100),
            SimDuration::from_millis(10),
        );
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0], (SimTime::ZERO, 2.0));
        assert_eq!(ds[1], (SimTime::from_millis(20), 10.0));
    }

    #[test]
    fn empty_series_queries_are_benign() {
        let h = HistoryStore::new(0);
        assert!(h.window("nope", SimTime::ZERO, SimTime::MAX).is_empty());
        assert!(h.summary("nope", SimTime::ZERO, SimTime::MAX).is_none());
        assert!(h.latest("nope").is_none());
        assert_eq!(h.len("nope"), 0);
    }

    #[test]
    fn latest_and_names() {
        let mut h = HistoryStore::new(0);
        h.append("a", SimTime::from_millis(1), 1.0);
        h.append("b", SimTime::from_millis(2), 2.0);
        assert_eq!(h.latest("b").map(|s| s.value), Some(2.0));
        assert_eq!(h.series_names(), vec!["a", "b"]);
    }
}
