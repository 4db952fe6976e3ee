//! Deterministic time series: append-only sample streams keyed by
//! `(series, label)`, fed by the simulator's periodic scrape timer.
//!
//! Unlike the counter/gauge registry in [`crate::metrics`], series
//! labels are *owned* strings, so one series per node/link/application
//! can be recorded without a static label table. Samples are stamped
//! with simulated time only and retained in insertion order, so the CSV
//! and JSONL exports are byte-reproducible across identical-seed runs.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// One sample of a time series: a value at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsSample {
    /// Simulated time of the sample, microseconds.
    pub at_us: u64,
    /// Sampled value.
    pub value: f64,
}

/// One label's sample stream within a series family.
#[derive(Debug)]
struct LabeledSeries {
    label: String,
    samples: Vec<TsSample>,
}

/// Append-only store of time series: a `BTreeMap` per series name, each
/// holding its labels as a label-sorted vector. Exports therefore still
/// walk `(series, label)` in sorted order, but the hot `record` path
/// finds an existing label by binary search **without allocating** — a
/// label `String` is only built the first time a series appears. With
/// tens of thousands of nodes sampled every scrape tick, that removes
/// one allocation per node per sample.
#[derive(Debug, Default)]
pub struct TimeSeriesStore {
    series: Mutex<BTreeMap<&'static str, Vec<LabeledSeries>>>,
}

impl TimeSeriesStore {
    /// An empty store.
    pub fn new() -> Self {
        TimeSeriesStore::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, Vec<LabeledSeries>>> {
        self.series.lock().expect("timeseries lock")
    }

    /// Appends a sample to `name{label}`.
    ///
    /// Samples are expected (but not required) to arrive in
    /// non-decreasing `at_us` order — the scrape timer guarantees that.
    pub fn record(&self, name: &'static str, label: &str, at_us: u64, value: f64) {
        let mut map = self.lock();
        let labels = map.entry(name).or_default();
        let sample = TsSample { at_us, value };
        match labels.binary_search_by(|ls| ls.label.as_str().cmp(label)) {
            Ok(i) => labels[i].samples.push(sample),
            Err(i) => {
                labels.insert(i, LabeledSeries { label: label.to_owned(), samples: vec![sample] })
            }
        }
    }

    /// All samples of `name{label}`, oldest first (empty when absent).
    pub fn series(&self, name: &'static str, label: &str) -> Vec<TsSample> {
        self.last_n(name, label, usize::MAX)
    }

    /// The last `n` samples of `name{label}`, oldest first. Copies only
    /// the tail, so the cost is O(n), not O(series length).
    pub fn last_n(&self, name: &'static str, label: &str, n: usize) -> Vec<TsSample> {
        let map = self.lock();
        let Some(labels) = map.get(name) else { return Vec::new() };
        match labels.binary_search_by(|ls| ls.label.as_str().cmp(label)) {
            Ok(i) => {
                let s = &labels[i].samples;
                s[s.len().saturating_sub(n)..].to_vec()
            }
            Err(_) => Vec::new(),
        }
    }

    /// Sorted `(series, label)` keys present in the store.
    pub fn keys(&self) -> Vec<(&'static str, String)> {
        self.lock()
            .iter()
            .flat_map(|(name, labels)| labels.iter().map(|ls| (*name, ls.label.clone())))
            .collect()
    }

    /// Total number of samples across all series.
    pub fn sample_count(&self) -> usize {
        self.lock().values().flat_map(|labels| labels.iter().map(|ls| ls.samples.len())).sum()
    }

    /// The whole store as CSV: `series,label,at_us,value`, sorted by
    /// series then label then sample order. An empty store yields the
    /// empty string (no header), so "no time series" is
    /// distinguishable from "an empty table".
    pub fn export_csv(&self) -> String {
        let s = self.lock();
        if s.is_empty() {
            return String::new();
        }
        let mut out = String::from("series,label,at_us,value\n");
        for (name, labels) in s.iter() {
            for ls in labels {
                for smp in &ls.samples {
                    out.push_str(&format!("{name},{},{},{}\n", ls.label, smp.at_us, smp.value));
                }
            }
        }
        out
    }

    /// The whole store as JSON Lines, one sample per line.
    pub fn export_jsonl(&self) -> String {
        let s = self.lock();
        let mut out = String::new();
        for (name, labels) in s.iter() {
            for ls in labels {
                for smp in &ls.samples {
                    out.push_str(&format!(
                        "{{\"series\":\"{}\",\"label\":\"{}\",\"at_us\":{},\"value\":{}}}\n",
                        crate::export::esc(name),
                        crate::export::esc(&ls.label),
                        smp.at_us,
                        smp.value
                    ));
                }
            }
        }
        out
    }
}

/// Parses a CSV produced by [`TimeSeriesStore::export_csv`] back into
/// `(series, label, samples)` triples in file order. Lines that do not
/// have exactly four comma-separated fields (including the header) are
/// skipped, so the parser is total.
pub fn parse_timeseries_csv(csv: &str) -> Vec<(String, String, Vec<TsSample>)> {
    let mut out: Vec<(String, String, Vec<TsSample>)> = Vec::new();
    for line in csv.lines() {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 || fields[0] == "series" {
            continue;
        }
        let (Ok(at_us), Ok(value)) = (fields[2].parse::<u64>(), fields[3].parse::<f64>()) else {
            continue;
        };
        let sample = TsSample { at_us, value };
        match out.last_mut() {
            Some((n, l, samples)) if n == fields[0] && l == fields[1] => samples.push(sample),
            _ => out.push((fields[0].to_owned(), fields[1].to_owned(), vec![sample])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let ts = TimeSeriesStore::new();
        ts.record("util", "edge", 0, 0.5);
        ts.record("util", "edge", 100, 0.75);
        ts.record("util", "fog", 0, 0.25);
        assert_eq!(ts.series("util", "edge").len(), 2);
        assert_eq!(ts.series("util", "edge")[1].value, 0.75);
        assert_eq!(ts.series("util", "cloud"), vec![]);
        assert_eq!(ts.sample_count(), 3);
        assert_eq!(ts.keys(), vec![("util", "edge".to_owned()), ("util", "fog".to_owned())]);
    }

    #[test]
    fn last_n_takes_the_tail() {
        let ts = TimeSeriesStore::new();
        for i in 0..5 {
            ts.record("x", "", i * 10, i as f64);
        }
        let tail = ts.last_n("x", "", 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].value, 3.0);
        assert_eq!(tail[1].value, 4.0);
        assert_eq!(ts.last_n("x", "", 99).len(), 5);
        assert_eq!(ts.last_n("x", "", 99)[0].value, 0.0);
        assert_eq!(ts.last_n("x", "", 0), vec![]);
        assert_eq!(ts.last_n("x", "absent", 2), vec![]);
        assert_eq!(ts.last_n("absent", "", 2), vec![]);
    }

    #[test]
    fn csv_roundtrips() {
        let ts = TimeSeriesStore::new();
        ts.record("b", "y", 10, 1.5);
        ts.record("a", "x", 0, 0.25);
        ts.record("a", "x", 100, 0.5);
        let csv = ts.export_csv();
        assert!(csv.starts_with("series,label,at_us,value\n"));
        let parsed = parse_timeseries_csv(&csv);
        // BTreeMap order: a before b.
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "a");
        assert_eq!(
            parsed[0].2,
            vec![TsSample { at_us: 0, value: 0.25 }, TsSample { at_us: 100, value: 0.5 }]
        );
        assert_eq!(parsed[1].1, "y");
    }

    #[test]
    fn empty_store_exports_nothing() {
        let ts = TimeSeriesStore::new();
        assert!(ts.export_csv().is_empty());
        assert!(ts.export_jsonl().is_empty());
        assert!(parse_timeseries_csv("").is_empty());
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let ts = TimeSeriesStore::new();
            ts.record("z", "", 5, 1.0);
            ts.record("m", "q", 1, 2.0);
            ts.export_csv() + &ts.export_jsonl()
        };
        assert_eq!(build(), build());
    }
}
