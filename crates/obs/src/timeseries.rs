//! Deterministic time series: append-only sample streams keyed by
//! `(series, label)`, fed by the simulator's periodic scrape timer.
//!
//! Unlike the counter/gauge registry in [`crate::metrics`], series
//! labels are *owned* strings, so one series per node/link/application
//! can be recorded without a static label table. Samples are stamped
//! with simulated time only and retained in insertion order, so the CSV
//! and JSONL exports are byte-reproducible across identical-seed runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// One sample of a time series: a value at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsSample {
    /// Simulated time of the sample, microseconds.
    pub at_us: u64,
    /// Sampled value.
    pub value: f64,
}

/// Handle of one `(series, label)` stream, issued by
/// [`TimeSeriesStore::id`]. It stays valid for the life of the store
/// that issued it, whatever series are added later, and is rejected by
/// any other store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId {
    store: u32,
    slot: u32,
}

/// Streams in first-use order, and the sorted text index over them.
#[derive(Debug, Default)]
struct Streams {
    samples: Vec<Vec<TsSample>>,
    index: BTreeMap<&'static str, BTreeMap<String, u32>>,
}

impl Streams {
    /// The slot of `name{label}`, opened empty on first use. A label
    /// `String` is only built the first time a series appears.
    fn slot(&mut self, name: &'static str, label: &str) -> u32 {
        let labels = self.index.entry(name).or_default();
        if let Some(&slot) = labels.get(label) {
            return slot;
        }
        let slot = u32::try_from(self.samples.len()).expect("fewer than 2^32 series");
        labels.insert(label.to_owned(), slot);
        self.samples.push(Vec::new());
        slot
    }

    fn get(&self, name: &'static str, label: &str) -> Option<&[TsSample]> {
        let &slot = self.index.get(name)?.get(label)?;
        Some(&self.samples[slot as usize])
    }

    /// Every stream with at least one sample, in `(series, label)`
    /// order. A stream opened by [`TimeSeriesStore::id`] but never
    /// recorded into is not there yet.
    fn sorted(&self) -> impl Iterator<Item = (&'static str, &str, &[TsSample])> {
        self.index.iter().flat_map(move |(name, labels)| {
            labels.iter().filter_map(move |(label, &slot)| {
                let s = &self.samples[slot as usize];
                (!s.is_empty()).then_some((*name, label.as_str(), s.as_slice()))
            })
        })
    }
}

/// Append-only store of time series. The streams sit in a `Vec`
/// indexed by [`SeriesId`]; a text index (series name, then label,
/// both sorted) serves the reads by name and the exports, so exports
/// walk `(series, label)` in sorted order. A writer that records into
/// the same streams again and again resolves each one's id once and
/// then records through [`TimeSeriesStore::record_id`], which does no
/// text comparison at all.
#[derive(Debug)]
pub struct TimeSeriesStore {
    /// Stamped into every issued [`SeriesId`], so an id from another
    /// store cannot land in an unrelated stream.
    tag: u32,
    streams: Mutex<Streams>,
}

impl Default for TimeSeriesStore {
    fn default() -> Self {
        TimeSeriesStore::new()
    }
}

impl TimeSeriesStore {
    /// An empty store.
    pub fn new() -> Self {
        static NEXT_TAG: AtomicU32 = AtomicU32::new(0);
        // Relaxed: the tag only has to differ between stores; it
        // publishes no other data.
        let tag = NEXT_TAG.fetch_add(1, Ordering::Relaxed);
        TimeSeriesStore { tag, streams: Mutex::new(Streams::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Streams> {
        self.streams.lock().expect("timeseries lock")
    }

    /// The id of `name{label}`, for [`TimeSeriesStore::record_id`].
    /// Resolving an id records nothing: the stream shows in reads and
    /// exports from its first sample on.
    pub fn id(&self, name: &'static str, label: &str) -> SeriesId {
        SeriesId { store: self.tag, slot: self.lock().slot(name, label) }
    }

    /// Appends a sample to `name{label}`.
    ///
    /// Samples are expected (but not required) to arrive in
    /// non-decreasing `at_us` order — the scrape timer guarantees that.
    pub fn record(&self, name: &'static str, label: &str, at_us: u64, value: f64) {
        let mut s = self.lock();
        let slot = s.slot(name, label);
        s.samples[slot as usize].push(TsSample { at_us, value });
    }

    /// Appends a sample to the stream `id` names.
    ///
    /// # Panics
    ///
    /// When `id` was issued by another store.
    pub fn record_id(&self, id: SeriesId, at_us: u64, value: f64) {
        assert_eq!(id.store, self.tag, "SeriesId issued by another store");
        self.lock().samples[id.slot as usize].push(TsSample { at_us, value });
    }

    /// All samples of `name{label}`, oldest first (empty when absent).
    pub fn series(&self, name: &'static str, label: &str) -> Vec<TsSample> {
        self.last_n(name, label, usize::MAX)
    }

    /// The last `n` samples of `name{label}`, oldest first. Copies only
    /// the tail, so the cost is O(n), not O(series length).
    pub fn last_n(&self, name: &'static str, label: &str, n: usize) -> Vec<TsSample> {
        let s = self.lock();
        let samples = s.get(name, label).unwrap_or_default();
        samples[samples.len().saturating_sub(n)..].to_vec()
    }

    /// Sorted `(series, label)` keys present in the store.
    pub fn keys(&self) -> Vec<(&'static str, String)> {
        self.lock().sorted().map(|(name, label, _)| (name, label.to_owned())).collect()
    }

    /// Total number of samples across all series.
    pub fn sample_count(&self) -> usize {
        self.lock().samples.iter().map(Vec::len).sum()
    }

    /// The whole store as CSV: `series,label,at_us,value`, sorted by
    /// series then label then sample order. An empty store yields the
    /// empty string (no header), so "no time series" is
    /// distinguishable from "an empty table".
    pub fn export_csv(&self) -> String {
        let s = self.lock();
        let mut out = String::new();
        for (name, label, samples) in s.sorted() {
            if out.is_empty() {
                out.push_str("series,label,at_us,value\n");
            }
            for smp in samples {
                out.push_str(&format!("{name},{label},{},{}\n", smp.at_us, smp.value));
            }
        }
        out
    }

    /// The whole store as JSON Lines, one sample per line.
    pub fn export_jsonl(&self) -> String {
        let s = self.lock();
        let mut out = String::new();
        for (name, label, samples) in s.sorted() {
            for smp in samples {
                out.push_str(&format!(
                    "{{\"series\":\"{}\",\"label\":\"{}\",\"at_us\":{},\"value\":{}}}\n",
                    crate::export::esc(name),
                    crate::export::esc(label),
                    smp.at_us,
                    smp.value
                ));
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
    fn ids_and_names_fill_one_stream() {
        let ts = TimeSeriesStore::new();
        let id = ts.id("util", "m");
        // Opening a stream records nothing.
        assert_eq!(ts.keys(), vec![]);
        assert!(ts.export_csv().is_empty());
        ts.record_id(id, 0, 0.5);
        ts.record("util", "m", 100, 0.75);
        // Series that sort before it, under its name and under another.
        ts.record("util", "a", 0, 9.0);
        ts.record("aaa", "", 0, 9.0);
        ts.record_id(id, 200, 1.0);
        assert_eq!(ts.id("util", "m"), id);
        let want: Vec<f64> = ts.series("util", "m").iter().map(|s| s.value).collect();
        assert_eq!(want, vec![0.5, 0.75, 1.0]);
        assert_eq!(ts.sample_count(), 5);
        assert_eq!(
            ts.keys(),
            vec![("aaa", String::new()), ("util", "a".to_owned()), ("util", "m".to_owned())]
        );
    }

    #[test]
    #[should_panic(expected = "another store")]
    fn ids_do_not_cross_stores() {
        let issuer = TimeSeriesStore::new();
        let other = TimeSeriesStore::new();
        other.record("util", "m", 0, 0.5);
        other.record_id(issuer.id("util", "m"), 0, 0.5);
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
