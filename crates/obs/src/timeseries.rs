//! Deterministic time series: sample streams keyed by `(series,
//! label)`, fed by the simulator's periodic scrape timer and by the
//! Knowledge Base's monitoring ingest.
//!
//! Unlike the counter/gauge registry in [`crate::metrics`], series
//! labels are *owned* strings, so one series per node/link/application
//! can be recorded without a static label table. Samples are stamped
//! with simulated time only and retained in insertion order, so the CSV
//! export is byte-reproducible across identical-seed runs.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};

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
/// that issued it and of its clones, whatever series are added later,
/// and is rejected by any other store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId {
    store: u32,
    slot: u32,
}

/// Store of time series, each a ring of at most `retention` samples.
/// The streams sit in a `Vec` indexed by [`SeriesId`]; a text index
/// (series name, then label, both sorted) serves the reads by name and
/// the exports, so exports walk `(series, label)` in sorted order. A
/// writer that records into the same streams again and again resolves
/// each one's id once and then records through
/// [`TimeSeriesStore::record_id`], which does no text comparison at
/// all.
///
/// # Examples
///
/// ```
/// use myrtus_obs::TimeSeriesStore;
///
/// let mut ts = TimeSeriesStore::new(2);
/// for (at_us, value) in [(0, 0.25), (100, 0.5), (200, 0.75)] {
///     ts.record("util", "edge-0", at_us, value);
/// }
/// // At its cap a stream evicts its oldest sample.
/// assert_eq!(ts.series("util", "edge-0").len(), 2);
/// assert_eq!(ts.latest("util", "edge-0").map(|s| s.value), Some(0.75));
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeriesStore {
    /// Stamped into every issued [`SeriesId`], so an id from another
    /// store cannot land in an unrelated stream. A clone keeps it: the
    /// clone has the same slots.
    tag: u32,
    /// Samples kept per stream.
    retention: usize,
    streams: Vec<VecDeque<TsSample>>,
    index: BTreeMap<&'static str, BTreeMap<String, u32>>,
}

impl TimeSeriesStore {
    /// An empty store that keeps the newest `retention` samples of each
    /// stream (`usize::MAX` keeps every sample).
    ///
    /// # Panics
    ///
    /// When `retention` is 0.
    pub fn new(retention: usize) -> Self {
        assert!(retention > 0, "a stream keeps at least one sample");
        static NEXT_TAG: AtomicU32 = AtomicU32::new(0);
        // Relaxed: the tag only has to differ between stores; it
        // publishes no other data.
        let tag = NEXT_TAG.fetch_add(1, Ordering::Relaxed);
        TimeSeriesStore { tag, retention, streams: Vec::new(), index: BTreeMap::new() }
    }

    /// The slot of `name{label}`, opened empty on first use. A label
    /// `String` is only built the first time a series appears.
    fn slot(&mut self, name: &'static str, label: &str) -> u32 {
        let labels = self.index.entry(name).or_default();
        if let Some(&slot) = labels.get(label) {
            return slot;
        }
        let slot = u32::try_from(self.streams.len()).expect("fewer than 2^32 series");
        labels.insert(label.to_owned(), slot);
        self.streams.push(VecDeque::new());
        slot
    }

    fn get(&self, name: &'static str, label: &str) -> Option<&VecDeque<TsSample>> {
        let &slot = self.index.get(name)?.get(label)?;
        Some(&self.streams[slot as usize])
    }

    /// Every stream with at least one sample, in `(series, label)`
    /// order. A stream opened by [`TimeSeriesStore::id`] but never
    /// recorded into is not there yet.
    fn sorted(&self) -> impl Iterator<Item = (&'static str, &str, &VecDeque<TsSample>)> {
        self.index.iter().flat_map(move |(name, labels)| {
            labels.iter().filter_map(move |(label, &slot)| {
                let s = &self.streams[slot as usize];
                (!s.is_empty()).then_some((*name, label.as_str(), s))
            })
        })
    }

    /// Appends to the stream in `slot`, evicting its oldest sample in
    /// O(1) when it is at the retention cap.
    ///
    /// # Panics
    ///
    /// In debug builds, when samples go backwards in time within a
    /// stream.
    fn push(&mut self, slot: u32, at_us: u64, value: f64) {
        let s = &mut self.streams[slot as usize];
        debug_assert!(s.back().is_none_or(|b| b.at_us <= at_us), "samples must be in time order");
        if s.len() == self.retention {
            s.pop_front();
        }
        s.push_back(TsSample { at_us, value });
    }

    /// The id of `name{label}`, for [`TimeSeriesStore::record_id`].
    /// Resolving an id records nothing: the stream shows in reads and
    /// exports from its first sample on.
    pub fn id(&mut self, name: &'static str, label: &str) -> SeriesId {
        SeriesId { store: self.tag, slot: self.slot(name, label) }
    }

    /// Appends a sample to `name{label}`. Samples of one stream arrive
    /// in non-decreasing `at_us` order.
    pub fn record(&mut self, name: &'static str, label: &str, at_us: u64, value: f64) {
        let slot = self.slot(name, label);
        self.push(slot, at_us, value);
    }

    /// Replaces every sample of the stream `id` names with this one: the
    /// stream then holds only its newest sample, whatever the retention.
    ///
    /// # Panics
    ///
    /// When `id` was issued by another store; in debug builds, when the
    /// sample is older than the one it replaces.
    pub fn set_id(&mut self, id: SeriesId, at_us: u64, value: f64) {
        assert_eq!(id.store, self.tag, "SeriesId issued by another store");
        let s = &mut self.streams[id.slot as usize];
        debug_assert!(s.back().is_none_or(|b| b.at_us <= at_us), "samples must be in time order");
        s.clear();
        s.push_back(TsSample { at_us, value });
    }

    /// Appends a sample to the stream `id` names.
    ///
    /// # Panics
    ///
    /// When `id` was issued by another store.
    pub fn record_id(&mut self, id: SeriesId, at_us: u64, value: f64) {
        assert_eq!(id.store, self.tag, "SeriesId issued by another store");
        self.push(id.slot, at_us, value);
    }

    /// All retained samples of `name{label}`, oldest first (empty when
    /// absent).
    pub fn series(&self, name: &'static str, label: &str) -> Vec<TsSample> {
        self.last_n(name, label, usize::MAX)
    }

    /// The last `n` samples of `name{label}`, oldest first, as a
    /// vector. Copies only the tail, so the cost is O(n), not
    /// O(series length); a reader that only walks the samples takes
    /// [`TimeSeriesStore::tail`], which allocates nothing.
    pub fn last_n(&self, name: &'static str, label: &str, n: usize) -> Vec<TsSample> {
        self.tail(name, label, n).collect()
    }

    /// The last `n` samples of `name{label}`, oldest first, read in
    /// place (empty when absent).
    pub fn tail(
        &self,
        name: &'static str,
        label: &str,
        n: usize,
    ) -> impl DoubleEndedIterator<Item = TsSample> + ExactSizeIterator + Clone + '_ {
        self.get(name, label)
            .map_or_else(Default::default, |s| s.range(s.len().saturating_sub(n)..))
            .copied()
    }

    /// The newest sample of `name{label}`.
    pub fn latest(&self, name: &'static str, label: &str) -> Option<TsSample> {
        self.get(name, label)?.back().copied()
    }

    /// Total number of retained samples across all series.
    pub fn sample_count(&self) -> usize {
        self.streams.iter().map(VecDeque::len).sum()
    }

    /// The whole store as CSV: `series,label,at_us,value`, sorted by
    /// series then label then sample order. An empty store yields the
    /// empty string (no header), so "no time series" is
    /// distinguishable from "an empty table".
    pub fn export_csv(&self) -> String {
        let mut out = String::new();
        for (name, label, samples) in self.sorted() {
            if out.is_empty() {
                out.push_str("series,label,at_us,value\n");
            }
            for smp in samples {
                let _ = writeln!(out, "{name},{label},{},{}", smp.at_us, smp.value);
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

    fn unbounded() -> TimeSeriesStore {
        TimeSeriesStore::new(usize::MAX)
    }

    /// The `(series, label)` keys an export lists, in file order.
    fn exported_keys(ts: &TimeSeriesStore) -> Vec<(String, String)> {
        parse_timeseries_csv(&ts.export_csv()).into_iter().map(|(n, l, _)| (n, l)).collect()
    }

    fn key(name: &str, label: &str) -> (String, String) {
        (name.to_owned(), label.to_owned())
    }

    fn values(samples: &[TsSample]) -> Vec<f64> {
        samples.iter().map(|s| s.value).collect()
    }

    /// A store of retention `cap` holding samples `1..=n` of `s`, one
    /// per millisecond.
    fn filled(cap: usize, n: u64) -> TimeSeriesStore {
        let mut ts = TimeSeriesStore::new(cap);
        for ms in 1..=n {
            ts.record("s", "", ms * 1_000, ms as f64);
        }
        ts
    }

    #[test]
    fn record_and_read_back() {
        let mut ts = unbounded();
        ts.record("util", "edge", 0, 0.5);
        ts.record("util", "edge", 100, 0.75);
        ts.record("util", "fog", 0, 0.25);
        assert_eq!(ts.series("util", "edge").len(), 2);
        assert_eq!(ts.series("util", "edge")[1].value, 0.75);
        assert_eq!(ts.series("util", "cloud"), vec![]);
        assert_eq!(ts.latest("util", "fog").map(|s| s.value), Some(0.25));
        assert_eq!(ts.sample_count(), 3);
        assert_eq!(exported_keys(&ts), vec![key("util", "edge"), key("util", "fog")]);
    }

    #[test]
    fn ids_and_names_fill_one_stream() {
        let mut ts = unbounded();
        let id = ts.id("util", "m");
        // Opening a stream records nothing.
        assert!(ts.export_csv().is_empty());
        assert_eq!(ts.sample_count(), 0);
        ts.record_id(id, 0, 0.5);
        ts.record("util", "m", 100, 0.75);
        // Series that sort before it, under its name and under another.
        ts.record("util", "a", 0, 9.0);
        ts.record("aaa", "", 0, 9.0);
        ts.record_id(id, 200, 1.0);
        assert_eq!(ts.id("util", "m"), id);
        assert_eq!(values(&ts.series("util", "m")), vec![0.5, 0.75, 1.0]);
        assert_eq!(ts.sample_count(), 5);
        assert_eq!(exported_keys(&ts), vec![key("aaa", ""), key("util", "a"), key("util", "m")]);
    }

    #[test]
    #[should_panic(expected = "another store")]
    fn ids_do_not_cross_stores() {
        let mut issuer = unbounded();
        let mut other = unbounded();
        other.record("util", "m", 0, 0.5);
        other.record_id(issuer.id("util", "m"), 0, 0.5);
    }

    #[test]
    fn a_clone_takes_its_originals_ids_and_records_on_its_own() {
        let mut original = unbounded();
        let id = original.id("util", "m");
        original.record_id(id, 0, 0.5);
        let mut fork = original.clone();
        fork.record_id(id, 100, 0.75);
        original.record_id(id, 100, 0.25);
        assert_eq!(values(&original.series("util", "m")), vec![0.5, 0.25]);
        assert_eq!(values(&fork.series("util", "m")), vec![0.5, 0.75]);
        // A stream the clone opens after the split is its own.
        fork.record("util", "late", 200, 1.0);
        assert_eq!(fork.sample_count(), 3);
        assert_eq!(original.sample_count(), 2);
    }

    #[test]
    fn last_n_takes_the_tail() {
        let mut ts = unbounded();
        for i in 0..5 {
            ts.record("x", "", i * 10, i as f64);
        }
        let tail = ts.last_n("x", "", 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].value, 3.0);
        assert_eq!(tail[1].value, 4.0);
        assert_eq!(ts.last_n("x", "", 5).len(), 5);
        assert_eq!(ts.last_n("x", "", 99).len(), 5);
        assert_eq!(ts.last_n("x", "", 99)[0].value, 0.0);
        assert_eq!(ts.last_n("x", "", 0), vec![]);
        assert_eq!(ts.last_n("x", "absent", 2), vec![]);
        assert_eq!(ts.last_n("absent", "", 2), vec![]);
        // The borrowing reader walks the same tail, from either end.
        let tail = ts.tail("x", "", 3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.clone().map(|s| s.value).collect::<Vec<_>>(), vec![2.0, 3.0, 4.0]);
        assert_eq!(tail.last().map(|s| s.at_us), Some(40));
        assert_eq!(ts.tail("absent", "", 2).len(), 0);
    }

    #[test]
    fn ring_retains_exactly_the_cap() {
        let at_cap = filled(4, 4);
        assert_eq!(values(&at_cap.series("s", "")), vec![1.0, 2.0, 3.0, 4.0], "none evicted");
        let over = filled(4, 5);
        assert_eq!(values(&over.series("s", "")), vec![2.0, 3.0, 4.0, 5.0], "one evicted");
        assert_eq!(over.sample_count(), 4);
    }

    #[test]
    fn ring_keeps_time_order_across_many_evictions() {
        // 110 samples through a ring of 5: 105 evictions.
        let ts = filled(5, 110);
        let all = ts.last_n("s", "", 99);
        assert_eq!(values(&all), vec![106.0, 107.0, 108.0, 109.0, 110.0]);
        assert!(all.windows(2).all(|w| w[0].at_us < w[1].at_us), "oldest first after wrap");
        assert_eq!(ts.latest("s", ""), all.last().copied());
        assert_eq!(values(&ts.last_n("s", "", 2)), vec![109.0, 110.0]);
        // The export walks the same ring contents.
        assert_eq!(parse_timeseries_csv(&ts.export_csv())[0].2, all);
    }

    #[test]
    fn an_unbounded_store_never_evicts() {
        let ts = filled(usize::MAX, 20_000);
        let all = ts.series("s", "");
        assert_eq!(all.len(), 20_000);
        assert_eq!(all[0].value, 1.0);
        assert_eq!(ts.latest("s", "").map(|s| s.value), Some(20_000.0));
    }

    #[test]
    fn set_id_keeps_only_the_newest_sample() {
        let mut ts = filled(4, 3);
        let s = ts.id("s", "");
        ts.set_id(s, 10_000, 9.0);
        assert_eq!(
            ts.series("s", ""),
            vec![TsSample { at_us: 10_000, value: 9.0 }],
            "ring replaced"
        );
        let t = ts.id("t", "a");
        ts.set_id(t, 5, 1.0);
        ts.set_id(t, 6, 2.0);
        assert_eq!(ts.series("t", "a"), vec![TsSample { at_us: 6, value: 2.0 }]);
        assert_eq!(ts.sample_count(), 2);
        // A later append grows the stream from its one sample again.
        ts.record("t", "a", 7, 3.0);
        assert_eq!(values(&ts.series("t", "a")), vec![2.0, 3.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time order")]
    fn samples_going_back_in_time_are_caught() {
        let mut ts = unbounded();
        ts.record("s", "", 100, 1.0);
        ts.record("s", "", 99, 2.0);
    }

    #[test]
    fn empty_series_queries_are_benign() {
        let mut ts = unbounded();
        ts.record("util", "edge", 0, 0.5);
        for (name, label) in [("util", "cloud"), ("absent", "edge")] {
            assert_eq!(ts.series(name, label), vec![]);
            assert_eq!(ts.last_n(name, label, 3), vec![]);
            assert_eq!(ts.latest(name, label), None);
        }
    }

    #[test]
    fn csv_roundtrips() {
        let mut ts = unbounded();
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
    fn exports_write_the_documented_lines() {
        let mut ts = unbounded();
        ts.record("q\"s", "a\\b", 7, 0.1);
        ts.record("util", "", 5, 2.0);
        assert_eq!(ts.export_csv(), "series,label,at_us,value\nq\"s,a\\b,7,0.1\nutil,,5,2\n");
    }

    #[test]
    fn empty_store_exports_nothing() {
        let ts = unbounded();
        assert!(ts.export_csv().is_empty());
        assert!(parse_timeseries_csv("").is_empty());
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let mut ts = unbounded();
            ts.record("z", "", 5, 1.0);
            ts.record("m", "q", 1, 2.0);
            ts.export_csv()
        };
        assert_eq!(build(), build());
    }
}
