//! Deterministic metrics registry: monotonic counters, gauges and
//! fixed-bucket histograms keyed by static names.
//!
//! Each kind keeps its values in a `Vec`, in first-use order. A sorted
//! text index serves reads and snapshots, so every export is in sorted
//! `(name, label)` order whatever order the series were first used in.
//! Recording into a series that already exists finds its slot through
//! an address memo and compares no text.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::hash::WordMap;

/// Key of a metric series: `(name, label)`. The label discriminates
/// series under one name (e.g. `placement_rejected{reason}`); use `""`
/// for unlabelled series.
pub type SeriesKey = (&'static str, &'static str);

/// A fixed-bucket histogram: cumulative-style buckets with static upper
/// bounds plus an implicit `+inf` bucket, a total count and a sum.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Static upper bounds of the finite buckets (ascending).
    pub bounds: &'static [f64],
    /// Per-bucket observation counts; `buckets.len() == bounds.len() + 1`
    /// (the last entry is the `+inf` bucket).
    pub buckets: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram { bounds, buckets: vec![0; bounds.len() + 1], count: 0, sum: 0.0 }
    }

    fn observe(&mut self, value: f64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }
}

/// A [`SeriesKey`] by identity: the address and length of its name and
/// of its label.
type AddrKey = (usize, usize, usize, usize);

fn addr_key((name, label): SeriesKey) -> AddrKey {
    (name.as_ptr() as usize, name.len(), label.as_ptr() as usize, label.len())
}

/// The series of one metric kind: values in first-use order, and the
/// two indexes that find them.
struct Family<T> {
    values: Vec<T>,
    /// Sorted text index; reads, sums and snapshots walk it.
    index: BTreeMap<SeriesKey, usize>,
    /// Address memo, consulted before the text index. It is sound
    /// because a `&'static str` is never freed or mutated: equal
    /// address and length mean equal text for the life of the program.
    /// The converse does not hold (two literals with the same text may
    /// sit at different addresses), so a miss falls back to the text
    /// index, which maps both addresses to the one slot.
    memo: WordMap<AddrKey, usize>,
}

impl<T> Default for Family<T> {
    fn default() -> Self {
        Family { values: Vec::new(), index: BTreeMap::new(), memo: WordMap::default() }
    }
}

impl<T> Family<T> {
    /// The value of `key`, created with `init` on the key's first use.
    fn slot(&mut self, key: SeriesKey, init: impl FnOnce() -> T) -> &mut T {
        let addr = addr_key(key);
        let i = match self.memo.get(&addr) {
            Some(&i) => i,
            None => {
                let next = self.values.len();
                let i = *self.index.entry(key).or_insert(next);
                if i == next {
                    self.values.push(init());
                }
                self.memo.insert(addr, i);
                i
            }
        };
        &mut self.values[i]
    }

    fn get(&self, key: SeriesKey) -> Option<&T> {
        self.index.get(&key).map(|&i| &self.values[i])
    }

    /// Every series whose name is `name`, in label order.
    fn named(&self, name: &'static str) -> impl Iterator<Item = &T> {
        self.index
            .range((name, "")..)
            .take_while(move |(k, _)| k.0 == name)
            .map(|(_, &i)| &self.values[i])
    }

    /// Every series in `(name, label)` order.
    fn sorted(&self) -> impl Iterator<Item = (SeriesKey, &T)> {
        self.index.iter().map(|(k, &i)| (*k, &self.values[i]))
    }
}

#[derive(Default)]
struct Store {
    counters: Family<u64>,
    gauges: Family<f64>,
    histograms: Family<Histogram>,
}

/// A sorted, point-in-time copy of every metric — the only way data
/// leaves the registry, so exports cannot observe torn state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, sorted by `(name, label)`.
    pub counters: Vec<(SeriesKey, u64)>,
    /// Gauges (last write wins), sorted by `(name, label)`.
    pub gauges: Vec<(SeriesKey, f64)>,
    /// Histograms, sorted by `(name, label)`.
    pub histograms: Vec<(SeriesKey, Histogram)>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no series at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Registry of counters, gauges and histograms.
///
/// All three kinds sit in one `RefCell`, so a snapshot sees one
/// consistent state. The workspace runs on one thread, so the registry
/// takes no lock; it is `!Sync` on purpose, and the [`Obs`](crate::Obs)
/// handle that shares it is `!Send`.
/// Recording sits on per-event paths: the simulator records a handful
/// of counters and histograms per dispatched task, so a busy run makes
/// hundreds of thousands of updates. An update of an existing series is
/// one memo lookup by address plus the arithmetic.
pub struct MetricsRegistry {
    store: RefCell<Store>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry { store: RefCell::new(Store::default()) }
    }

    /// Adds `delta` to counter `name{label}`, creating it at 0 first.
    pub fn counter_add(&self, name: &'static str, label: &'static str, delta: u64) {
        *self.store.borrow_mut().counters.slot((name, label), || 0) += delta;
    }

    /// Current value of counter `name{label}` (0 when absent).
    pub fn counter_value(&self, name: &'static str, label: &'static str) -> u64 {
        self.store.borrow().counters.get((name, label)).copied().unwrap_or(0)
    }

    /// Sum of counter `name` across all labels.
    pub fn counter_sum(&self, name: &'static str) -> u64 {
        self.store.borrow().counters.named(name).sum()
    }

    /// Sets gauge `name{label}` to `value`.
    pub fn gauge_set(&self, name: &'static str, label: &'static str, value: f64) {
        *self.store.borrow_mut().gauges.slot((name, label), || value) = value;
    }

    /// Records `value` into histogram `name{label}`; the first
    /// observation of a series fixes its bucket bounds.
    pub fn observe(
        &self,
        name: &'static str,
        label: &'static str,
        bounds: &'static [f64],
        value: f64,
    ) {
        self.store
            .borrow_mut()
            .histograms
            .slot((name, label), || Histogram::new(bounds))
            .observe(value);
    }

    /// Sorted snapshot of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let s = self.store.borrow();
        MetricsSnapshot {
            counters: s.counters.sorted().map(|(k, v)| (k, *v)).collect(),
            gauges: s.gauges.sorted().map(|(k, v)| (k, *v)).collect(),
            histograms: s.histograms.sorted().map(|(k, v)| (k, v.clone())).collect(),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_labelled() {
        let r = MetricsRegistry::new();
        r.counter_add("a", "x", 2);
        r.counter_add("a", "x", 3);
        r.counter_add("a", "y", 1);
        assert_eq!(r.counter_value("a", "x"), 5);
        assert_eq!(r.counter_value("a", "y"), 1);
        assert_eq!(r.counter_sum("a"), 6);
        assert_eq!(r.counter_value("a", "z"), 0);
    }

    #[test]
    fn gauges_keep_the_last_write() {
        let r = MetricsRegistry::new();
        r.gauge_set("g", "", 1.5);
        r.gauge_set("g", "", -2.0);
        assert_eq!(r.snapshot().gauges, vec![(("g", ""), -2.0)]);
    }

    #[test]
    fn histogram_buckets_by_upper_bound() {
        static BOUNDS: &[f64] = &[1.0, 10.0];
        let r = MetricsRegistry::new();
        for v in [0.5, 1.0, 2.0, 100.0] {
            r.observe("h", "", BOUNDS, v);
        }
        let snap = r.snapshot();
        let (key, h) = &snap.histograms[0];
        assert_eq!(*key, ("h", ""));
        // 0.5 and 1.0 land in <=1.0; 2.0 in <=10.0; 100.0 in +inf.
        assert_eq!(h.buckets, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 103.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_labels_are_independent_series() {
        static BOUNDS: &[f64] = &[1.0];
        let r = MetricsRegistry::new();
        r.observe("wait", "edge", BOUNDS, 0.5);
        r.observe("wait", "edge", BOUNDS, 2.0);
        r.observe("wait", "cloud", BOUNDS, 0.1);
        let snap = r.snapshot();
        let keys: Vec<SeriesKey> = snap.histograms.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![("wait", "cloud"), ("wait", "edge")]);
        assert_eq!(snap.histograms[0].1.count, 1);
        assert_eq!(snap.histograms[1].1.count, 2);
    }

    #[test]
    fn snapshot_is_sorted_by_key() {
        static BOUNDS: &[f64] = &[1.0];
        let r = MetricsRegistry::new();
        for (name, label) in [("zeta", ""), ("alpha", "b"), ("alpha", "a")] {
            r.counter_add(name, label, 1);
            r.gauge_set(name, label, 1.0);
            r.observe(name, label, BOUNDS, 1.0);
        }
        // A second round goes through the memo, not the text index.
        r.counter_add("zeta", "", 1);
        let want = vec![("alpha", "a"), ("alpha", "b"), ("zeta", "")];
        let snap = r.snapshot();
        assert_eq!(snap.counters.iter().map(|(k, _)| *k).collect::<Vec<_>>(), want);
        assert_eq!(snap.gauges.iter().map(|(k, _)| *k).collect::<Vec<_>>(), want);
        assert_eq!(snap.histograms.iter().map(|(k, _)| *k).collect::<Vec<_>>(), want);
        assert_eq!(snap.counters[2].1, 2);
    }

    #[test]
    fn one_text_at_two_addresses_is_one_series() {
        static BOUNDS: &[f64] = &[1.0];
        let leaked: &'static str = Box::leak(String::from("hits").into_boxed_str());
        assert_ne!(leaked.as_ptr(), "hits".as_ptr());
        let r = MetricsRegistry::new();
        r.gauge_set("hits", "x", 1.0);
        r.gauge_set(leaked, "x", 2.0);
        r.gauge_set("hits", "x", 3.0);
        assert_eq!(r.snapshot().gauges, vec![(("hits", "x"), 3.0)]);
        r.gauge_set(leaked, "x", 4.0);
        assert_eq!(r.snapshot().gauges, vec![(("hits", "x"), 4.0)]);
        for name in ["hits", leaked, "hits", leaked] {
            r.counter_add(name, "x", 1);
            r.observe(name, "x", BOUNDS, 0.5);
        }
        assert_eq!(r.counter_value("hits", "x"), 4);
        assert_eq!(r.counter_sum(leaked), 4);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![(("hits", "x"), 4)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 4);
    }
}
