//! # myrtus-obs
//!
//! Deterministic observability substrate for the MYRTUS continuum
//! reproduction: a [`MetricsRegistry`] of monotonic counters, gauges and
//! fixed-bucket histograms, a bounded [`TraceBuffer`] of structured,
//! sim-time-stamped [`TraceEvent`]s and a [`TimeSeriesStore`] of scraped
//! series — all behind a cheap, clonable [`Obs`] handle that is a no-op
//! when disabled. The Knowledge Base keeps its history in a
//! [`TimeSeriesStore`] of its own, so the workspace has one time-series
//! type.
//!
//! Design rules (see DESIGN.md § Observability):
//!
//! * **No wall-clock.** Every event is stamped with *simulated* time in
//!   microseconds (`at_us`); exports never contain host timestamps, so
//!   two runs with the same seed export byte-identical artifacts.
//! * **Static names.** Metrics are keyed by `&'static str` names and
//!   labels. Values sit in `Vec`s in first-use order; a sorted text
//!   index gives the export order (sorted key order, never `HashMap`
//!   iteration order), and an address memo finds the slot of a series
//!   already recorded without comparing text.
//! * **Zero overhead when disabled.** [`Obs`] wraps an
//!   `Option<Rc<..>>`; the disabled handle is `None` and every
//!   recording call is a single branch on it.
//! * **One thread, no locks.** The workspace runs on one thread, so the
//!   shared state sits in `RefCell`s, not behind mutexes, and [`Obs`] is
//!   `!Send` on purpose: a recording call costs a borrow flag, not a
//!   lock and unlock, and the compiler rejects any attempt to record
//!   from a second thread, whose interleaving would break the
//!   byte-identical exports anyway.
//! * **A packed trace ring.** The [`TraceBuffer`] keeps each event in a
//!   32-byte slot (sim time, two `u64`s, a `u32`, a variant tag), with
//!   the sequence number implicit and `&'static str` fields interned
//!   in a small per-buffer table; a push into a full ring overwrites
//!   its oldest slot in place. At the default capacity of 65,536 events
//!   the ring holds 2 MiB, and [`TraceBuffer::events`] rebuilds the
//!   typed events for readers and the export.
//! * **Counters only from scoring.** Plan-time candidate scoring records
//!   counter totals, never trace events, so a search that scores
//!   thousands of candidates leaves the bounded trace ring to the
//!   simulator and the engine.
//!
//! ```
//! use myrtus_obs::{Obs, ObsConfig, TraceKind};
//!
//! let obs = Obs::new(ObsConfig::on());
//! obs.counter_inc("sim_tasks_dispatched", "");
//! obs.trace(1_000, TraceKind::TaskDispatch { node: 0, task: 7 });
//! assert_eq!(obs.counter_value("sim_tasks_dispatched", ""), 1);
//! assert!(obs.export_trace_jsonl().contains("\"type\":\"task_dispatch\""));
//!
//! let off = Obs::disabled();
//! off.counter_inc("sim_tasks_dispatched", "");
//! assert_eq!(off.counter_value("sim_tasks_dispatched", ""), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod hash;
pub mod metrics;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanOutcome, SpanSet, TaskSpan};
pub use timeseries::{SeriesId, TimeSeriesStore, TsSample};
pub use trace::{TraceBuffer, TraceEvent, TraceKind};

use std::cell::RefCell;
use std::rc::Rc;

/// Configuration for the observability layer.
///
/// `Copy` so it can live inside other `Copy` config structs (e.g.
/// `mirto::engine::EngineConfig`). Off by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. When `false`, [`Obs::new`] returns the same
    /// no-op handle as [`Obs::disabled`].
    pub enabled: bool,
    /// Ring capacity of the trace buffer: older events are evicted
    /// (and counted as dropped) once this many are retained.
    pub trace_capacity: usize,
    /// Simulated-time interval between periodic telemetry scrapes, in
    /// microseconds. `0` disables the scrape timer (no time series are
    /// recorded). The simulator arms a repeating sim-time timer at this
    /// interval and samples node/link/rate series into the
    /// [`TimeSeriesStore`].
    pub scrape_interval_us: u64,
}

impl ObsConfig {
    /// Default trace ring capacity (events retained).
    pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

    /// Default scrape interval: 100 ms of simulated time.
    pub const DEFAULT_SCRAPE_INTERVAL_US: u64 = 100_000;

    /// Observability off (the default).
    pub const fn off() -> Self {
        ObsConfig {
            enabled: false,
            trace_capacity: Self::DEFAULT_TRACE_CAPACITY,
            scrape_interval_us: 0,
        }
    }

    /// Observability on with the default trace capacity and scrape
    /// interval.
    pub const fn on() -> Self {
        ObsConfig {
            enabled: true,
            trace_capacity: Self::DEFAULT_TRACE_CAPACITY,
            scrape_interval_us: Self::DEFAULT_SCRAPE_INTERVAL_US,
        }
    }

    /// The same config with a different scrape interval (0 disables
    /// the periodic scrape).
    pub const fn with_scrape_interval_us(mut self, scrape_interval_us: u64) -> Self {
        self.scrape_interval_us = scrape_interval_us;
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

struct Inner {
    metrics: MetricsRegistry,
    traces: RefCell<TraceBuffer>,
    timeseries: RefCell<TimeSeriesStore>,
    scrape_interval_us: u64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner").finish_non_exhaustive()
    }
}

/// Cheap, clonable observability handle.
///
/// A disabled handle holds no allocation at all; every recording call
/// first branches on `self.0.is_none()` and returns immediately, which
/// keeps the instrumented hot paths within noise of the uninstrumented
/// ones. Clones share the same registry and trace buffer, so a single
/// handle can be installed into the simulator, the plan cache and the
/// deployment proxy and observed from the final report.
///
/// The handle is `!Send`: clones share one `Rc` and the state behind it
/// sits in `RefCell`s, because every recorder runs on the simulator's
/// one thread and a lock would cost each call a lock and unlock for
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Obs(Option<Rc<Inner>>);

impl Obs {
    /// Builds a handle from a config; disabled configs yield a no-op
    /// handle indistinguishable from [`Obs::disabled`].
    pub fn new(cfg: ObsConfig) -> Self {
        if !cfg.enabled {
            return Obs(None);
        }
        Obs(Some(Rc::new(Inner {
            metrics: MetricsRegistry::new(),
            traces: RefCell::new(TraceBuffer::new(cfg.trace_capacity)),
            // The export keeps every sample of the run.
            timeseries: RefCell::new(TimeSeriesStore::new(usize::MAX)),
            scrape_interval_us: cfg.scrape_interval_us,
        })))
    }

    /// The no-op handle.
    pub const fn disabled() -> Self {
        Obs(None)
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `delta` to the monotonic counter `name{label}`.
    pub fn counter_add(&self, name: &'static str, label: &'static str, delta: u64) {
        if let Some(inner) = &self.0 {
            inner.metrics.counter_add(name, label, delta);
        }
    }

    /// Increments the monotonic counter `name{label}` by one.
    pub fn counter_inc(&self, name: &'static str, label: &'static str) {
        self.counter_add(name, label, 1);
    }

    /// Sets the gauge `name{label}` to `value` (last write wins).
    pub fn gauge_set(&self, name: &'static str, label: &'static str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.metrics.gauge_set(name, label, value);
        }
    }

    /// Records `value` into the fixed-bucket histogram `name{label}`
    /// with the given static upper bounds (an implicit `+inf` bucket is
    /// always appended). The bounds of a series' *first* observation
    /// win; later observations reuse them.
    pub fn observe(
        &self,
        name: &'static str,
        label: &'static str,
        bounds: &'static [f64],
        value: f64,
    ) {
        if let Some(inner) = &self.0 {
            inner.metrics.observe(name, label, bounds, value);
        }
    }

    /// Appends a trace event stamped with simulated time `at_us`.
    ///
    /// Must only be called from serial (deterministic) contexts — see
    /// the crate-level determinism rules.
    pub fn trace(&self, at_us: u64, kind: TraceKind) {
        if let Some(inner) = &self.0 {
            inner.traces.borrow_mut().push(at_us, kind);
        }
    }

    /// Current value of counter `name{label}` (0 when disabled/absent).
    pub fn counter_value(&self, name: &'static str, label: &'static str) -> u64 {
        self.0.as_ref().map_or(0, |i| i.metrics.counter_value(name, label))
    }

    /// Sum of counter `name` across all labels (0 when disabled).
    pub fn counter_sum(&self, name: &'static str) -> u64 {
        self.0.as_ref().map_or(0, |i| i.metrics.counter_sum(name))
    }

    /// A deterministic, sorted snapshot of every metric. The trace
    /// ring's eviction tally is injected as the `trace_events_dropped`
    /// counter (present even at 0), so ring overflow is visible in
    /// every export.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.0.as_ref().map_or_else(MetricsSnapshot::default, |i| {
            let mut snap = i.metrics.snapshot();
            let dropped = i.traces.borrow().dropped();
            snap.counters.push((("trace_events_dropped", ""), dropped));
            snap.counters.sort_by_key(|(k, _)| *k);
            snap
        })
    }

    /// The configured scrape interval in simulated microseconds (0 when
    /// disabled or when the handle itself is disabled).
    pub fn scrape_interval_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.scrape_interval_us)
    }

    /// Appends a time-series sample to `name{label}` at simulated time
    /// `at_us`. Like traces, series must only be recorded from serial
    /// contexts (the scrape timer and the MAPE monitoring round).
    pub fn ts_record(&self, name: &'static str, label: &str, at_us: u64, value: f64) {
        if let Some(inner) = &self.0 {
            inner.timeseries.borrow_mut().record(name, label, at_us, value);
        }
    }

    /// The id of time series `name{label}`, for [`Obs::ts_record_id`]
    /// (`None` when disabled). A writer that records into one stream
    /// many times resolves its id once and skips the text lookup of
    /// [`Obs::ts_record`] on every later sample. Resolving records
    /// nothing, and the id is valid only with this handle and its
    /// clones.
    pub fn ts_id(&self, name: &'static str, label: &str) -> Option<SeriesId> {
        self.0.as_ref().map(|i| i.timeseries.borrow_mut().id(name, label))
    }

    /// Appends a sample to the time series `id` names, like
    /// [`Obs::ts_record`].
    ///
    /// # Panics
    ///
    /// When `id` was resolved through a handle that shares no store
    /// with this one.
    pub fn ts_record_id(&self, id: SeriesId, at_us: u64, value: f64) {
        if let Some(inner) = &self.0 {
            inner.timeseries.borrow_mut().record_id(id, at_us, value);
        }
    }

    /// All samples of time series `name{label}`, oldest first.
    pub fn ts_series(&self, name: &'static str, label: &str) -> Vec<TsSample> {
        self.0.as_ref().map_or_else(Vec::new, |i| i.timeseries.borrow().series(name, label))
    }

    /// The last `n` samples of time series `name{label}`, oldest first.
    pub fn ts_last_n(&self, name: &'static str, label: &str, n: usize) -> Vec<TsSample> {
        self.0.as_ref().map_or_else(Vec::new, |i| i.timeseries.borrow().last_n(name, label, n))
    }

    /// Total number of time-series samples recorded so far.
    pub fn ts_sample_count(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.timeseries.borrow().sample_count())
    }

    /// All time series as deterministic CSV (`series,label,at_us,value`
    /// rows in sorted series order; empty string when disabled or when
    /// nothing was scraped).
    pub fn export_timeseries_csv(&self) -> String {
        self.0.as_ref().map_or_else(String::new, |i| i.timeseries.borrow().export_csv())
    }

    /// All time series as deterministic JSON Lines.
    pub fn export_timeseries_jsonl(&self) -> String {
        self.0.as_ref().map_or_else(String::new, |i| i.timeseries.borrow().export_jsonl())
    }

    /// A copy of the retained trace events, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map_or_else(Vec::new, |i| i.traces.borrow().events())
    }

    /// Number of retained trace events.
    pub fn trace_len(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.traces.borrow().len())
    }

    /// Number of trace events evicted from the ring so far.
    pub fn trace_dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.traces.borrow().dropped())
    }

    /// The retained trace as deterministic JSON Lines (one event per
    /// line, oldest first; empty string when disabled).
    pub fn export_trace_jsonl(&self) -> String {
        export::trace_jsonl(&self.trace_events())
    }

    /// All metrics as deterministic JSON Lines, sorted by kind then
    /// name then label.
    pub fn export_metrics_jsonl(&self) -> String {
        export::metrics_jsonl(&self.metrics_snapshot())
    }

    /// All metrics as a fixed-width, human-readable table.
    pub fn export_metrics_table(&self) -> String {
        export::metrics_table(&self.metrics_snapshot())
    }
}

/// Maps a small index to a static label (`"0"` … `"15"`, saturating at
/// `"16+"`). Counter and gauge labels must be `&'static str`; this
/// table lets per-application or per-round series be labelled without
/// leaking memory for unbounded dynamic strings.
pub fn index_label(i: usize) -> &'static str {
    const LABELS: &[&str] =
        &["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15"];
    LABELS.get(i).copied().unwrap_or("16+")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::new(ObsConfig::default());
        assert!(!obs.enabled());
        obs.counter_add("c", "l", 5);
        obs.gauge_set("g", "", 1.0);
        obs.observe("h", "", &[1.0], 0.5);
        obs.trace(0, TraceKind::MapePhase { phase: "monitor" });
        obs.ts_record("util", "edge", 0, 0.5);
        assert_eq!(obs.ts_id("util", "edge"), None);
        assert_eq!(obs.counter_value("c", "l"), 0);
        assert_eq!(obs.trace_len(), 0);
        assert_eq!(obs.ts_sample_count(), 0);
        assert_eq!(obs.scrape_interval_us(), 0);
        assert!(obs.export_trace_jsonl().is_empty());
        assert!(obs.export_metrics_jsonl().is_empty());
        assert!(obs.export_timeseries_csv().is_empty());
        assert!(obs.metrics_snapshot().is_empty());
    }

    #[test]
    fn enabled_snapshot_always_reports_dropped_counter() {
        let obs = Obs::new(ObsConfig::on());
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.counters, vec![(("trace_events_dropped", ""), 0)]);
        assert!(obs.export_metrics_jsonl().contains(
            "{\"kind\":\"counter\",\"metric\":\"trace_events_dropped\",\"label\":\"\",\"value\":0}"
        ));
    }

    #[test]
    fn overflowing_ring_surfaces_in_the_snapshot() {
        let obs = Obs::new(ObsConfig { trace_capacity: 2, ..ObsConfig::on() });
        for i in 0..5 {
            obs.trace(i, TraceKind::NodeCrash { node: i as u32 });
        }
        assert_eq!(obs.trace_dropped(), 3);
        let snap = obs.metrics_snapshot();
        assert!(snap.counters.contains(&(("trace_events_dropped", ""), 3)));
        // Sort order holds even with other counters interleaved.
        obs.counter_inc("zz_late", "");
        obs.counter_inc("aa_early", "");
        let keys: Vec<_> = obs.metrics_snapshot().counters.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![("aa_early", ""), ("trace_events_dropped", ""), ("zz_late", "")]);
    }

    #[test]
    fn timeseries_flow_through_the_handle() {
        let obs = Obs::new(ObsConfig::on());
        assert_eq!(obs.scrape_interval_us(), ObsConfig::DEFAULT_SCRAPE_INTERVAL_US);
        obs.ts_record("util", "edge", 0, 0.25);
        let id = obs.ts_id("util", "edge").expect("enabled");
        obs.ts_record_id(id, 100, 0.5);
        assert_eq!(obs.ts_series("util", "edge").len(), 2);
        assert_eq!(obs.ts_last_n("util", "edge", 1)[0].value, 0.5);
        assert_eq!(obs.ts_sample_count(), 2);
        assert!(obs.export_timeseries_csv().starts_with("series,label,at_us,value\n"));
        assert!(obs.export_timeseries_jsonl().contains("\"series\":\"util\""));
    }

    #[test]
    fn index_labels_saturate() {
        assert_eq!(index_label(0), "0");
        assert_eq!(index_label(15), "15");
        assert_eq!(index_label(16), "16+");
        assert_eq!(index_label(999), "16+");
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new(ObsConfig::on());
        let twin = obs.clone();
        twin.counter_inc("c", "");
        obs.counter_inc("c", "");
        assert_eq!(obs.counter_value("c", ""), 2);
        twin.trace(3, TraceKind::NodeCrash { node: 1 });
        assert_eq!(obs.trace_len(), 1);
        assert_eq!(obs.trace_events()[0].at_us, 3);
    }

    #[test]
    fn counter_sum_spans_labels() {
        let obs = Obs::new(ObsConfig::on());
        obs.counter_add("placement_rejected", "arity_mismatch", 2);
        obs.counter_add("placement_rejected", "unreachable_hop", 3);
        obs.counter_inc("other", "");
        assert_eq!(obs.counter_sum("placement_rejected"), 5);
        assert_eq!(obs.counter_sum("missing"), 0);
    }

    #[test]
    fn config_defaults_are_off() {
        assert_eq!(ObsConfig::default(), ObsConfig::off());
        assert!(ObsConfig::on().enabled);
        assert_eq!(ObsConfig::on().trace_capacity, ObsConfig::DEFAULT_TRACE_CAPACITY);
    }
}
