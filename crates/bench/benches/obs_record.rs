//! Criterion bench: host cost of one obs recording call on a populated
//! handle — `counter_add`, `observe`, `ts_record` by name,
//! `ts_record_id` through a resolved series id and `trace` into a full
//! ring. Each iteration makes one call and rotates to the next
//! populated series, so the printed time is the cost per call of
//! updating a series that already exists; each `trace` call evicts the
//! oldest of the ring's 65,536 events, as most of a `surge` run's do.
//!
//! The registry holds 374 metric series (22 names × 17 index labels)
//! and the store 320 time series (5 per node over 64 nodes). That is
//! more than an E12 surge run on the 11-node reference continuum
//! registers (29 metric series, 91 time series), so the text searches
//! the memo and the ids skip are as deep as a larger continuum's.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use myrtus::obs::{index_label, Obs, ObsConfig, SeriesId, TraceKind};

const COUNTERS: [&str; 12] = [
    "sim_tasks_dispatched",
    "sim_tasks_started",
    "sim_tasks_completed",
    "sim_tasks_lost",
    "sim_deadline_misses",
    "manager_actions",
    "placement_rejected",
    "placement_rejected_total",
    "route_cache_invalidations",
    "tasks_shed",
    "task_retries",
    "vm_steps_total",
];
const GAUGES: [&str; 6] = [
    "app_window_done",
    "app_window_missed",
    "app_replicas",
    "app_point",
    "run_total_energy_j",
    "run_processed_events",
];
const HISTOGRAMS: [&str; 4] =
    ["task_latency_ms", "task_queue_wait_ms", "checkpoint_size", "request_latency_ms"];
const BOUNDS: &[f64] = &[1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0];
const NODE_SERIES: [&str; 5] =
    ["node_utilization", "node_queue_len", "run_queue_depth", "node_energy_j", "node_up"];
const NODES: usize = 64;

/// Every `(name, label)` pair of `names` under the 17 index labels.
fn keys(names: &[&'static str]) -> Vec<(&'static str, &'static str)> {
    names.iter().flat_map(|&n| (0..17).map(move |i| (n, index_label(i)))).collect()
}

/// An enabled handle with every metric series above recorded once.
fn populated() -> Obs {
    let obs = Obs::new(ObsConfig::on());
    for (n, l) in keys(&COUNTERS) {
        obs.counter_add(n, l, 1);
    }
    for (n, l) in keys(&GAUGES) {
        obs.gauge_set(n, l, 1.0);
    }
    for (n, l) in keys(&HISTOGRAMS) {
        obs.observe(n, l, BOUNDS, 1.0);
    }
    obs
}

/// Every node time-series key, recorded once into `obs`.
fn node_series(obs: &Obs) -> Vec<(&'static str, String)> {
    let keys: Vec<_> =
        (0..NODES).flat_map(|i| NODE_SERIES.map(|n| (n, format!("edge/node-{i:02}")))).collect();
    for (n, l) in &keys {
        obs.ts_record(n, l, 0, 0.0);
    }
    keys
}

/// Runs `f` on the next item of `items` per call, wrapping around.
fn cycling<'a, T>(items: &'a [T], mut f: impl FnMut(&T) + 'a) -> impl FnMut() + 'a {
    let mut i = 0;
    move || {
        f(&items[i]);
        i = if i + 1 == items.len() { 0 } else { i + 1 };
    }
}

fn bench_obs_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_record");
    let obs = populated();
    let counters = keys(&COUNTERS);
    group.bench_function("counter_add", |b| {
        b.iter(cycling(&counters, |&(n, l)| obs.counter_add(n, l, black_box(1))))
    });
    let histograms = keys(&HISTOGRAMS);
    group.bench_function("observe", |b| {
        b.iter(cycling(&histograms, |&(n, l)| obs.observe(n, l, BOUNDS, black_box(7.5))))
    });
    // A fresh store per series bench, so neither grows the other's.
    let obs = populated();
    let series = node_series(&obs);
    group.bench_function("ts_record", |b| {
        b.iter(cycling(&series, |(n, l)| obs.ts_record(n, l, 1, black_box(0.5))))
    });
    let obs = populated();
    let ids: Vec<SeriesId> =
        node_series(&obs).iter().map(|(n, l)| obs.ts_id(n, l).expect("enabled")).collect();
    group.bench_function("ts_record_id", |b| {
        b.iter(cycling(&ids, |&id| obs.ts_record_id(id, 1, black_box(0.5))))
    });
    let obs = Obs::new(ObsConfig::on());
    let capacity = ObsConfig::DEFAULT_TRACE_CAPACITY as u64;
    for at_us in 0..capacity {
        obs.trace(at_us, TraceKind::TaskDispatch { node: 0, task: at_us });
    }
    assert_eq!(obs.trace_len() as u64, capacity, "the ring is full");
    let mut at_us = capacity;
    group.bench_function("trace", |b| {
        b.iter(|| {
            obs.trace(at_us, TraceKind::TaskDispatch { node: 1, task: black_box(at_us) });
            at_us += 1;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_obs_record);
criterion_main!(benches);
