//! Criterion suite behind the PR-6 perf trajectory: raw engine event
//! throughput (timing-wheel push/pop), end-to-end task throughput on
//! the reference continuum, and scrape overhead. The
//! calibrated large-N numbers live in `BENCH_6.json` (see the
//! `myrtus-bench` binary); this suite is the quick interactive view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use myrtus::continuum::engine::{NullDriver, SimCore};
use myrtus::continuum::node::NodeSpec;
use myrtus::continuum::task::TaskInstance;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::obs::{Obs, ObsConfig};

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Pure event-queue churn: `n` timers with pseudo-random firing times,
/// drained to quiescence. No tasks, no nodes — this isolates the
/// event queue's push/pop cost.
fn timer_storm(n: u64) -> u64 {
    let mut sim = SimCore::new();
    sim.reserve_events(n as usize);
    for i in 0..n {
        let delay = splitmix(i) % 1_000_000;
        sim.set_timer(SimDuration::from_micros(delay), i);
    }
    sim.run_until(SimTime::from_secs(2), &mut NullDriver);
    sim.processed_events()
}

fn bench_event_throughput(c: &mut Criterion) {
    const TIMERS: u64 = 20_000;
    let mut group = c.benchmark_group("engine-events");
    group.throughput(Throughput::Elements(TIMERS));
    group.bench_function(BenchmarkId::from_parameter("wheel"), |b| {
        b.iter(|| timer_storm(TIMERS));
    });
    group.finish();
}

/// End-to-end task throughput on the reference Fig. 2 continuum:
/// submission, admission, service and completion for 10k tasks.
fn bench_task_throughput(c: &mut Criterion) {
    const TASKS: u64 = 10_000;
    let mut group = c.benchmark_group("engine-tasks");
    group.throughput(Throughput::Elements(TASKS));
    group.bench_function(BenchmarkId::from_parameter("wheel"), |b| {
        b.iter(|| {
            let mut cont = ContinuumBuilder::new().build();
            let nodes = cont.all_nodes();
            let sim = cont.sim_mut();
            for i in 0..TASKS {
                let node = nodes[(splitmix(i) % nodes.len() as u64) as usize];
                let t = TaskInstance::new(sim.fresh_task_id(), 0.5);
                sim.submit_local(node, t).expect("up");
            }
            sim.run_until(SimTime::from_secs(30), &mut NullDriver);
            sim.processed_events()
        });
    });
    group.finish();
}

/// Scrape cost over the SoA node mirror: one pass samples utilization,
/// queue depth, run-queue depth, energy and liveness for every node.
/// Samples accumulate in the store across iterations (append-only), so
/// the node count is kept modest.
fn bench_scrape(c: &mut Criterion) {
    const NODES: u64 = 512;
    let mut sim = SimCore::new();
    sim.reserve_nodes(NODES as usize);
    for i in 0..NODES {
        sim.add_node(NodeSpec::preset_edge_multicore(format!("n{i}")));
    }
    sim.set_obs(Obs::new(ObsConfig::on()));
    sim.scrape(); // warm-up: builds label caches
    let mut group = c.benchmark_group("engine-scrape");
    group.throughput(Throughput::Elements(NODES));
    group.bench_function(BenchmarkId::from_parameter("512-nodes"), |b| {
        b.iter(|| sim.scrape());
    });
    group.finish();
}

criterion_group!(benches, bench_event_throughput, bench_task_throughput, bench_scrape);
criterion_main!(benches);
