//! Plan-time evaluation fast path: scoring a large candidate batch on a
//! 32-node continuum through the route/transfer cache.
//!
//! `cached` is the steady state, a cache kept across sweeps as the
//! orchestration engine keeps it; `cached-cold` is the worst case, a
//! fresh cache per sweep that runs Dijkstra once for each distinct
//! (src, dst) pair.
//!
//! `estimate-miss` is the engine's common case at run time: the plan
//! instant moves with almost every submission, so the estimate memo
//! misses while the route memo hits, and the estimate walks the
//! memoized path.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use myrtus::continuum::ids::NodeId;
use myrtus::continuum::net::{Protocol, RouteCache};
use myrtus::continuum::time::SimTime;
use myrtus::continuum::topology::{Continuum, ContinuumBuilder};
use myrtus::kb::KnowledgeBase;
use myrtus::mirto::placement::{evaluate, Placement, PlanContext};
use myrtus::workload::graph::RequestDag;
use myrtus::workload::scenarios;

const CANDIDATES: usize = 240;

fn platform() -> Continuum {
    ContinuumBuilder::new()
        .edge_multicores(8)
        .edge_hmpsocs(8)
        .edge_riscvs(6)
        .gateways(4)
        .fmdcs(4)
        .cloud_servers(2)
        .build()
}

/// Deterministic candidate batch: a spread of placements mixing
/// colocated, scattered and layer-crossing assignments.
fn candidate_batch(nodes: &[NodeId], services: usize) -> Vec<Placement> {
    (0..CANDIDATES)
        .map(|i| {
            Placement::new(
                (0..services)
                    .map(|j| nodes[(i * 7 + j * 13 + (i * j) % 5) % nodes.len()])
                    .collect(),
            )
        })
        .collect()
}

fn bench_placement_eval(c: &mut Criterion) {
    let continuum = platform();
    let kb = KnowledgeBase::new();
    let app = scenarios::telerehab();
    let dag = RequestDag::from_application(&app).expect("valid");
    let all: Vec<NodeId> = continuum.all_nodes();
    assert!(all.len() >= 30, "acceptance asks for a >=30-node continuum");
    let batch = candidate_batch(&all, dag.nodes().len());

    let mut group = c.benchmark_group("placement-eval-32-nodes");
    group.sample_size(20);
    group.throughput(Throughput::Elements(CANDIDATES as u64));

    let candidates = || vec![all.clone(); dag.nodes().len()];
    // Steady state: the cache persists across sweeps, as it does inside
    // the orchestration engine (epoch-invalidated, not rebuilt).
    let cache = RouteCache::new();
    let cached = PlanContext::new(continuum.sim(), &kb, &app, &dag, candidates(), &cache);
    group.bench_function(BenchmarkId::from_parameter("cached"), |b| {
        b.iter(|| batch.iter().map(|p| evaluate(&cached, p)).filter(|s| s.feasible).count());
    });

    // Cold cache: pays every miss once per sweep — the worst case.
    group.bench_function(BenchmarkId::from_parameter("cached-cold"), |b| {
        b.iter(|| {
            let cold = RouteCache::new();
            let ctx = PlanContext::new(continuum.sim(), &kb, &app, &dag, candidates(), &cold);
            batch.iter().map(|p| evaluate(&ctx, p)).filter(|s| s.feasible).count()
        });
    });
    group.finish();

    // One estimate per iteration at a fresh plan instant, over a route
    // the memo already holds: the platform's longest.
    let net = continuum.sim().network();
    let memo = RouteCache::new();
    let (hops, from, to) = all
        .iter()
        .flat_map(|&from| all.iter().map(move |&to| (from, to)))
        .filter_map(|(from, to)| Some((net.route(from, to).ok()?.len(), from, to)))
        .max()
        .expect("a connected platform");
    assert!(hops >= 2, "a multi-hop route: {hops} hops");
    memo.route(net, from, to).expect("reachable");
    let mut now_us = 0;
    let mut single = c.benchmark_group("route-cache");
    single.bench_function("estimate-miss", |b| {
        b.iter(|| {
            now_us += 1;
            let at = SimTime::from_micros(now_us);
            memo.estimate(net, at, from, to, black_box(4_096), Protocol::Mqtt)
        })
    });
    single.finish();
    let stats = memo.stats();
    assert_eq!(stats.route_misses, 1, "every estimate walked the memoized route: {stats:?}");
    assert_eq!(stats.estimate_hits, 0, "every estimate missed: {stats:?}");
}

criterion_group!(benches, bench_placement_eval);
criterion_main!(benches);
