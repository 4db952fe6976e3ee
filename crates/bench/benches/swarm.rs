//! Criterion bench behind E4: swarm placement optimizer cost vs greedy
//! on the full 22-node platform.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use myrtus::continuum::ids::NodeId;
use myrtus::continuum::net::RouteCache;
use myrtus::continuum::topology::{Continuum, ContinuumBuilder};
use myrtus::kb::KnowledgeBase;
use myrtus::mirto::placement::PlanContext;
use myrtus::mirto::policies::{GreedyBestFit, PlacementPolicy};
use myrtus::mirto::swarm::{AcoPlacement, PsoPlacement};
use myrtus::workload::graph::RequestDag;
use myrtus::workload::scenarios;

fn platform() -> Continuum {
    ContinuumBuilder::new()
        .edge_multicores(6)
        .edge_hmpsocs(6)
        .edge_riscvs(4)
        .gateways(2)
        .fmdcs(2)
        .cloud_servers(2)
        .build()
}

fn bench_placement(c: &mut Criterion) {
    let continuum = platform();
    let kb = KnowledgeBase::new();
    let app = scenarios::telerehab();
    let dag = RequestDag::from_application(&app).expect("valid");
    let all: Vec<NodeId> = continuum.all_nodes();
    let cache = RouteCache::new();
    let ctx =
        PlanContext::new(continuum.sim(), &kb, &app, &dag, vec![all; dag.nodes().len()], &cache);

    let mut group = c.benchmark_group("placement-22-nodes");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("greedy"), |b| {
        b.iter(|| GreedyBestFit::new().place(&ctx).expect("places"));
    });
    group.bench_function(BenchmarkId::from_parameter("pso-40it"), |b| {
        b.iter(|| PsoPlacement::new(1).with_iterations(40).place(&ctx).expect("places"));
    });
    group.bench_function(BenchmarkId::from_parameter("aco-40it"), |b| {
        b.iter(|| AcoPlacement::new(1).with_iterations(40).place(&ctx).expect("places"));
    });
    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
