//! Criterion bench behind E8: KV-store operation cost, Raft group
//! simulation throughput, and the cost of one MAPE monitoring ingest
//! into the KB.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use myrtus::continuum::engine::NullDriver;
use myrtus::continuum::monitor::MonitoringReport;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::kb::command::KvCommand;
use myrtus::kb::raft::RaftCluster;
use myrtus::kb::store::KvStore;
use myrtus::kb::KnowledgeBase;

fn bench_kv_store(c: &mut Criterion) {
    c.bench_function("kvstore-10k-puts", |b| {
        b.iter(|| {
            let mut kv = KvStore::new();
            for i in 0..10_000u32 {
                kv.apply(
                    &KvCommand::put(format!("/registry/nodes/{:06}", i % 512), b"record"),
                    SimTime::ZERO,
                );
            }
            kv
        });
    });
    c.bench_function("kvstore-range-scan", |b| {
        let mut kv = KvStore::new();
        for i in 0..2_000u32 {
            kv.apply(&KvCommand::put(format!("/registry/nodes/{i:06}"), b"x"), SimTime::ZERO);
        }
        b.iter(|| kv.range("/registry/nodes/").len());
    });
}

fn bench_raft(c: &mut Criterion) {
    let mut group = c.benchmark_group("raft-elect-and-commit");
    group.sample_size(10);
    for n in [3usize, 5, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut cluster = RaftCluster::new(n, 7, SimDuration::from_millis(5));
                cluster.await_leader(SimTime::from_secs(3)).expect("elects");
                let leader = cluster.leader().expect("leader");
                for i in 0..10 {
                    cluster
                        .propose(leader, KvCommand::put(format!("/k{i}"), b"v"))
                        .expect("accepts");
                }
                cluster.run_for(SimDuration::from_millis(500));
                cluster
            });
        });
    }
    group.finish();
}

/// One `ingest_report` per iteration: a report of the 11-node reference
/// continuum, as the monitor phase ingests each MAPE round. The KB is
/// kept across iterations, so its registry records update in place and
/// its history streams run at their retention cap once full, as in a
/// long run.
fn bench_ingest(c: &mut Criterion) {
    let mut continuum = ContinuumBuilder::new().build();
    continuum.sim_mut().run_until(SimTime::from_secs(1), &mut NullDriver);
    let report = MonitoringReport::collect(continuum.sim());
    assert_eq!(report.nodes.len(), 11, "the reference continuum");
    let mut kb = KnowledgeBase::new();
    c.bench_function("kb-ingest-report-11-nodes", |b| {
        b.iter(|| kb.ingest_report(black_box(&report), |_| 1))
    });
}

criterion_group!(benches, bench_kv_store, bench_raft, bench_ingest);
criterion_main!(benches);
