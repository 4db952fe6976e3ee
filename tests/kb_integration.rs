//! Knowledge-Base integration: monitoring snapshots flow into the
//! Raft-replicated registry (the "distributed KB" implementation view),
//! and every replica converges to the same Resource Registry.

use myrtus::continuum::engine::NullDriver;
use myrtus::continuum::monitor::MonitoringReport;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::kb::command::KvCommand;
use myrtus::kb::raft::RaftCluster;
use myrtus::kb::registry::{NodeRecord, RegistryView};
use myrtus::kb::KnowledgeBase;
use myrtus::mirto::managers::privsec::node_security_level;

#[test]
fn monitoring_reports_replicate_to_every_kb_replica() {
    // Drive the continuum a little.
    let mut continuum = ContinuumBuilder::new().build();
    {
        let sim = continuum.sim_mut();
        let edge = sim.nodes()[0].id();
        let t = myrtus::continuum::task::TaskInstance::new(sim.fresh_task_id(), 1.5);
        sim.submit_local(edge, t).expect("submit");
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
    }
    let report = MonitoringReport::collect(continuum.sim());

    // Replicate every registry record through a 3-replica Raft KB.
    let mut cluster = RaftCluster::new(3, 5, SimDuration::from_millis(5));
    let leader = cluster.await_leader(SimTime::from_secs(3)).expect("elects");
    for snap in &report.nodes {
        let tier = continuum
            .sim()
            .node(snap.node)
            .map(|n| node_security_level(n.spec().kind()).tier())
            .unwrap_or(0);
        let record = NodeRecord::from_snapshot(snap, tier, report.at);
        cluster.propose(leader, record.to_command()).expect("leader accepts");
    }
    cluster.run_for(SimDuration::from_secs(1));

    for replica in 0..3 {
        let view = RegistryView::new(cluster.store(replica));
        let all = view.all();
        assert_eq!(all.len(), report.nodes.len(), "replica {replica}");
        // Spot-check a record round-trip.
        let first = &report.nodes[0];
        let rec = view.node(first.node).expect("present");
        assert_eq!(rec.name, first.name);
        assert!((rec.utilization - first.utilization).abs() < 1e-9);
    }
}

#[test]
fn registry_survives_leader_failover() {
    let mut cluster = RaftCluster::new(5, 9, SimDuration::from_millis(5));
    let leader = cluster.await_leader(SimTime::from_secs(3)).expect("elects");
    cluster
        .propose(leader, KvCommand::put("/registry/nodes/000001", b"edge|up"))
        .expect("leader accepts");
    cluster.run_for(SimDuration::from_millis(500));
    cluster.crash(leader);
    let deadline = cluster.now() + SimDuration::from_secs(3);
    let new_leader = cluster.await_leader(deadline).expect("fails over");
    assert_eq!(
        cluster.committed_value(new_leader, "/registry/nodes/000001"),
        Some(b"edge|up".to_vec())
    );
    // The new leader keeps accepting registry updates.
    cluster
        .propose(new_leader, KvCommand::put("/registry/nodes/000002", b"fog|up"))
        .expect("accepts");
    cluster.run_for(SimDuration::from_millis(500));
    assert!(cluster.committed_value(new_leader, "/registry/nodes/000002").is_some());
}

#[test]
fn logical_kb_view_matches_simulation_truth() {
    let mut continuum = ContinuumBuilder::new().build();
    continuum.sim_mut().run_until(SimTime::from_secs(2), &mut NullDriver);
    let report = MonitoringReport::collect(continuum.sim());
    let mut kb = KnowledgeBase::new();
    kb.ingest_report(&report, |_| 1);
    // Every simulated node appears, layer counts match the topology.
    assert_eq!(kb.registry().all().len(), continuum.all_nodes().len());
    assert_eq!(
        kb.available_in_layer(myrtus::continuum::node::Layer::Edge).len(),
        continuum.edge().len()
    );
    // Energy history exists for the cloud server with a positive value.
    let cloud_name =
        continuum.sim().node(continuum.cloud()[0]).expect("exists").spec().name().to_string();
    let latest = kb.history().latest("energy_j", &cloud_name).expect("sampled");
    assert!(latest.value > 0.0);
}

#[test]
fn lease_based_heartbeats_expire_in_the_kb() {
    let mut cluster = RaftCluster::new(3, 2, SimDuration::from_millis(5));
    let leader = cluster.await_leader(SimTime::from_secs(3)).expect("elects");
    cluster
        .propose(
            leader,
            KvCommand::PutWithLease {
                key: "/hb/edge-0".into(),
                value: std::sync::Arc::from(*b"alive"),
                ttl_us: 200_000, // 200 ms
            },
        )
        .expect("accepts");
    cluster.run_for(SimDuration::from_millis(100));
    assert!(cluster.committed_value(leader, "/hb/edge-0").is_some());
    cluster.run_for(SimDuration::from_secs(1));
    assert!(
        cluster.committed_value(leader, "/hb/edge-0").is_none(),
        "heartbeat lease expires without renewal"
    );
}
