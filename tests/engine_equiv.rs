//! Order-oracle battery: the engine's timing wheel must dispatch events
//! in exactly the `(time, seq)` order a binary heap over the same keys
//! gives. Debug builds carry that heap inside the wheel as an order
//! oracle that asserts on every pop (see the `continuum::wheel` module
//! docs), so each scenario here runs once and *is* the check; the
//! assertions below only make sure the run was not vacuous. The test
//! names keep "backend identical": the heap used to be a second engine
//! backend, and is now the oracle the wheel is held to. Scenarios
//! mirror the three golden export modes of `examples/quickstart.rs` —
//! the aimed-fault quickstart, seeded random chaos and the
//! elastic-serving surge — plus an adversarial timestamp-collision run.
//!
//! Release builds compile the oracle out, so this file is empty there.
#![cfg(debug_assertions)]

use myrtus::continuum::admission::AdmissionPolicy;
use myrtus::continuum::fault::FaultPlan;
use myrtus::continuum::ids::{LinkId, NodeId};
use myrtus::continuum::net::Protocol;
use myrtus::continuum::node::Layer;
use myrtus::continuum::retry::RetryPolicy;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::{Continuum, ContinuumBuilder};
use myrtus::mirto::engine::{EngineConfig, OrchestrationEngine, OrchestrationReport};
use myrtus::mirto::managers::elasticity::ElasticityConfig;
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::obs::ObsConfig;
use myrtus::workload::arrival::ArrivalSpec;
use myrtus::workload::scenarios;
use myrtus::workload::tosca::{Application, Component, ComponentKind};

/// Asserts the run dispatched events and recorded them: an oracle that
/// never pops checks nothing.
fn assert_ran(scenario: &str, continuum: &Continuum, report: &OrchestrationReport) {
    assert!(continuum.sim().processed_events() > 0, "{scenario}: no event was dispatched");
    assert!(!report.obs.export_trace_jsonl().is_empty(), "{scenario}: the run left an empty trace");
}

/// Quickstart-style run: telerehab workload, fault tolerance on
/// (retries with per-attempt timeout, k=2 replication of critical
/// stages), plus an aimed mid-run node crash and a link cut-and-heal.
fn quickstart_run() {
    let mut continuum = ContinuumBuilder::new().build();
    let link = continuum
        .sim()
        .network()
        .iter_links()
        .map(|(id, _, _)| id)
        .next()
        .expect("reference topology has links");
    FaultPlan::new()
        .crash(NodeId::from_raw(1), SimTime::from_millis(400), Some(SimDuration::from_millis(400)))
        .cut_link(link, SimTime::from_millis(500), Some(SimDuration::from_millis(200)))
        .apply(continuum.sim_mut());
    let retry = RetryPolicy {
        attempt_timeout: Some(SimDuration::from_millis(150)),
        ..RetryPolicy::default()
    };
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig {
            obs: ObsConfig::on(),
            retry,
            replicate_critical: true,
            ..EngineConfig::default()
        },
    );
    let report = engine
        .run(&mut continuum, vec![scenarios::telerehab_with(3)], SimTime::from_secs(6))
        .expect("placeable");
    assert_ran("quickstart", &continuum, &report);
}

/// Chaos-style run: a seeded random fault plan (crashes, link cuts,
/// permanent outages) absorbed by the retry subsystem.
fn chaos_run(seed: u64) {
    let horizon = SimTime::from_secs(5);
    let mut continuum = ContinuumBuilder::new().build();
    let nodes = continuum.all_nodes();
    let links: Vec<LinkId> = continuum.sim().network().iter_links().map(|(id, _, _)| id).collect();
    FaultPlan::random_chaos(
        seed,
        &nodes,
        &links,
        0.25,
        0.25,
        0.3,
        horizon,
        SimDuration::from_millis(100),
        SimDuration::from_secs(1),
    )
    .apply(continuum.sim_mut());
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig { obs: ObsConfig::on(), ..EngineConfig::default() },
    );
    let report = engine
        .run(&mut continuum, vec![scenarios::telerehab_with(2)], horizon)
        .expect("time-zero placement precedes every fault");
    assert_ran(&format!("chaos(seed={seed})"), &continuum, &report);
}

/// Surge-style run: seeded open-loop overload through admission
/// control, load shedding and the MAPE autoscaler.
fn surge_run(seed: u64) {
    let mut continuum: Continuum = ContinuumBuilder::new().build();
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig {
            obs: ObsConfig::on(),
            admission: Some(AdmissionPolicy { rate_per_window: 20, ..AdmissionPolicy::default() }),
            elasticity: Some(ElasticityConfig::default()),
            ..EngineConfig::default()
        },
    );
    let report = engine
        .run(
            &mut continuum,
            scenarios::surge::surge_mix(seed, SimTime::from_secs(4)),
            SimTime::from_secs(5),
        )
        .expect("placeable");
    assert_ran(&format!("surge(seed={seed})"), &continuum, &report);
}

/// Adversarial tie-break run: everything in this workload is built to
/// collide on timestamps. Four byte-identical worker stages share one
/// deadline class and one work size, frames arrive on an exact 1 ms
/// grid, retry backoff has zero jitter and a flat cap (every retry of
/// a simultaneous crash lands on the same future instant), per-attempt
/// timeouts are identical, and k=2 replication doubles every
/// deadline-critical stage into equal-deadline twins. Two nodes crash
/// at the *same* microsecond mid-run so recovery events for many tasks
/// are enqueued at one timestamp. Correct runs depend entirely on the
/// `(time, seq)` total order — any bias in how the wheel drains
/// equal-key buckets pops a key the oracle does not expect.
fn collision_run() -> OrchestrationReport {
    let mut app =
        Application::new("collision", ArrivalSpec::periodic(SimDuration::from_millis(1), 50))
            .with_component(
                Component::new("source", ComponentKind::Sensor)
                    .with_work_mc(0.05)
                    .with_preferred_layer(Layer::Edge),
            );
    for i in 0..4 {
        app = app
            .with_component(
                Component::new(format!("worker-{i}"), ComponentKind::Function)
                    .with_work_mc(2.0)
                    .with_mem_mb(32)
                    .with_max_latency(SimDuration::from_millis(40)),
            )
            .with_connection("source", format!("worker-{i}"), 4_096, Protocol::Mqtt);
    }

    let mut continuum = ContinuumBuilder::new().build();
    let crash_at = SimTime::from_millis(20);
    FaultPlan::new()
        .crash(NodeId::from_raw(1), crash_at, Some(SimDuration::from_millis(10)))
        .crash(NodeId::from_raw(2), crash_at, Some(SimDuration::from_millis(10)))
        .apply(continuum.sim_mut());
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: SimDuration::from_millis(5),
        backoff_cap: SimDuration::from_millis(5),
        jitter_frac: 0.0,
        attempt_timeout: Some(SimDuration::from_millis(10)),
        ..RetryPolicy::default()
    };
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig {
            obs: ObsConfig::on(),
            retry,
            replicate_critical: true,
            ..EngineConfig::default()
        },
    );
    let report = engine.run(&mut continuum, vec![app], SimTime::from_secs(2)).expect("placeable");
    assert_ran("collision", &continuum, &report);
    report
}

#[test]
fn quickstart_exports_are_backend_identical() {
    quickstart_run();
}

#[test]
fn equal_timestamp_collisions_are_backend_identical() {
    let report = collision_run();
    // The scenario must actually produce the collisions it advertises:
    // replicated twins deduping and the double-crash driving retries.
    assert!(
        report.obs.counter_sum("replica_dedups") > 0,
        "collision scenario produced no replica dedups — twins no longer race"
    );
    assert!(
        report.obs.counter_sum("task_retries") > 0,
        "collision scenario produced no retries — the aimed crashes miss every task"
    );
}

#[test]
fn chaos_exports_are_backend_identical() {
    for seed in 0..3 {
        chaos_run(seed);
    }
}

#[test]
fn surge_exports_are_backend_identical() {
    for seed in [1, 7] {
        surge_run(seed);
    }
}
