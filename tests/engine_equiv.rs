//! Engine-backend equivalence: the timing-wheel + slab hot path and the
//! reference binary-heap + hash-table twin must be *observably
//! indistinguishable*. Every scenario here runs twice — once per
//! [`EngineBackend`] — and asserts byte-identical structured trace,
//! metric snapshot, time-series CSV, critical path and rendered run
//! report. Scenarios mirror the three golden export modes of
//! `examples/quickstart.rs`: the aimed-fault quickstart, seeded random
//! chaos, and the elastic-serving surge.

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
use myrtus::mirto::EngineBackend;
use myrtus::obs::ObsConfig;
use myrtus::workload::arrival::ArrivalSpec;
use myrtus::workload::scenarios;
use myrtus::workload::tosca::{Application, Component, ComponentKind};
use myrtus_bench::report::{render, ReportInputs};

/// Every observable artifact of one run, in export order: trace JSONL,
/// metrics JSONL, time-series CSV, critical-path CSV, rendered report.
struct Artifacts([String; 5]);

const ARTIFACT_NAMES: [&str; 5] =
    ["trace.jsonl", "metrics.jsonl", "timeseries.csv", "critical_path.csv", "report.md"];

fn artifacts(report: &OrchestrationReport) -> Artifacts {
    let trace = report.obs.export_trace_jsonl();
    let metrics = report.obs.export_metrics_jsonl();
    let timeseries = report.obs.export_timeseries_csv();
    let mut cp = String::from("app,stage,node,finished_at_us\n");
    for app in &report.apps {
        for span in &app.critical_path {
            cp.push_str(&format!(
                "{},{},{},{}\n",
                app.app_id,
                span.stage,
                span.node,
                span.finished_at.as_micros()
            ));
        }
    }
    let rendered = render(&ReportInputs {
        trace_jsonl: &trace,
        metrics_jsonl: &metrics,
        timeseries_csv: &timeseries,
        critical_path_csv: &cp,
    });
    Artifacts([trace, metrics, timeseries, cp, rendered])
}

/// Asserts the wheel run and the heap run produced byte-identical
/// artifacts, and that the comparison is not vacuous.
fn assert_equivalent(scenario: &str, wheel: &Artifacts, heap: &Artifacts) {
    assert!(!wheel.0[0].is_empty(), "{scenario}: wheel run produced an empty trace");
    for (name, (w, h)) in ARTIFACT_NAMES.iter().zip(wheel.0.iter().zip(heap.0.iter())) {
        assert!(w == h, "{scenario}: {name} differs between wheel and heap backends");
    }
}

/// Asserts the run really executed on `backend` — otherwise the
/// equivalence tests silently compare wheel against wheel.
fn assert_backend(continuum: &Continuum, backend: EngineBackend) {
    assert_eq!(continuum.sim().backend(), backend, "scenario ran on the wrong backend");
}

/// Runs one scenario closure under the given backend and collects the
/// exported artifacts.
fn run_with<F>(backend: EngineBackend, scenario: F) -> Artifacts
where
    F: FnOnce(EngineBackend) -> OrchestrationReport,
{
    let report = scenario(backend);
    artifacts(&report)
}

fn both<F>(scenario_name: &str, scenario: F)
where
    F: Fn(EngineBackend) -> OrchestrationReport,
{
    let wheel = run_with(EngineBackend::Wheel, &scenario);
    let heap = run_with(EngineBackend::Heap, &scenario);
    assert_equivalent(scenario_name, &wheel, &heap);
}

/// Quickstart-style run: telerehab workload, fault tolerance on
/// (retries with per-attempt timeout, k=2 replication of critical
/// stages), plus an aimed mid-run node crash and a link cut-and-heal.
fn quickstart_run(backend: EngineBackend) -> OrchestrationReport {
    let mut continuum = ContinuumBuilder::new().build();
    // The backend must be chosen before the fault plan schedules its
    // first event.
    continuum.sim_mut().set_backend(backend);
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
    assert_backend(&continuum, backend);
    report
}

/// Chaos-style run: a seeded random fault plan (crashes, link cuts,
/// permanent outages) absorbed by the retry subsystem.
fn chaos_run(backend: EngineBackend, seed: u64) -> OrchestrationReport {
    let horizon = SimTime::from_secs(5);
    let mut continuum = ContinuumBuilder::new().build();
    continuum.sim_mut().set_backend(backend);
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
    assert_backend(&continuum, backend);
    report
}

/// Surge-style run: seeded open-loop overload through admission
/// control, load shedding and the MAPE autoscaler.
fn surge_run(backend: EngineBackend, seed: u64) -> OrchestrationReport {
    let mut continuum: Continuum = ContinuumBuilder::new().build();
    continuum.sim_mut().set_backend(backend);
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
    assert_backend(&continuum, backend);
    report
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
/// `(time, seq)` total order both backends must share — any wheel
/// bucket-draining or heap sift bias in equal-key ordering diverges
/// the trace byte-for-byte.
fn collision_run(backend: EngineBackend) -> OrchestrationReport {
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
    continuum.sim_mut().set_backend(backend);
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
    assert_backend(&continuum, backend);
    report
}

#[test]
fn quickstart_exports_are_backend_identical() {
    both("quickstart", quickstart_run);
}

#[test]
fn equal_timestamp_collisions_are_backend_identical() {
    let report = collision_run(EngineBackend::Wheel);
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
    both("collision", collision_run);
}

#[test]
fn chaos_exports_are_backend_identical() {
    for seed in 0..3 {
        both(&format!("chaos(seed={seed})"), |backend| chaos_run(backend, seed));
    }
}

#[test]
fn surge_exports_are_backend_identical() {
    for seed in [1, 7] {
        both(&format!("surge(seed={seed})"), |backend| surge_run(backend, seed));
    }
}
