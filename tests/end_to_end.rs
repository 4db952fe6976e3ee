//! Cross-crate integration: API daemon → DPE flow → MIRTO engine →
//! continuum simulation, exercising every pillar in one path.

use myrtus::continuum::fault::FaultPlan;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::dpe::deploy::DeploymentSpec;
use myrtus::dpe::flow::run_flow;
use myrtus::mirto::api::{ApiDaemon, ApiRequest, ApiResponse, Operation};
use myrtus::mirto::engine::{run_orchestration, EngineConfig, OrchestrationEngine};
use myrtus::mirto::policies::{
    GreedyBestFit, KubeLike, LayerPinned, PlacementPolicy, RandomPlacement, RoundRobin,
};
use myrtus::mirto::swarm::{AcoPlacement, PsoPlacement};
use myrtus::workload::scenarios;

#[test]
fn api_accepted_application_runs_end_to_end() {
    let mut api = ApiDaemon::new(b"it-secret");
    let token = api.authenticator().issue("ci", &["deploy"], SimTime::from_secs(10));
    let profile = scenarios::telerehab_with(1).to_profile();
    let resp = api
        .handle(&ApiRequest { token, operation: Operation::Deploy { profile } }, SimTime::ZERO)
        .expect("valid request");
    let ApiResponse::Accepted { application, .. } = resp else {
        panic!("expected acceptance");
    };
    let report = run_orchestration(
        Box::new(GreedyBestFit::new()),
        EngineConfig::default(),
        vec![application],
        SimTime::from_secs(3),
    )
    .expect("placeable");
    assert!(report.apps[0].completed >= 25, "{:?}", report.apps[0]);
}

#[test]
fn dpe_package_feeds_the_engine() {
    let result =
        run_flow(&scenarios::smart_mobility_with(SimTime::from_secs(2))).expect("flow succeeds");
    let text = result.spec.to_package();
    let spec = DeploymentSpec::from_package(&text).expect("round trips");
    let report = run_orchestration(
        Box::new(GreedyBestFit::new()),
        EngineConfig::default(),
        vec![spec.application],
        SimTime::from_secs(4),
    )
    .expect("placeable");
    assert!(report.apps[0].completed > 0);
}

#[test]
fn every_policy_completes_the_standard_mix() {
    let policies: Vec<Box<dyn PlacementPolicy + Send>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomPlacement::new(2)),
        Box::new(LayerPinned::cloud_only()),
        Box::new(LayerPinned::edge_only()),
        Box::new(GreedyBestFit::new()),
        Box::new(KubeLike::new()),
        Box::new(PsoPlacement::new(2).with_iterations(15)),
        Box::new(AcoPlacement::new(2).with_iterations(15)),
    ];
    for policy in policies {
        let name = policy.name();
        let report = run_orchestration(
            policy,
            EngineConfig::default(),
            vec![scenarios::telerehab_with(1)],
            SimTime::from_secs(4),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.apps[0].completed > 0, "{name} completes something: {:?}", report.apps[0]);
    }
}

#[test]
fn cognitive_policies_beat_silos_on_the_mixed_workload() {
    let horizon = SimTime::from_secs(6);
    let apps = || scenarios::standard_mix(2);
    let greedy =
        run_orchestration(Box::new(GreedyBestFit::new()), EngineConfig::default(), apps(), horizon)
            .expect("placeable");
    let cloud = run_orchestration(
        Box::new(LayerPinned::cloud_only()),
        EngineConfig::static_baseline(),
        apps(),
        horizon,
    )
    .expect("placeable");
    // Shape claim (paper OBJ2): cognitive placement sustains at least the
    // silo's completions and better latency on the interactive apps.
    assert!(greedy.total_completed() >= cloud.total_completed());
    assert!(
        greedy.mean_latency_ms() < cloud.mean_latency_ms(),
        "greedy {} vs cloud {}",
        greedy.mean_latency_ms(),
        cloud.mean_latency_ms()
    );
}

#[test]
fn engine_against_custom_topology() {
    let mut continuum = ContinuumBuilder::new()
        .edge_multicores(1)
        .edge_hmpsocs(1)
        .edge_riscvs(0)
        .gateways(1)
        .fmdcs(2)
        .cloud_servers(2)
        .build();
    let report = OrchestrationEngine::new(Box::new(GreedyBestFit::new()), EngineConfig::default())
        .run(&mut continuum, vec![scenarios::telerehab_with(1)], SimTime::from_secs(3))
        .expect("placeable");
    assert!(report.apps[0].completed > 0);
    assert_eq!(report.layer_energy_j.len(), 3);
}

#[test]
fn recovery_path_delivers_lost_tasks_back_to_completion() {
    // A crash mid-run with the retry subsystem on: tasks stranded on
    // the victim are re-offered through the recovery queue, re-placed
    // on survivors, and the application finishes whole.
    use myrtus::obs::{span::reconstruct, ObsConfig, TraceKind};

    let probe = run_orchestration(
        Box::new(GreedyBestFit::new()),
        EngineConfig { obs: ObsConfig::on(), ..EngineConfig::default() },
        vec![scenarios::telerehab_with(1)],
        SimTime::from_secs(3),
    )
    .expect("fault-free probe places");
    let clean = probe.apps[0].completed;
    let busiest = probe
        .obs
        .trace_events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::TaskStart { node, .. } => Some(node),
            _ => None,
        })
        .fold(std::collections::BTreeMap::<u32, u64>::new(), |mut acc, n| {
            *acc.entry(n).or_default() += 1;
            acc
        })
        .into_iter()
        .max_by_key(|(n, c)| (*c, std::cmp::Reverse(*n)))
        .expect("work ran")
        .0;

    let mut continuum = ContinuumBuilder::new().build();
    let victim = continuum
        .all_nodes()
        .into_iter()
        .find(|n| n.as_raw() == busiest)
        .expect("same default topology");
    FaultPlan::new()
        .crash(victim, SimTime::from_millis(900), Some(SimDuration::from_millis(400)))
        .apply(continuum.sim_mut());
    let report = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig { obs: ObsConfig::on(), ..EngineConfig::default() },
    )
    .run(&mut continuum, vec![scenarios::telerehab_with(1)], SimTime::from_secs(3))
    .expect("placement precedes the crash");

    assert!(report.obs.counter_value("task_retries", "") >= 1, "the crash forces a retry");
    let spans = reconstruct(&report.obs.trace_events());
    assert!(spans.is_conserved());
    assert!(
        spans.spans.iter().any(|s| s.attempts.iter().any(|a| a.lost) && s.ended_at_us.is_some()),
        "a task lost to the crash is delivered on a later attempt"
    );
    assert_eq!(report.apps[0].completed, clean, "recovery keeps the application whole");
}

#[test]
fn accelerators_are_exploited_for_kernel_stages() {
    let report = run_orchestration(
        Box::new(GreedyBestFit::new()),
        EngineConfig::default(),
        vec![scenarios::telerehab_with(2)],
        SimTime::from_secs(4),
    )
    .expect("placeable");
    // The pose/preproc stages request accel configs; if any landed on an
    // HMPSoC the fabric reconfigures at least once. (Placement may also
    // keep them on plain CPUs; accept either but require the engine to
    // have processed a meaningful number of events.)
    assert!(report.events > 500);
}
