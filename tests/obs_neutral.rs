//! Observing must never steer: every scenario runs once with
//! observability on and once with it off, and every decision the run
//! reports must be identical. The controllers read their telemetry from
//! the Knowledge Base, so the only difference obs may make is its own
//! bookkeeping: the exported handle and the periodic scrape events.
//!
//! Scenarios: the quickstart fault run, seeded chaos, the elastic
//! surge, E14 federation (`region_mix`) and E15 live migration.

use myrtus::continuum::admission::AdmissionPolicy;
use myrtus::continuum::engine::VmConfig;
use myrtus::continuum::fault::FaultPlan;
use myrtus::continuum::federation::{FederatedContinuum, FederatedContinuumBuilder};
use myrtus::continuum::ids::{LinkId, NodeId, RegionId};
use myrtus::continuum::retry::RetryPolicy;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::{ContinuumBuilder, HopSpec};
use myrtus::mirto::engine::{
    EngineConfig, MigrationMode, OrchestrationEngine, OrchestrationReport,
};
use myrtus::mirto::managers::elasticity::ElasticityConfig;
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::mirto::FederationConfig;
use myrtus::obs::{ObsConfig, TraceKind};
use myrtus::workload::scenarios;
use myrtus::workload::scenarios::federation::region_mix;
use myrtus::workload::scenarios::programs::bodied_region_mix;

/// Every report field except the obs handle and the event count,
/// rendered with `Debug` (shortest round-trip floats, so equal strings
/// mean bit-equal values). The destructuring is exhaustive: a new report
/// field fails to compile here until it is classified.
fn decisions(r: &OrchestrationReport) -> String {
    let OrchestrationReport {
        policy,
        horizon,
        apps,
        total_energy_j,
        layer_energy_j,
        reallocations,
        op_switches,
        detours,
        lost_tasks,
        accel_reconfigurations,
        handshake_cycles,
        app_point_switches,
        pods_bound,
        pod_moves,
        bursts,
        tasks_bursted,
        tasks_migrated,
        events: _,
        obs: _,
    } = r;
    format!(
        "{policy:?} {horizon:?} {apps:#?} {total_energy_j:?} {layer_energy_j:?} \
         {reallocations} {op_switches} {detours} {lost_tasks} {accel_reconfigurations} \
         {handshake_cycles} {app_point_switches} {pods_bound} {pod_moves} {bursts} \
         {tasks_bursted} {tasks_migrated}"
    )
}

/// Runs `scenario` with obs on and off, asserts the two reports agree on
/// every decision and differ in events by exactly the scrapes, and
/// returns the obs-on report for non-vacuity checks.
fn assert_obs_neutral<F>(name: &str, scenario: F) -> OrchestrationReport
where
    F: Fn(ObsConfig) -> OrchestrationReport,
{
    let on = scenario(ObsConfig::on());
    let off = scenario(ObsConfig::off());
    assert!(on.total_completed() > 0, "{name}: nothing completed");
    assert!(!off.obs.enabled(), "{name}: the obs-off arm recorded");
    let (d_on, d_off) = (decisions(&on), decisions(&off));
    if let Some((a, b)) = d_on.lines().zip(d_off.lines()).find(|(a, b)| a != b) {
        panic!("{name}: obs on/off reports differ: on `{a}` vs off `{b}`");
    }
    assert_eq!(d_on, d_off, "{name}: obs on/off reports differ in length");
    let scrapes = on.obs.counter_value("obs_scrapes", "");
    assert!(scrapes > 0, "{name}: the obs-on arm never scraped");
    assert_eq!(on.events - off.events, scrapes, "{name}: extra events are not the scrapes");
    on
}

const QUICKSTART_HORIZON: SimTime = SimTime::from_secs(6);

/// The quickstart's fault-tolerant engine: retries with a per-attempt
/// timeout plus k=2 replication of deadline-critical stages.
fn fault_tolerant(obs: ObsConfig) -> OrchestrationEngine {
    let retry = RetryPolicy {
        attempt_timeout: Some(SimDuration::from_millis(150)),
        ..RetryPolicy::default()
    };
    OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig { obs, retry, replicate_critical: true, ..EngineConfig::default() },
    )
}

/// The quickstart's aimed crash: the midpoint of the first task started
/// after 300 ms (in a fault-free probe run) whose service exceeds
/// 200 µs, as `(node, at_us)`.
fn aimed_crash() -> (u32, u64) {
    let probe = fault_tolerant(ObsConfig::on())
        .run(
            &mut ContinuumBuilder::new().build(),
            vec![scenarios::telerehab_with(3)],
            QUICKSTART_HORIZON,
        )
        .expect("probe placeable");
    let events = probe.obs.trace_events();
    for (i, e) in events.iter().enumerate() {
        let TraceKind::TaskStart { node, task } = e.kind else { continue };
        if e.at_us < 300_000 {
            continue;
        }
        let done = events[i + 1..].iter().find_map(|l| match l.kind {
            TraceKind::TaskComplete { node: n, task: t, .. } if n == node && t == task => {
                Some(l.at_us)
            }
            _ => None,
        });
        if let Some(done) = done.filter(|&d| d - e.at_us > 200) {
            return (node, e.at_us + (done - e.at_us) / 2);
        }
    }
    panic!("probe run has no task with a >200 µs service window");
}

/// The quickstart fault run: the aimed node crash plus a link
/// cut-and-heal.
fn quickstart((victim, crash_at_us): (u32, u64), obs: ObsConfig) -> OrchestrationReport {
    let mut continuum = ContinuumBuilder::new().build();
    let link = continuum.sim().network().iter_links().map(|(id, _, _)| id).next().expect("links");
    FaultPlan::new()
        .crash(
            NodeId::from_raw(victim),
            SimTime::from_micros(crash_at_us),
            Some(SimDuration::from_millis(400)),
        )
        .cut_link(link, SimTime::from_millis(500), Some(SimDuration::from_millis(200)))
        .apply(continuum.sim_mut());
    fault_tolerant(obs)
        .run(&mut continuum, vec![scenarios::telerehab_with(3)], QUICKSTART_HORIZON)
        .expect("placeable")
}

/// The quickstart's chaos mode: a seeded random fault plan (crashes,
/// link cuts, permanent outages) absorbed by the retry subsystem.
fn chaos(seed: u64, obs: ObsConfig) -> OrchestrationReport {
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
        QUICKSTART_HORIZON,
        SimDuration::from_millis(100),
        SimDuration::from_secs(1),
    )
    .apply(continuum.sim_mut());
    fault_tolerant(obs)
        .run(&mut continuum, vec![scenarios::telerehab_with(3)], QUICKSTART_HORIZON)
        .expect("time-zero placement precedes every fault")
}

/// The elastic-serving surge: admission control plus the autoscaler.
fn surge(seed: u64, obs: ObsConfig) -> OrchestrationReport {
    let mut continuum = ContinuumBuilder::new().build();
    let cfg = EngineConfig {
        obs,
        admission: Some(AdmissionPolicy { rate_per_window: 20, ..AdmissionPolicy::default() }),
        elasticity: Some(ElasticityConfig::default()),
        ..EngineConfig::default()
    };
    OrchestrationEngine::new(Box::new(GreedyBestFit::new()), cfg)
        .run(
            &mut continuum,
            scenarios::surge::surge_mix(seed, SimTime::from_secs(4)),
            SimTime::from_secs(5),
        )
        .expect("placeable")
}

/// E14/E15's engine: snappy autoscaling for the small regions plus
/// escalation to auctioned peer regions.
fn federated_engine(obs: ObsConfig, seed: u64, migration: MigrationMode) -> OrchestrationEngine {
    OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig {
            obs,
            seed,
            elasticity: Some(ElasticityConfig {
                scale_up_utilization: 0.5,
                scale_up_queue: 2.0,
                cooldown_rounds: 1,
                max_replicas: 4,
                ..ElasticityConfig::default()
            }),
            federation: Some(FederationConfig {
                burst_queue: 8.0,
                release_queue: 4.0,
                escalation_rounds: 1,
                min_headroom_mc_per_s: 2_000.0,
                ..FederationConfig::default()
            }),
            migration,
            ..EngineConfig::default()
        },
    )
}

/// Three E14/E15 regions (two quad-core boards, two HMPSoCs and a
/// gateway each) over a 10 ms / 400 Mbit/s metro WAN.
fn federated_continuum() -> FederatedContinuum {
    let shape = ContinuumBuilder::new()
        .edge_multicores(2)
        .edge_hmpsocs(2)
        .edge_riscvs(0)
        .gateways(1)
        .fmdcs(0)
        .cloud_servers(0);
    FederatedContinuumBuilder::new()
        .regions(3)
        .region_shape(shape)
        .wan_hop(HopSpec::new(SimDuration::from_millis(10), 400.0))
        .build()
}

/// E14: region 0's bulk tenant at 2× load, bursting to peers.
fn region_mix_run(seed: u64, obs: ObsConfig) -> OrchestrationReport {
    let mut fed = federated_continuum();
    let apps = region_mix(seed, 3, SimTime::from_secs(4), 0, 2.0)
        .into_iter()
        .map(|(app, r)| (app, RegionId::from_raw(r), SimTime::ZERO))
        .collect();
    federated_engine(obs, seed, MigrationMode::Off)
        .run_federated(&mut fed, apps, SimTime::from_secs(5))
        .expect("placeable")
}

/// E15: VM-bodied tenants at 4× load in region 0; `migration` picks how
/// burst awards drain the hot region's backlog.
fn bodied_run(seed: u64, migration: MigrationMode, obs: ObsConfig) -> OrchestrationReport {
    let mut fed = federated_continuum();
    let (mix, library) = bodied_region_mix(seed, 3, SimTime::from_secs(4), 0, 4.0);
    fed.sim_mut().set_vm(VmConfig::new(library));
    let apps =
        mix.into_iter().map(|(app, r)| (app, RegionId::from_raw(r), SimTime::ZERO)).collect();
    federated_engine(obs, seed, migration)
        .run_federated(&mut fed, apps, SimTime::from_secs(5))
        .expect("placeable")
}

#[test]
fn quickstart_decisions_ignore_obs() {
    let crash = aimed_crash();
    let on = assert_obs_neutral("quickstart", |obs| quickstart(crash, obs));
    assert!(on.obs.counter_value("task_retries", "") > 0, "quickstart: the faults hit nothing");
}

#[test]
fn chaos_decisions_ignore_obs() {
    for seed in 1..=3 {
        let on = assert_obs_neutral(&format!("chaos(seed={seed})"), |obs| chaos(seed, obs));
        assert!(
            on.obs.counter_value("link_transitions", "down") > 0,
            "chaos(seed={seed}): the fault plan never fired"
        );
    }
}

#[test]
fn surge_decisions_ignore_obs() {
    for seed in 1..=3 {
        let on = assert_obs_neutral(&format!("surge(seed={seed})"), |obs| surge(seed, obs));
        assert!(
            on.obs.counter_value("scale_ups", "") > 0,
            "surge(seed={seed}): the autoscaler never acted"
        );
    }
}

#[test]
fn federation_decisions_ignore_obs() {
    for seed in 1..=3 {
        let on = assert_obs_neutral(&format!("region_mix(seed={seed})"), |obs| {
            region_mix_run(seed, obs)
        });
        assert!(on.bursts > 0, "region_mix(seed={seed}): no burst link opened");
    }
}

#[test]
fn live_migration_decisions_ignore_obs() {
    let on = assert_obs_neutral("e15 live(seed=7)", |obs| bodied_run(7, MigrationMode::Live, obs));
    assert!(on.tasks_migrated > 0, "e15 live: nothing migrated");
}

/// The app-point trend rule reads its rolling miss-rate window from the
/// KB. E14 at seed 8 ramps one tenant's windowed miss rate through 0.1
/// without crossing the 0.2 snapshot threshold, so the degrade comes
/// from the trend rule alone, and it must fire with obs off too.
#[test]
fn trend_rule_decisions_ignore_obs() {
    let on = assert_obs_neutral("region_mix(seed=8)", |obs| region_mix_run(8, obs));
    let trend_degrades = on
        .obs
        .trace_events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ManagerAction { action: "degrade_trend", .. }))
        .count();
    assert!(trend_degrades > 0, "region_mix(seed=8): the trend rule never fired");
}
