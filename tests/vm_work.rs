//! Host-side VM work of the E15 live-migration mix, counted exactly.
//!
//! Wall time on a small shared host cannot resolve a change of a few
//! per cent in the interpreter's share of a run; the number of steps
//! the host interprets can. This test runs the `migrate` shape (the
//! E15 bodied region mix at seed 7: 3 regions, the hot region at 4×
//! overload, 0.4 s of arrivals plus a 1 s drain, E15's federation
//! tuning, live migration) and pins `SimCore::vm_interpreted_steps`.
//!
//! The library holds one program per mix. The compute and io bodies
//! are branch-free loops whose census is read off the op list, so they
//! interpret nothing to be priced; the branch body's `Jz` sends it to
//! the census run. No program is seed-steered, so no arrival runs a
//! scratch run to halt, and what is left is the advance of each image
//! a live checkpoint or a kill evicted:
//!
//! | part              | steps   |
//! |-------------------|---------|
//! | branch census run | 452,365 |
//! | eviction advances | 458,197 |
//! | total             | 910,562 |
//!
//! Before the census was read off the op list, the compute and io
//! census runs added 208,334 + 186,337 steps (1,305,233 in all).
//!
//! A change to the count must say why in the change log, as with an
//! explained golden.

use myrtus::continuum::engine::VmConfig;
use myrtus::continuum::federation::FederatedContinuumBuilder;
use myrtus::continuum::ids::RegionId;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::{ContinuumBuilder, HopSpec};
use myrtus::mirto::engine::{EngineConfig, OrchestrationEngine};
use myrtus::mirto::managers::elasticity::ElasticityConfig;
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::mirto::{FederationConfig, MigrationMode};
use myrtus::obs::ObsConfig;
use myrtus::workload::scenarios::programs::bodied_region_mix;

const SEED: u64 = 7;
const REGIONS: u16 = 3;

#[test]
fn migrate_mix_interprets_a_pinned_step_count() {
    let shape = ContinuumBuilder::new()
        .edge_multicores(2)
        .edge_hmpsocs(2)
        .edge_riscvs(0)
        .gateways(1)
        .fmdcs(0)
        .cloud_servers(0);
    let mut fed = FederatedContinuumBuilder::new()
        .regions(REGIONS as usize)
        .region_shape(shape)
        .wan_hop(HopSpec::new(SimDuration::from_millis(10), 400.0))
        .build();
    let horizon = SimTime::from_millis(400);
    let (mix, library) = bodied_region_mix(SEED, REGIONS, horizon, 0, 4.0);
    fed.sim_mut().set_vm(VmConfig::new(library.clone()));
    let apps =
        mix.into_iter().map(|(app, r)| (app, RegionId::from_raw(r), SimTime::ZERO)).collect();
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig {
            obs: ObsConfig::on(),
            seed: SEED,
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
            migration: MigrationMode::Live,
            ..EngineConfig::default()
        },
    );
    let drain = SimDuration::from_secs(1);
    let report = engine.run_federated(&mut fed, apps, horizon + drain).expect("placeable");
    assert!(report.obs.counter_value("task_migrations_live", "") > 0, "a live migration ran");

    // Library order is compute, branch, io.
    let census: Vec<u64> = library.iter().map(|p| p.census().interpreted).collect();
    assert_eq!(census, [0, 452_365, 0], "only the branch body's census runs");
    let interpreted = fed.sim_mut().vm_interpreted_steps();
    assert_eq!(interpreted - census.iter().sum::<u64>(), 458_197, "eviction advances");
    assert_eq!(interpreted, 910_562);
}
