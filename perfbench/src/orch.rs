//! `surge` and `migrate`: full MIRTO runs through
//! `OrchestrationEngine`, plus the probes that fill their ledger.
//!
//! * `surge` is the E12b elastic-serving mix (`surge_mix_scaled` at 2×
//!   bulk load) on the reference continuum, with admission
//!   (`rate_per_window: 20`), the E12 autoscaler tuning and obs on, over
//!   a long sim horizon. The MAPE loop, KB ingest and obs time-series
//!   reads dominate; there is no VM.
//! * `migrate` is the E15 live arm: three federated regions, bodied
//!   batch tenants at 4× single-region overload, gossip and auction
//!   bursts, live checkpoint migration. The VM interpreter does the
//!   bulk of the work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use myrtus::continuum::admission::AdmissionPolicy;
use myrtus::continuum::engine::VmConfig;
use myrtus::continuum::federation::{FederatedContinuum, FederatedContinuumBuilder};
use myrtus::continuum::ids::RegionId;
use myrtus::continuum::monitor::MonitoringReport;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::{Continuum, ContinuumBuilder, HopSpec};
use myrtus::kb::KnowledgeBase;
use myrtus::mirto::engine::{EngineConfig, OrchestrationEngine, OrchestrationReport};
use myrtus::mirto::managers::elasticity::ElasticityConfig;
use myrtus::mirto::managers::privsec::node_security_level;
use myrtus::mirto::placement::{Placement, PlanContext};
use myrtus::mirto::policies::{GreedyBestFit, PlaceError, PlacementPolicy};
use myrtus::mirto::{FederationConfig, MigrationMode};
use myrtus::obs::{index_label, ObsConfig};
use myrtus::vm::{Checkpoint, CostTable, IsaClass, Program, VmState};
use myrtus::workload::scenarios::programs::bodied_region_mix;
use myrtus::workload::scenarios::surge::surge_mix_scaled;
use myrtus::workload::tosca::Application;

use crate::ledger::Layers;
use crate::{fnv, Rep, FNV_SEED};

/// Sim seconds every run drains past the arrival horizon.
const DRAIN: SimDuration = SimDuration::from_secs(1);

/// Arrival horizon of `surge`: E12b uses 4 s; the benchmark runs long
/// enough for the time-series store to grow.
#[derive(Debug, Clone, Copy)]
pub struct SurgeSize {
    pub horizon: SimTime,
}

impl SurgeSize {
    pub fn pick(tiny: bool) -> SurgeSize {
        SurgeSize { horizon: SimTime::from_secs(if tiny { 4 } else { 240 }) }
    }
}

/// Arrival horizon of `migrate`: E15 uses 4 s; 0.4 s keeps its burst,
/// auction and live-migration phases at a tenth of the host time. It is
/// also the smallest horizon whose overload still forces a live
/// migration on every seed tried, so the smoke test runs it unshrunk.
#[derive(Debug, Clone, Copy)]
pub struct MigrateSize {
    pub horizon: SimTime,
}

impl MigrateSize {
    pub fn pick(_tiny: bool) -> MigrateSize {
        MigrateSize { horizon: SimTime::from_millis(400) }
    }
}

/// Deploy-time placement calls and the host time they took.
#[derive(Debug, Default)]
struct PlaceStats {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// Timing wrapper around the policy handed to `OrchestrationEngine`.
struct TimedPolicy {
    inner: GreedyBestFit,
    stats: Arc<PlaceStats>,
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        let t = Instant::now();
        let placed = self.inner.place(ctx);
        let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.nanos.fetch_add(nanos, Ordering::Relaxed);
        placed
    }

    fn adaptive(&self) -> bool {
        self.inner.adaptive()
    }
}

/// The policy for one run: plain when untraced, wrapped when traced.
fn policy(traced: bool) -> (Box<dyn PlacementPolicy + Send>, Arc<PlaceStats>) {
    let stats = Arc::new(PlaceStats::default());
    if traced {
        (Box::new(TimedPolicy { inner: GreedyBestFit::new(), stats: stats.clone() }), stats)
    } else {
        (Box::new(GreedyBestFit::new()), stats)
    }
}

/// The E12 autoscaler tuning.
fn e12_autoscaler() -> ElasticityConfig {
    ElasticityConfig {
        scale_up_queue: 2.0,
        scale_up_utilization: 0.5,
        ..ElasticityConfig::default()
    }
}

/// Where the tenants deploy: one continuum, or a federation with a
/// home region per tenant.
enum Deployment {
    Single(Continuum, Vec<Application>),
    Federated(FederatedContinuum, Vec<(Application, RegionId, SimTime)>),
}

impl Deployment {
    fn apps(&self) -> Vec<Application> {
        match self {
            Deployment::Single(_, apps) => apps.clone(),
            Deployment::Federated(_, apps) => apps.iter().map(|a| a.0.clone()).collect(),
        }
    }

    fn continuum_mut(&mut self) -> &mut Continuum {
        match self {
            Deployment::Single(continuum, _) => continuum,
            Deployment::Federated(fed, _) => fed.continuum_mut(),
        }
    }
}

/// A set-up orchestration run, ready to go.
pub struct Prepared {
    deployment: Deployment,
    engine: OrchestrationEngine,
    place: Arc<PlaceStats>,
    horizon: SimTime,
    /// The VM program library (empty on `surge`).
    library: Vec<Program>,
    pub setup_s: f64,
    build_s: f64,
    gen_s: f64,
}

pub fn setup_surge(size: SurgeSize, seed: u64, traced: bool) -> Prepared {
    let t0 = Instant::now();
    let continuum = ContinuumBuilder::new().build();
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let horizon = size.horizon;
    let apps = surge_mix_scaled(seed, horizon, 2.0);
    let gen_s = t1.elapsed().as_secs_f64();
    let (policy, place) = policy(traced);
    let engine = OrchestrationEngine::new(
        policy,
        EngineConfig {
            obs: ObsConfig::on(),
            admission: Some(AdmissionPolicy { rate_per_window: 20, ..AdmissionPolicy::default() }),
            elasticity: Some(e12_autoscaler()),
            seed,
            ..EngineConfig::default()
        },
    );
    Prepared {
        deployment: Deployment::Single(continuum, apps),
        engine,
        place,
        horizon: horizon + DRAIN,
        library: Vec::new(),
        setup_s: t0.elapsed().as_secs_f64(),
        build_s,
        gen_s,
    }
}

/// E15's tuning: only a drowned region escalates, and only peers with
/// real spare capacity win the auction.
fn e15_federation() -> FederationConfig {
    FederationConfig {
        burst_queue: 8.0,
        release_queue: 4.0,
        escalation_rounds: 1,
        min_headroom_mc_per_s: 2_000.0,
        ..FederationConfig::default()
    }
}

pub fn setup_migrate(size: MigrateSize, seed: u64, traced: bool) -> Prepared {
    const REGIONS: u16 = 3;
    let t0 = Instant::now();
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
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let horizon = size.horizon;
    let (mix, library) = bodied_region_mix(seed, REGIONS, horizon, 0, 4.0);
    let gen_s = t1.elapsed().as_secs_f64();
    // The library goes in before deployment: bodied tasks re-price
    // themselves from their program on first dispatch.
    fed.sim_mut().set_vm(VmConfig::new(library.clone()));
    let apps =
        mix.into_iter().map(|(app, r)| (app, RegionId::from_raw(r), SimTime::ZERO)).collect();
    let (policy, place) = policy(traced);
    let engine = OrchestrationEngine::new(
        policy,
        EngineConfig {
            obs: ObsConfig::on(),
            seed,
            elasticity: Some(ElasticityConfig {
                scale_up_utilization: 0.5,
                scale_up_queue: 2.0,
                cooldown_rounds: 1,
                max_replicas: 4,
                ..ElasticityConfig::default()
            }),
            federation: Some(e15_federation()),
            migration: MigrationMode::Live,
            ..EngineConfig::default()
        },
    );
    Prepared {
        deployment: Deployment::Federated(fed, apps),
        engine,
        place,
        horizon: horizon + DRAIN,
        library,
        setup_s: t0.elapsed().as_secs_f64(),
        build_s,
        gen_s,
    }
}

/// Fingerprint of what a run decided: per-tenant outcomes, control
/// counts and the whole deterministic metrics export.
fn fingerprint(r: &OrchestrationReport) -> u64 {
    let mut h = FNV_SEED;
    for a in &r.apps {
        for v in [a.completed, a.failed, a.shed, a.deadline_misses] {
            h = fnv(h, v);
        }
    }
    for v in [r.events, r.reallocations, r.bursts, r.tasks_migrated, r.total_energy_j.to_bits()] {
        h = fnv(h, v);
    }
    for b in r.obs.export_metrics_jsonl().bytes() {
        h = fnv(h, u64::from(b));
    }
    fnv(h, r.obs.ts_sample_count() as u64)
}

fn sim_goodput(r: &OrchestrationReport) -> f64 {
    let done = r.total_completed();
    let terminal: u64 = r.apps.iter().map(|a| a.completed + a.failed + a.shed).sum();
    done as f64 / terminal.max(1) as f64
}

/// Mean host µs of `f` over `reps` calls.
fn mean_us(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
}

/// Fills the ledger from the finished run: counters, then replays of
/// the KB, obs and VM layers on the run's own state. Everything here
/// runs after `run_s` was taken.
fn probe(
    layers: &mut Layers,
    report: &OrchestrationReport,
    continuum: &mut Continuum,
    apps: &[Application],
    library: &[Program],
    seed: u64,
) {
    let obs = &report.obs;
    layers.events = report.events;
    layers.mape_rounds = obs.counter_value("mape_rounds", "");
    layers.manager_actions = obs.counter_sum("manager_actions");
    layers.scale_actions =
        obs.counter_value("scale_ups", "") + obs.counter_value("scale_downs", "");
    layers.bursts = report.bursts;
    layers.tasks_migrated = report.tasks_migrated;
    layers.reallocations = report.reallocations;
    layers.place_rejected = obs.counter_value("placement_rejected_total", "");
    layers.route_cache_invalidations = obs.counter_sum("route_cache_invalidations");
    layers.ts_samples = obs.ts_sample_count() as u64;
    layers.trace_events = obs.trace_len() as u64;
    layers.trace_dropped = obs.trace_dropped();
    layers.vm_steps = obs.counter_value("vm_steps_total", "");
    layers.vm_migrations_live = obs.counter_value("task_migrations_live", "");
    layers.vm_migration_bytes = obs.counter_value("migration_bytes", "live");

    // KB: one report per MAPE round plus the final one, each collected
    // and ingested into the engine's KB.
    let sim = continuum.sim();
    layers.kb_ingests = layers.mape_rounds + 1;
    let tier = |id| sim.node(id).map_or(0, |n| node_security_level(n.spec().kind()).tier());
    let reps = layers.kb_ingests.clamp(1, 2_000) as u32;
    layers.collect_us = mean_us(reps, || {
        std::hint::black_box(MonitoringReport::collect(sim));
    });
    let snapshot = MonitoringReport::collect(sim);
    let mut kb = KnowledgeBase::new();
    layers.kb_ingest_us = mean_us(layers.kb_ingests.max(1) as u32, || {
        kb.ingest_report(std::hint::black_box(&snapshot), tier);
    });

    // Obs reads: the series the elasticity and app-point managers read
    // each round, at their final length.
    let labels: Vec<String> = sim
        .nodes()
        .iter()
        .map(|n| format!("{}/{}", n.spec().layer().label(), n.spec().name()))
        .collect();
    let mut keys: Vec<(&'static str, &str)> = vec![("deadline_miss_rate", "")];
    keys.extend(
        labels
            .iter()
            .flat_map(|l| [("node_utilization", l.as_str()), ("run_queue_depth", l.as_str())]),
    );
    keys.extend((0..apps.len()).map(|i| ("app_window_miss_rate", index_label(i))));
    keys.retain(|(name, label)| !obs.ts_series(name, label).is_empty());
    if !keys.is_empty() {
        let len: usize = keys.iter().map(|(n, l)| obs.ts_series(n, l).len()).sum();
        layers.ts_read_len = len as f64 / keys.len() as f64;
        let rounds = 200u32;
        let total_us = mean_us(rounds, || {
            for (name, label) in &keys {
                std::hint::black_box(obs.ts_last_n(name, label, 3));
            }
        });
        layers.ts_read_us = total_us / keys.len() as f64;
        // Per round: the global miss rate, utilization and queue depth
        // of every component's host, and each tenant's miss-rate trend.
        let per_round: u64 =
            1 + apps.iter().map(|a| 2 * a.components.len() as u64 + 1).sum::<u64>();
        layers.ts_reads = layers.mape_rounds * per_round;
    }

    let t = Instant::now();
    std::hint::black_box((
        obs.export_trace_jsonl(),
        obs.export_metrics_jsonl(),
        obs.export_timeseries_csv(),
    ));
    layers.export_s = t.elapsed().as_secs_f64();

    // Scrape last: it appends to the run's store.
    let sim = continuum.sim_mut();
    let before = sim.obs().ts_sample_count();
    const PASSES: u64 = 20;
    let t = Instant::now();
    for _ in 0..PASSES {
        sim.scrape();
    }
    let ns = t.elapsed().as_nanos() as f64;
    let recorded = (sim.obs().ts_sample_count() - before) as u64;
    layers.scrape_samples = recorded / PASSES;
    layers.scrape_ns_per_sample = if recorded > 0 { ns / recorded as f64 } else { 0.0 };

    vm_probe(layers, library, seed);
}

/// Interpreter rate over the workload's own library (steps per host
/// second of `run_to_halt`) and the checkpoint round trip of a
/// mid-flight image of its first program.
fn vm_probe(layers: &mut Layers, library: &[Program], seed: u64) {
    let Some(first) = library.first() else { return };
    // Every node of the migrate fabric is an Arm-class edge device.
    let table = CostTable::for_isa(IsaClass::Arm, 1.0);
    let mut steps = 0u64;
    let t = Instant::now();
    let mut round = 0u64;
    while steps < 50_000_000 {
        for p in library {
            let mut vm = VmState::new(p, seed ^ round);
            vm.run_to_halt(p, &table);
            steps += std::hint::black_box(vm.steps());
        }
        round += 1;
    }
    layers.vm_bench_steps = steps;
    layers.vm_steps_per_s = steps as f64 / t.elapsed().as_secs_f64();

    let mut vm = VmState::new(first, seed);
    let (_, total_cycles) = first.full_cost(seed, &table);
    vm.advance_to(first, &table, total_cycles / 2);
    layers.vm_checkpoint_rt_us = mean_us(1_000, || {
        let bytes = vm.checkpoint(first).to_bytes();
        let cp = Checkpoint::from_bytes(&bytes).expect("canonical bytes parse");
        let resumed = VmState::from_checkpoint(&cp, first).expect("image matches its program");
        std::hint::black_box(resumed);
    });
}

/// Runs one prepared orchestration and assembles its repetition.
fn finish(
    p: Prepared,
    seed: u64,
    traced: bool,
    invariant: impl FnOnce(&OrchestrationReport) -> Result<(), String>,
) -> Rep {
    let Prepared { deployment, engine, place, horizon, library, setup_s, build_s, gen_s } = p;
    let apps = if traced { deployment.apps() } else { Vec::new() };

    let t = Instant::now();
    // The tenants move into the engine; the fabric stays for the probes.
    let (report, mut fabric) = match deployment {
        Deployment::Single(mut continuum, apps) => {
            (engine.run(&mut continuum, apps, horizon), Deployment::Single(continuum, Vec::new()))
        }
        Deployment::Federated(mut fed, apps) => {
            (engine.run_federated(&mut fed, apps, horizon), Deployment::Federated(fed, Vec::new()))
        }
    };
    let report = report.expect("every workload tenant places");
    let run_s = t.elapsed().as_secs_f64();

    // Everything the check reads is taken before the probes, which
    // append to the run's obs store.
    let mut rep = Rep {
        setup_s,
        run_s,
        completed: report.total_completed(),
        sim_goodput: sim_goodput(&report),
        sim_qos: report.global_qos(),
        fingerprint: fingerprint(&report),
        invariant: invariant(&report),
        layers: Vec::new(),
    };
    if traced {
        let mut layers = Layers {
            run_s,
            build_s,
            gen_s,
            place_calls: place.calls.load(Ordering::Relaxed),
            place_s: place.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            ..Layers::default()
        };
        probe(&mut layers, &report, fabric.continuum_mut(), &apps, &library, seed);
        rep.layers = layers.metrics();
    }
    rep
}

pub fn rep_surge(size: SurgeSize, seed: u64, traced: bool) -> Rep {
    finish(setup_surge(size, seed, traced), seed, traced, |r| match r.apps[0].shed {
        0 => Ok(()),
        n => Err(format!("the protected tenant was shed {n} times")),
    })
}

pub fn rep_migrate(size: MigrateSize, seed: u64, traced: bool) -> Rep {
    finish(setup_migrate(size, seed, traced), seed, traced, |r| {
        match r.obs.counter_value("task_migrations_live", "") {
            0 => Err("no live migration happened".to_string()),
            _ => Ok(()),
        }
    })
}
