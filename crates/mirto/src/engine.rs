//! The MIRTO orchestration engine: the four-step dynamic loop.
//!
//! Paper Sect. IV: "This dynamic orchestration entails four steps
//! executed in loops: 1) sensing of internal and external triggers;
//! 2) evaluation of aggregated local and global information; 3) decision
//! for resource allocation/configuration to improve KPIs; and
//! 4) reconfiguration/reallocation." [`OrchestrationEngine`] implements
//! that loop as a [`Driver`] over the continuum simulator:
//!
//! * **sense** — periodic monitoring reports ingested into the KB, plus
//!   task/failure events;
//! * **evaluate** — registry, trust and congestion state;
//! * **decide** — WL Manager placement/reallocation, Node Manager
//!   operating points, Network Manager routes, Privacy & Security
//!   Manager constraints;
//! * **reconfigure** — operating-point switches, re-placements and task
//!   resubmissions on the simulator.

use std::collections::hash_map::Entry;

use myrtus_continuum::admission::AdmissionPolicy;
use myrtus_continuum::engine::{Driver, SimCore, SimError, SimEvent};
use myrtus_continuum::federation::{BurstQuery, FederatedContinuum};
use myrtus_continuum::ids::{NodeId, RegionId, TaskId};
use myrtus_continuum::monitor::MonitoringReport;
use myrtus_continuum::net::{PlanEstimator, Protocol, RouteCache};
use myrtus_continuum::retry::RetryPolicy;
use myrtus_continuum::stats::Summary;
use myrtus_continuum::task::{TaskBody, TaskInstance};
use myrtus_continuum::time::{SimDuration, SimTime};
use myrtus_continuum::topology::Continuum;
use myrtus_kb::KnowledgeBase;
use myrtus_obs::hash::WordMap;
use myrtus_obs::span::causal_chain;
use myrtus_obs::{index_label, Obs, ObsConfig, TraceKind, TsSample};
use myrtus_workload::compile::{compile_stages, CompiledStage, Tag};
use myrtus_workload::graph::RequestDag;
use myrtus_workload::opset::AppPointSet;
use myrtus_workload::tosca::Application;

use crate::deployer::DeploymentProxy;
use crate::managers::elasticity::{ElasticityConfig, ElasticityManager, ScaleAction, StageSignals};
use crate::managers::federation::{
    BurstLink, FederationAction, FederationConfig, FederationManager,
};
use crate::managers::network::NetworkManager;
use crate::managers::node::NodeManager;
use crate::managers::privsec::{level_for_tier, node_security_level, PrivacySecurityManager};
use crate::managers::wl::{Reallocation, WlManager};
use crate::placement::{replica_target, PlanContext};
use crate::policies::{PlaceError, PlacementPolicy};

/// Monitoring-timer sentinel tag.
const MONITOR_TAG: u64 = u64::MAX;
/// Most resident tasks one burst open/re-award drains to the peer.
/// Bounds the WAN spike per MAPE round; the ETA router keeps steering
/// subsequent arrivals, so the drain only has to move the backlog that
/// already committed to a home node.
const BURST_MIGRATE_CAP: usize = 8;
/// Stage field value marking a request-arrival timer.
const ARRIVAL_STAGE: u16 = 0xFFFF;
/// Stage field value marking a deferred application deployment.
const DEPLOY_STAGE: u16 = 0xFFFE;

/// Tunable thresholds of the runtime managers — the "local rules" the
/// FREVO-analog evolutionary search optimizes (see [`crate::frevo`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerTuning {
    /// Node Manager: utilization below which a node may drop to eco.
    pub eco_threshold: f64,
    /// Node Manager: utilization above which a node boosts.
    pub boost_threshold: f64,
    /// WL Manager: utilization above which a node counts as overloaded.
    pub overload_threshold: f64,
    /// WL Manager: queue depth above which a node counts as overloaded.
    pub queue_threshold: usize,
}

impl Default for ManagerTuning {
    fn default() -> Self {
        ManagerTuning {
            eco_threshold: 0.25,
            boost_threshold: 0.75,
            overload_threshold: 0.9,
            queue_threshold: 4,
        }
    }
}

/// How the engine moves *resident* tasks when the Federation Manager
/// opens (or re-awards) a burst link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationMode {
    /// Never move committed work: the burst node only becomes a routing
    /// candidate for *future* stage submissions (the PR-8 behaviour;
    /// keeps legacy runs byte-identical).
    #[default]
    Off,
    /// Kill-and-restart: evict the backlog and re-ship each task's
    /// inputs to the peer, losing any progress already made.
    Cold,
    /// Checkpoint/restore: snapshot each VM-bodied task's state, ship
    /// the checkpoint over the WAN and resume on the peer — progress
    /// survives the move. Tasks without a body fall back to cold.
    Live,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// MAPE-K sensing/adaptation period.
    pub monitoring_period: SimDuration,
    /// Enforce Table II security constraints and overheads.
    pub enforce_security: bool,
    /// Let the Node Manager switch operating points.
    pub node_adaptation: bool,
    /// Let the Network Manager pick routes.
    pub network_management: bool,
    /// Allow runtime reallocation (cognitive mode): the WL Manager
    /// moves components off unhealthy nodes each MAPE round and
    /// re-places a stage whose host is down at submission. Loss
    /// recovery does not depend on it; [`EngineConfig::retry`] alone
    /// governs that.
    pub reallocation: bool,
    /// Let MIRTO switch *application* operating points at run time
    /// (quality degradation under overload, refs \[29\]\[30\]).
    pub app_point_adaptation: bool,
    /// Simulator-level retry policy: lost and timed-out attempts ride
    /// the recovery queue (deterministic backoff, same task id) and are
    /// re-offered to the engine as [`SimEvent::TaskRecovered`], which
    /// re-places each one on a surviving node; an attempt past the
    /// budget surfaces as [`SimEvent::TaskAbandoned`] and fails its
    /// request. The default allows three attempts;
    /// [`RetryPolicy::NONE`] abandons every lost attempt at once.
    pub retry: RetryPolicy,
    /// Simulator-level admission control: token-bucket rate limiting,
    /// bounded run queues and SLO-aware shedding at dispatch. Tasks of
    /// deadline-bound (high-QoS) applications carry a protected
    /// priority and bypass every shed path. `None` (the default) admits
    /// everything unconditionally — legacy runs are bit-identical.
    pub admission: Option<AdmissionPolicy>,
    /// MAPE-driven horizontal pod autoscaling: scale component replicas
    /// up under pressure (utilization, run-queue depth, deadline-miss
    /// rate) and back down when idle, with hysteresis and cooldown.
    /// Reads its signals from the KB history each monitoring round, so
    /// it acts the same with [`EngineConfig::obs`] on or off. `None`
    /// (the default) keeps the replica set fixed.
    pub elasticity: Option<ElasticityConfig>,
    /// Duplicate deadline-critical stages (those with a per-stage
    /// latency bound) onto a second surviving node: first completion
    /// wins and the losing twin is cancelled (`replica_dedups`).
    pub replicate_critical: bool,
    /// Cross-region federation: gossip resource registry plus sealed-bid
    /// burst auction, the escalation tier above elasticity (replicas
    /// first, burst to a peer region when the home region saturates).
    /// Only acts under [`OrchestrationEngine::run_federated`]; `None`
    /// (the default) keeps every run byte-identical to pre-federation
    /// builds.
    pub federation: Option<FederationConfig>,
    /// Backlog handling when a burst link opens or re-awards: leave
    /// committed work where it is (the default), cold-restart it on the
    /// peer, or live-migrate VM-bodied tasks via checkpoint/restore.
    /// Only meaningful with [`EngineConfig::federation`] set.
    pub migration: MigrationMode,
    /// Seed for stochastic arrivals.
    pub seed: u64,
    /// Runtime manager thresholds (the swarm agents' local rules).
    pub tuning: ManagerTuning,
    /// Observability: metrics + structured trace spans across the
    /// simulator and the MAPE-K loop. Off by default (zero overhead).
    pub obs: ObsConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            monitoring_period: SimDuration::from_millis(100),
            enforce_security: true,
            node_adaptation: true,
            network_management: true,
            reallocation: true,
            app_point_adaptation: true,
            retry: RetryPolicy::default(),
            admission: None,
            elasticity: None,
            replicate_critical: false,
            federation: None,
            migration: MigrationMode::Off,
            seed: 7,
            tuning: ManagerTuning::default(),
            obs: ObsConfig::off(),
        }
    }
}

impl EngineConfig {
    /// A fully static configuration (no cognition at all, no retries)
    /// for baselines.
    pub fn static_baseline() -> Self {
        EngineConfig {
            node_adaptation: false,
            network_management: false,
            reallocation: false,
            app_point_adaptation: false,
            retry: RetryPolicy::NONE,
            ..EngineConfig::default()
        }
    }
}

/// One live request: created when its arrival timer fires and removed
/// from [`AppRuntime::requests`] at its terminal state (completed,
/// failed or shed). Absence therefore means "not yet released or
/// already terminal", and every handler treats an absent request as
/// inert.
#[derive(Debug)]
struct RequestState {
    /// Application operating-point index assigned when the request was
    /// released (refs \[29\]\[30\] metadata applied at run time).
    point_idx: usize,
    /// Per-stage progress, indexed like [`AppRuntime::stages`].
    stages: Vec<StageProgress>,
}

/// Run-time progress of one stage of a live request.
#[derive(Debug, Clone, Copy)]
struct StageProgress {
    /// Upstream stages not yet finished.
    deps_left: usize,
    /// Host and instant of the stage's completion, once done.
    finished: Option<(NodeId, SimTime)>,
}

/// The worst completed request seen so far for one application:
/// latency, full stage trace and measured critical path.
#[derive(Debug, Default)]
struct SlowestRequest {
    latency_ms: f64,
    trace: Vec<StageSpan>,
    critical_path: Vec<StageSpan>,
}

/// Everything the engine knows about one deployed application: its
/// model, run-time control state, in-flight requests and outcome tally.
#[derive(Debug)]
struct AppRuntime {
    id: u16,
    app: Application,
    dag: RequestDag,
    points: AppPointSet,
    point_idx: usize,
    window_done: u32,
    window_missed: u32,
    clean_rounds: u32,
    /// QoS class: deadline-bound apps run protected (≥ the admission
    /// policy's `protect_priority`), bulk apps run sheddable at 0.
    priority: u8,
    /// Stage templates shared by every request ([`compile_stages`]).
    stages: Vec<CompiledStage>,
    /// Absolute release instant of each request, by request index.
    released: Vec<SimTime>,
    /// End-to-end relative deadline of every request: the strictest
    /// stage bound, if any.
    deadline: Option<SimDuration>,
    /// Live requests only, by request index. Point lookups only —
    /// never iterated — so its hash order cannot reach any output.
    requests: WordMap<u32, RequestState>,
    /// Stage-progress vectors of retired requests, reused by the next
    /// arrivals so a request costs no allocation of its own.
    spare_stages: Vec<Vec<StageProgress>>,
    /// Arrival timers fired so far.
    #[cfg(test)]
    arrived: u64,
    /// Most requests live at once.
    #[cfg(test)]
    live_peak: usize,
    completed: u64,
    failed: u64,
    shed: u64,
    misses: u64,
    latencies_ms: Vec<f64>,
    /// Running sum of completed requests' quality (one term per
    /// completion, so the mean divides by `completed`).
    quality_sum: f64,
    slowest: SlowestRequest,
    /// The replica fleet has reached the autoscaler's `max_replicas` at
    /// least once. Sticky: momentary scale-downs (the ETA router
    /// sloshes per-component queues through zero) must not disarm WAN
    /// escalation once the autoscaler has demonstrably spent its budget.
    replicas_maxed: bool,
}

impl AppRuntime {
    /// Retires a live request that ends without completing, keeping its
    /// stage-progress vector for reuse. Returns whether it was live.
    fn retire(&mut self, request: u32) -> bool {
        let Some(state) = self.requests.remove(&request) else { return false };
        self.spare_stages.push(state.stages);
        true
    }
}

/// One stage of a completed request's execution trace (application
/// monitoring: "status of the application to identify underperformance
/// issues").
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpan {
    /// Stage (component) name.
    pub stage: String,
    /// Node that executed the stage.
    pub node: NodeId,
    /// When the stage finished.
    pub finished_at: SimTime,
}

/// Per-application outcome summary.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Application id.
    pub app_id: u16,
    /// Application name.
    pub name: String,
    /// Requests that completed all stages.
    pub completed: u64,
    /// Requests that lost at least one stage permanently.
    pub failed: u64,
    /// Requests dropped by admission control (load shedding).
    pub shed: u64,
    /// Completed requests that missed their end-to-end deadline.
    pub deadline_misses: u64,
    /// End-to-end latency summary over completed requests, milliseconds.
    pub latency_ms: Option<Summary>,
    /// Mean application quality over completed requests (1.0 = every
    /// request served at the full operating point).
    pub mean_quality: f64,
    /// Stage-by-stage trace of the slowest completed request — where the
    /// worst-case latency was spent.
    pub slowest_trace: Vec<StageSpan>,
    /// Measured critical path of that slowest request: the chain of
    /// binding dependencies (each stage waited on the listed
    /// predecessor last), source first. A subset of `slowest_trace`.
    pub critical_path: Vec<StageSpan>,
}

impl AppReport {
    /// Fraction of completed requests that met their deadline.
    pub fn qos(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            1.0 - self.deadline_misses as f64 / self.completed as f64
        }
    }

    /// Goodput: fraction of terminal requests (completed + failed +
    /// shed) that completed. The tenant-facing success rate under
    /// overload — shed work counts against it.
    pub fn goodput(&self) -> f64 {
        let total = self.completed + self.failed + self.shed;
        if total == 0 {
            0.0
        } else {
            self.completed as f64 / total as f64
        }
    }

    /// SLO attainment: fraction of terminal requests that completed
    /// *within* their deadline. Stricter than [`AppReport::goodput`]:
    /// late completions count against it too.
    pub fn slo_attainment(&self) -> f64 {
        let total = self.completed + self.failed + self.shed;
        if total == 0 {
            0.0
        } else {
            (self.completed - self.deadline_misses) as f64 / total as f64
        }
    }
}

/// Full outcome of one orchestrated run.
#[derive(Debug, Clone)]
pub struct OrchestrationReport {
    /// Placement policy name.
    pub policy: &'static str,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Per-application summaries.
    pub apps: Vec<AppReport>,
    /// Total energy over all nodes, joules.
    pub total_energy_j: f64,
    /// Energy per layer, joules (edge, fog, cloud).
    pub layer_energy_j: [f64; 3],
    /// Runtime component reallocations performed.
    pub reallocations: u64,
    /// Operating-point switches performed.
    pub op_switches: u64,
    /// Network detours taken.
    pub detours: u64,
    /// Task attempts lost to a crash or timed out; each counts once,
    /// whether it was retried or abandoned.
    pub lost_tasks: u64,
    /// Accelerator reconfigurations across all nodes.
    pub accel_reconfigurations: u64,
    /// Security handshake cycles spent.
    pub handshake_cycles: u64,
    /// Application operating-point switches performed at run time.
    pub app_point_switches: u64,
    /// Pods bound through the deployment proxy.
    pub pods_bound: u64,
    /// Pod migrations executed through the deployment proxy.
    pub pod_moves: u64,
    /// Cross-region burst links opened by the Federation Manager.
    pub bursts: u64,
    /// Tasks routed across the WAN over an open burst link.
    pub tasks_bursted: u64,
    /// In-flight tasks migrated node-to-node (burst-backlog drains,
    /// cold or live depending on [`EngineConfig::migration`]).
    pub tasks_migrated: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Observability handle for the run: metric snapshots and the trace
    /// buffer (empty/no-op when [`EngineConfig::obs`] was disabled).
    pub obs: Obs,
}

impl OrchestrationReport {
    /// Total completed requests across applications.
    pub fn total_completed(&self) -> u64 {
        self.apps.iter().map(|a| a.completed).sum()
    }

    /// Mean of per-app mean latencies (ms), weighted by completions.
    pub fn mean_latency_ms(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for a in &self.apps {
            if let Some(s) = &a.latency_ms {
                num += s.mean * a.completed as f64;
                den += a.completed as f64;
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Global QoS: deadline-met fraction over all completed requests.
    pub fn global_qos(&self) -> f64 {
        let done: u64 = self.apps.iter().map(|a| a.completed).sum();
        let miss: u64 = self.apps.iter().map(|a| a.deadline_misses).sum();
        if done == 0 {
            0.0
        } else {
            1.0 - miss as f64 / done as f64
        }
    }

    /// Energy per completed request, joules.
    pub fn energy_per_request_j(&self) -> f64 {
        let done = self.total_completed();
        if done == 0 {
            f64::INFINITY
        } else {
            self.total_energy_j / done as f64
        }
    }
}

/// The MIRTO cognitive engine over one continuum.
pub struct OrchestrationEngine {
    cfg: EngineConfig,
    wl: WlManager,
    node_mgr: NodeManager,
    net_mgr: NetworkManager,
    sec: PrivacySecurityManager,
    elasticity: Option<ElasticityManager>,
    fed: Option<FederationManager>,
    proxy: Option<DeploymentProxy>,
    kb: KnowledgeBase,
    /// Plan-time route/transfer memo reused across placement sweeps;
    /// the network epoch invalidates it whenever topology, link state or
    /// queue occupancy changes.
    plan_cache: RouteCache,
    /// Deployed applications in deployment order (the order of
    /// `OrchestrationReport::apps` and of the per-app obs labels).
    apps: Vec<AppRuntime>,
    /// Replica pairing for k=2 placement: task raw id → (twin raw id,
    /// node currently hosting the twin). Both directions are kept so
    /// either copy's completion can cancel the other.
    replicas: WordMap<u64, (u64, NodeId)>,
    pending_flows: WordMap<u64, (NodeId, NodeId, SimTime)>,
    pending_deploys: WordMap<u16, Application>,
    /// The infrastructure snapshot, refreshed in place each MAPE round.
    report: MonitoringReport,
    /// Scratch list of the stages a completion unlocks.
    ready: Vec<usize>,
    horizon: SimTime,
    lost_tasks: u64,
    app_point_switches: u64,
    /// Shared observability handle, cloned into the simulator, the plan
    /// cache and the deployment proxy. Trace events are only emitted
    /// from this driver context; candidate scoring records counters
    /// only.
    obs: Obs,
}

impl std::fmt::Debug for OrchestrationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrchestrationEngine")
            .field("policy", &self.wl.policy_name())
            .field("apps", &self.apps.len())
            .finish()
    }
}

impl OrchestrationEngine {
    /// Creates an engine around a placement policy.
    pub fn new(policy: Box<dyn PlacementPolicy + Send>, cfg: EngineConfig) -> Self {
        let mut wl = WlManager::new(policy);
        wl.overload_threshold = cfg.tuning.overload_threshold;
        wl.queue_threshold = cfg.tuning.queue_threshold;
        let mut node_mgr = NodeManager::new();
        node_mgr.eco_threshold = cfg.tuning.eco_threshold;
        node_mgr.boost_threshold = cfg.tuning.boost_threshold;
        let obs = Obs::new(cfg.obs);
        OrchestrationEngine {
            sec: PrivacySecurityManager::new(cfg.enforce_security),
            elasticity: cfg.elasticity.map(ElasticityManager::new),
            fed: None,
            cfg,
            wl,
            node_mgr,
            proxy: None,
            net_mgr: NetworkManager::new(),
            kb: KnowledgeBase::new(),
            plan_cache: RouteCache::with_obs(obs.clone()),
            apps: Vec::new(),
            replicas: WordMap::default(),
            pending_flows: WordMap::default(),
            pending_deploys: WordMap::default(),
            report: MonitoringReport::default(),
            ready: Vec::new(),
            horizon: SimTime::ZERO,
            lost_tasks: 0,
            app_point_switches: 0,
            obs,
        }
    }

    /// The engine's Knowledge Base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The engine's observability handle (no-op unless
    /// [`EngineConfig::obs`] enabled it).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Deploys applications onto the continuum and runs the simulation to
    /// `horizon`, returning the outcome report.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] when some component cannot be placed.
    pub fn run(
        self,
        continuum: &mut Continuum,
        apps: Vec<Application>,
        horizon: SimTime,
    ) -> Result<OrchestrationReport, PlaceError> {
        let scheduled = apps.into_iter().map(|a| (a, SimTime::ZERO)).collect();
        self.run_scheduled(continuum, scheduled, horizon)
    }

    /// Like [`OrchestrationEngine::run`], but each application's
    /// deployment request is *issued* at its own instant — the paper's
    /// "orchestration at deployment time (when a computation request is
    /// issued)" with requests arriving while the system already runs.
    /// Late applications that fail placement at their arrival instant
    /// are dropped — they get no entry in `report.apps` — rather than
    /// aborting the run.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] only when a time-zero deployment cannot be
    /// placed.
    pub fn run_scheduled(
        mut self,
        continuum: &mut Continuum,
        apps: Vec<(Application, SimTime)>,
        horizon: SimTime,
    ) -> Result<OrchestrationReport, PlaceError> {
        self.launch(continuum, apps, horizon)?;
        continuum.sim_mut().run_until(horizon, &mut self);
        Ok(self.finish(continuum))
    }

    /// Installs the engine's policies and obs on the simulator, deploys
    /// the time-zero applications, schedules the late ones and arms the
    /// MAPE-K loop; the simulation itself has not advanced yet.
    fn launch(
        &mut self,
        continuum: &mut Continuum,
        apps: Vec<(Application, SimTime)>,
        horizon: SimTime,
    ) -> Result<(), PlaceError> {
        self.horizon = horizon;
        continuum.sim_mut().set_obs(self.obs.clone());
        continuum.sim_mut().set_retry_policy(Some(self.cfg.retry));
        continuum.sim_mut().set_admission(self.cfg.admission);
        self.proxy = Some(DeploymentProxy::new(continuum.sim()).with_obs(self.obs.clone()));
        for (i, (app, start)) in apps.into_iter().enumerate() {
            let app_id = i as u16;
            if start == SimTime::ZERO {
                self.deploy_app(continuum.sim_mut(), app_id, app)?;
            } else {
                self.pending_deploys.insert(app_id, app);
                let tag = Tag { app: app_id, request: 0, stage: DEPLOY_STAGE };
                let after = start.saturating_since(continuum.sim().now());
                continuum.sim_mut().set_timer(after, tag.encode());
            }
        }
        // Arm the MAPE-K loop.
        continuum.sim_mut().set_timer(self.cfg.monitoring_period, MONITOR_TAG);
        Ok(())
    }

    /// Runs a *federated* deployment: each application is pinned to a
    /// home region of `fed` and placed only on that region's nodes;
    /// when [`EngineConfig::federation`] is set, the Federation Manager
    /// gossips per-region digests each MAPE round and may burst an
    /// overloaded region's tasks to an auctioned peer node over the
    /// WAN. With `federation: None` the regions run fully isolated —
    /// the single-region baseline of experiment E14.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] when a time-zero deployment cannot be
    /// placed inside its home region.
    pub fn run_federated(
        mut self,
        fed: &mut FederatedContinuum,
        apps: Vec<(Application, RegionId, SimTime)>,
        horizon: SimTime,
    ) -> Result<OrchestrationReport, PlaceError> {
        let regions: Vec<Vec<NodeId>> = fed.regions().iter().map(|r| r.all_nodes()).collect();
        let ingress: Vec<NodeId> = fed.regions().iter().map(|r| r.ingress()).collect();
        let cfg = self.cfg.federation.unwrap_or_default();
        let mut mgr = FederationManager::new(cfg, regions, ingress);
        for (i, (_, region, _)) in apps.iter().enumerate() {
            mgr.assign_home(i as u16, *region);
        }
        // Without a federation config the manager still pins each app
        // to its home region (the isolated baseline) but never gossips
        // or bursts; `federation_round` checks the config.
        self.fed = Some(mgr);
        let scheduled = apps.into_iter().map(|(a, _, t)| (a, t)).collect();
        self.run_scheduled(fed.continuum_mut(), scheduled, horizon)
    }

    /// The home region of application `app_id` under federated runs
    /// (`None` outside them): the Privacy & Security Manager admits only
    /// its nodes.
    fn home(&self, app_id: u16) -> Option<&[NodeId]> {
        self.fed.as_ref().and_then(|f| f.home_nodes(app_id))
    }

    /// WL Manager reallocation of the application at `app_pos` off
    /// unhealthy or no longer admissible hosts; a non-empty move set is
    /// one `wl` action. The candidate lists and the planning context
    /// are only built when some host fails one of the two tests: most
    /// rounds move nothing.
    fn reallocate(&mut self, sim: &SimCore, app_pos: usize) -> Vec<Reallocation> {
        let rt = &self.apps[app_pos];
        let home = self.home(rt.id);
        let admissible = |pos: usize, host: NodeId| {
            let (Some(dn), Some(node)) = (rt.dag.nodes().get(pos), sim.node(host)) else {
                return false;
            };
            self.sec.admits(node, &rt.app.components[dn.component_idx], home)
        };
        if !self.wl.needs_reallocation(rt.id, sim, admissible) {
            return Vec::new();
        }
        let candidates = self.sec.candidates(sim, &rt.app, &rt.dag, home);
        let ctx = PlanContext::new(sim, &self.kb, &rt.app, &rt.dag, candidates, &self.plan_cache);
        let moves = self.wl.reallocate(rt.id, &ctx);
        if !moves.is_empty() {
            note_action(&self.obs, sim.now().as_micros(), "wl", "reallocate", rt.id as u64);
        }
        moves
    }

    /// Executes reallocation `moves` of the application at `app_pos` on
    /// the cluster layer: each moved component's pod is rebound through
    /// the deployment proxy, whose clock is left alone when nothing moves.
    fn bind_moves(&mut self, app_pos: usize, moves: &[Reallocation], at_us: u64) {
        if moves.is_empty() {
            return;
        }
        let Some(proxy) = self.proxy.as_mut() else { return };
        proxy.set_clock(at_us);
        let rt = &self.apps[app_pos];
        for m in moves {
            let comp = rt.dag.nodes()[m.component].component_idx;
            let _ = proxy.bind_component(rt.id, &rt.app, comp, m.to);
        }
    }

    /// Deployment-time orchestration of one application at the current
    /// simulation instant: validate, place, execute on the cluster
    /// layer, compile the stage templates and arm the arrival timers.
    /// No request state exists yet: each request's is built when its
    /// timer fires.
    fn deploy_app(
        &mut self,
        sim: &mut SimCore,
        app_id: u16,
        app: Application,
    ) -> Result<(), PlaceError> {
        let now = sim.now();
        let dag = RequestDag::from_application(&app)
            .map_err(|_| PlaceError::NoCandidate { component: 0 })?;
        let stages = compile_stages(&app, app_id, None)
            .map_err(|_| PlaceError::NoCandidate { component: 0 })?;
        // QoS class for admission control: a deadline-bound application
        // (any stage with a latency bound) runs protected, bulk runs
        // sheddable.
        let deadline = stages.iter().filter_map(|s| s.max_latency).min();
        let priority = u8::from(deadline.is_some());
        {
            let candidates = self.sec.candidates(sim, &app, &dag, self.home(app_id));
            let ctx = PlanContext::new(sim, &self.kb, &app, &dag, candidates, &self.plan_cache);
            let placement = self.wl.deploy(app_id, &ctx)?;
            // Execute the decision on the low-level layer (LIQO path).
            if let Some(proxy) = self.proxy.as_mut() {
                proxy.set_clock(now.as_micros());
                let _ = proxy.apply_placement(app_id, &app, &placement);
            }
        }
        // Arrivals are generated relative to the deployment instant.
        let released: Vec<SimTime> = app
            .arrival
            .generate(self.cfg.seed)
            .into_iter()
            .map(|at| now + at.saturating_since(SimTime::ZERO))
            .collect();
        for (ri, at) in released.iter().enumerate() {
            let tag = Tag { app: app_id, request: ri as u32, stage: ARRIVAL_STAGE };
            sim.set_timer(at.saturating_since(now), tag.encode());
        }
        self.apps.push(AppRuntime {
            id: app_id,
            app,
            dag,
            points: AppPointSet::standard_ladder(),
            point_idx: 0,
            window_done: 0,
            window_missed: 0,
            clean_rounds: 0,
            priority,
            stages,
            released,
            deadline,
            requests: WordMap::default(),
            spare_stages: Vec::new(),
            #[cfg(test)]
            arrived: 0,
            #[cfg(test)]
            live_peak: 0,
            completed: 0,
            failed: 0,
            shed: 0,
            misses: 0,
            latencies_ms: Vec::new(),
            quality_sum: 0.0,
            slowest: SlowestRequest::default(),
            replicas_maxed: false,
        });
        Ok(())
    }

    fn finish(mut self, continuum: &Continuum) -> OrchestrationReport {
        let sim = continuum.sim();
        self.report.refresh(sim);
        let report = &self.report;
        self.kb.ingest_report(report, |id| {
            sim.node(id).map(|n| node_security_level(n.spec().kind()).tier()).unwrap_or(0)
        });
        let mut layer_energy = [0.0f64; 3];
        for n in &report.nodes {
            layer_energy[n.layer.index()] += n.energy_j;
        }
        let apps = self
            .apps
            .drain(..)
            .map(|a| AppReport {
                app_id: a.id,
                latency_ms: Summary::of(&a.latencies_ms),
                mean_quality: if a.completed == 0 {
                    1.0
                } else {
                    a.quality_sum / a.completed as f64
                },
                name: a.app.name,
                completed: a.completed,
                failed: a.failed,
                shed: a.shed,
                deadline_misses: a.misses,
                slowest_trace: a.slowest.trace,
                critical_path: a.slowest.critical_path,
            })
            .collect();
        OrchestrationReport {
            policy: self.wl.policy_name(),
            horizon: self.horizon,
            apps,
            total_energy_j: report.total_energy_j(),
            layer_energy_j: layer_energy,
            reallocations: self.wl.reallocations().len() as u64,
            op_switches: self.node_mgr.switches(),
            detours: self.net_mgr.detours(),
            lost_tasks: self.lost_tasks,
            accel_reconfigurations: report.nodes.iter().map(|n| n.reconfigurations).sum(),
            handshake_cycles: self.sec.handshake_cycles(),
            app_point_switches: self.app_point_switches,
            pods_bound: self.proxy.as_ref().map_or(0, DeploymentProxy::binds),
            pod_moves: self.proxy.as_ref().map_or(0, DeploymentProxy::moves),
            bursts: self.fed.as_ref().map_or(0, FederationManager::bursts_opened),
            tasks_bursted: self.fed.as_ref().map_or(0, FederationManager::tasks_bursted),
            tasks_migrated: self.proxy.as_ref().map_or(0, DeploymentProxy::task_moves),
            events: sim.processed_events(),
            obs: {
                self.obs.gauge_set("run_total_energy_j", "", report.total_energy_j());
                self.obs.gauge_set("run_processed_events", "", sim.processed_events() as f64);
                self.obs
            },
        }
    }

    fn app_index(&self, app_id: u16) -> Option<usize> {
        self.apps.iter().position(|a| a.id == app_id)
    }

    /// Submits one stage of one request of the application at
    /// `app_pos`. Data flows in from the node where the most recently
    /// finished predecessor ran (source stages: born on the placed node).
    fn submit_stage(&mut self, sim: &mut SimCore, app_pos: usize, request: u32, stage_idx: usize) {
        let rt = &self.apps[app_pos];
        let app_id = rt.id;
        let Some(state) = rt.requests.get(&request) else { return };
        if state.stages[stage_idx].finished.is_some() {
            return;
        }
        let template = &rt.stages[stage_idx];
        let CompiledStage {
            component_idx,
            mut work_mc,
            mem_mb,
            accel_cfg,
            mut input_bytes,
            mut output_bytes,
            max_latency,
            security,
            program,
            ..
        } = *template;
        let released = rt.released[request as usize];
        // Apply the request's operating point (work/bytes scaling).
        if state.point_idx > 0 {
            if let Some(point) = rt.points.get(state.point_idx) {
                work_mc *= point.work_scale;
                input_bytes = (input_bytes as f64 * point.bytes_scale) as u64;
                output_bytes = (output_bytes as f64 * point.bytes_scale) as u64;
            }
        }
        // Data flows from the most recently finished predecessor.
        let src = template
            .preds
            .iter()
            .filter_map(|&p| state.stages[p].finished.map(|(node, _)| node))
            .next_back();

        let Some(placement) = self.wl.placement(app_id) else { return };
        let mut dst = placement.node_of(component_idx);
        // If the destination is down and we may adapt, re-place first.
        let dst_up = sim.node(dst).map(|n| n.is_up()).unwrap_or(false);
        if !dst_up && self.cfg.reallocation {
            let moves = self.reallocate(sim, app_pos);
            // Execute the emergency moves on the cluster layer too;
            // leaving the pods on the dead host would silently
            // desynchronize the proxy from the live placement.
            self.bind_moves(app_pos, &moves, sim.now().as_micros());
            if let Some(p) = self.wl.placement(app_id) {
                dst = p.node_of(component_idx);
            }
        }
        // Elastic replicas: serve the stage from the host with the
        // earliest estimated completion — upstream transfer (via the
        // plan-time route memo) plus queue backlog plus this task's
        // service time, so a fast busy node still beats a slow idle one
        // and locality is only given up when the queue wait exceeds the
        // shipping cost. Ties break on node id; with no replicas bound
        // the primary is kept unconditionally.
        // An open federation burst adds the auctioned peer node as one
        // more routing candidate: the same ETA math prices the WAN hop
        // (transfer + Table II protection + remote backlog), so tasks
        // only cross regions when that beats queueing at home.
        let burst = self.fed.as_ref().and_then(|f| f.burst_target(app_id));
        if let Some(proxy) = self.proxy.as_ref() {
            let mut replicas = proxy.replica_nodes(app_id, component_idx).peekable();
            if replicas.peek().is_some() || burst.is_some() {
                let now = sim.now();
                let est = PlanEstimator::new(sim.network(), now, &self.plan_cache);
                let best = std::iter::once(dst)
                    .chain(replicas)
                    .chain(burst.map(|b| b.node))
                    .filter(|&n| sim.node(n).is_some_and(|s| s.is_up()))
                    .min_by_key(|&n| {
                        // A remote hop pays transfer plus the Privacy &
                        // Security Manager's protection work and wire
                        // overhead, exactly as the real submission will.
                        let (work, xfer) = match src {
                            Some(s) if s != n => {
                                let extra =
                                    self.sec.protection_work_mc(security, s, n, input_bytes);
                                let wire =
                                    input_bytes + self.sec.protection_wire_overhead(security, s, n);
                                (work_mc + extra, est.transfer_us(s, n, wire, Protocol::Mqtt))
                            }
                            _ => (work_mc, 0.0),
                        };
                        let local = sim
                            .node(n)
                            .map(|s| s.estimated_backlog(now) + s.service_time(work))
                            .unwrap_or(SimDuration::ZERO);
                        (local.as_micros().saturating_add(xfer as u64), n.as_raw())
                    });
                if let Some(n) = best {
                    if burst.is_some_and(|b| b.node == n && n != dst) {
                        self.obs.counter_inc("tasks_bursted", "");
                        if let Some(f) = self.fed.as_mut() {
                            f.note_bursted();
                        }
                    }
                    dst = n;
                }
            }
        }

        let tag = Tag { app: app_id, request, stage: stage_idx as u16 };
        let mut task = TaskInstance::new(sim.fresh_task_id(), work_mc)
            .with_mem_mb(mem_mb)
            .with_io_bytes(input_bytes, output_bytes)
            .with_released(released)
            .with_priority(self.apps[app_pos].priority)
            .with_tag(tag.encode());
        if let Some(cfg) = accel_cfg {
            task = task.with_accel(cfg);
        }
        if let Some(d) = max_latency {
            task = task.with_deadline(released + d);
        }
        // Portable body: the stage runs on the task VM when the
        // deployment shipped a program library. The seed derives from
        // the correlation tag, so every attempt of the same stage reads
        // the same input stream regardless of where it executes.
        if let Some(prog) = program {
            if sim.vm_installed() {
                task = task.with_body(TaskBody::new(prog, self.cfg.seed ^ tag.encode()));
            }
        }
        let primary_id = task.id;
        // k=2 replicated placement for deadline-critical stages: the
        // twin is this task as built here, before any hop protection.
        let twin = (self.cfg.replicate_critical && max_latency.is_some()).then(|| task.clone());

        // A remote hop may take the Network Manager's route instead of
        // the shortest path.
        let mut path = None;
        if let Some(src_node) = src.filter(|&s| s != dst) {
            // Privacy & Security Manager: protect the hop.
            let extra_mc = self.sec.protection_work_mc(security, src_node, dst, input_bytes);
            task.work_mc += extra_mc;
            task.input_bytes += self.sec.protection_wire_overhead(security, src_node, dst);
            self.pending_flows.insert(tag.encode(), (src_node, dst, sim.now()));
            if self.cfg.network_management {
                let detours_before = self.net_mgr.detours();
                path = self.net_mgr.route(sim, src_node, dst);
                if self.net_mgr.detours() > detours_before {
                    note_action(
                        &self.obs,
                        sim.now().as_micros(),
                        "network",
                        "detour",
                        dst.as_raw() as u64,
                    );
                }
            }
        }
        let result = match path {
            Some(path) => sim.submit_via_path(dst, task, &path, Protocol::Mqtt).map(|_| ()),
            None => send(sim, src, dst, task),
        };
        if result.is_err() {
            // Destination unusable and no recovery possible: fail the
            // request. Nothing was sent, so no flow is owed a reward.
            self.pending_flows.remove(&tag.encode());
            self.mark_failed(app_pos, request);
        } else if let Some(twin) = twin {
            // The twin runs on a different surviving node and the first
            // completion cancels the other copy.
            self.submit_replica(sim, app_pos, component_idx, twin, primary_id, dst, src);
        }
    }

    /// Submits `twin`, a duplicate of a deadline-critical stage's task,
    /// onto a second node (never the primary's) under a fresh id,
    /// pairing the two copies so the first completion can cancel the
    /// loser. A stage with no distinct surviving candidate simply runs
    /// unreplicated.
    #[allow(clippy::too_many_arguments)]
    fn submit_replica(
        &mut self,
        sim: &mut SimCore,
        app_pos: usize,
        component_idx: usize,
        mut twin: TaskInstance,
        primary: TaskId,
        primary_node: NodeId,
        src: Option<NodeId>,
    ) {
        let rt = &self.apps[app_pos];
        let comp = &rt.app.components[component_idx];
        let ups: Vec<NodeId> = self.sec.eligible(sim, comp, self.home(rt.id)).collect();
        let Some(twin_node) = replica_target(primary_node, &ups) else { return };
        twin.id = sim.fresh_task_id();
        let twin_id = twin.id;
        if send(sim, src, twin_node, twin).is_ok() {
            self.replicas.insert(primary.as_raw(), (twin_id.as_raw(), twin_node));
            self.replicas.insert(twin_id.as_raw(), (primary.as_raw(), primary_node));
        }
    }

    fn on_stage_completed(
        &mut self,
        sim: &mut SimCore,
        outcome: &myrtus_continuum::task::TaskOutcome,
    ) {
        let tag = Tag::decode(outcome.task.tag);
        // First-completion-wins replica dedup: the winner cancels its
        // still-running twin wherever it currently is.
        if let Some((sib, sib_node)) = self.replicas.remove(&outcome.task.id.as_raw()) {
            self.replicas.remove(&sib);
            if sim.cancel_task(sib_node, TaskId::from_raw(sib)) {
                self.obs.counter_inc("replica_dedups", "");
            }
        }
        // Network Manager reward on the transfer decision for this stage.
        if let Some((src, dst, sent)) = self.pending_flows.remove(&outcome.task.tag) {
            self.net_mgr.reward(src, dst, outcome.at.saturating_since(sent));
        }
        let speed = sim.node(outcome.node).map(|n| n.core_speed_mc_per_us()).unwrap_or(1.0);
        self.node_mgr.record_completion(
            outcome.node,
            outcome.task.work_mc,
            outcome.task.input_bytes,
            speed,
            outcome.latency.as_micros() as f64,
            outcome.deadline_met,
        );
        self.sec.observe(outcome.node, myrtus_security::trust::Observation::TaskOk);

        let Some(pos) = self.app_index(tag.app) else { return };
        let rt = &mut self.apps[pos];
        let Entry::Occupied(mut live) = rt.requests.entry(tag.request) else { return };
        let state = live.get_mut();
        let si = tag.stage as usize;
        if state.stages.get(si).is_none_or(|p| p.finished.is_some()) {
            return;
        }
        state.stages[si].finished = Some((outcome.node, outcome.at));
        // Unlock successors.
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        for (j, stage) in rt.stages.iter().enumerate() {
            if stage.preds.contains(&si) {
                state.stages[j].deps_left -= 1;
                if state.stages[j].deps_left == 0 {
                    ready.push(j);
                }
            }
        }
        if state.stages.iter().all(|p| p.finished.is_some()) {
            // Terminal: the request retires here.
            let state = live.remove();
            let latency = outcome.at.saturating_since(rt.released[tag.request as usize]);
            let lat_ms = latency.as_millis_f64();
            let missed = rt.deadline.is_some_and(|d| latency > d);
            rt.completed += 1;
            rt.latencies_ms.push(lat_ms);
            rt.window_done += 1;
            if missed {
                rt.misses += 1;
                rt.window_missed += 1;
            }
            rt.quality_sum += rt.points.get(state.point_idx).map(|p| p.quality).unwrap_or(1.0);
            // Application monitoring: keep the worst request's trace
            // plus its measured critical path (the chain of binding
            // dependencies that set the end-to-end latency).
            if lat_ms > rt.slowest.latency_ms {
                let stages = &rt.stages;
                let span = |j: usize| {
                    let (node, finished_at) = state.stages[j].finished?;
                    Some(StageSpan { stage: stages[j].name.clone(), node, finished_at })
                };
                let trace: Vec<StageSpan> = (0..stages.len()).filter_map(span).collect();
                let preds: Vec<Vec<usize>> = stages.iter().map(|s| s.preds.clone()).collect();
                let finish_us: Vec<Option<u64>> =
                    state.stages.iter().map(|p| p.finished.map(|(_, t)| t.as_micros())).collect();
                let critical_path: Vec<StageSpan> =
                    causal_chain(&preds, &finish_us).into_iter().filter_map(span).collect();
                rt.slowest = SlowestRequest { latency_ms: lat_ms, trace, critical_path };
            }
            rt.spare_stages.push(state.stages);
            self.kb.record_kpi(&rt.app.name, "latency_ms", sim.now(), lat_ms);
        }
        for &j in &ready {
            self.submit_stage(sim, pos, tag.request, j);
        }
        self.ready = ready;
    }

    /// Marks a request failed (once) and retires it — degraded, not
    /// wedged: the app's report shows the loss instead of the run
    /// hanging on it, and later events of its stages are ignored.
    fn mark_failed(&mut self, app_pos: usize, request: u32) {
        if self.apps[app_pos].retire(request) {
            self.apps[app_pos].failed += 1;
        }
    }

    /// Marks a request shed (once): admission control dropped one of
    /// its stages, so the request terminates — degraded like a failure
    /// (no further submissions) but tallied separately, because shedding
    /// is a *policy* outcome, not a fault.
    fn mark_shed(&mut self, app_pos: usize, request: u32) {
        if self.apps[app_pos].retire(request) {
            self.apps[app_pos].shed += 1;
        }
    }

    /// Whether stage `si` of the tagged (live) request has already
    /// completed.
    fn stage_done(&self, app_pos: usize, tag: Tag) -> bool {
        self.apps[app_pos]
            .requests
            .get(&tag.request)
            .and_then(|st| st.stages.get(tag.stage as usize))
            .is_some_and(|p| p.finished.is_some())
    }

    /// A stage task ended without completing: `shed` by admission
    /// control, or abandoned after its retry budget. The simulator has
    /// already finalized the task (terminal, counted in the dispatch
    /// tally); here the owning request is retired as shed or failed —
    /// unless a replica twin is still in flight and can complete the
    /// stage alone. With no twin left, no completion will reward the
    /// stage's network flow, so its entry goes too.
    fn on_task_dropped(&mut self, task: &TaskInstance, shed: bool) {
        let tag = Tag::decode(task.tag);
        if let Some((sib, _)) = self.replicas.remove(&task.id.as_raw()) {
            self.replicas.remove(&sib);
            return; // the twin fights on alone
        }
        self.pending_flows.remove(&task.tag);
        let Some(pos) = self.app_index(tag.app) else { return };
        if self.stage_done(pos, tag) {
            return;
        }
        if shed {
            self.mark_shed(pos, tag.request);
        } else {
            self.mark_failed(pos, tag.request);
        }
    }

    /// Handles a recovered attempt (crash or timeout already traced by
    /// the simulator): re-places the task on a surviving node other
    /// than the one that failed it — scored through the plan-time
    /// route/transfer memo when the stage has an upstream data source —
    /// and resubmits the *same* task instance, or gives it up when no
    /// host survives.
    fn on_task_recovered(&mut self, sim: &mut SimCore, failed: NodeId, task: TaskInstance) {
        self.lost_tasks += 1;
        self.sec.observe(failed, myrtus_security::trust::Observation::TaskFailed);
        let tag = Tag::decode(task.tag);
        let si = tag.stage as usize;
        let Some(app_pos) = self.app_index(tag.app) else {
            sim.note_give_up(task.id);
            return;
        };
        let rt = &self.apps[app_pos];
        let Some(st) = rt
            .requests
            .get(&tag.request)
            .filter(|st| st.stages.get(si).is_some_and(|p| p.finished.is_none()))
        else {
            // The request is already terminal, or the stage completed on
            // the surviving replica: terminate this attempt quietly.
            sim.note_give_up(task.id);
            return;
        };
        let stage = &rt.stages[si];
        let src = stage
            .preds
            .iter()
            .filter_map(|&p| st.stages[p].finished.map(|(node, _)| node))
            .next_back();
        let target = {
            // Prefer a host other than the one that failed the
            // attempt, but don't insist on it: after a *timeout* the
            // node is still alive (crashed hosts are already dropped
            // by the candidate filter), and for a stage with a single
            // eligible host the right move is to retry in place, not
            // to give up.
            let comp = &rt.app.components[stage.component_idx];
            let eligible: Vec<NodeId> = self.sec.eligible(sim, comp, self.home(rt.id)).collect();
            let others: Vec<NodeId> = eligible.iter().copied().filter(|&n| n != failed).collect();
            let ups = if others.is_empty() { eligible } else { others };
            match src {
                // Surviving host closest (plan-time transfer cost,
                // through the shared route cache) to the data source;
                // ties break on node id, keeping the pick deterministic.
                Some(s) => {
                    let est = PlanEstimator::new(sim.network(), sim.now(), &self.plan_cache);
                    ups.iter().copied().min_by(|&a, &b| {
                        let ca = est.transfer_us(s, a, task.input_bytes, Protocol::Mqtt);
                        let cb = est.transfer_us(s, b, task.input_bytes, Protocol::Mqtt);
                        ca.partial_cmp(&cb)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.as_raw().cmp(&b.as_raw()))
                    })
                }
                None => replica_target(failed, &ups).or_else(|| ups.iter().copied().min()),
            }
        };
        let Some(dst) = target else {
            sim.note_give_up(task.id);
            self.mark_failed(app_pos, tag.request);
            return;
        };
        // Keep the twin pairing pointed at the task's new host so a
        // later dedup cancels it in the right place.
        if let Some(&(sib, _)) = self.replicas.get(&task.id.as_raw()) {
            if let Some(entry) = self.replicas.get_mut(&sib) {
                entry.1 = dst;
            }
        }
        let id = task.id;
        if send(sim, src, dst, task).is_err() {
            sim.note_give_up(id);
            self.mark_failed(app_pos, tag.request);
        }
    }

    fn monitoring_round(&mut self, sim: &mut SimCore) {
        let now_us = sim.now().as_micros();
        self.obs.counter_inc("mape_rounds", "");
        // Sense: charge the energy meters, then snapshot into the KB.
        self.obs.trace(now_us, TraceKind::MapePhase { phase: "monitor" });
        sim.refresh_energy();
        self.report.refresh(sim);
        self.kb.ingest_report(&self.report, |id| {
            sim.node(id).map(|n| node_security_level(n.spec().kind()).tier()).unwrap_or(0)
        });
        // Decide + reconfigure: node operating points.
        self.obs.trace(now_us, TraceKind::MapePhase { phase: "analyze" });
        if self.cfg.node_adaptation {
            if let Ok(decisions) = self.node_mgr.adapt(sim) {
                for (node, _point) in decisions {
                    note_action(&self.obs, now_us, "node", "op_switch", node.as_raw() as u64);
                }
            }
        }
        // Decide: reallocation off unhealthy nodes. The binds only
        // update proxy bookkeeping (no placement input), so they are
        // batched into the execute step below.
        self.obs.trace(now_us, TraceKind::MapePhase { phase: "plan" });
        let mut planned_moves = Vec::new();
        if self.cfg.reallocation {
            for pos in 0..self.apps.len() {
                let moves = self.reallocate(sim, pos);
                if !moves.is_empty() {
                    planned_moves.push((pos, moves));
                }
            }
        }
        // Reconfigure: execute the planned moves on the cluster layer
        // through the deployment proxy, then adapt application operating
        // points — degrade under sustained deadline misses, recover
        // after clean rounds (refs [29][30]).
        self.obs.trace(now_us, TraceKind::MapePhase { phase: "execute" });
        if let Some(proxy) = self.proxy.as_mut() {
            proxy.set_clock(now_us);
        }
        for (pos, moves) in &planned_moves {
            self.bind_moves(*pos, moves, now_us);
        }
        // Elasticity Manager: MAPE-driven horizontal scaling off the
        // KB telemetry ingested above, executed on the cluster layer
        // like the planned moves.
        if let Some(mut mgr) = self.elasticity.take() {
            self.elasticity_round(sim, now_us, &mut mgr);
            self.elasticity = Some(mgr);
        }
        // Federation Manager: gossip digests, then the escalation tier
        // above elasticity — burst to an auctioned peer region when the
        // home region stays saturated with replicas exhausted.
        if let Some(mut mgr) = self.fed.take() {
            self.federation_round(sim, now_us, &mut mgr);
            self.fed = Some(mgr);
        }
        if self.cfg.app_point_adaptation {
            for (pos, rt) in self.apps.iter_mut().enumerate() {
                let done = rt.window_done;
                let missed = rt.window_missed;
                rt.window_done = 0;
                rt.window_missed = 0;
                // Surface the window stats before they are reset, so
                // the per-round view survives into the exports.
                let app_label = index_label(pos);
                self.obs.gauge_set("app_window_done", app_label, done as f64);
                self.obs.gauge_set("app_window_missed", app_label, missed as f64);
                if done == 0 {
                    continue;
                }
                let miss_rate = missed as f64 / done as f64;
                // Rolling-window view for the Analyze phase, kept in
                // the KB: the trend over recent rounds, not just this
                // snapshot. A monotonically rising miss-rate that has
                // reached 0.1 triggers a degrade even before the
                // instantaneous 0.2 threshold does. Obs records the
                // same sample for export only.
                self.obs.ts_record("app_window_miss_rate", app_label, now_us, miss_rate);
                let history = self.kb.history_mut();
                history.record("app_window_miss_rate", app_label, now_us, miss_rate);
                let recent = history.tail("app_window_miss_rate", app_label, 3);
                let trending = recent.len() == 3
                    && trend_rising(recent.clone())
                    && recent.last().is_some_and(|s| s.value >= 0.1);
                let snapshot = miss_rate > 0.2;
                if (snapshot || trending) && rt.point_idx + 1 < rt.points.len() {
                    rt.point_idx += 1;
                    rt.clean_rounds = 0;
                    self.app_point_switches += 1;
                    let action = if snapshot { "degrade" } else { "degrade_trend" };
                    note_action(&self.obs, now_us, "app", action, rt.id as u64);
                } else if missed == 0 {
                    rt.clean_rounds += 1;
                    if rt.clean_rounds >= 3 && rt.point_idx > 0 {
                        rt.point_idx -= 1;
                        rt.clean_rounds = 0;
                        self.app_point_switches += 1;
                        note_action(&self.obs, now_us, "app", "recover", rt.id as u64);
                    }
                } else {
                    rt.clean_rounds = 0;
                }
            }
        }
        // Re-arm the loop.
        let next = sim.now() + self.cfg.monitoring_period;
        if next < self.horizon {
            sim.set_timer(self.cfg.monitoring_period, MONITOR_TAG);
        }
    }

    /// One Federation Manager round (federated runs with
    /// [`EngineConfig::federation`] set only): publish every region's
    /// digest into the gossip registry and the KB's `/region/{r}/`
    /// shard, run one anti-entropy round, then give each application's
    /// escalation logic a tick — open a burst when its home region has
    /// stayed saturated with replicas exhausted, close it on relief.
    fn federation_round(&mut self, sim: &mut SimCore, now_us: u64, mgr: &mut FederationManager) {
        if self.cfg.federation.is_none() || !mgr.active() {
            return;
        }
        let now = sim.now();
        for d in mgr.gossip_round(sim) {
            let payload = format!(
                "free_mcps={:.3};util={:.4};queue={:.1};ver={}",
                d.free_mc_per_s, d.utilization, d.queue_depth, d.version
            );
            self.kb.put_region(d.region.as_raw(), "digest", &payload, now);
        }
        mgr.update_pressure();
        let est = PlanEstimator::new(sim.network(), now, &self.plan_cache);
        // Burst awards to drain after the tick loop: the estimator
        // borrows the network, so backlog migration (which mutates the
        // simulator) must wait until every application has ticked.
        let mut awards: Vec<(u16, BurstLink)> = Vec::new();
        for pos in 0..self.apps.len() {
            let app_id = self.apps[pos].id;
            // Scale replicas first: only an app whose elasticity budget
            // is spent (or absent) may burst across the WAN.
            let replicas_exhausted = match self.cfg.elasticity {
                None => true,
                Some(e) => {
                    let rt = &self.apps[pos];
                    let at_max = rt.dag.nodes().iter().any(|n| {
                        self.proxy.as_ref().map_or(0, |p| p.replica_count(app_id, n.component_idx))
                            as u32
                            >= e.max_replicas
                    });
                    if at_max {
                        self.apps[pos].replicas_maxed = true;
                    }
                    self.apps[pos].replicas_maxed
                }
            };
            let query = self.burst_query(pos);
            let home = mgr.home_of(app_id).map(RegionId::as_raw).unwrap_or(0);
            let (action, award) = match mgr.tick(sim, &est, app_id, &query, replicas_exhausted) {
                Some(FederationAction::Open(link)) => ("burst_open", Some(link)),
                Some(FederationAction::Close(_)) => ("burst_close", None),
                Some(FederationAction::Migrate { to, .. }) => ("burst_migrate", Some(to)),
                None => continue,
            };
            note_action(&self.obs, now_us, "federation", action, app_id as u64);
            let burst = award.map_or_else(|| "none".to_string(), |l| l.region.to_string());
            self.kb.put_region(home, "burst", &burst, now);
            awards.extend(award.map(|l| (app_id, l)));
        }
        for (app_id, link) in awards {
            self.migrate_backlog(sim, mgr, now_us, app_id, link);
        }
    }

    /// Drains up to [`BURST_MIGRATE_CAP`] of the bursting application's
    /// resident tasks (running first — they carry progress worth
    /// preserving — then queued, in home-node order) onto the freshly
    /// awarded peer node. [`MigrationMode::Cold`] re-ships inputs and
    /// restarts from scratch; [`MigrationMode::Live`] checkpoints each
    /// VM-bodied task and resumes it on the peer. The simulator
    /// enforces the exactly-one-live-instance discipline either way.
    fn migrate_backlog(
        &mut self,
        sim: &mut SimCore,
        mgr: &FederationManager,
        now_us: u64,
        app_id: u16,
        link: BurstLink,
    ) {
        if self.cfg.migration == MigrationMode::Off {
            return;
        }
        let live = self.cfg.migration == MigrationMode::Live;
        let Some(home) = mgr.home_nodes(app_id) else { return };
        let mut victims: Vec<(NodeId, TaskId)> = Vec::new();
        for &node in home {
            if victims.len() >= BURST_MIGRATE_CAP {
                break;
            }
            let Some(st) = sim.node(node) else { continue };
            let resident = st.running().iter().map(|r| &r.task).chain(st.queued());
            for t in resident {
                if victims.len() >= BURST_MIGRATE_CAP {
                    break;
                }
                if Tag::decode(t.tag).app == app_id {
                    victims.push((node, t.id));
                }
            }
        }
        let mut moved = 0u64;
        for (from, id) in victims {
            if sim.migrate_task(from, link.node, id, Protocol::Mqtt, live).is_some() {
                moved += 1;
                if let Some(proxy) = self.proxy.as_mut() {
                    proxy.set_clock(now_us);
                    proxy.note_task_migration(app_id, from, link.node);
                }
            }
        }
        if moved > 0 {
            note_action(&self.obs, now_us, "federation", "migrate_backlog", app_id as u64);
        }
    }

    /// The sealed-bid query for one application: conservative over its
    /// components (max work, memory and security tier; max connection
    /// payload), so *any* stage of the app can run on a node satisfying
    /// it.
    fn burst_query(&self, pos: usize) -> BurstQuery {
        let rt = &self.apps[pos];
        let mut q = BurstQuery {
            work_mc: 0.0,
            input_bytes: 0,
            mem_mb: 0,
            min_tier: 0,
            min_headroom_mc_per_s: self
                .cfg
                .federation
                .map(|f| f.min_headroom_mc_per_s)
                .unwrap_or(1.0),
        };
        for c in &rt.app.components {
            q.work_mc = q.work_mc.max(c.requirements.work_mc);
            q.mem_mb = q.mem_mb.max(c.requirements.mem_mb);
            q.min_tier = q.min_tier.max(level_for_tier(c.requirements.security).tier());
        }
        for conn in &rt.app.connections {
            q.input_bytes = q.input_bytes.max(conn.bytes_per_req);
        }
        q
    }

    /// One Elasticity Manager round: for every deployed component, read
    /// the host telemetry this round's monitor phase ingested into the
    /// KB, ask the autoscaler for a decision and execute it through the
    /// deployment proxy.
    fn elasticity_round(&mut self, sim: &mut SimCore, now_us: u64, mgr: &mut ElasticityManager) {
        let miss_rate = self.kb.history().latest("deadline_miss_rate", "").map_or(0.0, |s| s.value);
        let now = sim.now();
        for pos in 0..self.apps.len() {
            let app_id = self.apps[pos].id;
            let Some(placement) = self.wl.placement(app_id) else { continue };
            for dn in self.apps[pos].dag.nodes() {
                let (comp, host) = (dn.component_idx, placement.node_of(dn.component_idx));
                let Some(name) = sim.node(host).map(|n| n.spec().name()) else { continue };
                // Peak over the last few rounds, not the latest
                // instant: the ETA router drains hosts in waves, so a
                // single sample catches a pegged node at a momentary
                // zero and flaps the fleet down mid-overload.
                let history = self.kb.history();
                let peak = |metric: &'static str| {
                    history.tail(metric, name, 3).map(|s| s.value).fold(0.0f64, f64::max)
                };
                let replicas = self.proxy.as_ref().map_or(0, |p| p.replica_count(app_id, comp));
                let signals = StageSignals {
                    utilization: peak("util"),
                    queue_depth: peak("depth"),
                    miss_rate,
                    replicas: replicas as u32,
                };
                match mgr.decide((app_id, comp), &signals) {
                    Some(ScaleAction::ScaleUp) => {
                        // Deterministic target: the least-backlogged
                        // security-eligible survivor not already hosting
                        // this component (ties on node id).
                        let target = {
                            let component = &self.apps[pos].app.components[comp];
                            let occupied: Vec<NodeId> = std::iter::once(host)
                                .chain(
                                    self.proxy
                                        .as_ref()
                                        .into_iter()
                                        .flat_map(|p| p.replica_nodes(app_id, comp)),
                                )
                                .collect();
                            self.sec
                                .eligible(sim, component, self.home(app_id))
                                .filter(|n| !occupied.contains(n))
                                .min_by_key(|&n| {
                                    let backlog = sim
                                        .node(n)
                                        .map(|s| s.estimated_backlog(now))
                                        .unwrap_or(SimDuration::ZERO);
                                    (backlog, n.as_raw())
                                })
                        };
                        let Some(node) = target else { continue };
                        let bound = {
                            let rt = &self.apps[pos];
                            self.proxy
                                .as_mut()
                                .is_some_and(|p| p.scale_up(app_id, &rt.app, comp, node).is_ok())
                        };
                        if bound {
                            self.obs.counter_inc("scale_ups", "");
                            note_action(&self.obs, now_us, "elasticity", "scale_up", app_id as u64);
                        }
                    }
                    Some(ScaleAction::ScaleDown) => {
                        let evicted = self
                            .proxy
                            .as_mut()
                            .and_then(|p| p.scale_down(app_id, comp).ok().flatten());
                        if evicted.is_some() {
                            self.obs.counter_inc("scale_downs", "");
                            note_action(
                                &self.obs,
                                now_us,
                                "elasticity",
                                "scale_down",
                                app_id as u64,
                            );
                        }
                    }
                    None => {}
                }
            }
        }
    }
}

impl Driver for OrchestrationEngine {
    fn on_event(&mut self, sim: &mut SimCore, event: SimEvent) {
        match event {
            SimEvent::Timer { tag, .. } if tag == MONITOR_TAG => self.monitoring_round(sim),
            SimEvent::Timer { tag, .. } => {
                let t = Tag::decode(tag);
                if t.stage == DEPLOY_STAGE {
                    if let Some(app) = self.pending_deploys.remove(&t.app) {
                        // A late placement failure drops the app rather
                        // than aborting the whole run.
                        let _ = self.deploy_app(sim, t.app, app);
                    }
                    return;
                }
                if t.stage == ARRIVAL_STAGE {
                    // The request comes alive: its state is built here
                    // and retired at its terminal event. Deployment
                    // metadata applied at run time: the request executes
                    // at the app's *current* operating point.
                    let Some(pos) = self.app_index(t.app) else { return };
                    let rt = &mut self.apps[pos];
                    let point_idx = if self.cfg.app_point_adaptation { rt.point_idx } else { 0 };
                    let mut stages = rt.spare_stages.pop().unwrap_or_default();
                    stages.clear();
                    stages.extend(
                        rt.stages
                            .iter()
                            .map(|s| StageProgress { deps_left: s.preds.len(), finished: None }),
                    );
                    rt.requests.insert(t.request, RequestState { point_idx, stages });
                    #[cfg(test)]
                    {
                        rt.arrived += 1;
                        rt.live_peak = rt.live_peak.max(rt.requests.len());
                    }
                    for s in 0..rt.stages.len() {
                        if self.apps[pos].stages[s].preds.is_empty() {
                            self.submit_stage(sim, pos, t.request, s);
                        }
                    }
                }
            }
            SimEvent::TaskCompleted(outcome) => self.on_stage_completed(sim, &outcome),
            SimEvent::NodeDown(node) => {
                self.sec.observe(node, myrtus_security::trust::Observation::TaskFailed);
            }
            SimEvent::TaskRecovered { node, task, .. } => self.on_task_recovered(sim, node, task),
            SimEvent::TaskAbandoned { task, .. } => {
                self.lost_tasks += 1;
                self.on_task_dropped(&task, false);
            }
            SimEvent::TaskShed { task, .. } => self.on_task_dropped(&task, true),
            SimEvent::TaskStarted { .. }
            | SimEvent::MessageDelivered(_)
            | SimEvent::NodeRestored(_)
            | SimEvent::LinkChanged { .. } => {}
        }
    }
}

/// Convenience: runs one policy on a fresh copy of the standard
/// continuum with the given applications.
///
/// # Errors
///
/// Returns [`PlaceError`] when placement fails.
pub fn run_orchestration(
    policy: Box<dyn PlacementPolicy + Send>,
    cfg: EngineConfig,
    apps: Vec<Application>,
    horizon: SimTime,
) -> Result<OrchestrationReport, PlaceError> {
    let mut continuum = myrtus_continuum::topology::ContinuumBuilder::new().build();
    OrchestrationEngine::new(policy, cfg).run(&mut continuum, apps, horizon)
}

/// Records one manager action: the `manager_actions{manager}` counter
/// and its `ManagerAction` trace event.
fn note_action(obs: &Obs, at_us: u64, manager: &'static str, action: &'static str, subject: u64) {
    obs.counter_inc("manager_actions", manager);
    obs.trace(at_us, TraceKind::ManagerAction { manager, action, subject });
}

/// Submits `task` to `dst`, shipping its input from `src` over the
/// shortest path unless it is already there.
fn send(
    sim: &mut SimCore,
    src: Option<NodeId>,
    dst: NodeId,
    task: TaskInstance,
) -> Result<(), SimError> {
    match src {
        Some(s) if s != dst => sim.submit_via_network(s, dst, task, Protocol::Mqtt).map(|_| ()),
        _ => sim.submit_local(dst, task),
    }
}

/// Whether a window of samples shows a (weakly) rising trend: at least
/// two samples, non-decreasing throughout, and strictly higher at the
/// end than at the start. The Analyze phase uses this over rolling
/// windows to react to *degradation trends* rather than single
/// snapshots.
fn trend_rising(samples: impl Iterator<Item = TsSample> + Clone) -> bool {
    let values = samples.map(|s| s.value);
    // Fewer than two samples cannot end strictly above their start.
    values.clone().zip(values.clone().skip(1)).all(|(a, b)| b >= a)
        && values.clone().last() > values.clone().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{GreedyBestFit, LayerPinned, RoundRobin};
    use myrtus_continuum::fault::FaultPlan;
    use myrtus_continuum::topology::ContinuumBuilder;
    use myrtus_workload::compile::compile_requests;
    use myrtus_workload::scenarios;

    #[test]
    fn trend_detection() {
        let s = |vals: &[f64]| -> Vec<TsSample> {
            vals.iter().enumerate().map(|(i, &v)| TsSample { at_us: i as u64, value: v }).collect()
        };
        assert!(trend_rising(s(&[0.1, 0.2, 0.3]).into_iter()));
        assert!(trend_rising(s(&[0.1, 0.1, 0.3]).into_iter()));
        assert!(!trend_rising(s(&[0.3, 0.2, 0.1]).into_iter()));
        assert!(!trend_rising(s(&[0.1, 0.1, 0.1]).into_iter()));
        assert!(!trend_rising(s(&[0.1, 0.3, 0.2]).into_iter()));
        assert!(!trend_rising(s(&[0.5]).into_iter()));
        assert!(!trend_rising(std::iter::empty()));
    }

    fn small_telerehab() -> Application {
        scenarios::telerehab_with(2) // 60 frames
    }

    /// Obs on, with a trace ring that never drops an event.
    fn obs_keep_all() -> ObsConfig {
        ObsConfig { trace_capacity: usize::MAX, ..ObsConfig::on() }
    }

    /// Asserts that each manager's `manager_actions` counter equals its
    /// number of `ManagerAction` trace events, and that every manager
    /// in `fired` acted at least once.
    fn assert_actions_traced(report: &OrchestrationReport, fired: &[&str]) {
        let obs = &report.obs;
        assert_eq!(obs.trace_dropped(), 0, "the trace ring kept every event");
        let events = obs.trace_events();
        for manager in ["node", "network", "wl", "app", "elasticity", "federation"] {
            let traced = events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::ManagerAction { manager: m, .. } if m == manager))
                .count() as u64;
            assert_eq!(obs.counter_value("manager_actions", manager), traced, "{manager}");
            assert!(traced > 0 || !fired.contains(&manager), "{manager} acted");
        }
    }

    #[test]
    fn greedy_orchestration_completes_requests() {
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig::default(),
            vec![small_telerehab()],
            SimTime::from_secs(5),
        )
        .expect("places");
        assert_eq!(report.apps.len(), 1);
        assert!(
            report.apps[0].completed > 50,
            "most of the 60 frames complete: {:?}",
            report.apps[0]
        );
        assert!(report.total_energy_j > 0.0);
        assert!(report.apps[0].latency_ms.is_some());
    }

    #[test]
    fn multiple_apps_are_tracked_separately() {
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig::default(),
            vec![small_telerehab(), scenarios::smart_mobility_with(SimTime::from_secs(2))],
            SimTime::from_secs(5),
        )
        .expect("places");
        assert_eq!(report.apps.len(), 2);
        assert!(report.apps.iter().all(|a| a.completed > 0), "{report:?}");
        assert_ne!(report.apps[0].name, report.apps[1].name);
    }

    #[test]
    fn cloud_only_pays_more_latency_than_greedy_for_edge_streams() {
        let horizon = SimTime::from_secs(5);
        let greedy = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig::static_baseline(),
            vec![small_telerehab()],
            horizon,
        )
        .expect("places");
        let cloud = run_orchestration(
            Box::new(LayerPinned::cloud_only()),
            EngineConfig::static_baseline(),
            vec![small_telerehab()],
            horizon,
        )
        .expect("places");
        assert!(
            greedy.mean_latency_ms() < cloud.mean_latency_ms(),
            "greedy {} vs cloud {}",
            greedy.mean_latency_ms(),
            cloud.mean_latency_ms()
        );
    }

    #[test]
    fn adaptive_engine_survives_node_failure() {
        let mut continuum = ContinuumBuilder::new().build();
        // Crash a mid-pipeline host shortly after start, forever.
        let victim = continuum.edge()[3];
        FaultPlan::new().crash(victim, SimTime::from_millis(300), None).apply(continuum.sim_mut());
        let cfg = EngineConfig { obs: obs_keep_all(), ..EngineConfig::default() };
        let report = OrchestrationEngine::new(Box::new(GreedyBestFit::new()), cfg)
            .run(&mut continuum, vec![small_telerehab()], SimTime::from_secs(5))
            .expect("places");
        let a = &report.apps[0];
        assert!(a.completed + a.failed > 50, "requests are accounted for: {a:?}");
        assert!(a.completed > a.failed, "recovery keeps most requests alive: {a:?}");
        assert_actions_traced(&report, &["node"]);
    }

    #[test]
    fn static_engine_loses_requests_on_failure() {
        let mk = |realloc: bool| {
            let mut continuum = ContinuumBuilder::new().build();
            let report = OrchestrationEngine::new(
                Box::new(RoundRobin::new()),
                EngineConfig {
                    obs: obs_keep_all(),
                    reallocation: realloc,
                    retry: if realloc { RetryPolicy::default() } else { RetryPolicy::NONE },
                    node_adaptation: false,
                    network_management: false,
                    ..EngineConfig::default()
                },
            );
            // Crash several edge nodes mid-run.
            let victims: Vec<_> = continuum.edge()[0..4].to_vec();
            for v in victims {
                FaultPlan::new()
                    .crash(v, SimTime::from_millis(200), None)
                    .apply(continuum.sim_mut());
            }
            report
                .run(&mut continuum, vec![small_telerehab()], SimTime::from_secs(5))
                .expect("places")
        };
        let adaptive = mk(true);
        assert_actions_traced(&adaptive, &["wl"]);
        let static_ = mk(false);
        assert!(
            adaptive.apps[0].completed >= static_.apps[0].completed,
            "adaptive {:?} vs static {:?}",
            adaptive.apps[0],
            static_.apps[0]
        );
    }

    #[test]
    fn retry_policy_recovers_crashed_work_and_bounds_failures() {
        let run = |retry: RetryPolicy| {
            let mut continuum = ContinuumBuilder::new().build();
            let victim = continuum.edge()[3];
            FaultPlan::new()
                .crash(victim, SimTime::from_millis(300), Some(SimDuration::from_millis(400)))
                .apply(continuum.sim_mut());
            OrchestrationEngine::new(
                Box::new(GreedyBestFit::new()),
                EngineConfig { obs: ObsConfig::on(), retry, ..EngineConfig::default() },
            )
            .run(&mut continuum, vec![small_telerehab()], SimTime::from_secs(5))
            .expect("places")
        };
        let plain = run(RetryPolicy::NONE);
        let retried = run(RetryPolicy::default());
        assert_eq!(
            plain.obs.counter_value("task_retries", ""),
            0,
            "RetryPolicy::NONE never retries"
        );
        let a = &retried.apps[0];
        assert!(
            a.completed >= plain.apps[0].completed,
            "retries never complete less: {a:?} vs {:?}",
            plain.apps[0]
        );
        assert!(a.completed + a.failed <= 60, "bounded accounting: {a:?}");
        // Recovered tasks either complete on a survivor or are given
        // up after the attempt budget — both tallies are observable.
        let retries = retried.obs.counter_value("task_retries", "");
        let gave_up = retried.obs.counter_value("task_gave_up", "");
        if retries == 0 {
            assert_eq!(gave_up, 0, "give-up only follows retry offers");
        }
    }

    #[test]
    fn static_baseline_never_retries_and_the_default_does() {
        let run = |cfg: EngineConfig| {
            let mut continuum = ContinuumBuilder::new().build();
            // The static arm runs the pipeline on the first edge node
            // and the default one also uses the fourth: crash both.
            let victims: Vec<_> = continuum.edge()[0..4].to_vec();
            for v in victims {
                FaultPlan::new()
                    .crash(v, SimTime::from_millis(300), Some(SimDuration::from_millis(400)))
                    .apply(continuum.sim_mut());
            }
            OrchestrationEngine::new(
                Box::new(GreedyBestFit::new()),
                EngineConfig { obs: ObsConfig::on(), ..cfg },
            )
            .run(&mut continuum, vec![small_telerehab()], SimTime::from_secs(5))
            .expect("places")
        };
        let fixed = run(EngineConfig::static_baseline());
        assert_eq!(fixed.obs.counter_value("task_retries", ""), 0, "the static arm never retries");
        assert!(fixed.obs.counter_value("task_gave_up", "") > 0, "its lost attempts give up");
        let cognitive = run(EngineConfig::default());
        assert!(cognitive.obs.counter_value("task_retries", "") > 0, "the default retries");
    }

    #[test]
    fn replicated_placement_dedups_on_first_completion() {
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig {
                obs: ObsConfig::on(),
                replicate_critical: true,
                ..EngineConfig::default()
            },
            vec![small_telerehab()],
            SimTime::from_secs(5),
        )
        .expect("places");
        let a = &report.apps[0];
        assert!(a.completed > 50, "replication keeps the app whole: {a:?}");
        // Every deadline-critical stage ships a twin, and the first
        // completion cancels the sibling exactly once.
        let dedups = report.obs.counter_value("replica_dedups", "");
        assert!(dedups >= 1, "first-completion-wins fires");
        assert!(
            dedups <= 3 * (a.completed + a.failed),
            "at most one dedup per critical stage per request"
        );
    }

    #[test]
    fn security_enforcement_costs_energy_or_latency() {
        let horizon = SimTime::from_secs(4);
        let mk = |enforce: bool| {
            run_orchestration(
                Box::new(GreedyBestFit::new()),
                EngineConfig { enforce_security: enforce, ..EngineConfig::static_baseline() },
                vec![small_telerehab()],
                horizon,
            )
            .expect("places")
        };
        let on = mk(true);
        let off = mk(false);
        assert!(on.handshake_cycles > 0 || on.mean_latency_ms() >= off.mean_latency_ms());
    }

    #[test]
    fn overload_degrades_the_application_operating_point() {
        use myrtus_workload::ArrivalSpec;
        // A 900 fps pose pipeline: beyond one edge node's capacity at
        // full quality.
        let mut app = scenarios::telerehab_with(2);
        app.arrival =
            ArrivalSpec::periodic(myrtus_continuum::time::SimDuration::from_micros(1_111), 1_800);
        let run = |adapt: bool| {
            run_orchestration(
                Box::new(GreedyBestFit::new()),
                EngineConfig {
                    obs: obs_keep_all(),
                    app_point_adaptation: adapt,
                    ..EngineConfig::default()
                },
                vec![app.clone()],
                SimTime::from_secs(5),
            )
            .expect("placeable")
        };
        let adaptive = run(true);
        let fixed = run(false);
        assert!(adaptive.app_point_switches > 0, "overload triggers degradation");
        assert_actions_traced(&adaptive, &["app"]);
        assert!(
            adaptive.apps[0].mean_quality < 1.0,
            "some requests served degraded: {:?}",
            adaptive.apps[0]
        );
        assert!((fixed.apps[0].mean_quality - 1.0).abs() < 1e-12);
        assert!(
            adaptive.apps[0].qos() >= fixed.apps[0].qos(),
            "degradation buys QoS: {:.3} vs {:.3}",
            adaptive.apps[0].qos(),
            fixed.apps[0].qos()
        );
    }

    #[test]
    fn admission_protects_deadline_tenants_and_sheds_bulk() {
        use myrtus_workload::scenarios::surge;
        let apps = surge::surge_mix(7, SimTime::from_secs(3));
        let run = |admission: Option<AdmissionPolicy>| {
            run_orchestration(
                Box::new(GreedyBestFit::new()),
                EngineConfig { obs: ObsConfig::on(), admission, ..EngineConfig::default() },
                apps.clone(),
                SimTime::from_secs(4),
            )
            .expect("places")
        };
        let open = run(None);
        // 20 tokens per 100 ms window: far below the bulk tenants' surge
        // peak, so unprotected work must spill and shed.
        let gated =
            run(Some(AdmissionPolicy { rate_per_window: 20, ..AdmissionPolicy::default() }));
        assert_eq!(open.apps.iter().map(|a| a.shed).sum::<u64>(), 0, "no policy, no shedding");
        let interactive = &gated.apps[0];
        assert_eq!(interactive.shed, 0, "protected tenant is never shed: {interactive:?}");
        let bulk_shed: u64 = gated.apps[1..].iter().map(|a| a.shed).sum();
        assert!(bulk_shed > 0, "over-rate bulk load is shed: {:?}", gated.apps);
        assert!(
            gated.obs.counter_value("tasks_shed", "rate_limit") > 0,
            "typed shed counter fires"
        );
        assert!(
            interactive.goodput() + 1e-9 >= open.apps[0].goodput(),
            "gating never hurts the protected tenant: {:.3} vs {:.3}",
            interactive.goodput(),
            open.apps[0].goodput()
        );
    }

    #[test]
    fn elasticity_scales_out_under_overload() {
        use myrtus_workload::ArrivalSpec;
        // The 900 fps pose pipeline again: far beyond one edge node.
        let mut app = scenarios::telerehab_with(2);
        app.arrival =
            ArrivalSpec::periodic(myrtus_continuum::time::SimDuration::from_micros(1_111), 1_800);
        let run = |elasticity: Option<ElasticityConfig>| {
            run_orchestration(
                Box::new(GreedyBestFit::new()),
                EngineConfig {
                    obs: obs_keep_all(),
                    app_point_adaptation: false,
                    // Pin the placement: with reallocation off the WL
                    // manager cannot move the hot pipeline to a bigger
                    // node, so horizontal replicas are the only relief.
                    reallocation: false,
                    elasticity,
                    ..EngineConfig::default()
                },
                vec![app.clone()],
                SimTime::from_secs(5),
            )
            .expect("places")
        };
        let fixed = run(None);
        // The WL manager parks the hot pipeline on a fog node that keeps
        // a steady run queue; a queue trigger of 2 makes that pressure
        // visible to the autoscaler.
        let elastic = run(Some(ElasticityConfig {
            scale_up_queue: 2.0,
            scale_up_utilization: 0.5,
            ..ElasticityConfig::default()
        }));
        assert_eq!(fixed.obs.counter_value("scale_ups", ""), 0, "no config, no scaling");
        assert!(
            elastic.obs.counter_value("scale_ups", "") > 0,
            "sustained overload triggers scale-up"
        );
        assert_actions_traced(&elastic, &["elasticity"]);
        assert!(
            elastic.apps[0].qos() >= fixed.apps[0].qos(),
            "replicas never cost QoS: {:.3} vs {:.3}",
            elastic.apps[0].qos(),
            fixed.apps[0].qos()
        );
    }

    #[test]
    fn mid_run_deployment_requests_are_served() {
        let mut continuum = ContinuumBuilder::new().build();
        let report =
            OrchestrationEngine::new(Box::new(GreedyBestFit::new()), EngineConfig::default())
                .run_scheduled(
                    &mut continuum,
                    vec![
                        (small_telerehab(), SimTime::ZERO),
                        (
                            scenarios::smart_mobility_with(SimTime::from_secs(1)),
                            SimTime::from_secs(2),
                        ),
                    ],
                    SimTime::from_secs(6),
                )
                .expect("time-zero app places");
        assert_eq!(report.apps.len(), 2, "the late app is deployed mid-run");
        assert!(report.apps[0].completed > 0);
        assert!(report.apps[1].completed > 0, "{:?}", report.apps[1]);
        // The late app's first completion cannot precede its issuance.
        let lat = report.apps[1].latency_ms.as_ref().expect("has samples");
        assert!(lat.count > 0);
    }

    #[test]
    fn report_rows_follow_deployment_order_not_app_ids() {
        // App ids follow the input order; report rows follow the order
        // in which deployments succeed. App 1 deploys at time zero, app 0
        // at 2 s, and app 2 asks for more memory than any node has, so
        // its late deployment fails and it gets no row at all.
        let mobility = scenarios::smart_mobility_with(SimTime::from_secs(1));
        let telerehab = small_telerehab();
        let mut unplaceable = scenarios::telerehab_with(1);
        unplaceable.name = "unplaceable".into();
        unplaceable.components[1].requirements.mem_mb = u64::MAX;
        let mut continuum = ContinuumBuilder::new().build();
        let report =
            OrchestrationEngine::new(Box::new(GreedyBestFit::new()), EngineConfig::default())
                .run_scheduled(
                    &mut continuum,
                    vec![
                        (mobility.clone(), SimTime::from_secs(2)),
                        (telerehab.clone(), SimTime::ZERO),
                        (unplaceable, SimTime::from_secs(3)),
                    ],
                    SimTime::from_secs(6),
                )
                .expect("time-zero app places");
        let ids: Vec<u16> = report.apps.iter().map(|a| a.app_id).collect();
        assert_eq!(ids, vec![1, 0], "deployment order, unplaceable app dropped");
        let requests = |app: &Application| {
            compile_requests(app, 0, EngineConfig::default().seed, None).expect("valid").len()
                as u64
        };
        // More telerehab frames complete than smart-mobility even issues,
        // so swapped tallies cannot pass.
        assert!(report.apps[0].completed > requests(&mobility), "{:?}", report.apps[0]);
        for (row, app) in report.apps.iter().zip([&telerehab, &mobility]) {
            assert_eq!(row.name, app.name);
            assert!(row.completed > 0 && row.completed <= requests(app), "{row:?}");
            let lat = row.latency_ms.as_ref().expect("has samples");
            assert_eq!(lat.count as u64, row.completed, "one latency sample per completion");
            assert!(
                row.slowest_trace.iter().all(|s| app.components.iter().any(|c| c.name == s.stage)),
                "slowest trace runs through {}'s own stages: {:?}",
                app.name,
                row.slowest_trace
            );
        }
    }

    #[test]
    fn manager_tuning_flows_into_the_runtime() {
        // An eco threshold of 0 can never trigger (utilization is never
        // negative at a sample instant with work pending), so the evolved
        // "never downclock" rule yields zero op switches.
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig {
                tuning: ManagerTuning { eco_threshold: 0.0001, ..ManagerTuning::default() },
                ..EngineConfig::default()
            },
            vec![small_telerehab()],
            SimTime::from_secs(4),
        )
        .expect("placeable");
        let defaults = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig::default(),
            vec![small_telerehab()],
            SimTime::from_secs(4),
        )
        .expect("placeable");
        assert!(
            report.op_switches <= defaults.op_switches,
            "a near-zero eco threshold cannot switch more: {} vs {}",
            report.op_switches,
            defaults.op_switches
        );
    }

    #[test]
    fn slowest_request_trace_is_complete_and_ordered() {
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig::default(),
            vec![small_telerehab()],
            SimTime::from_secs(5),
        )
        .expect("placeable");
        let trace = &report.apps[0].slowest_trace;
        assert_eq!(trace.len(), 5, "one span per telerehab stage: {trace:?}");
        assert_eq!(trace[0].stage, "camera");
        assert_eq!(trace.last().map(|s| s.stage.as_str()), Some("session-store"));
        assert!(
            trace.windows(2).all(|w| w[0].finished_at <= w[1].finished_at),
            "chain stages finish in order"
        );
        // The measured critical path is a non-empty, time-ordered
        // subset of the trace ending at the last-finishing stage.
        let cp = &report.apps[0].critical_path;
        assert!(!cp.is_empty(), "a completed request has a critical path");
        assert!(cp.len() <= trace.len());
        assert!(cp.windows(2).all(|w| w[0].finished_at <= w[1].finished_at));
        assert_eq!(
            cp.last().map(|s| s.finished_at),
            trace.iter().map(|s| s.finished_at).max(),
            "the critical path ends at the latest finish"
        );
        assert!(cp.iter().all(|c| trace.iter().any(|t| t == c)), "subset of the trace");
    }

    #[test]
    fn window_stats_surface_as_gauges_and_series() {
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig { obs: ObsConfig::on(), ..EngineConfig::default() },
            vec![small_telerehab()],
            SimTime::from_secs(5),
        )
        .expect("placeable");
        let snap = report.obs.metrics_snapshot();
        let gauge = |name: &str| {
            snap.gauges.iter().find(|((n, l), _)| *n == name && *l == "0").map(|(_, v)| *v)
        };
        assert!(gauge("app_window_done").is_some(), "window done gauge exported");
        assert!(gauge("app_window_missed").is_some(), "window missed gauge exported");
        // Each monitoring round with completions records one miss-rate
        // sample for the trend window.
        let samples = report.obs.ts_series("app_window_miss_rate", "0");
        assert!(!samples.is_empty(), "miss-rate series recorded");
        assert!(samples.iter().all(|s| (0.0..=1.0).contains(&s.value)));
        assert!(samples.windows(2).all(|w| w[0].at_us < w[1].at_us), "one sample per round");
    }

    #[test]
    fn bodied_stages_execute_on_the_task_vm() {
        use myrtus_continuum::engine::VmConfig;
        use myrtus_workload::scenarios::programs;
        let run = |bodied: bool| {
            let mut continuum = ContinuumBuilder::new().build();
            // Library entry 0 is the compute mix sized to the pose
            // stage's scalar work, so re-pricing stays in the same
            // ballpark and the pipeline still meets its deadlines.
            continuum.sim_mut().set_vm(VmConfig::new(programs::library(7, 9.0)));
            let mut app = small_telerehab();
            if bodied {
                for comp in &mut app.components {
                    if comp.name == "pose" {
                        comp.requirements.program = Some(0);
                    }
                }
            }
            OrchestrationEngine::new(
                Box::new(GreedyBestFit::new()),
                EngineConfig { obs: ObsConfig::on(), ..EngineConfig::default() },
            )
            .run(&mut continuum, vec![app], SimTime::from_secs(5))
            .expect("places")
        };
        let scalar = run(false);
        assert_eq!(
            scalar.obs.counter_value("vm_steps_total", ""),
            0,
            "no bodies tagged, no VM activity even with the VM installed"
        );
        let bodied = run(true);
        assert!(
            bodied.obs.counter_value("vm_steps_total", "") > 0,
            "bodied stages step the interpreter"
        );
        assert!(
            bodied.apps[0].completed > 50,
            "VM-priced pose stages still complete the session: {:?}",
            bodied.apps[0]
        );
    }

    #[test]
    fn burst_awards_drain_the_backlog_via_task_migration() {
        use myrtus_continuum::engine::VmConfig;
        use myrtus_continuum::federation::FederatedContinuumBuilder;
        use myrtus_continuum::ids::RegionId;
        use myrtus_continuum::topology::HopSpec;
        use myrtus_workload::scenarios::programs;
        let run = |migration: MigrationMode| {
            let shape = ContinuumBuilder::new()
                .edge_multicores(2)
                .edge_hmpsocs(2)
                .edge_riscvs(0)
                .gateways(1)
                .fmdcs(0)
                .cloud_servers(0);
            let mut fed = FederatedContinuumBuilder::new()
                .regions(2)
                .region_shape(shape)
                .wan_hop(HopSpec::new(SimDuration::from_millis(10), 400.0))
                .build();
            // Short horizon: interpreting every bodied batch task is
            // the dominant (debug-build) cost of this test, and the
            // burst gate arms within the first few MAPE rounds.
            let horizon = SimTime::from_millis(1_000);
            let (mix, lib) = programs::bodied_region_mix(7, 2, horizon, 0, 4.0);
            fed.sim_mut().set_vm(VmConfig::new(lib));
            let apps = mix
                .into_iter()
                .map(|(app, r)| (app, RegionId::from_raw(r), SimTime::ZERO))
                .collect();
            OrchestrationEngine::new(
                Box::new(GreedyBestFit::new()),
                EngineConfig {
                    obs: obs_keep_all(),
                    seed: 7,
                    // No autoscaler: the burst gate arms immediately.
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
            .run_federated(&mut fed, apps, SimTime::from_millis(1_400))
            .expect("placeable")
        };
        let off = run(MigrationMode::Off);
        assert!(off.bursts > 0, "the hot region escalates");
        assert_eq!(off.tasks_migrated, 0, "Off keeps the PR-8 route-only behaviour");
        assert_eq!(off.obs.counter_value("task_migrations", ""), 0);

        let live = run(MigrationMode::Live);
        assert!(live.tasks_migrated > 0, "a burst award drains resident backlog");
        assert_eq!(
            live.obs.counter_value("task_migrations", ""),
            live.tasks_migrated,
            "proxy tally matches the typed counter"
        );
        let moved_live = live.obs.counter_value("task_migrations_live", "");
        let moved_cold = live.obs.counter_value("task_migrations_cold", "");
        assert_eq!(
            moved_live + moved_cold,
            live.tasks_migrated,
            "every drain is either a checkpoint/resume or a cold restart"
        );
        assert!(
            moved_live > 0,
            "bodied batch tasks migrate live ({moved_live} live / {moved_cold} cold)"
        );
        assert_actions_traced(&live, &["federation"]);
    }

    #[test]
    fn report_aggregates_are_consistent() {
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig::default(),
            vec![small_telerehab()],
            SimTime::from_secs(4),
        )
        .expect("places");
        let layer_sum: f64 = report.layer_energy_j.iter().sum();
        assert!((layer_sum - report.total_energy_j).abs() < 1e-6);
        assert!(report.global_qos() >= 0.0 && report.global_qos() <= 1.0);
        assert!(report.energy_per_request_j().is_finite());
        assert!(report.events > 0);
    }

    /// Runs the E12b surge mix (2× bulk, admission and autoscaler as in
    /// E12) for `horizon` plus a 1 s drain and returns the engine with
    /// its per-app state intact.
    fn surge_engine(horizon: SimTime) -> OrchestrationEngine {
        use myrtus_continuum::admission::AdmissionPolicy;
        use myrtus_workload::scenarios::surge::surge_mix_scaled;
        let mut continuum = ContinuumBuilder::new().build();
        let mut engine = OrchestrationEngine::new(
            Box::new(GreedyBestFit::new()),
            EngineConfig {
                admission: Some(AdmissionPolicy {
                    rate_per_window: 20,
                    ..AdmissionPolicy::default()
                }),
                elasticity: Some(ElasticityConfig {
                    scale_up_queue: 2.0,
                    scale_up_utilization: 0.5,
                    ..ElasticityConfig::default()
                }),
                ..EngineConfig::default()
            },
        );
        let apps = surge_mix_scaled(7, horizon, 2.0).into_iter().map(|a| (a, SimTime::ZERO));
        let end = horizon + SimDuration::from_secs(1);
        engine.launch(&mut continuum, apps.collect(), end).expect("places");
        continuum.sim_mut().run_until(end, &mut engine);
        engine
    }

    #[test]
    fn request_state_follows_live_work_not_the_horizon() {
        let short = surge_engine(SimTime::from_secs(60));
        let long = surge_engine(SimTime::from_secs(240));
        let peak = |e: &OrchestrationEngine| e.apps.iter().map(|a| a.live_peak).max();
        assert_eq!(short.apps.len(), long.apps.len());
        for (s, l) in short.apps.iter().zip(&long.apps) {
            for rt in [s, l] {
                // Every fired arrival ends in exactly one terminal state
                // or is still live.
                assert_eq!(
                    rt.completed + rt.failed + rt.shed + rt.requests.len() as u64,
                    rt.arrived,
                    "{}: per-request conservation",
                    rt.app.name
                );
                assert!(rt.arrived <= rt.released.len() as u64);
            }
            assert!(l.arrived > 3 * s.arrived, "{}: the long run serves more", l.app.name);
            assert!(l.arrived > 50 * l.live_peak as u64, "{}: peak {}", l.app.name, l.live_peak);
            assert!(
                Some(l.live_peak) <= peak(&short),
                "{}: peak {} at 240 s above the 60 s run's {:?}",
                l.app.name,
                l.live_peak,
                peak(&short)
            );
        }
        // The high-water mark does not grow with the horizon (per app
        // it moves by a couple of requests either way, because the
        // surge ramp stretches with the horizon).
        assert_eq!(peak(&short), peak(&long));
        assert!(long.apps.iter().any(|a| a.shed > 0), "admission sheds bulk requests");
    }

    /// Forwards every event to the engine except the completions of the
    /// listed stages, which it keeps so a test can deliver them late.
    struct HoldCompletions<'a> {
        engine: &'a mut OrchestrationEngine,
        stages: &'a [u16],
        held: Vec<myrtus_continuum::task::TaskOutcome>,
    }

    impl Driver for HoldCompletions<'_> {
        fn on_event(&mut self, sim: &mut SimCore, event: SimEvent) {
            match event {
                SimEvent::TaskCompleted(o)
                    if self.stages.contains(&Tag::decode(o.task.tag).stage) =>
                {
                    self.held.push(o);
                }
                other => self.engine.on_event(sim, other),
            }
        }
    }

    /// Runs `app` alone for one second with the completions of `stages`
    /// held back; returns the engine, the continuum and the held
    /// outcomes in completion order. Round-robin placement puts every
    /// component on its own node, so each non-source stage's input
    /// crosses the network.
    fn run_holding(
        cfg: EngineConfig,
        app: Application,
        stages: &[u16],
    ) -> (OrchestrationEngine, Continuum, Vec<myrtus_continuum::task::TaskOutcome>) {
        let mut continuum = ContinuumBuilder::new().build();
        let mut engine = OrchestrationEngine::new(Box::new(RoundRobin::new()), cfg);
        let end = SimTime::from_secs(1);
        engine.launch(&mut continuum, vec![(app, SimTime::ZERO)], end).expect("places");
        let mut hold = HoldCompletions { engine: &mut engine, stages, held: Vec::new() };
        continuum.sim_mut().run_until(end, &mut hold);
        let held = hold.held;
        (engine, continuum, held)
    }

    fn tally(rt: &AppRuntime) -> (u64, u64, u64) {
        (rt.completed, rt.failed, rt.shed)
    }

    #[test]
    fn a_twin_completing_after_its_shed_sibling_completes_the_stage_once() {
        use myrtus_workload::{ArrivalSpec, Component, ComponentKind};
        let app = Application::new("crit", ArrivalSpec::periodic(SimDuration::from_millis(10), 1))
            .with_component(
                Component::new("f", ComponentKind::Function)
                    .with_work_mc(2.0)
                    .with_max_latency(SimDuration::from_millis(50)),
            );
        let cfg = EngineConfig { replicate_critical: true, ..EngineConfig::default() };
        let (mut engine, mut continuum, held) = run_holding(cfg, app, &[0]);
        assert_eq!(held.len(), 2, "primary and twin both ran: {held:?}");
        let (primary, twin) = (&held[0].task, &held[1]);
        assert_eq!(engine.replicas.len(), 2, "the pair is registered");
        assert_eq!(engine.apps[0].requests.len(), 1, "request 0 is live");
        let sim = continuum.sim_mut();
        // Admission drops the primary: the twin fights on alone.
        engine.on_event(
            sim,
            SimEvent::TaskShed { node: held[0].node, task: primary.clone(), reason: "queue_full" },
        );
        assert_eq!(
            tally(&engine.apps[0]),
            (0, 0, 0),
            "a shed primary with a live twin retires nothing"
        );
        assert_eq!(engine.apps[0].requests.len(), 1);
        engine.on_event(sim, SimEvent::TaskCompleted(twin.clone()));
        assert_eq!(tally(&engine.apps[0]), (1, 0, 0), "the twin completes the request");
        assert!(engine.apps[0].requests.is_empty(), "the completed request retires");
        // Late duplicates of either copy change nothing.
        engine.on_event(sim, SimEvent::TaskCompleted(twin.clone()));
        engine.on_event(sim, SimEvent::TaskCompleted(held[0].clone()));
        assert_eq!(tally(&engine.apps[0]), (1, 0, 0));
        assert_eq!(engine.apps[0].latencies_ms.len(), 1, "one latency sample for one completion");
    }

    #[test]
    fn late_events_of_a_terminal_request_change_no_tally() {
        use myrtus_workload::{ArrivalSpec, Component, ComponentKind};
        // `s` fans out to `a` (held, then shed or failed by hand) and
        // `b` (held, then delivered late, recovered and lost).
        let app = Application::new("fan", ArrivalSpec::periodic(SimDuration::from_millis(10), 2))
            .with_component(Component::new("s", ComponentKind::Sensor).with_work_mc(0.5))
            .with_component(Component::new("a", ComponentKind::Function).with_work_mc(2.0))
            .with_component(Component::new("b", ComponentKind::Storage).with_work_mc(1.0))
            .with_connection("s", "a", 2_000, Protocol::Mqtt)
            .with_connection("s", "b", 2_000, Protocol::Mqtt);
        let (mut engine, mut continuum, held) = run_holding(EngineConfig::default(), app, &[1, 2]);
        let stage_of = |request: u32, stage: u16| {
            held.iter()
                .find(|o| Tag::decode(o.task.tag) == Tag { app: 0, request, stage })
                .cloned()
                .expect("held")
        };
        assert_eq!(held.len(), 4, "two requests x two held stages");
        assert_eq!(engine.apps[0].requests.len(), 2, "both requests wait on their held stages");
        let sim = continuum.sim_mut();
        for (request, shed) in [(0, true), (1, false)] {
            let a = stage_of(request, 1);
            let b = stage_of(request, 2);
            let terminal = if shed {
                SimEvent::TaskShed { node: a.node, task: a.task.clone(), reason: "rate_limit" }
            } else {
                SimEvent::TaskAbandoned { node: a.node, task: a.task.clone() }
            };
            assert!(engine.pending_flows.contains_key(&a.task.tag), "a crossed the network");
            engine.on_event(sim, terminal);
            let after = tally(&engine.apps[0]);
            assert_eq!(after, if shed { (0, 0, 1) } else { (0, 1, 1) });
            assert!(!engine.apps[0].requests.contains_key(&request), "terminal requests retire");
            assert!(
                !engine.pending_flows.contains_key(&a.task.tag),
                "no completion will reward a dropped stage's flow, so it goes"
            );
            // `b` shipped its input from `s`'s host: the Network
            // Manager's reward for that transfer is still owed.
            let flow = b.task.tag;
            assert!(engine.pending_flows.contains_key(&flow), "b crossed the network");
            engine.on_event(sim, SimEvent::TaskCompleted(b.clone()));
            assert!(
                !engine.pending_flows.contains_key(&flow),
                "a late completion still rewards its flow"
            );
            engine.on_event(sim, SimEvent::TaskCompleted(a.clone()));
            engine.on_event(
                sim,
                SimEvent::TaskRecovered { node: b.node, task: b.task.clone(), attempt: 1 },
            );
            engine.on_event(sim, SimEvent::NodeDown(b.node));
            engine.on_event(sim, SimEvent::TaskAbandoned { node: b.node, task: b.task.clone() });
            engine.on_event(
                sim,
                SimEvent::TaskShed { node: b.node, task: b.task, reason: "queue_full" },
            );
            assert_eq!(
                tally(&engine.apps[0]),
                after,
                "late events of a terminal request are inert"
            );
            assert!(!engine.apps[0].requests.contains_key(&request), "nothing revives it");
        }
        assert_eq!(engine.apps[0].latencies_ms.len(), 0);
        assert!(engine.pending_flows.is_empty(), "no flow outlives its stage");
    }
}
