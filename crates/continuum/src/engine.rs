//! The discrete-event simulation core.
//!
//! [`SimCore`] owns the logical clock, the event queue, all node states
//! and the network fabric. An external [`Driver`] — typically the MIRTO
//! cognitive engine — receives [`SimEvent`] notifications and reacts by
//! scheduling further work. The event queue is strictly deterministic:
//! ties in time are broken by insertion order.
//!
//! The hot path is one pair of structures: a hierarchical timing wheel
//! ([`crate::wheel`]) for the event queue and a paged slab
//! ([`crate::slab::TaskBook`]) for per-task state. Every event carries
//! the core's sequence number, so the wheel drains in the `(time, seq)`
//! total order. Debug builds check that order on every pop against a
//! binary-heap order oracle kept inside the wheel (see
//! [`crate::wheel`]'s "Determinism" section).

use std::cell::OnceCell;

use myrtus_obs::hash::WordMap;
use myrtus_obs::{Obs, SeriesId, TraceKind};
use myrtus_vm::{Checkpoint, CostTable, IsaClass, OpCounts, Program, VmState};

use crate::admission::{AdmissionDecision, AdmissionPolicy, AdmissionState};
use crate::ids::{LinkId, MsgId, NodeId, TaskId, TimerId};
use crate::net::{Message, Network, NetworkError, Protocol};
use crate::node::{ExecutionMode, Layer, NodeKind, NodeSpec, NodeState};
use crate::retry::RetryPolicy;
use crate::slab::{ParkedTasks, TaskBook};
use crate::task::{TaskInstance, TaskOutcome};
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// Whether the seeded retry-epoch bug is armed: the stale-recovery
/// guard is skipped, so a recovery event fires even for a task that
/// already reached a terminal state (resurrection). Compiled out of
/// release builds; off by default even in test builds.
fn mutation_stale_recover() -> bool {
    #[cfg(any(test, feature = "mc-mutations"))]
    {
        crate::mutation::engine_stale_recover()
    }
    #[cfg(not(any(test, feature = "mc-mutations")))]
    {
        false
    }
}

/// Whether the seeded double-resume bug is armed: a live migration
/// delivers the checkpointed task to its destination *twice*, creating
/// two concurrent live instances of one task — the violation the
/// exactly-one-live-instance discipline exists to prevent. Compiled
/// out of release builds; off by default even in test builds.
fn mutation_double_resume() -> bool {
    #[cfg(any(test, feature = "mc-mutations"))]
    {
        crate::mutation::migration_double_resume()
    }
    #[cfg(not(any(test, feature = "mc-mutations")))]
    {
        false
    }
}

/// Internal event kinds driven through the queue.
///
/// A variant that carries a [`TaskInstance`] names its slot in the
/// core's [`ParkedTasks`] slab, and [`Message`]s are boxed, so the enum
/// stays at 24 bytes (a 40-byte wheel entry with its `(at, seq)` key):
/// every *queue-resident* event (timers, finishes, timeout guards — the
/// ones that sit in the wheel by the million) would otherwise pay the
/// largest variant's footprint (a 128-byte task) in storage, copies and
/// cache misses. The assertions below keep a new variant from
/// re-inflating the queue.
#[derive(Debug)]
enum EventKind {
    TaskArrival {
        node: NodeId,
        slot: u32,
    },
    TaskFinish {
        node: NodeId,
        task: TaskId,
        epoch: u64,
    },
    MsgDeliver {
        msg: Box<Message>,
    },
    NodeDown(NodeId),
    NodeUp(NodeId),
    LinkDown(LinkId),
    LinkUp(LinkId),
    Timer {
        id: TimerId,
        tag: u64,
    },
    /// Periodic telemetry scrape (armed only when observability is on
    /// with a non-zero scrape interval; re-arms itself).
    Scrape,
    /// A failed attempt's backoff elapsed: re-offer the task to the
    /// driver for another placement.
    TaskRecover {
        node: NodeId,
        slot: u32,
        attempt: u32,
    },
    /// Per-attempt timeout guard armed at dispatch; stale (ignored)
    /// unless the task is still on the same attempt and unfinished.
    AttemptTimeout {
        node: NodeId,
        task: TaskId,
        attempt: u32,
    },
    /// Surfaces a deferred `TaskStarted` notification for a queued task
    /// promoted while the driver held the core (see
    /// [`SimCore::cancel_task`]).
    NotifyStarted {
        node: NodeId,
        task: TaskId,
        mode: ExecutionMode,
    },
    /// Surfaces a deferred [`SimEvent::TaskShed`] notification: the
    /// admission decision is taken synchronously inside the submit
    /// call, but the driver only learns about it through the queue
    /// (same instant, later seq) so submits never re-enter the driver.
    /// The reason is parked with the task, so the 16-byte `&str` does
    /// not set the enum's size.
    NotifyShed {
        node: NodeId,
        slot: u32,
    },
}

const _: () = assert!(std::mem::size_of::<EventKind>() <= 24);
// A wheel entry is `(at, seq, event)`.
const _: () = assert!(std::mem::size_of::<(u64, u64, EventKind)>() == 40);

/// Notifications surfaced to the [`Driver`].
#[derive(Debug)]
pub enum SimEvent {
    /// A task started service on a node (after queueing/transfer).
    TaskStarted {
        /// Executing node.
        node: NodeId,
        /// The started task id.
        task: TaskId,
        /// Software or accelerated execution.
        mode: ExecutionMode,
    },
    /// A task completed; the outcome carries latency and deadline info.
    TaskCompleted(TaskOutcome),
    /// A node went down. Its running and queued tasks are lost; each
    /// lost attempt rides the recovery queue and surfaces later as
    /// [`SimEvent::TaskRecovered`] or [`SimEvent::TaskAbandoned`].
    NodeDown(NodeId),
    /// A node came (back) up.
    NodeRestored(NodeId),
    /// A link was cut or restored.
    LinkChanged {
        /// The link.
        link: LinkId,
        /// Its new state.
        up: bool,
    },
    /// A message reached its destination.
    MessageDelivered(Message),
    /// A lost or timed-out task finished its backoff and is re-offered
    /// for another attempt (never under [`RetryPolicy::NONE`]). The
    /// driver should re-place and resubmit the task — typically on a
    /// surviving node other than `node` — or call
    /// [`SimCore::note_give_up`] when no placement exists.
    TaskRecovered {
        /// The node the failed attempt targeted.
        node: NodeId,
        /// The task to re-place (same id across attempts).
        task: TaskInstance,
        /// Retry number (1-based: the first retry is attempt 1).
        attempt: u32,
    },
    /// A task exhausted its retry budget and is abandoned (under
    /// [`RetryPolicy::NONE`], at its first loss); the driver should
    /// mark the owning request degraded/failed, not wedged.
    TaskAbandoned {
        /// The node the final failed attempt targeted.
        node: NodeId,
        /// The abandoned task.
        task: TaskInstance,
    },
    /// A timer registered with [`SimCore::set_timer`] fired.
    Timer {
        /// The timer id returned at registration.
        id: TimerId,
        /// The opaque tag passed at registration.
        tag: u64,
    },
    /// The admission controller shed a task instead of dispatching it
    /// (only with an [`AdmissionPolicy`] installed). Shed tasks are
    /// terminal — no arrival, no retry — and count against the same
    /// dispatch tally as admitted ones, so the driver should mark the
    /// owning request failed, not wedged.
    TaskShed {
        /// The node the submission targeted.
        node: NodeId,
        /// The shed task.
        task: TaskInstance,
        /// One of `"queue_full"`, `"rate_limit"`, `"slo_hopeless"`.
        reason: &'static str,
    },
}

/// Reacts to simulation events; implemented by orchestration engines and
/// test harnesses.
pub trait Driver {
    /// Called once per surfaced event, with the core mutable so the driver
    /// can schedule follow-up work.
    fn on_event(&mut self, sim: &mut SimCore, event: SimEvent);
}

/// A driver that ignores every event; useful for open-loop simulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullDriver;

impl Driver for NullDriver {
    fn on_event(&mut self, _sim: &mut SimCore, _event: SimEvent) {}
}

/// Errors returned by [`SimCore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The referenced node does not exist.
    UnknownNode(NodeId),
    /// The referenced node is down.
    NodeDown(NodeId),
    /// A network routing failure.
    Network(NetworkError),
    /// The requested operating point does not exist on the node.
    UnknownOperatingPoint {
        /// The node.
        node: NodeId,
        /// The out-of-range index.
        index: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownNode(n) => write!(f, "unknown node {n}"),
            SimError::NodeDown(n) => write!(f, "node {n} is down"),
            SimError::Network(e) => write!(f, "network error: {e}"),
            SimError::UnknownOperatingPoint { node, index } => {
                write!(f, "node {node} has no operating point {index}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetworkError> for SimError {
    fn from(e: NetworkError) -> Self {
        SimError::Network(e)
    }
}

/// The simulation core: clock, event queue, nodes and network.
///
/// # Examples
///
/// ```
/// use myrtus_continuum::engine::{NullDriver, SimCore};
/// use myrtus_continuum::node::NodeSpec;
/// use myrtus_continuum::task::TaskInstance;
/// use myrtus_continuum::time::SimTime;
///
/// let mut sim = SimCore::new();
/// let node = sim.add_node(NodeSpec::preset_edge_multicore("e0"));
/// let task = TaskInstance::new(sim.fresh_task_id(), 1.5);
/// sim.submit_local(node, task)?;
/// sim.run_until(SimTime::from_secs(1), &mut NullDriver);
/// assert_eq!(sim.node(node).unwrap().completed(), 1);
/// # Ok::<(), myrtus_continuum::engine::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct SimCore {
    now: SimTime,
    queue: TimingWheel<EventKind>,
    seq: u64,
    nodes: Vec<NodeState>,
    network: Network,
    next_task: u64,
    next_msg: u64,
    next_timer: u64,
    processed_events: u64,
    /// Tasks completed so far (the `sim_tasks_completed` counter's
    /// source, kept whether or not obs is on).
    pub(crate) tasks_completed: u64,
    /// Completed tasks that missed their deadline so far.
    pub(crate) deadline_misses: u64,
    obs: Obs,
    /// Per-task hot state: queue-arrival stamps (queue-wait measure),
    /// attempts consumed, terminal / cancelled-in-flight /
    /// timed-out-in-flight marks.
    tasks: TaskBook,
    /// Task instances carried by queued arrival, recovery and shed
    /// events.
    parked: ParkedTasks,
    scrape_armed: bool,
    /// Series handles of the installed obs handle, resolved at the
    /// first scrape after [`SimCore::set_obs`].
    scrape_ids: Option<ScrapeIds>,
    window: ScrapeWindow,
    /// Installed retry policy ([`RetryPolicy::NONE`] unless set).
    retry: InstalledRetry,
    /// Installed admission policy; `None` keeps the legacy
    /// unconditional-dispatch path byte-identical.
    admission: Option<AdmissionPolicy>,
    /// Token-bucket window accounting for the admission policy.
    adm_state: AdmissionState,
    /// Recovery events scheduled but not yet re-dispatched, bounded by
    /// [`RetryPolicy::recovery_queue_cap`] (retry-storm guard).
    recovery_outstanding: u32,
    /// Installed portable task-body runtime; `None` keeps the legacy
    /// scalar-cost path byte-identical (see [`SimCore::set_vm`]).
    vm: Option<VmRuntime>,
}

/// The retry policy a [`SimCore`] runs under. Its default is
/// [`RetryPolicy::NONE`], not the retrying [`RetryPolicy::default`], so
/// a fresh core never retries by accident.
#[derive(Debug, Clone, Copy)]
struct InstalledRetry(RetryPolicy);

impl Default for InstalledRetry {
    fn default() -> Self {
        InstalledRetry(RetryPolicy::NONE)
    }
}

/// Configuration of the portable task-body runtime: a library of
/// deterministic stack-bytecode [`Program`]s. Installed with
/// [`SimCore::set_vm`].
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Program library; [`crate::task::TaskBody::program`] indexes it.
    pub programs: Vec<Program>,
}

impl VmConfig {
    /// Runtime over `programs`.
    pub fn new(programs: Vec<Program>) -> Self {
        VmConfig { programs }
    }
}

/// Maps a node kind to the cost-table ISA class its cores execute the
/// portable bytecode with (paper Fig. 2 hardware classes: ARM-class
/// edge/gateway parts, the RISC-V MCU, x86-server-class FMDC/cloud).
fn isa_of(kind: NodeKind) -> IsaClass {
    match kind {
        NodeKind::EdgeMulticore | NodeKind::EdgeHmpsoc | NodeKind::FogGateway => IsaClass::Arm,
        NodeKind::EdgeRiscv => IsaClass::Riscv,
        NodeKind::FogFmdc | NodeKind::CloudServer => IsaClass::Server,
    }
}

/// Live state of the installed task-body runtime.
#[derive(Debug)]
struct VmRuntime {
    programs: Vec<Program>,
    /// Per-program op-class census ([`Program::census`]),
    /// filled at the program's first fresh boot; `Some(None)` marks a
    /// program whose cost depends on its seed.
    census: Vec<OnceCell<Option<OpCounts>>>,
    /// Interpreter images of bodied tasks resident at some node,
    /// keyed by raw task id.
    images: WordMap<u64, VmImage>,
    /// Checkpoints in network transit (live migration in progress),
    /// each with the ops its image has left to halt when the program
    /// has a census; consumed by the arrival at the destination.
    pending: WordMap<u64, (Checkpoint, Option<OpCounts>)>,
    /// Final step tallies of completed bodied tasks, kept so
    /// step-conservation invariants stay checkable after completion.
    retired_steps: WordMap<u64, u64>,
    /// Steps actually interpreted: census runs (a census read off the
    /// op list runs none), scratch runs to halt and the advances of
    /// evicted images. Host-cost accounting only; it feeds no decision
    /// and no export.
    interpreted: u64,
}

/// One resident interpreter image. It keeps the state the task arrived
/// with on its current host; node-local service progress, in cycles,
/// adds on top of that state's ledger.
#[derive(Debug)]
struct VmImage {
    prog: u32,
    table: CostTable,
    /// Steps from `vm` to halt, fixed when the arrival was priced.
    steps_to_halt: u64,
    /// For a program with a census: the ops from `vm` to halt, by
    /// class (the census minus every op an earlier residency retired).
    left: Option<OpCounts>,
    vm: VmState,
}

/// Series per node, in the order of [`ScrapeIds::nodes`].
const NODE_SERIES: [&str; 5] =
    ["node_utilization", "node_queue_len", "run_queue_depth", "node_energy_j", "node_up"];

/// Windowed-rate series, in the order of [`ScrapeIds::rates`].
const RATE_SERIES: [&str; 4] =
    ["throughput_per_s", "dispatch_rate_per_s", "loss_rate_per_s", "deadline_miss_rate"];

/// The ids of every series the scrape writes, resolved against one obs
/// handle, so a scrape sample costs no text lookup. Node and link ids
/// are resolved as the scrape first meets each node or link.
#[derive(Debug)]
struct ScrapeIds {
    /// Per node, the [`NODE_SERIES`] labelled `{layer}/{name}`.
    nodes: Vec<[SeriesId; 5]>,
    /// Per layer (by [`Layer::index`]): mean utilization, queue sum.
    layers: [[SeriesId; 2]; 3],
    /// Per raw link id: `link_up{l<id>}`.
    links: Vec<SeriesId>,
    /// The [`RATE_SERIES`].
    rates: [SeriesId; 4],
}

impl ScrapeIds {
    fn new(obs: &Obs) -> Self {
        ScrapeIds {
            nodes: Vec::new(),
            layers: Layer::ALL.map(|l| {
                [
                    series_id(obs, "layer_utilization", l.label()),
                    series_id(obs, "layer_queue_len", l.label()),
                ]
            }),
            links: Vec::new(),
            rates: RATE_SERIES.map(|name| series_id(obs, name, "")),
        }
    }
}

fn series_id(obs: &Obs, name: &'static str, label: &str) -> SeriesId {
    obs.ts_id(name, label).expect("the scrape runs only with obs on")
}

/// Counter values at the previous scrape; deltas against the current
/// values yield the windowed throughput / miss / loss rates.
#[derive(Debug, Default, Clone, Copy)]
struct ScrapeWindow {
    completed: u64,
    misses: u64,
    dispatched: u64,
    lost: u64,
}

/// A task a node put into a free core: id, finish epoch, service time
/// and execution mode.
type Started = (TaskId, u64, SimDuration, ExecutionMode);

/// Upper bounds (milliseconds) of the `task_latency_ms` histogram.
pub const TASK_LATENCY_BOUNDS_MS: &[f64] = &[1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0];

/// Upper bounds (milliseconds) of the per-layer `task_queue_wait_ms`
/// histograms (same grid as latency: waits are bounded by latencies).
pub const TASK_QUEUE_WAIT_BOUNDS_MS: &[f64] = TASK_LATENCY_BOUNDS_MS;

/// Upper bounds (bytes) of the `checkpoint_size` histogram recorded at
/// each live migration.
pub const CHECKPOINT_SIZE_BOUNDS: &[f64] = &[64.0, 128.0, 256.0, 512.0, 1_024.0, 4_096.0, 16_384.0];

impl SimCore {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        SimCore::default()
    }

    /// Pre-sizes the node tables for `additional` more nodes (topology
    /// builders know their counts up front).
    pub fn reserve_nodes(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// Pre-sizes the event queue for `additional` more in-flight
    /// events.
    pub fn reserve_events(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Installs an observability handle; all simulator counters and
    /// trace events are recorded through it from then on. The default
    /// handle is disabled (every recording call is a no-op branch).
    ///
    /// When the handle carries a non-zero `scrape_interval_us`, a
    /// self-re-arming sim-time timer is started that samples per-node,
    /// per-layer, per-link and windowed-rate time series every interval
    /// (see [`SimCore::scrape`] for the series catalogue).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        self.scrape_ids = None;
        // Windowed rates count from the install instant, as the
        // handle's own counters do.
        self.window.completed = self.tasks_completed;
        self.window.misses = self.deadline_misses;
        let interval = self.obs.scrape_interval_us();
        if interval > 0 && !self.scrape_armed {
            self.scrape_armed = true;
            self.push(self.now + SimDuration::from_micros(interval), EventKind::Scrape);
        }
    }

    /// The installed observability handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Installs the per-task retry policy; `None` installs
    /// [`RetryPolicy::NONE`]. Lost and timed-out tasks are re-offered
    /// to the driver as [`SimEvent::TaskRecovered`] after a
    /// deterministic backoff while the attempt budget lasts; tasks that
    /// exhaust it surface as [`SimEvent::TaskAbandoned`] and count
    /// `task_gave_up`.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = InstalledRetry(policy.unwrap_or(RetryPolicy::NONE));
    }

    /// Installs (or removes) the admission policy. With a policy
    /// installed, every submit path runs the task through admission
    /// control first: it is dispatched immediately, dispatched with a
    /// backpressure delay, or shed with a typed reason (surfacing as
    /// [`SimEvent::TaskShed`] and counting `tasks_shed{reason}`).
    pub fn set_admission(&mut self, policy: Option<AdmissionPolicy>) {
        self.admission = policy;
    }

    /// The installed admission policy, if any.
    pub fn admission(&self) -> Option<AdmissionPolicy> {
        self.admission
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed_events(&self) -> u64 {
        self.processed_events
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId::from_raw(self.nodes.len() as u32);
        self.nodes.push(NodeState::new(id, spec));
        id
    }

    /// The state of a node.
    pub fn node(&self, id: NodeId) -> Option<&NodeState> {
        self.nodes.get(id.index())
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The network fabric.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable network fabric (topology construction).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Hands out a fresh unique task id.
    pub fn fresh_task_id(&mut self) -> TaskId {
        let id = TaskId::from_raw(self.next_task);
        self.next_task += 1;
        id
    }

    /// Hands out a fresh unique message id.
    pub fn fresh_msg_id(&mut self) -> MsgId {
        let id = MsgId::from_raw(self.next_msg);
        self.next_msg += 1;
        id
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at.as_micros(), seq, kind);
    }

    /// Pops the earliest event if it is due at or before `end`.
    #[inline]
    fn pop_due(&mut self, end: SimTime) -> Option<(SimTime, EventKind)> {
        self.queue.pop_due(end.as_micros()).map(|(at, _, kind)| (SimTime::from_micros(at), kind))
    }

    /// Registers a timer that fires `after` from now, carrying `tag`.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) -> TimerId {
        let id = TimerId::from_raw(self.next_timer);
        self.next_timer += 1;
        self.push(self.now + after, EventKind::Timer { id, tag });
        id
    }

    /// Submits a task directly onto a node's local queue (no network
    /// transfer — the data is already there).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] / [`SimError::NodeDown`].
    pub fn submit_local(&mut self, node: NodeId, task: TaskInstance) -> Result<(), SimError> {
        self.check_up(node)?;
        self.admit_submission(node, task, None);
        Ok(())
    }

    /// Fails unless `node` exists and is up: every submit path checks
    /// this first.
    fn check_up(&self, node: NodeId) -> Result<(), SimError> {
        let st = self.nodes.get(node.index()).ok_or(SimError::UnknownNode(node))?;
        if st.is_up() {
            Ok(())
        } else {
            Err(SimError::NodeDown(node))
        }
    }

    /// Runs a submission towards `node` through admission control. A
    /// shed task ends here. An admitted one is dispatched, its input
    /// sent along `route` (none: the data is already at `node`) once
    /// the backpressure delay elapses, and its arrival and attempt
    /// guard are scheduled. The decision precedes the transfer, so a
    /// shed task never occupies link capacity. Returns the arrival
    /// instant, or now for a shed task.
    fn admit_submission(
        &mut self,
        node: NodeId,
        task: TaskInstance,
        route: Option<(&[LinkId], Protocol)>,
    ) -> SimTime {
        let delay = match self.admission_decision(node, &task) {
            AdmissionDecision::Shed { reason } => {
                self.shed_task(node, task, reason);
                return self.now;
            }
            AdmissionDecision::Admit { delay } => delay,
        };
        let eta = match route {
            Some((path, protocol)) => {
                self.network.transfer(self.now + delay, path, task.input_bytes, protocol)
            }
            None => self.now + delay,
        };
        let id = task.id;
        self.note_dispatch(node, id);
        self.note_admitted(node, id);
        let slot = self.parked.park(task, "");
        self.push(eta, EventKind::TaskArrival { node, slot });
        self.arm_attempt(node, id);
        eta
    }

    /// Runs the installed admission policy for a submission towards
    /// `node` (which the caller has already validated as existing and
    /// up). Without a policy this is the always-admit fast path.
    fn admission_decision(&mut self, node: NodeId, task: &TaskInstance) -> AdmissionDecision {
        let Some(policy) = self.admission else {
            return AdmissionDecision::Admit { delay: SimDuration::ZERO };
        };
        let st = &self.nodes[node.index()];
        let depth = (st.running().len() + st.queue_len()) as u32;
        let est = if policy.slo_check {
            Some(self.now + st.estimated_backlog(self.now) + st.service_time(task.work_mc))
        } else {
            None
        };
        policy.decide(self.now, task, depth, est, &mut self.adm_state)
    }

    /// Terminates a shed task: it counts as dispatched (conservation:
    /// `dispatched = … + shed`), is traced and counted with its typed
    /// reason, and the driver is notified through the event queue.
    fn shed_task(&mut self, node: NodeId, task: TaskInstance, reason: &'static str) {
        let raw = task.id.as_raw();
        self.note_dispatch(node, task.id);
        self.obs.counter_inc("tasks_shed", reason);
        self.obs.trace(
            self.now.as_micros(),
            TraceKind::TaskShed { node: node.as_raw(), task: raw, reason },
        );
        self.tasks.mark_finished(raw);
        self.tasks.clear_attempts(raw);
        let slot = self.parked.park(task, reason);
        self.push(self.now, EventKind::NotifyShed { node, slot });
    }

    /// Records a task passing admission control (policy installed only,
    /// so legacy traces stay byte-identical).
    fn note_admitted(&self, node: NodeId, task: TaskId) {
        if self.admission.is_none() {
            return;
        }
        self.obs.counter_inc("tasks_admitted", "");
        self.obs.trace(
            self.now.as_micros(),
            TraceKind::TaskAdmitted { node: node.as_raw(), task: task.as_raw() },
        );
    }

    /// Books a dispatch against the retry policy: counts the attempt
    /// and arms the per-attempt timeout guard when one is configured.
    fn arm_attempt(&mut self, node: NodeId, task: TaskId) {
        let raw = task.as_raw();
        let attempt = self.tasks.book_first_attempt(raw);
        if let Some(timeout) = self.retry.0.attempt_timeout {
            self.push(self.now + timeout, EventKind::AttemptTimeout { node, task, attempt });
        }
    }

    /// Decides what happens after a failed attempt (loss, timeout):
    /// schedules a backed-off re-offer while the budget lasts, else
    /// gives up and notifies the driver. Callers have already traced
    /// the failure itself.
    fn handle_attempt_failure<D: Driver>(
        &mut self,
        node: NodeId,
        task: TaskInstance,
        driver: &mut D,
    ) {
        let policy = self.retry.0;
        let raw = task.id.as_raw();
        let used = self.tasks.attempts(raw).unwrap_or(1);
        let may_retry = policy.may_retry(used);
        if may_retry && self.recovery_outstanding < policy.recovery_queue_cap {
            self.tasks.set_attempts(raw, used + 1);
            self.recovery_outstanding += 1;
            let backoff = policy.backoff_for(used, raw);
            let slot = self.parked.park(task, "");
            self.push(self.now + backoff, EventKind::TaskRecover { node, slot, attempt: used });
        } else {
            if may_retry {
                // Retry-storm guard: the recovery queue is full, so this
                // attempt is abandoned instead of amplifying the overload.
                self.obs.counter_inc("recovery_queue_rejections", "");
            }
            self.note_give_up(task.id);
            driver.on_event(self, SimEvent::TaskAbandoned { node, task });
        }
    }

    /// Terminates `task` in the give-up state (`task_gave_up`); any
    /// pending retry machinery for it goes stale. The engine calls it
    /// when an attempt is abandoned, and drivers when they cannot
    /// re-place a recovered task (e.g. every candidate node is down).
    pub fn note_give_up(&mut self, task: TaskId) {
        let raw = task.as_raw();
        self.obs.counter_inc("task_gave_up", "");
        self.tasks.mark_finished(raw);
        self.tasks.clear_attempts(raw);
    }

    /// Cancels a task wherever it currently is — running, queued, or
    /// still in network transfer — marking it terminal so pending
    /// retry/timeout events go stale. Used for first-completion-wins
    /// replica dedup. Returns `false` when the task already reached a
    /// terminal state.
    pub fn cancel_task(&mut self, node: NodeId, task: TaskId) -> bool {
        let raw = task.as_raw();
        if self.tasks.is_finished(raw) {
            return false;
        }
        self.tasks.mark_finished(raw);
        self.tasks.clear_attempts(raw);
        self.vm_evict(node, task);
        if let Some((_, next)) = self.take_off(node, task) {
            self.obs.trace(
                self.now.as_micros(),
                TraceKind::TaskCancelled { node: node.as_raw(), task: raw },
            );
            self.promote_deferred(node, next);
        } else {
            // Not at the node yet: drop it on arrival.
            self.tasks.mark_cancel_pending(raw);
        }
        true
    }

    /// Installs the portable task-body runtime: a deterministic
    /// stack-bytecode VM whose programs execute *inside* the scalar
    /// service model. At each arrival of a bodied task
    /// ([`TaskInstance::body`]), the engine re-prices `work_mc` from
    /// the program's remaining per-opcode cost under the hosting
    /// node's ISA class and DVFS state. The interpreter image is not
    /// stepped while the task is served: it is advanced to the cycles
    /// actually served only when the residency ends early — a live
    /// [`Checkpoint`] for migration ([`SimCore::migrate_task`]), or a
    /// kill (crash, attempt timeout, cancel, cold migration) — and a
    /// completion retires the step tally fixed at arrival.
    ///
    /// Without this call — the default — bodied tasks execute as plain
    /// scalar-cost tasks and every export is byte-identical to a run
    /// without the VM subsystem.
    pub fn set_vm(&mut self, cfg: VmConfig) {
        self.vm = Some(VmRuntime {
            census: vec![OnceCell::new(); cfg.programs.len()],
            programs: cfg.programs,
            images: WordMap::default(),
            pending: WordMap::default(),
            retired_steps: WordMap::default(),
            interpreted: 0,
        });
    }

    /// Whether a VM runtime is installed.
    pub fn vm_installed(&self) -> bool {
        self.vm.is_some()
    }

    /// Interpreter steps `task`'s body had retired as of its last
    /// checkpoint, kill or completion. Images are not stepped during
    /// service, so a resident task reports the tally it arrived with
    /// (0 after a cold start, the checkpoint's after a resume), and a
    /// completed one its final tally. `None` for scalar tasks, bodies
    /// in transit or killed, or without a VM runtime.
    pub fn vm_steps_of(&self, task: TaskId) -> Option<u64> {
        let vm = self.vm.as_ref()?;
        let raw = task.as_raw();
        vm.images.get(&raw).map(|i| i.vm.steps()).or_else(|| vm.retired_steps.get(&raw).copied())
    }

    /// Interpreter steps the runtime has executed to price and advance
    /// bodies (0 without a VM runtime). Unlike `vm_steps_total`, which
    /// counts the modeled work retired, this is host work: the steps of
    /// each census run (up to its first seed-steered branch when it
    /// declines; none when the op list answered it), each scratch run
    /// to halt and each advance of an evicted image.
    pub fn vm_interpreted_steps(&self) -> u64 {
        self.vm.as_ref().map_or(0, |vm| vm.interpreted)
    }

    /// Whether a checkpoint of `task` is currently in network transit
    /// (live migration in progress).
    pub fn vm_in_transit(&self, task: TaskId) -> bool {
        self.vm.as_ref().is_some_and(|vm| vm.pending.contains_key(&task.as_raw()))
    }

    /// Number of live instances of `task` across every node, running
    /// or queued. The migration protocol keeps this ≤ 1 at all times —
    /// the exactly-one-live-instance discipline the `mc` migration
    /// model checks.
    pub fn live_instances(&self, task: TaskId) -> usize {
        self.nodes
            .iter()
            .map(|st| {
                st.running().iter().filter(|r| r.task.id == task).count()
                    + st.queued().filter(|t| t.id == task).count()
            })
            .sum()
    }

    /// Resolves a bodied task at arrival: resumes the in-transit
    /// checkpoint if one is pending (live migration) or boots a fresh
    /// image, and re-prices `work_mc` from the program's remaining cost
    /// under this node's ISA class and current DVFS operating point;
    /// that cost also fixes the steps a completion retires.
    ///
    /// A program whose op sequence no seed can steer has a cached
    /// census, and nothing is interpreted here: a fresh boot is priced
    /// from the census, a resume from the ops its image has left (the
    /// census minus the ops every earlier residency retired, tallied at
    /// eviction). Only a seed-steered program, or a checkpoint without
    /// a tally, is priced by one scratch run to halt. Unknown program
    /// indices leave the task on the scalar path.
    fn vm_admit(&mut self, node: NodeId, task: &mut TaskInstance) {
        let Some(body) = task.body else { return };
        let Some((kind, freq)) =
            self.nodes.get(node.index()).map(|st| (st.spec().kind(), st.point().freq_scale()))
        else {
            return;
        };
        let raw = task.id.as_raw();
        let Some(vm) = self.vm.as_mut() else { return };
        let Some(program) = vm.programs.get(body.program as usize) else { return };
        let table = CostTable::for_isa(isa_of(kind), freq);
        // A malformed or mismatched checkpoint degrades to a cold boot
        // (the pending entry is consumed either way).
        let resumed = vm.pending.remove(&raw).and_then(|(cp, left)| {
            VmState::from_checkpoint(&cp, program).ok().map(|state| (state, left))
        });
        let is_resume = resumed.is_some();
        let (state, left) = match resumed {
            Some(resumed) => resumed,
            None => {
                let interpreted = &mut vm.interpreted;
                let census = vm.census[body.program as usize].get_or_init(|| {
                    let census = program.census();
                    *interpreted += census.interpreted;
                    census.counts
                });
                (VmState::new(program, body.seed), *census)
            }
        };
        let (steps_to_halt, cycles) = match left {
            Some(left) => {
                debug_assert_eq!(
                    Some(left.steps + state.steps()),
                    vm.census[body.program as usize].get().copied().flatten().map(|c| c.steps),
                    "the ops left to halt complete the census"
                );
                (left.steps, left.cycles(&table))
            }
            None => {
                let cost = state.cost_to_halt(program, &table);
                vm.interpreted += cost.0;
                cost
            }
        };
        task.work_mc = cycles as f64 / 1e6;
        vm.images
            .insert(raw, VmImage { prog: body.program, table, steps_to_halt, left, vm: state });
        if is_resume {
            self.obs.trace(
                self.now.as_micros(),
                TraceKind::TaskResume { node: node.as_raw(), task: raw },
            );
        }
    }

    /// Retires a bodied task at completion: the scalar model just
    /// served exactly the cycles priced at arrival, so the image ends
    /// at the tally fixed at admission — nothing is interpreted.
    fn vm_finalize(&mut self, raw: u64) {
        let Some(vm) = self.vm.as_mut() else { return };
        let Some(img) = vm.images.remove(&raw) else { return };
        vm.retired_steps.insert(raw, img.vm.steps() + img.steps_to_halt);
        if img.steps_to_halt > 0 {
            self.obs.counter_add("vm_steps_total", "", img.steps_to_halt);
        }
    }

    /// Ends `task`'s interpreter residency ahead of completion — a
    /// kill, or a live checkpoint — and must run before `node` lets go
    /// of the task. The image is advanced to the cycles `node` actually
    /// served (none while queued), the steps that retires are counted
    /// into `vm_steps_total`, and the image and any in-transit
    /// checkpoint are dropped. For a program with a census the advance
    /// tallies the ops it retires and takes them off the ops left to
    /// halt. Returns the advanced image as a checkpoint with those ops
    /// left, or `None` when the task had no resident image.
    fn vm_evict(&mut self, node: NodeId, task: TaskId) -> Option<(Checkpoint, Option<OpCounts>)> {
        self.vm.as_ref()?;
        let raw = task.as_raw();
        let now = self.now;
        let served_mc = self.nodes.get(node.index()).and_then(|st| {
            let r = st.running().iter().find(|r| r.task.id == task)?;
            Some((r.task.work_mc - r.remaining_mc_at(now)).max(0.0))
        });
        let vm = self.vm.as_mut()?;
        vm.pending.remove(&raw);
        let mut img = vm.images.remove(&raw)?;
        let program = vm.programs.get(img.prog as usize)?;
        if let Some(mc) = served_mc {
            let arrival_steps = img.vm.steps();
            let target = img.vm.consumed_cycles().saturating_add((mc * 1e6).round() as u64);
            if let Some(left) = img.left.as_mut() {
                let mut served = OpCounts::default();
                img.vm.advance_tallied(program, &img.table, target, &mut served);
                *left -= served;
            } else {
                img.vm.advance_to(program, &img.table, target);
            }
            let retired = img.vm.steps() - arrival_steps;
            vm.interpreted += retired;
            if retired > 0 {
                self.obs.counter_add("vm_steps_total", "", retired);
            }
        }
        Some((img.vm.checkpoint(program), img.left))
    }

    /// Migrates a task currently running or queued on `from` to `to`,
    /// re-dispatching it over the network route between them.
    ///
    /// With `live: true`, a VM runtime installed and a bodied task,
    /// the engine snapshots the interpreter into a canonical
    /// [`Checkpoint`]: only the checkpoint bytes cross the (possibly
    /// WAN-priced) route, and execution *resumes* at the destination
    /// from the exact instruction boundary (`task_checkpoint` /
    /// `task_resume` trace pair, `task_migrations_live`,
    /// `migration_bytes{live}` and the `checkpoint_size` histogram).
    /// Otherwise the move is a cold restart: the source attempt is
    /// cancelled, the input payload is re-shipped and all progress is
    /// lost (`task_migrations_cold`, `migration_bytes{cold}`).
    ///
    /// Admission control is not re-run — the task passed it at
    /// submission. The migration opens a fresh attempt epoch, so a
    /// timeout guard armed at the source can never cancel the migrated
    /// instance (the exactly-one-live-instance discipline; see the `mc`
    /// migration model).
    ///
    /// Returns the arrival instant at `to`, or `None` when the
    /// migration is impossible: unknown or down destination, no route,
    /// task not resident on `from`, or task already terminal.
    pub fn migrate_task(
        &mut self,
        from: NodeId,
        to: NodeId,
        task: TaskId,
        protocol: Protocol,
        live: bool,
    ) -> Option<SimTime> {
        let raw = task.as_raw();
        if from == to || self.tasks.is_finished(raw) {
            return None;
        }
        if !self.nodes.get(to.index()).is_some_and(|st| st.is_up()) {
            return None;
        }
        let path = self.network.route(from, to).ok()?;
        let now = self.now;
        let st = self.nodes.get(from.index())?;
        if !st.running().iter().any(|r| r.task.id == task) && !st.queued().any(|t| t.id == task) {
            return None;
        }
        // Live moves ship the advanced image; cold moves discard it.
        let checkpoint = self.vm_evict(from, task).filter(|_| live);
        let (inst, next) = self.take_off(from, task)?;
        self.promote_deferred(from, next);
        let wire_bytes = match &checkpoint {
            Some((cp, _)) => {
                let bytes = cp.byte_len();
                self.obs.counter_inc("task_migrations_live", "");
                self.obs.counter_add("migration_bytes", "live", bytes);
                self.obs.observe("checkpoint_size", "", CHECKPOINT_SIZE_BOUNDS, bytes as f64);
                self.obs.trace(
                    now.as_micros(),
                    TraceKind::TaskCheckpoint { node: from.as_raw(), task: raw, bytes },
                );
                bytes
            }
            None => {
                // Cold restart: ship the input again; the source
                // attempt ends cancelled and its progress is wasted.
                self.obs.counter_inc("task_migrations_cold", "");
                self.obs.counter_add("migration_bytes", "cold", inst.input_bytes);
                self.obs.trace(
                    now.as_micros(),
                    TraceKind::TaskCancelled { node: from.as_raw(), task: raw },
                );
                inst.input_bytes
            }
        };
        if let Some(image) = checkpoint {
            if let Some(vm) = self.vm.as_mut() {
                vm.pending.insert(raw, image);
            }
        }
        let eta = self.network.transfer(now, &path, wire_bytes, protocol);
        self.note_dispatch(to, task);
        // New attempt epoch: stale guards from the source go inert.
        let attempt = self.tasks.attempts(raw).map_or(1, |a| a + 1);
        self.tasks.set_attempts(raw, attempt);
        if let Some(timeout) = self.retry.0.attempt_timeout {
            self.push(now + timeout, EventKind::AttemptTimeout { node: to, task, attempt });
        }
        if mutation_double_resume() {
            let slot = self.parked.park(inst.clone(), "");
            self.push(eta, EventKind::TaskArrival { node: to, slot });
        }
        let slot = self.parked.park(inst, "");
        self.push(eta, EventKind::TaskArrival { node: to, slot });
        Some(eta)
    }

    /// Takes `task` off `node`, running or queued, and drops its queue
    /// stamp. Returns the instance and the queued task promoted into
    /// the core it freed, or `None` when the task is not at the node.
    #[inline]
    fn take_off(&mut self, node: NodeId, task: TaskId) -> Option<(TaskInstance, Option<Started>)> {
        let taken = self.nodes.get_mut(node.index())?.cancel(self.now, task)?;
        self.tasks.take_queued(task.as_raw());
        Some(taken)
    }

    /// Starts a task in a free core of `node`: observes its queue wait
    /// (0 on arrival; from its queue stamp when `promoted` out of the
    /// queue), schedules its finish and records the start. Returns the
    /// `TaskStarted` event for the caller to deliver.
    #[inline]
    fn start_in_slot(&mut self, node: NodeId, started: Started, promoted: bool) -> SimEvent {
        let (task, epoch, service, mode) = started;
        let now = self.now;
        let layer = self.nodes[node.index()].spec().layer().label();
        let queued_at = if promoted { self.tasks.take_queued(task.as_raw()) } else { Some(now) };
        if let Some(at) = queued_at {
            let waited = now.saturating_since(at).as_millis_f64();
            self.obs.observe("task_queue_wait_ms", layer, TASK_QUEUE_WAIT_BOUNDS_MS, waited);
        }
        self.push(now + service, EventKind::TaskFinish { node, task, epoch });
        self.note_start(node, task);
        SimEvent::TaskStarted { node, task, mode }
    }

    /// Promotes `next` into the core a cancel or migration freed on
    /// `node`. The driver holds the core during those calls, so the
    /// start notification is deferred through the event queue (same
    /// instant, later seq).
    fn promote_deferred(&mut self, node: NodeId, next: Option<Started>) {
        let Some(next @ (task, _, _, mode)) = next else { return };
        self.start_in_slot(node, next, true);
        self.push(self.now, EventKind::NotifyStarted { node, task, mode });
    }

    /// Records a task submission in the observability layer.
    fn note_dispatch(&self, node: NodeId, task: TaskId) {
        self.obs.counter_inc("sim_tasks_dispatched", "");
        self.obs.trace(
            self.now.as_micros(),
            TraceKind::TaskDispatch { node: node.as_raw(), task: task.as_raw() },
        );
    }

    /// Records a task entering service in the observability layer.
    fn note_start(&self, node: NodeId, task: TaskId) {
        self.obs.counter_inc("sim_tasks_started", "");
        self.obs.trace(
            self.now.as_micros(),
            TraceKind::TaskStart { node: node.as_raw(), task: task.as_raw() },
        );
    }

    /// Submits a task whose input must first travel from `src` to `node`
    /// over the network with the given protocol. The task arrives (and
    /// starts queueing) at the delivery instant; its output is *not*
    /// automatically returned — drivers model that with
    /// [`SimCore::send_message`] if needed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] when no route exists, and node errors
    /// as for [`SimCore::submit_local`].
    pub fn submit_via_network(
        &mut self,
        src: NodeId,
        node: NodeId,
        task: TaskInstance,
        protocol: Protocol,
    ) -> Result<SimTime, SimError> {
        self.check_up(node)?;
        let path = self.network.route(src, node)?;
        Ok(self.admit_submission(node, task, Some((&path, protocol))))
    }

    /// Submits a task whose input travels along an explicit link path
    /// (Network-Manager route override) instead of the shortest path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] if the path references unknown
    /// links, and node errors as for [`SimCore::submit_local`].
    pub fn submit_via_path(
        &mut self,
        node: NodeId,
        task: TaskInstance,
        path: &[LinkId],
        protocol: Protocol,
    ) -> Result<SimTime, SimError> {
        self.check_up(node)?;
        for l in path {
            if self.network.link(*l).is_none() {
                return Err(SimError::Network(NetworkError::UnknownLink(*l)));
            }
        }
        if !self.network.path_up(path) {
            return Err(SimError::Network(NetworkError::NoRoute {
                from: path
                    .first()
                    .map(|l| self.network.link(*l).expect("checked").from())
                    .unwrap_or(node),
                to: node,
            }));
        }
        Ok(self.admit_submission(node, task, Some((path, protocol))))
    }

    /// Sends an application message; the driver is notified on delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] when no route exists.
    pub fn send_message(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: u64,
        protocol: Protocol,
        tag: u64,
    ) -> Result<MsgId, SimError> {
        let path = self.network.route(src, dst)?;
        let id = self.fresh_msg_id();
        let msg = Message { id, src, dst, payload_bytes, protocol, sent: self.now, tag };
        let eta = self.network.transfer(self.now, &path, payload_bytes, protocol);
        self.push(eta, EventKind::MsgDeliver { msg: Box::new(msg) });
        Ok(id)
    }

    /// Switches a node's DVFS operating point, rescaling running tasks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownOperatingPoint`] for an out-of-range
    /// index and node errors as for [`SimCore::submit_local`].
    pub fn switch_operating_point(&mut self, node: NodeId, idx: usize) -> Result<(), SimError> {
        let st = self.nodes.get_mut(node.index()).ok_or(SimError::UnknownNode(node))?;
        if !st.is_up() {
            return Err(SimError::NodeDown(node));
        }
        if idx >= st.spec().points().len() {
            return Err(SimError::UnknownOperatingPoint { node, index: idx });
        }
        let now = self.now;
        let rescheduled = st.switch_point(now, idx);
        for (task, epoch, eta) in rescheduled {
            self.push(now + eta, EventKind::TaskFinish { node, task, epoch });
        }
        Ok(())
    }

    /// Schedules a link cut at `at`.
    pub fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        self.push(at, EventKind::LinkDown(link));
    }

    /// Schedules a link restoration at `at`.
    pub fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        self.push(at, EventKind::LinkUp(link));
    }

    /// Schedules a node failure at `at`.
    pub fn schedule_node_down(&mut self, node: NodeId, at: SimTime) {
        self.push(at, EventKind::NodeDown(node));
    }

    /// Schedules a node recovery at `at`.
    pub fn schedule_node_up(&mut self, node: NodeId, at: SimTime) {
        self.push(at, EventKind::NodeUp(node));
    }

    /// Runs the simulation until `end` (inclusive), surfacing events to
    /// `driver`. Afterwards every node's energy meter is advanced to
    /// `end` so energy figures are directly comparable.
    pub fn run_until<D: Driver>(&mut self, end: SimTime, driver: &mut D) {
        while let Some((at, kind)) = self.pop_due(end) {
            self.now = at;
            self.processed_events += 1;
            self.dispatch(kind, driver);
        }
        self.now = end;
        self.refresh_energy();
    }

    /// Charges every node's energy meter up to the current instant.
    /// The MAPE monitor phase calls this before it snapshots the nodes,
    /// so the snapshot's energy figures are current.
    pub fn refresh_energy(&mut self) {
        for n in &mut self.nodes {
            n.refresh_energy(self.now);
        }
    }

    /// Runs until the event queue drains or `end` is reached, whichever
    /// comes first; returns the final simulation time.
    pub fn run_to_quiescence<D: Driver>(&mut self, end: SimTime, driver: &mut D) -> SimTime {
        self.run_until(end, driver);
        self.now
    }

    /// Due time of the earliest pending event, if any. Together with
    /// [`SimCore::step_event`] this gives external explorers (the `mc`
    /// model checker) single-event granularity over the same dispatch
    /// path `run_until` uses.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.next_at().map(SimTime::from_micros)
    }

    /// Processes exactly one pending event — the same pop the
    /// [`SimCore::run_until`] loop would perform — and returns its due
    /// time, or `None` when the queue is empty. Unlike `run_until`,
    /// node energy meters are *not* refreshed afterwards; callers that
    /// need comparable energy figures finish with a `run_until` call.
    pub fn step_event<D: Driver>(&mut self, driver: &mut D) -> Option<SimTime> {
        let (at, kind) = self.pop_due(SimTime::MAX)?;
        self.now = at;
        self.processed_events += 1;
        self.dispatch(kind, driver);
        Some(at)
    }

    /// Recovery-queue occupancy: failed attempts waiting for their
    /// backed-off re-offer (bounded by
    /// [`crate::retry::RetryPolicy::recovery_queue_cap`]).
    pub fn recovery_outstanding(&self) -> u32 {
        self.recovery_outstanding
    }

    fn dispatch<D: Driver>(&mut self, kind: EventKind, driver: &mut D) {
        match kind {
            EventKind::TaskArrival { node, slot } => {
                let (mut task, _) = self.parked.take(slot);
                let now = self.now;
                let raw = task.id.as_raw();
                let cancelled = self.tasks.take_cancel_pending(raw);
                if cancelled || self.tasks.take_timeout_pending(raw) {
                    // Cancelled (replica dedup) or timed out while in
                    // transfer: the attempt ends here, and a timed-out
                    // one takes its retry/give-up decision now.
                    self.vm_evict(node, task.id);
                    self.obs.trace(
                        now.as_micros(),
                        TraceKind::TaskCancelled { node: node.as_raw(), task: raw },
                    );
                    if !cancelled {
                        self.handle_attempt_failure(node, task, driver);
                    }
                    return;
                }
                let Some(st) = self.nodes.get(node.index()) else { return };
                if !st.is_up() {
                    // Any in-transit checkpoint dies with the arrival:
                    // a retry re-placement restarts cold.
                    self.vm_evict(node, task.id);
                    self.obs.counter_inc("sim_tasks_lost", "");
                    self.obs.trace(
                        now.as_micros(),
                        TraceKind::TaskLost { node: node.as_raw(), task: raw },
                    );
                    self.handle_attempt_failure(node, task, driver);
                    return;
                }
                let tid = task.id;
                self.obs.trace(
                    now.as_micros(),
                    TraceKind::TaskArrive { node: node.as_raw(), task: tid.as_raw() },
                );
                if task.body.is_some() && self.vm.is_some() {
                    // Re-price the work for this host's ISA/DVFS state
                    // and boot (or resume) the interpreter image.
                    self.vm_admit(node, &mut task);
                }
                let Some(st) = self.nodes.get_mut(node.index()) else { return };
                let started = st.admit(now, task);
                if let Some((epoch, service, mode)) = started {
                    let started = self.start_in_slot(node, (tid, epoch, service, mode), false);
                    driver.on_event(self, started);
                } else {
                    self.tasks.stamp_queued(tid.as_raw(), now);
                }
            }
            EventKind::TaskFinish { node, task, epoch } => {
                let now = self.now;
                let Some(st) = self.nodes.get_mut(node.index()) else { return };
                let Some((done, next)) = st.finish(now, task, epoch) else { return };
                // A bodied task ran its program exactly to halt: count
                // the tail steps and retire the image.
                self.vm_finalize(task.as_raw());
                if let Some(next) = next {
                    let started = self.start_in_slot(node, next, true);
                    driver.on_event(self, started);
                }
                self.tasks.mark_finished(task.as_raw());
                self.tasks.clear_attempts(task.as_raw());
                let latency = now.saturating_since(done.released);
                let deadline_met = !done.misses_deadline(now);
                self.tasks_completed += 1;
                self.obs.counter_inc("sim_tasks_completed", "");
                if !deadline_met {
                    self.deadline_misses += 1;
                    self.obs.counter_inc("sim_deadline_misses", "");
                }
                self.obs.observe(
                    "task_latency_ms",
                    "",
                    TASK_LATENCY_BOUNDS_MS,
                    latency.as_millis_f64(),
                );
                self.obs.trace(
                    now.as_micros(),
                    TraceKind::TaskComplete {
                        node: node.as_raw(),
                        task: task.as_raw(),
                        deadline_met,
                    },
                );
                let outcome = TaskOutcome {
                    deadline_met,
                    task: done,
                    node,
                    at: now,
                    completed: true,
                    latency,
                };
                driver.on_event(self, SimEvent::TaskCompleted(outcome));
            }
            EventKind::MsgDeliver { msg } => {
                driver.on_event(self, SimEvent::MessageDelivered(*msg));
            }
            EventKind::NodeDown(node) => {
                let now = self.now;
                if self.vm.is_some() {
                    // Interpreter state dies with the host, after its
                    // progress so far is counted; a retry re-placement
                    // restarts the body cold.
                    let resident: Vec<TaskId> =
                        self.nodes.get(node.index()).map_or_else(Vec::new, |st| {
                            st.running()
                                .iter()
                                .map(|r| r.task.id)
                                .chain(st.queued().map(|t| t.id))
                                .collect()
                        });
                    for task in resident {
                        self.vm_evict(node, task);
                    }
                }
                let Some(st) = self.nodes.get_mut(node.index()) else { return };
                let lost = st.set_up(now, false);
                self.obs.counter_inc("node_crashes", "");
                self.obs.trace(now.as_micros(), TraceKind::NodeCrash { node: node.as_raw() });
                if !lost.is_empty() {
                    self.obs.counter_add("sim_tasks_lost", "", lost.len() as u64);
                    for t in &lost {
                        self.tasks.take_queued(t.id.as_raw());
                        self.obs.trace(
                            now.as_micros(),
                            TraceKind::TaskLost { node: node.as_raw(), task: t.id.as_raw() },
                        );
                    }
                }
                // The crash itself is surfaced (trust models key off
                // it); the lost tasks ride the recovery queue.
                driver.on_event(self, SimEvent::NodeDown(node));
                for t in lost {
                    self.handle_attempt_failure(node, t, driver);
                }
            }
            EventKind::NodeUp(node) => {
                let now = self.now;
                let Some(st) = self.nodes.get_mut(node.index()) else { return };
                st.set_up(now, true);
                self.obs.counter_inc("node_recoveries", "");
                self.obs.trace(now.as_micros(), TraceKind::NodeRecover { node: node.as_raw() });
                driver.on_event(self, SimEvent::NodeRestored(node));
            }
            EventKind::LinkDown(link) => {
                self.network.set_link_up(link, false);
                self.obs.counter_inc("link_transitions", "down");
                self.obs.trace(self.now.as_micros(), TraceKind::LinkDown { link: link.as_raw() });
                driver.on_event(self, SimEvent::LinkChanged { link, up: false });
            }
            EventKind::LinkUp(link) => {
                self.network.set_link_up(link, true);
                self.obs.counter_inc("link_transitions", "up");
                self.obs.trace(self.now.as_micros(), TraceKind::LinkUp { link: link.as_raw() });
                driver.on_event(self, SimEvent::LinkChanged { link, up: true });
            }
            EventKind::Timer { id, tag } => {
                driver.on_event(self, SimEvent::Timer { id, tag });
            }
            EventKind::Scrape => {
                self.scrape();
                let interval = self.obs.scrape_interval_us();
                if interval > 0 {
                    self.push(self.now + SimDuration::from_micros(interval), EventKind::Scrape);
                }
            }
            EventKind::TaskRecover { node, slot, attempt } => {
                let (task, _) = self.parked.take(slot);
                // The recovery slot frees whether or not the event is
                // stale (a completed task still consumed its slot).
                self.recovery_outstanding = self.recovery_outstanding.saturating_sub(1);
                let raw = task.id.as_raw();
                if self.tasks.is_finished(raw) && !mutation_stale_recover() {
                    return;
                }
                self.obs.counter_inc("task_retries", "");
                self.obs.trace(
                    self.now.as_micros(),
                    TraceKind::TaskRetry { node: node.as_raw(), task: raw, attempt },
                );
                driver.on_event(self, SimEvent::TaskRecovered { node, task, attempt });
            }
            EventKind::AttemptTimeout { node, task, attempt } => {
                let raw = task.as_raw();
                // Stale once the task finished or moved to a newer
                // attempt (the loss path already rescheduled it).
                if self.tasks.is_finished(raw) || self.tasks.attempts(raw) != Some(attempt) {
                    return;
                }
                let now = self.now;
                self.obs.counter_inc("task_timeouts", "");
                self.obs.trace(
                    now.as_micros(),
                    TraceKind::TaskTimeout { node: node.as_raw(), task: raw },
                );
                // The timed-out attempt's interpreter state (or its
                // in-transit checkpoint) is discarded: the retry
                // restarts the body cold.
                self.vm_evict(node, task);
                match self.take_off(node, task) {
                    Some((inst, next)) => {
                        self.obs.trace(
                            now.as_micros(),
                            TraceKind::TaskCancelled { node: node.as_raw(), task: raw },
                        );
                        if let Some(next) = next {
                            let started = self.start_in_slot(node, next, true);
                            driver.on_event(self, started);
                        }
                        self.handle_attempt_failure(node, inst, driver);
                    }
                    None => {
                        // Input still in transfer: end the attempt when
                        // it lands.
                        self.tasks.mark_timeout_pending(raw);
                    }
                }
            }
            EventKind::NotifyStarted { node, task, mode } => {
                driver.on_event(self, SimEvent::TaskStarted { node, task, mode });
            }
            EventKind::NotifyShed { node, slot } => {
                let (task, reason) = self.parked.take(slot);
                driver.on_event(self, SimEvent::TaskShed { node, task, reason });
            }
        }
    }

    /// Samples the telemetry time series at the current instant. Called
    /// by the periodic scrape timer; series recorded per scrape:
    ///
    /// * `node_utilization{layer/name}`, `node_queue_len{..}`,
    ///   `run_queue_depth{..}` (running + queued), `node_energy_j{..}`,
    ///   `node_up{..}` — one series per node;
    /// * `layer_utilization{edge|fog|cloud}` (mean over the layer's
    ///   up nodes), `layer_queue_len{..}` (sum);
    /// * `link_up{l<id>}` — one series per link;
    /// * windowed rates over the last scrape interval:
    ///   `throughput_per_s`, `dispatch_rate_per_s`, `loss_rate_per_s`
    ///   and `deadline_miss_rate` (misses / completions in the window).
    pub fn scrape(&mut self) {
        if !self.obs.enabled() {
            return;
        }
        let now = self.now;
        let at = now.as_micros();
        self.obs.counter_inc("obs_scrapes", "");
        let mut layer_util = [0.0f64; 3];
        let mut layer_nodes = [0u32; 3];
        let mut layer_queue = [0u64; 3];
        let ids = self.scrape_ids.get_or_insert_with(|| ScrapeIds::new(&self.obs));
        for n in &self.nodes[ids.nodes.len()..] {
            let label = format!("{}/{}", n.spec().layer().label(), n.spec().name());
            ids.nodes.push(NODE_SERIES.map(|name| series_id(&self.obs, name, &label)));
        }
        for (st, &[util_id, queue_id, depth_id, energy_id, up_id]) in
            self.nodes.iter().zip(&ids.nodes)
        {
            let up = st.is_up();
            let (running, queued) = (st.running().len(), st.queue_len());
            let util = if up { st.utilization() } else { 0.0 };
            self.obs.ts_record_id(util_id, at, util);
            self.obs.ts_record_id(queue_id, at, queued as f64);
            let depth = if up { running + queued } else { 0 };
            self.obs.ts_record_id(depth_id, at, depth as f64);
            // Energy is metered lazily inside each NodeState and read
            // without charging the meter, so scraping never moves the
            // integration points.
            self.obs.ts_record_id(energy_id, at, st.energy_j_at(now));
            self.obs.ts_record_id(up_id, at, if up { 1.0 } else { 0.0 });
            let li = st.spec().layer().index();
            if up {
                layer_util[li] += util;
                layer_nodes[li] += 1;
            }
            layer_queue[li] += queued as u64;
        }
        for (li, &[util_id, queue_id]) in ids.layers.iter().enumerate() {
            let mean =
                if layer_nodes[li] > 0 { layer_util[li] / layer_nodes[li] as f64 } else { 0.0 };
            self.obs.ts_record_id(util_id, at, mean);
            self.obs.ts_record_id(queue_id, at, layer_queue[li] as f64);
        }
        for (id, _, state) in self.network.iter_links() {
            let raw = id.as_raw() as usize;
            while ids.links.len() <= raw {
                let label = format!("l{}", ids.links.len());
                ids.links.push(series_id(&self.obs, "link_up", &label));
            }
            self.obs.ts_record_id(ids.links[raw], at, if state.is_up() { 1.0 } else { 0.0 });
        }
        let cur = ScrapeWindow {
            completed: self.tasks_completed,
            misses: self.deadline_misses,
            dispatched: self.obs.counter_value("sim_tasks_dispatched", ""),
            lost: self.obs.counter_value("sim_tasks_lost", ""),
        };
        let interval_s = self.obs.scrape_interval_us() as f64 / 1e6;
        if interval_s > 0.0 {
            let d_completed = cur.completed - self.window.completed;
            let d_misses = cur.misses - self.window.misses;
            let miss_rate =
                if d_completed > 0 { d_misses as f64 / d_completed as f64 } else { 0.0 };
            let rates = [
                d_completed as f64 / interval_s,
                (cur.dispatched - self.window.dispatched) as f64 / interval_s,
                (cur.lost - self.window.lost) as f64 / interval_s,
                miss_rate,
            ];
            for (&id, value) in ids.rates.iter().zip(rates) {
                self.obs.ts_record_id(id, at, value);
            }
        }
        self.window = cur;
    }
}

/// Convenience: builds a [`SimCore`] with the given node specs already
/// added, returning the core and the node ids in the input order.
pub fn core_with_nodes(specs: impl IntoIterator<Item = NodeSpec>) -> (SimCore, Vec<NodeId>) {
    let mut sim = SimCore::new();
    let ids = specs.into_iter().map(|s| sim.add_node(s)).collect();
    (sim, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Test driver that exercises the recovery path instead of hoarding
    /// losses: recovered tasks are resubmitted to their node when it is
    /// back up (else given up), so tests assert delivery, not silent
    /// accumulation.
    #[derive(Default)]
    struct Recorder {
        started: Vec<TaskId>,
        completed: Vec<TaskOutcome>,
        crashes: Vec<NodeId>,
        recovered: Vec<(TaskId, u32)>,
        abandoned: Vec<TaskId>,
        shed: Vec<(TaskId, &'static str)>,
        messages: Vec<Message>,
        timers: Vec<u64>,
    }

    impl Driver for Recorder {
        fn on_event(&mut self, sim: &mut SimCore, event: SimEvent) {
            match event {
                SimEvent::TaskStarted { task, .. } => self.started.push(task),
                SimEvent::TaskCompleted(o) => self.completed.push(o),
                SimEvent::NodeDown(node) => self.crashes.push(node),
                SimEvent::TaskRecovered { node, task, attempt } => {
                    self.recovered.push((task.id, attempt));
                    let id = task.id;
                    if sim.submit_local(node, task).is_err() {
                        sim.note_give_up(id);
                        self.abandoned.push(id);
                    }
                }
                SimEvent::TaskAbandoned { task, .. } => self.abandoned.push(task.id),
                SimEvent::TaskShed { task, reason, .. } => self.shed.push((task.id, reason)),
                SimEvent::MessageDelivered(m) => self.messages.push(m),
                SimEvent::Timer { tag, .. } => self.timers.push(tag),
                SimEvent::NodeRestored(_) | SimEvent::LinkChanged { .. } => {}
            }
        }
    }

    fn one_node_sim() -> (SimCore, NodeId) {
        let mut sim = SimCore::new();
        let id = sim.add_node(NodeSpec::preset_edge_multicore("n"));
        (sim, id)
    }

    #[test]
    fn single_task_completes_with_expected_latency() {
        let (mut sim, node) = one_node_sim();
        let t = TaskInstance::new(sim.fresh_task_id(), 1.5);
        sim.submit_local(node, t).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert_eq!(rec.completed.len(), 1);
        // 1.5 mc at 1.5e-3 mc/µs = 1000 µs.
        assert_eq!(rec.completed[0].latency, SimDuration::from_micros(1_000));
        assert!(rec.completed[0].deadline_met);
    }

    #[test]
    fn queueing_is_fifo_and_latency_grows() {
        let (mut sim, node) = one_node_sim(); // 4 cores
        for _ in 0..8 {
            let t = TaskInstance::new(sim.fresh_task_id(), 15.0);
            sim.submit_local(node, t).expect("submit");
        }
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert_eq!(rec.completed.len(), 8);
        let first = rec.completed[0].latency;
        let last = rec.completed[7].latency;
        assert!(last > first, "queued tasks wait");
        assert_eq!(sim.node(node).map(|n| n.completed()), Some(8));
    }

    #[test]
    fn network_submission_adds_transfer_delay() {
        let mut sim = SimCore::new();
        let gw = sim.add_node(NodeSpec::preset_fog_gateway("gw"));
        let cloud = sim.add_node(NodeSpec::preset_cloud_server("dc"));
        sim.network_mut().add_duplex(gw, cloud, SimDuration::from_millis(20), 100.0);
        let t = TaskInstance::new(sim.fresh_task_id(), 3.0).with_io_bytes(125_000, 0);
        let eta = sim.submit_via_network(gw, cloud, t, Protocol::Http).expect("routable");
        assert!(eta.as_millis_f64() > 20.0, "transfer takes ≥ propagation");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert_eq!(rec.completed.len(), 1);
        assert!(rec.completed[0].latency.as_millis_f64() > 20.0);
    }

    #[test]
    fn node_failure_loses_running_tasks_and_recovery_restores_service() {
        let (mut sim, node) = one_node_sim();
        for _ in 0..2 {
            let t = TaskInstance::new(sim.fresh_task_id(), 1_500_000.0); // ~1 s each
            sim.submit_local(node, t).expect("submit");
        }
        sim.schedule_node_down(node, SimTime::from_millis(100));
        sim.schedule_node_up(node, SimTime::from_millis(200));
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(5), &mut rec);
        assert_eq!(rec.crashes, vec![node]);
        assert_eq!(rec.abandoned.len(), 2, "no retry: each lost task is abandoned");
        assert_eq!(rec.completed.len(), 0);
        // Node is back: new work completes.
        let t = TaskInstance::new(sim.fresh_task_id(), 1.5);
        sim.submit_local(node, t).expect("node is back up");
        sim.run_until(SimTime::from_secs(6), &mut rec);
        assert_eq!(rec.completed.len(), 1);
    }

    #[test]
    fn no_retry_policy_abandons_each_lost_task_exactly_once() {
        let (mut sim, node) = one_node_sim();
        sim.set_obs(Obs::new(myrtus_obs::ObsConfig::on()));
        sim.set_retry_policy(None);
        // Four cores: four running tasks and two queued behind them.
        let ids: Vec<TaskId> = (0..6)
            .map(|_| {
                let t = TaskInstance::new(sim.fresh_task_id(), 1_500_000.0);
                let id = t.id;
                sim.submit_local(node, t).expect("submit");
                id
            })
            .collect();
        sim.schedule_node_down(node, SimTime::from_millis(100));
        sim.schedule_node_up(node, SimTime::from_millis(200));
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(5), &mut rec);
        assert_eq!(rec.abandoned, ids, "one TaskAbandoned per resident task");
        assert!(rec.recovered.is_empty(), "RetryPolicy::NONE re-offers nothing");
        assert!(rec.completed.is_empty());
        assert_eq!(sim.obs().counter_value("task_gave_up", ""), ids.len() as u64);
        assert_eq!(sim.obs().counter_value("task_retries", ""), 0);
    }

    #[test]
    fn retry_policy_reoffers_lost_tasks_until_completion() {
        let (mut sim, node) = one_node_sim();
        sim.set_retry_policy(Some(RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(150),
            backoff_cap: SimDuration::from_secs(1),
            jitter_frac: 0.0,
            attempt_timeout: None,
            seed: 1,
            recovery_queue_cap: u32::MAX,
        }));
        for _ in 0..2 {
            let t = TaskInstance::new(sim.fresh_task_id(), 1_500.0); // ~1 s each
            sim.submit_local(node, t).expect("submit");
        }
        sim.schedule_node_down(node, SimTime::from_millis(100));
        sim.schedule_node_up(node, SimTime::from_millis(200));
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(5), &mut rec);
        // The crash still loses the attempts, but they are re-offered
        // (backoff 150 ms lands after the 200 ms recovery) and finish.
        assert_eq!(rec.crashes, vec![node], "the crash itself is still surfaced");
        assert_eq!(rec.recovered.len(), 2);
        assert_eq!(rec.completed.len(), 2);
        assert!(rec.abandoned.is_empty());
    }

    #[test]
    fn attempt_timeout_cancels_stragglers_and_bounds_give_up() {
        let (mut sim, node) = one_node_sim();
        sim.set_retry_policy(Some(RetryPolicy {
            max_attempts: 2,
            base_backoff: SimDuration::from_millis(10),
            backoff_cap: SimDuration::from_millis(10),
            jitter_frac: 0.0,
            attempt_timeout: Some(SimDuration::from_millis(50)),
            seed: 1,
            recovery_queue_cap: u32::MAX,
        }));
        let straggler = TaskInstance::new(sim.fresh_task_id(), 1_500_000.0); // ~1 s ≫ timeout
        sim.submit_local(node, straggler).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(5), &mut rec);
        // Attempt 1 times out at 50 ms, retries at 60 ms; attempt 2
        // times out at 110 ms and the budget is exhausted.
        assert_eq!(rec.recovered, vec![(TaskId::from_raw(0), 1)]);
        assert_eq!(rec.abandoned, vec![TaskId::from_raw(0)]);
        assert!(rec.completed.is_empty());
        // A task faster than the timeout completes untouched.
        let quick = TaskInstance::new(sim.fresh_task_id(), 1.5); // 1 ms
        sim.submit_local(node, quick).expect("submit");
        sim.run_until(SimTime::from_secs(6), &mut rec);
        assert_eq!(rec.completed.len(), 1);
        assert_eq!(rec.abandoned.len(), 1, "no spurious give-up for completed tasks");
    }

    #[test]
    fn cancel_task_makes_pending_finish_stale_and_promotes_queue() {
        let (mut sim, node) = one_node_sim(); // 4 cores
        for _ in 0..5 {
            let t = TaskInstance::new(sim.fresh_task_id(), 1_500.0); // 1 ms each
            sim.submit_local(node, t).expect("submit");
        }
        // Let everything arrive/start, then cancel one running task.
        sim.run_until(SimTime::from_micros(100), &mut NullDriver);
        assert!(sim.cancel_task(node, TaskId::from_raw(0)));
        assert!(!sim.cancel_task(node, TaskId::from_raw(0)), "already terminal");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(2), &mut rec);
        // 4 of 5 tasks complete; the cancelled one never does, and the
        // queued task was promoted into the freed core.
        assert_eq!(rec.completed.len(), 4);
        assert!(rec.completed.iter().all(|o| o.task.id != TaskId::from_raw(0)));
        assert_eq!(sim.node(node).map(|n| n.completed()), Some(4));
    }

    /// How the running task leaves the node in
    /// `every_exit_promotes_the_queued_task_once`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Exit {
        Finish,
        Cancel,
        Timeout,
        MigrateLive,
        MigrateCold,
    }

    /// On a 1-core node, task A runs from 0 and task B queues behind it
    /// from 5 ms. Whichever way A leaves at 10 ms, B starts exactly
    /// once, its one queue-wait sample is the 5 ms it waited, and it
    /// completes one service time (2 ms) after it started.
    #[test]
    fn every_exit_promotes_the_queued_task_once() {
        use crate::task::TaskBody;
        use myrtus_obs::{Obs, ObsConfig};
        for exit in
            [Exit::Finish, Exit::Cancel, Exit::Timeout, Exit::MigrateLive, Exit::MigrateCold]
        {
            let mut sim = SimCore::new();
            // 1 000 MHz: one megacycle of work is one millisecond.
            let spec = NodeSpec::builder("n", NodeKind::EdgeMulticore).cores(1).speed_mhz(1_000.0);
            let node = sim.add_node(spec.build());
            let cloud = sim.add_node(NodeSpec::preset_cloud_server("dc"));
            sim.network_mut().add_duplex(node, cloud, SimDuration::from_millis(10), 100.0);
            sim.set_obs(Obs::new(ObsConfig::on()));
            let a_work = if exit == Exit::Finish { 10.0 } else { 100.0 };
            let mut a = TaskInstance::new(sim.fresh_task_id(), a_work);
            if exit == Exit::MigrateLive {
                sim.set_vm(VmConfig::new(vec![vm_test_program(20_000)]));
                a = a.with_body(TaskBody::new(0, 7));
            }
            if exit == Exit::Timeout {
                sim.set_retry_policy(Some(RetryPolicy {
                    max_attempts: 1,
                    attempt_timeout: Some(SimDuration::from_millis(10)),
                    ..RetryPolicy::default()
                }));
            }
            let a_id = a.id;
            sim.submit_local(node, a).expect("submit A");
            let mut rec = Recorder::default();
            sim.run_until(SimTime::from_millis(5), &mut rec);
            let b = TaskInstance::new(sim.fresh_task_id(), 2.0);
            let b_id = b.id;
            sim.submit_local(node, b).expect("submit B");
            sim.run_until(SimTime::from_millis(10), &mut rec);
            match exit {
                Exit::Cancel => assert!(sim.cancel_task(node, a_id)),
                Exit::MigrateLive | Exit::MigrateCold => {
                    let live = exit == Exit::MigrateLive;
                    sim.migrate_task(node, cloud, a_id, Protocol::Mqtt, live).expect("A resident");
                    let moved = if live { "task_migrations_live" } else { "task_migrations_cold" };
                    assert_eq!(sim.obs().counter_value(moved, ""), 1, "{exit:?}");
                }
                Exit::Finish | Exit::Timeout => {}
            }
            sim.run_until(SimTime::from_secs(1), &mut rec);
            if exit == Exit::Timeout {
                assert_eq!(rec.abandoned, vec![a_id], "A timed out at 10 ms");
            }
            assert_eq!(rec.started.iter().filter(|&&t| t == b_id).count(), 1, "{exit:?}");
            let snap = sim.obs().metrics_snapshot();
            let wait = snap
                .histograms
                .iter()
                .find(|((n, l), _)| *n == "task_queue_wait_ms" && *l == "edge")
                .map(|(_, h)| h.clone())
                .expect("edge queue-wait histogram exists");
            assert_eq!((wait.count, wait.sum), (2, 5.0), "{exit:?}: A waited 0 ms, B 5 ms");
            let b_done = rec.completed.iter().find(|o| o.task.id == b_id).expect("B completes");
            assert_eq!(b_done.at, SimTime::from_millis(12), "{exit:?}");
        }
    }

    #[test]
    fn submit_to_down_node_errors() {
        let (mut sim, node) = one_node_sim();
        sim.schedule_node_down(node, SimTime::ZERO);
        sim.run_until(SimTime::from_millis(1), &mut NullDriver);
        let t = TaskInstance::new(sim.fresh_task_id(), 1.0);
        assert_eq!(sim.submit_local(node, t), Err(SimError::NodeDown(node)));
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, _node) = one_node_sim();
        sim.set_timer(SimDuration::from_millis(5), 2);
        sim.set_timer(SimDuration::from_millis(1), 1);
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert_eq!(rec.timers, vec![1, 2]);
    }

    #[test]
    fn messages_are_delivered() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let b = sim.add_node(NodeSpec::preset_fog_gateway("b"));
        sim.network_mut().add_duplex(a, b, SimDuration::from_millis(3), 50.0);
        sim.send_message(a, b, 512, Protocol::Mqtt, 7).expect("routable");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert_eq!(rec.messages.len(), 1);
        assert_eq!(rec.messages[0].tag, 7);
        assert_eq!(rec.messages[0].dst, b);
    }

    #[test]
    fn operating_point_switch_delays_completion() {
        let (mut sim, node) = one_node_sim();
        let t = TaskInstance::new(sim.fresh_task_id(), 1.5);
        sim.submit_local(node, t).expect("submit");
        // Let it start, then slow the node down mid-flight.
        sim.run_until(SimTime::from_micros(500), &mut NullDriver);
        sim.switch_operating_point(node, 1).expect("eco point exists");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert_eq!(rec.completed.len(), 1);
        assert!(
            rec.completed[0].latency > SimDuration::from_micros(1_000),
            "slowdown stretches completion: {:?}",
            rec.completed[0].latency
        );
    }

    #[test]
    fn invalid_operating_point_is_rejected() {
        let (mut sim, node) = one_node_sim();
        let err = sim.switch_operating_point(node, 99).expect_err("out of range");
        assert!(matches!(err, SimError::UnknownOperatingPoint { .. }));
    }

    #[test]
    fn deterministic_event_order_under_ties() {
        let (mut sim, node) = one_node_sim();
        // Two identical tasks submitted at the same instant must start in
        // submission order.
        let t1 = sim.fresh_task_id();
        let t2 = sim.fresh_task_id();
        sim.submit_local(node, TaskInstance::new(t1, 100.0)).expect("submit");
        sim.submit_local(node, TaskInstance::new(t2, 100.0)).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert_eq!(rec.started, vec![t1, t2]);
    }

    #[test]
    fn scheduled_link_cut_notifies_and_blocks_explicit_paths() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let b = sim.add_node(NodeSpec::preset_fog_gateway("b"));
        let (ab, _) = sim.network_mut().add_duplex(a, b, SimDuration::from_millis(1), 100.0);
        sim.schedule_link_down(ab, SimTime::from_millis(5));
        sim.schedule_link_up(ab, SimTime::from_millis(20));
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_millis(10), &mut rec);
        assert!(!sim.network().link_state(ab).expect("exists").is_up());
        // Explicit-path submission over the cut link is rejected.
        let t = TaskInstance::new(sim.fresh_task_id(), 1.0);
        assert!(sim.submit_via_path(b, t, &[ab], Protocol::Mqtt).is_err());
        sim.run_until(SimTime::from_millis(25), &mut rec);
        assert!(sim.network().link_state(ab).expect("exists").is_up());
    }

    #[test]
    fn scrape_timer_samples_time_series() {
        use myrtus_obs::{Obs, ObsConfig};
        let mut sim = SimCore::new();
        let edge = sim.add_node(NodeSpec::preset_edge_multicore("e0"));
        let cloud = sim.add_node(NodeSpec::preset_cloud_server("dc"));
        sim.network_mut().add_duplex(edge, cloud, SimDuration::from_millis(5), 100.0);
        sim.set_obs(Obs::new(ObsConfig::on().with_scrape_interval_us(100_000)));
        for _ in 0..4 {
            let t = TaskInstance::new(sim.fresh_task_id(), 1_000.0);
            sim.submit_local(edge, t).expect("submit");
        }
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        let obs = sim.obs().clone();
        // 1 s / 100 ms = 10 scrapes.
        assert_eq!(obs.counter_value("obs_scrapes", ""), 10);
        assert_eq!(obs.ts_series("node_utilization", "edge/e0").len(), 10);
        assert_eq!(obs.ts_series("layer_utilization", "cloud").len(), 10);
        assert_eq!(obs.ts_series("link_up", "l0").len(), 10);
        let throughput = obs.ts_series("throughput_per_s", "");
        assert_eq!(throughput.len(), 10);
        let total: f64 = throughput.iter().map(|s| s.value * 0.1).sum();
        assert!((total - 4.0).abs() < 1e-9, "windowed throughput sums to completions: {total}");
        // Sample stamps are the scrape instants.
        assert_eq!(throughput[0].at_us, 100_000);
        assert_eq!(throughput[9].at_us, 1_000_000);
    }

    #[test]
    fn scrape_handles_follow_new_nodes_links_and_obs_handles() {
        use myrtus_obs::{Obs, ObsConfig};
        let (mut sim, node) = one_node_sim();
        let first = Obs::new(ObsConfig::on().with_scrape_interval_us(0));
        sim.set_obs(first.clone());
        sim.scrape();
        assert_eq!(first.ts_sample_count(), 5 + 6);
        // A node and links added after the first scrape get their series.
        let late = sim.add_node(NodeSpec::preset_cloud_server("late"));
        sim.network_mut().add_duplex(node, late, SimDuration::from_millis(5), 100.0);
        sim.scrape();
        assert_eq!(first.ts_series("node_utilization", "edge/n").len(), 2);
        assert_eq!(first.ts_series("node_up", "cloud/late").len(), 1);
        assert_eq!(first.ts_series("link_up", "l1").len(), 1);
        assert_eq!(first.ts_sample_count(), 11 + 10 + 6 + 2);
        // A fresh handle gets the scrape from its install on, and the
        // old one keeps what it had.
        let second = Obs::new(ObsConfig::on().with_scrape_interval_us(0));
        sim.set_obs(second.clone());
        sim.scrape();
        assert_eq!(second.ts_sample_count(), 10 + 6 + 2);
        assert_eq!(second.ts_series("node_up", "cloud/late").len(), 1);
        assert_eq!(first.ts_sample_count(), 29);
        // With no interval there are no rates: their handles stay empty
        // and out of the exports.
        assert!(!second.export_timeseries_csv().contains("throughput_per_s"));
    }

    #[test]
    fn scraping_reads_energy_without_moving_the_meters() {
        use myrtus_obs::{Obs, ObsConfig};
        let run = |obs: Obs| {
            let (mut sim, node) = one_node_sim();
            sim.set_obs(obs);
            for work in [3.3, 7.7, 11.1, 0.9, 5.5] {
                let t = TaskInstance::new(sim.fresh_task_id(), work * 1_000.0);
                sim.submit_local(node, t).expect("submit");
            }
            sim.run_until(SimTime::from_millis(1_234), &mut NullDriver);
            (sim.node(node).expect("node").energy_j(), sim.obs().clone())
        };
        let (plain, _) = run(Obs::new(ObsConfig::off()));
        let (scraped, obs) = run(Obs::new(ObsConfig::on().with_scrape_interval_us(7_000)));
        assert_eq!(plain.to_bits(), scraped.to_bits(), "scrapes leave the integration alone");
        let sampled = obs.ts_series("node_energy_j", "edge/n");
        assert_eq!(sampled.len(), 176);
        assert!(sampled.windows(2).all(|w| w[0].value <= w[1].value), "energy is monotone");
    }

    #[test]
    fn completion_totals_feed_the_scrape_window_from_install() {
        use myrtus_obs::{Obs, ObsConfig};
        let (mut sim, node) = one_node_sim();
        let late = |sim: &mut SimCore| {
            TaskInstance::new(sim.fresh_task_id(), 1.0).with_deadline(SimTime::ZERO)
        };
        // Obs off: the totals still count.
        let t = late(&mut sim);
        sim.submit_local(node, t).expect("submit");
        sim.run_until(SimTime::from_millis(50), &mut NullDriver);
        assert_eq!((sim.tasks_completed, sim.deadline_misses), (1, 1));
        // Installed mid-run, the first window covers only what follows.
        sim.set_obs(Obs::new(ObsConfig::on().with_scrape_interval_us(100_000)));
        let t = late(&mut sim);
        sim.submit_local(node, t).expect("submit");
        let t = TaskInstance::new(sim.fresh_task_id(), 1.0);
        sim.submit_local(node, t).expect("submit");
        sim.run_until(SimTime::from_millis(150), &mut NullDriver);
        assert_eq!((sim.tasks_completed, sim.deadline_misses), (3, 2));
        let obs = sim.obs().clone();
        assert_eq!(obs.counter_value("sim_tasks_completed", ""), 2);
        assert_eq!(obs.ts_series("deadline_miss_rate", "")[0].value, 0.5);
    }

    #[test]
    fn scrape_disabled_records_nothing() {
        use myrtus_obs::{Obs, ObsConfig};
        let (mut sim, node) = one_node_sim();
        sim.set_obs(Obs::new(ObsConfig::on().with_scrape_interval_us(0)));
        let t = TaskInstance::new(sim.fresh_task_id(), 1.5);
        sim.submit_local(node, t).expect("submit");
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        assert_eq!(sim.obs().ts_sample_count(), 0);
        assert_eq!(sim.obs().counter_value("obs_scrapes", ""), 0);
    }

    #[test]
    fn queue_wait_histogram_is_per_layer_and_measures_waits() {
        use myrtus_obs::{Obs, ObsConfig};
        let (mut sim, node) = one_node_sim(); // edge, 4 cores
        sim.set_obs(Obs::new(ObsConfig::on()));
        // 8 equal tasks on 4 cores: 4 start immediately (wait 0), 4 queue
        // for one full service time (15 mc at 1.5e-3 mc/µs = 10 ms).
        for _ in 0..8 {
            let t = TaskInstance::new(sim.fresh_task_id(), 15.0);
            sim.submit_local(node, t).expect("submit");
        }
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        let snap = sim.obs().metrics_snapshot();
        let wait = snap
            .histograms
            .iter()
            .find(|((n, l), _)| *n == "task_queue_wait_ms" && *l == "edge")
            .map(|(_, h)| h.clone())
            .expect("edge queue-wait histogram exists");
        assert_eq!(wait.count, 8);
        assert!(wait.sum > 0.0, "queued tasks waited: {}", wait.sum);
        assert!(
            !snap.histograms.iter().any(|((n, l), _)| *n == "task_queue_wait_ms" && *l != "edge"),
            "no tasks ran off the edge layer"
        );
        // The trace carries the arrival events backing the wait measure.
        let arrivals = sim
            .obs()
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::TaskArrive { .. }))
            .count();
        assert_eq!(arrivals, 8);
    }

    #[test]
    fn energy_accumulates_even_when_idle() {
        let (mut sim, node) = one_node_sim();
        sim.run_until(SimTime::from_secs(10), &mut NullDriver);
        let e = sim.node(node).map(|n| n.energy_j()).unwrap_or_default();
        // 10 s at 1.5 W idle.
        assert!((e - 15.0).abs() < 1e-6, "idle energy: {e}");
    }

    #[test]
    fn admission_queue_bound_sheds_with_reason_and_notifies_driver() {
        use myrtus_obs::{Obs, ObsConfig};
        let (mut sim, node) = one_node_sim(); // 4 cores
        sim.set_obs(Obs::new(ObsConfig::on()));
        sim.set_admission(Some(AdmissionPolicy {
            max_queue_depth: 5,
            ..AdmissionPolicy::default()
        }));
        // Fill the node: 4 running + 2 queued once arrivals process.
        for _ in 0..6 {
            let t = TaskInstance::new(sim.fresh_task_id(), 15.0); // 10 ms each
            sim.submit_local(node, t).expect("submit");
        }
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_millis(1), &mut rec);
        // Depth is now 6 ≥ 5: the next best-effort submission sheds.
        let extra = TaskInstance::new(sim.fresh_task_id(), 15.0);
        let extra_id = extra.id;
        sim.submit_local(node, extra).expect("shed is not an error");
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert_eq!(rec.shed, vec![(extra_id, "queue_full")]);
        assert_eq!(rec.completed.len(), 6, "admitted tasks all complete");
        let obs = sim.obs();
        assert_eq!(obs.counter_value("tasks_shed", "queue_full"), 1);
        assert_eq!(obs.counter_value("tasks_admitted", ""), 6);
        // Shed tasks still count as dispatched (conservation).
        assert_eq!(obs.counter_value("sim_tasks_dispatched", ""), 7);
        let shed_traces = obs
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::TaskShed { .. }))
            .count();
        assert_eq!(shed_traces, 1);
    }

    #[test]
    fn parked_task_slots_are_reused_and_all_free_at_quiescence() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let b = sim.add_node(NodeSpec::preset_edge_multicore("b")); // 4 cores
        sim.network_mut().add_duplex(a, b, SimDuration::from_millis(2), 10.0);
        sim.set_retry_policy(Some(RetryPolicy {
            base_backoff: SimDuration::from_millis(50),
            backoff_cap: SimDuration::from_millis(200),
            jitter_frac: 0.0,
            recovery_queue_cap: u32::MAX,
            ..RetryPolicy::default()
        }));
        sim.set_admission(Some(AdmissionPolicy {
            max_queue_depth: 6,
            ..AdmissionPolicy::default()
        }));
        let mut rec = Recorder::default();
        let submit = |sim: &mut SimCore, n: usize| {
            for _ in 0..n {
                // 100 ms of work behind an 8 ms transfer; the link
                // carries one at a time.
                let t = TaskInstance::new(sim.fresh_task_id(), 150.0).with_io_bytes(10_000, 0);
                sim.submit_via_network(a, b, t, Protocol::Mqtt).expect("submit");
            }
        };
        const WAVES: u64 = 6;
        for wave in 0..WAVES {
            let t0 = SimTime::from_secs(wave);
            // Eight network arrivals land, then four more find the run
            // queue at 8 ≥ 6 and shed; odd waves crash the host under
            // the running tasks, whose retries re-park them.
            submit(&mut sim, 8);
            sim.run_until(t0 + SimDuration::from_millis(100), &mut rec);
            submit(&mut sim, 4);
            if wave % 2 == 1 {
                sim.schedule_node_down(b, t0 + SimDuration::from_millis(150));
                sim.schedule_node_up(b, t0 + SimDuration::from_millis(180));
            }
            sim.run_until(t0 + SimDuration::from_secs(1), &mut rec);
        }
        sim.run_until(SimTime::from_secs(60), &mut rec);
        assert_eq!(rec.shed.len(), 4 * WAVES as usize, "every late batch sheds");
        assert!(!rec.recovered.is_empty(), "crashed attempts retry");
        let terminal = rec.completed.len() + rec.shed.len() + rec.abandoned.len();
        assert_eq!(terminal, 12 * WAVES as usize, "every task reaches a terminal state");
        assert_eq!(sim.parked.occupied(), 0, "quiescent: every parked slot is free");
        // Each task parks at least once (arrival or shed notice), each
        // retry once more: the slab stays at one wave's worth.
        let parks = 12 * WAVES as usize + rec.recovered.len();
        assert!(
            sim.parked.slot_count() <= 12,
            "{} slots for {parks} parks: freed slots are reused",
            sim.parked.slot_count()
        );
    }

    #[test]
    fn admission_backpressure_delays_over_rate_arrivals() {
        let (mut sim, node) = one_node_sim();
        sim.set_admission(Some(AdmissionPolicy {
            rate_per_window: 1,
            window: SimDuration::from_millis(10),
            max_delay: SimDuration::from_millis(50),
            ..AdmissionPolicy::default()
        }));
        for _ in 0..3 {
            let t = TaskInstance::new(sim.fresh_task_id(), 1.5); // 1 ms each
            sim.submit_local(node, t).expect("submit");
        }
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert!(rec.shed.is_empty(), "within max_delay nothing sheds");
        let ends: Vec<u64> = rec.completed.iter().map(|o| o.at.as_micros()).collect();
        // One token per 10 ms window: completions at 1, 11, 21 ms.
        assert_eq!(ends, vec![1_000, 11_000, 21_000]);
    }

    #[test]
    fn protected_priority_tasks_are_never_shed() {
        let (mut sim, node) = one_node_sim();
        sim.set_admission(Some(AdmissionPolicy {
            rate_per_window: 0,
            max_delay: SimDuration::ZERO,
            ..AdmissionPolicy::default()
        }));
        let vip = TaskInstance::new(sim.fresh_task_id(), 1.5).with_priority(1);
        let bulk = TaskInstance::new(sim.fresh_task_id(), 1.5);
        sim.submit_local(node, vip).expect("submit");
        sim.submit_local(node, bulk).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(1), &mut rec);
        assert_eq!(rec.completed.len(), 1, "the protected task runs");
        assert_eq!(rec.shed.len(), 1, "the best-effort task sheds");
        assert_eq!(rec.shed[0].1, "rate_limit");
    }

    #[test]
    fn recovery_queue_cap_bounds_the_retry_storm() {
        use myrtus_obs::{Obs, ObsConfig};
        let (mut sim, node) = one_node_sim(); // 4 cores
        sim.set_obs(Obs::new(ObsConfig::on()));
        sim.set_retry_policy(Some(RetryPolicy {
            base_backoff: SimDuration::from_millis(150),
            backoff_cap: SimDuration::from_secs(1),
            jitter_frac: 0.0,
            recovery_queue_cap: 1,
            ..RetryPolicy::default()
        }));
        for _ in 0..3 {
            let t = TaskInstance::new(sim.fresh_task_id(), 1_500.0); // ~1 s each
            sim.submit_local(node, t).expect("submit");
        }
        sim.schedule_node_down(node, SimTime::from_millis(100));
        sim.schedule_node_up(node, SimTime::from_millis(200));
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(5), &mut rec);
        // The crash fails all 3 attempts at once, but only one recovery
        // slot exists: one task retries and completes, two abandon.
        assert_eq!(rec.recovered.len(), 1);
        assert_eq!(rec.abandoned.len(), 2);
        assert_eq!(rec.completed.len(), 1);
        assert_eq!(sim.obs().counter_value("recovery_queue_rejections", ""), 2);
        assert_eq!(sim.obs().counter_value("task_gave_up", ""), 2);
        // The freed slot is reusable: a later failure retries again.
        sim.schedule_node_down(node, SimTime::from_millis(5_100));
        sim.schedule_node_up(node, SimTime::from_millis(5_200));
        let t = TaskInstance::new(sim.fresh_task_id(), 1_500.0);
        sim.submit_local(node, t).expect("submit");
        sim.run_until(SimTime::from_secs(10), &mut rec);
        assert_eq!(rec.recovered.len(), 2, "slot was released at re-dispatch");
        assert_eq!(rec.completed.len(), 2);
    }

    #[test]
    fn recovery_queue_cap_saturation_boundary_is_exact() {
        use myrtus_obs::{Obs, ObsConfig};
        // A crash failing exactly `cap` attempts at once must fill the
        // recovery queue without a single rejection; `cap + 1`
        // simultaneous failures must reject exactly one. Pins the `>=`
        // in the saturation check — an off-by-one either sheds a
        // recoverable task or admits a storm one past the guard.
        let run = |tasks: u64, cap: u32| -> (usize, u64) {
            let (mut sim, node) = one_node_sim(); // 4 cores
            sim.set_obs(Obs::new(ObsConfig::on()));
            sim.set_retry_policy(Some(RetryPolicy {
                base_backoff: SimDuration::from_millis(150),
                backoff_cap: SimDuration::from_secs(1),
                jitter_frac: 0.0,
                recovery_queue_cap: cap,
                ..RetryPolicy::default()
            }));
            for _ in 0..tasks {
                let t = TaskInstance::new(sim.fresh_task_id(), 1_500.0); // ~1 s each
                sim.submit_local(node, t).expect("submit");
            }
            sim.schedule_node_down(node, SimTime::from_millis(100));
            sim.schedule_node_up(node, SimTime::from_millis(200));
            let mut rec = Recorder::default();
            sim.run_until(SimTime::from_secs(5), &mut rec);
            (rec.recovered.len(), sim.obs().counter_value("recovery_queue_rejections", ""))
        };
        assert_eq!(run(3, 3), (3, 0), "cap == simultaneous failures: queue exactly full");
        assert_eq!(run(4, 3), (3, 1), "one past the cap: exactly one rejection");
    }

    #[test]
    fn disabled_admission_changes_nothing() {
        use myrtus_obs::{Obs, ObsConfig};
        let run = |with_admission: bool| -> String {
            let (mut sim, node) = one_node_sim();
            sim.set_obs(Obs::new(ObsConfig::on()));
            if with_admission {
                sim.set_admission(None);
            }
            for _ in 0..4 {
                let t = TaskInstance::new(sim.fresh_task_id(), 15.0);
                sim.submit_local(node, t).expect("submit");
            }
            sim.run_until(SimTime::from_secs(1), &mut NullDriver);
            sim.obs().export_trace_jsonl() + &sim.obs().export_metrics_jsonl()
        };
        assert_eq!(run(false), run(true), "admission: None is byte-identical");
    }

    /// A small but non-trivial bodied workload: a bounded loop mixing
    /// ALU, PRNG input and digest output, ~20k iterations.
    fn vm_test_program(iters: i64) -> myrtus_vm::Program {
        use myrtus_vm::Op;
        let ops = vec![
            Op::Push(iters),
            Op::Store(0),
            Op::Input,
            Op::Mix,
            Op::Push(13),
            Op::Add,
            Op::Out,
            Op::LoopDec(0, 2),
            Op::Halt,
        ];
        Program::new(ops, 1).expect("valid program")
    }

    #[test]
    fn disabled_vm_changes_nothing() {
        use crate::task::TaskBody;
        use myrtus_obs::{Obs, ObsConfig};
        let run = |mode: u8| -> String {
            let (mut sim, node) = one_node_sim();
            sim.set_obs(Obs::new(ObsConfig::on()));
            if mode == 1 {
                // Runtime installed, but no task carries a body.
                sim.set_vm(VmConfig::new(vec![vm_test_program(100)]));
            }
            for i in 0..4u64 {
                let mut t = TaskInstance::new(sim.fresh_task_id(), 15.0);
                if mode == 2 {
                    // Bodies attached, but no runtime installed: the
                    // tasks must ride the scalar path untouched.
                    t = t.with_body(TaskBody::new(0, i));
                }
                sim.submit_local(node, t).expect("submit");
            }
            sim.run_until(SimTime::from_secs(1), &mut NullDriver);
            sim.obs().export_trace_jsonl() + &sim.obs().export_metrics_jsonl()
        };
        let base = run(0);
        assert_eq!(base, run(1), "set_vm with no bodied tasks is byte-identical");
        assert_eq!(base, run(2), "bodies without a VM runtime are byte-identical");
    }

    #[test]
    fn bodied_task_reprices_work_and_retires_exact_steps() {
        use crate::task::TaskBody;
        use myrtus_obs::{Obs, ObsConfig};
        let program = vm_test_program(20_000);
        let table = CostTable::for_isa(IsaClass::Arm, 1.0);
        let (total_steps, total_cycles) = program.full_cost(7, &table);
        let (mut sim, node) = one_node_sim();
        sim.set_obs(Obs::new(ObsConfig::on()));
        sim.set_vm(VmConfig::new(vec![program]));
        let id = sim.fresh_task_id();
        // The scalar work field is a placeholder: the VM re-prices it.
        let t = TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 7));
        sim.submit_local(node, t).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(60), &mut rec);
        assert_eq!(rec.completed.len(), 1);
        let served = &rec.completed[0].task;
        assert!(
            (served.work_mc - total_cycles as f64 / 1e6).abs() < 1e-9,
            "work_mc must equal the program's cycle cost on the host ISA"
        );
        assert_eq!(sim.vm_steps_of(id), Some(total_steps), "every step retired");
        assert_eq!(sim.obs().counter_value("vm_steps_total", ""), total_steps);
    }

    /// A loop that branches on a seeded input's low bit, so its op
    /// sequence and cost differ per seed and admissions cannot be priced
    /// from a census.
    fn vm_seeded_program(iters: i64) -> myrtus_vm::Program {
        use myrtus_vm::Op;
        let ops = vec![
            Op::Push(iters),
            Op::Store(0),
            Op::Input,
            Op::Push(1),
            Op::And,
            Op::Jz(8), // even input → skip the kernel
            Op::Mix,
            Op::Out,
            Op::LoopDec(0, 2),
            Op::Halt,
        ];
        Program::new(ops, 1).expect("valid program")
    }

    /// The census slot of program 0, read straight off the runtime.
    fn census_slot(sim: &SimCore) -> Option<Option<OpCounts>> {
        sim.vm.as_ref().expect("vm installed").census[0].get().copied()
    }

    #[test]
    fn seed_dependent_bodies_are_priced_per_seed() {
        use crate::task::TaskBody;
        use myrtus_obs::{Obs, ObsConfig};
        let program = vm_seeded_program(2_000);
        let table = CostTable::for_isa(IsaClass::Arm, 1.0);
        let (mut sim, node) = one_node_sim();
        sim.set_obs(Obs::new(ObsConfig::on()));
        sim.set_vm(VmConfig::new(vec![program.clone()]));
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let mut ids = Vec::new();
        for &seed in &seeds {
            let id = sim.fresh_task_id();
            sim.submit_local(node, TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, seed)))
                .expect("submit");
            ids.push(id);
        }
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(60), &mut rec);
        assert_eq!(rec.completed.len(), seeds.len());
        assert_eq!(census_slot(&sim), Some(None), "the census declines a seed-steered program");
        let mut costs = Vec::new();
        let mut steps_total = 0;
        for (&seed, &id) in seeds.iter().zip(&ids) {
            let (steps, cycles) = program.full_cost(seed, &table);
            let done = rec.completed.iter().find(|o| o.task.id == id).expect("completed");
            assert_eq!(done.task.work_mc, cycles as f64 / 1e6, "seed {seed}");
            assert_eq!(sim.vm_steps_of(id), Some(steps), "seed {seed}");
            costs.push(cycles);
            steps_total += steps;
        }
        costs.dedup();
        assert!(costs.len() > 1, "the seeds really price differently");
        assert_eq!(sim.obs().counter_value("vm_steps_total", ""), steps_total);
    }

    #[test]
    fn seed_free_bodies_are_priced_from_the_census_on_every_isa() {
        use crate::task::TaskBody;
        use myrtus_obs::{Obs, ObsConfig};
        let program = vm_test_program(2_000);
        let census = program.seed_free_counts().expect("seed-free program");
        let mut sim = SimCore::new();
        sim.set_obs(Obs::new(ObsConfig::on()));
        let arm = sim.add_node(NodeSpec::preset_edge_multicore("arm"));
        let eco = sim.add_node(NodeSpec::preset_edge_multicore("arm-eco"));
        let riscv = sim.add_node(NodeSpec::preset_edge_riscv("riscv"));
        let server = sim.add_node(NodeSpec::preset_cloud_server("server"));
        sim.switch_operating_point(eco, 1).expect("eco point");
        sim.set_vm(VmConfig::new(vec![program.clone()]));
        assert_eq!(census_slot(&sim), None, "installing the runtime computes no census");
        let hosts = [
            (arm, CostTable::for_isa(IsaClass::Arm, 1.0)),
            (eco, CostTable::for_isa(IsaClass::Arm, 0.6)),
            (riscv, CostTable::for_isa(IsaClass::Riscv, 1.0)),
            (server, CostTable::for_isa(IsaClass::Server, 1.0)),
        ];
        let mut ids = Vec::new();
        for (seed, &(node, _)) in hosts.iter().enumerate() {
            let id = sim.fresh_task_id();
            let t = TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 10 + seed as u64));
            sim.submit_local(node, t).expect("submit");
            ids.push(id);
        }
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(60), &mut rec);
        assert_eq!(census_slot(&sim), Some(Some(census)), "filled at the first fresh boot");
        for (seed, (&(node, table), &id)) in hosts.iter().zip(&ids).enumerate() {
            let (steps, cycles) = program.full_cost(10 + seed as u64, &table);
            assert_eq!((census.steps, census.cycles(&table)), (steps, cycles));
            let done = rec.completed.iter().find(|o| o.task.id == id).expect("completed");
            assert_eq!(done.node, node);
            assert_eq!(done.task.work_mc, cycles as f64 / 1e6, "host {node:?}");
            assert_eq!(sim.vm_steps_of(id), Some(steps));
        }
        let prices: std::collections::BTreeSet<u64> =
            hosts.iter().map(|(_, t)| census.cycles(t)).collect();
        assert_eq!(prices.len(), hosts.len(), "every host prices the census differently");
        assert_eq!(sim.obs().counter_value("vm_steps_total", ""), census.steps * 4);
    }

    /// Two-node harness for migration tests: an ARM edge node and a
    /// server-class cloud node joined by one duplex link.
    fn migration_sim() -> (SimCore, NodeId, NodeId) {
        let mut sim = SimCore::new();
        let edge = sim.add_node(NodeSpec::preset_edge_multicore("e"));
        let cloud = sim.add_node(NodeSpec::preset_cloud_server("dc"));
        sim.network_mut().add_duplex(edge, cloud, SimDuration::from_millis(10), 100.0);
        (sim, edge, cloud)
    }

    /// Holds for a census-priced program and for a seed-dependent one.
    #[test]
    fn live_migration_resumes_across_isas_and_conserves_steps() {
        for program in [vm_test_program(20_000), vm_seeded_program(20_000)] {
            live_migration_conserves_steps(program);
        }
    }

    fn live_migration_conserves_steps(program: Program) {
        use crate::task::TaskBody;
        use myrtus_obs::{Obs, ObsConfig};
        let table = CostTable::for_isa(IsaClass::Arm, 1.0);
        let total_steps = program.full_cost(7, &table).0;
        let (mut sim, edge, cloud) = migration_sim();
        sim.set_obs(Obs::new(ObsConfig::on()));
        sim.set_vm(VmConfig::new(vec![program]));
        let id = sim.fresh_task_id();
        let t = TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 7)).with_io_bytes(50_000, 0);
        sim.submit_local(edge, t).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_millis(10), &mut rec);
        let eta = sim.migrate_task(edge, cloud, id, Protocol::Mqtt, true).expect("migratable");
        // The checkpoint retires the source's progress.
        let mid_steps = sim.obs().counter_value("vm_steps_total", "");
        assert!(eta > sim.now(), "checkpoint transfer takes time");
        assert!(sim.vm_in_transit(id), "checkpoint rides the network");
        assert_eq!(sim.live_instances(id), 0, "no live instance during transfer");
        sim.run_until(SimTime::from_secs(60), &mut rec);
        assert_eq!(rec.completed.len(), 1, "the migrated task completes exactly once");
        assert_eq!(rec.completed[0].node, cloud);
        assert!(!sim.vm_in_transit(id));
        // Steps are the portable work measure: the tally at completion
        // equals the whole program regardless of the ISA switch, and
        // the source's partial progress was not re-executed.
        assert_eq!(sim.vm_steps_of(id), Some(total_steps));
        assert!(mid_steps > 0 && mid_steps < total_steps, "migrated mid-execution");
        assert_eq!(sim.obs().counter_value("vm_steps_total", ""), total_steps);
        assert_eq!(sim.obs().counter_value("task_migrations_live", ""), 1);
        let trace = sim.obs().export_trace_jsonl();
        assert!(trace.contains("\"type\":\"task_checkpoint\""));
        assert!(trace.contains("\"type\":\"task_resume\""));
    }

    /// The cost table `node` prices bodies with right now.
    fn host_table(sim: &SimCore, node: NodeId) -> CostTable {
        let st = sim.node(node).expect("node");
        CostTable::for_isa(isa_of(st.spec().kind()), st.point().freq_scale())
    }

    /// The checkpoint of `id` in transit and the ops it has left.
    fn in_transit(sim: &SimCore, id: TaskId) -> (Checkpoint, Option<OpCounts>) {
        sim.vm.as_ref().expect("vm installed").pending[&id.as_raw()].clone()
    }

    /// The scalar work `node` was handed for the resident `id`.
    fn work_at(sim: &SimCore, node: NodeId, id: TaskId) -> f64 {
        let st = sim.node(node).expect("node");
        let running = st.running().iter().map(|r| &r.task);
        running.chain(st.queued()).find(|t| t.id == id).expect("resident").work_mc
    }

    /// A census-priced body hops ARM → RISC-V → server while running.
    /// Each resume is priced exactly like a scratch run to halt on its
    /// new host, yet interprets nothing: the census is read off the op
    /// list, and the interpreted-step counter moves only by the
    /// evictions' advances.
    #[test]
    fn census_priced_resumes_cross_isas_without_interpreting() {
        use crate::task::TaskBody;
        let program = vm_test_program(20_000);
        let census = program.seed_free_counts().expect("seed-free program");
        let mut sim = SimCore::new();
        let hosts = [
            sim.add_node(NodeSpec::preset_edge_multicore("arm")),
            sim.add_node(NodeSpec::preset_edge_riscv("riscv")),
            sim.add_node(NodeSpec::preset_cloud_server("server")),
        ];
        for pair in hosts.windows(2) {
            sim.network_mut().add_duplex(pair[0], pair[1], SimDuration::from_millis(10), 100.0);
        }
        sim.set_vm(VmConfig::new(vec![program.clone()]));
        let id = sim.fresh_task_id();
        let t = TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 7)).with_io_bytes(50_000, 0);
        sim.submit_local(hosts[0], t).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_millis(10), &mut rec);
        assert_eq!(program.census().interpreted, 0, "the op list answers the census");
        assert_eq!(sim.vm_interpreted_steps(), 0, "nothing ran before the first eviction");
        for pair in hosts.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let (arrival_steps, interpreted) = (sim.vm_steps_of(id), sim.vm_interpreted_steps());
            let eta = sim.migrate_task(from, to, id, Protocol::Mqtt, true).expect("migratable");
            let (cp, left) = in_transit(&sim, id);
            let advanced = cp.steps - arrival_steps.expect("resident");
            assert!(advanced > 0, "{from:?} served part of the body");
            assert_eq!(sim.vm_interpreted_steps(), interpreted + advanced, "the advance ran");
            let left = left.expect("census-priced images carry their ops left");
            let scratch = VmState::from_checkpoint(&cp, &program).expect("valid");
            let (steps, cycles) = scratch.cost_to_halt(&program, &host_table(&sim, to));
            assert!(steps > 0, "migrated mid-run");
            assert_eq!(left.steps, steps);
            sim.run_until(eta, &mut rec);
            assert_eq!(sim.live_instances(id), 1, "resumed at {to:?}");
            assert_eq!(work_at(&sim, to, id), cycles as f64 / 1e6, "priced as interpreted");
            assert_eq!(sim.vm_interpreted_steps(), interpreted + advanced, "the resume ran none");
            sim.run_until(eta + SimDuration::from_millis(10), &mut rec);
        }
        sim.run_until(SimTime::from_secs(60), &mut rec);
        assert_eq!(rec.completed.len(), 1);
        assert_eq!(rec.completed[0].node, hosts[2]);
        assert_eq!(sim.vm_steps_of(id), Some(census.steps), "every step retired once");
    }

    /// Without a census a resume is still priced by a scratch run.
    #[test]
    fn seed_steered_resumes_still_interpret() {
        use crate::task::TaskBody;
        let program = vm_seeded_program(20_000);
        let (mut sim, edge, cloud) = migration_sim();
        sim.set_vm(VmConfig::new(vec![program.clone()]));
        let id = sim.fresh_task_id();
        let t = TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 7)).with_io_bytes(50_000, 0);
        sim.submit_local(edge, t).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_millis(10), &mut rec);
        let full = program.full_cost(7, &host_table(&sim, edge)).0;
        let declined = program.census().interpreted;
        assert_eq!(sim.vm_interpreted_steps(), declined + full, "the fresh boot ran to halt once");
        let eta = sim.migrate_task(edge, cloud, id, Protocol::Mqtt, true).expect("migratable");
        let (cp, left) = in_transit(&sim, id);
        assert_eq!(left, None, "no census, no ops-left tally");
        let interpreted = sim.vm_interpreted_steps();
        assert_eq!(interpreted, declined + full + cp.steps);
        let scratch = VmState::from_checkpoint(&cp, &program).expect("valid");
        let (steps, cycles) = scratch.cost_to_halt(&program, &host_table(&sim, cloud));
        sim.run_until(eta, &mut rec);
        assert_eq!(work_at(&sim, cloud, id), cycles as f64 / 1e6);
        assert_eq!(sim.vm_interpreted_steps(), interpreted + steps, "the resume ran to halt");
    }

    /// A census that declines has still run up to its steered branch:
    /// those steps are interpreted work and are counted, once per
    /// program, beside each arrival's scratch run to halt.
    #[test]
    fn declined_census_steps_are_counted() {
        use crate::task::TaskBody;
        let program = vm_seeded_program(2_000);
        let census = program.census();
        assert_eq!(census.counts, None, "the census declines a seed-steered program");
        // Push, Store, then Input, Push, And: the run stops before the Jz.
        assert_eq!(census.interpreted, 5);
        let (mut sim, node) = one_node_sim();
        sim.set_vm(VmConfig::new(vec![program.clone()]));
        let seeds = [1u64, 2];
        for seed in seeds {
            let id = sim.fresh_task_id();
            sim.submit_local(node, TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, seed)))
                .expect("submit");
        }
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_secs(60), &mut rec);
        assert_eq!(rec.completed.len(), seeds.len());
        let table = host_table(&sim, node);
        let runs: u64 = seeds.iter().map(|&seed| program.full_cost(seed, &table).0).sum();
        assert_eq!(sim.vm_interpreted_steps(), census.interpreted + runs);
    }

    #[test]
    fn cold_migration_restarts_and_finishes_later_than_live() {
        use crate::task::TaskBody;
        use myrtus_obs::{Obs, ObsConfig};
        let finish_at = |live: bool| -> (SimTime, u64) {
            let (mut sim, edge, cloud) = migration_sim();
            sim.set_obs(Obs::new(ObsConfig::on()));
            sim.set_vm(VmConfig::new(vec![vm_test_program(20_000)]));
            let id = sim.fresh_task_id();
            let t =
                TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 7)).with_io_bytes(50_000, 0);
            sim.submit_local(edge, t).expect("submit");
            let mut rec = Recorder::default();
            sim.run_until(SimTime::from_millis(10), &mut rec);
            sim.migrate_task(edge, cloud, id, Protocol::Mqtt, live).expect("migratable");
            sim.run_until(SimTime::from_secs(60), &mut rec);
            assert_eq!(rec.completed.len(), 1);
            (rec.completed[0].at, sim.obs().counter_value("vm_steps_total", ""))
        };
        let (live_done, live_steps) = finish_at(true);
        let (cold_done, cold_steps) = finish_at(false);
        assert!(
            cold_done > live_done,
            "cold restart re-executes lost progress: {cold_done:?} vs {live_done:?}"
        );
        assert!(cold_steps > live_steps, "the cold path re-runs steps the live path carried over");
    }

    /// Every way a running body can be killed counts exactly the steps
    /// its program retires in the cycles the node served before the
    /// kill, whether its admission was census-priced or interpreted.
    #[test]
    fn kills_count_exactly_the_steps_served() {
        for program in [vm_test_program(20_000), vm_seeded_program(20_000)] {
            kills_count_steps_served(program);
        }
    }

    fn kills_count_steps_served(program: Program) {
        use crate::task::TaskBody;
        use myrtus_obs::{Obs, ObsConfig};
        let table = CostTable::for_isa(IsaClass::Arm, 1.0);
        // Mid-way through the body, off any millisecond grid.
        let kill_us = 12_345;
        for path in ["crash", "timeout", "cancel", "cold migration"] {
            let (mut sim, edge, cloud) = migration_sim();
            sim.set_obs(Obs::new(ObsConfig::on()));
            sim.set_vm(VmConfig::new(vec![program.clone()]));
            if path == "timeout" {
                sim.set_retry_policy(Some(RetryPolicy {
                    max_attempts: 1,
                    base_backoff: SimDuration::from_millis(1),
                    backoff_cap: SimDuration::from_millis(1),
                    jitter_frac: 0.0,
                    attempt_timeout: Some(SimDuration::from_micros(kill_us)),
                    seed: 1,
                    recovery_queue_cap: u32::MAX,
                }));
            }
            let id = sim.fresh_task_id();
            let t = TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 7));
            sim.submit_local(edge, t).expect("submit");
            if path == "crash" {
                sim.schedule_node_down(edge, SimTime::from_micros(kill_us));
            }
            let mut rec = Recorder::default();
            sim.run_until(SimTime::from_micros(kill_us - 1), &mut rec);
            let running = sim.node(edge).expect("edge").running()[0].clone();
            assert_eq!(running.task.id, id, "{path}: the body is in service");
            sim.run_until(SimTime::from_micros(kill_us), &mut rec);
            match path {
                "cancel" => assert!(sim.cancel_task(edge, id)),
                "cold migration" => {
                    sim.migrate_task(edge, cloud, id, Protocol::Mqtt, false).expect("migratable");
                }
                _ => {}
            }
            assert_eq!(sim.live_instances(id), 0, "{path}: the attempt left the edge");
            let served_mc =
                running.task.work_mc - running.remaining_mc_at(SimTime::from_micros(kill_us));
            let mut fresh = VmState::new(&program, 7);
            fresh.advance_to(&program, &table, (served_mc * 1e6).round() as u64);
            assert!(fresh.steps() > 0 && !fresh.is_halted(), "{path}: killed mid-run");
            assert_eq!(sim.obs().counter_value("vm_steps_total", ""), fresh.steps(), "{path}");
        }
    }

    #[test]
    fn migrating_a_queued_task_moves_it_without_progress_loss() {
        use crate::task::TaskBody;
        let (mut sim, edge, cloud) = migration_sim();
        sim.set_vm(VmConfig::new(vec![vm_test_program(5_000)]));
        // Fill every edge core, then queue the bodied victim behind
        // long scalar tasks.
        let cores = sim.node(edge).unwrap().spec().cores();
        for _ in 0..cores {
            let t = TaskInstance::new(sim.fresh_task_id(), 1_000_000.0);
            sim.submit_local(edge, t).expect("submit");
        }
        let id = sim.fresh_task_id();
        let t = TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 3));
        sim.submit_local(edge, t).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_millis(50), &mut rec);
        assert_eq!(sim.live_instances(id), 1, "victim is queued at the edge");
        let interpreted = sim.vm_interpreted_steps();
        let eta =
            sim.migrate_task(edge, cloud, id, Protocol::Mqtt, true).expect("queued tasks migrate");
        // Nothing was served, so the image ships the whole census left.
        let census = census_slot(&sim).flatten().expect("census-priced");
        let (cp, left) = in_transit(&sim, id);
        assert_eq!((cp.steps, left), (0, Some(census)));
        assert_eq!(sim.vm_interpreted_steps(), interpreted, "a queued image is not advanced");
        sim.run_until(eta, &mut rec);
        assert_eq!(work_at(&sim, cloud, id), census.cycles(&host_table(&sim, cloud)) as f64 / 1e6);
        sim.run_until(SimTime::from_secs(2), &mut rec);
        assert!(rec.completed.iter().any(|o| o.task.id == id && o.node == cloud));
        assert_eq!(sim.live_instances(id), 0);
    }

    #[test]
    fn migrate_task_rejects_impossible_moves() {
        use crate::task::TaskBody;
        let (mut sim, edge, cloud) = migration_sim();
        sim.set_vm(VmConfig::new(vec![vm_test_program(5_000)]));
        let id = sim.fresh_task_id();
        let t = TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 1));
        sim.submit_local(edge, t).expect("submit");
        let mut rec = Recorder::default();
        sim.run_until(SimTime::from_millis(1), &mut rec);
        assert!(sim.migrate_task(edge, edge, id, Protocol::Mqtt, true).is_none(), "self-move");
        assert!(
            sim.migrate_task(cloud, edge, id, Protocol::Mqtt, true).is_none(),
            "task is not resident on the claimed source"
        );
        let ghost = sim.fresh_task_id();
        assert!(sim.migrate_task(edge, cloud, ghost, Protocol::Mqtt, true).is_none());
        sim.run_until(SimTime::from_secs(60), &mut rec);
        assert_eq!(rec.completed.len(), 1, "rejected moves leave the task running");
        // Terminal tasks cannot migrate.
        assert!(sim.migrate_task(edge, cloud, id, Protocol::Mqtt, true).is_none());
    }

    #[test]
    fn double_resume_mutation_breaks_single_instance_discipline() {
        use crate::task::TaskBody;
        let run = |armed: bool| -> usize {
            crate::mutation::set_migration_double_resume(armed);
            let (mut sim, edge, cloud) = migration_sim();
            sim.set_vm(VmConfig::new(vec![vm_test_program(20_000)]));
            let id = sim.fresh_task_id();
            let t = TaskInstance::new(id, 1.0).with_body(TaskBody::new(0, 7));
            sim.submit_local(edge, t).expect("submit");
            let mut rec = Recorder::default();
            sim.run_until(SimTime::from_millis(10), &mut rec);
            let eta = sim.migrate_task(edge, cloud, id, Protocol::Mqtt, true).expect("migratable");
            // Probe just after the resume lands, while the task is
            // still mid-execution at the destination.
            sim.run_until(eta + SimDuration::from_millis(1), &mut rec);
            let live = sim.live_instances(id);
            crate::mutation::set_migration_double_resume(false);
            live
        };
        assert_eq!(run(false), 1, "clean protocol: exactly one live instance");
        assert!(run(true) > 1, "armed bug: duplicate instances after resume");
    }
}
