//! Model-checks the live-migration protocol of the task VM
//! (`myrtus_continuum::engine::SimCore::migrate_task`): snapshot at the
//! source, checkpoint bytes in network transit, resume at the
//! destination — adversarially interleaved with the simulator's own
//! event processing and with node crashes, including crashes that land
//! *mid-transfer* (the checkpoint arrives at a dead node and dies with
//! the attempt).
//!
//! Same recipe as [`crate::retry`]: [`SimCore`] is not `Clone`, so a
//! state is the action trace that reaches it, replayed into a fresh
//! core; the fingerprint hashes an abstract view that two traces only
//! share when the cores are observably identical.
//!
//! Every submitted task carries a portable body (a real
//! [`myrtus_workload::scenarios::programs`] compute program), so each
//! migration exercises the full checkpoint → transfer → resume path
//! across an ISA boundary (node 0 is ARM-class, node 1 server-class —
//! the cost tables differ, the step ledger must not).
//!
//! Checked invariants:
//! - **Exactly one live instance**: a task is never running or queued
//!   on two nodes at once, in any interleaving — this is what the
//!   seeded `migration_double_resume` mutation breaks (the checkpoint
//!   arrival is duplicated, resuming the task twice).
//! - **Transit exclusivity**: while a checkpoint is in network
//!   transit, the task has *zero* live instances.
//! - **Step conservation**: the interpreter's step tally is monotone
//!   along every path — a resume never re-executes or skips work the
//!   source already retired.
//! - **Exact completion cost**: a completed bodied task has retired
//!   exactly the program's full step count, no matter how many times
//!   (or across which ISAs) it migrated.
//! - **Exactly one terminal event per task** (completion, or loss:
//!   with no retry policy installed a lost attempt surfaces as
//!   `TaskAbandoned`).

use std::fmt;

use myrtus_continuum::engine::{Driver, SimCore, SimEvent, VmConfig};
use myrtus_continuum::ids::{NodeId, TaskId};
use myrtus_continuum::net::Protocol;
use myrtus_continuum::node::{NodeKind, NodeSpec};
use myrtus_continuum::task::{TaskBody, TaskInstance};
use myrtus_continuum::time::SimDuration;
use myrtus_obs::hash::WordMap;
use myrtus_obs::{Obs, ObsConfig};
use myrtus_vm::{CostTable, IsaClass};
use myrtus_workload::scenarios::programs::{program_for, Mix};

use crate::{fingerprint_of, Model};

/// Body seed shared by every submission: the compute mix is
/// straight-line, so the step count is seed-independent, but the
/// fingerprint still pins the exact program the engine interprets.
const BODY_SEED: u64 = 7;

/// Program size in megacycles on the ARM reference table: ~0.25 ms of
/// service on the model's 1000 MHz nodes — long enough that crashes
/// and migrations interleave with execution, short enough that a
/// replay interprets only a few hundred opcodes.
const PROGRAM_MC: f64 = 0.25;

/// One transition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MigrationAction {
    /// Submit the next bodied task (rotating over up nodes).
    Submit,
    /// Let the simulator process its next queued event.
    Step,
    /// Live-migrate submitted task `t` to the opposite node.
    Migrate(usize),
    /// Crash a node (resident tasks are lost; in-flight checkpoints
    /// addressed to it die on arrival).
    Crash(usize),
    /// Bring a crashed node back up.
    Recover(usize),
}

impl fmt::Display for MigrationAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationAction::Submit => write!(f, "submit the next bodied task"),
            MigrationAction::Step => write!(f, "simulator processes one event"),
            MigrationAction::Migrate(t) => {
                write!(f, "live-migrate task {t} to the opposite node")
            }
            MigrationAction::Crash(i) => write!(f, "node {i} crashes"),
            MigrationAction::Recover(i) => write!(f, "node {i} comes back up"),
        }
    }
}

/// Where one submitted task currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TaskPhase {
    InFlight,
    Completed,
    Lost,
}

/// The bookkeeping driver: terminal-event accounting plus violation
/// detection (the migration protocol itself lives in the engine).
#[derive(Debug, Default)]
struct Harness {
    ids: Vec<TaskId>,
    phases: Vec<TaskPhase>,
    by_raw: WordMap<u64, usize>,
    violation: Option<String>,
}

impl Harness {
    fn mark_terminal(&mut self, raw: u64, phase: TaskPhase, what: &str) {
        let Some(&idx) = self.by_raw.get(&raw) else {
            self.violation = Some(format!("{what} for unknown task {raw}"));
            return;
        };
        if self.phases[idx] == TaskPhase::InFlight {
            self.phases[idx] = phase;
        } else if self.violation.is_none() {
            self.violation = Some(format!(
                "{what} for task {raw} which already reached terminal state {:?} — \
                 every task must have exactly one final state",
                self.phases[idx]
            ));
        }
    }
}

impl Driver for Harness {
    fn on_event(&mut self, _sim: &mut SimCore, event: SimEvent) {
        match event {
            SimEvent::TaskCompleted(outcome) => {
                self.mark_terminal(outcome.task.id.as_raw(), TaskPhase::Completed, "completion");
            }
            SimEvent::TaskAbandoned { task, .. } => {
                // No retry policy is installed: a lost attempt is
                // abandoned at once.
                self.mark_terminal(task.id.as_raw(), TaskPhase::Lost, "loss");
            }
            SimEvent::TaskShed { task, .. } => {
                // No admission policy is installed: a shed is drift.
                self.violation = Some(format!("unexpected shed of task {}", task.id.as_raw()));
            }
            SimEvent::TaskRecovered { task, .. } => {
                // Under `RetryPolicy::NONE` nothing is ever re-offered.
                self.violation = Some(format!(
                    "retry machinery re-offered task {} under RetryPolicy::NONE",
                    task.id.as_raw()
                ));
            }
            SimEvent::TaskStarted { .. }
            | SimEvent::NodeDown(_)
            | SimEvent::NodeRestored(_)
            | SimEvent::LinkChanged { .. }
            | SimEvent::MessageDelivered(_)
            | SimEvent::Timer { .. } => {}
        }
    }
}

/// Per-task abstract standing: everything enabledness and the
/// invariants need, and nothing node-private.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq)]
struct TaskView {
    phase: TaskPhase,
    /// Node hosting the (single) live instance, if any.
    resident: Option<u32>,
    in_transit: bool,
    /// Interpreter steps retired as of the last checkpoint or
    /// completion (`None` before first arrival, in transit, or after a
    /// loss dropped the image).
    steps: Option<u64>,
}

/// The abstract, hashable view of a replayed core.
#[derive(Debug, Clone, Hash)]
struct View {
    now_us: u64,
    next_event_in_us: Option<u64>,
    processed_events: u64,
    nodes: Vec<(bool, usize, usize)>,
    tasks: Vec<TaskView>,
    submits_left: u32,
    migrates_left: u32,
    crashes_left: Vec<u32>,
    recovers_left: Vec<u32>,
    crash_debt: Vec<u32>,
    violated: bool,
}

/// One explicit state: the reaching trace plus its replayed view.
#[derive(Debug, Clone)]
pub struct MigrationState {
    trace: Vec<MigrationAction>,
    view: View,
    check: Result<(), String>,
}

/// The live-migration model.
#[derive(Debug, Clone)]
pub struct MigrationModel {
    nodes: usize,
    submits: u32,
    migrates: u32,
    crashes_per_node: u32,
    recovers_per_node: u32,
    /// Full step cost of the shared program (ISA-independent).
    total_steps: u64,
}

impl MigrationModel {
    /// The instance used in CI: two nodes across an ISA boundary, two
    /// bodied submissions, three live migrations (so a task can move
    /// away and back and away again), one crash/recovery cycle per
    /// node.
    pub fn small() -> Self {
        Self::with_budgets(2, 3, 1, 1)
    }

    /// Custom budgets for tests and tuning.
    pub fn with_budgets(
        submits: u32,
        migrates: u32,
        crashes_per_node: u32,
        recovers_per_node: u32,
    ) -> Self {
        let program = program_for(Mix::Compute, BODY_SEED, PROGRAM_MC);
        // Steps are the portable work measure: the tally is identical
        // under every cost table, so any ISA works as the reference.
        let total_steps = program.full_cost(BODY_SEED, &CostTable::for_isa(IsaClass::Arm, 1.0)).0;
        MigrationModel {
            nodes: 2,
            submits,
            migrates,
            crashes_per_node,
            recovers_per_node,
            total_steps,
        }
    }

    fn fresh_core(&self) -> SimCore {
        let mut sim = SimCore::new();
        sim.set_obs(Obs::new(ObsConfig::on().with_scrape_interval_us(0)));
        let kinds = [NodeKind::EdgeMulticore, NodeKind::CloudServer];
        let ids: Vec<NodeId> = (0..self.nodes)
            .map(|i| {
                sim.add_node(
                    NodeSpec::builder(format!("mc-n{i}"), kinds[i % kinds.len()]).cores(1).build(),
                )
            })
            .collect();
        sim.network_mut().add_duplex(ids[0], ids[1], SimDuration::from_millis(2), 100.0);
        sim.set_vm(VmConfig::new(vec![program_for(Mix::Compute, BODY_SEED, PROGRAM_MC)]));
        sim
    }

    /// Replays a trace into a fresh core, returning the reached state.
    fn replay(&self, trace: Vec<MigrationAction>) -> MigrationState {
        let mut sim = self.fresh_core();
        let mut harness = Harness::default();
        let mut submits_left = self.submits;
        let mut migrates_left = self.migrates;
        let mut crashes_left = vec![self.crashes_per_node; self.nodes];
        let mut recovers_left = vec![self.recovers_per_node; self.nodes];
        let mut crash_debt = vec![0u32; self.nodes];
        // High-water mark of each task's step tally: progress must
        // never run backwards, not even across a checkpoint/resume.
        let mut steps_seen: Vec<u64> = Vec::new();

        for action in &trace {
            match action {
                MigrationAction::Submit => {
                    submits_left -= 1;
                    let ordinal = harness.ids.len();
                    let target = (0..self.nodes)
                        .map(|k| NodeId::from_raw(((ordinal + k) % self.nodes) as u32))
                        .find(|&n| sim.node(n).is_some_and(|st| st.is_up()));
                    let Some(node) = target else { continue };
                    let id = sim.fresh_task_id();
                    harness.by_raw.insert(id.as_raw(), ordinal);
                    harness.ids.push(id);
                    harness.phases.push(TaskPhase::InFlight);
                    steps_seen.push(0);
                    let task = TaskInstance::new(id, 1.0)
                        .with_body(TaskBody::new(0, BODY_SEED))
                        .with_io_bytes(4_096, 0);
                    if let Err(e) = sim.submit_local(node, task) {
                        harness.violation = Some(format!("submission to an up node failed: {e:?}"));
                    }
                }
                MigrationAction::Step => {
                    sim.step_event(&mut harness);
                }
                MigrationAction::Migrate(t) => {
                    let Some(&id) = harness.ids.get(*t) else { continue };
                    let Some(from) = self.resident_node(&sim, id) else { continue };
                    migrates_left -= 1;
                    let to = NodeId::from_raw(1 - from.as_raw());
                    // `None` is legal here: the destination may have
                    // crashed since the action was enumerated.
                    let _ = sim.migrate_task(from, to, id, Protocol::Mqtt, true);
                }
                MigrationAction::Crash(i) => {
                    crashes_left[*i] -= 1;
                    crash_debt[*i] += 1;
                    sim.schedule_node_down(NodeId::from_raw(*i as u32), sim.now());
                }
                MigrationAction::Recover(i) => {
                    recovers_left[*i] -= 1;
                    crash_debt[*i] -= 1;
                    sim.schedule_node_up(NodeId::from_raw(*i as u32), sim.now());
                }
            }
            // Step conservation, checked after *every* action so a
            // regression is pinned to the transition that caused it.
            for (idx, &id) in harness.ids.iter().enumerate() {
                if let Some(s) = sim.vm_steps_of(id) {
                    if s < steps_seen[idx] && harness.violation.is_none() {
                        harness.violation = Some(format!(
                            "step conservation violated: task {idx} ran backwards from \
                             {} to {s} interpreter steps after \"{action}\"",
                            steps_seen[idx]
                        ));
                    }
                    steps_seen[idx] = steps_seen[idx].max(s);
                }
            }
        }

        let tasks: Vec<TaskView> = harness
            .ids
            .iter()
            .zip(&harness.phases)
            .map(|(&id, &phase)| TaskView {
                phase,
                resident: self.resident_node(&sim, id).map(NodeId::as_raw),
                in_transit: sim.vm_in_transit(id),
                steps: sim.vm_steps_of(id),
            })
            .collect();
        let view = View {
            now_us: sim.now().as_micros(),
            next_event_in_us: sim.next_event_at().map(|t| t.as_micros() - sim.now().as_micros()),
            processed_events: sim.processed_events(),
            nodes: sim
                .nodes()
                .iter()
                .map(|n| (n.is_up(), n.running().len(), n.queue_len()))
                .collect(),
            tasks,
            submits_left,
            migrates_left,
            crashes_left,
            recovers_left,
            crash_debt,
            violated: harness.violation.is_some(),
        };
        let check = self.verdict(&sim, &harness, &view);
        MigrationState { trace, view, check }
    }

    /// Node hosting `id`'s live instance, if exactly one node does.
    fn resident_node(&self, sim: &SimCore, id: TaskId) -> Option<NodeId> {
        sim.nodes()
            .iter()
            .find(|st| {
                st.running().iter().any(|r| r.task.id == id) || st.queued().any(|t| t.id == id)
            })
            .map(|st| st.id())
    }

    /// The invariants, evaluated once at replay time.
    fn verdict(&self, sim: &SimCore, harness: &Harness, view: &View) -> Result<(), String> {
        if let Some(v) = &harness.violation {
            return Err(v.clone());
        }
        for (idx, (&id, tv)) in harness.ids.iter().zip(&view.tasks).enumerate() {
            let live = sim.live_instances(id);
            if live > 1 {
                return Err(format!(
                    "exactly-one-live-instance discipline violated: task {idx} has {live} \
                     concurrent instances"
                ));
            }
            if tv.in_transit && live != 0 {
                return Err(format!(
                    "transit exclusivity violated: task {idx}'s checkpoint is on the wire \
                     but {live} instance(s) are live"
                ));
            }
            if tv.phase == TaskPhase::Completed && tv.steps != Some(self.total_steps) {
                return Err(format!(
                    "completion cost violated: task {idx} completed with {:?} interpreter \
                     steps, the program costs exactly {}",
                    tv.steps, self.total_steps
                ));
            }
        }
        Ok(())
    }
}

impl Model for MigrationModel {
    type State = MigrationState;
    type Action = MigrationAction;

    fn name(&self) -> &'static str {
        "migration"
    }

    fn initial_states(&self) -> Vec<MigrationState> {
        vec![self.replay(Vec::new())]
    }

    fn actions(&self, s: &MigrationState, out: &mut Vec<MigrationAction>) {
        let v = &s.view;
        if v.submits_left > 0 && v.nodes.iter().any(|&(up, _, _)| up) {
            out.push(MigrationAction::Submit);
        }
        if v.next_event_in_us.is_some() {
            out.push(MigrationAction::Step);
        }
        if v.migrates_left > 0 {
            for (t, tv) in v.tasks.iter().enumerate() {
                if tv.phase == TaskPhase::InFlight && tv.resident.is_some() {
                    out.push(MigrationAction::Migrate(t));
                }
            }
        }
        for i in 0..self.nodes {
            if v.crashes_left[i] > 0 && v.crash_debt[i] == 0 {
                out.push(MigrationAction::Crash(i));
            }
            if v.recovers_left[i] > 0 && v.crash_debt[i] > 0 {
                out.push(MigrationAction::Recover(i));
            }
        }
    }

    fn apply(&self, s: &MigrationState, a: &MigrationAction) -> Option<MigrationState> {
        let mut trace = s.trace.clone();
        trace.push(a.clone());
        Some(self.replay(trace))
    }

    fn fingerprint(&self, s: &MigrationState) -> u64 {
        fingerprint_of(&s.view)
    }

    fn check(&self, s: &MigrationState) -> Result<(), String> {
        s.check.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, Limits, Outcome, Strategy};

    #[test]
    fn migration_without_faults_reaches_fixpoint() {
        // Two moves: the task can leave its first host and come back.
        let model = MigrationModel::with_budgets(1, 2, 0, 0);
        match explore(&model, Strategy::Bfs, &Limits::default()) {
            Outcome::Pass(stats) => assert!(stats.distinct_states > 10),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn crash_mid_transfer_explores_cleanly() {
        let model = MigrationModel::with_budgets(1, 1, 1, 1);
        match explore(&model, Strategy::Bfs, &Limits::default()) {
            Outcome::Pass(stats) => assert!(stats.distinct_states > 100),
            other => panic!("expected pass, got {other:?}"),
        }
    }
}
