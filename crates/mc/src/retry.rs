//! Model-checks the shipped retry/cancel-epoch machinery and k=2
//! replication dedup (`myrtus_continuum::engine::SimCore`).
//!
//! [`SimCore`] is deliberately not `Clone` (it owns slab arenas and a
//! live observability handle), so this model represents a state as the
//! *action trace that reaches it* and recomputes successors by
//! replaying the trace into a fresh core — the standard recipe for
//! checking a stateful system through its real API. Replay is exact:
//! the simulator is fully deterministic, so a trace is a faithful
//! state, and the fingerprint hashes an abstract view (clock, event
//! horizon, per-node occupancy, task ledger, counters) that two traces
//! only share when the underlying cores are observably identical.
//!
//! Each logical task is submitted as a replicated pair (k=2, primary +
//! twin on different nodes) with the same first-completion-wins dedup
//! the MIRTO engine uses. The adversary controls when nodes crash and
//! recover, when the client cancels, and how external actions
//! interleave with the simulator's own event processing.
//!
//! Checked invariants:
//! - **Exactly one final state per copy**: no copy ever receives a
//!   second terminal event (completion, shed, abandonment) — this is
//!   what the seeded `engine_stale_recover` mutation breaks: a
//!   recovery event for an already-terminal task must stay stale.
//! - **At most one completion per logical pair** (replica dedup).
//! - **Six-term conservation**, cross-checked against the engine's own
//!   counters: `dispatched = completed + shed + gave-up + cancelled +
//!   in-flight + resubmissions`.
//!
//! No symmetry reduction here: actions name absolute node indices
//! (crash node 0, submit rotates over nodes), so node identities are
//! observable and permuting them is unsound.

use std::fmt;

use myrtus_continuum::engine::{Driver, SimCore, SimEvent};
use myrtus_continuum::ids::{NodeId, TaskId};
use myrtus_continuum::node::{NodeKind, NodeSpec};
use myrtus_continuum::time::SimDuration;
use myrtus_continuum::{AdmissionPolicy, RetryPolicy, TaskInstance};
use myrtus_obs::hash::WordMap;
use myrtus_obs::{Obs, ObsConfig};

use crate::{fingerprint_of, Model};

/// Per-request work in megacycles: 3 ms of service on the model's
/// 1000 MHz single-core nodes, chosen so a queued twin can outlive the
/// 5 ms attempt timeout (3 ms wait + 3 ms service) and the timeout
/// path is genuinely reachable.
const WORK_MC: f64 = 3.0;

/// One transition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RetryAction {
    /// Submit the next logical task as a replicated pair.
    Submit,
    /// Let the simulator process its next queued event.
    Step,
    /// Crash a node (its tasks enter the recovery path).
    Crash(usize),
    /// Bring a crashed node back up.
    Recover(usize),
    /// The client cancels the newest in-flight attempt.
    Cancel,
}

impl fmt::Display for RetryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryAction::Submit => write!(f, "submit the next task as a replicated pair"),
            RetryAction::Step => write!(f, "simulator processes one event"),
            RetryAction::Crash(i) => write!(f, "node {i} crashes"),
            RetryAction::Recover(i) => write!(f, "node {i} comes back up"),
            RetryAction::Cancel => write!(f, "client cancels the newest in-flight attempt"),
        }
    }
}

/// Where one submitted copy currently stands. Every copy must visit
/// exactly one terminal phase, exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CopyPhase {
    InFlight,
    Completed,
    Shed,
    Abandoned,
    Cancelled,
}

#[derive(Debug, Clone)]
struct CopyInfo {
    raw: u64,
    logical: usize,
    phase: CopyPhase,
    /// Node the current attempt targets (updated on re-dispatch).
    node: NodeId,
}

/// The test harness driver: the same bookkeeping role the MIRTO engine
/// plays in production (replica dedup, recovery re-placement), plus
/// violation detection.
#[derive(Debug, Default)]
struct Harness {
    copies: Vec<CopyInfo>,
    by_raw: WordMap<u64, usize>,
    logicals: usize,
    submit_calls: u64,
    resubmissions: u64,
    cancelled: u64,
    violation: Option<String>,
}

impl Harness {
    fn mark_terminal(&mut self, raw: u64, phase: CopyPhase, what: &str) {
        let Some(&idx) = self.by_raw.get(&raw) else {
            self.violation = Some(format!("{what} for unknown task {raw}"));
            return;
        };
        let copy = &mut self.copies[idx];
        if copy.phase == CopyPhase::InFlight {
            copy.phase = phase;
        } else if self.violation.is_none() {
            self.violation = Some(format!(
                "{what} for task {raw} which already reached terminal state {:?} — \
                 every copy must have exactly one final state",
                copy.phase
            ));
        }
    }

    fn completions_of_logical(&self, logical: usize) -> usize {
        self.copies
            .iter()
            .filter(|c| c.logical == logical && c.phase == CopyPhase::Completed)
            .count()
    }
}

impl Driver for Harness {
    fn on_event(&mut self, sim: &mut SimCore, event: SimEvent) {
        match event {
            SimEvent::TaskCompleted(outcome) => {
                let raw = outcome.task.id.as_raw();
                self.mark_terminal(raw, CopyPhase::Completed, "completion");
                // First-completion-wins dedup, as the MIRTO engine does
                // for replicated stages: cancel the in-flight sibling.
                let Some(&idx) = self.by_raw.get(&raw) else { return };
                let logical = self.copies[idx].logical;
                let sibling = self.copies.iter().position(|c| {
                    c.logical == logical && c.raw != raw && c.phase == CopyPhase::InFlight
                });
                if let Some(s) = sibling {
                    let (node, sraw) = (self.copies[s].node, self.copies[s].raw);
                    if sim.cancel_task(node, TaskId::from_raw(sraw)) {
                        self.copies[s].phase = CopyPhase::Cancelled;
                        self.cancelled += 1;
                    }
                    // `false` means the sibling already went terminal
                    // inside the engine (e.g. it was shed and its
                    // notification is still queued): the race was lost,
                    // and the pending event will settle the ledger.
                }
            }
            SimEvent::TaskShed { task, .. } => {
                self.mark_terminal(task.id.as_raw(), CopyPhase::Shed, "shed");
            }
            SimEvent::TaskAbandoned { task, .. } => {
                self.mark_terminal(task.id.as_raw(), CopyPhase::Abandoned, "abandonment");
            }
            SimEvent::TaskRecovered { task, .. } => {
                let raw = task.id.as_raw();
                let phase = self.by_raw.get(&raw).map(|&i| self.copies[i].phase);
                match phase {
                    Some(CopyPhase::InFlight) => {
                        // Re-place on the first node that is still up,
                        // like the production recovery path.
                        let target = sim.nodes().iter().find(|n| n.is_up()).map(|n| n.id());
                        let idx = self.by_raw[&raw];
                        match target {
                            Some(node) => {
                                self.submit_calls += 1;
                                self.resubmissions += 1;
                                self.copies[idx].node = node;
                                if let Err(e) = sim.submit_local(node, task) {
                                    self.violation = Some(format!(
                                        "re-dispatch of recovered task {raw} failed: {e:?}"
                                    ));
                                }
                            }
                            None => {
                                sim.note_give_up(TaskId::from_raw(raw));
                                self.copies[idx].phase = CopyPhase::Abandoned;
                            }
                        }
                    }
                    Some(terminal) => {
                        if self.violation.is_none() {
                            self.violation = Some(format!(
                                "recovery fired for task {raw} which already reached \
                                 terminal state {terminal:?} — stale recoveries must be \
                                 suppressed"
                            ));
                        }
                    }
                    None => {
                        self.violation = Some(format!("recovery fired for unknown task {raw}"));
                    }
                }
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

/// The abstract, hashable view of a replayed core: what the fingerprint
/// and the invariants read.
#[derive(Debug, Clone, Hash)]
struct View {
    now_us: u64,
    next_event_in_us: Option<u64>,
    nodes: Vec<(bool, usize, usize)>,
    recovery_outstanding: u32,
    processed_events: u64,
    counters: [u64; 6],
    ledger: Vec<(usize, CopyPhase, u32)>,
    submits_left: u32,
    crashes_left: Vec<u32>,
    recovers_left: Vec<u32>,
    crash_debt: Vec<u32>,
    cancels_left: u32,
    violated: bool,
}

/// One explicit state: the trace that reaches it plus the abstract
/// view replayed from that trace.
#[derive(Debug, Clone)]
pub struct RetryState {
    trace: Vec<RetryAction>,
    view: View,
    check: Result<(), String>,
}

/// The retry/replication model.
#[derive(Debug, Clone)]
pub struct RetryModel {
    nodes: usize,
    submits: u32,
    crashes_per_node: u32,
    recovers_per_node: u32,
    cancels: u32,
}

impl RetryModel {
    /// The instance used in CI: two single-core nodes, two replicated
    /// submissions, one crash/recovery cycle per node, one client
    /// cancel.
    pub fn small() -> Self {
        RetryModel { nodes: 2, submits: 2, crashes_per_node: 1, recovers_per_node: 1, cancels: 1 }
    }

    /// Custom budgets for tests and tuning.
    pub fn with_budgets(
        submits: u32,
        crashes_per_node: u32,
        recovers_per_node: u32,
        cancels: u32,
    ) -> Self {
        RetryModel { nodes: 2, submits, crashes_per_node, recovers_per_node, cancels }
    }

    fn fresh_core(&self) -> SimCore {
        let mut sim = SimCore::new();
        sim.set_obs(Obs::new(ObsConfig::on().with_scrape_interval_us(0)));
        for i in 0..self.nodes {
            sim.add_node(
                NodeSpec::builder(format!("mc-n{i}"), NodeKind::EdgeMulticore).cores(1).build(),
            );
        }
        sim.set_retry_policy(Some(RetryPolicy {
            max_attempts: 2,
            base_backoff: SimDuration::from_millis(2),
            backoff_cap: SimDuration::from_millis(8),
            jitter_frac: 0.0,
            attempt_timeout: Some(SimDuration::from_millis(5)),
            seed: 7,
            recovery_queue_cap: 1,
        }));
        sim.set_admission(Some(AdmissionPolicy {
            max_queue_depth: 2,
            ..AdmissionPolicy::default()
        }));
        sim
    }

    /// Replays a trace into a fresh core, returning the reached state.
    fn replay(&self, trace: Vec<RetryAction>) -> RetryState {
        let mut sim = self.fresh_core();
        let mut harness = Harness::default();
        let mut submits_left = self.submits;
        let mut crashes_left = vec![self.crashes_per_node; self.nodes];
        let mut recovers_left = vec![self.recovers_per_node; self.nodes];
        let mut crash_debt = vec![0u32; self.nodes];
        let mut cancels_left = self.cancels;

        for action in &trace {
            match action {
                RetryAction::Submit => {
                    submits_left -= 1;
                    let logical = harness.logicals;
                    harness.logicals += 1;
                    // Rotate the primary over nodes; the twin lands on
                    // the next up node, if any.
                    let order: Vec<NodeId> = (0..self.nodes)
                        .map(|k| NodeId::from_raw(((logical + k) % self.nodes) as u32))
                        .collect();
                    let targets: Vec<NodeId> = order
                        .into_iter()
                        .filter(|&n| sim.node(n).is_some_and(|st| st.is_up()))
                        .take(2)
                        .collect();
                    for node in targets {
                        let id = sim.fresh_task_id();
                        let idx = harness.copies.len();
                        harness.by_raw.insert(id.as_raw(), idx);
                        harness.copies.push(CopyInfo {
                            raw: id.as_raw(),
                            logical,
                            phase: CopyPhase::InFlight,
                            node,
                        });
                        harness.submit_calls += 1;
                        let task = TaskInstance::new(id, WORK_MC).with_priority(0);
                        if let Err(e) = sim.submit_local(node, task) {
                            harness.violation =
                                Some(format!("submission to an up node failed: {e:?}"));
                        }
                    }
                }
                RetryAction::Step => {
                    sim.step_event(&mut harness);
                }
                RetryAction::Crash(i) => {
                    crashes_left[*i] -= 1;
                    crash_debt[*i] += 1;
                    sim.schedule_node_down(NodeId::from_raw(*i as u32), sim.now());
                }
                RetryAction::Recover(i) => {
                    recovers_left[*i] -= 1;
                    crash_debt[*i] -= 1;
                    sim.schedule_node_up(NodeId::from_raw(*i as u32), sim.now());
                }
                RetryAction::Cancel => {
                    cancels_left -= 1;
                    let newest = harness
                        .copies
                        .iter()
                        .filter(|c| c.phase == CopyPhase::InFlight)
                        .max_by_key(|c| c.raw)
                        .map(|c| (c.node, c.raw));
                    if let Some((node, raw)) = newest {
                        // A `false` return is legal: the copy already
                        // went terminal inside the engine and its
                        // notification is still queued.
                        if sim.cancel_task(node, TaskId::from_raw(raw)) {
                            let idx = harness.by_raw[&raw];
                            harness.copies[idx].phase = CopyPhase::Cancelled;
                            harness.cancelled += 1;
                        }
                    }
                }
            }
        }

        let obs = sim.obs();
        let counters = [
            obs.counter_value("sim_tasks_dispatched", ""),
            obs.counter_value("sim_tasks_completed", ""),
            obs.counter_sum("tasks_shed"),
            obs.counter_value("task_gave_up", ""),
            obs.counter_value("task_retries", ""),
            obs.counter_value("task_timeouts", ""),
        ];
        let ledger: Vec<(usize, CopyPhase, u32)> =
            harness.copies.iter().map(|c| (c.logical, c.phase, c.node.as_raw())).collect();
        let view = View {
            now_us: sim.now().as_micros(),
            next_event_in_us: sim.next_event_at().map(|t| t.as_micros() - sim.now().as_micros()),
            nodes: sim
                .nodes()
                .iter()
                .map(|n| (n.is_up(), n.running().len(), n.queue_len()))
                .collect(),
            recovery_outstanding: sim.recovery_outstanding(),
            processed_events: sim.processed_events(),
            counters,
            ledger,
            submits_left,
            crashes_left,
            recovers_left,
            crash_debt,
            cancels_left,
            violated: harness.violation.is_some(),
        };
        let check = Self::verdict(&harness, &view);
        RetryState { trace, view, check }
    }

    /// The invariants, evaluated once at replay time (states cache the
    /// verdict so `check` is a lookup).
    fn verdict(harness: &Harness, view: &View) -> Result<(), String> {
        if let Some(v) = &harness.violation {
            return Err(v.clone());
        }
        for logical in 0..harness.logicals {
            let c = harness.completions_of_logical(logical);
            if c > 1 {
                return Err(format!(
                    "replica dedup violated: logical task {logical} completed {c} times"
                ));
            }
        }
        let [dispatched, completed, shed, gave_up, _retries, _timeouts] = view.counters;
        if dispatched != harness.submit_calls {
            return Err(format!(
                "dispatch ledger diverged: engine counted {dispatched} dispatches, \
                 harness performed {}",
                harness.submit_calls
            ));
        }
        let tally =
            |phase: CopyPhase| harness.copies.iter().filter(|c| c.phase == phase).count() as u64;
        let (h_completed, h_shed, h_abandoned, h_cancelled, in_flight) = (
            tally(CopyPhase::Completed),
            tally(CopyPhase::Shed),
            tally(CopyPhase::Abandoned),
            tally(CopyPhase::Cancelled),
            tally(CopyPhase::InFlight),
        );
        // Completion, abandonment, and dispatch notifications are
        // synchronous, so those ledgers must agree in every state. Shed
        // notifications ride the event queue (`NotifyShed`), so the
        // engine counter may lead the harness while one is in flight —
        // but never lag it, and at quiescence they must be equal.
        if completed != h_completed || gave_up != h_abandoned {
            return Err(format!(
                "terminal-state ledgers diverged: engine (completed {completed}, \
                 gave up {gave_up}) vs harness (completed {h_completed}, \
                 abandoned {h_abandoned})"
            ));
        }
        if shed < h_shed {
            return Err(format!(
                "shed ledger ran backwards: engine counted {shed} but the harness was \
                 notified of {h_shed}"
            ));
        }
        if view.next_event_in_us.is_none() && shed != h_shed {
            return Err(format!(
                "shed notification lost: the queue is quiescent but the engine counted \
                 {shed} sheds and the harness saw {h_shed}"
            ));
        }
        // Six-term conservation over copies: the pending-shed lag is
        // exactly the engine/harness shed gap, so counting sheds from
        // the engine and in-flight copies net of pending notifications
        // keeps the identity exact in every state.
        let pending_shed = shed - h_shed;
        let rhs = completed
            + shed
            + gave_up
            + h_cancelled
            + (in_flight - pending_shed)
            + harness.resubmissions;
        if dispatched != rhs {
            return Err(format!(
                "conservation violated: dispatched {dispatched} != completed {completed} + \
                 shed {shed} + gave up {gave_up} + cancelled {h_cancelled} + \
                 in flight {} + resubmissions {}",
                in_flight - pending_shed,
                harness.resubmissions
            ));
        }
        Ok(())
    }
}

impl Model for RetryModel {
    type State = RetryState;
    type Action = RetryAction;

    fn name(&self) -> &'static str {
        "retry"
    }

    fn initial_states(&self) -> Vec<RetryState> {
        vec![self.replay(Vec::new())]
    }

    fn actions(&self, s: &RetryState, out: &mut Vec<RetryAction>) {
        let v = &s.view;
        if v.submits_left > 0 && v.nodes.iter().any(|&(up, _, _)| up) {
            out.push(RetryAction::Submit);
        }
        if v.next_event_in_us.is_some() {
            out.push(RetryAction::Step);
        }
        for i in 0..self.nodes {
            if v.crashes_left[i] > 0 && v.crash_debt[i] == 0 {
                out.push(RetryAction::Crash(i));
            }
            if v.recovers_left[i] > 0 && v.crash_debt[i] > 0 {
                out.push(RetryAction::Recover(i));
            }
        }
        if v.cancels_left > 0 && v.ledger.iter().any(|&(_, p, _)| p == CopyPhase::InFlight) {
            out.push(RetryAction::Cancel);
        }
    }

    fn apply(&self, s: &RetryState, a: &RetryAction) -> Option<RetryState> {
        let mut trace = s.trace.clone();
        trace.push(a.clone());
        Some(self.replay(trace))
    }

    fn fingerprint(&self, s: &RetryState) -> u64 {
        fingerprint_of(&s.view)
    }

    fn check(&self, s: &RetryState) -> Result<(), String> {
        s.check.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, Limits, Outcome, Strategy};

    #[test]
    fn tiny_instance_reaches_fixpoint() {
        let model = RetryModel::with_budgets(1, 0, 0, 0);
        match explore(&model, Strategy::Bfs, &Limits::default()) {
            Outcome::Pass(stats) => assert!(stats.distinct_states > 2),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn crash_and_recovery_explore_cleanly() {
        let model = RetryModel::with_budgets(1, 1, 1, 0);
        match explore(&model, Strategy::Bfs, &Limits::default()) {
            Outcome::Pass(stats) => assert!(stats.distinct_states > 10),
            other => panic!("expected pass, got {other:?}"),
        }
    }
}
