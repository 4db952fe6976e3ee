//! Monitoring and observability (EU-CEI building block).
//!
//! The paper distinguishes three monitor classes: **application**
//! monitoring (per-application performance), **telemetry** monitoring
//! (connectivity and information loss) and **infrastructure/resource**
//! monitoring (component status). [`MonitoringReport::collect`] snapshots
//! the latter two directly from the simulation core; application
//! monitoring lives with the orchestrator, which owns the per-request
//! view. Snapshots feed the Knowledge Base's Resource Registry.

use crate::engine::SimCore;
use crate::ids::{LinkId, NodeId};
use crate::node::Layer;
use crate::stats::OnlineStats;
use crate::time::{SimDuration, SimTime};

/// Infrastructure-monitor snapshot of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// Node id.
    pub node: NodeId,
    /// Node name.
    pub name: String,
    /// Continuum layer.
    pub layer: Layer,
    /// Whether the node is up.
    pub up: bool,
    /// Core utilization in `[0, 1]`.
    pub utilization: f64,
    /// Waiting tasks.
    pub queue_len: usize,
    /// Run-queue depth: running + queued tasks, 0 while the node is
    /// down (the scrape's `run_queue_depth` expression).
    pub run_queue_depth: usize,
    /// Free memory in MiB.
    pub mem_free_mb: u64,
    /// Active operating-point index.
    pub point_idx: usize,
    /// Total energy consumed so far, joules.
    pub energy_j: f64,
    /// Completed task count.
    pub completed: u64,
    /// Accelerator reconfiguration count.
    pub reconfigurations: u64,
}

/// Telemetry-monitor snapshot of one link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSnapshot {
    /// Link id.
    pub link: LinkId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Bytes transmitted.
    pub bytes_sent: u64,
    /// Messages transmitted.
    pub messages: u64,
    /// Utilization over the observation horizon.
    pub utilization: f64,
}

/// Full infrastructure + telemetry report at one instant. The default
/// is an empty report, for a caller that keeps one and
/// [refreshes](MonitoringReport::refresh) it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitoringReport {
    /// Snapshot instant.
    pub at: SimTime,
    /// Per-node infrastructure snapshots.
    pub nodes: Vec<NodeSnapshot>,
    /// Per-link telemetry snapshots.
    pub links: Vec<LinkSnapshot>,
    /// Tasks completed since the start of the run.
    pub tasks_completed: u64,
    /// Completed tasks that missed their deadline, since the start.
    pub deadline_misses: u64,
}

impl MonitoringReport {
    /// Collects a snapshot of every node and link from the core.
    pub fn collect(sim: &SimCore) -> MonitoringReport {
        let mut report = MonitoringReport {
            nodes: Vec::with_capacity(sim.node_count()),
            links: Vec::with_capacity(sim.network().link_count()),
            ..MonitoringReport::default()
        };
        report.refresh(sim);
        report
    }

    /// Re-takes the snapshot in place, equal to a fresh
    /// [`MonitoringReport::collect`]. A caller that snapshots every
    /// round keeps one report: the vectors and the node-name strings
    /// are reused, so a round whose topology is unchanged allocates
    /// nothing.
    pub fn refresh(&mut self, sim: &SimCore) {
        let horizon = sim.now().saturating_since(SimTime::ZERO);
        self.nodes.truncate(sim.node_count());
        for (i, n) in sim.nodes().iter().enumerate() {
            let name = n.spec().name();
            let snap = NodeSnapshot {
                node: n.id(),
                name: String::new(),
                layer: n.spec().layer(),
                up: n.is_up(),
                utilization: n.utilization(),
                queue_len: n.queue_len(),
                run_queue_depth: if n.is_up() { n.running().len() + n.queue_len() } else { 0 },
                mem_free_mb: n.mem_free_mb(),
                point_idx: n.point_idx(),
                energy_j: n.energy_j(),
                completed: n.completed(),
                reconfigurations: n.reconfigurations(),
            };
            match self.nodes.get_mut(i) {
                Some(old) => {
                    let mut kept = std::mem::take(&mut old.name);
                    kept.clear();
                    kept.push_str(name);
                    *old = NodeSnapshot { name: kept, ..snap };
                }
                None => self.nodes.push(NodeSnapshot { name: name.to_string(), ..snap }),
            }
        }
        self.links.clear();
        self.links.extend(sim.network().iter_links().map(|(id, spec, state)| LinkSnapshot {
            link: id,
            from: spec.from(),
            to: spec.to(),
            bytes_sent: state.bytes_sent(),
            messages: state.messages(),
            utilization: state.utilization(horizon),
        }));
        self.at = sim.now();
        self.tasks_completed = sim.tasks_completed;
        self.deadline_misses = sim.deadline_misses;
    }

    /// Aggregated energy over all nodes, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.energy_j).sum()
    }

    /// Mean utilization of the up nodes in a layer.
    pub fn layer_utilization(&self, layer: Layer) -> f64 {
        let mut s = OnlineStats::new();
        for n in self.nodes.iter().filter(|n| n.layer == layer && n.up) {
            s.push(n.utilization);
        }
        s.mean()
    }
}

/// Duration helper: observation horizon between two report instants.
pub fn horizon_between(a: &MonitoringReport, b: &MonitoringReport) -> SimDuration {
    b.at.saturating_since(a.at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NullDriver, SimCore};
    use crate::node::NodeSpec;
    use crate::task::TaskInstance;

    #[test]
    fn report_covers_every_node_and_link() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let b = sim.add_node(NodeSpec::preset_fog_gateway("b"));
        sim.network_mut().add_duplex(a, b, SimDuration::from_millis(1), 10.0);
        let r = MonitoringReport::collect(&sim);
        assert_eq!(r.nodes.len(), 2);
        assert_eq!(r.links.len(), 2);
        assert_eq!(r.nodes[0].layer, Layer::Edge);
    }

    #[test]
    fn report_carries_run_queue_depth_and_completion_totals() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let cores = sim.node(a).map(|n| n.spec().cores() as usize).expect("node");
        // Two quick tasks that miss an impossible deadline, then a
        // backlog of long ones: more than the cores can run at once.
        for _ in 0..2 {
            let t = TaskInstance::new(sim.fresh_task_id(), 1.0).with_deadline(SimTime::ZERO);
            sim.submit_local(a, t).expect("submit");
        }
        sim.run_until(SimTime::from_millis(100), &mut NullDriver);
        for _ in 0..cores + 2 {
            let t = TaskInstance::new(sim.fresh_task_id(), 1e6);
            sim.submit_local(a, t).expect("submit");
        }
        sim.run_until(SimTime::from_millis(101), &mut NullDriver);
        let r = MonitoringReport::collect(&sim);
        assert_eq!(r.nodes[0].queue_len, 2);
        assert_eq!(r.nodes[0].run_queue_depth, cores + 2, "running + queued");
        assert_eq!((r.tasks_completed, r.deadline_misses), (2, 2), "counted with obs off");
        sim.schedule_node_down(a, SimTime::from_millis(102));
        sim.run_until(SimTime::from_millis(103), &mut NullDriver);
        assert_eq!(MonitoringReport::collect(&sim).nodes[0].run_queue_depth, 0, "down node");
    }

    #[test]
    fn refresh_in_place_equals_a_fresh_collect() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let b = sim.add_node(NodeSpec::preset_fog_gateway("b"));
        sim.network_mut().add_duplex(a, b, SimDuration::from_millis(1), 10.0);
        let mut kept = MonitoringReport::collect(&sim);
        for _ in 0..3 {
            let t = TaskInstance::new(sim.fresh_task_id(), 1.5);
            sim.submit_local(a, t).expect("submit");
        }
        sim.run_until(SimTime::from_millis(1), &mut NullDriver);
        kept.refresh(&sim);
        assert_eq!(kept, MonitoringReport::collect(&sim), "state moved");
        let c = sim.add_node(NodeSpec::preset_cloud_server("c"));
        sim.network_mut().add_duplex(b, c, SimDuration::from_millis(5), 100.0);
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        kept.refresh(&sim);
        assert_eq!(kept, MonitoringReport::collect(&sim), "topology grew");
        // A report taken from a larger core shrinks to this one.
        let mut small = SimCore::new();
        small.add_node(NodeSpec::preset_edge_multicore("z"));
        kept.refresh(&small);
        assert_eq!(kept, MonitoringReport::collect(&small), "topology shrank");
        assert_eq!(kept.nodes[0].name, "z");
    }

    #[test]
    fn report_reflects_executed_work() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let t = TaskInstance::new(sim.fresh_task_id(), 1.5);
        sim.submit_local(a, t).expect("submit");
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        let r = MonitoringReport::collect(&sim);
        assert_eq!(r.nodes[0].completed, 1);
        assert!(r.total_energy_j() > 0.0);
    }
}
