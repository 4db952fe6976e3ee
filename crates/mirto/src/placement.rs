//! Placement model and cost estimation.
//!
//! A [`Placement`] maps every application component to a continuum node.
//! [`PlanContext`] bundles what a policy may look at — the simulation's
//! node specs, the Knowledge Base, the application DAG and the
//! security-filtered candidate nodes — and [`evaluate`] scores a
//! placement by estimated end-to-end latency and energy, which is the
//! objective the cognitive policies optimize.

use myrtus_continuum::engine::SimCore;
use myrtus_continuum::ids::NodeId;
use myrtus_continuum::net::{PlanEstimator, Protocol};
use myrtus_continuum::time::SimDuration;
use myrtus_kb::KnowledgeBase;
use myrtus_workload::graph::RequestDag;
use myrtus_workload::tosca::Application;

/// A component-to-node assignment (indexed by component index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    assignment: Vec<NodeId>,
}

impl Placement {
    /// Creates a placement from one node per component.
    pub fn new(assignment: Vec<NodeId>) -> Self {
        Placement { assignment }
    }

    /// The node hosting component `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn node_of(&self, idx: usize) -> NodeId {
        self.assignment[idx]
    }

    /// Number of placed components.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The raw assignment.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.assignment
    }

    /// Reassigns one component.
    pub fn reassign(&mut self, idx: usize, node: NodeId) {
        self.assignment[idx] = node;
    }

    /// Components hosted on `node`.
    pub fn components_on(&self, node: NodeId) -> Vec<usize> {
        self.assignment.iter().enumerate().filter(|(_, n)| **n == node).map(|(i, _)| i).collect()
    }
}

/// Everything a placement policy may inspect.
#[derive(Debug)]
pub struct PlanContext<'a> {
    /// The simulation core (node specs, network estimates).
    pub sim: &'a SimCore,
    /// The Knowledge Base (registry, history).
    pub kb: &'a KnowledgeBase,
    /// The application being placed.
    pub app: &'a Application,
    /// Its per-request DAG.
    pub dag: &'a RequestDag,
    /// Per-component candidate nodes (already security/capacity filtered
    /// by the Privacy & Security Manager).
    pub candidates: Vec<Vec<NodeId>>,
    /// Memoizing route/transfer estimator for the plan sweep; `None`
    /// falls back to uncached per-call network estimates. Cached and
    /// uncached paths return bit-identical values for the same snapshot.
    pub estimator: Option<PlanEstimator<'a>>,
    /// Observability handle: [`evaluate`] counts rejected (infeasible)
    /// candidates through it, labelled by rejection reason. Scoring
    /// emits counters only, never trace events, so a search that scores
    /// thousands of candidates adds nothing to the trace ring. Disabled
    /// by default.
    pub obs: myrtus_obs::Obs,
}

impl PlanContext<'_> {
    /// Plan-time transfer estimate in µs between two nodes, through the
    /// attached [`PlanEstimator`] when present.
    pub fn transfer_us(&self, from: NodeId, to: NodeId, bytes: u64) -> f64 {
        match &self.estimator {
            Some(est) => est.transfer_us(from, to, bytes, Protocol::Mqtt),
            None => transfer_estimate_us(self.sim, from, to, bytes),
        }
    }
}

/// Score of one placement under the plan-time cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementScore {
    /// Estimated end-to-end latency for one request.
    pub est_latency: SimDuration,
    /// Estimated marginal energy for one request, joules.
    pub est_energy_j: f64,
    /// Whether every component sits on an allowed candidate node.
    pub feasible: bool,
}

impl PlacementScore {
    /// The canonical infeasible score: zero partial estimates (they are
    /// meaningless for a placement that can never run) and `feasible`
    /// false, so [`PlacementScore::objective`] is +∞.
    pub const INFEASIBLE: PlacementScore =
        PlacementScore { est_latency: SimDuration::ZERO, est_energy_j: 0.0, feasible: false };

    /// Scalar objective: latency in µs plus an energy term weighted by
    /// `energy_weight` (µs per joule). Infeasible placements are +∞.
    pub fn objective(&self, energy_weight: f64) -> f64 {
        if !self.feasible {
            return f64::INFINITY;
        }
        self.est_latency.as_micros() as f64 + energy_weight * self.est_energy_j
    }
}

/// Estimates latency and energy of one request under `placement`.
///
/// The model walks the DAG in topological order: each stage pays its
/// compute time on the assigned node (scaled by current utilization as a
/// congestion proxy) and each edge pays the network estimate between the
/// two nodes. This is the plan-time model; the simulator then provides
/// ground truth.
pub fn evaluate(ctx: &PlanContext<'_>, placement: &Placement) -> PlacementScore {
    let nodes = ctx.dag.nodes();
    // Short-circuit every infeasibility: accumulating latency or energy
    // past the first violation would only produce misleading partial
    // estimates that objective() discards anyway. Each rejection is
    // counted with its reason so silently-dropped candidates stay
    // visible to tests and experiments.
    if placement.len() != nodes.len() {
        return reject(ctx, "arity_mismatch");
    }
    for (i, cands) in ctx.candidates.iter().enumerate() {
        if !cands.contains(&placement.node_of(nodes[i].component_idx)) {
            return reject(ctx, "forbidden_candidate");
        }
    }

    let mut finish = vec![0.0f64; nodes.len()];
    let mut energy = 0.0f64;
    for &i in ctx.dag.topo_order() {
        let n = &nodes[i];
        let host = placement.node_of(n.component_idx);
        let Some(state) = ctx.sim.node(host) else {
            return reject(ctx, "unknown_node");
        };
        let speed = state.core_speed_mc_per_us();
        // Utilization-aware service estimate: a busy node stretches
        // service by 1/(1-ρ) (M/M/1-style penalty, capped).
        let rho = state.utilization().min(0.95);
        let service_us = n.work_mc / speed.max(1e-9) / (1.0 - rho);
        // Energy: marginal active-vs-idle power during the service time.
        let point = state.point();
        let marginal_w = (point.active_w() - point.idle_w()).max(0.0) / state.spec().cores() as f64;
        energy += marginal_w * (n.work_mc / speed.max(1e-9)) / 1e6;

        let mut ready = 0.0f64;
        for &p in &n.preds {
            let src = placement.node_of(nodes[p].component_idx);
            let bytes = nodes[p].succs.iter().find(|(s, _)| *s == i).map(|(_, b)| *b).unwrap_or(0);
            let hop_us = ctx.transfer_us(src, host, bytes);
            if hop_us.is_infinite() {
                // A required edge crosses a partitioned network: the
                // placement can never serve a request.
                return reject(ctx, "unreachable_hop");
            }
            ready = ready.max(finish[p] + hop_us);
        }
        finish[i] = ready + service_us;
    }
    let latency = finish.iter().copied().fold(0.0, f64::max);
    PlacementScore {
        est_latency: SimDuration::from_micros_f64(latency),
        est_energy_j: energy,
        feasible: true,
    }
}

/// Counts one infeasible candidate (`placement_rejected{reason}` plus
/// the unlabelled `placement_rejected_total`) and returns the canonical
/// infeasible score.
fn reject(ctx: &PlanContext<'_>, reason: &'static str) -> PlacementScore {
    ctx.obs.counter_inc("placement_rejected", reason);
    ctx.obs.counter_inc("placement_rejected_total", "");
    PlacementScore::INFEASIBLE
}

/// Picks a deterministic recovery/replica host from `candidates`: the
/// lowest-id node other than `avoid`. Excluding `avoid` means a
/// replicated stage can never bind both copies to the same node, and a
/// recovered task never returns to the node that just failed it.
/// Returns `None` when no distinct candidate exists.
pub fn replica_target(avoid: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
    candidates.iter().copied().filter(|&n| n != avoid).min()
}

/// Network transfer estimate in µs between two nodes: `0` when
/// co-located or the payload is empty, `+∞` when unreachable (callers
/// treat an unreachable required edge as an infeasible placement).
pub fn transfer_estimate_us(sim: &SimCore, from: NodeId, to: NodeId, bytes: u64) -> f64 {
    if from == to || bytes == 0 {
        return 0.0;
    }
    match sim.network().route(from, to) {
        Ok(path) => {
            let start = sim.now();
            let eta = sim.network().estimate_transfer(
                start,
                &path,
                bytes,
                myrtus_continuum::net::Protocol::Mqtt,
            );
            eta.saturating_since(start).as_micros() as f64
        }
        Err(_) => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::topology::ContinuumBuilder;
    use myrtus_workload::scenarios;

    fn fixture() -> (myrtus_continuum::topology::Continuum, Application) {
        (ContinuumBuilder::new().build(), scenarios::telerehab())
    }

    #[test]
    fn colocated_beats_scattered_for_chatty_chains() {
        let (c, app) = fixture();
        let dag = RequestDag::from_application(&app).expect("valid");
        let kb = KnowledgeBase::new();
        let all: Vec<NodeId> = c.all_nodes();
        let ctx = PlanContext {
            sim: c.sim(),
            kb: &kb,
            app: &app,
            dag: &dag,
            candidates: vec![all.clone(); dag.nodes().len()],
            estimator: None,
            obs: myrtus_obs::Obs::disabled(),
        };
        let edge = c.edge()[0];
        let colocated = Placement::new(vec![edge; dag.nodes().len()]);
        // Scatter across edge nodes (per-hop transfers of a camera frame).
        let scattered =
            Placement::new((0..dag.nodes().len()).map(|i| c.edge()[i % c.edge().len()]).collect());
        let s1 = evaluate(&ctx, &colocated);
        let s2 = evaluate(&ctx, &scattered);
        assert!(s1.feasible && s2.feasible);
        assert!(s1.est_latency < s2.est_latency, "{:?} vs {:?}", s1, s2);
    }

    #[test]
    fn infeasible_when_outside_candidates() {
        let (c, app) = fixture();
        let dag = RequestDag::from_application(&app).expect("valid");
        let kb = KnowledgeBase::new();
        let ctx = PlanContext {
            sim: c.sim(),
            kb: &kb,
            app: &app,
            dag: &dag,
            candidates: vec![vec![c.cloud()[0]]; dag.nodes().len()],
            estimator: None,
            obs: myrtus_obs::Obs::disabled(),
        };
        let p = Placement::new(vec![c.edge()[0]; dag.nodes().len()]);
        let s = evaluate(&ctx, &p);
        assert!(!s.feasible);
        assert_eq!(s.objective(0.0), f64::INFINITY);
    }

    #[test]
    fn unreachable_hop_is_infeasible() {
        use myrtus_continuum::net::RouteCache;
        let (mut c, app) = fixture();
        let dag = RequestDag::from_application(&app).expect("valid");
        let kb = KnowledgeBase::new();
        let cloud = c.cloud()[0];
        let edge = c.edge()[0];
        // Sever the cloud node from the rest of the continuum.
        {
            let net = c.sim_mut().network_mut();
            let cut: Vec<_> = net
                .iter_links()
                .filter(|(_, spec, _)| spec.from() == cloud || spec.to() == cloud)
                .map(|(id, _, _)| id)
                .collect();
            for id in cut {
                net.set_link_up(id, false);
            }
        }
        let all: Vec<NodeId> = c.all_nodes();
        let cache = RouteCache::new();
        let mut hosts = vec![cloud; dag.nodes().len()];
        hosts[0] = edge; // first hop now crosses the severed cut
        let p = Placement::new(hosts);
        for use_cache in [false, true] {
            let ctx = PlanContext {
                sim: c.sim(),
                kb: &kb,
                app: &app,
                dag: &dag,
                candidates: vec![all.clone(); dag.nodes().len()],
                estimator: use_cache
                    .then(|| PlanEstimator::new(c.sim().network(), c.sim().now(), &cache)),
                obs: myrtus_obs::Obs::disabled(),
            };
            let s = evaluate(&ctx, &p);
            assert!(!s.feasible, "unreachable hop must falsify feasibility");
            assert_eq!(s.objective(0.0), f64::INFINITY);
            // Short-circuit: no partial latency/energy accumulates.
            assert_eq!(s.est_energy_j, 0.0);
        }
    }

    #[test]
    fn cloud_compute_is_faster_but_transfer_dominates_big_frames() {
        let (c, app) = fixture();
        let dag = RequestDag::from_application(&app).expect("valid");
        let kb = KnowledgeBase::new();
        let all: Vec<NodeId> = c.all_nodes();
        let ctx = PlanContext {
            sim: c.sim(),
            kb: &kb,
            app: &app,
            dag: &dag,
            candidates: vec![all; dag.nodes().len()],
            estimator: None,
            obs: myrtus_obs::Obs::disabled(),
        };
        // Sensor at the edge, everything else in the cloud: pays the
        // camera-frame upload.
        let edge = c.edge()[0];
        let cloud = c.cloud()[0];
        let mut split = vec![cloud; dag.nodes().len()];
        split[0] = edge;
        let split_score = evaluate(&ctx, &Placement::new(split));
        let local = evaluate(&ctx, &Placement::new(vec![edge; dag.nodes().len()]));
        // Telerehab ships a 460 kB frame; edge-local wins on latency.
        assert!(local.est_latency < split_score.est_latency);
    }

    #[test]
    fn placement_helpers() {
        let a = NodeId::from_raw(1);
        let b = NodeId::from_raw(2);
        let mut p = Placement::new(vec![a, b, a]);
        assert_eq!(p.components_on(a), vec![0, 2]);
        p.reassign(0, b);
        assert_eq!(p.node_of(0), b);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn rejected_candidates_are_counted_with_reasons() {
        let (c, app) = fixture();
        let dag = RequestDag::from_application(&app).expect("valid");
        let kb = KnowledgeBase::new();
        let obs = myrtus_obs::Obs::new(myrtus_obs::ObsConfig::on());
        let ctx = PlanContext {
            sim: c.sim(),
            kb: &kb,
            app: &app,
            dag: &dag,
            candidates: vec![vec![c.cloud()[0]]; dag.nodes().len()],
            estimator: None,
            obs: obs.clone(),
        };
        // One arity mismatch, two forbidden candidates, one feasible.
        let batch = [
            Placement::new(vec![c.cloud()[0]]),
            Placement::new(vec![c.edge()[0]; dag.nodes().len()]),
            Placement::new(vec![c.edge()[1]; dag.nodes().len()]),
            Placement::new(vec![c.cloud()[0]; dag.nodes().len()]),
        ];
        let scores: Vec<PlacementScore> = batch.iter().map(|p| evaluate(&ctx, p)).collect();
        let rejected = scores.iter().filter(|s| !s.feasible).count() as u64;
        assert_eq!(rejected, 3);
        assert_eq!(obs.counter_value("placement_rejected", "arity_mismatch"), 1);
        assert_eq!(obs.counter_value("placement_rejected", "forbidden_candidate"), 2);
        // Every rejection carries a reason: the labelled series sum to
        // the unlabelled total, which matches the infeasible scores.
        assert_eq!(obs.counter_sum("placement_rejected"), rejected);
        assert_eq!(obs.counter_value("placement_rejected_total", ""), rejected);
    }

    #[test]
    fn replica_target_avoids_the_primary_deterministically() {
        let n = |r| NodeId::from_raw(r);
        assert_eq!(replica_target(n(3), &[n(5), n(3), n(9)]), Some(n(5)));
        assert_eq!(replica_target(n(5), &[n(5)]), None);
        assert_eq!(replica_target(n(0), &[]), None);
        // Order-insensitive: the same set always yields the same pick.
        assert_eq!(replica_target(n(1), &[n(4), n(2)]), replica_target(n(1), &[n(2), n(4)]));
    }

    #[test]
    fn transfer_estimate_zero_for_local() {
        let (c, _) = fixture();
        let n = c.edge()[0];
        assert_eq!(transfer_estimate_us(c.sim(), n, n, 1_000_000), 0.0);
        assert!(transfer_estimate_us(c.sim(), c.edge()[0], c.cloud()[0], 1_000) > 0.0);
    }
}
