//! Workload (WL) Manager.
//!
//! "To establish deployment or reallocation directives, the WL Manager
//! will gather information related to i) the state of resource
//! utilization from the Resource Registry, ii) historical data and/or AI
//! models from the KB, iii) application orchestration costs from a
//! Network Manager, and iv) trust and security constraints from the
//! Privacy and Security Manager" (paper Sect. VI). This module owns the
//! per-application placements: deployment-time planning through a
//! pluggable [`PlacementPolicy`], and runtime reallocation away from
//! failed or overloaded nodes.

use myrtus_continuum::engine::SimCore;
use myrtus_continuum::ids::NodeId;
use myrtus_obs::hash::WordMap;

use crate::placement::{evaluate, Placement, PlanContext};
use crate::policies::{PlaceError, PlacementPolicy};

/// A reallocation decision: component of an app moved to a new node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reallocation {
    /// Application id.
    pub app: u16,
    /// Component index.
    pub component: usize,
    /// Previous host.
    pub from: NodeId,
    /// New host.
    pub to: NodeId,
}

/// The WL Manager.
pub struct WlManager {
    policy: Box<dyn PlacementPolicy + Send>,
    placements: WordMap<u16, Placement>,
    reallocations: Vec<Reallocation>,
    /// Utilization above which a node is considered overloaded.
    pub overload_threshold: f64,
    /// Queue length above which a node is considered overloaded.
    pub queue_threshold: usize,
}

impl std::fmt::Debug for WlManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WlManager")
            .field("policy", &self.policy.name())
            .field("placements", &self.placements.len())
            .field("reallocations", &self.reallocations.len())
            .finish()
    }
}

impl WlManager {
    /// Creates a WL Manager around a placement policy.
    pub fn new(policy: Box<dyn PlacementPolicy + Send>) -> Self {
        WlManager {
            policy,
            placements: WordMap::default(),
            reallocations: Vec::new(),
            overload_threshold: 0.9,
            queue_threshold: 4,
        }
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether the wrapped policy adapts at runtime.
    pub fn adaptive(&self) -> bool {
        self.policy.adaptive()
    }

    /// Plans (and stores) the placement of application `app_id`.
    ///
    /// # Errors
    ///
    /// Propagates [`PlaceError`] when a component has no candidates.
    pub fn deploy(&mut self, app_id: u16, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        let placement = self.policy.place(ctx)?;
        self.placements.insert(app_id, placement.clone());
        Ok(placement)
    }

    /// The stored placement of an application.
    pub fn placement(&self, app_id: u16) -> Option<&Placement> {
        self.placements.get(&app_id)
    }

    /// All reallocations performed so far.
    pub fn reallocations(&self) -> &[Reallocation] {
        &self.reallocations
    }

    /// Whether a reallocation round for `app_id` can move anything:
    /// some component's host fails the health test
    /// ([`node_overloaded`]) or `admissible(position, host)`, which
    /// must hold exactly for the nodes the round's
    /// [`PlanContext::candidates`] would list at that position. When
    /// this is `false`, [`WlManager::reallocate`] returns no moves and
    /// changes nothing, so a caller may skip building its context.
    pub fn needs_reallocation(
        &self,
        app_id: u16,
        sim: &SimCore,
        mut admissible: impl FnMut(usize, NodeId) -> bool,
    ) -> bool {
        let Some(placement) = self.placements.get(&app_id) else { return false };
        (0..placement.len()).any(|i| {
            let host = placement.node_of(i);
            node_overloaded(sim, host, self.overload_threshold, self.queue_threshold)
                || !admissible(i, host)
        })
    }

    /// Runtime reallocation round for one application: any component on a
    /// down or overloaded node, or on a node no longer among its
    /// candidates, is greedily moved to the candidate that minimizes the
    /// plan-time objective. Returns the moves performed.
    pub fn reallocate(&mut self, app_id: u16, ctx: &PlanContext<'_>) -> Vec<Reallocation> {
        let (util_th, queue_th) = (self.overload_threshold, self.queue_threshold);
        let Some(placement) = self.placements.get_mut(&app_id) else {
            return Vec::new();
        };
        let mut moves = Vec::new();
        for i in 0..placement.len() {
            let host = placement.node_of(i);
            let unhealthy = node_overloaded(ctx.sim, host, util_th, queue_th);
            let allowed = ctx.candidates.get(i).map(|c| c.contains(&host)).unwrap_or(false);
            if !unhealthy && allowed {
                continue;
            }
            // Greedy: best healthy candidate under the current partial
            // placement.
            let mut best: Option<(NodeId, f64)> = None;
            for cand in ctx.candidates.get(i).into_iter().flatten().copied() {
                if cand == host || node_overloaded(ctx.sim, cand, util_th, queue_th) {
                    continue;
                }
                placement.reassign(i, cand);
                let score = evaluate(ctx, placement).objective(0.0);
                if best.as_ref().is_none_or(|(_, s)| score < *s) {
                    best = Some((cand, score));
                }
            }
            match best {
                Some((to, _)) => {
                    placement.reassign(i, to);
                    let m = Reallocation { app: app_id, component: i, from: host, to };
                    moves.push(m.clone());
                    self.reallocations.push(m);
                }
                None => {
                    // Nowhere to go: keep the old host and hope for
                    // recovery.
                    placement.reassign(i, host);
                }
            }
        }
        moves
    }
}

/// The WL Manager's health test: whether `node` is missing, down, or
/// overloaded (utilization at or above `util_th` with at least
/// `queue_th` tasks waiting). A host that fails it gives its
/// components up and a candidate that fails it receives none.
pub fn node_overloaded(sim: &SimCore, node: NodeId, util_th: f64, queue_th: usize) -> bool {
    sim.node(node)
        .map(|st| !st.is_up() || (st.utilization() >= util_th && st.queue_len() >= queue_th))
        .unwrap_or(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::GreedyBestFit;
    use myrtus_continuum::engine::NullDriver;
    use myrtus_continuum::net::RouteCache;
    use myrtus_continuum::task::TaskInstance;
    use myrtus_continuum::time::SimTime;
    use myrtus_continuum::topology::ContinuumBuilder;
    use myrtus_kb::KnowledgeBase;
    use myrtus_workload::graph::RequestDag;
    use myrtus_workload::scenarios;

    struct Fixture {
        continuum: myrtus_continuum::topology::Continuum,
        app: myrtus_workload::tosca::Application,
        dag: RequestDag,
        kb: KnowledgeBase,
        cache: RouteCache,
    }

    impl Fixture {
        fn new() -> Self {
            let continuum = ContinuumBuilder::new().build();
            let app = scenarios::telerehab();
            let dag = RequestDag::from_application(&app).expect("valid");
            Fixture { continuum, app, dag, kb: KnowledgeBase::new(), cache: RouteCache::new() }
        }

        fn ctx(&self) -> PlanContext<'_> {
            let all: Vec<NodeId> = self.continuum.all_nodes();
            let candidates = vec![all; self.dag.nodes().len()];
            PlanContext::new(
                self.continuum.sim(),
                &self.kb,
                &self.app,
                &self.dag,
                candidates,
                &self.cache,
            )
        }
    }

    #[test]
    fn deploy_stores_placement() {
        let f = Fixture::new();
        let mut mgr = WlManager::new(Box::new(GreedyBestFit::new()));
        let p = mgr.deploy(7, &f.ctx()).expect("places");
        assert_eq!(mgr.placement(7), Some(&p));
        assert!(mgr.placement(8).is_none());
        assert_eq!(mgr.policy_name(), "greedy-best-fit");
    }

    #[test]
    fn reallocates_off_a_dead_node() {
        let mut f = Fixture::new();
        let mut mgr = WlManager::new(Box::new(GreedyBestFit::new()));
        let p = mgr.deploy(1, &f.ctx()).expect("places");
        let victim = p.node_of(2);
        f.continuum.sim_mut().schedule_node_down(victim, SimTime::ZERO);
        f.continuum.sim_mut().run_until(SimTime::from_millis(1), &mut NullDriver);
        let moves = mgr.reallocate(1, &f.ctx());
        assert!(!moves.is_empty(), "components leave the dead node");
        for m in &moves {
            assert_eq!(m.from, victim);
            assert_ne!(m.to, victim);
        }
        let after = mgr.placement(1).expect("exists");
        assert!(after.components_on(victim).is_empty());
    }

    #[test]
    fn healthy_placement_is_left_alone() {
        let f = Fixture::new();
        let mut mgr = WlManager::new(Box::new(GreedyBestFit::new()));
        mgr.deploy(1, &f.ctx()).expect("places");
        assert!(mgr.reallocate(1, &f.ctx()).is_empty());
        assert!(mgr.reallocations().is_empty());
    }

    #[test]
    fn overloaded_node_sheds_components() {
        let mut f = Fixture::new();
        let mut mgr = WlManager::new(Box::new(GreedyBestFit::new()));
        let p = mgr.deploy(1, &f.ctx()).expect("places");
        let hot = p.node_of(2);
        // Saturate the host: all cores busy plus a deep queue.
        {
            let sim = f.continuum.sim_mut();
            for _ in 0..64 {
                let t = TaskInstance::new(sim.fresh_task_id(), 1_000_000.0);
                sim.submit_local(hot, t).expect("submit");
            }
            sim.run_until(SimTime::from_millis(1), &mut NullDriver);
        }
        let moves = mgr.reallocate(1, &f.ctx());
        assert!(
            moves.iter().any(|m| m.from == hot),
            "overloaded node sheds at least one component"
        );
    }

    #[test]
    fn reallocate_unknown_app_is_noop() {
        let f = Fixture::new();
        let mut mgr = WlManager::new(Box::new(GreedyBestFit::new()));
        assert!(mgr.reallocate(42, &f.ctx()).is_empty());
    }

    #[test]
    fn overload_helper_matches_thresholds() {
        let f = Fixture::new();
        let n = f.continuum.edge()[0];
        assert!(!node_overloaded(f.continuum.sim(), n, 0.9, 4));
        assert!(node_overloaded(f.continuum.sim(), NodeId::from_raw(999), 0.9, 4));
    }
}
