//! Placement policies: the baselines MIRTO is compared against and the
//! interface the cognitive strategies implement.
//!
//! The paper positions MIRTO's AI-driven orchestration against today's
//! silo practice (CH2): static cloud-only or edge-only deployment, naive
//! spreading, and a Kubernetes-default-like binpack scorer with no
//! cross-layer cognition. All of those are implemented here; the swarm
//! and learning strategies live in [`crate::swarm`] and plug in through
//! the same [`PlacementPolicy`] trait.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use myrtus_continuum::ids::NodeId;
use myrtus_continuum::node::Layer;

use crate::placement::{evaluate, Placement, PlanContext};

/// A deployment-time placement strategy.
pub trait PlacementPolicy {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Chooses a node for every component.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] when some component has no candidate node.
    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError>;

    /// Whether the policy performs runtime adaptation (reallocation,
    /// operating-point switching). Baselines return `false`.
    fn adaptive(&self) -> bool {
        false
    }
}

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// A component has no feasible candidate.
    NoCandidate {
        /// The component index.
        component: usize,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::NoCandidate { component } => {
                write!(f, "component {component} has no feasible candidate node")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

fn candidates_or_err<'c>(ctx: &'c PlanContext<'_>, idx: usize) -> Result<&'c [NodeId], PlaceError> {
    let c = ctx.candidates.get(idx).map(Vec::as_slice).unwrap_or(&[]);
    if c.is_empty() {
        Err(PlaceError::NoCandidate { component: idx })
    } else {
        Ok(c)
    }
}

/// Round-robin over each component's candidates.
#[derive(Debug, Default)]
pub struct RoundRobin {
    counter: usize,
}

impl RoundRobin {
    /// Creates the policy.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl PlacementPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        let mut assignment = Vec::with_capacity(ctx.dag.nodes().len());
        for i in 0..ctx.dag.nodes().len() {
            let c = candidates_or_err(ctx, i)?;
            assignment.push(c[self.counter % c.len()]);
            self.counter += 1;
        }
        Ok(Placement::new(assignment))
    }
}

/// Uniform random choice among candidates (seeded).
#[derive(Debug)]
pub struct RandomPlacement {
    rng: StdRng,
}

impl RandomPlacement {
    /// Creates the policy with a seed.
    pub fn new(seed: u64) -> Self {
        RandomPlacement { rng: StdRng::seed_from_u64(seed) }
    }
}

impl PlacementPolicy for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        let mut assignment = Vec::with_capacity(ctx.dag.nodes().len());
        for i in 0..ctx.dag.nodes().len() {
            let c = candidates_or_err(ctx, i)?;
            assignment.push(c[self.rng.gen_range(0..c.len())]);
        }
        Ok(Placement::new(assignment))
    }
}

/// Everything in one layer (cloud-only / edge-only silo baselines).
/// Sensors stay at the edge (data is born there), as in practice.
#[derive(Debug)]
pub struct LayerPinned {
    layer: Layer,
    counter: usize,
}

impl LayerPinned {
    /// Pin all processing to the cloud.
    pub fn cloud_only() -> Self {
        LayerPinned { layer: Layer::Cloud, counter: 0 }
    }

    /// Pin all processing to the edge.
    pub fn edge_only() -> Self {
        LayerPinned { layer: Layer::Edge, counter: 0 }
    }
}

impl PlacementPolicy for LayerPinned {
    fn name(&self) -> &'static str {
        match self.layer {
            Layer::Cloud => "cloud-only",
            Layer::Edge => "edge-only",
            Layer::Fog => "fog-only",
        }
    }

    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        use myrtus_workload::tosca::ComponentKind;
        let mut assignment = Vec::with_capacity(ctx.dag.nodes().len());
        for (i, dn) in ctx.dag.nodes().iter().enumerate() {
            let c = candidates_or_err(ctx, i)?;
            let comp = &ctx.app.components[dn.component_idx];
            let preferred: Vec<NodeId> = if comp.kind == ComponentKind::Sensor {
                c.iter()
                    .copied()
                    .filter(|n| {
                        ctx.sim.node(*n).map(|s| s.spec().layer() == Layer::Edge).unwrap_or(false)
                    })
                    .collect()
            } else {
                c.iter()
                    .copied()
                    .filter(|n| {
                        ctx.sim.node(*n).map(|s| s.spec().layer() == self.layer).unwrap_or(false)
                    })
                    .collect()
            };
            let pool = if preferred.is_empty() { c } else { &preferred[..] };
            assignment.push(pool[self.counter % pool.len()]);
            self.counter += 1;
        }
        Ok(Placement::new(assignment))
    }
}

/// Greedy best-fit: components in topological order, each on the node
/// minimizing the partial-placement objective (the strongest
/// non-cognitive heuristic).
#[derive(Debug, Default)]
pub struct GreedyBestFit {
    energy_weight: f64,
}

impl GreedyBestFit {
    /// Creates the policy with a latency-only objective.
    pub fn new() -> Self {
        GreedyBestFit { energy_weight: 0.0 }
    }

    /// Creates the policy with an energy-weighted objective (µs per J).
    pub fn with_energy_weight(energy_weight: f64) -> Self {
        GreedyBestFit { energy_weight }
    }
}

impl PlacementPolicy for GreedyBestFit {
    fn name(&self) -> &'static str {
        "greedy-best-fit"
    }

    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        // Start from each component's first candidate, then improve one
        // component at a time in topological order.
        let n = ctx.dag.nodes().len();
        let mut assignment = Vec::with_capacity(n);
        for i in 0..n {
            assignment.push(candidates_or_err(ctx, i)?[0]);
        }
        let mut placement = Placement::new(assignment);
        for &i in ctx.dag.topo_order() {
            let comp_idx = ctx.dag.nodes()[i].component_idx;
            // Try every candidate in place; the first strict improvement
            // in candidate order wins.
            let mut best = (placement.node_of(comp_idx), f64::INFINITY);
            for &cand in candidates_or_err(ctx, i)? {
                placement.reassign(comp_idx, cand);
                let score = evaluate(ctx, &placement).objective(self.energy_weight);
                if score < best.1 {
                    best = (cand, score);
                }
            }
            placement.reassign(comp_idx, best.0);
        }
        Ok(placement)
    }
}

/// Kubernetes-default-like scorer: each component goes to the
/// least-allocated feasible node by CPU utilization, ignoring the
/// application structure entirely (no cross-layer cognition).
#[derive(Debug, Default)]
pub struct KubeLike;

impl KubeLike {
    /// Creates the policy.
    pub fn new() -> Self {
        KubeLike
    }
}

impl PlacementPolicy for KubeLike {
    fn name(&self) -> &'static str {
        "kube-least-allocated"
    }

    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        let mut assignment = Vec::with_capacity(ctx.dag.nodes().len());
        for i in 0..ctx.dag.nodes().len() {
            let c = candidates_or_err(ctx, i)?;
            let best = c
                .iter()
                .copied()
                .min_by(|a, b| {
                    let ua = ctx.sim.node(*a).map(|s| s.utilization()).unwrap_or(1.0);
                    let ub = ctx.sim.node(*b).map(|s| s.utilization()).unwrap_or(1.0);
                    ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
                })
                .expect("candidates non-empty");
            assignment.push(best);
        }
        Ok(Placement::new(assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::net::RouteCache;
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
    fn all_baselines_produce_feasible_placements() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(RandomPlacement::new(3)),
            Box::new(LayerPinned::cloud_only()),
            Box::new(LayerPinned::edge_only()),
            Box::new(GreedyBestFit::new()),
            Box::new(KubeLike::new()),
        ];
        for p in &mut policies {
            let placement = p.place(&ctx).unwrap_or_else(|_| panic!("{}", p.name()));
            assert_eq!(placement.len(), f.dag.nodes().len(), "{}", p.name());
            assert!(evaluate(&ctx, &placement).feasible, "{}", p.name());
            assert!(!p.adaptive(), "{} is a static baseline", p.name());
        }
    }

    #[test]
    fn cloud_only_places_processing_in_the_cloud() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let placement = LayerPinned::cloud_only().place(&ctx).expect("feasible");
        // Component 0 is the camera sensor → edge; the rest → cloud.
        let cloud = f.continuum.cloud()[0];
        for i in 1..placement.len() {
            assert_eq!(placement.node_of(i), cloud, "component {i}");
        }
        let cam_layer = f.continuum.sim().node(placement.node_of(0)).map(|s| s.spec().layer());
        assert_eq!(cam_layer, Some(Layer::Edge));
    }

    #[test]
    fn greedy_beats_random_on_the_plan_model() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let greedy = GreedyBestFit::new().place(&ctx).expect("feasible");
        let random = RandomPlacement::new(1).place(&ctx).expect("feasible");
        let g = evaluate(&ctx, &greedy).objective(0.0);
        let r = evaluate(&ctx, &random).objective(0.0);
        assert!(g <= r, "greedy {g} must not lose to random {r}");
    }

    #[test]
    fn random_is_seed_deterministic() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let a = RandomPlacement::new(5).place(&ctx).expect("feasible");
        let b = RandomPlacement::new(5).place(&ctx).expect("feasible");
        assert_eq!(a, b);
    }

    #[test]
    fn empty_candidates_error() {
        let f = Fixture::new();
        let mut ctx = f.ctx();
        ctx.candidates[2] = vec![];
        let err = RoundRobin::new().place(&ctx).expect_err("no candidate");
        assert_eq!(err, PlaceError::NoCandidate { component: 2 });
        assert!(!err.to_string().is_empty());
    }
}
