//! Swarm-intelligence placement (the Lakeside Labs contribution slot).
//!
//! Two canonical swarm optimizers search the discrete component→node
//! assignment space against the plan-time cost model: a discrete
//! Particle Swarm Optimizer (each particle is a full placement; velocity
//! acts as per-component switch probabilities toward personal/global
//! bests) and an Ant Colony Optimizer (pheromone per (component,
//! candidate) pair). Both implement
//! [`crate::policies::PlacementPolicy`] so the
//! orchestration experiments can swap them in directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use myrtus_continuum::ids::NodeId;

use crate::placement::{evaluate, Placement, PlanContext};
use crate::policies::{PlaceError, PlacementPolicy};

/// Convergence trace entry: best objective after each iteration.
pub type ConvergenceTrace = Vec<f64>;

/// Discrete PSO over placements.
#[derive(Debug)]
pub struct PsoPlacement {
    particles: usize,
    iterations: usize,
    inertia: f64,
    cognitive: f64,
    social: f64,
    energy_weight: f64,
    seed: u64,
    last_trace: ConvergenceTrace,
}

impl PsoPlacement {
    /// Creates a PSO with sensible defaults (24 particles, 40 iterations).
    pub fn new(seed: u64) -> Self {
        PsoPlacement {
            particles: 24,
            iterations: 40,
            inertia: 0.5,
            cognitive: 0.3,
            social: 0.4,
            energy_weight: 0.0,
            seed,
            last_trace: Vec::new(),
        }
    }

    /// Sets swarm size.
    pub fn with_particles(mut self, n: usize) -> Self {
        self.particles = n.max(2);
        self
    }

    /// Sets iteration budget.
    pub fn with_iterations(mut self, n: usize) -> Self {
        self.iterations = n.max(1);
        self
    }

    /// Sets the energy weight of the objective (µs per joule).
    pub fn with_energy_weight(mut self, w: f64) -> Self {
        self.energy_weight = w;
        self
    }

    /// Best-objective-so-far after each iteration of the last run.
    pub fn last_trace(&self) -> &[f64] {
        &self.last_trace
    }
}

/// Greedy coordinate descent: repeatedly sweeps the components, moving
/// each to its best candidate under the objective, until a full sweep
/// yields no improvement (memetic polish shared by PSO and ACO). Each
/// candidate is scored against the same base assignment, and the first
/// strict improvement in candidate order wins.
fn coordinate_polish(
    ctx: &PlanContext<'_>,
    mut assignment: Vec<NodeId>,
    objective: &dyn Fn(&[NodeId]) -> f64,
) -> (Vec<NodeId>, f64) {
    let mut best_score = objective(&assignment);
    loop {
        let mut improved = false;
        for d in 0..assignment.len() {
            let original = assignment[d];
            let mut best_here = (original, best_score);
            for &cand in ctx.candidates[d].iter().filter(|&&c| c != original) {
                assignment[d] = cand;
                let s = objective(&assignment);
                if s < best_here.1 {
                    best_here = (cand, s);
                }
            }
            assignment[d] = best_here.0;
            if best_here.1 < best_score {
                best_score = best_here.1;
                improved = true;
            }
        }
        if !improved {
            return (assignment, best_score);
        }
    }
}

fn random_assignment(ctx: &PlanContext<'_>, rng: &mut StdRng) -> Result<Vec<NodeId>, PlaceError> {
    let mut a = Vec::with_capacity(ctx.dag.nodes().len());
    for i in 0..ctx.dag.nodes().len() {
        let c = ctx.candidates.get(i).map(Vec::as_slice).unwrap_or(&[]);
        if c.is_empty() {
            return Err(PlaceError::NoCandidate { component: i });
        }
        a.push(c[rng.gen_range(0..c.len())]);
    }
    Ok(a)
}

impl PlacementPolicy for PsoPlacement {
    fn name(&self) -> &'static str {
        "swarm-pso"
    }

    fn adaptive(&self) -> bool {
        true
    }

    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let dims = ctx.dag.nodes().len();
        let objective =
            |a: &[NodeId]| evaluate(ctx, &Placement::new(a.to_vec())).objective(self.energy_weight);

        let mut positions: Vec<Vec<NodeId>> = Vec::with_capacity(self.particles);
        // Seed part of the swarm with co-location candidates (everything
        // on one node): for data-heavy pipelines those are the deep
        // basins a pure random init easily misses. Keep the best-scoring
        // seeds so half the swarm starts in the strongest basins.
        let mut colocation_seeds: Vec<Vec<NodeId>> = ctx
            .candidates
            .first()
            .map(|c0| {
                c0.iter()
                    .filter(|n| ctx.candidates.iter().all(|c| c.contains(n)))
                    .map(|&n| vec![n; dims])
                    .collect()
            })
            .unwrap_or_default();
        colocation_seeds.sort_by(|a, b| {
            objective(a).partial_cmp(&objective(b)).unwrap_or(std::cmp::Ordering::Equal)
        });
        for seed in colocation_seeds.into_iter().take(self.particles / 2) {
            positions.push(seed);
        }
        while positions.len() < self.particles {
            positions.push(random_assignment(ctx, &mut rng)?);
        }
        let mut personal_best = positions.clone();
        let mut personal_score: Vec<f64> = personal_best.iter().map(|p| objective(p)).collect();
        let leader = (0..self.particles)
            .min_by(|&a, &b| {
                personal_score[a]
                    .partial_cmp(&personal_score[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty swarm");
        let mut global_best = personal_best[leader].clone();
        let mut global_score = personal_score[leader];

        self.last_trace.clear();
        // Batch-synchronous sweeps: every particle of an iteration moves
        // against the global best of the *previous* iteration; the moved
        // swarm is then scored and the bests are folded in particle
        // order. This update order is part of the pinned results.
        for iter in 0..self.iterations {
            for p in 0..self.particles {
                // Periodic scatter: one quarter of the swarm restarts from
                // a fresh random position every few iterations, which keeps
                // global exploration alive after the swarm contracts.
                if iter > 0 && iter % 5 == 0 && p % 4 == 0 {
                    positions[p] = random_assignment(ctx, &mut rng)?;
                } else {
                    for d in 0..dims {
                        let r: f64 = rng.gen();
                        // Move toward personal best, global best, or explore.
                        if r < self.social {
                            positions[p][d] = global_best[d];
                        } else if r < self.social + self.cognitive {
                            positions[p][d] = personal_best[p][d];
                        } else if r < self.social + self.cognitive + (1.0 - self.inertia) * 0.3 {
                            let c = &ctx.candidates[d];
                            positions[p][d] = c[rng.gen_range(0..c.len())];
                        }
                    }
                }
            }
            for (p, position) in positions.iter().enumerate() {
                let score = objective(position);
                if score < personal_score[p] {
                    personal_score[p] = score;
                    personal_best[p] = position.clone();
                    if score < global_score {
                        global_score = score;
                        global_best = position.clone();
                    }
                }
            }
            self.last_trace.push(global_score);
        }
        let (polished, score) = coordinate_polish(ctx, global_best, &objective);
        if let Some(last) = self.last_trace.last_mut() {
            *last = score.min(*last);
        }
        Ok(Placement::new(polished))
    }
}

/// Ant Colony Optimization over placements.
#[derive(Debug)]
pub struct AcoPlacement {
    ants: usize,
    iterations: usize,
    evaporation: f64,
    deposit: f64,
    energy_weight: f64,
    seed: u64,
    last_trace: ConvergenceTrace,
}

impl AcoPlacement {
    /// Creates an ACO with sensible defaults (16 ants, 40 iterations).
    pub fn new(seed: u64) -> Self {
        AcoPlacement {
            ants: 16,
            iterations: 40,
            evaporation: 0.15,
            deposit: 1.0,
            energy_weight: 0.0,
            seed,
            last_trace: Vec::new(),
        }
    }

    /// Sets colony size.
    pub fn with_ants(mut self, n: usize) -> Self {
        self.ants = n.max(1);
        self
    }

    /// Sets iteration budget.
    pub fn with_iterations(mut self, n: usize) -> Self {
        self.iterations = n.max(1);
        self
    }

    /// Sets the energy weight of the objective (µs per joule).
    pub fn with_energy_weight(mut self, w: f64) -> Self {
        self.energy_weight = w;
        self
    }

    /// Best-objective-so-far after each iteration of the last run.
    pub fn last_trace(&self) -> &[f64] {
        &self.last_trace
    }
}

impl PlacementPolicy for AcoPlacement {
    fn name(&self) -> &'static str {
        "swarm-aco"
    }

    fn adaptive(&self) -> bool {
        true
    }

    fn place(&mut self, ctx: &PlanContext<'_>) -> Result<Placement, PlaceError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let dims = ctx.dag.nodes().len();
        for i in 0..dims {
            if ctx.candidates.get(i).is_none_or(Vec::is_empty) {
                return Err(PlaceError::NoCandidate { component: i });
            }
        }
        let objective =
            |a: &[NodeId]| evaluate(ctx, &Placement::new(a.to_vec())).objective(self.energy_weight);
        // Pheromone per (component, candidate index).
        let mut pheromone: Vec<Vec<f64>> =
            ctx.candidates.iter().map(|c| vec![1.0; c.len()]).collect();
        let mut global_best: Option<(Vec<NodeId>, f64)> = None;

        self.last_trace.clear();
        for _ in 0..self.iterations {
            // Batch-synchronous colony: every ant walks the pheromone of
            // the previous iteration, and the trail update waits until the
            // whole colony has walked. This update order is part of the
            // pinned results.
            let mut iteration_best: Option<(Vec<usize>, f64)> = None;
            for _ in 0..self.ants {
                let mut choice_idx = Vec::with_capacity(dims);
                #[allow(clippy::needless_range_loop)]
                for d in 0..dims {
                    let total: f64 = pheromone[d].iter().sum();
                    let mut pick = rng.gen::<f64>() * total;
                    let mut chosen = pheromone[d].len() - 1;
                    for (k, &ph) in pheromone[d].iter().enumerate() {
                        if pick < ph {
                            chosen = k;
                            break;
                        }
                        pick -= ph;
                    }
                    choice_idx.push(chosen);
                }
                let assignment: Vec<NodeId> =
                    choice_idx.iter().enumerate().map(|(d, &k)| ctx.candidates[d][k]).collect();
                let score = objective(&assignment);
                if iteration_best.as_ref().is_none_or(|(_, s)| score < *s) {
                    iteration_best = Some((choice_idx, score));
                }
                if global_best.as_ref().is_none_or(|(_, s)| score < *s) {
                    global_best = Some((assignment, score));
                }
            }
            // Evaporate, then deposit along the iteration-best trail.
            for row in &mut pheromone {
                for ph in row.iter_mut() {
                    *ph *= 1.0 - self.evaporation;
                    *ph = ph.max(0.01);
                }
            }
            if let Some((trail, score)) = iteration_best {
                let amount = self.deposit / (1.0 + score / 1_000.0);
                for (d, &k) in trail.iter().enumerate() {
                    pheromone[d][k] += amount;
                }
            }
            self.last_trace.push(global_best.as_ref().map(|(_, s)| *s).unwrap_or(f64::INFINITY));
        }
        let (best, _) = global_best.expect("at least one ant ran");
        let (polished, score) = coordinate_polish(ctx, best, &objective);
        if let Some(last) = self.last_trace.last_mut() {
            *last = score.min(*last);
        }
        Ok(Placement::new(polished))
    }
}

/// Exhaustively evaluates every placement (only viable for tiny spaces);
/// the optimality reference for the swarm experiments.
pub fn exhaustive_best(ctx: &PlanContext<'_>, energy_weight: f64) -> Option<(Placement, f64)> {
    let dims = ctx.dag.nodes().len();
    let sizes: Vec<usize> = ctx.candidates.iter().map(Vec::len).collect();
    if sizes.contains(&0) {
        return None;
    }
    // A checked product: candidates^components passes `usize` long
    // before it would be worth enumerating.
    let space = sizes.iter().try_fold(1usize, |acc, &k| acc.checked_mul(k))?;
    if space > 2_000_000 {
        return None;
    }
    let mut best: Option<(Vec<NodeId>, f64)> = None;
    let mut counter = vec![0usize; dims];
    loop {
        let assignment: Vec<NodeId> =
            counter.iter().enumerate().map(|(d, &k)| ctx.candidates[d][k]).collect();
        let score = evaluate(ctx, &Placement::new(assignment.clone())).objective(energy_weight);
        if best.as_ref().is_none_or(|(_, s)| score < *s) {
            best = Some((assignment, score));
        }
        // Odometer increment.
        let mut d = 0;
        loop {
            if d == dims {
                let (a, s) = best.expect("space non-empty");
                return Some((Placement::new(a), s));
            }
            counter[d] += 1;
            if counter[d] < sizes[d] {
                break;
            }
            counter[d] = 0;
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::topology::ContinuumBuilder;
    use myrtus_kb::KnowledgeBase;
    use myrtus_workload::graph::RequestDag;
    use myrtus_workload::scenarios;

    struct Fixture {
        continuum: myrtus_continuum::topology::Continuum,
        app: myrtus_workload::tosca::Application,
        dag: RequestDag,
        kb: KnowledgeBase,
    }

    impl Fixture {
        fn new() -> Self {
            let continuum = ContinuumBuilder::new().build();
            let app = scenarios::telerehab();
            let dag = RequestDag::from_application(&app).expect("valid");
            Fixture { continuum, app, dag, kb: KnowledgeBase::new() }
        }

        fn ctx(&self) -> PlanContext<'_> {
            let all: Vec<NodeId> = self.continuum.all_nodes();
            PlanContext {
                sim: self.continuum.sim(),
                kb: &self.kb,
                app: &self.app,
                dag: &self.dag,
                candidates: vec![all; self.dag.nodes().len()],
                estimator: None,
                obs: myrtus_obs::Obs::disabled(),
            }
        }
    }

    #[test]
    fn pso_converges_monotonically() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut pso = PsoPlacement::new(3).with_iterations(30);
        let placement = pso.place(&ctx).expect("feasible");
        assert!(evaluate(&ctx, &placement).feasible);
        let trace = pso.last_trace();
        assert_eq!(trace.len(), 30);
        assert!(trace.windows(2).all(|w| w[1] <= w[0]), "best-so-far never worsens");
        assert!(trace.last().expect("non-empty") <= &trace[0]);
    }

    #[test]
    fn aco_converges_monotonically() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut aco = AcoPlacement::new(3).with_iterations(30);
        let placement = aco.place(&ctx).expect("feasible");
        assert!(evaluate(&ctx, &placement).feasible);
        let trace = aco.last_trace();
        assert!(trace.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn swarms_match_exhaustive_on_a_tiny_space() {
        let f = Fixture::new();
        let mut ctx = f.ctx();
        // Restrict to 3 candidates per component → 3^5 = 243 placements.
        let pool = vec![f.continuum.edge()[0], f.continuum.fmdcs()[0], f.continuum.cloud()[0]];
        ctx.candidates = vec![pool; f.dag.nodes().len()];
        let (_, best_score) = exhaustive_best(&ctx, 0.0).expect("small space");
        let mut pso = PsoPlacement::new(1).with_iterations(60).with_particles(30);
        let p = pso.place(&ctx).expect("feasible");
        let pso_score = evaluate(&ctx, &p).objective(0.0);
        assert!(pso_score <= best_score * 1.05 + 1.0, "pso {pso_score} vs optimal {best_score}");
    }

    #[test]
    fn swarms_beat_or_match_random_restarts() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut best_random = f64::INFINITY;
        for seed in 0..10 {
            let p = crate::policies::RandomPlacement::new(seed).place(&ctx).expect("ok");
            best_random = best_random.min(evaluate(&ctx, &p).objective(0.0));
        }
        let mut pso = PsoPlacement::new(5).with_iterations(40);
        let p = pso.place(&ctx).expect("ok");
        let pso_score = evaluate(&ctx, &p).objective(0.0);
        assert!(
            pso_score <= best_random * 1.01,
            "pso {pso_score} vs 10-restart random {best_random}"
        );
    }

    #[test]
    fn swarm_is_seed_deterministic() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let a = PsoPlacement::new(9).place(&ctx).expect("ok");
        let b = PsoPlacement::new(9).place(&ctx).expect("ok");
        assert_eq!(a, b);
    }

    #[test]
    fn missing_candidates_propagate_error() {
        let f = Fixture::new();
        let mut ctx = f.ctx();
        ctx.candidates[1] = vec![];
        assert!(PsoPlacement::new(1).place(&ctx).is_err());
        assert!(AcoPlacement::new(1).place(&ctx).is_err());
        assert!(exhaustive_best(&ctx, 0.0).is_none());
    }

    #[test]
    fn exhaustive_best_refuses_spaces_past_its_limit() {
        let f = Fixture::new();
        let mut ctx = f.ctx();
        let all = f.continuum.all_nodes();
        assert_eq!(all.len(), 11);
        // 11^7 = 19,487,171: past the limit.
        ctx.candidates = vec![all.clone(); 7];
        assert!(exhaustive_best(&ctx, 0.0).is_none());
        // 11^19 and 4^32 = 2^64 overflow `usize`: refused, not wrapped.
        ctx.candidates = vec![all.clone(); 19];
        assert!(exhaustive_best(&ctx, 0.0).is_none());
        ctx.candidates = vec![all[..4].to_vec(); 32];
        assert!(exhaustive_best(&ctx, 0.0).is_none());
    }
}
