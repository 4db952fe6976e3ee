//! Model-checks the shipped elastic scale-down path
//! (`myrtus_mirto::DeploymentProxy`).
//!
//! The model drives a real [`DeploymentProxy`] — federation, clusters,
//! pods, exactly as the elasticity controller uses it — through every
//! interleaving of `scale_up` / `scale_down` calls over a small set of
//! components and interchangeable candidate nodes, against an
//! independently maintained mirror of what the replica stacks *should*
//! contain.
//!
//! Checked invariants:
//! - **No lost pod / LIFO discipline**: `scale_down` returns exactly
//!   the node of the most recent surviving `scale_up` for that
//!   component, and the proxy's route table (`replica_nodes`) always
//!   equals the mirror.
//! - **No orphaned replica**: each candidate node's requested CPU
//!   equals its post-placement baseline plus the per-replica cost of
//!   exactly the replicas currently routed to it — an evicted replica
//!   must release its cluster resources (this is what the seeded
//!   `scale_down_leaks_pod` mutation breaks).
//! - **Primary is sacred**: scale-down never touches the primary pod
//!   of any component.
//!
//! Symmetry: candidate nodes live in the same layer cluster and
//! `Cluster::bind` is unconditional, so candidates are interchangeable
//! and fingerprints are canonicalized over candidate permutations.

use std::fmt;

use myrtus_continuum::ids::NodeId;
use myrtus_continuum::topology::ContinuumBuilder;
use myrtus_mirto::{DeploymentProxy, Placement};
use myrtus_workload::scenarios;
use myrtus_workload::tosca::Application;

use crate::{canonical_fingerprint, fingerprint_of, Model};

/// One explicit state: the real proxy plus the specification mirror.
#[derive(Debug, Clone)]
pub struct ScaleState {
    /// The production deployment proxy under test.
    pub proxy: DeploymentProxy,
    /// Per-component stack of candidate indices the proxy *should*
    /// hold, maintained by the model independently of the proxy.
    pub mirror: Vec<Vec<usize>>,
    ups_left: u32,
    violation: Option<String>,
}

/// One transition.
#[derive(Debug, Clone)]
pub enum ScaleAction {
    /// Bind an extra replica of a component on a candidate node.
    ScaleUp {
        /// Component index.
        comp: usize,
        /// Candidate node index.
        cand: usize,
    },
    /// Evict the newest replica of a component.
    ScaleDown {
        /// Component index.
        comp: usize,
    },
}

impl fmt::Display for ScaleAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleAction::ScaleUp { comp, cand } => {
                write!(f, "scale up component {comp} onto candidate node {cand}")
            }
            ScaleAction::ScaleDown { comp } => write!(f, "scale down component {comp}"),
        }
    }
}

/// The scale-down model: a telerehab deployment with its primaries
/// pinned to one edge node and replicas elastically spread over
/// interchangeable candidates.
#[derive(Debug)]
pub struct ScaleDownModel {
    app: Application,
    app_id: u16,
    comps: usize,
    primary: NodeId,
    candidates: Vec<NodeId>,
    /// Per-component replica pod CPU request, measured empirically from
    /// the real proxy at model construction.
    comp_cost: Vec<u32>,
    /// Requested CPU per candidate right after the initial placement.
    baseline: Vec<u32>,
    initial: DeploymentProxy,
    ups: u32,
}

impl ScaleDownModel {
    /// The instance used in CI: 3 components, 3 candidate edge nodes,
    /// and a scale-up budget of 7.
    pub fn small() -> Self {
        Self::with_budgets(3, 7)
    }

    /// Custom component count / scale-up budget for tests and tuning.
    ///
    /// # Panics
    ///
    /// Panics if the telerehab app has fewer than `comps` components or
    /// the default continuum fewer than four edge nodes.
    pub fn with_budgets(comps: usize, ups: u32) -> Self {
        let continuum = ContinuumBuilder::new().build();
        let app = scenarios::telerehab_with(1);
        assert!(app.components.len() >= comps, "telerehab is smaller than expected");
        assert!(continuum.edge().len() >= 4, "need a primary plus three candidates");
        let app_id = 7;
        let primary = continuum.edge()[0];
        let candidates = continuum.edge()[1..4].to_vec();

        let mut proxy = DeploymentProxy::new(continuum.sim());
        let placement = Placement::new(vec![primary; app.components.len()]);
        proxy.apply_placement(app_id, &app, &placement).expect("placement binds");

        let baseline: Vec<u32> =
            candidates.iter().map(|&c| proxy.requested_cpu_millis(c)).collect();
        // Measure each component's replica cost on a scratch clone so
        // the invariant checks against what the proxy actually binds,
        // not a re-derivation of its sizing heuristic.
        let comp_cost: Vec<u32> = (0..comps)
            .map(|comp| {
                let mut scratch = proxy.clone();
                let before = scratch.requested_cpu_millis(candidates[0]);
                scratch.scale_up(app_id, &app, comp, candidates[0]).expect("scale_up binds");
                scratch.requested_cpu_millis(candidates[0]) - before
            })
            .collect();

        ScaleDownModel {
            app,
            app_id,
            comps,
            primary,
            candidates,
            comp_cost,
            baseline,
            initial: proxy,
            ups,
        }
    }
}

impl Model for ScaleDownModel {
    type State = ScaleState;
    type Action = ScaleAction;

    fn name(&self) -> &'static str {
        "scaledown"
    }

    fn initial_states(&self) -> Vec<ScaleState> {
        vec![ScaleState {
            proxy: self.initial.clone(),
            mirror: vec![Vec::new(); self.comps],
            ups_left: self.ups,
            violation: None,
        }]
    }

    fn actions(&self, s: &ScaleState, out: &mut Vec<ScaleAction>) {
        for comp in 0..self.comps {
            if s.ups_left > 0 {
                for cand in 0..self.candidates.len() {
                    out.push(ScaleAction::ScaleUp { comp, cand });
                }
            }
            if !s.mirror[comp].is_empty() {
                out.push(ScaleAction::ScaleDown { comp });
            }
        }
    }

    fn apply(&self, s: &ScaleState, a: &ScaleAction) -> Option<ScaleState> {
        let mut next = s.clone();
        match a {
            ScaleAction::ScaleUp { comp, cand } => {
                next.ups_left -= 1;
                if let Err(e) =
                    next.proxy.scale_up(self.app_id, &self.app, *comp, self.candidates[*cand])
                {
                    next.violation = Some(format!("scale_up failed: {e:?}"));
                } else {
                    next.mirror[*comp].push(*cand);
                }
            }
            ScaleAction::ScaleDown { comp } => {
                let expected = next.mirror[*comp].pop().map(|c| self.candidates[c]);
                match next.proxy.scale_down(self.app_id, *comp) {
                    Ok(got) if got == expected => {}
                    Ok(got) => {
                        next.violation = Some(format!(
                            "LIFO violated: scale_down of component {comp} returned {got:?} \
                             but the newest replica was on {expected:?}"
                        ));
                    }
                    Err(e) => {
                        next.violation = Some(format!("scale_down failed: {e:?}"));
                    }
                }
            }
        }
        Some(next)
    }

    fn fingerprint(&self, s: &ScaleState) -> u64 {
        canonical_fingerprint(self.candidates.len(), |perm| {
            let mirror: Vec<Vec<usize>> =
                s.mirror.iter().map(|stack| stack.iter().map(|&c| perm[c]).collect()).collect();
            fingerprint_of(&(mirror, s.ups_left, s.violation.is_some()))
        })
    }

    fn check(&self, s: &ScaleState) -> Result<(), String> {
        if let Some(v) = &s.violation {
            return Err(v.clone());
        }
        for comp in 0..self.comps {
            // Route table mirrors the spec stack exactly, in order.
            let want: Vec<NodeId> = s.mirror[comp].iter().map(|&c| self.candidates[c]).collect();
            let got: Vec<NodeId> = s.proxy.replica_nodes(self.app_id, comp).collect();
            if got != want {
                return Err(format!(
                    "replica route table diverged for component {comp}: proxy says {got:?}, \
                     spec says {want:?}"
                ));
            }
            // The primary pod must still be where the placement put it.
            match s.proxy.pod_of(self.app_id, comp) {
                Some((_, _, node)) if node == self.primary => {}
                other => {
                    return Err(format!(
                        "primary pod of component {comp} disturbed: {other:?}, \
                         expected it on {:?}",
                        self.primary
                    ));
                }
            }
        }
        // Resource accounting: every evicted replica released its
        // requests, every live replica still holds exactly its cost.
        for (i, &cand) in self.candidates.iter().enumerate() {
            let live: u32 = (0..self.comps)
                .map(|comp| {
                    let count = s.mirror[comp].iter().filter(|&&c| c == i).count() as u32;
                    count * self.comp_cost[comp]
                })
                .sum();
            let want = self.baseline[i] + live;
            let got = s.proxy.requested_cpu_millis(cand);
            if got != want {
                return Err(format!(
                    "orphaned replica resources on candidate {i}: requested {got} millicores \
                     but live replicas account for {want} (a scaled-down pod was not evicted?)"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, Limits, Outcome, Strategy};

    #[test]
    fn small_instance_reaches_fixpoint() {
        let model = ScaleDownModel::with_budgets(2, 3);
        match explore(&model, Strategy::Bfs, &Limits::default()) {
            Outcome::Pass(stats) => assert!(stats.distinct_states > 10),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn candidates_are_symmetric() {
        let model = ScaleDownModel::with_budgets(2, 3);
        let init = &model.initial_states()[0];
        let a = model.apply(init, &ScaleAction::ScaleUp { comp: 0, cand: 0 }).unwrap();
        let b = model.apply(init, &ScaleAction::ScaleUp { comp: 0, cand: 2 }).unwrap();
        assert_eq!(model.fingerprint(&a), model.fingerprint(&b));
    }
}
