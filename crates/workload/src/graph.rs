//! Request-level dataflow DAG derived from a TOSCA application.
//!
//! The MIRTO WL Manager plans placements over the *per-request* task
//! graph: one node per component, edges carrying the per-request data
//! volume. [`RequestDag`] provides topological order, stage depths and a
//! critical-path latency estimator used by deployment-time planning.

use myrtus_continuum::time::SimDuration;

use crate::tosca::{Application, ValidateAppError};

/// One node of the request DAG (mirrors a component).
#[derive(Debug, Clone, PartialEq)]
pub struct DagNode {
    /// Component name.
    pub name: String,
    /// Index into [`Application::components`].
    pub component_idx: usize,
    /// Per-request work, megacycles.
    pub work_mc: f64,
    /// Indices of upstream nodes.
    pub preds: Vec<usize>,
    /// `(downstream node, bytes)` pairs.
    pub succs: Vec<(usize, u64)>,
}

/// Per-request dataflow DAG of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestDag {
    nodes: Vec<DagNode>,
    topo: Vec<usize>,
}

impl RequestDag {
    /// Builds the DAG from a validated application.
    ///
    /// # Errors
    ///
    /// Returns the application's validation error if it is malformed.
    pub fn from_application(app: &Application) -> Result<RequestDag, ValidateAppError> {
        app.validate()?;
        let index_of = |name: &str| -> usize {
            app.components
                .iter()
                .position(|c| c.name == name)
                .expect("validated component reference")
        };
        let mut nodes: Vec<DagNode> = app
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| DagNode {
                name: c.name.clone(),
                component_idx: i,
                work_mc: c.requirements.work_mc,
                preds: Vec::new(),
                succs: Vec::new(),
            })
            .collect();
        for conn in &app.connections {
            let f = index_of(&conn.from);
            let t = index_of(&conn.to);
            nodes[f].succs.push((t, conn.bytes_per_req));
            nodes[t].preds.push(f);
        }
        // Kahn topological order (validation guarantees acyclicity).
        let mut indeg: Vec<usize> = nodes.iter().map(|n| n.preds.len()).collect();
        let mut ready: Vec<usize> =
            indeg.iter().enumerate().filter(|(_, d)| **d == 0).map(|(i, _)| i).collect();
        ready.sort_unstable();
        let mut topo = Vec::with_capacity(nodes.len());
        while let Some(i) = ready.pop() {
            topo.push(i);
            for &(s, _) in &nodes[i].succs {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert_eq!(topo.len(), nodes.len());
        Ok(RequestDag { nodes, topo })
    }

    /// Nodes in declaration order.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// Node indices in a valid topological order.
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }

    /// Entry nodes (no predecessors).
    pub fn sources(&self) -> Vec<usize> {
        self.nodes.iter().enumerate().filter(|(_, n)| n.preds.is_empty()).map(|(i, _)| i).collect()
    }

    /// Predecessor lists per node, in declaration order — the adjacency
    /// shape consumed by `myrtus_obs::span::causal_chain` for measured
    /// critical-path extraction.
    pub fn preds_table(&self) -> Vec<Vec<usize>> {
        self.nodes.iter().map(|n| n.preds.clone()).collect()
    }

    /// Exit nodes (no successors).
    pub fn sinks(&self) -> Vec<usize> {
        self.nodes.iter().enumerate().filter(|(_, n)| n.succs.is_empty()).map(|(i, _)| i).collect()
    }

    /// Total software work of one request, megacycles.
    pub fn total_work_mc(&self) -> f64 {
        self.nodes.iter().map(|n| n.work_mc).sum()
    }

    /// Total bytes moved per request.
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().flat_map(|n| n.succs.iter().map(|(_, b)| *b)).sum()
    }

    /// Critical-path latency estimate when every node computes at
    /// `speed_mc_per_us` and every edge streams at `bytes_per_us`.
    ///
    /// This is the lower bound the DPE reports as a model-based KPI.
    pub fn critical_path(&self, speed_mc_per_us: f64, bytes_per_us: f64) -> SimDuration {
        let mut finish = vec![0.0f64; self.nodes.len()];
        for &i in &self.topo {
            let n = &self.nodes[i];
            let ready = n
                .preds
                .iter()
                .map(|&p| {
                    let edge = self.nodes[p]
                        .succs
                        .iter()
                        .find(|(s, _)| *s == i)
                        .map(|(_, b)| *b)
                        .unwrap_or(0);
                    finish[p] + edge as f64 / bytes_per_us.max(f64::EPSILON)
                })
                .fold(0.0f64, f64::max);
            finish[i] = ready + n.work_mc / speed_mc_per_us.max(f64::EPSILON);
        }
        SimDuration::from_micros_f64(finish.iter().copied().fold(0.0, f64::max))
    }

    /// Stage depth of every node (longest hop count from a source).
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.nodes.len()];
        for &i in &self.topo {
            for &p in &self.nodes[i].preds {
                depth[i] = depth[i].max(depth[p] + 1);
            }
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalSpec;
    use crate::tosca::{Component, ComponentKind};
    use myrtus_continuum::net::Protocol;

    fn diamond() -> Application {
        Application::new("d", ArrivalSpec::periodic(SimDuration::from_millis(1), 1))
            .with_component(Component::new("src", ComponentKind::Sensor).with_work_mc(1.0))
            .with_component(Component::new("a", ComponentKind::Function).with_work_mc(4.0))
            .with_component(Component::new("b", ComponentKind::Function).with_work_mc(2.0))
            .with_component(Component::new("sink", ComponentKind::Storage).with_work_mc(1.0))
            .with_connection("src", "a", 1_000, Protocol::Mqtt)
            .with_connection("src", "b", 1_000, Protocol::Mqtt)
            .with_connection("a", "sink", 500, Protocol::Mqtt)
            .with_connection("b", "sink", 500, Protocol::Mqtt)
    }

    #[test]
    fn topo_order_respects_edges() {
        let dag = RequestDag::from_application(&diamond()).expect("valid");
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.nodes().len()];
            for (rank, &i) in dag.topo_order().iter().enumerate() {
                p[i] = rank;
            }
            p
        };
        for (i, n) in dag.nodes().iter().enumerate() {
            for &(s, _) in &n.succs {
                assert!(pos[i] < pos[s], "{} before {}", n.name, dag.nodes()[s].name);
            }
        }
    }

    #[test]
    fn sources_and_sinks() {
        let dag = RequestDag::from_application(&diamond()).expect("valid");
        assert_eq!(dag.sources(), vec![0]);
        assert_eq!(dag.sinks(), vec![3]);
    }

    #[test]
    fn critical_path_takes_the_longer_branch() {
        let dag = RequestDag::from_application(&diamond()).expect("valid");
        // speed 1 mc/us, 1000 bytes/us: path src→a→sink = 1+1+4+0.5+1 = 7.5 us.
        let cp = dag.critical_path(1.0, 1_000.0);
        assert_eq!(cp.as_micros(), 8); // 7.5 rounds to 8
                                       // Infinite-ish bandwidth: 1+4+1 = 6 us.
        let cp2 = dag.critical_path(1.0, 1e12);
        assert_eq!(cp2.as_micros(), 6);
    }

    #[test]
    fn totals() {
        let dag = RequestDag::from_application(&diamond()).expect("valid");
        assert!((dag.total_work_mc() - 8.0).abs() < 1e-12);
        assert_eq!(dag.total_bytes(), 3_000);
    }

    #[test]
    fn depths_increase_along_paths() {
        let dag = RequestDag::from_application(&diamond()).expect("valid");
        let d = dag.depths();
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 1);
        assert_eq!(d[3], 2);
    }

    #[test]
    fn invalid_application_is_rejected() {
        let app = diamond().with_connection("sink", "src", 1, Protocol::Coap);
        assert!(RequestDag::from_application(&app).is_err());
    }
}
