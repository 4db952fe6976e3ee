//! The three-step DPE flow of paper Fig. 4.
//!
//! 1. **Continuum modeling, simulation and analysis** — validate the
//!    TOSCA model, estimate model-based KPIs (end-to-end latency lower
//!    bound), build the Attack-Defence Tree and synthesize
//!    countermeasures.
//! 2. **Model to implementation** — portion the application into
//!    software components and acceleratable kernels (resolved from the
//!    kernel library and fused).
//! 3. **Node-level optimisation and deployment** — HLS-estimate the
//!    kernels, run the DSE for the mapping metadata, and emit the
//!    deployment specification (executables, bitstreams, swarm rules,
//!    countermeasure snippets, operating points) for MIRTO.

use myrtus_security::adt::{standard_defense_library, Adt, Gate};
use myrtus_workload::graph::RequestDag;
use myrtus_workload::opset::AppPointSet;
use myrtus_workload::tosca::{Application, SecurityTier, ValidateAppError};

use crate::deploy::{Artifact, ArtifactKind, DeploymentSpec};
use crate::dse::{explore, standard_edge_platform, DseResult};
use crate::hls::estimate_graph;
use crate::ir::{DataflowGraph, IrError};
use crate::kernels::kernel_for;
use crate::transform::fuse_linear_chains;

/// Errors across the flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The application topology is invalid.
    Topology(ValidateAppError),
    /// A kernel graph is invalid.
    Kernel(IrError),
    /// A component requests an unknown accelerator configuration.
    UnknownKernel {
        /// The component.
        component: String,
        /// The unresolved configuration id.
        accel_cfg: u32,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Topology(e) => write!(f, "topology: {e}"),
            FlowError::Kernel(e) => write!(f, "kernel: {e}"),
            FlowError::UnknownKernel { component, accel_cfg } => {
                write!(f, "component {component:?} requests unknown kernel {accel_cfg}")
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl From<ValidateAppError> for FlowError {
    fn from(e: ValidateAppError) -> Self {
        FlowError::Topology(e)
    }
}

impl From<IrError> for FlowError {
    fn from(e: IrError) -> Self {
        FlowError::Kernel(e)
    }
}

/// Step-1 output: KPI estimates and threat analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Lower-bound end-to-end latency (reference platform), microseconds.
    pub critical_path_us: f64,
    /// Root attack success probability with no defenses.
    pub base_risk: f64,
    /// Synthesized countermeasure names.
    pub countermeasures: Vec<String>,
    /// Residual risk after countermeasures.
    pub residual_risk: f64,
}

/// Step-1: modeling, simulation and analysis.
///
/// # Errors
///
/// Returns [`FlowError::Topology`] for invalid applications.
pub fn step1_analyze(app: &Application) -> Result<AnalysisReport, FlowError> {
    let dag = RequestDag::from_application(app)?;
    // Reference platform: a 1.5 GHz core (1.5e-3 mc/µs) and 100 Mbit/s
    // links (12.5 bytes/µs).
    let cp = dag.critical_path(1.5e-3, 12.5);

    // ADT: the root goal "compromise application data" is reachable by
    // eavesdropping any under-protected connection OR breaching the
    // weakest host running a sensitive component.
    let mut adt = Adt::new();
    // Root leaf placeholder replaced by a built tree: node 0 must be root.
    let eaves_prob = |tier: SecurityTier| match tier {
        SecurityTier::Low => 0.5,
        SecurityTier::Medium => 0.3,
        SecurityTier::High => 0.15,
    };
    // Build leaves after root: create root as OR over children added next.
    // Adt requires children ids before the inner node, so build leaves
    // first into a staging Vec, then the root — but root must be node 0.
    // Trick: create a staging tree, then rebuild with root first.
    let mut staging: Vec<(String, f64)> = Vec::new();
    for conn in &app.connections {
        let tier =
            app.component(&conn.to).map(|c| c.requirements.security).unwrap_or(SecurityTier::Low);
        staging.push((format!("eavesdrop:{}->{}", conn.from, conn.to), eaves_prob(tier)));
    }
    for comp in &app.components {
        if comp.requirements.security >= SecurityTier::Medium {
            staging.push((format!("breach-host:{}", comp.name), 0.25));
        }
    }
    if staging.is_empty() {
        staging.push(("opportunistic-probe".to_string(), 0.2));
    }
    // Root at index 0: an OR gate whose children follow.
    let child_ids: Vec<usize> = (1..=staging.len()).collect();
    adt.inner("compromise-application-data", Gate::Or, child_ids);
    let mut leaf_ids = Vec::new();
    for (name, prob) in &staging {
        leaf_ids.push(adt.leaf(name.clone(), *prob));
    }
    let defenses = standard_defense_library(&mut adt);
    // Attach: link-encryption defenses to eavesdrop leaves, host defenses
    // to breach leaves.
    for (&leaf, (name, _)) in leaf_ids.iter().zip(&staging) {
        if name.starts_with("eavesdrop") {
            for &d in &defenses[0..3] {
                let _ = adt.attach(leaf, d);
            }
        } else {
            for &d in &defenses[3..6] {
                let _ = adt.attach(leaf, d);
            }
        }
    }
    let base_risk = adt.success_probability(0, &[]).expect("tree is non-empty");
    let (picked, residual_risk) = adt.synthesize(8.0, 0.05).expect("tree is non-empty");
    let countermeasures = picked.iter().map(|&d| adt.defenses()[d].name.clone()).collect();
    Ok(AnalysisReport {
        critical_path_us: cp.as_micros() as f64,
        base_risk,
        countermeasures,
        residual_risk,
    })
}

/// Step-2 output: the portioned application.
#[derive(Debug, Clone, PartialEq)]
pub struct PortionedApp {
    /// The source application.
    pub app: Application,
    /// Components compiled as plain software.
    pub sw_components: Vec<String>,
    /// Components with accelerator kernels: `(component, fused graph)`.
    pub hw_kernels: Vec<(String, DataflowGraph)>,
}

/// Step-2: model → implementation portioning.
///
/// # Errors
///
/// Returns [`FlowError::UnknownKernel`] for unresolved accelerator ids.
pub fn step2_portion(app: &Application) -> Result<PortionedApp, FlowError> {
    app.validate()?;
    let mut sw = Vec::new();
    let mut hw = Vec::new();
    for comp in &app.components {
        match comp.requirements.accel_cfg {
            Some(cfg) => {
                let graph = kernel_for(cfg).ok_or_else(|| FlowError::UnknownKernel {
                    component: comp.name.clone(),
                    accel_cfg: cfg,
                })?;
                hw.push((comp.name.clone(), fuse_linear_chains(&graph)?));
            }
            None => sw.push(comp.name.clone()),
        }
    }
    Ok(PortionedApp { app: app.clone(), sw_components: sw, hw_kernels: hw })
}

/// Step-3 output bundle.
#[derive(Debug, Clone)]
pub struct NodeLevelResult {
    /// The deployment specification for MIRTO.
    pub spec: DeploymentSpec,
    /// Per-kernel DSE results, component order.
    pub dse: Vec<(String, DseResult)>,
}

/// Step-3: node-level optimisation and deployment generation.
///
/// # Errors
///
/// Propagates kernel estimation / exploration errors.
pub fn step3_generate(
    portioned: &PortionedApp,
    analysis: &AnalysisReport,
) -> Result<NodeLevelResult, FlowError> {
    let mut artifacts = Vec::new();
    for name in &portioned.sw_components {
        let work = portioned.app.component(name).map(|c| c.requirements.work_mc).unwrap_or(1.0);
        artifacts.push(Artifact {
            name: format!("{name}.elf"),
            kind: ArtifactKind::Executable,
            component: name.clone(),
            size_bytes: 64_000 + (work * 2_000.0) as u64,
        });
    }
    let platform = standard_edge_platform();
    let mut dse_results = Vec::new();
    for (name, graph) in &portioned.hw_kernels {
        let est = estimate_graph(graph)?;
        artifacts.push(Artifact {
            name: format!("{name}.bit"),
            kind: ArtifactKind::Bitstream,
            component: name.clone(),
            // Bitstream size scales with the configured fabric area.
            size_bytes: 200_000 + est.total_resources.area_units() * 16,
        });
        let dse = explore(graph, &platform, 11, 8)?;
        dse_results.push((name.clone(), dse));
    }
    artifacts.push(Artifact {
        name: "swarm-rules.frevo".into(),
        kind: ArtifactKind::SwarmRules,
        component: "mirto-manager".into(),
        size_bytes: 4_096,
    });
    for cm in &analysis.countermeasures {
        artifacts.push(Artifact {
            name: format!("{cm}.snippet"),
            kind: ArtifactKind::Countermeasure,
            component: "security".into(),
            size_bytes: 2_048,
        });
    }
    let spec = DeploymentSpec {
        application: portioned.app.clone(),
        artifacts,
        operating_points: AppPointSet::standard_ladder(),
        estimated_latency_us: analysis.critical_path_us,
        residual_risk: analysis.residual_risk,
    };
    Ok(NodeLevelResult { spec, dse: dse_results })
}

/// Runs all three steps end to end.
///
/// # Errors
///
/// Propagates the first failing step's error.
pub fn run_flow(app: &Application) -> Result<NodeLevelResult, FlowError> {
    let analysis = step1_analyze(app)?;
    let portioned = step2_portion(app)?;
    step3_generate(&portioned, &analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_workload::scenarios;

    #[test]
    fn analysis_produces_kpis_and_countermeasures() {
        let report = step1_analyze(&scenarios::telerehab()).expect("valid");
        assert!(report.critical_path_us > 0.0);
        assert!(report.base_risk > 0.0 && report.base_risk <= 1.0);
        assert!(report.residual_risk < report.base_risk);
        assert!(!report.countermeasures.is_empty());
    }

    #[test]
    fn portioning_splits_sw_and_hw() {
        let p = step2_portion(&scenarios::telerehab()).expect("valid");
        // camera, score, session-store are software; preproc & pose have
        // kernels.
        assert_eq!(p.sw_components.len(), 3);
        assert_eq!(p.hw_kernels.len(), 2);
        for (_, g) in &p.hw_kernels {
            g.validate().expect("fused kernels stay valid");
        }
    }

    #[test]
    fn unknown_kernel_is_reported() {
        let mut app = scenarios::telerehab();
        app.components[2].requirements.accel_cfg = Some(777);
        let err = step2_portion(&app).expect_err("unknown kernel");
        assert!(matches!(err, FlowError::UnknownKernel { accel_cfg: 777, .. }));
    }

    #[test]
    fn full_flow_emits_a_complete_package() {
        let result = run_flow(&scenarios::telerehab()).expect("valid");
        let spec = &result.spec;
        let kinds: Vec<ArtifactKind> = spec.artifacts.iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&ArtifactKind::Executable));
        assert!(kinds.contains(&ArtifactKind::Bitstream));
        assert!(kinds.contains(&ArtifactKind::SwarmRules));
        assert!(kinds.contains(&ArtifactKind::Countermeasure));
        assert!(spec.estimated_latency_us > 0.0);
        assert_eq!(result.dse.len(), 2);
        for (name, dse) in &result.dse {
            assert!(!dse.front.is_empty(), "{name} has a Pareto front");
        }
        // Spec round-trips through the package format.
        let text = spec.to_package();
        let back = DeploymentSpec::from_package(&text).expect("parses");
        assert_eq!(&back, spec);
    }

    #[test]
    fn flow_handles_mobility_scenario_too() {
        let result = run_flow(&scenarios::smart_mobility()).expect("valid");
        assert_eq!(result.dse.len(), 2, "detect + fusion kernels");
        assert!(result.spec.artifacts.iter().any(|a| a.name == "detect.bit"));
    }

    #[test]
    fn invalid_topology_fails_step1() {
        let app = Application::new(
            "empty",
            myrtus_workload::arrival::ArrivalSpec::periodic(
                myrtus_continuum::time::SimDuration::from_millis(1),
                1,
            ),
        );
        assert!(matches!(step1_analyze(&app), Err(FlowError::Topology(_))));
    }
}
