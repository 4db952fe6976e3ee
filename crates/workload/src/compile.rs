//! Compiling TOSCA applications into executable request streams.
//!
//! The DPE hands MIRTO a deployment specification; at run time each
//! arrival of an [`crate::tosca::Application`] becomes a
//! [`CompiledRequest`]: the per-request DAG instantiated with concrete
//! work, data volumes and a correlation [`Tag`] per stage, ready for the
//! WL Manager to place onto continuum nodes.

use myrtus_continuum::time::{SimDuration, SimTime};

use crate::graph::RequestDag;
use crate::opset::AppOperatingPoint;
use crate::tosca::{Application, SecurityTier, ValidateAppError};

/// Packed correlation tag: `application (16 bit) | request (32 bit) |
/// stage (16 bit)`. Travels in
/// [`TaskInstance::tag`](myrtus_continuum::task::TaskInstance) so drivers
/// can attribute completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Application id.
    pub app: u16,
    /// Request ordinal within the application.
    pub request: u32,
    /// Stage (DAG node) ordinal.
    pub stage: u16,
}

impl Tag {
    /// Packs the tag into a `u64`.
    pub fn encode(self) -> u64 {
        ((self.app as u64) << 48) | ((self.request as u64) << 16) | self.stage as u64
    }

    /// Unpacks a tag.
    pub fn decode(raw: u64) -> Tag {
        Tag {
            app: (raw >> 48) as u16,
            request: ((raw >> 16) & 0xFFFF_FFFF) as u32,
            stage: (raw & 0xFFFF) as u16,
        }
    }
}

/// One stage (DAG node) of a compiled request.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStage {
    /// Index into the application's component list.
    pub component_idx: usize,
    /// Component name.
    pub name: String,
    /// Work after operating-point scaling, megacycles.
    pub work_mc: f64,
    /// Memory reservation, MiB.
    pub mem_mb: u64,
    /// Accelerator configuration, if exploitable.
    pub accel_cfg: Option<u32>,
    /// Input bytes (sum of incoming edges after scaling).
    pub input_bytes: u64,
    /// Output bytes (sum of outgoing edges after scaling).
    pub output_bytes: u64,
    /// Relative deadline of this stage, if QoS-constrained.
    pub max_latency: Option<SimDuration>,
    /// Minimum security tier.
    pub security: SecurityTier,
    /// Portable task body: VM program library index, if any.
    pub program: Option<u32>,
    /// Indices (into `stages`) of upstream stages.
    pub preds: Vec<usize>,
    /// Correlation tag.
    pub tag: Tag,
}

/// One request instance: a released DAG of stages in topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRequest {
    /// Release instant.
    pub released: SimTime,
    /// Request ordinal.
    pub request_idx: u32,
    /// Stages in a valid topological order.
    pub stages: Vec<CompiledStage>,
}

impl CompiledRequest {
    /// End-to-end relative deadline: the strictest stage deadline, if any.
    pub fn deadline(&self) -> Option<SimDuration> {
        self.stages.iter().filter_map(|s| s.max_latency).min()
    }

    /// Total work of the request, megacycles.
    pub fn total_work_mc(&self) -> f64 {
        self.stages.iter().map(|s| s.work_mc).sum()
    }
}

/// Builds an application's stage templates: one [`CompiledStage`] per
/// DAG node in topological order, with preds remapped to positions
/// within the list and each tag set to `(app_id, request 0, position)`.
///
/// Every request of the application instantiates this same list (only
/// the tag's request field differs), so an engine can keep one copy per
/// application instead of one per request.
///
/// # Errors
///
/// Returns the application's validation error if the topology is
/// malformed.
pub fn compile_stages(
    app: &Application,
    app_id: u16,
    point: Option<&AppOperatingPoint>,
) -> Result<Vec<CompiledStage>, ValidateAppError> {
    let dag = RequestDag::from_application(app)?;
    let work_scale = point.map_or(1.0, |p| p.work_scale);
    let bytes_scale = point.map_or(1.0, |p| p.bytes_scale);
    let topo = dag.topo_order();
    let mut pos_in_topo = vec![0usize; dag.nodes().len()];
    for (rank, &i) in topo.iter().enumerate() {
        pos_in_topo[i] = rank;
    }
    Ok(topo
        .iter()
        .enumerate()
        .map(|(si, &i)| {
            let n = &dag.nodes()[i];
            let comp = &app.components[n.component_idx];
            let input: u64 = dag.nodes()[i]
                .preds
                .iter()
                .map(|&p| {
                    dag.nodes()[p].succs.iter().find(|(s, _)| *s == i).map(|(_, b)| *b).unwrap_or(0)
                })
                .sum();
            let output: u64 = n.succs.iter().map(|(_, b)| *b).sum();
            CompiledStage {
                component_idx: n.component_idx,
                name: n.name.clone(),
                work_mc: n.work_mc * work_scale,
                mem_mb: comp.requirements.mem_mb,
                accel_cfg: comp.requirements.accel_cfg,
                input_bytes: (input as f64 * bytes_scale) as u64,
                output_bytes: (output as f64 * bytes_scale) as u64,
                max_latency: comp.requirements.max_latency,
                security: comp.requirements.security,
                program: comp.requirements.program,
                preds: n.preds.iter().map(|&p| pos_in_topo[p]).collect(),
                tag: Tag { app: app_id, request: 0, stage: si as u16 },
            }
        })
        .collect())
}

/// Expands an application into its full request stream: the
/// [`compile_stages`] templates instantiated once per arrival.
///
/// `app_id` namespaces the tags; `seed` drives stochastic arrivals;
/// `point` optionally applies an operating point's work/bytes scaling.
///
/// # Errors
///
/// Returns the application's validation error if the topology is
/// malformed.
///
/// # Examples
///
/// ```
/// use myrtus_workload::compile::compile_requests;
/// use myrtus_workload::scenarios;
///
/// let app = scenarios::telerehab();
/// let reqs = compile_requests(&app, 1, 42, None)?;
/// assert_eq!(reqs.len(), app.arrival.expected_count());
/// assert!(reqs[0].stages.len() >= 3);
/// # Ok::<(), myrtus_workload::tosca::ValidateAppError>(())
/// ```
pub fn compile_requests(
    app: &Application,
    app_id: u16,
    seed: u64,
    point: Option<&AppOperatingPoint>,
) -> Result<Vec<CompiledRequest>, ValidateAppError> {
    let templates = compile_stages(app, app_id, point)?;
    Ok(app
        .arrival
        .generate(seed)
        .into_iter()
        .enumerate()
        .map(|(ri, released)| {
            let stages = templates
                .iter()
                .map(|t| {
                    let mut s = t.clone();
                    s.tag.request = ri as u32;
                    s
                })
                .collect();
            CompiledRequest { released, request_idx: ri as u32, stages }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalSpec;
    use crate::opset::AppOperatingPoint;
    use crate::tosca::{Component, ComponentKind};
    use myrtus_continuum::net::Protocol;

    fn chain() -> Application {
        Application::new("c", ArrivalSpec::periodic(SimDuration::from_millis(10), 3))
            .with_component(Component::new("s", ComponentKind::Sensor).with_work_mc(0.5))
            .with_component(
                Component::new("f", ComponentKind::Function)
                    .with_work_mc(4.0)
                    .with_max_latency(SimDuration::from_millis(20)),
            )
            .with_component(Component::new("k", ComponentKind::Storage).with_work_mc(1.0))
            .with_connection("s", "f", 1_000, Protocol::Mqtt)
            .with_connection("f", "k", 200, Protocol::Mqtt)
    }

    /// `s1` and `s2` both feed `f` (a fan-in stage), which feeds `k`.
    fn fan_in() -> Application {
        Application::new("d", ArrivalSpec::periodic(SimDuration::from_millis(5), 4))
            .with_component(Component::new("s1", ComponentKind::Sensor).with_work_mc(0.5))
            .with_component(Component::new("s2", ComponentKind::Sensor).with_work_mc(0.7))
            .with_component(
                Component::new("f", ComponentKind::Function)
                    .with_work_mc(3.0)
                    .with_max_latency(SimDuration::from_millis(15)),
            )
            .with_component(Component::new("k", ComponentKind::Storage).with_work_mc(1.0))
            .with_connection("s1", "f", 800, Protocol::Mqtt)
            .with_connection("s2", "f", 300, Protocol::Mqtt)
            .with_connection("f", "k", 100, Protocol::Mqtt)
    }

    #[test]
    fn requests_are_the_stage_templates_times_the_arrivals() {
        let eco = AppOperatingPoint::new("eco", 0.5, 0.25, 0.8);
        for app in [chain(), fan_in()] {
            for point in [None, Some(&eco)] {
                let templates = compile_stages(&app, 3, point).expect("valid");
                let arrivals = app.arrival.generate(11);
                let expected: Vec<CompiledRequest> = arrivals
                    .iter()
                    .enumerate()
                    .map(|(ri, &released)| CompiledRequest {
                        released,
                        request_idx: ri as u32,
                        stages: templates
                            .iter()
                            .enumerate()
                            .map(|(si, t)| CompiledStage {
                                tag: Tag { app: 3, request: ri as u32, stage: si as u16 },
                                ..t.clone()
                            })
                            .collect(),
                    })
                    .collect();
                let reqs = compile_requests(&app, 3, 11, point).expect("valid");
                assert!(!reqs.is_empty());
                assert_eq!(reqs, expected, "{} with point {:?}", app.name, point.map(|p| &p.name));
            }
        }
        // The fan-in stage really has two upstream stages and sums both
        // inbound edges.
        let st = compile_stages(&fan_in(), 0, None).expect("valid");
        let f = st.iter().find(|s| s.name == "f").expect("stage f");
        assert_eq!(f.preds.len(), 2);
        assert_eq!(f.input_bytes, 1_100);
        assert!(f.preds.iter().all(|&p| st[p].name.starts_with('s')));
    }

    #[test]
    fn tag_round_trips() {
        let t = Tag { app: 513, request: 0xDEADBEEF, stage: 77 };
        assert_eq!(Tag::decode(t.encode()), t);
    }

    #[test]
    fn one_request_per_arrival() {
        let reqs = compile_requests(&chain(), 2, 0, None).expect("valid");
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].released, SimTime::from_millis(10));
        assert_eq!(reqs[2].request_idx, 2);
    }

    #[test]
    fn stages_follow_topology_with_io() {
        let reqs = compile_requests(&chain(), 2, 0, None).expect("valid");
        let st = &reqs[0].stages;
        assert_eq!(st.len(), 3);
        assert_eq!(st[0].name, "s");
        assert_eq!(st[0].input_bytes, 0);
        assert_eq!(st[0].output_bytes, 1_000);
        assert_eq!(st[1].name, "f");
        assert_eq!(st[1].input_bytes, 1_000);
        assert_eq!(st[1].preds, vec![0]);
        assert_eq!(st[2].input_bytes, 200);
    }

    #[test]
    fn tags_identify_app_request_stage() {
        let reqs = compile_requests(&chain(), 9, 0, None).expect("valid");
        let t = reqs[1].stages[2].tag;
        assert_eq!((t.app, t.request, t.stage), (9, 1, 2));
    }

    #[test]
    fn operating_point_scales_work_and_bytes() {
        let p = AppOperatingPoint::new("eco", 0.5, 0.25, 0.8);
        let nominal = compile_requests(&chain(), 1, 0, None).expect("valid");
        let scaled = compile_requests(&chain(), 1, 0, Some(&p)).expect("valid");
        assert!((scaled[0].stages[1].work_mc - nominal[0].stages[1].work_mc * 0.5).abs() < 1e-9);
        assert_eq!(scaled[0].stages[1].input_bytes, nominal[0].stages[1].input_bytes / 4);
    }

    #[test]
    fn request_deadline_is_strictest_stage() {
        let reqs = compile_requests(&chain(), 1, 0, None).expect("valid");
        assert_eq!(reqs[0].deadline(), Some(SimDuration::from_millis(20)));
        assert!((reqs[0].total_work_mc() - 5.5).abs() < 1e-9);
    }
}
