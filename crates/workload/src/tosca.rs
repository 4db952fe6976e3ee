//! TOSCA-like application topology model.
//!
//! MIRTO accepts orchestration requests as TOSCA object models (paper
//! Sect. IV). This module reproduces the subset the paper exercises: node
//! templates (components) with resource / security / QoS requirements,
//! relationships (connections with data volumes and protocols), and an
//! arrival specification — plus a textual *TOSCA-lite profile* with a
//! writer and a validating parser, which stands in for the `.tosca` files
//! exchanged between the DPE and the Cognitive Engine.

use std::collections::BTreeMap;

use myrtus_continuum::net::Protocol;
use myrtus_continuum::node::Layer;
use myrtus_continuum::time::SimDuration;

use crate::arrival::ArrivalSpec;

/// Required security tier of a component (paper Table II rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecurityTier {
    /// Lightweight non-PQC primitives.
    Low,
    /// Non-PQC but suitable for current threats.
    Medium,
    /// Post-quantum resistant.
    High,
}

impl SecurityTier {
    /// All tiers, weakest first.
    pub const ALL: [SecurityTier; 3] =
        [SecurityTier::Low, SecurityTier::Medium, SecurityTier::High];

    /// Parses `low` / `medium` / `high`.
    pub fn parse(s: &str) -> Option<SecurityTier> {
        match s {
            "low" => Some(SecurityTier::Low),
            "medium" => Some(SecurityTier::Medium),
            "high" => Some(SecurityTier::High),
            _ => None,
        }
    }
}

impl std::fmt::Display for SecurityTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SecurityTier::Low => "low",
            SecurityTier::Medium => "medium",
            SecurityTier::High => "high",
        };
        f.write_str(s)
    }
}

/// Functional role of a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Data source (camera, IMU, vehicle sensor).
    Sensor,
    /// Stateless processing function (kernel).
    Function,
    /// Long-running stateful service.
    Service,
    /// Data sink / storage endpoint.
    Storage,
}

impl ComponentKind {
    /// Parses the lowercase kind name.
    pub fn parse(s: &str) -> Option<ComponentKind> {
        match s {
            "sensor" => Some(ComponentKind::Sensor),
            "function" => Some(ComponentKind::Function),
            "service" => Some(ComponentKind::Service),
            "storage" => Some(ComponentKind::Storage),
            _ => None,
        }
    }
}

impl std::fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ComponentKind::Sensor => "sensor",
            ComponentKind::Function => "function",
            ComponentKind::Service => "service",
            ComponentKind::Storage => "storage",
        };
        f.write_str(s)
    }
}

/// Per-request resource and policy requirements of a component.
#[derive(Debug, Clone, PartialEq)]
pub struct Requirements {
    /// Software work per request, megacycles.
    pub work_mc: f64,
    /// Memory reservation, MiB.
    pub mem_mb: u64,
    /// Accelerator configuration exploitable by this component.
    pub accel_cfg: Option<u32>,
    /// Minimum security tier for hosting and transport.
    pub security: SecurityTier,
    /// Relative deadline per request.
    pub max_latency: Option<SimDuration>,
    /// Placement hint: preferred continuum layer.
    pub preferred_layer: Option<Layer>,
    /// Whether at-rest data must be stored encrypted.
    pub encrypted_storage: bool,
    /// Portable task body: index into the deployment's VM program
    /// library. Stages with a program run on the task VM (and can be
    /// checkpointed and live-migrated); stages without stay scalar.
    pub program: Option<u32>,
}

impl Default for Requirements {
    fn default() -> Self {
        Requirements {
            work_mc: 1.0,
            mem_mb: 16,
            accel_cfg: None,
            security: SecurityTier::Low,
            max_latency: None,
            preferred_layer: None,
            encrypted_storage: false,
            program: None,
        }
    }
}

/// One node template of the application topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Unique component name within the application.
    pub name: String,
    /// Functional role.
    pub kind: ComponentKind,
    /// Resource / policy requirements.
    pub requirements: Requirements,
}

impl Component {
    /// Creates a component with default requirements.
    pub fn new(name: impl Into<String>, kind: ComponentKind) -> Self {
        Component { name: name.into(), kind, requirements: Requirements::default() }
    }

    /// Sets the per-request work.
    pub fn with_work_mc(mut self, mc: f64) -> Self {
        self.requirements.work_mc = mc;
        self
    }

    /// Sets the memory reservation.
    pub fn with_mem_mb(mut self, mb: u64) -> Self {
        self.requirements.mem_mb = mb;
        self
    }

    /// Sets the accelerator configuration id.
    pub fn with_accel(mut self, cfg: u32) -> Self {
        self.requirements.accel_cfg = Some(cfg);
        self
    }

    /// Sets the minimum security tier.
    pub fn with_security(mut self, tier: SecurityTier) -> Self {
        self.requirements.security = tier;
        self
    }

    /// Sets the per-request relative deadline.
    pub fn with_max_latency(mut self, d: SimDuration) -> Self {
        self.requirements.max_latency = Some(d);
        self
    }

    /// Sets the preferred layer hint.
    pub fn with_preferred_layer(mut self, layer: Layer) -> Self {
        self.requirements.preferred_layer = Some(layer);
        self
    }

    /// Sets the portable task body (VM program library index).
    pub fn with_program(mut self, program: u32) -> Self {
        self.requirements.program = Some(program);
        self
    }
}

/// A directed relationship: `from` streams data to `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    /// Producer component name.
    pub from: String,
    /// Consumer component name.
    pub to: String,
    /// Bytes transferred per request.
    pub bytes_per_req: u64,
    /// Transport protocol.
    pub protocol: Protocol,
}

/// A complete TOSCA-like application topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// Application name.
    pub name: String,
    /// Node templates.
    pub components: Vec<Component>,
    /// Relationships.
    pub connections: Vec<Connection>,
    /// Request arrival process.
    pub arrival: ArrivalSpec,
}

/// Validation failures for an [`Application`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateAppError {
    /// The application has no components.
    Empty,
    /// Two components share a name.
    DuplicateComponent(String),
    /// A connection references an unknown component.
    UnknownComponent {
        /// The offending reference.
        name: String,
    },
    /// A connection loops a component to itself.
    SelfConnection(String),
    /// The processing pipeline (Function/Service subgraph) has a cycle.
    CyclicPipeline,
}

impl std::fmt::Display for ValidateAppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateAppError::Empty => write!(f, "application has no components"),
            ValidateAppError::DuplicateComponent(n) => {
                write!(f, "duplicate component name {n:?}")
            }
            ValidateAppError::UnknownComponent { name } => {
                write!(f, "connection references unknown component {name:?}")
            }
            ValidateAppError::SelfConnection(n) => {
                write!(f, "component {n:?} connects to itself")
            }
            ValidateAppError::CyclicPipeline => write!(f, "processing pipeline has a cycle"),
        }
    }
}

impl std::error::Error for ValidateAppError {}

impl Application {
    /// Creates an application.
    pub fn new(name: impl Into<String>, arrival: ArrivalSpec) -> Self {
        Application { name: name.into(), components: Vec::new(), connections: Vec::new(), arrival }
    }

    /// Adds a component (builder style).
    pub fn with_component(mut self, c: Component) -> Self {
        self.components.push(c);
        self
    }

    /// Adds a connection (builder style).
    pub fn with_connection(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        bytes_per_req: u64,
        protocol: Protocol,
    ) -> Self {
        self.connections.push(Connection {
            from: from.into(),
            to: to.into(),
            bytes_per_req,
            protocol,
        });
        self
    }

    /// Looks up a component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }

    /// The strictest security tier demanded by any component.
    pub fn max_security(&self) -> SecurityTier {
        self.components.iter().map(|c| c.requirements.security).max().unwrap_or(SecurityTier::Low)
    }

    /// Validates the topology (the TOSCA Validation Processor contract).
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateAppError`] found.
    pub fn validate(&self) -> Result<(), ValidateAppError> {
        if self.components.is_empty() {
            return Err(ValidateAppError::Empty);
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.components {
            if !seen.insert(c.name.as_str()) {
                return Err(ValidateAppError::DuplicateComponent(c.name.clone()));
            }
        }
        for conn in &self.connections {
            for name in [&conn.from, &conn.to] {
                if !seen.contains(name.as_str()) {
                    return Err(ValidateAppError::UnknownComponent { name: name.clone() });
                }
            }
            if conn.from == conn.to {
                return Err(ValidateAppError::SelfConnection(conn.from.clone()));
            }
        }
        // Kahn's algorithm over the full connection graph: request
        // processing must be a DAG for latency to be well-defined.
        let mut indeg: BTreeMap<&str, usize> =
            self.components.iter().map(|c| (c.name.as_str(), 0)).collect();
        for conn in &self.connections {
            *indeg.get_mut(conn.to.as_str()).expect("validated above") += 1;
        }
        let mut ready: Vec<&str> =
            indeg.iter().filter(|(_, d)| **d == 0).map(|(n, _)| *n).collect();
        let mut visited = 0usize;
        while let Some(n) = ready.pop() {
            visited += 1;
            for conn in self.connections.iter().filter(|c| c.from == n) {
                let d = indeg.get_mut(conn.to.as_str()).expect("validated above");
                *d -= 1;
                if *d == 0 {
                    ready.push(conn.to.as_str());
                }
            }
        }
        if visited != self.components.len() {
            return Err(ValidateAppError::CyclicPipeline);
        }
        Ok(())
    }

    /// Serializes to the textual TOSCA-lite profile.
    pub fn to_profile(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("app {}\n", self.name));
        out.push_str(&format!("arrival {}\n", self.arrival.to_profile_line()));
        for c in &self.components {
            let r = &c.requirements;
            out.push_str(&format!(
                "component {} kind={} work_mc={} mem_mb={} security={}",
                c.name, c.kind, r.work_mc, r.mem_mb, r.security
            ));
            if let Some(a) = r.accel_cfg {
                out.push_str(&format!(" accel={a}"));
            }
            if let Some(d) = r.max_latency {
                out.push_str(&format!(" max_latency_us={}", d.as_micros()));
            }
            if let Some(l) = r.preferred_layer {
                out.push_str(&format!(" layer={l}"));
            }
            if r.encrypted_storage {
                out.push_str(" encrypted_storage=true");
            }
            if let Some(p) = r.program {
                out.push_str(&format!(" program={p}"));
            }
            out.push('\n');
        }
        for conn in &self.connections {
            out.push_str(&format!(
                "connect {} -> {} bytes={} protocol={}\n",
                conn.from, conn.to, conn.bytes_per_req, conn.protocol
            ));
        }
        out
    }

    /// Parses the textual TOSCA-lite profile.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseProfileError`] describing the offending line.
    pub fn from_profile(text: &str) -> Result<Application, ParseProfileError> {
        parse_profile(text)
    }
}

/// Errors from parsing a TOSCA-lite profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProfileError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseProfileError {}

fn err(line: usize, message: impl Into<String>) -> ParseProfileError {
    ParseProfileError { line, message: message.into() }
}

fn parse_kv(tok: &str) -> Option<(&str, &str)> {
    tok.split_once('=')
}

fn parse_profile(text: &str) -> Result<Application, ParseProfileError> {
    let mut name: Option<String> = None;
    let mut arrival: Option<ArrivalSpec> = None;
    let mut components = Vec::new();
    let mut connections = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("app") => {
                let n = toks.next().ok_or_else(|| err(lineno, "app needs a name"))?;
                name = Some(n.to_string());
            }
            Some("arrival") => {
                let rest: Vec<&str> = toks.collect();
                arrival =
                    Some(ArrivalSpec::parse_profile_tokens(&rest).map_err(|m| err(lineno, m))?);
            }
            Some("component") => {
                let cname = toks.next().ok_or_else(|| err(lineno, "component needs a name"))?;
                let mut comp = Component::new(cname, ComponentKind::Function);
                for tok in toks {
                    let (k, v) = parse_kv(tok)
                        .ok_or_else(|| err(lineno, format!("expected key=value, got {tok:?}")))?;
                    match k {
                        "kind" => {
                            comp.kind = ComponentKind::parse(v)
                                .ok_or_else(|| err(lineno, format!("unknown kind {v:?}")))?;
                        }
                        "work_mc" => {
                            comp.requirements.work_mc =
                                v.parse().map_err(|_| err(lineno, format!("bad work_mc {v:?}")))?;
                        }
                        "mem_mb" => {
                            comp.requirements.mem_mb =
                                v.parse().map_err(|_| err(lineno, format!("bad mem_mb {v:?}")))?;
                        }
                        "security" => {
                            comp.requirements.security = SecurityTier::parse(v)
                                .ok_or_else(|| err(lineno, format!("unknown tier {v:?}")))?;
                        }
                        "accel" => {
                            comp.requirements.accel_cfg = Some(
                                v.parse().map_err(|_| err(lineno, format!("bad accel {v:?}")))?,
                            );
                        }
                        "max_latency_us" => {
                            let us: u64 =
                                v.parse().map_err(|_| err(lineno, format!("bad latency {v:?}")))?;
                            comp.requirements.max_latency = Some(SimDuration::from_micros(us));
                        }
                        "layer" => {
                            comp.requirements.preferred_layer = Some(match v {
                                "edge" => Layer::Edge,
                                "fog" => Layer::Fog,
                                "cloud" => Layer::Cloud,
                                _ => return Err(err(lineno, format!("unknown layer {v:?}"))),
                            });
                        }
                        "encrypted_storage" => {
                            comp.requirements.encrypted_storage = v == "true";
                        }
                        "program" => {
                            comp.requirements.program = Some(
                                v.parse().map_err(|_| err(lineno, format!("bad program {v:?}")))?,
                            );
                        }
                        _ => return Err(err(lineno, format!("unknown key {k:?}"))),
                    }
                }
                components.push(comp);
            }
            Some("connect") => {
                let from = toks.next().ok_or_else(|| err(lineno, "connect needs a source"))?;
                let arrow = toks.next();
                if arrow != Some("->") {
                    return Err(err(lineno, "expected `->` after source"));
                }
                let to = toks.next().ok_or_else(|| err(lineno, "connect needs a target"))?;
                let mut bytes = 0u64;
                let mut protocol = Protocol::Mqtt;
                for tok in toks {
                    let (k, v) = parse_kv(tok)
                        .ok_or_else(|| err(lineno, format!("expected key=value, got {tok:?}")))?;
                    match k {
                        "bytes" => {
                            bytes =
                                v.parse().map_err(|_| err(lineno, format!("bad bytes {v:?}")))?;
                        }
                        "protocol" => {
                            protocol = match v {
                                "http" => Protocol::Http,
                                "mqtt" => Protocol::Mqtt,
                                "coap" => Protocol::Coap,
                                _ => return Err(err(lineno, format!("unknown protocol {v:?}"))),
                            };
                        }
                        _ => return Err(err(lineno, format!("unknown key {k:?}"))),
                    }
                }
                connections.push(Connection {
                    from: from.to_string(),
                    to: to.to_string(),
                    bytes_per_req: bytes,
                    protocol,
                });
            }
            Some(other) => return Err(err(lineno, format!("unknown directive {other:?}"))),
            None => unreachable!("empty lines skipped"),
        }
    }

    let name = name.ok_or_else(|| err(0, "missing `app` directive"))?;
    let arrival = arrival.ok_or_else(|| err(0, "missing `arrival` directive"))?;
    Ok(Application { name, components, connections, arrival })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalSpec;

    fn sample_app() -> Application {
        Application::new("demo", ArrivalSpec::periodic(SimDuration::from_millis(33), 10))
            .with_component(Component::new("cam", ComponentKind::Sensor).with_work_mc(0.1))
            .with_component(
                Component::new("pose", ComponentKind::Function)
                    .with_work_mc(8.0)
                    .with_accel(3)
                    .with_security(SecurityTier::Medium)
                    .with_max_latency(SimDuration::from_millis(50))
                    .with_program(2),
            )
            .with_component(Component::new("store", ComponentKind::Storage).with_work_mc(0.2))
            .with_connection("cam", "pose", 64_000, Protocol::Mqtt)
            .with_connection("pose", "store", 2_000, Protocol::Http)
    }

    #[test]
    fn valid_app_passes_validation() {
        sample_app().validate().expect("valid");
    }

    #[test]
    fn duplicate_component_rejected() {
        let app = sample_app().with_component(Component::new("cam", ComponentKind::Sensor));
        assert_eq!(app.validate(), Err(ValidateAppError::DuplicateComponent("cam".into())));
    }

    #[test]
    fn unknown_reference_rejected() {
        let app = sample_app().with_connection("pose", "ghost", 1, Protocol::Coap);
        assert!(matches!(app.validate(), Err(ValidateAppError::UnknownComponent { .. })));
    }

    #[test]
    fn self_connection_rejected() {
        let app = sample_app().with_connection("pose", "pose", 1, Protocol::Coap);
        assert_eq!(app.validate(), Err(ValidateAppError::SelfConnection("pose".into())));
    }

    #[test]
    fn cycle_rejected() {
        let app = sample_app().with_connection("store", "cam", 1, Protocol::Coap);
        assert_eq!(app.validate(), Err(ValidateAppError::CyclicPipeline));
    }

    #[test]
    fn empty_app_rejected() {
        let app = Application::new("x", ArrivalSpec::periodic(SimDuration::from_millis(1), 1));
        assert_eq!(app.validate(), Err(ValidateAppError::Empty));
    }

    #[test]
    fn profile_round_trips() {
        let app = sample_app();
        let text = app.to_profile();
        let parsed = Application::from_profile(&text).expect("parses");
        assert_eq!(parsed, app);
    }

    #[test]
    fn parser_reports_line_numbers() {
        let text = "app demo\narrival periodic period_us=1000 count=1\ncomponent a kind=banana\n";
        let e = Application::from_profile(text).expect_err("bad kind");
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("banana"));
    }

    #[test]
    fn parser_rejects_missing_directives() {
        assert!(Application::from_profile("component a kind=sensor\n").is_err());
        let only_app = "app demo\n";
        assert!(Application::from_profile(only_app).is_err());
    }

    #[test]
    fn max_security_is_strictest() {
        assert_eq!(sample_app().max_security(), SecurityTier::Medium);
    }

    #[test]
    fn tier_ordering_supports_constraint_checks() {
        assert!(SecurityTier::High > SecurityTier::Medium);
        assert!(SecurityTier::Medium > SecurityTier::Low);
        assert_eq!(SecurityTier::parse("high"), Some(SecurityTier::High));
        assert_eq!(SecurityTier::parse("HIGH"), None);
    }
}
