//! Deployment specification packages (the `.csar` analog).
//!
//! The DPE "creates the deployment specification for the continuum,
//! including all the executables and configuration files", and "exports
//! meta-information with non-functional properties … to aid the MIRTO
//! Cognitive Engine in runtime decision-making" (paper Sect. V). A
//! [`DeploymentSpec`] bundles the TOSCA-lite profile, generated
//! artifacts (executables, bitstreams, swarm-rule files, countermeasure
//! snippets) and the operating-point metadata of refs \[29\]\[30\]; it
//! serializes to a single text "archive" with a validating parser.

use myrtus_workload::opset::{AppOperatingPoint, AppPointSet};
use myrtus_workload::tosca::{Application, ParseProfileError};

/// Kind of a generated artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Host/CPU executable.
    Executable,
    /// FPGA (partial) bitstream.
    Bitstream,
    /// CGRA configuration stream.
    CgraConfig,
    /// Swarm-agent local-rule file.
    SwarmRules,
    /// Synthesized threat countermeasure snippet.
    Countermeasure,
}

impl ArtifactKind {
    fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::Executable => "executable",
            ArtifactKind::Bitstream => "bitstream",
            ArtifactKind::CgraConfig => "cgra-config",
            ArtifactKind::SwarmRules => "swarm-rules",
            ArtifactKind::Countermeasure => "countermeasure",
        }
    }

    fn parse(s: &str) -> Option<ArtifactKind> {
        match s {
            "executable" => Some(ArtifactKind::Executable),
            "bitstream" => Some(ArtifactKind::Bitstream),
            "cgra-config" => Some(ArtifactKind::CgraConfig),
            "swarm-rules" => Some(ArtifactKind::SwarmRules),
            "countermeasure" => Some(ArtifactKind::Countermeasure),
            _ => None,
        }
    }
}

/// One generated artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Artifact name (e.g. `pose.bit`).
    pub name: String,
    /// Artifact kind.
    pub kind: ArtifactKind,
    /// Component the artifact implements.
    pub component: String,
    /// Estimated size in bytes.
    pub size_bytes: u64,
}

/// The full deployment specification handed from pillar 3 to pillar 2.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSpec {
    /// The application topology.
    pub application: Application,
    /// Generated artifacts.
    pub artifacts: Vec<Artifact>,
    /// Operating points exported as runtime metadata.
    pub operating_points: AppPointSet,
    /// Model-based KPI estimate: end-to-end latency, microseconds.
    pub estimated_latency_us: f64,
    /// Residual threat risk after countermeasure synthesis, `[0, 1]`.
    pub residual_risk: f64,
}

/// Errors parsing a package.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsePackageError {
    /// Structural problem at a line.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// Embedded TOSCA profile failed to parse.
    Profile(ParseProfileError),
}

impl std::fmt::Display for ParsePackageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParsePackageError::Malformed { line, message } => {
                write!(f, "package line {line}: {message}")
            }
            ParsePackageError::Profile(e) => write!(f, "embedded profile: {e}"),
        }
    }
}

impl std::error::Error for ParsePackageError {}

impl DeploymentSpec {
    /// Serializes the spec to the textual package format.
    pub fn to_package(&self) -> String {
        let mut out = String::from("CSAR myrtus-lite 1\n");
        out.push_str(&format!(
            "meta estimated_latency_us={} residual_risk={}\n",
            self.estimated_latency_us, self.residual_risk
        ));
        for p in self.operating_points.iter() {
            out.push_str(&format!(
                "oppoint name={} work_scale={} bytes_scale={} quality={}\n",
                p.name, p.work_scale, p.bytes_scale, p.quality
            ));
        }
        for a in &self.artifacts {
            out.push_str(&format!(
                "artifact name={} kind={} component={} bytes={}\n",
                a.name,
                a.kind.as_str(),
                a.component,
                a.size_bytes
            ));
        }
        out.push_str("profile-begin\n");
        out.push_str(&self.application.to_profile());
        out.push_str("profile-end\n");
        out
    }

    /// Parses a textual package.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePackageError`] on malformed input.
    pub fn from_package(text: &str) -> Result<DeploymentSpec, ParsePackageError> {
        let mal = |line: usize, message: &str| ParsePackageError::Malformed {
            line,
            message: message.to_string(),
        };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| mal(1, "empty package"))?;
        if header != "CSAR myrtus-lite 1" {
            return Err(mal(1, "bad header"));
        }
        let mut latency = 0.0f64;
        let mut risk = 0.0f64;
        let mut points = Vec::new();
        let mut artifacts = Vec::new();
        let mut profile = String::new();
        let mut in_profile = false;
        let mut saw_profile = false;
        for (i, raw) in lines {
            let lineno = i + 1;
            if in_profile {
                if raw == "profile-end" {
                    in_profile = false;
                } else {
                    profile.push_str(raw);
                    profile.push('\n');
                }
                continue;
            }
            let mut toks = raw.split_whitespace();
            let kv = |tok: &str| -> Option<(String, String)> {
                tok.split_once('=').map(|(k, v)| (k.to_string(), v.to_string()))
            };
            match toks.next() {
                Some("meta") => {
                    for t in toks {
                        let (k, v) = kv(t).ok_or_else(|| mal(lineno, "bad meta token"))?;
                        match k.as_str() {
                            "estimated_latency_us" => {
                                latency = v.parse().map_err(|_| mal(lineno, "bad latency"))?;
                            }
                            "residual_risk" => {
                                risk = v.parse().map_err(|_| mal(lineno, "bad risk"))?;
                            }
                            _ => return Err(mal(lineno, "unknown meta key")),
                        }
                    }
                }
                Some("oppoint") => {
                    let mut name = None;
                    let mut ws = None;
                    let mut bs = None;
                    let mut q = None;
                    for t in toks {
                        let (k, v) = kv(t).ok_or_else(|| mal(lineno, "bad oppoint token"))?;
                        match k.as_str() {
                            "name" => name = Some(v),
                            "work_scale" => ws = v.parse().ok(),
                            "bytes_scale" => bs = v.parse().ok(),
                            "quality" => q = v.parse().ok(),
                            _ => return Err(mal(lineno, "unknown oppoint key")),
                        }
                    }
                    match (name, ws, bs, q) {
                        (Some(n), Some(w), Some(b), Some(q)) => {
                            points.push(AppOperatingPoint::new(n, w, b, q));
                        }
                        _ => return Err(mal(lineno, "incomplete oppoint")),
                    }
                }
                Some("artifact") => {
                    let mut name = None;
                    let mut kind = None;
                    let mut component = None;
                    let mut bytes = None;
                    for t in toks {
                        let (k, v) = kv(t).ok_or_else(|| mal(lineno, "bad artifact token"))?;
                        match k.as_str() {
                            "name" => name = Some(v),
                            "kind" => kind = ArtifactKind::parse(&v),
                            "component" => component = Some(v),
                            "bytes" => bytes = v.parse().ok(),
                            _ => return Err(mal(lineno, "unknown artifact key")),
                        }
                    }
                    match (name, kind, component, bytes) {
                        (Some(n), Some(k), Some(c), Some(b)) => artifacts.push(Artifact {
                            name: n,
                            kind: k,
                            component: c,
                            size_bytes: b,
                        }),
                        _ => return Err(mal(lineno, "incomplete artifact")),
                    }
                }
                Some("profile-begin") => {
                    in_profile = true;
                    saw_profile = true;
                }
                Some(other) => return Err(mal(lineno, &format!("unknown directive {other:?}"))),
                None => {}
            }
        }
        if in_profile || !saw_profile {
            return Err(mal(0, "missing or unterminated profile section"));
        }
        if points.is_empty() {
            return Err(mal(0, "package has no operating points"));
        }
        let application =
            Application::from_profile(&profile).map_err(ParsePackageError::Profile)?;
        Ok(DeploymentSpec {
            application,
            artifacts,
            operating_points: AppPointSet::new(points),
            estimated_latency_us: latency,
            residual_risk: risk,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_workload::scenarios;

    fn spec() -> DeploymentSpec {
        DeploymentSpec {
            application: scenarios::telerehab(),
            artifacts: vec![
                Artifact {
                    name: "pose.bit".into(),
                    kind: ArtifactKind::Bitstream,
                    component: "pose".into(),
                    size_bytes: 2_200_000,
                },
                Artifact {
                    name: "score.elf".into(),
                    kind: ArtifactKind::Executable,
                    component: "score".into(),
                    size_bytes: 180_000,
                },
            ],
            operating_points: AppPointSet::standard_ladder(),
            estimated_latency_us: 42_000.0,
            residual_risk: 0.12,
        }
    }

    #[test]
    fn package_round_trips() {
        let s = spec();
        let text = s.to_package();
        let back = DeploymentSpec::from_package(&text).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn bad_header_rejected() {
        let err = DeploymentSpec::from_package("ZIP whatever\n").expect_err("rejected");
        assert!(matches!(err, ParsePackageError::Malformed { line: 1, .. }));
    }

    #[test]
    fn missing_profile_rejected() {
        let text = "CSAR myrtus-lite 1\nmeta estimated_latency_us=1 residual_risk=0\noppoint name=full work_scale=1 bytes_scale=1 quality=1\n";
        assert!(DeploymentSpec::from_package(text).is_err());
    }

    #[test]
    fn unterminated_profile_rejected() {
        let mut text = spec().to_package();
        text.truncate(text.len() - "profile-end\n".len());
        assert!(DeploymentSpec::from_package(&text).is_err());
    }

    #[test]
    fn embedded_profile_errors_surface() {
        let text = "CSAR myrtus-lite 1\noppoint name=full work_scale=1 bytes_scale=1 quality=1\nprofile-begin\napp x\nwhatisthis\nprofile-end\n";
        let err = DeploymentSpec::from_package(text).expect_err("rejected");
        assert!(matches!(err, ParsePackageError::Profile(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn artifact_kinds_round_trip() {
        for k in [
            ArtifactKind::Executable,
            ArtifactKind::Bitstream,
            ArtifactKind::CgraConfig,
            ArtifactKind::SwarmRules,
            ArtifactKind::Countermeasure,
        ] {
            assert_eq!(ArtifactKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(ArtifactKind::parse("nope"), None);
    }
}
