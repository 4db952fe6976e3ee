//! The technology inventory of paper Fig. 1: three technical pillars and
//! the components built under each, with the module that implements
//! every entry. The `figure1` experiment binary renders this inventory;
//! the `table1` binary cross-references it against the EU-CEI building
//! blocks.

/// A MYRTUS technical pillar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pillar {
    /// Pillar 1: Continuum Computing Infrastructure.
    Infrastructure,
    /// Pillar 2: MIRTO Cognitive Engine.
    CognitiveEngine,
    /// Pillar 3: Design and Programming Environment.
    Dpe,
}

impl std::fmt::Display for Pillar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Pillar::Infrastructure => "Pillar 1 — Continuum Computing Infrastructure",
            Pillar::CognitiveEngine => "Pillar 2 — MIRTO Cognitive Engine",
            Pillar::Dpe => "Pillar 3 — Design & Programming Environment",
        };
        f.write_str(s)
    }
}

/// One technology of the inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Technology {
    /// Owning pillar.
    pub pillar: Pillar,
    /// Technology name as the paper presents it.
    pub name: &'static str,
    /// Implementing module path in this repository.
    pub module: &'static str,
    /// Consortium partner(s) contributing this technology in the paper
    /// (this repository reimplements their role from scratch).
    pub partners: &'static str,
}

/// The full inventory, pillar order.
pub fn technologies() -> Vec<Technology> {
    use Pillar::*;
    let t = |pillar, name, module, partners| Technology { pillar, name, module, partners };
    vec![
        // Pillar 1.
        t(
            Infrastructure,
            "Layered cloud-fog-edge topology (Fig. 2)",
            "myrtus_continuum::topology",
            "HIRO, ABI, TNO, USI",
        ),
        t(
            Infrastructure,
            "Edge HMPSoC / RISC-V / multicore node models",
            "myrtus_continuum::node",
            "UNICA, UNISS, UPM, CRF",
        ),
        t(
            Infrastructure,
            "DVFS operating points & energy model",
            "myrtus_continuum::energy",
            "TUD, UNICA",
        ),
        t(Infrastructure, "HTTP/MQTT/CoAP network fabric", "myrtus_continuum::net", "ABI, HIRO"),
        t(
            Infrastructure,
            "Kubernetes-like low-level orchestration + LIQO federation",
            "myrtus_continuum::cluster",
            "ARK, TNO",
        ),
        t(
            Infrastructure,
            "Application/telemetry/infrastructure monitoring",
            "myrtus_continuum::monitor",
            "TNO, UNISS",
        ),
        t(Infrastructure, "Failure injection", "myrtus_continuum::fault", "TNO"),
        t(
            Infrastructure,
            "Raft-replicated Knowledge Base (ETCD contract)",
            "myrtus_kb::raft",
            "HIRO, TNO",
        ),
        t(Infrastructure, "Resource Registry / Status", "myrtus_kb::registry", "TNO"),
        t(
            Infrastructure,
            "Table II security levels (AES/ASCON/SHA-2 + PQC cost models)",
            "myrtus_security::suite",
            "USI",
        ),
        t(Infrastructure, "Secure channels & authentication", "myrtus_security::channel", "USI"),
        t(
            Infrastructure,
            "Gaia-X trust framework (signed self-descriptions)",
            "myrtus_security::gaiax",
            "HIRO",
        ),
        // Pillar 2.
        t(CognitiveEngine, "Four-step MAPE-K orchestration loop", "myrtus_mirto::engine", "TNO"),
        t(
            CognitiveEngine,
            "MIRTO API daemon (authn + TOSCA validation)",
            "myrtus_mirto::api",
            "TNO",
        ),
        t(
            CognitiveEngine,
            "WL Manager (placement + reallocation)",
            "myrtus_mirto::managers::wl",
            "TNO, LAKE, KCL",
        ),
        t(
            CognitiveEngine,
            "Node Manager (operating points, accel configs)",
            "myrtus_mirto::managers::node",
            "UNISS, UNICA, ABI, UPM",
        ),
        t(
            CognitiveEngine,
            "Network Manager (Q-learning routes)",
            "myrtus_mirto::managers::network",
            "KCL",
        ),
        t(
            CognitiveEngine,
            "Privacy & Security Manager (constraints, trust)",
            "myrtus_mirto::managers::privsec",
            "USI",
        ),
        t(CognitiveEngine, "Swarm intelligence placement (PSO/ACO)", "myrtus_mirto::swarm", "LAKE"),
        t(CognitiveEngine, "Federated learning of latency models", "myrtus_mirto::fl", "KCL"),
        t(CognitiveEngine, "Inter-agent offload auctions", "myrtus_mirto::agent", "TNO, LAKE"),
        t(CognitiveEngine, "Trust & reputation KPIs", "myrtus_security::trust", "USI"),
        t(CognitiveEngine, "LIQO/Kubernetes deployment proxy", "myrtus_mirto::deployer", "ARK"),
        t(
            CognitiveEngine,
            "Container image registry (access control + scanning)",
            "myrtus_mirto::images",
            "HIRO, ABI",
        ),
        t(
            CognitiveEngine,
            "Evolutionary local-rule design (FREVO/DynAA analog)",
            "myrtus_mirto::frevo",
            "LAKE, TNO",
        ),
        // Pillar 3.
        t(Dpe, "TOSCA-lite application modeling + validation", "myrtus_workload::tosca", "SOFT"),
        t(Dpe, "Model-based KPI estimation", "myrtus_workload::graph", "SOFT, LAKE, TNO"),
        t(
            Dpe,
            "ADT threat analysis + countermeasure synthesis",
            "myrtus_security::adt",
            "SOFT, USI",
        ),
        t(Dpe, "Dataflow IR (dfg-mlir analog) + transformations", "myrtus_dpe::ir", "TUD"),
        t(Dpe, "HLS estimation (CIRCT-hls / Vitis-HLS stand-in)", "myrtus_dpe::hls", "TUD, UNICA"),
        t(Dpe, "Multi-Dataflow Composer (reconfigurable datapaths)", "myrtus_dpe::mdc", "UNICA"),
        t(Dpe, "Heterogeneous DSE (Mocasin analog)", "myrtus_dpe::dse", "TUD, UPM"),
        t(
            Dpe,
            "Deployment specification (.csar analog) + operating points",
            "myrtus_dpe::deploy",
            "SOFT, TNO",
        ),
        t(Dpe, "NN model import (ONNX front-end analog)", "myrtus_dpe::nn", "TUD, UNICA"),
        t(Dpe, "CGRA mapping (cgra-mlir analog)", "myrtus_dpe::cgra", "TUD, UPM"),
        t(Dpe, "Program-code emission (host C + HLS kernels)", "myrtus_dpe::codegen", "TUD"),
        t(
            Dpe,
            "Lightweight-hash menu (QUARK/spongent/PHOTON models)",
            "myrtus_security::lwc",
            "USI",
        ),
        t(
            Dpe,
            "Smart-mobility & telerehabilitation use cases",
            "myrtus_workload::scenarios",
            "TNO, CRF, UNICA, REPLY",
        ),
    ]
}

/// Technologies of one pillar.
pub fn pillar_technologies(pillar: Pillar) -> Vec<Technology> {
    technologies().into_iter().filter(|t| t.pillar == pillar).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pillar_is_populated() {
        for p in [Pillar::Infrastructure, Pillar::CognitiveEngine, Pillar::Dpe] {
            assert!(pillar_technologies(p).len() >= 7, "{p}");
        }
    }

    #[test]
    fn inventory_is_unique() {
        let names: std::collections::BTreeSet<&str> =
            technologies().iter().map(|t| t.name).collect();
        assert_eq!(names.len(), technologies().len());
    }

    #[test]
    fn every_technology_names_its_partners() {
        for t in technologies() {
            assert!(!t.partners.is_empty(), "{} missing partners", t.name);
            assert!(
                t.partners.split(", ").all(|p| p.chars().all(|c| c.is_ascii_uppercase())),
                "{}: partner acronyms are uppercase ({})",
                t.name,
                t.partners
            );
        }
    }

    #[test]
    fn modules_reference_workspace_crates() {
        for t in technologies() {
            assert!(t.module.starts_with("myrtus_"), "{}", t.module);
        }
    }
}
