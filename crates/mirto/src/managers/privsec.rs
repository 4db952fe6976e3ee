//! Privacy & Security Manager.
//!
//! Solves the security side of the placement constraints: every
//! component may only run on nodes supporting its required Table II
//! level (a deployment request "may indicate that some of the SW
//! containers should only run within a certain security level"), nodes
//! must be sufficiently trusted, and data in motion pays the level's
//! protection overhead, which this manager accounts in extra work and
//! bytes.

use myrtus_continuum::engine::SimCore;
use myrtus_continuum::ids::NodeId;
use myrtus_continuum::node::NodeKind;
use myrtus_obs::hash::WordSet;
use myrtus_security::suite::SecurityLevel;
use myrtus_security::trust::{Observation, TrustModel};
use myrtus_workload::graph::RequestDag;
use myrtus_workload::tosca::{Application, SecurityTier};

/// The highest security level each hardware family can sustain:
/// PQC suites need the compute of fog/cloud class machines, gateways and
/// multicores handle classical suites, bare RISC-V cores only the
/// lightweight one.
pub fn node_security_level(kind: NodeKind) -> SecurityLevel {
    match kind {
        NodeKind::CloudServer | NodeKind::FogFmdc => SecurityLevel::High,
        NodeKind::FogGateway | NodeKind::EdgeMulticore | NodeKind::EdgeHmpsoc => {
            SecurityLevel::Medium
        }
        NodeKind::EdgeRiscv => SecurityLevel::Low,
    }
}

/// Maps a workload security tier onto the concrete Table II level.
pub fn level_for_tier(tier: SecurityTier) -> SecurityLevel {
    match tier {
        SecurityTier::Low => SecurityLevel::Low,
        SecurityTier::Medium => SecurityLevel::Medium,
        SecurityTier::High => SecurityLevel::High,
    }
}

/// The Privacy & Security Manager.
#[derive(Debug)]
pub struct PrivacySecurityManager {
    trust: TrustModel,
    min_trust: f64,
    enforce: bool,
    handshakes: WordSet<(NodeId, NodeId, SecurityLevel)>,
    handshake_cycles: u64,
    protected_bytes: u64,
}

impl PrivacySecurityManager {
    /// Creates a manager; `enforce = false` turns all filtering and
    /// overhead off (the insecure baseline of experiment E6).
    pub fn new(enforce: bool) -> Self {
        PrivacySecurityManager {
            trust: TrustModel::new(0.995),
            min_trust: 0.25,
            enforce,
            handshakes: WordSet::default(),
            handshake_cycles: 0,
            protected_bytes: 0,
        }
    }

    /// Whether enforcement is on.
    pub fn enforcing(&self) -> bool {
        self.enforce
    }

    /// The runtime trust model.
    pub fn trust(&self) -> &TrustModel {
        &self.trust
    }

    /// Records an interaction outcome for trust scoring.
    pub fn observe(&mut self, node: NodeId, obs: Observation) {
        self.trust.observe(node, obs);
    }

    /// Per-component candidate nodes: up, memory-sufficient, security-
    /// capable and trusted. Without enforcement only liveness and memory
    /// filter.
    pub fn candidates(
        &self,
        sim: &SimCore,
        app: &Application,
        dag: &RequestDag,
    ) -> Vec<Vec<NodeId>> {
        dag.nodes()
            .iter()
            .map(|dn| {
                let comp = &app.components[dn.component_idx];
                let need = level_for_tier(comp.requirements.security);
                sim.nodes()
                    .iter()
                    .filter(|n| n.is_up())
                    .filter(|n| n.spec().mem_mb() >= comp.requirements.mem_mb)
                    .filter(|n| {
                        !self.enforce
                            || (node_security_level(n.spec().kind()) >= need
                                && self.trust.score(n.id()) >= self.min_trust)
                    })
                    .map(|n| n.id())
                    .collect()
            })
            .collect()
    }

    /// Extra software work (megacycles) for protecting `bytes` of
    /// transfer at the component's level, charged to the sending stage.
    /// Zero when enforcement is off or the tier is satisfied by a
    /// co-located hop.
    pub fn protection_work_mc(
        &mut self,
        tier: SecurityTier,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> f64 {
        if !self.enforce || src == dst || bytes == 0 {
            return 0.0;
        }
        let level = level_for_tier(tier);
        let suite = level.suite();
        self.protected_bytes += bytes;
        let mut cycles = suite.record_cycles(bytes);
        // First contact between two endpoints at a level pays the
        // mutual-authentication handshake.
        if self.handshakes.insert((src, dst, level)) {
            let hs = suite.handshake_cost();
            cycles += hs.initiator_cycles + hs.responder_cycles;
            self.handshake_cycles += hs.initiator_cycles + hs.responder_cycles;
        }
        cycles as f64 / 1e6 // cycles → megacycles
    }

    /// Extra wire bytes for a protected record.
    pub fn protection_wire_overhead(&self, tier: SecurityTier, src: NodeId, dst: NodeId) -> u64 {
        if !self.enforce || src == dst {
            0
        } else {
            level_for_tier(tier).suite().record_overhead_bytes()
        }
    }

    /// Total handshake cycles spent so far.
    pub fn handshake_cycles(&self) -> u64 {
        self.handshake_cycles
    }

    /// Total bytes protected so far.
    pub fn protected_bytes(&self) -> u64 {
        self.protected_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::topology::ContinuumBuilder;
    use myrtus_workload::scenarios;

    #[test]
    fn capability_ladder_matches_hardware() {
        assert_eq!(node_security_level(NodeKind::CloudServer), SecurityLevel::High);
        assert_eq!(node_security_level(NodeKind::EdgeRiscv), SecurityLevel::Low);
        assert!(node_security_level(NodeKind::FogGateway) >= SecurityLevel::Medium);
    }

    #[test]
    fn enforcement_filters_high_security_components_to_capable_nodes() {
        let c = ContinuumBuilder::new().build();
        let app = scenarios::telerehab(); // session-store requires High
        let dag = RequestDag::from_application(&app).expect("valid");
        let mgr = PrivacySecurityManager::new(true);
        let cands = mgr.candidates(c.sim(), &app, &dag);
        // Find the session-store stage (last in the chain).
        let store_stage =
            dag.nodes().iter().position(|n| n.name == "session-store").expect("exists");
        for n in &cands[store_stage] {
            let kind = c.sim().node(*n).expect("exists").spec().kind();
            assert_eq!(node_security_level(kind), SecurityLevel::High, "{kind}");
        }
        // Without enforcement every up node qualifies (memory permitting).
        let open = PrivacySecurityManager::new(false).candidates(c.sim(), &app, &dag);
        assert!(open[store_stage].len() > cands[store_stage].len());
    }

    #[test]
    fn memory_requirement_always_filters() {
        let c = ContinuumBuilder::new().build();
        let mut app = scenarios::telerehab();
        app.components[2].requirements.mem_mb = 100_000; // pose needs 100 GB
        let dag = RequestDag::from_application(&app).expect("valid");
        let cands = PrivacySecurityManager::new(false).candidates(c.sim(), &app, &dag);
        for n in &cands[2] {
            assert!(c.sim().node(*n).expect("exists").spec().mem_mb() >= 100_000);
        }
    }

    #[test]
    fn untrusted_nodes_are_excluded() {
        let c = ContinuumBuilder::new().build();
        let app = scenarios::smart_mobility();
        let dag = RequestDag::from_application(&app).expect("valid");
        let mut mgr = PrivacySecurityManager::new(true);
        let victim = c.edge()[0];
        for _ in 0..5 {
            mgr.observe(victim, Observation::SecurityIncident);
        }
        let cands = mgr.candidates(c.sim(), &app, &dag);
        for per_comp in &cands {
            assert!(!per_comp.contains(&victim), "incident-ridden node excluded");
        }
    }

    #[test]
    fn protection_work_scales_with_level_and_includes_handshake_once() {
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let mut mgr = PrivacySecurityManager::new(true);
        let first = mgr.protection_work_mc(SecurityTier::High, a, b, 100_000);
        let second = mgr.protection_work_mc(SecurityTier::High, a, b, 100_000);
        assert!(first > second, "first transfer pays the handshake");
        assert!(mgr.handshake_cycles() > 0);
        let mut low = PrivacySecurityManager::new(true);
        let l1 = low.protection_work_mc(SecurityTier::Low, a, b, 100_000);
        assert!(l1 < first, "low level is cheaper than high");
        // Co-located or disabled: free.
        assert_eq!(mgr.protection_work_mc(SecurityTier::High, a, a, 100_000), 0.0);
        let mut off = PrivacySecurityManager::new(false);
        assert_eq!(off.protection_work_mc(SecurityTier::High, a, b, 100_000), 0.0);
    }

    #[test]
    fn wire_overhead_only_under_enforcement() {
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let on = PrivacySecurityManager::new(true);
        let off = PrivacySecurityManager::new(false);
        assert!(on.protection_wire_overhead(SecurityTier::Medium, a, b) > 0);
        assert_eq!(off.protection_wire_overhead(SecurityTier::Medium, a, b), 0);
        assert_eq!(on.protection_wire_overhead(SecurityTier::Medium, a, a), 0);
    }
}
