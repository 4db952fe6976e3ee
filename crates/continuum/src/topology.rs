//! Builders for the layered continuum of paper Fig. 2.
//!
//! [`ContinuumBuilder`] wires edge devices to smart gateways, gateways and
//! FMDCs to each other and to the cloud, producing a ready-to-run
//! [`Continuum`] (a [`SimCore`] plus layer bookkeeping).

use crate::engine::SimCore;
use crate::ids::NodeId;
use crate::node::{Layer, NodeSpec};
use crate::time::SimDuration;

/// Link parameters for one inter-layer hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in Mbit/s.
    pub bandwidth_mbps: f64,
}

impl HopSpec {
    /// Creates a hop spec.
    pub fn new(latency: SimDuration, bandwidth_mbps: f64) -> Self {
        HopSpec { latency, bandwidth_mbps }
    }
}

/// A built continuum: the simulation core plus per-layer node ids.
#[derive(Debug)]
pub struct Continuum {
    sim: SimCore,
    edge: Vec<NodeId>,
    gateways: Vec<NodeId>,
    fmdcs: Vec<NodeId>,
    cloud: Vec<NodeId>,
}

impl Continuum {
    /// The simulation core.
    pub fn sim(&self) -> &SimCore {
        &self.sim
    }

    /// Mutable simulation core.
    pub fn sim_mut(&mut self) -> &mut SimCore {
        &mut self.sim
    }

    /// Edge-layer node ids.
    pub fn edge(&self) -> &[NodeId] {
        &self.edge
    }

    /// Smart-gateway node ids (fog).
    pub fn gateways(&self) -> &[NodeId] {
        &self.gateways
    }

    /// FMDC node ids (fog).
    pub fn fmdcs(&self) -> &[NodeId] {
        &self.fmdcs
    }

    /// Cloud node ids.
    pub fn cloud(&self) -> &[NodeId] {
        &self.cloud
    }

    /// All fog node ids (gateways then FMDCs).
    pub fn fog(&self) -> Vec<NodeId> {
        self.gateways.iter().chain(self.fmdcs.iter()).copied().collect()
    }

    /// All node ids of one layer.
    pub fn layer_nodes(&self, layer: Layer) -> Vec<NodeId> {
        match layer {
            Layer::Edge => self.edge.clone(),
            Layer::Fog => self.fog(),
            Layer::Cloud => self.cloud.clone(),
        }
    }

    /// All node ids in id order.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        self.sim.nodes().iter().map(|n| n.id()).collect()
    }
}

/// Builder assembling the Fig. 2 reference infrastructure (C-BUILDER).
///
/// # Examples
///
/// ```
/// use myrtus_continuum::topology::ContinuumBuilder;
///
/// let c = ContinuumBuilder::new()
///     .edge_multicores(2)
///     .edge_hmpsocs(2)
///     .edge_riscvs(0)
///     .gateways(1)
///     .fmdcs(1)
///     .cloud_servers(1)
///     .build();
/// assert_eq!(c.edge().len(), 4);
/// assert_eq!(c.fog().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ContinuumBuilder {
    multicores: usize,
    hmpsocs: usize,
    riscvs: usize,
    gateways: usize,
    fmdcs: usize,
    cloud_servers: usize,
    edge_fog: HopSpec,
    fog_fog: HopSpec,
    fog_cloud: HopSpec,
    cloud_cloud: HopSpec,
}

impl Default for ContinuumBuilder {
    fn default() -> Self {
        ContinuumBuilder {
            multicores: 3,
            hmpsocs: 3,
            riscvs: 2,
            gateways: 1,
            fmdcs: 1,
            cloud_servers: 1,
            edge_fog: HopSpec::new(SimDuration::from_millis(2), 100.0),
            fog_fog: HopSpec::new(SimDuration::from_millis(1), 1_000.0),
            fog_cloud: HopSpec::new(SimDuration::from_millis(25), 500.0),
            cloud_cloud: HopSpec::new(SimDuration::from_micros(200), 10_000.0),
        }
    }
}

impl ContinuumBuilder {
    /// Starts from the paper-default shape: 8 edge devices, 1 gateway,
    /// 1 FMDC, 1 cloud server.
    pub fn new() -> Self {
        ContinuumBuilder::default()
    }

    /// Number of commercial multicore edge boards.
    pub fn edge_multicores(mut self, n: usize) -> Self {
        self.multicores = n;
        self
    }

    /// Number of HMPSoC FPGA edge devices.
    pub fn edge_hmpsocs(mut self, n: usize) -> Self {
        self.hmpsocs = n;
        self
    }

    /// Number of adaptive RISC-V edge devices.
    pub fn edge_riscvs(mut self, n: usize) -> Self {
        self.riscvs = n;
        self
    }

    /// Number of smart gateways.
    pub fn gateways(mut self, n: usize) -> Self {
        self.gateways = n;
        self
    }

    /// Number of fog micro data centers.
    pub fn fmdcs(mut self, n: usize) -> Self {
        self.fmdcs = n;
        self
    }

    /// Number of cloud servers.
    pub fn cloud_servers(mut self, n: usize) -> Self {
        self.cloud_servers = n;
        self
    }

    /// Edge ↔ fog hop parameters.
    pub fn edge_fog_hop(mut self, hop: HopSpec) -> Self {
        self.edge_fog = hop;
        self
    }

    /// Builds the continuum.
    ///
    /// # Panics
    ///
    /// Panics if there is any edge node but no gateway to attach it to.
    pub fn build(self) -> Continuum {
        let mut sim = SimCore::new();
        let region = self.build_into(&mut sim, "");
        Continuum {
            sim,
            edge: region.edge,
            gateways: region.gateways,
            fmdcs: region.fmdcs,
            cloud: region.cloud,
        }
    }

    /// Builds one copy of the reference shape into an *existing* core,
    /// prefixing every node name, and returns the per-layer node ids.
    /// [`ContinuumBuilder::build`] is `build_into` with an empty prefix
    /// on a fresh core; the federation builder calls it once per region
    /// so N regional continuums share one deterministic event queue.
    ///
    /// # Panics
    ///
    /// Panics if there is any edge node but no gateway to attach it to.
    pub fn build_into(&self, sim: &mut SimCore, prefix: &str) -> BuiltRegion {
        // The builder knows every count up front: pre-size the node
        // tables and give the event queue room for one in-flight event
        // per node before the first task is submitted.
        let node_count = self.multicores
            + self.hmpsocs
            + self.riscvs
            + self.gateways
            + self.fmdcs
            + self.cloud_servers;
        sim.reserve_nodes(node_count);
        sim.reserve_events(node_count);
        let mut edge = Vec::with_capacity(self.multicores + self.hmpsocs + self.riscvs);
        for i in 0..self.multicores {
            edge.push(
                sim.add_node(NodeSpec::preset_edge_multicore(format!("{prefix}edge-mc-{i}"))),
            );
        }
        for i in 0..self.hmpsocs {
            edge.push(
                sim.add_node(NodeSpec::preset_edge_hmpsoc(format!("{prefix}edge-hmpsoc-{i}"))),
            );
        }
        for i in 0..self.riscvs {
            edge.push(sim.add_node(NodeSpec::preset_edge_riscv(format!("{prefix}edge-riscv-{i}"))));
        }
        let gateways: Vec<NodeId> = (0..self.gateways)
            .map(|i| sim.add_node(NodeSpec::preset_fog_gateway(format!("{prefix}fog-gw-{i}"))))
            .collect();
        let fmdcs: Vec<NodeId> = (0..self.fmdcs)
            .map(|i| sim.add_node(NodeSpec::preset_fog_fmdc(format!("{prefix}fog-fmdc-{i}"))))
            .collect();
        let cloud: Vec<NodeId> = (0..self.cloud_servers)
            .map(|i| sim.add_node(NodeSpec::preset_cloud_server(format!("{prefix}cloud-{i}"))))
            .collect();

        assert!(edge.is_empty() || !gateways.is_empty(), "edge devices need at least one gateway");

        // Edge devices attach to gateways round-robin.
        for (i, &e) in edge.iter().enumerate() {
            let gw = gateways[i % gateways.len()];
            sim.network_mut().add_duplex(
                e,
                gw,
                self.edge_fog.latency,
                self.edge_fog.bandwidth_mbps,
            );
        }
        // Gateways ↔ FMDCs full mesh.
        for &gw in &gateways {
            for &f in &fmdcs {
                sim.network_mut().add_duplex(
                    gw,
                    f,
                    self.fog_fog.latency,
                    self.fog_fog.bandwidth_mbps,
                );
            }
        }
        // Every fog component reaches every cloud server.
        for fog_node in gateways.iter().chain(fmdcs.iter()) {
            for &c in &cloud {
                sim.network_mut().add_duplex(
                    *fog_node,
                    c,
                    self.fog_cloud.latency,
                    self.fog_cloud.bandwidth_mbps,
                );
            }
        }
        // Cloud servers interconnect.
        for (i, &a) in cloud.iter().enumerate() {
            for &b in cloud.iter().skip(i + 1) {
                sim.network_mut().add_duplex(
                    a,
                    b,
                    self.cloud_cloud.latency,
                    self.cloud_cloud.bandwidth_mbps,
                );
            }
        }

        BuiltRegion { edge, gateways, fmdcs, cloud }
    }
}

/// Per-layer node ids of one built copy of the reference shape —
/// what [`ContinuumBuilder::build_into`] hands back for each region.
#[derive(Debug, Clone)]
pub struct BuiltRegion {
    /// Edge-layer node ids.
    pub edge: Vec<NodeId>,
    /// Smart-gateway node ids (fog).
    pub gateways: Vec<NodeId>,
    /// FMDC node ids (fog).
    pub fmdcs: Vec<NodeId>,
    /// Cloud node ids.
    pub cloud: Vec<NodeId>,
}

impl BuiltRegion {
    /// Every node of the region in id order.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .edge
            .iter()
            .chain(self.gateways.iter())
            .chain(self.fmdcs.iter())
            .chain(self.cloud.iter())
            .copied()
            .collect();
        out.sort_unstable();
        out
    }

    /// The region's WAN ingress: the first FMDC, falling back to the
    /// first gateway, then the first cloud server.
    ///
    /// # Panics
    ///
    /// Panics if the region has no fog or cloud node at all.
    pub fn ingress(&self) -> NodeId {
        self.fmdcs
            .first()
            .or_else(|| self.gateways.first())
            .or_else(|| self.cloud.first())
            .copied()
            .expect("a region needs at least one fog or cloud node")
    }
}

impl Continuum {
    /// Assembles a continuum from an already-built core plus per-layer
    /// ids — the federation builder's aggregate view over all regions.
    pub fn from_parts(
        sim: SimCore,
        edge: Vec<NodeId>,
        gateways: Vec<NodeId>,
        fmdcs: Vec<NodeId>,
        cloud: Vec<NodeId>,
    ) -> Self {
        Continuum { sim, edge, gateways, fmdcs, cloud }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullDriver;
    use crate::net::Protocol;
    use crate::task::TaskInstance;
    use crate::time::SimTime;

    #[test]
    fn default_shape_matches_paper_fig2() {
        let c = ContinuumBuilder::new().build();
        assert_eq!(c.edge().len(), 8);
        assert_eq!(c.gateways().len(), 1);
        assert_eq!(c.fmdcs().len(), 1);
        assert_eq!(c.cloud().len(), 1);
        assert_eq!(c.all_nodes().len(), 11);
    }

    #[test]
    fn every_edge_node_reaches_the_cloud() {
        let c = ContinuumBuilder::new().build();
        let cloud = c.cloud()[0];
        for &e in c.edge() {
            assert!(c.sim().network().route(e, cloud).is_ok(), "{e} must reach cloud");
        }
    }

    #[test]
    fn layer_nodes_partition_the_topology() {
        let c = ContinuumBuilder::new().edge_riscvs(0).build();
        let total = c.layer_nodes(Layer::Edge).len()
            + c.layer_nodes(Layer::Fog).len()
            + c.layer_nodes(Layer::Cloud).len();
        assert_eq!(total, c.all_nodes().len());
        for id in c.layer_nodes(Layer::Fog) {
            let node = c.sim().node(id).expect("exists");
            assert_eq!(node.spec().layer(), Layer::Fog);
        }
    }

    #[test]
    fn offload_edge_to_cloud_runs_end_to_end() {
        let mut c = ContinuumBuilder::new().build();
        let src = c.edge()[0];
        let dst = c.cloud()[0];
        let task = {
            let sim = c.sim_mut();
            TaskInstance::new(sim.fresh_task_id(), 10.0).with_io_bytes(50_000, 1_000)
        };
        c.sim_mut().submit_via_network(src, dst, task, Protocol::Http).expect("routable");
        c.sim_mut().run_until(SimTime::from_secs(1), &mut NullDriver);
        assert_eq!(c.sim().node(dst).map(|n| n.completed()), Some(1));
    }

    #[test]
    #[should_panic(expected = "gateway")]
    fn edge_without_gateway_panics() {
        let _ = ContinuumBuilder::new().gateways(0).build();
    }

    #[test]
    fn multiple_gateways_round_robin_edge_attachment() {
        let c = ContinuumBuilder::new()
            .edge_multicores(4)
            .edge_hmpsocs(0)
            .edge_riscvs(0)
            .gateways(2)
            .build();
        // Each gateway serves two edge devices: both must be reachable.
        for &e in c.edge() {
            let ok = c
                .gateways()
                .iter()
                .any(|&g| c.sim().network().route(e, g).map(|p| p.len() == 1).unwrap_or(false));
            assert!(ok, "{e} attaches directly to some gateway");
        }
    }
}
