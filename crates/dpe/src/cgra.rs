//! Coarse-Grain Reconfigurable Array mapping (the `cgra-mlir` analog).
//!
//! The paper extends RISC-V datapaths "with multi-grain reconfigurable
//! overlays" (ref \[4\]) and plans "abstractions for CGRAs (cgra-mlir)"
//! with "our recent flow from ONNX to CGRAs" (ref \[26\]). This module
//! models a 2-D CGRA of word-level processing elements and maps dataflow
//! actors onto it: operations are tiled over the array, the achievable
//! initiation interval follows from the tile count, and a configuration
//! stream (the "bitstream" of a CGRA) is sized from the used PEs.

use crate::ir::{ActorKind, DataflowGraph, IrError};

/// A rectangular CGRA fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CgraFabric {
    /// Rows of processing elements.
    pub rows: u32,
    /// Columns of processing elements.
    pub cols: u32,
    /// Clock in MHz.
    pub clock_mhz: u32,
    /// Configuration bits per PE (loaded on context switch).
    pub config_bits_per_pe: u32,
}

impl CgraFabric {
    /// A typical 4×4 overlay on an adaptive RISC-V core.
    pub fn overlay_4x4() -> Self {
        CgraFabric { rows: 4, cols: 4, clock_mhz: 600, config_bits_per_pe: 64 }
    }

    /// An 8×8 standalone fabric.
    pub fn standalone_8x8() -> Self {
        CgraFabric { rows: 8, cols: 8, clock_mhz: 400, config_bits_per_pe: 96 }
    }

    /// Total PEs.
    pub fn pes(&self) -> u32 {
        self.rows * self.cols
    }
}

/// Mapping of one actor onto the fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorMapping {
    /// Actor name.
    pub actor: String,
    /// PEs used by this actor's spatial kernel.
    pub pes_used: u32,
    /// Initiation interval in cycles at the mapped parallelism.
    pub ii_cycles: u64,
    /// Whether the actor is CGRA-mappable at all (regular dataflow).
    pub mapped: bool,
}

/// Mapping of a whole graph: per-actor results plus a time-multiplexed
/// schedule when the graph needs more PEs than the fabric has.
#[derive(Debug, Clone, PartialEq)]
pub struct CgraMapping {
    /// The fabric mapped onto.
    pub fabric: CgraFabric,
    /// Per-actor mappings.
    pub actors: Vec<ActorMapping>,
    /// Contexts (time-multiplexed configurations) needed.
    pub contexts: u32,
    /// Total configuration-stream size in bytes.
    pub config_bytes: u64,
    /// Steady-state cycles per graph iteration.
    pub cycles_per_iteration: u64,
}

impl CgraMapping {
    /// Iterations per second.
    pub fn throughput_hz(&self) -> f64 {
        if self.cycles_per_iteration == 0 {
            0.0
        } else {
            self.fabric.clock_mhz as f64 * 1e6 / self.cycles_per_iteration as f64
        }
    }

    /// Fraction of actors that could be spatially mapped.
    pub fn coverage(&self) -> f64 {
        if self.actors.is_empty() {
            return 0.0;
        }
        self.actors.iter().filter(|a| a.mapped).count() as f64 / self.actors.len() as f64
    }
}

/// Errors mapping onto a CGRA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CgraError {
    /// The graph failed IR validation.
    Ir(IrError),
    /// The fabric has no PEs.
    EmptyFabric,
}

impl std::fmt::Display for CgraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CgraError::Ir(e) => write!(f, "graph invalid: {e}"),
            CgraError::EmptyFabric => f.write_str("fabric has no processing elements"),
        }
    }
}

impl std::error::Error for CgraError {}

impl From<IrError> for CgraError {
    fn from(e: IrError) -> Self {
        CgraError::Ir(e)
    }
}

/// Whether an actor kind lends itself to spatial CGRA mapping.
fn cgra_mappable(kind: ActorKind) -> bool {
    matches!(kind, ActorKind::Map | ActorKind::Stencil | ActorKind::Reduce)
}

/// Maps `graph` onto `fabric`.
///
/// Regular actors get a spatial tile sized by their parallelism demand
/// (ops per firing, up to the fabric); irregular actors fall back to the
/// host core (unmapped, but accounted in the schedule with a scalar II).
/// When the mapped actors together need more PEs than available, the
/// fabric is time-multiplexed into contexts and every context switch
/// costs one configuration load.
///
/// # Errors
///
/// Returns [`CgraError`] for invalid graphs or empty fabrics.
pub fn map_graph(graph: &DataflowGraph, fabric: CgraFabric) -> Result<CgraMapping, CgraError> {
    graph.validate()?;
    if fabric.pes() == 0 {
        return Err(CgraError::EmptyFabric);
    }
    let reps = graph.repetition_vector()?;
    let mut actors = Vec::with_capacity(graph.actors().len());
    let mut total_pes = 0u32;
    for a in graph.actors() {
        if cgra_mappable(a.kind) {
            // Tile: one PE sustains ~1 op/cycle; allot PEs proportional
            // to the square root of the firing ops, clamped to a quarter
            // of the fabric so several actors co-reside.
            let want = (a.ops_per_firing as f64).sqrt().ceil() as u32;
            let pes = want.clamp(1, (fabric.pes() / 4).max(1));
            let ii = (a.ops_per_firing as f64 / pes as f64).ceil() as u64;
            total_pes += pes;
            actors.push(ActorMapping {
                actor: a.name.clone(),
                pes_used: pes,
                ii_cycles: ii.max(1),
                mapped: true,
            });
        } else {
            actors.push(ActorMapping {
                actor: a.name.clone(),
                pes_used: 0,
                // Host fallback: scalar issue.
                ii_cycles: a.ops_per_firing.max(1),
                mapped: false,
            });
        }
    }
    let contexts = total_pes.div_ceil(fabric.pes()).max(1);
    let config_bytes = total_pes as u64 * fabric.config_bits_per_pe as u64 / 8 * contexts as u64
        / contexts as u64
        + contexts as u64 * 16; // per-context descriptor
                                // Steady state: bottleneck actor (reps × II); time multiplexing
                                // serializes contexts, adding a reconfiguration bubble per extra
                                // context per iteration.
    let bottleneck = actors.iter().zip(&reps).map(|(m, &r)| m.ii_cycles * r).max().unwrap_or(0);
    let reconfig_bubble = (contexts as u64 - 1) * (fabric.config_bits_per_pe as u64 / 2);
    let cycles_per_iteration = bottleneck + reconfig_bubble;
    Ok(CgraMapping { fabric, actors, contexts, config_bytes, cycles_per_iteration })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Actor;

    fn regular_pipeline(ops: u64) -> DataflowGraph {
        let mut g = DataflowGraph::new("k");
        let s = g.add_actor(Actor::new("src", ActorKind::Source, 4));
        let m = g.add_actor(Actor::new("map", ActorKind::Map, ops));
        let k = g.add_actor(Actor::new("sink", ActorKind::Sink, 4));
        g.connect(s, 1, m, 1, 64);
        g.connect(m, 1, k, 1, 64);
        g
    }

    #[test]
    fn regular_actors_map_spatially() {
        let m = map_graph(&regular_pipeline(1_000), CgraFabric::overlay_4x4()).expect("maps");
        let map_actor = m.actors.iter().find(|a| a.actor == "map").expect("exists");
        assert!(map_actor.mapped);
        assert!(map_actor.pes_used >= 1);
        assert!(map_actor.ii_cycles < 1_000, "parallelism beats scalar issue");
        assert!(m.coverage() < 1.0, "source/sink stay on the host");
    }

    #[test]
    fn bigger_fabric_is_faster() {
        let g = regular_pipeline(10_000);
        let small = map_graph(&g, CgraFabric::overlay_4x4()).expect("maps");
        let big = map_graph(&g, CgraFabric::standalone_8x8()).expect("maps");
        assert!(big.cycles_per_iteration < small.cycles_per_iteration);
    }

    #[test]
    fn oversubscription_multiplexes_contexts() {
        // Many heavy actors on a tiny fabric.
        let mut g = DataflowGraph::new("wide");
        let s = g.add_actor(Actor::new("src", ActorKind::Source, 1));
        let mut prev = s;
        for i in 0..10 {
            let a = g.add_actor(Actor::new(format!("m{i}"), ActorKind::Map, 5_000));
            g.connect(prev, 1, a, 1, 16);
            prev = a;
        }
        let tiny = CgraFabric { rows: 2, cols: 2, clock_mhz: 600, config_bits_per_pe: 64 };
        let m = map_graph(&g, tiny).expect("maps");
        assert!(m.contexts > 1, "needs time multiplexing: {}", m.contexts);
        assert!(m.config_bytes > 0);
    }

    #[test]
    fn control_actors_fall_back_to_host() {
        let mut g = DataflowGraph::new("ctl");
        let s = g.add_actor(Actor::new("src", ActorKind::Source, 1));
        let c = g.add_actor(Actor::new("branchy", ActorKind::Control, 500));
        g.connect(s, 1, c, 1, 8);
        let m = map_graph(&g, CgraFabric::overlay_4x4()).expect("maps");
        let ctl = m.actors.iter().find(|a| a.actor == "branchy").expect("exists");
        assert!(!ctl.mapped);
        assert_eq!(ctl.ii_cycles, 500, "scalar issue on the host");
    }

    #[test]
    fn nn_backbone_maps_end_to_end() {
        let g = crate::nn::pose_backbone().lower().expect("lowers");
        let m = map_graph(&g, CgraFabric::standalone_8x8()).expect("maps");
        assert!(m.throughput_hz() > 0.0);
        assert!(m.coverage() > 0.5, "most NN layers are regular: {}", m.coverage());
    }

    #[test]
    fn error_paths() {
        let bad = DataflowGraph::new("empty");
        assert!(matches!(map_graph(&bad, CgraFabric::overlay_4x4()), Err(CgraError::Ir(_))));
        let no_pes = CgraFabric { rows: 0, cols: 4, clock_mhz: 100, config_bits_per_pe: 8 };
        assert_eq!(map_graph(&regular_pipeline(10), no_pes), Err(CgraError::EmptyFabric));
    }
}
