//! High-Level-Synthesis estimation (the CIRCT-hls / Vitis-HLS stand-in).
//!
//! The DPE's node-level step produces "executables and bitstreams"; what
//! downstream tools (MDC, the DSE, MIRTO's deployment metadata) need
//! from HLS is the *performance/area estimate* of each actor and of the
//! pipelined graph. The model uses the standard HLS quantities:
//! initiation interval (II), iteration latency, and a resource vector
//! (LUT / DSP / BRAM), with per-[`ActorKind`] coefficients.

use crate::ir::{ActorKind, DataflowGraph, IrError};

/// FPGA resource estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// Lookup tables.
    pub luts: u64,
    /// DSP slices.
    pub dsps: u64,
    /// Block RAMs (18 kb units).
    pub brams: u64,
}

impl Resources {
    /// Component-wise sum.
    pub fn saturating_add(self, other: Resources) -> Resources {
        Resources {
            luts: self.luts + other.luts,
            dsps: self.dsps + other.dsps,
            brams: self.brams + other.brams,
        }
    }

    /// Component-wise max (resource sharing between mutually exclusive
    /// datapaths).
    pub fn max(self, other: Resources) -> Resources {
        Resources {
            luts: self.luts.max(other.luts),
            dsps: self.dsps.max(other.dsps),
            brams: self.brams.max(other.brams),
        }
    }

    /// A scalar area proxy for comparisons (weighted resource mix).
    pub fn area_units(&self) -> u64 {
        self.luts + self.dsps * 64 + self.brams * 128
    }
}

/// HLS estimate for one actor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActorEstimate {
    /// Initiation interval in cycles (new firing accepted every II).
    pub ii: u64,
    /// Latency of one firing in cycles.
    pub latency_cycles: u64,
    /// Resource usage.
    pub resources: Resources,
}

/// HLS estimate for a whole pipelined graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphEstimate {
    /// Per-actor estimates, actor order.
    pub actors: Vec<ActorEstimate>,
    /// Steady-state cycles per graph iteration (bottleneck actor:
    /// max over actors of `reps × II`).
    pub cycles_per_iteration: u64,
    /// Fill latency of the pipeline (sum of stage latencies).
    pub fill_latency_cycles: u64,
    /// Total resources (no sharing).
    pub total_resources: Resources,
}

impl GraphEstimate {
    /// Iterations per second at `clock_mhz`.
    pub fn throughput_hz(&self, clock_mhz: f64) -> f64 {
        if self.cycles_per_iteration == 0 {
            0.0
        } else {
            clock_mhz * 1e6 / self.cycles_per_iteration as f64
        }
    }
}

/// Per-kind HLS coefficients: `(ops_per_cycle, lut_per_op, dsp_per_op,
/// fixed_luts)`.
fn kind_coefficients(kind: ActorKind) -> (f64, f64, f64, u64) {
    match kind {
        ActorKind::Source | ActorKind::Sink => (8.0, 0.05, 0.0, 50),
        ActorKind::Map => (4.0, 0.4, 0.02, 120),
        ActorKind::Stencil => (32.0, 0.8, 0.08, 400), // unrolled spatial kernel
        ActorKind::Reduce => (4.0, 0.3, 0.01, 150),
        ActorKind::Control => (1.0, 1.2, 0.0, 300),
    }
}

/// Estimates one actor.
///
/// Datapath area scales with the *parallelism* (operations issued per
/// cycle — the unroll factor the II implies), while control/wiring LUTs
/// grow slowly with the total operation count; DSPs are instantiated per
/// parallel lane, not per operation.
pub fn estimate_actor(actor: &crate::ir::Actor) -> ActorEstimate {
    let (ops_per_cycle, lut_per_op, dsp_per_op, fixed_luts) = kind_coefficients(actor.kind);
    let ii = ((actor.ops_per_firing as f64 / ops_per_cycle).ceil() as u64).max(1);
    let latency_cycles = ii + 4; // pipeline depth epsilon
    let parallelism = (actor.ops_per_firing as f64 / ii as f64).ceil().max(1.0);
    let resources = Resources {
        luts: fixed_luts
            + (parallelism * 30.0) as u64
            + (actor.ops_per_firing as f64 * lut_per_op * 0.1) as u64,
        dsps: (parallelism * dsp_per_op * 8.0).ceil() as u64,
        brams: actor.state_bytes / 2_048 + u64::from(actor.state_bytes > 0),
    };
    ActorEstimate { ii, latency_cycles, resources }
}

/// Estimates a whole graph under full pipelining.
///
/// # Errors
///
/// Propagates [`IrError`] for invalid graphs.
pub fn estimate_graph(graph: &DataflowGraph) -> Result<GraphEstimate, IrError> {
    graph.validate()?;
    let reps = graph.repetition_vector()?;
    let actors: Vec<ActorEstimate> = graph.actors().iter().map(estimate_actor).collect();
    let cycles_per_iteration = actors.iter().zip(&reps).map(|(e, &r)| e.ii * r).max().unwrap_or(0);
    let fill_latency_cycles = actors.iter().map(|e| e.latency_cycles).sum();
    let total_resources =
        actors.iter().map(|e| e.resources).fold(Resources::default(), Resources::saturating_add);
    Ok(GraphEstimate { actors, cycles_per_iteration, fill_latency_cycles, total_resources })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Actor, ActorKind};

    fn graph() -> DataflowGraph {
        let mut g = DataflowGraph::new("g");
        let a = g.add_actor(Actor::new("src", ActorKind::Source, 8));
        let b = g.add_actor(Actor::new("conv", ActorKind::Stencil, 4_096).with_state_bytes(8_192));
        let c = g.add_actor(Actor::new("sink", ActorKind::Sink, 8));
        g.connect(a, 1, b, 1, 64);
        g.connect(b, 1, c, 1, 16);
        g
    }

    #[test]
    fn stencil_dominates_the_pipeline() {
        let est = estimate_graph(&graph()).expect("valid");
        // conv: 4096 ops at 32 ops/cycle → II = 128.
        assert_eq!(est.cycles_per_iteration, 128);
        assert!(est.fill_latency_cycles > est.cycles_per_iteration / 2);
    }

    #[test]
    fn resources_accumulate_and_scale_with_ops() {
        let small = estimate_actor(&Actor::new("a", ActorKind::Map, 100));
        let big = estimate_actor(&Actor::new("b", ActorKind::Map, 10_000));
        assert!(big.resources.luts > small.resources.luts);
        assert!(big.ii > small.ii);
        let est = estimate_graph(&graph()).expect("valid");
        assert!(est.total_resources.luts > 0);
        assert!(est.total_resources.brams >= 4, "8 KiB state ⇒ ≥4 BRAM");
    }

    #[test]
    fn throughput_scales_with_clock() {
        let est = estimate_graph(&graph()).expect("valid");
        let slow = est.throughput_hz(100.0);
        let fast = est.throughput_hz(300.0);
        assert!((fast / slow - 3.0).abs() < 1e-9);
    }

    #[test]
    fn min_ii_is_one() {
        let e = estimate_actor(&Actor::new("tiny", ActorKind::Source, 1));
        assert_eq!(e.ii, 1);
    }

    #[test]
    fn resource_ops_max_and_area() {
        let a = Resources { luts: 100, dsps: 2, brams: 1 };
        let b = Resources { luts: 50, dsps: 5, brams: 0 };
        let sum = a.saturating_add(b);
        assert_eq!(sum.luts, 150);
        let m = a.max(b);
        assert_eq!(m, Resources { luts: 100, dsps: 5, brams: 1 });
        assert!(sum.area_units() > m.area_units());
    }

    #[test]
    fn invalid_graph_errors() {
        let g = DataflowGraph::new("empty");
        assert!(estimate_graph(&g).is_err());
    }
}
