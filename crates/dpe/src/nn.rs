//! Neural-network model import (the ONNX / torch-MLIR front-end analog).
//!
//! The DPE "already takes in … ML models in ONNX format" and ref \[26\]
//! describes an ONNX-to-hardware flow for adaptive inference. This
//! module provides the typed model description such a front-end
//! produces — a sequential [`NnModel`] of convolution / dense / pooling
//! / activation layers — and lowers it to the dataflow IR with exact
//! per-layer operation counts, ready for HLS, MDC and the DSE.

use crate::ir::{Actor, ActorKind, DataflowGraph, IrError};

/// A tensor shape `(channels, height, width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Channels.
    pub c: u32,
    /// Height.
    pub h: u32,
    /// Width.
    pub w: u32,
}

impl Shape {
    /// Creates a shape.
    pub fn new(c: u32, h: u32, w: u32) -> Self {
        Shape { c, h, w }
    }

    /// Elements in the tensor.
    pub fn elements(&self) -> u64 {
        self.c as u64 * self.h as u64 * self.w as u64
    }
}

/// One layer of a sequential model.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// 2-D convolution with square `kernel`, `out_channels` filters,
    /// stride 1, same padding.
    Conv2d {
        /// Output channels.
        out_channels: u32,
        /// Kernel side length.
        kernel: u32,
    },
    /// Fully connected layer to `outputs` neurons (flattens its input).
    Dense {
        /// Output neurons.
        outputs: u32,
    },
    /// Max pooling with a square window (stride = window).
    MaxPool {
        /// Window side length.
        window: u32,
    },
    /// Element-wise ReLU.
    Relu,
}

/// Errors lowering a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// The model has no layers.
    Empty,
    /// A pooling window does not divide the spatial size.
    BadPooling {
        /// Index of the offending layer.
        layer: usize,
    },
    /// The lowered graph failed IR validation.
    Ir(IrError),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::Empty => f.write_str("model has no layers"),
            NnError::BadPooling { layer } => {
                write!(f, "layer {layer}: pooling window does not divide the input")
            }
            NnError::Ir(e) => write!(f, "lowered graph invalid: {e}"),
        }
    }
}

impl std::error::Error for NnError {}

impl From<IrError> for NnError {
    fn from(e: IrError) -> Self {
        NnError::Ir(e)
    }
}

/// A sequential inference model.
#[derive(Debug, Clone, PartialEq)]
pub struct NnModel {
    /// Model name.
    pub name: String,
    /// Input tensor shape.
    pub input: Shape,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl NnModel {
    /// Creates a model.
    pub fn new(name: impl Into<String>, input: Shape) -> Self {
        NnModel { name: name.into(), input, layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn with_layer(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Output shapes after each layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadPooling`] for non-dividing pool windows and
    /// [`NnError::Empty`] for layer-less models.
    pub fn shapes(&self) -> Result<Vec<Shape>, NnError> {
        if self.layers.is_empty() {
            return Err(NnError::Empty);
        }
        let mut cur = self.input;
        let mut out = Vec::with_capacity(self.layers.len());
        for (i, l) in self.layers.iter().enumerate() {
            cur = match l {
                Layer::Conv2d { out_channels, .. } => Shape::new(*out_channels, cur.h, cur.w),
                Layer::Dense { outputs } => Shape::new(*outputs, 1, 1),
                Layer::MaxPool { window } => {
                    if *window == 0
                        || !cur.h.is_multiple_of(*window)
                        || !cur.w.is_multiple_of(*window)
                    {
                        return Err(NnError::BadPooling { layer: i });
                    }
                    Shape::new(cur.c, cur.h / window, cur.w / window)
                }
                Layer::Relu => cur,
            };
            out.push(cur);
        }
        Ok(out)
    }

    /// Multiply-accumulate (and comparison) operations per layer.
    pub fn ops_per_layer(&self) -> Result<Vec<u64>, NnError> {
        let shapes = self.shapes()?;
        let mut prev = self.input;
        let mut ops = Vec::with_capacity(self.layers.len());
        for (l, out) in self.layers.iter().zip(&shapes) {
            let o = match l {
                Layer::Conv2d { kernel, .. } => {
                    out.elements() * prev.c as u64 * (*kernel as u64) * (*kernel as u64) * 2
                }
                Layer::Dense { .. } => prev.elements() * out.elements() * 2,
                Layer::MaxPool { window } => out.elements() * (*window as u64) * (*window as u64),
                Layer::Relu => out.elements(),
            };
            ops.push(o);
            prev = *out;
        }
        Ok(ops)
    }

    /// Total operations of one inference.
    pub fn total_ops(&self) -> Result<u64, NnError> {
        Ok(self.ops_per_layer()?.iter().sum())
    }

    /// Lowers the model to a validated dataflow graph: one actor per
    /// layer plus source/sink, channels carrying the inter-layer tensor
    /// volumes (1 byte per element, quantized inference).
    ///
    /// # Errors
    ///
    /// Propagates shape and IR validation errors.
    pub fn lower(&self) -> Result<DataflowGraph, NnError> {
        let shapes = self.shapes()?;
        let ops = self.ops_per_layer()?;
        // Ops are per-inference; the dataflow actor fires once per
        // inference, so ops_per_firing = per-layer ops. Scale down to
        // kilo-ops to keep HLS II estimates in a practical range.
        let mut g = DataflowGraph::new(self.name.clone());
        let src = g.add_actor(Actor::new("input", ActorKind::Source, 8));
        let mut prev = src;
        let mut prev_bytes = self.input.elements();
        for (i, (l, out)) in self.layers.iter().zip(&shapes).enumerate() {
            let (kind, name) = match l {
                Layer::Conv2d { kernel, .. } => {
                    (ActorKind::Stencil, format!("conv{i}_{kernel}x{kernel}"))
                }
                Layer::Dense { .. } => (ActorKind::Map, format!("dense{i}")),
                Layer::MaxPool { .. } => (ActorKind::Reduce, format!("pool{i}")),
                Layer::Relu => (ActorKind::Map, format!("relu{i}")),
            };
            let weight_bytes = match l {
                Layer::Conv2d { out_channels, kernel } => {
                    *out_channels as u64 * (*kernel as u64).pow(2)
                }
                Layer::Dense { outputs } => *outputs as u64 * 16,
                _ => 0,
            };
            let a = g.add_actor(
                Actor::new(name, kind, (ops[i] / 1_000).max(1)).with_state_bytes(weight_bytes),
            );
            g.connect(prev, 1, a, 1, prev_bytes);
            prev = a;
            prev_bytes = out.elements();
        }
        let sink = g.add_actor(Actor::new("output", ActorKind::Sink, 8));
        g.connect(prev, 1, sink, 1, prev_bytes);
        g.validate()?;
        Ok(g)
    }
}

/// The reference pose-estimation backbone of the telerehabilitation
/// use case as an importable model (ref \[26\] style).
pub fn pose_backbone() -> NnModel {
    NnModel::new("pose-backbone", Shape::new(3, 64, 64))
        .with_layer(Layer::Conv2d { out_channels: 16, kernel: 3 })
        .with_layer(Layer::Relu)
        .with_layer(Layer::MaxPool { window: 2 })
        .with_layer(Layer::Conv2d { out_channels: 32, kernel: 3 })
        .with_layer(Layer::Relu)
        .with_layer(Layer::MaxPool { window: 2 })
        .with_layer(Layer::Dense { outputs: 34 }) // 17 keypoints × (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_propagate() {
        let m = pose_backbone();
        let shapes = m.shapes().expect("valid");
        assert_eq!(shapes[0], Shape::new(16, 64, 64));
        assert_eq!(shapes[2], Shape::new(16, 32, 32));
        assert_eq!(shapes[5], Shape::new(32, 16, 16));
        assert_eq!(shapes.last(), Some(&Shape::new(34, 1, 1)));
    }

    #[test]
    fn conv_ops_match_formula() {
        let m = NnModel::new("t", Shape::new(3, 8, 8))
            .with_layer(Layer::Conv2d { out_channels: 4, kernel: 3 });
        // out elements = 4*8*8 = 256; ops = 256 * 3 * 9 * 2 = 13824.
        assert_eq!(m.ops_per_layer().expect("valid"), vec![13_824]);
    }

    #[test]
    fn bad_pooling_is_rejected() {
        let m = NnModel::new("t", Shape::new(1, 7, 7)).with_layer(Layer::MaxPool { window: 2 });
        assert_eq!(m.shapes(), Err(NnError::BadPooling { layer: 0 }));
        let empty = NnModel::new("e", Shape::new(1, 1, 1));
        assert_eq!(empty.shapes(), Err(NnError::Empty));
    }

    #[test]
    fn lowering_produces_a_valid_graph() {
        let g = pose_backbone().lower().expect("lowers");
        g.validate().expect("valid IR");
        // source + 7 layers + sink.
        assert_eq!(g.actors().len(), 9);
        assert!(g.actor_by_name("conv0_3x3").is_some());
        assert!(g.actor_by_name("dense6").is_some());
        // Channel volumes shrink through pooling.
        let first = g.channels()[0].token_bytes;
        let last = g.channels().last().expect("non-empty").token_bytes;
        assert!(first > last);
    }

    #[test]
    fn lowered_model_flows_into_hls_and_dse() {
        let g = pose_backbone().lower().expect("lowers");
        let est = crate::hls::estimate_graph(&g).expect("estimates");
        assert!(est.cycles_per_iteration > 0);
        let dse =
            crate::dse::explore(&g, &crate::dse::standard_edge_platform(), 1, 6).expect("explores");
        assert!(!dse.front.is_empty());
    }

    #[test]
    fn total_ops_are_conv_dominated() {
        let m = pose_backbone();
        let ops = m.ops_per_layer().expect("valid");
        let total = m.total_ops().expect("valid");
        let convs: u64 = ops[0] + ops[3];
        assert!(convs * 10 > total * 8, "convs dominate: {convs} of {total}");
    }
}
