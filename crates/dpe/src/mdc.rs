//! Multi-Dataflow Composer (the MDC tool analog).
//!
//! MDC generates *runtime-reconfigurable* accelerators by merging several
//! dataflow networks into one datapath in which functionally identical
//! actors are instantiated once and shared across configurations through
//! switching logic. [`compose`] performs that merge and
//! [`Composition::area_report`] quantifies the headline benefit: shared
//! area vs. the sum of dedicated datapaths.

use crate::hls::{estimate_actor, Resources};
use crate::ir::{Actor, Channel, DataflowGraph, IrError};

/// One actor of the composed datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedActor {
    /// The actor definition.
    pub actor: Actor,
    /// Configurations (input-graph indices) that use this actor.
    pub used_by: Vec<usize>,
}

/// One channel of the composed datapath, tagged with its configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedChannel {
    /// The channel (actor ids refer to the composed actor list).
    pub channel: Channel,
    /// Owning configuration.
    pub config: usize,
}

/// Per-shared-actor multiplexer overhead on LUTs, per extra
/// configuration (the "sbox" switching logic MDC inserts).
const MUX_LUT_OVERHEAD: u64 = 24;

/// A composed multi-dataflow datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct Composition {
    /// Composed (shared) actors.
    pub actors: Vec<SharedActor>,
    /// All channels, tagged per configuration.
    pub channels: Vec<TaggedChannel>,
    /// Number of input configurations.
    pub configs: usize,
    /// Names of the input graphs, configuration order.
    pub config_names: Vec<String>,
}

/// Area comparison of the composed datapath vs. dedicated ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Sum of the dedicated datapaths' resources.
    pub dedicated: Resources,
    /// Composed datapath resources (shared actors once + mux overhead).
    pub composed: Resources,
    /// Actors shared by at least two configurations.
    pub shared_actors: usize,
}

impl AreaReport {
    /// Fraction of dedicated area saved by composition.
    pub fn savings(&self) -> f64 {
        let d = self.dedicated.area_units() as f64;
        if d == 0.0 {
            0.0
        } else {
            1.0 - self.composed.area_units() as f64 / d
        }
    }
}

/// Merges the given dataflow graphs into one reconfigurable datapath.
/// Actors are shared when name, kind, ops and state match.
///
/// # Errors
///
/// Propagates validation errors of any input graph; an empty input list
/// yields [`IrError::Empty`].
pub fn compose(graphs: &[DataflowGraph]) -> Result<Composition, IrError> {
    if graphs.is_empty() {
        return Err(IrError::Empty);
    }
    for g in graphs {
        g.validate()?;
    }
    let mut actors: Vec<SharedActor> = Vec::new();
    let mut channels = Vec::new();
    for (cfg, g) in graphs.iter().enumerate() {
        // Map this graph's actor ids onto composed ids.
        let mut remap = Vec::with_capacity(g.actors().len());
        for a in g.actors() {
            let existing = actors.iter().position(|s| s.actor == *a);
            let id = match existing {
                Some(i) => {
                    if !actors[i].used_by.contains(&cfg) {
                        actors[i].used_by.push(cfg);
                    }
                    i
                }
                None => {
                    actors.push(SharedActor { actor: a.clone(), used_by: vec![cfg] });
                    actors.len() - 1
                }
            };
            remap.push(id);
        }
        for c in g.channels() {
            channels.push(TaggedChannel {
                channel: Channel {
                    from: remap[c.from],
                    produce: c.produce,
                    to: remap[c.to],
                    consume: c.consume,
                    token_bytes: c.token_bytes,
                },
                config: cfg,
            });
        }
    }
    Ok(Composition {
        actors,
        channels,
        configs: graphs.len(),
        config_names: graphs.iter().map(|g| g.name.clone()).collect(),
    })
}

impl Composition {
    /// Extracts one configuration back as a standalone graph (the
    /// behaviour loaded when that config is selected at runtime).
    ///
    /// # Panics
    ///
    /// Panics if `config` is out of range.
    pub fn configuration(&self, config: usize) -> DataflowGraph {
        assert!(config < self.configs, "config out of range");
        let mut g = DataflowGraph::new(self.config_names[config].clone());
        let mut remap = vec![usize::MAX; self.actors.len()];
        for (i, s) in self.actors.iter().enumerate() {
            if s.used_by.contains(&config) {
                remap[i] = g.add_actor(s.actor.clone());
            }
        }
        for t in self.channels.iter().filter(|t| t.config == config) {
            g.connect(
                remap[t.channel.from],
                t.channel.produce,
                remap[t.channel.to],
                t.channel.consume,
                t.channel.token_bytes,
            );
        }
        g
    }

    /// Computes the dedicated-vs-composed area comparison.
    pub fn area_report(&self) -> AreaReport {
        let mut dedicated = Resources::default();
        let mut composed = Resources::default();
        let mut shared_actors = 0;
        for s in &self.actors {
            let r = estimate_actor(&s.actor).resources;
            // Dedicated: one instance per using configuration.
            for _ in &s.used_by {
                dedicated = dedicated.saturating_add(r);
            }
            // Composed: one instance + mux overhead per extra config.
            let mut shared = r;
            if s.used_by.len() > 1 {
                shared_actors += 1;
                shared.luts += MUX_LUT_OVERHEAD * (s.used_by.len() as u64 - 1);
            }
            composed = composed.saturating_add(shared);
        }
        AreaReport { dedicated, composed, shared_actors }
    }

    /// Actors shared by at least two configurations.
    pub fn shared_actor_names(&self) -> Vec<&str> {
        self.actors.iter().filter(|s| s.used_by.len() > 1).map(|s| s.actor.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ActorKind;

    fn graph(name: &str, mid_name: &str, mid_ops: u64) -> DataflowGraph {
        let mut g = DataflowGraph::new(name);
        let a = g.add_actor(Actor::new("reader", ActorKind::Source, 8));
        let b = g.add_actor(Actor::new(mid_name, ActorKind::Stencil, mid_ops));
        let c = g.add_actor(Actor::new("writer", ActorKind::Sink, 8));
        g.connect(a, 1, b, 1, 64);
        g.connect(b, 1, c, 1, 64);
        g
    }

    #[test]
    fn identical_boundary_actors_are_shared() {
        let g1 = graph("sobel", "sobel-k", 1_000);
        let g2 = graph("blur", "blur-k", 2_000);
        let comp = compose(&[g1, g2]).expect("valid");
        // reader + writer shared; two distinct kernels.
        assert_eq!(comp.actors.len(), 4);
        assert_eq!(comp.shared_actor_names(), vec!["reader", "writer"]);
        assert_eq!(comp.configs, 2);
    }

    #[test]
    fn area_savings_grow_with_sharing() {
        let g1 = graph("a", "k", 1_000);
        let g2 = graph("b", "k", 1_000); // identical kernel too
        let comp = compose(&[g1.clone(), g2]).expect("valid");
        let report = comp.area_report();
        assert!(report.savings() > 0.4, "fully shared: {}", report.savings());
        // Distinct kernels share only the boundary actors.
        let comp2 = compose(&[g1, graph("c", "other", 4_000)]).expect("valid");
        let report2 = comp2.area_report();
        assert!(report2.savings() > 0.0);
        assert!(report2.savings() < report.savings());
    }

    #[test]
    fn extracted_configuration_round_trips() {
        let g1 = graph("sobel", "sobel-k", 1_000);
        let g2 = graph("blur", "blur-k", 2_000);
        let comp = compose(&[g1.clone(), g2.clone()]).expect("valid");
        let back0 = comp.configuration(0);
        let back1 = comp.configuration(1);
        back0.validate().expect("valid");
        back1.validate().expect("valid");
        assert_eq!(back0.actors().len(), g1.actors().len());
        assert!(back1.actor_by_name("blur-k").is_some());
        assert_eq!(back0.channels().len(), 2);
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(compose(&[]).err(), Some(IrError::Empty));
    }

    #[test]
    fn single_graph_composition_is_lossless() {
        let g = graph("only", "k", 500);
        let comp = compose(std::slice::from_ref(&g)).expect("valid");
        assert_eq!(comp.area_report().shared_actors, 0);
        assert!((comp.area_report().savings()).abs() < 1e-9);
        assert_eq!(comp.configuration(0).actors().len(), g.actors().len());
    }

    #[test]
    fn invalid_member_graph_rejected() {
        let bad = DataflowGraph::new("bad");
        assert!(compose(&[bad]).is_err());
    }
}
