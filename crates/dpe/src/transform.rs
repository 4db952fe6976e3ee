//! Dataflow transformations (the MLIR-pass analog).
//!
//! Two passes the Fig. 4 flow applies between modeling and code
//! generation: **fusion** of linear single-rate actor chains (reduces
//! channel traffic and per-actor overhead before software compilation)
//! and **partitioning** of a graph by a target assignment (the
//! "portioned app" split into host code and accelerator kernels).

use crate::ir::{Actor, ActorKind, DataflowGraph, IrError};

/// Fuses maximal linear chains of 1:1-rate compute actors (Map / Reduce /
/// Control with single fan-in and fan-out) into one actor whose ops and
/// state are the sums. Sources, sinks and stencils stay unfused (they
/// anchor I/O and sliding-window semantics).
///
/// # Errors
///
/// Propagates validation errors of the input.
pub fn fuse_linear_chains(graph: &DataflowGraph) -> Result<DataflowGraph, IrError> {
    graph.validate()?;
    let n = graph.actors().len();
    let mut out_deg = vec![0usize; n];
    let mut in_deg = vec![0usize; n];
    for c in graph.channels() {
        out_deg[c.from] += 1;
        in_deg[c.to] += 1;
    }
    let fusable = |i: usize| {
        matches!(graph.actors()[i].kind, ActorKind::Map | ActorKind::Reduce | ActorKind::Control)
            && in_deg[i] <= 1
            && out_deg[i] <= 1
    };
    // Union chains: follow 1:1 channels between fusable actors.
    let mut group = (0..n).collect::<Vec<usize>>();
    fn find(group: &mut Vec<usize>, i: usize) -> usize {
        if group[i] == i {
            i
        } else {
            let r = find(group, group[i]);
            group[i] = r;
            r
        }
    }
    for c in graph.channels() {
        if c.produce == 1 && c.consume == 1 && fusable(c.from) && fusable(c.to) {
            let a = find(&mut group, c.from);
            let b = find(&mut group, c.to);
            group[a] = b;
        }
    }
    // Build fused graph: one actor per group, in topological order of
    // representatives.
    let order = graph.topo_order()?;
    let mut rep_of = vec![usize::MAX; n];
    let mut fused = DataflowGraph::new(format!("{}-fused", graph.name));
    let mut group_actor = std::collections::BTreeMap::new();
    for &i in &order {
        let g = find(&mut group, i);
        let id = *group_actor.entry(g).or_insert_with(|| {
            fused.add_actor(Actor::new(graph.actors()[i].name.clone(), graph.actors()[i].kind, 0))
        });
        rep_of[i] = id;
    }
    // Accumulate ops/state per fused actor.
    let mut ops = vec![0u64; fused.actors().len()];
    let mut state = vec![0u64; fused.actors().len()];
    for (i, a) in graph.actors().iter().enumerate() {
        ops[rep_of[i]] += a.ops_per_firing;
        state[rep_of[i]] += a.state_bytes;
    }
    let mut rebuilt = DataflowGraph::new(fused.name.clone());
    for (i, a) in fused.actors().iter().enumerate() {
        rebuilt.add_actor(Actor::new(a.name.clone(), a.kind, ops[i]).with_state_bytes(state[i]));
    }
    // Keep only inter-group channels.
    for c in graph.channels() {
        let (f, t) = (rep_of[c.from], rep_of[c.to]);
        if f != t {
            rebuilt.connect(f, c.produce, t, c.consume, c.token_bytes);
        }
    }
    rebuilt.validate()?;
    Ok(rebuilt)
}

/// One side of a partitioned graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPiece {
    /// The subgraph.
    pub graph: DataflowGraph,
    /// Original actor indices, subgraph order.
    pub original_actors: Vec<usize>,
}

/// Result of partitioning by a target assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// One piece per target (index = target id).
    pub pieces: Vec<PartitionPiece>,
    /// Bytes per iteration crossing between targets.
    pub cut_bytes: u64,
}

/// Splits `graph` into per-target subgraphs according to `assignment`
/// (one target id per actor).
///
/// # Errors
///
/// Returns [`IrError::BadActor`] when the assignment length mismatches.
pub fn partition(graph: &DataflowGraph, assignment: &[usize]) -> Result<Partition, IrError> {
    if assignment.len() != graph.actors().len() {
        return Err(IrError::BadActor(assignment.len()));
    }
    let reps = graph.repetition_vector()?;
    let targets = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut pieces: Vec<PartitionPiece> = (0..targets)
        .map(|t| PartitionPiece {
            graph: DataflowGraph::new(format!("{}-part{}", graph.name, t)),
            original_actors: Vec::new(),
        })
        .collect();
    let mut local_id = vec![usize::MAX; graph.actors().len()];
    for (i, a) in graph.actors().iter().enumerate() {
        let t = assignment[i];
        local_id[i] = pieces[t].graph.add_actor(a.clone());
        pieces[t].original_actors.push(i);
    }
    let mut cut_bytes = 0u64;
    for c in graph.channels() {
        if assignment[c.from] == assignment[c.to] {
            let t = assignment[c.from];
            pieces[t].graph.connect(
                local_id[c.from],
                c.produce,
                local_id[c.to],
                c.consume,
                c.token_bytes,
            );
        } else {
            cut_bytes += reps[c.from] * c.produce * c.token_bytes;
        }
    }
    Ok(Partition { pieces, cut_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> DataflowGraph {
        let mut g = DataflowGraph::new("c");
        let s = g.add_actor(Actor::new("src", ActorKind::Source, 1));
        let a = g.add_actor(Actor::new("f1", ActorKind::Map, 100).with_state_bytes(4));
        let b = g.add_actor(Actor::new("f2", ActorKind::Map, 200).with_state_bytes(8));
        let c = g.add_actor(Actor::new("conv", ActorKind::Stencil, 5_000));
        let d = g.add_actor(Actor::new("f3", ActorKind::Reduce, 50));
        let k = g.add_actor(Actor::new("sink", ActorKind::Sink, 1));
        g.connect(s, 1, a, 1, 64);
        g.connect(a, 1, b, 1, 64);
        g.connect(b, 1, c, 1, 64);
        g.connect(c, 1, d, 1, 32);
        g.connect(d, 1, k, 1, 16);
        g
    }

    #[test]
    fn fusion_merges_adjacent_maps_only() {
        let fused = fuse_linear_chains(&chain()).expect("valid");
        // f1+f2 merge; src, conv, f3, sink stay → 5 actors.
        assert_eq!(fused.actors().len(), 5);
        let merged =
            fused.actors().iter().find(|a| a.ops_per_firing == 300).expect("fused actor sums ops");
        assert_eq!(merged.state_bytes, 12);
        assert!(fused.actor_by_name("conv").is_some(), "stencil never fuses");
    }

    #[test]
    fn fusion_preserves_iteration_ops() {
        let g = chain();
        let fused = fuse_linear_chains(&g).expect("valid");
        assert_eq!(g.ops_per_iteration().expect("ok"), fused.ops_per_iteration().expect("ok"));
    }

    #[test]
    fn fusion_skips_multirate_boundaries() {
        let mut g = DataflowGraph::new("mr");
        let a = g.add_actor(Actor::new("a", ActorKind::Map, 10));
        let b = g.add_actor(Actor::new("b", ActorKind::Map, 10));
        g.connect(a, 2, b, 1, 8); // 2:1 — not fusable
        let fused = fuse_linear_chains(&g).expect("valid");
        assert_eq!(fused.actors().len(), 2);
    }

    #[test]
    fn fusion_skips_fanout_nodes() {
        let mut g = DataflowGraph::new("fan");
        let a = g.add_actor(Actor::new("a", ActorKind::Map, 10));
        let b = g.add_actor(Actor::new("b", ActorKind::Map, 10));
        let c = g.add_actor(Actor::new("c", ActorKind::Map, 10));
        g.connect(a, 1, b, 1, 8);
        g.connect(a, 1, c, 1, 8);
        let fused = fuse_linear_chains(&g).expect("valid");
        assert_eq!(fused.actors().len(), 3, "fan-out anchor stays");
    }

    #[test]
    fn partition_splits_and_counts_cut() {
        let g = chain();
        // src,f1,f2 on target 0; conv on 1; f3,sink on 0.
        let assignment = vec![0, 0, 0, 1, 0, 0];
        let p = partition(&g, &assignment).expect("valid");
        assert_eq!(p.pieces.len(), 2);
        assert_eq!(p.pieces[0].graph.actors().len(), 5);
        assert_eq!(p.pieces[1].graph.actors().len(), 1);
        // Cut: b→conv (64) + conv→f3 (32).
        assert_eq!(p.cut_bytes, 96);
        assert_eq!(p.pieces[1].original_actors, vec![3]);
    }

    #[test]
    fn partition_rejects_wrong_length() {
        let g = chain();
        assert!(partition(&g, &[0, 1]).is_err());
    }

    #[test]
    fn single_target_partition_is_the_whole_graph() {
        let g = chain();
        let p = partition(&g, &vec![0; g.actors().len()]).expect("valid");
        assert_eq!(p.cut_bytes, 0);
        assert_eq!(p.pieces[0].graph.channels().len(), g.channels().len());
    }
}
