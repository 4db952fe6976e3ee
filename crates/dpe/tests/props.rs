//! Property-based tests of the DPE's transformation invariants.

use std::collections::BTreeSet;

use proptest::prelude::*;

use myrtus_dpe::dse::{evaluate_mapping, DesignPoint};
use myrtus_dpe::ir::{Actor, ActorKind, DataflowGraph};
use myrtus_dpe::mdc::compose;
use myrtus_dpe::nn::{Layer, NnModel, Shape};
use myrtus_dpe::transform::{fuse_linear_chains, partition};

fn kind_of(tag: u8) -> ActorKind {
    match tag % 4 {
        0 => ActorKind::Map,
        1 => ActorKind::Stencil,
        2 => ActorKind::Reduce,
        _ => ActorKind::Control,
    }
}

fn random_chain(spec: &[(u8, u16)]) -> DataflowGraph {
    let mut g = DataflowGraph::new("chain");
    let src = g.add_actor(Actor::new("src", ActorKind::Source, 4));
    let mut prev = src;
    for (i, (kind, ops)) in spec.iter().enumerate() {
        let a = g.add_actor(Actor::new(format!("a{i}"), kind_of(*kind), *ops as u64 + 1));
        g.connect(prev, 1, a, 1, 16);
        prev = a;
    }
    let sink = g.add_actor(Actor::new("sink", ActorKind::Sink, 4));
    g.connect(prev, 1, sink, 1, 16);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fusion preserves total work, total state and validity for any
    /// single-rate chain.
    #[test]
    fn fusion_preserves_work(spec in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..12)) {
        let g = random_chain(&spec);
        let fused = fuse_linear_chains(&g).expect("valid chain");
        prop_assert!(fused.validate().is_ok());
        prop_assert_eq!(
            g.ops_per_iteration().expect("valid"),
            fused.ops_per_iteration().expect("valid")
        );
        prop_assert!(fused.actors().len() <= g.actors().len());
    }

    /// Partitioning conserves bytes: internal channel bytes + cut bytes
    /// equal the whole graph's per-iteration bytes, for any assignment.
    #[test]
    fn partition_conserves_bytes(
        spec in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..10),
        targets in proptest::collection::vec(0usize..3, 12),
    ) {
        let g = random_chain(&spec);
        let assignment: Vec<usize> =
            (0..g.actors().len()).map(|i| targets[i % targets.len()]).collect();
        let p = partition(&g, &assignment).expect("valid");
        let internal: u64 = p
            .pieces
            .iter()
            .map(|piece| piece.graph.bytes_per_iteration().unwrap_or(0))
            .sum();
        prop_assert_eq!(
            internal + p.cut_bytes,
            g.bytes_per_iteration().expect("valid")
        );
        let total_actors: usize = p.pieces.iter().map(|x| x.graph.actors().len()).sum();
        prop_assert_eq!(total_actors, g.actors().len());
    }

    /// MDC composition never *increases* area beyond dedicated datapaths
    /// plus bounded mux overhead, and savings stay in [0, 1).
    #[test]
    fn mdc_savings_are_bounded(
        spec_a in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..6),
        spec_b in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..6),
    ) {
        let a = random_chain(&spec_a);
        let mut b = random_chain(&spec_b);
        b.name = "chain-b".into();
        let comp = compose(&[a, b]).expect("valid");
        let report = comp.area_report();
        let savings = report.savings();
        prop_assert!(savings < 1.0, "savings {savings}");
        prop_assert!(
            report.composed.area_units() <= report.dedicated.area_units(),
            "sharing cannot cost more than duplication"
        );
        // Extracted configurations stay valid.
        for cfg in 0..comp.configs {
            prop_assert!(comp.configuration(cfg).validate().is_ok());
        }
    }

    /// Any well-shaped sequential NN lowers to a valid dataflow graph
    /// whose actor count is layers + 2.
    #[test]
    fn nn_models_lower_validly(
        channels in proptest::collection::vec(1u32..24, 1..5),
        kernel in 1u32..5,
        dense_out in 1u32..64,
    ) {
        let mut m = NnModel::new("gen", Shape::new(3, 16, 16));
        for &c in &channels {
            m = m.with_layer(Layer::Conv2d { out_channels: c, kernel });
            m = m.with_layer(Layer::Relu);
        }
        m = m.with_layer(Layer::MaxPool { window: 2 });
        m = m.with_layer(Layer::Dense { outputs: dense_out });
        let g = m.lower().expect("lowers");
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.actors().len(), m.layers.len() + 2);
        prop_assert!(m.total_ops().expect("valid") > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exploration agrees with the reference evaluator on both
    /// branches. Short chains (at most 20,000 mappings) are enumerated:
    /// `points` is every feasible mapping in odometer order (actor 0
    /// varies fastest), each scored by `evaluate_mapping`. Long chains
    /// are sampled: `points` holds no mapping twice and every point is
    /// feasible as scored; up to 63 samples make polished duplicates
    /// common enough to test the dedup. Either way the front indexes
    /// into `points`.
    #[test]
    fn exploration_matches_the_reference_evaluator(
        spec in proptest::collection::vec((any::<u8>(), 1u16..400), 1..11),
        seed in any::<u16>(),
        samples in 1usize..64,
    ) {
        let g = random_chain(&spec);
        let platform = myrtus_dpe::standard_edge_platform();
        let res = myrtus_dpe::explore(&g, &platform, seed as u64, samples)
            .expect("valid graph");
        let (n, p) = (g.actors().len(), platform.len());
        let score = |mapping: &Vec<usize>| {
            evaluate_mapping(&g, &platform, mapping).expect("valid graph")
        };
        if (p as f64).powi(n as i32) <= 20_000.0 {
            let expected: Vec<DesignPoint> = (0..p.pow(n as u32))
                .filter_map(|code| {
                    let mapping: Vec<usize> =
                        (0..n).map(|a| code / p.pow(a as u32) % p).collect();
                    let eval = score(&mapping);
                    eval.feasible.then_some(DesignPoint { mapping, eval })
                })
                .collect();
            prop_assert_eq!(&res.points, &expected);
        } else {
            let mut seen = BTreeSet::new();
            for pt in &res.points {
                prop_assert!(seen.insert(pt.mapping.clone()), "duplicate {:?}", pt.mapping);
                prop_assert!(pt.eval.feasible);
                prop_assert_eq!(pt.eval, score(&pt.mapping));
            }
        }
        let mut front = res.front.clone();
        front.sort_unstable();
        front.dedup();
        prop_assert_eq!(front.len(), res.front.len());
        prop_assert!(res.front.iter().all(|&i| i < res.points.len()));
    }
}
