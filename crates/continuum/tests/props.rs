//! Property-based tests of the simulation core's invariants.

use proptest::prelude::*;

use myrtus_continuum::engine::{Driver, NullDriver, SimCore, SimEvent};
use myrtus_continuum::ids::NodeId;
use myrtus_continuum::net::{Network, Protocol, RouteCache};
use myrtus_continuum::node::NodeSpec;
use myrtus_continuum::task::TaskInstance;
use myrtus_continuum::time::{SimDuration, SimTime};
use myrtus_continuum::topology::ContinuumBuilder;

#[derive(Default)]
struct Counter {
    completed: u64,
    lost: u64,
}

impl Driver for Counter {
    fn on_event(&mut self, _sim: &mut SimCore, event: SimEvent) {
        match event {
            SimEvent::TaskCompleted(_) => self.completed += 1,
            SimEvent::TaskAbandoned { .. } => self.lost += 1,
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation: every submitted task either completes or is lost
    /// (abandoned: no retry policy is installed) — never duplicated,
    /// never silently dropped — given enough time.
    #[test]
    fn tasks_are_conserved(
        works in proptest::collection::vec(0.1f64..50.0, 1..40),
        crash_ms in proptest::option::of(1u64..100),
    ) {
        let mut sim = SimCore::new();
        let node = sim.add_node(NodeSpec::preset_edge_multicore("n"));
        let submitted = works.len() as u64;
        for w in &works {
            let t = TaskInstance::new(sim.fresh_task_id(), *w);
            sim.submit_local(node, t).expect("node up");
        }
        if let Some(ms) = crash_ms {
            sim.schedule_node_down(node, SimTime::from_millis(ms));
        }
        let mut c = Counter::default();
        sim.run_until(SimTime::from_secs(600), &mut c);
        prop_assert_eq!(c.completed + c.lost, submitted);
        prop_assert_eq!(sim.node(node).map(|n| n.completed()), Some(c.completed));
    }

    /// Energy never decreases and busy runs cost at least idle power.
    #[test]
    fn energy_is_monotone_and_bounded_below(
        work in 1.0f64..5_000.0,
        horizon_ms in 10u64..2_000,
    ) {
        let mut sim = SimCore::new();
        let node = sim.add_node(NodeSpec::preset_edge_multicore("n"));
        let t = TaskInstance::new(sim.fresh_task_id(), work);
        sim.submit_local(node, t).expect("node up");
        let mut last = 0.0f64;
        for step in 1..=4u64 {
            let end = SimTime::from_millis(horizon_ms * step / 4);
            sim.run_until(end, &mut NullDriver);
            let e = sim.node(node).expect("exists").energy_j();
            prop_assert!(e >= last - 1e-12, "energy never decreases");
            last = e;
        }
        // Lower bound: idle power (1.5 W eco? nominal idle 1.5 W) over
        // the horizon (point 0 idle is 1.5 W for the multicore preset).
        let idle_floor = 1.5 * (horizon_ms as f64 / 1_000.0) * 0.99;
        prop_assert!(last >= idle_floor, "{last} >= {idle_floor}");
    }

    /// Network transfers are monotone in payload size and never beat the
    /// propagation delay.
    #[test]
    fn transfers_are_monotone_in_size(
        a in 1u64..100_000,
        b in 1u64..100_000,
    ) {
        let mut c = ContinuumBuilder::new().build();
        let (small, large) = (a.min(b), a.max(b));
        let src = c.edge()[0];
        let dst = c.cloud()[0];
        let path = c.sim().network().route(src, dst).expect("routable");
        let now = c.sim().now();
        let eta_small =
            c.sim_mut().network_mut().transfer(now, &path, small, Protocol::Mqtt);
        // Fresh network for an independent measurement.
        let mut c2 = ContinuumBuilder::new().build();
        let path2 = c2.sim().network().route(src, dst).expect("routable");
        let eta_large =
            c2.sim_mut().network_mut().transfer(now, &path2, large, Protocol::Mqtt);
        prop_assert!(eta_large >= eta_small);
        let propagation: SimDuration = path
            .iter()
            .map(|l| c.sim().network().link(*l).expect("exists").latency())
            .sum();
        prop_assert!(eta_small.saturating_since(now) >= propagation);
    }

    /// The same submission schedule yields identical event counts —
    /// core determinism under arbitrary task mixes.
    #[test]
    fn identical_schedules_replay_identically(
        works in proptest::collection::vec(0.5f64..20.0, 1..25),
        seedish in 0u32..4,
    ) {
        let run = || {
            let mut c = ContinuumBuilder::new().build();
            let nodes = c.all_nodes();
            {
                let sim = c.sim_mut();
                for (i, w) in works.iter().enumerate() {
                    let node = nodes[(i + seedish as usize) % nodes.len()];
                    let t = TaskInstance::new(sim.fresh_task_id(), *w)
                        .with_io_bytes(*w as u64 * 100, 10);
                    sim.submit_local(node, t).expect("up");
                }
                sim.run_until(SimTime::from_secs(60), &mut NullDriver);
            }
            (
                c.sim().processed_events(),
                c.sim().nodes().iter().map(|n| n.completed()).sum::<u64>(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// The plan-time route/transfer cache is a pure memo: for any
    /// topology shape, any payload mix, and any sequence of link
    /// up/down flips, every cached answer equals the uncached one —
    /// and repeat queries actually hit the cache.
    #[test]
    fn route_cache_agrees_with_uncached_under_link_churn(
        edges in 1usize..4,
        gws in 1usize..3,
        fogs in 1usize..3,
        clouds in 1usize..3,
        flips in proptest::collection::vec((0u16..256, 0u8..2), 0..10),
        payloads in proptest::collection::vec(1u64..200_000, 2..6),
    ) {
        fn check_all(
            net: &Network,
            cache: &RouteCache,
            now: SimTime,
            nodes: &[NodeId],
            payloads: &[u64],
        ) {
            for &from in nodes {
                for &to in nodes {
                    let cached = cache.route(net, from, to).ok();
                    let direct = net.route(from, to).ok();
                    assert_eq!(cached, direct);
                    for &payload in payloads {
                        let cached_eta =
                            cache.estimate(net, now, from, to, payload, Protocol::Mqtt);
                        let direct_eta = direct.as_ref().map(|path| {
                            net.estimate_transfer(now, path, payload, Protocol::Mqtt)
                        });
                        assert_eq!(cached_eta, direct_eta);
                    }
                }
            }
        }

        let mut c = ContinuumBuilder::new()
            .edge_multicores(edges)
            .gateways(gws)
            .fmdcs(fogs)
            .cloud_servers(clouds)
            .build();
        let nodes = c.all_nodes();
        let cache = RouteCache::new();
        let now = c.sim().now();
        let net = c.sim_mut().network_mut();
        let links: Vec<_> = net.iter_links().map(|(id, _, _)| id).collect();

        // Cold pass, then a warm pass that must be served from the memo.
        check_all(net, &cache, now, &nodes, &payloads);
        let cold = cache.stats();
        check_all(net, &cache, now, &nodes, &payloads);
        let warm = cache.stats();
        prop_assert_eq!(warm.route_misses, cold.route_misses);
        prop_assert_eq!(warm.estimate_misses, cold.estimate_misses);
        prop_assert!(warm.route_hits > cold.route_hits);
        prop_assert!(warm.estimate_hits > cold.estimate_hits);

        // Link churn: after every flip the cache must still agree,
        // including negative (unreachable) answers.
        for (pick, up) in flips {
            let id = links[pick as usize % links.len()];
            net.set_link_up(id, up == 1);
            check_all(net, &cache, now, &nodes, &payloads);
        }
    }
}
