//! Property-based tests (proptest) over the core data structures and
//! invariants of the stack: crypto round-trips, SDF consistency, TOSCA
//! profile serialization, KV-store semantics and statistics.

use proptest::prelude::*;

use myrtus::continuum::admission::{AdmissionDecision, AdmissionPolicy, AdmissionState};
use myrtus::continuum::ids::{NodeId, TaskId};
use myrtus::continuum::retry::RetryPolicy;
use myrtus::continuum::stats::{OnlineStats, Summary};
use myrtus::continuum::task::TaskInstance;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::dpe::ir::{Actor, ActorKind, DataflowGraph};
use myrtus::kb::command::KvCommand;
use myrtus::kb::store::KvStore;
use myrtus::mirto::engine::{run_orchestration, EngineConfig};
use myrtus::mirto::managers::elasticity::{
    ElasticityConfig, ElasticityManager, ScaleAction, StageSignals,
};
use myrtus::mirto::placement::replica_target;
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::security::ascon::{ascon128_open, ascon128_seal};
use myrtus::security::sha2::{sha256, sha512};
use myrtus::security::suite::SecurityLevel;
use myrtus::workload::arrival::ArrivalSpec;
use myrtus::workload::compile::Tag;
use myrtus::workload::tosca::{Application, Component, ComponentKind, SecurityTier};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_suite_round_trips_arbitrary_payloads(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        ad in proptest::collection::vec(any::<u8>(), 0..64),
        level in prop_oneof![
            Just(SecurityLevel::Low),
            Just(SecurityLevel::Medium),
            Just(SecurityLevel::High),
        ],
    ) {
        let suite = level.suite();
        let key = vec![0x33u8; suite.encryption.key_len()];
        let nonce = [9u8; 12];
        let ct = suite.seal(&key, &nonce, &ad, &data);
        prop_assert!(ct.len() > data.len(), "always carries a tag");
        let pt = suite.open(&key, &nonce, &ad, &ct).expect("authentic");
        prop_assert_eq!(pt, data);
    }

    #[test]
    fn ascon_rejects_any_single_bitflip(
        data in proptest::collection::vec(any::<u8>(), 1..128),
        flip_byte in 0usize..143,
        flip_bit in 0u8..8,
    ) {
        let key = [1u8; 16];
        let nonce = [2u8; 16];
        let mut ct = ascon128_seal(&key, &nonce, b"", &data);
        let pos = flip_byte % ct.len();
        ct[pos] ^= 1 << flip_bit;
        prop_assert!(ascon128_open(&key, &nonce, b"", &ct).is_err());
    }

    #[test]
    fn hashes_are_length_stable_and_injective_ish(
        a in proptest::collection::vec(any::<u8>(), 0..256),
        b in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assert_eq!(sha256(&a).len(), 32);
        prop_assert_eq!(sha512(&a).len(), 64);
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        } else {
            prop_assert_eq!(sha512(&a), sha512(&b));
        }
    }

    #[test]
    fn tags_round_trip(app in any::<u16>(), request in any::<u32>(), stage in any::<u16>()) {
        let t = Tag { app, request, stage };
        prop_assert_eq!(Tag::decode(t.encode()), t);
    }

    #[test]
    fn sim_time_arithmetic_is_consistent(
        base_us in 0u64..1_000_000_000,
        delta_us in 0u64..1_000_000,
    ) {
        let t = SimTime::from_micros(base_us);
        let d = SimDuration::from_micros(delta_us);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d).saturating_since(t + d), SimDuration::ZERO);
        prop_assert!(t + d >= t);
    }

    #[test]
    fn online_stats_merge_matches_single_stream(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..199,
    ) {
        let k = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs { whole.push(x); }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..k] { a.push(x); }
        for &x in &xs[k..] { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-3);
    }

    #[test]
    fn summary_percentiles_are_ordered(
        xs in proptest::collection::vec(-1e9f64..1e9, 1..300),
    ) {
        let s = Summary::of(&xs).expect("non-empty");
        prop_assert!(s.min <= s.p50 && s.p50 <= s.p95);
        prop_assert!(s.p95 <= s.p99 && s.p99 <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn chain_profiles_round_trip(
        stages in 2usize..8,
        work in 1.0f64..100.0,
        period_us in 1u64..1_000_000,
        tier in prop_oneof![
            Just(SecurityTier::Low),
            Just(SecurityTier::Medium),
            Just(SecurityTier::High),
        ],
    ) {
        let mut app = Application::new(
            "prop",
            ArrivalSpec::periodic(SimDuration::from_micros(period_us), 3),
        );
        for i in 0..stages {
            let kind = if i == 0 {
                ComponentKind::Sensor
            } else if i == stages - 1 {
                ComponentKind::Storage
            } else {
                ComponentKind::Function
            };
            app = app.with_component(
                Component::new(format!("s{i}"), kind)
                    .with_work_mc(work)
                    .with_security(tier),
            );
        }
        for i in 1..stages {
            app = app.with_connection(
                format!("s{}", i - 1),
                format!("s{i}"),
                128,
                myrtus::continuum::net::Protocol::Mqtt,
            );
        }
        prop_assert!(app.validate().is_ok());
        let text = app.to_profile();
        let parsed = Application::from_profile(&text).expect("round trips");
        prop_assert_eq!(parsed, app);
    }

    #[test]
    fn kv_store_last_put_wins(
        keys in proptest::collection::vec("[a-c]{1,2}", 1..40),
    ) {
        let mut kv = KvStore::new();
        let mut model = std::collections::BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            let v = format!("v{i}");
            kv.apply(&KvCommand::put(format!("/{k}"), v.as_bytes()), SimTime::ZERO);
            model.insert(format!("/{k}"), v);
        }
        for (k, v) in &model {
            prop_assert_eq!(
                kv.get(k).map(|e| e.value.to_vec()),
                Some(v.as_bytes().to_vec())
            );
        }
        prop_assert_eq!(kv.len(), model.len());
        prop_assert_eq!(kv.revision(), keys.len() as u64);
    }

    #[test]
    fn sdf_chains_always_balance(
        rates in proptest::collection::vec((1u64..5, 1u64..5), 1..6),
    ) {
        let mut g = DataflowGraph::new("chain");
        let mut prev = g.add_actor(Actor::new("a0", ActorKind::Source, 1));
        for (i, (p, c)) in rates.iter().enumerate() {
            let next = g.add_actor(Actor::new(format!("a{}", i + 1), ActorKind::Map, 10));
            g.connect(prev, *p, next, *c, 8);
            prev = next;
        }
        // Chains can never be rate-inconsistent.
        let reps = g.repetition_vector().expect("chains always balance");
        prop_assert!(reps.iter().all(|&r| r >= 1));
        // Verify the balance equations hold on every channel.
        for ch in g.channels() {
            prop_assert_eq!(reps[ch.from] * ch.produce, reps[ch.to] * ch.consume);
        }
    }

    #[test]
    fn orchestration_reports_are_internally_consistent(
        stages in 2usize..5,
        work in 0.5f64..20.0,
        count in 1usize..30,
        period_ms in 5u64..100,
    ) {
        // Build a random chain and orchestrate it end to end; whatever the
        // shape, the report's invariants must hold.
        let mut app = Application::new(
            "prop-app",
            ArrivalSpec::periodic(SimDuration::from_millis(period_ms), count),
        );
        for i in 0..stages {
            let kind = if i == 0 { ComponentKind::Sensor } else { ComponentKind::Function };
            app = app.with_component(Component::new(format!("c{i}"), kind).with_work_mc(work));
        }
        for i in 1..stages {
            app = app.with_connection(
                format!("c{}", i - 1),
                format!("c{i}"),
                1_000,
                myrtus::continuum::net::Protocol::Mqtt,
            );
        }
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig::default(),
            vec![app],
            SimTime::from_secs(20),
        )
        .expect("placeable");
        let a = &report.apps[0];
        prop_assert!(a.completed + a.failed <= count as u64);
        prop_assert!(a.completed > 0, "generous horizon completes something");
        prop_assert!((0.0..=1.0).contains(&report.global_qos()));
        prop_assert!((0.0..=1.0).contains(&a.mean_quality));
        let layer_sum: f64 = report.layer_energy_j.iter().sum();
        prop_assert!((layer_sum - report.total_energy_j).abs() < 1e-6);
        if let Some(l) = &a.latency_ms {
            prop_assert!(l.count as u64 == a.completed);
            prop_assert!(l.min >= 0.0);
        }
        prop_assert_eq!(a.slowest_trace.len(), stages);
    }

    #[test]
    fn arrival_traces_are_sorted_and_bounded(
        rate in 1.0f64..500.0,
        secs in 1u64..5,
        seed in any::<u64>(),
    ) {
        let spec = ArrivalSpec::poisson(rate, SimTime::from_secs(secs));
        let ts = spec.generate(seed);
        prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(ts.iter().all(|t| *t < SimTime::from_secs(secs)));
    }

    #[test]
    fn backoff_schedules_are_monotonic_capped_and_seed_deterministic(
        base_us in 1u64..1_000_000,
        cap_mult in 1u64..64,
        jitter in 0.0f64..1.0,
        seed in any::<u64>(),
        task in any::<u64>(),
    ) {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: SimDuration::from_micros(base_us),
            backoff_cap: SimDuration::from_micros(base_us.saturating_mul(cap_mult)),
            jitter_frac: jitter,
            attempt_timeout: None,
            recovery_queue_cap: u32::MAX,
            seed,
        };
        // Monotonic non-decreasing, never above the cap.
        let schedule: Vec<u64> =
            (1..=16).map(|n| policy.backoff_for(n, task).as_micros()).collect();
        prop_assert!(schedule.windows(2).all(|w| w[0] <= w[1]), "{schedule:?}");
        prop_assert!(schedule.iter().all(|d| *d <= policy.backoff_cap.as_micros()));
        prop_assert!(schedule[0] >= policy.base_backoff.as_micros().min(policy.backoff_cap.as_micros()));
        // Byte-identical replay for the same seed, divergence is
        // allowed (not required) for another seed.
        let replay: Vec<u64> =
            (1..=16).map(|n| policy.backoff_for(n, task).as_micros()).collect();
        prop_assert_eq!(&schedule, &replay, "same policy, same task: same schedule");
        let reseeded = RetryPolicy { seed: seed.wrapping_add(1), ..policy };
        let other: Vec<u64> =
            (1..=16).map(|n| reseeded.backoff_for(n, task).as_micros()).collect();
        prop_assert!(other.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn admission_is_seed_deterministic_and_monotone_in_rate(
        gaps in proptest::collection::vec(0u64..40_000, 1..80),
        rate in 0u32..6,
        bump in 1u32..6,
        seed in any::<u64>(),
    ) {
        // Best-effort arrivals with seeded gaps against a tight
        // fixed-window bucket: replaying the sequence replays the
        // decisions byte-for-byte, and raising the token rate can only
        // grow the admitted set (the documented monotonicity of the
        // fixed-window shape).
        let policy = AdmissionPolicy {
            rate_per_window: rate,
            window: SimDuration::from_millis(10),
            max_delay: SimDuration::from_millis(20),
            seed,
            ..AdmissionPolicy::default()
        };
        let decide_all = |p: &AdmissionPolicy| -> Vec<bool> {
            let mut st = AdmissionState::default();
            let mut now = 0u64;
            gaps.iter()
                .enumerate()
                .map(|(i, gap)| {
                    now += gap;
                    let t = TaskInstance::new(TaskId::from_raw(i as u64), 1.0);
                    matches!(
                        p.decide(SimTime::from_micros(now), &t, 0, None, &mut st),
                        AdmissionDecision::Admit { .. }
                    )
                })
                .collect()
        };
        let low = decide_all(&policy);
        prop_assert_eq!(&low, &decide_all(&policy), "same arrivals, same decisions");
        let high = decide_all(&AdmissionPolicy { rate_per_window: rate + bump, ..policy });
        for (i, (l, h)) in low.iter().zip(&high).enumerate() {
            prop_assert!(
                !l || *h,
                "raising the rate from {rate} by {bump} shed task {i} that was admitted"
            );
        }
    }

    #[test]
    fn autoscaler_actions_are_deterministic_and_never_flap(
        raw in proptest::collection::vec(
            (0.0f64..1.5, 0.0f64..20.0, 0.0f64..1.0, 0u32..5),
            2..60,
        ),
        cooldown in 0u32..5,
    ) {
        // Arbitrary telemetry sequences: replaying them replays the
        // decisions, every action respects the replica bounds, and no
        // two actions (in particular an up followed by a down) land
        // within the effective cooldown window.
        let cfg = ElasticityConfig { cooldown_rounds: cooldown, ..ElasticityConfig::default() };
        let run = || -> Vec<Option<ScaleAction>> {
            let mut m = ElasticityManager::new(cfg);
            raw.iter()
                .map(|&(utilization, queue_depth, miss_rate, replicas)| {
                    m.decide((3, 1), &StageSignals { utilization, queue_depth, miss_rate, replicas })
                })
                .collect()
        };
        let actions = run();
        prop_assert_eq!(&actions, &run(), "same telemetry, same scaling decisions");
        let gap = cooldown.max(1) as usize;
        let mut last: Option<usize> = None;
        for (round, action) in actions.iter().enumerate() {
            let Some(action) = action else { continue };
            let replicas = raw[round].3;
            match action {
                ScaleAction::ScaleUp => {
                    prop_assert!(replicas < cfg.max_replicas, "never scales past the ceiling")
                }
                ScaleAction::ScaleDown => {
                    prop_assert!(replicas > 0, "never evicts a replica that does not exist")
                }
            }
            if let Some(prev) = last {
                prop_assert!(
                    round - prev > gap,
                    "actions at rounds {prev} and {round} violate the {gap}-round cooldown"
                );
            }
            last = Some(round);
        }
    }

    #[test]
    fn replica_placement_never_doubles_up_on_the_primary(
        raw_candidates in proptest::collection::vec(0u32..64, 0..12),
        avoid in 0u32..64,
    ) {
        let avoid = NodeId::from_raw(avoid);
        let candidates: Vec<NodeId> =
            raw_candidates.iter().copied().map(NodeId::from_raw).collect();
        match replica_target(avoid, &candidates) {
            Some(twin) => {
                prop_assert_ne!(twin, avoid, "a replica never lands on its primary's node");
                prop_assert!(candidates.contains(&twin), "the twin is a real candidate");
                // Deterministic: permuting the candidate list cannot
                // change the choice.
                let mut rev = candidates.clone();
                rev.reverse();
                prop_assert_eq!(replica_target(avoid, &rev), Some(twin));
            }
            None => prop_assert!(
                candidates.iter().all(|&n| n == avoid),
                "placement only fails when every candidate is the primary's node"
            ),
        }
    }

    /// The engine's total event order is `(time, insertion sequence)`:
    /// any interleaving of timer insertions — including equal-timestamp
    /// bursts and zero-delay timers scheduled *while draining* — must
    /// fire in insertion order within each instant. In debug builds the
    /// drain also runs under the wheel's heap order oracle, which
    /// checks every pop (the "both backends" of the name: the wheel and
    /// the heap it is held to).
    #[test]
    fn equal_timestamp_events_drain_in_insertion_order_on_both_backends(
        delays in proptest::collection::vec(0u64..40, 1..120),
        respawn_mask in any::<u64>(),
    ) {
        use myrtus::continuum::engine::{Driver, SimCore, SimEvent};

        /// Logs every timer firing and, for tags selected by the mask,
        /// schedules a zero-delay follow-up *during dispatch* — an
        /// insertion at exactly `now`, the hardest ordering case.
        struct TimerLog {
            fired: Vec<(u64, u64)>,
            next_tag: u64,
            respawn_mask: u64,
            respawns_left: u32,
        }
        impl Driver for TimerLog {
            fn on_event(&mut self, sim: &mut SimCore, event: SimEvent) {
                let SimEvent::Timer { tag, .. } = event else { return };
                self.fired.push((sim.now().as_micros(), tag));
                if self.respawns_left > 0 && self.respawn_mask & (1 << (tag % 64)) != 0 {
                    self.respawns_left -= 1;
                    sim.set_timer(SimDuration::ZERO, self.next_tag);
                    self.next_tag += 1;
                }
            }
        }

        let mut sim = SimCore::new();
        for (i, &d) in delays.iter().enumerate() {
            sim.set_timer(SimDuration::from_micros(d), i as u64);
        }
        let mut log = TimerLog {
            fired: Vec::new(),
            next_tag: delays.len() as u64,
            respawn_mask,
            respawns_left: 64,
        };
        sim.run_until(SimTime::from_secs(1), &mut log);

        prop_assert!(log.fired.len() >= delays.len(), "every scheduled timer fires");
        // Tags are assigned in set_timer order, so within one instant
        // strictly ascending tags == insertion-order draining; across
        // instants time never goes backwards.
        for w in log.fired.windows(2) {
            prop_assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "events out of (time, insertion) order: {:?} then {:?}", w[0], w[1]
            );
        }
    }
}
