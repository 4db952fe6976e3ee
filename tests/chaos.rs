//! Chaos suite: seeded random fault plans — node crashes, link cuts,
//! never-recovering outages — thrown at the full orchestration stack
//! with observability enabled. The engine must survive every plan
//! without panicking, task accounting must stay conservative, and the
//! structured trace must pair every recovering crash with its recovery
//! at exactly `at + outage`.

use std::collections::BTreeMap;

use myrtus::continuum::fault::FaultPlan;
use myrtus::continuum::ids::LinkId;
use myrtus::continuum::retry::RetryPolicy;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::{Continuum, ContinuumBuilder};
use myrtus::mirto::engine::{EngineConfig, OrchestrationEngine, OrchestrationReport};
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::obs::span::reconstruct;
use myrtus::obs::{ObsConfig, TraceKind};
use myrtus::workload::scenarios;

const HORIZON: SimTime = SimTime::from_secs(5);

/// One chaos run: sample a fault plan from `seed`, apply it, and run
/// the full cognitive loop with observability on.
fn chaos_run(seed: u64) -> (FaultPlan, OrchestrationReport) {
    let mut continuum = ContinuumBuilder::new().build();
    let nodes = continuum.all_nodes();
    let links: Vec<LinkId> = continuum.sim().network().iter_links().map(|(id, _, _)| id).collect();
    let plan = FaultPlan::random_chaos(
        seed,
        &nodes,
        &links,
        0.25,
        0.25,
        0.3,
        HORIZON,
        SimDuration::from_millis(100),
        SimDuration::from_secs(1),
    );
    plan.apply(continuum.sim_mut());
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig { obs: ObsConfig::on(), ..EngineConfig::default() },
    );
    let report = engine
        .run(&mut continuum, vec![scenarios::telerehab_with(2)], HORIZON)
        .expect("time-zero placement precedes every fault");
    (plan, report)
}

#[test]
fn chaos_runs_survive_and_account_conservatively() {
    for seed in 0..6 {
        let (_, report) = chaos_run(seed);
        let obs = &report.obs;
        let dispatched = obs.counter_value("sim_tasks_dispatched", "");
        let started = obs.counter_value("sim_tasks_started", "");
        let completed = obs.counter_value("sim_tasks_completed", "");
        assert!(
            completed <= started && started <= dispatched,
            "seed {seed}: completed {completed} <= started {started} <= dispatched {dispatched}"
        );
        let a = &report.apps[0];
        assert!(
            a.completed + a.failed <= 60,
            "seed {seed}: at most the 60 issued requests resolve: {a:?}"
        );
        // The trace's lost-task tally agrees with the metric (nothing
        // was evicted from the ring, so both saw every loss).
        assert_eq!(obs.trace_dropped(), 0, "seed {seed}: ring capacity suffices");
        let traced_lost = obs
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::TaskLost { .. }))
            .count() as u64;
        assert_eq!(traced_lost, obs.counter_value("sim_tasks_lost", ""), "seed {seed}");
    }
}

#[test]
fn spans_are_conserved_across_chaos_runs() {
    // Property: over any seeded fault plan, every dispatched task span
    // resolves to exactly one of completed / lost / in-flight.
    for seed in 0..8 {
        let (_, report) = chaos_run(seed);
        assert_eq!(report.obs.trace_dropped(), 0, "seed {seed}: reconstruction needs every event");
        let spans = myrtus::obs::span::reconstruct(&report.obs.trace_events());
        assert!(
            spans.is_conserved(),
            "seed {seed}: {} dispatched != {} completed + {} lost + {} in flight",
            spans.dispatched,
            spans.completed,
            spans.lost,
            spans.in_flight
        );
        assert_eq!(
            spans.dispatched,
            report.obs.counter_value("sim_tasks_dispatched", ""),
            "seed {seed}: span census agrees with the dispatch counter"
        );
        assert_eq!(
            spans.lost,
            report.obs.counter_value("sim_tasks_lost", ""),
            "seed {seed}: span census agrees with the loss counter"
        );
        // Every resolved span has a consistent stage breakdown.
        for sp in &spans.spans {
            if let (Some(total), Some(t), Some(w), Some(c)) =
                (sp.total_us(), sp.transfer_us(), sp.queue_wait_us(), sp.compute_us())
            {
                assert_eq!(t + w + c, total, "seed {seed}: task {} breakdown sums", sp.task);
            }
        }
    }
}

#[test]
fn every_recovering_crash_is_paired_in_the_trace() {
    for seed in 0..6 {
        let (plan, report) = chaos_run(seed);
        assert_eq!(report.obs.trace_dropped(), 0, "pairing needs the full trace");
        let events = report.obs.trace_events();
        for f in plan.faults() {
            let crashed = events.iter().any(|e| {
                e.at_us == f.at.as_micros()
                    && matches!(e.kind, TraceKind::NodeCrash { node } if node == f.node.as_raw())
            });
            assert!(crashed, "seed {seed}: crash of {:?} at {} traced", f.node, f.at);
            match f.outage {
                Some(outage) if f.at + outage <= HORIZON => {
                    let back_at = (f.at + outage).as_micros();
                    let recovered = events.iter().any(|e| {
                        e.at_us == back_at
                            && matches!(
                                e.kind,
                                TraceKind::NodeRecover { node } if node == f.node.as_raw()
                            )
                    });
                    assert!(
                        recovered,
                        "seed {seed}: {:?} recovers at exactly at + outage = {back_at} µs",
                        f.node
                    );
                }
                _ => {
                    // Permanent outage (or one healing past the horizon):
                    // the node must never come back within the run.
                    let recovered = events.iter().any(|e| {
                        matches!(
                            e.kind,
                            TraceKind::NodeRecover { node } if node == f.node.as_raw()
                        )
                    });
                    assert!(!recovered, "seed {seed}: {:?} never recovers", f.node);
                }
            }
        }
        for f in plan.link_faults() {
            let cut = events.iter().any(|e| {
                e.at_us == f.at.as_micros()
                    && matches!(e.kind, TraceKind::LinkDown { link } if link == f.link.as_raw())
            });
            assert!(cut, "seed {seed}: cut of {:?} at {} traced", f.link, f.at);
            if let Some(outage) = f.outage {
                if f.at + outage <= HORIZON {
                    let back_at = (f.at + outage).as_micros();
                    let restored = events.iter().any(|e| {
                        e.at_us == back_at
                            && matches!(
                                e.kind,
                                TraceKind::LinkUp { link } if link == f.link.as_raw()
                            )
                    });
                    assert!(restored, "seed {seed}: {:?} restored at {back_at} µs", f.link);
                }
            }
        }
    }
}

/// A 32-node continuum for the wide fault-tolerance acceptance runs.
fn wide_continuum() -> Continuum {
    ContinuumBuilder::new()
        .edge_multicores(10)
        .edge_hmpsocs(8)
        .edge_riscvs(6)
        .gateways(4)
        .fmdcs(2)
        .cloud_servers(2)
        .build()
}

/// One wide chaos run over a seeded random fault plan under `retry`
/// (`RetryPolicy::NONE` for the no-retry arm), so the two arms see the
/// *same* faults.
fn wide_chaos_run(seed: u64, retry: RetryPolicy) -> OrchestrationReport {
    let mut continuum = wide_continuum();
    assert_eq!(continuum.all_nodes().len(), 32, "the acceptance gate is a 32-node run");
    let nodes = continuum.all_nodes();
    let links: Vec<LinkId> = continuum.sim().network().iter_links().map(|(id, _, _)| id).collect();
    FaultPlan::random_chaos(
        seed,
        &nodes,
        &links,
        0.25,
        0.25,
        0.3,
        HORIZON,
        SimDuration::from_millis(100),
        SimDuration::from_secs(1),
    )
    .apply(continuum.sim_mut());
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig { obs: ObsConfig::on(), retry, ..EngineConfig::default() },
    );
    engine
        .run(&mut continuum, vec![scenarios::telerehab_with(2)], HORIZON)
        .expect("time-zero placement precedes every fault")
}

#[test]
fn retries_complete_nearly_every_dispatched_task_under_chaos() {
    // Acceptance gate: on a seeded 32-node random-chaos run, the retry
    // subsystem completes at least 95% of the logical tasks it
    // dispatches, while the identical plan without retries strands
    // work on crashed nodes.
    // Deterministically pick the first seed whose plan actually
    // strands work when retries are off — that loss is the documented
    // baseline the retry arm is measured against.
    let (seed, baseline) = (0..32)
        .map(|seed| (seed, wide_chaos_run(seed, RetryPolicy::NONE)))
        .find(|(_, r)| reconstruct(&r.obs.trace_events()).lost >= 1)
        .expect("some seed in 0..32 hits the workload");
    let retried = wide_chaos_run(seed, RetryPolicy::default());

    let base_spans = reconstruct(&baseline.obs.trace_events());
    assert!(
        base_spans.lost >= 1,
        "the documented baseline: without retries this plan strands tasks for good"
    );

    let spans = reconstruct(&retried.obs.trace_events());
    assert!(spans.is_conserved(), "retry run stays conserved");
    assert!(
        retried.obs.counter_value("task_retries", "") >= 1,
        "the plan actually exercises the recovery path"
    );
    let done_frac = spans.completed as f64 / spans.dispatched as f64;
    assert!(
        done_frac >= 0.95,
        "retries complete >= 95% of dispatched tasks: {}/{} = {done_frac:.3}",
        spans.completed,
        spans.dispatched
    );
    let base_frac = base_spans.completed as f64 / base_spans.dispatched as f64;
    assert!(
        done_frac > base_frac,
        "retries beat the no-retry baseline: {done_frac:.3} vs {base_frac:.3}"
    );
}

#[test]
fn every_task_ends_in_exactly_one_final_state_with_retries_on() {
    // Conservation law under retries: every dispatched logical task
    // resolves to exactly one of completed / lost / cancelled /
    // in-flight, and the trace's retry ledger agrees with the
    // counters.
    for seed in 0..6 {
        let report = wide_chaos_run(seed, RetryPolicy::default());
        let obs = &report.obs;
        assert_eq!(obs.trace_dropped(), 0, "seed {seed}: reconstruction needs every event");
        let spans = reconstruct(&obs.trace_events());
        assert!(
            spans.is_conserved(),
            "seed {seed}: {} dispatched != {} completed + {} lost + {} cancelled + {} in flight",
            spans.dispatched,
            spans.completed,
            spans.lost,
            spans.cancelled,
            spans.in_flight
        );
        let traced_retries = obs
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::TaskRetry { .. }))
            .count() as u64;
        assert_eq!(
            traced_retries,
            obs.counter_value("task_retries", ""),
            "seed {seed}: every retry offer is traced"
        );
        // A retry offer either re-dispatches (archiving the failed
        // attempt into the span) or the driver declines and the task
        // is given up — nothing falls through the gap.
        let gave_up = obs.counter_value("task_gave_up", "");
        assert!(
            spans.retried_attempts <= traced_retries,
            "seed {seed}: archived attempts {} never exceed retry offers {traced_retries}",
            spans.retried_attempts
        );
        assert!(
            spans.lost + spans.cancelled >= gave_up,
            "seed {seed}: every given-up task ({gave_up}) ends lost or cancelled ({} + {})",
            spans.lost,
            spans.cancelled
        );
    }
}

#[test]
fn killing_the_busiest_node_mid_run_is_absorbed_by_retries() {
    // Find the node that executes the most tasks in a fault-free run,
    // then crash exactly that node mid-run. The retry subsystem must
    // re-place its in-flight work and keep the application whole.
    let probe = {
        let mut continuum = wide_continuum();
        let engine = OrchestrationEngine::new(
            Box::new(GreedyBestFit::new()),
            EngineConfig { obs: ObsConfig::on(), ..EngineConfig::default() },
        );
        engine
            .run(&mut continuum, vec![scenarios::telerehab_with(2)], HORIZON)
            .expect("fault-free probe places")
    };
    let mut starts: BTreeMap<u32, u64> = BTreeMap::new();
    for e in probe.obs.trace_events() {
        if let TraceKind::TaskStart { node, .. } = e.kind {
            *starts.entry(node).or_default() += 1;
        }
    }
    let clean = probe.apps[0].completed;
    assert!(clean > 0, "the probe makes progress");
    let (&busiest, &load) =
        starts.iter().max_by_key(|(n, c)| (**c, std::cmp::Reverse(**n))).expect("work ran");
    assert!(load > 0);

    let mut continuum = wide_continuum();
    let victim = continuum
        .all_nodes()
        .into_iter()
        .find(|n| n.as_raw() == busiest)
        .expect("same topology, same ids");
    FaultPlan::new()
        .crash(victim, SimTime::from_millis(1_500), Some(SimDuration::from_millis(700)))
        .apply(continuum.sim_mut());
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig { obs: ObsConfig::on(), ..EngineConfig::default() },
    );
    let report = engine
        .run(&mut continuum, vec![scenarios::telerehab_with(2)], HORIZON)
        .expect("placement happens before the crash");

    assert!(
        report.obs.counter_value("task_retries", "") >= 1,
        "killing the busiest node forces at least one retry"
    );
    let spans = reconstruct(&report.obs.trace_events());
    assert!(
        spans.spans.iter().any(|s| s.attempts.iter().any(|a| a.lost) && s.ended_at_us.is_some()),
        "at least one task lost to the crash is retried to completion"
    );
    let a = &report.apps[0];
    assert!(spans.is_conserved());
    assert_eq!(
        a.completed, clean,
        "the application completes exactly as much as the fault-free run"
    );
}

#[test]
fn permanent_total_outage_gives_up_boundedly_instead_of_livelocking() {
    // Worst case: every node dies for good mid-run. The retry
    // subsystem must drain — bounded give-up per task, applications
    // marked degraded — rather than spinning on a continuum that can
    // never serve another attempt.
    let mut continuum = ContinuumBuilder::new().build();
    let mut plan = FaultPlan::new();
    for node in continuum.all_nodes() {
        plan = plan.crash(node, SimTime::from_millis(500), None);
    }
    plan.apply(continuum.sim_mut());
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig { obs: ObsConfig::on(), ..EngineConfig::default() },
    );
    let report = engine
        .run(&mut continuum, vec![scenarios::telerehab_with(2)], HORIZON)
        .expect("placement precedes the blackout");

    let obs = &report.obs;
    let gave_up = obs.counter_value("task_gave_up", "");
    assert!(gave_up >= 1, "a dead continuum forces give-up");
    let dispatched = obs.counter_value("sim_tasks_dispatched", "");
    assert!(
        gave_up <= dispatched,
        "give-up is bounded by the work that existed: {gave_up} <= {dispatched}"
    );
    let spans = reconstruct(&obs.trace_events());
    assert!(spans.is_conserved(), "even a blackout conserves the task census");
    assert_eq!(
        spans.completed + spans.cancelled + spans.lost,
        spans.dispatched,
        "nothing is left dangling in-flight after the blackout drains"
    );
    let a = &report.apps[0];
    assert!(a.failed >= 1, "the application is marked degraded, not wedged");
    assert!(a.completed + a.failed <= 60, "at most the issued requests resolve");
}

#[test]
fn chaos_disabled_observability_stays_silent() {
    // The same chaos plan with observability off must still survive and
    // must record nothing at all.
    let mut continuum = ContinuumBuilder::new().build();
    let nodes = continuum.all_nodes();
    let links: Vec<LinkId> = continuum.sim().network().iter_links().map(|(id, _, _)| id).collect();
    FaultPlan::random_chaos(
        1,
        &nodes,
        &links,
        0.25,
        0.25,
        0.3,
        HORIZON,
        SimDuration::from_millis(100),
        SimDuration::from_secs(1),
    )
    .apply(continuum.sim_mut());
    let engine = OrchestrationEngine::new(Box::new(GreedyBestFit::new()), EngineConfig::default());
    let report =
        engine.run(&mut continuum, vec![scenarios::telerehab_with(2)], HORIZON).expect("places");
    assert!(!report.obs.enabled());
    assert!(report.obs.export_trace_jsonl().is_empty());
    assert!(report.obs.export_metrics_jsonl().is_empty());
    assert!(report.apps[0].completed > 0, "the run still makes progress");
}
