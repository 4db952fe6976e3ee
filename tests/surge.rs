//! Elastic-serving suite: the open-loop surge workload driven through
//! admission control, load shedding and MAPE autoscaling. The gates:
//! identical seeds yield byte-identical exports (the CI surge job
//! double-runs and diffs), the protected interactive tenant keeps its
//! goodput through overload and chaos while only best-effort bulk is
//! shed, the six-term task conservation law holds, and scale-downs
//! during faults never wedge the run.

use myrtus::continuum::admission::AdmissionPolicy;
use myrtus::continuum::fault::FaultPlan;
use myrtus::continuum::ids::LinkId;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::mirto::engine::{
    run_orchestration, EngineConfig, OrchestrationEngine, OrchestrationReport,
};
use myrtus::mirto::managers::elasticity::ElasticityConfig;
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::obs::span::reconstruct;
use myrtus::obs::ObsConfig;
use myrtus::workload::scenarios::surge;

/// Arrival generation window of the surge mix.
const SURGE_WINDOW: SimTime = SimTime::from_secs(4);
/// Run horizon: the generation window plus drain time.
const HORIZON: SimTime = SimTime::from_secs(5);

/// The full elastic-serving configuration: admission gating on
/// best-effort traffic, autoscaling, observability.
fn elastic_config() -> EngineConfig {
    EngineConfig {
        obs: ObsConfig::on(),
        admission: Some(AdmissionPolicy { rate_per_window: 20, ..AdmissionPolicy::default() }),
        elasticity: Some(ElasticityConfig::default()),
        ..EngineConfig::default()
    }
}

fn surge_run(seed: u64) -> OrchestrationReport {
    run_orchestration(
        Box::new(GreedyBestFit::new()),
        elastic_config(),
        surge::surge_mix(seed, SURGE_WINDOW),
        HORIZON,
    )
    .expect("surge mix places")
}

#[test]
fn surge_exports_are_byte_identical_across_runs() {
    // The CI surge matrix relies on this: same seed, same trace, same
    // metric snapshot, same time-series CSV — with the whole elastic
    // stack (admission + autoscaler) switched on.
    for seed in [1, 2, 3] {
        let a = surge_run(seed);
        let b = surge_run(seed);
        assert_eq!(a.obs.trace_dropped(), 0, "seed {seed}: the ring retains the whole run");
        assert_eq!(
            a.obs.export_trace_jsonl(),
            b.obs.export_trace_jsonl(),
            "seed {seed}: trace JSONL is byte-identical"
        );
        assert_eq!(
            a.obs.export_metrics_jsonl(),
            b.obs.export_metrics_jsonl(),
            "seed {seed}: metric snapshot is byte-identical"
        );
        let csv = a.obs.export_timeseries_csv();
        assert_eq!(csv, b.obs.export_timeseries_csv(), "seed {seed}: CSV is byte-identical");
        // The scraper publishes the per-node run-queue depth the
        // autoscaler consumes — it must be visible in the export.
        assert!(csv.contains("run_queue_depth"), "seed {seed}: run_queue_depth is scraped");
        assert!(csv.contains("node_utilization"), "seed {seed}: utilization is scraped");
    }
}

#[test]
fn surge_sheds_only_best_effort_traffic_and_stays_conserved() {
    for seed in [1, 2, 3] {
        let report = surge_run(seed);
        let interactive = &report.apps[0];
        assert_eq!(interactive.shed, 0, "seed {seed}: the protected tenant is never shed");
        let bulk_shed: u64 = report.apps[1..].iter().map(|a| a.shed).sum();
        assert!(bulk_shed > 0, "seed {seed}: the surge overruns the bucket and bulk is shed");
        assert!(
            report.obs.counter_value("tasks_admitted", "") > 0,
            "seed {seed}: admitted tasks are counted"
        );
        assert_eq!(
            report.obs.counter_sum("tasks_shed"),
            report
                .obs
                .trace_events()
                .iter()
                .filter(|e| { matches!(e.kind, myrtus::obs::TraceKind::TaskShed { .. }) })
                .count() as u64,
            "seed {seed}: every shed is traced with its reason"
        );
        // Six-term conservation: dispatched = completed + lost +
        // cancelled + shed + in-flight over the full trace.
        let spans = reconstruct(&report.obs.trace_events());
        assert!(
            spans.is_conserved(),
            "seed {seed}: {} dispatched != {} completed + {} lost + {} cancelled + {} shed + {} in flight",
            spans.dispatched,
            spans.completed,
            spans.lost,
            spans.cancelled,
            spans.shed,
            spans.in_flight
        );
        assert!(spans.shed > 0, "seed {seed}: the span census sees the shed tasks");
    }
}

#[test]
fn doubling_the_bulk_load_does_not_degrade_protected_goodput() {
    // The elastic-serving acceptance property: with admission control
    // on, doubling the *offered* bulk load must not dent the
    // interactive tenant's goodput — the extra pressure is absorbed by
    // shedding more best-effort work, not by starving the protected
    // class.
    let run = |factor: f64| {
        run_orchestration(
            Box::new(GreedyBestFit::new()),
            elastic_config(),
            surge::surge_mix_scaled(7, SURGE_WINDOW, factor),
            HORIZON,
        )
        .expect("places")
    };
    let one = run(1.0);
    let two = run(2.0);
    let g1 = one.apps[0].goodput();
    let g2 = two.apps[0].goodput();
    assert!(
        g2 + 0.02 >= g1,
        "doubled bulk load must not dent protected goodput: {g2:.3} vs {g1:.3}"
    );
    assert_eq!(two.apps[0].shed, 0, "the protected tenant is still never shed");
    let shed = |r: &OrchestrationReport| r.apps[1..].iter().map(|a| a.shed).sum::<u64>();
    assert!(
        shed(&two) > shed(&one),
        "the doubled load is absorbed by shedding more bulk: {} vs {}",
        shed(&two),
        shed(&one)
    );
}

#[test]
fn overload_chaos_keeps_the_protected_tenant_above_ninety_percent() {
    // Surge overload *and* a seeded random fault plan at once: the
    // protected tenant must keep >= 90% goodput (retries absorb the
    // crashes, admission keeps bulk overload away), only best-effort
    // traffic is shed, and the task census stays conserved.
    for seed in [1, 2, 3] {
        let mut continuum = ContinuumBuilder::new().build();
        let nodes = continuum.all_nodes();
        let links: Vec<LinkId> =
            continuum.sim().network().iter_links().map(|(id, _, _)| id).collect();
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
        let engine = OrchestrationEngine::new(Box::new(GreedyBestFit::new()), elastic_config());
        let report = engine
            .run(&mut continuum, surge::surge_mix(seed, SURGE_WINDOW), HORIZON)
            .expect("time-zero placement precedes every fault");
        let interactive = &report.apps[0];
        assert_eq!(interactive.shed, 0, "seed {seed}: chaos never flips the shed protection");
        assert!(
            interactive.goodput() >= 0.9,
            "seed {seed}: protected goodput holds through chaos + overload: {:.3} ({interactive:?})",
            interactive.goodput()
        );
        let spans = reconstruct(&report.obs.trace_events());
        assert!(
            spans.is_conserved(),
            "seed {seed}: chaos + shedding conserves the census: {} != {} + {} + {} + {} + {}",
            spans.dispatched,
            spans.completed,
            spans.lost,
            spans.cancelled,
            spans.shed,
            spans.in_flight
        );
    }
}

#[test]
fn the_autoscaler_follows_the_ramp_out_and_back_in() {
    // A short, violent overload followed by a long drain: the
    // autoscaler must bind replicas while the run queue is deep and
    // release them once the pressure subsides — both directions in one
    // run.
    use myrtus::workload::ArrivalSpec;
    let mut app = myrtus::workload::scenarios::telerehab_with(2);
    app.arrival = ArrivalSpec::periodic(SimDuration::from_micros(1_111), 1_400);
    let report = run_orchestration(
        Box::new(GreedyBestFit::new()),
        EngineConfig {
            obs: ObsConfig::on(),
            app_point_adaptation: false,
            // Pin the placement so horizontal replicas are the only
            // relief valve for the overload.
            reallocation: false,
            elasticity: Some(ElasticityConfig {
                scale_up_queue: 2.0,
                scale_up_utilization: 0.5,
                ..ElasticityConfig::default()
            }),
            ..EngineConfig::default()
        },
        vec![app],
        SimTime::from_secs(8),
    )
    .expect("places");
    let ups = report.obs.counter_value("scale_ups", "");
    let downs = report.obs.counter_value("scale_downs", "");
    assert!(ups > 0, "the overload phase scales out");
    assert!(downs > 0, "the drain phase scales back in (ups {ups}, downs {downs})");
    assert!(downs <= ups, "never more evictions than bindings");
    assert!(report.apps[0].completed > 0, "the pipeline keeps completing throughout");
}

#[test]
fn scale_down_during_chaos_never_wedges_the_run() {
    // Kill-safe elasticity: replicas are bound and released while a
    // random fault plan crashes nodes underneath them. The run must
    // drain cleanly with the census conserved, whatever the overlap
    // between evictions and crashes.
    use myrtus::workload::ArrivalSpec;
    for seed in [1, 2, 3] {
        let mut continuum = ContinuumBuilder::new().build();
        let nodes = continuum.all_nodes();
        let links: Vec<LinkId> =
            continuum.sim().network().iter_links().map(|(id, _, _)| id).collect();
        let horizon = SimTime::from_secs(8);
        FaultPlan::random_chaos(
            seed,
            &nodes,
            &links,
            0.25,
            0.25,
            0.3,
            horizon,
            SimDuration::from_millis(100),
            SimDuration::from_secs(1),
        )
        .apply(continuum.sim_mut());
        let mut app = myrtus::workload::scenarios::telerehab_with(2);
        app.arrival = ArrivalSpec::periodic(SimDuration::from_micros(1_111), 1_400);
        let engine = OrchestrationEngine::new(
            Box::new(GreedyBestFit::new()),
            EngineConfig {
                obs: ObsConfig::on(),
                app_point_adaptation: false,
                reallocation: false,
                elasticity: Some(ElasticityConfig {
                    scale_up_queue: 2.0,
                    scale_up_utilization: 0.5,
                    ..ElasticityConfig::default()
                }),
                ..EngineConfig::default()
            },
        );
        let report =
            engine.run(&mut continuum, vec![app], horizon).expect("placement precedes every fault");
        let spans = reconstruct(&report.obs.trace_events());
        assert!(
            spans.is_conserved(),
            "seed {seed}: scaling under chaos conserves the census: {} != {} + {} + {} + {} + {}",
            spans.dispatched,
            spans.completed,
            spans.lost,
            spans.cancelled,
            spans.shed,
            spans.in_flight
        );
        assert!(report.apps[0].completed > 0, "seed {seed}: progress despite chaos + scaling");
    }
}
