//! Quickstart: deploy an application onto the continuum through the
//! MIRTO API and run the cognitive orchestration loop.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Set `MYRTUS_OBS_DIR=<dir>` to run the same scenario with
//! observability enabled plus a small fault window, and export the
//! structured trace and metric snapshot as JSONL into `<dir>`:
//!
//! ```sh
//! MYRTUS_OBS_DIR=out cargo run --example quickstart
//! head out/quickstart_trace.jsonl
//! ```
//!
//! Add `MYRTUS_CHAOS_SEED=<n>` to replace the aimed crash with a
//! seeded random chaos plan (node crashes, link cuts, permanent
//! outages) absorbed by the retry subsystem:
//!
//! ```sh
//! MYRTUS_OBS_DIR=out MYRTUS_CHAOS_SEED=1 cargo run --example quickstart
//! ```
//!
//! Or `MYRTUS_SURGE_SEED=<n>` to run the elastic-serving scenario
//! instead: a seeded open-loop surge (one protected interactive tenant,
//! two best-effort bulk tenants) through admission control, load
//! shedding and the MAPE autoscaler:
//!
//! ```sh
//! MYRTUS_OBS_DIR=out MYRTUS_SURGE_SEED=1 cargo run --example quickstart
//! ```

use myrtus::continuum::fault::FaultPlan;
use myrtus::continuum::ids::{LinkId, NodeId};
use myrtus::continuum::retry::RetryPolicy;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::{Continuum, ContinuumBuilder};
use myrtus::mirto::api::{ApiDaemon, ApiRequest, ApiResponse, Operation};
use myrtus::mirto::engine::{EngineConfig, OrchestrationEngine};
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::obs::{ObsConfig, TraceKind};
use myrtus::workload::scenarios;

const HORIZON: SimTime = SimTime::from_secs(6);

fn obs_engine() -> OrchestrationEngine {
    // Fault tolerance on: retries with a per-attempt timeout, plus k=2
    // replication of deadline-critical stages (first completion wins).
    // The timeout sits *above* the congested attempt-latency tail the
    // duplicated frame transfers produce, so it only catches genuine
    // stalls (attempts caught by the link cut or the crash window) —
    // a tighter timeout churns healthy-but-queued attempts into a
    // retry storm.
    let retry = RetryPolicy {
        attempt_timeout: Some(SimDuration::from_millis(150)),
        ..RetryPolicy::default()
    };
    OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig {
            obs: ObsConfig::on(),
            retry,
            replicate_critical: true,
            ..EngineConfig::default()
        },
    )
}

/// Uses the trace of a fault-free probe run to aim a node crash at the
/// midpoint of a real task's service window — guaranteed lost work,
/// picked deterministically (same seed, same probe, same pick).
fn pick_crash(probe: &mut Continuum) -> (u32, u64) {
    let report = obs_engine()
        .run(probe, vec![scenarios::telerehab_with(3)], HORIZON)
        .expect("probe placeable");
    let events = report.obs.trace_events();
    for (i, e) in events.iter().enumerate() {
        let TraceKind::TaskStart { node, task } = e.kind else { continue };
        if e.at_us < 300_000 {
            continue;
        }
        for later in &events[i + 1..] {
            let TraceKind::TaskComplete { node: n2, task: t2, .. } = later.kind else { continue };
            if n2 == node && t2 == task {
                if later.at_us.saturating_sub(e.at_us) > 200 {
                    return (node, e.at_us + (later.at_us - e.at_us) / 2);
                }
                break;
            }
        }
    }
    panic!("probe run has no task with a >200 µs service window");
}

/// Writes the run's trace, metric snapshot, time-series CSV and
/// critical path under `dir` — shared by every observability mode so
/// the CI determinism gates diff the same file set.
fn export(
    dir: &std::path::Path,
    report: &myrtus::mirto::engine::OrchestrationReport,
) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("quickstart_trace.jsonl"), report.obs.export_trace_jsonl())?;
    std::fs::write(dir.join("quickstart_metrics.jsonl"), report.obs.export_metrics_jsonl())?;
    std::fs::write(dir.join("quickstart_metrics.txt"), report.obs.export_metrics_table())?;
    std::fs::write(dir.join("quickstart_timeseries.csv"), report.obs.export_timeseries_csv())?;
    let mut cp = String::from("app,stage,node,finished_at_us\n");
    for app in &report.apps {
        for span in &app.critical_path {
            cp.push_str(&format!(
                "{},{},{},{}\n",
                app.app_id,
                span.stage,
                span.node,
                span.finished_at.as_micros()
            ));
        }
    }
    std::fs::write(dir.join("quickstart_critical_path.csv"), cp)?;
    Ok(())
}

/// The observability-enabled variant: same scenario, plus a
/// crash-and-recover on a loaded host and a link cut-and-heal, with the
/// trace and metric snapshot exported as JSONL (and a pretty table).
fn run_with_observability(dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error>> {
    let mut continuum = ContinuumBuilder::new().build();
    if let Some(seed) = std::env::var("MYRTUS_SURGE_SEED").ok().and_then(|s| s.parse::<u64>().ok())
    {
        // Surge mode: the elastic-serving stack — a seeded open-loop
        // overload with QoS classes, gated by the admission token
        // bucket and absorbed by the MAPE autoscaler.
        use myrtus::continuum::admission::AdmissionPolicy;
        use myrtus::mirto::managers::elasticity::ElasticityConfig;
        let engine = OrchestrationEngine::new(
            Box::new(GreedyBestFit::new()),
            EngineConfig {
                obs: ObsConfig::on(),
                admission: Some(AdmissionPolicy {
                    rate_per_window: 20,
                    ..AdmissionPolicy::default()
                }),
                elasticity: Some(ElasticityConfig::default()),
                ..EngineConfig::default()
            },
        );
        println!("surge mode: seeded overload (seed {seed}), admission + autoscaler enabled");
        let report = engine.run(
            &mut continuum,
            scenarios::surge::surge_mix(seed, SimTime::from_secs(4)),
            SimTime::from_secs(5),
        )?;
        export(dir, &report)?;
        let interactive = &report.apps[0];
        let bulk_shed: u64 = report.apps[1..].iter().map(|a| a.shed).sum();
        println!(
            "interactive tenant: goodput {:.1} %, SLO attainment {:.1} %, shed {}",
            interactive.goodput() * 100.0,
            interactive.slo_attainment() * 100.0,
            interactive.shed,
        );
        println!(
            "bulk tenants shed {bulk_shed} tasks ({} admitted, {} rate-limited, {} queue-full); \
             autoscaler: {} up / {} down",
            report.obs.counter_value("tasks_admitted", ""),
            report.obs.counter_value("tasks_shed", "rate_limit"),
            report.obs.counter_value("tasks_shed", "queue_full"),
            report.obs.counter_value("scale_ups", ""),
            report.obs.counter_value("scale_downs", ""),
        );
        println!(
            "observability: {} trace events ({} dropped), exports under {}",
            report.obs.trace_len(),
            report.obs.trace_dropped(),
            dir.display()
        );
        println!("render the run report with: cargo run --bin myrtus-report -- {}", dir.display());
        return Ok(());
    }
    if let Some(seed) = std::env::var("MYRTUS_CHAOS_SEED").ok().and_then(|s| s.parse::<u64>().ok())
    {
        // Chaos mode: a seeded random fault plan instead of the aimed
        // crash — same retry subsystem, same export pipeline.
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
        println!("chaos mode: seeded random fault plan (seed {seed}), retries enabled");
    } else {
        let (victim, crash_at_us) = pick_crash(&mut ContinuumBuilder::new().build());
        let link = continuum
            .sim()
            .network()
            .iter_links()
            .map(|(id, _, _)| id)
            .next()
            .expect("the reference topology has links");
        FaultPlan::new()
            .crash(
                NodeId::from_raw(victim),
                SimTime::from_micros(crash_at_us),
                Some(SimDuration::from_millis(400)),
            )
            .cut_link(link, SimTime::from_millis(500), Some(SimDuration::from_millis(200)))
            .apply(continuum.sim_mut());
    }
    let report = obs_engine().run(&mut continuum, vec![scenarios::telerehab_with(3)], HORIZON)?;

    export(dir, &report)?;
    let app = &report.apps[0];
    println!(
        "requests completed/failed: {}/{} — retries {}, timeouts {}, give-ups {}, replica dedups {}",
        app.completed,
        app.failed,
        report.obs.counter_value("task_retries", ""),
        report.obs.counter_value("task_timeouts", ""),
        report.obs.counter_value("task_gave_up", ""),
        report.obs.counter_value("replica_dedups", ""),
    );
    println!(
        "observability: {} trace events ({} dropped), {} time-series samples, exports under {}",
        report.obs.trace_len(),
        report.obs.trace_dropped(),
        report.obs.ts_sample_count(),
        dir.display()
    );
    println!("render the run report with: cargo run --bin myrtus-report -- {}", dir.display());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Observability mode: same scenario, instrumented and exported.
    if let Some(dir) = std::env::var_os("MYRTUS_OBS_DIR") {
        return run_with_observability(std::path::Path::new(&dir));
    }

    // 1. Build the paper's reference infrastructure (Fig. 2).
    let mut continuum = ContinuumBuilder::new().build();
    println!(
        "continuum: {} edge, {} fog, {} cloud nodes",
        continuum.edge().len(),
        continuum.fog().len(),
        continuum.cloud().len()
    );

    // 2. Submit a deployment request through the MIRTO API daemon:
    //    bearer token → Authentication Module, TOSCA-lite profile →
    //    TOSCA Validation Processor.
    let mut api = ApiDaemon::new(b"demo-secret");
    let token = api.authenticator().issue("operator", &["deploy"], SimTime::from_secs(3_600));
    let profile = scenarios::telerehab_with(3).to_profile();
    let response =
        api.handle(&ApiRequest { token, operation: Operation::Deploy { profile } }, SimTime::ZERO)?;
    let ApiResponse::Accepted { principal, application } = response else {
        unreachable!("deploy requests yield Accepted");
    };
    println!(
        "accepted deployment of {:?} from {} ({} components)",
        application.name,
        principal.name,
        application.components.len()
    );

    // 3. Orchestrate: greedy placement + the full cognitive loop.
    let engine = OrchestrationEngine::new(Box::new(GreedyBestFit::new()), EngineConfig::default());
    let report = engine.run(&mut continuum, vec![application], SimTime::from_secs(6))?;

    // 4. Outcome.
    let app = &report.apps[0];
    println!("\n=== orchestration report ({} policy) ===", report.policy);
    println!("requests completed : {}", app.completed);
    println!("requests failed    : {}", app.failed);
    println!("deadline QoS       : {:.1} %", app.qos() * 100.0);
    if let Some(lat) = &app.latency_ms {
        println!(
            "latency ms         : mean {:.2}  p95 {:.2}  max {:.2}",
            lat.mean, lat.p95, lat.max
        );
    }
    println!("total energy       : {:.2} J", report.total_energy_j);
    println!(
        "energy by layer    : edge {:.2} J, fog {:.2} J, cloud {:.2} J",
        report.layer_energy_j[0], report.layer_energy_j[1], report.layer_energy_j[2]
    );
    println!("op-point switches  : {}", report.op_switches);
    println!("security handshakes: {} kilocycles", report.handshake_cycles / 1_000);
    if !app.slowest_trace.is_empty() {
        println!("\nslowest request, stage by stage:");
        for span in &app.slowest_trace {
            println!(
                "  {:14} on {:8} finished at {}",
                span.stage,
                span.node.to_string(),
                span.finished_at
            );
        }
    }
    Ok(())
}
