//! Smart-Mobility use case under node failures: cognitive (adaptive)
//! MIRTO orchestration vs. a static silo deployment (paper CH2 / OBJ2).
//!
//! ```sh
//! cargo run --example smart_mobility
//! ```

use myrtus::continuum::fault::FaultPlan;
use myrtus::continuum::retry::RetryPolicy;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::mirto::engine::{EngineConfig, OrchestrationEngine, OrchestrationReport};
use myrtus::mirto::policies::{GreedyBestFit, PlacementPolicy, RoundRobin};
use myrtus::workload::scenarios;

fn run(
    policy: Box<dyn PlacementPolicy + Send>,
    cfg: EngineConfig,
) -> Result<OrchestrationReport, Box<dyn std::error::Error>> {
    let mut continuum = ContinuumBuilder::new().build();
    // A rough afternoon on the road: two edge units crash, one forever.
    FaultPlan::new()
        .crash(continuum.edge()[1], SimTime::from_millis(600), Some(SimDuration::from_secs(2)))
        .crash(continuum.edge()[4], SimTime::from_millis(900), None)
        .apply(continuum.sim_mut());
    let apps = vec![
        scenarios::smart_mobility_with(SimTime::from_secs(4)),
        scenarios::batch_analytics(2, SimDuration::from_secs(2)),
    ];
    Ok(OrchestrationEngine::new(policy, cfg).run(&mut continuum, apps, SimTime::from_secs(6))?)
}

fn show(label: &str, r: &OrchestrationReport) {
    let mobility = &r.apps[0];
    println!("--- {label} ({}) ---", r.policy);
    println!(
        "  mobility: {} completed, {} failed, QoS {:.1} %",
        mobility.completed,
        mobility.failed,
        mobility.qos() * 100.0
    );
    if let Some(l) = &mobility.latency_ms {
        println!("  latency ms: mean {:.2}  p95 {:.2}", l.mean, l.p95);
    }
    println!(
        "  reallocations {}  op-switches {}  detours {}  lost tasks {}",
        r.reallocations, r.op_switches, r.detours, r.lost_tasks
    );
    println!("  energy {:.1} J\n", r.total_energy_j);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Smart Mobility under failures: MIRTO vs static silo\n");
    let adaptive = run(Box::new(GreedyBestFit::new()), EngineConfig::default())?;
    let static_ = run(
        Box::new(RoundRobin::new()),
        EngineConfig {
            reallocation: false,
            retry: RetryPolicy::NONE,
            node_adaptation: false,
            network_management: false,
            ..EngineConfig::default()
        },
    )?;
    show("MIRTO cognitive", &adaptive);
    show("static silo", &static_);

    let gain = adaptive.apps[0].completed as f64 / static_.apps[0].completed.max(1) as f64;
    println!("completion gain of the cognitive engine: {gain:.2}x");
    Ok(())
}
