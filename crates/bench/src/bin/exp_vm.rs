//! E15 — portable task bodies: live migration vs cold restart when
//! bursting a single-region 2× overload across the federation.
//!
//! The E14 scenario (three federated regions, region 0's bulk tenant
//! offered 4× load — deep enough that even the burst path leaves a
//! backlog) is re-run with every batch `crunch` stage carrying a
//! portable VM body ([`bodied_region_mix`]). When the hot region
//! escalates and wins a burst link, the engine now also drains its
//! resident backlog onto the awarded peer — and `migration` picks how:
//! `Cold` kills each task and restarts its program from scratch on the
//! destination; `Live` checkpoints the interpreter mid-flight, ships
//! the image over the WAN and resumes where the source stopped.
//! Acceptance shapes:
//!
//! (a) live migration beats cold restart on the hot interactive
//!     tenant's deadline misses: strictly higher QoS (hit fraction),
//!     and a *peak* windowed miss rate that never worsens;
//! (b) live migration wastes no interpreter work: the cold arm
//!     re-executes every cycle the killed tasks had already retired,
//!     so its `vm_steps_total` is strictly higher;
//! (c) the live run is byte-identical when repeated with the same seed
//!     (trace, metrics and time-series exports all match).
//!
//! Usage: `exp_vm [seed]` (default 7, the CI matrix passes 1-3). With
//! `E15_DUMP` set, both arms' trace, metrics and time-series exports
//! are written to `e15_{cold,live}_{trace.jsonl,metrics.jsonl,ts.csv}` in
//! the system temp directory (`$TMPDIR`, else `/tmp`).

use std::time::Instant;

use myrtus::continuum::engine::VmConfig;
use myrtus::continuum::federation::FederatedContinuumBuilder;
use myrtus::continuum::ids::RegionId;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::mirto::engine::{EngineConfig, OrchestrationEngine, OrchestrationReport};
use myrtus::mirto::managers::elasticity::ElasticityConfig;
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::mirto::{FederationConfig, MigrationMode};
use myrtus::obs::{index_label, ObsConfig};
use myrtus::workload::scenarios::programs::bodied_region_mix;
use myrtus_bench::{num, render_table};

const REGIONS: u16 = 3;
const HOT: u16 = 0;
const OVERLOAD: f64 = 4.0;

/// Same escalation tuning as E14: only a genuinely drowned region
/// escalates, and only peers with real spare capacity win the auction.
fn e15_federation() -> FederationConfig {
    FederationConfig {
        burst_queue: 8.0,
        release_queue: 4.0,
        escalation_rounds: 1,
        min_headroom_mc_per_s: 2_000.0,
        ..FederationConfig::default()
    }
}

/// One federated run with bodied batch tenants; `migration` picks how
/// burst awards drain the hot region's resident backlog. Also returns
/// the interpreter steps the VM runtime executed (host work, which no
/// export carries).
fn fed_run(seed: u64, migration: MigrationMode) -> (OrchestrationReport, u64) {
    // Same fabric as E14: small regions over a 10 ms / 400 Mbit/s
    // metro WAN, so checkpoint images pay a real transfer delay.
    let shape = ContinuumBuilder::new()
        .edge_multicores(2)
        .edge_hmpsocs(2)
        .edge_riscvs(0)
        .gateways(1)
        .fmdcs(0)
        .cloud_servers(0);
    let mut fed = FederatedContinuumBuilder::new()
        .regions(REGIONS as usize)
        .region_shape(shape)
        .wan_hop(myrtus::continuum::topology::HopSpec::new(SimDuration::from_millis(10), 400.0))
        .build();
    let horizon = SimTime::from_secs(4);
    let (mix, library) = bodied_region_mix(seed, REGIONS, horizon, HOT, OVERLOAD);
    // The program library must be installed before deployment: bodied
    // tasks re-price themselves from their program on first dispatch.
    fed.sim_mut().set_vm(VmConfig::new(library));
    let apps =
        mix.into_iter().map(|(app, r)| (app, RegionId::from_raw(r), SimTime::ZERO)).collect();
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig {
            obs: ObsConfig::on(),
            seed,
            elasticity: Some(ElasticityConfig {
                scale_up_utilization: 0.5,
                scale_up_queue: 2.0,
                cooldown_rounds: 1,
                max_replicas: 4,
                ..ElasticityConfig::default()
            }),
            federation: Some(e15_federation()),
            migration,
            ..EngineConfig::default()
        },
    );
    let report = engine.run_federated(&mut fed, apps, SimTime::from_secs(5)).expect("placeable");
    (report, fed.sim_mut().vm_interpreted_steps())
}

/// Peak of the hot region's interactive windowed miss-rate series (the
/// tenants deploy in region order, interactive first).
fn peak_miss(r: &OrchestrationReport) -> f64 {
    r.obs
        .ts_series("app_window_miss_rate", index_label((HOT * 2) as usize))
        .iter()
        .map(|s| s.value)
        .fold(0.0, f64::max)
}

/// Deterministic fingerprint of everything a run exports.
fn fingerprint(r: &OrchestrationReport) -> String {
    format!(
        "{}\n{}\n{}\ncompleted={} bursts={} migrated={}",
        r.obs.export_trace_jsonl(),
        r.obs.export_metrics_jsonl(),
        r.obs.export_timeseries_csv(),
        r.total_completed(),
        r.bursts,
        r.tasks_migrated,
    )
}

fn main() {
    let wall = Instant::now();
    let seed: u64 = std::env::args().nth(1).map(|s| s.parse().expect("seed")).unwrap_or(7);
    let dump = std::env::var_os("E15_DUMP").is_some();

    let t = Instant::now();
    let (cold, cold_interp) = fed_run(seed, MigrationMode::Cold);
    let cold_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (live, live_interp) = fed_run(seed, MigrationMode::Live);
    let live_secs = t.elapsed().as_secs_f64();

    if dump {
        for (arm, r) in [("cold", &cold), ("live", &live)] {
            let write = |kind: &str, body: String| {
                std::fs::write(std::env::temp_dir().join(format!("e15_{arm}_{kind}")), body)
                    .unwrap();
            };
            write("ts.csv", r.obs.export_timeseries_csv());
            write("trace.jsonl", r.obs.export_trace_jsonl());
            write("metrics.jsonl", r.obs.export_metrics_jsonl());
        }
    }

    let hot = (HOT * 2) as usize;
    let row = |name: &str, r: &OrchestrationReport, interp: u64, secs: f64| {
        vec![
            name.to_string(),
            num(peak_miss(r) * 100.0, 1),
            num(r.apps[hot].qos() * 100.0, 1),
            num(r.global_qos() * 100.0, 1),
            r.tasks_migrated.to_string(),
            r.obs.counter_value("task_migrations_live", "").to_string(),
            format!("{:.0}k", r.obs.counter_value("migration_bytes", "live") as f64 / 1e3),
            format!("{:.1}M", r.obs.counter_value("vm_steps_total", "") as f64 / 1e6),
            format!("{:.2}M", interp as f64 / 1e6),
            num(secs, 2),
        ]
    };
    println!(
        "{}",
        render_table(
            &format!(
                "E15 — bodied batch tenants under the E14 single-region {OVERLOAD}x burst \
                 (seed {seed}): cold restart vs live checkpoint/resume migration"
            ),
            &[
                "arm",
                "hot peak miss %",
                "hot QoS %",
                "global QoS %",
                "migrated",
                "live",
                "ckpt bytes",
                "VM steps",
                "interp. steps",
                "wall s",
            ],
            &[
                row("cold", &cold, cold_interp, cold_secs),
                row("live", &live, live_interp, live_secs)
            ]
        )
    );

    // Shape (a): live migration never loses on the hot tenant's peak
    // windowed miss rate, and wins outright on aggregate misses.
    let (c, l) = (peak_miss(&cold), peak_miss(&live));
    assert!(c > 0.0, "the overload actually hurts the cold arm (peak {c:.3})");
    assert!(
        l <= c,
        "shape (a): live migration never worsens the hot tenant's peak miss rate \
         ({l:.3} vs {c:.3} cold)"
    );
    let (cq, lq) = (cold.apps[hot].qos(), live.apps[hot].qos());
    assert!(
        lq > cq,
        "shape (a): live migration strictly reduces the hot tenant's deadline misses \
         (QoS {lq:.4} vs {cq:.4} cold)"
    );
    assert!(live.tasks_migrated > 0, "burst awards actually drained backlog");
    assert!(
        live.obs.counter_value("task_migrations_live", "") > 0,
        "some drained tasks carried live checkpoints"
    );
    assert!(cold.obs.counter_value("task_migrations_live", "") == 0, "cold arm stays cold");

    // Shape (b): cold restarts re-execute retired interpreter work.
    let (sc, sl) = (
        cold.obs.counter_value("vm_steps_total", ""),
        live.obs.counter_value("vm_steps_total", ""),
    );
    assert!(sc > sl, "shape (b): cold restarts waste interpreter work ({sc} steps vs {sl} live)");

    // Shape (c): seeded determinism — a repeat run is byte-identical.
    let (again, _) = fed_run(seed, MigrationMode::Live);
    assert_eq!(
        fingerprint(&live),
        fingerprint(&again),
        "shape (c): live-migration exports are byte-identical across repeat runs"
    );
    println!("repeat run: exports byte-identical ({} trace bytes)", fingerprint(&live).len());
    println!("total wall time: {:.1}s", wall.elapsed().as_secs_f64());
}
