//! The per-PR perf trajectory: the 50k-node / 1M-task engine-core
//! benchmark plus the task-VM interpreter and checkpoint round-trip
//! microbenchmarks, serialized to `BENCH_<pr>.json` at the repo root
//! (`--pr` selects the trajectory point, currently 10).
//!
//! ```sh
//! cargo run --release --bin myrtus-bench                 # full profile
//! cargo run --release --bin myrtus-bench -- --quick      # CI profile
//! cargo run --release --bin myrtus-bench -- --quick \
//!     --check crates/bench/baseline/BENCH_7.json         # regression gate
//! ```
//!
//! The workload is a deterministic open-loop storm: `tasks` timers are
//! pre-scheduled with pseudo-random firing times across a fixed spread,
//! and each firing submits one task (pseudo-random node, varying
//! service demand) through the full dispatch path with a retry policy
//! armed — so the run pays its event-queue *and* task-table costs (~4
//! queue ops and ~6 table ops per task). Each storm run is a child
//! process (`--phase`), so its peak RSS (`VmHWM`) is its own instead of
//! being smeared by whichever run came first.
//!
//! Gates built into every run:
//! * **double-run identity** — the storm runs twice and must reproduce
//!   its event count, completion count and completion fingerprint
//!   byte-for-byte;
//! * `--check <baseline>` — exits non-zero when wheel events/sec or VM
//!   steps/sec drops more than 20% below the checked-in baseline, or
//!   when the storm's peak RSS rises more than 20% above it.
//!
//! The reported numbers are the *faster* of the two runs — the minimum
//! is the standard noise-robust wall-clock estimator (the identity gate
//! makes the two runs interchangeable by construction).

use std::process::Command;
use std::time::Instant;

use myrtus::continuum::engine::{Driver, SimCore, SimEvent};
use myrtus::continuum::ids::NodeId;
use myrtus::continuum::node::NodeSpec;
use myrtus::continuum::retry::RetryPolicy;
use myrtus::continuum::task::TaskInstance;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::obs::{Obs, ObsConfig};
use myrtus::vm::{CostTable, IsaClass, VmState};
use myrtus::workload::scenarios::programs::{program_for, Mix};
use myrtus_bench::{num, render_table};

/// Arrival spread of the task storm, microseconds of simulated time.
const SPREAD_US: u64 = 500_000;

/// Per-attempt timeout: far above every service time, so the timeout
/// events all fire stale — pure queue + table-lookup traffic that keeps
/// the event queue deep for the whole run.
const ATTEMPT_TIMEOUT: SimDuration = SimDuration::from_millis(250);

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv1a(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for b in value.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set of this process, KiB (`VmHWM` from procfs); 0 when
/// unavailable (non-Linux).
fn vm_hwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The storm driver: submits one task per timer firing and folds every
/// completion into an order-sensitive fingerprint.
struct StormDriver {
    node_count: u64,
    completed: u64,
    fingerprint: u64,
}

impl Driver for StormDriver {
    fn on_event(&mut self, sim: &mut SimCore, event: SimEvent) {
        match event {
            SimEvent::Timer { tag, .. } => {
                let node = NodeId::from_raw((splitmix(tag) % self.node_count) as u32);
                let work_mc = 0.2 + (tag % 64) as f64 * 0.05;
                let id = sim.fresh_task_id();
                sim.submit_local(node, TaskInstance::new(id, work_mc).with_tag(tag))
                    .expect("storm nodes never go down");
            }
            SimEvent::TaskCompleted(outcome) => {
                self.completed += 1;
                self.fingerprint = fnv1a(self.fingerprint, outcome.task.id.as_raw());
                self.fingerprint = fnv1a(self.fingerprint, outcome.at.as_micros());
                self.fingerprint = fnv1a(self.fingerprint, outcome.node.as_raw() as u64);
            }
            _ => {}
        }
    }
}

struct PhaseResult {
    events: u64,
    completed: u64,
    wall_s: f64,
    events_per_sec: f64,
    tasks_per_sec: f64,
    peak_rss_kb: u64,
    fingerprint: u64,
}

/// One measured engine run (executed inside a `--phase` child process).
fn run_phase(nodes: u64, tasks: u64) -> PhaseResult {
    let mut sim = SimCore::new();
    sim.reserve_nodes(nodes as usize);
    sim.reserve_events(tasks as usize);
    for i in 0..nodes {
        sim.add_node(NodeSpec::preset_edge_multicore(format!("n{i}")));
    }
    sim.set_retry_policy(Some(RetryPolicy {
        attempt_timeout: Some(ATTEMPT_TIMEOUT),
        ..RetryPolicy::default()
    }));
    let mut driver =
        StormDriver { node_count: nodes, completed: 0, fingerprint: 0xcbf2_9ce4_8422_2325 };

    let wall = Instant::now();
    for i in 0..tasks {
        let delay = splitmix(i ^ 0x5eed) % SPREAD_US;
        sim.set_timer(SimDuration::from_micros(delay), i);
    }
    sim.run_to_quiescence(SimTime::from_secs(3_600), &mut driver);
    let wall_s = wall.elapsed().as_secs_f64();

    assert_eq!(driver.completed, tasks, "every storm task completes");
    let events = sim.processed_events();
    PhaseResult {
        events,
        completed: driver.completed,
        wall_s,
        events_per_sec: events as f64 / wall_s,
        tasks_per_sec: driver.completed as f64 / wall_s,
        peak_rss_kb: vm_hwm_kb(),
        fingerprint: driver.fingerprint,
    }
}

/// Scrape overhead on an obs-enabled continuum of `nodes` nodes:
/// nanoseconds per recorded time-series sample.
fn scrape_overhead(nodes: u64) -> (u64, f64) {
    let mut sim = SimCore::new();
    sim.reserve_nodes(nodes as usize);
    for i in 0..nodes {
        sim.add_node(NodeSpec::preset_edge_multicore(format!("n{i}")));
    }
    sim.set_obs(Obs::new(ObsConfig::on()));
    sim.scrape(); // warm-up: builds the label caches
    let before = sim.obs().ts_sample_count();
    const ROUNDS: u32 = 4;
    let wall = Instant::now();
    for _ in 0..ROUNDS {
        sim.scrape();
    }
    let elapsed = wall.elapsed();
    let samples = sim.obs().ts_sample_count() - before;
    (samples as u64, elapsed.as_nanos() as f64 / samples as f64)
}

/// Task-VM interpreter throughput: steps/sec retiring the standard
/// compute program end-to-end, plus the mean checkpoint round-trip
/// (snapshot a mid-flight image, serialize to canonical bytes, parse
/// back, resume) in microseconds — the host-side cost floor under every
/// simulated live migration.
fn vm_microbench(reps: u32) -> (f64, f64) {
    let program = program_for(Mix::Compute, 7, 100.0);
    let table = CostTable::for_isa(IsaClass::Arm, 1.0);

    let mut steps = 0u64;
    let mut digest = 0u64;
    let wall = Instant::now();
    for rep in 0..reps {
        let mut vm = VmState::new(&program, 7 ^ u64::from(rep));
        vm.run_to_halt(&program, &table);
        steps += vm.steps();
        digest = digest.wrapping_add(vm.out_digest());
    }
    let steps_per_sec = steps as f64 / wall.elapsed().as_secs_f64();
    assert_ne!(digest, 0, "the interpreter actually ran");

    // Round-trip from the program's midpoint: a representative image
    // (live stack + locals + PRNG cursor), not a trivial fresh one.
    let mut vm = VmState::new(&program, 7);
    let (_, total_cycles) = program.full_cost(7, &table);
    vm.advance_to(&program, &table, total_cycles / 2);
    let wall = Instant::now();
    for _ in 0..reps {
        let bytes = vm.checkpoint(&program).to_bytes();
        let cp = myrtus::vm::Checkpoint::from_bytes(&bytes).expect("canonical bytes parse");
        let resumed = VmState::from_checkpoint(&cp, &program).expect("image matches program");
        assert_eq!(resumed.steps(), vm.steps(), "resume preserves the step ledger");
    }
    let round_trip_us = wall.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    (steps_per_sec, round_trip_us)
}

/// Minimal extractor for the flat JSON this binary writes: the number
/// following `"key":`.
fn json_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"').parse().ok()
}

fn json_str(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &json[json.find(&pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn phase_json(r: &PhaseResult) -> String {
    format!(
        "{{\"events\":{},\"completed\":{},\"wall_s\":{:.4},\
         \"events_per_sec\":{:.1},\"tasks_per_sec\":{:.1},\"peak_rss_kb\":{},\
         \"fingerprint\":\"{:016x}\"}}",
        r.events,
        r.completed,
        r.wall_s,
        r.events_per_sec,
        r.tasks_per_sec,
        r.peak_rss_kb,
        r.fingerprint,
    )
}

fn parse_phase(json: &str) -> PhaseResult {
    PhaseResult {
        events: json_f64(json, "events").expect("events") as u64,
        completed: json_f64(json, "completed").expect("completed") as u64,
        wall_s: json_f64(json, "wall_s").expect("wall_s"),
        events_per_sec: json_f64(json, "events_per_sec").expect("events_per_sec"),
        tasks_per_sec: json_f64(json, "tasks_per_sec").expect("tasks_per_sec"),
        peak_rss_kb: json_f64(json, "peak_rss_kb").expect("peak_rss_kb") as u64,
        fingerprint: u64::from_str_radix(&json_str(json, "fingerprint").expect("fp"), 16)
            .expect("hex fingerprint"),
    }
}

/// Runs one storm in a child process so its peak RSS is its own, not
/// inherited from an earlier run.
fn spawn_phase(nodes: u64, tasks: u64) -> PhaseResult {
    let exe = std::env::current_exe().expect("current exe");
    let out = Command::new(exe)
        .args(["--phase", "--nodes", &nodes.to_string(), "--tasks", &tasks.to_string()])
        .output()
        .expect("spawn phase");
    assert!(out.status.success(), "storm phase failed:\n{}", String::from_utf8_lossy(&out.stderr));
    parse_phase(&String::from_utf8_lossy(&out.stdout))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_val = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };

    // Child mode: run one storm and print its result as JSON.
    if args.iter().any(|a| a == "--phase") {
        let nodes: u64 = flag_val("--nodes").expect("--nodes").parse().expect("node count");
        let tasks: u64 = flag_val("--tasks").expect("--tasks").parse().expect("task count");
        println!("{}", phase_json(&run_phase(nodes, tasks)));
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    // The quick profile still runs long enough (~0.3 s per phase) for
    // the 20% regression floor to sit above run-to-run noise.
    let (nodes, tasks) = if quick { (10_000, 200_000) } else { (50_000, 1_000_000) };
    let pr: u32 = flag_val("--pr").map_or(10, |v| v.parse().expect("--pr takes a PR number"));
    let out_path = flag_val("--out").unwrap_or_else(|| format!("BENCH_{pr}.json"));

    eprintln!("engine-core storm: {nodes} nodes, {tasks} tasks, 2 runs");
    let first = spawn_phase(nodes, tasks);
    let second = spawn_phase(nodes, tasks);

    assert_eq!(
        (first.events, first.completed, first.fingerprint),
        (second.events, second.completed, second.fingerprint),
        "double-run identity gate: storm runs must be bit-identical"
    );

    // Report the faster (noise-robust) run.
    let wheel = if second.wall_s < first.wall_s { second } else { first };

    let (scrape_samples, scrape_ns) = scrape_overhead(nodes.min(50_000));
    let (vm_steps_per_sec, vm_rt_us) = vm_microbench(if quick { 20 } else { 100 });

    let json = format!(
        "{{\n  \"schema\": \"myrtus-bench/v1\",\n  \"pr\": {pr},\n  \"quick\": {quick},\n  \
         \"nodes\": {nodes},\n  \"tasks\": {tasks},\n  \"events\": {},\n  \
         \"wheel_wall_s\": {:.4},\n  \"wheel_events_per_sec\": {:.1},\n  \
         \"wheel_tasks_per_sec\": {:.1},\n  \"wheel_peak_rss_kb\": {},\n  \
         \"scrape_samples_per_pass\": {},\n  \"scrape_ns_per_sample\": {:.1},\n  \
         \"vm_steps_per_sec\": {:.1},\n  \"vm_migration_round_trip_us\": {:.2},\n  \
         \"fingerprint\": \"{:016x}\"\n}}\n",
        wheel.events,
        wheel.wall_s,
        wheel.events_per_sec,
        wheel.tasks_per_sec,
        wheel.peak_rss_kb,
        scrape_samples / 4,
        scrape_ns,
        vm_steps_per_sec,
        vm_rt_us,
        wheel.fingerprint,
    );
    std::fs::write(&out_path, &json).expect("write bench json");

    let rows = vec![vec![
        "wheel+slab".to_string(),
        num(wheel.wall_s, 3),
        num(wheel.events_per_sec / 1e6, 2),
        num(wheel.tasks_per_sec / 1e6, 2),
        format!("{}", wheel.peak_rss_kb / 1024),
    ]];
    println!(
        "{}",
        render_table(
            &format!("engine core — {nodes} nodes, {tasks} tasks ({} events)", wheel.events),
            &["engine", "wall s", "Mevents/s", "Mtasks/s", "peak RSS MiB"],
            &rows,
        )
    );
    println!("scrape: {:.1} ns/sample ({} samples/pass)", scrape_ns, scrape_samples / 4);
    println!(
        "task VM: {:.1} Msteps/s, checkpoint round-trip {:.2} us",
        vm_steps_per_sec / 1e6,
        vm_rt_us
    );
    println!("wrote {out_path}");

    if let Some(baseline_path) = flag_val("--check") {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let base_eps =
            json_f64(&baseline, "wheel_events_per_sec").expect("baseline wheel_events_per_sec");
        let floor = 0.8 * base_eps;
        println!(
            "regression check: {:.0} events/s vs baseline {:.0} (floor {:.0})",
            wheel.events_per_sec, base_eps, floor
        );
        if wheel.events_per_sec < floor {
            eprintln!(
                "REGRESSION: wheel events/sec dropped >20% below the checked-in baseline \
                 ({:.0} < {:.0})",
                wheel.events_per_sec, floor
            );
            std::process::exit(1);
        }
        // The VM gate only arms once the baseline records the metric,
        // so old baselines keep checking the engine numbers alone.
        if let Some(base_vm) = json_f64(&baseline, "vm_steps_per_sec") {
            let vm_floor = 0.8 * base_vm;
            println!(
                "regression check: {vm_steps_per_sec:.0} VM steps/s vs baseline {base_vm:.0} \
                 (floor {vm_floor:.0})"
            );
            if vm_steps_per_sec < vm_floor {
                eprintln!(
                    "REGRESSION: VM steps/sec dropped >20% below the checked-in baseline \
                     ({vm_steps_per_sec:.0} < {vm_floor:.0})"
                );
                std::process::exit(1);
            }
        }
        let base_rss =
            json_f64(&baseline, "wheel_peak_rss_kb").expect("baseline wheel_peak_rss_kb");
        let rss_ceiling = 1.2 * base_rss;
        println!(
            "regression check: {} KiB peak RSS vs baseline {base_rss:.0} (ceiling {rss_ceiling:.0})",
            wheel.peak_rss_kb
        );
        if wheel.peak_rss_kb as f64 > rss_ceiling {
            eprintln!(
                "REGRESSION: wheel peak RSS rose >20% above the checked-in baseline \
                 ({} > {rss_ceiling:.0} KiB)",
                wheel.peak_rss_kb
            );
            std::process::exit(1);
        }
    }
}
