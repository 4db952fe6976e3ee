//! Whole-system benchmark of the MYRTUS continuum reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload surge --seed 7 --seconds 10 --trace 0
//! ```
//!
//! One invocation runs one workload (`storm`, `surge` or `migrate`) in
//! this process on a single driver thread. Repetitions run back to back
//! (closed loop) until `--seconds` of host time have passed; inside a
//! repetition the simulated arrivals are open-loop in sim time and fixed
//! by `--seed`, so a slower build never changes the offered load, only
//! the host time it takes.
//!
//! Every repetition goes through the correctness check: it must not
//! panic, must hold its workload's invariant, and must reproduce the
//! output fingerprint of the first repetition (same workload, same seed).
//!
//! * `--trace 0` prints the end-to-end metrics, medians over the
//!   repetitions.
//! * `--trace 1` alternates untraced and traced repetitions and prints
//!   the per-layer ledger: layer timers wrapped around calls into the
//!   library from this crate, the library's own counters, and replays of
//!   single layers on the run's own state. `trace.overhead_s` is the
//!   traced minus the untraced median `run_s`.
//!
//! Human-readable lines go to standard error; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--tiny` shrinks every workload to a smoke-test size.
//!
//! The model has no hardware reference (the paper reports no
//! measurements), so it is unvalidated: every figure here is host time
//! of this program, or an outcome in simulated time, never a claim about
//! a real continuum.

mod ledger;
mod orch;
mod storm;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Host time spent on extra set-ups before each repetition (at least
/// one), on top of the set-up each repetition makes, so the `setup_s`
/// median rests on many samples even when set-up is cheap.
const SETUP_SLICE: Duration = Duration::from_millis(20);

/// Repetitions made even when `--seconds` has already run out.
const MIN_REPS: u64 = 3;

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one repetition produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds to build the topology, generate the workload,
    /// install the VM library and construct the engine.
    pub setup_s: f64,
    /// Host seconds from the first simulated event to the finished
    /// report.
    pub run_s: f64,
    /// Simulated requests (storm: tasks) completed.
    pub completed: u64,
    /// Sim outcome: completed / (completed + failed + shed).
    pub sim_goodput: f64,
    /// Sim outcome: deadline-met share of completed requests.
    pub sim_qos: f64,
    /// Fingerprint of everything the run decided in sim time.
    pub fingerprint: u64,
    /// The workload's own invariant.
    pub invariant: Result<(), String>,
    /// Per-layer metrics; empty on untraced repetitions.
    pub layers: Vec<Metric>,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Storm,
    Surge,
    Migrate,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Storm, Workload::Surge, Workload::Migrate];

    fn name(self) -> &'static str {
        match self {
            Workload::Storm => "storm",
            Workload::Surge => "surge",
            Workload::Migrate => "migrate",
        }
    }

    /// Set-up only (the result is dropped): host seconds.
    fn setup_s(self, seed: u64, tiny: bool) -> f64 {
        match self {
            Workload::Storm => storm::setup(storm::Size::pick(tiny), seed).setup_s,
            Workload::Surge => orch::setup_surge(orch::SurgeSize::pick(tiny), seed, false).setup_s,
            Workload::Migrate => {
                orch::setup_migrate(orch::MigrateSize::pick(tiny), seed, false).setup_s
            }
        }
    }

    /// One full repetition: set-up, run, correctness inputs and, when
    /// `traced`, the per-layer ledger.
    fn rep(self, seed: u64, tiny: bool, traced: bool) -> Rep {
        match self {
            Workload::Storm => storm::rep(storm::Size::pick(tiny), seed, traced),
            Workload::Surge => orch::rep_surge(orch::SurgeSize::pick(tiny), seed, traced),
            Workload::Migrate => orch::rep_migrate(orch::MigrateSize::pick(tiny), seed, traced),
        }
    }
}

#[derive(Debug, Clone)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Run one more repetition in a child process for `peak_rss_mb`
    /// (off in unit tests, whose binary is the test harness).
    spawn_probe: bool,
    /// This process is that child.
    rss_child: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::Storm,
        seed: 7,
        seconds: 10.0,
        trace: false,
        tiny: false,
        spawn_probe: true,
        rss_child: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tiny" => {
                opts.tiny = true;
                continue;
            }
            "--rss-child" => {
                opts.rss_child = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value} (storm|surge|migrate)"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, not {}", opts.seconds));
    }
    Ok(opts)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 when procfs
/// is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a fold of one 64-bit word.
pub fn fnv(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for b in value.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The outcome of one invocation, before printing.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Lines for standard error: sim outcomes and failure details.
    notes: Vec<String>,
}

/// What the correctness check compares across repetitions of one
/// workload and seed.
type Key = (u64, f64, f64);

/// The correctness check: a repetition fails when it panics, breaks its
/// workload's invariant, or decides differently from the first one.
#[derive(Default)]
struct Check {
    reference: Option<Key>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Check {
    /// Records one repetition; `true` when it passed.
    fn record(&mut self, what: &str, outcome: Result<(Key, Result<(), String>), String>) -> bool {
        self.attempted += 1;
        let error = match outcome {
            Err(why) => why,
            Ok((_, Err(why))) => format!("broke its invariant: {why}"),
            Ok((key, Ok(()))) => match *self.reference.get_or_insert(key) {
                first if first == key => return true,
                first => format!(
                    "decided differently: fingerprint {:016x} (goodput {}, qos {}) against \
                     {:016x} (goodput {}, qos {})",
                    key.0, key.1, key.2, first.0, first.1, first.2
                ),
            },
        };
        self.failed += 1;
        self.notes.push(format!("{what} {error}"));
        false
    }
}

/// Runs one untraced repetition in a child process and returns its
/// check key and `VmHWM`, so peak memory belongs to one fresh run of
/// the workload rather than to the history of this process's heap.
fn rss_probe(opts: &Opts) -> Result<(Key, Result<(), String>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", opts.workload.name(), "--seed", &opts.seed.to_string()]);
    cmd.arg("--rss-child");
    if opts.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("cannot start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let f: Vec<&str> = text.split_whitespace().collect();
    let parse = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (f.first().and_then(|v| u64::from_str_radix(v, 16).ok()), parse(1), parse(2), parse(4)) {
        (Some(fp), Some(goodput), Some(qos), Some(rss)) => {
            let invariant = match f.get(3) {
                Some(&"ok") => Ok(()),
                _ => Err("see the child's standard error".to_string()),
            };
            Ok(((fp, goodput, qos), invariant, rss))
        }
        _ => Err(format!("printed no result: {text:?}")),
    }
}

/// The child side of [`rss_probe`]: one repetition, one line.
fn rss_child(opts: &Opts) {
    let rep = opts.workload.rep(opts.seed, opts.tiny, false);
    if let Err(why) = &rep.invariant {
        eprintln!("{why}");
    }
    let ok = if rep.invariant.is_ok() { "ok" } else { "broken" };
    println!("{:016x} {} {} {ok} {}", rep.fingerprint, rep.sim_goodput, rep.sim_qos, peak_rss_mb());
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs repetitions until `seconds` have passed and reduces them.
fn measure(opts: &Opts) -> Outcome {
    let wl = opts.workload;
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut check = Check::default();
    let mut setups = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while check.attempted < MIN_REPS || start.elapsed() < budget {
        // Extra set-ups ride between repetitions, so the median sees the
        // same host conditions as the runs.
        let slice = Instant::now();
        setups.push(wl.setup_s(opts.seed, opts.tiny));
        while slice.elapsed() < SETUP_SLICE {
            setups.push(wl.setup_s(opts.seed, opts.tiny));
        }
        // Traced invocations alternate, so both sides see the same
        // drift in host conditions.
        let trace_this = opts.trace && check.attempted % 2 == 1;
        let what = format!("repetition {}", check.attempted + 1);
        match catch_unwind(AssertUnwindSafe(|| wl.rep(opts.seed, opts.tiny, trace_this))) {
            Ok(rep) => {
                let key = (rep.fingerprint, rep.sim_goodput, rep.sim_qos);
                if check.record(&what, Ok((key, rep.invariant.clone()))) {
                    setups.push(rep.setup_s);
                    if trace_this {
                        traced.push(rep);
                    } else {
                        plain.push(rep);
                    }
                }
            }
            Err(_) => {
                check.record(&what, Err("panicked".to_string()));
            }
        }
    }
    let peak_rss = if opts.spawn_probe {
        match rss_probe(opts) {
            Ok((key, invariant, rss)) => {
                check.record("the child repetition", Ok((key, invariant)));
                rss
            }
            Err(why) => {
                check.record("the child repetition", Err(why));
                0.0
            }
        }
    } else {
        peak_rss_mb()
    };

    let runs: Vec<String> = plain.iter().map(|r| format!("{:.3}", r.run_s)).collect();
    let mut notes = std::mem::take(&mut check.notes);
    notes.push(format!("untraced run_s [host s]: {}", runs.join(" ")));
    let (goodput, qos) = check.reference.map_or((0.0, 0.0), |r| (r.1, r.2));
    let plain_runs: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    let completed = plain.first().map_or(0, |r| r.completed);
    let (attempted, failed) = (check.attempted, check.failed);
    notes.push(format!(
        "{} seed {}: {attempted} repetitions ({} traced), check_fail_frac {} [runs], \
         {completed} completed, sim_goodput {goodput}, sim_qos {qos} [sim outcome]",
        opts.workload.name(),
        opts.seed,
        traced.len(),
        failed as f64 / attempted as f64,
    ));

    let metrics = if opts.trace {
        let traced_runs: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
        // Every traced repetition reports the same metrics in the same
        // order; each value is the median over them.
        let mut out: Vec<Metric> = traced.first().map_or_else(Vec::new, |first| {
            let at = |i: usize| traced.iter().map(|r| r.layers[i].value).collect::<Vec<_>>();
            first
                .layers
                .iter()
                .enumerate()
                .map(|(i, m)| metric(m.name, median(&at(i)), m.unit))
                .collect()
        });
        out.push(metric("trace.overhead_s", median(&traced_runs) - median(&plain_runs), "s"));
        out
    } else {
        // Contention from other tenants of the host only ever adds
        // time, so the fastest repetition is the estimate that tracks
        // the code (the estimator `myrtus-bench` uses as well).
        let run_s = min(&plain_runs);
        vec![
            metric("setup_s", median(&setups), "s"),
            metric("run_s", run_s, "s"),
            metric("completed_per_s", completed as f64 / run_s, "1/s"),
            metric("peak_rss_mb", peak_rss, "MiB"),
            metric("sim_goodput", goodput, "frac"),
            metric("sim_qos", qos, "frac"),
            metric("check_pass_frac", (attempted - failed) as f64 / attempted as f64, "frac"),
        ]
    };
    Outcome { attempted, failed, metrics, notes }
}

/// Whether a figure is host time (or host memory), an outcome in
/// simulated time, or a count of work.
fn kind(m: &Metric) -> &'static str {
    match (m.name, m.unit) {
        ("check_pass_frac", _) => "runs",
        (name, _) if name.starts_with("sim_") => "sim outcome",
        (_, "s" | "us" | "ns" | "1/s" | "MiB" | "frac") => "host",
        _ => "count",
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload storm|surge|migrate [--seed N] [--seconds S] \
                 [--trace 0|1] [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    if opts.rss_child {
        rss_child(&opts);
        return ExitCode::SUCCESS;
    }
    // Panics inside a repetition are caught and counted; their message
    // still reaches standard error through the default hook.
    let outcome = measure(&opts);
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<36} {:>20} {:<8} [{}]", m.name, format!("{:.6}", m.value), m.unit, kind(m));
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: Workload, trace: bool) -> Outcome {
        measure(&Opts {
            workload,
            seed: 3,
            seconds: 0.0,
            trace,
            tiny: true,
            spawn_probe: false,
            rss_child: false,
        })
    }

    /// Every workload, traced and untraced, passes the correctness
    /// check at the tiny size and reports every metric it promises.
    #[test]
    fn every_workload_passes_its_check_traced_and_untraced() {
        for wl in Workload::ALL {
            let plain = run(wl, false);
            assert_eq!(plain.failed, 0, "{wl:?} untraced: {:?}", plain.notes);
            assert_eq!(plain.metrics.len(), 7, "{wl:?}");
            assert!(plain.metrics.iter().all(|m| m.value > 0.0), "{wl:?}: {:?}", plain.metrics);

            let traced = run(wl, true);
            assert_eq!(traced.failed, 0, "{wl:?} traced: {:?}", traced.notes);
            let names: Vec<_> = traced.metrics.iter().map(|m| m.name).collect();
            let mut want: Vec<_> =
                ledger::Layers::default().metrics().iter().map(|m| m.name).collect();
            want.push("trace.overhead_s");
            assert_eq!(names, want, "{wl:?}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let o = Outcome {
            attempted: 2,
            failed: 0,
            metrics: vec![metric("run_s", 0.5, "s")],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"run_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn options_reject_unknown_input() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_opts(&args("--workload storm --seed 4 --trace 1")).is_ok());
        assert!(parse_opts(&args("--workload nope")).is_err());
        assert!(parse_opts(&args("--workload storm --trace 2")).is_err());
        assert!(parse_opts(&args("--seed 4")).is_err());
    }
}
