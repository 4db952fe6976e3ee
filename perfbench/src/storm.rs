//! `storm`: the engine-core task storm of `myrtus-bench` (BENCH_7 /
//! BENCH_10) on the default wheel backend with obs off.
//!
//! Each task is one timer pre-armed at a pseudo-random instant across a
//! 0.5 s sim-time spread; its firing submits the task to a pseudo-random
//! node through the full dispatch path with a `RetryPolicy` armed. The
//! 250 ms attempt timeouts all fire stale, which keeps the wheel deep.
//! The event loop, wheel and slab do nearly all the work; mirto, kb,
//! obs and vm do none.

use std::time::Instant;

use myrtus::continuum::engine::{Driver, SimCore, SimEvent};
use myrtus::continuum::ids::NodeId;
use myrtus::continuum::node::NodeSpec;
use myrtus::continuum::retry::RetryPolicy;
use myrtus::continuum::task::TaskInstance;
use myrtus::continuum::time::{SimDuration, SimTime};

use crate::ledger::Layers;
use crate::{fnv, Rep, FNV_SEED};

/// Arrival spread, microseconds of simulated time.
const SPREAD_US: u64 = 500_000;

/// Per-attempt timeout, far above every service time.
const ATTEMPT_TIMEOUT: SimDuration = SimDuration::from_millis(250);

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub nodes: u64,
    pub tasks: u64,
}

impl Size {
    /// Twice the BENCH_10 quick point (10k / 200k), 0.4× BENCH_7's
    /// full point (50k / 1M).
    pub const FULL: Size = Size { nodes: 20_000, tasks: 400_000 };
    pub const TINY: Size = Size { nodes: 200, tasks: 4_000 };

    pub fn pick(tiny: bool) -> Size {
        if tiny {
            Size::TINY
        } else {
            Size::FULL
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One generated task: when it arrives, where it goes and how much
/// work it carries.
#[derive(Debug, Clone, Copy)]
struct Job {
    due: SimDuration,
    node: NodeId,
    work_mc: f64,
}

/// The benchmark's own driver: submits the job behind each timer and
/// folds every completion into an order-sensitive fingerprint. When
/// traced it times itself and the `submit_local` calls it makes.
struct StormDriver {
    jobs: Vec<Job>,
    completed: u64,
    within_timeout: u64,
    fingerprint: u64,
    traced: bool,
    on_event_s: f64,
    submit_s: f64,
}

impl StormDriver {
    fn handle(&mut self, sim: &mut SimCore, event: SimEvent) {
        match event {
            SimEvent::Timer { tag, .. } => {
                let job = self.jobs[tag as usize];
                let id = sim.fresh_task_id();
                let task = TaskInstance::new(id, job.work_mc).with_tag(tag);
                let t = self.traced.then(Instant::now);
                sim.submit_local(job.node, task).expect("storm nodes never go down");
                if let Some(t) = t {
                    self.submit_s += t.elapsed().as_secs_f64();
                }
            }
            SimEvent::TaskCompleted(outcome) => {
                self.completed += 1;
                let due = SimTime::ZERO + self.jobs[outcome.task.tag as usize].due;
                self.within_timeout +=
                    u64::from(outcome.at.saturating_since(due) <= ATTEMPT_TIMEOUT);
                self.fingerprint = fnv(self.fingerprint, outcome.task.id.as_raw());
                self.fingerprint = fnv(self.fingerprint, outcome.at.as_micros());
                self.fingerprint = fnv(self.fingerprint, u64::from(outcome.node.as_raw()));
            }
            _ => {}
        }
    }
}

impl Driver for StormDriver {
    fn on_event(&mut self, sim: &mut SimCore, event: SimEvent) {
        if self.traced {
            let t = Instant::now();
            self.handle(sim, event);
            self.on_event_s += t.elapsed().as_secs_f64();
        } else {
            self.handle(sim, event);
        }
    }
}

/// A set-up storm, ready to run.
pub struct Prepared {
    sim: SimCore,
    driver: StormDriver,
    tasks: u64,
    pub setup_s: f64,
    build_s: f64,
    gen_s: f64,
}

/// Generates the jobs from `seed` alone: BENCH_7's generator with the
/// seed salting its node and arrival hashes.
fn generate(size: Size, seed: u64) -> Vec<Job> {
    let salt = splitmix(seed);
    (0..size.tasks)
        .map(|i| Job {
            due: SimDuration::from_micros(splitmix(i ^ salt ^ 0x5eed) % SPREAD_US),
            node: NodeId::from_raw((splitmix(i ^ salt) % size.nodes) as u32),
            work_mc: 0.2 + (i % 64) as f64 * 0.05,
        })
        .collect()
}

pub fn setup(size: Size, seed: u64) -> Prepared {
    let t0 = Instant::now();
    let mut sim = SimCore::new();
    sim.reserve_nodes(size.nodes as usize);
    sim.reserve_events(size.tasks as usize);
    for i in 0..size.nodes {
        sim.add_node(NodeSpec::preset_edge_multicore(format!("n{i}")));
    }
    sim.set_retry_policy(Some(RetryPolicy {
        attempt_timeout: Some(ATTEMPT_TIMEOUT),
        ..RetryPolicy::default()
    }));
    let build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let jobs = generate(size, seed);
    for (tag, job) in jobs.iter().enumerate() {
        sim.set_timer(job.due, tag as u64);
    }
    let gen_s = t1.elapsed().as_secs_f64();

    let driver = StormDriver {
        jobs,
        completed: 0,
        within_timeout: 0,
        fingerprint: FNV_SEED,
        traced: false,
        on_event_s: 0.0,
        submit_s: 0.0,
    };
    Prepared { sim, driver, tasks: size.tasks, setup_s: t0.elapsed().as_secs_f64(), build_s, gen_s }
}

pub fn rep(size: Size, seed: u64, traced: bool) -> Rep {
    let Prepared { mut sim, mut driver, tasks, setup_s, build_s, gen_s } = setup(size, seed);
    driver.traced = traced;

    let t = Instant::now();
    sim.run_to_quiescence(SimTime::from_secs(3_600), &mut driver);
    let run_s = t.elapsed().as_secs_f64();

    let invariant = if driver.completed == tasks {
        Ok(())
    } else {
        Err(format!("{} of {tasks} storm tasks completed", driver.completed))
    };
    let layers = if traced {
        Layers {
            run_s,
            events: sim.processed_events(),
            loop_s: run_s - driver.on_event_s,
            submit_s: driver.submit_s,
            build_s,
            gen_s,
            ..Layers::default()
        }
        .metrics()
    } else {
        Vec::new()
    };
    Rep {
        setup_s,
        run_s,
        completed: driver.completed,
        sim_goodput: driver.completed as f64 / tasks as f64,
        sim_qos: driver.within_timeout as f64 / driver.completed.max(1) as f64,
        fingerprint: fnv(driver.fingerprint, sim.processed_events()),
        invariant,
        layers,
    }
}
