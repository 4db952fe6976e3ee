//! Allocation budget of the MIRTO request path.
//!
//! A counting global allocator tallies every allocation made on the
//! thread that runs the `surge` elastic-serving mix (2× bulk load,
//! admission control, autoscaler, obs on) through
//! [`OrchestrationEngine::run`], and the test bounds the count per
//! completed request. The per-event work of a request (arrival,
//! admission, dispatch, completion, the MAPE round's reads) reuses its
//! buffers, so what remains is deployment, the KB and obs stores
//! growing, and the timing wheel's slots refilling. A change that puts
//! an allocation back on a per-request or per-event path (a rebuilt
//! map, a fresh vector per arrival, a boxed queue payload) multiplies
//! the count and fails the bound.
//!
//! The binary holds a single test, so nothing else runs while it
//! counts. The bound holds in debug builds, where the timing wheel also
//! feeds its order oracle, and in release builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use myrtus::continuum::admission::AdmissionPolicy;
use myrtus::continuum::time::{SimDuration, SimTime};
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::mirto::engine::{EngineConfig, OrchestrationEngine};
use myrtus::mirto::managers::elasticity::ElasticityConfig;
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::obs::ObsConfig;
use myrtus::workload::scenarios::surge::surge_mix_scaled;

/// Allocations (including reallocations) made on a counting thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter only reads a thread-local flag and bumps an atomic,
// neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Arrival window of the mix; the run drains for one more second.
const WINDOW: SimTime = SimTime::from_secs(60);

/// Most allocations `run` may make per completed request, deployment
/// included. This run measures 4.19 per request (24,377 allocations
/// for 5,826 requests in release builds, 24,391 in debug builds), most
/// of them the timing wheel's level-1 slots regrowing after each drain;
/// putting back the per-decision rebuild of the admission window map
/// alone reads 8.53.
const BUDGET_PER_REQUEST: f64 = 6.0;

#[test]
fn surge_request_path_stays_within_its_allocation_budget() {
    let mut continuum = ContinuumBuilder::new().build();
    let apps = surge_mix_scaled(7, WINDOW, 2.0);
    let engine = OrchestrationEngine::new(
        Box::new(GreedyBestFit::new()),
        EngineConfig {
            obs: ObsConfig::on(),
            admission: Some(AdmissionPolicy { rate_per_window: 20, ..AdmissionPolicy::default() }),
            elasticity: Some(ElasticityConfig {
                scale_up_queue: 2.0,
                scale_up_utilization: 0.5,
                ..ElasticityConfig::default()
            }),
            seed: 7,
            ..EngineConfig::default()
        },
    );
    let horizon = WINDOW + SimDuration::from_secs(1);
    COUNTING.with(|c| c.set(true));
    let report = engine.run(&mut continuum, apps, horizon).expect("the surge mix places");
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let completed = report.total_completed();
    assert!(completed > 1_000, "the mix serves requests: {completed}");
    let per_request = allocations as f64 / completed as f64;
    assert!(
        per_request < BUDGET_PER_REQUEST,
        "{allocations} allocations for {completed} completed requests: {per_request:.2} per \
         request, budget {BUDGET_PER_REQUEST}"
    );
}
