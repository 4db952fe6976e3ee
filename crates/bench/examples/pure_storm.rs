//! Pure event-queue depth probe: `n` timers, no tasks, no nodes.
//!
//! ```sh
//! cargo run --release -p myrtus-bench --example pure_storm -- <timers> <spread_us>
//! ```
//!
//! Isolates the event queue's push/pop throughput at a chosen in-flight
//! depth. Sweeping `n` (e.g. 100k → 2M at a fixed spread) is the
//! quickest way to see how the queue scales once its working set
//! outgrows the cache hierarchy — this probe is what motivated the
//! dense-slot wheel layout (see the `continuum::wheel` module docs).

use std::time::Instant;

use myrtus::continuum::engine::{NullDriver, SimCore};
use myrtus::continuum::time::{SimDuration, SimTime};

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn main() {
    let n: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2_000_000);
    let spread: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(2_000_000);
    let mut sim = SimCore::new();
    let t = Instant::now();
    for i in 0..n {
        let d = splitmix(i) % spread;
        sim.set_timer(SimDuration::from_micros(d), i);
    }
    sim.run_until(SimTime::from_secs(7200), &mut NullDriver);
    let s = t.elapsed().as_secs_f64();
    assert_eq!(sim.processed_events(), n);
    println!("wheel: {:.2} Mev/s ({:.3}s)", n as f64 / s / 1e6, s);
}
