//! # myrtus-continuum
//!
//! Deterministic discrete-event simulator of the MYRTUS cloud–fog–edge
//! *computing continuum* (paper Fig. 2): heterogeneous nodes with DVFS
//! operating points and reconfigurable accelerators, a store-and-forward
//! network with protocol overhead models, Kubernetes-like low-level
//! orchestration with LIQO-like federation, monitoring, and failure
//! injection.
//!
//! This crate is the physical substrate everything else runs on: the
//! `myrtus-kb` knowledge base replicates over its message fabric, and the
//! `myrtus-mirto` cognitive engine drives it through the [`engine::Driver`]
//! trait.
//!
//! ## Quick start
//!
//! ```
//! use myrtus_continuum::engine::NullDriver;
//! use myrtus_continuum::task::TaskInstance;
//! use myrtus_continuum::time::SimTime;
//! use myrtus_continuum::topology::ContinuumBuilder;
//!
//! // Build the paper's reference infrastructure and run a task at the edge.
//! let mut c = ContinuumBuilder::new().build();
//! let edge = c.edge()[0];
//! let task = {
//!     let sim = c.sim_mut();
//!     TaskInstance::new(sim.fresh_task_id(), 2.0)
//! };
//! c.sim_mut().submit_local(edge, task)?;
//! c.sim_mut().run_until(SimTime::from_secs(1), &mut NullDriver);
//! assert_eq!(c.sim().node(edge).unwrap().completed(), 1);
//! # Ok::<(), myrtus_continuum::engine::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod cluster;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod federation;
pub mod ids;
pub mod monitor;
pub mod net;
pub mod node;
pub mod retry;
pub mod slab;
pub mod stats;
pub mod task;
pub mod time;
pub mod topology;
pub mod wheel;

/// Seeded-bug switches for the `mc` model checker.
///
/// Each switch arms one deliberately wrong behaviour in a protocol
/// path so the checker's counterexample search can be validated
/// against a known violation. Switches are thread-local and default to
/// off, leaving behaviour byte-identical to a build without this
/// module; it only exists under `cfg(test)` or the `mc-mutations`
/// feature, which only `mc`'s dev-dependencies enable.
#[cfg(any(test, feature = "mc-mutations"))]
pub mod mutation {
    use std::cell::Cell;

    thread_local! {
        static STALE_RECOVER: Cell<bool> = const { Cell::new(false) };
        static STRICT_PROTECT: Cell<bool> = const { Cell::new(false) };
        static BLIND_AWARD: Cell<bool> = const { Cell::new(false) };
        static DOUBLE_RESUME: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms/disarms the retry-epoch bug: recovery events fire even for
    /// tasks that already reached a terminal state.
    pub fn set_engine_stale_recover(on: bool) {
        STALE_RECOVER.with(|c| c.set(on));
    }

    /// Whether the stale-recovery bug is armed on this thread.
    pub fn engine_stale_recover() -> bool {
        STALE_RECOVER.with(|c| c.get())
    }

    /// Arms/disarms the admission off-by-one bug: the boundary class
    /// `priority == protect_priority` loses its shed exemption.
    pub fn set_admission_strict_protect(on: bool) {
        STRICT_PROTECT.with(|c| c.set(on));
    }

    /// Whether the strict-protect bug is armed on this thread.
    pub fn admission_strict_protect() -> bool {
        STRICT_PROTECT.with(|c| c.get())
    }

    /// Arms/disarms the blind-award bug: the federation auction skips
    /// its feasibility filter, so a cheap bid from a region that never
    /// advertised capacity (or cannot satisfy the query) can win.
    pub fn set_federation_blind_award(on: bool) {
        BLIND_AWARD.with(|c| c.set(on));
    }

    /// Whether the blind-award bug is armed on this thread.
    pub fn federation_blind_award() -> bool {
        BLIND_AWARD.with(|c| c.get())
    }

    /// Arms/disarms the double-resume bug: a live migration delivers
    /// the checkpointed task to the destination *twice*, so two live
    /// instances of the same task run concurrently — exactly the
    /// violation the `exactly-one-live-instance` discipline exists to
    /// prevent.
    pub fn set_migration_double_resume(on: bool) {
        DOUBLE_RESUME.with(|c| c.set(on));
    }

    /// Whether the double-resume bug is armed on this thread.
    pub fn migration_double_resume() -> bool {
        DOUBLE_RESUME.with(|c| c.get())
    }
}

pub use admission::{AdmissionDecision, AdmissionPolicy};
pub use engine::{Driver, SimCore, SimError, SimEvent, VmConfig};
pub use federation::{FederatedContinuum, FederatedContinuumBuilder, GossipRegistry, RegionDigest};
pub use ids::{ClusterId, LinkId, MsgId, NodeId, PodId, RegionId, TaskId, TimerId};
pub use node::{Layer, NodeKind, NodeSpec};
pub use retry::RetryPolicy;
pub use task::{TaskBody, TaskInstance, TaskOutcome};
pub use time::{SimDuration, SimTime};
pub use topology::{Continuum, ContinuumBuilder};
