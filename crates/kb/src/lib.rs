//! # myrtus-kb
//!
//! The MYRTUS shared Knowledge Base: a from-scratch Raft-replicated,
//! strongly consistent key-value store (the ETCD contract the paper
//! considers), hosting the Resource Registry/Status, watches and leases,
//! plus a historical time-series store for learning agents and the
//! control plane: a ring-retained `myrtus_obs::TimeSeriesStore`, the
//! same store type obs exports from.
//!
//! The [`facade::KnowledgeBase`] is the *logical view* MIRTO agents use;
//! [`raft::RaftCluster`] is the *distributed implementation view* whose
//! consistency and scalability the experiments measure.
//!
//! The logical view keeps what the control plane reads, in the form it
//! reads it. Its registry is a column of one [`NodeRecord`] per node,
//! overwritten in place by each monitoring ingest; it no longer lives
//! under `/registry/` in the facade's KV store, which holds only the
//! keys commands write (the federation shards). Raft replicas still
//! carry registry records under `/registry/nodes/<id>`, and
//! [`RegistryView::new`] reads them there. Its history keeps a
//! [`history::RETENTION`]-sample ring for the streams the managers read
//! back (`util`, `depth`, the miss rates, per-app KPIs) and only the
//! newest sample of `energy_j`, `queue` and `link_util`.
//!
//! ## Quick start
//!
//! ```
//! use myrtus_kb::command::KvCommand;
//! use myrtus_kb::raft::RaftCluster;
//! use myrtus_continuum::time::{SimDuration, SimTime};
//!
//! let mut cluster = RaftCluster::new(3, 1, SimDuration::from_millis(5));
//! let leader = cluster.await_leader(SimTime::from_secs(3)).expect("elects");
//! cluster.propose(leader, KvCommand::put("/registry/nodes/0", b"up"))?;
//! cluster.run_for(SimDuration::from_millis(500));
//! assert!(cluster.committed_value(leader, "/registry/nodes/0").is_some());
//! # Ok::<(), myrtus_kb::raft::NotLeaderError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod command;
pub mod facade;
pub mod history;
pub mod raft;
pub mod registry;
pub mod store;

/// Seeded-bug switches for the `mc` model checker.
///
/// Each switch arms one deliberately wrong behaviour in a protocol
/// path so the checker's counterexample search can be validated
/// against a known violation. Switches are thread-local (checker runs
/// are single-threaded; parallel tests cannot interfere) and default
/// to off, leaving behaviour byte-identical to a build without this
/// module. The module only exists under `cfg(test)` or the
/// `mc-mutations` feature, which only `mc`'s dev-dependencies enable.
#[cfg(any(test, feature = "mc-mutations"))]
pub mod mutation {
    use std::cell::Cell;

    thread_local! {
        static RAFT_DOUBLE_VOTE: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms/disarms the election-safety bug: replicas forget their
    /// vote and may grant twice in one term.
    pub fn set_raft_double_vote(on: bool) {
        RAFT_DOUBLE_VOTE.with(|c| c.set(on));
    }

    /// Whether the double-vote bug is armed on this thread.
    pub fn raft_double_vote() -> bool {
        RAFT_DOUBLE_VOTE.with(|c| c.get())
    }
}

pub use command::{KvCommand, WatchEvent};
pub use facade::KnowledgeBase;
pub use raft::{RaftCluster, RaftConfig, RaftNode};
pub use registry::{NodeRecord, RegistryView};
pub use store::KvStore;
