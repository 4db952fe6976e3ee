//! # myrtus-mirto
//!
//! The MIRTO ("Multi-layer 360° dynamIc RunTime Orchestration") cognitive
//! engine — the MYRTUS paper's core contribution. It implements the
//! four-step dynamic orchestration loop (sense → evaluate → decide →
//! reconfigure) over the `myrtus-continuum` simulator, the Fig. 3 agent
//! architecture (API daemon with authentication and TOSCA validation,
//! the four cooperating managers, KB and deployment proxies), the
//! intelligence strategies the paper names (swarm placement, federated
//! learning of latency models, Q-learning route management) and the
//! silo/static baselines it is compared against.
//!
//! ## Quick start
//!
//! ```
//! use myrtus_mirto::engine::{run_orchestration, EngineConfig};
//! use myrtus_mirto::policies::GreedyBestFit;
//! use myrtus_continuum::time::SimTime;
//! use myrtus_workload::scenarios;
//!
//! let report = run_orchestration(
//!     Box::new(GreedyBestFit::new()),
//!     EngineConfig::default(),
//!     vec![scenarios::telerehab_with(1)],
//!     SimTime::from_secs(3),
//! ).expect("placeable");
//! assert!(report.apps[0].completed > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod api;
pub mod deployer;
pub mod engine;
pub mod fl;
pub mod frevo;
pub mod images;
pub mod managers;
pub mod placement;
pub mod policies;
pub mod rl;
pub mod swarm;

/// Seeded-bug switches for the `mc` model checker.
///
/// Same contract as `myrtus_continuum::mutation`: thread-local, off by
/// default, compiled only under `cfg(test)` or the `mc-mutations`
/// feature.
#[cfg(any(test, feature = "mc-mutations"))]
pub mod mutation {
    use std::cell::Cell;

    thread_local! {
        static SCALE_DOWN_LEAK: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms/disarms the scale-down bug: the evicted replica's pod
    /// leaks its cluster resource requests.
    pub fn set_scale_down_leaks_pod(on: bool) {
        SCALE_DOWN_LEAK.with(|c| c.set(on));
    }

    /// Whether the scale-down leak bug is armed on this thread.
    pub fn scale_down_leaks_pod() -> bool {
        SCALE_DOWN_LEAK.with(|c| c.get())
    }
}

pub use agent::{auction, layer_agents, AuctionPlacement, Bid, MirtoAgent, OffloadQuery};
pub use api::{ApiDaemon, ApiError, ApiRequest, ApiResponse, Operation};
pub use deployer::DeploymentProxy;
pub use engine::{
    run_orchestration, EngineConfig, ManagerTuning, MigrationMode, OrchestrationEngine,
    OrchestrationReport,
};
pub use images::{ImageRegistry, ScanResult};
pub use managers::federation::{BurstLink, FederationConfig, FederationManager};
pub use placement::{evaluate, Placement, PlacementScore, PlanContext};
pub use policies::{
    GreedyBestFit, KubeLike, LayerPinned, PlacementPolicy, RandomPlacement, RoundRobin,
};
pub use swarm::{AcoPlacement, PsoPlacement};
