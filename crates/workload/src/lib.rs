//! # myrtus-workload
//!
//! Application models for the MYRTUS continuum: a TOSCA-like topology
//! model with a validating textual profile (the object model MIRTO's API
//! daemon accepts), request-level dataflow DAGs, application operating
//! points (refs \[29\], \[30\]), arrival processes, and generators for the
//! paper's Smart-Mobility and Virtual-Telerehabilitation use cases.
//!
//! ## Quick start
//!
//! ```
//! use myrtus_workload::compile::compile_requests;
//! use myrtus_workload::scenarios;
//!
//! let app = scenarios::smart_mobility();
//! app.validate()?;
//! let requests = compile_requests(&app, 0, 7, None).expect("validated");
//! assert!(!requests.is_empty());
//! # Ok::<(), myrtus_workload::tosca::ValidateAppError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod compile;
pub mod graph;
pub mod opset;
pub mod scenarios;
pub mod tosca;
pub mod trace;

pub use arrival::ArrivalSpec;
pub use compile::{compile_requests, compile_stages, CompiledRequest, CompiledStage, Tag};
pub use graph::RequestDag;
pub use opset::{AppOperatingPoint, AppPointSet};
pub use tosca::{Application, Component, ComponentKind, SecurityTier};
