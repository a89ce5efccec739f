//! # themis-sim
//!
//! Event-driven GPU-cluster simulator for the Themis reproduction
//! (NSDI 2020).
//!
//! The paper evaluates scheduling policies with an event-based simulator
//! replaying an enterprise trace over a 256-GPU cluster (§8.1). This crate
//! is that simulator:
//!
//! * [`events`] — the deterministic event queue (app arrivals, lease
//!   expiries, projected job completions),
//! * [`app_runtime`] — the mutable per-app state (job progress, the app's
//!   own hyper-parameter scheduler, attained service, placement samples),
//!   kept per job in the position-indexed [`job_table::JobTable`],
//! * [`arena`] — the dense app-id-indexed [`arena::AppArena`] the engine
//!   stores those runtimes in (and hands to every scheduler),
//! * [`scheduler`] — the [`scheduler::Scheduler`] trait every policy
//!   (Themis and the baselines) implements, plus shared placement helpers,
//! * [`engine`] — the simulation loop itself,
//! * [`metrics`] — the evaluation metrics the paper reports: finish-time
//!   fairness ρ, max fairness, Jain's index, placement score, GPU time and
//!   app completion times,
//! * [`arrivals`], [`window`], [`service`] — the open-system **service
//!   mode**: unbounded arrival processes (Poisson, diurnal, flash-crowd),
//!   rolling-window percentile metrics with steady-state detection, and
//!   the [`service::ServiceEngine`] driver that admits and retires apps
//!   continuously with an incremental (auction-skipping) round hot path.
//!
//! Each run is single-threaded and fully deterministic: identical inputs
//! (trace, cluster, scheduler, config) produce identical reports. Because
//! runs share no state, *batches* of runs shard cleanly across threads —
//! [`batch::run_batch`] is the parallel fan-out the experiment harness
//! builds its scenario-matrix sweeps on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app_runtime;
pub mod arena;
pub mod arrivals;
pub mod batch;
pub mod engine;
pub mod events;
pub mod job_table;
pub mod metrics;
pub mod scheduler;
pub mod service;
pub mod window;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::app_runtime::AppRuntime;
    pub use crate::arena::AppArena;
    pub use crate::arrivals::{ArrivalProcess, ArrivalShape};
    pub use crate::batch::run_batch;
    pub use crate::engine::{Engine, SimConfig};
    pub use crate::metrics::{AppOutcome, SimReport};
    pub use crate::scheduler::{pick_gpus_packed, split_among_jobs, AllocationDecision, Scheduler};
    pub use crate::service::{
        AppSource, ReplaySource, ServiceConfig, ServiceEngine, ServiceReport, StreamSource,
    };
    pub use crate::window::{
        RollingWindow, ServiceWindows, SteadyConfig, SteadyStateDetector, WindowSummary,
    };
}

pub use prelude::*;
