//! # themis-core
//!
//! The Themis scheduler itself: finish-time fair, placement-sensitive GPU
//! cluster scheduling through partial-allocation auctions (Mahajan et al.,
//! NSDI 2020).
//!
//! The crate is organised around the paper's architecture (§3):
//!
//! * [`rho`] — the **finish-time fairness** metric ρ = T_sh / T_id and the
//!   estimator the Agent uses to value candidate allocations (§5.2),
//! * [`agent`] — the per-app **Agent** that reports ρ and prepares bid
//!   tables over subsets of an offer,
//! * [`auction`] — the **partial allocation (PA) mechanism**: a
//!   proportional-fair (Nash product) allocation with hidden payments that
//!   make truthful bidding the dominant strategy (§5.1),
//! * [`arbiter`] — the central **Arbiter** that runs auction rounds:
//!   probe ρ, offer to the worst-off `1 − f` fraction, collect bids, pick
//!   winners, and hand out leftovers work-conservingly,
//! * [`scheduler`] — [`scheduler::ThemisScheduler`], which plugs the whole
//!   thing into the `themis-sim` engine so it can be compared head-to-head
//!   with the baselines,
//! * [`actors`] — [`actors::DistributedThemisScheduler`], the same policy
//!   running every auction round as the paper's five-step message exchange
//!   (§3.1, §7) between an Arbiter actor and per-app Agent actors on a
//!   causal, fault-injecting [`themis_protocol::network::Network`]: rounds
//!   overlap in simulated time, phase deadlines bound slow Agents, and
//!   every transport decision can be recorded and replayed
//!   byte-identically,
//! * [`config`] — the tunables the paper studies: the fairness knob `f`,
//!   the lease duration, and bid-valuation error injection.
//!
//! ## Quick start
//!
//! ```
//! use themis_core::prelude::*;
//! use themis_sim::prelude::*;
//! use themis_cluster::prelude::*;
//! use themis_workload::prelude::*;
//!
//! let cluster = Cluster::new(ClusterSpec::heterogeneous_256());
//! let trace = TraceGenerator::new(TraceConfig::default().with_num_apps(10)).generate();
//! let themis = ThemisScheduler::new(ThemisConfig::default());
//! let report = Engine::new(cluster, trace, themis, SimConfig::default()).run();
//! assert!(report.finished_apps() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod actors;
pub mod agent;
pub mod arbiter;
pub mod auction;
pub mod config;
pub mod rho;
pub mod scheduler;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::actors::{DistStats, DistributedThemisScheduler};
    pub use crate::agent::Agent;
    pub use crate::arbiter::{Arbiter, AuctionOutcome};
    pub use crate::auction::{partial_allocation, AuctionResult, SolverKind};
    pub use crate::config::ThemisConfig;
    pub use crate::rho::{estimate_rho, RhoEstimate};
    pub use crate::scheduler::ThemisScheduler;
}

pub use prelude::*;
