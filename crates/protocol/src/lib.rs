//! # themis-protocol
//!
//! Message types and the simulated network for the Arbiter ↔ Agent
//! interface of the Themis reproduction (NSDI 2020).
//!
//! The paper's prototype adds gRPC interfaces between the per-app **Agent**
//! (co-located with the app's hyper-parameter tuning framework) and the
//! central **Arbiter** inside the YARN resource manager (§7): the Arbiter
//! probes agents for their finish-time-fairness estimates, sends resource
//! offers to the worst-off fraction of apps, receives bid tables back, and
//! finally notifies winners of their allocations.
//!
//! This crate reproduces that interface as plain Rust types:
//!
//! * [`messages`] — the typed protocol messages (ρ query/report, offer, bid
//!   table, allocation, lease notifications), all serializable with serde,
//! * [`bid`] — the bid-table representation shared with the auction in
//!   `themis-core`,
//! * [`fault`] — [`fault::FaultConfig`], the one description of what can go
//!   wrong in a distributed run (drops, delay, jitter, bandwidth, crashes,
//!   partitions, failover, Arbiter congestion),
//! * [`actor`] / [`network`] / [`log`] — the event-driven actor runtime:
//!   actor identities and deterministic timers, a causal [`network::Network`]
//!   with per-link latency/jitter/bandwidth and partition modelling, and the
//!   [`log::MessageLog`] record/replay transcript that makes every
//!   distributed run byte-reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod actor;
pub mod bid;
pub mod fault;
pub mod log;
pub mod messages;
pub mod network;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::actor::{ActorId, TimerWheel};
    pub use crate::bid::{BidEntry, BidTable};
    pub use crate::fault::FaultConfig;
    pub use crate::log::{LogRecord, MessageLog, ReplayCursor, SendFate};
    pub use crate::messages::{
        AgentToArbiter, ArbiterToAgent, OfferMsg, RhoReport, WinNotification,
    };
    pub use crate::network::{LogMode, NetMsg, NetStats, Network};
}

pub use prelude::*;
