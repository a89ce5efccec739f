//! # themis-cluster
//!
//! GPU-cluster substrate for the Themis scheduler reproduction (NSDI 2020).
//!
//! This crate models everything the scheduler needs to know about the
//! physical cluster:
//!
//! * identifiers for GPUs, machines, racks, apps, jobs and tasks ([`ids`]),
//! * the cluster topology — machines with a number of GPUs grouped into
//!   NVLink slots, machines grouped into racks ([`topology`]),
//! * GPU allocation vectors and free-resource vectors used as the goods in
//!   Themis auctions ([`alloc`]),
//! * locality levels and placement scoring ([`placement`]),
//! * GPU leases, the mechanism by which Themis reclaims resources
//!   ([`lease`]),
//! * the mutable [`Cluster`] state that tracks which GPU is held by
//!   which job under which lease in a dense assignment arena ([`cluster`]),
//! * and borrowed per-round scheduling views — the [`view::ClusterState`]
//!   trait plus the allocation-free [`view::ClusterView`] shadow policies
//!   use instead of cloning the cluster every round ([`view`]).
//!
//! The types here are deliberately free of any scheduling policy; the
//! policies live in `themis-core` (Themis itself) and `themis-baselines`.
//!
//! ## Example
//!
//! ```
//! use themis_cluster::prelude::*;
//!
//! // A small heterogeneous cluster: 2 racks of 4-GPU and 2-GPU machines.
//! let spec = ClusterSpec::builder()
//!     .rack(|r| r.machines(4, 4).machines(4, 2))
//!     .rack(|r| r.machines(4, 4).machines(4, 1))
//!     .build();
//! let cluster = Cluster::new(spec);
//! assert_eq!(cluster.total_gpus(), 4 * 4 + 4 * 2 + 4 * 4 + 4 * 1);
//! assert_eq!(cluster.free_gpus().len(), cluster.total_gpus());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod cluster;
pub mod error;
pub mod ids;
pub mod lease;
pub mod placement;
pub mod time;
pub mod topology;
pub mod view;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::alloc::{DenseBitSet, FreeVector, GpuAlloc};
    pub use crate::cluster::Cluster;
    pub use crate::error::ClusterError;
    pub use crate::ids::{AppId, GpuId, JobId, MachineId, RackId, TaskId};
    pub use crate::lease::{Lease, LeaseTable};
    pub use crate::placement::{Locality, PlacementScorer};
    pub use crate::time::Time;
    pub use crate::topology::{ClusterSpec, MachineSpec, RackSpec};
    pub use crate::view::{ClusterState, ClusterView};
}

pub use prelude::*;
