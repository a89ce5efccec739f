//! Error types for cluster-state operations.

use crate::ids::{AppId, GpuId};
use std::fmt;

/// Errors that can occur when manipulating [`crate::cluster::Cluster`] state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Attempted to allocate a GPU that is already held by an app.
    GpuBusy {
        /// The GPU that was requested.
        gpu: GpuId,
        /// The app currently holding it.
        held_by: AppId,
    },
    /// Attempted to free or inspect a GPU that is not allocated.
    GpuNotAllocated {
        /// The GPU in question.
        gpu: GpuId,
    },
    /// Referenced a GPU that does not exist in the cluster.
    UnknownGpu {
        /// The offending id.
        gpu: GpuId,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::GpuBusy { gpu, held_by } => {
                write!(f, "{gpu} is already allocated to {held_by}")
            }
            ClusterError::GpuNotAllocated { gpu } => {
                write!(f, "{gpu} is not currently allocated")
            }
            ClusterError::UnknownGpu { gpu } => write!(f, "{gpu} does not exist in this cluster"),
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ClusterError::GpuBusy {
            gpu: GpuId(1),
            held_by: AppId(2),
        };
        assert!(e.to_string().contains("gpu1"));
        assert!(e.to_string().contains("app2"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&ClusterError::GpuNotAllocated { gpu: GpuId(0) });
    }
}
