//! Strongly-typed identifiers used throughout the workspace.
//!
//! Every entity the scheduler reasons about gets its own newtype so that a
//! GPU index can never be confused with a machine index at compile time.
//! All identifiers are small, `Copy`, ordered and hashable so they can be
//! used as keys in `BTreeMap`s (the simulator relies on deterministic
//! iteration order, so `BTreeMap`/`BTreeSet` are preferred over hash maps).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw numeric index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                Self(v as u32)
            }
        }
    };
}

id_type!(
    /// A single GPU, indexed globally across the whole cluster.
    GpuId,
    "gpu"
);
id_type!(
    /// A machine (server) holding one or more GPUs.
    MachineId,
    "m"
);
id_type!(
    /// A rack containing one or more machines.
    RackId,
    "rack"
);
id_type!(
    /// An ML application: a set of hyper-parameter exploration jobs owned by
    /// one user. Apps are the unit of fairness in Themis.
    AppId,
    "app"
);
id_type!(
    /// A single ML training job within an app (one hyper-parameter
    /// configuration).
    JobId,
    "job"
);
id_type!(
    /// A task within a job. All tasks of a job are gang-scheduled and each
    /// occupies one or more GPUs.
    TaskId,
    "task"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(GpuId(3).to_string(), "gpu3");
        assert_eq!(MachineId(0).to_string(), "m0");
        assert_eq!(RackId(7).to_string(), "rack7");
        assert_eq!(AppId(12).to_string(), "app12");
        assert_eq!(JobId(5).to_string(), "job5");
        assert_eq!(TaskId(9).to_string(), "task9");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = BTreeSet::new();
        set.insert(GpuId(2));
        set.insert(GpuId(0));
        set.insert(GpuId(1));
        let collected: Vec<_> = set.into_iter().collect();
        assert_eq!(collected, vec![GpuId(0), GpuId(1), GpuId(2)]);
    }

    #[test]
    fn conversions_round_trip() {
        let id = AppId::from(42u32);
        assert_eq!(id.index(), 42);
        let id = JobId::from(7usize);
        assert_eq!(id, JobId(7));
    }

    #[test]
    fn distinct_types_do_not_compare() {
        // This is a compile-time property; here we just document the intent:
        // GpuId and MachineId are different types even with the same value.
        let g = GpuId(1);
        let m = MachineId(1);
        assert_eq!(g.0, m.0);
    }
}
