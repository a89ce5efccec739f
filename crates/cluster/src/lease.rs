//! GPU leases.
//!
//! Every GPU in a Themis-managed cluster has a lease associated with it (§3).
//! The lease dictates how long an app can assume ownership of the GPU; when
//! it expires, the GPU is reclaimed and put up for re-auction. The
//! [`LeaseTable`] tracks active leases and answers "which leases expire at or
//! before time t" queries for the simulator.

use crate::ids::{AppId, GpuId, JobId};
use crate::time::Time;
use std::collections::{BTreeMap, BTreeSet};

/// An active lease: one GPU held by one job of one app until `expires_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lease {
    /// GPU being leased.
    pub gpu: GpuId,
    /// App holding the lease.
    pub app: AppId,
    /// Job (within the app) the GPU is assigned to.
    pub job: JobId,
    /// Time the lease was granted.
    pub granted_at: Time,
    /// Time at which the lease expires and the GPU is reclaimed.
    pub expires_at: Time,
}

/// Tracks the active lease (if any) for every GPU.
///
/// Beside the per-GPU map the table keeps an expiry-ordered index of the
/// same leases, so "what has expired by `now`" and "when does the next
/// lease run out" cost O(expired) and O(1) instead of a walk over every
/// lease. The index is derived state: equality is that of the per-GPU map
/// alone.
#[derive(Debug, Clone, Default)]
pub struct LeaseTable {
    leases: BTreeMap<GpuId, Lease>,
    /// `(expires_at, gpu)` for every entry of `leases`.
    by_expiry: BTreeSet<(Time, GpuId)>,
}

impl PartialEq for LeaseTable {
    fn eq(&self, other: &Self) -> bool {
        self.leases == other.leases
    }
}

impl From<BTreeMap<GpuId, Lease>> for LeaseTable {
    /// Builds a table from per-GPU leases. Each lease is filed under its
    /// own `gpu` field, as [`LeaseTable::grant`] would.
    fn from(leases: BTreeMap<GpuId, Lease>) -> Self {
        let mut table = LeaseTable::new();
        for lease in leases.into_values() {
            table.grant(lease);
        }
        table
    }
}

impl From<LeaseTable> for BTreeMap<GpuId, Lease> {
    fn from(table: LeaseTable) -> Self {
        table.leases
    }
}

impl LeaseTable {
    /// Creates an empty lease table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of active leases.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// `true` if no leases are active.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }

    /// The active lease on a GPU, if any.
    pub fn lease(&self, gpu: GpuId) -> Option<&Lease> {
        self.leases.get(&gpu)
    }

    /// Grants (or replaces) a lease on a GPU.
    pub fn grant(&mut self, lease: Lease) -> Option<Lease> {
        let old = self.leases.insert(lease.gpu, lease);
        if let Some(old) = &old {
            self.by_expiry.remove(&(old.expires_at, old.gpu));
        }
        self.by_expiry.insert((lease.expires_at, lease.gpu));
        old
    }

    /// Revokes the lease on a GPU, returning it if present.
    pub fn revoke(&mut self, gpu: GpuId) -> Option<Lease> {
        let lease = self.leases.remove(&gpu)?;
        self.by_expiry.remove(&(lease.expires_at, gpu));
        Some(lease)
    }

    /// All leases that have expired at or before `now`, in GPU order.
    pub fn expired(&self, now: Time) -> Vec<Lease> {
        let mut expired: Vec<Lease> = self
            .by_expiry
            .iter()
            .take_while(|(expires_at, _)| *expires_at <= now)
            .map(|(_, gpu)| self.leases[gpu])
            .collect();
        expired.sort_unstable_by_key(|l| l.gpu);
        expired
    }

    /// Removes and returns all leases that have expired at or before `now`,
    /// in GPU order.
    pub fn reclaim_expired(&mut self, now: Time) -> Vec<Lease> {
        let expired = self.expired(now);
        for lease in &expired {
            self.revoke(lease.gpu);
        }
        expired
    }

    /// The earliest lease expiry in the table, if any lease is active.
    pub fn next_expiry(&self) -> Option<Time> {
        self.by_expiry.first().map(|(expires_at, _)| *expires_at)
    }

    /// Iterates over all active leases in GPU order.
    pub fn iter(&self) -> impl Iterator<Item = &Lease> {
        self.leases.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease(gpu: u32, app: u32, granted: f64, expires: f64) -> Lease {
        Lease {
            gpu: GpuId(gpu),
            app: AppId(app),
            job: JobId(0),
            granted_at: Time::minutes(granted),
            expires_at: Time::minutes(expires),
        }
    }

    #[test]
    fn grant_and_revoke() {
        let mut table = LeaseTable::new();
        assert!(table.is_empty());
        assert!(table.grant(lease(0, 1, 0.0, 20.0)).is_none());
        assert_eq!(table.len(), 1);
        // Granting again replaces and returns the old lease.
        let old = table.grant(lease(0, 2, 5.0, 25.0)).unwrap();
        assert_eq!(old.app, AppId(1));
        assert_eq!(table.lease(GpuId(0)).unwrap().app, AppId(2));
        assert!(table.revoke(GpuId(0)).is_some());
        assert!(table.revoke(GpuId(0)).is_none());
    }

    #[test]
    fn reclaim_expired_removes_only_expired() {
        let mut table = LeaseTable::new();
        table.grant(lease(0, 1, 0.0, 20.0));
        table.grant(lease(1, 1, 0.0, 40.0));
        table.grant(lease(2, 2, 0.0, 10.0));
        let reclaimed = table.reclaim_expired(Time::minutes(20.0));
        let gpus: Vec<_> = reclaimed.iter().map(|l| l.gpu).collect();
        assert_eq!(gpus, vec![GpuId(0), GpuId(2)]);
        assert_eq!(table.len(), 1);
        assert_eq!(table.next_expiry(), Some(Time::minutes(40.0)));
    }

    #[test]
    fn expiry_index_follows_replace_extend_and_revoke() {
        let mut table = LeaseTable::new();
        table.grant(lease(0, 1, 0.0, 20.0));
        table.grant(lease(1, 1, 0.0, 30.0));
        // Replacing a lease, or extending it by a later grant, moves the
        // GPU's place in the expiry order.
        table.grant(lease(0, 2, 5.0, 50.0));
        assert_eq!(table.next_expiry(), Some(Time::minutes(30.0)));
        table.grant(lease(1, 1, 0.0, 60.0));
        assert_eq!(table.next_expiry(), Some(Time::minutes(50.0)));
        assert!(table.expired(Time::minutes(49.0)).is_empty());
        table.revoke(GpuId(0));
        assert_eq!(table.next_expiry(), Some(Time::minutes(60.0)));
        let reclaimed = table.reclaim_expired(Time::minutes(60.0));
        assert_eq!(reclaimed.len(), 1);
        assert!(table.is_empty());
        assert_eq!(table.next_expiry(), None);
    }

    #[test]
    fn equality_and_conversion_see_only_the_leases() {
        let mut a = LeaseTable::new();
        a.grant(lease(3, 1, 0.0, 20.0));
        a.grant(lease(1, 2, 0.0, 10.0));
        a.grant(lease(7, 1, 0.0, 5.0));
        a.reclaim_expired(Time::minutes(5.0));
        let mut b = LeaseTable::new();
        b.grant(lease(1, 2, 0.0, 10.0));
        b.grant(lease(3, 1, 0.0, 20.0));
        assert_eq!(a, b);
        let map: BTreeMap<GpuId, Lease> = a.into();
        assert_eq!(map.len(), 2);
        let rebuilt = LeaseTable::from(map);
        assert_eq!(rebuilt, b);
        assert_eq!(rebuilt.next_expiry(), Some(Time::minutes(10.0)));
    }

    #[test]
    fn next_expiry_none_when_empty() {
        assert_eq!(LeaseTable::new().next_expiry(), None);
    }
}
