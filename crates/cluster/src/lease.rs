//! GPU leases.
//!
//! Every GPU in a Themis-managed cluster has a lease associated with it (§3).
//! The lease dictates how long an app can assume ownership of the GPU; when
//! it expires, the GPU is reclaimed and put up for re-auction. The
//! [`LeaseTable`] tracks active leases and answers "which leases expire at or
//! before time t" queries for the simulator.

use crate::ids::{AppId, GpuId, JobId};
use crate::time::Time;
use std::collections::{BTreeMap, VecDeque};

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
/// The leases live in a GPU-indexed slot vector. Beside it the table keeps
/// an expiry-ordered queue of `(expires_at, gpu)` keys, so "what has expired
/// by `now`" and "when does the next lease run out" cost O(expired) and
/// O(1) instead of a walk over every lease. The queue is deleted from
/// lazily: a revoke clears only the slot, and a key is *live* while its
/// GPU's slot holds a lease with exactly that expiry. Stale keys are popped
/// whenever they reach the front, so the front key is always live. A grant
/// at the latest expiry so far — the engine's only kind, `now + lease` —
/// is a push at the back; once the queue has grown to its working size the
/// table allocates nothing but the lists it returns.
///
/// The queue is derived state: equality, [`LeaseTable::iter`] and both
/// `From` conversions see the per-GPU leases alone.
#[derive(Debug, Clone, Default)]
pub struct LeaseTable {
    /// The lease on each GPU, indexed by GPU id.
    slots: Vec<Option<Lease>>,
    /// Number of `Some` slots.
    len: usize,
    /// `(expires_at, gpu)` keys in ascending order; every active lease has
    /// a live key, and the front key (if any) is live.
    by_expiry: VecDeque<(Time, GpuId)>,
}

/// Whether the queued key `(expires_at, gpu)` stands for an active lease:
/// the GPU's slot holds a lease with exactly that expiry.
fn is_live(slots: &[Option<Lease>], (expires_at, gpu): (Time, GpuId)) -> bool {
    slots
        .get(gpu.index())
        .and_then(Option::as_ref)
        .is_some_and(|l| l.expires_at == expires_at)
}

impl PartialEq for LeaseTable {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
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
        table
            .slots
            .into_iter()
            .flatten()
            .map(|lease| (lease.gpu, lease))
            .collect()
    }
}

impl LeaseTable {
    /// Creates an empty lease table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with a slot for each of `gpus` GPUs, so grants on
    /// them never grow the slot vector.
    pub(crate) fn with_gpus(gpus: usize) -> Self {
        LeaseTable {
            slots: vec![None; gpus],
            ..Self::default()
        }
    }

    /// Number of active leases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no leases are active.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The active lease on a GPU, if any.
    pub fn lease(&self, gpu: GpuId) -> Option<&Lease> {
        self.slots.get(gpu.index())?.as_ref()
    }

    /// Pops stale keys off the front of the expiry queue.
    fn pop_stale_front(&mut self) {
        while let Some(&key) = self.by_expiry.front() {
            if is_live(&self.slots, key) {
                break;
            }
            self.by_expiry.pop_front();
        }
    }

    /// Number of queued keys, live or stale, that expire at or before
    /// `now`: a prefix of the queue.
    fn due(&self, now: Time) -> usize {
        self.by_expiry
            .partition_point(|(expires_at, _)| *expires_at <= now)
    }

    /// Grants (or replaces) a lease on a GPU.
    pub fn grant(&mut self, lease: Lease) -> Option<Lease> {
        let idx = lease.gpu.index();
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        let old = self.slots[idx].replace(lease);
        match old {
            None => self.len += 1,
            // The old key is live again under the new lease.
            Some(old) if old.expires_at == lease.expires_at => return Some(old),
            Some(_) => {}
        }
        let key = (lease.expires_at, lease.gpu);
        match self.by_expiry.back() {
            Some(back) if *back > key => {
                let at = self.by_expiry.partition_point(|k| *k < key);
                self.by_expiry.insert(at, key);
            }
            _ => self.by_expiry.push_back(key),
        }
        self.pop_stale_front();
        old
    }

    /// Revokes the lease on a GPU, returning it if present.
    pub fn revoke(&mut self, gpu: GpuId) -> Option<Lease> {
        let lease = self.slots.get_mut(gpu.index())?.take()?;
        self.len -= 1;
        self.pop_stale_front();
        Some(lease)
    }

    /// All leases that have expired at or before `now`, in GPU order.
    pub fn expired(&self, now: Time) -> Vec<Lease> {
        let due = self.due(now);
        let mut expired = Vec::with_capacity(due);
        expired.extend(
            self.by_expiry
                .range(..due)
                .filter(|key| is_live(&self.slots, **key))
                .map(|(_, gpu)| self.slots[gpu.index()].expect("live key has a lease")),
        );
        // A GPU revoked and re-granted at the same expiry has two live keys.
        expired.sort_unstable_by_key(|l| l.gpu);
        expired.dedup_by_key(|l| l.gpu);
        expired
    }

    /// Removes and returns all leases that have expired at or before `now`,
    /// in GPU order.
    pub fn reclaim_expired(&mut self, now: Time) -> Vec<Lease> {
        let due = self.due(now);
        let mut expired = Vec::with_capacity(due);
        for key in self.by_expiry.drain(..due) {
            // A second live-looking key for the same GPU finds its slot
            // already empty.
            if is_live(&self.slots, key) {
                expired.extend(self.slots[key.1.index()].take());
            }
        }
        self.len -= expired.len();
        self.pop_stale_front();
        expired.sort_unstable_by_key(|l| l.gpu);
        expired
    }

    /// The earliest lease expiry in the table, if any lease is active.
    pub fn next_expiry(&self) -> Option<Time> {
        self.by_expiry.front().map(|(expires_at, _)| *expires_at)
    }

    /// Iterates over all active leases in GPU order.
    pub fn iter(&self) -> impl Iterator<Item = &Lease> {
        self.slots.iter().flatten()
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
    fn stale_and_doubled_keys_are_skipped() {
        let mut table = LeaseTable::new();
        table.grant(lease(0, 1, 0.0, 30.0));
        // Earlier than the latest queued expiry: filed in order.
        table.grant(lease(1, 1, 0.0, 10.0));
        table.grant(lease(2, 1, 0.0, 20.0));
        assert_eq!(table.next_expiry(), Some(Time::minutes(10.0)));
        // Revoked and re-granted at the same expiry: two keys look live.
        table.revoke(GpuId(0));
        table.grant(lease(0, 2, 5.0, 30.0));
        // A stale key inside the due prefix.
        table.revoke(GpuId(2));
        let gpus = |leases: Vec<Lease>| leases.iter().map(|l| l.gpu).collect::<Vec<_>>();
        assert_eq!(
            gpus(table.expired(Time::minutes(30.0))),
            [GpuId(0), GpuId(1)]
        );
        assert_eq!(gpus(table.reclaim_expired(Time::minutes(25.0))), [GpuId(1)]);
        assert_eq!(table.next_expiry(), Some(Time::minutes(30.0)));
        let reclaimed = table.reclaim_expired(Time::minutes(30.0));
        assert_eq!(reclaimed.len(), 1);
        assert_eq!(reclaimed[0].app, AppId(2));
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
