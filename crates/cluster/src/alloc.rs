//! GPU allocation vectors.
//!
//! Two related representations are used throughout the scheduler:
//!
//! * [`GpuAlloc`] — a concrete set of GPU ids held by (or proposed for) a
//!   job or app. This is the `[G_{x,y,i}]` vector of the paper's
//!   optimization program (§4), stored as a sorted dense vector.
//! * [`FreeVector`] — per-machine counts of *free* GPUs; this is the
//!   resource offer `R` the Arbiter auctions off, where each dimension is
//!   the number of unused GPUs in a given machine (§5.1), stored as a
//!   dense machine-indexed count vector.
//!
//! Both types used to be `BTreeSet`/`BTreeMap`-backed. They sit on the
//! auction hot path — every scheduling round builds, merges and subtracts
//! hundreds of them — so they are now flat vectors: iteration is a linear
//! scan, set operations are merges, and membership is a binary search (or
//! an O(1) index for [`FreeVector`]). GPU and machine ids are dense and
//! builder-assigned (see `ClusterSpec`), which is what makes the dense
//! indexing sound. All iteration orders remain ascending-by-id, exactly
//! as with the ordered-tree representations, so scheduling decisions and
//! committed sweep baselines are unchanged. [`DenseBitSet`] is the shared
//! bitset companion used for O(1) membership over the GPU universe.

use crate::ids::{GpuId, MachineId};
use crate::topology::ClusterSpec;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A fixed-universe bitset over dense ids (one bit per GPU).
///
/// The sorted-vector [`GpuAlloc`] is the representation of record; this is
/// its constant-time-membership companion for hot loops that test "is this
/// GPU in the set?" many times against the same allocation (placement
/// scoring, shadow free-tracking in `ClusterView`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DenseBitSet {
    words: Vec<u64>,
}

/// Equality is over set *contents*: trailing zero words (a larger universe,
/// or capacity left behind by remove) never distinguish two sets.
impl PartialEq for DenseBitSet {
    fn eq(&self, other: &Self) -> bool {
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|w| *w == 0)
            && other.words[common..].iter().all(|w| *w == 0)
    }
}

impl Eq for DenseBitSet {}

impl DenseBitSet {
    /// An empty bitset sized for a universe of `universe` ids.
    pub fn with_universe(universe: usize) -> Self {
        DenseBitSet {
            words: vec![0; universe.div_ceil(64)],
        }
    }

    /// Sets bit `idx`, growing the universe if needed. Returns `true` if
    /// the bit was newly set.
    pub fn insert(&mut self, idx: usize) -> bool {
        let word = idx / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (idx % 64);
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        newly
    }

    /// Clears bit `idx`. Returns `true` if the bit was set.
    pub fn remove(&mut self, idx: usize) -> bool {
        let word = idx / 64;
        if word >= self.words.len() {
            return false;
        }
        let mask = 1u64 << (idx % 64);
        let was = self.words[word] & mask != 0;
        self.words[word] &= !mask;
        was
    }

    /// Whether bit `idx` is set.
    pub fn contains(&self, idx: usize) -> bool {
        self.words
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates over set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, word)| {
            let mut w = *word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }
}

/// A concrete set of GPUs assigned to one job or app.
///
/// Internally a sorted, deduplicated vector of GPU ids, so iteration order
/// (and therefore every simulation that consumes it) is deterministic and
/// ascending — identical to the previous `BTreeSet` representation, minus
/// the per-node allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuAlloc {
    gpus: Vec<GpuId>,
}

impl GpuAlloc {
    /// The empty allocation.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds an allocation from an iterator of GPU ids.
    pub fn from_gpus(gpus: impl IntoIterator<Item = GpuId>) -> Self {
        let mut gpus: Vec<GpuId> = gpus.into_iter().collect();
        gpus.sort_unstable();
        gpus.dedup();
        GpuAlloc { gpus }
    }

    /// Builds an allocation from an already sorted, deduplicated vector
    /// (the fast path used by the assignment arena's per-app index).
    pub fn from_sorted(gpus: Vec<GpuId>) -> Self {
        debug_assert!(gpus.windows(2).all(|w| w[0] < w[1]), "must be sorted");
        GpuAlloc { gpus }
    }

    /// Replaces the contents with an already sorted, deduplicated run of
    /// GPU ids, keeping the buffer (the reuse counterpart of
    /// [`GpuAlloc::from_sorted`]).
    pub(crate) fn refill_sorted(&mut self, gpus: impl IntoIterator<Item = GpuId>) {
        self.gpus.clear();
        self.gpus.extend(gpus);
        debug_assert!(self.gpus.windows(2).all(|w| w[0] < w[1]), "must be sorted");
    }

    /// Number of GPUs in the allocation.
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// `true` if no GPUs are held.
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    /// The GPU ids as a sorted slice.
    pub fn as_slice(&self) -> &[GpuId] {
        &self.gpus
    }

    /// Whether a specific GPU is part of this allocation.
    pub fn contains(&self, gpu: GpuId) -> bool {
        self.gpus.binary_search(&gpu).is_ok()
    }

    /// Adds a GPU; returns `true` if it was newly inserted.
    pub fn insert(&mut self, gpu: GpuId) -> bool {
        match self.gpus.binary_search(&gpu) {
            Ok(_) => false,
            Err(pos) => {
                self.gpus.insert(pos, gpu);
                true
            }
        }
    }

    /// Removes a GPU; returns `true` if it was present.
    pub fn remove(&mut self, gpu: GpuId) -> bool {
        match self.gpus.binary_search(&gpu) {
            Ok(pos) => {
                self.gpus.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over the GPUs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = GpuId> + '_ {
        self.gpus.iter().copied()
    }

    /// Set-union with another allocation (sorted merge).
    pub fn union(&self, other: &GpuAlloc) -> GpuAlloc {
        let mut out = Vec::with_capacity(self.gpus.len() + other.gpus.len());
        let (mut a, mut b) = (0, 0);
        while a < self.gpus.len() && b < other.gpus.len() {
            match self.gpus[a].cmp(&other.gpus[b]) {
                std::cmp::Ordering::Less => {
                    out.push(self.gpus[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.gpus[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.gpus[a]);
                    a += 1;
                    b += 1;
                }
            }
        }
        out.extend_from_slice(&self.gpus[a..]);
        out.extend_from_slice(&other.gpus[b..]);
        GpuAlloc { gpus: out }
    }

    /// GPUs in `self` but not in `other` (sorted merge).
    pub fn difference(&self, other: &GpuAlloc) -> GpuAlloc {
        let mut out = Vec::with_capacity(self.gpus.len());
        let mut b = 0;
        for &gpu in &self.gpus {
            while b < other.gpus.len() && other.gpus[b] < gpu {
                b += 1;
            }
            if b >= other.gpus.len() || other.gpus[b] != gpu {
                out.push(gpu);
            }
        }
        GpuAlloc { gpus: out }
    }

    /// GPUs present in both allocations (sorted merge).
    pub fn intersection(&self, other: &GpuAlloc) -> GpuAlloc {
        let mut out = Vec::new();
        let (mut a, mut b) = (0, 0);
        while a < self.gpus.len() && b < other.gpus.len() {
            match self.gpus[a].cmp(&other.gpus[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.gpus[a]);
                    a += 1;
                    b += 1;
                }
            }
        }
        GpuAlloc { gpus: out }
    }

    /// `true` if the two allocations share no GPU.
    pub fn is_disjoint(&self, other: &GpuAlloc) -> bool {
        let (mut a, mut b) = (0, 0);
        while a < self.gpus.len() && b < other.gpus.len() {
            match self.gpus[a].cmp(&other.gpus[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// The allocation as a [`DenseBitSet`] over the cluster's GPU universe.
    pub fn to_bitset(&self, universe: usize) -> DenseBitSet {
        let mut set = DenseBitSet::with_universe(universe);
        for gpu in &self.gpus {
            set.insert(gpu.index());
        }
        set
    }

    /// Per-machine GPU counts for this allocation.
    ///
    /// GPU ids are machine-contiguous (builder-assigned), so the sorted
    /// vector groups by machine in one pass with ascending-key insertion.
    pub fn per_machine(&self, spec: &ClusterSpec) -> BTreeMap<MachineId, usize> {
        let mut counts = BTreeMap::new();
        let mut run: Option<(MachineId, usize)> = None;
        for &gpu in &self.gpus {
            let Some(machine) = spec.machine_of(gpu) else {
                continue;
            };
            match run {
                Some((m, ref mut c)) if m == machine => *c += 1,
                _ => {
                    if let Some((m, c)) = run.take() {
                        *counts.entry(m).or_insert(0) += c;
                    }
                    run = Some((machine, 1));
                }
            }
        }
        if let Some((m, c)) = run {
            *counts.entry(m).or_insert(0) += c;
        }
        counts
    }

    /// The set of distinct machines spanned by this allocation.
    pub fn machines(&self, spec: &ClusterSpec) -> BTreeSet<MachineId> {
        self.gpus
            .iter()
            .filter_map(|g| spec.machine_of(*g))
            .collect()
    }
}

impl FromIterator<GpuId> for GpuAlloc {
    fn from_iter<T: IntoIterator<Item = GpuId>>(iter: T) -> Self {
        GpuAlloc::from_gpus(iter)
    }
}

impl IntoIterator for GpuAlloc {
    type Item = GpuId;
    type IntoIter = std::vec::IntoIter<GpuId>;
    fn into_iter(self) -> Self::IntoIter {
        self.gpus.into_iter()
    }
}

/// Per-machine counts of free GPUs: the resource offer `R` auctioned by the
/// Arbiter.
///
/// Stored as a dense vector indexed by machine id with a cached total, so
/// `on_machine` and `total` are O(1) and arithmetic is a flat-array walk.
/// Trailing zero counts are trimmed after every mutation, which keeps the
/// derived equality identical to the sparse representation's ("machines
/// with zero free GPUs are omitted").
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FreeVector {
    counts: Vec<u32>,
    total: usize,
}

impl FreeVector {
    /// An empty offer.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a free vector from `(machine, count)` pairs, dropping zeros.
    /// Pairs for the same machine accumulate.
    pub fn from_counts(counts: impl IntoIterator<Item = (MachineId, usize)>) -> Self {
        let mut out = FreeVector::empty();
        for (machine, count) in counts {
            if count > 0 {
                let current = out.on_machine(machine);
                out.set(machine, current + count);
            }
        }
        out
    }

    /// Builds a free vector describing a concrete *set* of free GPUs:
    /// duplicate ids count once, exactly as with the previous
    /// `GpuAlloc`-backed implementation.
    pub fn from_gpus(gpus: impl IntoIterator<Item = GpuId>, spec: &ClusterSpec) -> Self {
        let alloc = GpuAlloc::from_gpus(gpus);
        let mut out = FreeVector::empty();
        for gpu in alloc.iter() {
            if let Some(machine) = spec.machine_of(gpu) {
                let current = out.on_machine(machine);
                out.set(machine, current + 1);
            }
        }
        out
    }

    /// Total number of free GPUs in the offer.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `true` if the offer contains no GPUs.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Removes every count (keeps the backing storage for reuse).
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// Free GPUs on one machine (0 if the machine is not in the offer).
    pub fn on_machine(&self, machine: MachineId) -> usize {
        self.counts
            .get(machine.index())
            .map(|c| *c as usize)
            .unwrap_or(0)
    }

    /// Iterates over `(machine, free GPU count)` pairs in machine order.
    pub fn iter(&self) -> impl Iterator<Item = (MachineId, usize)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(m, c)| (MachineId(m as u32), *c as usize))
    }

    /// Machines that have at least one free GPU.
    pub fn machines(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.iter().map(|(m, _)| m)
    }

    /// Sets the count for a machine (removing it when zero).
    pub fn set(&mut self, machine: MachineId, count: usize) {
        let idx = machine.index();
        if idx >= self.counts.len() {
            if count == 0 {
                return;
            }
            self.counts.resize(idx + 1, 0);
        }
        self.total = self.total - self.counts[idx] as usize + count;
        self.counts[idx] = count as u32;
        if count == 0 {
            while self.counts.last() == Some(&0) {
                self.counts.pop();
            }
        }
    }

    /// Adds another free vector into `self` in place.
    pub fn add_assign(&mut self, other: &FreeVector) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (idx, count) in other.counts.iter().enumerate() {
            self.counts[idx] += count;
        }
        self.total += other.total;
    }

    /// Subtracts another free vector (saturating at zero per machine).
    /// Used to remove already-won resources from a running offer.
    pub fn saturating_sub(&self, other: &FreeVector) -> FreeVector {
        let mut out = self.clone();
        for (idx, count) in other.counts.iter().enumerate() {
            if let Some(mine) = out.counts.get_mut(idx) {
                let taken = (*mine).min(*count);
                *mine -= taken;
                out.total -= taken as usize;
            }
        }
        while out.counts.last() == Some(&0) {
            out.counts.pop();
        }
        out
    }

    /// Adds another free vector.
    pub fn add(&self, other: &FreeVector) -> FreeVector {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// `true` if `other` fits inside this offer (per machine).
    pub fn contains_vector(&self, other: &FreeVector) -> bool {
        if other.total > self.total {
            return false;
        }
        other
            .counts
            .iter()
            .enumerate()
            .all(|(idx, count)| *count == 0 || self.counts.get(idx).is_some_and(|c| c >= count))
    }

    /// Scales every machine count by `factor`, rounding down.
    /// Used by the partial-allocation mechanism's hidden payment (§5.1).
    pub fn scale_floor(&self, factor: f64) -> FreeVector {
        assert!(
            (0.0..=1.0).contains(&factor),
            "scale factor must be in [0,1]"
        );
        FreeVector::from_counts(
            self.iter()
                .map(|(m, c)| (m, ((c as f64) * factor).floor() as usize)),
        )
    }
}

impl FromIterator<(MachineId, usize)> for FreeVector {
    fn from_iter<T: IntoIterator<Item = (MachineId, usize)>>(iter: T) -> Self {
        FreeVector::from_counts(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        // 2 machines with 4 GPUs, 1 machine with 2 GPUs.
        ClusterSpec::builder()
            .rack(|r| r.machines(2, 4))
            .rack(|r| r.machines(1, 2))
            .build()
    }

    #[test]
    fn gpu_alloc_set_operations() {
        let a = GpuAlloc::from_gpus([GpuId(0), GpuId(1), GpuId(2)]);
        let b = GpuAlloc::from_gpus([GpuId(2), GpuId(3)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.difference(&b).len(), 2);
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn gpu_alloc_orders_and_dedups() {
        let a = GpuAlloc::from_gpus([GpuId(3), GpuId(0), GpuId(3), GpuId(1)]);
        let collected: Vec<GpuId> = a.iter().collect();
        assert_eq!(collected, vec![GpuId(0), GpuId(1), GpuId(3)]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.as_slice(), &[GpuId(0), GpuId(1), GpuId(3)]);
    }

    #[test]
    fn gpu_alloc_per_machine() {
        let spec = spec();
        let alloc = GpuAlloc::from_gpus([GpuId(0), GpuId(1), GpuId(4), GpuId(8)]);
        let per = alloc.per_machine(&spec);
        assert_eq!(per.get(&MachineId(0)), Some(&2));
        assert_eq!(per.get(&MachineId(1)), Some(&1));
        assert_eq!(per.get(&MachineId(2)), Some(&1));
        assert_eq!(alloc.machines(&spec).len(), 3);
    }

    #[test]
    fn gpu_alloc_insert_remove() {
        let mut alloc = GpuAlloc::empty();
        assert!(alloc.insert(GpuId(5)));
        assert!(!alloc.insert(GpuId(5)));
        assert!(alloc.contains(GpuId(5)));
        assert!(alloc.remove(GpuId(5)));
        assert!(!alloc.remove(GpuId(5)));
        assert!(alloc.is_empty());
    }

    #[test]
    fn dense_bitset_roundtrips() {
        let mut set = DenseBitSet::with_universe(70);
        assert!(set.insert(0));
        assert!(set.insert(69));
        assert!(set.insert(130), "grows past the initial universe");
        assert!(!set.insert(69));
        assert!(set.contains(69));
        assert!(!set.contains(1));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 69, 130]);
        assert_eq!(set.len(), 3);
        assert!(set.remove(69));
        assert!(!set.remove(69));
        assert!(!set.remove(4096), "out of universe is a no-op");
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        let from_alloc = GpuAlloc::from_gpus([GpuId(2), GpuId(64)]).to_bitset(66);
        assert!(from_alloc.contains(2) && from_alloc.contains(64));
    }

    #[test]
    fn dense_bitset_equality_ignores_universe_size() {
        // Different universes, same (empty) contents.
        assert_eq!(
            DenseBitSet::with_universe(64),
            DenseBitSet::with_universe(256)
        );
        let mut a = DenseBitSet::with_universe(64);
        let mut b = DenseBitSet::with_universe(512);
        a.insert(3);
        b.insert(3);
        assert_eq!(a, b);
        // Growth followed by removal leaves trailing zero words behind;
        // still equal to a set that never grew.
        b.insert(400);
        assert_ne!(a, b);
        b.remove(400);
        assert_eq!(a, b);
    }

    #[test]
    fn free_vector_totals_and_lookup() {
        let fv = FreeVector::from_counts([(MachineId(0), 3), (MachineId(2), 1), (MachineId(5), 0)]);
        assert_eq!(fv.total(), 4);
        assert_eq!(fv.on_machine(MachineId(0)), 3);
        assert_eq!(fv.on_machine(MachineId(5)), 0);
        assert_eq!(fv.machines().count(), 2);
    }

    #[test]
    fn free_vector_equality_ignores_zero_machines() {
        let a = FreeVector::from_counts([(MachineId(1), 2)]);
        let mut b = FreeVector::from_counts([(MachineId(1), 2), (MachineId(7), 3)]);
        b.set(MachineId(7), 0);
        assert_eq!(a, b, "trailing zeros must not affect equality");
        let mut c = FreeVector::from_counts([(MachineId(0), 1), (MachineId(1), 2)]);
        c.set(MachineId(0), 0);
        assert_eq!(a, c, "interior zeros equal the sparse form");
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(MachineId(1), 2)]);
    }

    #[test]
    fn free_vector_from_gpus() {
        let spec = spec();
        let fv = FreeVector::from_gpus([GpuId(0), GpuId(1), GpuId(9)], &spec);
        assert_eq!(fv.on_machine(MachineId(0)), 2);
        assert_eq!(fv.on_machine(MachineId(2)), 1);
    }

    #[test]
    fn free_vector_arithmetic() {
        let a = FreeVector::from_counts([(MachineId(0), 3), (MachineId(1), 2)]);
        let b = FreeVector::from_counts([(MachineId(0), 1), (MachineId(1), 5)]);
        let diff = a.saturating_sub(&b);
        assert_eq!(diff.on_machine(MachineId(0)), 2);
        assert_eq!(diff.on_machine(MachineId(1)), 0);
        assert_eq!(diff.total(), 2);
        let sum = a.add(&b);
        assert_eq!(sum.on_machine(MachineId(1)), 7);
        assert_eq!(sum.total(), 11);
        assert!(a.contains_vector(&FreeVector::from_counts([(MachineId(0), 3)])));
        assert!(!a.contains_vector(&b));
        let mut acc = a.clone();
        acc.add_assign(&b);
        assert_eq!(acc, sum);
        acc.clear();
        assert!(acc.is_empty());
    }

    #[test]
    fn free_vector_scale_floor() {
        let a = FreeVector::from_counts([(MachineId(0), 4), (MachineId(1), 3)]);
        let half = a.scale_floor(0.5);
        assert_eq!(half.on_machine(MachineId(0)), 2);
        assert_eq!(half.on_machine(MachineId(1)), 1);
        assert_eq!(a.scale_floor(1.0), a);
        assert!(a.scale_floor(0.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_floor_rejects_out_of_range() {
        let a = FreeVector::from_counts([(MachineId(0), 4)]);
        let _ = a.scale_floor(1.5);
    }
}
