//! Mutable cluster state: which GPU is held by which job under which lease.
//!
//! Allocation state is a dense arena: a `Vec<Option<Assignment>>` indexed
//! by GPU id (GPU ids are dense, builder-assigned), with an incrementally
//! maintained per-machine free-count vector and a sorted per-app GPU index.
//! Every query the schedulers ask per auction round — the free vector, an
//! app's allocation, a job's allocation — is answered from those indices
//! without walking an ordered tree, and all iteration orders remain
//! ascending-by-id so scheduling decisions are identical to the previous
//! `BTreeMap`-backed representation.

use crate::alloc::{DenseBitSet, FreeVector, GpuAlloc};
use crate::error::ClusterError;
use crate::ids::{AppId, GpuId, JobId, MachineId};
use crate::lease::{Lease, LeaseTable};
use crate::placement::{spread, Locality, PlacementScorer};
use crate::time::Time;
use crate::topology::ClusterSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The owner of an allocated GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// App holding the GPU.
    pub app: AppId,
    /// Job (within the app) the GPU is assigned to.
    pub job: JobId,
}

/// Reusable buffers for [`Cluster::for_each_job_of_app`]. Keep one per
/// long-lived caller; its contents between calls are unspecified.
#[derive(Debug, Clone, Default)]
pub struct JobHoldings {
    pairs: Vec<(JobId, GpuId)>,
    alloc: GpuAlloc,
}

/// One app's entry in the per-app index.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct AppGpus {
    /// The app's GPUs, ascending.
    gpus: Vec<GpuId>,
    /// Bumped by every change to `gpus` (see [`Cluster::allocation_epoch`]).
    epoch: u64,
}

/// Mutable cluster state built on top of an immutable [`ClusterSpec`].
///
/// Tracks per-GPU assignment and leases, and answers the queries the
/// schedulers need: the free-resource vector, an app's current allocation,
/// and placement scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cluster {
    spec: ClusterSpec,
    /// Dense assignment arena, indexed by GPU id.
    assignments: Vec<Option<Assignment>>,
    /// Free GPUs per machine, maintained incrementally (machine-indexed).
    free_per_machine: Vec<u32>,
    /// One bit per GPU, set while the GPU is free (maintained alongside
    /// the arena; `ClusterView` seeds its shadow with a plain clone).
    free_mask: DenseBitSet,
    /// Number of allocated GPUs.
    allocated: usize,
    /// Per-app GPU index (app-id indexed; empty for idle/unknown apps).
    per_app: Vec<AppGpus>,
    leases: LeaseTable,
    scorer: PlacementScorer,
}

impl Cluster {
    /// Creates a fully-idle cluster from a specification.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_scorer(spec, PlacementScorer::default())
    }

    /// Creates a cluster with a custom placement scorer.
    pub fn with_scorer(spec: ClusterSpec, scorer: PlacementScorer) -> Self {
        let assignments = vec![None; spec.total_gpus()];
        let free_per_machine = spec
            .machines()
            .iter()
            .map(|m| m.num_gpus() as u32)
            .collect();
        let mut free_mask = DenseBitSet::with_universe(spec.total_gpus());
        for idx in 0..spec.total_gpus() {
            free_mask.insert(idx);
        }
        Cluster {
            spec,
            assignments,
            free_per_machine,
            free_mask,
            allocated: 0,
            per_app: Vec::new(),
            leases: LeaseTable::new(),
            scorer,
        }
    }

    /// The immutable topology.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The placement scorer used for this cluster.
    pub fn scorer(&self) -> &PlacementScorer {
        &self.scorer
    }

    /// The lease table.
    pub fn leases(&self) -> &LeaseTable {
        &self.leases
    }

    /// Total number of GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.spec.total_gpus()
    }

    /// Number of GPUs currently allocated.
    pub fn allocated_gpus(&self) -> usize {
        self.allocated
    }

    /// Number of GPUs currently free. O(1).
    pub fn free_gpu_count(&self) -> usize {
        self.total_gpus() - self.allocated
    }

    /// The incrementally maintained per-machine free counts
    /// (machine-indexed). Crate-internal: `ClusterView` seeds its shadow
    /// counts from this with a single copy.
    pub(crate) fn free_counts(&self) -> &[u32] {
        &self.free_per_machine
    }

    /// The maintained free-GPU bitmask. Crate-internal: `ClusterView`
    /// seeds its shadow mask with a single clone.
    pub(crate) fn free_mask(&self) -> &DenseBitSet {
        &self.free_mask
    }

    /// Fraction of GPUs currently allocated, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_gpus() == 0 {
            0.0
        } else {
            self.allocated_gpus() as f64 / self.total_gpus() as f64
        }
    }

    /// The assignment holding a GPU, if it is allocated.
    pub fn assignment(&self, gpu: GpuId) -> Option<Assignment> {
        self.assignments.get(gpu.index()).copied().flatten()
    }

    /// Whether a GPU exists in the topology and is currently free.
    pub fn is_free(&self, gpu: GpuId) -> bool {
        matches!(self.assignments.get(gpu.index()), Some(None))
    }

    /// All currently free GPUs, in id order (a word-skipping walk over
    /// the maintained free bitmask).
    pub fn free_gpus(&self) -> Vec<GpuId> {
        let mut out = Vec::with_capacity(self.free_gpu_count());
        out.extend(self.free_mask.iter().map(|idx| GpuId(idx as u32)));
        out
    }

    /// Free GPUs on a specific machine, in id order.
    pub fn free_gpus_on(&self, machine: MachineId) -> Vec<GpuId> {
        match self.spec.machine(machine) {
            Some(m) => m
                .gpus
                .iter()
                .copied()
                .filter(|g| self.is_free(*g))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The per-machine free-GPU vector (the auction offer `R`). O(machines).
    pub fn free_vector(&self) -> FreeVector {
        FreeVector::from_counts(
            self.free_per_machine
                .iter()
                .enumerate()
                .map(|(m, c)| (MachineId(m as u32), *c as usize)),
        )
    }

    fn app_gpus(&self, app: AppId) -> &[GpuId] {
        self.per_app
            .get(app.index())
            .map_or(&[], |entry| entry.gpus.as_slice())
    }

    /// A counter that moves whenever an app's GPU set changes: every
    /// allocate, release and lease reclaim that touches the app bumps it. On
    /// one cluster, an unchanged epoch means unchanged holdings, so a caller
    /// may cache anything derived from them (job grouping, locality, speed)
    /// against it. Epochs of different clusters are unrelated: a cache must
    /// not be carried from one cluster to another. Zero for an app that never
    /// held a GPU.
    pub fn allocation_epoch(&self, app: AppId) -> u64 {
        self.per_app.get(app.index()).map_or(0, |entry| entry.epoch)
    }

    /// All GPUs currently held by an app.
    pub fn gpus_of_app(&self, app: AppId) -> GpuAlloc {
        GpuAlloc::from_sorted(self.app_gpus(app).to_vec())
    }

    /// Number of GPUs currently held by an app. O(1).
    pub fn gpus_held_by(&self, app: AppId) -> usize {
        self.app_gpus(app).len()
    }

    /// `(machine, GPUs held)` for every machine an app holds GPUs on, in
    /// ascending machine order — the pairs of
    /// `gpus_of_app(app).per_machine(spec)` without the `GpuAlloc` or the
    /// map. GPU ids are machine-contiguous, so every machine is one run of
    /// the app's sorted GPU index.
    pub fn machine_counts_of_app(
        &self,
        app: AppId,
    ) -> impl Iterator<Item = (MachineId, usize)> + '_ {
        let machine_of = |gpu: &GpuId| self.spec.machine_of(*gpu).expect("held gpu exists");
        self.app_gpus(app)
            .chunk_by(move |a, b| machine_of(a) == machine_of(b))
            .map(move |run| (machine_of(&run[0]), run.len()))
    }

    /// All GPUs currently held by an app, grouped by job.
    pub fn jobs_of_app(&self, app: AppId) -> BTreeMap<JobId, GpuAlloc> {
        let mut by_job = BTreeMap::new();
        self.for_each_job_of_app(app, &mut JobHoldings::default(), |job, alloc| {
            by_job.insert(job, alloc.clone());
        });
        by_job
    }

    /// Calls `f(job, gpus)` once for every job of `app` that holds GPUs, in
    /// ascending job-id order (the order [`Cluster::jobs_of_app`] iterates
    /// in). One pass over the app's GPU index through the caller's reusable
    /// `scratch`, so a warm call allocates nothing — prefer this over
    /// [`Cluster::jobs_of_app`] or a [`Cluster::gpus_of_job`] loop anywhere
    /// that runs every scheduling round.
    pub fn for_each_job_of_app(
        &self,
        app: AppId,
        scratch: &mut JobHoldings,
        mut f: impl FnMut(JobId, &GpuAlloc),
    ) {
        let JobHoldings { pairs, alloc } = scratch;
        pairs.clear();
        pairs.extend(self.app_gpus(app).iter().map(|&gpu| {
            let assignment = self.assignments[gpu.index()].expect("indexed gpu is assigned");
            (assignment.job, gpu)
        }));
        // Keys are unique, so the unstable sort is deterministic; each
        // job's GPUs stay ascending.
        pairs.sort_unstable();
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            alloc.refill_sorted(run.iter().map(|(_, gpu)| *gpu));
            f(run[0].0, alloc);
        }
    }

    /// All GPUs currently held by a specific job.
    pub fn gpus_of_job(&self, app: AppId, job: JobId) -> GpuAlloc {
        GpuAlloc::from_sorted(
            self.app_gpus(app)
                .iter()
                .copied()
                .filter(|g| {
                    self.assignments[g.index()]
                        .expect("indexed gpu is assigned")
                        .job
                        == job
                })
                .collect(),
        )
    }

    /// Apps that currently hold at least one GPU, with their GPU counts.
    pub fn apps_with_gpus(&self) -> BTreeMap<AppId, usize> {
        self.per_app
            .iter()
            .enumerate()
            .filter(|(_, entry)| !entry.gpus.is_empty())
            .map(|(app, entry)| (AppId(app as u32), entry.gpus.len()))
            .collect()
    }

    /// Records an assignment in the arena and every derived index.
    fn index_assignment(&mut self, gpu: GpuId, assignment: Assignment) {
        self.assignments[gpu.index()] = Some(assignment);
        self.free_mask.remove(gpu.index());
        self.allocated += 1;
        let machine = self.spec.machine_of(gpu).expect("gpu exists").index();
        self.free_per_machine[machine] -= 1;
        let app_idx = assignment.app.index();
        if app_idx >= self.per_app.len() {
            self.per_app.resize_with(app_idx + 1, AppGpus::default);
        }
        let entry = &mut self.per_app[app_idx];
        entry.epoch += 1;
        match entry.gpus.binary_search(&gpu) {
            Ok(_) => unreachable!("gpu was free, cannot already be indexed"),
            Err(pos) => entry.gpus.insert(pos, gpu),
        }
    }

    /// Clears an assignment from the arena and every derived index.
    /// Returns the previous assignment, if any.
    fn clear_assignment(&mut self, gpu: GpuId) -> Option<Assignment> {
        let slot = self.assignments.get_mut(gpu.index())?;
        let assignment = slot.take()?;
        self.free_mask.insert(gpu.index());
        self.allocated -= 1;
        let machine = self.spec.machine_of(gpu).expect("gpu exists").index();
        self.free_per_machine[machine] += 1;
        let entry = &mut self.per_app[assignment.app.index()];
        entry.epoch += 1;
        let pos = entry
            .gpus
            .binary_search(&gpu)
            .expect("assigned gpu is indexed");
        entry.gpus.remove(pos);
        Some(assignment)
    }

    /// Allocates a single GPU to `(app, job)` under a lease expiring at
    /// `expires_at`.
    pub fn allocate(
        &mut self,
        gpu: GpuId,
        app: AppId,
        job: JobId,
        now: Time,
        expires_at: Time,
    ) -> Result<(), ClusterError> {
        match self.assignments.get(gpu.index()) {
            None => return Err(ClusterError::UnknownGpu { gpu }),
            Some(Some(existing)) => {
                return Err(ClusterError::GpuBusy {
                    gpu,
                    held_by: existing.app,
                })
            }
            Some(None) => {}
        }
        self.index_assignment(gpu, Assignment { app, job });
        self.leases.grant(Lease {
            gpu,
            app,
            job,
            granted_at: now,
            expires_at,
        });
        Ok(())
    }

    /// Allocates `count` free GPUs on a specific machine to `(app, job)`.
    /// GPUs are chosen in id order (slot-contiguous), which packs them as
    /// tightly as the machine allows.
    pub fn allocate_on_machine(
        &mut self,
        machine: MachineId,
        count: usize,
        app: AppId,
        job: JobId,
        now: Time,
        expires_at: Time,
    ) -> Result<Vec<GpuId>, ClusterError> {
        if self.spec.machine(machine).is_none() {
            return Err(ClusterError::UnknownMachine { machine });
        }
        let free = self.free_gpus_on(machine);
        if free.len() < count {
            return Err(ClusterError::InsufficientCapacity {
                machine,
                requested: count,
                available: free.len(),
            });
        }
        let chosen: Vec<GpuId> = free.into_iter().take(count).collect();
        for gpu in &chosen {
            self.allocate(*gpu, app, job, now, expires_at)?;
        }
        Ok(chosen)
    }

    /// Releases a GPU (revoking its lease). Errors if the GPU is not
    /// allocated.
    pub fn release(&mut self, gpu: GpuId) -> Result<Assignment, ClusterError> {
        match self.clear_assignment(gpu) {
            Some(assignment) => {
                self.leases.revoke(gpu);
                Ok(assignment)
            }
            None => Err(ClusterError::GpuNotAllocated { gpu }),
        }
    }

    /// Releases every GPU held by an app, returning the freed GPUs.
    pub fn release_app(&mut self, app: AppId) -> Vec<GpuId> {
        let gpus: Vec<GpuId> = self.app_gpus(app).to_vec();
        for gpu in &gpus {
            let _ = self.release(*gpu);
        }
        gpus
    }

    /// Releases every GPU held by a specific job, returning the freed GPUs.
    pub fn release_job(&mut self, app: AppId, job: JobId) -> Vec<GpuId> {
        let gpus: Vec<GpuId> = self
            .app_gpus(app)
            .iter()
            .copied()
            .filter(|g| self.assignment(*g).is_some_and(|a| a.job == job))
            .collect();
        for gpu in &gpus {
            let _ = self.release(*gpu);
        }
        gpus
    }

    /// Releases every GPU of `app` whose job satisfies `done`, returning
    /// how many were freed. One allocation-free pass over the app's GPU
    /// index, whatever the number of jobs.
    pub fn release_jobs_where(&mut self, app: AppId, mut done: impl FnMut(JobId) -> bool) -> usize {
        let mut freed = 0;
        // Back to front: releasing entry `i` shifts only the entries after
        // it, which have been visited already.
        let mut i = self.app_gpus(app).len();
        while i > 0 {
            i -= 1;
            let gpu = self.per_app[app.index()].gpus[i];
            let job = self.assignments[gpu.index()]
                .expect("indexed gpu is assigned")
                .job;
            if done(job) {
                let _ = self.release(gpu);
                freed += 1;
            }
        }
        freed
    }

    /// Reclaims all leases that have expired at or before `now`, releasing
    /// the corresponding GPUs. Returns the reclaimed leases.
    pub fn reclaim_expired_leases(&mut self, now: Time) -> Vec<Lease> {
        let expired = self.leases.reclaim_expired(now);
        for lease in &expired {
            self.clear_assignment(lease.gpu);
        }
        expired
    }

    /// Extends the lease of every GPU held by an app to `new_expiry`.
    /// Returns the number of leases extended.
    pub fn extend_app_leases(&mut self, app: AppId, new_expiry: Time) -> usize {
        let gpus: Vec<GpuId> = self.app_gpus(app).to_vec();
        gpus.into_iter()
            .filter(|g| self.leases.extend(*g, new_expiry))
            .count()
    }

    /// The earliest lease expiry across the cluster, if any GPU is leased.
    pub fn next_lease_expiry(&self) -> Option<Time> {
        self.leases.next_expiry()
    }

    /// The placement locality of a job's current allocation.
    pub fn job_locality(&self, app: AppId, job: JobId) -> Locality {
        spread(&self.gpus_of_job(app, job), &self.spec)
    }

    /// The placement score of a job's current allocation (1.0 = tightly
    /// packed).
    pub fn job_placement_score(&self, app: AppId, job: JobId) -> f64 {
        self.scorer.score(&self.gpus_of_job(app, job), &self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::builder().rack(|r| r.machines(2, 4)).build())
    }

    #[test]
    fn fresh_cluster_is_idle() {
        let c = cluster();
        assert_eq!(c.total_gpus(), 8);
        assert_eq!(c.allocated_gpus(), 0);
        assert_eq!(c.free_gpu_count(), 8);
        assert_eq!(c.utilization(), 0.0);
        assert_eq!(c.free_vector().total(), 8);
    }

    #[test]
    fn allocate_and_release() {
        let mut c = cluster();
        c.allocate(
            GpuId(0),
            AppId(1),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        assert_eq!(c.allocated_gpus(), 1);
        assert_eq!(c.free_gpu_count(), 7);
        assert_eq!(c.assignment(GpuId(0)).unwrap().app, AppId(1));
        assert!(!c.is_free(GpuId(0)));
        assert!(c.is_free(GpuId(1)));
        assert!(!c.is_free(GpuId(99)), "unknown gpu is not free");
        assert_eq!(c.free_vector().on_machine(MachineId(0)), 3);
        assert_eq!(c.gpus_held_by(AppId(1)), 1);

        // Double allocation fails.
        let err = c
            .allocate(
                GpuId(0),
                AppId(2),
                JobId(0),
                Time::ZERO,
                Time::minutes(20.0),
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::GpuBusy { .. }));

        let assignment = c.release(GpuId(0)).unwrap();
        assert_eq!(assignment.app, AppId(1));
        assert!(c.release(GpuId(0)).is_err());
        assert_eq!(c.gpus_held_by(AppId(1)), 0);
    }

    #[test]
    fn machine_counts_of_app_are_the_per_machine_map() {
        let mut c = cluster();
        for gpu in [0, 1, 5, 7] {
            c.allocate(
                GpuId(gpu),
                AppId(1),
                JobId(gpu % 2),
                Time::ZERO,
                Time::minutes(20.0),
            )
            .unwrap();
        }
        let counts: Vec<(MachineId, usize)> = c.machine_counts_of_app(AppId(1)).collect();
        assert_eq!(counts, vec![(MachineId(0), 2), (MachineId(1), 2)]);
        let map = c.gpus_of_app(AppId(1)).per_machine(c.spec());
        assert_eq!(counts, map.into_iter().collect::<Vec<_>>());
        assert_eq!(c.machine_counts_of_app(AppId(9)).count(), 0);
    }

    #[test]
    fn allocate_unknown_gpu_fails() {
        let mut c = cluster();
        let err = c
            .allocate(
                GpuId(99),
                AppId(1),
                JobId(0),
                Time::ZERO,
                Time::minutes(20.0),
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::UnknownGpu { .. }));
    }

    #[test]
    fn allocate_on_machine_packs_in_order() {
        let mut c = cluster();
        let gpus = c
            .allocate_on_machine(
                MachineId(1),
                3,
                AppId(7),
                JobId(2),
                Time::ZERO,
                Time::minutes(20.0),
            )
            .unwrap();
        assert_eq!(gpus, vec![GpuId(4), GpuId(5), GpuId(6)]);
        assert_eq!(c.gpus_of_job(AppId(7), JobId(2)).len(), 3);
        // Requesting more than available fails.
        let err = c
            .allocate_on_machine(
                MachineId(1),
                2,
                AppId(7),
                JobId(2),
                Time::ZERO,
                Time::minutes(20.0),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ClusterError::InsufficientCapacity { available: 1, .. }
        ));
    }

    #[test]
    fn lease_expiry_reclaims_gpus() {
        let mut c = cluster();
        c.allocate(
            GpuId(0),
            AppId(1),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        c.allocate(
            GpuId(1),
            AppId(1),
            JobId(0),
            Time::ZERO,
            Time::minutes(40.0),
        )
        .unwrap();
        assert_eq!(c.next_lease_expiry(), Some(Time::minutes(20.0)));
        let reclaimed = c.reclaim_expired_leases(Time::minutes(25.0));
        assert_eq!(reclaimed.len(), 1);
        assert_eq!(reclaimed[0].gpu, GpuId(0));
        assert_eq!(c.allocated_gpus(), 1);
        assert_eq!(c.gpus_held_by(AppId(1)), 1);
    }

    #[test]
    fn release_app_and_job() {
        let mut c = cluster();
        for (gpu, job) in [(0u32, 0u32), (1, 0), (2, 1)] {
            c.allocate(
                GpuId(gpu),
                AppId(1),
                JobId(job),
                Time::ZERO,
                Time::minutes(20.0),
            )
            .unwrap();
        }
        c.allocate(
            GpuId(3),
            AppId(2),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        assert_eq!(c.gpus_of_app(AppId(1)).len(), 3);
        let by_job = c.jobs_of_app(AppId(1));
        assert_eq!(by_job[&JobId(0)].len(), 2);
        assert_eq!(by_job[&JobId(1)].len(), 1);
        let freed = c.release_job(AppId(1), JobId(0));
        assert_eq!(freed, vec![GpuId(0), GpuId(1)]);
        let freed = c.release_app(AppId(1));
        assert_eq!(freed, vec![GpuId(2)]);
        assert_eq!(c.gpus_of_app(AppId(2)).len(), 1);
    }

    #[test]
    fn job_grouping_and_conditional_release() {
        let mut c = cluster();
        // Jobs interleave in GPU order: job 1 holds {0, 3}, job 0 holds {1, 2}.
        for (gpu, job) in [(0u32, 1u32), (1, 0), (2, 0), (3, 1), (5, 4)] {
            c.allocate(
                GpuId(gpu),
                AppId(2),
                JobId(job),
                Time::ZERO,
                Time::minutes(20.0),
            )
            .unwrap();
        }
        let mut scratch = JobHoldings::default();
        let mut seen = Vec::new();
        for _ in 0..2 {
            seen.clear();
            c.for_each_job_of_app(AppId(2), &mut scratch, |job, alloc| {
                seen.push((job, alloc.as_slice().to_vec()));
            });
        }
        assert_eq!(
            seen,
            vec![
                (JobId(0), vec![GpuId(1), GpuId(2)]),
                (JobId(1), vec![GpuId(0), GpuId(3)]),
                (JobId(4), vec![GpuId(5)]),
            ]
        );
        let by_job = c.jobs_of_app(AppId(2));
        assert_eq!(by_job.len(), 3);
        assert_eq!(by_job[&JobId(1)].as_slice(), &[GpuId(0), GpuId(3)]);
        c.for_each_job_of_app(AppId(9), &mut scratch, |_, _| panic!("app 9 holds nothing"));

        assert_eq!(c.release_jobs_where(AppId(2), |job| job != JobId(0)), 3);
        assert_eq!(c.gpus_of_app(AppId(2)).as_slice(), &[GpuId(1), GpuId(2)]);
        assert!(c.leases().lease(GpuId(3)).is_none());
        assert_eq!(c.free_gpu_count(), 6);
        assert_eq!(c.release_jobs_where(AppId(9), |_| true), 0);
    }

    #[test]
    fn allocation_epoch_moves_with_every_change_to_the_app() {
        let mut c = cluster();
        let lease = |c: &mut Cluster, gpu: u32, app: u32, until: f64| {
            c.allocate(
                GpuId(gpu),
                AppId(app),
                JobId(0),
                Time::ZERO,
                Time::minutes(until),
            )
            .unwrap();
        };
        assert_eq!(c.allocation_epoch(AppId(1)), 0);
        assert_eq!(c.allocation_epoch(AppId(99)), 0, "unknown app");
        let mut seen = vec![0];
        let moved = |c: &Cluster, seen: &mut Vec<u64>| {
            let epoch = c.allocation_epoch(AppId(1));
            assert!(!seen.contains(&epoch), "epoch {epoch} repeated");
            seen.push(epoch);
        };
        lease(&mut c, 0, 1, 20.0);
        moved(&c, &mut seen);
        lease(&mut c, 1, 1, 40.0);
        moved(&c, &mut seen);
        // Another app's changes and lease extensions leave it alone.
        lease(&mut c, 2, 2, 20.0);
        c.release(GpuId(2)).unwrap();
        assert_eq!(c.allocation_epoch(AppId(1)), *seen.last().unwrap());
        c.reclaim_expired_leases(Time::minutes(25.0));
        moved(&c, &mut seen);
        c.extend_app_leases(AppId(1), Time::minutes(60.0));
        assert_eq!(c.allocation_epoch(AppId(1)), *seen.last().unwrap());
        c.release_jobs_where(AppId(1), |_| true);
        moved(&c, &mut seen);
        assert_eq!(c.gpus_held_by(AppId(1)), 0);
    }

    #[test]
    fn extend_app_leases() {
        let mut c = cluster();
        c.allocate(
            GpuId(0),
            AppId(1),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        c.allocate(
            GpuId(1),
            AppId(1),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        assert_eq!(c.extend_app_leases(AppId(1), Time::minutes(60.0)), 2);
        assert_eq!(c.next_lease_expiry(), Some(Time::minutes(60.0)));
    }

    #[test]
    fn placement_queries() {
        let mut c = cluster();
        c.allocate(
            GpuId(0),
            AppId(1),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        c.allocate(
            GpuId(4),
            AppId(1),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        assert_eq!(c.job_locality(AppId(1), JobId(0)), Locality::Rack);
        assert!(c.job_placement_score(AppId(1), JobId(0)) < 1.0);
    }

    #[test]
    fn apps_with_gpus_counts() {
        let mut c = cluster();
        c.allocate(
            GpuId(0),
            AppId(1),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        c.allocate(
            GpuId(1),
            AppId(2),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        c.allocate(
            GpuId(2),
            AppId(2),
            JobId(1),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        let counts = c.apps_with_gpus();
        assert_eq!(counts[&AppId(1)], 1);
        assert_eq!(counts[&AppId(2)], 2);
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn free_counts_stay_consistent_under_churn() {
        let mut c = cluster();
        for gpu in 0..8u32 {
            c.allocate(
                GpuId(gpu),
                AppId(gpu % 3),
                JobId(0),
                Time::ZERO,
                Time::minutes(20.0),
            )
            .unwrap();
        }
        assert_eq!(c.free_gpu_count(), 0);
        assert!(c.free_vector().is_empty());
        c.release_app(AppId(0));
        assert_eq!(c.free_gpu_count(), 3);
        assert_eq!(c.free_gpus(), vec![GpuId(0), GpuId(3), GpuId(6)]);
        assert_eq!(c.free_vector().total(), 3);
        assert_eq!(c.free_gpus_on(MachineId(0)), vec![GpuId(0), GpuId(3)]);
    }
}
