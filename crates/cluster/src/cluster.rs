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
use crate::time::Time;
use crate::topology::ClusterSpec;

/// The owner of an allocated GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// App holding the GPU.
    pub app: AppId,
    /// Job (within the app) the GPU is assigned to.
    pub job: JobId,
}

/// One app's entry in the per-app index.
#[derive(Debug, Clone, Default)]
struct AppGpus {
    /// The app's GPUs, ascending.
    gpus: Vec<GpuId>,
    /// Bumped by every change to `gpus` (see [`Cluster::allocation_epoch`]).
    epoch: u64,
}

/// Mutable cluster state built on top of an immutable [`ClusterSpec`].
///
/// Tracks per-GPU assignment and leases, and answers the queries the
/// schedulers need: the free-resource vector and an app's current
/// allocation.
#[derive(Debug, Clone)]
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
}

impl Cluster {
    /// Creates a fully-idle cluster from a specification.
    pub fn new(spec: ClusterSpec) -> Self {
        let assignments = vec![None; spec.total_gpus()];
        let leases = LeaseTable::with_gpus(spec.total_gpus());
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
            leases,
        }
    }

    /// The immutable topology.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
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

    /// The maintained free-GPU bitmask. Crate-internal: `ClusterView`
    /// seeds its shadow mask with a single clone.
    pub(crate) fn free_mask(&self) -> &DenseBitSet {
        &self.free_mask
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

    /// The app's GPUs, ascending (`ClusterView` chains its overlay on).
    pub(crate) fn app_gpus(&self, app: AppId) -> &[GpuId] {
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

    /// `(gpu, job)` for every GPU an app holds, in ascending GPU order:
    /// the app's GPU index read through the assignment arena, without
    /// allocating. A caller that wants per-job facts folds them in one pass
    /// over this.
    pub fn gpu_jobs_of_app(&self, app: AppId) -> impl Iterator<Item = (GpuId, JobId)> + '_ {
        self.app_gpus(app).iter().map(|&gpu| {
            let assignment = self.assignments[gpu.index()].expect("indexed gpu is assigned");
            (gpu, assignment.job)
        })
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
        assert_eq!(c.leases().next_expiry(), Some(Time::minutes(20.0)));
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
        assert_eq!(c.gpus_of_job(AppId(1), JobId(0)).len(), 2);
        assert_eq!(c.gpus_of_job(AppId(1), JobId(1)).len(), 1);
        assert_eq!(c.release_jobs_where(AppId(1), |job| job == JobId(0)), 2);
        assert_eq!(c.gpus_of_app(AppId(1)).as_slice(), &[GpuId(2)]);
        assert!(c.is_free(GpuId(0)) && c.is_free(GpuId(1)));
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
        let pairs: Vec<(GpuId, JobId)> = c.gpu_jobs_of_app(AppId(2)).collect();
        let expected = [(0, 1), (1, 0), (2, 0), (3, 1), (5, 4)].map(|(g, j)| (GpuId(g), JobId(j)));
        assert_eq!(pairs, expected);
        assert_eq!(
            c.gpus_of_job(AppId(2), JobId(1)).as_slice(),
            &[GpuId(0), GpuId(3)]
        );
        assert_eq!(
            c.gpu_jobs_of_app(AppId(9)).count(),
            0,
            "app 9 holds nothing"
        );

        // Several jobs released in one pass, whatever their GPU order.
        assert_eq!(c.release_jobs_where(AppId(2), |job| job != JobId(0)), 3);
        assert_eq!(c.gpus_of_app(AppId(2)).as_slice(), &[GpuId(1), GpuId(2)]);
        assert!(c.leases().lease(GpuId(3)).is_none());
        assert_eq!(c.leases().len(), 2);
        assert_eq!(c.free_gpu_count(), 6);
        assert_eq!(c.free_vector().on_machine(MachineId(0)), 2);
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
        // Another app's changes leave it alone.
        lease(&mut c, 2, 2, 20.0);
        c.release(GpuId(2)).unwrap();
        assert_eq!(c.allocation_epoch(AppId(1)), *seen.last().unwrap());
        c.reclaim_expired_leases(Time::minutes(25.0));
        moved(&c, &mut seen);
        c.release_jobs_where(AppId(1), |_| true);
        moved(&c, &mut seen);
        assert_eq!(c.gpus_held_by(AppId(1)), 0);
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
