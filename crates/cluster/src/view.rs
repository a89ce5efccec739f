//! Borrowed scheduling views over a [`Cluster`].
//!
//! Every scheduling policy needs a *shadow* of the cluster while it decides
//! a round: it tentatively hands out free GPUs one by one and must see its
//! own in-flight grants reflected in subsequent queries. Policies used to
//! `Cluster::clone()` for this — copying the whole topology, the lease
//! table and every assignment once per round. A [`ClusterView`] replaces
//! that clone: it *borrows* the real cluster and layers a small per-round
//! overlay of tentative grants on top, so creating one costs one flat-array
//! copy (the free bitmask) instead of a deep clone of the cluster.
//!
//! The [`ClusterState`] trait abstracts the read side shared by [`Cluster`]
//! and [`ClusterView`], so placement helpers (`pick_gpus_packed`,
//! `split_among_jobs`, bid preparation) run unchanged against either the
//! committed state or a mid-round shadow.

use crate::alloc::{DenseBitSet, GpuAlloc};
use crate::cluster::{Assignment, Cluster};
use crate::error::ClusterError;
use crate::ids::{AppId, GpuId, JobId, MachineId};
use crate::topology::ClusterSpec;

/// Read access to allocation state, implemented by both the committed
/// [`Cluster`] and the per-round [`ClusterView`] shadow: the queries the
/// generic placement helpers make. Everything else is an inherent method of
/// the type that needs it.
pub trait ClusterState {
    /// The immutable topology.
    fn spec(&self) -> &ClusterSpec;

    /// The assignment holding a GPU, if it is allocated.
    fn assignment(&self, gpu: GpuId) -> Option<Assignment>;

    /// All currently free GPUs, in id order.
    fn free_gpus(&self) -> Vec<GpuId>;

    /// All GPUs held by an app.
    fn gpus_of_app(&self, app: AppId) -> GpuAlloc;

    /// Number of GPUs held by an app.
    fn gpus_held_by(&self, app: AppId) -> usize;

    /// All GPUs held by a specific job.
    fn gpus_of_job(&self, app: AppId, job: JobId) -> GpuAlloc;
}

impl ClusterState for Cluster {
    fn spec(&self) -> &ClusterSpec {
        Cluster::spec(self)
    }

    fn assignment(&self, gpu: GpuId) -> Option<Assignment> {
        Cluster::assignment(self, gpu)
    }

    fn free_gpus(&self) -> Vec<GpuId> {
        Cluster::free_gpus(self)
    }

    fn gpus_of_app(&self, app: AppId) -> GpuAlloc {
        Cluster::gpus_of_app(self, app)
    }

    fn gpus_held_by(&self, app: AppId) -> usize {
        Cluster::gpus_held_by(self, app)
    }

    fn gpus_of_job(&self, app: AppId, job: JobId) -> GpuAlloc {
        Cluster::gpus_of_job(self, app, job)
    }
}

/// A borrowed per-round scheduling shadow: the committed cluster plus an
/// overlay of this round's tentative grants.
#[derive(Debug, Clone)]
pub struct ClusterView<'a> {
    base: &'a Cluster,
    /// GPUs free in `base` *and* not yet granted through this view.
    free: DenseBitSet,
    /// This round's tentative grants, in grant order (small).
    granted: Vec<(GpuId, Assignment)>,
    free_count: usize,
}

impl Cluster {
    /// Opens a borrowed scheduling view over this cluster (see
    /// [`ClusterView`]). Cheap: copies the free bitmask, nothing else.
    pub fn view(&self) -> ClusterView<'_> {
        ClusterView {
            base: self,
            free: self.free_mask().clone(),
            granted: Vec::new(),
            free_count: self.free_gpu_count(),
        }
    }
}

impl ClusterView<'_> {
    /// Tentatively grants a free GPU to `(app, job)` within this round.
    /// Mirrors [`Cluster::allocate`]'s error behavior, minus leases (the
    /// engine grants the real lease when it applies the decisions).
    pub fn allocate(&mut self, gpu: GpuId, app: AppId, job: JobId) -> Result<(), ClusterError> {
        if gpu.index() >= self.base.total_gpus() {
            return Err(ClusterError::UnknownGpu { gpu });
        }
        if !self.free.remove(gpu.index()) {
            let held_by = self
                .assignment(gpu)
                .map(|a| a.app)
                .unwrap_or(AppId(u32::MAX));
            return Err(ClusterError::GpuBusy { gpu, held_by });
        }
        self.free_count -= 1;
        self.granted.push((gpu, Assignment { app, job }));
        Ok(())
    }

    /// Whether a GPU exists and is free in this view.
    pub fn is_free(&self, gpu: GpuId) -> bool {
        self.free.contains(gpu.index())
    }

    /// Number of GPUs free in this view. O(1).
    pub fn free_gpu_count(&self) -> usize {
        self.free_count
    }

    /// GPUs free in this view on a specific machine, in id order.
    pub fn free_gpus_on(&self, machine: MachineId) -> Vec<GpuId> {
        match self.base.spec().machine(machine) {
            Some(m) => m
                .gpus
                .iter()
                .copied()
                .filter(|g| self.free.contains(g.index()))
                .collect(),
            None => Vec::new(),
        }
    }

    fn overlay_gpus(&self, app: AppId, job: Option<JobId>) -> Vec<GpuId> {
        self.granted
            .iter()
            .filter(|(_, a)| a.app == app && job.is_none_or(|j| a.job == j))
            .map(|(g, _)| *g)
            .collect()
    }
}

impl ClusterState for ClusterView<'_> {
    fn spec(&self) -> &ClusterSpec {
        self.base.spec()
    }

    fn assignment(&self, gpu: GpuId) -> Option<Assignment> {
        self.base.assignment(gpu).or_else(|| {
            self.granted
                .iter()
                .find(|(g, _)| *g == gpu)
                .map(|(_, a)| *a)
        })
    }

    fn free_gpus(&self) -> Vec<GpuId> {
        self.free.iter().map(|idx| GpuId(idx as u32)).collect()
    }

    fn gpus_of_app(&self, app: AppId) -> GpuAlloc {
        let overlay = self.overlay_gpus(app, None);
        if overlay.is_empty() {
            return self.base.gpus_of_app(app);
        }
        self.base
            .gpus_of_app(app)
            .union(&GpuAlloc::from_gpus(overlay))
    }

    fn gpus_held_by(&self, app: AppId) -> usize {
        self.base.gpus_held_by(app) + self.granted.iter().filter(|(_, a)| a.app == app).count()
    }

    fn gpus_of_job(&self, app: AppId, job: JobId) -> GpuAlloc {
        let overlay = self.overlay_gpus(app, Some(job));
        if overlay.is_empty() {
            return self.base.gpus_of_job(app, job);
        }
        self.base
            .gpus_of_job(app, job)
            .union(&GpuAlloc::from_gpus(overlay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn cluster() -> Cluster {
        let mut c = Cluster::new(ClusterSpec::builder().rack(|r| r.machines(2, 4)).build());
        c.allocate(
            GpuId(0),
            AppId(1),
            JobId(0),
            Time::ZERO,
            Time::minutes(20.0),
        )
        .unwrap();
        c
    }

    #[test]
    fn view_mirrors_base_until_granted() {
        let c = cluster();
        let view = c.view();
        assert_eq!(view.free_gpu_count(), 7);
        assert_eq!(view.free_gpus(), c.free_gpus());
        assert_eq!(
            view.free_gpus_on(MachineId(0)),
            c.free_gpus_on(MachineId(0))
        );
        assert_eq!(view.gpus_of_app(AppId(1)).len(), 1);
        assert_eq!(view.assignment(GpuId(0)).unwrap().app, AppId(1));
        assert!(view.is_free(GpuId(1)));
    }

    #[test]
    fn grants_overlay_without_touching_base() {
        let c = cluster();
        let mut view = c.view();
        view.allocate(GpuId(1), AppId(2), JobId(3)).unwrap();
        view.allocate(GpuId(4), AppId(2), JobId(3)).unwrap();
        assert_eq!(view.free_gpu_count(), 5);
        assert!(!view.is_free(GpuId(1)));
        assert_eq!(view.gpus_of_app(AppId(2)).len(), 2);
        assert_eq!(view.gpus_held_by(AppId(2)), 2);
        assert_eq!(view.gpus_of_job(AppId(2), JobId(3)).len(), 2);
        assert_eq!(view.gpus_of_job(AppId(2), JobId(9)).len(), 0);
        assert_eq!(view.assignment(GpuId(1)).unwrap().job, JobId(3));
        assert_eq!(view.free_gpus_on(MachineId(0)), vec![GpuId(2), GpuId(3)]);
        assert_eq!(
            view.free_gpus_on(MachineId(1)),
            vec![GpuId(5), GpuId(6), GpuId(7)]
        );
        assert!(view.free_gpus_on(MachineId(9)).is_empty());
        // The committed cluster is untouched.
        assert_eq!(c.free_gpu_count(), 7);
        assert!(c.is_free(GpuId(1)));
    }

    #[test]
    fn double_grant_and_busy_gpus_error() {
        let c = cluster();
        let mut view = c.view();
        view.allocate(GpuId(1), AppId(2), JobId(0)).unwrap();
        assert!(matches!(
            view.allocate(GpuId(1), AppId(3), JobId(0)),
            Err(ClusterError::GpuBusy { .. })
        ));
        assert!(matches!(
            view.allocate(GpuId(0), AppId(3), JobId(0)),
            Err(ClusterError::GpuBusy {
                held_by: AppId(1),
                ..
            })
        ));
        assert!(matches!(
            view.allocate(GpuId(99), AppId(3), JobId(0)),
            Err(ClusterError::UnknownGpu { .. })
        ));
    }

    #[test]
    fn overlay_merges_with_base_allocation() {
        let c = cluster();
        let mut view = c.view();
        view.allocate(GpuId(2), AppId(1), JobId(0)).unwrap();
        let merged: Vec<GpuId> = view.gpus_of_app(AppId(1)).into_iter().collect();
        assert_eq!(merged, vec![GpuId(0), GpuId(2)]);
        let by_job: Vec<GpuId> = view.gpus_of_job(AppId(1), JobId(0)).into_iter().collect();
        assert_eq!(by_job, vec![GpuId(0), GpuId(2)]);
        assert_eq!(view.gpus_held_by(AppId(1)), 2);
    }
}
