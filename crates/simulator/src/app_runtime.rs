//! Per-app runtime state.
//!
//! [`AppRuntime`] bundles everything the simulator (and the schedulers it
//! drives) needs to know about one app while it is in the system: its static
//! spec, the training progress of every job, the app's own hyper-parameter
//! scheduler, attained GPU service (the Tiresias metric), restart penalties
//! from checkpoint/restore, and the samples used for the evaluation metrics.
//!
//! Per-job state is position-indexed (see [`JobTable`]): entry `i` of every
//! table belongs to `spec.jobs[i]`.
//!
//! The jobs that hold GPUs, with what advance and finish projection read off
//! their GPU sets, are cached per app ([`HeldJob`]) and re-derived only when
//! the cluster's [allocation epoch](Cluster::allocation_epoch) for the app
//! moves, so a round in which an app's GPUs did not change does not regroup
//! them.

use crate::job_table::JobTable;
use std::sync::Arc;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, JobId};
use themis_cluster::placement::{Locality, SpreadFold};
use themis_cluster::time::Time;
use themis_cluster::view::ClusterState;
use themis_hpo::api::{AppScheduler, JobEstimate, JobViews};
use themis_workload::app::AppSpec;
use themis_workload::job::{JobProgress, JobSpec};

/// Mutable runtime state of one app inside the simulator.
pub struct AppRuntime {
    /// Static description of the app.
    pub spec: AppSpec,
    /// Per-job training progress.
    pub progress: JobTable<JobProgress>,
    /// The app's own hyper-parameter tuning scheduler (top level of the
    /// two-level architecture).
    pub hpo: Box<dyn AppScheduler>,
    /// Total GPU service attained so far (GPU-minutes held), the metric the
    /// Tiresias baseline equalizes.
    pub attained_service: Time,
    /// Per-job "no progress before" timestamps modelling checkpoint/restore
    /// overhead when an allocation changes (§8.3.2).
    pub restart_until: JobTable<Option<Time>>,
    /// Time the app finished (all jobs converged or killed).
    pub finished_at: Option<Time>,
    /// Duration-weighted placement-score accumulator: (score · GPU-minutes,
    /// GPU-minutes).
    pub placement_acc: (f64, f64),
    /// Timeline of the app's total GPU count: appended whenever it changes.
    pub gpu_timeline: Vec<(Time, usize)>,
    /// The engine's last queued finish projection per GPU-holding job, in
    /// ascending job-id order.
    pub(crate) scheduled_finish: Vec<(JobId, Time)>,
    /// The jobs holding GPUs, as of the cluster epoch it was derived at.
    pub(crate) held: HeldJobs,
    /// A job may have finished while holding GPUs: set when advance
    /// converges a held job (kills and app completion release on the spot),
    /// cleared by the engine's release pass.
    pub(crate) may_hold_finished: bool,
}

/// One job that holds GPUs, with the facts about its GPU set that advance
/// and finish projection read. They are a function of the GPU set alone, so
/// they stay valid until the app's allocation changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeldJob {
    /// The job's position in `spec.jobs`.
    pub pos: usize,
    /// GPUs held.
    pub gpus: usize,
    /// How widely they are spread.
    pub locality: Locality,
}

/// An app's [`HeldJob`]s in ascending job-id order, cached against the
/// cluster's allocation epoch for the app.
#[derive(Default)]
pub(crate) struct HeldJobs {
    /// The epoch `jobs` was derived at; `None` until the first fill.
    epoch: Option<u64>,
    jobs: Vec<HeldJob>,
}

/// The buffers [`HeldJobs::refresh`] folds an app's GPUs through, kept by
/// the engine for their capacity.
#[derive(Default)]
pub(crate) struct HeldScratch {
    /// One fold of GPU count and locality per job position, grown to the
    /// largest job count seen. Every fold is empty between refreshes.
    by_pos: Vec<SpreadFold>,
    /// The positions the current refresh has folded a GPU into.
    touched: Vec<usize>,
}

impl HeldJobs {
    /// Re-derives the app's held jobs from `cluster` through `scratch`, if
    /// the app's allocation changed since they were last derived: one walk
    /// over the app's GPUs in ascending id, folding each into its job's
    /// position, so a refresh costs O(GPUs held + jobs holding).
    pub(crate) fn refresh(&mut self, cluster: &Cluster, spec: &AppSpec, scratch: &mut HeldScratch) {
        let epoch = cluster.allocation_epoch(spec.id);
        if self.epoch == Some(epoch) {
            return;
        }
        self.epoch = Some(epoch);
        self.jobs.clear();
        if self.jobs.capacity() == 0 && cluster.gpus_held_by(spec.id) > 0 {
            // Sized once: no more jobs than the app has can hold GPUs.
            self.jobs.reserve_exact(spec.num_jobs());
        }
        let topology = cluster.spec();
        let HeldScratch { by_pos, touched } = scratch;
        if by_pos.len() < spec.num_jobs() {
            by_pos.resize(spec.num_jobs(), SpreadFold::default());
        }
        for (gpu, job) in cluster.gpu_jobs_of_app(spec.id) {
            let Some(pos) = spec.job_position(job) else {
                continue;
            };
            let fold = &mut by_pos[pos];
            if fold.gpus() == 0 {
                touched.push(pos);
            }
            fold.add(topology.location_of(gpu));
        }
        touched.sort_unstable();
        for pos in touched.drain(..) {
            let spread = std::mem::take(&mut by_pos[pos]);
            self.jobs.push(HeldJob {
                pos,
                gpus: spread.gpus(),
                locality: spread.locality(),
            });
        }
        // Position order is id order under generator numbering; sparse or
        // unordered ids need the sort.
        self.jobs
            .sort_unstable_by_key(|held| spec.jobs[held.pos].id);
    }
}

impl std::fmt::Debug for AppRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppRuntime")
            .field("app", &self.spec.id)
            .field("jobs", &self.spec.num_jobs())
            .field("finished_at", &self.finished_at)
            .finish_non_exhaustive()
    }
}

impl AppRuntime {
    /// Creates runtime state for an app with the given HPO scheduler.
    pub fn new(spec: AppSpec, hpo: Box<dyn AppScheduler>) -> Self {
        let ids: Arc<[JobId]> = spec.jobs.iter().map(|j| j.id).collect();
        AppRuntime {
            progress: JobTable::filled(ids.clone(), JobProgress::new),
            restart_until: JobTable::filled(ids, || None),
            spec,
            hpo,
            attained_service: Time::ZERO,
            finished_at: None,
            placement_acc: (0.0, 0.0),
            gpu_timeline: Vec::new(),
            scheduled_finish: Vec::new(),
            held: HeldJobs::default(),
            may_hold_finished: false,
        }
    }

    /// Creates runtime state with the default HPO scheduler for the app
    /// (HyperBand for multi-job apps, a no-op for single-job apps).
    pub fn with_default_hpo(spec: AppSpec) -> Self {
        let hpo = themis_hpo::default_scheduler_for(&spec);
        AppRuntime::new(spec, hpo)
    }

    /// The app id.
    pub fn id(&self) -> AppId {
        self.spec.id
    }

    /// Whether the app has arrived by `now`.
    pub fn has_arrived(&self, now: Time) -> bool {
        self.spec.arrival <= now
    }

    /// Every job's spec paired with its progress, in job order.
    fn jobs(&self) -> impl Iterator<Item = (&JobSpec, &JobProgress)> {
        self.spec.jobs.iter().zip(self.progress.as_slice())
    }

    /// Whether the app has identified its best model: every exploration job
    /// has either converged to the target accuracy or been terminated by
    /// the app's hyper-parameter scheduler (§2.1 — the finish time of an
    /// app is when the best model and hyper-parameters have been
    /// identified, which requires the exploration to have run its course).
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some() || self.jobs().all(|(j, p)| p.is_finished(j))
    }

    /// Whether the app is eligible for scheduling at `now`: it has arrived
    /// and still has unfinished jobs.
    pub fn is_schedulable(&self, now: Time) -> bool {
        self.has_arrived(now) && !self.is_finished()
    }

    /// The spec of a job.
    pub fn job_spec(&self, job: JobId) -> Option<&JobSpec> {
        self.spec.job(job)
    }

    /// The spec and progress of a job, if the app has that job.
    pub fn job(&self, job: JobId) -> Option<(&JobSpec, &JobProgress)> {
        let pos = self.spec.job_position(job)?;
        Some((&self.spec.jobs[pos], &self.progress.as_slice()[pos]))
    }

    /// Jobs that are still running (not converged, not killed), in id order.
    pub fn active_jobs(&self) -> Vec<JobId> {
        self.jobs()
            .filter(|(j, p)| !p.is_finished(j))
            .map(|(j, _)| j.id)
            .collect()
    }

    /// The max parallelism of a job (its spec's), or 0 for a job the app
    /// does not have.
    pub fn effective_max_parallelism(&self, job: JobId) -> usize {
        self.spec.job(job).map_or(0, |j| j.max_parallelism)
    }

    /// Total GPU demand of the app right now: the sum of active jobs' max
    /// parallelism.
    pub fn total_demand(&self) -> usize {
        self.jobs()
            .filter(|(j, p)| !p.is_finished(j))
            .map(|(j, _)| j.max_parallelism)
            .sum()
    }

    /// GPUs the app still wants beyond what it currently holds. Works
    /// against the committed [`Cluster`] or a mid-round
    /// [`themis_cluster::view::ClusterView`] shadow.
    pub fn unmet_demand<C: ClusterState>(&self, cluster: &C) -> usize {
        let held = cluster.gpus_held_by(self.id());
        self.total_demand().saturating_sub(held)
    }

    /// Read-only views of every job, for the HPO scheduler API.
    pub fn job_views(&self) -> JobViews<'_> {
        JobViews::new(&self.spec.jobs, self.progress.as_slice())
    }

    /// Appends the per-job estimates for bid preparation (work left, max
    /// parallelism, placement sensitivity) to `out`, as the app's HPO
    /// scheduler reports them.
    pub fn estimates_into(&self, out: &mut Vec<JobEstimate>) {
        self.hpo.estimates_into(self.job_views(), out);
    }

    /// Runs the app's HPO scheduler and applies its kills. Returns the jobs
    /// that were killed.
    pub fn run_hpo(&mut self, now: Time) -> Vec<JobId> {
        // Built from the fields directly so the borrow of `self.hpo` stays
        // disjoint.
        let views = JobViews::new(&self.spec.jobs, self.progress.as_slice());
        let mut killed = Vec::new();
        for job in self.hpo.update(now, views) {
            if let Some(progress) = self.progress.get_mut(&job) {
                if !progress.killed {
                    progress.kill(now);
                    killed.push(job);
                }
            }
        }
        killed
    }

    /// Marks the app finished once every exploration job has converged or
    /// been terminated. Returns `true` the first time the app transitions
    /// to finished.
    pub fn try_finish(&mut self, now: Time) -> bool {
        if self.finished_at.is_none() && self.is_finished() {
            self.finished_at = Some(now);
            true
        } else {
            false
        }
    }

    /// Advances every running job by `dt` according to the GPUs it holds in
    /// `cluster`, honouring restart penalties, and accumulates metrics.
    ///
    /// The runtime caches its held jobs against `cluster`'s allocation epoch
    /// (see [`AppRuntime::held_jobs`]); an engine resets that cache when the
    /// runtime enters it. Advancing one runtime against two different
    /// clusters by hand needs the same reset, which
    /// [`AppRuntime::forget_holdings`] performs.
    pub fn advance(&mut self, cluster: &Cluster, from: Time, dt: Time) {
        self.advance_with(cluster, from, dt, &mut HeldScratch::default());
    }

    /// [`AppRuntime::advance`] through the caller's reusable held-job
    /// buffers. Walks the jobs that hold GPUs (ascending job id — the order
    /// the float accumulators below are summed in), not every job spec.
    pub(crate) fn advance_with(
        &mut self,
        cluster: &Cluster,
        from: Time,
        dt: Time,
        scratch: &mut HeldScratch,
    ) {
        if dt <= Time::ZERO || !self.has_arrived(from + dt) {
            return;
        }
        let to = from + dt;
        self.held.refresh(cluster, &self.spec, scratch);
        let Self {
            spec,
            progress,
            restart_until,
            attained_service,
            placement_acc,
            held,
            may_hold_finished,
            ..
        } = self;
        for job in &held.jobs {
            let job_spec = &spec.jobs[job.pos];
            let progress = &mut progress.as_mut_slice()[job.pos];
            if progress.is_finished(job_spec) {
                continue;
            }
            // Attained service and placement score accrue for the full
            // interval the GPUs are held.
            let gpu_minutes = dt.as_minutes() * job.gpus as f64;
            *attained_service += Time::minutes(gpu_minutes);
            let score = job.locality.score();
            placement_acc.0 += score * gpu_minutes;
            placement_acc.1 += gpu_minutes;
            // Training progress only accrues after any restart penalty.
            let start = restart_until.as_slice()[job.pos]
                .unwrap_or(Time::ZERO)
                .max(from);
            if start < to {
                progress.advance(job_spec, to - start, job.gpus, job.locality);
            }
            if progress.is_converged(job_spec) {
                progress.mark_finished(to);
                *may_hold_finished = true;
            }
        }
    }

    /// The jobs holding GPUs, in ascending job-id order, as of the last
    /// advance or finish projection — in an engine, as of the end of the
    /// last round.
    pub fn held_jobs(&self) -> &[HeldJob] {
        &self.held.jobs
    }

    /// Drops everything the runtime derived from a cluster, so the next
    /// advance or projection re-derives it from whichever cluster it is
    /// given. Also assumes a finished job may hold GPUs there, so the
    /// engine's first release pass over the app runs.
    pub fn forget_holdings(&mut self) {
        self.held = HeldJobs::default();
        self.may_hold_finished = true;
    }

    /// Records a change in the app's total GPU count for the timeline.
    pub fn record_gpu_count(&mut self, now: Time, gpus: usize) {
        match self.gpu_timeline.last() {
            Some((_, last)) if *last == gpus => {}
            _ => self.gpu_timeline.push((now, gpus)),
        }
    }

    /// Duration-weighted average placement score over the app's lifetime
    /// (1.0 when it never held a GPU, matching "trivially well placed").
    pub fn average_placement_score(&self) -> f64 {
        if self.placement_acc.1 <= 0.0 {
            1.0
        } else {
            self.placement_acc.0 / self.placement_acc.1
        }
    }

    /// The app's completion time (finish − arrival), if finished.
    pub fn completion_time(&self) -> Option<Time> {
        self.finished_at.map(|f| f - self.spec.arrival)
    }

    /// The app's *achieved* finish-time fairness ρ = (finish − arrival) /
    /// T_ID, if finished. This is the quantity the paper's evaluation
    /// reports (lower is better, ideal is the cluster contention level).
    pub fn achieved_rho(&self) -> Option<f64> {
        self.completion_time().map(|ct| {
            let ideal = self.spec.ideal_running_time().as_minutes().max(1e-9);
            ct.as_minutes() / ideal
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::GpuId;
    use themis_cluster::topology::ClusterSpec;
    use themis_workload::models::ModelArch;

    fn app(num_jobs: usize) -> AppSpec {
        let jobs = (0..num_jobs)
            .map(|i| {
                JobSpec::new(
                    JobId(i as u32),
                    ModelArch::ResNet50,
                    100.0,
                    Time::minutes(0.1),
                    2,
                )
            })
            .collect();
        AppSpec::new(AppId(0), Time::minutes(10.0), jobs)
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::homogeneous(1, 2, 4))
    }

    #[test]
    fn arrival_and_schedulability() {
        let rt = AppRuntime::with_default_hpo(app(1));
        assert!(!rt.has_arrived(Time::minutes(5.0)));
        assert!(rt.has_arrived(Time::minutes(10.0)));
        assert!(rt.is_schedulable(Time::minutes(10.0)));
        assert!(!rt.is_schedulable(Time::minutes(5.0)));
        assert!(!rt.is_finished());
    }

    #[test]
    fn demand_is_the_active_jobs_max_parallelism() {
        let mut rt = AppRuntime::with_default_hpo(app(2));
        assert_eq!(rt.total_demand(), 4);
        assert_eq!(rt.effective_max_parallelism(JobId(0)), 2);
        assert_eq!(rt.effective_max_parallelism(JobId(7)), 0);
        let mut cluster = cluster();
        let now = Time::minutes(10.0);
        cluster
            .allocate(GpuId(0), AppId(0), JobId(0), now, now + now)
            .unwrap();
        assert_eq!(rt.unmet_demand(&cluster), 3);
        rt.progress.get_mut(&JobId(1)).unwrap().kill(now);
        assert_eq!(rt.total_demand(), 2);
        assert_eq!(rt.unmet_demand(&cluster), 1);
    }

    #[test]
    fn advance_progresses_only_allocated_jobs() {
        let mut rt = AppRuntime::with_default_hpo(app(2));
        let mut cluster = cluster();
        cluster
            .allocate(
                GpuId(0),
                AppId(0),
                JobId(0),
                Time::minutes(10.0),
                Time::minutes(30.0),
            )
            .unwrap();
        cluster
            .allocate(
                GpuId(1),
                AppId(0),
                JobId(0),
                Time::minutes(10.0),
                Time::minutes(30.0),
            )
            .unwrap();
        rt.advance(&cluster, Time::minutes(10.0), Time::minutes(5.0));
        assert!(rt.progress[&JobId(0)].iterations_done > 0.0);
        assert_eq!(rt.progress[&JobId(1)].iterations_done, 0.0);
        assert_eq!(rt.attained_service, Time::minutes(10.0));
        assert!(rt.average_placement_score() > 0.0);
    }

    #[test]
    fn restart_penalty_delays_progress() {
        let mut rt = AppRuntime::with_default_hpo(app(1));
        let mut cluster = cluster();
        cluster
            .allocate(
                GpuId(0),
                AppId(0),
                JobId(0),
                Time::minutes(10.0),
                Time::minutes(30.0),
            )
            .unwrap();
        rt.restart_until.insert(JobId(0), Time::minutes(12.0));
        rt.advance(&cluster, Time::minutes(10.0), Time::minutes(2.0));
        assert_eq!(rt.progress[&JobId(0)].iterations_done, 0.0);
        // Attained service still accrues while the GPU is held.
        assert_eq!(rt.attained_service, Time::minutes(2.0));
        rt.advance(&cluster, Time::minutes(12.0), Time::minutes(2.0));
        assert!(rt.progress[&JobId(0)].iterations_done > 0.0);
    }

    #[test]
    fn app_finishes_when_all_jobs_finish() {
        let mut rt = AppRuntime::with_default_hpo(app(2));
        let mut cluster = cluster();
        for job in [JobId(0), JobId(1)] {
            for gpu in cluster.free_gpus().into_iter().take(2) {
                cluster
                    .allocate(
                        gpu,
                        AppId(0),
                        job,
                        Time::minutes(10.0),
                        Time::minutes(1000.0),
                    )
                    .unwrap();
            }
        }
        // 100 iterations * 0.1 min / 2 GPUs = 5 minutes each.
        rt.advance(&cluster, Time::minutes(10.0), Time::minutes(6.0));
        assert!(rt.is_finished());
        assert!(rt.try_finish(Time::minutes(16.0)));
        assert!(!rt.try_finish(Time::minutes(17.0)), "only transitions once");
        assert_eq!(rt.completion_time(), Some(Time::minutes(6.0)));
        // rho = completion / ideal = 6 / 5.
        assert!((rt.achieved_rho().unwrap() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn gpu_timeline_deduplicates() {
        let mut rt = AppRuntime::with_default_hpo(app(1));
        rt.record_gpu_count(Time::ZERO, 0);
        rt.record_gpu_count(Time::minutes(1.0), 0);
        rt.record_gpu_count(Time::minutes(2.0), 4);
        rt.record_gpu_count(Time::minutes(3.0), 4);
        rt.record_gpu_count(Time::minutes(4.0), 0);
        assert_eq!(rt.gpu_timeline.len(), 3);
    }

    #[test]
    fn estimates_follow_active_jobs() {
        let mut rt = AppRuntime::with_default_hpo(app(3));
        let mut estimates = Vec::new();
        rt.estimates_into(&mut estimates);
        assert_eq!(estimates.len(), 3);
        rt.progress.get_mut(&JobId(1)).unwrap().kill(Time::ZERO);
        rt.estimates_into(&mut estimates);
        assert_eq!(estimates.len(), 5, "appends to what the buffer held");
        assert_eq!(rt.active_jobs(), vec![JobId(0), JobId(2)]);
    }
}
