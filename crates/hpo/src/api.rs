//! The ML-app-scheduler ↔ Agent API.
//!
//! The paper defines a narrow interface between an app's hyper-parameter
//! tuning framework and the Themis Agent (§5.2, "ML App Scheduler to Agent
//! API"): at bid-preparation time the Agent pulls, for every constituent
//! job, the total work, the work left, the placement sensitivity and the
//! maximum parallelism. In the other direction, the app scheduler is told
//! about training progress and decides which jobs to kill.

use themis_cluster::ids::JobId;
use themis_cluster::time::Time;
use themis_workload::job::{JobProgress, JobSpec};
use themis_workload::sensitivity::PlacementSensitivity;

/// A read-only view of one job handed to the app scheduler.
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    /// Static description of the job.
    pub spec: &'a JobSpec,
    /// Current training progress.
    pub progress: &'a JobProgress,
}

impl JobView<'_> {
    /// The job id.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// Whether the job is still running (not converged, not killed).
    pub fn is_active(&self) -> bool {
        !self.progress.is_finished(self.spec)
    }
}

/// Read-only views of every job of one app, in the app's job order.
///
/// Two parallel borrowed slices rather than a `Vec<JobView>`: the simulator
/// keeps job specs and progress in position-indexed vectors, so handing the
/// app scheduler its jobs costs no allocation per round.
#[derive(Debug, Clone, Copy)]
pub struct JobViews<'a> {
    specs: &'a [JobSpec],
    progress: &'a [JobProgress],
}

impl<'a> JobViews<'a> {
    /// Pairs `specs[i]` with `progress[i]`.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn new(specs: &'a [JobSpec], progress: &'a [JobProgress]) -> Self {
        assert_eq!(
            specs.len(),
            progress.len(),
            "one progress record per job spec"
        );
        JobViews { specs, progress }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the app has no jobs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates over the jobs in order.
    pub fn iter(&self) -> impl Iterator<Item = JobView<'a>> + 'a {
        self.specs
            .iter()
            .zip(self.progress)
            .map(|(spec, progress)| JobView { spec, progress })
    }
}

/// What the Agent needs to know about a job to prepare a bid (§5.2):
/// total work, work left, max parallelism and placement sensitivity.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEstimate {
    /// The job this estimate describes.
    pub job: JobId,
    /// Estimated total work `W` (GPU-minutes of serial computation).
    pub total_work: Time,
    /// Estimated work left `W'` (GPU-minutes of serial computation).
    pub work_left: Time,
    /// Maximum useful parallelism `G_ideal` of the job.
    pub max_parallelism: usize,
    /// Placement-sensitivity profile `S`.
    pub sensitivity: PlacementSensitivity,
}

/// The top-level (per-app) scheduler interface.
///
/// Implementations decide which of the app's jobs stay alive; the Agent
/// combines their estimates with placement sensitivity to prepare bids.
pub trait AppScheduler: std::fmt::Debug + Send {
    /// Observes the current state of every job in the app and returns the
    /// jobs to terminate immediately (their GPUs return to the app and are
    /// redistributed among the surviving jobs).
    ///
    /// The simulator calls this once per scheduling event (arrival, lease
    /// expiry, projected finish, …) for every arrived, unfinished app, with
    /// the same job list in the same order every time — even when no job
    /// progressed since the last call. That matters because `update` is
    /// **not idempotent**: it is a step of the app scheduler's own state
    /// machine, and a call without progress may still decide something new
    /// (HyperBand, whose survivors already passed the next rung, halves
    /// again). Skipping "no-progress" calls would therefore change
    /// schedules; an implementation that wants to save work on them skips it
    /// inside, as [`WorkEstimator`](crate::estimator::WorkEstimator) does
    /// for repeated observations.
    fn update(&mut self, now: Time, jobs: JobViews<'_>) -> Vec<JobId>;

    /// The Agent API: appends the per-job estimates used to prepare bids
    /// to `out`, leaving what `out` already holds in place (the Arbiter
    /// probes every app into one buffer). The default implementation
    /// reports clairvoyant work-left (matching the paper's simulator, which
    /// assumes clairvoyance of iteration counts, §8.1) and the spec's max
    /// parallelism.
    ///
    /// This is the trait's only estimates method, and every caller goes
    /// through it: an implementation that reports its own estimates
    /// overrides exactly this one. A second, allocating form beside it
    /// would let an override of one be bypassed by callers of the other.
    fn estimates_into(&self, jobs: JobViews<'_>, out: &mut Vec<JobEstimate>) {
        out.extend(jobs.iter().filter(|j| j.is_active()).map(|j| JobEstimate {
            job: j.spec.id,
            total_work: j.spec.total_work(),
            work_left: j.progress.work_left(j.spec),
            max_parallelism: j.spec.max_parallelism,
            sensitivity: j.spec.sensitivity(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::JobId;
    use themis_cluster::placement::Locality;
    use themis_workload::models::ModelArch;

    #[derive(Debug)]
    struct Noop;
    impl AppScheduler for Noop {
        fn update(&mut self, _now: Time, _jobs: JobViews<'_>) -> Vec<JobId> {
            Vec::new()
        }
    }

    fn spec() -> JobSpec {
        JobSpec::new(JobId(0), ModelArch::ResNet50, 100.0, Time::minutes(0.1), 4)
    }

    #[test]
    fn default_estimates_are_clairvoyant() {
        let spec = spec();
        let mut progress = JobProgress::new();
        progress.advance(&spec, Time::minutes(1.0), 4, Locality::Slot);
        let views = JobViews::new(std::slice::from_ref(&spec), std::slice::from_ref(&progress));
        let mut estimates = Vec::new();
        Noop.estimates_into(views, &mut estimates);
        assert_eq!(estimates.len(), 1);
        assert_eq!(estimates[0].total_work, spec.total_work());
        assert_eq!(estimates[0].work_left, progress.work_left(&spec));
        assert_eq!(estimates[0].max_parallelism, 4);
    }

    #[test]
    fn finished_jobs_are_excluded_from_estimates() {
        let spec = spec();
        let mut progress = JobProgress::new();
        progress.kill(Time::ZERO);
        let views = JobViews::new(std::slice::from_ref(&spec), std::slice::from_ref(&progress));
        // Appending: what the buffer held stays, and nothing is added.
        let mut estimates = vec![JobEstimate {
            job: JobId(7),
            total_work: Time::ZERO,
            work_left: Time::ZERO,
            max_parallelism: 1,
            sensitivity: ModelArch::ResNet50.sensitivity(),
        }];
        Noop.estimates_into(views, &mut estimates);
        assert_eq!(estimates.len(), 1);
        assert_eq!(estimates[0].job, JobId(7));
        assert!(!views.iter().next().unwrap().is_active());
    }
}
