//! ML applications: sets of related hyper-parameter exploration jobs.
//!
//! An app corresponds to one user training a model for a high-level goal
//! (§2.1). It contains one or more jobs, each exploring a different
//! hyper-parameter configuration; the app finishes when the best model has
//! been identified (for a single-job app, when that job converges). Apps are
//! the unit of fairness in Themis: the finish-time fairness metric ρ is
//! computed per app.

use crate::job::JobSpec;
use crate::models::ModelArch;
use themis_cluster::ids::{AppId, JobId};
use themis_cluster::placement::Locality;
use themis_cluster::time::Time;

/// Static description of one ML application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// App identifier (unique across the trace).
    pub id: AppId,
    /// Time at which the app is submitted to the cluster.
    pub arrival: Time,
    /// The hyper-parameter exploration jobs making up the app.
    pub jobs: Vec<JobSpec>,
}

impl AppSpec {
    /// Creates an app from its jobs.
    pub fn new(id: AppId, arrival: Time, jobs: Vec<JobSpec>) -> Self {
        assert!(!jobs.is_empty(), "an app must contain at least one job");
        AppSpec { id, arrival, jobs }
    }

    /// Convenience constructor for a single-job app (a user who already
    /// knows the right hyper-parameters).
    pub fn single_job(id: AppId, arrival: Time, job: JobSpec) -> Self {
        AppSpec::new(id, arrival, vec![job])
    }

    /// Number of constituent jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Looks up a job by id.
    pub fn job(&self, id: JobId) -> Option<&JobSpec> {
        self.job_position(id).map(|pos| &self.jobs[pos])
    }

    /// The position of a job in [`AppSpec::jobs`]. Generators number jobs
    /// from zero, so job `k` normally sits at position `k` and the lookup is
    /// O(1); any other numbering falls back to a search.
    pub fn job_position(&self, id: JobId) -> Option<usize> {
        match self.jobs.get(id.index()) {
            Some(job) if job.id == id => Some(id.index()),
            _ => self.jobs.iter().position(|j| j.id == id),
        }
    }

    /// The model architecture of the app (the paper notes all jobs within an
    /// app share a model structure and therefore placement sensitivity;
    /// §5.2 "Placement sensitivity"). Returns the first job's model.
    pub fn model(&self) -> ModelArch {
        self.jobs[0].model
    }

    /// Whether the app is network intensive (placement sensitive).
    pub fn is_network_intensive(&self) -> bool {
        self.model().is_network_intensive()
    }

    /// Total work across all jobs, in GPU-minutes of serial computation.
    pub fn total_work(&self) -> Time {
        self.jobs
            .iter()
            .fold(Time::ZERO, |acc, j| acc + j.total_work())
    }

    /// Aggregate maximum parallelism across constituent jobs: the most GPUs
    /// the app can productively hold at once.
    pub fn max_parallelism(&self) -> usize {
        self.jobs.iter().map(|j| j.max_parallelism).sum()
    }

    /// The app's **ideal running time** `T_ID`: the running time in a
    /// dedicated (un-shared) cluster, where every exploration job runs
    /// concurrently at its maximum parallelism with perfect placement and
    /// the app completes once the exploration has run its course. With all
    /// jobs in flight simultaneously, that is the slowest job's ideal time
    /// (conservatively ignoring early termination).
    pub fn ideal_running_time(&self) -> Time {
        self.jobs
            .iter()
            .map(|j| j.time_for_work(j.total_work(), j.max_parallelism, Locality::Slot))
            .max()
            .unwrap_or(Time::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn job(id: u32, iters: f64, max_par: usize) -> JobSpec {
        JobSpec::new(
            JobId(id),
            ModelArch::ResNet50,
            iters,
            Time::minutes(0.1),
            max_par,
        )
    }

    #[test]
    fn app_aggregates_jobs() {
        let app = AppSpec::new(
            AppId(0),
            Time::minutes(5.0),
            vec![job(0, 1000.0, 4), job(1, 2000.0, 2)],
        );
        assert_eq!(app.num_jobs(), 2);
        assert_eq!(app.total_work(), Time::minutes(300.0));
        assert_eq!(app.max_parallelism(), 6);
        assert!(app.job(JobId(1)).is_some());
        assert!(app.job(JobId(9)).is_none());
    }

    #[test]
    fn job_lookup_survives_sparse_and_unordered_ids() {
        let app = AppSpec::new(
            AppId(0),
            Time::ZERO,
            vec![job(9, 100.0, 1), job(5, 100.0, 2), job(1, 100.0, 3)],
        );
        assert_eq!(app.job_position(JobId(9)), Some(0));
        assert_eq!(app.job_position(JobId(5)), Some(1));
        // Position 1 exists but holds job 5: the dense guess must not win.
        assert_eq!(app.job_position(JobId(1)), Some(2));
        assert_eq!(app.job(JobId(1)).unwrap().max_parallelism, 3);
        assert_eq!(app.job_position(JobId(0)), None);
        assert!(app.job(JobId(2)).is_none());
    }

    #[test]
    fn ideal_running_time_is_dedicated_cluster_time() {
        let app = AppSpec::new(
            AppId(0),
            Time::ZERO,
            vec![job(0, 1000.0, 4), job(1, 2000.0, 2)],
        );
        // job0: 100 serial min / 4 = 25; job1: 200 / 2 = 100. All jobs run
        // concurrently in a dedicated cluster → T_ID = 100 (the slowest).
        assert_eq!(app.ideal_running_time(), Time::minutes(100.0));
    }

    #[test]
    fn single_job_constructor() {
        let app = AppSpec::single_job(AppId(3), Time::minutes(1.0), job(0, 100.0, 1));
        assert_eq!(app.num_jobs(), 1);
        assert_eq!(app.ideal_running_time(), Time::minutes(10.0));
    }

    #[test]
    fn network_intensity_follows_model() {
        let mut vgg_job = job(0, 100.0, 2);
        vgg_job.model = ModelArch::Vgg16;
        let app = AppSpec::single_job(AppId(0), Time::ZERO, vgg_job);
        assert!(app.is_network_intensive());
        let app2 = AppSpec::single_job(AppId(1), Time::ZERO, job(0, 100.0, 2));
        assert!(!app2.is_network_intensive());
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_app_rejected() {
        let _ = AppSpec::new(AppId(0), Time::ZERO, vec![]);
    }
}
