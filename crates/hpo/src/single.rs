//! The trivial app scheduler for single-job apps.
//!
//! Apps whose user already knows the right hyper-parameters contain a single
//! job (§2.1); there is nothing to kill or re-prioritize, so the scheduler
//! is a no-op that simply exposes the Agent API defaults.

use crate::api::{AppScheduler, JobViews, SchedulerUpdate};
use themis_cluster::time::Time;

/// App scheduler for single-job apps: never kills, never re-prioritizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleJob;

impl SingleJob {
    /// Creates the scheduler.
    pub fn new() -> Self {
        SingleJob
    }
}

impl AppScheduler for SingleJob {
    fn name(&self) -> &'static str {
        "single-job"
    }

    fn update(&mut self, _now: Time, _jobs: JobViews<'_>) -> SchedulerUpdate {
        SchedulerUpdate::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AppScheduler;
    use themis_cluster::ids::JobId;
    use themis_cluster::time::Time;
    use themis_workload::job::{JobProgress, JobSpec};
    use themis_workload::models::ModelArch;

    #[test]
    fn never_kills() {
        let spec = JobSpec::new(JobId(0), ModelArch::ResNet50, 100.0, Time::minutes(0.1), 2);
        let progress = JobProgress::new();
        let mut s = SingleJob::new();
        let update = s.update(
            Time::ZERO,
            JobViews::new(std::slice::from_ref(&spec), std::slice::from_ref(&progress)),
        );
        assert!(update.is_empty());
        assert_eq!(s.name(), "single-job");
    }

    #[test]
    fn estimates_cover_the_single_job() {
        let spec = JobSpec::new(JobId(0), ModelArch::Vgg16, 100.0, Time::minutes(0.1), 2);
        let progress = JobProgress::new();
        let s = SingleJob::new();
        let est = s.estimates(JobViews::new(
            std::slice::from_ref(&spec),
            std::slice::from_ref(&progress),
        ));
        assert_eq!(est.len(), 1);
        assert_eq!(est[0].job, JobId(0));
        assert_eq!(est[0].work_left, spec.total_work());
    }
}
