//! # themis-hpo
//!
//! Hyper-parameter-optimization (HPO) app schedulers for the Themis
//! reproduction (NSDI 2020).
//!
//! Themis uses a two-level architecture: the bottom level (the Arbiter,
//! implemented in `themis-core`) allocates GPUs *across* apps, while the top
//! level — an app's own hyper-parameter tuning framework — decides how to
//! split the app's GPUs among its constituent jobs and which jobs to
//! terminate early (§2.3, §5.2). This crate implements the framework the
//! paper's prototype integrates (§7):
//!
//! * [`hyperband::HyperBand`] — launches all jobs at equal priority and
//!   periodically kills the bottom half by projected convergence until a
//!   single job remains,
//!
//! plus [`single::SingleJob`] for apps that train one configuration, the
//! [`api::AppScheduler`] trait they all implement, and the
//! [`estimator::WorkEstimator`] that performs the loss-curve fitting and
//! work-left projection the paper's Agent relies on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod estimator;
pub mod hyperband;
pub mod single;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::api::{AppScheduler, JobEstimate, JobView, JobViews};
    pub use crate::estimator::WorkEstimator;
    pub use crate::hyperband::HyperBand;
    pub use crate::single::SingleJob;
}

pub use prelude::*;

use themis_workload::app::AppSpec;

/// Builds the default app scheduler for an app: [`SingleJob`] for single-job
/// apps and [`HyperBand`] (the scheduler the paper's prototype implements,
/// §7) for multi-job apps.
pub fn default_scheduler_for(app: &AppSpec) -> Box<dyn AppScheduler> {
    if app.num_jobs() == 1 {
        Box::new(SingleJob::new())
    } else {
        Box::new(HyperBand::with_defaults(app.num_jobs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::{AppId, JobId};
    use themis_cluster::time::Time;
    use themis_workload::job::JobSpec;
    use themis_workload::models::ModelArch;

    #[test]
    fn default_scheduler_depends_on_job_count() {
        let job = |id| JobSpec::new(JobId(id), ModelArch::ResNet50, 100.0, Time::minutes(0.1), 2);
        let single = AppSpec::new(AppId(0), Time::ZERO, vec![job(0)]);
        let multi = AppSpec::new(AppId(1), Time::ZERO, vec![job(0), job(1), job(2)]);
        assert_eq!(format!("{:?}", default_scheduler_for(&single)), "SingleJob");
        assert!(format!("{:?}", default_scheduler_for(&multi)).starts_with("HyperBand {"));
    }
}
