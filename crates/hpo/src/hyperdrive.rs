//! HyperDrive app scheduler.
//!
//! HyperDrive (Rasley et al., 2017) launches jobs at equal priority and
//! continuously monitors loss convergence to classify each job as **good**,
//! **promising** or **poor** (§5.2). It gives higher execution priority
//! (larger max parallelism) to good jobs, keeps promising jobs at their
//! base priority, and terminates poor jobs as soon as they are classified.

use crate::api::{AppScheduler, JobClass, JobViews, SchedulerUpdate};
use crate::estimator::WorkEstimator;
use std::collections::BTreeMap;
use themis_cluster::ids::JobId;
use themis_cluster::time::Time;

/// Configuration of the HyperDrive classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperDriveConfig {
    /// Minimum iterations a job must run before it can be classified
    /// (avoids killing jobs on noisy early fits).
    pub warmup_iterations: f64,
    /// A job is **good** if its projected total iterations are within this
    /// factor of the best job's projection.
    pub good_factor: f64,
    /// A job is **poor** (killed) if its projected total iterations exceed
    /// this factor of the best job's projection, or if its fitted curve
    /// cannot reach the target at all.
    pub poor_factor: f64,
    /// Parallelism multiplier applied to good jobs (relative to the spec's
    /// max parallelism).
    pub good_boost: f64,
}

impl Default for HyperDriveConfig {
    fn default() -> Self {
        HyperDriveConfig {
            warmup_iterations: 30.0,
            good_factor: 1.25,
            poor_factor: 3.0,
            good_boost: 2.0,
        }
    }
}

/// The HyperDrive POP-style scheduler.
#[derive(Debug)]
pub struct HyperDrive {
    config: HyperDriveConfig,
    estimators: BTreeMap<JobId, WorkEstimator>,
    classes: BTreeMap<JobId, JobClass>,
}

impl HyperDrive {
    /// Creates a HyperDrive scheduler with an explicit configuration.
    pub fn new(config: HyperDriveConfig) -> Self {
        HyperDrive {
            config,
            estimators: BTreeMap::new(),
            classes: BTreeMap::new(),
        }
    }

    /// Creates a HyperDrive scheduler with default thresholds.
    pub fn with_defaults() -> Self {
        HyperDrive::new(HyperDriveConfig::default())
    }

    /// The last classification assigned to a job, if any.
    pub fn class_of(&self, job: JobId) -> Option<JobClass> {
        self.classes.get(&job).copied()
    }

    fn classify(&mut self, jobs: JobViews<'_>) {
        // Projected total iterations per active, warmed-up job.
        let mut projections: Vec<(JobId, Option<f64>)> = Vec::new();
        for job in jobs.iter().filter(|j| j.is_active()) {
            if job.progress.iterations_done < self.config.warmup_iterations {
                continue;
            }
            let proj = self
                .estimators
                .get(&job.id())
                .and_then(|e| e.projected_total_iterations(job.spec));
            projections.push((job.id(), proj));
        }
        let best = projections
            .iter()
            .filter_map(|(_, p)| *p)
            .fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            return;
        }
        for (id, proj) in projections {
            let class = match proj {
                None => JobClass::Poor,
                Some(p) if p <= best * self.config.good_factor => JobClass::Good,
                Some(p) if p >= best * self.config.poor_factor => JobClass::Poor,
                Some(_) => JobClass::Promising,
            };
            self.classes.insert(id, class);
        }
    }
}

impl AppScheduler for HyperDrive {
    fn name(&self) -> &'static str {
        "hyperdrive"
    }

    fn update(&mut self, _now: Time, jobs: JobViews<'_>) -> SchedulerUpdate {
        for job in jobs.iter().filter(|j| j.is_active()) {
            self.estimators
                .entry(job.id())
                .or_default()
                .observe_progress(job.spec, job.progress);
        }

        let active_count = jobs.iter().filter(|j| j.is_active()).count();
        if active_count <= 1 {
            return SchedulerUpdate::none();
        }

        self.classify(jobs);

        let mut kill = Vec::new();
        let mut max_parallelism = Vec::new();
        let mut would_kill_all = true;
        for job in jobs.iter().filter(|j| j.is_active()) {
            match self.classes.get(&job.id()) {
                Some(JobClass::Poor) => kill.push(job.id()),
                Some(JobClass::Good) => {
                    would_kill_all = false;
                    let boosted = ((job.spec.max_parallelism as f64) * self.config.good_boost)
                        .round() as usize;
                    max_parallelism.push((job.id(), boosted.max(job.spec.max_parallelism)));
                }
                Some(JobClass::Promising) | None => {
                    would_kill_all = false;
                }
            }
        }
        // Never kill every remaining job: the best of a bad bunch survives.
        if would_kill_all && !kill.is_empty() {
            kill.pop();
        }
        SchedulerUpdate {
            kill,
            max_parallelism,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::JobId;
    use themis_cluster::placement::Locality;
    use themis_cluster::time::Time;
    use themis_workload::job::{JobProgress, JobSpec};
    use themis_workload::loss::LossCurve;
    use themis_workload::models::ModelArch;

    fn job(id: u32, exponent: f64) -> (JobSpec, JobProgress) {
        let mut spec = JobSpec::new(JobId(id), ModelArch::Vgg16, 2000.0, Time::minutes(0.05), 4);
        spec.loss_curve = LossCurve::PowerLaw {
            floor: 0.0,
            scale: 2.0,
            exponent,
        };
        spec.target_loss = 0.1;
        (spec, JobProgress::new())
    }

    fn run_scheduler(
        hd: &mut HyperDrive,
        jobs: &mut [(JobSpec, JobProgress)],
        steps: usize,
    ) -> Vec<SchedulerUpdate> {
        let mut updates = Vec::new();
        for step in 0..steps {
            for (spec, progress) in jobs.iter_mut() {
                if !progress.is_finished(spec) {
                    progress.advance(spec, Time::minutes(1.0), 4, Locality::Slot);
                }
            }
            let (specs, progress): (Vec<JobSpec>, Vec<JobProgress>) = jobs.iter().cloned().unzip();
            let update = hd.update(Time::minutes(step as f64), JobViews::new(&specs, &progress));
            for id in &update.kill {
                let (_, progress) = jobs.iter_mut().find(|(s, _)| s.id == *id).unwrap();
                progress.kill(Time::minutes(step as f64));
            }
            updates.push(update);
        }
        updates
    }

    #[test]
    fn poor_jobs_are_killed_good_jobs_boosted() {
        // Job 0 converges ~3x faster than job 2 (exponent ratio), job 1 is
        // in between.
        let mut jobs = vec![job(0, 0.9), job(1, 0.55), job(2, 0.22)];
        let mut hd = HyperDrive::with_defaults();
        let updates = run_scheduler(&mut hd, &mut jobs, 60);
        // The slowest job must eventually be classified poor and killed.
        assert!(
            jobs[2].1.killed,
            "slowest job should be killed, classes: {:?}",
            (0..3).map(|i| hd.class_of(JobId(i))).collect::<Vec<_>>()
        );
        // The fastest job must be classified good and receive a boost.
        assert_eq!(hd.class_of(JobId(0)), Some(JobClass::Good));
        let boosted = updates
            .iter()
            .flat_map(|u| u.max_parallelism.iter())
            .any(|(id, par)| *id == JobId(0) && *par > 4);
        assert!(boosted, "good job should get a parallelism boost");
        // The fastest job is never killed.
        assert!(!jobs[0].1.killed);
    }

    #[test]
    fn warmup_prevents_early_kills() {
        let mut jobs = vec![job(0, 0.9), job(1, 0.2)];
        let mut hd = HyperDrive::new(HyperDriveConfig {
            warmup_iterations: 1e9, // effectively never classify
            ..Default::default()
        });
        let updates = run_scheduler(&mut hd, &mut jobs, 30);
        assert!(updates.iter().all(|u| u.kill.is_empty()));
        assert!(!jobs[1].1.killed);
    }

    #[test]
    fn never_kills_all_jobs() {
        // All jobs are equally terrible; nothing converges fast, but at
        // least one job must survive.
        let mut jobs = vec![job(0, 0.2), job(1, 0.2)];
        let mut hd = HyperDrive::new(HyperDriveConfig {
            warmup_iterations: 5.0,
            good_factor: 0.0, // nothing is good
            poor_factor: 0.5, // everything is poor
            good_boost: 1.0,
        });
        run_scheduler(&mut hd, &mut jobs, 40);
        let not_killed = jobs.iter().filter(|(_, p)| !p.killed).count();
        assert!(not_killed >= 1, "at least one job must escape being killed");
    }

    #[test]
    fn single_job_apps_are_untouched() {
        let mut jobs = vec![job(0, 0.5)];
        let mut hd = HyperDrive::with_defaults();
        let updates = run_scheduler(&mut hd, &mut jobs, 20);
        assert!(updates.iter().all(|u| *u == SchedulerUpdate::none()));
    }
}
