//! HyperBand app scheduler.
//!
//! HyperBand (Li et al., 2016) launches several training jobs with equal
//! priority and, after each "rung" of a fixed number of iterations, kills
//! the bottom half of jobs with the poorest convergence until a single job
//! remains (§5.2, "App scheduler background"). The paper's prototype
//! implements this scheduler inside the Submarine Application Master (§7).

use crate::api::{AppScheduler, JobViews};
use crate::estimator::WorkEstimator;
use themis_cluster::ids::JobId;
use themis_cluster::time::Time;

/// The HyperBand successive-halving scheduler.
#[derive(Debug)]
pub struct HyperBand {
    /// Iterations each surviving job must complete before the next halving
    /// decision is taken.
    rung_iterations: f64,
    /// Iteration threshold at which the next halving decision happens.
    next_rung: f64,
    /// One estimator per job, by position in the job list `update` is
    /// given (the same list every call).
    estimators: Vec<WorkEstimator>,
}

impl HyperBand {
    /// Creates a HyperBand scheduler that halves the surviving jobs every
    /// `rung_iterations` iterations (classic HyperBand's elimination factor
    /// of 2: "kill the bottom half").
    pub fn new(rung_iterations: f64) -> Self {
        HyperBand {
            rung_iterations,
            next_rung: rung_iterations,
            estimators: Vec::new(),
        }
    }

    /// Creates a HyperBand scheduler with a rung size scaled to the number
    /// of jobs (more configurations → shorter rungs, as in the original
    /// algorithm's bracket construction).
    pub fn with_defaults(num_jobs: usize) -> Self {
        HyperBand::new(if num_jobs >= 32 { 25.0 } else { 50.0 })
    }

    /// Ranks active jobs by projected total iterations to convergence
    /// (ascending: fastest-converging first).
    fn rank_jobs(&self, jobs: JobViews<'_>) -> Vec<(JobId, f64)> {
        let mut ranked: Vec<(JobId, f64)> = jobs
            .iter()
            .zip(&self.estimators)
            .filter(|(j, _)| j.is_active())
            .map(|(j, estimator)| {
                let projected = estimator
                    .projected_total_iterations(j.spec)
                    .unwrap_or(f64::INFINITY);
                (j.id(), projected)
            })
            .collect();
        ranked.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite projections")
                .then(a.0.cmp(&b.0))
        });
        ranked
    }
}

impl AppScheduler for HyperBand {
    fn update(&mut self, _now: Time, jobs: JobViews<'_>) -> Vec<JobId> {
        // Record fresh loss observations for every active job. A rung
        // completes when every surviving job has reached the rung's
        // iteration threshold (or finished).
        if self.estimators.len() < jobs.len() {
            self.estimators
                .resize_with(jobs.len(), WorkEstimator::default);
        }
        let mut active = 0usize;
        let mut all_reached = true;
        for (job, estimator) in jobs.iter().zip(&mut self.estimators) {
            if !job.is_active() {
                continue;
            }
            estimator.observe_progress(job.spec, job.progress);
            active += 1;
            all_reached &= job.progress.iterations_done >= self.next_rung;
        }
        if active <= 1 || !all_reached {
            return Vec::new();
        }

        let ranked = self.rank_jobs(jobs);
        let survivors = ranked.len().div_ceil(2);
        self.next_rung += self.rung_iterations;
        ranked.iter().skip(survivors).map(|(id, _)| *id).collect()
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

    /// Builds a job whose convergence speed is controlled by `exponent`:
    /// larger exponent = faster convergence = better hyper-parameters.
    fn job(id: u32, exponent: f64) -> JobSpec {
        let mut spec = JobSpec::new(
            JobId(id),
            ModelArch::ResNet50,
            1000.0,
            Time::minutes(0.1),
            4,
        );
        spec.loss_curve = LossCurve {
            floor: 0.0,
            scale: 2.0,
            exponent,
        };
        spec.target_loss = 0.1;
        spec
    }

    fn fresh(specs: &[JobSpec]) -> Vec<JobProgress> {
        vec![JobProgress::new(); specs.len()]
    }

    #[test]
    fn no_kills_before_rung_completes() {
        let specs = vec![job(0, 0.6), job(1, 0.3)];
        let progress = fresh(&specs);
        let mut hb = HyperBand::new(100.0);
        let kill = hb.update(Time::ZERO, JobViews::new(&specs, &progress));
        assert!(kill.is_empty());
        assert_eq!(hb.next_rung, 100.0, "no rung completed");
    }

    #[test]
    fn kills_bottom_half_at_rung() {
        let specs = vec![job(0, 0.8), job(1, 0.7), job(2, 0.3), job(3, 0.25)];
        let mut progress = fresh(&specs);
        let mut hb = HyperBand::new(50.0);
        // Feed several observations as training progresses so the curve fit
        // has data, then cross the rung.
        for _ in 0..6 {
            for (spec, progress) in specs.iter().zip(&mut progress) {
                progress.advance(spec, Time::minutes(2.5), 4, Locality::Slot);
            }
            let kill = hb.update(Time::ZERO, JobViews::new(&specs, &progress));
            if !kill.is_empty() {
                // The slowly-converging jobs (small exponents => ids 2, 3)
                // must be the ones killed.
                assert_eq!(kill.len(), 2);
                assert!(kill.contains(&JobId(2)));
                assert!(kill.contains(&JobId(3)));
                return;
            }
        }
        panic!("expected a halving rung to trigger");
    }

    #[test]
    fn successive_rungs_reduce_to_one_job() {
        let specs = vec![job(0, 0.9), job(1, 0.6), job(2, 0.45), job(3, 0.3)];
        let mut progress = fresh(&specs);
        let mut hb = HyperBand::new(40.0);
        for step in 0..200 {
            for (spec, progress) in specs.iter().zip(&mut progress) {
                if !progress.killed {
                    progress.advance(spec, Time::minutes(1.0), 4, Locality::Slot);
                }
            }
            let kill = hb.update(Time::minutes(step as f64), JobViews::new(&specs, &progress));
            for id in kill {
                progress[id.index()].kill(Time::minutes(step as f64));
            }
            let mut survivors = specs
                .iter()
                .zip(&progress)
                .filter(|(s, p)| !p.is_finished(s));
            if let (Some((survivor, _)), None) = (survivors.next(), survivors.next()) {
                // Exactly the fastest job survives.
                assert_eq!(survivor.id, JobId(0));
                return;
            }
        }
        panic!("never reduced to a single job");
    }

    /// The `AppScheduler::update` contract: a call is a step, not a query.
    /// Jobs that trained past two rungs between calls are halved once per
    /// call, so a second call with no progress in between halves again —
    /// which is why the simulator calls `update` every round, moved or not.
    #[test]
    fn update_is_not_idempotent_without_progress() {
        let specs = vec![job(0, 0.9), job(1, 0.6), job(2, 0.45), job(3, 0.3)];
        let mut progress = fresh(&specs);
        let mut hb = HyperBand::new(50.0);
        // Four observations below the first rung, then one jump to 120
        // iterations: past rungs 50 and 100 at once.
        for done in [10.0, 20.0, 30.0, 40.0, 120.0] {
            for (spec, progress) in specs.iter().zip(&mut progress) {
                progress.iterations_done = done;
                assert!(!progress.is_finished(spec));
            }
            let kill = hb.update(Time::ZERO, JobViews::new(&specs, &progress));
            if done < 120.0 {
                assert!(kill.is_empty());
                continue;
            }
            assert_eq!(kill, vec![JobId(2), JobId(3)]);
            for id in &kill {
                progress[id.index()].kill(Time::ZERO);
            }
        }
        assert_eq!(hb.next_rung, 100.0, "one rung completed");
        let frozen = progress.clone();
        let again = hb.update(Time::ZERO, JobViews::new(&specs, &progress));
        assert_eq!(progress, frozen, "no progress between the two calls");
        assert_eq!(again, vec![JobId(1)], "the survivors halve again");
        assert_eq!(hb.next_rung, 150.0, "two rungs completed");
        // Now one job is left, and further calls change nothing.
        progress[1].kill(Time::ZERO);
        let idle = hb.update(Time::ZERO, JobViews::new(&specs, &progress));
        assert!(idle.is_empty());
        assert_eq!(hb.next_rung, 150.0);
    }

    #[test]
    fn single_active_job_is_never_killed() {
        let specs = vec![job(0, 0.5)];
        let progress = fresh(&specs);
        let mut hb = HyperBand::with_defaults(1);
        for _ in 0..10 {
            let kill = hb.update(Time::ZERO, JobViews::new(&specs, &progress));
            assert!(kill.is_empty());
        }
    }
}
