//! Work-left estimation from observed loss values.
//!
//! The paper's prototype implements a profiler that parses training logs,
//! tracks `(iteration, loss)` samples, fits a best-fit curve and projects
//! the number of iterations still needed to reach the target accuracy (§7).
//! App schedulers use the projection to decide which jobs to kill, and the
//! Agent uses it as the work-left `W'` input to bid preparation.

use std::cell::OnceCell;
use themis_workload::job::{JobProgress, JobSpec};
use themis_workload::loss::{fit_power_law, LossCurve};

/// Accumulates `(iteration, loss)` observations for one job and projects the
/// remaining work by curve fitting.
///
/// The fit is a pure function of the retained samples, so it is computed on
/// first read after an observation rather than on every observation: an app
/// scheduler observes every running job every round but reads the
/// projection only when it has a decision to make.
#[derive(Debug, Clone, Default)]
pub struct WorkEstimator {
    samples: Vec<(f64, f64)>,
    /// The fit over the current `samples`; unset after each new sample.
    fitted: OnceCell<Option<LossCurve>>,
}

impl WorkEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples observed so far.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// Maximum number of retained samples; beyond this the history is
    /// thinned (every other sample dropped) so that long-running jobs do not
    /// make each curve fit progressively more expensive.
    const MAX_SAMPLES: usize = 256;

    /// Whether an observation at `iteration` would repeat the last one (a
    /// job that made no progress since the last scheduling round adds no
    /// information).
    fn is_duplicate(&self, iteration: f64) -> bool {
        self.samples
            .last()
            .is_some_and(|(last_it, _)| (iteration - last_it).abs() < 1e-9)
    }

    /// Records a loss observation at the given iteration. A repeat of the
    /// last observed iteration is dropped.
    pub fn observe(&mut self, iteration: f64, loss: f64) {
        if self.is_duplicate(iteration) {
            return;
        }
        self.samples.push((iteration, loss));
        if self.samples.len() > Self::MAX_SAMPLES {
            let mut keep_odd = false;
            self.samples.retain(|_| {
                keep_odd = !keep_odd;
                keep_odd
            });
        }
        self.fitted.take();
    }

    /// Convenience helper: samples the job's true loss curve at its current
    /// progress (what the paper's profiler would read from the training
    /// logs) and records it. The duplicate rule is checked first, so a job
    /// that did not move since its last observation costs no curve
    /// evaluation.
    pub fn observe_progress(&mut self, spec: &JobSpec, progress: &JobProgress) {
        if !self.is_duplicate(progress.iterations_done) {
            self.observe(progress.iterations_done, progress.current_loss(spec));
        }
    }

    /// The fitted curve, if enough samples have been observed.
    pub fn fitted_curve(&self) -> Option<&LossCurve> {
        self.fitted
            .get_or_init(|| {
                if self.samples.len() >= 3 {
                    fit_power_law(&self.samples)
                } else {
                    None
                }
            })
            .as_ref()
    }

    /// Projected *total* iterations needed to reach `target_loss`.
    ///
    /// Falls back to the clairvoyant spec value when no fit is available and
    /// returns `None` when the fitted curve says the target is unreachable
    /// (the job should be classified as poor).
    pub fn projected_total_iterations(&self, spec: &JobSpec) -> Option<f64> {
        match self.fitted_curve() {
            Some(curve) => curve.iterations_to_target(spec.target_loss),
            None => Some(spec.total_iterations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::JobId;
    use themis_cluster::placement::Locality;
    use themis_cluster::time::Time;
    use themis_workload::models::ModelArch;

    fn spec() -> JobSpec {
        let mut s = JobSpec::new(JobId(0), ModelArch::ResNet50, 1000.0, Time::minutes(0.1), 4);
        // A zero-floor power law so the fitting model matches exactly.
        s.loss_curve = LossCurve {
            floor: 0.0,
            scale: 2.0,
            exponent: 0.45,
        };
        s.target_loss = 2.0 * 1001.0f64.powf(-0.45);
        s
    }

    #[test]
    fn falls_back_to_clairvoyant_without_samples() {
        let spec = spec();
        let est = WorkEstimator::new();
        assert_eq!(est.projected_total_iterations(&spec), Some(1000.0));
    }

    #[test]
    fn fitting_recovers_projection_close_to_truth() {
        let spec = spec();
        let mut est = WorkEstimator::new();
        let mut progress = JobProgress::new();
        // Observe the first ~30% of training.
        for _ in 0..30 {
            progress.advance(&spec, Time::minutes(1.0), 4, Locality::Slot);
            est.observe_progress(&spec, &progress);
        }
        assert!(est.num_samples() >= 3);
        assert!(est.fitted_curve().is_some());
        let projected = est.projected_total_iterations(&spec).unwrap();
        let rel_err = (projected - spec.total_iterations).abs() / spec.total_iterations;
        assert!(
            rel_err < 0.1,
            "projected {projected} vs 1000, rel err {rel_err}"
        );
    }

    #[test]
    fn unreachable_target_projects_none() {
        let mut spec = spec();
        spec.loss_curve = LossCurve::poor();
        spec.target_loss = 0.1; // below the poor curve's floor of 0.8
        let mut est = WorkEstimator::new();
        // With no samples we fall back to clairvoyance (Some); after fitting
        // the real (never-converging, high-floor) curve the projection uses
        // the fitted zero-floor power law, which decays very slowly — the
        // key signal is a huge projected iteration count.
        let mut progress = JobProgress::new();
        for _ in 0..20 {
            progress.advance(&spec, Time::minutes(5.0), 4, Locality::Slot);
            est.observe_progress(&spec, &progress);
        }
        match est.projected_total_iterations(&spec) {
            None => {}
            Some(projected) => assert!(
                projected > 10.0 * spec.total_iterations,
                "poor job must project far more work than clairvoyant: {projected}"
            ),
        }
    }
}
