//! Jobs: a single hyper-parameter configuration trained with synchronous SGD.
//!
//! A job's constituent work is performed by parallel tasks that each process
//! a subset of the minibatch and synchronize model updates every iteration
//! (§2.1). For scheduling purposes the paper reduces a job to:
//!
//! * its **total work** `W` (GPU-hours of serial computation),
//! * its **work left** `W'`,
//! * its **max parallelism** (the upper limit on tasks / GPUs it can use),
//! * its **placement sensitivity** `S`,
//!
//! and models the running time with `G` GPUs as
//! `time = serial_time / (G · S(placement))`. [`JobSpec`] holds the static
//! description and [`JobProgress`] the mutable training state.

use crate::loss::LossCurve;
use crate::models::ModelArch;
use crate::sensitivity::PlacementSensitivity;
use themis_cluster::ids::JobId;
use themis_cluster::placement::Locality;
use themis_cluster::time::Time;

/// Static description of one ML training job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job identifier (unique within the app).
    pub id: JobId,
    /// Architecture being trained; determines the placement sensitivity.
    pub model: ModelArch,
    /// Total number of SGD iterations needed to reach the target accuracy
    /// with these hyper-parameters (assumed clairvoyant, as in the paper's
    /// simulations §8.1).
    pub total_iterations: f64,
    /// Wall-clock time of one iteration on a single GPU.
    pub serial_iter_time: Time,
    /// Maximum number of GPUs the job can use productively
    /// (`G_ideal` in the paper; equals the number of tasks).
    pub max_parallelism: usize,
    /// GPUs required per task (most tasks in the trace need 4, some 2).
    pub gpus_per_task: usize,
    /// The loss curve observed as the job trains.
    pub loss_curve: LossCurve,
    /// Target loss at which the job is considered converged.
    pub target_loss: f64,
}

impl JobSpec {
    /// Convenience constructor with a typical loss curve and a target the
    /// curve can reach.
    pub fn new(
        id: JobId,
        model: ModelArch,
        total_iterations: f64,
        serial_iter_time: Time,
        max_parallelism: usize,
    ) -> Self {
        JobSpec {
            id,
            model,
            total_iterations,
            serial_iter_time,
            max_parallelism,
            gpus_per_task: 1,
            loss_curve: LossCurve::typical(),
            target_loss: 0.1,
        }
    }

    /// The job's placement-sensitivity profile (taken from its model).
    pub fn sensitivity(&self) -> PlacementSensitivity {
        self.model.sensitivity()
    }

    /// Total work `W`: GPU-minutes of serial computation for the whole job.
    pub fn total_work(&self) -> Time {
        self.serial_iter_time * self.total_iterations
    }

    /// Ideal (dedicated-cluster) running time: max parallelism and perfect
    /// placement.
    pub fn ideal_time(&self) -> Time {
        self.time_for_work(self.total_work(), self.max_parallelism, Locality::Slot)
    }

    /// Training throughput in iterations per minute with `gpus` GPUs placed
    /// at `locality`. Parallelism above `max_parallelism` is wasted.
    /// Uniform-speed view of
    /// [`iterations_per_minute_weighted`](Self::iterations_per_minute_weighted).
    pub fn iterations_per_minute(&self, gpus: usize, locality: Locality) -> f64 {
        let usable = gpus.min(self.max_parallelism);
        self.iterations_per_minute_weighted(gpus, usable as f64, locality)
    }

    /// Training throughput with a *mixed-generation* allocation: `gpus`
    /// GPUs held, of which the `min(gpus, max_parallelism)` fastest have
    /// aggregate speed `usable_speed` (see
    /// `ClusterSpec::capped_speed`). The rate is
    /// `G_eff / serial_iter_time` with `G_eff = Σ speed_i × S(placement)`.
    pub fn iterations_per_minute_weighted(
        &self,
        gpus: usize,
        usable_speed: f64,
        locality: Locality,
    ) -> f64 {
        let usable = gpus.min(self.max_parallelism);
        let speedup = self
            .sensitivity()
            .effective_speedup_weighted(usable, usable_speed, locality);
        if speedup <= 0.0 || self.serial_iter_time <= Time::ZERO {
            return 0.0;
        }
        speedup / self.serial_iter_time.as_minutes()
    }

    /// Time needed to finish `work` GPU-minutes of serial work with `gpus`
    /// GPUs placed at `locality`. Returns [`Time::INFINITY`] for zero GPUs.
    /// Uniform-speed view of
    /// [`time_for_work_weighted`](Self::time_for_work_weighted).
    pub fn time_for_work(&self, work: Time, gpus: usize, locality: Locality) -> Time {
        let usable = gpus.min(self.max_parallelism);
        self.time_for_work_weighted(work, gpus, usable as f64, locality)
    }

    /// Time needed to finish `work` with a mixed-generation allocation
    /// (`usable_speed` as in
    /// [`iterations_per_minute_weighted`](Self::iterations_per_minute_weighted)).
    /// Returns [`Time::INFINITY`] when the allocation has no throughput.
    pub fn time_for_work_weighted(
        &self,
        work: Time,
        gpus: usize,
        usable_speed: f64,
        locality: Locality,
    ) -> Time {
        let usable = gpus.min(self.max_parallelism);
        let speedup = self
            .sensitivity()
            .effective_speedup_weighted(usable, usable_speed, locality);
        if speedup <= 0.0 {
            return Time::INFINITY;
        }
        Time::minutes(work.as_minutes() / speedup)
    }
}

/// Mutable training state of a job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobProgress {
    /// Iterations completed so far (fractional: the simulator advances
    /// continuously).
    pub iterations_done: f64,
    /// Accumulated GPU time (GPU-minutes actually consumed, i.e. the
    /// paper's "GPU Time" efficiency metric contribution).
    pub gpu_time: Time,
    /// Whether the job was killed early by its app scheduler (HyperBand
    /// ranked it in the bottom half at a rung).
    pub killed: bool,
    /// Time at which the job finished (converged or was killed).
    pub finished_at: Option<Time>,
}

impl JobProgress {
    /// A fresh, unstarted job.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the job has trained to completion (not counting kills).
    pub fn is_converged(&self, spec: &JobSpec) -> bool {
        self.iterations_done >= spec.total_iterations
    }

    /// Whether the job is finished for scheduling purposes (converged or
    /// killed).
    pub fn is_finished(&self, spec: &JobSpec) -> bool {
        self.killed || self.is_converged(spec)
    }

    /// Iterations still to run (zero when finished).
    pub fn iterations_left(&self, spec: &JobSpec) -> f64 {
        if self.killed {
            0.0
        } else {
            (spec.total_iterations - self.iterations_done).max(0.0)
        }
    }

    /// Work left `W'` in GPU-minutes of serial computation.
    pub fn work_left(&self, spec: &JobSpec) -> Time {
        spec.serial_iter_time * self.iterations_left(spec)
    }

    /// Current loss value according to the job's loss curve.
    pub fn current_loss(&self, spec: &JobSpec) -> f64 {
        spec.loss_curve.loss_at(self.iterations_done)
    }

    /// Advances training by `dt` of wall-clock time using `gpus` GPUs placed
    /// at `locality`. Accumulates GPU time and returns the number of
    /// iterations completed during this interval. Uniform-speed view of
    /// [`advance_weighted`](Self::advance_weighted).
    pub fn advance(&mut self, spec: &JobSpec, dt: Time, gpus: usize, locality: Locality) -> f64 {
        let usable = gpus.min(spec.max_parallelism);
        self.advance_weighted(spec, dt, gpus, usable as f64, locality)
    }

    /// Advances training with a mixed-generation allocation: `gpus` GPUs
    /// held, whose `min(gpus, max_parallelism)` fastest have aggregate
    /// speed `usable_speed`. GPU time accrues on *all* held GPUs (the
    /// paper's "GPU Time" efficiency metric counts physical GPU-minutes,
    /// not speed-weighted ones); training progress accrues at the
    /// speed-weighted effective rate.
    pub fn advance_weighted(
        &mut self,
        spec: &JobSpec,
        dt: Time,
        gpus: usize,
        usable_speed: f64,
        locality: Locality,
    ) -> f64 {
        if self.is_finished(spec) || gpus == 0 || dt <= Time::ZERO {
            return 0.0;
        }
        let rate = spec.iterations_per_minute_weighted(gpus, usable_speed, locality);
        let possible = rate * dt.as_minutes();
        let remaining = self.iterations_left(spec);
        // Snap to completion when within floating-point noise of the target
        // so projected-finish events land the job exactly at convergence.
        let done = if possible + 1e-9 >= remaining {
            remaining
        } else {
            possible
        };
        self.iterations_done += done;
        // GPU time accrues on all held GPUs for the full interval the job ran.
        let active_fraction = if possible > 0.0 {
            (done / possible).min(1.0)
        } else {
            0.0
        };
        self.gpu_time += Time::minutes(dt.as_minutes() * gpus as f64 * active_fraction);
        done
    }

    /// Remaining running time with a mixed-generation allocation
    /// (`usable_speed` as in [`JobSpec::iterations_per_minute_weighted`]).
    /// Must be kept symmetric with
    /// [`advance_weighted`](Self::advance_weighted) — the engine projects
    /// finish events with this and then advances to them.
    pub fn time_to_complete_weighted(
        &self,
        spec: &JobSpec,
        gpus: usize,
        usable_speed: f64,
        locality: Locality,
    ) -> Time {
        if self.is_finished(spec) {
            return Time::ZERO;
        }
        spec.time_for_work_weighted(self.work_left(spec), gpus, usable_speed, locality)
    }

    /// Marks the job as killed by its app scheduler at `now`.
    pub fn kill(&mut self, now: Time) {
        if self.finished_at.is_none() {
            self.killed = true;
            self.finished_at = Some(now);
        }
    }

    /// Marks the job as having completed at `now` (idempotent).
    pub fn mark_finished(&mut self, now: Time) {
        if self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::JobId;

    fn spec() -> JobSpec {
        // 1000 iterations, 0.1 min/iteration serially, up to 4 GPUs.
        JobSpec::new(JobId(0), ModelArch::ResNet50, 1000.0, Time::minutes(0.1), 4)
    }

    #[test]
    fn total_and_ideal_work() {
        let s = spec();
        assert_eq!(s.total_work(), Time::minutes(100.0));
        // ResNet50 at slot locality: ideal time = 100 / 4 = 25 min.
        assert_eq!(s.ideal_time(), Time::minutes(25.0));
    }

    #[test]
    fn parallelism_is_capped_at_max() {
        let s = spec();
        let rate4 = s.iterations_per_minute(4, Locality::Slot);
        let rate16 = s.iterations_per_minute(16, Locality::Slot);
        assert_eq!(
            rate4, rate16,
            "extra GPUs beyond max_parallelism are wasted"
        );
    }

    #[test]
    fn placement_slows_down_sensitive_models() {
        let mut s = spec();
        s.model = ModelArch::Vgg16;
        let local = s.time_for_work(s.total_work(), 4, Locality::Machine);
        let spread = s.time_for_work(s.total_work(), 4, Locality::CrossRack);
        assert!(
            spread > local * 2.0,
            "VGG16 across racks should be >2x slower"
        );
    }

    #[test]
    fn zero_gpus_means_no_progress() {
        let s = spec();
        let mut p = JobProgress::new();
        assert_eq!(p.advance(&s, Time::minutes(10.0), 0, Locality::Slot), 0.0);
        assert_eq!(
            s.time_for_work(s.total_work(), 0, Locality::Slot),
            Time::INFINITY
        );
        assert_eq!(p.iterations_done, 0.0);
    }

    #[test]
    fn advance_accumulates_iterations_and_gpu_time() {
        let s = spec();
        let mut p = JobProgress::new();
        // 4 GPUs at slot locality: 40 iterations per minute.
        let done = p.advance(&s, Time::minutes(10.0), 4, Locality::Slot);
        assert!((done - 400.0).abs() < 1e-9);
        assert!((p.gpu_time.as_minutes() - 40.0).abs() < 1e-9);
        assert!(!p.is_converged(&s));
        // Run long enough to converge; progress is clamped at the total.
        p.advance(&s, Time::minutes(100.0), 4, Locality::Slot);
        assert!(p.is_converged(&s));
        assert_eq!(p.iterations_left(&s), 0.0);
        // GPU time only accrues while there was work to do (15 min total at 4 GPUs = 60).
        assert!((p.gpu_time.as_minutes() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn time_to_complete_matches_advance() {
        let s = spec();
        let mut p = JobProgress::new();
        p.advance(&s, Time::minutes(5.0), 2, Locality::Machine);
        let t = p.time_to_complete_weighted(&s, 4, 4.0, Locality::Slot);
        let mut q = p.clone();
        q.advance(&s, t, 4, Locality::Slot);
        assert!(q.is_converged(&s));
        // And just before that time it is not yet converged.
        let mut r = p.clone();
        r.advance(&s, t * 0.99, 4, Locality::Slot);
        assert!(!r.is_converged(&s));
    }

    #[test]
    fn weighted_progress_matches_speed_factor() {
        let s = spec();
        // Two GPUs of speed 2.0 each: twice the iterations of two reference
        // GPUs over the same interval, while physical GPU time is unchanged.
        let mut fast = JobProgress::new();
        let mut reference = JobProgress::new();
        let done_fast = fast.advance_weighted(&s, Time::minutes(5.0), 2, 4.0, Locality::Slot);
        let done_ref = reference.advance(&s, Time::minutes(5.0), 2, Locality::Slot);
        assert!((done_fast - 2.0 * done_ref).abs() < 1e-9);
        assert_eq!(fast.gpu_time, reference.gpu_time);
        // The weighted completion estimate stays symmetric with advance.
        let eta = fast.time_to_complete_weighted(&s, 2, 4.0, Locality::Slot);
        let mut replay = fast.clone();
        replay.advance_weighted(&s, eta, 2, 4.0, Locality::Slot);
        assert!(replay.is_converged(&s));
        // Unit-speed weighted calls are bit-identical to the unweighted API.
        let mut a = JobProgress::new();
        let mut b = JobProgress::new();
        a.advance(&s, Time::minutes(3.0), 4, Locality::Machine);
        b.advance_weighted(&s, Time::minutes(3.0), 4, 4.0, Locality::Machine);
        assert_eq!(a, b);
    }

    #[test]
    fn kill_finishes_job_without_converging() {
        let s = spec();
        let mut p = JobProgress::new();
        p.advance(&s, Time::minutes(1.0), 1, Locality::Slot);
        p.kill(Time::minutes(1.0));
        assert!(p.is_finished(&s));
        assert!(!p.is_converged(&s));
        assert_eq!(p.iterations_left(&s), 0.0);
        assert_eq!(p.work_left(&s), Time::ZERO);
        assert_eq!(p.finished_at, Some(Time::minutes(1.0)));
    }

    #[test]
    fn current_loss_decreases_with_progress() {
        let s = spec();
        let mut p = JobProgress::new();
        let l0 = p.current_loss(&s);
        p.advance(&s, Time::minutes(10.0), 4, Locality::Slot);
        assert!(p.current_loss(&s) < l0);
    }
}
