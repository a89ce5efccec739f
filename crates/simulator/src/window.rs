//! Rolling-window metrics and steady-state detection for service mode.
//!
//! A long-running open system has no "end of trace" to aggregate over; the
//! operationally meaningful quantities are windowed percentiles — what p99
//! finish-time fairness looks like *lately*, how long apps are queueing
//! *right now*. [`RollingWindow`] keeps time-stamped samples over a fixed
//! trailing width; [`ServiceWindows`] groups the windows service mode
//! maintains (ρ at retirement, queueing delay at first grant, lease-renewal
//! latency at re-grant) plus a monotone starvation audit (the maximum
//! number of consecutive scheduling rounds any app spent schedulable but
//! holding zero GPUs). [`SteadyStateDetector`] runs the warmup-discard +
//! convergence test on windowed p99 ρ that decides when a measurement
//! interval has left its transient.
//!
//! Everything here is driven by *simulated* time and recorded at discrete
//! events (retirement, grant, round), never by wall-clock sampling — so a
//! service run is exactly as deterministic as the batch engine underneath.

use std::collections::VecDeque;
use themis_cluster::time::Time;

/// Time-stamped samples over a fixed trailing window.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    width: Time,
    samples: VecDeque<(Time, f64)>,
}

impl RollingWindow {
    /// Creates an empty window of the given width. Panics on a non-positive
    /// width.
    pub fn new(width: Time) -> Self {
        assert!(width > Time::ZERO, "window width must be positive");
        RollingWindow {
            width,
            samples: VecDeque::new(),
        }
    }

    /// Records a sample at time `t`, evicting samples older than the
    /// window. Sample times must be non-decreasing (event order).
    pub fn push(&mut self, t: Time, value: f64) {
        self.samples.push_back((t, value));
        self.evict(t);
    }

    /// Drops samples that have aged out of the window as of `now`.
    pub fn evict(&mut self, now: Time) {
        let cutoff = now - self.width;
        while let Some((t, _)) = self.samples.front() {
            if *t < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The nearest-rank percentile (`p` in `[0, 100]`) over the samples
    /// currently in the window, or `None` while empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let [value] = self.percentiles([p]);
        value
    }

    /// Several nearest-rank percentiles over one sort of the window —
    /// callers snapshotting p50 and p99 together pay the clone-and-sort
    /// once instead of per percentile. `None`s while empty.
    pub fn percentiles<const N: usize>(&self, ps: [f64; N]) -> [Option<f64>; N] {
        if self.samples.is_empty() {
            return [None; N];
        }
        let mut values: Vec<f64> = self.samples.iter().map(|(_, v)| *v).collect();
        values.sort_by(|a, b| a.total_cmp(b));
        let n = values.len();
        ps.map(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            Some(values[rank.clamp(1, n) - 1])
        })
    }
}

/// A snapshot of the windowed service metrics, taken at one instant.
///
/// `None` means the corresponding window was empty (e.g. no app has
/// retired within the last window width).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// When the snapshot was taken.
    pub at: Time,
    /// Median finish-time fairness ρ over recently retired apps.
    pub p50_rho: Option<f64>,
    /// p99 finish-time fairness ρ over recently retired apps.
    pub p99_rho: Option<f64>,
    /// Median queueing delay (arrival → first GPU grant), minutes.
    pub p50_queueing_minutes: Option<f64>,
    /// p99 queueing delay, minutes.
    pub p99_queueing_minutes: Option<f64>,
    /// p99 lease-renewal latency (allocation shrink → next grant), minutes.
    pub p99_renewal_minutes: Option<f64>,
    /// Starvation audit: the maximum number of consecutive scheduling
    /// rounds any app spent schedulable with zero GPUs (post-warmup,
    /// monotone over the run).
    pub max_queue_rounds: u64,
    /// Apps retired within the current ρ window.
    pub rho_samples: usize,
}

/// The rolling windows service mode maintains, plus the starvation audit.
#[derive(Debug, Clone)]
pub struct ServiceWindows {
    rho: RollingWindow,
    queueing: RollingWindow,
    renewal: RollingWindow,
    warmup: Time,
    max_queue_rounds: u64,
}

impl ServiceWindows {
    /// Creates the windows with a shared width. Samples recorded before
    /// `warmup` never count toward the starvation audit (the windows
    /// themselves age transient samples out naturally).
    pub fn new(width: Time, warmup: Time) -> Self {
        ServiceWindows {
            rho: RollingWindow::new(width),
            queueing: RollingWindow::new(width),
            renewal: RollingWindow::new(width),
            warmup,
            max_queue_rounds: 0,
        }
    }

    /// Records a retired app's achieved ρ.
    pub fn record_rho(&mut self, t: Time, rho: f64) {
        self.rho.push(t, rho);
    }

    /// Records a queueing delay (arrival → first grant), in minutes.
    pub fn record_queueing(&mut self, t: Time, minutes: f64) {
        self.queueing.push(t, minutes);
    }

    /// Records a lease-renewal latency (shrink → re-grant), in minutes.
    pub fn record_renewal(&mut self, t: Time, minutes: f64) {
        self.renewal.push(t, minutes);
    }

    /// Feeds one app's current consecutive zero-GPU round count into the
    /// starvation audit (ignored during warmup).
    pub fn note_queue_rounds(&mut self, t: Time, rounds: u64) {
        if t >= self.warmup && rounds > self.max_queue_rounds {
            self.max_queue_rounds = rounds;
        }
    }

    /// Read access to the ρ window (the steady-state detector's input).
    pub fn rho_window(&self) -> &RollingWindow {
        &self.rho
    }

    /// Snapshots every windowed metric at `now`, sorting each window at
    /// most once.
    pub fn summary(&mut self, now: Time) -> WindowSummary {
        self.rho.evict(now);
        self.queueing.evict(now);
        self.renewal.evict(now);
        let [p50_rho, p99_rho] = self.rho.percentiles([50.0, 99.0]);
        let [p50_queueing_minutes, p99_queueing_minutes] = self.queueing.percentiles([50.0, 99.0]);
        WindowSummary {
            at: now,
            p50_rho,
            p99_rho,
            p50_queueing_minutes,
            p99_queueing_minutes,
            p99_renewal_minutes: self.renewal.percentile(99.0),
            max_queue_rounds: self.max_queue_rounds,
            rho_samples: self.rho.len(),
        }
    }
}

/// Configuration of the steady-state convergence test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyConfig {
    /// Simulated time discarded before the first check.
    pub warmup: Time,
    /// Gap between convergence checks.
    pub check_interval: Time,
    /// Minimum ρ samples the window must hold for a check to count.
    pub min_samples: usize,
    /// Relative band around the median of the recent p99 values within
    /// which a check reads as stable.
    pub tolerance: f64,
    /// Number of consecutive stable checks required to declare steady
    /// state.
    pub consecutive: usize,
    /// Maximum backlog swing (waiting-app count, max − min) across those
    /// checks: an arrival storm inflates the backlog faster than it moves
    /// windowed ρ, so this is what keeps a flash crowd from reading as
    /// steady.
    pub backlog_slack: usize,
}

/// Warmup discard + rolling-window convergence test on p99 ρ.
///
/// Driven at observation points (service mode calls
/// [`observe`](SteadyStateDetector::observe) after every round): once past
/// warmup, every `check_interval` of simulated time it snapshots windowed
/// p99 ρ and the current backlog. Steady state is declared at the first
/// instant the last `consecutive` snapshots sit inside the relative
/// `tolerance` band around their median *and* the backlog has not swung by
/// more than `backlog_slack` — so a stationary process converges and an
/// arrival storm (growing backlog, moving p99) does not.
#[derive(Debug, Clone)]
pub struct SteadyStateDetector {
    config: SteadyConfig,
    next_check: Time,
    recent: VecDeque<(f64, usize)>,
    converged_at: Option<Time>,
}

impl SteadyStateDetector {
    /// Creates a detector; the first check happens at `warmup`.
    pub fn new(config: SteadyConfig) -> Self {
        assert!(
            config.check_interval > Time::ZERO,
            "check interval must be positive"
        );
        assert!(config.consecutive >= 2, "need at least two checks");
        SteadyStateDetector {
            next_check: config.warmup,
            config,
            recent: VecDeque::new(),
            converged_at: None,
        }
    }

    /// Feeds one observation point. `backlog` is the number of schedulable
    /// apps currently holding zero GPUs.
    pub fn observe(&mut self, now: Time, rho_window: &RollingWindow, backlog: usize) {
        if self.converged_at.is_some() || now < self.next_check {
            return;
        }
        // Advance to the next grid point `warmup + k·check_interval`
        // strictly after `now`. Setting `next_check = now + interval`
        // instead would let sparse or bursty observations drift the check
        // grid, delaying every later check by the observation gap.
        while self.next_check <= now {
            self.next_check += self.config.check_interval;
        }
        // Cheap cardinality guard first: sorting the window for p99 is
        // pointless while it cannot hold enough samples to count.
        if rho_window.len() < self.config.min_samples {
            self.recent.clear();
            return;
        }
        let Some(p99) = rho_window.percentile(99.0) else {
            self.recent.clear();
            return;
        };
        self.recent.push_back((p99, backlog));
        while self.recent.len() > self.config.consecutive {
            self.recent.pop_front();
        }
        if self.recent.len() < self.config.consecutive {
            return;
        }
        let mut p99s: Vec<f64> = self.recent.iter().map(|(p, _)| *p).collect();
        p99s.sort_by(|a, b| a.total_cmp(b));
        let median = p99s[p99s.len() / 2];
        let band = self.config.tolerance * median.max(1e-9);
        let rho_stable = p99s.iter().all(|p| (p - median).abs() <= band);
        let backlog_min = self.recent.iter().map(|(_, b)| *b).min().unwrap_or(0);
        let backlog_max = self.recent.iter().map(|(_, b)| *b).max().unwrap_or(0);
        let backlog_stable = backlog_max - backlog_min <= self.config.backlog_slack;
        if rho_stable && backlog_stable {
            self.converged_at = Some(now);
        }
    }

    /// The simulated time steady state was declared, if it has been.
    pub fn converged_at(&self) -> Option<Time> {
        self.converged_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_over_the_window() {
        let mut w = RollingWindow::new(Time::minutes(100.0));
        for i in 1..=100 {
            w.push(Time::minutes(i as f64 / 2.0), i as f64);
        }
        assert_eq!(w.len(), 100);
        assert_eq!(w.percentile(50.0), Some(50.0));
        assert_eq!(w.percentile(99.0), Some(99.0));
        assert_eq!(w.percentile(100.0), Some(100.0));
        assert_eq!(w.percentile(0.0), Some(1.0));
    }

    #[test]
    fn batched_percentiles_match_single_calls() {
        let mut w = RollingWindow::new(Time::minutes(1_000.0));
        // An adversarial-ish series: duplicates, negatives, non-monotone.
        for (i, v) in [3.0, -1.0, 3.0, 7.5, 0.0, 12.0, 7.5, 2.25]
            .iter()
            .enumerate()
        {
            w.push(Time::minutes(i as f64), *v);
        }
        let [p50, p99] = w.percentiles([50.0, 99.0]);
        assert_eq!(p50, w.percentile(50.0));
        assert_eq!(p99, w.percentile(99.0));
        assert_eq!(w.percentiles([0.0, 100.0]), [Some(-1.0), Some(12.0)]);
        let empty = RollingWindow::new(Time::minutes(1.0));
        assert_eq!(empty.percentiles([50.0, 99.0]), [None, None]);
    }

    #[test]
    fn old_samples_age_out() {
        let mut w = RollingWindow::new(Time::minutes(10.0));
        w.push(Time::minutes(0.0), 1000.0);
        w.push(Time::minutes(5.0), 2.0);
        w.push(Time::minutes(11.0), 4.0);
        // The t=0 sample is older than 11 − 10 and must be gone.
        assert_eq!(w.len(), 2);
        assert_eq!(w.percentile(100.0), Some(4.0));
        w.evict(Time::minutes(100.0));
        assert!(w.is_empty());
        assert_eq!(w.percentile(50.0), None);
    }

    #[test]
    fn starvation_audit_ignores_warmup_and_is_monotone() {
        let mut sw = ServiceWindows::new(Time::minutes(100.0), Time::minutes(50.0));
        sw.note_queue_rounds(Time::minutes(10.0), 99);
        assert_eq!(sw.summary(Time::minutes(10.0)).max_queue_rounds, 0);
        sw.note_queue_rounds(Time::minutes(60.0), 5);
        sw.note_queue_rounds(Time::minutes(70.0), 3);
        assert_eq!(sw.summary(Time::minutes(70.0)).max_queue_rounds, 5);
    }

    #[test]
    fn detector_converges_on_flat_p99_and_not_on_growing_backlog() {
        let config = SteadyConfig {
            warmup: Time::minutes(100.0),
            check_interval: Time::minutes(100.0),
            min_samples: 5,
            tolerance: 0.2,
            consecutive: 3,
            backlog_slack: 2,
        };
        // Flat ρ, flat backlog: converges after `consecutive` checks.
        let mut flat = SteadyStateDetector::new(config);
        let mut w = RollingWindow::new(Time::minutes(1_000.0));
        for i in 0..20 {
            let t = Time::minutes(100.0 * i as f64);
            w.push(t, 2.0);
            flat.observe(t, &w, 1);
        }
        let converged = flat.converged_at().expect("flat series must converge");
        assert!(converged <= Time::minutes(1_000.0));

        // Same flat ρ but a backlog ramp (an arrival storm): never steady.
        let mut storm = SteadyStateDetector::new(config);
        let mut w = RollingWindow::new(Time::minutes(1_000.0));
        for i in 0..20 {
            let t = Time::minutes(100.0 * i as f64);
            w.push(t, 2.0);
            storm.observe(t, &w, 3 * i as usize);
        }
        assert_eq!(storm.converged_at(), None);
    }

    #[test]
    fn sparse_observations_do_not_drift_the_check_grid() {
        let config = SteadyConfig {
            warmup: Time::minutes(100.0),
            check_interval: Time::minutes(100.0),
            min_samples: 1,
            tolerance: 0.2,
            consecutive: 2,
            backlog_slack: 2,
        };
        let mut d = SteadyStateDetector::new(config);
        let mut w = RollingWindow::new(Time::minutes(10_000.0));
        w.push(Time::ZERO, 2.0);
        // First observation lands mid-interval at t=250 (checks due at
        // 100, 200, 300, ...). The next check must stay on the grid at
        // t=300 — a drifting detector would push it to t=350 and miss the
        // t=320 observation below.
        d.observe(Time::minutes(250.0), &w, 1);
        assert_eq!(d.converged_at(), None, "one check cannot converge");
        d.observe(Time::minutes(320.0), &w, 1);
        assert_eq!(
            d.converged_at(),
            Some(Time::minutes(320.0)),
            "the t=320 observation is past the t=300 grid point and must \
             count as the second consecutive stable check"
        );
    }

    #[test]
    fn detector_requires_enough_samples() {
        let config = SteadyConfig {
            warmup: Time::ZERO,
            check_interval: Time::minutes(10.0),
            min_samples: 50,
            tolerance: 0.25,
            consecutive: 2,
            backlog_slack: 4,
        };
        let mut d = SteadyStateDetector::new(config);
        let mut w = RollingWindow::new(Time::minutes(1_000.0));
        for i in 0..30 {
            let t = Time::minutes(10.0 * i as f64);
            w.push(t, 1.0);
            d.observe(t, &w, 0);
        }
        assert_eq!(d.converged_at(), None, "window never reached min_samples");
    }
}
