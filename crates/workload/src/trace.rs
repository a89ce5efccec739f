//! Synthetic enterprise trace generator.
//!
//! The paper replays a production trace from "a large internet company"
//! (§8.1) that cannot be redistributed. This module generates a synthetic
//! trace matched to every statistic the paper reports about it:
//!
//! * the number of hyper-parameter exploration jobs per app varies from 1 to
//!   98 with a median of 23,
//! * most jobs need 4 GPUs, a few need 2,
//! * job durations have a 59-minute median with a long tail (Figure 1 shows
//!   task durations stretching beyond 1000 minutes),
//! * app arrivals are Poisson with a mean inter-arrival time of 20 minutes,
//! * the workload is a 60:40 mixture of placement-insensitive (ResNet-like)
//!   and placement-sensitive (VGG-like) apps.
//!
//! The generator is fully deterministic given a seed, so every figure the
//! `figures` binary prints can be regenerated exactly.

use crate::app::AppSpec;
use crate::distributions::{quantile, sample_exponential, sample_lognormal_median, Discrete};
use crate::job::JobSpec;
use crate::loss::LossCurve;
use crate::models::ModelArch;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use themis_cluster::ids::{AppId, JobId};
use themis_cluster::time::Time;

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of apps to generate.
    pub num_apps: usize,
    /// Mean inter-arrival time between apps (Poisson process).
    pub mean_interarrival: Time,
    /// Fraction of apps that train network-intensive (placement-sensitive)
    /// models. The paper uses 0.4.
    pub network_intensive_fraction: f64,
    /// Median number of jobs per app (paper: 23).
    pub median_jobs_per_app: f64,
    /// Maximum number of jobs per app (paper: 98).
    pub max_jobs_per_app: usize,
    /// Median job duration at full parallelism (paper: 59 minutes).
    pub median_job_duration: Time,
    /// Log-normal shape parameter for job durations; larger values produce
    /// a longer tail.
    pub duration_sigma: f64,
    /// Multiplier applied to all durations (the paper scales durations down
    /// by 5x for its 50-GPU testbed experiments).
    pub duration_scale: f64,
    /// Probability that a job requires 4 GPUs (the remainder require 2).
    pub four_gpu_fraction: f64,
    /// Fraction of apps that arrive in a *burst*: their inter-arrival gap is
    /// divided by [`TraceConfig::burst_factor`]. Zero (the default) disables
    /// burstiness and leaves the arrival process exactly Poisson — and, by
    /// construction, leaves the RNG stream untouched, so existing pinned
    /// seeds keep producing the exact same traces.
    pub burst_fraction: f64,
    /// How much a bursty arrival compresses its inter-arrival gap (≥ 1).
    /// Only consulted when [`TraceConfig::burst_fraction`] is positive.
    pub burst_factor: f64,
    /// Fraction of jobs that demand 8 GPUs — a *heavy* heterogeneous tail on
    /// top of the paper's 4/2-GPU mix. Zero (the default) reproduces the
    /// paper's workload byte-for-byte.
    pub heavy_job_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            num_apps: 100,
            mean_interarrival: Time::minutes(20.0),
            network_intensive_fraction: 0.4,
            median_jobs_per_app: 23.0,
            max_jobs_per_app: 98,
            median_job_duration: Time::minutes(59.0),
            duration_sigma: 0.9,
            duration_scale: 1.0,
            four_gpu_fraction: 0.8,
            burst_fraction: 0.0,
            burst_factor: 8.0,
            heavy_job_fraction: 0.0,
            seed: 42,
        }
    }
}

impl TraceConfig {
    /// The configuration used for the paper's 50-GPU testbed macro-benchmarks:
    /// durations scaled down by 5x, same inter-arrival distribution (§8.3).
    pub fn testbed() -> Self {
        TraceConfig {
            duration_scale: 0.2,
            ..Default::default()
        }
    }

    /// Adjusts contention by scaling the mean inter-arrival time down by
    /// `factor` (the paper's §8.4.2 "factor of contention": 2x contention =
    /// half the inter-arrival time).
    pub fn with_contention(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.mean_interarrival = self.mean_interarrival / factor;
        self
    }

    /// Sets the fraction of network-intensive apps (§8.4.1 sweeps 0..100%).
    pub fn with_network_intensive_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.network_intensive_fraction = fraction;
        self
    }

    /// Sets the number of apps.
    pub fn with_num_apps(mut self, num_apps: usize) -> Self {
        self.num_apps = num_apps;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes `fraction` of the apps arrive in bursts whose inter-arrival
    /// gap is divided by `factor` (scenario-matrix "bursty" knob).
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]` or `factor < 1`.
    pub fn with_burstiness(mut self, fraction: f64, factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "burst fraction must be in [0, 1]"
        );
        assert!(factor >= 1.0, "burst factor must be >= 1");
        self.burst_fraction = fraction;
        self.burst_factor = factor;
        self
    }

    /// Makes `fraction` of the jobs demand 8 GPUs (scenario-matrix
    /// "heterogeneous demand" knob).
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn with_heavy_job_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "heavy-job fraction must be in [0, 1]"
        );
        self.heavy_job_fraction = fraction;
        self
    }
}

/// Deterministic synthetic trace generator.
#[derive(Debug)]
pub struct TraceGenerator {
    config: TraceConfig,
    rng: SmallRng,
}

impl TraceGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: TraceConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        TraceGenerator { config, rng }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Generates the whole trace: a list of apps sorted by arrival time.
    pub fn generate(&mut self) -> Vec<AppSpec> {
        let mut apps = Vec::with_capacity(self.config.num_apps);
        let mut arrival = Time::ZERO;
        for app_idx in 0..self.config.num_apps {
            arrival += self.sample_interarrival();
            apps.push(self.generate_app(AppId(app_idx as u32), arrival));
        }
        apps
    }

    /// Draws the next inter-arrival gap — exactly the per-app draws
    /// [`generate`](TraceGenerator::generate) makes — so a streaming caller
    /// ([`TraceStream`](crate::stream::TraceStream)) consumes the same RNG
    /// stream as a batch trace and produces an identical app prefix.
    pub fn sample_interarrival(&mut self) -> Time {
        // The burst draw only happens when burstiness is enabled, so the
        // default configuration consumes the same RNG stream as before the
        // knob existed (pinned seeds stay pinned).
        let mut mean = self.config.mean_interarrival.as_minutes();
        if self.config.burst_fraction > 0.0 && self.rng.gen::<f64>() < self.config.burst_fraction {
            mean /= self.config.burst_factor.max(1.0);
        }
        Time::minutes(sample_exponential(&mut self.rng, mean))
    }

    /// Generates a single app arriving at `arrival`.
    pub fn generate_app(&mut self, id: AppId, arrival: Time) -> AppSpec {
        let network_intensive = self.rng.gen::<f64>() < self.config.network_intensive_fraction;
        let model = self.pick_model(network_intensive);
        let num_jobs = self.sample_num_jobs();
        // With a heavy-job tail the 4/2-GPU mix is rescaled to make room;
        // either way a sample consumes exactly one uniform draw, so
        // `heavy_job_fraction = 0` reproduces the paper's workload exactly.
        let heavy = self.config.heavy_job_fraction;
        let gpu_dist = if heavy > 0.0 {
            Discrete::new([
                (8usize, heavy),
                (4usize, (1.0 - heavy) * self.config.four_gpu_fraction),
                (
                    2usize,
                    (1.0 - heavy) * (1.0 - self.config.four_gpu_fraction),
                ),
            ])
        } else {
            Discrete::new([
                (4usize, self.config.four_gpu_fraction),
                (2usize, 1.0 - self.config.four_gpu_fraction),
            ])
        };
        let jobs: Vec<JobSpec> = (0..num_jobs)
            .map(|job_idx| {
                let gpus = gpu_dist.sample(&mut self.rng);
                let duration = self.sample_duration();
                self.make_job(JobId(job_idx as u32), model, duration, gpus)
            })
            .collect();
        AppSpec::new(id, arrival, jobs)
    }

    fn pick_model(&mut self, network_intensive: bool) -> ModelArch {
        let pool = if network_intensive {
            ModelArch::network_intensive_pool()
        } else {
            ModelArch::compute_intensive_pool()
        };
        pool[self.rng.gen_range(0..pool.len())]
    }

    fn sample_num_jobs(&mut self) -> usize {
        let raw = sample_lognormal_median(&mut self.rng, self.config.median_jobs_per_app, 1.0);
        (raw.round() as usize).clamp(1, self.config.max_jobs_per_app)
    }

    fn sample_duration(&mut self) -> Time {
        let raw = sample_lognormal_median(
            &mut self.rng,
            self.config.median_job_duration.as_minutes(),
            self.config.duration_sigma,
        );
        Time::minutes((raw * self.config.duration_scale).max(1.0))
    }

    /// Builds a job whose *ideal* running time (max parallelism, perfect
    /// placement) equals `duration`.
    fn make_job(&mut self, id: JobId, model: ModelArch, duration: Time, gpus: usize) -> JobSpec {
        // Choose an iteration count proportional to the duration so that
        // iteration granularity stays roughly constant, then derive the
        // serial iteration time so ideal_time == duration.
        let total_iterations = (duration.as_minutes() * 2.0).max(10.0).round();
        let serial_iter_time =
            Time::minutes(duration.as_minutes() * gpus as f64 / total_iterations);
        // A loss curve consistent with the clairvoyant iteration count: it
        // reaches the target loss exactly at `total_iterations`.
        let target_loss = 0.1f64;
        let floor = 0.05f64;
        let scale = 2.0f64;
        let exponent = (scale / (target_loss - floor)).ln() / (total_iterations + 1.0).ln();
        JobSpec {
            id,
            model,
            total_iterations,
            serial_iter_time,
            max_parallelism: gpus,
            gpus_per_task: gpus,
            loss_curve: LossCurve::PowerLaw {
                floor,
                scale,
                exponent,
            },
            target_loss,
        }
    }
}

/// Builds the two-app micro-trace used for the paper's Figure 8: two
/// single-job apps with equal placement sensitivity whose running times
/// differ by 3x, both arriving at t = 40 minutes.
pub fn two_app_micro_trace() -> Vec<AppSpec> {
    let arrival = Time::minutes(40.0);
    let short_job = JobSpec::new(
        JobId(0),
        ModelArch::InceptionV3,
        240.0,
        Time::minutes(0.5),
        4,
    );
    let long_job = JobSpec::new(
        JobId(0),
        ModelArch::InceptionV3,
        720.0,
        Time::minutes(0.5),
        4,
    );
    vec![
        AppSpec::single_job(AppId(0), arrival, short_job),
        AppSpec::single_job(AppId(1), arrival, long_job),
    ]
}

/// Summary statistics of a trace, used to regenerate Figure 1 and to verify
/// the generator matches the paper's reported numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of apps in the trace.
    pub num_apps: usize,
    /// Total number of jobs across apps.
    pub num_jobs: usize,
    /// Median number of jobs per app.
    pub median_jobs_per_app: f64,
    /// Median ideal job duration (minutes).
    pub median_job_duration: f64,
    /// 95th-percentile ideal job duration (minutes).
    pub p95_job_duration: f64,
    /// Fraction of apps that are network intensive.
    pub network_intensive_fraction: f64,
    /// Fraction of jobs requiring 4 GPUs.
    pub four_gpu_fraction: f64,
}

impl TraceStats {
    /// Computes statistics over a trace.
    pub fn compute(apps: &[AppSpec]) -> TraceStats {
        let num_apps = apps.len();
        let jobs_per_app: Vec<f64> = apps.iter().map(|a| a.num_jobs() as f64).collect();
        let durations: Vec<f64> = apps
            .iter()
            .flat_map(|a| a.jobs.iter().map(|j| j.ideal_time().as_minutes()))
            .collect();
        let num_jobs = durations.len();
        let four_gpu = apps
            .iter()
            .flat_map(|a| a.jobs.iter())
            .filter(|j| j.max_parallelism >= 4)
            .count();
        let net = apps.iter().filter(|a| a.is_network_intensive()).count();
        TraceStats {
            num_apps,
            num_jobs,
            median_jobs_per_app: if jobs_per_app.is_empty() {
                0.0
            } else {
                quantile(&jobs_per_app, 0.5)
            },
            median_job_duration: if durations.is_empty() {
                0.0
            } else {
                quantile(&durations, 0.5)
            },
            p95_job_duration: if durations.is_empty() {
                0.0
            } else {
                quantile(&durations, 0.95)
            },
            network_intensive_fraction: if num_apps == 0 {
                0.0
            } else {
                net as f64 / num_apps as f64
            },
            four_gpu_fraction: if num_jobs == 0 {
                0.0
            } else {
                four_gpu as f64 / num_jobs as f64
            },
        }
    }
}

/// Returns the CDF points `(duration_minutes, fraction_of_jobs)` of ideal job
/// durations in a trace — the data behind the paper's Figure 1.
pub fn duration_cdf(apps: &[AppSpec], points: usize) -> Vec<(f64, f64)> {
    let mut durations: Vec<f64> = apps
        .iter()
        .flat_map(|a| a.jobs.iter().map(|j| j.ideal_time().as_minutes()))
        .collect();
    if durations.is_empty() {
        return Vec::new();
    }
    durations.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let n = durations.len();
    (0..points)
        .map(|i| {
            let frac = (i + 1) as f64 / points as f64;
            let idx = ((n as f64 * frac).ceil() as usize).clamp(1, n) - 1;
            (durations[idx], frac)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_given_seed() {
        let a = TraceGenerator::new(TraceConfig::default()).generate();
        let b = TraceGenerator::new(TraceConfig::default()).generate();
        assert_eq!(a, b);
        let c = TraceGenerator::new(TraceConfig::default().with_seed(7)).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_increasing_and_poisson_like() {
        let apps = TraceGenerator::new(TraceConfig::default().with_num_apps(500)).generate();
        let mut prev = Time::ZERO;
        for app in &apps {
            assert!(app.arrival >= prev);
            prev = app.arrival;
        }
        // Mean inter-arrival should be near 20 minutes.
        let mean = apps.last().unwrap().arrival.as_minutes() / apps.len() as f64;
        assert!((mean - 20.0).abs() < 3.0, "mean inter-arrival {mean}");
    }

    #[test]
    fn stats_match_paper_distributions() {
        let apps = TraceGenerator::new(TraceConfig::default().with_num_apps(400)).generate();
        let stats = TraceStats::compute(&apps);
        assert_eq!(stats.num_apps, 400);
        // Median jobs per app ~23 (paper), generous tolerance for sampling noise.
        assert!(
            (stats.median_jobs_per_app - 23.0).abs() < 6.0,
            "median jobs/app {}",
            stats.median_jobs_per_app
        );
        // Median duration ~59 minutes.
        assert!(
            (stats.median_job_duration - 59.0).abs() < 10.0,
            "median duration {}",
            stats.median_job_duration
        );
        // Long tail.
        assert!(stats.p95_job_duration > 2.0 * stats.median_job_duration);
        // 60:40 compute:network mix.
        assert!(
            (stats.network_intensive_fraction - 0.4).abs() < 0.1,
            "network fraction {}",
            stats.network_intensive_fraction
        );
        // Mostly 4-GPU jobs.
        assert!(stats.four_gpu_fraction > 0.7);
        // Jobs per app never exceed the configured maximum.
        assert!(apps.iter().all(|a| a.num_jobs() <= 98 && a.num_jobs() >= 1));
    }

    #[test]
    fn job_ideal_time_matches_sampled_duration_scale() {
        let apps = TraceGenerator::new(TraceConfig::testbed().with_num_apps(100)).generate();
        let stats = TraceStats::compute(&apps);
        // Testbed config scales durations by 5x down: median ≈ 59/5 ≈ 12.
        assert!(
            (stats.median_job_duration - 11.8).abs() < 4.0,
            "median testbed duration {}",
            stats.median_job_duration
        );
    }

    #[test]
    fn loss_curves_are_consistent_with_iterations() {
        let apps = TraceGenerator::new(TraceConfig::default().with_num_apps(20)).generate();
        for app in &apps {
            for job in &app.jobs {
                let to_target = job
                    .loss_curve
                    .iterations_to_target(job.target_loss)
                    .expect("curve must reach target");
                let rel_err = (to_target - job.total_iterations).abs() / job.total_iterations;
                assert!(
                    rel_err < 0.01,
                    "iterations-to-target {to_target} vs clairvoyant {}",
                    job.total_iterations
                );
            }
        }
    }

    #[test]
    fn disabled_knobs_do_not_perturb_the_rng_stream() {
        // Explicitly setting the new knobs to their "off" values must yield
        // the exact trace the pre-knob generator produced.
        let plain = TraceGenerator::new(TraceConfig::default()).generate();
        let zeroed = TraceGenerator::new(
            TraceConfig::default()
                .with_burstiness(0.0, 16.0)
                .with_heavy_job_fraction(0.0),
        )
        .generate();
        assert_eq!(plain, zeroed);
    }

    #[test]
    fn bursty_arrivals_compress_the_schedule() {
        let plain = TraceGenerator::new(TraceConfig::default().with_num_apps(300)).generate();
        let bursty = TraceGenerator::new(
            TraceConfig::default()
                .with_num_apps(300)
                .with_burstiness(0.8, 16.0),
        )
        .generate();
        let makespan = |apps: &[AppSpec]| apps.last().unwrap().arrival.as_minutes();
        assert!(
            makespan(&bursty) < makespan(&plain) * 0.6,
            "bursty arrival span {} should be well under plain span {}",
            makespan(&bursty),
            makespan(&plain)
        );
        let mut prev = Time::ZERO;
        for app in &bursty {
            assert!(app.arrival >= prev);
            prev = app.arrival;
        }
    }

    #[test]
    fn heavy_jobs_appear_at_the_configured_rate() {
        let apps = TraceGenerator::new(
            TraceConfig::default()
                .with_num_apps(100)
                .with_heavy_job_fraction(0.3),
        )
        .generate();
        let jobs: Vec<_> = apps.iter().flat_map(|a| a.jobs.iter()).collect();
        let heavy = jobs.iter().filter(|j| j.max_parallelism == 8).count();
        let frac = heavy as f64 / jobs.len() as f64;
        assert!((frac - 0.3).abs() < 0.08, "heavy-job fraction {frac}");
        // The 4-vs-2 mix must survive underneath the heavy tail.
        assert!(jobs.iter().any(|j| j.max_parallelism == 4));
        assert!(jobs.iter().any(|j| j.max_parallelism == 2));
    }

    #[test]
    #[should_panic(expected = "burst factor")]
    fn burst_factor_below_one_rejected() {
        let _ = TraceConfig::default().with_burstiness(0.5, 0.5);
    }

    #[test]
    fn contention_scales_interarrival() {
        let cfg = TraceConfig::default().with_contention(4.0);
        assert_eq!(cfg.mean_interarrival, Time::minutes(5.0));
    }

    #[test]
    fn two_app_micro_trace_matches_figure8_setup() {
        let apps = two_app_micro_trace();
        assert_eq!(apps.len(), 2);
        assert_eq!(apps[0].arrival, Time::minutes(40.0));
        assert_eq!(apps[1].arrival, Time::minutes(40.0));
        let short = apps[0].ideal_running_time();
        let long = apps[1].ideal_running_time();
        assert!((long / short - 3.0).abs() < 1e-9, "3x running-time ratio");
        assert_eq!(apps[0].model(), apps[1].model());
    }

    #[test]
    fn duration_cdf_is_monotone() {
        let apps = TraceGenerator::new(TraceConfig::default().with_num_apps(50)).generate();
        let cdf = duration_cdf(&apps, 20);
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "durations must be non-decreasing");
            assert!(w[0].1 <= w[1].1, "cdf must be non-decreasing");
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }
}
