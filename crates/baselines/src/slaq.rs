//! SLAQ baseline: quality-driven scheduling.
//!
//! SLAQ (Zhang et al., SoCC 2017) allocates resources to maximize the
//! aggregate improvement in model quality (decrease in training loss) across
//! all jobs. The paper emulates it by having every app report the decrease
//! in loss it would obtain from a candidate allocation and assigning
//! resources to maximize the total decrease (§8, "SLAQ"). Old, slowly
//! converging jobs are naturally demoted — which is exactly why SLAQ fares
//! poorly on finish-time fairness in Figure 5. Grants materialize through
//! [`pick_gpus_packed`].

use std::collections::BTreeMap;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, JobId};
use themis_cluster::placement::Locality;
use themis_cluster::time::Time;
use themis_cluster::view::ClusterState;
use themis_sim::app_runtime::AppRuntime;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{pick_gpus_packed, AllocationDecision, Scheduler};

/// The quality-driven SLAQ emulation.
#[derive(Debug, Clone, Copy)]
pub struct Slaq {
    /// The horizon over which loss improvement is evaluated: the lease a
    /// grant runs for.
    pub horizon: Time,
}

impl Slaq {
    /// Creates the scheduler valuing GPUs over `horizon`, the run's lease.
    pub fn new(horizon: Time) -> Self {
        Slaq { horizon }
    }

    /// Marginal loss reduction for one job of going from `gpus` to
    /// `gpus + 1` GPUs over the horizon. Placement is assumed machine-local
    /// for the estimate (SLAQ is placement-unaware).
    fn marginal_loss_reduction(app: &AppRuntime, job: JobId, gpus: usize, horizon: Time) -> f64 {
        let Some(spec) = app.job_spec(job) else {
            return 0.0;
        };
        let progress = &app.progress[&job];
        if progress.is_finished(spec) {
            return 0.0;
        }
        let iters_with = |g: usize| -> f64 {
            let rate = spec.iterations_per_minute(g, Locality::Machine);
            (progress.iterations_done + rate * horizon.as_minutes()).min(spec.total_iterations)
        };
        let from = progress.iterations_done;
        let without = spec.loss_curve.loss_reduction(from, iters_with(gpus));
        let with = spec.loss_curve.loss_reduction(from, iters_with(gpus + 1));
        (with - without).max(0.0)
    }
}

impl Scheduler for Slaq {
    fn name(&self) -> &'static str {
        "slaq"
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let mut shadow = cluster.view();
        // Tentative GPU counts handed to each (app, job) this round.
        let mut granted: BTreeMap<(AppId, JobId), usize> = BTreeMap::new();
        let free_total = shadow.free_gpu_count();

        // Hand out GPUs one at a time to the job with the largest marginal
        // loss reduction, mirroring SLAQ's quality-maximizing allocation.
        for _ in 0..free_total {
            let mut best: Option<(AppId, JobId, f64)> = None;
            for app in apps.iter().filter(|a| a.is_schedulable(now)) {
                for job in app.active_jobs() {
                    // The shadow cluster already tracks this round's
                    // tentative grants (placeholder allocations below).
                    let held = shadow.gpus_of_job(app.id(), job).len();
                    if held >= app.effective_max_parallelism(job) {
                        continue;
                    }
                    let gain = Self::marginal_loss_reduction(app, job, held, self.horizon);
                    let candidate = (app.id(), job, gain);
                    best = match best {
                        None => Some(candidate),
                        Some((_, _, best_gain)) if gain > best_gain + 1e-15 => Some(candidate),
                        Some(current) => Some(current),
                    };
                }
            }
            let Some((app_id, job, gain)) = best else {
                break;
            };
            if gain <= 0.0 {
                break;
            }
            *granted.entry((app_id, job)).or_insert(0) += 1;
            // Reserve a placeholder GPU in the shadow so held counts update.
            let next_free = shadow.free_gpus().into_iter().next();
            if let Some(gpu) = next_free {
                shadow.allocate(gpu, app_id, job).expect("gpu is free");
            } else {
                break;
            }
        }

        // Materialize the grants into concrete GPUs (packed per job) against
        // the real cluster state.
        let mut shadow = cluster.view();
        let mut decisions = Vec::new();
        for ((app_id, job), count) in granted {
            let prefer = shadow.gpus_of_job(app_id, job).machines(shadow.spec());
            let gpus = pick_gpus_packed(&shadow, count, &prefer);
            for gpu in &gpus {
                shadow.allocate(*gpu, app_id, job).expect("gpu is free");
            }
            if !gpus.is_empty() {
                decisions.push(AllocationDecision {
                    app: app_id,
                    job,
                    gpus,
                });
            }
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::topology::ClusterSpec;
    use themis_workload::app::AppSpec;
    use themis_workload::job::JobSpec;
    use themis_workload::loss::LossCurve;
    use themis_workload::models::ModelArch;

    fn app_with_curve(id: u32, total_iterations: f64, iterations_done: f64) -> AppRuntime {
        let mut job = JobSpec::new(
            JobId(0),
            ModelArch::ResNet50,
            total_iterations,
            Time::minutes(0.1),
            4,
        );
        job.loss_curve = LossCurve {
            floor: 0.0,
            scale: 2.0,
            exponent: 0.5,
        };
        let mut rt = AppRuntime::with_default_hpo(AppSpec::single_job(AppId(id), Time::ZERO, job));
        rt.progress.get_mut(&JobId(0)).unwrap().iterations_done = iterations_done;
        rt
    }

    #[test]
    fn prefers_jobs_with_steeper_loss_curves() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        // App 0 is brand new (steep part of the curve); app 1 is far along
        // (flat part of the curve) — SLAQ should strongly favour app 0.
        let apps = AppArena::from_runtimes([
            app_with_curve(0, 5000.0, 0.0),
            app_with_curve(1, 5000.0, 4000.0),
        ]);
        let decisions = Slaq::new(Time::minutes(20.0)).schedule(Time::ZERO, &cluster, &apps);
        let to_app0: usize = decisions
            .iter()
            .filter(|d| d.app == AppId(0))
            .map(|d| d.gpus.len())
            .sum();
        let to_app1: usize = decisions
            .iter()
            .filter(|d| d.app == AppId(1))
            .map(|d| d.gpus.len())
            .sum();
        assert!(
            to_app0 > to_app1,
            "new app should receive more GPUs ({to_app0} vs {to_app1})"
        );
    }

    /// One GPU, two apps. App 0 has 50 iterations left on the steep start
    /// of its curve; app 1 is at iteration 150 of 5,000, where the curve is
    /// flatter but goes on. Over a 20-minute lease app 0's finish is worth
    /// more loss; over a 200-minute one, app 1's longer run is.
    #[test]
    fn the_horizon_decides_the_winner() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 1));
        let apps = AppArena::from_runtimes([
            app_with_curve(0, 100.0, 50.0),
            app_with_curve(1, 5000.0, 150.0),
        ]);
        let winner = |minutes: f64| {
            let decisions = Slaq::new(Time::minutes(minutes)).schedule(Time::ZERO, &cluster, &apps);
            assert_eq!(decisions.len(), 1);
            decisions[0].app
        };
        assert_eq!(winner(20.0), AppId(0));
        assert_eq!(winner(200.0), AppId(1));
    }

    #[test]
    fn respects_max_parallelism() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let apps = AppArena::from_runtimes([app_with_curve(0, 5000.0, 0.0)]);
        let decisions = Slaq::new(Time::minutes(20.0)).schedule(Time::ZERO, &cluster, &apps);
        let total: usize = decisions.iter().map(|d| d.gpus.len()).sum();
        assert!(total <= 4, "cannot exceed the app's max parallelism");
    }

    #[test]
    fn finished_jobs_get_nothing() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let mut rt = app_with_curve(0, 5000.0, 0.0);
        rt.progress.get_mut(&JobId(0)).unwrap().kill(Time::ZERO);
        let apps = AppArena::from_runtimes([rt]);
        assert!(Slaq::new(Time::minutes(20.0))
            .schedule(Time::ZERO, &cluster, &apps)
            .is_empty());
    }
}
