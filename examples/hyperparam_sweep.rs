//! A hyper-parameter exploration app on a shared cluster.
//!
//! Builds one app with eight hyper-parameter configurations of a VGG16
//! model, runs it under Themis alongside a competing ResNet50 app, and
//! shows how the top-level HyperBand scheduler kills poorly-converging
//! configurations while Themis keeps the cluster shared fairly.
//!
//! Run with: `cargo run -p themis-bench --example hyperparam_sweep`

use themis_cluster::prelude::*;
use themis_core::prelude::*;
use themis_sim::prelude::*;
use themis_workload::loss::LossCurve;
use themis_workload::prelude::*;

fn main() {
    let cluster = Cluster::new(ClusterSpec::homogeneous(2, 4, 4));

    // App 0: a sweep over 8 learning-rate configurations. The convergence
    // exponent stands in for "how good this configuration is": larger is
    // faster convergence.
    let sweep_jobs: Vec<JobSpec> = (0..8)
        .map(|i| {
            let exponent = 0.30 + 0.06 * i as f64;
            let mut job = JobSpec::new(
                JobId(i as u32),
                ModelArch::Vgg16,
                4000.0,
                Time::minutes(0.05),
                4,
            );
            job.loss_curve = LossCurve {
                floor: 0.0,
                scale: 2.0,
                exponent,
            };
            job.target_loss = 0.1;
            job
        })
        .collect();
    let sweep_app = AppSpec::new(AppId(0), Time::ZERO, sweep_jobs);

    // App 1: a single-configuration ResNet50 training job competing for the
    // same cluster.
    let competitor = AppSpec::single_job(
        AppId(1),
        Time::ZERO,
        JobSpec::new(JobId(0), ModelArch::ResNet50, 3000.0, Time::minutes(0.1), 8),
    );

    println!(
        "running a {}-job hyper-parameter sweep against a competing app on {} GPUs",
        sweep_app.num_jobs(),
        cluster.total_gpus()
    );

    let report = Engine::new(
        cluster,
        vec![sweep_app, competitor],
        ThemisScheduler::with_defaults(),
        SimConfig::default().with_lease(Time::minutes(10.0)),
    )
    .run();

    for outcome in &report.apps {
        println!(
            "{}: finished at {} (completion {:.1} min, ideal {:.1} min, rho {:.2}, placement {:.2})",
            outcome.app,
            outcome
                .finished_at
                .map(|t| format!("{:.1} min", t.as_minutes()))
                .unwrap_or_else(|| "never".into()),
            outcome.completion_time.map(|t| t.as_minutes()).unwrap_or(f64::NAN),
            outcome.ideal_running_time.as_minutes(),
            outcome.rho.unwrap_or(f64::NAN),
            outcome.placement_score,
        );
    }
    println!(
        "total GPU time: {:.0} GPU-minutes, Jain's index {:.3}, max fairness {:.2}",
        report.total_gpu_time.as_minutes(),
        report.jains_index().unwrap_or(f64::NAN),
        report.max_fairness().unwrap_or(f64::NAN)
    );
    println!(
        "the sweep app finishes once its best configuration converges; HyperBand killed the rest early"
    );
}
