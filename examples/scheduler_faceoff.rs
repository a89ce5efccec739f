//! Themis vs the baselines on a synthetic enterprise trace.
//!
//! Replays the same seeded trace under Themis, Gandiva, SLAQ, Tiresias and
//! DRF on the paper's 50-GPU testbed cluster, then prints the §8.1 metrics
//! (max finish-time fairness, Jain's index, mean completion time, placement
//! score and GPU time) side by side — a miniature of Figures 5-7.
//!
//! Run with: `cargo run --release -p themis-bench --example scheduler_faceoff`

use themis_baselines::prelude::*;
use themis_cluster::prelude::*;
use themis_core::prelude::*;
use themis_sim::prelude::*;
use themis_sim::scheduler::Scheduler;
use themis_workload::prelude::*;

fn run(name: &str, scheduler: Box<dyn Scheduler>, trace: &[AppSpec]) -> SimReport {
    let cluster = Cluster::new(ClusterSpec::testbed_50());
    let sim = SimConfig::default().with_max_sim_time(Time::minutes(1_000_000.0));
    let report = Engine::new(cluster, trace.to_vec(), scheduler, sim).run();
    println!(
        "{name:<10} max_rho {:>8.2}  jain {:>5.3}  mean_ct {:>8.1} min  placement {:>5.3}  gpu_time {:>9.0}",
        report.max_fairness().unwrap_or(f64::NAN),
        report.jains_index().unwrap_or(f64::NAN),
        report
            .mean_completion_time()
            .map(|t| t.as_minutes())
            .unwrap_or(f64::NAN),
        report.mean_placement_score().unwrap_or(f64::NAN),
        report.total_gpu_time.as_minutes(),
    );
    report
}

fn main() {
    let trace =
        TraceGenerator::new(TraceConfig::testbed().with_num_apps(12).with_seed(7)).generate();
    let stats = themis_workload::trace::TraceStats::compute(&trace);
    println!(
        "trace: {} apps, {} jobs, median {} jobs/app, median job duration {:.1} min",
        stats.num_apps, stats.num_jobs, stats.median_jobs_per_app, stats.median_job_duration
    );
    println!(
        "{:<10} {:>12}  {:>10} {:>16} {:>15} {:>14}",
        "scheduler", "max_rho", "jain", "mean_completion", "placement", "gpu_time"
    );

    let themis = run("themis", Box::new(ThemisScheduler::with_defaults()), &trace);
    run("gandiva", Box::new(Gandiva::new()), &trace);
    let lease = SimConfig::default().lease_duration;
    run("slaq", Box::new(Slaq::new(lease)), &trace);
    let tiresias = run("tiresias", Box::new(Tiresias::new()), &trace);
    run("drf", Box::new(Drf::new()), &trace);

    let improvement =
        tiresias.max_fairness().unwrap_or(f64::NAN) / themis.max_fairness().unwrap_or(f64::NAN);
    println!("\nThemis improves worst-case finish-time fairness over Tiresias by {improvement:.2}x on this trace");
}
