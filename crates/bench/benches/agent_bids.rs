//! Micro-benchmark of Agent bid preparation time.
//!
//! Reproduces the §8.3.2 overhead measurement: the paper reports 29 ms
//! median / 334 ms 95th-percentile per bid, with the tail driven by rounds
//! that offer many GPUs (larger subset enumeration). The bench sweeps the
//! offer size and the number of jobs in the app, on an idle cluster and on
//! a half-occupied one — there the app has a footprint to prefer and the
//! offer is fragmented, the two things the packing order is sensitive to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId, JobId};
use themis_cluster::time::Time;
use themis_cluster::topology::ClusterSpec;
use themis_core::agent::Agent;
use themis_core::config::ThemisConfig;
use themis_sim::app_runtime::AppRuntime;
use themis_workload::app::AppSpec;
use themis_workload::job::JobSpec;
use themis_workload::models::ModelArch;

fn runtime(num_jobs: usize) -> AppRuntime {
    let jobs = (0..num_jobs)
        .map(|i| {
            JobSpec::new(
                JobId(i as u32),
                ModelArch::Vgg16,
                2000.0,
                Time::minutes(0.05),
                4,
            )
        })
        .collect();
    AppRuntime::with_default_hpo(AppSpec::new(AppId(0), Time::ZERO, jobs))
}

/// Occupies every other GPU: the even machines' for the bidding app's
/// first two jobs, the odd machines' for a neighbour.
fn half_occupied(spec: ClusterSpec) -> Cluster {
    let mut cluster = Cluster::new(spec);
    for gpu in (0..cluster.total_gpus() as u32).step_by(2) {
        let machine = cluster.spec().machine_of(GpuId(gpu)).expect("gpu exists");
        let (app, job) = if machine.0.is_multiple_of(2) {
            (AppId(0), JobId(machine.0 / 2 % 2))
        } else {
            (AppId(1), JobId(0))
        };
        cluster
            .allocate(GpuId(gpu), app, job, Time::ZERO, Time::minutes(20.0))
            .expect("gpu is free");
    }
    cluster
}

fn bench_bid_preparation(c: &mut Criterion) {
    let mut group = c.benchmark_group("bid_preparation");

    // Sweep the number of free GPUs in the offer (fixed 16-job app).
    for &(racks, machines, gpus) in &[(1usize, 2usize, 4usize), (2, 4, 4), (4, 8, 4), (4, 16, 4)] {
        let cluster = Cluster::new(ClusterSpec::homogeneous(racks, machines, gpus));
        let offer = cluster.free_vector();
        let rt = runtime(16);
        let config = ThemisConfig::default();
        group.bench_with_input(
            BenchmarkId::new("offered_gpus", offer.total()),
            &offer,
            |b, offer| {
                b.iter(|| {
                    let mut agent = Agent::new(AppId(0), &config);
                    agent.prepare_bid(
                        Time::minutes(10.0),
                        std::hint::black_box(&rt),
                        std::hint::black_box(&cluster),
                        std::hint::black_box(offer),
                    )
                })
            },
        );
    }

    // Sweep the number of jobs in the app (fixed 64-GPU offer).
    for &jobs in &[1usize, 8, 32, 96] {
        let cluster = Cluster::new(ClusterSpec::homogeneous(2, 8, 4));
        let offer = cluster.free_vector();
        let rt = runtime(jobs);
        let config = ThemisConfig::default();
        group.bench_with_input(BenchmarkId::new("jobs_per_app", jobs), &jobs, |b, _| {
            b.iter(|| {
                let mut agent = Agent::new(AppId(0), &config);
                agent.prepare_bid(
                    Time::minutes(10.0),
                    std::hint::black_box(&rt),
                    std::hint::black_box(&cluster),
                    std::hint::black_box(&offer),
                )
            })
        });
    }
    // Both axes again on the half-occupied cluster, up to the 96-job app.
    for &(racks, machines, jobs) in &[(2usize, 8usize, 16usize), (4, 16, 16), (2, 8, 96)] {
        let cluster = half_occupied(ClusterSpec::homogeneous(racks, machines, 4));
        let offer = cluster.free_vector();
        let rt = runtime(jobs);
        let config = ThemisConfig::default();
        let id = format!("{}gpus_{jobs}jobs", offer.total());
        group.bench_with_input(BenchmarkId::new("half_occupied", id), &jobs, |b, _| {
            b.iter(|| {
                let mut agent = Agent::new(AppId(0), &config);
                agent.prepare_bid(
                    Time::minutes(10.0),
                    std::hint::black_box(&rt),
                    std::hint::black_box(&cluster),
                    std::hint::black_box(&offer),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bid_preparation);
criterion_main!(benches);
