//! Tiresias baseline: Least Attained Service (LAS).
//!
//! Tiresias (Gu et al., NSDI 2019) targets average job completion time with
//! priority-based placement. The paper emulates it by having every app
//! report its total GPU service and assigning free resources to the apps
//! with the *least attained service* (§8, "Tiresias"). The emulation is
//! placement-insensitive: GPUs are handed out in id order regardless of
//! locality, which is exactly the behaviour the paper's Figure 7 attributes
//! to it.

use themis_cluster::cluster::Cluster;
use themis_cluster::ids::GpuId;
use themis_cluster::time::Time;
use themis_sim::app_runtime::AppRuntime;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{split_among_jobs, AllocationDecision, Scheduler};

/// The Least-Attained-Service scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tiresias;

impl Tiresias {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Tiresias
    }
}

impl Scheduler for Tiresias {
    fn name(&self) -> &'static str {
        "tiresias"
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        // LAS is placement-insensitive: free GPUs are handed out in id order.
        let mut free: Vec<GpuId> = cluster.free_gpus();
        if free.is_empty() {
            return Vec::new();
        }
        // Apps ordered by least attained GPU service; ties broken by
        // arrival then id for determinism.
        let mut order: Vec<&AppRuntime> = apps.iter().filter(|a| a.is_schedulable(now)).collect();
        order.sort_by(|a, b| {
            a.attained_service
                .cmp(&b.attained_service)
                .then(a.spec.arrival.cmp(&b.spec.arrival))
                .then(a.id().cmp(&b.id()))
        });

        let mut shadow = cluster.view();
        let mut decisions = Vec::new();
        for app in order {
            if free.is_empty() {
                break;
            }
            let want = app.unmet_demand(&shadow);
            if want == 0 {
                continue;
            }
            let budget = want.min(free.len());
            for (job, count) in split_among_jobs(app, &shadow, budget) {
                // Placement-insensitive: take the first `count` free GPUs,
                // wherever they are.
                let gpus: Vec<GpuId> = free.drain(..count.min(free.len())).collect();
                for gpu in &gpus {
                    shadow
                        .allocate(*gpu, app.id(), job)
                        .expect("gpu taken from the free list");
                }
                if !gpus.is_empty() {
                    decisions.push(AllocationDecision {
                        app: app.id(),
                        job,
                        gpus,
                    });
                }
            }
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::{AppId, JobId};
    use themis_cluster::topology::ClusterSpec;
    use themis_workload::app::AppSpec;
    use themis_workload::job::JobSpec;
    use themis_workload::models::ModelArch;

    fn app(id: u32, gpus: usize) -> AppRuntime {
        let job = JobSpec::new(
            JobId(0),
            ModelArch::ResNet50,
            1000.0,
            Time::minutes(0.1),
            gpus,
        );
        AppRuntime::with_default_hpo(AppSpec::single_job(AppId(id), Time::ZERO, job))
    }

    #[test]
    fn least_served_app_gets_gpus_first() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let mut a0 = app(0, 4);
        a0.attained_service = Time::minutes(100.0);
        let a1 = app(1, 4); // zero service so far
        let apps = AppArena::from_runtimes([a0, a1]);
        let decisions = Tiresias::new().schedule(Time::ZERO, &cluster, &apps);
        // All 4 GPUs go to app 1 (least attained service).
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].app, AppId(1));
        assert_eq!(decisions[0].gpus.len(), 4);
    }

    #[test]
    fn spills_leftovers_to_other_apps() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let a0 = app(0, 4);
        let a1 = app(1, 4);
        let apps = AppArena::from_runtimes([a0, a1]);
        let decisions = Tiresias::new().schedule(Time::ZERO, &cluster, &apps);
        let total: usize = decisions.iter().map(|d| d.gpus.len()).sum();
        assert_eq!(total, 8, "work conserving: all 8 GPUs are handed out");
        let apps_served: std::collections::BTreeSet<AppId> =
            decisions.iter().map(|d| d.app).collect();
        assert_eq!(apps_served.len(), 2);
    }

    #[test]
    fn least_served_app_gets_the_lowest_free_gpu_ids() {
        // Two contending apps of 4 on 8 GPUs: the least-served app takes
        // the first four free GPUs in id order, the other the rest.
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let mut a0 = app(0, 4);
        a0.attained_service = Time::minutes(100.0);
        let apps = AppArena::from_runtimes([a0, app(1, 4)]);
        let decisions = Tiresias::new().schedule(Time::ZERO, &cluster, &apps);
        let gpus_of = |app: AppId| -> Vec<GpuId> {
            decisions
                .iter()
                .filter(|d| d.app == app)
                .flat_map(|d| d.gpus.clone())
                .collect()
        };
        assert_eq!(gpus_of(AppId(1)), [0, 1, 2, 3].map(GpuId));
        assert_eq!(gpus_of(AppId(0)), [4, 5, 6, 7].map(GpuId));
    }

    #[test]
    fn no_decisions_without_free_gpus() {
        let mut cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 2));
        for gpu in cluster.free_gpus() {
            cluster
                .allocate(gpu, AppId(9), JobId(0), Time::ZERO, Time::minutes(20.0))
                .unwrap();
        }
        let apps = AppArena::from_runtimes([app(0, 2)]);
        assert!(Tiresias::new()
            .schedule(Time::ZERO, &cluster, &apps)
            .is_empty());
    }

    #[test]
    fn ignores_unarrived_and_finished_apps() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let job = JobSpec::new(JobId(0), ModelArch::ResNet50, 1000.0, Time::minutes(0.1), 4);
        let late =
            AppRuntime::with_default_hpo(AppSpec::single_job(AppId(0), Time::minutes(100.0), job));
        let apps = AppArena::from_runtimes([late]);
        assert!(Tiresias::new()
            .schedule(Time::ZERO, &cluster, &apps)
            .is_empty());
    }
}
