//! DRF baseline: instantaneous Dominant Resource Fairness.
//!
//! DRF (Ghodsi et al., NSDI 2011) is the canonical instantaneous-fairness
//! policy the paper's motivation section argues against (§2.2): whenever
//! resources free up, the task of the app with the smallest dominant share
//! is served next. In a GPU-only cluster the dominant share reduces to the
//! fraction of cluster GPUs the app currently holds. DRF is neither
//! placement-sensitive nor aware of long task durations, which is exactly
//! why it violates sharing incentive for ML apps.

use std::collections::BTreeMap;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId};
use themis_cluster::time::Time;
use themis_cluster::view::ClusterState;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{
    free_gpus_fastest_first, split_among_jobs, AllocationDecision, Scheduler,
};

/// The instantaneous dominant-resource-fairness scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Drf;

impl Drf {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Drf
    }
}

impl Scheduler for Drf {
    fn name(&self) -> &'static str {
        "drf"
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let total_gpus = cluster.total_gpus().max(1) as f64;
        let mut remaining = cluster.free_gpu_count();
        if remaining == 0 {
            return Vec::new();
        }
        let mut shadow = cluster.view();
        // Dominant share per schedulable app (fraction of cluster GPUs held,
        // including what we tentatively grant this round).
        let mut shares: BTreeMap<AppId, f64> = apps
            .iter()
            .filter(|a| a.is_schedulable(now))
            .map(|a| (a.id(), shadow.gpus_held_by(a.id()) as f64 / total_gpus))
            .collect();
        let mut granted: BTreeMap<AppId, usize> = BTreeMap::new();

        // Serve one GPU at a time (a plain countdown — concrete ids are
        // picked at materialization) to the app with the smallest dominant
        // share that still has unmet demand.
        while remaining > 0 {
            let candidate = shares
                .iter()
                .filter(|(id, _)| {
                    apps[**id].unmet_demand(&shadow) > granted.get(*id).copied().unwrap_or(0)
                })
                .min_by(|a, b| {
                    a.1.partial_cmp(b.1)
                        .expect("finite shares")
                        .then(a.0.cmp(b.0))
                })
                .map(|(id, _)| *id);
            let Some(app_id) = candidate else { break };
            remaining -= 1;
            *granted.entry(app_id).or_insert(0) += 1;
            *shares.get_mut(&app_id).expect("share present") += 1.0 / total_gpus;
        }

        // Materialize grants: DRF is placement-unaware, so GPUs are assigned
        // fastest-first (id order on a uniform-speed cluster).
        let mut free: Vec<GpuId> = free_gpus_fastest_first(cluster);
        let mut decisions = Vec::new();
        for (app_id, count) in granted {
            let app = &apps[app_id];
            for (job, n) in split_among_jobs(app, &shadow, count) {
                let gpus: Vec<GpuId> = free.drain(..n.min(free.len())).collect();
                for gpu in &gpus {
                    // Keep the shadow consistent for split_among_jobs calls.
                    let _ = shadow.allocate(*gpu, app_id, job);
                }
                if !gpus.is_empty() {
                    decisions.push(AllocationDecision {
                        app: app_id,
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
    use themis_cluster::ids::JobId;
    use themis_cluster::topology::ClusterSpec;
    use themis_sim::app_runtime::AppRuntime;
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
    fn equal_demand_gets_equal_share() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let apps = AppArena::from_runtimes([app(0, 4), app(1, 4)]);
        let decisions = Drf::new().schedule(Time::ZERO, &cluster, &apps);
        let per_app: BTreeMap<AppId, usize> = decisions.iter().fold(BTreeMap::new(), |mut m, d| {
            *m.entry(d.app).or_insert(0) += d.gpus.len();
            m
        });
        assert_eq!(per_app[&AppId(0)], 4);
        assert_eq!(per_app[&AppId(1)], 4);
    }

    #[test]
    fn app_holding_gpus_has_larger_share_and_waits() {
        let mut cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        // App 0 already holds 4 GPUs.
        for gpu in cluster.free_gpus().into_iter().take(4) {
            cluster
                .allocate(gpu, AppId(0), JobId(0), Time::ZERO, Time::minutes(20.0))
                .unwrap();
        }
        let apps = AppArena::from_runtimes([app(0, 8), app(1, 4)]);
        let decisions = Drf::new().schedule(Time::ZERO, &cluster, &apps);
        let to_app1: usize = decisions
            .iter()
            .filter(|d| d.app == AppId(1))
            .map(|d| d.gpus.len())
            .sum();
        assert_eq!(
            to_app1, 4,
            "the app with the smaller dominant share is served first"
        );
    }

    #[test]
    fn smallest_share_app_gets_the_fastest_gpus() {
        use themis_cluster::topology::{ClusterSpec, GpuGeneration};
        let cluster = Cluster::new(ClusterSpec::synthetic_mixed(
            1,
            2,
            4,
            &[GpuGeneration::Kepler, GpuGeneration::Volta],
        ));
        let apps = AppArena::from_runtimes([app(0, 4)]);
        let decisions = Drf::new().schedule(Time::ZERO, &cluster, &apps);
        let gpus: Vec<_> = decisions.iter().flat_map(|d| d.gpus.clone()).collect();
        assert_eq!(gpus.len(), 4);
        assert!(
            gpus.iter().all(|g| g.0 >= 4),
            "DRF hands out the Volta GPUs first, got {gpus:?}"
        );
    }

    #[test]
    fn respects_demand_limits() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let apps = AppArena::from_runtimes([app(0, 2)]);
        let decisions = Drf::new().schedule(Time::ZERO, &cluster, &apps);
        let total: usize = decisions.iter().map(|d| d.gpus.len()).sum();
        assert_eq!(total, 2);
    }
}
