//! Gandiva baseline: introspective, placement-greedy packing.
//!
//! Gandiva (Xiao et al., OSDI 2018) profiles jobs introspectively and
//! migrates them to better placements. The paper emulates it by having all
//! apps report the placement score they would obtain from the offered
//! resources and running a greedy algorithm that maximizes aggregate
//! placement score at the end of every lease (§8, "Gandiva"). There is no
//! fairness objective: a well-placed app can keep winning indefinitely.

use std::collections::BTreeSet;
use themis_cluster::alloc::GpuAlloc;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::AppId;
use themis_cluster::placement::spread;
use themis_cluster::time::Time;
use themis_cluster::view::ClusterState;
use themis_sim::app_runtime::AppRuntime;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{pick_gpus_packed, split_among_jobs, AllocationDecision, Scheduler};

/// The placement-greedy Gandiva emulation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gandiva;

impl Gandiva {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Gandiva
    }

    /// The placement score an app would report for receiving `count` GPUs,
    /// given the current (shadow) cluster state: the score of the best
    /// packed pick of that size, preferring machines the app already uses.
    fn prospective_score<C: ClusterState>(cluster: &C, app: &AppRuntime, count: usize) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let prefer = cluster.gpus_of_app(app.id()).machines(cluster.spec());
        let gpus = pick_gpus_packed(cluster, count, &prefer);
        if gpus.is_empty() {
            return 0.0;
        }
        let alloc = GpuAlloc::from_gpus(gpus);
        spread(&alloc, cluster.spec()).score()
    }
}

impl Scheduler for Gandiva {
    fn name(&self) -> &'static str {
        "gandiva"
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let mut shadow = cluster.view();
        let mut decisions = Vec::new();

        // Greedy loop: repeatedly grant the (app → packed GPUs) assignment
        // with the best achievable placement score until demand or supply is
        // exhausted. Chunk size is one job's worth of GPUs at a time so that
        // gang-scheduled jobs stay tightly packed.
        loop {
            if shadow.free_gpu_count() == 0 {
                break;
            }
            let mut best: Option<(AppId, usize, f64)> = None;
            for app in apps.iter().filter(|a| a.is_schedulable(now)) {
                let unmet = app.unmet_demand(&shadow);
                if unmet == 0 {
                    continue;
                }
                // The next chunk this app would place: its largest unmet
                // single-job demand (capped by supply).
                let chunk = split_among_jobs(app, &shadow, unmet)
                    .into_iter()
                    .map(|(_, c)| c)
                    .max()
                    .unwrap_or(0)
                    .min(shadow.free_gpu_count());
                if chunk == 0 {
                    continue;
                }
                let score = Self::prospective_score(&shadow, app, chunk);
                let candidate = (app.id(), chunk, score);
                best = match best {
                    None => Some(candidate),
                    Some((_, _, best_score)) if score > best_score + 1e-12 => Some(candidate),
                    Some(current) => Some(current),
                };
            }
            let Some((app_id, chunk, _)) = best else {
                break;
            };
            let app = &apps[app_id];
            // Give the chunk to the job with the largest unmet demand.
            let Some((job, count)) = split_among_jobs(app, &shadow, chunk)
                .into_iter()
                .max_by_key(|(job, c)| (*c, std::cmp::Reverse(*job)))
            else {
                break;
            };
            let prefer: BTreeSet<_> = shadow.gpus_of_job(app_id, job).machines(shadow.spec());
            let gpus = pick_gpus_packed(&shadow, count, &prefer);
            if gpus.is_empty() {
                break;
            }
            for gpu in &gpus {
                shadow
                    .allocate(*gpu, app_id, job)
                    .expect("gpu is free in shadow cluster");
            }
            decisions.push(AllocationDecision {
                app: app_id,
                job,
                gpus,
            });
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::{JobId, MachineId};
    use themis_cluster::topology::ClusterSpec;
    use themis_workload::app::AppSpec;
    use themis_workload::job::JobSpec;
    use themis_workload::models::ModelArch;

    fn app(id: u32, gpus: usize, model: ModelArch) -> AppRuntime {
        let mut job = JobSpec::new(
            JobId(0),
            ModelArch::ResNet50,
            1000.0,
            Time::minutes(0.1),
            gpus,
        );
        job.model = model;
        AppRuntime::with_default_hpo(AppSpec::single_job(AppId(id), Time::ZERO, job))
    }

    #[test]
    fn packs_each_app_onto_one_machine_when_possible() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let apps =
            AppArena::from_runtimes([app(0, 4, ModelArch::Vgg16), app(1, 4, ModelArch::Vgg16)]);
        let decisions = Gandiva::new().schedule(Time::ZERO, &cluster, &apps);
        let total: usize = decisions.iter().map(|d| d.gpus.len()).sum();
        assert_eq!(total, 8);
        for d in &decisions {
            let machines: BTreeSet<MachineId> = d
                .gpus
                .iter()
                .filter_map(|g| cluster.spec().machine_of(*g))
                .collect();
            assert_eq!(machines.len(), 1, "each 4-GPU job fits one machine");
        }
    }

    #[test]
    fn is_work_conserving() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(2, 2, 2));
        let apps =
            AppArena::from_runtimes([app(0, 4, ModelArch::ResNet50), app(1, 2, ModelArch::Vgg16)]);
        let decisions = Gandiva::new().schedule(Time::ZERO, &cluster, &apps);
        let total: usize = decisions.iter().map(|d| d.gpus.len()).sum();
        assert_eq!(total, 6, "all demanded GPUs are allocated");
    }

    #[test]
    fn no_demand_means_no_decisions() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let apps = AppArena::new();
        assert!(Gandiva::new()
            .schedule(Time::ZERO, &cluster, &apps)
            .is_empty());
    }
}
