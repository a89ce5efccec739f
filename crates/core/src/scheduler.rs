//! [`ThemisScheduler`]: the full Themis policy plugged into the simulator.
//!
//! This is the glue between the Arbiter, the per-app Agents and the
//! simulation engine. At every scheduling event it:
//!
//! 1. probes the current ρ of each schedulable app that can still take a
//!    GPU (an app without unmet demand can neither bid nor receive a
//!    leftover, so nothing about it is read),
//! 2. selects the worst-off `1 − f` fraction as auction participants,
//! 3. collects their bid tables over the free-GPU offer,
//! 4. runs the partial-allocation auction and leftover assignment,
//! 5. converts the per-machine awards into concrete GPU → job allocations
//!    by the greedy job-level distribution, from the estimates the probe
//!    read.
//!
//! Everything a call reads — estimates, holdings, statuses, bid tables, the
//! distribution's work lists — lives in buffers the scheduler keeps, so a
//! warm call allocates for the decisions it returns, not for the apps and
//! jobs it reads.

use crate::agent::{Agent, BidScratch, Probes};
use crate::arbiter::{AppStatus, Arbiter};
use crate::config::ThemisConfig;
use crate::rho::AwardSplit;
use std::collections::BTreeMap;
use themis_cluster::alloc::FreeVector;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId};
use themis_cluster::time::Time;
use themis_cluster::view::{ClusterState, ClusterView};
use themis_hpo::api::JobEstimate;
use themis_protocol::bid::BidTable;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{AllocationDecision, Scheduler};

/// The Themis cross-app scheduler.
#[derive(Debug)]
pub struct ThemisScheduler {
    config: ThemisConfig,
    arbiter: Arbiter,
    agents: BTreeMap<AppId, Agent>,
    /// Probe and bid buffers, shared by every Agent.
    scratch: BidScratch,
    /// What this call's probes read; `statuses[i]` is probe `i`.
    probes: Probes,
    statuses: Vec<AppStatus>,
    /// The bid-table pool: this call's non-empty tables come first.
    bids: Vec<BidTable>,
    split: AwardSplit,
}

impl ThemisScheduler {
    /// Creates a Themis scheduler with the given configuration.
    pub fn new(config: ThemisConfig) -> Self {
        ThemisScheduler {
            arbiter: Arbiter::new(config),
            agents: BTreeMap::new(),
            scratch: BidScratch::default(),
            probes: Probes::default(),
            statuses: Vec::new(),
            bids: Vec::new(),
            split: AwardSplit::default(),
            config,
        }
    }

    /// Creates a Themis scheduler with the paper's recommended default,
    /// `f = 0.8`.
    pub fn with_defaults() -> Self {
        Self::new(ThemisConfig::default())
    }
}

/// Converts a per-app grant (per-machine counts) into concrete allocation
/// decisions appended to `decisions`, one per job that receives GPUs, in
/// job-id order. `estimates` are the app's, as its probe read them; each
/// job asks for its max parallelism less what it holds in the round's
/// `shadow` view, and GPUs are drawn from `shadow`, which tracks GPUs
/// already promised this round. Shared by the in-process and
/// distributed-mode schedulers so their materialization can never diverge —
/// the reliable `themis-dist` ≡ `themis` equivalence depends on it.
pub(crate) fn materialize_grant(
    app: AppId,
    estimates: &[JobEstimate],
    shadow: &mut ClusterView<'_>,
    grant: &FreeVector,
    split: &mut AwardSplit,
    decisions: &mut Vec<AllocationDecision>,
) {
    let spec = shadow.spec();
    split.split(estimates, shadow.job_of_each_gpu_of(app), grant, spec);
    shadow.reserve(grant.total());
    for (job, share) in split.shares() {
        let mut gpus: Vec<GpuId> = Vec::with_capacity(share.iter().map(|(_, n)| n).sum());
        for &(machine, count) in share {
            // The machine's first `count` free GPUs, in id order.
            let first = gpus.len();
            if let Some(machine) = shadow.spec().machine(machine) {
                let free = machine.gpus.iter().filter(|gpu| shadow.is_free(**gpu));
                gpus.extend(free.take(count));
            }
            for gpu in &gpus[first..] {
                shadow
                    .allocate(*gpu, app, job)
                    .expect("a GPU the view reports free can be granted");
            }
        }
        if !gpus.is_empty() {
            decisions.push(AllocationDecision { app, job, gpus });
        }
    }
}

impl Scheduler for ThemisScheduler {
    fn name(&self) -> &'static str {
        "themis"
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let offer = cluster.free_vector();
        if offer.is_empty() {
            return Vec::new();
        }
        let spec = cluster.spec();
        let ThemisScheduler {
            config,
            arbiter,
            agents,
            scratch,
            probes,
            statuses,
            bids,
            split,
        } = self;

        // 1. Probe the current ρ of every app that can take a GPU. Both
        //    lists are in ascending app order, as the arena iterates.
        probes.clear();
        statuses.clear();
        for runtime in apps.iter().filter(|a| a.is_schedulable(now)) {
            let unmet_demand = runtime.unmet_demand(cluster);
            if unmet_demand == 0 {
                continue;
            }
            let context = probes.push(now, runtime, cluster);
            statuses.push(AppStatus {
                app: runtime.id(),
                rho: context.current_rho(spec, scratch).rho,
                unmet_demand,
                footprint: context.holdings.iter().map(|(m, _)| *m).collect(),
            });
        }
        if statuses.is_empty() {
            return Vec::new();
        }
        let probed = |app: &AppId| {
            statuses
                .binary_search_by_key(app, |s| s.app)
                .expect("participants and grantees are probed apps")
        };

        // 2. Select the worst-off 1−f fraction and collect their bids, each
        //    from the context and ρ its probe computed, into pooled tables.
        let participants = arbiter.select_participants(statuses);
        let mut tables = 0;
        for app in &participants {
            let idx = probed(app);
            if tables == bids.len() {
                bids.push(BidTable::empty(*app, 0.0));
            }
            let agent = agents
                .entry(*app)
                .or_insert_with(|| Agent::new(*app, config));
            let table = &mut bids[tables];
            agent.bid(
                probes.context(idx),
                statuses[idx].rho,
                spec,
                &offer,
                scratch,
                table,
            );
            if !table.is_empty() {
                tables += 1;
            }
        }

        // 3. Run the auction + leftover assignment.
        let outcome = arbiter.run_auction(&offer, statuses, &participants, &bids[..tables], spec);

        // 4. Materialize per-machine grants into concrete GPU decisions,
        //    against a borrowed per-round view (no cluster clone).
        let mut shadow = cluster.view();
        let mut decisions = Vec::new();
        for (app, grant) in outcome.into_all_grants() {
            let estimates = probes.context(probed(&app)).estimates;
            materialize_grant(app, estimates, &mut shadow, &grant, split, &mut decisions);
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::JobId;
    use themis_cluster::topology::ClusterSpec;
    use themis_sim::engine::{Engine, SimConfig};
    use themis_workload::app::AppSpec;
    use themis_workload::job::JobSpec;
    use themis_workload::models::ModelArch;
    use themis_workload::trace::{two_app_micro_trace, TraceConfig, TraceGenerator};

    fn single_job_app(id: u32, arrival: f64, iterations: f64, gpus: usize) -> AppSpec {
        let job = JobSpec::new(
            JobId(0),
            ModelArch::ResNet50,
            iterations,
            Time::minutes(0.1),
            gpus,
        );
        AppSpec::single_job(AppId(id), Time::minutes(arrival), job)
    }

    #[test]
    fn materialize_grant_respects_job_limits() {
        let mut cluster = Cluster::new(ClusterSpec::homogeneous(2, 2, 4));
        let jobs = (0..2)
            .map(|i| JobSpec::new(JobId(i), ModelArch::Vgg16, 1000.0, Time::minutes(0.1), 2))
            .collect();
        let runtime = themis_sim::app_runtime::AppRuntime::with_default_hpo(AppSpec::new(
            AppId(0),
            Time::ZERO,
            jobs,
        ));
        // Job 1 already holds one GPU, on machine 2.
        let held = GpuId(8);
        let lease = Time::minutes(20.0);
        cluster
            .allocate(held, AppId(0), JobId(1), Time::ZERO, lease)
            .unwrap();
        let mut estimates = Vec::new();
        runtime.estimates_into(&mut estimates);
        let award = FreeVector::from_counts([
            (themis_cluster::ids::MachineId(0), 3),
            (themis_cluster::ids::MachineId(1), 2),
        ]);
        let mut shadow = cluster.view();
        let mut decisions = Vec::new();
        let mut split = AwardSplit::default();
        materialize_grant(
            AppId(0),
            &estimates,
            &mut shadow,
            &award,
            &mut split,
            &mut decisions,
        );
        // Two jobs of max parallelism 2, one GPU already held: three more
        // GPUs at most, in job-id order, each free before and taken after.
        let jobs: Vec<JobId> = decisions.iter().map(|d| d.job).collect();
        assert_eq!(jobs, vec![JobId(0), JobId(1)]);
        assert_eq!(decisions[0].gpus.len(), 2);
        assert_eq!(decisions[1].gpus.len(), 1);
        for gpu in decisions.iter().flat_map(|d| &d.gpus) {
            assert!(cluster.is_free(*gpu) && !shadow.is_free(*gpu));
        }
    }

    #[test]
    fn single_app_gets_everything_it_needs() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let trace = vec![single_job_app(0, 0.0, 400.0, 4)];
        let report = Engine::new(
            cluster,
            trace,
            ThemisScheduler::with_defaults(),
            SimConfig::default(),
        )
        .run();
        assert_eq!(report.finished_apps(), 1);
        let rho = report.apps[0].rho.unwrap();
        assert!(rho < 1.2, "lone app should be near-ideal, rho = {rho}");
    }

    #[test]
    fn contended_apps_share_reasonably() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let trace = vec![
            single_job_app(0, 0.0, 800.0, 4),
            single_job_app(1, 0.0, 800.0, 4),
        ];
        let report = Engine::new(
            cluster,
            trace,
            ThemisScheduler::with_defaults(),
            SimConfig::default().with_checkpoint_overhead(Time::ZERO),
        )
        .run();
        assert_eq!(report.finished_apps(), 2);
        // Two identical apps on a cluster with enough room for both: both
        // should get 4 GPUs and finish near-ideally.
        let max_rho = report.max_fairness().unwrap();
        assert!(max_rho < 2.0, "max rho {max_rho}");
        assert!(report.jains_index().unwrap() > 0.8);
    }

    #[test]
    fn oversubscribed_cluster_stays_fair() {
        // 4 identical apps, each wanting the whole 4-GPU machine: contention
        // is 4x, so the ideal max fairness is ~4.
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let trace: Vec<AppSpec> = (0..4).map(|i| single_job_app(i, 0.0, 400.0, 4)).collect();
        let report = Engine::new(
            cluster,
            trace,
            ThemisScheduler::with_defaults(),
            SimConfig::default()
                .with_lease(Time::minutes(10.0))
                .with_checkpoint_overhead(Time::ZERO),
        )
        .run();
        assert_eq!(report.finished_apps(), 4);
        let max_rho = report.max_fairness().unwrap();
        assert!(
            max_rho < 6.0,
            "max fairness {max_rho} should be near the 4x contention level"
        );
        assert!(report.jains_index().unwrap() > 0.6);
    }

    #[test]
    fn short_app_is_favoured_over_long_app() {
        // The Figure-8 micro-benchmark: two equal-sensitivity apps, 3x
        // running-time ratio, arriving together on a small cluster.
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let trace = two_app_micro_trace();
        let report = Engine::new(
            cluster,
            trace,
            ThemisScheduler::with_defaults(),
            SimConfig::default()
                .with_lease(Time::minutes(20.0))
                .with_checkpoint_overhead(Time::ZERO),
        )
        .run();
        assert_eq!(report.finished_apps(), 2);
        let short = &report.apps[0];
        let long = &report.apps[1];
        // The short app must not be starved behind the long one: its rho
        // must stay in the same ballpark as the long app's.
        assert!(
            short.rho.unwrap() <= long.rho.unwrap() * 3.0,
            "short rho {} vs long rho {}",
            short.rho.unwrap(),
            long.rho.unwrap()
        );
        // Neither app is starved.
        assert!(long.finished_at.is_some());
    }

    #[test]
    fn runs_on_a_generated_trace() {
        // 12 apps on a 32-GPU cluster: genuinely contended (max ρ ≈ 11),
        // so the max-fairness assertion below is not vacuous — with an
        // uncontended cluster every app can beat its (early-termination-
        // blind) ideal time. Small enough to finish in seconds in debug.
        let cluster = Cluster::new(ClusterSpec::homogeneous(2, 4, 4));
        let trace =
            TraceGenerator::new(TraceConfig::default().with_num_apps(12).with_seed(5)).generate();
        let themis = ThemisScheduler::new(ThemisConfig::default().with_seed(5));
        let report = Engine::new(
            cluster,
            trace,
            themis,
            SimConfig::default().with_max_sim_time(Time::minutes(500_000.0)),
        )
        .run();
        assert_eq!(report.unfinished_apps(), 0);
        assert!(report.max_fairness().unwrap() >= 1.0 - 1e-9);
        assert!(report.scheduling_rounds > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let cluster = Cluster::new(ClusterSpec::homogeneous(2, 4, 4));
            let trace = TraceGenerator::new(TraceConfig::default().with_num_apps(6).with_seed(2))
                .generate();
            Engine::new(
                cluster,
                trace,
                ThemisScheduler::new(ThemisConfig::default().with_seed(7)),
                SimConfig::default(),
            )
            .run()
        };
        assert_eq!(run(), run());
    }
}
