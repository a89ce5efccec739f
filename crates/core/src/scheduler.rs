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
//!    using each Agent's greedy job-level distribution.

use crate::agent::{Agent, AppContext, BidScratch};
use crate::arbiter::{AppStatus, Arbiter};
use crate::config::ThemisConfig;
use crate::rho::JobShare;
use std::collections::BTreeMap;
use themis_cluster::alloc::FreeVector;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId, JobId};
use themis_cluster::time::Time;
use themis_cluster::view::{ClusterState, ClusterView};
use themis_protocol::bid::BidTable;
use themis_sim::app_runtime::AppRuntime;
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
}

impl ThemisScheduler {
    /// Creates a Themis scheduler with the given configuration.
    pub fn new(config: ThemisConfig) -> Self {
        ThemisScheduler {
            arbiter: Arbiter::new(config),
            agents: BTreeMap::new(),
            scratch: BidScratch::default(),
            config,
        }
    }

    /// Creates a Themis scheduler with the paper's recommended defaults
    /// (`f = 0.8`, 20-minute leases).
    pub fn with_defaults() -> Self {
        Self::new(ThemisConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &ThemisConfig {
        &self.config
    }

    /// Number of auction rounds run so far.
    pub fn auction_rounds(&self) -> u64 {
        self.arbiter.rounds()
    }
}

fn agent_for<'a>(
    agents: &'a mut BTreeMap<AppId, Agent>,
    config: &ThemisConfig,
    app: AppId,
) -> &'a mut Agent {
    agents.entry(app).or_insert_with(|| Agent::new(app, config))
}

/// Converts a per-app grant (per-machine counts) into concrete allocation
/// decisions, drawing GPUs from the round's `shadow` view (which tracks
/// GPUs already promised this round). Shared by the in-process and
/// distributed-mode schedulers so their materialization can never diverge —
/// the reliable `themis-dist` ≡ `themis` equivalence depends on it.
pub(crate) fn materialize_grant(
    agent: &Agent,
    shadow: &mut ClusterView<'_>,
    runtime: &AppRuntime,
    grant: &FreeVector,
) -> Vec<AllocationDecision> {
    let app = runtime.id();
    let shares: BTreeMap<JobId, JobShare> = agent.distribute_award(runtime, shadow, grant);
    let mut decisions = Vec::new();
    for (job, share) in shares {
        let mut gpus: Vec<GpuId> = Vec::new();
        for (machine, count) in share {
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
    decisions
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

        // 1. Probe the current ρ of every app that can take a GPU. Both
        //    lists are in ascending app order, as the arena iterates.
        let mut statuses: Vec<AppStatus> = Vec::new();
        let mut contexts: Vec<AppContext> = Vec::new();
        for runtime in apps.iter().filter(|a| a.is_schedulable(now)) {
            let unmet_demand = runtime.unmet_demand(cluster);
            if unmet_demand == 0 {
                continue;
            }
            let app = runtime.id();
            let context = AppContext::new(app, now, runtime, cluster);
            statuses.push(AppStatus {
                app,
                rho: context.current_rho(spec, &mut self.scratch).rho,
                unmet_demand,
                footprint: context.holdings.iter().map(|(m, _)| *m).collect(),
            });
            contexts.push(context);
        }
        if statuses.is_empty() {
            return Vec::new();
        }

        // 2. Select the worst-off 1−f fraction and collect their bids, each
        //    from the context and ρ its probe computed.
        let participants = self.arbiter.select_participants(&statuses);
        let mut bids: Vec<BidTable> = Vec::new();
        for app in &participants {
            let probed = statuses
                .binary_search_by_key(app, |s| s.app)
                .expect("participants are drawn from the statuses");
            let bid = agent_for(&mut self.agents, &self.config, *app).bid(
                &contexts[probed],
                statuses[probed].rho,
                spec,
                &offer,
                &mut self.scratch,
            );
            if !bid.is_empty() {
                bids.push(bid);
            }
        }

        // 3. Run the auction + leftover assignment.
        let outcome = self
            .arbiter
            .run_auction(&offer, &statuses, &participants, &bids, spec);

        // 4. Materialize per-machine grants into concrete GPU decisions,
        //    against a borrowed per-round view (no cluster clone).
        let mut shadow = cluster.view();
        let mut decisions = Vec::new();
        for (app, grant) in outcome.into_all_grants() {
            let Some(runtime) = apps.get(app) else {
                continue;
            };
            let agent = agent_for(&mut self.agents, &self.config, app);
            decisions.extend(materialize_grant(agent, &mut shadow, runtime, &grant));
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
