//! Property test: every scheduling policy conserves GPUs.
//!
//! A `ConservationGuard` wraps the policy under test and audits every
//! scheduling round *before* the engine applies it: no decision may hand
//! out a GPU that is not currently free, no GPU may be granted twice in
//! one round, every granted GPU must exist in the cluster topology, and
//! the grand total (already allocated + granted this round) can never
//! exceed cluster capacity. Scenarios come from the scenario-matrix
//! generator with randomized axis values, so the invariant is exercised
//! across contention levels, fairness knobs, leases, bursty arrivals,
//! heavy 8-GPU jobs and (for the distributed mode) transport faults —
//! for both Themis modes and all four baselines. A dropped `Win`
//! notification or an Agent that misses a round mid-lease must never
//! leak or double-lease a GPU; the actor-runtime cases extend the audit
//! to split-and-heal partitions, jittered reordering, Arbiter failover
//! and bandwidth-serialized links, where the reservation discipline
//! behind in-flight Wins also counts against capacity.

use proptest::prelude::*;
use std::collections::BTreeSet;
use themis_bench::policies::Policy;
use themis_bench::scenarios::{ClusterKind, Matrix, Scenario};
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::GpuId;
use themis_cluster::time::Time;
use themis_core::actors::DistributedThemisScheduler;
use themis_protocol::fault::FaultConfig;
use themis_sim::arena::AppArena;
use themis_sim::engine::Engine;
use themis_sim::scheduler::{AllocationDecision, Scheduler};

/// Scheduler wrapper that panics the moment the inner policy's decisions
/// would violate GPU conservation.
struct ConservationGuard {
    inner: Box<dyn Scheduler>,
}

impl Scheduler for ConservationGuard {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let decisions = self.inner.schedule(now, cluster, apps);
        let free: BTreeSet<GpuId> = cluster.free_gpus().into_iter().collect();
        let mut granted: BTreeSet<GpuId> = BTreeSet::new();
        for decision in &decisions {
            for gpu in &decision.gpus {
                assert!(
                    cluster.spec().machine_of(*gpu).is_some(),
                    "{} granted nonexistent {gpu:?} to app {:?} at t={now:?}",
                    self.inner.name(),
                    decision.app,
                );
                assert!(
                    free.contains(gpu),
                    "{} granted non-free {gpu:?} to app {:?} at t={now:?}",
                    self.inner.name(),
                    decision.app,
                );
                assert!(
                    granted.insert(*gpu),
                    "{} granted {gpu:?} twice in one round at t={now:?}",
                    self.inner.name(),
                );
            }
        }
        assert!(
            cluster.allocated_gpus() + granted.len() <= cluster.total_gpus(),
            "{} over-committed the cluster at t={now:?}: {} allocated + {} granted > {} total",
            self.inner.name(),
            cluster.allocated_gpus(),
            granted.len(),
            cluster.total_gpus(),
        );
        decisions
    }

    fn next_wakeup(&self) -> Option<Time> {
        // The actor runtime relies on engine wakeups for its in-flight
        // messages and deadlines; a guard that swallowed them would turn
        // every delayed round into a missed one.
        self.inner.next_wakeup()
    }
}

/// Like [`ConservationGuard`], but for the concrete actor runtime: it
/// additionally audits the reservation discipline that backs in-flight
/// `Win` notifications — GPUs held behind unconfirmed Wins also count
/// against capacity, and a granted GPU must never still be reserved.
struct ActorReservationGuard {
    inner: DistributedThemisScheduler,
}

impl Scheduler for ActorReservationGuard {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let decisions = self.inner.schedule(now, cluster, apps);
        let free: BTreeSet<GpuId> = cluster.free_gpus().into_iter().collect();
        let mut granted: BTreeSet<GpuId> = BTreeSet::new();
        for decision in &decisions {
            for gpu in &decision.gpus {
                assert!(
                    free.contains(gpu),
                    "actor runtime granted non-free {gpu:?} at t={now:?}"
                );
                assert!(
                    granted.insert(*gpu),
                    "actor runtime granted {gpu:?} twice in one round at t={now:?}"
                );
            }
        }
        // Reserved GPUs are free in the cluster but spoken for: a grant
        // returned this round has already been unreserved, so allocated +
        // granted + still-reserved can never exceed capacity. A partition
        // healing into a duplicate grant, or a failover leaking a pending
        // Win's reservation, breaks this sum.
        let reserved = self.inner.reserved_gpus();
        assert!(
            cluster.allocated_gpus() + granted.len() + reserved <= cluster.total_gpus(),
            "actor runtime over-committed at t={now:?}: {} allocated + {} granted + {} reserved > {} total",
            cluster.allocated_gpus(),
            granted.len(),
            reserved,
            cluster.total_gpus(),
        );
        decisions
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }
}

/// The randomized scenario pool: the matrix generator expanded over wide
/// axis values, including the bursty/heavy workload knobs and a faulty
/// transport point (which only the distributed policy runs).
fn property_cells() -> Vec<(Scenario, Policy)> {
    let faults = [
        FaultConfig::reliable(),
        FaultConfig::reliable()
            .with_drop_probability(0.3)
            .with_delay(Time::seconds(8.0))
            .with_crash(3, 2),
        FaultConfig::reliable()
            .with_delay(Time::seconds(2.0))
            .with_jitter(Time::seconds(5.0))
            .with_bandwidth(120.0)
            .with_partition(4, 2)
            .with_failover(5),
    ];
    Matrix::new("property", ClusterKind::Rack16, 4, 11, Policy::all())
        .axis(&[2, 4], |s, apps| Scenario { apps, ..s })
        .axis(&[1.0, 4.0], Scenario::with_contention)
        .axis(&[0.2, 0.8], Scenario::with_fairness_knob)
        .axis(&[5.0, 20.0], Scenario::with_lease_minutes)
        .axis(&[0.0, 0.7], |s, burst_fraction| Scenario {
            burst_fraction,
            ..s
        })
        .axis(&[0.0, 0.4], |s, heavy_job_fraction| Scenario {
            heavy_job_fraction,
            ..s
        })
        .axis(&faults, Scenario::with_fault)
        .axis(&[11, 29], |s, seed| {
            Scenario { seed, ..s }.with_scheduler_seed(seed)
        })
        .cells()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random cells of the property matrix keep GPUs conserved round by
    /// round. The horizon is capped: conservation is a per-round
    /// invariant, so auditing a prefix of a long run still proves it.
    #[test]
    fn policies_conserve_gpus_across_random_scenarios(index in 0usize..5000) {
        let cells = property_cells();
        let (scenario, policy) = cells[index % cells.len()].clone();
        let config = scenario
            .sim_config()
            .with_max_sim_time(Time::minutes(30_000.0));
        let guard = ConservationGuard {
            inner: scenario.instantiate(policy).build_with(&config),
        };
        let cluster = Cluster::new(scenario.cluster_spec());
        let report = Engine::new(cluster, scenario.trace(), guard, config).run();
        prop_assert!(
            report.scheduling_rounds > 0,
            "guarded run of {} on {} never scheduled",
            policy.name(),
            scenario.id(),
        );
    }
}

/// Pinned-seed audit of the distributed scheduler under every fault class
/// at once: drops, delays and an agent crashing mid-lease. The guard
/// asserts round-by-round that no GPU is granted twice, granted while
/// leased, or conjured from nowhere — i.e. a `Win` lost in transit voids
/// the grant instead of leaking it, and a crashed Agent's leases are
/// reclaimed normally.
#[test]
fn distributed_scheduler_conserves_gpus_under_faults() {
    for (drop, delay_s, crash) in [(0.4, 0.0, (0, 0)), (0.0, 5.0, (2, 1)), (0.3, 5.0, (3, 2))] {
        let scenario = Scenario::new(ClusterKind::Rack16, 5, 23)
            .with_contention(2.0)
            .with_fault(
                FaultConfig::reliable()
                    .with_drop_probability(drop)
                    .with_delay(Time::seconds(delay_s))
                    .with_crash(crash.0, crash.1),
            );
        let config = scenario
            .sim_config()
            .with_max_sim_time(Time::minutes(30_000.0));
        let guard = ConservationGuard {
            inner: scenario
                .instantiate(Policy::themis_dist_default())
                .build_with(&config),
        };
        let report = Engine::new(
            Cluster::new(scenario.cluster_spec()),
            scenario.trace(),
            guard,
            config,
        )
        .run();
        assert!(
            report.scheduling_rounds > 0,
            "faulty run {} never scheduled",
            scenario.id()
        );
        assert_eq!(
            report.finished_apps() + report.unfinished_apps(),
            5,
            "every app accounted for in {}",
            scenario.id()
        );
    }
}

/// Pinned-seed audit of the actor-runtime fault axes beyond drop, delay
/// and crash: split-and-heal partitions, jitter-induced reordering,
/// Arbiter failover and bandwidth-serialized links. The reservation-aware
/// guard asserts every round that a `Win` lost to a cut link or a failed
/// Arbiter voids its grant (reserved GPUs still count against capacity)
/// and that a healed partition never double-grants; the engine must
/// terminate with every app accounted for — no wedged rounds, no leaked
/// GPUs.
#[test]
fn actor_runtime_conserves_gpus_under_partitions_reorder_and_failover() {
    let fault_cases = [
        // Split-and-heal partitions every 3rd round, lasting 1 round.
        FaultConfig::reliable().with_partition(3, 1),
        // Reordering: jitter dominates the fixed delay.
        FaultConfig::reliable()
            .with_delay(Time::seconds(2.0))
            .with_jitter(Time::seconds(6.0)),
        // Arbiter failover every 4th round voids in-flight Wins.
        FaultConfig::reliable()
            .with_delay(Time::seconds(5.0))
            .with_failover(4),
        // Serialized links: offers and bids queue behind each other.
        FaultConfig::reliable().with_bandwidth(120.0),
        // Everything at once, plus drops and crashes.
        FaultConfig::reliable()
            .with_drop_probability(0.2)
            .with_delay(Time::seconds(2.0))
            .with_jitter(Time::seconds(4.0))
            .with_bandwidth(240.0)
            .with_crash(5, 2)
            .with_partition(4, 2)
            .with_failover(6),
    ];
    for fault in fault_cases {
        let scenario = Scenario::new(ClusterKind::Rack16, 5, 23)
            .with_contention(2.0)
            .with_fault(fault);
        let config = scenario
            .sim_config()
            .with_max_sim_time(Time::minutes(30_000.0));
        let themis_config = match scenario.instantiate(Policy::themis_dist_default()) {
            Policy::ThemisDist(cfg) => cfg,
            other => panic!("expected ThemisDist, got {other:?}"),
        };
        let guard = ActorReservationGuard {
            inner: DistributedThemisScheduler::new(themis_config, config.fault),
        };
        let report = Engine::new(
            Cluster::new(scenario.cluster_spec()),
            scenario.trace(),
            guard,
            config,
        )
        .run();
        assert!(
            report.scheduling_rounds > 0,
            "faulty run {} never scheduled",
            scenario.id()
        );
        assert_eq!(
            report.finished_apps() + report.unfinished_apps(),
            5,
            "every app accounted for in {}",
            scenario.id()
        );
        assert!(
            report.end_time <= Time::minutes(30_000.0) + Time::minutes(1e-6),
            "run {} overran its horizon",
            scenario.id()
        );
    }
}
