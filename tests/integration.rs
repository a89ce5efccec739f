//! Cross-crate integration tests: trace → simulator → schedulers → metrics,
//! plus the Arbiter ↔ Agent protocol running over the in-memory network.

use std::collections::BTreeMap;
use themis_bench::experiments::{run_experiment, Scale};
use themis_bench::policies::Policy;
use themis_cluster::prelude::*;
use themis_core::agent::Agent;
use themis_core::arbiter::{AppStatus, Arbiter};
use themis_core::config::ThemisConfig;
use themis_core::scheduler::ThemisScheduler;
use themis_protocol::prelude::*;
use themis_sim::prelude::*;
use themis_workload::prelude::*;

fn small_trace(apps: usize, seed: u64) -> Vec<AppSpec> {
    TraceGenerator::new(TraceConfig::testbed().with_num_apps(apps).with_seed(seed)).generate()
}

#[test]
fn every_policy_completes_a_small_trace() {
    let trace = small_trace(4, 11);
    for policy in [
        Policy::themis_default(),
        Policy::Gandiva,
        Policy::Tiresias,
        Policy::Slaq,
        Policy::Drf,
    ] {
        let cluster = Cluster::new(ClusterSpec::testbed_50());
        let report = Engine::new(
            cluster,
            trace.clone(),
            policy.build(),
            SimConfig::default().with_max_sim_time(Time::minutes(1_000_000.0)),
        )
        .run();
        assert_eq!(
            report.unfinished_apps(),
            0,
            "{}: every app must finish",
            policy.name()
        );
        assert!(
            report.max_fairness().unwrap() >= 1.0 - 1e-9,
            "{}: rho can never beat a dedicated cluster",
            policy.name()
        );
        assert!(report.total_gpu_time.as_minutes() > 0.0);
    }
}

#[test]
fn gpus_are_never_double_allocated_under_themis() {
    // Run the engine step-visible: after the run, the lease table must be
    // consistent (every allocated GPU has exactly one assignment), which the
    // Cluster type enforces — a double allocation would have panicked inside
    // the engine when the decision was applied. This test exercises a
    // contended trace to make conflicts likely if the auction were buggy.
    let trace = small_trace(6, 23);
    let cluster = Cluster::new(ClusterSpec::homogeneous(1, 4, 4));
    let report = Engine::new(
        cluster,
        trace,
        ThemisScheduler::with_defaults(),
        SimConfig::default().with_max_sim_time(Time::minutes(500_000.0)),
    )
    .run();
    assert!(report.finished_apps() > 0);
    assert!(
        report.peak_contention > 1.0,
        "the trace must actually contend"
    );
}

#[test]
fn experiment_tables_are_well_formed_at_tiny_scale() {
    for id in ["fig1", "fig2", "fig8"] {
        let table = run_experiment(id, Scale::tiny()).expect("known experiment");
        assert!(!table.rows.is_empty(), "{id} must produce rows");
        for row in &table.rows {
            assert_eq!(row.len(), table.headers.len());
        }
    }
}

/// Both directions of the §7 interface on one [`Network`].
#[derive(Debug)]
enum Wire {
    ToAgent(ArbiterToAgent),
    ToArbiter(AgentToArbiter),
}

impl NetMsg for Wire {
    fn log_tag(&self) -> String {
        "wire".to_string()
    }
}

#[test]
fn arbiter_and_agent_talk_over_the_in_memory_transport() {
    // One auction round run end-to-end through the protocol layer: every
    // step crosses a lossless in-memory network and arrives, as sent, at
    // the actor it was addressed to.
    let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
    let app_spec = AppSpec::single_job(
        AppId(0),
        Time::ZERO,
        JobSpec::new(JobId(0), ModelArch::Vgg16, 1000.0, Time::minutes(0.1), 4),
    );
    let runtime = AppRuntime::with_default_hpo(app_spec);
    let config = ThemisConfig::default();
    let mut agent = Agent::new(AppId(0), &config);
    let mut arbiter = Arbiter::new(config);
    let now = Time::minutes(1.0);
    let mut net: Network<Wire> = Network::new(FaultConfig::reliable(), LogMode::Off);
    let mut hop = |src: ActorId, dst: ActorId, msg: Wire| {
        net.send(now, src, dst, msg);
        let (at, _, from, to, delivered) = net.pop_due(now).expect("delivered instantly");
        assert_eq!((at, from, to), (now, src, dst));
        delivered
    };
    let (arbiter_id, agent_id) = (ActorId::ARBITER, ActorId(0));

    // Step 1-2: rho probe.
    let query = Wire::ToAgent(ArbiterToAgent::QueryRho { round: 0 });
    let query = hop(arbiter_id, agent_id, query);
    assert!(matches!(
        query,
        Wire::ToAgent(ArbiterToAgent::QueryRho { round: 0 })
    ));
    let rho = agent.current_rho(now, &runtime, &cluster).rho;
    let report = AgentToArbiter::Rho(RhoReport {
        round: 0,
        app: AppId(0),
        rho,
    });
    match hop(agent_id, arbiter_id, Wire::ToArbiter(report)) {
        Wire::ToArbiter(report) => assert_eq!(report.app(), AppId(0)),
        other => panic!("expected a rho report, got {other:?}"),
    }

    // Step 3-4: offer and bid.
    let offer = OfferMsg {
        round: 0,
        now,
        resources: cluster.free_vector(),
        reply_by: now + Time::seconds(30.0),
    };
    let offer_msg = Wire::ToAgent(ArbiterToAgent::Offer(offer.clone()));
    let offer_msg = match hop(arbiter_id, agent_id, offer_msg) {
        Wire::ToAgent(ArbiterToAgent::Offer(o)) => o,
        other => panic!("expected an offer, got {other:?}"),
    };
    let bid = AgentToArbiter::Bid {
        round: offer_msg.round,
        table: agent.prepare_bid(now, &runtime, &cluster, &offer_msg.resources),
    };
    let bids = match hop(agent_id, arbiter_id, Wire::ToArbiter(bid)) {
        Wire::ToArbiter(AgentToArbiter::Bid { table, .. }) => vec![table],
        other => panic!("expected a bid, got {other:?}"),
    };

    // Step 5: auction and win notification.
    let statuses = vec![AppStatus {
        app: AppId(0),
        rho,
        unmet_demand: runtime.unmet_demand(&cluster),
        footprint: Default::default(),
    }];
    let outcome = arbiter.run_auction(
        &offer.resources,
        &statuses,
        &[AppId(0)],
        &bids,
        cluster.spec(),
    );
    let round = outcome.round;
    let grants = outcome.into_all_grants();
    let grant = &grants[&AppId(0)];
    assert_eq!(
        grant.total(),
        4,
        "the lone app should win the whole machine"
    );
    let win = ArbiterToAgent::Win(WinNotification {
        round,
        app: AppId(0),
        job: JobId(0),
        gpus: vec![GpuId(0), GpuId(1), GpuId(2), GpuId(3)],
    });
    assert!(matches!(
        hop(arbiter_id, agent_id, Wire::ToAgent(win)),
        Wire::ToAgent(ArbiterToAgent::Win(_))
    ));
}

#[test]
fn timeline_records_allocation_changes() {
    let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
    let trace = two_app_micro_trace_reexport();
    let report = Engine::new(
        cluster,
        trace,
        ThemisScheduler::with_defaults(),
        SimConfig::default().with_checkpoint_overhead(Time::ZERO),
    )
    .run();
    for outcome in &report.apps {
        assert!(
            !outcome.gpu_timeline.is_empty(),
            "{} must have a GPU timeline",
            outcome.app
        );
        // Timelines start no earlier than arrival (t = 40 min).
        assert!(outcome.gpu_timeline[0].0 >= Time::minutes(40.0));
    }
}

fn two_app_micro_trace_reexport() -> Vec<AppSpec> {
    themis_workload::trace::two_app_micro_trace()
}

#[test]
fn apps_map_is_keyed_consistently() {
    // AppRuntime instances must be addressable by their own id in the
    // engine's map (a regression guard for id/key mismatches).
    let trace = small_trace(3, 5);
    let runtimes: BTreeMap<AppId, AppRuntime> = trace
        .into_iter()
        .map(|spec| (spec.id, AppRuntime::with_default_hpo(spec)))
        .collect();
    for (id, rt) in &runtimes {
        assert_eq!(*id, rt.id());
    }
}
