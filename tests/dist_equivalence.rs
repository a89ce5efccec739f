//! The distributed-mode contract, pinned as tests:
//!
//! * with a **reliable** transport, the actor-runtime `themis-dist`
//!   reproduces the in-process Themis policy's `SimReport` exactly
//!   (modulo the scheduler name) on every scenario of the smoke matrix —
//!   the message flow adds faults, never behavior,
//! * under **faults** (drops + delay + agent crashes) the auction degrades
//!   gracefully: every app still finishes, max-ρ inflation stays bounded,
//!   and the engine terminates,
//! * with delays **beyond the bid deadline** every round is missed, yet
//!   nothing wedges: the retry event keeps re-attempting rounds and the
//!   run ends at the time cap,
//! * the `faults` matrix matches the committed
//!   `BENCH_FAULTS_BASELINE.json` — the same gate the `scenario-matrix`
//!   CI job enforces for control-plane regressions.

use themis_bench::policies::Policy;
use themis_bench::report::check_baseline;
use themis_bench::scenarios::{ClusterKind, Matrix, Scenario};
use themis_bench::sweep::run_sweep;
use themis_cluster::cluster::Cluster;
use themis_cluster::time::Time;
use themis_protocol::fault::FaultConfig;
use themis_sim::engine::Engine;

/// With zero faults the full five-step message exchange must be
/// behavior-invisible: same decisions every round, hence the same report.
#[test]
fn reliable_dist_matches_in_process_on_smoke_matrix() {
    for scenario in Matrix::smoke().expand() {
        let trace = scenario.trace();
        let themis = scenario.run_on_trace(Policy::themis_default(), trace.clone());
        let mut dist = scenario.run_on_trace(Policy::themis_dist_default(), trace);
        assert_eq!(dist.scheduler, "themis-dist");
        // The distributed mode additionally reports control-plane round
        // accounting (the in-process policy has no control plane); on a
        // reliable transport every started round must have completed.
        let control = dist.control.take().expect("dist reports control stats");
        assert_eq!(
            control.completed_rounds,
            control.rounds,
            "reliable transport must complete every round on {}",
            scenario.id()
        );
        assert_eq!(control.missed_rho_reports + control.missed_bids, 0);
        dist.scheduler = themis.scheduler.clone();
        assert_eq!(
            dist,
            themis,
            "themis-dist must reproduce in-process Themis on {}",
            scenario.id()
        );
    }
}

/// Drops, delays and agent crashes slow apps down but must not starve
/// them: every app finishes, every round terminates by its deadline, and
/// the worst finish-time fairness stays within a small factor of the
/// fault-free run.
#[test]
fn faulty_transport_degrades_gracefully() {
    let clean = Scenario::new(ClusterKind::Rack16, 6, 42).with_contention(2.0);
    let faulty = clean.clone().with_fault(
        FaultConfig::reliable()
            .with_drop_probability(0.3)
            .with_delay(Time::seconds(5.0))
            .with_crash(5, 2),
    );
    let clean_report = clean.run(Policy::themis_dist_default());
    let faulty_report = faulty.run(Policy::themis_dist_default());

    assert_eq!(
        faulty_report.unfinished_apps(),
        0,
        "a lossy control plane must delay apps, not strand them"
    );
    let clean_rho = clean_report.max_fairness().expect("apps finished");
    let faulty_rho = faulty_report.max_fairness().expect("apps finished");
    assert!(
        faulty_rho <= clean_rho * 4.0 + 1.0,
        "max-rho inflation unbounded: {faulty_rho} vs fault-free {clean_rho}"
    );
    // Missed rounds are retried, so the faulty run schedules at least as
    // often as the clean one.
    assert!(faulty_report.scheduling_rounds >= clean_report.scheduling_rounds);
    // Determinism: the same faulty scenario reproduces byte-for-byte.
    assert_eq!(faulty.run(Policy::themis_dist_default()), faulty_report);
}

/// A one-way delay beyond the bid deadline makes every Agent miss every
/// round. The run must still terminate (no wedged event queue): the
/// engine's retry event keeps attempting rounds until the time cap.
#[test]
fn delay_beyond_deadline_never_wedges_the_engine() {
    let scenario = Scenario::new(ClusterKind::Rack16, 3, 7)
        .with_fault(FaultConfig::reliable().with_delay(Time::minutes(1.0)));
    let config = scenario
        .sim_config()
        .with_max_sim_time(Time::minutes(2_000.0));
    let report = Engine::new(
        Cluster::new(scenario.cluster_spec()),
        scenario.trace(),
        scenario
            .instantiate(Policy::themis_dist_default())
            .build_with(&config),
        config,
    )
    .run();
    assert_eq!(report.finished_apps(), 0, "no round can complete");
    assert!(
        report.scheduling_rounds > 3,
        "rounds must keep being attempted, got {}",
        report.scheduling_rounds
    );
    assert!(report.end_time <= Time::minutes(2_000.0) + Time::minutes(1e-6));
}

/// The `faults` matrix is gated exactly against its committed baseline,
/// mirroring the smoke-matrix gate: a protocol or fault-injection change
/// that alters any cell fails here (and in CI) until the baseline is
/// regenerated intentionally.
#[test]
fn faults_sweep_matches_committed_baseline() {
    let report = run_sweep(&Matrix::faults(), 2);
    check_baseline(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_FAULTS_BASELINE.json"
        ),
        Some(&report),
        1e-9,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    // The reliable-fault cells of the two Themis modes must agree on every
    // metric — the equivalence, visible in the committed baseline itself.
    let reliable: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.scenario.fault.is_reliable())
        .collect();
    let themis = reliable
        .iter()
        .find(|c| c.policy == "themis")
        .expect("in-process cell");
    let dist = reliable
        .iter()
        .find(|c| c.policy == "themis-dist")
        .expect("distributed cell");
    // Equal on every shared metric; the control block exists only on the
    // distributed side.
    let mut dist_metrics = dist.metrics.clone();
    assert!(dist_metrics.block("control").is_some());
    dist_metrics.blocks.retain(|(name, _)| *name != "control");
    assert_eq!(themis.metrics, dist_metrics);
}
