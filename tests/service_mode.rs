//! The open-system service mode's CI contract:
//!
//! * **closed-system equivalence** — replaying a fully materialized trace
//!   through the service engine (with the incremental hot path ON)
//!   produces a [`SimReport`] identical to the batch engine's (with the
//!   hot path OFF), for every policy: the skip is observationally pure,
//! * the incremental hot path **actually skips** — a low-utilization
//!   service cell short-circuits at least half of its rounds,
//! * **steady-state detection** fires within bounded simulated time on
//!   stationary arrivals and never inside a flash-crowd storm,
//! * the **service matrix** is deterministic (`--jobs 4` ≡ `--jobs 1`,
//!   byte for byte) and matches the committed
//!   `BENCH_SERVICE_BASELINE.json` — the gate the `service-matrix` CI job
//!   enforces.

use proptest::prelude::*;
use themis_bench::policies::Policy;
use themis_bench::report::{check_baseline, SweepReport};
use themis_bench::scenarios::{ClusterKind, Matrix, Scenario, ServiceAxis, ServiceShape};
use themis_bench::sweep::run_sweep;
use themis_cluster::cluster::Cluster;
use themis_cluster::time::Time;
use themis_sim::service::{ReplaySource, ServiceConfig, ServiceEngine, ServiceReport};
use themis_sim::window::SteadyConfig;

/// Replays `scenario`'s materialized trace through the service engine with
/// incremental rounds enabled. No heartbeat ticks and an unbounded horizon,
/// so the only differences from a batch run are the admission path and the
/// auction-skipping hot path — exactly what the equivalence test isolates.
fn run_replayed_service(scenario: &Scenario, policy: Policy) -> ServiceReport {
    let cluster = Cluster::new(scenario.cluster_spec());
    let sim = scenario.sim_config().with_incremental(true);
    let scheduler = scenario.instantiate(policy).build_with(&sim);
    let config = ServiceConfig {
        horizon: Time::INFINITY,
        tick_interval: None,
        window: Time::minutes(1_000.0),
        steady: SteadyConfig {
            warmup: Time::minutes(2_000.0),
            check_interval: Time::minutes(500.0),
            min_samples: 10,
            tolerance: 0.25,
            consecutive: 4,
            backlog_slack: 4,
        },
    };
    ServiceEngine::new(
        cluster,
        scheduler,
        sim,
        config,
        ReplaySource::new(scenario.trace()),
    )
    .run()
}

/// The in-process policies the equivalence property quantifies over (the
/// distributed mode opts out of incremental rounds and has its own
/// batch-equivalence suite in `dist_equivalence.rs`).
const POLICIES: [fn() -> Policy; 5] = [
    Policy::themis_default,
    || Policy::Gandiva,
    || Policy::Slaq,
    || Policy::Tiresias,
    || Policy::Drf,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Service mode with the incremental hot path ON reproduces the batch
    /// engine (hot path OFF) report for report: same outcomes, same end
    /// time, same GPU accounting, same round count.
    #[test]
    fn replayed_service_run_equals_batch_run(
        seed in 0u64..500,
        apps in 2usize..7,
        contention_idx in 0usize..2,
        policy_idx in 0usize..5,
    ) {
        let scenario = Scenario::new(ClusterKind::Rack16, apps, seed)
            .with_contention([1.0, 2.0][contention_idx]);
        let policy = POLICIES[policy_idx]();
        let batch = scenario.run(policy);
        let service = run_replayed_service(&scenario, policy);
        prop_assert_eq!(
            &service.sim, &batch,
            "service replay diverged from batch for {} on {}",
            policy.name(), scenario.id()
        );
        prop_assert_eq!(service.admitted as usize, apps);
        prop_assert_eq!(
            service.auctions_run + service.auctions_skipped,
            batch.scheduling_rounds,
            "every batch round is either run or skipped in service mode"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On stationary (Poisson) arrivals at a clearly subcritical rate the
    /// steady-state detector declares convergence well before the horizon.
    /// (At rate 1.0 the 16-GPU rack sits near its critical load, where
    /// convergence is legitimately seed-dependent — stationarity of the
    /// arrival process only implies a steady state when the queue is
    /// stable, so the property is stated at 0.5.)
    #[test]
    fn steady_state_fires_on_stationary_arrivals(seed in 0u64..100) {
        let scenario = Scenario::new(ClusterKind::Rack16, 6, seed)
            .with_service(ServiceAxis::new(ServiceShape::Poisson, 0.5, 3_000.0));
        let report = scenario.run_service(Policy::themis_default());
        let at = report.steady_state_at;
        prop_assert!(
            at.is_some(),
            "stationary service run never converged (seed {seed})"
        );
        prop_assert!(at.expect("checked") < Time::minutes(3_000.0));
    }

    /// A flash crowd must never read as steady state while the storm is
    /// raging: the backlog guard holds the detector back even when the
    /// windowed ρ percentiles look flat.
    ///
    /// The forbidden zone starts one detection latency *after* storm
    /// onset, not at onset: the detector is causal, so a convergence
    /// declared just after the storm begins can legitimately rest on
    /// `consecutive` checks of pre-storm data. Only once it has had
    /// `consecutive × check_interval` minutes of storm to look at is a
    /// steady-state declaration genuinely wrong.
    #[test]
    fn steady_state_never_fires_inside_a_flash_crowd(seed in 0u64..100) {
        let horizon = 3_000.0;
        let scenario = Scenario::new(ClusterKind::Rack16, 6, seed)
            .with_service(ServiceAxis::new(ServiceShape::Flash, 0.5, horizon));
        let steady = scenario.service_config().steady;
        let report = scenario.run_service(Policy::themis_default());
        if let Some(at) = report.steady_state_at {
            // The storm occupies [horizon/4, horizon/4 + horizon/8) — see
            // ServiceShape::arrival_shape.
            let storm_start = Time::minutes(horizon / 4.0);
            let storm_end = Time::minutes(horizon / 4.0 + horizon / 8.0);
            let detection_latency = steady.check_interval * steady.consecutive as f64;
            let forbidden_from = storm_start + detection_latency;
            prop_assert!(
                at < forbidden_from || at >= storm_end,
                "steady state declared at {at:?} with {detection_latency:?} of \
                 storm-only history (storm [{storm_start:?}, {storm_end:?}), \
                 seed {seed})"
            );
        }
    }
}

/// The incremental hot path earns its keep: on a mostly-idle service cell
/// (quarter-rate arrivals, heartbeat ticks every half lease) at least half
/// of all scheduling rounds skip the policy call outright.
#[test]
fn low_utilization_cell_skips_at_least_half_its_auctions() {
    let scenario = Scenario::new(ClusterKind::Rack16, 6, 42).with_service(ServiceAxis::new(
        ServiceShape::Poisson,
        0.25,
        Matrix::SERVICE_HORIZON_MINUTES,
    ));
    let report = scenario.run_service(Policy::themis_default());
    let total = report.auctions_run + report.auctions_skipped;
    assert!(total > 0, "the run must process rounds");
    assert!(
        report.auctions_skipped >= report.auctions_run,
        "expected >=50% of rounds skipped on a low-utilization cell, got {} skipped of {}",
        report.auctions_skipped,
        total
    );
    assert_eq!(total, report.sim.scheduling_rounds);
}

/// Serial and parallel runs of the service matrix render the same bytes,
/// round-trip through the parser, and match the committed baseline — the
/// `service-matrix` CI gate, pinned as a test so a behavior change that
/// forgets to regenerate the baseline fails here first.
#[test]
fn parallel_service_sweep_is_byte_identical_to_serial() {
    let matrix = Matrix::service();
    let serial = run_sweep(&matrix, 1);
    let parallel = run_sweep(&matrix, 4);
    let serial_text = serial.to_canonical_string();
    assert_eq!(
        serial_text,
        parallel.to_canonical_string(),
        "--jobs 4 must emit the same canonical JSON as --jobs 1"
    );

    let back = SweepReport::parse_str(&serial_text).expect("canonical JSON parses");
    assert_eq!(back.to_canonical_string(), serial_text);
    assert_eq!(back.cells.len(), matrix.cells().len());
    // Every cell is a service cell carrying the windowed metric block.
    for cell in &back.cells {
        assert!(cell.scenario.service.is_some(), "{} lost its axis", cell.id);
        assert!(
            cell.metrics.block("service").is_some(),
            "{} lost its windowed metrics",
            cell.id
        );
    }

    let baseline = check_baseline(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_SERVICE_BASELINE.json"
        ),
        Some(&serial),
        1e-9,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        serial_text,
        baseline.to_canonical_string(),
        "service sweep canonical JSON is not byte-identical to BENCH_SERVICE_BASELINE.json"
    );
}
