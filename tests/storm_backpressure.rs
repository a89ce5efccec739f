//! The Arbiter-backpressure contract, pinned as tests:
//!
//! * **batching is semantics-free**: on a reliable (zero-latency,
//!   zero-service-time) network, coalescing the §3.1 exchange into
//!   `RhoBatch`/`OfferBatch`/`WinBatch` messages reproduces the unbatched
//!   run's `SimReport` exactly — batching changes delivery *timing* under
//!   congestion, never auction decisions,
//! * **congestion degrades, coalescing recovers**: with a per-message
//!   Arbiter service time the ρ fan-in overruns its deadline and rounds
//!   miss; the same cell with batching enabled completes its rounds,
//! * **storm cells are deterministic**: the same seed reproduces the same
//!   report byte for byte, serial and parallel sweeps agree, and a
//!   congested + coalesced run records and replays through the
//!   `themis-msglog v1` transcript byte-identically.

use themis_bench::policies::Policy;
use themis_bench::report::check_baseline;
use themis_bench::scenarios::{ClusterKind, Matrix, Scenario, StormAxis};
use themis_bench::sweep::{run_replay_gate, run_sweep};
use themis_cluster::cluster::Cluster;
use themis_cluster::time::Time;
use themis_protocol::fault::FaultConfig;
use themis_sim::engine::Engine;
use themis_sim::metrics::SimReport;

/// An 8-app storm on the 16-GPU rack: every app arrives at time zero and
/// the auction fans out to the whole population each round.
fn storm_scenario(fault: FaultConfig) -> Scenario {
    Scenario::new(ClusterKind::Rack16, 8, 42)
        .with_fault(fault)
        .with_storm(StormAxis::new(0.5))
}

/// Runs a storm scenario with a tight horizon: the backpressure contract
/// is about round completion under congestion, not long-run makespan, so
/// a truncated-but-deterministic prefix is just as binding (and keeps the
/// suite fast in debug CI).
fn run_capped(scenario: &Scenario, cap_minutes: f64) -> SimReport {
    let config = scenario
        .sim_config()
        .with_max_sim_time(Time::minutes(cap_minutes));
    Engine::new(
        Cluster::new(scenario.cluster_spec()),
        scenario.trace(),
        scenario
            .instantiate(Policy::themis_dist_default())
            .build_with(&config),
        config,
    )
    .run()
}

/// A congested Arbiter: 1 s of inbox service per message. The query
/// fan-out plus serialized report fan-in take 2 × 8 × 1 s = 16 s, past
/// the 15 s ρ half-deadline of the storm's 30 s round deadline.
fn congested() -> FaultConfig {
    FaultConfig::reliable().with_arbiter_service_time(Time::seconds(1.0))
}

/// With zero service time, coalescing must be behavior-invisible: the
/// batch containers deliver at the same instants the individual messages
/// would have, so decisions — and the whole report, control block
/// included — are identical.
#[test]
fn batching_is_invisible_on_a_reliable_network() {
    let unbatched = storm_scenario(FaultConfig::reliable());
    let batched = storm_scenario(FaultConfig::reliable().with_arbiter_batch(4));
    let a = run_capped(&unbatched, 500.0);
    let b = run_capped(&batched, 500.0);
    let control = a.control.as_ref().expect("dist reports control stats");
    assert_eq!(control.completed_rounds, control.rounds);
    assert_eq!(a, b, "coalescing changed a zero-service-time run");
}

/// The tentpole's degradation-and-recovery claim in miniature: the
/// congested unbatched storm misses most of its rounds; the same storm
/// with 4-way coalescing (2 sends each way instead of 8) completes them.
#[test]
fn congestion_misses_rounds_and_coalescing_recovers_them() {
    let choked = run_capped(&storm_scenario(congested()), 300.0);
    let coalesced = run_capped(&storm_scenario(congested().with_arbiter_batch(4)), 300.0);

    let choked_control = choked.control.expect("dist reports control stats");
    let coalesced_control = coalesced.control.expect("dist reports control stats");
    let choked_rate = choked_control.missed_round_rate();
    let coalesced_rate = coalesced_control.missed_round_rate();
    assert!(
        choked_control.missed_rho_reports > 0 && choked_rate > 0.5,
        "8 apps x 1 s of service must overrun the 15 s rho deadline, got rate {choked_rate}"
    );
    assert!(
        coalesced_rate <= choked_rate / 2.0,
        "coalescing must recover at least half the missed-round rate: {choked_rate} -> {coalesced_rate}"
    );
    // Coalescing completes strictly more rounds in the same horizon.
    assert!(coalesced_control.completed_rounds > choked_control.completed_rounds);
}

/// A miniature storm matrix (free / congested / coalesced Arbiter over
/// one 5-app storm) pins the sweep-level contract: serial and parallel
/// runs render byte-identical canonical JSON, and re-running is a fixed
/// point.
#[test]
fn storm_sweeps_are_deterministic_and_parallelism_invariant() {
    let matrix = mini_storm_matrix();
    let serial = run_sweep(&matrix, 1);
    let parallel = run_sweep(&matrix, 4);
    assert_eq!(
        serial.to_canonical_string(),
        parallel.to_canonical_string(),
        "--jobs 4 must emit the same canonical JSON as --jobs 1"
    );
    assert_eq!(
        run_sweep(&matrix, 1).to_canonical_string(),
        serial.to_canonical_string(),
        "re-running the storm sweep must be a fixed point"
    );
    // Every cell carries the control block, and the congested cell's
    // backlog shows up as strictly more rounds than the free cell's (the
    // retry path re-attempts what congestion misses).
    for cell in &serial.cells {
        let control = cell
            .metrics
            .control
            .as_ref()
            .expect("dist cells report control");
        assert!(control.rounds > 0);
    }
}

/// Congested + coalesced storm runs must round-trip the `themis-msglog
/// v1` transcript: the batch messages and service-time-shifted deliveries
/// are recorded, and replaying from the transcript alone reproduces the
/// canonical report byte for byte. This is the same gate CI runs over the
/// full storm matrix.
#[test]
fn coalesced_congested_storms_record_and_replay_exactly() {
    let outcomes = run_replay_gate(&mini_storm_matrix());
    assert_eq!(outcomes.len(), 3, "three distributed cells");
    for outcome in &outcomes {
        assert!(outcome.records > 0, "{} transcribed nothing", outcome.id);
        assert!(outcome.matched, "replay diverged on {}", outcome.id);
    }
    // The coalesced cell's transcript really contains batch messages.
    let coalesced = outcomes.last().expect("coalesced cell is the last fault");
    for tag in ["rho-batch:", "offer-batch:", "win-batch:"] {
        assert!(
            coalesced.log_text.contains(tag),
            "coalesced transcript missing {tag} messages"
        );
    }
}

/// The committed storm baseline must be the canonical rendering of a
/// 36-cell storm sweep (regenerated via `sweep --out`, never
/// hand-edited), and it must contain the matrix's centerpiece: the
/// collapsed cell whose Arbiter never completes a single round. The
/// metric values themselves are gated in CI (`--check`), where the
/// release-mode re-run is affordable.
#[test]
fn committed_storm_baseline_is_canonical_and_contains_the_collapse() {
    let baseline = check_baseline(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_STORM_BASELINE.json"
        ),
        None,
        1e-9,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(baseline.cells.len(), Matrix::storm().cells().len());
    for cell in &baseline.cells {
        let control = cell
            .metrics
            .control
            .as_ref()
            .expect("dist cells report control");
        assert!(control.rounds > 0, "{} ran no rounds", cell.id);
    }
    let collapsed: Vec<_> = baseline
        .cells
        .iter()
        .filter(|c| {
            c.metrics
                .control
                .as_ref()
                .is_some_and(|ctrl| ctrl.completed_rounds == 0)
        })
        .collect();
    assert_eq!(
        collapsed.len(),
        1,
        "exactly one cell collapses: Scale1024 x 32 apps, congested, unbatched, 30 s deadline"
    );
    // The collapsed cell, read from the scenario its id parses back to.
    let (cell, scenario) = (collapsed[0], &collapsed[0].scenario);
    assert!(
        scenario.cluster == ClusterKind::Scale1024
            && scenario.apps == 32
            && scenario.fault.arbiter_service_time > Time::ZERO
            && scenario.storm == Some(StormAxis::new(0.5))
            && cell.policy == "themis-dist",
        "unexpected collapsed cell {}",
        cell.id
    );
    assert_eq!(
        scenario.fault.arbiter_batch, 0,
        "the collapsed cell is unbatched"
    );
}

/// Free, congested and congested-but-coalesced Arbiter regimes over one
/// cheap 5-app Rack16 storm — the storm matrix's fault axis in miniature.
fn mini_storm_matrix() -> Matrix {
    let congested = FaultConfig::reliable().with_arbiter_service_time(Time::seconds(0.5));
    Matrix {
        policies: vec![Policy::themis_dist_default()],
        faults: vec![
            FaultConfig::reliable(),
            congested,
            congested.with_arbiter_batch(4),
        ],
        storm: vec![Some(StormAxis::new(0.5))],
        ..Matrix::point("storm-mini", ClusterKind::Rack16, 5, 42)
    }
}
