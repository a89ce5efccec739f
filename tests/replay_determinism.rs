//! The record/replay contract of the actor transport, pinned as tests:
//!
//! * **recording is free of behavior**: a run with a transcript attached
//!   produces the same `SimReport` as the same run without one,
//! * **replay is byte-identical**: re-executing a run from its
//!   `MessageLog` alone — the RNG never consulted — reproduces the
//!   recorded run's canonical report byte for byte, across randomized
//!   fault configurations (drops, delay, jitter, bandwidth, crashes,
//!   partitions, Arbiter failover),
//! * **bad logs fail loudly**: a truncated log panics with a
//!   record-index diagnostic, a corrupted log panics with a divergence
//!   diagnostic, and the text form rejects tampering at parse time —
//!   never a silently wrong replay.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use themis_bench::policies::Policy;
use themis_bench::scenarios::{ClusterKind, Matrix, Scenario};
use themis_bench::sweep;
use themis_cluster::cluster::Cluster;
use themis_cluster::time::Time;
use themis_protocol::fault::FaultConfig;
use themis_protocol::log::{LogRecord, MessageLog, SendFate};
use themis_protocol::network::LogMode;
use themis_sim::engine::Engine;
use themis_sim::metrics::SimReport;

/// Renders one distributed-mode run as the canonical single-cell sweep
/// document — the same bytes the CI replay gate diffs.
fn canonical_cell(scenario: &Scenario, report: &SimReport) -> String {
    sweep::canonical_cell("replay", scenario, Policy::themis_dist_default(), report)
}

/// Runs distributed-mode Themis on `scenario` with an explicit log mode
/// and a tight horizon: heavy fault draws may strand apps forever, and
/// the replay contract is about transport decisions, not completion, so
/// a truncated-but-deterministic prefix is just as binding (and keeps the
/// randomized suite fast in debug CI).
fn run_capped(scenario: &Scenario, mode: LogMode) -> SimReport {
    let config = scenario
        .sim_config()
        .with_max_sim_time(Time::minutes(2_000.0));
    Engine::new(
        Cluster::new(scenario.cluster_spec()),
        scenario.trace(),
        scenario
            .instantiate(Policy::themis_dist_default())
            .build_with_log(&config, mode),
        config,
    )
    .run()
}

/// Records a capped run, returning the report and the transcript.
fn record_capped(scenario: &Scenario) -> (SimReport, MessageLog) {
    let log = std::sync::Arc::new(parking_lot::Mutex::new(MessageLog::new()));
    let report = run_capped(scenario, LogMode::record(std::sync::Arc::clone(&log)));
    let log = std::sync::Arc::try_unwrap(log)
        .expect("engine dropped its log handle")
        .into_inner();
    (report, log)
}

/// A moderately faulty scenario known to finish: the combined cell of the
/// `faults` matrix (drop + delay + crashes).
fn combined_fault_scenario() -> Scenario {
    Scenario::new(ClusterKind::Rack16, 6, 42)
        .with_contention(2.0)
        .with_fault(
            FaultConfig::reliable()
                .with_drop_probability(0.3)
                .with_delay(Time::seconds(5.0))
                .with_crash(5, 2),
        )
}

/// Recording must not perturb the run, and `Scenario::run_recorded` /
/// `run_replayed` must round-trip byte-identically end to end.
#[test]
fn recorded_run_matches_plain_run_and_replays_exactly() {
    let scenario = combined_fault_scenario();
    let plain = scenario.run(Policy::themis_dist_default());
    let (recorded, log) = scenario.run_recorded(Policy::themis_dist_default());
    assert_eq!(
        recorded, plain,
        "attaching a transcript changed the run itself"
    );
    assert!(
        !log.is_empty(),
        "a faulty distributed run must transcribe transport decisions"
    );
    // The transcript names every fate class this scenario injects.
    let has_drop = log.records().iter().any(|r| {
        matches!(
            r,
            LogRecord::Send {
                fate: SendFate::DropFault,
                ..
            }
        )
    });
    assert!(has_drop, "drop probability 0.3 never dropped a message?");

    let replayed = scenario.run_replayed(Policy::themis_dist_default(), log);
    assert_eq!(
        canonical_cell(&scenario, &replayed),
        canonical_cell(&scenario, &recorded),
        "replay must reproduce the recorded canonical report byte for byte"
    );
}

/// A reliable run still transcribes (sends, deliveries, timers all have
/// decided fates) and replays byte-identically.
#[test]
fn reliable_runs_record_and_replay_too() {
    let scenario = Scenario::new(ClusterKind::Rack16, 4, 7);
    let (recorded, log) = scenario.run_recorded(Policy::themis_dist_default());
    assert!(!log.is_empty());
    assert!(log.records().iter().all(|r| !matches!(
        r,
        LogRecord::Send {
            fate: SendFate::DropFault,
            ..
        }
    )));
    let replayed = scenario.run_replayed(Policy::themis_dist_default(), log);
    assert_eq!(replayed, recorded);
}

/// A non-distributed policy has no transport: its log comes back empty.
#[test]
fn in_process_policies_record_nothing() {
    let scenario = Scenario::new(ClusterKind::Rack16, 3, 7);
    let (_, log) = scenario.run_recorded(Policy::themis_default());
    assert!(log.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized fault configurations across the smoke-matrix scenario
    /// pool: whatever the transport decides — drops, jittered reordering,
    /// bandwidth queueing, crashed agents, partitions, failover — the
    /// recorded log re-executes to the byte-identical canonical report.
    #[test]
    fn randomized_fault_configs_replay_byte_identically(
        index in 0usize..5000,
        drop_tenths in 0u32..=4,
        delay_s in 0u32..=5,
        jitter_s in 0u32..=3,
        bw_sel in 0u32..=2,
        crash_sel in 0u32..=1,
        partition_sel in 0u32..=1,
        failover_sel in 0u32..=1,
        fault_seed in 0u64..1000,
    ) {
        let mut fault = FaultConfig::reliable()
            .with_drop_probability(f64::from(drop_tenths) / 10.0)
            .with_delay(Time::seconds(f64::from(delay_s)))
            .with_jitter(Time::seconds(f64::from(jitter_s)))
            .with_seed(fault_seed);
        if bw_sel > 0 {
            fault = fault.with_bandwidth([120.0, 600.0][bw_sel as usize - 1]);
        }
        if crash_sel == 1 {
            fault = fault.with_crash(4, 2);
        }
        if partition_sel == 1 {
            fault = fault.with_partition(5, 2);
        }
        if failover_sel == 1 {
            fault = fault.with_failover(7);
        }
        let scenarios = Matrix::smoke().expand();
        let scenario = scenarios[index % scenarios.len()].clone().with_fault(fault);

        let (recorded, log) = record_capped(&scenario);
        prop_assert!(!log.is_empty(), "no transport decisions on {}", scenario.id());
        let replayed = run_capped(&scenario, LogMode::replay(std::sync::Arc::new(log)));
        prop_assert_eq!(
            canonical_cell(&scenario, &replayed),
            canonical_cell(&scenario, &recorded),
            "replay diverged on {}", scenario.id()
        );
    }
}

/// A truncated log must abort the replay with a record-index diagnostic,
/// never limp to a silently different result.
#[test]
fn truncated_log_panics_with_diagnostic() {
    let scenario = combined_fault_scenario();
    let (_, log) = scenario.run_recorded(Policy::themis_dist_default());
    let mut truncated = MessageLog::new();
    for record in &log.records()[..log.len() / 2] {
        truncated.push(record.clone());
    }
    let panic = catch_unwind(AssertUnwindSafe(|| {
        scenario.run_replayed(Policy::themis_dist_default(), truncated)
    }))
    .expect_err("truncated replay must panic");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("replay log exhausted at record"),
        "diagnostic must name the exhausted position, got: {message}"
    );
}

/// A corrupted record — here a delivery rewritten into a fault-drop —
/// must abort the replay naming the diverging record.
#[test]
fn corrupted_log_panics_with_divergence_diagnostic() {
    let scenario = combined_fault_scenario();
    let (_, log) = scenario.run_recorded(Policy::themis_dist_default());
    let mut corrupted = MessageLog::new();
    let mut flipped = false;
    for record in log.records() {
        let mut record = record.clone();
        if !flipped {
            if let LogRecord::Send {
                fate: fate @ SendFate::Deliver { .. },
                ..
            } = &mut record
            {
                *fate = SendFate::DropFault;
                flipped = true;
            }
        }
        corrupted.push(record);
    }
    assert!(flipped, "recorded log has no delivered send to corrupt");
    let panic = catch_unwind(AssertUnwindSafe(|| {
        scenario.run_replayed(Policy::themis_dist_default(), corrupted)
    }))
    .expect_err("corrupted replay must panic");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("replay divergence at record"),
        "diagnostic must name the diverging record, got: {message}"
    );
}

/// The textual transcript of a real run round-trips exactly, and both
/// tampering and truncation are parse errors naming the offending line.
#[test]
fn log_text_form_round_trips_and_rejects_damage() {
    let scenario = combined_fault_scenario();
    let (_, log) = scenario.run_recorded(Policy::themis_dist_default());
    let text = log.to_text();
    assert_eq!(MessageLog::parse(&text).expect("faithful text parses"), log);

    let truncated: String = text
        .lines()
        .take(text.lines().count() - 1)
        .collect::<Vec<_>>()
        .join("\n");
    let err = MessageLog::parse(&truncated).expect_err("truncation rejected");
    assert!(err.to_string().contains("truncated"), "{err}");

    let tampered = text.replacen("deliver", "detonate", 1);
    assert!(MessageLog::parse(&tampered).is_err());
}
