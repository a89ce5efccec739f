//! The parallel scenario-matrix sweep runner.
//!
//! A sweep executes every `(scenario × policy)` cell of a [`Matrix`] and
//! aggregates the per-cell metrics into a [`SweepReport`]. Cells are
//! independent deterministic simulations — the engine is owned per run —
//! so they shard across threads via [`themis_sim::batch::run_batch`];
//! results come back in cell order, which makes the canonical report a
//! pure function of the matrix regardless of `jobs`.

use crate::policies::Policy;
use crate::report::{CellMetrics, CellReport, SweepReport};
use crate::scenarios::{Matrix, Scenario};
use std::time::Instant;
use themis_sim::batch::run_batch;
use themis_sim::metrics::SimReport;

/// Runs every cell of `matrix`, at most `jobs` concurrently.
pub fn run_sweep(matrix: &Matrix, jobs: usize) -> SweepReport {
    run_sweep_filtered(matrix, jobs, None)
}

/// Runs `matrix` restricted to the given policies (`None` = all of the
/// matrix's policies), at most `jobs` cells concurrently.
pub fn run_sweep_filtered(
    matrix: &Matrix,
    jobs: usize,
    policies: Option<&[Policy]>,
) -> SweepReport {
    let cells: Vec<(Scenario, Policy)> = matrix
        .cells()
        .into_iter()
        .filter(|(_, policy)| match policies {
            Some(keep) => keep.iter().any(|p| p.name() == policy.name()),
            None => true,
        })
        .collect();
    let started = Instant::now();
    let reports = run_batch(cells.len(), jobs, |i| run_cell(&cells[i].0, cells[i].1));
    SweepReport {
        matrix: matrix.name.clone(),
        cells: reports,
        total_wall_clock_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Runs one `(scenario, policy)` cell and extracts its metrics. A cell
/// with a service axis runs the open-system service engine and carries the
/// windowed `service` metric block; every other cell runs the batch engine
/// exactly as before.
pub fn run_cell(scenario: &Scenario, policy: Policy) -> CellReport {
    let started = Instant::now();
    let metrics = if scenario.service.is_some() {
        CellMetrics::from_service_report(&scenario.run_service(policy))
    } else {
        CellMetrics::from_report(&scenario.run(policy))
    };
    CellReport {
        wall_clock_ms: started.elapsed().as_secs_f64() * 1e3,
        ..CellReport::new(scenario, policy, metrics)
    }
}

/// The verdict of the record→replay gate on one distributed-mode cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayGateOutcome {
    /// `"<scenario id>/<policy>"` of the gated cell.
    pub id: String,
    /// Transport decisions the recorded run transcribed.
    pub records: usize,
    /// The transcript in its stable text form (for artifact upload).
    pub log_text: String,
    /// Whether the replayed run reproduced the recorded canonical report
    /// byte for byte.
    pub matched: bool,
}

/// Renders one cell's run as a canonical single-cell sweep document —
/// the byte string the replay gate compares.
pub fn canonical_cell(
    matrix: &str,
    scenario: &Scenario,
    policy: Policy,
    report: &SimReport,
) -> String {
    let cell = CellReport::new(scenario, policy, CellMetrics::from_report(report));
    SweepReport {
        matrix: matrix.to_string(),
        cells: vec![cell],
        total_wall_clock_ms: 0.0,
    }
    .to_canonical_string()
}

/// Runs the record→replay determinism gate over every distributed-mode
/// cell of `matrix`: each cell runs once with a transcript attached, is
/// re-executed from the transcript alone (the fault RNG never consulted),
/// and the two canonical single-cell documents are byte-compared. One
/// outcome per distributed cell, in matrix order; non-distributed
/// policies have no transport and are skipped.
pub fn run_replay_gate(matrix: &Matrix) -> Vec<ReplayGateOutcome> {
    matrix
        .cells()
        .into_iter()
        .filter(|(_, policy)| policy.is_distributed())
        .map(|(scenario, policy)| {
            let (recorded, log) = scenario.run_recorded(policy);
            let records = log.len();
            let log_text = log.to_text();
            let replayed = scenario.run_replayed(policy, log);
            ReplayGateOutcome {
                id: format!("{}/{}", scenario.id(), policy.name()),
                records,
                log_text,
                matched: canonical_cell(&matrix.name, &scenario, policy, &replayed)
                    == canonical_cell(&matrix.name, &scenario, policy, &recorded),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::ClusterKind;

    fn tiny_matrix() -> Matrix {
        let policies = vec![Policy::themis_default(), Policy::Drf];
        Matrix::new("tiny", ClusterKind::Rack16, 3, 7, policies)
            .axis(&[1.0, 2.0], Scenario::with_contention)
    }

    #[test]
    fn sweep_covers_every_cell_in_order() {
        let matrix = tiny_matrix();
        let report = run_sweep(&matrix, 1);
        assert_eq!(report.matrix, "tiny");
        assert_eq!(report.cells.len(), matrix.cells().len());
        let expected_ids: Vec<String> = matrix
            .cells()
            .iter()
            .map(|(s, p)| format!("{}/{}", s.id(), p.name()))
            .collect();
        let got_ids: Vec<String> = report.cells.iter().map(|c| c.id.clone()).collect();
        assert_eq!(got_ids, expected_ids);
        for cell in &report.cells {
            assert!(cell.metrics.get("run", "scheduling_rounds") > Some(0.0));
            assert!(cell.metrics.get("run", "gpu_hours") >= Some(0.0));
        }
    }

    #[test]
    fn policy_filter_restricts_cells() {
        let matrix = tiny_matrix();
        let report = run_sweep_filtered(&matrix, 1, Some(&[Policy::Drf]));
        assert!(!report.cells.is_empty());
        assert!(report.cells.iter().all(|c| c.policy == "drf"));
    }

    #[test]
    fn serial_and_parallel_sweeps_emit_identical_canonical_json() {
        let matrix = tiny_matrix();
        let serial = run_sweep(&matrix, 1);
        let parallel = run_sweep(&matrix, 3);
        assert_eq!(serial.to_canonical_string(), parallel.to_canonical_string());
    }

    #[test]
    fn replay_gate_covers_only_distributed_cells_and_passes() {
        use themis_cluster::time::Time;
        use themis_protocol::fault::FaultConfig;
        let policies = vec![Policy::themis_default(), Policy::themis_dist_default()];
        let fault = FaultConfig::reliable()
            .with_drop_probability(0.2)
            .with_delay(Time::seconds(2.0));
        let matrix = Matrix::new("gate", ClusterKind::Rack16, 3, 7, policies)
            .axis(&[fault], Scenario::with_fault);
        let outcomes = run_replay_gate(&matrix);
        assert_eq!(outcomes.len(), 1, "only the distributed cell is gated");
        let outcome = &outcomes[0];
        assert!(outcome.id.ends_with("/themis-dist"), "{}", outcome.id);
        assert!(outcome.matched, "replay diverged on {}", outcome.id);
        assert!(outcome.records > 0);
        assert!(outcome.log_text.starts_with("themis-msglog v1"));
    }
}
