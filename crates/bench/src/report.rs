//! Machine-readable sweep reports and the baseline regression gate.
//!
//! A sweep run aggregates one [`CellMetrics`] per `(scenario × policy)`
//! cell into a [`SweepReport`]. A cell serializes as `{ "id", "metrics" }`:
//! its id `"<scenario id>/<policy>"` is the scenario's one encoding (see
//! [`Scenario::id`]), and the parser rebuilds the scenario from it with
//! [`Scenario::from_id`], so a new scenario axis changes neither this
//! module nor any committed baseline. The canonical JSON rendering
//! ([`SweepReport::to_canonical_string`]) deliberately excludes wall-clock
//! timings: metrics are a pure function of the scenario, so serial and
//! parallel runs of the same matrix emit byte-identical documents, and
//! [`check_baseline`] — the one gate behind `sweep --check` and every
//! baseline test — can diff a run against a committed `BENCH_*.json`
//! exactly. Timings are advisory — ask for them with
//! [`SweepReport::to_json`]`(true)` or the `sweep --timings` flag.
//!
//! Parse errors carry their location in the document, e.g.
//! `cells[7].metrics: missing numeric field 'gpu_hours'`.

use crate::json::Json;
use crate::policies::Policy;
use crate::scenarios::Scenario;
use std::fmt;
use std::path::Path;
use themis_sim::metrics::SimReport;
use themis_sim::scheduler::ControlPlaneStats;
use themis_sim::service::ServiceReport;

/// Version stamp of the JSON schema, bumped on incompatible change so a
/// stale baseline fails loudly instead of diffing nonsense. v7 made the
/// cell id the only record of its scenario.
pub const SCHEMA_VERSION: f64 = 7.0;

/// One metric of a block: its JSON key and its value (`None` = absent,
/// written `null`). Each block lists its metrics once; its JSON and its
/// diffable `(name, value)` pairs both derive from that list.
type Field<T> = (&'static str, fn(&T) -> Option<f64>);

fn fields_json<T>(fields: &[Field<T>], block: &T) -> Vec<(String, Json)> {
    fields
        .iter()
        .map(|(name, get)| ((*name).to_string(), Json::opt_num(get(block))))
        .collect()
}

/// `(name, value)` pairs for diffing. Absent values — and every value of
/// an absent block — read NaN.
fn fields_numbered<'a, T>(
    fields: &'a [Field<T>],
    block: Option<&'a T>,
) -> impl Iterator<Item = (&'static str, f64)> + 'a {
    fields
        .iter()
        .map(move |(name, get)| (*name, block.and_then(get).unwrap_or(f64::NAN)))
}

/// A JSON object being parsed, with its location in the document for
/// error messages (`cells[7].metrics.service`).
struct At<'a> {
    json: &'a Json,
    path: String,
}

impl<'a> At<'a> {
    fn err(&self, message: impl fmt::Display) -> String {
        format!("{}: {message}", self.path)
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        self.json
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| self.err(format_args!("missing numeric field '{key}'")))
    }

    /// A required count: a non-negative integer, never a silent cast.
    fn count(&self, key: &str) -> Result<u64, String> {
        let v = self.num(key)?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(self.err(format_args!("'{key}' {v} is not a non-negative integer")));
        }
        Ok(v as u64)
    }

    /// An optional metric: absent or `null` is `None`, anything else must
    /// be a number.
    fn opt(&self, key: &str) -> Result<Option<f64>, String> {
        match self.json.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| self.err(format_args!("'{key}' must be a number or null"))),
        }
    }

    fn child(&self, key: &str) -> Option<At<'a>> {
        self.json.get(key).map(|json| At {
            json,
            path: format!("{}.{key}", self.path),
        })
    }
}

/// The windowed open-system metrics of one service-mode cell, extracted
/// from the final [`ServiceReport`] snapshot. Deterministic for pinned
/// seeds, so the service baseline gates them exactly alongside the batch
/// metric set.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Median finish-time fairness ρ over the final rolling window.
    pub p50_rho: Option<f64>,
    /// 99th-percentile ρ over the final rolling window.
    pub p99_rho: Option<f64>,
    /// Median queueing delay (arrival → first grant), minutes.
    pub p50_queueing_minutes: Option<f64>,
    /// 99th-percentile queueing delay, minutes.
    pub p99_queueing_minutes: Option<f64>,
    /// 99th-percentile lease-renewal latency (shrink → re-grant), minutes.
    pub p99_renewal_minutes: Option<f64>,
    /// Starvation audit: most consecutive zero-GPU rounds any schedulable
    /// app sat through after warmup.
    pub max_queue_rounds: u64,
    /// Apps admitted over the run.
    pub admitted: u64,
    /// Apps retired (finished and removed) over the run.
    pub retired: u64,
    /// When steady state was declared, in simulated minutes (absent if the
    /// run never converged).
    pub steady_state_minutes: Option<f64>,
    /// Rounds that invoked the scheduling policy.
    pub auctions_run: u64,
    /// Rounds the incremental hot path skipped the policy call on.
    pub auctions_skipped: u64,
}

impl ServiceMetrics {
    const FIELDS: [Field<ServiceMetrics>; 11] = [
        ("p50_rho", |m| m.p50_rho),
        ("p99_rho", |m| m.p99_rho),
        ("p50_queueing_minutes", |m| m.p50_queueing_minutes),
        ("p99_queueing_minutes", |m| m.p99_queueing_minutes),
        ("p99_renewal_minutes", |m| m.p99_renewal_minutes),
        ("max_queue_rounds", |m| Some(m.max_queue_rounds as f64)),
        ("admitted", |m| Some(m.admitted as f64)),
        ("retired", |m| Some(m.retired as f64)),
        ("steady_state_minutes", |m| m.steady_state_minutes),
        ("auctions_run", |m| Some(m.auctions_run as f64)),
        ("auctions_skipped", |m| Some(m.auctions_skipped as f64)),
    ];

    /// Extracts the windowed metric set from a finished service run.
    pub fn from_report(report: &ServiceReport) -> ServiceMetrics {
        ServiceMetrics {
            p50_rho: report.windows.p50_rho,
            p99_rho: report.windows.p99_rho,
            p50_queueing_minutes: report.windows.p50_queueing_minutes,
            p99_queueing_minutes: report.windows.p99_queueing_minutes,
            p99_renewal_minutes: report.windows.p99_renewal_minutes,
            max_queue_rounds: report.windows.max_queue_rounds,
            admitted: report.admitted,
            retired: report.retired,
            steady_state_minutes: report.steady_state_at.map(|t| t.as_minutes()),
            auctions_run: report.auctions_run,
            auctions_skipped: report.auctions_skipped,
        }
    }

    fn from_json(at: &At<'_>) -> Result<ServiceMetrics, String> {
        Ok(ServiceMetrics {
            p50_rho: at.opt("p50_rho")?,
            p99_rho: at.opt("p99_rho")?,
            p50_queueing_minutes: at.opt("p50_queueing_minutes")?,
            p99_queueing_minutes: at.opt("p99_queueing_minutes")?,
            p99_renewal_minutes: at.opt("p99_renewal_minutes")?,
            max_queue_rounds: at.count("max_queue_rounds")?,
            admitted: at.count("admitted")?,
            retired: at.count("retired")?,
            steady_state_minutes: at.opt("steady_state_minutes")?,
            auctions_run: at.count("auctions_run")?,
            auctions_skipped: at.count("auctions_skipped")?,
        })
    }
}

/// The control-plane (auction-round) accounting of one distributed-mode
/// cell, extracted from the scheduler's [`ControlPlaneStats`]. This is the
/// metric set the `storm` matrix gates: under Arbiter congestion the
/// missed-round rate is the headline number, and the raw counters say
/// which phase of the §3.1 exchange lost the messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlMetrics {
    /// Auction rounds the Arbiter started.
    pub rounds: u64,
    /// Rounds where every queried Agent's ρ report arrived by the deadline.
    pub completed_rounds: u64,
    /// ρ reports that missed the half-deadline across all rounds.
    pub missed_rho_reports: u64,
    /// Bids/Passes that missed the round deadline across all rounds.
    pub missed_bids: u64,
    /// Win notifications voided by Arbiter failover.
    pub voided_wins: u64,
}

impl ControlMetrics {
    const FIELDS: [Field<ControlMetrics>; 6] = [
        ("rounds", |m| Some(m.rounds as f64)),
        ("completed_rounds", |m| Some(m.completed_rounds as f64)),
        ("missed_rho_reports", |m| Some(m.missed_rho_reports as f64)),
        ("missed_bids", |m| Some(m.missed_bids as f64)),
        ("voided_wins", |m| Some(m.voided_wins as f64)),
        // Derived from the counters above; write-only (recomputed on
        // parse), kept in the document for human diffing.
        ("missed_round_rate", ControlMetrics::missed_round_rate),
    ];

    /// Extracts the control-plane metric set from the scheduler's counters.
    pub fn from_stats(stats: &ControlPlaneStats) -> ControlMetrics {
        ControlMetrics {
            rounds: stats.rounds,
            completed_rounds: stats.completed_rounds,
            missed_rho_reports: stats.missed_rho_reports,
            missed_bids: stats.missed_bids,
            voided_wins: stats.voided_wins,
        }
    }

    /// Fraction of started rounds that lost at least one ρ report to the
    /// deadline; `None` before any round has run.
    pub fn missed_round_rate(&self) -> Option<f64> {
        (self.rounds > 0).then(|| 1.0 - self.completed_rounds as f64 / self.rounds as f64)
    }

    fn from_json(at: &At<'_>) -> Result<ControlMetrics, String> {
        Ok(ControlMetrics {
            rounds: at.count("rounds")?,
            completed_rounds: at.count("completed_rounds")?,
            missed_rho_reports: at.count("missed_rho_reports")?,
            missed_bids: at.count("missed_bids")?,
            voided_wins: at.count("voided_wins")?,
        })
    }
}

/// The metrics extracted from one simulation run (the paper's §8.1 set).
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Worst finish-time fairness ρ across finished apps (lower is better).
    pub max_rho: Option<f64>,
    /// Jain's fairness index over ρ values (closer to 1 is better).
    pub jain: Option<f64>,
    /// Simulated end time of the run, in minutes.
    pub makespan_minutes: f64,
    /// Mean app completion time, in minutes.
    pub avg_jct_minutes: Option<f64>,
    /// Total GPU time consumed, in GPU-hours.
    pub gpu_hours: f64,
    /// Mean per-app placement score over finished apps.
    pub mean_placement_score: Option<f64>,
    /// Peak contention (aggregate demand / cluster size).
    pub peak_contention: f64,
    /// Apps that finished within the horizon.
    pub finished_apps: usize,
    /// Apps still unfinished at the horizon.
    pub unfinished_apps: usize,
    /// Scheduling rounds the policy ran.
    pub scheduling_rounds: u64,
    /// The windowed open-system metrics — present only on service-mode
    /// cells, so closed-system cells serialize exactly as before.
    pub service: Option<ServiceMetrics>,
    /// The control-plane round accounting — present only on cells whose
    /// scheduler exposes it (distributed-mode Themis), so in-process cells
    /// serialize exactly as before.
    pub control: Option<ControlMetrics>,
}

impl CellMetrics {
    const FIELDS: [Field<CellMetrics>; 10] = [
        ("max_rho", |m| m.max_rho),
        ("jain", |m| m.jain),
        ("makespan_minutes", |m| Some(m.makespan_minutes)),
        ("avg_jct_minutes", |m| m.avg_jct_minutes),
        ("gpu_hours", |m| Some(m.gpu_hours)),
        ("mean_placement_score", |m| m.mean_placement_score),
        ("peak_contention", |m| Some(m.peak_contention)),
        ("finished_apps", |m| Some(m.finished_apps as f64)),
        ("unfinished_apps", |m| Some(m.unfinished_apps as f64)),
        ("scheduling_rounds", |m| Some(m.scheduling_rounds as f64)),
    ];

    /// Extracts the metric set from a finished simulation.
    pub fn from_report(report: &SimReport) -> CellMetrics {
        CellMetrics {
            max_rho: report.max_fairness(),
            jain: report.jains_index(),
            makespan_minutes: report.end_time.as_minutes(),
            avg_jct_minutes: report.mean_completion_time().map(|t| t.as_minutes()),
            gpu_hours: report.total_gpu_time.as_hours(),
            mean_placement_score: report.mean_placement_score(),
            peak_contention: report.peak_contention,
            finished_apps: report.finished_apps(),
            unfinished_apps: report.unfinished_apps(),
            scheduling_rounds: report.scheduling_rounds,
            service: None,
            control: report.control.as_ref().map(ControlMetrics::from_stats),
        }
    }

    /// Extracts the metric set from a finished service run: the batch
    /// metrics from the embedded [`SimReport`] plus the windowed block.
    pub fn from_service_report(report: &ServiceReport) -> CellMetrics {
        let mut metrics = CellMetrics::from_report(&report.sim);
        metrics.service = Some(ServiceMetrics::from_report(report));
        metrics
    }

    fn to_json(&self) -> Json {
        let mut pairs = fields_json(&Self::FIELDS, self);
        if let Some(service) = &self.service {
            let block = fields_json(&ServiceMetrics::FIELDS, service);
            pairs.push(("service".into(), Json::Obj(block)));
        }
        if let Some(control) = &self.control {
            let block = fields_json(&ControlMetrics::FIELDS, control);
            pairs.push(("control".into(), Json::Obj(block)));
        }
        Json::Obj(pairs)
    }

    fn from_json(at: &At<'_>) -> Result<CellMetrics, String> {
        Ok(CellMetrics {
            max_rho: at.opt("max_rho")?,
            jain: at.opt("jain")?,
            makespan_minutes: at.num("makespan_minutes")?,
            avg_jct_minutes: at.opt("avg_jct_minutes")?,
            gpu_hours: at.num("gpu_hours")?,
            mean_placement_score: at.opt("mean_placement_score")?,
            peak_contention: at.num("peak_contention")?,
            finished_apps: at.count("finished_apps")? as usize,
            unfinished_apps: at.count("unfinished_apps")? as usize,
            scheduling_rounds: at.count("scheduling_rounds")?,
            service: at
                .child("service")
                .map(|block| ServiceMetrics::from_json(&block))
                .transpose()?,
            control: at
                .child("control")
                .map(|block| ControlMetrics::from_json(&block))
                .transpose()?,
        })
    }

    /// `(name, value)` pairs of the numeric metrics, for diffing. Absent
    /// optional metrics surface as NaN, which only equals NaN on both sides
    /// via the explicit check in [`compare_reports`]. The service and
    /// control blocks' entries are always appended (NaN-filled on cells
    /// without the block), so a cell missing its block compares as a
    /// divergence rather than being silently zipped short.
    fn numbered(&self) -> Vec<(&'static str, f64)> {
        fields_numbered(&Self::FIELDS, Some(self))
            .chain(fields_numbered(
                &ServiceMetrics::FIELDS,
                self.service.as_ref(),
            ))
            .chain(fields_numbered(
                &ControlMetrics::FIELDS,
                self.control.as_ref(),
            ))
            .collect()
    }
}

/// One `(scenario × policy)` cell of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// `"<scenario id>/<policy>"` — unique within a matrix, and the cell's
    /// only serialized description: the scenario and policy below are
    /// parsed back from it.
    pub id: String,
    /// Policy display name.
    pub policy: String,
    /// The scenario the cell ran.
    pub scenario: Scenario,
    /// The extracted metrics.
    pub metrics: CellMetrics,
    /// Host wall-clock the cell took, in milliseconds. Advisory only —
    /// never part of the canonical JSON.
    pub wall_clock_ms: f64,
}

impl CellReport {
    /// The cell of `policy` on `scenario`, named by both; no wall-clock.
    pub fn new(scenario: &Scenario, policy: Policy, metrics: CellMetrics) -> CellReport {
        CellReport {
            id: format!("{}/{}", scenario.id(), policy.name()),
            policy: policy.name().to_string(),
            scenario: scenario.clone(),
            metrics,
            wall_clock_ms: 0.0,
        }
    }

    fn to_json(&self, timings: bool) -> Json {
        let mut pairs = vec![
            ("id".into(), Json::str(&self.id)),
            ("metrics".into(), self.metrics.to_json()),
        ];
        if timings {
            pairs.push(("wall_clock_ms".into(), Json::num(self.wall_clock_ms)));
            // Round throughput is derived from wall-clock, so it lives with
            // the advisory timings, never in the canonical form.
            if self.wall_clock_ms > 0.0 {
                pairs.push((
                    "rounds_per_sec".into(),
                    Json::num(self.metrics.scheduling_rounds as f64 / (self.wall_clock_ms / 1e3)),
                ));
            }
        }
        Json::Obj(pairs)
    }

    fn from_json(cell: &At<'_>) -> Result<CellReport, String> {
        let id = cell
            .json
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| cell.err("missing string field 'id'"))?;
        let at_id = |e: String| format!("{}.id: {e}", cell.path);
        let (scenario_id, policy) = id
            .split_once('/')
            .ok_or_else(|| at_id(format!("{id:?} has no '/<policy>' suffix")))?;
        if Policy::parse(policy).is_none() {
            return Err(at_id(format!("unknown policy {policy:?}")));
        }
        let metrics = cell
            .child("metrics")
            .ok_or_else(|| cell.err("missing field 'metrics'"))?;
        Ok(CellReport {
            id: id.to_string(),
            policy: policy.to_string(),
            scenario: Scenario::from_id(scenario_id).map_err(at_id)?,
            metrics: CellMetrics::from_json(&metrics)?,
            wall_clock_ms: cell
                .json
                .get("wall_clock_ms")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        })
    }
}

/// The aggregated result of one sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The matrix that was run.
    pub matrix: String,
    /// One report per cell, in matrix expansion order.
    pub cells: Vec<CellReport>,
    /// Total host wall-clock of the sweep, in milliseconds (advisory).
    pub total_wall_clock_ms: f64,
}

impl SweepReport {
    /// Serializes the report. With `timings = false` (the canonical form)
    /// the document is a pure function of the matrix definition.
    pub fn to_json(&self, timings: bool) -> Json {
        let mut pairs = vec![
            ("schema_version".into(), Json::num(SCHEMA_VERSION)),
            ("matrix".into(), Json::str(&self.matrix)),
            ("cell_count".into(), Json::num(self.cells.len() as f64)),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(|c| c.to_json(timings)).collect()),
            ),
        ];
        if timings {
            pairs.push((
                "total_wall_clock_ms".into(),
                Json::num(self.total_wall_clock_ms),
            ));
        }
        Json::Obj(pairs)
    }

    /// The canonical byte representation: pretty JSON without timings.
    pub fn to_canonical_string(&self) -> String {
        self.to_json(false).to_pretty_string()
    }

    /// Parses a report previously produced by [`SweepReport::to_json`].
    pub fn from_json(value: &Json) -> Result<SweepReport, String> {
        let version = value
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or("report missing 'schema_version'")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema version mismatch: report is v{version}, this binary expects v{SCHEMA_VERSION} \
                 (regenerate the baseline)"
            ));
        }
        let matrix = value
            .get("matrix")
            .and_then(Json::as_str)
            .ok_or("report missing 'matrix'")?
            .to_string();
        let cells = value
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("report missing 'cells' array")?
            .iter()
            .enumerate()
            .map(|(i, json)| {
                CellReport::from_json(&At {
                    json,
                    path: format!("cells[{i}]"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepReport {
            matrix,
            cells,
            total_wall_clock_ms: value
                .get("total_wall_clock_ms")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        })
    }

    /// Parses a report from its textual JSON form.
    pub fn parse_str(text: &str) -> Result<SweepReport, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        SweepReport::from_json(&json)
    }
}

/// Compares a freshly run report against a committed baseline.
///
/// Returns one human-readable line per divergence; an empty vector means
/// the gate passes. Metrics are compared with relative tolerance `tol`
/// (pinned seeds make runs bit-reproducible, so CI uses a tiny tolerance
/// that only forgives float formatting, not behavior). Wall-clock is never
/// compared — it is advisory by design.
pub fn compare_reports(current: &SweepReport, baseline: &SweepReport, tol: f64) -> Vec<String> {
    let mut diffs = Vec::new();
    if current.matrix != baseline.matrix {
        diffs.push(format!(
            "matrix name differs: current '{}' vs baseline '{}'",
            current.matrix, baseline.matrix
        ));
    }
    let find = |cells: &[CellReport], id: &str| -> Option<CellMetrics> {
        cells.iter().find(|c| c.id == id).map(|c| c.metrics.clone())
    };
    for cell in &baseline.cells {
        match find(&current.cells, &cell.id) {
            None => diffs.push(format!("cell '{}' missing from current run", cell.id)),
            Some(current_metrics) => {
                for ((name, a), (_, b)) in current_metrics
                    .numbered()
                    .into_iter()
                    .zip(cell.metrics.numbered())
                {
                    let both_absent = a.is_nan() && b.is_nan();
                    let within = (a - b).abs() <= tol * b.abs().max(1.0);
                    if !both_absent && !within {
                        diffs.push(format!(
                            "cell '{}': {} diverged: current {} vs baseline {}",
                            cell.id, name, a, b
                        ));
                    }
                }
            }
        }
    }
    for cell in &current.cells {
        if find(&baseline.cells, &cell.id).is_none() {
            diffs.push(format!("cell '{}' not present in baseline", cell.id));
        }
    }
    diffs
}

/// Why [`check_baseline`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// The baseline cannot be read or parsed, or is not in canonical form.
    Unusable(String),
    /// The run diverged from the baseline.
    Diverged(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Unusable(message) | BaselineError::Diverged(message) => {
                f.write_str(message)
            }
        }
    }
}

/// The baseline regression gate — `sweep --check` and every baseline test
/// go through it. Reads the committed report at `path`, which must parse
/// and be in canonical form (written by `sweep --out`, never hand-edited),
/// and, when `current` is given, diffs the run against it with
/// [`compare_reports`] at tolerance `tol`. Every error names `path`; a
/// divergence also says how to regenerate it. Returns the parsed baseline.
pub fn check_baseline(
    path: impl AsRef<Path>,
    current: Option<&SweepReport>,
    tol: f64,
) -> Result<SweepReport, BaselineError> {
    let path = path.as_ref();
    let shown = path.display();
    let unusable = BaselineError::Unusable;
    let text = std::fs::read_to_string(path)
        .map_err(|e| unusable(format!("cannot read baseline {shown}: {e}")))?;
    let baseline = SweepReport::parse_str(&text)
        .map_err(|e| unusable(format!("cannot parse baseline {shown}: {e}")))?;
    if baseline.to_canonical_string() != text {
        return Err(unusable(format!(
            "baseline {shown} is not in canonical form (regenerate it with `sweep --out`; \
             never hand-edit it)"
        )));
    }
    if let Some(current) = current {
        let diffs = compare_reports(current, &baseline, tol);
        if !diffs.is_empty() {
            return Err(BaselineError::Diverged(format!(
                "{} divergence(s) from {shown}; if the behavior change is intentional, \
                 regenerate it with `sweep --matrix {} --jobs 4 --out {shown}`:\n  {}",
                diffs.len(),
                baseline.matrix,
                diffs.join("\n  ")
            )));
        }
    }
    Ok(baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{ClusterKind, ServiceAxis, ServiceShape, StormAxis};
    use themis_cluster::time::Time;
    use themis_protocol::fault::FaultConfig;

    /// A one-cell report of `policy` on `scenario`.
    fn one_cell(scenario: Scenario, policy: Policy, metrics: CellMetrics) -> SweepReport {
        let cell = CellReport::new(&scenario, policy, metrics);
        SweepReport {
            matrix: "unit".into(),
            cells: vec![CellReport {
                wall_clock_ms: 12.0,
                ..cell
            }],
            total_wall_clock_ms: 12.0,
        }
    }

    fn base() -> Scenario {
        Scenario::new(ClusterKind::Rack16, 3, 42).with_contention(2.0)
    }

    fn sample_metrics() -> CellMetrics {
        CellMetrics {
            max_rho: Some(2.5),
            jain: Some(0.9),
            makespan_minutes: 120.0,
            avg_jct_minutes: Some(60.0),
            gpu_hours: 14.5,
            mean_placement_score: Some(0.95),
            peak_contention: 2.0,
            finished_apps: 3,
            unfinished_apps: 0,
            scheduling_rounds: 17,
            service: None,
            control: None,
        }
    }

    fn sample_report() -> SweepReport {
        one_cell(base(), Policy::themis_default(), sample_metrics())
    }

    #[test]
    fn canonical_json_round_trips() {
        let report = sample_report();
        let text = report.to_canonical_string();
        let back = SweepReport::parse_str(&text).expect("canonical form parses");
        // Wall clock is not canonical, so compare everything else.
        assert_eq!(back.matrix, report.matrix);
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.cells[0].policy, "themis");
        assert_eq!(back.cells[0].scenario, report.cells[0].scenario);
        assert_eq!(back.cells[0].metrics, report.cells[0].metrics);
        assert_eq!(back.to_canonical_string(), text);
        // A cell is its id and its metrics; the id carries the scenario.
        assert!(text.contains("\"id\": \"rack16-a3-x2-s42-i0/themis\""));
        assert!(!text.contains("\"scenario\"") && !text.contains("\"policy\""));
        // Canonical form has no timing fields.
        assert!(!text.contains("wall_clock"));
        // The timing form does.
        assert!(report
            .to_json(true)
            .to_pretty_string()
            .contains("total_wall_clock_ms"));
    }

    fn service_report() -> SweepReport {
        let mut metrics = sample_metrics();
        metrics.service = Some(ServiceMetrics {
            p50_rho: Some(1.1),
            p99_rho: Some(2.2),
            p50_queueing_minutes: Some(3.0),
            p99_queueing_minutes: Some(40.0),
            p99_renewal_minutes: None,
            max_queue_rounds: 7,
            admitted: 90,
            retired: 85,
            steady_state_minutes: Some(900.0),
            auctions_run: 100,
            auctions_skipped: 200,
        });
        let scenario = base().with_service(ServiceAxis::new(ServiceShape::Diurnal, 1.5, 2000.0));
        one_cell(scenario, Policy::themis_default(), metrics)
    }

    #[test]
    fn service_cells_round_trip_and_gate_their_windowed_metrics() {
        let report = service_report();
        let text = report.to_canonical_string();
        assert!(text.contains("-vdiurnal-r1.5-z2000/themis\""));
        assert!(text.contains("\"auctions_skipped\": 200"));
        let back = SweepReport::parse_str(&text).expect("service cell parses");
        assert_eq!(back.cells[0].scenario, report.cells[0].scenario);
        assert_eq!(back.cells[0].metrics, report.cells[0].metrics);
        assert_eq!(back.to_canonical_string(), text, "canonical fixed point");

        // The windowed block is gated like any metric.
        let mut current = service_report();
        current.cells[0]
            .metrics
            .service
            .as_mut()
            .expect("service block present")
            .max_queue_rounds += 1;
        let diffs = compare_reports(&current, &report, 1e-9);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("max_queue_rounds"), "{diffs:?}");

        // Dropping the block entirely is a divergence, not a silent pass.
        current.cells[0].metrics.service = None;
        assert!(!compare_reports(&current, &report, 1e-9).is_empty());
    }

    fn storm_report() -> SweepReport {
        let fault = FaultConfig::reliable()
            .with_arbiter_service_time(Time::seconds(1.0))
            .with_arbiter_batch(8);
        let scenario = base().with_fault(fault).with_storm(StormAxis::new(2.0));
        let mut metrics = sample_metrics();
        metrics.control = Some(ControlMetrics {
            rounds: 20,
            completed_rounds: 15,
            missed_rho_reports: 9,
            missed_bids: 2,
            voided_wins: 0,
        });
        one_cell(scenario, Policy::themis_dist_default(), metrics)
    }

    #[test]
    fn storm_cells_round_trip_and_gate_their_control_metrics() {
        let report = storm_report();
        let text = report.to_canonical_string();
        assert!(text.contains("-u0.016666666666666666-k8-t2/themis-dist\""));
        assert!(text.contains("\"missed_round_rate\": 0.25"));
        let back = SweepReport::parse_str(&text).expect("storm cell parses");
        assert_eq!(back.cells[0].policy, "themis-dist");
        assert_eq!(back.cells[0].scenario, report.cells[0].scenario);
        assert_eq!(back.cells[0].metrics, report.cells[0].metrics);
        assert_eq!(back.to_canonical_string(), text, "canonical fixed point");

        // The control block is gated like any metric.
        let mut current = storm_report();
        current.cells[0]
            .metrics
            .control
            .as_mut()
            .expect("control block present")
            .completed_rounds -= 1;
        let diffs = compare_reports(&current, &report, 1e-9);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs.iter().any(|d| d.contains("completed_rounds")));
        assert!(diffs.iter().any(|d| d.contains("missed_round_rate")));

        // Dropping the block entirely is a divergence, not a silent pass.
        current.cells[0].metrics.control = None;
        assert!(!compare_reports(&current, &report, 1e-9).is_empty());

        // A cell without the knobs names none of them.
        let plain = &sample_report().cells[0].id;
        assert!(!plain.contains("-u") && !plain.contains("-k") && !plain.contains("-t"));
    }

    /// Every hostile document or id is an `Err` naming where it went
    /// wrong, never a panic, a silent cast or a clamp. One document case
    /// per line: `fixture text | its replacement | expected error`.
    #[test]
    fn hostile_documents_fail_with_a_location() {
        let mut fixture = service_report();
        fixture.cells[0].metrics.control = storm_report().cells[0].metrics.control.clone();
        let text = fixture.to_canonical_string();
        let documents = r#"
            "finished_apps": 3 | "finished_apps": -3 | cells[0].metrics: 'finished_apps' -3 is not a non-negative integer
            "finished_apps": 3 | "finished_apps": 2.5 | cells[0].metrics: 'finished_apps' 2.5 is not
            "gpu_hours": 14.5, |  | cells[0].metrics: missing numeric field 'gpu_hours'
            "max_rho": 2.5 | "max_rho": "low" | cells[0].metrics: 'max_rho' must be a number or null
            "admitted": 90 | "admitted": -90 | cells[0].metrics.service: 'admitted' -90 is not
            "rounds": 20 | "rounds": 20.5 | cells[0].metrics.control: 'rounds' 20.5 is not
            /themis" | " | cells[0].id: "rack16-a3-x2-s42-i0-vdiurnal-r1.5-z2000" has no '/<policy>' suffix
            /themis" | /fifo" | cells[0].id: unknown policy "fifo"
            -x2- | -yabc-x2- | cells[0].id: tag 'y': "abc" is not a number
            -x2- | -xNaN- | cells[0].id: tag 'x': "NaN" is not finite
            -x2- | -x1- | cells[0].id: "rack16-a3-x1-s42-i0-vdiurnal-r1.5-z2000" is not canonical
            -vdiurnal- | -vwavy- | cells[0].id: tag 'v': unknown service shape "wavy"
            -vdiurnal- | -g9gen-vdiurnal- | cells[0].id: tag 'g': unknown generation mix "9gen"
            "schema_version": 7 | "schema_version": 6 | report is v6, this binary expects v7 (regenerate the baseline)
        "#;
        for case in documents.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (from, rest) = case.split_once(" | ").expect("three fields");
            let (to, expected) = rest.split_once(" | ").expect("three fields");
            assert!(text.contains(from), "fixture lacks {from:?}");
            let err = SweepReport::parse_str(&text.replacen(from, to, 1)).expect_err(case);
            assert!(err.contains(expected), "{case}: {err}");
        }
        for (id, expected) in [
            ("a6-s42", "must start with a cluster name"),
            ("rack16-s42", "missing tag 'a'"),
            ("rack16-a6", "missing tag 's'"),
            ("rack16-a-3-s42", "tag 'a'"),
            ("rack16-a6-m3-s42", "unknown tag 'm'"),
            ("rack16-a6-a7-s42", "tag 'a' repeated"),
            ("rack16-a6-xinf-s42", "tag 'x'"),
            ("rack16-a6-x0-s42", "tag 'x': 0 must be positive"),
            ("rack16-a6-n2-s42", "tag 'n': 2 must be in [0, 1]"),
            ("rack16-a6-f2-s42", "tag 'f': 2 must be in [0, 1]"),
            ("rack16-a6-f-0.5-s42", "tag 'f'"),
            ("rack16-a6-l0-s42", "tag 'l': 0 must be positive"),
            ("rack16-a6-l-5-s42", "tag 'l': -5 must be positive"),
            ("rack16-a6-e1-s42", "tag 'e': 1 must be in [0, 1)"),
            ("rack16-a6-b1.5-s42", "tag 'b'"),
            ("rack16-a6-h-0.1-s42", "tag 'h'"),
            ("rack16-a6-d1.5-s42", "tag 'd'"),
            ("rack16-a6-y-1-s42", "tag 'y'"),
            ("rack16-a6-jNaN-s42", "tag 'j'"),
            ("rack16-a6-c5-s42", "tag 'c'"),
            ("rack16-a6-s42-u-0.5", "tag 'u'"),
            ("rack16-a6-s42-r1", "'v', 'r' and 'z'"),
            ("rack16-a6-s42-vpoisson-r0-z100", "tag 'r'"),
            ("rack16-a6-s42-t0", "tag 't'"),
            ("rack16-a6-s42-i42", "not canonical"),
        ] {
            let err = Scenario::from_id(id).expect_err(id);
            assert!(err.contains(expected), "{id}: {err}");
        }
    }

    #[test]
    fn baseline_gate_names_the_file_it_checks() {
        let path = std::env::temp_dir().join(format!("BENCH_UNIT_{}.json", std::process::id()));
        let shown = path.display().to_string();
        let report = sample_report();
        std::fs::write(&path, report.to_canonical_string()).expect("write baseline");
        let baseline = check_baseline(&path, Some(&report), 1e-9).expect("identical run passes");
        assert_eq!(baseline.to_canonical_string(), report.to_canonical_string());
        let mut moved = sample_report();
        moved.cells[0].metrics.gpu_hours += 1.0;
        let Err(BaselineError::Diverged(message)) = check_baseline(&path, Some(&moved), 1e-9)
        else {
            panic!("a moved metric must diverge");
        };
        assert!(
            message.contains(&format!("--matrix unit --jobs 4 --out {shown}")),
            "{message}"
        );
        assert!(!message.contains("BENCH_BASELINE.json"), "{message}");
        std::fs::write(&path, report.to_json(true).to_pretty_string()).expect("write timed");
        let not_canonical = check_baseline(&path, None, 1e-9);
        assert!(
            matches!(not_canonical, Err(BaselineError::Unusable(m)) if m.contains("canonical"))
        );
        std::fs::remove_file(&path).expect("remove baseline");
        let missing = check_baseline(&path, None, 1e-9);
        assert!(matches!(missing, Err(BaselineError::Unusable(m)) if m.contains("cannot read")));
    }

    #[test]
    fn timed_cells_report_round_throughput() {
        let report = sample_report();
        let timed = report.to_json(true).to_pretty_string();
        assert!(timed.contains("rounds_per_sec"));
        assert!(!report.to_canonical_string().contains("rounds_per_sec"));
    }

    #[test]
    fn comparison_passes_on_identical_reports() {
        let report = sample_report();
        assert!(compare_reports(&report, &report, 1e-9).is_empty());
    }

    #[test]
    fn comparison_flags_metric_divergence() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.cells[0].metrics.gpu_hours += 1.0;
        let diffs = compare_reports(&current, &baseline, 1e-9);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("gpu_hours"), "{diffs:?}");
        // A generous tolerance forgives it.
        assert!(compare_reports(&current, &baseline, 0.1).is_empty());
    }

    #[test]
    fn comparison_flags_missing_and_extra_cells() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.cells[0].id = "other/cell".into();
        let diffs = compare_reports(&current, &baseline, 1e-9);
        assert_eq!(diffs.len(), 2);
        assert!(diffs.iter().any(|d| d.contains("missing from current")));
        assert!(diffs.iter().any(|d| d.contains("not present in baseline")));
    }

    #[test]
    fn absent_optional_metrics_compare_equal() {
        let mut baseline = sample_report();
        baseline.cells[0].metrics.max_rho = None;
        let current = baseline.clone();
        assert!(compare_reports(&current, &baseline, 1e-9).is_empty());
        // Absent vs present diverges.
        let mut present = baseline.clone();
        present.cells[0].metrics.max_rho = Some(1.0);
        assert!(!compare_reports(&present, &baseline, 1e-9).is_empty());
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let text = sample_report()
            .to_canonical_string()
            .replace("\"schema_version\": 7", "\"schema_version\": 99");
        let err = SweepReport::parse_str(&text).expect_err("must reject");
        assert!(err.contains("schema version"), "{err}");
    }
}
