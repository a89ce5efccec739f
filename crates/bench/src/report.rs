//! Machine-readable sweep reports and the baseline regression gate.
//!
//! A sweep run aggregates one [`CellMetrics`] per `(scenario × policy)`
//! cell into a [`SweepReport`]. A cell serializes as `{ "id", "metrics" }`:
//! its id `"<scenario id>/<policy>"` is the scenario's one encoding (see
//! [`Scenario::id`]), and the parser rebuilds the scenario from it with
//! [`Scenario::from_id`], so a new scenario axis changes neither this
//! module nor any committed baseline. Its metrics are named blocks of named
//! values, each block read off the run through one field table (`RUN`,
//! `SERVICE`, `CONTROL`); the writer, the parser and the gate all walk
//! those tables, so a new metric is one table line. The canonical JSON
//! rendering ([`SweepReport::to_canonical_string`]) deliberately excludes
//! wall-clock timings: metrics are a pure function of the scenario, so
//! serial and parallel runs of the same matrix emit byte-identical
//! documents, and [`check_baseline`] — the one gate behind `themis sweep
//! --check` and every baseline test — can diff a run against a committed
//! `BENCH_*.json` exactly. The gate compares the baseline's blocks by name,
//! so a block the baseline predates is not compared and a new block needs
//! no baseline regeneration. Timings are advisory — ask for them with
//! [`SweepReport::to_json`]`(true)` or the `themis sweep --timings` flag.
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
use Get::{Count, Number, Optional};

/// Version stamp of the JSON schema, bumped on incompatible change so a
/// stale baseline fails loudly instead of diffing nonsense. v7 made the
/// cell id the only record of its scenario.
pub const SCHEMA_VERSION: f64 = 7.0;

/// How a metric is read off the run, which is also how it is read back
/// from the document: its kind, carrying its getter.
enum Get<R> {
    /// A number every run has.
    Number(fn(&R) -> f64),
    /// A non-negative integer every run has — never a silent cast.
    Count(fn(&R) -> u64),
    /// A number some runs lack, written `null`.
    Optional(fn(&R) -> Option<f64>),
}

/// A block of metrics: its name and its `(key, getter)` table, in document
/// order.
struct Table<R: 'static> {
    name: &'static str,
    fields: &'static [(&'static str, Get<R>)],
}

/// The batch metrics (the paper's §8.1 set), which every cell has. Its
/// block is written at the top level of the cell's `metrics` object.
#[rustfmt::skip]
const RUN: Table<SimReport> = Table {
    name: "run",
    fields: &[
        ("max_rho", Optional(SimReport::max_fairness)),
        ("jain", Optional(SimReport::jains_index)),
        ("makespan_minutes", Number(|r| r.end_time.as_minutes())),
        ("avg_jct_minutes", Optional(|r| r.mean_completion_time().map(|t| t.as_minutes()))),
        ("gpu_hours", Number(|r| r.total_gpu_time.as_hours())),
        ("mean_placement_score", Optional(SimReport::mean_placement_score)),
        ("peak_contention", Number(|r| r.peak_contention)),
        ("finished_apps", Count(|r| r.finished_apps() as u64)),
        ("unfinished_apps", Count(|r| r.unfinished_apps() as u64)),
        ("scheduling_rounds", Count(|r| r.scheduling_rounds)),
    ],
};

/// The windowed open-system metrics of a service-mode cell, from the final
/// [`ServiceReport`] snapshot: ρ and queueing-delay percentiles over the
/// final rolling window, the starvation audit (most consecutive zero-GPU
/// rounds after warmup), admission counts, when steady state was declared,
/// and the rounds the incremental hot path ran and skipped.
#[rustfmt::skip]
const SERVICE: Table<ServiceReport> = Table {
    name: "service",
    fields: &[
        ("p50_rho", Optional(|r| r.windows.p50_rho)),
        ("p99_rho", Optional(|r| r.windows.p99_rho)),
        ("p50_queueing_minutes", Optional(|r| r.windows.p50_queueing_minutes)),
        ("p99_queueing_minutes", Optional(|r| r.windows.p99_queueing_minutes)),
        ("p99_renewal_minutes", Optional(|r| r.windows.p99_renewal_minutes)),
        ("max_queue_rounds", Count(|r| r.windows.max_queue_rounds)),
        ("admitted", Count(|r| r.admitted)),
        ("retired", Count(|r| r.retired)),
        ("steady_state_minutes", Optional(|r| r.steady_state_at.map(|t| t.as_minutes()))),
        ("auctions_run", Count(|r| r.auctions_run)),
        ("auctions_skipped", Count(|r| r.auctions_skipped)),
    ],
};

/// The control-plane round accounting of a cell whose scheduler has one
/// (distributed-mode Themis) — the metric set the `storm` matrix gates:
/// under Arbiter congestion the missed-round rate is the headline number,
/// and the raw counters say which phase of the §3.1 exchange lost the
/// messages.
#[rustfmt::skip]
const CONTROL: Table<ControlPlaneStats> = Table {
    name: "control",
    fields: &[
        ("rounds", Count(|c| c.rounds)),
        ("completed_rounds", Count(|c| c.completed_rounds)),
        ("missed_rho_reports", Count(|c| c.missed_rho_reports)),
        ("missed_bids", Count(|c| c.missed_bids)),
        ("voided_wins", Count(|c| c.voided_wins)),
        ("missed_round_rate", Optional(ControlPlaneStats::missed_round_rate)),
    ],
};

impl<R> Table<R> {
    /// The block's values, read off the run.
    fn read(&self, run: &R) -> (&'static str, Values) {
        let values = self.fields.iter().map(|(key, get)| {
            let value = match get {
                Number(get) => Some(get(run)),
                Count(get) => Some(get(run) as f64),
                Optional(get) => get(run),
            };
            (*key, value)
        });
        (self.name, values.collect())
    }
}

/// A block's values under their keys, in table order (`None` = absent).
pub type Values = Vec<(&'static str, Option<f64>)>;

/// A JSON object being parsed, with its location in the document for
/// error messages (`cells[7].metrics.service`).
#[derive(Clone)]
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

    fn child(&self, key: &str) -> Option<At<'a>> {
        self.json.get(key).map(|json| At {
            json,
            path: format!("{}.{key}", self.path),
        })
    }

    /// The block `table` describes: the run block is this object itself,
    /// any other its child of the table's name; `None` if it is absent.
    fn block<R>(&self, table: &Table<R>) -> Result<Option<(&'static str, Values)>, String> {
        let at = match table.name {
            "run" => Some(self.clone()),
            name => self.child(name),
        };
        let Some(at) = at else { return Ok(None) };
        let values = table.fields.iter().map(|(key, get)| {
            let value = match (get, at.json.get(key)) {
                (Optional(_), None | Some(Json::Null)) => None,
                (Optional(_), Some(v)) => match v.as_f64() {
                    None => return Err(at.err(format_args!("'{key}' must be a number or null"))),
                    v => v,
                },
                (Number(_), _) => Some(at.num(key)?),
                (Count(_), _) => match at.num(key)? {
                    v if v >= 0.0 && v.fract() == 0.0 => Some(v),
                    v => {
                        return Err(
                            at.err(format_args!("'{key}' {v} is not a non-negative integer"))
                        )
                    }
                },
            };
            Ok((*key, value))
        });
        Ok(Some((table.name, values.collect::<Result<_, String>>()?)))
    }
}

/// The metrics extracted from one run: the blocks it reports, by name,
/// each in its table's order — `run` first, then `service` on service-mode
/// cells and `control` on cells whose scheduler has a control plane.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// `(block name, values)`, in document order.
    pub blocks: Vec<(&'static str, Values)>,
}

impl CellMetrics {
    /// Extracts the metric blocks from a finished simulation.
    pub fn from_report(report: &SimReport) -> CellMetrics {
        let mut blocks = vec![RUN.read(report)];
        blocks.extend(report.control.as_ref().map(|c| CONTROL.read(c)));
        CellMetrics { blocks }
    }

    /// Extracts the metric blocks from a finished service run: the batch
    /// blocks of the embedded [`SimReport`] plus the windowed block.
    pub fn from_service_report(report: &ServiceReport) -> CellMetrics {
        let mut metrics = CellMetrics::from_report(&report.sim);
        metrics.blocks.insert(1, SERVICE.read(report));
        metrics
    }

    /// The block named `name`, if the run reports it.
    pub fn block(&self, name: &str) -> Option<&Values> {
        let mut blocks = self.blocks.iter();
        blocks.find(|(n, _)| *n == name).map(|(_, values)| values)
    }

    /// The value of `key` in block `block`; `None` if either is absent.
    pub fn get(&self, block: &str, key: &str) -> Option<f64> {
        let values = self.block(block)?;
        values.iter().find(|(k, _)| *k == key).and_then(|(_, v)| *v)
    }

    fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        for (name, values) in &self.blocks {
            let block = values
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::opt_num(*v)));
            match *name {
                "run" => pairs.extend(block),
                name => pairs.push((name.to_string(), Json::Obj(block.collect()))),
            }
        }
        Json::Obj(pairs)
    }

    fn from_json(at: &At<'_>) -> Result<CellMetrics, String> {
        let blocks = [at.block(&RUN)?, at.block(&SERVICE)?, at.block(&CONTROL)?];
        Ok(CellMetrics {
            blocks: blocks.into_iter().flatten().collect(),
        })
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
            if let Some(rounds) = self.metrics.get("run", "scheduling_rounds") {
                if self.wall_clock_ms > 0.0 {
                    let per_sec = rounds / (self.wall_clock_ms / 1e3);
                    pairs.push(("rounds_per_sec".into(), Json::num(per_sec)));
                }
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
/// the gate passes. Every value of every block the baseline holds is
/// compared by name: a block the current run lacks is a divergence, a
/// block the baseline lacks is not compared (so a new block needs no
/// baseline regeneration). Values are compared with relative tolerance
/// `tol` (pinned seeds make runs bit-reproducible, so CI uses a tiny
/// tolerance that only forgives float formatting, not behavior); absent
/// equals only absent. Wall-clock is never compared — it is advisory by
/// design.
pub fn compare_reports(current: &SweepReport, baseline: &SweepReport, tol: f64) -> Vec<String> {
    let mut diffs = Vec::new();
    if current.matrix != baseline.matrix {
        diffs.push(format!(
            "matrix name differs: current '{}' vs baseline '{}'",
            current.matrix, baseline.matrix
        ));
    }
    fn find<'a>(cells: &'a [CellReport], id: &str) -> Option<&'a CellReport> {
        cells.iter().find(|c| c.id == id)
    }
    let show = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    for cell in &baseline.cells {
        let Some(now) = find(&current.cells, &cell.id) else {
            diffs.push(format!("cell '{}' missing from current run", cell.id));
            continue;
        };
        for (name, values) in &cell.metrics.blocks {
            if now.metrics.block(name).is_none() {
                diffs.push(format!(
                    "cell '{}': block '{name}' missing from current run",
                    cell.id
                ));
                continue;
            }
            for &(key, b) in values {
                let a = now.metrics.get(name, key);
                let same = match (a, b) {
                    (None, None) => true,
                    (Some(a), Some(b)) => (a - b).abs() <= tol * b.abs().max(1.0),
                    _ => false,
                };
                if !same {
                    diffs.push(format!(
                        "cell '{}': {name}.{key} diverged: current {} vs baseline {}",
                        cell.id,
                        show(a),
                        show(b)
                    ));
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

/// The baseline regression gate — `themis sweep --check` and every baseline test
/// go through it. Reads the committed report at `path`, which must parse
/// and be in canonical form (written by `themis sweep --out`, never
/// hand-edited),
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
            "baseline {shown} is not in canonical form (regenerate it with `themis sweep --out`; \
             never hand-edit it)"
        )));
    }
    if let Some(current) = current {
        let diffs = compare_reports(current, &baseline, tol);
        if !diffs.is_empty() {
            return Err(BaselineError::Diverged(format!(
                "{} divergence(s) from {shown}; if the behavior change is intentional, \
                 regenerate it with `themis sweep --matrix {} --jobs 4 --out {shown}`:\n  {}",
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

    /// Sets `key` of block `block` in the one cell of `report`.
    fn set(report: &mut SweepReport, block: &str, key: &str, value: Option<f64>) {
        let blocks = &mut report.cells[0].metrics.blocks;
        let (_, values) = blocks.iter_mut().find(|(n, _)| *n == block).expect("block");
        values.iter_mut().find(|(k, _)| *k == key).expect("key").1 = value;
    }

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
        let run = vec![
            ("max_rho", Some(2.5)),
            ("jain", Some(0.9)),
            ("makespan_minutes", Some(120.0)),
            ("avg_jct_minutes", Some(60.0)),
            ("gpu_hours", Some(14.5)),
            ("mean_placement_score", Some(0.95)),
            ("peak_contention", Some(2.0)),
            ("finished_apps", Some(3.0)),
            ("unfinished_apps", Some(0.0)),
            ("scheduling_rounds", Some(17.0)),
        ];
        CellMetrics {
            blocks: vec![("run", run)],
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
        let service = vec![
            ("p50_rho", Some(1.1)),
            ("p99_rho", Some(2.2)),
            ("p50_queueing_minutes", Some(3.0)),
            ("p99_queueing_minutes", Some(40.0)),
            ("p99_renewal_minutes", None),
            ("max_queue_rounds", Some(7.0)),
            ("admitted", Some(90.0)),
            ("retired", Some(85.0)),
            ("steady_state_minutes", Some(900.0)),
            ("auctions_run", Some(100.0)),
            ("auctions_skipped", Some(200.0)),
        ];
        metrics.blocks.push(("service", service));
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
        set(&mut current, "service", "max_queue_rounds", Some(8.0));
        let diffs = compare_reports(&current, &report, 1e-9);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("service.max_queue_rounds"), "{diffs:?}");

        // Dropping the block entirely is a divergence, not a silent pass.
        current.cells[0].metrics.blocks.truncate(1);
        let diffs = compare_reports(&current, &report, 1e-9);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("block 'service' missing"), "{diffs:?}");
    }

    fn storm_report_with(completed_rounds: u64) -> SweepReport {
        let fault = FaultConfig::reliable()
            .with_arbiter_service_time(Time::seconds(1.0))
            .with_arbiter_batch(8);
        let scenario = base().with_fault(fault).with_storm(StormAxis::new(2.0));
        let mut metrics = sample_metrics();
        metrics.blocks.push(CONTROL.read(&ControlPlaneStats {
            rounds: 20,
            completed_rounds,
            missed_rho_reports: 9,
            missed_bids: 2,
            voided_wins: 0,
        }));
        one_cell(scenario, Policy::themis_dist_default(), metrics)
    }

    fn storm_report() -> SweepReport {
        storm_report_with(15)
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
        let mut current = storm_report_with(14);
        let diffs = compare_reports(&current, &report, 1e-9);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs.iter().any(|d| d.contains("control.completed_rounds")));
        assert!(diffs
            .iter()
            .any(|d| d.contains("control.missed_round_rate")));

        // Dropping the block entirely is a divergence, not a silent pass.
        current.cells[0].metrics.blocks.truncate(1);
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
        let control = storm_report().cells[0].metrics.blocks[1].clone();
        fixture.cells[0].metrics.blocks.push(control);
        let text = fixture.to_canonical_string();
        let documents = r#"
            "finished_apps": 3 | "finished_apps": -3 | cells[0].metrics: 'finished_apps' -3 is not a non-negative integer
            "finished_apps": 3 | "finished_apps": 2.5 | cells[0].metrics: 'finished_apps' 2.5 is not
            "gpu_hours": 14.5, |  | cells[0].metrics: missing numeric field 'gpu_hours'
            "max_rho": 2.5 | "max_rho": "low" | cells[0].metrics: 'max_rho' must be a number or null
            "admitted": 90 | "admitted": -90 | cells[0].metrics.service: 'admitted' -90 is not
            "rounds": 20 | "rounds": 20.5 | cells[0].metrics.control: 'rounds' 20.5 is not
            "control": { | "control": null, "was_control": { | cells[0].metrics.control: missing numeric field 'rounds'
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
        set(&mut moved, "run", "gpu_hours", Some(15.5));
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
        set(&mut current, "run", "gpu_hours", Some(15.5));
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
        set(&mut baseline, "run", "max_rho", None);
        let current = baseline.clone();
        assert!(compare_reports(&current, &baseline, 1e-9).is_empty());
        // Absent vs present diverges.
        let mut present = baseline.clone();
        set(&mut present, "run", "max_rho", Some(1.0));
        assert!(!compare_reports(&present, &baseline, 1e-9).is_empty());
    }

    /// The gate compares the baseline's blocks only: every committed
    /// baseline passes against its own cells with a block it predates
    /// added to each.
    #[test]
    fn every_committed_baseline_tolerates_a_new_block() {
        for name in [
            "BENCH_BASELINE",
            "BENCH_FAULTS_BASELINE",
            "BENCH_HETERO_BASELINE",
            "BENCH_SCALE_BASELINE",
            "BENCH_SERVICE_BASELINE",
            "BENCH_STORM_BASELINE",
            "BENCH_STRESS_BASELINE",
        ] {
            let path = format!("{}/../../{name}.json", env!("CARGO_MANIFEST_DIR"));
            let mut current = check_baseline(&path, None, 1e-9).unwrap_or_else(|e| panic!("{e}"));
            for cell in &mut current.cells {
                cell.metrics
                    .blocks
                    .push(("decisions", vec![("grants", Some(1.0))]));
            }
            check_baseline(&path, Some(&current), 1e-9).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    /// `missed_round_rate` is read back like any metric, so a hand edit
    /// survives the canonical-form check and fails as a divergence.
    #[test]
    fn a_hand_edited_missed_round_rate_fails_the_gate() {
        let path = std::env::temp_dir().join(format!("BENCH_RATE_{}.json", std::process::id()));
        let text = storm_report().to_canonical_string();
        let edited = text.replace("\"missed_round_rate\": 0.25", "\"missed_round_rate\": 0.5");
        assert_ne!(edited, text);
        std::fs::write(&path, edited).expect("write baseline");
        let result = check_baseline(&path, Some(&storm_report()), 1e-9);
        std::fs::remove_file(&path).expect("remove baseline");
        let Err(BaselineError::Diverged(message)) = result else {
            panic!("a hand-edited rate must diverge, got {result:?}");
        };
        assert!(message.contains("control.missed_round_rate"), "{message}");
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
