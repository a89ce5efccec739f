//! Machine-readable sweep reports and the baseline regression gate.
//!
//! A sweep run aggregates one [`CellMetrics`] per `(scenario × policy)`
//! cell into a [`SweepReport`]. The canonical JSON rendering
//! ([`SweepReport::to_canonical_string`]) deliberately excludes wall-clock
//! timings: metrics are a pure function of the scenario, so serial and
//! parallel runs of the same matrix emit byte-identical documents, and CI
//! can diff a run against the committed `BENCH_BASELINE.json` exactly.
//! Timings are advisory — ask for them with
//! [`SweepReport::to_json`]`(true)` or the `sweep --timings` flag.

use crate::json::Json;
use crate::scenarios::{ClusterKind, GenMix, Scenario, ServiceAxis, ServiceShape, StormAxis};
use themis_cluster::time::Time;
use themis_protocol::fault::FaultConfig;
use themis_sim::metrics::SimReport;
use themis_sim::scheduler::ControlPlaneStats;
use themis_sim::service::ServiceReport;

/// Version stamp of the JSON schema, bumped on incompatible change so a
/// stale baseline fails loudly instead of diffing nonsense.
/// v2 added the scenario's transport-fault axis (`fault_*` fields); v3
/// added the GPU-generation heterogeneity axis (`gen_mix` plus the derived
/// per-cell `speed_*` metadata); v4 added the actor-transport fault axes
/// (jitter, bandwidth, partitions, Arbiter failover); v5 added the
/// open-system service axis (`service_*` scenario fields and the windowed
/// `service` metrics block, both present only on service-mode cells — a
/// closed-system cell's JSON is byte-identical to v4 apart from the
/// version stamp); v6 added the Arbiter-backpressure axes
/// (`fault_arbiter_service_minutes` and `fault_arbiter_batch`, present
/// only when engaged), the storm axis (`storm_bid_deadline_minutes`,
/// present only on storm cells) and the control-plane metrics block
/// (`control`, present on cells whose scheduler exposes auction-round
/// accounting — distributed-mode Themis).
pub const SCHEMA_VERSION: f64 = 6.0;

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

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("p50_rho".into(), Json::opt_num(self.p50_rho)),
            ("p99_rho".into(), Json::opt_num(self.p99_rho)),
            (
                "p50_queueing_minutes".into(),
                Json::opt_num(self.p50_queueing_minutes),
            ),
            (
                "p99_queueing_minutes".into(),
                Json::opt_num(self.p99_queueing_minutes),
            ),
            (
                "p99_renewal_minutes".into(),
                Json::opt_num(self.p99_renewal_minutes),
            ),
            (
                "max_queue_rounds".into(),
                Json::num(self.max_queue_rounds as f64),
            ),
            ("admitted".into(), Json::num(self.admitted as f64)),
            ("retired".into(), Json::num(self.retired as f64)),
            (
                "steady_state_minutes".into(),
                Json::opt_num(self.steady_state_minutes),
            ),
            ("auctions_run".into(), Json::num(self.auctions_run as f64)),
            (
                "auctions_skipped".into(),
                Json::num(self.auctions_skipped as f64),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<ServiceMetrics, String> {
        let req = |key: &str| -> Result<f64, String> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("service metrics missing numeric field '{key}'"))
        };
        let opt = |key: &str| value.get(key).and_then(Json::as_opt_f64);
        Ok(ServiceMetrics {
            p50_rho: opt("p50_rho"),
            p99_rho: opt("p99_rho"),
            p50_queueing_minutes: opt("p50_queueing_minutes"),
            p99_queueing_minutes: opt("p99_queueing_minutes"),
            p99_renewal_minutes: opt("p99_renewal_minutes"),
            max_queue_rounds: req("max_queue_rounds")? as u64,
            admitted: req("admitted")? as u64,
            retired: req("retired")? as u64,
            steady_state_minutes: opt("steady_state_minutes"),
            auctions_run: req("auctions_run")? as u64,
            auctions_skipped: req("auctions_skipped")? as u64,
        })
    }

    /// `(name, value)` pairs for diffing, mirroring
    /// [`CellMetrics::numbered`].
    fn numbered(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("p50_rho", self.p50_rho.unwrap_or(f64::NAN)),
            ("p99_rho", self.p99_rho.unwrap_or(f64::NAN)),
            (
                "p50_queueing_minutes",
                self.p50_queueing_minutes.unwrap_or(f64::NAN),
            ),
            (
                "p99_queueing_minutes",
                self.p99_queueing_minutes.unwrap_or(f64::NAN),
            ),
            (
                "p99_renewal_minutes",
                self.p99_renewal_minutes.unwrap_or(f64::NAN),
            ),
            ("max_queue_rounds", self.max_queue_rounds as f64),
            ("admitted", self.admitted as f64),
            ("retired", self.retired as f64),
            (
                "steady_state_minutes",
                self.steady_state_minutes.unwrap_or(f64::NAN),
            ),
            ("auctions_run", self.auctions_run as f64),
            ("auctions_skipped", self.auctions_skipped as f64),
        ]
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

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rounds".into(), Json::num(self.rounds as f64)),
            (
                "completed_rounds".into(),
                Json::num(self.completed_rounds as f64),
            ),
            (
                "missed_rho_reports".into(),
                Json::num(self.missed_rho_reports as f64),
            ),
            ("missed_bids".into(), Json::num(self.missed_bids as f64)),
            ("voided_wins".into(), Json::num(self.voided_wins as f64)),
            // Derived from the counters above; write-only (recomputed on
            // parse), kept in the document for human diffing.
            (
                "missed_round_rate".into(),
                Json::opt_num(self.missed_round_rate()),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<ControlMetrics, String> {
        let uint = |key: &str| -> Result<u64, String> {
            let v = value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("control metrics missing numeric field '{key}'"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("control {key} {v} is not a non-negative integer"));
            }
            Ok(v as u64)
        };
        Ok(ControlMetrics {
            rounds: uint("rounds")?,
            completed_rounds: uint("completed_rounds")?,
            missed_rho_reports: uint("missed_rho_reports")?,
            missed_bids: uint("missed_bids")?,
            voided_wins: uint("voided_wins")?,
        })
    }

    /// `(name, value)` pairs for diffing, mirroring
    /// [`CellMetrics::numbered`].
    fn numbered(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("rounds", self.rounds as f64),
            ("completed_rounds", self.completed_rounds as f64),
            ("missed_rho_reports", self.missed_rho_reports as f64),
            ("missed_bids", self.missed_bids as f64),
            ("voided_wins", self.voided_wins as f64),
            (
                "missed_round_rate",
                self.missed_round_rate().unwrap_or(f64::NAN),
            ),
        ]
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
        let mut pairs = vec![
            ("max_rho".into(), Json::opt_num(self.max_rho)),
            ("jain".into(), Json::opt_num(self.jain)),
            ("makespan_minutes".into(), Json::num(self.makespan_minutes)),
            (
                "avg_jct_minutes".into(),
                Json::opt_num(self.avg_jct_minutes),
            ),
            ("gpu_hours".into(), Json::num(self.gpu_hours)),
            (
                "mean_placement_score".into(),
                Json::opt_num(self.mean_placement_score),
            ),
            ("peak_contention".into(), Json::num(self.peak_contention)),
            ("finished_apps".into(), Json::num(self.finished_apps as f64)),
            (
                "unfinished_apps".into(),
                Json::num(self.unfinished_apps as f64),
            ),
            (
                "scheduling_rounds".into(),
                Json::num(self.scheduling_rounds as f64),
            ),
        ];
        if let Some(service) = &self.service {
            pairs.push(("service".into(), service.to_json()));
        }
        if let Some(control) = &self.control {
            pairs.push(("control".into(), control.to_json()));
        }
        Json::Obj(pairs)
    }

    fn from_json(value: &Json) -> Result<CellMetrics, String> {
        let req = |key: &str| -> Result<f64, String> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metrics missing numeric field '{key}'"))
        };
        let opt = |key: &str| value.get(key).and_then(Json::as_opt_f64);
        Ok(CellMetrics {
            max_rho: opt("max_rho"),
            jain: opt("jain"),
            makespan_minutes: req("makespan_minutes")?,
            avg_jct_minutes: opt("avg_jct_minutes"),
            gpu_hours: req("gpu_hours")?,
            mean_placement_score: opt("mean_placement_score"),
            peak_contention: req("peak_contention")?,
            finished_apps: req("finished_apps")? as usize,
            unfinished_apps: req("unfinished_apps")? as usize,
            scheduling_rounds: req("scheduling_rounds")? as u64,
            service: value
                .get("service")
                .map(ServiceMetrics::from_json)
                .transpose()?,
            control: value
                .get("control")
                .map(ControlMetrics::from_json)
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
        let mut pairs = vec![
            ("max_rho", self.max_rho.unwrap_or(f64::NAN)),
            ("jain", self.jain.unwrap_or(f64::NAN)),
            ("makespan_minutes", self.makespan_minutes),
            ("avg_jct_minutes", self.avg_jct_minutes.unwrap_or(f64::NAN)),
            ("gpu_hours", self.gpu_hours),
            (
                "mean_placement_score",
                self.mean_placement_score.unwrap_or(f64::NAN),
            ),
            ("peak_contention", self.peak_contention),
            ("finished_apps", self.finished_apps as f64),
            ("unfinished_apps", self.unfinished_apps as f64),
            ("scheduling_rounds", self.scheduling_rounds as f64),
        ];
        match &self.service {
            Some(service) => pairs.extend(service.numbered()),
            None => pairs.extend(
                ServiceMetrics {
                    p50_rho: None,
                    p99_rho: None,
                    p50_queueing_minutes: None,
                    p99_queueing_minutes: None,
                    p99_renewal_minutes: None,
                    max_queue_rounds: 0,
                    admitted: 0,
                    retired: 0,
                    steady_state_minutes: None,
                    auctions_run: 0,
                    auctions_skipped: 0,
                }
                .numbered()
                .into_iter()
                .map(|(name, _)| (name, f64::NAN)),
            ),
        }
        match &self.control {
            Some(control) => pairs.extend(control.numbered()),
            None => pairs.extend(
                ControlMetrics {
                    rounds: 0,
                    completed_rounds: 0,
                    missed_rho_reports: 0,
                    missed_bids: 0,
                    voided_wins: 0,
                }
                .numbered()
                .into_iter()
                .map(|(name, _)| (name, f64::NAN)),
            ),
        }
        pairs
    }
}

/// One `(scenario × policy)` cell of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// `"<scenario id>/<policy>"` — unique within a matrix.
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
    fn scenario_json(scenario: &Scenario) -> Json {
        // Per-cell speed metadata, derived from the built topology: the
        // aggregate/extreme GPU speeds the cell ran with. Write-only —
        // `scenario_from_json` recomputes them from `gen_mix`, so they can
        // never drift from the axis value they describe.
        let spec = scenario.cluster_spec();
        let speeds: Vec<f64> = spec
            .machines()
            .iter()
            .map(themis_cluster::topology::MachineSpec::speed)
            .collect();
        let speed_min = speeds.iter().copied().fold(f64::INFINITY, f64::min);
        let speed_max = speeds.iter().copied().fold(0.0, f64::max);
        let mut pairs = vec![
            ("cluster".into(), Json::str(scenario.cluster.name())),
            ("gen_mix".into(), Json::str(scenario.gen_mix.name())),
            ("speed_total".into(), Json::num(spec.total_speed())),
            ("speed_min".into(), Json::num(speed_min)),
            ("speed_max".into(), Json::num(speed_max)),
            ("apps".into(), Json::num(scenario.apps as f64)),
            ("contention".into(), Json::num(scenario.contention)),
            (
                "network_fraction".into(),
                Json::num(scenario.network_fraction),
            ),
            ("fairness_knob".into(), Json::num(scenario.fairness_knob)),
            ("lease_minutes".into(), Json::num(scenario.lease_minutes)),
            ("rho_error".into(), Json::num(scenario.rho_error)),
            ("burst_fraction".into(), Json::num(scenario.burst_fraction)),
            (
                "heavy_job_fraction".into(),
                Json::num(scenario.heavy_job_fraction),
            ),
            (
                "fault_drop".into(),
                Json::num(scenario.fault.drop_probability),
            ),
            (
                "fault_delay_minutes".into(),
                Json::num(scenario.fault.delay.as_minutes()),
            ),
            (
                "fault_crash_period".into(),
                Json::num(scenario.fault.crash_period as f64),
            ),
            (
                "fault_crash_rounds".into(),
                Json::num(scenario.fault.crash_rounds as f64),
            ),
            (
                "fault_jitter_minutes".into(),
                Json::num(scenario.fault.jitter.as_minutes()),
            ),
            (
                "fault_bandwidth".into(),
                Json::num(scenario.fault.bandwidth),
            ),
            (
                "fault_partition_period".into(),
                Json::num(scenario.fault.partition_period as f64),
            ),
            (
                "fault_partition_rounds".into(),
                Json::num(scenario.fault.partition_rounds as f64),
            ),
            (
                "fault_failover_period".into(),
                Json::num(scenario.fault.failover_period as f64),
            ),
            ("fault_seed".into(), Json::num(scenario.fault.seed as f64)),
            ("seed".into(), Json::num(scenario.seed as f64)),
            (
                "scheduler_seed".into(),
                Json::num(scenario.scheduler_seed as f64),
            ),
        ];
        // Arbiter-backpressure fields only when the knobs are engaged,
        // keeping every pre-backpressure scenario object byte-identical to
        // v5 runs apart from the version stamp.
        if scenario.fault.arbiter_service_time > Time::ZERO {
            pairs.push((
                "fault_arbiter_service_minutes".into(),
                Json::num(scenario.fault.arbiter_service_time.as_minutes()),
            ));
        }
        if scenario.fault.arbiter_batch > 0 {
            pairs.push((
                "fault_arbiter_batch".into(),
                Json::num(scenario.fault.arbiter_batch as f64),
            ));
        }
        // Service axis fields only on service-mode cells, keeping every
        // closed-system scenario object byte-identical to pre-service runs.
        if let Some(axis) = &scenario.service {
            pairs.push(("service_shape".into(), Json::str(axis.shape.name())));
            pairs.push(("service_rate".into(), Json::num(axis.rate)));
            pairs.push((
                "service_horizon_minutes".into(),
                Json::num(axis.horizon_minutes),
            ));
        }
        // Storm axis field only on storm cells, same contract.
        if let Some(axis) = &scenario.storm {
            pairs.push((
                "storm_bid_deadline_minutes".into(),
                Json::num(axis.bid_deadline_minutes),
            ));
        }
        Json::Obj(pairs)
    }

    fn scenario_from_json(value: &Json) -> Result<Scenario, String> {
        let req = |key: &str| -> Result<f64, String> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("scenario missing numeric field '{key}'"))
        };
        let cluster_name = value
            .get("cluster")
            .and_then(Json::as_str)
            .ok_or("scenario missing 'cluster'")?;
        let cluster = ClusterKind::parse(cluster_name)
            .ok_or_else(|| format!("unknown cluster kind '{cluster_name}'"))?;
        let mix_name = value
            .get("gen_mix")
            .and_then(Json::as_str)
            .ok_or("scenario missing 'gen_mix'")?;
        let gen_mix = GenMix::parse(mix_name)
            .ok_or_else(|| format!("unknown generation mix '{mix_name}'"))?;
        Ok(Scenario {
            cluster,
            gen_mix,
            apps: req("apps")? as usize,
            contention: req("contention")?,
            network_fraction: req("network_fraction")?,
            fairness_knob: req("fairness_knob")?,
            lease_minutes: req("lease_minutes")?,
            rho_error: req("rho_error")?,
            burst_fraction: req("burst_fraction")?,
            heavy_job_fraction: req("heavy_job_fraction")?,
            fault: {
                // Built as a literal, not via the asserting `with_*`
                // builders: a malformed baseline must surface as a parse
                // error, never a panic or a silent `as`-cast clamp.
                let uint = |key: &str| -> Result<u64, String> {
                    let v = req(key)?;
                    if v < 0.0 || v.fract() != 0.0 {
                        return Err(format!("{key} {v} is not a non-negative integer"));
                    }
                    Ok(v as u64)
                };
                let drop_probability = req("fault_drop")?;
                if !(0.0..=1.0).contains(&drop_probability) {
                    return Err(format!("fault_drop {drop_probability} outside [0, 1]"));
                }
                let delay_minutes = req("fault_delay_minutes")?;
                if delay_minutes.is_nan() || delay_minutes < 0.0 {
                    return Err(format!("fault_delay_minutes {delay_minutes} is negative"));
                }
                let jitter_minutes = req("fault_jitter_minutes")?;
                if jitter_minutes.is_nan() || jitter_minutes < 0.0 {
                    return Err(format!("fault_jitter_minutes {jitter_minutes} is negative"));
                }
                let bandwidth = req("fault_bandwidth")?;
                if !bandwidth.is_finite() || bandwidth < 0.0 {
                    return Err(format!(
                        "fault_bandwidth {bandwidth} is not finite and non-negative"
                    ));
                }
                // The arbiter knobs are absent on pre-backpressure cells
                // (and on any cell where they are zero), so they parse
                // optionally with a zero default.
                let arbiter_service_minutes = match value.get("fault_arbiter_service_minutes") {
                    None => 0.0,
                    Some(v) => {
                        let v = v
                            .as_f64()
                            .ok_or("fault_arbiter_service_minutes must be a number")?;
                        if !(v.is_finite() && v >= 0.0) {
                            return Err(format!(
                                "fault_arbiter_service_minutes {v} is not finite and non-negative"
                            ));
                        }
                        v
                    }
                };
                let arbiter_batch = match value.get("fault_arbiter_batch") {
                    None => 0,
                    Some(_) => uint("fault_arbiter_batch")?,
                };
                FaultConfig {
                    drop_probability,
                    delay: Time::minutes(delay_minutes),
                    seed: uint("fault_seed")?,
                    crash_period: uint("fault_crash_period")?,
                    crash_rounds: uint("fault_crash_rounds")?,
                    jitter: Time::minutes(jitter_minutes),
                    bandwidth,
                    partition_period: uint("fault_partition_period")?,
                    partition_rounds: uint("fault_partition_rounds")?,
                    failover_period: uint("fault_failover_period")?,
                    arbiter_service_time: Time::minutes(arbiter_service_minutes),
                    arbiter_batch,
                }
            },
            seed: req("seed")? as u64,
            scheduler_seed: req("scheduler_seed")? as u64,
            service: match value.get("service_shape") {
                None => None,
                Some(shape) => {
                    let name = shape
                        .as_str()
                        .ok_or("scenario 'service_shape' must be a string")?;
                    let shape = ServiceShape::parse(name)
                        .ok_or_else(|| format!("unknown service shape '{name}'"))?;
                    let rate = req("service_rate")?;
                    if !(rate.is_finite() && rate > 0.0) {
                        return Err(format!("service_rate {rate} is not positive"));
                    }
                    let horizon = req("service_horizon_minutes")?;
                    if !(horizon.is_finite() && horizon > 0.0) {
                        return Err(format!("service_horizon_minutes {horizon} is not positive"));
                    }
                    Some(ServiceAxis::new(shape, rate, horizon))
                }
            },
            storm: match value.get("storm_bid_deadline_minutes") {
                None => None,
                Some(v) => {
                    let deadline = v
                        .as_f64()
                        .ok_or("storm_bid_deadline_minutes must be a number")?;
                    if !(deadline.is_finite() && deadline > 0.0) {
                        return Err(format!(
                            "storm_bid_deadline_minutes {deadline} is not positive"
                        ));
                    }
                    Some(StormAxis::new(deadline))
                }
            },
        })
    }

    fn to_json(&self, timings: bool) -> Json {
        let mut pairs = vec![
            ("id".into(), Json::str(&self.id)),
            ("policy".into(), Json::str(&self.policy)),
            ("scenario".into(), Self::scenario_json(&self.scenario)),
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

    fn from_json(value: &Json) -> Result<CellReport, String> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("cell missing field '{key}'"))
        };
        Ok(CellReport {
            id: field("id")?
                .as_str()
                .ok_or("cell 'id' must be a string")?
                .to_string(),
            policy: field("policy")?
                .as_str()
                .ok_or("cell 'policy' must be a string")?
                .to_string(),
            scenario: Self::scenario_from_json(field("scenario")?)?,
            metrics: CellMetrics::from_json(field("metrics")?)?,
            wall_clock_ms: value
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
            .map(CellReport::from_json)
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
            diffs.push(format!(
                "cell '{}' not present in baseline (regenerate BENCH_BASELINE.json?)",
                cell.id
            ));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::ClusterKind;

    fn sample_report() -> SweepReport {
        let scenario = Scenario::new(ClusterKind::Rack16, 3, 42).with_contention(2.0);
        let metrics = CellMetrics {
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
        };
        SweepReport {
            matrix: "unit".into(),
            cells: vec![CellReport {
                id: format!("{}/themis", scenario.id()),
                policy: "themis".into(),
                scenario,
                metrics,
                wall_clock_ms: 12.0,
            }],
            total_wall_clock_ms: 12.0,
        }
    }

    #[test]
    fn canonical_json_round_trips() {
        let report = sample_report();
        let text = report.to_canonical_string();
        let back = SweepReport::parse_str(&text).expect("canonical form parses");
        // Wall clock is not canonical, so compare everything else.
        assert_eq!(back.matrix, report.matrix);
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.cells[0].scenario, report.cells[0].scenario);
        assert_eq!(back.cells[0].metrics, report.cells[0].metrics);
        assert_eq!(back.to_canonical_string(), text);
        // Canonical form has no timing fields.
        assert!(!text.contains("wall_clock"));
        // The timing form does.
        assert!(report
            .to_json(true)
            .to_pretty_string()
            .contains("total_wall_clock_ms"));
    }

    #[test]
    fn hetero_cells_carry_speed_metadata_and_round_trip() {
        use crate::scenarios::GenMix;
        let mut report = sample_report();
        report.cells[0].scenario = report.cells[0]
            .scenario
            .clone()
            .with_gen_mix(GenMix::TwoGen);
        report.cells[0].id = format!("{}/themis", report.cells[0].scenario.id());
        let text = report.to_canonical_string();
        assert!(text.contains("\"gen_mix\": \"2gen\""));
        // Rack16 under TwoGen: machines 0/2 Volta (2.0), 1/3 Pascal (1.0).
        assert!(text.contains("\"speed_total\": 24"));
        assert!(text.contains("\"speed_min\": 1"));
        assert!(text.contains("\"speed_max\": 2"));
        let back = SweepReport::parse_str(&text).expect("hetero cell parses");
        assert_eq!(back.cells[0].scenario, report.cells[0].scenario);
        assert_eq!(back.to_canonical_string(), text, "canonical fixed point");
        // A baseline with an unknown mix fails loudly.
        let bad = text.replace("\"gen_mix\": \"2gen\"", "\"gen_mix\": \"9gen\"");
        assert!(SweepReport::parse_str(&bad)
            .expect_err("unknown mix rejected")
            .contains("generation mix"));
    }

    fn service_report() -> SweepReport {
        let mut report = sample_report();
        report.cells[0].scenario = report.cells[0]
            .scenario
            .clone()
            .with_service(ServiceAxis::new(ServiceShape::Diurnal, 1.5, 2000.0));
        report.cells[0].id = format!("{}/themis", report.cells[0].scenario.id());
        report.cells[0].metrics.service = Some(ServiceMetrics {
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
        report
    }

    #[test]
    fn service_cells_round_trip_and_gate_their_windowed_metrics() {
        let report = service_report();
        let text = report.to_canonical_string();
        assert!(text.contains("\"service_shape\": \"diurnal\""));
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

        // A malformed shape in a baseline fails loudly.
        let bad = text.replace(
            "\"service_shape\": \"diurnal\"",
            "\"service_shape\": \"wavy\"",
        );
        assert!(SweepReport::parse_str(&bad)
            .expect_err("unknown shape rejected")
            .contains("service shape"));
    }

    fn storm_report() -> SweepReport {
        let mut report = sample_report();
        report.cells[0].scenario = report.cells[0]
            .scenario
            .clone()
            .with_fault(
                FaultConfig::reliable()
                    .with_arbiter_service_time(Time::seconds(1.0))
                    .with_arbiter_batch(8),
            )
            .with_storm(StormAxis::new(2.0));
        report.cells[0].id = format!("{}/themis-dist", report.cells[0].scenario.id());
        report.cells[0].policy = "themis-dist".into();
        report.cells[0].metrics.control = Some(ControlMetrics {
            rounds: 20,
            completed_rounds: 15,
            missed_rho_reports: 9,
            missed_bids: 2,
            voided_wins: 0,
        });
        report
    }

    #[test]
    fn storm_cells_round_trip_and_gate_their_control_metrics() {
        let report = storm_report();
        let text = report.to_canonical_string();
        assert!(text.contains("\"fault_arbiter_service_minutes\""));
        assert!(text.contains("\"fault_arbiter_batch\": 8"));
        assert!(text.contains("\"storm_bid_deadline_minutes\": 2"));
        assert!(text.contains("\"missed_round_rate\": 0.25"));
        let back = SweepReport::parse_str(&text).expect("storm cell parses");
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

        // A cell without the knobs has none of the new scenario fields.
        let plain = sample_report().to_canonical_string();
        assert!(!plain.contains("fault_arbiter"));
        assert!(!plain.contains("storm_bid_deadline"));
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
            .replace("\"schema_version\": 6", "\"schema_version\": 99");
        let err = SweepReport::parse_str(&text).expect_err("must reject");
        assert!(err.contains("schema version"), "{err}");
    }
}
