//! Regeneration of every table and figure in the paper's evaluation (§8).
//!
//! Each `figN` function reproduces the data series behind the corresponding
//! figure and returns it as a [`Table`] (plain text, one row per data
//! point). The experiments run on the event-driven simulator with the
//! synthetic enterprise trace; absolute numbers therefore differ from the
//! paper's testbed, but the *shape* — which scheduler wins, by roughly what
//! factor, and where the crossovers fall — is what the assertions in
//! `tests/end_to_end.rs` check.
//!
//! Every simulation-backed figure is a *thin view* over the scenario
//! subsystem ([`crate::scenarios`]): a figure builds the [`Scenario`] list
//! for one axis of the paper's evaluation matrix and formats the resulting
//! [`SimReport`]s. The scenarios here are constructed to generate exactly
//! the traces and scheduler configurations the figures always used, so the
//! numbers are unchanged — the `sweep` binary runs the same cells through
//! the same code path, just many at a time.

use crate::policies::Policy;
use crate::scenarios::{ClusterKind, Scenario};
use themis_cluster::cluster::Cluster;
use themis_cluster::placement::Locality;
use themis_cluster::time::Time;
use themis_cluster::topology::ClusterSpec;
use themis_sim::engine::{Engine, SimConfig};
use themis_sim::metrics::SimReport;
use themis_workload::app::AppSpec;
use themis_workload::models::ModelArch;
use themis_workload::trace::{duration_cdf, two_app_micro_trace, TraceConfig, TraceGenerator};

/// A printable experiment result: a title, column headers and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment identifier (e.g. "fig5a").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// Looks up a cell by row index and header name.
    pub fn cell(&self, row: usize, header: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == header)?;
        self.rows.get(row).map(|r| r[col].as_str())
    }

    /// Parses a cell as `f64`.
    pub fn cell_f64(&self, row: usize, header: &str) -> Option<f64> {
        self.cell(row, header)?.parse().ok()
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        writeln!(f, "{}", self.headers.join("\t"))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join("\t"))?;
        }
        Ok(())
    }
}

/// How large the simulated experiments are. The defaults keep the full
/// `figures all` run to a few minutes; scale `apps` up for tighter
/// confidence at the cost of runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Number of apps in the simulated 256-GPU experiments.
    pub sim_apps: usize,
    /// Number of apps in the 50-GPU "testbed" macro-benchmarks.
    pub testbed_apps: usize,
    /// RNG seed shared by all experiments.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            sim_apps: 36,
            testbed_apps: 20,
            seed: 42,
        }
    }
}

impl Scale {
    /// A very small scale used by unit/integration tests.
    pub fn tiny() -> Self {
        Scale {
            sim_apps: 6,
            testbed_apps: 5,
            seed: 42,
        }
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// Runs one policy over an explicit trace on one cluster (used by the
/// figures whose trace is hand-built, e.g. Figure 8's micro-trace; the
/// generated-trace figures go through [`Scenario::run`] instead).
pub fn run_policy(
    policy: Policy,
    trace: Vec<AppSpec>,
    cluster_spec: &ClusterSpec,
    sim: SimConfig,
) -> SimReport {
    let cluster = Cluster::new(cluster_spec.clone());
    Engine::new(cluster, trace, policy.build_with(&sim), sim).run()
}

/// The base scenario of the 256-GPU simulated experiments (§8.2): the
/// scheduler seed follows the trace seed, as the original figure code did.
fn sim_256_scenario(scale: Scale) -> Scenario {
    Scenario::new(ClusterKind::Sim256, scale.sim_apps, scale.seed).with_scheduler_seed(scale.seed)
}

/// The base scenario of the 50-GPU testbed macro-benchmarks (§8.3): the
/// scheduler keeps its default seed (0), matching `Policy::themis_default`.
fn testbed_scenario(scale: Scale) -> Scenario {
    Scenario::new(ClusterKind::Testbed50, scale.testbed_apps, scale.seed)
}

// ---------------------------------------------------------------------------
// Figure 1 & 2: workload characterization
// ---------------------------------------------------------------------------

/// Figure 1: CDF of task (job) durations in the trace.
pub fn fig1(scale: Scale) -> Table {
    let trace = TraceGenerator::new(
        TraceConfig::default()
            .with_num_apps(scale.sim_apps.max(100))
            .with_seed(scale.seed),
    )
    .generate();
    let cdf = duration_cdf(&trace, 20);
    let mut table = Table::new(
        "fig1",
        "Distribution of task durations for ML training jobs",
        &["duration_minutes", "fraction_of_tasks"],
    );
    for (duration, fraction) in cdf {
        table.push_row(vec![fmt(duration), fmt(fraction)]);
    }
    table
}

/// Figure 2: effect of GPU placement on throughput for each model:
/// 4 GPUs on 1 server vs 4 GPUs across 2 servers (2×2).
pub fn fig2() -> Table {
    let mut table = Table::new(
        "fig2",
        "Throughput (images/sec) for 4 GPUs: 1 server vs 2x2 servers",
        &["model", "one_server", "two_servers", "slowdown"],
    );
    for model in ModelArch::FIGURE2 {
        let local = model.throughput(4, Locality::Machine);
        let spread = model.throughput(4, Locality::Rack);
        table.push_row(vec![
            model.name().to_string(),
            fmt(local),
            fmt(spread),
            fmt(local / spread),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 4: sensitivity to the fairness knob f and the lease time
// ---------------------------------------------------------------------------

fn fairness_stats(report: &SimReport) -> (f64, f64, f64) {
    let mut rhos = report.rhos();
    rhos.sort_by(|a, b| a.partial_cmp(b).expect("finite rho"));
    if rhos.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let min = rhos[0];
    let median = rhos[rhos.len() / 2];
    let max = rhos[rhos.len() - 1];
    (min, median, max)
}

/// The shared sweep behind Figures 4a and 4b: Themis on the 256-GPU cluster
/// with `f` ranging over `[0, 1]`.
pub fn fairness_knob_sweep(scale: Scale) -> Vec<(f64, SimReport)> {
    [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        .into_iter()
        .map(|f| {
            let scenario = sim_256_scenario(scale).with_fairness_knob(f);
            (f, scenario.run(Policy::themis_default()))
        })
        .collect()
}

/// Figure 4a: finish-time fairness (min / median / max) vs the fairness
/// knob f.
pub fn fig4a(scale: Scale) -> Table {
    let mut table = Table::new(
        "fig4a",
        "Finish-time fairness vs fairness knob f",
        &["f", "min_rho", "median_rho", "max_rho"],
    );
    for (f, report) in fairness_knob_sweep(scale) {
        let (min, median, max) = fairness_stats(&report);
        table.push_row(vec![fmt(f), fmt(min), fmt(median), fmt(max)]);
    }
    table
}

/// Figure 4b: total GPU time vs the fairness knob f.
pub fn fig4b(scale: Scale) -> Table {
    let mut table = Table::new(
        "fig4b",
        "GPU time (minutes) vs fairness knob f",
        &["f", "gpu_time_minutes"],
    );
    for (f, report) in fairness_knob_sweep(scale) {
        table.push_row(vec![fmt(f), fmt(report.total_gpu_time.as_minutes())]);
    }
    table
}

/// Figure 4c: maximum finish-time fairness vs the lease duration.
pub fn fig4c(scale: Scale) -> Table {
    let mut table = Table::new(
        "fig4c",
        "Finish-time fairness vs lease time",
        &["lease_minutes", "max_rho"],
    );
    for lease in [5.0, 10.0, 20.0, 30.0, 40.0] {
        let scenario = sim_256_scenario(scale).with_lease_minutes(lease);
        let report = scenario.run(Policy::themis_default());
        let max = report.max_fairness().unwrap_or(0.0);
        table.push_row(vec![fmt(lease), fmt(max)]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 5–7: macro-benchmarks against Gandiva / SLAQ / Tiresias
// ---------------------------------------------------------------------------

/// Runs the 50-GPU macro-benchmark (durations scaled by 1/5, §8.3) for every
/// policy in the comparison set.
pub fn macrobenchmark(scale: Scale) -> Vec<(Policy, SimReport)> {
    let scenario = testbed_scenario(scale);
    let trace = scenario.trace();
    Policy::macrobenchmark_set()
        .into_iter()
        .map(|policy| {
            let report = scenario.run_on_trace(policy, trace.clone());
            (policy, report)
        })
        .collect()
}

/// Figure 5a: maximum finish-time fairness across schedulers.
pub fn fig5a(scale: Scale) -> Table {
    let mut table = Table::new(
        "fig5a",
        "Max finish-time fairness across schedulers (lower is better)",
        &["scheduler", "max_rho", "peak_contention"],
    );
    for (policy, report) in macrobenchmark(scale) {
        table.push_row(vec![
            policy.name().to_string(),
            fmt(report.max_fairness().unwrap_or(f64::NAN)),
            fmt(report.peak_contention),
        ]);
    }
    table
}

/// Figure 5b: Jain's fairness index across schedulers.
pub fn fig5b(scale: Scale) -> Table {
    let mut table = Table::new(
        "fig5b",
        "Jain's fairness index across schedulers (closer to 1 is better)",
        &["scheduler", "jains_index"],
    );
    for (policy, report) in macrobenchmark(scale) {
        table.push_row(vec![
            policy.name().to_string(),
            fmt(report.jains_index().unwrap_or(f64::NAN)),
        ]);
    }
    table
}

/// Figure 6: app completion times across schedulers (mean and percentiles
/// of the CDF).
pub fn fig6(scale: Scale) -> Table {
    let mut table = Table::new(
        "fig6",
        "App completion times across schedulers (minutes)",
        &["scheduler", "mean", "p50", "p90", "max"],
    );
    for (policy, report) in macrobenchmark(scale) {
        let cdf = report.completion_time_cdf();
        let pick = |q: f64| -> f64 {
            if cdf.is_empty() {
                return f64::NAN;
            }
            let idx = ((cdf.len() as f64 * q).ceil() as usize).clamp(1, cdf.len()) - 1;
            cdf[idx].0
        };
        table.push_row(vec![
            policy.name().to_string(),
            fmt(report
                .mean_completion_time()
                .map(|t| t.as_minutes())
                .unwrap_or(f64::NAN)),
            fmt(pick(0.5)),
            fmt(pick(0.9)),
            fmt(pick(1.0)),
        ]);
    }
    table
}

/// Figure 7: CDF of placement scores across schedulers (mean and p10).
pub fn fig7(scale: Scale) -> Table {
    let mut table = Table::new(
        "fig7",
        "Placement score across schedulers (1.0 = tightly packed)",
        &["scheduler", "mean_score", "p10_score"],
    );
    for (policy, report) in macrobenchmark(scale) {
        let cdf = report.placement_score_cdf();
        let p10 = if cdf.is_empty() {
            f64::NAN
        } else {
            cdf[((cdf.len() as f64 * 0.1).floor() as usize).min(cdf.len() - 1)].0
        };
        table.push_row(vec![
            policy.name().to_string(),
            fmt(report.mean_placement_score().unwrap_or(f64::NAN)),
            fmt(p10),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 8: allocation timeline for a short and a long app
// ---------------------------------------------------------------------------

/// Figure 8: GPU allocation timeline of two apps (3× running-time ratio)
/// under Themis on a 4-GPU cluster.
pub fn fig8() -> Table {
    let cluster = ClusterSpec::homogeneous(1, 1, 4);
    let report = run_policy(
        Policy::themis_default(),
        two_app_micro_trace(),
        &cluster,
        SimConfig::default()
            .with_lease(Time::minutes(20.0))
            .with_checkpoint_overhead(Time::ZERO),
    );
    let mut table = Table::new(
        "fig8",
        "Timeline of GPU allocations (short vs long app)",
        &["app", "time_minutes", "gpus"],
    );
    for outcome in &report.apps {
        let label = if outcome.app.0 == 0 { "short" } else { "long" };
        for (time, gpus) in &outcome.gpu_timeline {
            table.push_row(vec![
                label.to_string(),
                fmt(time.as_minutes()),
                gpus.to_string(),
            ]);
        }
        if let Some(finish) = outcome.finished_at {
            table.push_row(vec![
                label.to_string(),
                fmt(finish.as_minutes()),
                "0".to_string(),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 9: sensitivity to the fraction of network-intensive apps
// ---------------------------------------------------------------------------

/// The sweep behind Figures 9a and 9b: vary the fraction of
/// network-intensive apps and run each policy on a 50-GPU cluster.
pub fn network_intensity_sweep(scale: Scale, policies: &[Policy]) -> Vec<(f64, Policy, SimReport)> {
    let mut out = Vec::new();
    for pct in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let scenario = testbed_scenario(scale).with_network_fraction(pct);
        let trace = scenario.trace();
        for policy in policies {
            out.push((pct, *policy, scenario.run_on_trace(*policy, trace.clone())));
        }
    }
    out
}

/// Figure 9a: factor of improvement in max fairness of Themis over Tiresias
/// as the fraction of network-intensive apps grows.
pub fn fig9a(scale: Scale) -> Table {
    let runs = network_intensity_sweep(scale, &[Policy::themis_default(), Policy::Tiresias]);
    let mut table = Table::new(
        "fig9a",
        "Max-fairness improvement of Themis over Tiresias vs % network-intensive apps",
        &[
            "pct_network_intensive",
            "themis_max_rho",
            "tiresias_max_rho",
            "improvement_factor",
        ],
    );
    for pct in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let find = |name: &str| {
            runs.iter()
                .find(|(p, policy, _)| *p == pct && policy.name() == name)
                .and_then(|(_, _, r)| r.max_fairness())
                .unwrap_or(f64::NAN)
        };
        let themis = find("themis");
        let tiresias = find("tiresias");
        table.push_row(vec![
            fmt(pct * 100.0),
            fmt(themis),
            fmt(tiresias),
            fmt(tiresias / themis),
        ]);
    }
    table
}

/// Figure 9b: total GPU time per scheduler as the fraction of
/// network-intensive apps grows.
pub fn fig9b(scale: Scale) -> Table {
    let policies = Policy::macrobenchmark_set();
    let runs = network_intensity_sweep(scale, &policies);
    let mut table = Table::new(
        "fig9b",
        "GPU time (minutes) vs % network-intensive apps",
        &[
            "pct_network_intensive",
            "themis",
            "gandiva",
            "slaq",
            "tiresias",
        ],
    );
    for pct in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let find = |name: &str| {
            runs.iter()
                .find(|(p, policy, _)| *p == pct && policy.name() == name)
                .map(|(_, _, r)| r.total_gpu_time.as_minutes())
                .unwrap_or(f64::NAN)
        };
        table.push_row(vec![
            fmt(pct * 100.0),
            fmt(find("themis")),
            fmt(find("gandiva")),
            fmt(find("slaq")),
            fmt(find("tiresias")),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 10: sensitivity to cluster contention
// ---------------------------------------------------------------------------

/// Figure 10: Jain's fairness index of Themis vs Tiresias as contention
/// grows (1×, 2×, 4× of the baseline arrival rate).
pub fn fig10(scale: Scale) -> Table {
    let mut table = Table::new(
        "fig10",
        "Jain's index vs contention factor",
        &["contention", "themis_jain", "tiresias_jain"],
    );
    for factor in [1.0, 2.0, 4.0] {
        let scenario = testbed_scenario(scale).with_contention(factor);
        let trace = scenario.trace();
        let themis = scenario.run_on_trace(Policy::themis_default(), trace.clone());
        let tiresias = scenario.run_on_trace(Policy::Tiresias, trace);
        table.push_row(vec![
            format!("{factor}x"),
            fmt(themis.jains_index().unwrap_or(f64::NAN)),
            fmt(tiresias.jains_index().unwrap_or(f64::NAN)),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 11: robustness to errors in bid valuations
// ---------------------------------------------------------------------------

/// Figure 11: max finish-time fairness as the relative error θ injected into
/// bid valuations grows.
pub fn fig11(scale: Scale) -> Table {
    let mut table = Table::new(
        "fig11",
        "Max finish-time fairness vs % error in bid valuations",
        &["pct_error", "max_rho"],
    );
    for theta in [0.0, 0.05, 0.10, 0.20] {
        let scenario = testbed_scenario(scale)
            .with_rho_error(theta)
            .with_scheduler_seed(scale.seed);
        let report = scenario.run(Policy::themis_default());
        table.push_row(vec![
            fmt(theta * 100.0),
            fmt(report.max_fairness().unwrap_or(f64::NAN)),
        ]);
    }
    table
}

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 14] = [
    "fig1", "fig2", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9a",
    "fig9b", "fig10", "fig11",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Table> {
    match id {
        "fig1" => Some(fig1(scale)),
        "fig2" => Some(fig2()),
        "fig4a" => Some(fig4a(scale)),
        "fig4b" => Some(fig4b(scale)),
        "fig4c" => Some(fig4c(scale)),
        "fig5a" => Some(fig5a(scale)),
        "fig5b" => Some(fig5b(scale)),
        "fig6" => Some(fig6(scale)),
        "fig7" => Some(fig7(scale)),
        "fig8" => Some(fig8()),
        "fig9a" => Some(fig9a(scale)),
        "fig9b" => Some(fig9b(scale)),
        "fig10" => Some(fig10(scale)),
        "fig11" => Some(fig11(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_is_a_cdf() {
        let table = fig1(Scale::tiny());
        assert_eq!(table.headers.len(), 2);
        assert!(!table.rows.is_empty());
        let last = table
            .cell_f64(table.rows.len() - 1, "fraction_of_tasks")
            .unwrap();
        assert!((last - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig2_shows_vgg_slowdown_and_resnet_insensitivity() {
        let table = fig2();
        assert_eq!(table.rows.len(), 5);
        let vgg_slowdown = table.cell_f64(0, "slowdown").unwrap();
        let resnet_slowdown = table.cell_f64(4, "slowdown").unwrap();
        assert!(vgg_slowdown > 1.5);
        assert!(resnet_slowdown < 1.1);
    }

    #[test]
    fn fig8_produces_timelines_for_both_apps() {
        let table = fig8();
        let apps: std::collections::BTreeSet<&str> =
            table.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(apps.contains("short") && apps.contains("long"));
    }

    #[test]
    fn unknown_experiment_returns_none() {
        assert!(run_experiment("fig99", Scale::tiny()).is_none());
        assert_eq!(ALL_EXPERIMENTS.len(), 14);
    }

    #[test]
    fn table_cell_accessors() {
        let mut t = Table::new("x", "t", &["a", "b"]);
        t.push_row(vec!["1.5".into(), "hello".into()]);
        assert_eq!(t.cell_f64(0, "a"), Some(1.5));
        assert_eq!(t.cell(0, "b"), Some("hello"));
        assert_eq!(t.cell(1, "a"), None);
        assert_eq!(t.cell(0, "z"), None);
        assert!(t.to_string().contains("hello"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("x", "t", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
