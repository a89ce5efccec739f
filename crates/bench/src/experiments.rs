//! Regeneration of every table and figure in the paper's evaluation (§8).
//!
//! Each experiment id (`fig1` … `fig11`) names one [`Table`] of the data
//! series behind that figure, one row per data point. The experiments run
//! on the event-driven simulator with the synthetic enterprise trace;
//! absolute numbers therefore differ from the paper's testbed, but the
//! *shape* — which scheduler wins, by roughly what factor, and where the
//! crossovers fall — is what the assertions in `tests/end_to_end.rs` check.
//!
//! A simulated figure is a declaration, not a loop: each of its rows names
//! the `(Scenario, Policy)` cells it reads, and one projection turns a
//! row's reports into its columns. [`run_experiments`] collects the
//! distinct cells of every requested figure, keyed `"<scenario id>/<policy>"`
//! like a sweep cell, simulates each once through
//! [`themis_sim::batch::run_batch`], and renders every table from the
//! shared reports: Figures 4a and 4b read the same six runs, Figures 5a–7
//! the same four. `fig1`, `fig2` and `fig8` are not scenario cells and stay
//! plain functions.

use crate::policies::Policy;
use crate::scenarios::{ClusterKind, Scenario};
use std::collections::{BTreeMap, BTreeSet};
use themis_cluster::cluster::Cluster;
use themis_cluster::placement::Locality;
use themis_cluster::time::Time;
use themis_cluster::topology::ClusterSpec;
use themis_sim::batch::run_batch;
use themis_sim::engine::{Engine, SimConfig};
use themis_sim::metrics::SimReport;
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
/// `figures all` run to under a minute; scale `apps` up for tighter
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

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 14] = [
    "fig1", "fig2", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9a",
    "fig9b", "fig10", "fig11",
];

fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a metric that is absent when no app finished as `NaN`: an
/// empty run is not a perfectly fair one.
fn fmt_or_nan(v: Option<f64>) -> String {
    fmt(v.unwrap_or(f64::NAN))
}

fn percent(v: f64) -> String {
    fmt(v * 100.0)
}

/// Figure 1: CDF of task (job) durations in the trace.
pub fn fig1(scale: Scale) -> Table {
    let trace = TraceGenerator::new(
        TraceConfig::default()
            .with_num_apps(scale.sim_apps.max(100))
            .with_seed(scale.seed),
    )
    .generate();
    let mut table = Table::new(
        "fig1",
        "Distribution of task durations for ML training jobs",
        &["duration_minutes", "fraction_of_tasks"],
    );
    for (duration, fraction) in duration_cdf(&trace, 20) {
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

/// Figure 8: GPU allocation timeline of two apps (3× running-time ratio)
/// under Themis on a 4-GPU cluster, over the hand-built micro-trace.
pub fn fig8() -> Table {
    let sim = SimConfig::default()
        .with_lease(Time::minutes(20.0))
        .with_checkpoint_overhead(Time::ZERO);
    let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
    let scheduler = Policy::themis_default().build_with(&sim);
    let report = Engine::new(cluster, two_app_micro_trace(), scheduler, sim).run();
    let mut table = Table::new(
        "fig8",
        "Timeline of GPU allocations (short vs long app)",
        &["app", "time_minutes", "gpus"],
    );
    for outcome in &report.apps {
        let label = if outcome.app.0 == 0 { "short" } else { "long" };
        let finish = outcome.finished_at.map(|at| (at, 0));
        for (time, gpus) in outcome.gpu_timeline.iter().copied().chain(finish) {
            table.push_row(vec![
                label.to_string(),
                fmt(time.as_minutes()),
                gpus.to_string(),
            ]);
        }
    }
    table
}

/// A simulated figure: its rows, the policies a row reads, and the
/// projection from a row's reports (in policy order) to its columns after
/// the first.
struct Figure {
    title: &'static str,
    /// The column headers, space-separated.
    headers: &'static str,
    /// `None`: one row per policy on the testbed, labelled by name.
    axis: Option<Axis>,
    policies: fn() -> Vec<Policy>,
    project: fn(&[&SimReport]) -> Vec<String>,
}

/// A row axis: the scenario of each value at a scale, the values, and how
/// a value prints in the first column.
type Axis = (
    fn(Scale, f64) -> Scenario,
    &'static [f64],
    fn(f64) -> String,
);

const KNOB: Axis = (
    |s, f| sim_256(s).with_fairness_knob(f),
    &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    fmt,
);
const NETWORK: Axis = (
    |s, n| testbed(s).with_network_fraction(n),
    &[0.0, 0.25, 0.5, 0.75, 1.0],
    percent,
);

impl Figure {
    /// Each row's first column, its scenario, and the policies it reads.
    fn rows(&self, scale: Scale) -> Vec<(String, Scenario, Vec<Policy>)> {
        match self.axis {
            Some((scenario, values, label)) => values
                .iter()
                .map(|&v| (label(v), scenario(scale, v), (self.policies)()))
                .collect(),
            None => (self.policies)()
                .into_iter()
                .map(|p| (p.name().to_string(), testbed(scale), vec![p]))
                .collect(),
        }
    }
}

/// The 256-GPU simulated cluster of §8.2; the scheduler seed follows the
/// trace seed.
fn sim_256(scale: Scale) -> Scenario {
    Scenario::new(ClusterKind::Sim256, scale.sim_apps, scale.seed).with_scheduler_seed(scale.seed)
}

/// The 50-GPU testbed of §8.3; the scheduler keeps its default seed (0).
fn testbed(scale: Scale) -> Scenario {
    Scenario::new(ClusterKind::Testbed50, scale.testbed_apps, scale.seed)
}

fn themis() -> Vec<Policy> {
    vec![Policy::themis_default()]
}

fn themis_and_tiresias() -> Vec<Policy> {
    vec![Policy::themis_default(), Policy::Tiresias]
}

/// Min, median and max ρ over the finished apps; all NaN when none did.
fn fairness_stats(report: &SimReport) -> [f64; 3] {
    let mut rhos = report.rhos();
    rhos.sort_by(f64::total_cmp);
    match rhos.len() {
        0 => [f64::NAN; 3],
        n => [rhos[0], rhos[n / 2], rhos[n - 1]],
    }
}

/// The simulated figure behind `id`, if it is one.
fn figure(id: &str) -> Option<Figure> {
    Some(match id {
        "fig4a" => Figure {
            title: "Finish-time fairness vs fairness knob f",
            headers: "f min_rho median_rho max_rho",
            axis: Some(KNOB),
            policies: themis,
            project: |r| fairness_stats(r[0]).map(fmt).to_vec(),
        },
        "fig4b" => Figure {
            title: "GPU time (minutes) vs fairness knob f",
            headers: "f gpu_time_minutes",
            axis: Some(KNOB),
            policies: themis,
            project: |r| vec![fmt(r[0].total_gpu_time.as_minutes())],
        },
        "fig4c" => Figure {
            title: "Finish-time fairness vs lease time",
            headers: "lease_minutes max_rho",
            axis: Some((
                |s, lease| sim_256(s).with_lease_minutes(lease),
                &[5.0, 10.0, 20.0, 30.0, 40.0],
                fmt,
            )),
            policies: themis,
            project: |r| vec![fmt_or_nan(r[0].max_fairness())],
        },
        "fig5a" => Figure {
            title: "Max finish-time fairness across schedulers (lower is better)",
            headers: "scheduler max_rho peak_contention",
            axis: None,
            policies: Policy::macrobenchmark_set,
            project: |r| vec![fmt_or_nan(r[0].max_fairness()), fmt(r[0].peak_contention)],
        },
        "fig5b" => Figure {
            title: "Jain's fairness index across schedulers (closer to 1 is better)",
            headers: "scheduler jains_index",
            axis: None,
            policies: Policy::macrobenchmark_set,
            project: |r| vec![fmt_or_nan(r[0].jains_index())],
        },
        "fig6" => Figure {
            title: "App completion times across schedulers (minutes)",
            headers: "scheduler mean p50 p90 max",
            axis: None,
            policies: Policy::macrobenchmark_set,
            project: |r| {
                let cdf = r[0].completion_time_cdf();
                let at = |q: f64| cdf.get((cdf.len() as f64 * q).ceil().max(1.0) as usize - 1);
                let quantile = |q| fmt_or_nan(at(q).map(|c| c.0));
                let mean = r[0].mean_completion_time().map(|t| t.as_minutes());
                vec![
                    fmt_or_nan(mean),
                    quantile(0.5),
                    quantile(0.9),
                    quantile(1.0),
                ]
            },
        },
        "fig7" => Figure {
            title: "Placement score across schedulers (1.0 = tightly packed)",
            headers: "scheduler mean_score p10_score",
            axis: None,
            policies: Policy::macrobenchmark_set,
            project: |r| {
                let cdf = r[0].placement_score_cdf();
                let p10 = cdf.get((cdf.len() as f64 * 0.1) as usize).map(|c| c.0);
                vec![fmt_or_nan(r[0].mean_placement_score()), fmt_or_nan(p10)]
            },
        },
        "fig9a" => Figure {
            title: "Max-fairness improvement of Themis over Tiresias vs % network-intensive apps",
            headers: "pct_network_intensive themis_max_rho tiresias_max_rho improvement_factor",
            axis: Some(NETWORK),
            policies: themis_and_tiresias,
            project: |r| {
                let [themis, tiresias] = [r[0], r[1]].map(|r| r.max_fairness().unwrap_or(f64::NAN));
                vec![fmt(themis), fmt(tiresias), fmt(tiresias / themis)]
            },
        },
        "fig9b" => Figure {
            title: "GPU time (minutes) vs % network-intensive apps",
            headers: "pct_network_intensive themis gandiva slaq tiresias",
            axis: Some(NETWORK),
            policies: Policy::macrobenchmark_set,
            project: |r| {
                r.iter()
                    .map(|r| fmt(r.total_gpu_time.as_minutes()))
                    .collect()
            },
        },
        "fig10" => Figure {
            title: "Jain's index vs contention factor",
            headers: "contention themis_jain tiresias_jain",
            axis: Some((
                |s, x| testbed(s).with_contention(x),
                &[1.0, 2.0, 4.0],
                |x| format!("{x}x"),
            )),
            policies: themis_and_tiresias,
            project: |r| r.iter().map(|r| fmt_or_nan(r.jains_index())).collect(),
        },
        "fig11" => Figure {
            title: "Max finish-time fairness vs % error in bid valuations",
            headers: "pct_error max_rho",
            axis: Some((
                |s, e| testbed(s).with_rho_error(e).with_scheduler_seed(s.seed),
                &[0.0, 0.05, 0.10, 0.20],
                percent,
            )),
            policies: themis,
            project: |r| vec![fmt_or_nan(r[0].max_fairness())],
        },
        _ => return None,
    })
}

fn cell_key(scenario: &Scenario, policy: Policy) -> String {
    format!("{}/{}", scenario.id(), policy.name())
}

/// The distinct `(scenario, policy)` cells the experiments `ids` read, in
/// first-use order: what [`run_experiments`] simulates, once each.
pub fn cells(ids: &[&str], scale: Scale) -> Vec<(Scenario, Policy)> {
    let mut seen = BTreeSet::new();
    ids.iter()
        .filter_map(|id| figure(id))
        .flat_map(|figure| figure.rows(scale))
        .flat_map(|(_, scenario, policies)| {
            policies.into_iter().map(move |p| (scenario.clone(), p))
        })
        .filter(|(scenario, policy)| seen.insert(cell_key(scenario, *policy)))
        .collect()
}

/// Runs the experiments `ids` (each one of [`ALL_EXPERIMENTS`]; `None` if
/// any is not) and returns their tables in order. Every distinct cell is
/// simulated once, `jobs` at a time; the tables do not depend on `jobs`.
pub fn run_experiments(ids: &[&str], scale: Scale, jobs: usize) -> Option<Vec<Table>> {
    render(ids, scale, |cells| {
        run_batch(cells.len(), jobs, |i| cells[i].0.run(cells[i].1))
    })
}

/// Runs one experiment by id.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Table> {
    run_experiments(&[id], scale, 1).map(|mut tables| tables.remove(0))
}

/// Renders the tables of `ids` from the reports `simulate` returns for
/// [`cells`] (one per cell, in order).
fn render(
    ids: &[&str],
    scale: Scale,
    simulate: impl FnOnce(&[(Scenario, Policy)]) -> Vec<SimReport>,
) -> Option<Vec<Table>> {
    if !ids.iter().all(|id| ALL_EXPERIMENTS.contains(id)) {
        return None;
    }
    let cells = cells(ids, scale);
    let keys = cells.iter().map(|(s, p)| cell_key(s, *p));
    let reports: BTreeMap<String, SimReport> = keys.zip(simulate(&cells)).collect();
    let table = |&id: &&str| match id {
        "fig1" => fig1(scale),
        "fig2" => fig2(),
        "fig8" => fig8(),
        _ => {
            let figure = figure(id).expect("every other id is a simulated figure");
            let headers: Vec<&str> = figure.headers.split(' ').collect();
            let mut table = Table::new(id, figure.title, &headers);
            for (label, scenario, policies) in figure.rows(scale) {
                let read: Vec<&SimReport> = policies
                    .iter()
                    .map(|p| &reports[&cell_key(&scenario, *p)])
                    .collect();
                table.push_row([vec![label], (figure.project)(&read)].concat());
            }
            table
        }
    };
    Some(ids.iter().map(table).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let apps: BTreeSet<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(apps.contains("short") && apps.contains("long"));
    }

    #[test]
    fn unknown_experiment_returns_none() {
        assert!(run_experiment("fig99", Scale::tiny()).is_none());
        assert!(run_experiments(&["fig2", "fig99"], Scale::tiny(), 1).is_none());
        assert_eq!(ALL_EXPERIMENTS.len(), 14);
    }

    #[test]
    fn figures_share_cells_and_simulate_each_once() {
        // `figures all`: 42 distinct cells, where one loop per figure ran
        // 73, plus fig8's own engine run.
        assert_eq!(cells(&ALL_EXPERIMENTS, Scale::default()).len(), 42);
        let ids = ["fig4a", "fig4b"];
        let mut rendered = Vec::new();
        for jobs in [1, 3] {
            let runs = AtomicUsize::new(0);
            let tables = render(&ids, Scale::tiny(), |cells| {
                run_batch(cells.len(), jobs, |i| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    cells[i].0.run(cells[i].1)
                })
            });
            assert_eq!(runs.into_inner(), 6, "fig4a + fig4b read six cells");
            let text: String = tables.unwrap().iter().map(Table::to_string).collect();
            rendered.push(text);
        }
        // 1 and 3 workers print the same bytes.
        assert_eq!(rendered[0], rendered[1]);
    }

    #[test]
    fn an_empty_run_prints_nan_not_a_perfect_rho() {
        let empty = Scenario::new(ClusterKind::Rack16, 0, 42).run(Policy::Tiresias);
        assert_eq!(empty.finished_apps(), 0);
        let simulated = ALL_EXPERIMENTS.map(|id| figure(id).map(|_| id));
        let simulated: Vec<&str> = simulated.into_iter().flatten().collect();
        let tables = render(&simulated, Scale::tiny(), |cells| vec![empty; cells.len()]);
        for table in tables.unwrap() {
            for (col, header) in table.headers.iter().enumerate() {
                if header.contains("rho") || header.contains("jain") {
                    assert!(table.rows.iter().all(|row| row[col] == "NaN"), "{table}");
                }
            }
        }
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
