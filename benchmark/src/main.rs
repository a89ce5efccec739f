//! `themis-benchmark`: the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! themis-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! themis-benchmark --check
//! ```
//!
//! One process, one thread. A run does an untimed warm-up repetition, N
//! timed repetitions of every cell (N fixed by the workload and
//! `--seconds`, never a clock-driven loop), K set-up passes, and prints one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;
use themis_bench::json::Json;
use themis_bench::policies::Policy;
use themis_bench::report::{CellMetrics, CellReport, SweepReport};
use themis_protocol::log::MessageLog;
use themis_sim::metrics::SimReport;
use trace::Tracer;
use workloads::{Cell, CellRun, Outcome, RunContext, SetupSample, Sizing, Work, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The end-to-end list starts with this many host metrics.
const HOST_METRICS: usize = 6;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // A layer that did not run on this workload divides by zero; report 0.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit }
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The five simulated metrics over a set of reports.
fn simulated_metrics(
    reports: &[&SimReport],
    retired_of_admitted: Option<(u64, u64)>,
) -> Vec<Metric> {
    let n = reports.len().max(1) as f64;
    let max_rho = reports
        .iter()
        .filter_map(|r| r.max_fairness())
        .fold(0.0, f64::max);
    let jain = reports.iter().filter_map(|r| r.jains_index()).sum::<f64>() / n;
    let gpu_hours: f64 = reports.iter().map(|r| r.total_gpu_time.as_hours()).sum();
    let jct = reports
        .iter()
        .filter_map(|r| r.mean_completion_time())
        .map(|t| t.as_minutes())
        .sum::<f64>()
        / n;
    let (finished, total) = retired_of_admitted.unwrap_or_else(|| {
        reports.iter().fold((0, 0), |(f, t), r| {
            (f + r.finished_apps() as u64, t + r.apps.len() as u64)
        })
    });
    vec![
        metric("max_rho", max_rho, "ratio"),
        metric("jain_index", jain, "ratio"),
        metric("gpu_hours", gpu_hours, "gpu_h"),
        metric("avg_jct_min", jct, "min"),
        metric(
            "finished_share",
            stats::ratio(finished as f64, total as f64),
            "ratio",
        ),
    ]
}

/// The canonical sweep report of the repetition's simulation cells, timed
/// through `to_canonical_string` and `parse_str`.
fn report_round_trip(cells: &[Cell], runs: &[CellRun]) -> (f64, f64, f64) {
    let reports: Vec<CellReport> = cells
        .iter()
        .zip(runs)
        .filter_map(|(cell, run)| {
            let (scenario, policy, metrics) = match (&cell.work, &run.outcome) {
                (
                    Work::Engine {
                        scenario, policy, ..
                    },
                    Outcome::Sim(sim),
                ) => (scenario, *policy, CellMetrics::from_report(sim)),
                (Work::Service { scenario, .. }, Outcome::Service(service)) => (
                    scenario,
                    Policy::themis_default(),
                    CellMetrics::from_service_report(service),
                ),
                _ => return None,
            };
            Some(CellReport {
                id: cell.label(),
                policy: policy.name().to_string(),
                scenario: scenario.clone(),
                metrics,
                wall_clock_ms: run.wall_ns as f64 / 1e6,
            })
        })
        .collect();
    let report = SweepReport {
        matrix: "benchmark".to_string(),
        cells: reports,
        total_wall_clock_ms: 0.0,
    };
    let t0 = Instant::now();
    let text = report.to_canonical_string();
    let t1 = Instant::now();
    let parsed = SweepReport::parse_str(&text);
    let t2 = Instant::now();
    assert!(parsed.is_ok(), "canonical report must parse back");
    (
        (t1 - t0).as_nanos() as f64 / 1e3,
        (t2 - t1).as_nanos() as f64 / 1e3,
        text.len() as f64,
    )
}

/// Message-log costs of the pinned distributed cells: one recorded and one
/// plain run of each scenario, then `to_text` and `parse` of the logs.
#[derive(Default)]
struct LogCosts {
    records: u64,
    to_text_us: f64,
    parse_us: f64,
    record_overhead_ratio: f64,
}

fn log_costs(cells: &[Cell]) -> LogCosts {
    let mut costs = LogCosts::default();
    let (mut plain_ns, mut recorded_ns) = (0u128, 0u128);
    for cell in cells {
        let Work::Engine {
            scenario, policy, ..
        } = &cell.work
        else {
            continue;
        };
        // A seeded cell's scenario would regenerate its trace uncut.
        if cell.seeded || !policy.is_distributed() {
            continue;
        }
        let t0 = Instant::now();
        std::hint::black_box(scenario.run(*policy));
        let t1 = Instant::now();
        let (_, log) = scenario.run_recorded(*policy);
        let t2 = Instant::now();
        let text = log.to_text();
        let t3 = Instant::now();
        let parsed = MessageLog::parse(&text);
        let t4 = Instant::now();
        assert!(parsed.is_ok(), "a recorded message log must parse back");
        plain_ns += (t1 - t0).as_nanos();
        recorded_ns += (t2 - t1).as_nanos();
        costs.records += log.len() as u64;
        costs.to_text_us += (t3 - t2).as_nanos() as f64 / 1e3;
        costs.parse_us += (t4 - t3).as_nanos() as f64 / 1e3;
    }
    costs.record_overhead_ratio = stats::ratio(recorded_ns as f64, plain_ns as f64);
    costs
}

/// Runs every cell once, in order.
fn repetition(cells: &[Cell], ctx: &RunContext<'_>) -> Vec<CellRun> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            ctx.tracer.set_cell(i);
            cell.run(ctx)
        })
        .collect()
}

fn run_workload(
    workload: Workload,
    seed: u64,
    sizing: &Sizing,
    reps: usize,
    traced: bool,
) -> RunResult {
    let off = Tracer::new(false);
    let tracer = Tracer::new(traced);
    let cells = workloads::cells(workload, seed, sizing);
    let references = workloads::reference_reports(workload, &cells);

    // Warm-up: plain wrapper, no spans, no shadow rounds. Its outcomes are
    // the reference every later repetition must reproduce.
    let plain = RunContext {
        tracer: &off,
        shadow_every: None,
    };
    let warm = repetition(&cells, &plain);

    // A traced run times one more plain repetition, so the tracing overhead
    // is not taken against the cold warm-up.
    let untraced_wall_ns: u64 = if traced {
        let again = repetition(&cells, &plain);
        warm.iter()
            .zip(&again)
            .map(|(a, b)| a.wall_ns.min(b.wall_ns))
            .sum()
    } else {
        0
    };

    let timed_ctx = RunContext {
        tracer: &tracer,
        shadow_every: traced.then_some(sizing.shadow_every),
    };
    let reps = if traced { 1 } else { reps.max(1) };
    // `best[i]` is the cell's first timed run with every segment replaced by
    // that segment's fastest time over all repetitions: interference only
    // adds time, and it comes in bursts far shorter than a repetition.
    let mut walls: Vec<Vec<u64>> = vec![Vec::with_capacity(reps); cells.len()];
    let mut best: Vec<CellRun> = Vec::with_capacity(cells.len());
    let mut deterministic = true;
    let mut steady_allocs = true;
    for rep in 0..reps {
        for (i, run) in repetition(&cells, &timed_ctx).into_iter().enumerate() {
            deterministic &= run.outcome == warm[i].outcome;
            walls[i].push(run.wall_ns);
            if rep == 0 {
                best.push(run);
                continue;
            }
            let kept = &mut best[i];
            steady_allocs &= kept.allocs == run.allocs;
            if kept.segments.len() == run.segments.len() {
                for (fastest, ns) in kept.segments.iter_mut().zip(&run.segments) {
                    *fastest = (*fastest).min(*ns);
                }
            } else {
                deterministic = false;
            }
        }
    }
    for run in &mut best {
        run.wall_ns = run.segments.iter().sum();
    }

    // Set-up passes, after the timed work so the process is warm.
    let mut passes: Vec<SetupSample> = Vec::with_capacity(sizing.setup_passes);
    for _ in 0..sizing.setup_passes.max(1) {
        let mut pass = SetupSample::default();
        for cell in &cells {
            let s = cell.setup();
            pass.total_ns += s.total_ns;
            pass.cluster_ns += s.cluster_ns;
            pass.trace_ns += s.trace_ns;
            pass.engine_ns += s.engine_ns;
            pass.gpus += s.gpus;
            pass.apps += s.apps;
            pass.jobs += s.jobs;
        }
        passes.push(pass);
    }
    let pass_ns: Vec<u64> = passes.iter().map(|p| p.total_ns).collect();
    let setup = stats::spread(&pass_ns);
    let fastest_pass = passes[stats::argmin(&pass_ns)];

    // Checks.
    let conserving = best.iter().all(|r| r.calls.violations == 0)
        && warm.iter().all(|r| r.calls.violations == 0);
    let dist_ok = match (
        workload,
        warm.first().and_then(|r| r.outcome.sim()),
        references.first(),
    ) {
        (Workload::DistFaults, Some(dist), Some(reference)) => {
            workloads::dist_matches_reference(dist, reference)
        }
        (Workload::DistFaults, _, _) => false,
        _ => true,
    };
    let correct = deterministic && conserving && dist_ok;
    let attempted: u64 = best.iter().map(|r| r.attempted).sum();
    let failed: u64 = best.iter().map(|r| r.failed).sum();

    let wall_ns: u64 = best.iter().map(|r| r.wall_ns).sum();
    let calls: u64 = best.iter().map(|r| r.calls.calls).sum();
    let decision_ns: u64 = best.iter().map(|r| r.decision_ns()).sum();
    for (i, cell) in cells.iter().enumerate() {
        let s = stats::spread(&walls[i]);
        eprintln!(
            "cell {i:2} {} {:9.3} ms by segment {:9.3} min {:9.3} median {:9.3} max  {} rounds  {}",
            if cell.seeded { "seeded" } else { "pinned" },
            best[i].wall_ns as f64 / 1e6,
            s.min as f64 / 1e6,
            s.median as f64 / 1e6,
            s.max as f64 / 1e6,
            Cell::rounds(&best[i]),
            cell.label()
        );
    }
    eprintln!(
        "{} seed {seed} reps {reps} setup passes {}: min {:.3} ms median {:.3} ms max {:.3} ms; \
         deterministic {deterministic} conserving {conserving} dist_ok {dist_ok} steady_allocs {steady_allocs}",
        workload.name(),
        passes.len(),
        setup.min as f64 / 1e6,
        setup.median as f64 / 1e6,
        setup.max as f64 / 1e6,
    );

    let metrics = if traced {
        let metrics = per_layer(
            &cells,
            &best,
            &tracer,
            &fastest_pass,
            wall_ns,
            untraced_wall_ns,
        );
        write_trace(workload, seed, &cells, &tracer);
        metrics
    } else {
        // Exact metrics are taken over the pinned cells only.
        let pinned = || {
            cells
                .iter()
                .zip(&best)
                .filter(|(c, _)| !c.seeded)
                .map(|(_, r)| r)
        };
        let sims: Vec<&SimReport> = match workload {
            Workload::ArbiterRounds => references.iter().collect(),
            _ => pinned().filter_map(|r| r.outcome.sim()).collect(),
        };
        let retired_of_admitted = (workload == Workload::ServiceOpen).then(|| {
            pinned().fold((0, 0), |(r, a), run| match &run.outcome {
                Outcome::Service(s) => (r + s.retired, a + s.admitted),
                _ => (r, a),
            })
        });
        let mut metrics = vec![
            metric("setup_s", setup.min as f64 / 1e9, "s"),
            metric("wall_s", wall_ns as f64 / 1e9, "s"),
            metric(
                "decision_us",
                stats::ratio(decision_ns as f64, calls as f64) / 1e3,
                "us",
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric(
                "alloc_count",
                pinned().map(|r| r.allocs).sum::<u64>() as f64,
                "count",
            ),
            metric(
                "alloc_mb",
                pinned().map(|r| r.alloc_bytes).sum::<u64>() as f64 / (1024.0 * 1024.0),
                "MB",
            ),
        ];
        metrics.extend(simulated_metrics(&sims, retired_of_admitted));
        metrics
    };

    RunResult {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn write_trace(workload: Workload, seed: u64, cells: &[Cell], tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let labels: Vec<String> = cells.iter().map(Cell::label).collect();
    let path = dir.join(format!("{}.trace.json", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload.name(), seed, &labels)));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer that does not
/// run on this workload reports 0.
fn per_layer(
    cells: &[Cell],
    runs: &[CellRun],
    tracer: &Tracer,
    setup: &SetupSample,
    traced_wall_ns: u64,
    untraced_wall_ns: u64,
) -> Vec<Metric> {
    use stats::ratio;
    let us = |ns: u64| ns as f64 / 1e3;
    let secs = |ns: u64| ns as f64 / 1e9;

    let engine_runs: Vec<&CellRun> = runs
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Sim(_)))
        .collect();
    let service_runs: Vec<&CellRun> = runs
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Service(_)))
        .collect();
    let rounds_of = |set: &[&CellRun]| set.iter().map(|r| Cell::rounds(r)).sum::<u64>() as f64;
    let calls_of = |set: &[&CellRun]| set.iter().map(|r| r.calls.calls).sum::<u64>() as f64;
    let peak_of =
        |set: &[&CellRun]| set.iter().map(|r| r.calls.arena_peak).max().unwrap_or(0) as f64;

    let (engine_ns, engine_self_ns) = tracer.totals("simulator.engine.run");
    let (service_ns, service_self_ns) = tracer.totals("simulator.service.run");
    let engine_rounds = rounds_of(&engine_runs);
    let service_rounds = rounds_of(&service_runs);
    let (mut admitted, mut retired, mut skipped, mut steady_min) = (0u64, 0u64, 0u64, 0.0f64);
    for run in &service_runs {
        if let Outcome::Service(s) = &run.outcome {
            admitted += s.admitted;
            retired += s.retired;
            skipped += s.auctions_skipped;
            steady_min += s.steady_state_at.map_or(0.0, |t| t.as_minutes());
        }
    }

    // Policy calls by layer: sorted per-call times, useful calls, GPUs granted.
    let by_layer = |keep: &dyn Fn(&str) -> bool| -> (Vec<u64>, u64, u64) {
        let mut samples = Vec::new();
        let (mut useful, mut granted) = (0, 0);
        for run in runs.iter().filter(|r| keep(r.layer)) {
            useful += run.calls.useful_calls;
            granted += run.calls.gpus_granted;
            samples.extend(run.segments.iter().skip(1).step_by(2));
        }
        samples.sort_unstable();
        (samples, useful, granted)
    };
    let pct = |samples: &[u64], p: f64| {
        if samples.is_empty() {
            0.0
        } else {
            us(stats::percentile(samples, p))
        }
    };
    let total = |samples: &[u64]| samples.iter().sum::<u64>();
    let (core_samples, core_useful, core_granted) = by_layer(&|layer| layer != probe::BASELINE);
    let (base_samples, _, _) = by_layer(&|layer| layer == probe::BASELINE);
    let (pump_samples, _, _) = by_layer(&|layer| layer == probe::ACTORS);
    let (core_calls, base_calls, pump_calls) =
        (core_samples.len(), base_samples.len(), pump_samples.len());
    let (core_ns, base_ns, pump_ns) = (
        total(&core_samples),
        total(&base_samples),
        total(&pump_samples),
    );

    // Shadow rounds, summed over cells.
    let mut sh = probe::ShadowStats::default();
    for run in runs {
        let s = &run.shadow;
        sh.rounds += s.rounds;
        sh.free_vector_ns += s.free_vector_ns;
        sh.rho_ns += s.rho_ns;
        sh.rho_apps += s.rho_apps;
        sh.bids_ns += s.bids_ns;
        sh.tables += s.tables;
        sh.rows += s.rows;
        sh.solve_ns += s.solve_ns;
        sh.run_auction_ns += s.run_auction_ns;
        sh.exact_rounds += s.exact_rounds;
        sh.greedy_rounds += s.greedy_rounds;
        sh.real_ns += s.real_ns;
    }
    let per_round = |ns: u64| ratio(us(ns), sh.rounds as f64);
    let shadow_steps = sh.free_vector_ns + sh.rho_ns + sh.bids_ns + sh.run_auction_ns;

    // Message layer.
    let mut dist = workloads::DistCounters::default();
    for d in runs.iter().filter_map(|r| r.dist) {
        dist.control_rounds += d.control_rounds;
        dist.completed_rounds += d.completed_rounds;
        dist.voided_wins += d.voided_wins;
        dist.stale_messages += d.stale_messages;
        dist.sent += d.sent;
        dist.delivered += d.delivered;
        dist.dropped_fault += d.dropped_fault;
        dist.dropped_partition += d.dropped_partition;
    }
    let log = log_costs(cells);
    let (to_json_us, parse_us, bytes) = report_round_trip(cells, runs);

    vec![
        metric("cluster.build_us", us(setup.cluster_ns), "us"),
        metric("cluster.gpus", setup.gpus as f64, "count"),
        metric(
            "cluster.free_vector_ns",
            ratio(sh.free_vector_ns as f64, sh.rounds as f64),
            "ns",
        ),
        metric("workload.trace_gen_us", us(setup.trace_ns), "us"),
        metric("workload.apps", setup.apps as f64, "count"),
        metric("workload.jobs", setup.jobs as f64, "count"),
        metric("simulator.engine.new_us", us(setup.engine_ns), "us"),
        metric("simulator.engine.run_s", secs(engine_ns), "s"),
        metric("simulator.engine.self_s", secs(engine_self_ns), "s"),
        metric(
            "simulator.engine.self_share",
            ratio(engine_self_ns as f64, engine_ns as f64),
            "ratio",
        ),
        metric("simulator.engine.rounds", engine_rounds, "count"),
        metric(
            "simulator.engine.self_us_per_round",
            ratio(us(engine_self_ns), engine_rounds),
            "us",
        ),
        metric(
            "simulator.engine.policy_calls",
            calls_of(&engine_runs),
            "count",
        ),
        metric(
            "simulator.engine.apps_x_rounds",
            engine_runs
                .iter()
                .map(|r| r.calls.apps_x_rounds)
                .sum::<u64>() as f64,
            "count",
        ),
        metric(
            "simulator.engine.arena_peak",
            peak_of(&engine_runs),
            "count",
        ),
        metric("simulator.service.run_s", secs(service_ns), "s"),
        metric("simulator.service.self_s", secs(service_self_ns), "s"),
        metric(
            "simulator.service.self_share",
            ratio(service_self_ns as f64, service_ns as f64),
            "ratio",
        ),
        metric("simulator.service.rounds", service_rounds, "count"),
        metric(
            "simulator.service.self_us_per_round",
            ratio(us(service_self_ns), service_rounds),
            "us",
        ),
        metric(
            "simulator.service.policy_calls",
            calls_of(&service_runs),
            "count",
        ),
        metric(
            "simulator.service.arena_peak",
            peak_of(&service_runs),
            "count",
        ),
        metric("simulator.service.admitted", admitted as f64, "count"),
        metric("simulator.service.retired", retired as f64, "count"),
        metric("simulator.service.rounds_skipped", skipped as f64, "count"),
        metric(
            "simulator.service.skip_ratio",
            ratio(skipped as f64, service_rounds),
            "ratio",
        ),
        metric("simulator.service.steady_state_min", steady_min, "min"),
        metric("core.schedule.calls", core_calls as f64, "count"),
        metric("core.schedule.total_s", secs(core_ns), "s"),
        metric("core.schedule.p50_us", pct(&core_samples, 0.5), "us"),
        metric("core.schedule.p99_us", pct(&core_samples, 0.99), "us"),
        metric("core.schedule.max_us", pct(&core_samples, 1.0), "us"),
        metric(
            "core.schedule.useful_ratio",
            ratio(core_useful as f64, core_calls as f64),
            "ratio",
        ),
        metric("core.schedule.gpus_granted", core_granted as f64, "count"),
        metric("core.shadow.rounds", sh.rounds as f64, "count"),
        metric("core.rho_probe.us_per_round", per_round(sh.rho_ns), "us"),
        metric(
            "core.rho_probe.apps_per_round",
            ratio(sh.rho_apps as f64, sh.rounds as f64),
            "count",
        ),
        metric("core.bids.us_per_round", per_round(sh.bids_ns), "us"),
        metric(
            "core.bids.tables_per_round",
            ratio(sh.tables as f64, sh.rounds as f64),
            "count",
        ),
        metric(
            "core.bids.rows_per_round",
            ratio(sh.rows as f64, sh.rounds as f64),
            "count",
        ),
        metric(
            "core.auction.solve_us_per_round",
            per_round(sh.solve_ns),
            "us",
        ),
        metric("core.auction.exact_rounds", sh.exact_rounds as f64, "count"),
        metric(
            "core.auction.greedy_rounds",
            sh.greedy_rounds as f64,
            "count",
        ),
        metric(
            "core.auction.greedy_ratio",
            ratio(
                sh.greedy_rounds as f64,
                (sh.exact_rounds + sh.greedy_rounds) as f64,
            ),
            "ratio",
        ),
        metric(
            "core.arbiter.leftover_us_per_round",
            ratio(us(sh.run_auction_ns) - us(sh.solve_ns), sh.rounds as f64),
            "us",
        ),
        metric(
            "core.other_us_per_round",
            ratio(us(sh.real_ns) - us(shadow_steps), sh.rounds as f64),
            "us",
        ),
        metric("core.actors.rounds", dist.control_rounds as f64, "count"),
        metric(
            "core.actors.completed_rounds",
            dist.completed_rounds as f64,
            "count",
        ),
        metric(
            "core.actors.missed_round_rate",
            ratio(
                (dist.control_rounds - dist.completed_rounds) as f64,
                dist.control_rounds as f64,
            ),
            "ratio",
        ),
        metric("core.actors.voided_wins", dist.voided_wins as f64, "count"),
        metric(
            "core.actors.stale_messages",
            dist.stale_messages as f64,
            "count",
        ),
        metric("core.actors.pump_calls", pump_calls as f64, "count"),
        metric(
            "core.actors.pump_us_per_call",
            ratio(us(pump_ns), pump_calls as f64),
            "us",
        ),
        metric(
            "core.actors.engine_rounds_per_auction",
            ratio(pump_calls as f64, dist.control_rounds as f64),
            "ratio",
        ),
        metric("protocol.network.sent", dist.sent as f64, "count"),
        metric("protocol.network.delivered", dist.delivered as f64, "count"),
        metric(
            "protocol.network.dropped_fault",
            dist.dropped_fault as f64,
            "count",
        ),
        metric(
            "protocol.network.dropped_partition",
            dist.dropped_partition as f64,
            "count",
        ),
        metric("protocol.log.records", log.records as f64, "count"),
        metric("protocol.log.to_text_us", log.to_text_us, "us"),
        metric("protocol.log.parse_us", log.parse_us, "us"),
        metric(
            "protocol.log.record_overhead_ratio",
            log.record_overhead_ratio,
            "ratio",
        ),
        metric("baselines.tiresias.calls", base_calls as f64, "count"),
        metric("baselines.tiresias.total_s", secs(base_ns), "s"),
        metric("baselines.tiresias.p50_us", pct(&base_samples, 0.5), "us"),
        metric("bench.report.to_json_us", to_json_us, "us"),
        metric("bench.report.parse_us", parse_us, "us"),
        metric("bench.report.bytes", bytes, "count"),
        metric("trace.spans", tracer.len() as f64, "count"),
        metric(
            "trace.overhead_ratio",
            ratio(traced_wall_ns as f64, untraced_wall_ns as f64),
            "ratio",
        ),
    ]
}

/// `--check`: every workload, untraced and traced, at smoke size. Fails if
/// a run is incorrect, an operation failed, a host metric reads 0, or the
/// metric names and units differ from `BENCHMARK.json`.
fn check() -> Result<(), String> {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str, field: &str| -> Result<Vec<String>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no '{key}' array"))?
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("an entry of '{key}' has no {field}"))
            })
            .collect()
    };
    let names_and_units = |key: &str| -> Result<Vec<(String, String)>, String> {
        Ok(listed(key, "name")?
            .into_iter()
            .zip(listed(key, "unit")?)
            .collect())
    };
    let (end_to_end, layers) = (
        names_and_units("end_to_end")?,
        names_and_units("per_layer")?,
    );
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if listed("workloads", "name")? != ours {
        return Err(format!(
            "BENCHMARK.json does not list exactly the workloads {ours:?}"
        ));
    }
    for workload in Workload::ALL {
        let sizing = workload.sizing(true);
        for (traced, expected) in [(false, &end_to_end), (true, &layers)] {
            let result = run_workload(workload, 42, &sizing, sizing.reps, traced);
            let got: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            if got != *expected {
                return Err(format!(
                    "{} trace={traced}: metrics differ from BENCHMARK.json\n  ours: {got:?}\n  json: {expected:?}",
                    workload.name()
                ));
            }
            if !result.correct || result.failed != 0 || result.attempted == 0 {
                return Err(format!(
                    "{} trace={traced}: correct {} attempted {} failed {}",
                    workload.name(),
                    result.correct,
                    result.attempted,
                    result.failed
                ));
            }
            // The simulated metrics may read 0 at smoke size (no app retires
            // within a shortened service horizon); the host ones never may.
            let host = result.metrics.iter().take(HOST_METRICS);
            if let Some(zero) = host.filter(|_| !traced).find(|m| m.value == 0.0) {
                return Err(format!("{}: {} reads 0", workload.name(), zero.name));
            }
        }
        println!("check {}: ok", workload.name());
    }
    Ok(())
}

const USAGE: &str = "usage: themis-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       themis-benchmark --check\nworkloads: scale_batch arbiter_rounds dist_faults service_open";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        return match check() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, 42u64, workloads::REFERENCE_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str);
        let ok = match (flag.as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Workload::parse(v);
                workload.is_some()
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|s| seconds = s).is_ok(),
            ("--trace", Some("0")) => true,
            ("--trace", Some("1")) => {
                traced = true;
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {}\n{USAGE}", value.unwrap_or(""));
            return ExitCode::from(2);
        }
    }
    let Some(workload) = workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `--seconds` sizes the run; it never drives a loop. At the reference
    // value N is the committed `Sizing::reps`.
    let sizing = workload.sizing(false);
    let reps =
        (sizing.reps as u64 * seconds.clamp(1, 60) / workloads::REFERENCE_SECONDS).max(1) as usize;
    let result = run_workload(workload, seed, &sizing, reps, traced);
    println!("{}", result.to_json_line());
    ExitCode::SUCCESS
}
