//! Scenario-matrix sweep runner with machine-readable reports.
//!
//! ```text
//! sweep --list
//! sweep --matrix smoke --jobs 4 --out sweep.json
//! sweep --matrix smoke --policy themis,drf
//! sweep --matrix smoke --jobs 4 --check BENCH_BASELINE.json
//! sweep --matrix smoke --timings --out sweep-timed.json
//! sweep --matrix scale --jobs 4 --check BENCH_SCALE_BASELINE.json
//! sweep --matrix faults --replay-gate --log-out msglogs
//! ```
//!
//! The emitted JSON is canonical: identical for `--jobs 1` and `--jobs N`,
//! and free of wall-clock fields unless `--timings` is given (timings are
//! advisory; CI compares metrics only). `--check` diffs the run against a
//! committed baseline and exits 1 on any divergence beyond `--tolerance`.
//!
//! Host time is not this binary's business: the repo's one timing
//! instrument is the stand-alone `benchmark/` package (`BENCHMARK.json`).
//!
//! `--replay-gate` switches to the record→replay determinism gate
//! (`--matrix` then accepts a comma-separated list): every
//! distributed-mode cell of each matrix runs once with a message transcript
//! attached, is re-executed from the transcript alone, and the two
//! canonical reports are byte-compared. Any divergence exits 1. With
//! `--log-out DIR` each cell's transcript is written to
//! `DIR/<scenario id>.msglog` (the CI artifact).

use themis_bench::policies::Policy;
use themis_bench::report::{check_baseline, BaselineError};
use themis_bench::scenarios::Matrix;
use themis_bench::sweep::{run_replay_gate, run_sweep_filtered};

/// Prints the usage text and exits: to stdout with 0 for `--help`, to
/// stderr with 2 for a usage error.
fn usage(code: i32) -> ! {
    let text = format!(
        "usage: sweep [--matrix NAME[,NAME..]] [--policy A,B,..] [--jobs N] [--out FILE]\n\
         \x20            [--check BASELINE] [--tolerance T] [--timings] [--list]\n\
         \x20            [--replay-gate] [--log-out DIR] [--help]\n\
         known matrices: {}\n\
         known policies: {}",
        Matrix::NAMED.join(", "),
        Policy::all()
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    if code == 0 {
        println!("{text}");
    } else {
        eprintln!("{text}");
    }
    std::process::exit(code);
}

fn arg_value(iter: &mut impl Iterator<Item = String>, flag: &str) -> String {
    iter.next().unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    })
}

fn main() {
    let mut matrix_spec = "smoke".to_string();
    let mut policy_filter: Option<Vec<Policy>> = None;
    let mut jobs: usize = 1;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut tolerance: f64 = 1e-9;
    let mut timings = false;
    let mut list = false;
    let mut replay_gate = false;
    let mut log_out: Option<String> = None;

    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--matrix" => matrix_spec = arg_value(&mut iter, "--matrix"),
            "--policy" => {
                let spec = arg_value(&mut iter, "--policy");
                let parsed: Vec<Policy> = spec
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|name| {
                        Policy::parse(name).unwrap_or_else(|| {
                            eprintln!("error: unknown policy '{name}'");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                if parsed.is_empty() {
                    eprintln!("error: --policy needs at least one name");
                    std::process::exit(2);
                }
                policy_filter = Some(parsed);
            }
            "--jobs" => {
                jobs = arg_value(&mut iter, "--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("error: --jobs needs a positive number");
                    std::process::exit(2);
                });
                if jobs == 0 {
                    eprintln!("error: --jobs needs a positive number");
                    std::process::exit(2);
                }
            }
            "--out" => out = Some(arg_value(&mut iter, "--out")),
            "--check" => check = Some(arg_value(&mut iter, "--check")),
            "--tolerance" => {
                tolerance = arg_value(&mut iter, "--tolerance")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("error: --tolerance needs a number");
                        std::process::exit(2);
                    });
            }
            "--timings" => timings = true,
            "--list" => list = true,
            "--replay-gate" => replay_gate = true,
            "--log-out" => log_out = Some(arg_value(&mut iter, "--log-out")),
            "--help" | "-h" => usage(0),
            _ => {
                eprintln!("error: unknown argument '{arg}'");
                usage(2);
            }
        }
    }

    if list {
        for name in Matrix::NAMED {
            let matrix = Matrix::by_name(name).expect("named matrix exists");
            println!(
                "{name}: {} scenarios, {} cells, policies [{}]",
                matrix.expand().len(),
                matrix.cells().len(),
                matrix
                    .policies
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        return;
    }

    let matrix_names: Vec<&str> = matrix_spec.split(',').filter(|s| !s.is_empty()).collect();
    if matrix_names.is_empty() || (!replay_gate && matrix_names.len() > 1) {
        eprintln!("error: --matrix takes one name (a comma-separated list needs --replay-gate)");
        usage(2);
    }
    let matrices: Vec<Matrix> = matrix_names
        .iter()
        .map(|name| {
            Matrix::by_name(name).unwrap_or_else(|| {
                eprintln!("error: unknown matrix '{name}'");
                usage(2);
            })
        })
        .collect();

    if replay_gate {
        // Replay-gate mode: record every distributed cell, re-execute it
        // from its transcript alone, byte-diff the canonical reports.
        let mut failed = 0usize;
        for matrix in &matrices {
            let outcomes = run_replay_gate(matrix);
            if outcomes.is_empty() {
                eprintln!(
                    "replay gate: matrix '{}' has no distributed cells",
                    matrix.name
                );
            }
            for outcome in outcomes {
                let verdict = if outcome.matched { "ok" } else { "DIVERGED" };
                eprintln!(
                    "replay gate: {} — {} ({} transport records)",
                    outcome.id, verdict, outcome.records
                );
                if !outcome.matched {
                    failed += 1;
                }
                if let Some(dir) = &log_out {
                    let scenario_id = outcome.id.split('/').next().unwrap_or(&outcome.id);
                    let path = format!("{dir}/{scenario_id}.msglog");
                    if let Err(e) = std::fs::create_dir_all(dir)
                        .and_then(|()| std::fs::write(&path, &outcome.log_text))
                    {
                        eprintln!("error: cannot write {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
        if failed > 0 {
            eprintln!("replay gate FAILED: {failed} cell(s) diverged from their transcript");
            std::process::exit(1);
        }
        eprintln!("replay gate passed: every distributed cell replays byte-identically");
        return;
    }

    let matrix = &matrices[0];
    let report = run_sweep_filtered(matrix, jobs, policy_filter.as_deref());

    // Advisory timing summary on stderr: never part of the canonical JSON.
    let slowest = report
        .cells
        .iter()
        .max_by(|a, b| a.wall_clock_ms.total_cmp(&b.wall_clock_ms));
    eprintln!(
        "sweep '{}': {} cells, --jobs {jobs}, wall-clock {:.0} ms{}",
        report.matrix,
        report.cells.len(),
        report.total_wall_clock_ms,
        slowest
            .map(|c| format!(" (slowest cell {} at {:.0} ms)", c.id, c.wall_clock_ms))
            .unwrap_or_default()
    );

    let rendered = if timings {
        report.to_json(true).to_pretty_string()
    } else {
        report.to_canonical_string()
    };
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }

    if let Some(baseline_path) = check {
        match check_baseline(&baseline_path, Some(&report), tolerance) {
            Ok(_) => eprintln!(
                "baseline check passed: {} cells match {baseline_path} (tolerance {tolerance})",
                report.cells.len()
            ),
            Err(BaselineError::Unusable(e)) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            Err(BaselineError::Diverged(e)) => {
                eprintln!("baseline check FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}
