//! The one command-line front end: `themis sweep` runs a scenario matrix,
//! `themis figures` prints the paper's figures (each distinct cell
//! simulated once, on every available core), and `themis apps <scenario
//! id>` shows one scenario app by app. One parser serves all three and
//! checks every argument before any work runs; a usage error names the
//! argument by position and exits 2. `themis --help` lists every flag.
//!
//! `sweep` writes canonical JSON (`--jobs 1` ≡ `--jobs N`; wall-clock only
//! with `--timings`); `--check` exits 1 when the run diverges from a
//! committed baseline. `--replay-gate` (`--matrix` may then list several)
//! re-executes every distributed cell from its recorded transcript and
//! exits 1 on any byte difference; `--log-out DIR` keeps the transcripts as
//! `DIR/<scenario id>.msglog`. A flag the chosen mode does not read (say
//! `--check` with `--replay-gate`, or `--tolerance` without `--check`) is a
//! usage error. Host time is measured by `benchmark/`, not here.

use std::fmt::Display;
use std::str::FromStr;
use themis_bench::experiments::{run_experiments, Scale, ALL_EXPERIMENTS};
use themis_bench::report::{check_baseline, BaselineError};
use themis_bench::scenarios::{Matrix, Scenario};
use themis_bench::sweep::{run_replay_gate, run_sweep_filtered};
use themis_bench::Policy;
use themis_sim::batch::run_batch;

/// A usage error; its message names the argument it is about.
struct Usage(String);

/// The work a valid command line asks for; it returns the exit code.
type Job = Box<dyn FnOnce() -> i32>;

/// One argument: `at` locates it (`argument N (text)`, the subcommand
/// being argument 1), `flag` is the flag it is the value of (`""` for a
/// positional), and `value` its text.
struct Arg {
    at: String,
    flag: &'static str,
    value: String,
}

impl Arg {
    fn error(&self, problem: impl Display) -> Usage {
        Usage(format!("{}: {problem}", self.at))
    }

    /// The value as a `T` that `ok` accepts, or an error saying it must be
    /// `what`.
    fn parse<T: FromStr>(&self, what: &str, ok: fn(&T) -> bool) -> Result<T, Usage> {
        let value = self.value.parse().ok().filter(ok);
        value.ok_or_else(|| self.error(format!("{:?} is not {what}", self.value)))
    }

    /// The comma-separated names of the value, each looked up as a `what`;
    /// at least one.
    fn names<T>(&self, what: &str, lookup: fn(&str) -> Option<T>) -> Result<Vec<T>, Usage> {
        let names = self.value.split(',').filter(|n| !n.is_empty());
        let found =
            names.map(|n| lookup(n).ok_or_else(|| self.error(format!("unknown {what} '{n}'"))));
        let found: Vec<T> = found.collect::<Result<_, _>>()?;
        match found.is_empty() {
            true => Err(self.error(format!("needs at least one {what} name"))),
            false => Ok(found),
        }
    }
}

/// A subcommand: its flags (`--flag VALUE` or `--switch`, space-separated),
/// its positionals as the usage line shows them, the names it knows, and
/// `prepare`, which validates the arguments and returns the work without
/// starting it.
struct Command {
    name: &'static str,
    flags: &'static str,
    positionals: &'static str,
    known: fn() -> String,
    prepare: fn(&[Arg]) -> Result<Job, Usage>,
}

const COMMANDS: [Command; 3] = [
    Command {
        name: "sweep",
        flags: "--matrix NAME[,NAME..] --policy A,B,.. --jobs N --out FILE --check BASELINE \
                --tolerance T --timings --list --replay-gate --log-out DIR",
        positionals: "",
        known: || {
            let policies: Vec<_> = Policy::all().iter().map(Policy::name).collect();
            let (matrices, policies) = (Matrix::NAMED.join(", "), policies.join(", "));
            format!("known matrices: {matrices}\nknown policies: {policies}")
        },
        prepare: sweep,
    },
    Command {
        name: "figures",
        flags: "--tiny --apps N --seed S",
        positionals: " <fig-id>... | all",
        known: || format!("known experiments: {}", ALL_EXPERIMENTS.join(", ")),
        prepare: figures,
    },
    Command {
        name: "apps",
        flags: "",
        positionals: " <scenario-id>",
        known: || "a scenario id as sweep prints it, e.g. testbed50-a8-s42".to_string(),
        prepare: apps,
    },
];

fn usage(commands: &[Command]) -> String {
    let line = |c: &Command| {
        let flags = c.flags.split(" --").filter(|f| !f.is_empty());
        let flags: String = flags
            .map(|f| format!(" [--{}]", f.trim_start_matches('-')))
            .collect();
        let (name, positionals, known) = (c.name, c.positionals, (c.known)());
        format!("usage: themis {name}{flags} [--help]{positionals}\n{known}")
    };
    commands.iter().map(line).collect::<Vec<_>>().join("\n")
}

/// `token` as one of the `flags` of a [`Command`], with the name of its
/// value (`""` for a switch).
fn find_flag(flags: &'static str, token: &str) -> Option<(&'static str, &'static str)> {
    let mut words = flags.split(' ');
    let flag = words.find(|w| *w == token && w.starts_with("--"))?;
    let value = words.next().filter(|w| !w.starts_with("--"));
    Some((flag, value.unwrap_or("")))
}

/// Splits the arguments after the subcommand into flags with their values
/// and positionals, and hands them to the command's `prepare`; `None` if
/// they ask for help.
fn prepare(command: &Command, args: &[String]) -> Result<Option<Job>, Usage> {
    let mut parsed = Vec::new();
    let mut tokens = args.iter().zip(2..);
    while let Some((token, pos)) = tokens.next() {
        let at = format!("argument {pos} ({token})");
        let (flag, value) = match find_flag(command.flags, token) {
            _ if token == "--help" || token == "-h" => return Ok(None),
            Some((flag, "")) => (flag, String::new()),
            Some((flag, name)) => match tokens.next() {
                Some((value, _)) => (flag, value.clone()),
                None => return Err(Usage(format!("{at}: needs a value {name}"))),
            },
            None if token.starts_with('-') => return Err(Usage(format!("{at}: unknown flag"))),
            None => ("", token.clone()),
        };
        parsed.push(Arg { at, flag, value });
    }
    (command.prepare)(&parsed).map(Some)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map_or("", String::as_str);
    let (usage, job) = match COMMANDS.iter().find(|c| c.name == name) {
        Some(c) => (usage(std::slice::from_ref(c)), prepare(c, &argv[1..])),
        None if name == "--help" || name == "-h" => (usage(&COMMANDS), Ok(None)),
        None if name.is_empty() => (usage(&COMMANDS), Err(Usage("no subcommand".into()))),
        None => {
            let error = format!("argument 1 ({name}): unknown subcommand");
            (usage(&COMMANDS), Err(Usage(error)))
        }
    };
    match job {
        Ok(Some(job)) => std::process::exit(job()),
        Ok(None) => println!("{usage}"),
        Err(Usage(error)) => {
            eprintln!("error: {error}\n{usage}");
            std::process::exit(2);
        }
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Exits 2, naming `path`, if writing it failed.
fn check_written(path: &str, written: std::io::Result<()>) {
    if let Err(e) = written {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

fn sweep(args: &[Arg]) -> Result<Job, Usage> {
    let (mut matrices, mut matrix_arg, mut policies) = (vec![Matrix::smoke()], None, None);
    let (mut jobs, mut tolerance, mut out, mut check, mut log_out) = (1, 1e-9, None, None, None);
    let (mut timings, mut list, mut replay_gate) = (false, false, false);
    for a in args {
        match a.flag {
            "--matrix" => (matrices, matrix_arg) = (a.names("matrix", Matrix::by_name)?, Some(a)),
            "--policy" => policies = Some(a.names("policy", Policy::parse)?),
            "--jobs" => jobs = a.parse("a positive integer", |&n: &usize| n > 0)?,
            "--tolerance" => {
                let ok = |t: &f64| t.is_finite() && *t >= 0.0;
                tolerance = a.parse("a finite non-negative number", ok)?;
            }
            "--out" => out = Some(a.value.clone()),
            "--check" => check = Some(a.value.clone()),
            "--log-out" => log_out = Some(a.value.clone()),
            "--timings" => timings = true,
            "--list" => list = true,
            "--replay-gate" => replay_gate = true,
            _ => return Err(a.error("sweep takes no positional argument")),
        }
    }
    if let Some(a) = matrix_arg.filter(|_| !replay_gate && matrices.len() > 1) {
        return Err(a.error("takes one name (a comma-separated list needs --replay-gate)"));
    }
    // A flag the chosen mode would never read is refused, not dropped.
    for a in args {
        let problem = match a.flag {
            "--check" | "--out" | "--policy" | "--jobs" | "--timings" | "--tolerance"
                if replay_gate =>
            {
                "--replay-gate does not read it"
            }
            "--log-out" if !replay_gate => "only --replay-gate reads it",
            "--tolerance" if check.is_none() => "only --check reads it",
            _ => continue,
        };
        return Err(a.error(problem));
    }
    Ok(Box::new(move || {
        if list {
            for name in Matrix::NAMED {
                let m = Matrix::by_name(name).expect("named matrix exists");
                let (scenarios, cells) = (m.expand().len(), m.cells().len());
                let policies: Vec<_> = m.policies.iter().map(Policy::name).collect();
                let policies = policies.join(", ");
                println!("{name}: {scenarios} scenarios, {cells} cells, policies [{policies}]");
            }
            return 0;
        }
        if replay_gate {
            return replay(&matrices, log_out.as_deref());
        }
        let report = run_sweep_filtered(&matrices[0], jobs, policies.as_deref());
        let (matrix, ms) = (&report.matrix, report.total_wall_clock_ms);
        let cells = report.cells.len();
        let slowest = report
            .cells
            .iter()
            .max_by(|a, b| a.wall_clock_ms.total_cmp(&b.wall_clock_ms));
        let slowest =
            slowest.map(|c| format!(" (slowest cell {} at {:.0} ms)", c.id, c.wall_clock_ms));
        let slowest = slowest.unwrap_or_default();
        eprintln!("sweep '{matrix}': {cells} cells, --jobs {jobs}, wall-clock {ms:.0} ms{slowest}");
        let rendered = match timings {
            true => report.to_json(true).to_pretty_string(),
            false => report.to_canonical_string(),
        };
        match &out {
            Some(path) => {
                check_written(path, std::fs::write(path, &rendered));
                eprintln!("wrote {path}");
            }
            None => print!("{rendered}"),
        }
        let Some(baseline) = check else { return 0 };
        let passed = format!("{cells} cells match {baseline} (tolerance {tolerance})");
        let (code, message) = match check_baseline(&baseline, Some(&report), tolerance) {
            Ok(_) => (0, format!("baseline check passed: {passed}")),
            Err(BaselineError::Unusable(e)) => (2, format!("error: {e}")),
            Err(BaselineError::Diverged(e)) => (1, format!("baseline check FAILED: {e}")),
        };
        eprintln!("{message}");
        code
    }))
}

/// The record→replay gate over every distributed cell of `matrices`.
fn replay(matrices: &[Matrix], log_out: Option<&str>) -> i32 {
    let mut failed = 0;
    for matrix in matrices {
        let (outcomes, name) = (run_replay_gate(matrix), &matrix.name);
        if outcomes.is_empty() {
            eprintln!("replay gate: matrix '{name}' has no distributed cells");
        }
        for outcome in outcomes {
            let (id, records) = (&outcome.id, outcome.records);
            let verdict = if outcome.matched { "ok" } else { "DIVERGED" };
            eprintln!("replay gate: {id} — {verdict} ({records} transport records)");
            failed += usize::from(!outcome.matched);
            if let Some(dir) = log_out {
                let scenario_id = outcome.id.split('/').next().unwrap_or(&outcome.id);
                let path = format!("{dir}/{scenario_id}.msglog");
                let text = &outcome.log_text;
                let written =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text));
                check_written(&path, written);
            }
        }
    }
    if failed > 0 {
        eprintln!("replay gate FAILED: {failed} cell(s) diverged from their transcript");
        return 1;
    }
    eprintln!("replay gate passed: every distributed cell replays byte-identically");
    0
}

fn figures(args: &[Arg]) -> Result<Job, Usage> {
    let (mut scale, mut ids) = (Scale::default(), Vec::new());
    for a in args {
        match (a.flag, ALL_EXPERIMENTS.iter().find(|&&id| id == a.value)) {
            ("--tiny", _) => scale = Scale::tiny(),
            ("--apps", _) => {
                scale.sim_apps = a.parse("a positive integer", |&n: &usize| n > 0)?;
                scale.testbed_apps = scale.sim_apps;
            }
            ("--seed", _) => scale.seed = a.parse("a non-negative integer", |_: &u64| true)?,
            (_, Some(&id)) => ids.push(id),
            _ if a.value == "all" => ids.extend(ALL_EXPERIMENTS),
            _ => return Err(a.error("unknown figure id")),
        }
    }
    if ids.is_empty() {
        return Err(Usage("figures needs a figure id or 'all'".into()));
    }
    Ok(Box::new(move || {
        for table in run_experiments(&ids, scale, workers()).expect("ids are known") {
            println!("{table}");
        }
        0
    }))
}

/// The apps of one scenario's trace, then each app's outcome under
/// Themis, Gandiva and Tiresias (a service axis is ignored: the trace runs
/// as a batch).
fn apps(args: &[Arg]) -> Result<Job, Usage> {
    let scenario = match args {
        [id] => Scenario::from_id(&id.value).map_err(|e| id.error(e))?,
        [] => return Err(Usage("apps needs a scenario id".into())),
        [_, extra, ..] => return Err(extra.error("apps takes one scenario id")),
    };
    Ok(Box::new(move || {
        for app in scenario.trace() {
            println!(
                "app {} arrives {:.0} jobs {} demand {} ideal {:.1} net={} total_work {:.0}",
                app.id.0,
                app.arrival.as_minutes(),
                app.num_jobs(),
                app.max_parallelism(),
                app.ideal_running_time().as_minutes(),
                app.is_network_intensive(),
                app.total_work().as_minutes(),
            );
        }
        let policies = [Policy::themis_default(), Policy::Gandiva, Policy::Tiresias];
        for report in run_batch(policies.len(), workers(), |i| scenario.run(policies[i])) {
            println!(
                "\n== {} == max_rho {:.1} jain {:.3} gpu_time {:.0} rounds {}",
                report.scheduler,
                report.max_fairness().unwrap_or(f64::NAN),
                report.jains_index().unwrap_or(f64::NAN),
                report.total_gpu_time.as_minutes(),
                report.scheduling_rounds
            );
            for a in &report.apps {
                println!(
                    "  app {} rho {:>8.1} ct {:>8.1} ideal {:>6.1} service {:>8.0} placement {:.2}",
                    a.app.0,
                    a.rho.unwrap_or(f64::NAN),
                    a.completion_time.map_or(f64::NAN, |t| t.as_minutes()),
                    a.ideal_running_time.as_minutes(),
                    a.attained_service.as_minutes(),
                    a.placement_score
                );
            }
        }
        0
    }))
}
