//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p themis-bench --bin figures -- all
//! cargo run --release -p themis-bench --bin figures -- fig5a fig5b
//! cargo run --release -p themis-bench --bin figures -- --apps 60 fig4a
//! cargo run --release -p themis-bench --bin figures -- --tiny all
//! ```

use themis_bench::experiments::{run_experiment, Scale, ALL_EXPERIMENTS};

/// Prints the usage text and exits: to stdout with 0 for `--help`, to
/// stderr with 2 for a usage error.
fn usage(code: i32) -> ! {
    let text = format!(
        "usage: figures [--tiny] [--apps N] [--seed S] [--help] <fig-id>... | all\n\
         known experiments: {}",
        ALL_EXPERIMENTS.join(", ")
    );
    if code == 0 {
        println!("{text}");
    } else {
        eprintln!("{text}");
    }
    std::process::exit(code);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage(2);
    }

    let mut scale = Scale::default();
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tiny" => scale = Scale::tiny(),
            "--apps" => {
                let n = iter.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --apps needs a number");
                    std::process::exit(2);
                });
                scale.sim_apps = n;
                scale.testbed_apps = n;
            }
            "--seed" => {
                scale.seed = iter.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --seed needs a number");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => usage(0),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown argument '{flag}'");
                usage(2);
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }

    let mut failed = false;
    for id in ids {
        match run_experiment(&id, scale) {
            Some(table) => {
                println!("{table}");
            }
            None => {
                eprintln!("unknown experiment: {id}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
