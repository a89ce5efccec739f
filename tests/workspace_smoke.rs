//! Workspace wiring smoke test.
//!
//! Exercises the full quickstart path — `Cluster` + `TraceGenerator` +
//! `ThemisScheduler` + `Engine` — end to end, twice, and asserts the two
//! runs are identical. This pins down both that the crate graph is wired
//! correctly (every layer of the workspace participates) and that the
//! simulator is deterministic: same seed, identical `SimReport`. Also
//! checks that the documentation names only repository paths that exist.

use std::path::{Path, PathBuf};
use themis_cluster::prelude::*;
use themis_core::prelude::*;
use themis_sim::prelude::*;
use themis_workload::prelude::*;

/// One full quickstart run with a fixed seed.
fn run_once(seed: u64) -> SimReport {
    let cluster = Cluster::new(ClusterSpec::homogeneous(2, 4, 4));
    let trace =
        TraceGenerator::new(TraceConfig::default().with_num_apps(8).with_seed(seed)).generate();
    let themis = ThemisScheduler::new(ThemisConfig::default());
    Engine::new(cluster, trace, themis, SimConfig::default()).run()
}

#[test]
fn quickstart_path_is_deterministic() {
    let first = run_once(42);
    let second = run_once(42);
    assert_eq!(
        first, second,
        "identical seeds must produce identical SimReports"
    );
    assert!(
        first.finished_apps() > 0,
        "the quickstart workload should finish at least one app"
    );
}

#[test]
fn different_seeds_change_the_workload() {
    let a = run_once(1);
    let b = run_once(2);
    // The traces differ, so the reports should too (app count is fixed but
    // arrivals/durations are seed-dependent).
    assert_ne!(a, b, "different seeds should produce different runs");
}

/// Whether `pattern` — a path relative to `dir`, possibly with `{a,b}`
/// alternatives (all must resolve) and `*` wildcards (one match must) —
/// names something that exists.
fn resolves(dir: &Path, pattern: &str) -> bool {
    if let (Some(open), Some(close)) = (pattern.find('{'), pattern.find('}')) {
        let (head, tail) = (&pattern[..open], &pattern[close + 1..]);
        let mut alts = pattern[open + 1..close].split(',');
        return alts.all(|alt| resolves(dir, &format!("{head}{alt}{tail}")));
    }
    let (part, rest) = pattern.split_once('/').unwrap_or((pattern, ""));
    let descend = |next: &Path| next.exists() && (rest.is_empty() || resolves(next, rest));
    let Some((pre, post)) = part.split_once('*') else {
        return descend(&dir.join(part));
    };
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    entries.map(|e| e.path()).any(|path| {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        name.starts_with(pre) && name.ends_with(post) && descend(&path)
    })
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).expect("readable directory");
    for entry in entries.flatten() {
        match entry.path() {
            path if path.is_dir() => rust_files(&path, out),
            path if path.extension().is_some_and(|ext| ext == "rs") => out.push(path),
            _ => {}
        }
    }
}

#[test]
fn docs_name_only_paths_that_exist() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let guides = "README.md PAPER.md docs/ARCHITECTURE.md vendor/README.md";
    let guides = guides.split(' ').chain([".claude/skills/verify/SKILL.md"]);
    let mut sources: Vec<PathBuf> = guides.map(|guide| root.join(guide)).collect();
    // …and, of every source file under crates/, the rustdoc lines.
    rust_files(&root.join("crates"), &mut sources);
    let dirs = "crates/ tests/ docs/ examples/ benchmark/ vendor/ .github/";
    let mut dangling = Vec::new();
    for source in &sources {
        let text = std::fs::read_to_string(source).expect("readable source");
        let scanned = |line: &&str| {
            let rustdoc = matches!(line.trim_start().get(..3), Some("//!" | "///"));
            rustdoc || source.extension().is_some_and(|ext| ext == "md")
        };
        let path_char = |c: char| c.is_ascii_alphanumeric() || "_./{},*-".contains(c);
        let lines = text.lines().filter(scanned);
        for token in lines.flat_map(|line| line.split(|c| !path_char(c))) {
            let token = token.trim_end_matches(['.', ',']);
            let in_dir = dirs.split(' ').any(|dir| token.starts_with(dir))
                && !token.starts_with("benchmark/out/")
                && !token.starts_with("benchmark/target/");
            let bench_json = token.starts_with("BENCH") && token.ends_with(".json");
            let root_file = !token.contains('/') && (token.ends_with(".md") || bench_json);
            if (in_dir || root_file) && !resolves(root, token) {
                dangling.push(format!("{}: {token}", source.display()));
            }
        }
    }
    assert!(dangling.is_empty(), "missing paths: {dangling:#?}");
}
