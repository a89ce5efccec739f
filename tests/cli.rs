//! The command-line contract of the `themis` binary, one row per case:
//! `--help`/`-h` print usage to stdout and exit 0; every usage error is
//! reported before any work runs, names the argument by its position, and
//! exits 2.

use std::process::Command;

#[test]
fn help_unknown_flags_and_no_arguments() {
    let themis = env!("CARGO_BIN_EXE_themis");
    // (arguments, exit code, start of stdout, start of stderr); an empty
    // start means the stream stays empty.
    let cases: &[(&[&str], i32, &str, &str)] = &[
        (&["--help"], 0, "usage: themis sweep ", ""),
        (&["-h"], 0, "usage: themis sweep ", ""),
        (&["sweep", "--help"], 0, "usage: themis sweep ", ""),
        (&["figures", "-h"], 0, "usage: themis figures ", ""),
        (&["apps", "--help"], 0, "usage: themis apps ", ""),
        (&[], 2, "", "error: no subcommand"),
        (
            &["nope"],
            2,
            "",
            "error: argument 1 (nope): unknown subcommand",
        ),
        (
            &["sweep", "--nope"],
            2,
            "",
            "error: argument 2 (--nope): unknown flag",
        ),
        // Rejected before the queued figure runs.
        (
            &["figures", "--tiny", "fig2", "--nope"],
            2,
            "",
            "error: argument 4 (--nope): unknown flag",
        ),
        (
            &["sweep", "--jobs"],
            2,
            "",
            "error: argument 2 (--jobs): needs a value N",
        ),
        (
            &["sweep", "--jobs", "x"],
            2,
            "",
            "error: argument 2 (--jobs): \"x\" is not a positive integer",
        ),
        // NaN or a negative tolerance fails every cell, an infinite one
        // passes any run: both would make `--check` meaningless.
        (
            &["sweep", "--tolerance", "nan"],
            2,
            "",
            "error: argument 2 (--tolerance): \"nan\" is not a finite non-negative number",
        ),
        (
            &["sweep", "--tolerance", "-1"],
            2,
            "",
            "error: argument 2 (--tolerance): \"-1\" is not a finite non-negative number",
        ),
        (
            &["sweep", "--tolerance", "inf"],
            2,
            "",
            "error: argument 2 (--tolerance): \"inf\" is not a finite non-negative number",
        ),
        (
            &["figures", "--seed", "x", "fig2"],
            2,
            "",
            "error: argument 2 (--seed): \"x\" is not a non-negative integer",
        ),
        // An empty run would print NaN for every ρ; it is refused instead.
        (
            &["figures", "--apps", "0", "fig5a"],
            2,
            "",
            "error: argument 2 (--apps): \"0\" is not a positive integer",
        ),
        (
            &["figures", "fig2", "fig99"],
            2,
            "",
            "error: argument 3 (fig99): unknown figure id",
        ),
        (
            &["figures", "--tiny"],
            2,
            "",
            "error: figures needs a figure id",
        ),
        // `--list` does not skip the validation of `--matrix`.
        (
            &["sweep", "--list", "--matrix", "nope"],
            2,
            "",
            "error: argument 3 (--matrix): unknown matrix 'nope'",
        ),
        (
            &["sweep", "--matrix", "lease"],
            2,
            "",
            "error: argument 2 (--matrix): unknown matrix 'lease'",
        ),
        (
            &["sweep", "--matrix", "smoke,faults"],
            2,
            "",
            "error: argument 2 (--matrix): takes one name",
        ),
        (
            &["sweep", "smoke"],
            2,
            "",
            "error: argument 2 (smoke): sweep takes no positional argument",
        ),
        (
            &["apps", "rack16-a6"],
            2,
            "",
            "error: argument 2 (rack16-a6): missing tag 's' (seed)",
        ),
        (&["apps"], 2, "", "error: apps needs a scenario id"),
        (&["sweep", "--list"], 0, "smoke: ", ""),
        (&["figures", "--tiny", "fig2"], 0, "== fig2 — ", ""),
        (&["apps", "rack16-a2-s42"], 0, "app 0 arrives ", ""),
        // No arguments: the smoke matrix, canonical JSON on stdout.
        (&["sweep"], 0, "{\n", "sweep 'smoke': "),
    ];
    for &(args, code, stdout, stderr) in cases {
        let out = Command::new(themis)
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(code), "themis {args:?}");
        for (got, want) in [(&out.stdout, stdout), (&out.stderr, stderr)] {
            let got = String::from_utf8_lossy(got);
            assert!(
                got.starts_with(want) && got.is_empty() == want.is_empty(),
                "themis {args:?}: output starts {:?}, expected {want:?}",
                got.lines().next()
            );
        }
    }
}
