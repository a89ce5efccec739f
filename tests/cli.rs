//! The command-line contract of the `figures` and `sweep` binaries:
//! `--help`/`-h` print the usage text to stdout and exit 0, and an unknown
//! flag is a usage error (exit 2) before any work runs.

use std::process::Command;

#[test]
fn help_unknown_flags_and_no_arguments() {
    let figures = env!("CARGO_BIN_EXE_figures");
    let sweep = env!("CARGO_BIN_EXE_sweep");
    let unknown = "error: unknown argument '--nope'";
    // (binary, arguments, exit code, start of stdout, start of stderr);
    // an empty start means the stream stays empty.
    let cases: [(&str, &[&str], i32, &str, &str); 9] = [
        (figures, &["--help"], 0, "usage: figures ", ""),
        (figures, &["-h"], 0, "usage: figures ", ""),
        // Rejected before the queued experiment runs, not reported as an
        // unknown experiment after it.
        (figures, &["--tiny", "fig2", "--nope"], 2, "", unknown),
        (figures, &[], 2, "", "usage: figures "),
        (figures, &["nope"], 1, "", "unknown experiment: nope"),
        (sweep, &["--help"], 0, "usage: sweep ", ""),
        (sweep, &["-h"], 0, "usage: sweep ", ""),
        (sweep, &["--nope"], 2, "", unknown),
        // No arguments: the smoke matrix, canonical JSON on stdout.
        (sweep, &[], 0, "{\n", "sweep 'smoke': "),
    ];
    for (bin, args, code, stdout, stderr) in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(code), "{bin} {args:?}");
        for (got, want) in [(&out.stdout, stdout), (&out.stderr, stderr)] {
            let got = String::from_utf8_lossy(got);
            assert!(
                got.starts_with(want) && got.is_empty() == want.is_empty(),
                "{bin} {args:?}: output starts {:?}, expected {want:?}",
                got.lines().next()
            );
        }
    }
}
