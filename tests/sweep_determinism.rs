//! The sweep engine's CI contract, pinned as tests:
//!
//! * the parallel batch runner produces **byte-identical** canonical JSON
//!   to the serial runner on the smoke matrix (`--jobs 4` vs `--jobs 1`),
//! * the canonical JSON round-trips through the parser,
//! * the smoke sweep matches the committed `BENCH_BASELINE.json` — the
//!   same gate the `scenario-matrix` CI job enforces, so a behavior change
//!   that forgets to regenerate the baseline fails here first.

use themis_bench::report::{check_baseline, SweepReport};
use themis_bench::scenarios::Matrix;
use themis_bench::sweep::run_sweep;

/// Serial and parallel runs of the smoke matrix must render to the same
/// bytes; re-running must be a fixed point (full determinism).
#[test]
fn parallel_smoke_sweep_is_byte_identical_to_serial() {
    let matrix = Matrix::smoke();
    let serial = run_sweep(&matrix, 1);
    let parallel = run_sweep(&matrix, 4);
    let serial_text = serial.to_canonical_string();
    let parallel_text = parallel.to_canonical_string();
    assert_eq!(
        serial_text, parallel_text,
        "--jobs 4 must emit the same canonical JSON as --jobs 1"
    );

    // Canonical JSON round-trips losslessly.
    let back = SweepReport::parse_str(&serial_text).expect("canonical JSON parses");
    assert_eq!(back.to_canonical_string(), serial_text);
    assert_eq!(back.cells.len(), matrix.cells().len());

    // And the run matches the committed (canonical) baseline — the CI
    // regression gate.
    let baseline = check_baseline(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json"),
        Some(&serial),
        1e-9,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    // Stronger than the metric diff: the canonical rendering must be
    // *byte-identical* to the committed file. The dense-core refactor is
    // observationally pure — every iteration order stays ascending-by-id —
    // and this pin is what holds that contract for future refactors.
    assert_eq!(
        serial_text,
        baseline.to_canonical_string(),
        "smoke sweep canonical JSON is not byte-identical to BENCH_BASELINE.json"
    );
}
