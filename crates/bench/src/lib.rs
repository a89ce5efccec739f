//! # themis-bench
//!
//! Experiment harness for the Themis reproduction (NSDI 2020).
//!
//! This crate turns the building blocks of the workspace (cluster model,
//! trace generator, simulator, Themis and the baselines) into the concrete
//! experiments of the paper's evaluation section. Every table and figure
//! has an entry in [`experiments`] that regenerates its rows, and
//! `themis figures` prints them (`cargo run -p themis-bench --bin themis --
//! figures all`). Host time — the §8.3.2 system overheads included — is
//! measured in one place, the stand-alone `benchmark/` package
//! (`BENCHMARK.json`).
//!
//! The paper's evaluation is a *matrix* of such experiments, and the
//! scenario subsystem makes that matrix first-class:
//!
//! * [`scenarios`] — the declarative [`scenarios::Scenario`] cell and the
//!   cartesian [`scenarios::Matrix`] expander with the named matrices
//!   (`smoke`, `full`, `stress`, `faults`, `scale`, `hetero`, `service`,
//!   `soak`, `storm`),
//! * [`sweep`] — the multi-threaded batch runner executing every
//!   `(scenario × policy)` cell via `themis_sim::batch`,
//! * [`report`] — the machine-readable [`report::SweepReport`] and the
//!   `BENCH_BASELINE.json` regression gate CI diffs against,
//! * [`json`] — the deterministic JSON writer/parser backing it (the
//!   vendored `serde` is an inert stub, see `vendor/README.md`).
//!
//! One binary, `themis`, drives it all through one argument parser:
//! `themis sweep` runs a matrix (`cargo run --release -p themis-bench --bin
//! themis -- sweep --matrix smoke --jobs 4 --out sweep.json --check
//! BENCH_BASELINE.json`), `themis figures` prints the paper's figures, and
//! `themis apps <scenario id>` shows one scenario app by app.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod json;
pub mod policies;
pub mod report;
pub mod scenarios;
pub mod sweep;

pub use experiments::*;
pub use policies::Policy;
pub use report::{compare_reports, CellMetrics, CellReport, SweepReport};
pub use scenarios::{ClusterKind, Matrix, Scenario};
pub use sweep::{run_cell, run_sweep, run_sweep_filtered};
