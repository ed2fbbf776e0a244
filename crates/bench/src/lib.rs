//! Benchmark harness reproducing the paper's experimental evaluation.
//!
//! Section 6 of the paper reports two tables and eight figures. Every one of
//! them is implemented as a function in [`experiments`] that builds the
//! corresponding workload with `rnn-datagen`, runs the algorithms over the
//! disk-page backed graph of `rnn-storage`, and returns a [`report::Report`]
//! whose rows mirror the rows/series of the original table or figure.
//!
//! The `repro` binary (`cargo run -p rnn-bench --release --bin repro`)
//! consumes those functions: it prints paper-style tables and, with
//! `--json DIR`, writes each report as a machine-readable `BENCH_*.json`
//! artifact that `repro check` compares against a committed baseline.
//!
//! The default [`Scale::Quick`] sizes keep the whole suite at laptop scale
//! (tens of thousands of nodes); [`Scale::Full`] uses the paper's
//! cardinalities (up to 360K nodes) and takes correspondingly longer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{Measurement, Scale, Workload};
pub use report::Report;
