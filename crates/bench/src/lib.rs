//! Experiment harness shared by the figure/table binaries.
//!
//! * [`formats`] — resolves the paper's storage-format names
//!   (`float64`, `float32`, `float16`, `frsz2_32`, Table II compressor
//!   configs) to concrete solver invocations,
//! * [`runner`] — CLI options, suite problem setup, solve loops,
//! * [`report`] — aligned-column console tables and CSV emission into
//!   `results/`,
//! * [`json`] — the offline JSON value, emitter and parser that the
//!   repository benchmark (`frsz2_bench`) builds on.
//!
//! The pinned-fingerprint contract lives in `tests/pinned.rs`; timing
//! lives in `frsz2_bench`.

pub mod formats;
pub mod json;
pub mod model;
pub mod report;
pub mod runner;
