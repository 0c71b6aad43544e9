//! Experiment harness shared by the figure/table binaries.
//!
//! * [`formats`] — the `--format` and `--precond` names: every
//!   `krylov::basis_format` registry name plus the `adaptive` and
//!   `adaptive_bidir` presets, solved through `krylov::solve`, and the
//!   preconditioner constructors,
//! * [`runner`] — CLI options, suite problem setup, the one solve loop
//!   every solving figure runs,
//! * [`model`] — the H100 time projection Fig. 11 reports,
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
