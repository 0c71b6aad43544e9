//! Sparse linear-algebra substrate for the FRSZ2 / CB-GMRES reproduction.
//!
//! Provides everything the solver and the evaluation need below the Krylov
//! layer:
//!
//! * [`coo`]/[`csr`] — triplet assembly and compressed-sparse-row
//!   storage, the one sparse format, with rayon-parallel SpMV (the
//!   memory-bound kernel of GMRES step 3),
//! * [`matrix`] — the [`SparseMatrix`] trait the solver stack is generic
//!   over, so `&dyn` operators and instrumented wrappers run it too,
//! * [`select`] — `auto_format`, a shim that always returns CSR, kept
//!   for the benchmark package's one call,
//! * [`dense`] — deterministic parallel vector kernels (dot, norm2, axpy),
//! * [`io`] — MatrixMarket reading/writing so the real SuiteSparse
//!   matrices of Table I can be dropped in when available,
//! * [`gen`] — parameterized problem generators (convection–diffusion
//!   stencils, scaled wide-dynamic-range operators, tree transport),
//! * [`suite`] — the eleven named analogues of the paper's Table I test
//!   set, with the published sizes, non-zero counts and target relative
//!   residual norms,
//! * [`stats`] — value/exponent histograms (Figs. 2 and 10).
//!
//! All generators are deterministic: the same name and scale always
//! produce the same matrix, so solver histories are reproducible.

pub mod coo;
pub mod csr;
pub mod dense;
pub mod gen;
pub mod io;
pub mod matrix;
pub mod select;
pub mod stats;
pub mod suite;

pub use coo::Coo;
pub use csr::Csr;
pub use matrix::SparseMatrix;
pub use select::{auto_format, FormatChoice};
pub use suite::{SuiteMatrix, TableOneEntry, TABLE_ONE};
