//! A shim kept only for the benchmark package, whose service twin
//! builds its operator with `spla::auto_format(&csr).build(&csr)`.
//! CSR is the one sparse storage format, so the choice has one variant
//! and [`FormatChoice::build`] clones the matrix. New code holds the
//! [`Csr`] itself.

use crate::{Csr, SparseMatrix};

/// Outcome of [`auto_format`]: always CSR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormatChoice {
    Csr,
}

impl FormatChoice {
    /// A boxed clone of `a`.
    pub fn build(&self, a: &Csr) -> Box<dyn SparseMatrix> {
        Box::new(a.clone())
    }
}

/// Returns [`FormatChoice::Csr`] for every matrix.
pub fn auto_format(_a: &Csr) -> FormatChoice {
    FormatChoice::Csr
}
