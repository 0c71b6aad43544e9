//! Cached per-operator analysis.
//!
//! Registering a matrix with the service copies it and factorizes its
//! preconditioner **once**, and keeps both behind an `Arc`, so any
//! number of concurrent jobs share them read-only.

use crate::error::ServiceError;
use krylov::{auto_basis, BlockJacobi, Identity, Jacobi, Preconditioner};
use spla::{Csr, SparseMatrix};

/// Which preconditioner to factorize (once) at registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecondSpec {
    /// No preconditioning (`M = I`) — the paper's configuration.
    None,
    /// Point-Jacobi from the operator diagonal.
    Jacobi,
    /// Block-Jacobi with dense LU-factorized diagonal blocks of this
    /// size.
    BlockJacobi {
        /// Diagonal block edge length (rows per block); 0 and sizes
        /// above [`krylov::BlockJacobi::MAX_BLOCK_SIZE`] are refused at
        /// registration as [`crate::ServiceError::PrecondFailed`].
        block_size: usize,
    },
}

/// One registered operator: its CSR matrix plus the factorized
/// preconditioner jobs reuse.
pub(crate) struct AnalyzedOperator {
    pub(crate) name: String,
    /// The registered matrix, shared read-only by concurrent jobs.
    pub(crate) matrix: Csr,
    /// The factorized preconditioner, shared read-only like `matrix`.
    pub(crate) precond: Box<dyn Preconditioner>,
}

impl AnalyzedOperator {
    /// Copy the matrix and factorize its preconditioner.
    pub(crate) fn analyze(name: &str, a: &Csr, precond: PrecondSpec) -> Result<Self, ServiceError> {
        let failed = |source| ServiceError::PrecondFailed {
            operator: name.to_string(),
            source,
        };
        let precond: Box<dyn Preconditioner> = match precond {
            PrecondSpec::None => Box::new(Identity),
            PrecondSpec::Jacobi => Box::new(Jacobi::try_new(a).map_err(failed)?),
            PrecondSpec::BlockJacobi { block_size } => {
                Box::new(BlockJacobi::try_new(a, block_size).map_err(failed)?)
            }
        };
        Ok(AnalyzedOperator {
            name: name.to_string(),
            matrix: a.clone(),
            precond,
        })
    }

    /// The basis format [`krylov::auto_basis`] recommends for a solve
    /// on this operator with the given stopping target and restart
    /// length (a pure function of the cached dimensions).
    pub(crate) fn recommended_basis(&self, target_rrn: f64, restart: usize) -> String {
        auto_basis(target_rrn, self.matrix.rows(), restart).name()
    }

    /// Public snapshot of the cached analysis.
    pub(crate) fn info(&self, target_rrn: f64, restart: usize) -> OperatorInfo {
        OperatorInfo {
            name: self.name.clone(),
            rows: self.matrix.rows(),
            cols: self.matrix.cols(),
            nnz: self.matrix.nnz(),
            storage_bytes: self.matrix.storage_bytes(),
            preconditioner: self.precond.name().to_string(),
            recommended_basis: self.recommended_basis(target_rrn, restart),
        }
    }
}

/// Snapshot of one operator's cached analysis, as returned by
/// [`crate::SolverService::register_csr`] and
/// [`crate::SolverService::operator_info`].
#[derive(Clone, Debug, PartialEq)]
pub struct OperatorInfo {
    /// Registration name jobs refer to.
    pub name: String,
    /// Operator row count.
    pub rows: usize,
    /// Operator column count.
    pub cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Bytes the operator's CSR arrays hold.
    pub storage_bytes: usize,
    /// Name of the factorized preconditioner (`none`/`jacobi`/
    /// `block-jacobi`).
    pub preconditioner: String,
    /// Basis format [`krylov::auto_basis`] recommends at the default
    /// solver options (per-job `Auto` selection re-evaluates for the
    /// job's own target).
    pub recommended_basis: String,
}
