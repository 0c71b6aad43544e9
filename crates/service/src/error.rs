//! Typed errors of the solver service.
//!
//! Every rejection a caller can hit — unknown names, shape mismatches,
//! preconditioner failures, admission-control denials — is a variant
//! here, never a panic: a service survives a bad job; a library call
//! may not.

use krylov::{CheckpointError, PrecondError, SolveCheckpoint};

/// Why the service refused a registration or a solve job.
///
/// (`Eq` is deliberately absent: [`ServiceError::DeadlineExceeded`]
/// carries a [`SolveCheckpoint`] full of `f64`s.)
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The job names an operator that was never registered.
    UnknownOperator(String),
    /// An operator with this name is already registered (re-registering
    /// would silently invalidate cached analysis other jobs rely on).
    DuplicateOperator(String),
    /// The matrix offered for registration is not square; GMRES solves
    /// `A x = b` for square `A` only.
    NonSquareOperator {
        /// Name the registration asked for.
        operator: String,
        /// The matrix's row count.
        rows: usize,
        /// The matrix's column count.
        cols: usize,
    },
    /// The job's `opts.restart` is outside `1..=rows`: a cycle of 0
    /// stores no Krylov column, and the Krylov space of a `rows`-row
    /// operator has at most `rows` directions, so a longer cycle only
    /// allocates columns it cannot fill. Refused before admission.
    RestartOutOfRange {
        /// Operator the job targeted.
        operator: String,
        /// The job's restart length.
        restart: usize,
        /// The operator's row count.
        rows: usize,
    },
    /// The job's fixed basis format is not in the
    /// `krylov::basis_format` registry.
    UnknownFormat(String),
    /// The job's right-hand side (or initial guess) does not match the
    /// operator's dimension.
    DimensionMismatch {
        /// Registered operator the job targeted.
        operator: String,
        /// The operator's row count.
        rows: usize,
        /// Length of the offending vector.
        got: usize,
    },
    /// The requested preconditioner could not be factorized for this
    /// operator (zero diagonal, singular block, ...).
    PrecondFailed {
        /// Operator the factorization ran against.
        operator: String,
        /// The underlying factorization error.
        source: PrecondError,
    },
    /// Admitting the job would exceed the configured compressed-basis
    /// memory budget. Under [`crate::AdmissionPolicy::Reject`] this is
    /// returned whenever the reservation does not fit *right now*;
    /// under [`crate::AdmissionPolicy::Queue`] only when the job could
    /// never fit (its reservation alone exceeds the whole budget).
    BudgetExceeded {
        /// Operator the rejected job targeted.
        operator: String,
        /// Bytes the job's basis reservation asked for.
        requested: u64,
        /// The configured budget in bytes.
        budget: u64,
        /// Bytes reserved by in-flight jobs at decision time.
        in_use: u64,
    },
    /// A queued job waited longer than the admission timeout
    /// configured on [`crate::AdmissionPolicy::Queue`] without the
    /// budget draining enough to admit it.
    AdmissionTimeout {
        /// Operator the timed-out job targeted.
        operator: String,
        /// Bytes the job's basis reservation asked for.
        requested: u64,
        /// The configured budget in bytes.
        budget: u64,
        /// Bytes reserved by in-flight jobs when the wait gave up.
        in_use: u64,
        /// How long the job waited, in milliseconds.
        waited_ms: u64,
    },
    /// The job's wall-clock deadline passed. The solve halted
    /// cooperatively at the next restart boundary and its state at
    /// that boundary rides along: [`JobSpec::resume`] a follow-up job
    /// from `checkpoint` and it continues **bit-identically** to the
    /// uninterrupted solve — no progress is lost, only postponed.
    ///
    /// [`JobSpec::resume`]: crate::JobSpec::resume
    DeadlineExceeded {
        /// Operator the interrupted job targeted.
        operator: String,
        /// The deadline that was breached, in milliseconds.
        deadline_ms: u64,
        /// The solve's state at the boundary where it halted.
        checkpoint: Box<SolveCheckpoint>,
    },
    /// The job's [`JobSpec::resume`] checkpoint was captured by a
    /// different solve (another dimension, driver, or basis format).
    /// Refused before admission and never retried: no attempt can
    /// resume it.
    ///
    /// [`JobSpec::resume`]: crate::JobSpec::resume
    CheckpointMismatch {
        /// Operator the job targeted.
        operator: String,
        /// What does not match.
        source: CheckpointError,
    },
    /// The job's solve or its observer panicked (every attempt, if
    /// retries were configured). The panic was caught at the job
    /// boundary — other jobs in the batch, and the service itself, are
    /// unaffected.
    JobPanicked {
        /// Operator the panicked job targeted.
        operator: String,
        /// Attempts run before giving up (≥ 1).
        attempts: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownOperator(name) => {
                write!(f, "no operator named {name:?} is registered")
            }
            ServiceError::DuplicateOperator(name) => {
                write!(f, "operator {name:?} is already registered")
            }
            ServiceError::NonSquareOperator {
                operator,
                rows,
                cols,
            } => write!(
                f,
                "operator {operator:?} is {rows}×{cols}; GMRES needs a square matrix"
            ),
            ServiceError::RestartOutOfRange {
                operator,
                restart,
                rows,
            } => write!(
                f,
                "job on {operator:?} has restart length {restart}, outside 1..={rows}"
            ),
            ServiceError::UnknownFormat(name) => {
                write!(f, "unknown basis format {name:?}")
            }
            ServiceError::DimensionMismatch {
                operator,
                rows,
                got,
            } => write!(
                f,
                "operator {operator:?} has {rows} rows but the job vector has {got}"
            ),
            ServiceError::PrecondFailed { operator, source } => {
                write!(
                    f,
                    "preconditioner for operator {operator:?} failed: {source}"
                )
            }
            ServiceError::BudgetExceeded {
                operator,
                requested,
                budget,
                in_use,
            } => write!(
                f,
                "job on {operator:?} needs {requested} basis bytes but only {} of the \
                 {budget}-byte budget are free ({in_use} in use)",
                budget.saturating_sub(*in_use)
            ),
            ServiceError::AdmissionTimeout {
                operator,
                requested,
                budget,
                in_use,
                waited_ms,
            } => write!(
                f,
                "job on {operator:?} waited {waited_ms} ms for {requested} basis bytes \
                 but the {budget}-byte budget never drained ({in_use} still in use)"
            ),
            ServiceError::DeadlineExceeded {
                operator,
                deadline_ms,
                checkpoint,
            } => write!(
                f,
                "job on {operator:?} hit its {deadline_ms} ms deadline at restart \
                 boundary {} (relative residual {:.3e}; resume from the attached checkpoint)",
                checkpoint.stats.restarts, checkpoint.stats.final_rrn
            ),
            ServiceError::CheckpointMismatch { operator, source } => {
                write!(
                    f,
                    "job on {operator:?} cannot resume its checkpoint: {source}"
                )
            }
            ServiceError::JobPanicked {
                operator,
                attempts,
                message,
            } => write!(
                f,
                "job on {operator:?} panicked after {attempts} attempt(s): {message}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::PrecondFailed { source, .. } => Some(source),
            ServiceError::CheckpointMismatch { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(ServiceError::UnknownOperator("pr02r".into())
            .to_string()
            .contains("pr02r"));
        let e = ServiceError::NonSquareOperator {
            operator: "wide".into(),
            rows: 3,
            cols: 4,
        };
        assert!(e.to_string().contains("\"wide\" is 3×4"));
        let e = ServiceError::RestartOutOfRange {
            operator: "flat".into(),
            restart: 0,
            rows: 216,
        };
        assert!(e
            .to_string()
            .contains("\"flat\" has restart length 0, outside 1..=216"));
        let e = ServiceError::BudgetExceeded {
            operator: "big".into(),
            requested: 900,
            budget: 1000,
            in_use: 400,
        };
        let msg = e.to_string();
        assert!(msg.contains("900") && msg.contains("1000") && msg.contains("400"));
        // Free-byte arithmetic saturates instead of underflowing.
        assert!(msg.contains("600"));
    }

    #[test]
    fn fault_tolerance_messages_carry_the_recovery_handle() {
        let e = ServiceError::AdmissionTimeout {
            operator: "busy".into(),
            requested: 300,
            budget: 1000,
            in_use: 900,
            waited_ms: 250,
        };
        let msg = e.to_string();
        assert!(msg.contains("busy") && msg.contains("250 ms") && msg.contains("300"));

        let mut cp = SolveCheckpoint::default();
        cp.stats.restarts = 4;
        cp.stats.final_rrn = 1.25e-5;
        let e = ServiceError::DeadlineExceeded {
            operator: "slow".into(),
            deadline_ms: 10,
            checkpoint: Box::new(cp),
        };
        let msg = e.to_string();
        assert!(msg.contains("slow") && msg.contains("10 ms") && msg.contains("boundary 4"));
        assert!(msg.contains("resume"));

        let e = ServiceError::JobPanicked {
            operator: "boom".into(),
            attempts: 2,
            message: "injected job panic".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("boom") && msg.contains("2 attempt") && msg.contains("injected"));
    }

    #[test]
    fn precond_failure_exposes_its_source() {
        use std::error::Error;
        let e = ServiceError::PrecondFailed {
            operator: "scaled".into(),
            source: PrecondError::ZeroDiagonal { row: 3 },
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("row 3"));
    }
}
