//! A long-lived, concurrent front end for the CB-GMRES solver stack.
//!
//! The library crates answer "solve this system once": every call pays
//! for sparse-format selection, row statistics, and preconditioner
//! factorization again. [`SolverService`] amortizes that work the way a
//! resident solver process would:
//!
//! 1. **Register** each matrix once ([`SolverService::register_csr`]).
//!    Registration runs the expensive analysis a single time — the
//!    `spla::auto_format` choice, row-length statistics, and the
//!    factorized preconditioner are cached behind an `Arc` and shared
//!    read-only by every later job.
//! 2. **Submit** solve jobs ([`JobSpec`]) against registered operators,
//!    one at a time ([`SolverService::solve`]) or as a concurrent batch
//!    ([`SolverService::run_batch`]). Each job picks a basis format
//!    ([`BasisSelection`]): a fixed registry name, the accuracy-floor
//!    `Auto` pick, or the bidirectionally `Adaptive` ladder. Many
//!    right-hand sides against one operator go in as a single
//!    [`BlockJobSpec`] ([`SolverService::solve_block`]), routed to the
//!    shared-space block driver so every matrix sweep and every decode
//!    sweep of the compressed basis is amortized over the whole block.
//! 3. **Observe** per-cycle telemetry — explicit residual, basis format
//!    in effect, compressed-basis traffic — through a callback
//!    ([`SolverService::solve_report_observed`]) or an `mpsc` channel
//!    ([`SolverService::run_batch_streaming`]).
//!
//! # Determinism under concurrency
//!
//! The workspace's bit-identity contract (chunk dealing by item count,
//! task-ordered combination) makes every solve independent of its
//! worker-thread count. The service leans on it: each job installs its
//! own thread pool, so a batch of concurrent jobs returns results
//! byte-for-byte equal to the same jobs run sequentially on one thread
//! — the `service` bench suite fingerprint-checks exactly this.
//!
//! # Admission control
//!
//! The Krylov basis dominates a job's memory (`restart + 1` columns of
//! `rows` values in the selected format). A [`ServiceConfig`] budget
//! caps the bytes reserved by in-flight jobs: a job that does not fit
//! is rejected with the typed [`ServiceError::BudgetExceeded`] (policy
//! [`AdmissionPolicy::Reject`]) or parked until capacity frees
//! ([`AdmissionPolicy::Queue`], optionally bounded by a wait timeout
//! that surfaces as [`ServiceError::AdmissionTimeout`]) — the service
//! never OOMs on a burst. Block jobs are charged per lane: `width ×`
//! the single-RHS estimate (and `8 · rows · (restart + 1) · width` for
//! the adaptive worst case), so a 16-RHS job cannot sneak in under a
//! single-solve budget.
//!
//! # Fault tolerance
//!
//! A resident solver outlives individual failures. Each [`JobSpec`]
//! can carry
//!
//! - a **deadline** ([`JobSpec::deadline`]): checked cooperatively at
//!   every restart boundary; on breach the job returns
//!   [`ServiceError::DeadlineExceeded`] with the boundary's
//!   [`SolveCheckpoint`], and a follow-up job can
//!   [`JobSpec::resume`] from it **bit-identically** to the
//!   uninterrupted solve;
//! - a **retry policy** ([`RetryPolicy`]): non-converged attempts are
//!   retried after bounded exponential backoff with the basis format
//!   escalated one ladder rung per attempt; panicking attempts are
//!   caught (`catch_unwind` at the job boundary) and retried at the
//!   same rung, surfacing as [`ServiceError::JobPanicked`] only when
//!   retries are exhausted;
//! - a **fault plan** ([`FaultSpec`]): deterministic basis bit-flips,
//!   Hessenberg NaNs, injected panics and per-boundary sleeps, used by
//!   the tests and the `faults` bench suite to prove every detection
//!   path fires. Detection is structural — convergence is only ever
//!   decided from the explicit residual `‖b − Ax‖/‖b‖` — so injected
//!   corruption can slow a solve or fail it, never fake a solution.
//!
//! # Example
//!
//! ```
//! use solver_service::{JobSpec, PrecondSpec, SolverService};
//! use spla::dense::manufactured_rhs;
//! use spla::gen;
//!
//! let service = SolverService::with_defaults();
//! let a = gen::conv_diff_3d(6, 6, 6, [0.3, 0.2, 0.1], 0.3);
//! let info = service.register_csr("demo", &a, PrecondSpec::Jacobi)?;
//! assert_eq!(info.rows, 216);
//!
//! let (_, b) = manufactured_rhs(&a);
//! let mut spec = JobSpec::new("demo", b); // Auto basis, 1 thread
//! spec.opts.target_rrn = 1e-8;
//! let result = service.solve(&spec)?;
//! assert!(result.stats.converged);
//! # Ok::<(), solver_service::ServiceError>(())
//! ```

#![warn(missing_docs)]

mod admission;
mod error;
mod job;
mod operator;
mod service;

pub use admission::AdmissionPolicy;
pub use error::ServiceError;
pub use job::{BasisSelection, BlockJobSpec, JobEvent, JobReport, JobSpec, RetryPolicy, RhsEvent};
pub use operator::{OperatorInfo, PrecondSpec};
pub use service::{
    estimated_adaptive_basis_bytes, estimated_basis_bytes, ServiceConfig, SolverService,
};

// The fault-tolerance vocabulary callers need to drive deadlines,
// resume, and fault injection without importing `krylov` themselves.
pub use krylov::{BasisBitFlip, FaultSpec, SolveCheckpoint};
