//! Solve-job descriptions and the telemetry events they stream.

use krylov::{CycleEvent, FaultSpec, GmresOptions, SolveCheckpoint, SolveResult};
use std::time::Duration;

/// How a job picks its Krylov-basis storage format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BasisSelection {
    /// A fixed registry format by paper name (`float64`, `frsz2_21`,
    /// `frsz2_ab`, any Table II codec, ...).
    Fixed(String),
    /// Let [`krylov::auto_basis`] pick the cheapest ladder format whose
    /// accuracy floor clears the job's stopping target.
    Auto,
    /// Run the bidirectionally adaptive driver
    /// ([`krylov::adaptive_gmres`] with default policy): start at the
    /// bottom of the escalation ladder, escalate on stagnation
    /// evidence.
    Adaptive,
}

/// How the service retries a job whose attempt fails to converge
/// (breakdown, stagnation) or panics.
///
/// Each retry of a *numerical* failure escalates the basis format one
/// rung up the escalation ladder
/// ([`krylov::basis_format::escalate`]) — the same "compression was
/// too aggressive, spend more bytes" move the adaptive driver makes
/// mid-solve, applied across attempts. A panicked attempt is retried at
/// the same rung (a panic carries no evidence against the format).
/// Retries run at once: every attempt is deterministic, so waiting
/// cannot change its outcome. Deadline breaches are **not** retried:
/// the caller asked for the time limit, so the service returns
/// [`crate::ServiceError::DeadlineExceeded`] with the latest
/// checkpoint instead of burning more wall clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retries).
    pub max_retries: usize,
}

impl RetryPolicy {
    /// A policy with `max_retries` retries.
    pub fn quick(max_retries: usize) -> Self {
        RetryPolicy { max_retries }
    }
}

/// What one job actually took to finish: the result plus the retry
/// trail. Returned by [`crate::SolverService::solve_report`].
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The final attempt's solve result.
    pub result: SolveResult,
    /// Total attempts run (1 = first attempt succeeded).
    pub attempts: usize,
    /// Basis format each attempt started in (`"adaptive"` for
    /// [`BasisSelection::Adaptive`] jobs); the escalation trail of a
    /// retried job reads left to right.
    pub formats_tried: Vec<String>,
    /// Basis-corruption faults actually injected across all attempts
    /// (only ever nonzero when [`JobSpec::fault`] armed a
    /// [`FaultSpec::basis_flip`]).
    pub faults_injected: u64,
}

/// One solve job against a registered operator.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Name of the registered operator to solve against.
    pub operator: String,
    /// Right-hand side (must match the operator's row count).
    pub b: Vec<f64>,
    /// Initial guess; `None` starts from zero.
    pub x0: Option<Vec<f64>>,
    /// Basis-format selection for this job.
    pub basis: BasisSelection,
    /// Solver options (restart length, stopping target, ...).
    pub opts: GmresOptions,
    /// Worker threads for this job's slice of the pool. Each job
    /// installs its own fixed-size thread pool, and the workspace's
    /// determinism contract makes the result bit-identical for *any*
    /// value here.
    pub threads: usize,
    /// Krylov directions generated per outer step (the s-step panel
    /// width). `1` (the default) runs the scalar driver; larger values
    /// route `Fixed`/`Auto` jobs through [`krylov::solve`]'s
    /// [`krylov::SolvePlan::SStep`] driver, which clamps the request
    /// per basis format
    /// ([`krylov::BasisFormat::max_sstep`](krylov::basis_format::BasisFormat::max_sstep))
    /// and shrinks to 1 on a loss-of-orthogonality breach.
    /// [`BasisSelection::Adaptive`] ignores this knob — the adaptive
    /// driver owns its own cycle policy. Values are clamped up to 1 at
    /// admission, and the uncompressed f64 panel scratch is charged
    /// against the basis budget at the width the solver runs
    /// ([`krylov::sstep::gated_width`]).
    pub sstep: usize,
    /// Wall-clock budget for the whole job (all retries included).
    /// Checked cooperatively at every restart boundary: on breach the
    /// solve halts at the boundary and the service returns
    /// [`crate::ServiceError::DeadlineExceeded`] carrying the
    /// boundary's [`SolveCheckpoint`], from which a later job can
    /// [`JobSpec::resume`] bit-identically. `None` (the default) never
    /// interrupts.
    pub deadline: Option<Duration>,
    /// Retry failed attempts per this policy, each at once; `None`
    /// (the default) runs exactly one attempt.
    pub retry: Option<RetryPolicy>,
    /// Resume a previous solve from its checkpoint instead of starting
    /// fresh. The checkpoint's dimension, driver kind, and basis format
    /// must match what this spec resolves to (same `basis`/`sstep`/
    /// `opts`) — otherwise the job fails with
    /// [`crate::ServiceError::CheckpointMismatch`]; the resumed solve
    /// is bit-identical to the uninterrupted one. A
    /// retry that escalates away from the checkpoint's format starts
    /// that attempt fresh — the checkpoint's compressed trajectory
    /// belongs to the old format.
    pub resume: Option<Box<SolveCheckpoint>>,
    /// Deterministic fault injection (tests, benches, chaos drills);
    /// `None` (the default) injects nothing. See [`FaultSpec`].
    pub fault: Option<FaultSpec>,
}

impl JobSpec {
    /// A single-threaded, auto-format, scalar (`sstep = 1`) job with
    /// default solver options.
    pub fn new(operator: impl Into<String>, b: Vec<f64>) -> Self {
        JobSpec {
            operator: operator.into(),
            b,
            x0: None,
            basis: BasisSelection::Auto,
            opts: GmresOptions::default(),
            threads: 1,
            sstep: 1,
            deadline: None,
            retry: None,
            resume: None,
            fault: None,
        }
    }
}

/// One multi-RHS (block) solve job against a registered operator: all
/// right-hand sides share the operator and run through
/// [`krylov::block_gmres_dyn`]'s shared-space driver, so every matrix
/// sweep — and every decode sweep of the shared compressed basis — is
/// amortized over the block. Admission control charges the basis
/// reservation for the whole shared space — `width ×` the single-RHS
/// estimate, exactly the shared basis's `width · (restart+1)` columns.
/// It runs the lifecycle of a [`JobSpec`], panic isolation included,
/// without `sstep`, `deadline`, `retry`, `resume` or `fault`.
#[derive(Clone, Debug)]
pub struct BlockJobSpec {
    /// Name of the registered operator to solve against.
    pub operator: String,
    /// The right-hand sides (each must match the operator's row count;
    /// the block width `b` is `rhss.len()`).
    pub rhss: Vec<Vec<f64>>,
    /// Per-RHS initial guesses; `None` starts every RHS from zero.
    pub x0s: Option<Vec<Vec<f64>>>,
    /// Basis-format selection, applied to every lane.
    /// [`BasisSelection::Adaptive`] runs the lanes as independent
    /// adaptive solves (each lane may escalate at its own pace, which
    /// a single shared basis cannot express), still admitted as one
    /// job at the block-scaled worst case.
    pub basis: BasisSelection,
    /// Solver options, applied to every lane.
    pub opts: GmresOptions,
    /// Worker threads for this job's pool (same contract as
    /// [`JobSpec::threads`]: results are bit-identical for any value).
    pub threads: usize,
}

impl BlockJobSpec {
    /// A single-threaded, auto-format block job with default solver
    /// options.
    pub fn new(operator: impl Into<String>, rhss: Vec<Vec<f64>>) -> Self {
        BlockJobSpec {
            operator: operator.into(),
            rhss,
            x0s: None,
            basis: BasisSelection::Auto,
            opts: GmresOptions::default(),
            threads: 1,
        }
    }

    /// Block width `b` of this job.
    pub fn width(&self) -> usize {
        self.rhss.len()
    }
}

/// A per-cycle telemetry event of one job in a batch: the job index
/// plus the solver's [`CycleEvent`] snapshot (residual, format, basis
/// traffic).
#[derive(Clone, Debug, PartialEq)]
pub struct JobEvent {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// The restart-boundary snapshot.
    pub cycle: CycleEvent,
}

/// A per-cycle telemetry event of one right-hand side inside a block
/// solve: the RHS index plus that lane's [`CycleEvent`] (same boundary
/// semantics as a single solve — a lane's converged boundary emits no
/// event).
#[derive(Clone, Debug, PartialEq)]
pub struct RhsEvent {
    /// Index of the right-hand side within the block job.
    pub rhs: usize,
    /// The lane's restart-boundary snapshot.
    pub cycle: CycleEvent,
}
