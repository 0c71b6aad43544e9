//! The long-lived [`SolverService`].

use crate::admission::{AdmissionPolicy, Ledger};
use crate::error::ServiceError;
use crate::job::{BasisSelection, BlockJobSpec, JobEvent, JobReport, JobSpec, RhsEvent};
use crate::operator::{AnalyzedOperator, OperatorInfo, PrecondSpec};
use krylov::basis_format::{self, BasisFormat};
use krylov::{
    block_gmres_dyn_observed, AdaptiveOptions, BlockSolveResult, CycleEvent, FaultPlan,
    FaultyFormat, GmresOptions, SStepOptions, SolveCheckpoint, SolveControl, SolveHooks, SolvePlan,
    SolveResult,
};
use spla::Csr;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Best-effort string form of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Service-wide configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceConfig {
    /// Upper bound on the compressed-basis bytes of all in-flight jobs
    /// combined; `None` disables admission control.
    pub basis_budget_bytes: Option<u64>,
    /// What to do with a job that does not fit the remaining budget.
    pub admission: AdmissionPolicy,
}

/// Estimated basis reservation of a fixed-format job: one column of
/// `rows` values at the format's nominal rate (Eq. 3 for FRSZ2), times
/// the `restart + 1` columns a cycle stores, times the `width` lanes of
/// a block job (each RHS keeps its own compressed Krylov lane — pass
/// `1` for a single-RHS job). An `sstep > 1` job additionally holds the
/// uncompressed f64 s-step panel — the matrix-powers buffer plus the
/// interleaved working panel, two `rows · sstep` f64 arrays — which is
/// charged on top (pass `1` for a scalar job; the panel lives once per
/// job, not per lane). This is the number admission control charges
/// against the budget — an a-priori bound, deliberately computed from
/// the *registry* rate rather than a live store, so rejection happens
/// before any allocation.
pub fn estimated_basis_bytes(
    format: &dyn BasisFormat,
    rows: usize,
    restart: usize,
    width: usize,
    sstep: usize,
) -> u64 {
    let column = (format.bits_per_value(rows) * rows as f64 / 8.0).ceil() as u64;
    let panel = if sstep > 1 {
        2 * 8 * rows as u64 * sstep as u64
    } else {
        0
    };
    column * (restart as u64 + 1) * width as u64 + panel
}

/// Resolve a job's basis selection to a registry format (`None` for
/// the adaptive driver) before anything touches the budget, so every
/// rejection is typed.
fn resolve_format(
    basis: &BasisSelection,
    opts: &GmresOptions,
    rows: usize,
) -> Result<Option<Box<dyn BasisFormat>>, ServiceError> {
    Ok(match basis {
        BasisSelection::Fixed(name) => Some(
            basis_format::by_name(name).ok_or_else(|| ServiceError::UnknownFormat(name.clone()))?,
        ),
        BasisSelection::Auto => Some(krylov::auto_basis(opts.target_rrn, rows, opts.restart)),
        BasisSelection::Adaptive => None,
    })
}

/// The option structs a job's [`SolvePlan`] borrows, built from its
/// solver options and s-step width.
fn plan_options(opts: &GmresOptions, sstep: usize) -> (SStepOptions, AdaptiveOptions) {
    let sopts = SStepOptions {
        s: sstep,
        loo_budget: None,
        gmres: opts.clone(),
    };
    let aopts = AdaptiveOptions {
        gmres: opts.clone(),
        ..AdaptiveOptions::default()
    };
    (sopts, aopts)
}

/// The plan a job runs: the adaptive driver when no format is fixed
/// (it owns its own cycle policy and ignores the s-step knob), the
/// s-step driver for `sstep > 1`, the scalar driver otherwise.
fn job_plan<'a>(
    format: Option<&'a dyn BasisFormat>,
    sopts: &'a SStepOptions,
    aopts: &'a AdaptiveOptions,
) -> SolvePlan<'a> {
    match format {
        Some(f) if sopts.s > 1 => SolvePlan::SStep(f, sopts),
        Some(f) => SolvePlan::Fixed(f, &sopts.gmres),
        None => SolvePlan::Adaptive(aopts),
    }
}

/// Worst-case basis reservation of an adaptive job: the escalation
/// ladder may end at `float64`, so the full 8 bytes/value are charged
/// up front for every lane — `8 · rows · (restart + 1) · width` (a
/// budget that admits the optimistic start but not the escalated end
/// would OOM exactly when the solve needs help most; pass `width = 1`
/// for a single-RHS job).
pub fn estimated_adaptive_basis_bytes(rows: usize, restart: usize, width: usize) -> u64 {
    8 * rows as u64 * (restart as u64 + 1) * width as u64
}

/// A long-lived solver front end: operators are registered (and
/// analyzed) once, then any number of solve jobs run against the cached
/// analysis — sequentially or concurrently, with per-cycle telemetry
/// and admission control against a basis-memory budget. See the crate
/// docs for a walkthrough.
pub struct SolverService {
    config: ServiceConfig,
    operators: RwLock<HashMap<String, Arc<AnalyzedOperator>>>,
    ledger: Ledger,
}

impl SolverService {
    /// Build a service with the given budget/admission configuration.
    pub fn new(config: ServiceConfig) -> Self {
        SolverService {
            config,
            operators: RwLock::new(HashMap::new()),
            ledger: Ledger::new(config.basis_budget_bytes, config.admission),
        }
    }

    /// Build an unlimited service (no admission control).
    pub fn with_defaults() -> Self {
        Self::new(ServiceConfig::default())
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Compressed-basis bytes currently reserved by in-flight jobs
    /// (always 0 when no budget is configured).
    pub fn basis_bytes_in_use(&self) -> u64 {
        self.ledger.in_use()
    }

    /// Register a matrix under `name`, running the expensive
    /// per-operator analysis once: sparse-format auto-selection,
    /// row-length statistics, preconditioner factorization. Returns the
    /// cached analysis snapshot. Fails with
    /// [`ServiceError::DuplicateOperator`] if the name is taken and
    /// [`ServiceError::PrecondFailed`] if the factorization rejects the
    /// operator.
    pub fn register_csr(
        &self,
        name: &str,
        a: &Csr,
        precond: PrecondSpec,
    ) -> Result<OperatorInfo, ServiceError> {
        if self
            .operators
            .read()
            .expect("registry lock")
            .contains_key(name)
        {
            return Err(ServiceError::DuplicateOperator(name.to_string()));
        }
        // Analyze outside the write lock: registration of independent
        // operators can proceed concurrently.
        let analyzed = Arc::new(AnalyzedOperator::analyze(name, a, precond)?);
        let opts = GmresOptions::default();
        let info = analyzed.info(opts.target_rrn, opts.restart);
        let mut registry = self.operators.write().expect("registry lock");
        if registry.contains_key(name) {
            return Err(ServiceError::DuplicateOperator(name.to_string()));
        }
        registry.insert(name.to_string(), analyzed);
        Ok(info)
    }

    /// Names of all registered operators (sorted, for stable output).
    pub fn operator_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .operators
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Cached analysis snapshot of a registered operator.
    pub fn operator_info(&self, name: &str) -> Result<OperatorInfo, ServiceError> {
        let opts = GmresOptions::default();
        Ok(self.operator(name)?.info(opts.target_rrn, opts.restart))
    }

    /// The basis format [`krylov::auto_basis`] recommends for a solve
    /// on `operator` with this stopping target and restart length.
    pub fn recommended_basis(
        &self,
        operator: &str,
        target_rrn: f64,
        restart: usize,
    ) -> Result<String, ServiceError> {
        Ok(self
            .operator(operator)?
            .recommended_basis(target_rrn, restart))
    }

    fn operator(&self, name: &str) -> Result<Arc<AnalyzedOperator>, ServiceError> {
        self.operators
            .read()
            .expect("registry lock")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownOperator(name.to_string()))
    }

    /// Run one job to completion on the calling thread (under the job's
    /// own thread pool), without telemetry.
    ///
    /// The job is admitted against the basis budget first (a typed
    /// [`ServiceError::BudgetExceeded`] instead of an allocation
    /// failure), then solved inside a dedicated pool of
    /// [`JobSpec::threads`] workers. The bit-identity contract makes
    /// the result independent of that thread count, which is what lets
    /// [`SolverService::run_batch`] check concurrent jobs against
    /// sequential reference runs.
    pub fn solve(&self, spec: &JobSpec) -> Result<SolveResult, ServiceError> {
        self.solve_report_observed(spec, |_| {}).map(|r| r.result)
    }

    /// [`SolverService::solve`] returning the full [`JobReport`] —
    /// the result plus the retry trail (attempt count, the basis
    /// format each attempt started in, faults injected).
    pub fn solve_report(&self, spec: &JobSpec) -> Result<JobReport, ServiceError> {
        self.solve_report_observed(spec, |_| {})
    }

    /// The fault-tolerant solve path: every `solve*` entry funnels
    /// here, streaming a [`CycleEvent`] to `observe` at every restart
    /// boundary (a pure spectator: observed and unobserved runs are
    /// bit-identical). On top of the plain solve it implements
    ///
    /// - **deadlines** ([`JobSpec::deadline`]): checked cooperatively
    ///   at every restart boundary; on breach the solve halts at the
    ///   boundary and [`ServiceError::DeadlineExceeded`] carries that
    ///   boundary's [`SolveCheckpoint`] (deadline breaches are never
    ///   retried);
    /// - **resume** ([`JobSpec::resume`]): continue a checkpointed
    ///   solve bit-identically to the uninterrupted run; a checkpoint
    ///   that does not fit the job (dimension, driver, format) is
    ///   refused before admission as
    ///   [`ServiceError::CheckpointMismatch`] and never retried;
    /// - **retry with escalation** ([`JobSpec::retry`]): a
    ///   non-converged attempt (breakdown, stagnation) is retried
    ///   after a bounded exponential backoff with the basis format
    ///   escalated one ladder rung
    ///   ([`krylov::basis_format::escalate`]); a panicked attempt is
    ///   caught ([`ServiceError::JobPanicked`] once retries are
    ///   exhausted) and retried at the same rung;
    /// - **fault injection** ([`JobSpec::fault`]): deterministic basis
    ///   bit-flips, Hessenberg NaNs, injected panics and per-boundary
    ///   sleeps, for tests and the `faults` bench suite.
    ///
    /// A retry-enabled fixed/auto-format job is admitted at the
    /// ladder-top (`float64`) worst case up front, like an adaptive
    /// job: escalating mid-job must not be able to OOM past the
    /// budget, and re-admitting between attempts could deadlock a
    /// queued batch.
    pub fn solve_report_observed(
        &self,
        spec: &JobSpec,
        mut observe: impl FnMut(&CycleEvent),
    ) -> Result<JobReport, ServiceError> {
        let op = self.operator(&spec.operator)?;
        let rows = op.matrix.rows();
        let mut lens = std::iter::once(&spec.b).chain(&spec.x0).map(Vec::len);
        if let Some(got) = lens.find(|&len| len != rows) {
            return Err(ServiceError::DimensionMismatch {
                operator: spec.operator.clone(),
                rows,
                got,
            });
        }
        let format = resolve_format(&spec.basis, &spec.opts, rows)?;
        let sstep = spec.sstep.max(1);
        if let Some(cp) = spec.resume.as_deref() {
            let (sopts, aopts) = plan_options(&spec.opts, sstep);
            cp.check_resume(rows, &job_plan(format.as_deref(), &sopts, &aopts))
                .map_err(|source| ServiceError::CheckpointMismatch {
                    operator: spec.operator.clone(),
                    source,
                })?;
        }
        let requested = match &format {
            // Retries may escalate all the way to float64: charge the
            // ladder-top worst case up front (escalation does not change
            // the panel scratch).
            Some(_) if spec.retry.is_some() => {
                let top = basis_format::by_name("float64").expect("float64 is registered");
                estimated_basis_bytes(top.as_ref(), rows, spec.opts.restart, 1, sstep)
            }
            Some(f) => estimated_basis_bytes(f.as_ref(), rows, spec.opts.restart, 1, sstep),
            // The adaptive driver owns its own cycle policy and ignores
            // the s-step knob, so no panel scratch is charged.
            None => estimated_adaptive_basis_bytes(rows, spec.opts.restart, 1),
        };
        let _reservation = self.ledger.admit(&spec.operator, requested)?;

        let zeros;
        let x0: &[f64] = match &spec.x0 {
            Some(x0) => x0,
            None => {
                zeros = vec![0.0; rows];
                &zeros
            }
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(spec.threads.max(1))
            .build()
            .expect("job thread pool");

        // The deadline clock spans the whole job: retries and their
        // backoffs burn the same budget as the first attempt.
        let job_start = Instant::now();
        let deadline = spec.deadline;
        let fault = spec.fault.as_ref();
        let sleep_per_boundary = fault.map_or(0, |f| f.sleep_per_boundary_ms);
        let fault_fired = Arc::new(AtomicU64::new(0));
        let max_retries = spec.retry.map_or(0, |r| r.max_retries);

        let mut attempts = 0usize;
        let mut formats_tried: Vec<String> = Vec::new();
        // The current rung: retries escalate this one step at a time.
        let mut format_name: Option<String> = format.as_ref().map(|f| f.name());
        let mut escalated = false;
        loop {
            attempts += 1;
            formats_tried.push(
                format_name
                    .clone()
                    .unwrap_or_else(|| "adaptive".to_string()),
            );
            // Numerical faults are format-gated: after an escalation
            // moves past `only_in_format`, they stop firing — which is
            // what makes retry-until-recovered deterministic.
            let faults_apply = fault
                .is_some_and(|f| f.applies_to_format(format_name.as_deref().unwrap_or("adaptive")));
            let mut opts = spec.opts.clone();
            if faults_apply {
                opts.fault_nan_hessenberg_at = fault.and_then(|f| f.nan_hessenberg_at);
            }
            let attempt_format: Option<Box<dyn BasisFormat>> = format_name.as_deref().map(|n| {
                let base = basis_format::by_name(n).expect("ladder formats are registered");
                match fault.and_then(|f| f.basis_flip).filter(|_| faults_apply) {
                    Some(flip) => Box::new(FaultyFormat::new(
                        base,
                        FaultPlan {
                            flip_on_write: Some(flip),
                            fired: Arc::clone(&fault_fired),
                        },
                    )) as Box<dyn BasisFormat>,
                    None => base,
                }
            });
            // A checkpoint only resumes the format (and driver) it was
            // captured in: once a retry escalates away, attempts start
            // fresh.
            let resume_cp: Option<&SolveCheckpoint> = if escalated {
                None
            } else {
                spec.resume.as_deref()
            };
            let panic_now = fault.is_some_and(|f| f.panic_on_attempt == Some(attempts - 1));
            // Only pay for the boundary probe when something is armed.
            let control_armed = deadline.is_some() || sleep_per_boundary > 0;
            let mut halted_cp: Option<SolveCheckpoint> = None;

            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if panic_now {
                    panic!("injected job panic (attempt {})", attempts - 1);
                }
                pool.install(|| {
                    let mut probe = |cp: &SolveCheckpoint| {
                        if sleep_per_boundary > 0 {
                            std::thread::sleep(Duration::from_millis(sleep_per_boundary));
                        }
                        match deadline {
                            Some(d) if job_start.elapsed() >= d => {
                                halted_cp = Some(cp.clone());
                                SolveControl::Halt
                            }
                            _ => SolveControl::Continue,
                        }
                    };
                    let (sopts, aopts) = plan_options(&opts, sstep);
                    let hooks = SolveHooks {
                        observe: Some(&mut observe),
                        control: if control_armed {
                            Some(&mut probe)
                        } else {
                            None
                        },
                        resume: resume_cp,
                    };
                    krylov::solve(
                        op.matrix.as_ref(),
                        &spec.b,
                        x0,
                        &op.precond,
                        job_plan(attempt_format.as_deref(), &sopts, &aopts),
                        hooks,
                    )
                })
            }));

            match outcome {
                Err(payload) => {
                    // Panic isolation: the job dies, the service (and
                    // the rest of the batch) does not. A panic carries
                    // no evidence against the format, so retries stay
                    // on the same rung.
                    if attempts <= max_retries {
                        self.backoff(spec, attempts);
                        continue;
                    }
                    return Err(ServiceError::JobPanicked {
                        operator: spec.operator.clone(),
                        attempts,
                        message: panic_message(payload),
                    });
                }
                // Checked before admission; a retry that escalated
                // away resumes nothing.
                Ok(Err(source)) => {
                    return Err(ServiceError::CheckpointMismatch {
                        operator: spec.operator.clone(),
                        source,
                    });
                }
                Ok(Ok(done)) if done.halted => {
                    // Cooperative deadline halt: progress is postponed,
                    // not lost — the checkpoint resumes bit-identically.
                    return Err(ServiceError::DeadlineExceeded {
                        operator: spec.operator.clone(),
                        deadline_ms: deadline.map_or(0, |d| d.as_millis() as u64),
                        checkpoint: Box::new(
                            halted_cp.expect("a halted solve captured its boundary checkpoint"),
                        ),
                    });
                }
                Ok(Ok(done)) => {
                    let result = done.result;
                    let report = |result| JobReport {
                        result,
                        attempts,
                        formats_tried: formats_tried.clone(),
                        faults_injected: fault_fired.load(Ordering::Relaxed),
                    };
                    if result.stats.converged || attempts > max_retries {
                        return Ok(report(result));
                    }
                    // Numerical failure (breakdown or stagnation):
                    // spend more bytes per basis value and try again.
                    match format_name.as_deref().and_then(basis_format::escalate) {
                        Some(up) => {
                            format_name = Some(up);
                            escalated = true;
                        }
                        // Already at the ladder top (or adaptive, which
                        // escalates internally): nothing smarter to try.
                        None => return Ok(report(result)),
                    }
                    self.backoff(spec, attempts);
                }
            }
        }
    }

    /// Sleep the bounded exponential backoff before 1-based retry
    /// `attempt` of `spec`.
    fn backoff(&self, spec: &JobSpec, attempt: usize) {
        if let Some(policy) = spec.retry {
            let pause = policy.backoff(attempt);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }

    /// Run one multi-RHS (block) job to completion on the calling
    /// thread, without telemetry. See
    /// [`SolverService::solve_block_observed`].
    pub fn solve_block(&self, spec: &BlockJobSpec) -> Result<BlockSolveResult, ServiceError> {
        self.solve_block_observed(spec, |_| {})
    }

    /// Run one multi-RHS (block) job to completion, streaming an
    /// [`RhsEvent`] to `observe` at every restart boundary of every
    /// RHS (the shared space restarts all active RHS together; one
    /// RHS's events stay in cycle order). The observer is a pure
    /// spectator.
    ///
    /// The whole block is admitted as ONE reservation scaled by the
    /// block width — `width ×` the per-RHS estimate, which is exactly
    /// the shared basis's `width · (restart + 1)` columns — so a block
    /// that would blow the budget is rejected with a typed
    /// [`ServiceError::BudgetExceeded`] before any allocation.
    /// `Fixed`/`Auto` selections route to the shared-space
    /// [`krylov::block_gmres_dyn_observed`] driver;
    /// [`BasisSelection::Adaptive`] falls back to independent per-RHS
    /// adaptive solves (documented on [`BlockJobSpec::basis`]), charged
    /// at the adaptive worst case `8 · rows · (restart + 1) · width`.
    ///
    /// An empty `rhss` is rejected as a
    /// [`ServiceError::DimensionMismatch`] with `got = 0`.
    pub fn solve_block_observed(
        &self,
        spec: &BlockJobSpec,
        mut observe: impl FnMut(&RhsEvent),
    ) -> Result<BlockSolveResult, ServiceError> {
        let op = self.operator(&spec.operator)?;
        let rows = op.matrix.rows();
        let width = spec.rhss.len();
        let x0_vecs = spec.x0s.as_deref().unwrap_or(&[]);
        let mismatch = |got| ServiceError::DimensionMismatch {
            operator: spec.operator.clone(),
            rows,
            got,
        };
        if width == 0 {
            return Err(mismatch(0));
        }
        if spec.x0s.is_some() && x0_vecs.len() != width {
            return Err(mismatch(x0_vecs.len()));
        }
        let mut lens = spec.rhss.iter().chain(x0_vecs).map(Vec::len);
        if let Some(got) = lens.find(|&len| len != rows) {
            return Err(mismatch(got));
        }
        let format = resolve_format(&spec.basis, &spec.opts, rows)?;
        let requested = match &format {
            Some(f) => estimated_basis_bytes(f.as_ref(), rows, spec.opts.restart, width, 1),
            None => estimated_adaptive_basis_bytes(rows, spec.opts.restart, width),
        };
        let _reservation = self.ledger.admit(&spec.operator, requested)?;

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(spec.threads.max(1))
            .build()
            .expect("job thread pool");
        let result = pool.install(|| match &format {
            Some(f) => block_gmres_dyn_observed(
                op.matrix.as_ref(),
                &spec.rhss,
                spec.x0s.as_deref(),
                &spec.opts,
                &op.precond,
                f.as_ref(),
                |rhs, cycle| observe(&RhsEvent { rhs, cycle }),
            ),
            // Adaptive lanes escalate at their own pace, which one
            // shared basis cannot express: run them as independent
            // adaptive solves under the one block-sized reservation.
            None => {
                let (_, aopts) = plan_options(&spec.opts, 1);
                let zeros = vec![0.0; rows];
                let mut solutions = Vec::with_capacity(width);
                let mut stats = Vec::with_capacity(width);
                let mut histories = Vec::with_capacity(width);
                let mut operator_sweeps = 0u64;
                for (rhs, b) in spec.rhss.iter().enumerate() {
                    let x0 = spec.x0s.as_ref().map_or(&zeros[..], |x| &x[rhs]);
                    let mut lane_observe = |cycle: &CycleEvent| {
                        observe(&RhsEvent {
                            rhs,
                            cycle: cycle.clone(),
                        })
                    };
                    let hooks = SolveHooks {
                        observe: Some(&mut lane_observe),
                        ..SolveHooks::default()
                    };
                    let r = krylov::solve(
                        op.matrix.as_ref(),
                        b,
                        x0,
                        &op.precond,
                        SolvePlan::Adaptive(&aopts),
                        hooks,
                    )
                    .expect("a solve without a checkpoint cannot mismatch one")
                    .result;
                    operator_sweeps += r.stats.spmv_count;
                    solutions.push(r.x);
                    stats.push(r.stats);
                    histories.push(r.history);
                }
                BlockSolveResult {
                    solutions,
                    stats,
                    histories,
                    operator_sweeps,
                }
            }
        });
        Ok(result)
    }

    /// Run a batch of jobs **concurrently**, one OS thread per job,
    /// each inside its own [`JobSpec::threads`]-sized pool slice.
    /// Results come back in submission order; each entry is that job's
    /// own outcome (one rejected job does not fail the batch).
    ///
    /// A panicking job — whether its solve panicked past the per-job
    /// isolation or its observer callback panicked — is reported as
    /// that job's own [`ServiceError::JobPanicked`]; the other jobs
    /// and the batch are unaffected.
    pub fn run_batch(&self, specs: &[JobSpec]) -> Vec<Result<SolveResult, ServiceError>> {
        self.run_batch_observed(specs, |_| {})
    }

    /// [`SolverService::run_batch`] with telemetry: `on_event` receives
    /// every job's per-cycle [`JobEvent`], interleaved across jobs as
    /// boundaries are reached (events of one job stay in cycle order).
    fn run_batch_observed(
        &self,
        specs: &[JobSpec],
        on_event: impl Fn(JobEvent) + Sync,
    ) -> Vec<Result<SolveResult, ServiceError>> {
        std::thread::scope(|scope| {
            let on_event = &on_event;
            let handles: Vec<_> = specs
                .iter()
                .enumerate()
                .map(|(job, spec)| {
                    scope.spawn(move || {
                        self.solve_report_observed(spec, |cycle| {
                            on_event(JobEvent {
                                job,
                                cycle: cycle.clone(),
                            })
                        })
                        .map(|r| r.result)
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(specs)
                .map(|(h, spec)| {
                    h.join().unwrap_or_else(|payload| {
                        Err(ServiceError::JobPanicked {
                            operator: spec.operator.clone(),
                            attempts: 1,
                            message: panic_message(payload),
                        })
                    })
                })
                .collect()
        })
    }

    /// [`SolverService::run_batch`] streaming telemetry through a
    /// channel instead of a callback — the ergonomic form when the
    /// consumer lives on another thread. Telemetry is best-effort, the
    /// solve is not: when the receiver is dropped mid-batch, the first
    /// failed send flips a disconnected flag, every later event is
    /// discarded without touching the channel (or the sender lock),
    /// and the jobs run to completion as if unobserved.
    pub fn run_batch_streaming(
        &self,
        specs: &[JobSpec],
        events: Sender<JobEvent>,
    ) -> Vec<Result<SolveResult, ServiceError>> {
        let events = Mutex::new(events);
        let disconnected = AtomicBool::new(false);
        self.run_batch_observed(specs, move |event| {
            if disconnected.load(Ordering::Relaxed) {
                return;
            }
            if events
                .lock()
                .expect("event sender lock")
                .send(event)
                .is_err()
            {
                disconnected.store(true, Ordering::Relaxed);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spla::dense::manufactured_rhs;
    use spla::gen;

    fn smooth() -> (Csr, Vec<f64>) {
        let a = gen::conv_diff_3d(8, 8, 8, [0.3, 0.2, 0.1], 0.3);
        let (_, b) = manufactured_rhs(&a);
        (a, b)
    }

    fn job(operator: &str, b: Vec<f64>, format: &str, target: f64) -> JobSpec {
        let mut spec = JobSpec::new(operator, b);
        spec.basis = BasisSelection::Fixed(format.into());
        spec.opts.target_rrn = target;
        spec.opts.max_iters = 2000;
        spec
    }

    #[test]
    fn registration_caches_analysis_and_rejects_duplicates() {
        let service = SolverService::with_defaults();
        let (a, _) = smooth();
        let info = service
            .register_csr("smooth", &a, PrecondSpec::Jacobi)
            .unwrap();
        assert_eq!(info.rows, 512);
        assert_eq!(info.nnz, a.nnz());
        assert_eq!(info.preconditioner, "jacobi");
        // The 7-point stencil is near-uniform: auto_format picks a
        // padded format, never CSR.
        assert_ne!(info.sparse_format, "csr");
        assert_eq!(info.row_stats.rows, 512);
        assert_eq!(
            service.register_csr("smooth", &a, PrecondSpec::None),
            Err(ServiceError::DuplicateOperator("smooth".into()))
        );
        assert_eq!(service.operator_names(), vec!["smooth".to_string()]);
        assert_eq!(service.operator_info("smooth").unwrap(), info);
    }

    #[test]
    fn unknown_names_surface_as_typed_errors() {
        let service = SolverService::with_defaults();
        let (a, b) = smooth();
        assert!(matches!(
            service.solve(&JobSpec::new("ghost", b.clone())),
            Err(ServiceError::UnknownOperator(_))
        ));
        assert!(matches!(
            service.operator_info("ghost"),
            Err(ServiceError::UnknownOperator(_))
        ));
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        assert_eq!(
            service.solve(&job("smooth", b, "frsz2_99", 1e-6)).err(),
            Some(ServiceError::UnknownFormat("frsz2_99".into()))
        );
    }

    #[test]
    fn dimension_mismatch_is_checked_for_b_and_x0() {
        let service = SolverService::with_defaults();
        let (a, b) = smooth();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        assert!(matches!(
            service.solve(&JobSpec::new("smooth", vec![1.0; 10])),
            Err(ServiceError::DimensionMismatch {
                rows: 512,
                got: 10,
                ..
            })
        ));
        let mut spec = JobSpec::new("smooth", b);
        spec.x0 = Some(vec![0.0; 100]);
        assert!(matches!(
            service.solve(&spec),
            Err(ServiceError::DimensionMismatch { got: 100, .. })
        ));
    }

    #[test]
    fn precond_factorization_failure_is_typed() {
        let service = SolverService::with_defaults();
        // Row 1 has a zero diagonal: Jacobi must refuse.
        let mut coo = spla::Coo::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 0, 1.0);
        coo.push(2, 2, 4.0);
        let err = service
            .register_csr("bad", &coo.to_csr(), PrecondSpec::Jacobi)
            .unwrap_err();
        assert!(matches!(err, ServiceError::PrecondFailed { .. }));
        // The failed registration left nothing behind.
        assert!(service.operator_names().is_empty());
    }

    #[test]
    fn budget_exceeding_job_is_rejected_with_typed_error() {
        let (a, b) = smooth();
        let fmt = basis_format::by_name("float64").unwrap();
        let opts = GmresOptions::default();
        let needed = estimated_basis_bytes(fmt.as_ref(), a.rows(), opts.restart, 1, 1);
        let service = SolverService::new(ServiceConfig {
            basis_budget_bytes: Some(needed - 1),
            admission: AdmissionPolicy::Reject,
        });
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let denied = service
            .solve(&job("smooth", b.clone(), "float64", 1e-8))
            .unwrap_err();
        assert!(matches!(
            denied,
            ServiceError::BudgetExceeded { requested, budget, .. }
                if requested == needed && budget == needed - 1
        ));
        // A compressed-basis job fits the same budget comfortably.
        let ok = service.solve(&job("smooth", b, "frsz2_21", 1e-6)).unwrap();
        assert!(ok.stats.converged);
        assert_eq!(service.basis_bytes_in_use(), 0);
    }

    #[test]
    fn sstep_panel_scratch_is_charged_and_gates_admission() {
        let (a, b) = smooth();
        let fmt = basis_format::by_name("frsz2_21").unwrap();
        let opts = GmresOptions::default();
        let scalar = estimated_basis_bytes(fmt.as_ref(), a.rows(), opts.restart, 1, 1);
        let panel = estimated_basis_bytes(fmt.as_ref(), a.rows(), opts.restart, 1, 8);
        // The s-step job carries the two uncompressed f64 panels
        // (matrix powers + working panel) on top of the basis columns.
        assert_eq!(panel, scalar + 2 * 8 * a.rows() as u64 * 8);
        // Budget fits the scalar job but not the panel scratch.
        let service = SolverService::new(ServiceConfig {
            basis_budget_bytes: Some(scalar),
            admission: AdmissionPolicy::Reject,
        });
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let mut wide = job("smooth", b.clone(), "frsz2_21", 1e-6);
        wide.sstep = 8;
        let denied = service.solve(&wide).unwrap_err();
        assert!(matches!(
            denied,
            ServiceError::BudgetExceeded { requested, budget, .. }
                if requested == panel && budget == scalar
        ));
        // The same job at sstep = 1 is admitted and converges.
        let ok = service.solve(&job("smooth", b, "frsz2_21", 1e-6)).unwrap();
        assert!(ok.stats.converged);
        assert_eq!(service.basis_bytes_in_use(), 0);
    }

    #[test]
    fn sstep_job_converges_with_fewer_basis_sweeps() {
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let scalar = service
            .solve(&job("smooth", b.clone(), "frsz2_21", 1e-8))
            .unwrap();
        let mut fast = job("smooth", b, "frsz2_21", 1e-8);
        fast.sstep = 4;
        let sstep = service.solve(&fast).unwrap();
        assert!(scalar.stats.converged && sstep.stats.converged);
        assert!(
            sstep.stats.basis_dot_sweeps < scalar.stats.basis_dot_sweeps,
            "s-step job must amortize decode sweeps: {} vs {}",
            sstep.stats.basis_dot_sweeps,
            scalar.stats.basis_dot_sweeps
        );
    }

    #[test]
    fn queue_policy_serializes_jobs_instead_of_rejecting() {
        let (a, b) = smooth();
        let fmt = basis_format::by_name("frsz2_21").unwrap();
        let opts = GmresOptions::default();
        let one_job = estimated_basis_bytes(fmt.as_ref(), a.rows(), opts.restart, 1, 1);
        // Budget fits exactly one job at a time.
        let service = SolverService::new(ServiceConfig {
            basis_budget_bytes: Some(one_job + one_job / 2),
            admission: AdmissionPolicy::Queue { timeout: None },
        });
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let specs: Vec<JobSpec> = (0..3)
            .map(|_| job("smooth", b.clone(), "frsz2_21", 1e-6))
            .collect();
        let results = service.run_batch(&specs);
        for r in &results {
            assert!(r.as_ref().unwrap().stats.converged);
        }
        assert_eq!(service.basis_bytes_in_use(), 0);
    }

    #[test]
    fn concurrent_batch_matches_sequential_single_thread_bit_for_bit() {
        let (a, b) = smooth();
        let wide = gen::wide_range_conv_diff(6, 6, 6, 24, 0x5202);
        let (_, bw) = manufactured_rhs(&wide);
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::Jacobi)
            .unwrap();
        service
            .register_csr("wide", &wide, PrecondSpec::None)
            .unwrap();

        let mut specs = vec![
            job("smooth", b.clone(), "frsz2_21", 1e-8),
            job("smooth", b.clone(), "float64", 1e-10),
            job("smooth", b, "frsz2_ab", 1e-6),
            {
                let mut s = JobSpec::new("wide", bw);
                s.basis = BasisSelection::Adaptive;
                s.opts.target_rrn = 1e-10;
                s.opts.restart = 30;
                s.opts.max_iters = 1200;
                s
            },
        ];
        // Sequential reference: one job at a time, single-threaded.
        let reference: Vec<SolveResult> = specs.iter().map(|s| service.solve(s).unwrap()).collect();
        // Concurrent: all jobs at once, two workers each.
        for s in &mut specs {
            s.threads = 2;
        }
        let concurrent = service.run_batch(&specs);
        for (r, c) in reference.iter().zip(&concurrent) {
            let c = c.as_ref().unwrap();
            assert_eq!(r.stats.iterations, c.stats.iterations);
            assert_eq!(r.stats.format_trajectory, c.stats.format_trajectory);
            assert_eq!(r.history.len(), c.history.len());
            for (p, q) in r.history.iter().zip(&c.history) {
                assert_eq!(p.rrn.to_bits(), q.rrn.to_bits());
            }
            for (u, v) in r.x.iter().zip(&c.x) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn streamed_telemetry_matches_the_executed_trajectories() {
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let mut specs = vec![
            job("smooth", b.clone(), "frsz2_21", 1e-8),
            job("smooth", b, "float64", 1e-10),
        ];
        for s in &mut specs {
            s.opts.restart = 20; // force several cycles → several events
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let results = service.run_batch_streaming(&specs, tx);
        let events: Vec<JobEvent> = rx.try_iter().collect();
        for (job_idx, result) in results.iter().enumerate() {
            let result = result.as_ref().unwrap();
            assert!(result.stats.converged);
            let mine: Vec<&JobEvent> = events.iter().filter(|e| e.job == job_idx).collect();
            // One event per executed cycle, in cycle order, naming the
            // format the cycle ran in.
            assert_eq!(mine.len(), result.stats.restarts);
            for (k, e) in mine.iter().enumerate() {
                assert_eq!(e.cycle.cycle, k);
                assert_eq!(e.cycle.format, result.stats.format_trajectory[k]);
            }
            assert!(mine.len() > 1, "restart 20 must take multiple cycles");
        }
    }

    fn rhs_family(a: &Csr, width: usize) -> Vec<Vec<f64>> {
        let (_, b0) = manufactured_rhs(a);
        (0..width)
            .map(|k| {
                if k == 0 {
                    b0.clone()
                } else {
                    (0..a.rows())
                        .map(|i| ((i as f64) * 0.21 + (k as f64) * 0.73).sin() + 0.1)
                        .collect()
                }
            })
            .collect()
    }

    fn block_job(operator: &str, rhss: Vec<Vec<f64>>, format: &str, target: f64) -> BlockJobSpec {
        let mut spec = BlockJobSpec::new(operator, rhss);
        spec.basis = BasisSelection::Fixed(format.into());
        spec.opts.target_rrn = target;
        spec.opts.max_iters = 2000;
        spec
    }

    #[test]
    fn block_job_budget_scales_with_width() {
        let (a, _) = smooth();
        let fmt = basis_format::by_name("frsz2_21").unwrap();
        let opts = GmresOptions::default();
        let one_lane = estimated_basis_bytes(fmt.as_ref(), a.rows(), opts.restart, 1, 1);
        assert_eq!(
            estimated_basis_bytes(fmt.as_ref(), a.rows(), opts.restart, 16, 1),
            16 * one_lane
        );
        assert_eq!(
            estimated_adaptive_basis_bytes(a.rows(), opts.restart, 16),
            16 * 8 * (a.rows() as u64) * (opts.restart as u64 + 1)
        );
        // Budget fits exactly one lane: a 16-RHS block must be refused,
        // the same job at width 1 must pass.
        let service = SolverService::new(ServiceConfig {
            basis_budget_bytes: Some(one_lane),
            admission: AdmissionPolicy::Reject,
        });
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let wide = block_job("smooth", rhs_family(&a, 16), "frsz2_21", 1e-6);
        let denied = service.solve_block(&wide).unwrap_err();
        assert!(matches!(
            denied,
            ServiceError::BudgetExceeded { requested, budget, .. }
                if requested == 16 * one_lane && budget == one_lane
        ));
        let narrow = block_job("smooth", rhs_family(&a, 1), "frsz2_21", 1e-6);
        let ok = service.solve_block(&narrow).unwrap();
        assert!(ok.all_converged());
        assert_eq!(service.basis_bytes_in_use(), 0);
    }

    #[test]
    fn block_job_solves_every_rhs_and_streams_per_rhs_telemetry() {
        let (a, _) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::Jacobi)
            .unwrap();
        let mut spec = block_job("smooth", rhs_family(&a, 3), "frsz2_21", 1e-8);
        spec.opts.restart = 20; // force several cycles → several events
        let mut events: Vec<RhsEvent> = Vec::new();
        let result = service
            .solve_block_observed(&spec, |e| events.push(e.clone()))
            .unwrap();
        assert_eq!(result.width(), 3);
        assert!(result.all_converged());
        for (rhs, stats) in result.stats.iter().enumerate() {
            let mine: Vec<&RhsEvent> = events.iter().filter(|e| e.rhs == rhs).collect();
            // Single-solve boundary semantics per lane: one event per
            // executed cycle, in cycle order, naming the cycle's format.
            assert_eq!(mine.len(), stats.restarts);
            for (k, e) in mine.iter().enumerate() {
                assert_eq!(e.cycle.cycle, k);
                assert_eq!(e.cycle.format, stats.format_trajectory[k]);
            }
            assert!(mine.len() > 1, "restart 20 must take multiple cycles");
        }
    }

    #[test]
    fn width_one_block_job_matches_single_job_bit_for_bit() {
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let single = service
            .solve(&job("smooth", b.clone(), "frsz2_21", 1e-8))
            .unwrap();
        let block = service
            .solve_block(&block_job("smooth", vec![b], "frsz2_21", 1e-8))
            .unwrap();
        assert_eq!(block.stats[0].iterations, single.stats.iterations);
        assert_eq!(block.operator_sweeps, single.stats.spmv_count);
        assert_eq!(block.histories[0].len(), single.history.len());
        for (p, q) in block.histories[0].iter().zip(&single.history) {
            assert_eq!(p.rrn.to_bits(), q.rrn.to_bits());
        }
        for (u, v) in block.solutions[0].iter().zip(&single.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn adaptive_block_job_matches_independent_adaptive_solves() {
        let a = gen::wide_range_conv_diff(6, 6, 6, 24, 0x5202);
        let rhss = rhs_family(&a, 2);
        let service = SolverService::with_defaults();
        service.register_csr("wide", &a, PrecondSpec::None).unwrap();
        let mut spec = BlockJobSpec::new("wide", rhss.clone());
        spec.basis = BasisSelection::Adaptive;
        spec.opts.target_rrn = 1e-10;
        spec.opts.restart = 30;
        spec.opts.max_iters = 1200;
        let block = service.solve_block(&spec).unwrap();
        // The adaptive fallback runs the lanes as independent adaptive
        // solves: each lane is bit-identical to its own JobSpec run.
        let mut sweep_sum = 0;
        for (k, b) in rhss.into_iter().enumerate() {
            let mut single = JobSpec::new("wide", b);
            single.basis = BasisSelection::Adaptive;
            single.opts = spec.opts.clone();
            let r = service.solve(&single).unwrap();
            sweep_sum += r.stats.spmv_count;
            assert_eq!(block.stats[k].iterations, r.stats.iterations);
            assert_eq!(block.stats[k].format_trajectory, r.stats.format_trajectory);
            for (u, v) in block.solutions[k].iter().zip(&r.x) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        assert_eq!(block.operator_sweeps, sweep_sum);
    }

    #[test]
    fn block_job_dimension_checks_cover_width_rhs_and_x0() {
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        // Empty block.
        assert!(matches!(
            service.solve_block(&BlockJobSpec::new("smooth", vec![])),
            Err(ServiceError::DimensionMismatch { got: 0, .. })
        ));
        // One RHS of the wrong length.
        assert!(matches!(
            service.solve_block(&BlockJobSpec::new("smooth", vec![b.clone(), vec![1.0; 10]])),
            Err(ServiceError::DimensionMismatch { got: 10, .. })
        ));
        // x0 count must match the block width.
        let mut spec = BlockJobSpec::new("smooth", vec![b.clone(), b]);
        spec.x0s = Some(vec![vec![0.0; 512]]);
        assert!(matches!(
            service.solve_block(&spec),
            Err(ServiceError::DimensionMismatch { got: 1, .. })
        ));
    }

    #[test]
    fn deadline_halts_with_a_checkpoint_and_resume_is_bit_identical() {
        use krylov::FaultSpec;
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::Jacobi)
            .unwrap();
        let mut base = job("smooth", b, "frsz2_21", 1e-8);
        base.opts.restart = 10; // several cycles → several boundaries
        let reference = service.solve(&base).unwrap();
        assert!(reference.stats.converged);
        assert!(reference.stats.restarts >= 2);

        // An already-expired deadline halts at the FIRST boundary —
        // fully deterministic, no timing sensitivity. The sleep fault
        // doubles as proof the probe path runs.
        let mut rushed = base.clone();
        rushed.deadline = Some(Duration::ZERO);
        rushed.fault = Some(FaultSpec {
            sleep_per_boundary_ms: 1,
            ..FaultSpec::default()
        });
        let err = service.solve(&rushed).unwrap_err();
        let ServiceError::DeadlineExceeded {
            operator,
            deadline_ms,
            checkpoint,
        } = err
        else {
            panic!("expected DeadlineExceeded, got {err:?}");
        };
        assert_eq!(operator, "smooth");
        assert_eq!(deadline_ms, 0);
        assert_eq!(checkpoint.restarts, 0, "halted at the entry boundary");

        // The checkpoint survives its wire format and resumes
        // bit-identically to the uninterrupted reference.
        let bytes = checkpoint.encode(None);
        let restored = krylov::SolveCheckpoint::decode(&bytes, None).unwrap();
        let mut resumed = base.clone();
        resumed.resume = Some(Box::new(restored));
        let result = service.solve(&resumed).unwrap();
        assert!(result.stats.converged);
        assert_eq!(result.stats.iterations, reference.stats.iterations);
        assert_eq!(result.stats.spmv_count, reference.stats.spmv_count);
        assert_eq!(result.history.len(), reference.history.len());
        for (p, q) in result.history.iter().zip(&reference.history) {
            assert_eq!(p.rrn.to_bits(), q.rrn.to_bits());
        }
        for (u, v) in result.x.iter().zip(&reference.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn retry_escalates_one_rung_per_attempt_until_recovery() {
        use crate::job::RetryPolicy;
        let a = gen::wide_range_conv_diff(6, 6, 6, 24, 0x5202);
        let (_, b) = manufactured_rhs(&a);
        let service = SolverService::with_defaults();
        service.register_csr("wide", &a, PrecondSpec::None).unwrap();
        // On the wide-dynamic-range operator frsz2_16 stagnates far
        // above 1e-10; without retries the job simply comes back
        // non-converged.
        let mut fragile = job("wide", b, "frsz2_16", 1e-10);
        fragile.opts.restart = 30;
        fragile.opts.max_iters = 600;
        let stuck = service.solve_report(&fragile).unwrap();
        assert!(!stuck.result.stats.converged);
        assert_eq!(stuck.attempts, 1);

        // With retries the service walks the escalation ladder one
        // rung per attempt until a format can hold the target.
        fragile.retry = Some(RetryPolicy::quick(3));
        let report = service.solve_report(&fragile).unwrap();
        assert!(report.result.stats.converged);
        assert!(report.attempts >= 2, "first rung cannot reach 1e-10");
        assert_eq!(report.attempts, report.formats_tried.len());
        assert_eq!(report.formats_tried[0], "frsz2_16");
        // The trail is a strict prefix walk up the ladder.
        for (k, name) in report.formats_tried.iter().enumerate() {
            assert_eq!(name, krylov::ESCALATION_LADDER[k]);
        }
    }

    #[test]
    fn injected_basis_corruption_cannot_cause_false_convergence() {
        use krylov::{BasisBitFlip, FaultSpec};
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let mut spec = job("smooth", b.clone(), "frsz2_21", 1e-8);
        spec.opts.restart = 10;
        // Flip a high exponent bit of an early basis value.
        spec.fault = Some(FaultSpec {
            basis_flip: Some(BasisBitFlip {
                nth_write: 3,
                index: 17,
                bit: 62,
            }),
            ..FaultSpec::default()
        });
        let report = service.solve_report(&spec).unwrap();
        assert!(report.faults_injected >= 1, "the fault must actually fire");
        // Detection is structural: if the solver claims convergence,
        // the *independently recomputed* residual must agree, because
        // convergence is only ever decided from `‖b − Ax‖/‖b‖`.
        if report.result.stats.converged {
            let mut ax = vec![0.0; b.len()];
            spla::SparseMatrix::spmv(&a, &report.result.x, &mut ax);
            let rrn = b
                .iter()
                .zip(&ax)
                .map(|(bi, axi)| (bi - axi) * (bi - axi))
                .sum::<f64>()
                .sqrt()
                / b.iter().map(|bi| bi * bi).sum::<f64>().sqrt();
            assert!(
                rrn <= spec.opts.target_rrn * 1.0001,
                "claimed convergence must be real: recomputed rrn {rrn:.3e}"
            );
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_retried_at_the_same_rung() {
        use crate::job::RetryPolicy;
        use krylov::FaultSpec;
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        // Without retries: a typed error, not a crashed service.
        let mut doomed = job("smooth", b.clone(), "frsz2_21", 1e-8);
        doomed.fault = Some(FaultSpec {
            panic_on_attempt: Some(0),
            ..FaultSpec::default()
        });
        let err = service.solve(&doomed).unwrap_err();
        assert!(matches!(
            &err,
            ServiceError::JobPanicked { operator, attempts: 1, message }
                if operator == "smooth" && message.contains("injected")
        ));
        // With one retry the second attempt is clean — and a panic
        // never escalates the format.
        doomed.retry = Some(RetryPolicy::quick(1));
        let report = service.solve_report(&doomed).unwrap();
        assert!(report.result.stats.converged);
        assert_eq!(report.attempts, 2);
        assert_eq!(report.formats_tried, vec!["frsz2_21", "frsz2_21"]);
        // And the batch survives a panicking member: the healthy job
        // still converges.
        let healthy = job("smooth", b, "frsz2_21", 1e-8);
        let mut batch_member = healthy.clone();
        batch_member.fault = Some(FaultSpec {
            panic_on_attempt: Some(0),
            ..FaultSpec::default()
        });
        let results = service.run_batch(&[batch_member, healthy]);
        assert!(matches!(results[0], Err(ServiceError::JobPanicked { .. })));
        assert!(results[1].as_ref().unwrap().stats.converged);
    }

    /// A checkpoint from another solve — wrong dimension, wrong driver,
    /// wrong format, or an adaptive rung the registry does not know —
    /// is refused as a typed error before admission: no attempt runs
    /// (the observer never sees a boundary), so retries cannot turn it
    /// into a string of panics.
    #[test]
    fn resume_checkpoint_mismatch_is_typed_and_never_retried() {
        use crate::job::RetryPolicy;
        use krylov::{CheckpointError, DriverKind};
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let cp = |driver, format: &str, rows: usize| SolveCheckpoint {
            driver,
            format: format.into(),
            x: vec![0.0; rows],
            ..SolveCheckpoint::default()
        };
        let fixed = job("smooth", b.clone(), "frsz2_21", 1e-8);
        let mut adaptive = JobSpec::new("smooth", b);
        adaptive.basis = BasisSelection::Adaptive;
        for (mut spec, checkpoint, expected) in [
            (
                fixed.clone(),
                cp(DriverKind::Scalar, "frsz2_21", 100),
                "dimension",
            ),
            (
                fixed.clone(),
                cp(DriverKind::SStep, "frsz2_21", 512),
                "driver",
            ),
            (fixed, cp(DriverKind::Scalar, "float64", 512), "format"),
            (
                adaptive,
                cp(DriverKind::Adaptive, "no_such_format", 512),
                "format",
            ),
        ] {
            spec.retry = Some(RetryPolicy::quick(2));
            spec.resume = Some(Box::new(checkpoint));
            let mut boundaries = 0usize;
            let err = service
                .solve_report_observed(&spec, |_| boundaries += 1)
                .unwrap_err();
            assert!(
                matches!(
                    &err,
                    ServiceError::CheckpointMismatch {
                        operator,
                        source: CheckpointError::Mismatch { field, .. },
                    } if operator == "smooth" && *field == expected
                ),
                "expected a {expected} mismatch, got {err:?}"
            );
            assert_eq!(boundaries, 0, "{expected}: no attempt may run");
        }
        assert_eq!(service.basis_bytes_in_use(), 0);
    }

    #[test]
    fn dropping_the_event_receiver_does_not_disturb_the_batch() {
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let mut specs = vec![
            job("smooth", b.clone(), "frsz2_21", 1e-8),
            job("smooth", b.clone(), "float64", 1e-10),
        ];
        for s in &mut specs {
            s.opts.restart = 10; // many boundaries → many sends
        }
        let (tx, rx) = std::sync::mpsc::channel();
        drop(rx); // receiver gone before the first event
        let results = service.run_batch_streaming(&specs, tx);
        let reference: Vec<SolveResult> = specs.iter().map(|s| service.solve(s).unwrap()).collect();
        for (r, q) in results.iter().zip(&reference) {
            let r = r.as_ref().unwrap();
            assert!(r.stats.converged);
            assert_eq!(r.stats.iterations, q.stats.iterations);
            for (u, v) in r.x.iter().zip(&q.x) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn recommended_basis_tracks_the_target() {
        let service = SolverService::with_defaults();
        let (a, _) = smooth();
        let info = service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        // The default 1e-12 target sits below every compressed floor.
        assert_eq!(info.recommended_basis, "float64");
        assert_eq!(
            service.recommended_basis("smooth", 1e-2, 100).unwrap(),
            "frsz2_16"
        );
        assert_eq!(
            service.recommended_basis("smooth", 1e-6, 100).unwrap(),
            "frsz2_32"
        );
    }
}
