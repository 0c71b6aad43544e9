//! The long-lived [`SolverService`].

use crate::admission::{AdmissionPolicy, Ledger};
use crate::error::ServiceError;
use crate::job::{BasisSelection, BlockJobSpec, JobReport, JobSpec, RetryPolicy};
use crate::operator::{AnalyzedOperator, OperatorInfo, PrecondSpec};
use krylov::basis_format::{self, BasisFormat};
use krylov::{
    block_gmres_dyn_observed, sstep::gated_width, AdaptiveOptions, BlockSolveResult, CycleEvent,
    FaultSpec, FaultyFormat, GmresOptions, SStepOptions, SolveCheckpoint, SolveControl, SolveHooks,
    SolvePlan, SolveResult,
};
use spla::Csr;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
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

/// The OS threads a job's pool or a batch starts: `requested` clamped
/// to `1..=` the host's available parallelism (results do not move).
fn host_threads(requested: usize) -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.clamp(1, host)
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
/// `1` for a single-RHS job). An s-step job additionally holds the
/// uncompressed f64 panel at the width `s` it runs,
/// [`krylov::sstep::gated_width`]: the matrix-powers buffer plus the
/// interleaved working panel, two `rows · s` f64 arrays charged on top
/// when `s > 1` (pass `1` for a scalar job; the panel lives once per
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
    let panel = match gated_width(format, sstep) as u64 {
        1 => 0,
        s => 2 * 8 * rows as u64 * s,
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

/// The option structs a job's [`SolvePlan`] borrows, built once per
/// job from its solver options and s-step width.
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

/// A job as the lifecycle runs it: a single job is one lane, a block
/// job one lane per right-hand side.
struct Job<'a> {
    operator: &'a str,
    rhss: &'a [Vec<f64>],
    x0s: Option<&'a [Vec<f64>]>,
    basis: &'a BasisSelection,
    opts: &'a GmresOptions,
    threads: usize,
    sstep: usize,
    deadline: Option<Duration>,
    retry: Option<RetryPolicy>,
    resume: Option<&'a SolveCheckpoint>,
    fault: Option<&'a FaultSpec>,
}

/// What one attempt solved: the shared-space block driver's result, or
/// one [`krylov::solve`] result per lane.
enum Solved {
    Block(BlockSolveResult),
    Lanes(Vec<SolveResult>),
}

impl Solved {
    fn converged(&self) -> bool {
        match self {
            Solved::Block(r) => r.all_converged(),
            Solved::Lanes(lanes) => lanes.iter().all(|r| r.stats.converged),
        }
    }
}

/// A finished job: its last attempt plus the retry trail a
/// [`JobReport`] carries.
struct Finished {
    solved: Solved,
    attempts: usize,
    formats_tried: Vec<String>,
    faults_injected: u64,
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
    /// per-operator analysis once: the matrix is kept as CSR and its
    /// preconditioner is factorized. Returns the cached analysis
    /// snapshot. Fails with
    /// [`ServiceError::NonSquareOperator`] for a non-square matrix,
    /// [`ServiceError::DuplicateOperator`] if the name is taken and
    /// [`ServiceError::PrecondFailed`] if the factorization rejects the
    /// operator.
    pub fn register_csr(
        &self,
        name: &str,
        a: &Csr,
        precond: PrecondSpec,
    ) -> Result<OperatorInfo, ServiceError> {
        if a.rows() != a.cols() {
            return Err(ServiceError::NonSquareOperator {
                operator: name.to_string(),
                rows: a.rows(),
                cols: a.cols(),
            });
        }
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

    /// Run one job to completion on the calling thread, without
    /// telemetry: the result plus the retry trail (attempt count, the
    /// basis format each attempt started in, faults injected). See
    /// [`SolverService::solve_report_observed`].
    pub fn solve_report(&self, spec: &JobSpec) -> Result<JobReport, ServiceError> {
        self.solve_report_observed(spec, |_| {})
    }

    /// Run one job to completion, streaming a [`CycleEvent`] to
    /// `observe` at every restart boundary (a pure spectator: observed
    /// and unobserved runs are bit-identical). The job is admitted
    /// against the basis budget (a typed
    /// [`ServiceError::BudgetExceeded`] instead of an allocation
    /// failure), then solved in its own pool of [`JobSpec::threads`]
    /// workers (at most the host's), bit-identically for any count. On
    /// top of the plain solve the job lifecycle implements
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
    ///   non-converged attempt (breakdown, stagnation) is retried at
    ///   once with the basis format escalated one ladder rung
    ///   ([`krylov::basis_format::escalate`]); a panicked attempt —
    ///   in the solve or in `observe` — is caught
    ///   ([`ServiceError::JobPanicked`] once retries are exhausted) and
    ///   retried at the same rung;
    /// - **fault injection** ([`JobSpec::fault`]): deterministic basis
    ///   bit-flips, injected panics and per-boundary sleeps, for tests
    ///   and the pinned fault rows.
    ///
    /// A retry-enabled fixed/auto-format job is admitted at the
    /// ladder-top (`float64`) worst case up front, like an adaptive
    /// job: escalating mid-job must not be able to OOM past the
    /// budget, and re-admitting between attempts could deadlock a
    /// queued batch. A job whose `restart` is outside `1..=rows` is
    /// refused before admission as [`ServiceError::RestartOutOfRange`].
    /// An s-step panel is charged at the width the solver runs.
    pub fn solve_report_observed(
        &self,
        spec: &JobSpec,
        mut observe: impl FnMut(&CycleEvent),
    ) -> Result<JobReport, ServiceError> {
        let job = Job {
            operator: &spec.operator,
            rhss: std::slice::from_ref(&spec.b),
            x0s: spec.x0.as_ref().map(std::slice::from_ref),
            basis: &spec.basis,
            opts: &spec.opts,
            threads: spec.threads,
            sstep: spec.sstep,
            deadline: spec.deadline,
            retry: spec.retry,
            resume: spec.resume.as_deref(),
            fault: spec.fault.as_ref(),
        };
        let done = self.run_job(&job, &mut |_, cycle| observe(cycle))?;
        let Solved::Lanes(mut lanes) = done.solved else {
            unreachable!("a one-lane job runs one krylov::solve")
        };
        Ok(JobReport {
            result: lanes.pop().expect("one lane"),
            attempts: done.attempts,
            formats_tried: done.formats_tried,
            faults_injected: done.faults_injected,
        })
    }

    /// Run one multi-RHS (block) job to completion on the calling
    /// thread, without telemetry. See
    /// [`SolverService::solve_block_observed`].
    pub fn solve_block(&self, spec: &BlockJobSpec) -> Result<BlockSolveResult, ServiceError> {
        self.solve_block_observed(spec, |_, _| {})
    }

    /// Run one multi-RHS (block) job through the lifecycle of
    /// [`SolverService::solve_report_observed`], lending
    /// `(rhs_index, event)` to `observe` at every restart boundary of
    /// every RHS (the shared space restarts all active RHS together; one
    /// RHS's events stay in cycle order). A block job runs scalar
    /// cycles in one attempt; a panic in its solve or in `observe` is
    /// [`ServiceError::JobPanicked`].
    ///
    /// The whole block is admitted as ONE reservation scaled by the
    /// block width — `width ×` the per-RHS estimate, which is exactly
    /// the shared basis's `width · (restart + 1)` columns — so a block
    /// that would blow the budget is rejected with a typed
    /// [`ServiceError::BudgetExceeded`] before any allocation.
    /// `Fixed`/`Auto` selections of width > 1 run the shared-space
    /// [`krylov::block_gmres_dyn_observed`] driver; width 1 and
    /// [`BasisSelection::Adaptive`] run one [`krylov::solve`] per RHS
    /// (see [`BlockJobSpec::basis`]), adaptive lanes charged at the
    /// `float64` worst case of [`estimated_basis_bytes`]. An empty `rhss`
    /// is a [`ServiceError::DimensionMismatch`] with `got = 0`.
    pub fn solve_block_observed(
        &self,
        spec: &BlockJobSpec,
        mut observe: impl FnMut(usize, &CycleEvent),
    ) -> Result<BlockSolveResult, ServiceError> {
        let job = Job {
            operator: &spec.operator,
            rhss: &spec.rhss,
            x0s: spec.x0s.as_deref(),
            basis: &spec.basis,
            opts: &spec.opts,
            threads: spec.threads,
            sstep: 1,
            deadline: None,
            retry: None,
            resume: None,
            fault: None,
        };
        let done = self.run_job(&job, &mut observe)?;
        let lanes = match done.solved {
            Solved::Block(result) => return Ok(result),
            Solved::Lanes(lanes) => lanes,
        };
        let operator_sweeps = lanes.iter().map(|r| r.stats.spmv_count).sum();
        let (solutions, rest): (_, Vec<_>) = lanes
            .into_iter()
            .map(|r| (r.x, (r.stats, r.history)))
            .unzip();
        let (stats, histories) = rest.into_iter().unzip();
        Ok(BlockSolveResult {
            solutions,
            stats,
            histories,
            operator_sweeps,
        })
    }

    /// The one job lifecycle: validate, resolve the format, check the
    /// resume checkpoint, admit, build the job's pool, then run
    /// attempts under `catch_unwind` with retry, escalation, deadline
    /// and faults. `observe` receives each lane's boundary events.
    fn run_job(
        &self,
        job: &Job<'_>,
        observe: &mut dyn FnMut(usize, &CycleEvent),
    ) -> Result<Finished, ServiceError> {
        let op = self.operator(job.operator)?;
        let rows = op.matrix.rows();
        let width = job.rhss.len();
        let x0s = job.x0s.unwrap_or(&[]);
        let mismatch = |got| ServiceError::DimensionMismatch {
            operator: job.operator.to_string(),
            rows,
            got,
        };
        if width == 0 {
            return Err(mismatch(0));
        }
        if job.x0s.is_some() && x0s.len() != width {
            return Err(mismatch(x0s.len()));
        }
        let mut lens = job.rhss.iter().chain(x0s).map(Vec::len);
        if let Some(got) = lens.find(|&len| len != rows) {
            return Err(mismatch(got));
        }
        if !(1..=rows).contains(&job.opts.restart) {
            return Err(ServiceError::RestartOutOfRange {
                operator: job.operator.to_string(),
                restart: job.opts.restart,
                rows,
            });
        }
        let format = resolve_format(job.basis, job.opts, rows)?;
        // The adaptive driver ignores the s-step knob: no panel scratch.
        let sstep = format.as_ref().map_or(1, |_| job.sstep.max(1));
        let (sopts, aopts) = plan_options(job.opts, sstep);
        if let Some(cp) = job.resume {
            cp.check_resume(rows, &job_plan(format.as_deref(), &sopts, &aopts))
                .map_err(|source| ServiceError::CheckpointMismatch {
                    operator: job.operator.to_string(),
                    source,
                })?;
        }
        let requested = match format.as_deref() {
            Some(f) if job.retry.is_none() => {
                estimated_basis_bytes(f, rows, job.opts.restart, width, sstep)
            }
            // Retries and the adaptive ladder may escalate to float64:
            // charge that worst case (whose s-step gate is also the
            // widest) up front, so escalating cannot OOM.
            _ => {
                let top = basis_format::by_name("float64").expect("float64 is registered");
                estimated_basis_bytes(top.as_ref(), rows, job.opts.restart, width, sstep)
            }
        };
        let _reservation = self.ledger.admit(job.operator, requested)?;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(host_threads(job.threads))
            .build()
            .expect("job thread pool");

        // The deadline clock spans the whole job: retries burn the
        // same budget as the first attempt.
        let job_start = Instant::now();
        let fault = job.fault;
        let sleep_per_boundary = fault.map_or(0, |f| f.sleep_per_boundary_ms);
        let flip = fault.and_then(|f| f.basis_flip);
        let fault_fired = Arc::new(AtomicU64::new(0));
        let max_retries = job.retry.map_or(0, |r| r.max_retries);
        let mut probe = || {
            if sleep_per_boundary > 0 {
                std::thread::sleep(Duration::from_millis(sleep_per_boundary));
            }
            match job.deadline {
                Some(d) if job_start.elapsed() >= d => SolveControl::Halt,
                _ => SolveControl::Continue,
            }
        };

        let mut attempts = 0usize;
        let mut formats_tried: Vec<String> = Vec::new();
        // The current rung: retries escalate this one step at a time.
        let mut format_name: Option<String> = format.as_ref().map(|f| f.name());
        let mut escalated = false;
        let solved = loop {
            attempts += 1;
            formats_tried.push(format_name.as_deref().unwrap_or("adaptive").to_string());
            // A basis flip wraps the attempt's fixed format; an adaptive
            // job's ladder builds its own stores and is never flipped.
            let attempt_format: Option<Box<dyn BasisFormat>> = format_name.as_deref().map(|n| {
                let base = basis_format::by_name(n).expect("ladder formats are registered");
                match flip {
                    Some(flip) => Box::new(FaultyFormat::new(base, flip, Arc::clone(&fault_fired))),
                    None => base,
                }
            });
            // A checkpoint only resumes the format (and driver) it was
            // captured in: once a retry escalates away, attempts start
            // fresh.
            let resume_cp = job.resume.filter(|_| !escalated);
            let panic_now = fault.is_some_and(|f| f.panic_on_attempt == Some(attempts - 1));

            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if panic_now {
                    panic!("injected job panic (attempt {})", attempts - 1);
                }
                pool.install(|| match attempt_format.as_deref() {
                    Some(f) if width > 1 => Ok(Solved::Block(block_gmres_dyn_observed(
                        &op.matrix,
                        job.rhss,
                        job.x0s,
                        job.opts,
                        &op.precond,
                        f,
                        &mut *observe,
                    ))),
                    // One `krylov::solve` per lane: a single job, or the
                    // lanes of an adaptive block, which escalate at their
                    // own pace where one shared basis cannot.
                    f => {
                        let zeros = vec![0.0; rows];
                        let mut lanes = Vec::with_capacity(width);
                        for (lane, b) in job.rhss.iter().enumerate() {
                            let mut lane_observe = |cycle: &CycleEvent| observe(lane, cycle);
                            let hooks = SolveHooks {
                                observe: Some(&mut lane_observe),
                                control: Some(&mut probe),
                                resume: resume_cp,
                            };
                            lanes.push(krylov::solve(
                                &op.matrix,
                                b,
                                job.x0s.map_or(&zeros, |x0s| &x0s[lane]),
                                &op.precond,
                                job_plan(f, &sopts, &aopts),
                                hooks,
                            )?);
                            if lanes[lane].checkpoint.is_some() {
                                break;
                            }
                        }
                        Ok(Solved::Lanes(lanes))
                    }
                })
            }));

            match outcome {
                Err(payload) => {
                    // Panic isolation: the job dies, the service (and
                    // the rest of the batch) does not. A panic carries
                    // no evidence against the format, so retries stay
                    // on the same rung.
                    if attempts <= max_retries {
                        continue;
                    }
                    return Err(ServiceError::JobPanicked {
                        operator: job.operator.to_string(),
                        attempts,
                        message: panic_message(payload),
                    });
                }
                // Checked before admission; a retry that escalated
                // away resumes nothing.
                Ok(Err(source)) => {
                    return Err(ServiceError::CheckpointMismatch {
                        operator: job.operator.to_string(),
                        source,
                    });
                }
                Ok(Ok(mut solved)) => {
                    // Cooperative deadline halt of the last lane run:
                    // progress is postponed, not lost — the checkpoint
                    // resumes bit-identically.
                    let halted = match &mut solved {
                        Solved::Lanes(lanes) => lanes.last_mut().and_then(|r| r.checkpoint.take()),
                        Solved::Block(_) => None,
                    };
                    if let Some(checkpoint) = halted {
                        return Err(ServiceError::DeadlineExceeded {
                            operator: job.operator.to_string(),
                            deadline_ms: job.deadline.map_or(0, |d| d.as_millis() as u64),
                            checkpoint,
                        });
                    }
                    if solved.converged() || attempts > max_retries {
                        break solved;
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
                        None => break solved,
                    }
                }
            }
        };
        Ok(Finished {
            solved,
            attempts,
            formats_tried,
            faults_injected: fault_fired.load(Ordering::Relaxed),
        })
    }

    /// Run a batch of jobs **concurrently**: at most the host's
    /// available parallelism of OS threads each take the next job and
    /// run it in its own [`JobSpec::threads`]-sized pool (a job holds
    /// budget only while it runs, so queued admission cannot deadlock).
    /// Results come back in submission order; each entry is that job's
    /// own outcome (one rejected job does not fail the batch).
    ///
    /// `on_event` borrows every job's per-cycle `(job_index, event)`,
    /// interleaved across jobs as boundaries are reached (events of
    /// one job stay in cycle order); pass `|_, _| {}` to run
    /// unobserved. An `mpsc` channel is one such observer,
    /// `move |job, e| { let _ = tx.send((job, e.clone())); }`: a dropped
    /// receiver then costs a failed send per event and never disturbs
    /// the jobs.
    ///
    /// A panicking job — whether its solve or `on_event` panicked — is
    /// reported as that job's own [`ServiceError::JobPanicked`]; the
    /// other jobs and the batch are unaffected.
    pub fn run_batch(
        &self,
        specs: &[JobSpec],
        on_event: impl Fn(usize, &CycleEvent) + Sync,
    ) -> Vec<Result<SolveResult, ServiceError>> {
        let next = AtomicUsize::new(0);
        let run = |job: usize, spec: &JobSpec| {
            catch_unwind(AssertUnwindSafe(|| {
                self.solve_report_observed(spec, |cycle| on_event(job, cycle))
            }))
            .unwrap_or_else(|payload| {
                Err(ServiceError::JobPanicked {
                    operator: spec.operator.clone(),
                    attempts: 1,
                    message: panic_message(payload),
                })
            })
            .map(|r| r.result)
        };
        let mut done: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..host_threads(specs.len()))
                .map(|_| {
                    scope.spawn(|| {
                        std::iter::from_fn(|| {
                            let job = next.fetch_add(1, Ordering::Relaxed);
                            specs.get(job).map(|spec| (job, run(job, spec)))
                        })
                        .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("batch workers catch job panics"))
                .collect()
        });
        done.sort_unstable_by_key(|&(job, _)| job);
        done.into_iter().map(|(_, result)| result).collect()
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

    /// `‖b − Ax‖/‖b‖`, recomputed outside the solver.
    fn recomputed_rrn(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        spla::SparseMatrix::spmv(a, x, &mut ax);
        let r2: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum();
        r2.sqrt() / b.iter().map(|bi| bi * bi).sum::<f64>().sqrt()
    }

    fn host() -> usize {
        std::thread::available_parallelism().unwrap().get()
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
        assert_eq!(
            service.register_csr("smooth", &a, PrecondSpec::None),
            Err(ServiceError::DuplicateOperator("smooth".into()))
        );
        assert_eq!(service.operator_names(), vec!["smooth".to_string()]);
        assert_eq!(service.operator_info("smooth").unwrap(), info);
    }

    #[test]
    fn cached_preconditioner_keeps_its_identity_flag() {
        // The solver's view of the cached preconditioner: `is_identity`
        // routes s-step jobs through the fused matrix-powers kernel.
        fn is_identity<P: krylov::Preconditioner>(p: &P) -> bool {
            p.is_identity()
        }
        let service = SolverService::with_defaults();
        let (a, _) = smooth();
        service
            .register_csr("plain", &a, PrecondSpec::None)
            .unwrap();
        service
            .register_csr("jacobi", &a, PrecondSpec::Jacobi)
            .unwrap();
        assert!(is_identity(&service.operator("plain").unwrap().precond));
        assert!(!is_identity(&service.operator("jacobi").unwrap().precond));
    }

    #[test]
    fn non_square_operator_is_refused_at_registration() {
        let service = SolverService::with_defaults();
        let mut coo = spla::Coo::new(3, 4);
        for i in 0..3 {
            coo.push(i, i, 2.0);
            coo.push(i, 3, 1.0);
        }
        assert_eq!(
            service.register_csr("wide", &coo.to_csr(), PrecondSpec::None),
            Err(ServiceError::NonSquareOperator {
                operator: "wide".into(),
                rows: 3,
                cols: 4,
            })
        );
        assert!(service.operator_names().is_empty());
        // Neither job path can reach the refused matrix.
        let mut boundaries = 0;
        let job = JobSpec::new("wide", vec![1.0; 3]);
        assert!(matches!(
            service.solve_report_observed(&job, |_| boundaries += 1),
            Err(ServiceError::UnknownOperator(_))
        ));
        let block = BlockJobSpec::new("wide", vec![vec![1.0; 3]]);
        assert!(matches!(
            service.solve_block_observed(&block, |_, _| boundaries += 1),
            Err(ServiceError::UnknownOperator(_))
        ));
        assert_eq!(boundaries, 0);
        assert_eq!(service.basis_bytes_in_use(), 0);
    }

    /// A restart of 0 stores no column, and one above the row count
    /// allocates columns the Krylov space cannot fill (`usize::MAX`
    /// used to overflow the admission estimate).
    #[test]
    fn restart_out_of_range_is_refused_before_admission() {
        let (a, b) = smooth();
        let rows = a.rows();
        // A one-byte budget: any job that reached admission would be
        // refused as `BudgetExceeded` instead.
        let service = SolverService::new(ServiceConfig {
            basis_budget_bytes: Some(1),
            admission: AdmissionPolicy::Reject,
        });
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let mut boundaries = 0;
        for restart in [0, rows + 1, usize::MAX] {
            let refused = ServiceError::RestartOutOfRange {
                operator: "smooth".into(),
                restart,
                rows,
            };
            for (basis, sstep) in [
                (BasisSelection::Fixed("frsz2_21".into()), 1),
                (BasisSelection::Fixed("frsz2_21".into()), 4),
                (BasisSelection::Auto, 1),
                (BasisSelection::Adaptive, 1),
            ] {
                let mut job = JobSpec::new("smooth", b.clone());
                job.basis = basis.clone();
                job.sstep = sstep;
                job.opts.restart = restart;
                let err = service
                    .solve_report_observed(&job, |_| boundaries += 1)
                    .unwrap_err();
                assert_eq!(err, refused, "{basis:?} s={sstep}");

                let mut block = BlockJobSpec::new("smooth", vec![b.clone(), b.clone()]);
                block.basis = basis;
                block.opts.restart = restart;
                let err = service
                    .solve_block_observed(&block, |_, _| boundaries += 1)
                    .unwrap_err();
                assert_eq!(err, refused);
            }
        }
        assert_eq!(boundaries, 0);
        assert_eq!(service.basis_bytes_in_use(), 0);
    }

    #[test]
    fn unknown_names_surface_as_typed_errors() {
        let service = SolverService::with_defaults();
        let (a, b) = smooth();
        assert!(matches!(
            service.solve_report(&JobSpec::new("ghost", b.clone())),
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
            service
                .solve_report(&job("smooth", b, "frsz2_99", 1e-6))
                .err(),
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
            service.solve_report(&JobSpec::new("smooth", vec![1.0; 10])),
            Err(ServiceError::DimensionMismatch {
                rows: 512,
                got: 10,
                ..
            })
        ));
        let mut spec = JobSpec::new("smooth", b);
        spec.x0 = Some(vec![0.0; 100]);
        assert!(matches!(
            service.solve_report(&spec),
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
        // A zero block size is refused, not asserted on, and one above
        // the bound before a block is sized from it.
        let too_large = krylov::BlockJacobi::MAX_BLOCK_SIZE + 1;
        for (block_size, source) in [
            (0, krylov::PrecondError::ZeroBlockSize),
            (
                too_large,
                krylov::PrecondError::BlockSizeTooLarge(too_large),
            ),
        ] {
            let err = service
                .register_csr(
                    "bad",
                    &Csr::identity(3),
                    PrecondSpec::BlockJacobi { block_size },
                )
                .unwrap_err();
            let operator = "bad".into();
            assert_eq!(err, ServiceError::PrecondFailed { operator, source });
        }
        // The failed registrations left nothing behind.
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
            .solve_report(&job("smooth", b.clone(), "float64", 1e-8))
            .unwrap_err();
        assert!(matches!(
            denied,
            ServiceError::BudgetExceeded { requested, budget, .. }
                if requested == needed && budget == needed - 1
        ));
        // A compressed-basis job fits the same budget comfortably.
        let ok = service
            .solve_report(&job("smooth", b, "frsz2_21", 1e-6))
            .unwrap()
            .result;
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
        // frsz2_21 gates s at 8: a wider request runs, and is charged,
        // at 8 (`usize::MAX` used to overflow the estimate).
        for sstep in [64, usize::MAX] {
            let over = estimated_basis_bytes(fmt.as_ref(), a.rows(), opts.restart, 1, sstep);
            assert_eq!(over, panel, "s={sstep}");
        }
        // Budget fits the scalar job but not the panel scratch.
        let service = SolverService::new(ServiceConfig {
            basis_budget_bytes: Some(scalar),
            admission: AdmissionPolicy::Reject,
        });
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let mut wide = job("smooth", b.clone(), "frsz2_21", 1e-6);
        for sstep in [8, 64, usize::MAX] {
            wide.sstep = sstep;
            let denied = service.solve_report(&wide).unwrap_err();
            assert!(
                matches!(
                    denied,
                    ServiceError::BudgetExceeded { requested, budget, .. }
                        if requested == panel && budget == scalar
                ),
                "s={sstep}: {denied:?}"
            );
        }
        // The same job at sstep = 1 is admitted and converges.
        let ok = service
            .solve_report(&job("smooth", b, "frsz2_21", 1e-6))
            .unwrap()
            .result;
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
            .solve_report(&job("smooth", b.clone(), "frsz2_21", 1e-8))
            .unwrap()
            .result;
        let mut fast = job("smooth", b, "frsz2_21", 1e-8);
        fast.sstep = 4;
        let sstep = service.solve_report(&fast).unwrap().result;
        assert!(scalar.stats.converged && sstep.stats.converged);
        assert!(
            sstep.stats.basis_dot_sweeps < scalar.stats.basis_dot_sweeps,
            "s-step job must amortize decode sweeps: {} vs {}",
            sstep.stats.basis_dot_sweeps,
            scalar.stats.basis_dot_sweeps
        );
    }

    /// An s-step job reports the panel trajectory (width and LOO
    /// measure per cycle, breaches) of the plain s-step entry, bit for
    /// bit, in its result's stats.
    #[test]
    fn sstep_job_reports_the_sstep_trajectory() {
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let mut spec = job("smooth", b.clone(), "frsz2_21", 1e-8);
        spec.opts.restart = 12;
        spec.sstep = 4;
        let report = service.solve_report(&spec).unwrap();
        let sopts = SStepOptions {
            s: 4,
            loo_budget: None,
            gmres: spec.opts.clone(),
        };
        let fmt = basis_format::by_name("frsz2_21").unwrap();
        let x0 = vec![0.0; a.rows()];
        let plain = krylov::sstep_gmres_dyn(&a, &b, &x0, &sopts, &krylov::Identity, fmt.as_ref());
        let (got, want) = (&report.result.stats, &plain.solve.stats);
        assert!(got.converged && got.restarts >= 2, "several cycles");
        assert_eq!(got.s_per_cycle, want.s_per_cycle);
        assert!(got.s_per_cycle.iter().all(|&s| s == 4));
        assert_eq!(got.loo_per_cycle.len(), want.loo_per_cycle.len());
        assert!(!got.loo_per_cycle.is_empty(), "the monitor ran");
        for (p, q) in got.loo_per_cycle.iter().zip(&want.loo_per_cycle) {
            assert_eq!(p.to_bits(), q.to_bits(), "LOO measure");
        }
        assert_eq!(got.loo_breaches, want.loo_breaches);
        assert_eq!(got.loo_breaches, plain.loo_breaches);
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
        let results = service.run_batch(&specs, |_, _| {});
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
        let reference: Vec<SolveResult> = specs
            .iter()
            .map(|s| service.solve_report(s).unwrap().result)
            .collect();
        // Concurrent: all jobs at once, two workers each.
        for s in &mut specs {
            s.threads = 2;
        }
        let concurrent = service.run_batch(&specs, |_, _| {});
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
        let results = service.run_batch(&specs, move |job, e| {
            let _ = tx.send((job, e.clone()));
        });
        let events: Vec<(usize, CycleEvent)> = rx.try_iter().collect();
        for (job_idx, result) in results.iter().enumerate() {
            let result = result.as_ref().unwrap();
            assert!(result.stats.converged);
            let mine: Vec<&CycleEvent> = events
                .iter()
                .filter(|(job, _)| *job == job_idx)
                .map(|(_, e)| e)
                .collect();
            // One event per executed cycle, in cycle order, naming the
            // format the cycle ran in.
            assert_eq!(mine.len(), result.stats.restarts);
            for (k, e) in mine.iter().enumerate() {
                assert_eq!(e.cycle, k);
                assert_eq!(e.format, result.stats.format_trajectory[k]);
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
        let float64 = basis_format::by_name("float64").unwrap();
        assert_eq!(
            estimated_basis_bytes(float64.as_ref(), a.rows(), opts.restart, 16, 1),
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
        let mut events: Vec<(usize, CycleEvent)> = Vec::new();
        let result = service
            .solve_block_observed(&spec, |rhs, e| events.push((rhs, e.clone())))
            .unwrap();
        assert_eq!(result.solutions.len(), 3);
        assert!(result.all_converged());
        for (rhs, stats) in result.stats.iter().enumerate() {
            let mine: Vec<&CycleEvent> = events
                .iter()
                .filter(|(lane, _)| *lane == rhs)
                .map(|(_, e)| e)
                .collect();
            // Single-solve boundary semantics per lane: one event per
            // executed cycle, in cycle order, naming the cycle's format.
            assert_eq!(mine.len(), stats.restarts);
            for (k, e) in mine.iter().enumerate() {
                assert_eq!(e.cycle, k);
                assert_eq!(e.format, stats.format_trajectory[k]);
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
            .solve_report(&job("smooth", b.clone(), "frsz2_21", 1e-8))
            .unwrap()
            .result;
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
            let r = service.solve_report(&single).unwrap().result;
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
    fn block_job_panic_is_a_typed_error_and_frees_its_reservation() {
        let (a, _) = smooth();
        // A budget, so the ledger books the block's reservation.
        let service = SolverService::new(ServiceConfig {
            basis_budget_bytes: Some(1 << 30),
            admission: AdmissionPolicy::Reject,
        });
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        // The shared-space driver and the per-lane adaptive solves.
        for basis in [
            BasisSelection::Fixed("frsz2_21".into()),
            BasisSelection::Adaptive,
        ] {
            let mut spec = block_job("smooth", rhs_family(&a, 4), "frsz2_21", 1e-8);
            spec.basis = basis.clone();
            let mut reserved = 0;
            let err = service
                .solve_block_observed(&spec, |_, _| {
                    reserved = service.basis_bytes_in_use();
                    panic!("observer gave up");
                })
                .unwrap_err();
            assert!(
                matches!(
                    &err,
                    ServiceError::JobPanicked { operator, attempts: 1, message }
                        if operator == "smooth" && message == "observer gave up"
                ),
                "{basis:?}: {err:?}"
            );
            assert!(reserved > 0, "{basis:?}: the job ran under a reservation");
            assert_eq!(service.basis_bytes_in_use(), 0, "{basis:?}");
        }
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
        let reference = service.solve_report(&base).unwrap().result;
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
        let err = service.solve_report(&rushed).unwrap_err();
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
        assert_eq!(checkpoint.stats.restarts, 0, "halted at the entry boundary");

        // The checkpoint survives its wire format and resumes
        // bit-identically to the uninterrupted reference.
        let bytes = checkpoint.encode();
        let restored = krylov::SolveCheckpoint::decode(&bytes).unwrap();
        let mut resumed = base.clone();
        resumed.resume = Some(Box::new(restored));
        let result = service.solve_report(&resumed).unwrap().result;
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
            let rrn = recomputed_rrn(&a, &report.result.x, &b);
            assert!(
                rrn <= spec.opts.target_rrn * 1.0001,
                "claimed convergence must be real: recomputed rrn {rrn:.3e}"
            );
        }
    }

    /// A job arms the Hessenberg NaN on its solver options; the s-step
    /// panel cycle refuses the poisoned column as a breakdown, and the
    /// restarted solve still meets the target by an independent check.
    #[test]
    fn sstep_job_nan_fault_is_a_breakdown_not_a_false_convergence() {
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let mut spec = job("smooth", b.clone(), "frsz2_21", 1e-8);
        spec.sstep = 4;
        spec.opts.fault_nan_hessenberg_at = Some(7);
        let r = service.solve_report(&spec).unwrap().result;
        assert!(r.stats.breakdowns >= 1, "the injected NaN went undetected");
        assert!(r.stats.s_per_cycle.iter().all(|&s| s == 4));
        assert!(r.stats.converged, "rrn {}", r.stats.final_rrn);
        let rrn = recomputed_rrn(&a, &r.x, &b);
        assert!(
            rrn <= spec.opts.target_rrn * 1.0001,
            "recomputed rrn {rrn:.3e}"
        );
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
        let err = service.solve_report(&doomed).unwrap_err();
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
        let results = service.run_batch(&[batch_member, healthy], |_, _| {});
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
            x: vec![0.0; rows],
            stats: krylov::SolveStats {
                format: format.into(),
                ..Default::default()
            },
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
        let results = service.run_batch(&specs, move |job, e| {
            let _ = tx.send((job, e.clone()));
        });
        let reference: Vec<SolveResult> = specs
            .iter()
            .map(|s| service.solve_report(s).unwrap().result)
            .collect();
        for (r, q) in results.iter().zip(&reference) {
            let r = r.as_ref().unwrap();
            assert!(r.stats.converged);
            assert_eq!(r.stats.iterations, q.stats.iterations);
            for (u, v) in r.x.iter().zip(&q.x) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    /// Results are bit-identical at any thread count, so a job's pool
    /// (single or block) starts no more threads than the host has.
    #[test]
    fn job_pool_never_outgrows_the_host() {
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let mut single = job("smooth", b.clone(), "frsz2_21", 1e-8);
        single.opts.restart = 10; // several boundaries to observe
        single.threads = 64;
        let mut seen = Vec::new();
        let r = service
            .solve_report_observed(&single, |_| seen.push(rayon::current_num_threads()))
            .unwrap();
        assert!(r.result.stats.converged);
        let mut block = block_job("smooth", vec![b.clone(), b], "frsz2_21", 1e-8);
        block.opts.restart = 10;
        block.threads = 64;
        service
            .solve_block_observed(&block, |_, _| seen.push(rayon::current_num_threads()))
            .unwrap();
        assert!(!seen.is_empty());
        assert!(seen.iter().all(|&t| t <= host()), "pool sizes {seen:?}");
    }

    /// A batch longer than the host's parallelism queues on a fixed set
    /// of workers, keeps submission order, and matches each job run
    /// alone bit for bit.
    #[test]
    fn batch_keeps_at_most_host_parallelism_jobs_in_flight() {
        let (a, b) = smooth();
        let service = SolverService::with_defaults();
        service
            .register_csr("smooth", &a, PrecondSpec::None)
            .unwrap();
        let formats = ["frsz2_21", "float64", "frsz2_32"];
        let specs: Vec<JobSpec> = (0..2 * host() + 1)
            .map(|k| {
                let mut spec = job("smooth", b.clone(), formats[k % formats.len()], 1e-8);
                spec.opts.restart = 10;
                spec
            })
            .collect();
        let threads = std::sync::Mutex::new(std::collections::HashSet::new());
        let results = service.run_batch(&specs, |_, _| {
            threads.lock().unwrap().insert(std::thread::current().id());
        });
        let threads = threads.into_inner().unwrap().len();
        assert!(
            (1..=host()).contains(&threads),
            "{threads} batch threads on a host of {}",
            host()
        );
        assert_eq!(results.len(), specs.len());
        let rrns = |r: &SolveResult| {
            r.history
                .iter()
                .map(|p| p.rrn.to_bits())
                .collect::<Vec<_>>()
        };
        let xs = |r: &SolveResult| r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (r, spec) in results.iter().zip(&specs) {
            let r = r.as_ref().unwrap();
            let twin = service.solve_report(spec).unwrap().result;
            assert_eq!(r.stats.format, twin.stats.format);
            assert_eq!(r.stats.iterations, twin.stats.iterations);
            assert_eq!(rrns(r), rrns(&twin));
            assert_eq!(xs(r), xs(&twin));
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
