//! The four workloads: inputs generated from a seed, one op, and the
//! checks every op's output must pass.
//!
//! Every op solves against a right-hand side drawn from a seeded
//! family of [`FAMILY`] smooth manufactured solutions, cycled, so a
//! whole cycle visits every input once. Setup ends with two warmup
//! ops: the pinned manufactured problem (`sin(i)`, §V-B) and the first
//! family member.

use crate::trace::{self, SpanName, TracedFormat, TracedMatrix, TracedPrecond};
use frsz2::{Frsz2Config, Frsz2Store};
use krylov::basis_format::{self, BasisFormat};
use krylov::{
    adaptive_gmres, block_gmres_dyn, gmres_with, sstep_gmres_dyn, AdaptiveOptions,
    BlockSolveResult, GmresOptions, HistoryPoint, Identity, Jacobi, Preconditioner, SStepOptions,
    SolveResult, SolveStats,
};
use numfmt::{ColumnStorage, DenseStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use solver_service::{
    AdmissionPolicy, BasisSelection, BlockJobSpec, JobSpec, PrecondSpec, RetryPolicy,
    ServiceConfig, ServiceError, SolverService,
};
use spla::{dense, gen, Csr, SparseMatrix};
use std::fmt;
use std::time::Instant;

/// Smooth solutions per right-hand-side family.
pub const FAMILY: usize = 8;

/// Fingerprints the committed `BENCH_solve.json` / `BENCH_sstep.json`
/// pin for the manufactured problem on the paper's operator.
const PIN_PAPER: &str = "4cf2d4ec8228bcd9";
const PIN_SSTEP4: &str = "947f45afa710f032";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    PaperFrsz2_21,
    OperatorF64,
    Sstep4Dyn,
    ServiceMixed,
}

/// How a workload drives the system (why each exists: `BENCHMARK.json`
/// and `BENCHMARK.md`).
pub struct Spec {
    pub name: &'static str,
    /// Threads of the pool each client installs.
    pub pool_threads: usize,
    /// Closed-loop clients issuing ops concurrently.
    pub clients: usize,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::PaperFrsz2_21,
        WorkloadId::OperatorF64,
        WorkloadId::Sstep4Dyn,
        WorkloadId::ServiceMixed,
    ];

    pub fn spec(self) -> Spec {
        let (name, pool_threads, clients) = match self {
            WorkloadId::PaperFrsz2_21 => ("paper_frsz2_21", 1, 1),
            WorkloadId::OperatorF64 => ("operator_f64", 2, 1),
            WorkloadId::Sstep4Dyn => ("sstep4_dyn", 1, 1),
            WorkloadId::ServiceMixed => ("service_mixed", 1, 2),
        };
        Spec {
            name,
            pool_threads,
            clients,
        }
    }

    pub fn name(self) -> &'static str {
        self.spec().name
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A correctness check an op can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// A converged op whose harness-recomputed `‖b − Ax‖/‖b‖` exceeds
    /// its target.
    RrnAboveTarget,
    PinnedFingerprint,
    /// A warmup op (which must converge) did not.
    WarmupNotConverged,
    /// A traced op's result differs from the untraced op's.
    TracedMismatch,
    /// A service job's result differs from its direct krylov twin's.
    TwinMismatch,
    /// The same op run twice gave different results.
    Nondeterministic,
}

impl Check {
    pub fn label(self) -> &'static str {
        match self {
            Check::RrnAboveTarget => "recomputed rrn above target on a converged op",
            Check::PinnedFingerprint => "pinned fingerprint mismatch",
            Check::WarmupNotConverged => "warmup op did not converge",
            Check::TracedMismatch => "traced op differs from untraced op",
            Check::TwinMismatch => "service job differs from its krylov twin",
            Check::Nondeterministic => "repeated op changed its result",
        }
    }
}

#[derive(Debug)]
pub struct Failure {
    pub check: Check,
    pub detail: String,
}

impl Failure {
    pub fn new(check: Check, detail: impl Into<String>) -> Failure {
        Failure {
            check,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.check.label(), self.detail)
    }
}

/// Solver counters of one op (block ops: the largest lane).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub iterations: u64,
    pub restarts: u64,
    pub basis_sweeps: u64,
    pub reorthogonalizations: u64,
    pub loo_breaches: u64,
    pub escalations: u64,
    pub attempts: u64,
    /// Solves the counts cover: 1 per op, 1 per job of a service round.
    pub jobs: u64,
    /// Stored bits per basis value, when the basis was FRSZ2.
    pub frsz2_bits_per_value: Option<f64>,
}

impl Counters {
    fn of(stats: &SolveStats) -> Counters {
        Counters {
            iterations: stats.iterations as u64,
            restarts: stats.restarts as u64,
            basis_sweeps: stats.basis_dot_sweeps + stats.basis_gemv_sweeps,
            reorthogonalizations: stats.reorthogonalizations as u64,
            loo_breaches: 0,
            escalations: stats.escalations as u64,
            attempts: 1,
            jobs: 1,
            frsz2_bits_per_value: stats
                .format
                .starts_with("frsz2")
                .then_some(stats.basis_bits_per_value),
        }
    }

    fn max(self, other: Counters) -> Counters {
        Counters {
            iterations: self.iterations.max(other.iterations),
            restarts: self.restarts.max(other.restarts),
            basis_sweeps: self.basis_sweeps.max(other.basis_sweeps),
            reorthogonalizations: self.reorthogonalizations.max(other.reorthogonalizations),
            loo_breaches: self.loo_breaches.max(other.loo_breaches),
            escalations: self.escalations.max(other.escalations),
            attempts: self.attempts.max(other.attempts),
            jobs: self.jobs.max(other.jobs),
            frsz2_bits_per_value: self.frsz2_bits_per_value.or(other.frsz2_bits_per_value),
        }
    }

    /// Totals over the jobs of a service round; bits per value is the
    /// mean over its FRSZ2 jobs.
    fn total(jobs: &[Counters]) -> Counters {
        let sum = |get: fn(&Counters) -> u64| jobs.iter().map(get).sum();
        let bits: Vec<f64> = jobs.iter().filter_map(|c| c.frsz2_bits_per_value).collect();
        Counters {
            iterations: sum(|c| c.iterations),
            restarts: sum(|c| c.restarts),
            basis_sweeps: sum(|c| c.basis_sweeps),
            reorthogonalizations: sum(|c| c.reorthogonalizations),
            loo_breaches: sum(|c| c.loo_breaches),
            escalations: sum(|c| c.escalations),
            attempts: sum(|c| c.attempts),
            jobs: sum(|c| c.jobs),
            frsz2_bits_per_value: (!bits.is_empty())
                .then(|| bits.iter().sum::<f64>() / bits.len() as f64),
        }
    }
}

/// What the harness keeps of one op.
#[derive(Clone, Debug)]
pub struct OpOutcome {
    /// Wall time of the call a user of the system makes (a service
    /// round: the sum over its jobs).
    pub latency_ns: u64,
    /// Solved to target (explicit residual); `false` also for a job the
    /// service refused or failed.
    pub converged: bool,
    /// The service refused the job at admission.
    pub rejected: bool,
    /// Harness-recomputed `‖b − Ax‖/‖b‖ ÷ target` (largest lane);
    /// `None` when the op returned no solution.
    pub rrn_over_target: Option<f64>,
    /// FNV-1a over iterations, history, format trajectory and solution
    /// bits: equal digests mean bit-identical results.
    pub digest: u64,
    pub counters: Counters,
    /// A traced service job: how long its direct krylov twin took
    /// untraced and traced, in ns (a round: the sums).
    pub twin_ns: Option<(u64, u64)>,
    /// A service round: each job's kind and latency.
    pub job_ns: Vec<(&'static str, u64)>,
}

impl OpOutcome {
    /// A service round from its jobs, in `JOB_KINDS` order (so a round
    /// folds the same way whatever order its jobs ran in).
    fn round(jobs: &[OpOutcome]) -> OpOutcome {
        let mut h = Fnv::new();
        for job in jobs {
            h.push(job.digest);
        }
        let counters: Vec<Counters> = jobs.iter().map(|j| j.counters).collect();
        OpOutcome {
            latency_ns: jobs.iter().map(|j| j.latency_ns).sum(),
            converged: jobs.iter().all(|j| j.converged),
            rejected: jobs.iter().any(|j| j.rejected),
            rrn_over_target: jobs
                .iter()
                .filter_map(|j| j.rrn_over_target)
                .reduce(f64::max),
            digest: h.0,
            counters: Counters::total(&counters),
            twin_ns: jobs.iter().try_fold((0, 0), |(u, t), j| {
                j.twin_ns.map(|(ju, jt)| (u + ju, t + jt))
            }),
            job_ns: JOB_KINDS
                .iter()
                .zip(jobs)
                .map(|(kind, j)| (kind.label, j.latency_ns))
                .collect(),
        }
    }
}

/// FNV-1a over `u64` words — the workspace's fingerprint hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The committed pin formula: iterations, then every history point.
fn pin_fingerprint(r: &SolveResult) -> String {
    let mut h = Fnv::new();
    h.push(r.stats.iterations as u64);
    for point in &r.history {
        h.push(point.rrn.to_bits());
    }
    format!("{:016x}", h.0)
}

fn push_solve(h: &mut Fnv, stats: &SolveStats, history: &[HistoryPoint], x: &[f64]) {
    h.push(stats.iterations as u64);
    for point in history {
        h.push(point.rrn.to_bits());
    }
    for f in &stats.format_trajectory {
        for byte in f.as_bytes() {
            h.push(u64::from(*byte));
        }
    }
    for v in x {
        h.push(v.to_bits());
    }
}

fn digest(r: &SolveResult) -> u64 {
    let mut h = Fnv::new();
    push_solve(&mut h, &r.stats, &r.history, &r.x);
    h.0
}

fn block_digest(r: &BlockSolveResult) -> u64 {
    let mut h = Fnv::new();
    for ((stats, history), x) in r.stats.iter().zip(&r.histories).zip(&r.solutions) {
        push_solve(&mut h, stats, history, x);
    }
    h.0
}

/// `‖b − Ax‖/‖b‖`, computed the way the drivers' explicit residual is.
fn recomputed_rrn(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    SparseMatrix::spmv(a, x, &mut ax);
    let mut r = vec![0.0; b.len()];
    dense::sub(b, &ax, &mut r);
    dense::norm2(&r) / dense::norm2(b)
}

/// Recompute one lane's residual and check it against the target.
fn checked_rrn(
    a: &Csr,
    b: &[f64],
    x: &[f64],
    converged: bool,
    target: f64,
) -> Result<f64, Failure> {
    let ratio = recomputed_rrn(a, b, x) / target;
    if converged && ratio > 1.0 {
        return Err(Failure::new(
            Check::RrnAboveTarget,
            format!("rrn/target = {ratio} on an op reported converged"),
        ));
    }
    Ok(ratio)
}

/// `FAMILY` smooth unit-norm solutions on an `nx × ny × nz` grid (each
/// a sum of three low-frequency sine modes with seeded frequencies and
/// amplitudes) and their right-hand sides `b = A x`.
fn rhs_family(a: &Csr, dims: [usize; 3], seed: u64) -> Vec<Vec<f64>> {
    let [nx, ny, nz] = dims;
    assert_eq!(a.rows(), nx * ny * nz, "grid does not match the operator");
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..FAMILY)
        .map(|_| {
            let modes: Vec<([f64; 3], f64)> = (0..3)
                .map(|_| {
                    let freq = [0; 3].map(|_: i32| rng.gen_range(1..=3usize) as f64);
                    (freq, rng.gen_range(0.5..1.5))
                })
                .collect();
            let wave = |k: f64, i: usize, n: usize| {
                (std::f64::consts::PI * k * (i + 1) as f64 / (n + 1) as f64).sin()
            };
            let mut x = Vec::with_capacity(a.rows());
            for z in 0..nz {
                for y in 0..ny {
                    for xi in 0..nx {
                        x.push(
                            modes
                                .iter()
                                .map(|(f, amp)| {
                                    amp * wave(f[0], xi, nx) * wave(f[1], y, ny) * wave(f[2], z, nz)
                                })
                                .sum::<f64>(),
                        );
                    }
                }
            }
            dense::scale(1.0 / dense::norm2(&x), &mut x);
            a.mul_vec(&x)
        })
        .collect()
}

/// A preconditioner chosen at setup time.
enum Pre {
    Identity,
    Jacobi(Jacobi),
}

impl Pre {
    fn as_dyn(&self) -> &dyn Preconditioner {
        match self {
            Pre::Identity => &Identity,
            Pre::Jacobi(j) => j,
        }
    }
}

/// One workload, set up and ready to run ops.
pub trait Workload: Sync {
    fn id(&self) -> WorkloadId;

    /// Ops in one whole cycle: every input equally often.
    fn cycle(&self) -> usize;

    /// Which input op `i` runs; ops on the same input must give
    /// bit-identical results.
    fn input(&self, i: usize) -> usize {
        i % self.cycle()
    }

    /// Run op `i`; with `trace = Some(id)`, every layer call is recorded
    /// as a span of trace op `id`.
    fn run_op(&self, i: usize, trace: Option<u32>) -> Result<OpOutcome, Failure>;

    /// The pinned manufactured problem (first warmup op). Fails on a
    /// pinned-fingerprint mismatch or if it does not converge.
    fn pinned_op(&self, trace: Option<u32>) -> Result<OpOutcome, Failure>;

    /// The second warmup op: the first family member.
    fn warmup_op(&self) -> Result<OpOutcome, Failure> {
        self.run_op(0, None)
    }

    /// Operator registration time of this setup (service only).
    fn register_ms(&self) -> f64 {
        0.0
    }
}

/// Run `f` on the calling thread with a pool of `threads` installed.
pub fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}

/// Generate, analyse and warm up one workload: everything `setup_s`
/// times.
pub fn setup(id: WorkloadId, seed: u64) -> Result<Box<dyn Workload>, Failure> {
    let w: Box<dyn Workload> = match id {
        WorkloadId::ServiceMixed => Box::new(ServiceWorkload::new(seed)),
        _ => Box::new(SolveWorkload::new(id, seed)),
    };
    with_pool(id.spec().pool_threads, || {
        w.pinned_op(None)?;
        w.warmup_op()
    })?;
    Ok(w)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SolveKind {
    Paper,
    Operator,
    Sstep,
}

/// The three single-solve workloads: one operator, direct krylov calls.
struct SolveWorkload {
    id: WorkloadId,
    kind: SolveKind,
    a: Csr,
    precond: Pre,
    rhs: Vec<Vec<f64>>,
    pinned_rhs: Vec<f64>,
    x0: Vec<f64>,
    sopts: SStepOptions,
    format: Box<dyn BasisFormat>,
    /// The paper's storage configuration: FRSZ2, block size 32, `l = 21`.
    frsz2_21: Frsz2Config,
    pin: Option<&'static str>,
}

impl SolveWorkload {
    fn new(id: WorkloadId, seed: u64) -> SolveWorkload {
        let (kind, edge, restart, target, pin) = match id {
            WorkloadId::PaperFrsz2_21 => (SolveKind::Paper, 20, 100, 1e-10, Some(PIN_PAPER)),
            WorkloadId::OperatorF64 => (SolveKind::Operator, 40, 10, 1e-8, None),
            WorkloadId::Sstep4Dyn => (SolveKind::Sstep, 20, 100, 1e-10, Some(PIN_SSTEP4)),
            WorkloadId::ServiceMixed => unreachable!("the service workload has its own setup"),
        };
        let a = gen::conv_diff_3d(edge, edge, edge, [0.4, 0.2, 0.1], 0.2);
        let precond = match kind {
            SolveKind::Operator => Pre::Jacobi(Jacobi::new(&a)),
            _ => Pre::Identity,
        };
        let rhs = rhs_family(&a, [edge; 3], seed);
        let (_, pinned_rhs) = dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let gmres = GmresOptions {
            restart,
            max_iters: 5000,
            target_rrn: target,
            record_history: true,
            ..GmresOptions::default()
        };
        SolveWorkload {
            id,
            kind,
            a,
            precond,
            rhs,
            pinned_rhs,
            x0,
            sopts: SStepOptions {
                s: 4,
                loo_budget: None,
                gmres,
            },
            format: basis_format::by_name("frsz2_21").expect("frsz2_21 is registered"),
            frsz2_21: Frsz2Config::new(32, 21),
            pin,
        }
    }

    /// One solve; returns the result, its LOO breach count and latency.
    fn solve(&self, b: &[f64], trace: Option<u32>) -> (SolveResult, u64, u64) {
        let start = Instant::now();
        let (result, loo) = match (trace, &self.precond) {
            (None, Pre::Identity) => self.dispatch(&self.a, b, &Identity, None),
            (None, Pre::Jacobi(j)) => self.dispatch(&self.a, b, j, None),
            (Some(op), pre) => trace::span(SpanName::Op, op, 0, false, || {
                self.dispatch(
                    &TracedMatrix::new(&self.a, op),
                    b,
                    &TracedPrecond::new(pre.as_dyn(), op),
                    Some(op),
                )
            }),
        };
        (result, loo, start.elapsed().as_nanos() as u64)
    }

    fn dispatch<A: SparseMatrix + ?Sized, P: Preconditioner>(
        &self,
        a: &A,
        b: &[f64],
        p: &P,
        trace: Option<u32>,
    ) -> (SolveResult, u64) {
        let (x0, opts, cfg) = (&self.x0, &self.sopts.gmres, self.frsz2_21);
        let plain = |r| (r, 0);
        match (self.kind, trace) {
            (SolveKind::Paper, None) => plain(gmres_with(a, b, x0, opts, p, |r, c| {
                Frsz2Store::with_config(cfg, r, c)
            })),
            (SolveKind::Paper, Some(op)) => plain(gmres_with(a, b, x0, opts, p, |r, c| {
                trace::traced_create(op, || Frsz2Store::with_config(cfg, r, c))
            })),
            (SolveKind::Operator, None) => {
                plain(gmres_with(a, b, x0, opts, p, DenseStore::<f64>::with_shape))
            }
            (SolveKind::Operator, Some(op)) => plain(gmres_with(a, b, x0, opts, p, |r, c| {
                trace::traced_create(op, || DenseStore::<f64>::with_shape(r, c))
            })),
            (SolveKind::Sstep, trace) => {
                let format = self.format.as_ref();
                let r = match trace {
                    None => sstep_gmres_dyn(a, b, x0, &self.sopts, p, format),
                    Some(op) => {
                        sstep_gmres_dyn(a, b, x0, &self.sopts, p, &TracedFormat::new(format, op))
                    }
                };
                (r.solve, r.loo_breaches as u64)
            }
        }
    }

    fn op(&self, b: &[f64], trace: Option<u32>) -> Result<(OpOutcome, SolveResult), Failure> {
        let (r, loo, latency_ns) = self.solve(b, trace);
        let target = self.sopts.gmres.target_rrn;
        let ratio = checked_rrn(&self.a, b, &r.x, r.stats.converged, target)?;
        let outcome = OpOutcome {
            latency_ns,
            converged: r.stats.converged,
            rejected: false,
            rrn_over_target: Some(ratio),
            digest: digest(&r),
            counters: Counters {
                loo_breaches: loo,
                ..Counters::of(&r.stats)
            },
            twin_ns: None,
            job_ns: Vec::new(),
        };
        Ok((outcome, r))
    }
}

impl Workload for SolveWorkload {
    fn id(&self) -> WorkloadId {
        self.id
    }

    fn cycle(&self) -> usize {
        FAMILY
    }

    fn run_op(&self, i: usize, trace: Option<u32>) -> Result<OpOutcome, Failure> {
        self.op(&self.rhs[i % FAMILY], trace).map(|(o, _)| o)
    }

    fn pinned_op(&self, trace: Option<u32>) -> Result<OpOutcome, Failure> {
        let (outcome, r) = self.op(&self.pinned_rhs, trace)?;
        if let Some(pin) = self.pin {
            let got = pin_fingerprint(&r);
            if got != pin {
                return Err(Failure::new(
                    Check::PinnedFingerprint,
                    format!(
                        "{}: manufactured problem gave {got}, pinned {pin}",
                        self.id.name()
                    ),
                ));
            }
        }
        if !outcome.converged {
            return Err(Failure::new(
                Check::WarmupNotConverged,
                format!("{}: final rrn {:e}", self.id.name(), r.stats.final_rrn),
            ));
        }
        Ok(outcome)
    }
}

/// A basis choice of a service job.
#[derive(Clone, Copy, Debug)]
enum Pick {
    Fixed(&'static str),
    Auto,
    Adaptive,
}

/// One job kind of the service mix.
#[derive(Clone, Copy, Debug)]
struct JobKind {
    /// Name of the kind in the per-kind latencies of a result record.
    label: &'static str,
    wide: bool,
    pick: Pick,
    target: f64,
    sstep: usize,
    width: usize,
}

const fn job(
    label: &'static str,
    wide: bool,
    pick: Pick,
    target: f64,
    sstep: usize,
    width: usize,
) -> JobKind {
    JobKind {
        label,
        wide,
        pick,
        target,
        sstep,
        width,
    }
}

/// The job kinds of the service mix. Each has the same weight — one job
/// per block of ops — because no measured traffic mix exists to take
/// weights from. Targets sit at or above each format's accuracy floor
/// so every job converges on its first attempt.
const JOB_KINDS: [JobKind; 10] = [
    job("frsz2_16", false, Pick::Fixed("frsz2_16"), 1e-2, 1, 1),
    job("frsz2_21", false, Pick::Fixed("frsz2_21"), 1e-3, 1, 1),
    job("frsz2_32", false, Pick::Fixed("frsz2_32"), 1e-6, 1, 1),
    job("float64", false, Pick::Fixed("float64"), 1e-10, 1, 1),
    job("frsz2_ab", false, Pick::Fixed("frsz2_ab"), 1e-6, 1, 1),
    job("auto", false, Pick::Auto, 1e-3, 1, 1),
    job("sstep2", false, Pick::Fixed("frsz2_32"), 1e-6, 2, 1),
    job("wide_float64", true, Pick::Fixed("float64"), 1e-10, 1, 1),
    job("wide_adaptive", true, Pick::Adaptive, 1e-10, 1, 1),
    job("block4", false, Pick::Fixed("frsz2_32"), 1e-6, 1, 4),
];

/// The warmup job (and the pinned manufactured job): the paper's format
/// at a target it reaches on the small operator.
const WARMUP_JOB: JobKind = JOB_KINDS[1];

/// A registered operator plus the bench's own cached copies of what the
/// service caches (auto-format matrix, preconditioner) for the twin.
struct Operator {
    name: &'static str,
    csr: Csr,
    matrix: Box<dyn SparseMatrix>,
    precond: Pre,
    rhs: Vec<Vec<f64>>,
    pinned_rhs: Vec<f64>,
}

impl Operator {
    fn new(name: &'static str, csr: Csr, edge: usize, jacobi: bool, seed: u64) -> Operator {
        let matrix = spla::auto_format(&csr).build(&csr);
        let precond = if jacobi {
            Pre::Jacobi(Jacobi::new(&csr))
        } else {
            Pre::Identity
        };
        let rhs = rhs_family(&csr, [edge; 3], seed);
        let (_, pinned_rhs) = dense::manufactured_rhs(&csr);
        Operator {
            name,
            csr,
            matrix,
            precond,
            rhs,
            pinned_rhs,
        }
    }
}

struct ServiceWorkload {
    service: SolverService,
    smooth: Operator,
    wide: Operator,
    seed: u64,
    register_ms: f64,
}

impl ServiceWorkload {
    fn new(seed: u64) -> ServiceWorkload {
        let smooth = Operator::new(
            "smooth",
            gen::conv_diff_3d(10, 10, 10, [0.3, 0.2, 0.1], 0.3),
            10,
            true,
            seed,
        );
        let wide = Operator::new(
            "wide",
            gen::wide_range_conv_diff(8, 8, 8, 24, 0x5202),
            8,
            false,
            seed.wrapping_add(1),
        );
        // A budget no pair of in-flight jobs reaches: every job pays for
        // admission accounting, none is refused.
        let service = SolverService::new(ServiceConfig {
            basis_budget_bytes: Some(64 << 20),
            admission: AdmissionPolicy::Reject,
        });
        let start = Instant::now();
        service
            .register_csr(smooth.name, &smooth.csr, PrecondSpec::Jacobi)
            .expect("register the smooth operator");
        service
            .register_csr(wide.name, &wide.csr, PrecondSpec::None)
            .expect("register the wide operator");
        let register_ms = start.elapsed().as_secs_f64() * 1e3;
        ServiceWorkload {
            service,
            smooth,
            wide,
            seed,
            register_ms,
        }
    }

    /// The jobs of round `i` in the order it runs them: `JOB_KINDS`
    /// indices, each with its family member. Kind `k` runs member
    /// `(i + k) mod FAMILY`, so a cycle of `FAMILY` rounds runs every kind
    /// on every member once, and each round mixes members instead of
    /// running one member for every kind. The order
    /// is seeded per round: one order repeated would make which kinds
    /// the two clients run side by side depend on the seed.
    fn round(&self, i: usize) -> [(usize, usize); JOB_KINDS.len()] {
        let mut order: [usize; JOB_KINDS.len()] = std::array::from_fn(|k| k);
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for j in (1..order.len()).rev() {
            order.swap(j, rng.gen_range(0..=j));
        }
        order.map(|k| (k, (i + k) % FAMILY))
    }

    fn operator(&self, kind: &JobKind) -> &Operator {
        if kind.wide {
            &self.wide
        } else {
            &self.smooth
        }
    }

    fn opts(kind: &JobKind) -> GmresOptions {
        let mut opts = GmresOptions {
            target_rrn: kind.target,
            record_history: true,
            ..GmresOptions::default()
        };
        if kind.wide {
            opts.restart = 30;
            opts.max_iters = 1200;
        }
        opts
    }

    fn selection(pick: Pick) -> BasisSelection {
        match pick {
            Pick::Fixed(name) => BasisSelection::Fixed(name.to_string()),
            Pick::Auto => BasisSelection::Auto,
            Pick::Adaptive => BasisSelection::Adaptive,
        }
    }

    /// Run one job of `kind` on `rhss` (one per lane) through the
    /// service. Traced, the job runs inside a `Job` span and is followed
    /// on this thread by its direct krylov twin, run untraced and then
    /// traced: both must give the job's bits. The job path carries no
    /// layer wrappers, so the two twin latencies are what tracing costs.
    fn job(
        &self,
        kind: &JobKind,
        rhss: Vec<Vec<f64>>,
        trace: Option<u32>,
    ) -> Result<OpOutcome, Failure> {
        let op = self.operator(kind);
        let opts = Self::opts(kind);
        let timed = |f: &mut dyn FnMut()| {
            let start = Instant::now();
            match trace {
                Some(id) => trace::span(SpanName::Job, id, 0, false, f),
                None => f(),
            }
            start.elapsed().as_nanos() as u64
        };
        let failed = |latency_ns, e: ServiceError| OpOutcome {
            latency_ns,
            converged: false,
            rejected: matches!(
                e,
                ServiceError::BudgetExceeded { .. } | ServiceError::AdmissionTimeout { .. }
            ),
            rrn_over_target: None,
            digest: 0,
            counters: Counters::default(),
            twin_ns: None,
            job_ns: Vec::new(),
        };
        // The outcome, the basis format the job's last attempt ran in,
        // and the right-hand sides back from the spec.
        let (mut outcome, format, rhss) = if kind.width > 1 {
            let mut spec = BlockJobSpec::new(op.name, rhss);
            spec.basis = Self::selection(kind.pick);
            spec.opts = opts.clone();
            let mut result = None;
            let latency_ns = timed(&mut || result = Some(self.service.solve_block(&spec)));
            let r = match result.expect("the job ran") {
                Ok(r) => r,
                Err(e) => return Ok(failed(latency_ns, e)),
            };
            let outcome = Self::block_outcome(op, &spec.rhss, &r, kind.target, latency_ns)?;
            (outcome, r.stats[0].format.clone(), spec.rhss)
        } else {
            let b = rhss.into_iter().next().expect("one right-hand side");
            let mut spec = JobSpec::new(op.name, b);
            spec.basis = Self::selection(kind.pick);
            spec.opts = opts.clone();
            spec.sstep = kind.sstep;
            spec.retry = Some(RetryPolicy::quick(1));
            let mut report = None;
            let latency_ns = timed(&mut || report = Some(self.service.solve_report(&spec)));
            let report = match report.expect("the job ran") {
                Ok(report) => report,
                Err(e) => return Ok(failed(latency_ns, e)),
            };
            let r = &report.result;
            let ratio = checked_rrn(&op.csr, &spec.b, &r.x, r.stats.converged, kind.target)?;
            let outcome = OpOutcome {
                latency_ns,
                converged: r.stats.converged,
                rejected: false,
                rrn_over_target: Some(ratio),
                digest: digest(r),
                counters: Counters {
                    attempts: report.attempts as u64,
                    ..Counters::of(&r.stats)
                },
                twin_ns: None,
                job_ns: Vec::new(),
            };
            let last = report.formats_tried.last().expect("at least one attempt");
            (outcome, last.clone(), vec![spec.b])
        };
        if let Some(id) = trace {
            // `None` for an adaptive job, whose driver picks its formats.
            let format = basis_format::by_name(&format);
            let twin = |trace| {
                let start = Instant::now();
                let (digest, counters) =
                    Self::twin(op, kind, &opts, &rhss, format.as_deref(), trace);
                (digest, counters, start.elapsed().as_nanos() as u64)
            };
            let (plain, _, untraced_ns) = twin(None);
            let (traced, counters, traced_ns) =
                trace::span(SpanName::Twin, id, 0, false, || twin(Some(id)));
            Self::same_as_twin(outcome.digest, plain)?;
            Self::same_as_twin(outcome.digest, traced)?;
            outcome.counters = Counters {
                attempts: outcome.counters.attempts,
                ..counters
            };
            outcome.twin_ns = Some((untraced_ns, traced_ns));
        }
        Ok(outcome)
    }

    /// The job's direct krylov twin — the call the service makes, on the
    /// bench's cached operator copy, in the job's last `format` — with
    /// every layer call recorded when `trace` is set. Returns the twin's
    /// digest and counters.
    fn twin(
        op: &Operator,
        kind: &JobKind,
        opts: &GmresOptions,
        rhss: &[Vec<f64>],
        format: Option<&dyn BasisFormat>,
        trace: Option<u32>,
    ) -> (u64, Counters) {
        let a = op.matrix.as_ref();
        match (trace, &op.precond) {
            (None, Pre::Identity) => solve_twin(a, &Identity, format, kind, opts, rhss),
            (None, Pre::Jacobi(j)) => solve_twin(a, j, format, kind, opts, rhss),
            (Some(id), pre) => {
                let format = format.map(|f| TracedFormat::new(f, id));
                solve_twin(
                    &TracedMatrix::new(a, id),
                    &TracedPrecond::new(pre.as_dyn(), id),
                    format.as_ref().map(|f| f as &dyn BasisFormat),
                    kind,
                    opts,
                    rhss,
                )
            }
        }
    }

    fn same_as_twin(job: u64, twin: u64) -> Result<(), Failure> {
        if job == twin {
            Ok(())
        } else {
            Err(Failure::new(
                Check::TwinMismatch,
                format!("job digest {job:016x}, twin digest {twin:016x}"),
            ))
        }
    }

    fn block_outcome(
        op: &Operator,
        rhss: &[Vec<f64>],
        r: &BlockSolveResult,
        target: f64,
        latency_ns: u64,
    ) -> Result<OpOutcome, Failure> {
        let mut worst: f64 = 0.0;
        for ((b, x), stats) in rhss.iter().zip(&r.solutions).zip(&r.stats) {
            worst = worst.max(checked_rrn(&op.csr, b, x, stats.converged, target)?);
        }
        Ok(OpOutcome {
            latency_ns,
            converged: r.stats.iter().all(|s| s.converged),
            rejected: false,
            rrn_over_target: Some(worst),
            digest: block_digest(r),
            counters: block_counters(r),
            twin_ns: None,
            job_ns: Vec::new(),
        })
    }
}

/// Largest counters over a block solve's lanes.
fn block_counters(r: &BlockSolveResult) -> Counters {
    r.stats
        .iter()
        .map(Counters::of)
        .fold(Counters::default(), Counters::max)
}

/// A service job's krylov driver called directly: block, adaptive,
/// s-step or plain GMRES as `kind` says.
fn solve_twin<A: SparseMatrix + ?Sized, P: Preconditioner>(
    a: &A,
    p: &P,
    format: Option<&dyn BasisFormat>,
    kind: &JobKind,
    opts: &GmresOptions,
    rhss: &[Vec<f64>],
) -> (u64, Counters) {
    let format = || format.expect("a fixed-format job names a registered format");
    if kind.width > 1 {
        let r = block_gmres_dyn(a, rhss, None, opts, p, format());
        return (block_digest(&r), block_counters(&r));
    }
    let b = &rhss[0];
    let x0 = vec![0.0; b.len()];
    let (r, loo) = if matches!(kind.pick, Pick::Adaptive) {
        let aopts = AdaptiveOptions {
            gmres: opts.clone(),
            ..AdaptiveOptions::default()
        };
        (adaptive_gmres(a, b, &x0, &aopts, p), 0)
    } else if kind.sstep > 1 {
        let sopts = SStepOptions {
            s: kind.sstep,
            loo_budget: None,
            gmres: opts.clone(),
        };
        let r = sstep_gmres_dyn(a, b, &x0, &sopts, p, format());
        (r.solve, r.loo_breaches as u64)
    } else {
        (basis_format::gmres_dyn(a, b, &x0, opts, p, format()), 0)
    };
    let counters = Counters {
        loo_breaches: loo,
        ..Counters::of(&r.stats)
    };
    (digest(&r), counters)
}

impl Workload for ServiceWorkload {
    fn id(&self) -> WorkloadId {
        WorkloadId::ServiceMixed
    }

    /// Every job kind on every family member.
    fn cycle(&self) -> usize {
        FAMILY
    }

    /// One round: a job of every kind, one after another.
    fn run_op(&self, i: usize, trace: Option<u32>) -> Result<OpOutcome, Failure> {
        let mut jobs: [Option<OpOutcome>; JOB_KINDS.len()] = Default::default();
        for (k, member) in self.round(i) {
            let kind = &JOB_KINDS[k];
            let rhs = &self.operator(kind).rhs;
            let rhss = (0..kind.width)
                .map(|t| rhs[(member + t) % FAMILY].clone())
                .collect();
            jobs[k] = Some(self.job(kind, rhss, trace)?);
        }
        Ok(OpOutcome::round(
            &jobs.map(|j| j.expect("a round runs every kind")),
        ))
    }

    fn pinned_op(&self, trace: Option<u32>) -> Result<OpOutcome, Failure> {
        let rhs = vec![self.smooth.pinned_rhs.clone()];
        let outcome = self.job(&WARMUP_JOB, rhs, trace)?;
        if !outcome.converged {
            return Err(Failure::new(
                Check::WarmupNotConverged,
                "service_mixed: manufactured frsz2_21 job",
            ));
        }
        Ok(outcome)
    }

    /// A fixed job kind, not the first of the seeded mix (which may be
    /// the 25 ms block job), so set-up time does not depend on the seed.
    fn warmup_op(&self) -> Result<OpOutcome, Failure> {
        self.job(&WARMUP_JOB, vec![self.smooth.rhs[0].clone()], None)
    }

    fn register_ms(&self) -> f64 {
        self.register_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The warmup ops of every workload give the same bits traced and
    /// untraced, at 1 and 2 threads, and the pinned fingerprints hold
    /// at both thread counts (a service job is additionally checked
    /// against its traced krylov twin inside `run_op`).
    #[test]
    fn warmup_ops_are_bit_identical_traced_and_untraced_at_one_and_two_threads() {
        let mut next_id = 7000;
        for id in WorkloadId::ALL {
            let w = setup(id, 1).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            let mut digests = Vec::new();
            for threads in [1, 2] {
                with_pool(threads, || {
                    for trace in [None, Some(next_id)] {
                        let pinned = w.pinned_op(trace).unwrap();
                        let first = w.run_op(0, trace).unwrap();
                        // Only a traced service job times its twin.
                        let twinned = id == WorkloadId::ServiceMixed && trace.is_some();
                        assert_eq!(first.twin_ns.is_some(), twinned, "{}", id.name());
                        digests.push((pinned.digest, first.digest));
                        if let Some(op) = trace {
                            assert!(!trace::take_op(op).is_empty(), "{}", id.name());
                        }
                        next_id += 1;
                    }
                });
            }
            assert!(
                digests.windows(2).all(|d| d[0] == d[1]),
                "{}: {digests:x?}",
                id.name()
            );
        }
    }

    /// Every job kind weighs the same: each round runs each kind once,
    /// and a whole cycle runs each kind on each family member.
    #[test]
    fn service_rounds_run_every_job_kind_once() {
        let w = ServiceWorkload::new(5);
        let mut seen = Vec::new();
        for i in 0..w.cycle() {
            let round = w.round(i);
            let mut kinds: Vec<usize> = round.iter().map(|&(k, _)| k).collect();
            kinds.sort_unstable();
            assert_eq!(kinds, (0..JOB_KINDS.len()).collect::<Vec<_>>());
            seen.extend(round);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), JOB_KINDS.len() * FAMILY);
        assert_ne!(
            w.round(0),
            w.round(w.cycle()),
            "orders are seeded per round"
        );
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(id.name()), Some(id));
        }
        assert_eq!(WorkloadId::parse("paper"), None);
    }

    #[test]
    fn rhs_family_is_seeded_and_smooth() {
        let a = gen::conv_diff_3d(6, 5, 4, [0.4, 0.2, 0.1], 0.2);
        let one = rhs_family(&a, [6, 5, 4], 3);
        assert_eq!(one.len(), FAMILY);
        assert_eq!(one, rhs_family(&a, [6, 5, 4], 3));
        assert_ne!(one, rhs_family(&a, [6, 5, 4], 4));
        assert_ne!(one[0], one[1]);
    }
}
