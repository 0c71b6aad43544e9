//! The pinned-fingerprint contract.
//!
//! Each row re-runs one full-size case of a paper-critical path, hashes
//! its numeric output with FNV-1a over `u64` words, and compares the
//! hash with a literal. First it asserts the invariant that makes the
//! case meaningful: a counterpoint that must stagnate, a ladder that
//! must be walked, a fault that must be detected. Every table runs under
//! a 1-thread and a 2-thread `rayon` pool, so one literal also pins the
//! result across thread counts. A change that moves a result on purpose
//! updates its literal and says why. Timing lives in `frsz2_bench`.
//!
//! Debug builds run these solves about 16× slower, so the tables are
//! ignored there: `cargo test --release -p bench --test pinned`.

use frsz2::{Frsz2Config, Frsz2Store, Frsz2Vector};
use krylov::{
    basis_format, block_gmres_with, gmres_with, sstep_gmres_dyn, GmresOptions, HistoryPoint,
    Identity, SStepOptions, SStepSolveResult, SolveResult, ESCALATION_LADDER,
};
use solver_service::{
    estimated_basis_bytes, AdmissionPolicy, BasisBitFlip, BasisSelection, FaultSpec, JobSpec,
    PrecondSpec, RetryPolicy, ServiceConfig, ServiceError, SolveCheckpoint, SolverService,
};
use spla::dense::{manufactured_rhs, norm2};
use spla::{auto_format, gen, Csr, Ell, SellCSigma, SparseMatrix};
use std::sync::OnceLock;
use std::time::Duration;

/// One pinned case: its name, the committed fingerprint, and the run
/// that recomputes it (asserting the case's invariant on the way).
type Pin = (&'static str, &'static str, fn() -> String);

/// The `cb_gmres_frsz2_21` fingerprint, which the block (b = 1) and
/// s-step (s = 1) drivers must reproduce bit for bit.
const PAPER_SOLVE: &str = "4cf2d4ec8228bcd9";
/// The plain smooth fault-suite solve, which the panic retry, the
/// resumed solve and the probed solve must all reproduce.
const FAULT_PLAIN: &str = "94aa36a2a009752e";

#[rustfmt::skip]
const SPMV: &[Pin] = &[
    ("spmv_csr",  "7e9d08a74c161e10", || spmv(|a| Box::new(a.clone()))),
    ("spmv_ell",  "7e9d08a74c161e10", || spmv(|a| Box::new(Ell::from_csr(a)))),
    ("spmv_sell", "7e9d08a74c161e10", || spmv(|a| Box::new(SellCSigma::from_csr(a, 32, 256)))),
];

#[rustfmt::skip]
const CODEC: &[Pin] = &[
    ("codec_roundtrip_l16", "9a429d8ba1657150", || codec(16)),
    ("codec_roundtrip_l21", "7eaa8f9aa396a21f", || codec(21)),
    ("codec_roundtrip_l32", "683b6cfd0692b4af", || codec(32)),
    ("basis_dots",          "eadebcfdd07f1cf7", basis_dots),
    ("basis_gemv",          "f115303f1f772774", basis_gemv),
];

#[rustfmt::skip]
const SOLVE: &[Pin] = &[
    ("cb_gmres_frsz2_21",       PAPER_SOLVE,        || cb_gmres_frsz2_21(|a| Box::new(a.clone()))),
    ("cb_gmres_frsz2_21_auto",  PAPER_SOLVE,        || cb_gmres_frsz2_21(|a| auto_format(a).build(a))),
    ("cb_gmres_frsz2_16_fixed", "9ea04388ba093def", || traj_fp(&frsz2_16_stagnates(scaled()))),
    ("cb_gmres_adaptive",       "b8300d76cc68f5a2", adaptive),
    ("cb_gmres_adaptive_bidir", "5041bbd3740da38a", adaptive_bidir),
    ("cb_gmres_frsz2_16_runs",  "e368d48abdd610e9", || fnv(words(&frsz2_16_stagnates(runs())))),
    ("cb_gmres_frsz2_ab",       "e7fd2a676e5f42d1", frsz2_ab),
];

#[rustfmt::skip]
const BLOCK: &[Pin] = &[
    ("block_solve_frsz2_21_b1",  PAPER_SOLVE,        || block(1)),
    ("block_solve_frsz2_21_b4",  "25931fe030d94e93", || block(4)),
    ("block_solve_frsz2_21_b16", "65f91283ffba1382", || block(16)),
];

#[rustfmt::skip]
const SSTEP: &[Pin] = &[
    ("sstep_solve_frsz2_21_s1", PAPER_SOLVE,        || sstep(1)),
    ("sstep_solve_frsz2_21_s2", "18d0814bab74c2eb", || sstep(2)),
    ("sstep_solve_frsz2_21_s4", "947f45afa710f032", || sstep(4)),
    ("sstep_solve_frsz2_21_s8", "abf6568011a0dadb", || sstep(8)),
];

#[rustfmt::skip]
const SERVICE: &[Pin] = &[
    ("service_sequential", "c988a0ebb9886b6b", || service_jobs(false)),
    ("service_concurrent", "c988a0ebb9886b6b", || service_jobs(true)),
];

#[rustfmt::skip]
const FAULTS: &[Pin] = &[
    ("fault_bitflip_detected",           "f92e04a4035fe505", fault_bitflip),
    ("fault_nan_hessenberg_breakdown",   "714b4384cea242e8", fault_nan),
    ("fault_retry_escalation_recovers",  "0ded4f70d91d9d3f", fault_retry),
    ("fault_job_panic_isolated",         FAULT_PLAIN,        fault_panic),
    ("fault_deadline_checkpoint_resume", FAULT_PLAIN,        fault_resume),
    ("fault_checkpoint_overhead",        FAULT_PLAIN,        fault_probe),
];

/// Run every row under a 1-thread and a 2-thread pool.
fn check(pins: &[Pin]) {
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("rayon pool");
        for &(case, hex, run) in pins {
            assert_eq!(pool.install(run), hex, "{case} at {threads} threads");
        }
    }
}

/// One `#[test]` per table, ignored in debug builds.
macro_rules! pinned_tests {
    ($($test:ident => $table:ident),* $(,)?) => {$(
        #[test]
        #[cfg_attr(debug_assertions, ignore = "full-size pinned solves; run with --release")]
        fn $test() {
            check($table);
        }
    )*};
}

pinned_tests! {
    spmv_pins => SPMV,
    codec_pins => CODEC,
    solve_pins => SOLVE,
    block_pins => BLOCK,
    sstep_pins => SSTEP,
    service_pins => SERVICE,
    fault_pins => FAULTS,
}

/// FNV-1a over `u64` words, each fed as its 8 little-endian bytes.
fn fnv(words: impl IntoIterator<Item = u64>) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let bytes = words.into_iter().flat_map(u64::to_le_bytes);
    let h = bytes.fold(OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(PRIME));
    format!("{h:016x}")
}

fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits())
}

/// Text enters one word per byte.
fn text(s: &str) -> impl Iterator<Item = u64> + '_ {
    s.bytes().map(u64::from)
}

/// A solve enters as its iteration count, then every residual of its
/// history.
fn solve_words(iterations: usize, history: &[HistoryPoint]) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(iterations as u64).chain(history.iter().map(|p| p.rrn.to_bits()))
}

fn words(r: &SolveResult) -> impl Iterator<Item = u64> + '_ {
    solve_words(r.stats.iterations, &r.history)
}

/// The per-cycle format trajectory, name by name.
fn trajectory(r: &SolveResult) -> impl Iterator<Item = u64> + '_ {
    r.stats.format_trajectory.iter().flat_map(|f| text(f))
}

/// History, then the format trajectory.
fn traj_fp(r: &SolveResult) -> String {
    fnv(words(r).chain(trajectory(r)))
}

/// History, then the format trajectory, then the iterate's bits.
fn job_fp(r: &SolveResult) -> String {
    fnv(words(r).chain(trajectory(r)).chain(bits(&r.x)))
}

/// Solve `system` with the basis format `format` names, as the figure
/// binaries resolve it.
fn solve_as(s: &System, format: &str) -> SolveResult {
    bench::formats::solve(&s.a, &s.b, &s.x0, &s.opts, format, &Identity).expect("a known format")
}

/// An operator with its manufactured right-hand side, a zero initial
/// guess and solver options.
struct System {
    a: Csr,
    b: Vec<f64>,
    x0: Vec<f64>,
    opts: GmresOptions,
}

impl System {
    fn new(a: Csr, restart: usize, max_iters: usize) -> Self {
        let opts = GmresOptions {
            restart,
            max_iters,
            target_rrn: 1e-10,
            record_history: true,
            ..GmresOptions::default()
        };
        let (b, x0) = (manufactured_rhs(&a).1, vec![0.0; a.rows()]);
        System { a, b, x0, opts }
    }
}

/// The paper's solve: convection–diffusion on a 20³ grid, restart 100.
fn paper() -> &'static System {
    static S: OnceLock<System> = OnceLock::new();
    let a = || gen::conv_diff_3d(20, 20, 20, [0.4, 0.2, 0.1], 0.2);
    S.get_or_init(|| System::new(a(), 100, 5000))
}

/// A 12³ operator similarity-scaled over 24 binades: its within-block
/// exponent spread defeats frsz2_16 at 1e-10.
fn scaled() -> &'static System {
    static S: OnceLock<System> = OnceLock::new();
    S.get_or_init(|| System::new(gen::wide_range_conv_diff(12, 12, 12, 24, 0x5202), 30, 1200))
}

/// [`scaled`] with the scaling in plateaus of 16 equal entries, so most
/// 32-value blocks straddle at most one plateau boundary.
fn runs() -> &'static System {
    static S: OnceLock<System> = OnceLock::new();
    let a = || gen::wide_range_conv_diff_runs(12, 12, 12, 24, 16, 0x5202);
    S.get_or_init(|| System::new(a(), 30, 1200))
}

fn frsz2(bits: u32) -> impl Fn(usize, usize) -> Frsz2Store {
    move |rows, cols| Frsz2Store::with_config(Frsz2Config::new(32, bits), rows, cols)
}

/// SpMV of a smooth vector on the 56³ operator (≥ 1M nonzeros), in the
/// sparse layout `convert` builds.
fn spmv(convert: fn(&Csr) -> Box<dyn SparseMatrix>) -> String {
    static A: OnceLock<Csr> = OnceLock::new();
    let a = A.get_or_init(|| gen::conv_diff_3d(56, 56, 56, [0.4, 0.2, 0.1], 0.2));
    let converted = convert(a);
    let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; a.rows()];
    converted.spmv(&x, &mut y);
    fnv(bits(&y))
}

/// FRSZ2 compress + decompress of 2²⁰ values at bit length `l`.
fn codec(l: u32) -> String {
    let wave = |i: usize| (i as f64 * 0.17).sin() * 0.9;
    let data: Vec<f64> = (0..1 << 20).map(wave).collect();
    let mut out = vec![0.0; data.len()];
    Frsz2Vector::compress(Frsz2Config::new(32, l), &data).decompress_into(&mut out);
    fnv(bits(&out))
}

const KERNEL_ROWS: usize = 1 << 17;
const KERNEL_COLS: usize = 8;

/// An 8-column frsz2_21 basis of 2¹⁷ rows and the vector it is swept
/// against.
fn kernel_basis() -> (krylov::Basis<Frsz2Store>, Vec<f64>) {
    let store = Frsz2Store::with_config(Frsz2Config::new(32, 21), KERNEL_ROWS, KERNEL_COLS);
    let mut basis = krylov::Basis::from_store(store);
    for j in 0..KERNEL_COLS {
        let column = |i: usize| ((i + 31 * j) as f64 * 0.11).sin();
        basis.write(j, &(0..KERNEL_ROWS).map(column).collect::<Vec<_>>());
    }
    let w = (0..KERNEL_ROWS).map(|i| (i as f64 * 0.07).sin()).collect();
    (basis, w)
}

/// The fused `h = Vᵀw` sweep.
fn basis_dots() -> String {
    let (basis, w) = kernel_basis();
    let mut h = vec![0.0; KERNEL_COLS];
    basis.dots_with(KERNEL_COLS, &w, &mut h, &mut Vec::new());
    fnv(bits(&h))
}

/// The fused `w ← w + Σ αⱼ V[:,j]` sweep.
fn basis_gemv() -> String {
    let (basis, mut w) = kernel_basis();
    let alphas: Vec<f64> = (1..=KERNEL_COLS).map(|j| 1e-3 * j as f64).collect();
    basis.axpys(KERNEL_COLS, &alphas, &mut w);
    fnv(bits(&w))
}

/// The paper's solve with the l = 21 basis, on the sparse layout
/// `convert` builds: CSR, or the auto-selected one (which must not
/// change a bit).
fn cb_gmres_frsz2_21(convert: fn(&Csr) -> Box<dyn SparseMatrix>) -> String {
    let p = paper();
    let a = convert(&p.a);
    let r = gmres_with(a.as_ref(), &p.b, &p.x0, &p.opts, &Identity, frsz2(21));
    assert!(r.stats.converged, "the paper solve stagnated");
    fnv(words(&r))
}

/// The counterpoint: fixed frsz2_16 stagnates on `system`.
fn frsz2_16_stagnates(system: &System) -> SolveResult {
    let r = solve_as(system, "frsz2_16");
    assert!(!r.stats.converged, "the counterpoint converged");
    r
}

/// The adaptive driver escalates out of the frsz2_16 stagnation.
fn adaptive() -> String {
    let r = solve_as(scaled(), "adaptive");
    assert!(r.stats.converged && r.stats.escalations >= 1);
    traj_fp(&r)
}

/// De-escalation armed at single-cycle hysteresis: the trajectory must
/// climb the ladder and later step back down.
fn adaptive_bidir() -> String {
    let r = solve_as(scaled(), "adaptive_bidir");
    assert!(r.stats.converged && r.stats.escalations >= 1 && r.stats.de_escalations >= 1);
    let rung = |f: &String| ESCALATION_LADDER.iter().position(|&r| r == f);
    let rungs: Vec<usize> = r.stats.format_trajectory.iter().flat_map(rung).collect();
    let up = rungs
        .windows(2)
        .position(|w| w[1] > w[0])
        .unwrap_or(rungs.len());
    let down = rungs.windows(2).skip(up + 1).any(|w| w[1] < w[0]);
    assert!(down, "rungs {rungs:?} never step up and later down");
    traj_fp(&r)
}

/// The per-block store converges on the plateau operator below the
/// frsz2_21 rate.
fn frsz2_ab() -> String {
    let r = solve_as(runs(), "frsz2_ab");
    assert!(r.stats.converged && r.stats.basis_bits_per_value < 22.0);
    fnv(words(&r))
}

/// The paper's solve for `width` right-hand sides through the block
/// driver. Lane 0 is the paper's RHS; lane k > 0 solves `A·x = A·x_k`
/// for a frequency- and phase-shifted smooth `x_k`, which keeps the
/// family full-rank. Wide blocks run restart 12, so the shared basis
/// stays near the single solve's size; width 1 keeps restart 100 and
/// must reproduce the scalar solve.
fn block(width: usize) -> String {
    let p = paper();
    let lane = |k: usize| {
        let shifted = |i: usize| (i as f64 * (1.0 + 0.37 * k as f64) + k as f64 * 0.73).sin();
        let x: Vec<f64> = (0..p.a.rows()).map(shifted).collect();
        let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        p.a.mul_vec(&x.iter().map(|v| v / norm).collect::<Vec<_>>())
    };
    let bs: Vec<Vec<f64>> = (0..width)
        .map(|k| if k == 0 { p.b.clone() } else { lane(k) })
        .collect();
    let opts = GmresOptions {
        restart: if width == 1 { p.opts.restart } else { 12 },
        ..p.opts.clone()
    };
    let r = block_gmres_with(&p.a, &bs, None, &opts, &Identity, frsz2(21));
    assert!(r.all_converged(), "b = {width} left an RHS unconverged");
    let lanes = r.stats.iter().zip(&r.histories);
    fnv(lanes.flat_map(|(stats, history)| solve_words(stats.iterations, history)))
}

fn sstep_solve(s: usize) -> SStepSolveResult {
    let p = paper();
    let format = basis_format::by_name("frsz2_21").expect("frsz2_21 is registered");
    let sopts = SStepOptions {
        s,
        loo_budget: None,
        gmres: p.opts.clone(),
    };
    sstep_gmres_dyn(&p.a, &p.b, &p.x0, &sopts, &Identity, format.as_ref())
}

/// The paper's solve through the s-step driver: no loss-of-orthogonality
/// breach, and for s > 1 strictly fewer decode sweeps than s = 1.
fn sstep(s: usize) -> String {
    static S1_SWEEPS: OnceLock<u64> = OnceLock::new();
    // Basis decode sweeps a solve spent (dot plus gemv sweeps).
    let decode_sweeps =
        |r: &SStepSolveResult| r.solve.stats.basis_dot_sweeps + r.solve.stats.basis_gemv_sweeps;
    let r = sstep_solve(s);
    assert!(r.solve.stats.converged && r.loo_breaches == 0, "s = {s}");
    if s > 1 {
        let base = *S1_SWEEPS.get_or_init(|| decode_sweeps(&sstep_solve(1)));
        let swept = decode_sweeps(&r);
        assert!(swept < base, "s = {s} swept {swept} times, s = 1 {base}");
    }
    fnv(words(&r.solve))
}

/// A service with a smooth operator (Jacobi) and a wide-range one.
fn service_over(smooth: &Csr, wide: &Csr) -> SolverService {
    let service = SolverService::with_defaults();
    let operators = [
        ("smooth", smooth, PrecondSpec::Jacobi),
        ("wide", wide, PrecondSpec::None),
    ];
    for (name, a, precond) in operators {
        service.register_csr(name, a, precond).expect("register");
    }
    service
}

fn smooth_14() -> Csr {
    gen::conv_diff_3d(14, 14, 14, [0.3, 0.2, 0.1], 0.3)
}

/// One job; targets sit at or above each format's accuracy floor.
fn service_job(op: &str, b: &[f64], format: Option<&str>, target: f64) -> JobSpec {
    let mut spec = JobSpec::new(op, b.to_vec());
    spec.basis = match format {
        Some("adaptive") => BasisSelection::Adaptive,
        Some(name) => BasisSelection::Fixed(name.into()),
        None => BasisSelection::Auto,
    };
    spec.opts.target_rrn = target;
    spec.opts.record_history = true;
    if op == "wide" {
        spec.opts.restart = 30;
        spec.opts.max_iters = 1200;
    }
    spec
}

/// The smooth 14³ and wide-range 8³ operators, eight mixed-format jobs
/// over them, and each job's fingerprint from a sequential 1-thread run.
fn service_suite() -> &'static (SolverService, Vec<JobSpec>, Vec<String>) {
    static S: OnceLock<(SolverService, Vec<JobSpec>, Vec<String>)> = OnceLock::new();
    S.get_or_init(|| {
        let (smooth, wide) = (smooth_14(), gen::wide_range_conv_diff(8, 8, 8, 24, 0x5202));
        let (bs, bw) = (manufactured_rhs(&smooth).1, manufactured_rhs(&wide).1);
        let service = service_over(&smooth, &wide);
        let specs = vec![
            service_job("smooth", &bs, Some("frsz2_16"), 1e-2),
            service_job("smooth", &bs, Some("frsz2_21"), 1e-3),
            service_job("smooth", &bs, Some("frsz2_32"), 1e-6),
            service_job("smooth", &bs, Some("float64"), 1e-10),
            service_job("smooth", &bs, Some("frsz2_ab"), 1e-6),
            service_job("smooth", &bs, None, 1e-3),
            service_job("wide", &bw, Some("float64"), 1e-10),
            service_job("wide", &bw, Some("adaptive"), 1e-10),
        ];
        let reference = specs
            .iter()
            .map(|spec| service.solve_report(spec).expect("reference solve").result)
            .inspect(|r| assert!(r.stats.converged, "rrn {:.2e}", r.stats.final_rrn))
            .map(|r| job_fp(&r))
            .collect();
        (service, specs, reference)
    })
}

/// The eight jobs at the pool's thread count, one at a time or as one
/// concurrent streaming batch. Every job must match its 1-thread
/// reference; the fingerprint chains the per-job hex strings.
fn service_jobs(streaming: bool) -> String {
    let (service, specs, reference) = service_suite();
    let mut specs = specs.clone();
    let threads = rayon::current_num_threads();
    specs.iter_mut().for_each(|spec| spec.threads = threads);
    let results = if streaming {
        let (tx, rx) = std::sync::mpsc::channel();
        let results = service.run_batch(&specs, move |e| {
            let _ = tx.send(e);
        });
        assert!(rx.try_iter().count() > 0, "the batch streamed no telemetry");
        results
    } else {
        specs
            .iter()
            .map(|spec| service.solve_report(spec).map(|r| r.result))
            .collect()
    };
    let fps: Vec<String> = results
        .into_iter()
        .map(|r| job_fp(&r.expect("service job")))
        .collect();
    assert_eq!(&fps, reference, "jobs diverged from 1-thread runs");
    fnv(fps.iter().flat_map(|fp| text(fp)))
}

/// Admission control: a budget one byte below the smooth float64 job's
/// reservation refuses that job with a typed error, and still admits a
/// compressed job that fits.
#[test]
fn service_refuses_the_over_budget_job() {
    let smooth = smooth_14();
    let b = manufactured_rhs(&smooth).1;
    let float64 = basis_format::by_name("float64").expect("float64 is registered");
    let restart = GmresOptions::default().restart;
    let cost = estimated_basis_bytes(float64.as_ref(), smooth.rows(), restart, 1, 1);
    let budgeted = SolverService::new(ServiceConfig {
        basis_budget_bytes: Some(cost - 1),
        admission: AdmissionPolicy::Reject,
    });
    budgeted
        .register_csr("smooth", &smooth, PrecondSpec::Jacobi)
        .expect("register under budget");
    match budgeted.solve_report(&service_job("smooth", &b, Some("float64"), 1e-10)) {
        Err(ServiceError::BudgetExceeded { requested, .. }) => assert_eq!(requested, cost),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    let admitted = budgeted
        .solve_report(&service_job("smooth", &b, Some("frsz2_21"), 1e-3))
        .expect("a compressed job fits");
    assert!(admitted.result.stats.converged);
}

/// The smooth 10³ and wide-range 6³ operators behind one service.
fn fault_suite() -> &'static (SolverService, Csr, Csr) {
    static S: OnceLock<(SolverService, Csr, Csr)> = OnceLock::new();
    S.get_or_init(|| {
        let smooth = gen::conv_diff_3d(10, 10, 10, [0.3, 0.2, 0.1], 0.3);
        let wide = gen::wide_range_conv_diff(6, 6, 6, 24, 0x5202);
        (service_over(&smooth, &wide), smooth, wide)
    })
}

fn fault_service() -> &'static SolverService {
    &fault_suite().0
}

fn fault_operator(name: &str) -> &'static Csr {
    let (_, smooth, wide) = fault_suite();
    if name == "wide" {
        wide
    } else {
        smooth
    }
}

/// A fault-free job at the pool's thread count.
fn fault_job(op: &str, format: &str, target: f64) -> JobSpec {
    let wide = op == "wide";
    let mut spec = JobSpec::new(op, manufactured_rhs(fault_operator(op)).1);
    spec.basis = BasisSelection::Fixed(format.into());
    spec.opts.target_rrn = target;
    spec.opts.restart = if wide { 30 } else { 10 };
    spec.opts.max_iters = if wide { 600 } else { 2000 };
    spec.opts.record_history = true;
    spec.threads = rayon::current_num_threads();
    spec
}

/// The independent judge: recompute `‖b − Ax‖/‖b‖` outside the solver.
/// A converged result that misses the target this way is an undetected
/// corruption, which must never happen.
fn judge(spec: &JobSpec, r: &SolveResult) -> String {
    let mut residual = fault_operator(&spec.operator).mul_vec(&r.x);
    spla::dense::axpy(-1.0, &spec.b, &mut residual);
    let rrn = norm2(&residual) / norm2(&spec.b);
    let honest = !r.stats.converged || rrn <= spec.opts.target_rrn * 1.0001;
    assert!(honest, "undetected corruption: converged at rrn {rrn:.2e}");
    fnv(words(r).chain(bits(&r.x)))
}

/// A flipped basis bit slows the solve but never fakes a solution.
fn fault_bitflip() -> String {
    let mut spec = fault_job("smooth", "frsz2_21", 1e-8);
    spec.fault = Some(FaultSpec {
        basis_flip: Some(BasisBitFlip {
            nth_write: 3,
            index: 17,
            bit: 62,
        }),
        ..FaultSpec::default()
    });
    let report = fault_service().solve_report(&spec).expect("bit-flip job");
    assert!(report.faults_injected >= 1, "the bit flip never fired");
    judge(&spec, &report.result)
}

/// A NaN in the Hessenberg matrix becomes a typed breakdown, and the
/// restart recovers.
fn fault_nan() -> String {
    let mut spec = fault_job("smooth", "frsz2_21", 1e-8);
    spec.fault = Some(FaultSpec {
        nan_hessenberg_at: Some(7),
        ..FaultSpec::default()
    });
    let r = fault_service().solve_report(&spec).expect("NaN job").result;
    assert!(r.stats.breakdowns >= 1 && r.stats.converged);
    judge(&spec, &r)
}

/// frsz2_16 cannot reach 1e-10 on the wide operator; retries walk the
/// escalation ladder one rung at a time until one does.
fn fault_retry() -> String {
    let mut spec = fault_job("wide", "frsz2_16", 1e-10);
    spec.retry = Some(RetryPolicy::quick(3));
    let report = fault_service().solve_report(&spec).expect("retry job");
    assert!(report.result.stats.converged && report.attempts >= 2);
    let tried = &report.formats_tried[..];
    assert_eq!(tried, &ESCALATION_LADDER[..tried.len()]);
    judge(&spec, &report.result)
}

/// A panicking attempt is caught at the job boundary and retried at the
/// same rung.
fn fault_panic() -> String {
    let mut spec = fault_job("smooth", "frsz2_21", 1e-8);
    spec.fault = Some(FaultSpec {
        panic_on_attempt: Some(0),
        ..FaultSpec::default()
    });
    match fault_service().solve_report(&spec) {
        Err(ServiceError::JobPanicked { attempts: 1, .. }) => {}
        other => panic!("expected JobPanicked, got {other:?}"),
    }
    spec.retry = Some(RetryPolicy::quick(1));
    let report = fault_service()
        .solve_report(&spec)
        .expect("retried panic job");
    assert!(report.result.stats.converged && report.attempts == 2);
    judge(&spec, &report.result)
}

/// A zero deadline halts at the entry boundary; the checkpoint
/// round-trips through its byte encoding and resumes bit-identically.
fn fault_resume() -> String {
    let plain = fault_job("smooth", "frsz2_21", 1e-8);
    let reference = fault_service()
        .solve_report(&plain)
        .expect("reference solve")
        .result;
    assert!(reference.stats.restarts >= 2, "need several boundaries");
    let mut rushed = plain.clone();
    rushed.deadline = Some(Duration::ZERO);
    rushed.fault = Some(FaultSpec {
        sleep_per_boundary_ms: 1,
        ..FaultSpec::default()
    });
    let Err(ServiceError::DeadlineExceeded { checkpoint, .. }) =
        fault_service().solve_report(&rushed)
    else {
        panic!("expected DeadlineExceeded");
    };
    assert_eq!(checkpoint.stats.restarts, 0, "halted at the entry boundary");
    let bytes = checkpoint.encode();
    assert_eq!(bytes.len(), 1062, "checkpoint encoding size");
    let mut resumed = plain.clone();
    let restored = SolveCheckpoint::decode(&bytes).expect("decode");
    resumed.resume = Some(Box::new(restored));
    let r = fault_service()
        .solve_report(&resumed)
        .expect("resumed solve")
        .result;
    let fp = judge(&resumed, &r);
    assert_eq!(fp, judge(&plain, &reference), "resume diverged");
    fp
}

/// A deadline that never fires arms the boundary probe, which must not
/// change a bit.
fn fault_probe() -> String {
    let mut probed = fault_job("smooth", "frsz2_21", 1e-8);
    probed.deadline = Some(Duration::from_secs(3600));
    let r = fault_service()
        .solve_report(&probed)
        .expect("probed solve")
        .result;
    judge(&probed, &r)
}
