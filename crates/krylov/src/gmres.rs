//! Restarted GMRES with a compressed Krylov basis (CB-GMRES).
//!
//! Implements the algorithm of the paper's Figure 1 literally; step
//! numbers in comments refer to it. The Krylov basis `V` is held in an
//! arbitrary [`ColumnStorage`] format — `DenseStore<f64>` reproduces
//! standard GMRES, narrower formats reproduce CB-GMRES \[1\], and
//! `frsz2::Frsz2Store` is this paper's contribution. All arithmetic is
//! IEEE f64 regardless of storage (the accessor decouples the two).
//!
//! Residual bookkeeping matches §VI-A: within a restart cycle the
//! residual norm is tracked *implicitly* through the Givens-rotation
//! recurrence; the *explicit* residual `b − Ax` is recomputed only at
//! restarts. The sudden history corrections visible in Fig. 9a are
//! exactly the difference between the two.

use crate::adaptive::AdaptiveOptions;
use crate::basis::Basis;
use crate::basis_format::BasisFormat;
use crate::checkpoint::{CheckpointError, DriverKind, SolveCheckpoint, SolveControl};
use crate::precond::Preconditioner;
use crate::sstep::SStepOptions;
use numfmt::ColumnStorage;
use spla::dense::{axpy, norm2, scale, sub};
use spla::SparseMatrix;
use std::time::{Duration, Instant};

/// Solver options (§V-C defaults).
#[derive(Clone, Debug)]
pub struct GmresOptions {
    /// Restart length `m` (the paper uses 100).
    pub restart: usize,
    /// Upper bound on total inner iterations (the paper's calibration
    /// runs use 20 000).
    pub max_iters: usize,
    /// Stopping criterion: `‖b − Ax‖₂ ≤ target_rrn · ‖b‖₂` (Table I).
    pub target_rrn: f64,
    /// Re-orthogonalization threshold η of Fig. 1 step 7 (DGKS test).
    pub reorth_eta: f64,
    /// Record the per-iteration residual history (Figs. 5/6/9).
    pub record_history: bool,
    /// Capture the basis vector written at this global iteration, as
    /// stored (i.e. after compression) — feeds the Fig. 2 histograms.
    pub capture_basis_at: Option<usize>,
    /// Fault-injection hook (see [`crate::faults`]): poison the
    /// Hessenberg column computed at this global iteration with a NaN.
    /// The non-finite breakdown guard must detect it — this hook
    /// exists so tests and the robustness bench suite can prove that
    /// deterministically. `None` (the default) injects nothing.
    pub fault_nan_hessenberg_at: Option<usize>,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            restart: 100,
            max_iters: 20_000,
            target_rrn: 1e-12,
            reorth_eta: std::f64::consts::FRAC_1_SQRT_2,
            record_history: true,
            capture_basis_at: None,
            fault_nan_hessenberg_at: None,
        }
    }
}

/// One point of the convergence history.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistoryPoint {
    /// Global iteration count at which this residual was observed.
    pub iteration: usize,
    /// Relative residual norm.
    pub rrn: f64,
    /// `true` when explicitly recomputed as `‖b − Ax‖/‖b‖` (restart
    /// boundaries); `false` for the implicit Givens estimate.
    pub explicit: bool,
}

/// Counters and outcome of a solve.
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// Total Arnoldi iterations across all restart cycles.
    pub iterations: usize,
    /// Completed restart cycles.
    pub restarts: usize,
    /// Columns that needed a second orthogonalization pass (DGKS).
    pub reorthogonalizations: usize,
    /// Happy/unhappy Arnoldi breakdowns encountered.
    pub breakdowns: usize,
    /// Set **only** from an explicitly recomputed `‖b − Ax‖/‖b‖ ≤
    /// target_rrn` — never from the implicit Givens estimate, whose
    /// drift under lossy storage is exactly the Fig. 9a gap.
    pub converged: bool,
    /// Explicit relative residual norm of the returned solution.
    pub final_rrn: f64,
    /// Wall-clock time of the whole solve.
    pub wall_time: Duration,
    /// Bytes streamed from basis storage (decompression traffic).
    pub basis_bytes_read: u64,
    /// Bytes written to basis storage (compression traffic).
    pub basis_bytes_written: u64,
    /// Number of sparse matrix–vector products.
    pub spmv_count: u64,
    /// Decode sweeps of the stored basis on the dot-product side of
    /// orthogonalization: each sweep decompresses every current basis
    /// column once, however many target vectors it serves (one for the
    /// scalar driver, the whole panel for an s-step solve). This is the
    /// quantity the s-step refactor reduces — `k` round trips per new
    /// column collapse into one multi-column pass per panel.
    pub basis_dot_sweeps: u64,
    /// Decode sweeps of the stored basis on the update side (gemv/axpy
    /// projections and the solution combine), counted like
    /// [`SolveStats::basis_dot_sweeps`].
    pub basis_gemv_sweeps: u64,
    /// Storage format label of the Krylov basis (the final one, for
    /// adaptive solves).
    pub format: String,
    /// Average stored bits per basis value (Eq. 3 for FRSZ2).
    pub basis_bits_per_value: f64,
    /// Storage format of each executed restart cycle, in order. For a
    /// fixed-format solve every entry is the same; `adaptive_gmres`
    /// records its escalation trajectory here.
    pub format_trajectory: Vec<String>,
    /// Number of basis-format escalations performed (adaptive solves;
    /// always 0 for fixed-format solves).
    pub escalations: usize,
    /// Number of basis-format de-escalations (adaptive solves with
    /// [`crate::AdaptiveOptions::de_escalate`] enabled; 0 otherwise).
    pub de_escalations: usize,
}

/// Result of [`gmres`].
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Counters and outcome (see [`SolveStats::converged`]).
    pub stats: SolveStats,
    /// Per-iteration residual history (when `record_history` is set).
    pub history: Vec<HistoryPoint>,
    /// Basis vector captured at `capture_basis_at`, decompressed from
    /// storage (None if never reached).
    pub captured_basis_vector: Option<Vec<f64>>,
}

/// Construct a Givens rotation `(c, s)` annihilating `b` against `a`.
#[inline]
pub(crate) fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else {
        let r = a.hypot(b);
        (a / r, b / r)
    }
}

/// Work buffers of one restart cycle, allocated once per solve and
/// reused across cycles (and across basis-format switches in
/// `adaptive_gmres` — the buffers depend only on `(n, m)`, not on the
/// storage format). Includes the flat per-chunk partial buffer for
/// [`Basis::dots_with`] and the back-substitution vector, so the
/// orthogonalization inner loop performs **zero** heap allocations
/// (guarded by the counting allocator in `tests/ortho_alloc_guard.rs`).
pub(crate) struct Workspace {
    pub(crate) r: Vec<f64>,
    pub(crate) w: Vec<f64>,
    pub(crate) z: Vec<f64>,
    pub(crate) vj: Vec<f64>,
    pub(crate) h: Vec<f64>,
    pub(crate) u: Vec<f64>,
    pub(crate) neg: Vec<f64>,
    pub(crate) hess: Vec<f64>, // column-major, ld = m+1
    pub(crate) cs: Vec<f64>,
    pub(crate) sn: Vec<f64>,
    pub(crate) g: Vec<f64>,
    pub(crate) y: Vec<f64>,
    /// Flat `n_chunks × k` scratch for the orthogonalization partials.
    /// Pre-sized for the worst case (`k = m + 1` columns over the
    /// smallest possible chunking), so `dots_with` never grows it.
    pub(crate) dot_partials: Vec<f64>,
    pub(crate) m: usize,
    pub(crate) ld: usize,
}

impl Workspace {
    pub(crate) fn new(n: usize, m: usize) -> Self {
        // A basis rounds its chunk UP from TARGET_CHUNK to the storage
        // block alignment, so n.div_ceil(TARGET_CHUNK) bounds n_chunks
        // for every format (including mid-solve adaptive switches).
        let max_chunks = n.div_ceil(crate::basis::TARGET_CHUNK);
        Workspace {
            r: vec![0.0; n],
            w: vec![0.0; n],
            z: vec![0.0; n],
            vj: vec![0.0; n],
            h: vec![0.0; m + 1],
            u: vec![0.0; m + 1],
            neg: vec![0.0; m + 1],
            hess: vec![0.0; (m + 1) * m],
            cs: vec![0.0; m],
            sn: vec![0.0; m],
            g: vec![0.0; m + 1],
            y: vec![0.0; m],
            dot_partials: vec![0.0; max_chunks * (m + 1)],
            m,
            ld: m + 1,
        }
    }

    /// Explicit residual `r = b − A x`; returns `‖r‖₂`. The one
    /// residual the convergence decision may trust.
    pub(crate) fn explicit_residual<A: SparseMatrix + ?Sized>(
        &mut self,
        a: &A,
        b: &[f64],
        x: &[f64],
    ) -> f64 {
        a.spmv(x, &mut self.w);
        sub(b, &self.w, &mut self.r);
        norm2(&self.r)
    }
}

/// What one restart cycle did (consumed by [`solve_driver_full`],
/// which owns the explicit-residual loop).
#[derive(Default)]
pub(crate) struct CycleOutcome {
    /// Inner iterations executed (Hessenberg columns recorded).
    pub(crate) steps: usize,
    /// Implicit Givens residual estimate after the last recorded
    /// column (`None` when the cycle recorded nothing).
    pub(crate) last_implicit_rrn: Option<f64>,
}

/// Run ONE restart cycle of Fig. 1 (steps 1–17): seed the basis with
/// the entering residual `ws.r` (unnormalized, `‖ws.r‖ = beta`), build
/// up to `m` Krylov vectors, and apply the least-squares update to `x`.
///
/// The caller owns the explicit-residual bookkeeping of steps 1/18; the
/// cycle only pushes *implicit* history points. `stats.converged` is
/// never touched here — convergence is decided exclusively by the
/// driver from the explicit residual.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cycle<S: ColumnStorage, P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    precond: &P,
    opts: &GmresOptions,
    basis: &mut Basis<S>,
    ws: &mut Workspace,
    x: &mut [f64],
    beta: f64,
    bnorm: f64,
    stats: &mut SolveStats,
    history: &mut Vec<HistoryPoint>,
    captured: &mut Option<Vec<f64>>,
) -> CycleOutcome {
    let m = ws.m;
    let ld = ws.ld;
    let mut outcome = CycleOutcome::default();
    let col_bytes = seed_cycle(basis, ws, beta, opts, stats, captured);

    let mut j = 0;
    // Steps 2-15: build the Krylov basis.
    while j < m && stats.iterations < opts.max_iters {
        // Step 3: w = A (M^-1 v_j); v_j decompressed via the accessor.
        basis.read_column(j, &mut ws.vj);
        stats.basis_bytes_read += col_bytes;
        precond.apply(&ws.vj, &mut ws.z);
        a.spmv(&ws.z, &mut ws.w);
        stats.spmv_count += 1;

        // Step 4.
        let omega = norm2(&ws.w);

        // Step 5: classical Gram-Schmidt against the compressed basis,
        // through the fused multi-column kernels with the workspace's
        // preallocated partial buffer (no per-iteration allocation).
        basis.dots_with(j + 1, &ws.w, &mut ws.h[..j + 1], &mut ws.dot_partials);
        for i in 0..=j {
            ws.neg[i] = -ws.h[i];
        }
        basis.axpys(j + 1, &ws.neg, &mut ws.w);
        stats.basis_bytes_read += 2 * (j as u64 + 1) * col_bytes;
        stats.basis_dot_sweeps += 1;
        stats.basis_gemv_sweeps += 1;

        // Step 6.
        let mut hj1 = norm2(&ws.w);

        // Steps 7-11: DGKS re-orthogonalization. The breakdown test of
        // step 12 compares against the norm *entering the second pass*
        // ("twice is enough"): if the second pass removes most of what
        // remained, w is numerically in span(V) and the basis cannot
        // grow.
        let mut broke_down = hj1 == 0.0;
        if !broke_down && hj1 < opts.reorth_eta * omega {
            let before = hj1;
            basis.dots_with(j + 1, &ws.w, &mut ws.u[..j + 1], &mut ws.dot_partials);
            for i in 0..=j {
                ws.neg[i] = -ws.u[i];
                ws.h[i] += ws.u[i]; // step 9
            }
            basis.axpys(j + 1, &ws.neg, &mut ws.w);
            stats.basis_bytes_read += 2 * (j as u64 + 1) * col_bytes;
            stats.basis_dot_sweeps += 1;
            stats.basis_gemv_sweeps += 1;
            hj1 = norm2(&ws.w); // step 10
            stats.reorthogonalizations += 1;
            broke_down = hj1 == 0.0 || hj1 < opts.reorth_eta * before; // step 12
        }

        // Fault-injection hook: poison the freshly computed projection
        // coefficient at the configured global iteration. The guard
        // below must turn it into a typed breakdown. One-shot: the
        // breakdown ends the cycle before `iterations` can pass the
        // trigger, so the hook disarms once a breakdown is on record.
        if opts.fault_nan_hessenberg_at == Some(stats.iterations) && stats.breakdowns == 0 {
            ws.h[j] = f64::NAN;
        }

        // NaN-spin guard: a non-finite Hessenberg entry (overflow in
        // ‖w‖² or in the Gram-Schmidt products from a pathological
        // operator) would poison the Givens recurrence with NaN and
        // make every later stopping test compare false, spinning the
        // solver to `max_iters`. Detect it here, count it as a
        // breakdown, and end the cycle WITHOUT recording the poisoned
        // column — the least-squares solve below then runs on the `j`
        // columns that are still finite.
        if !hj1.is_finite() || !omega.is_finite() || ws.h[..=j].iter().any(|v| !v.is_finite()) {
            stats.breakdowns += 1;
            break;
        }

        // Record the Hessenberg column (step 16 assembles these).
        for i in 0..=j {
            ws.hess[j * ld + i] = ws.h[i];
        }
        ws.hess[j * ld + j + 1] = hj1;
        let implicit_rrn = rotate_column(ws, j, bnorm, opts, stats, history, &mut outcome);

        j += 1;
        if broke_down {
            stats.breakdowns += 1;
            break;
        }
        // The implicit estimate reaching the target only ENDS THE
        // CYCLE; it never sets `converged`. The driver re-checks the
        // explicit residual and keeps iterating when the two disagree
        // (the Fig. 9a implicit/explicit gap).
        if implicit_rrn <= opts.target_rrn {
            break;
        }

        // Step 13/14: v_{j+1} = w / h_{j+1,j}, stored compressed.
        scale(1.0 / hj1, &mut ws.w);
        basis.write(j, &ws.w);
        stats.basis_bytes_written += col_bytes;
        capture_column(basis, j, opts, stats, captured);
    }
    outcome.steps = j;
    finish_cycle(basis, precond, ws, x, j, col_bytes, stats);
    outcome
}

/// Step 1 of a cycle: store `v1 = r / beta` (compressed) as basis
/// column 0 and reset the rotated right-hand side to `g = beta·e1`.
/// Returns the stored bytes per column, queried after this first
/// write: round-trip stores only know their achieved rate once a
/// column has actually been compressed.
pub(crate) fn seed_cycle<S: ColumnStorage>(
    basis: &mut Basis<S>,
    ws: &mut Workspace,
    beta: f64,
    opts: &GmresOptions,
    stats: &mut SolveStats,
    captured: &mut Option<Vec<f64>>,
) -> u64 {
    scale(1.0 / beta, &mut ws.r);
    basis.write(0, &ws.r);
    let col_bytes = basis.column_bytes() as u64;
    stats.basis_bytes_written += col_bytes;
    capture_column(basis, 0, opts, stats, captured);
    ws.g.fill(0.0);
    ws.g[0] = beta;
    col_bytes
}

/// Keep basis column `col`, decompressed from storage, when it was
/// written at the `capture_basis_at` iteration (Fig. 2 histograms).
pub(crate) fn capture_column<S: ColumnStorage>(
    basis: &Basis<S>,
    col: usize,
    opts: &GmresOptions,
    stats: &SolveStats,
    captured: &mut Option<Vec<f64>>,
) {
    if opts.capture_basis_at == Some(stats.iterations) && captured.is_none() {
        let mut cap = vec![0.0; basis.rows()];
        basis.read_column(col, &mut cap);
        *captured = Some(cap);
    }
}

/// Least-squares update of Hessenberg column `j`, stored unrotated in
/// `ws.hess`: apply the previous rotations, then a new one that
/// annihilates the subdiagonal, and rotate `g` with it. Counts the
/// iteration and records (and returns) the implicit residual estimate
/// `|g[j+1]| / ‖b‖`.
pub(crate) fn rotate_column(
    ws: &mut Workspace,
    j: usize,
    bnorm: f64,
    opts: &GmresOptions,
    stats: &mut SolveStats,
    history: &mut Vec<HistoryPoint>,
    outcome: &mut CycleOutcome,
) -> f64 {
    let ld = ws.ld;
    for i in 0..j {
        let (hi, hi1) = (ws.hess[j * ld + i], ws.hess[j * ld + i + 1]);
        ws.hess[j * ld + i] = ws.cs[i] * hi + ws.sn[i] * hi1;
        ws.hess[j * ld + i + 1] = -ws.sn[i] * hi + ws.cs[i] * hi1;
    }
    let (c, s) = givens(ws.hess[j * ld + j], ws.hess[j * ld + j + 1]);
    ws.cs[j] = c;
    ws.sn[j] = s;
    ws.hess[j * ld + j] = c * ws.hess[j * ld + j] + s * ws.hess[j * ld + j + 1];
    ws.hess[j * ld + j + 1] = 0.0;
    ws.g[j + 1] = -s * ws.g[j];
    ws.g[j] *= c;

    stats.iterations += 1;
    let implicit_rrn = ws.g[j + 1].abs() / bnorm;
    outcome.last_implicit_rrn = Some(implicit_rrn);
    if opts.record_history {
        history.push(HistoryPoint {
            iteration: stats.iterations,
            rrn: implicit_rrn,
            explicit: false,
        });
    }
    implicit_rrn
}

/// Step 17, closing a cycle of `j` recorded columns:
/// `y = argmin ‖beta e1 - H y‖` by back substitution on the rotated
/// (upper-triangular) Hessenberg, then `x += M^-1 (V y)`. A cycle that
/// recorded nothing (immediate non-finite breakdown) has no update to
/// apply.
pub(crate) fn finish_cycle<S: ColumnStorage, P: Preconditioner>(
    basis: &Basis<S>,
    precond: &P,
    ws: &mut Workspace,
    x: &mut [f64],
    j: usize,
    col_bytes: u64,
    stats: &mut SolveStats,
) {
    let ld = ws.ld;
    if j >= 1 {
        let y = &mut ws.y[..j];
        for i in (0..j).rev() {
            let mut acc = ws.g[i];
            for (k, yk) in y.iter().enumerate().skip(i + 1) {
                acc -= ws.hess[k * ld + i] * yk;
            }
            let d = ws.hess[i * ld + i];
            // A zero pivot can only follow an exact breakdown; the
            // minimizer then ignores that direction.
            y[i] = if d != 0.0 { acc / d } else { 0.0 };
        }
        basis.combine(&ws.y[..j], &mut ws.z);
        stats.basis_bytes_read += j as u64 * col_bytes;
        stats.basis_gemv_sweeps += 1;
        precond.apply(&ws.z, &mut ws.vj);
        axpy(1.0, &ws.vj, x);
    }
    stats.restarts += 1;
}

/// Solve `A x = b` with restarted GMRES, storing the Krylov basis in
/// format `S` (right-preconditioned by `precond`).
///
/// This is Fig. 1 of the paper; the highlighted compression points are
/// the `basis.write` (steps 1/13, compress) and every `basis.*` read
/// (steps 5/8/17, decompress through the accessor). The operator is any
/// [`SparseMatrix`] format (CSR/ELL/SELL-C-σ, or `&dyn SparseMatrix`
/// from the runtime auto-selection); because every format's SpMV is
/// bit-identical, the residual history does not depend on the format
/// backing `a`.
pub fn gmres<S: ColumnStorage, P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOptions,
    precond: &P,
) -> SolveResult {
    gmres_with(a, b, x0, opts, precond, S::with_shape)
}

/// [`gmres`] with an explicit basis-store factory, for storage formats
/// that need more configuration than a shape (e.g.
/// `Frsz2Store::with_config` for `frsz2_16`/`frsz2_21`, or a
/// compressor-round-trip store). The factory receives `(rows, cols)`.
pub fn gmres_with<S: ColumnStorage, P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOptions,
    precond: &P,
    make_store: impl FnOnce(usize, usize) -> S,
) -> SolveResult {
    let basis = Basis::from_store(make_store(a.rows(), opts.restart + 1));
    solve_driver_full(
        a,
        b,
        x0,
        opts,
        precond,
        basis,
        &mut Scalar,
        SolveHooks::default(),
    )
    .result
}

/// One per-cycle telemetry record, emitted at every restart boundary of
/// an *observed* solve ([`SolveHooks::observe`]) just before the next
/// cycle runs.
///
/// Boundary semantics: the driver checks convergence *before* the hook
/// fires, so a solve that converges after cycle `k` emits events for
/// cycles `0..=k` but not for the final (converged) boundary — the
/// terminal state is reported once, in the returned
/// [`SolveStats`]. Every field is computed from deterministic
/// quantities, so the event stream is bit-identical at any thread
/// count, like the solve itself.
#[derive(Clone, Debug, PartialEq)]
pub struct CycleEvent {
    /// Index of the restart cycle about to run (0-based; equals the
    /// number of completed cycles).
    pub cycle: usize,
    /// Global inner-iteration count accumulated so far.
    pub iterations: usize,
    /// Explicit `‖b − Ax‖/‖b‖` entering the cycle — the only residual
    /// the convergence decision trusts.
    pub explicit_rrn: f64,
    /// Basis storage format of the cycle about to run (after any
    /// adaptive rung change at this boundary).
    pub format: String,
    /// Basis bytes read from storage so far (decompression traffic).
    pub basis_bytes_read: u64,
    /// Basis bytes written to storage so far (compression traffic).
    pub basis_bytes_written: u64,
}

/// Restart-boundary context handed to [`CyclePolicy::at_boundary`],
/// for policies that adapt between cycles (the adaptive ladder).
pub(crate) struct Boundary {
    /// Explicit `‖b − Ax‖/‖b‖` entering the next cycle.
    pub(crate) explicit_rrn: f64,
    /// Explicit residual that entered the *previous* cycle (`None` at
    /// the first boundary).
    pub(crate) prev_explicit_rrn: Option<f64>,
    /// Last implicit Givens estimate of the previous cycle.
    pub(crate) last_implicit_rrn: Option<f64>,
}

/// What the shared restart-boundary bookkeeping decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BoundaryDecision {
    /// Explicit residual reached the target; `stats.converged` is set.
    Converged,
    /// Terminal without convergence (non-finite explicit residual, or
    /// the iteration budget is exhausted).
    Terminal,
    /// Run another cycle.
    Continue,
}

/// The restart-boundary bookkeeping every driver shares — the one
/// single-RHS loop [`solve_driver_full`] and the per-lane boundary of
/// the block driver in `block.rs` both call this VERBATIM so their
/// convergence semantics cannot drift apart (and committed
/// fingerprints stay byte-identical across refactors).
///
/// Given the explicit `‖b − Ax‖/‖b‖` entering the boundary, in this
/// exact order: stamp `stats.final_rrn`, push the explicit history
/// point, then decide — converged (the ONLY place `converged` is ever
/// set, always from the explicit residual, never the implicit Givens
/// estimate), terminal (a non-finite residual cannot improve — every
/// further comparison would be false and the solver would spin — or
/// `max_iters` is exhausted), or continue.
pub(crate) fn boundary_bookkeeping(
    rrn: f64,
    opts: &GmresOptions,
    stats: &mut SolveStats,
    history: &mut Vec<HistoryPoint>,
) -> BoundaryDecision {
    stats.final_rrn = rrn;
    if opts.record_history {
        history.push(HistoryPoint {
            iteration: stats.iterations,
            rrn,
            explicit: true,
        });
    }
    if rrn <= opts.target_rrn {
        stats.converged = true;
        return BoundaryDecision::Converged;
    }
    if !rrn.is_finite() {
        return BoundaryDecision::Terminal;
    }
    if stats.iterations >= opts.max_iters {
        return BoundaryDecision::Terminal;
    }
    BoundaryDecision::Continue
}

/// A [`SolveResult`] plus whether a boundary control probe halted the
/// solve before its natural end (converged/terminal states always win
/// over the probe, so `halted` implies `!stats.converged`).
#[derive(Clone, Debug)]
pub struct ControlledSolve {
    /// The solve outcome up to the halt (or the full outcome).
    pub result: SolveResult,
    /// `true` when the control probe returned [`SolveControl::Halt`].
    pub halted: bool,
}

/// What varies between the scalar, s-step, and adaptive solves: how
/// one restart cycle runs, the decision taken at a boundary, and the
/// state a checkpoint carries on top of the shared counters. Everything
/// else — explicit residual, convergence, telemetry, the control probe,
/// resume replay — is the one loop in [`solve_driver_full`].
pub(crate) trait CyclePolicy<S: ColumnStorage> {
    /// Driver identity stamped on captured checkpoints.
    const DRIVER: DriverKind;

    /// Decide at a restart boundary, after the bookkeeping and before
    /// the observer and probe see it (the adaptive rung switch).
    fn at_boundary(
        &mut self,
        _boundary: &Boundary,
        _basis: &mut Basis<S>,
        _stats: &mut SolveStats,
    ) {
    }

    /// Run one restart cycle; the default is the scalar [`run_cycle`].
    #[allow(clippy::too_many_arguments)]
    fn cycle<P: Preconditioner, A: SparseMatrix + ?Sized>(
        &mut self,
        a: &A,
        precond: &P,
        opts: &GmresOptions,
        basis: &mut Basis<S>,
        ws: &mut Workspace,
        x: &mut [f64],
        beta: f64,
        bnorm: f64,
        stats: &mut SolveStats,
        history: &mut Vec<HistoryPoint>,
        captured: &mut Option<Vec<f64>>,
    ) -> CycleOutcome {
        run_cycle(
            a, precond, opts, basis, ws, x, beta, bnorm, stats, history, captured,
        )
    }

    /// Write the policy's own fields into a captured checkpoint.
    fn capture(&self, _cp: &mut SolveCheckpoint) {}

    /// Read them back from the checkpoint being resumed.
    fn restore(&mut self, _cp: &SolveCheckpoint) {}
}

/// The fixed-format scalar policy: the paper's Fig. 1 cycle, nothing
/// decided at boundaries, no extra checkpoint state.
pub(crate) struct Scalar;

impl<S: ColumnStorage> CyclePolicy<S> for Scalar {
    const DRIVER: DriverKind = DriverKind::Scalar;
}

/// The one restarted-GMRES loop behind every single-RHS solve: explicit
/// residual at every boundary (the ONLY place `converged` is decided —
/// the implicit Givens estimate inside a cycle never sets it), the
/// policy's boundary decision, the hooks, then one policy cycle.
///
/// The control probe fires at every restart boundary — after the
/// bookkeeping, the policy decision, and the observer (so the format of
/// the next cycle is final), before the cycle runs — with a freshly
/// captured [`SolveCheckpoint`]. Returning [`SolveControl::Halt`] stops
/// the solve there. With `control = None` no checkpoint is ever
/// materialized — the plain path pays nothing.
///
/// Resuming (the checkpoint already validated by
/// [`SolveCheckpoint::check_resume`]) replays the capture-time
/// boundary: the iterate, counters, history, trajectory, and policy
/// state are restored, the entry residual is recomputed (its spmv was
/// already counted before capture, so the counter is NOT incremented
/// again), and the bookkeeping, policy decision, and observer that ran
/// before capture are skipped. The continuation is bit-identical to
/// the uninterrupted solve.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_driver_full<
    S: ColumnStorage,
    P: Preconditioner,
    A: SparseMatrix + ?Sized,
    C: CyclePolicy<S>,
>(
    a: &A,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOptions,
    precond: &P,
    mut basis: Basis<S>,
    policy: &mut C,
    mut hooks: SolveHooks<'_>,
) -> ControlledSolve {
    let n = a.rows();
    assert_eq!(a.cols(), n, "GMRES needs a square matrix");
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    assert!(opts.restart >= 1);
    let m = opts.restart;

    let start = Instant::now();
    let mut stats = SolveStats::default();
    let mut history = Vec::new();
    let mut captured: Option<Vec<f64>> = None;
    stats.format = basis.format_name();

    let bnorm = norm2(b);
    // b = 0: the solution is x = 0 exactly.
    if bnorm == 0.0 {
        stats.converged = true;
        stats.final_rrn = 0.0;
        stats.wall_time = start.elapsed();
        return ControlledSolve {
            result: SolveResult {
                x: vec![0.0; n],
                stats,
                history,
                captured_basis_vector: None,
            },
            halted: false,
        };
    }

    let mut x = x0.to_vec();
    let mut ws = Workspace::new(n, m);
    let mut prev_explicit_rrn: Option<f64> = None;
    let mut last_implicit_rrn: Option<f64> = None;
    let mut replay = false;
    if let Some(cp) = hooks.resume {
        x.copy_from_slice(&cp.x);
        stats.iterations = cp.iterations;
        stats.restarts = cp.restarts;
        stats.reorthogonalizations = cp.reorthogonalizations;
        stats.breakdowns = cp.breakdowns;
        stats.escalations = cp.escalations;
        stats.de_escalations = cp.de_escalations;
        stats.spmv_count = cp.spmv_count;
        stats.basis_bytes_read = cp.basis_bytes_read;
        stats.basis_bytes_written = cp.basis_bytes_written;
        stats.basis_dot_sweeps = cp.basis_dot_sweeps;
        stats.basis_gemv_sweeps = cp.basis_gemv_sweeps;
        stats.format_trajectory = cp.format_trajectory.clone();
        stats.final_rrn = cp.explicit_rrn;
        history = cp.history.clone();
        policy.restore(cp);
        replay = true;
    }
    let mut halted = false;

    loop {
        // Step 1 / step 18: explicit residual r = b - A x.
        let beta = ws.explicit_residual(a, b, &x);
        let rrn = beta / bnorm;
        if replay {
            // Replay of the capture-time boundary: the checkpoint
            // measured this residual (its spmv is already in the restored
            // counters, so don't count it again); skip everything that
            // ran before capture.
            replay = false;
        } else {
            // The shared boundary bookkeeping (final_rrn, explicit
            // history point, converged/terminal decision).
            stats.spmv_count += 1;
            match boundary_bookkeeping(rrn, opts, &mut stats, &mut history) {
                BoundaryDecision::Converged | BoundaryDecision::Terminal => break,
                BoundaryDecision::Continue => {}
            }

            let boundary = Boundary {
                explicit_rrn: rrn,
                prev_explicit_rrn,
                last_implicit_rrn,
            };
            policy.at_boundary(&boundary, &mut basis, &mut stats);
            if let Some(observe) = hooks.observe.as_mut() {
                observe(&CycleEvent {
                    cycle: stats.restarts,
                    iterations: stats.iterations,
                    explicit_rrn: rrn,
                    format: basis.format_name(),
                    basis_bytes_read: stats.basis_bytes_read,
                    basis_bytes_written: stats.basis_bytes_written,
                });
            }
        }

        if let Some(ctrl) = hooks.control.as_mut() {
            let mut cp = SolveCheckpoint {
                driver: C::DRIVER,
                format: basis.format_name(),
                x: x.clone(),
                explicit_rrn: rrn,
                iterations: stats.iterations,
                restarts: stats.restarts,
                reorthogonalizations: stats.reorthogonalizations,
                breakdowns: stats.breakdowns,
                escalations: stats.escalations,
                de_escalations: stats.de_escalations,
                spmv_count: stats.spmv_count,
                basis_bytes_read: stats.basis_bytes_read,
                basis_bytes_written: stats.basis_bytes_written,
                basis_dot_sweeps: stats.basis_dot_sweeps,
                basis_gemv_sweeps: stats.basis_gemv_sweeps,
                format_trajectory: stats.format_trajectory.clone(),
                history: history.clone(),
                ..SolveCheckpoint::default()
            };
            policy.capture(&mut cp);
            if matches!(ctrl(&cp), SolveControl::Halt) {
                halted = true;
                break;
            }
        }

        stats.format_trajectory.push(basis.format_name());
        let out = policy.cycle(
            a,
            precond,
            opts,
            &mut basis,
            &mut ws,
            &mut x,
            beta,
            bnorm,
            &mut stats,
            &mut history,
            &mut captured,
        );
        // A cycle that could not record a single column (immediate
        // non-finite breakdown) left x untouched; another round would
        // replay it verbatim.
        if out.steps == 0 {
            break;
        }
        prev_explicit_rrn = Some(rrn);
        last_implicit_rrn = out.last_implicit_rrn;
    }

    // Captured at the end: round-trip stores only know their achieved
    // rate after columns have actually been written.
    stats.basis_bits_per_value = if n > 0 {
        basis.column_bytes() as f64 * 8.0 / n as f64
    } else {
        0.0
    };
    stats.wall_time = start.elapsed();
    ControlledSolve {
        result: SolveResult {
            x,
            stats,
            history,
            captured_basis_vector: captured,
        },
        halted,
    }
}

/// Which driver a [`solve`] runs, with the option structs its plain
/// entry already takes.
#[derive(Clone, Copy)]
pub enum SolvePlan<'a> {
    /// Fixed-format scalar CB-GMRES (the paper's Fig. 1), as
    /// [`crate::basis_format::gmres_dyn`] runs it.
    Fixed(&'a dyn BasisFormat, &'a GmresOptions),
    /// s-step CB-GMRES, as [`crate::sstep::sstep_gmres_dyn`] runs it.
    SStep(&'a dyn BasisFormat, &'a SStepOptions),
    /// Adaptive-precision CB-GMRES, as
    /// [`crate::adaptive::adaptive_gmres`] runs it.
    Adaptive(&'a AdaptiveOptions),
}

impl SolvePlan<'_> {
    /// The driver that runs this plan (and whose checkpoints it
    /// resumes).
    pub fn driver(&self) -> DriverKind {
        match self {
            SolvePlan::Fixed(..) => DriverKind::Scalar,
            SolvePlan::SStep(..) => DriverKind::SStep,
            SolvePlan::Adaptive(_) => DriverKind::Adaptive,
        }
    }
}

/// The optional hooks of a [`solve`]. Every field defaults to `None`,
/// and a solve without hooks is the plain solve.
#[derive(Default)]
pub struct SolveHooks<'a> {
    /// Telemetry: one [`CycleEvent`] per executed restart cycle,
    /// emitted at the boundary before the cycle runs (after any
    /// adaptive rung change). A pure spectator — it cannot influence
    /// the solve.
    pub observe: Option<&'a mut dyn FnMut(&CycleEvent)>,
    /// Control probe: called at every restart boundary with a freshly
    /// captured [`SolveCheckpoint`]; returning [`SolveControl::Halt`]
    /// stops the solve there (reported as
    /// [`ControlledSolve::halted`]). Convergence is decided first, so a
    /// halt never masks a finished solve.
    pub control: Option<&'a mut dyn FnMut(&SolveCheckpoint) -> SolveControl>,
    /// Continue a previous solve from its checkpoint instead of `x0`.
    pub resume: Option<&'a SolveCheckpoint>,
}

/// Solve `A x = b` with the driver `plan` names, under optional
/// `hooks`: the one entry behind every observed, controlled, or resumed
/// single-RHS solve.
///
/// Without hooks the result is bit-identical to the plan's plain entry
/// ([`crate::basis_format::gmres_dyn`], [`crate::sstep::sstep_gmres_dyn`],
/// [`crate::adaptive::adaptive_gmres`]); observing or probing never
/// changes a bit.
///
/// The resume contract: pass the same `b`, plan, and preconditioner as
/// the solve that captured the checkpoint, and the continuation
/// reproduces the uninterrupted solve bit for bit (solution, history,
/// counters, and the s-step panel / adaptive rung schedule). `x0` is
/// ignored when resuming, and so is an adaptive plan's `start_format`
/// (the checkpointed rung wins). A checkpoint from a different system
/// size, driver, or basis format is refused with
/// [`CheckpointError::Mismatch`] before any work (see
/// [`SolveCheckpoint::check_resume`]).
pub fn solve<P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    b: &[f64],
    x0: &[f64],
    precond: &P,
    plan: SolvePlan<'_>,
    hooks: SolveHooks<'_>,
) -> Result<ControlledSolve, CheckpointError> {
    if let Some(cp) = hooks.resume {
        cp.check_resume(a.rows(), &plan)?;
    }
    Ok(match plan {
        SolvePlan::Fixed(format, opts) => {
            let basis = Basis::from_store(format.create(a.rows(), opts.restart + 1));
            solve_driver_full(a, b, x0, opts, precond, basis, &mut Scalar, hooks)
        }
        SolvePlan::SStep(format, sopts) => {
            crate::sstep::sstep_dyn(a, b, x0, sopts, precond, format, hooks).0
        }
        SolvePlan::Adaptive(opts) => {
            crate::adaptive::adaptive_driver(a, b, x0, opts, precond, hooks)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Identity, Jacobi};
    use frsz2::Frsz2Store;
    use numfmt::{DenseStore, F16};
    use spla::dense::manufactured_rhs;
    use spla::{gen, Csr, Ell, SellCSigma};

    fn opts(target: f64) -> GmresOptions {
        GmresOptions {
            target_rrn: target,
            max_iters: 2000,
            ..GmresOptions::default()
        }
    }

    #[test]
    fn identity_system_converges_in_one_iteration() {
        let a = Csr::identity(500);
        let (xsol, b) = manufactured_rhs(&a);
        let r = gmres::<DenseStore<f64>, _, _>(&a, &b, &vec![0.0; 500], &opts(1e-14), &Identity);
        assert!(r.stats.converged);
        assert!(r.stats.iterations <= 2);
        for (xi, si) in r.x.iter().zip(&xsol) {
            assert!((xi - si).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_system_solves_exactly() {
        let mut coo = spla::Coo::new(50, 50);
        for i in 0..50 {
            coo.push(i, i, (i + 1) as f64);
        }
        let a = coo.to_csr();
        let (xsol, b) = manufactured_rhs(&a);
        let r = gmres::<DenseStore<f64>, _, _>(&a, &b, &vec![0.0; 50], &opts(1e-13), &Identity);
        assert!(r.stats.converged, "final rrn {}", r.stats.final_rrn);
        for (i, (xi, si)) in r.x.iter().zip(&xsol).enumerate() {
            assert!((xi - si).abs() < 1e-9, "x[{i}]");
        }
    }

    #[test]
    fn convection_diffusion_converges_all_formats() {
        let a = gen::conv_diff_3d(10, 10, 10, [0.4, 0.2, 0.1], 0.3);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let o = opts(1e-10);
        let f64r = gmres::<DenseStore<f64>, _, _>(&a, &b, &x0, &o, &Identity);
        let f32r = gmres::<DenseStore<f32>, _, _>(&a, &b, &x0, &o, &Identity);
        let frsz = gmres::<Frsz2Store, _, _>(&a, &b, &x0, &o, &Identity);
        assert!(f64r.stats.converged);
        assert!(f32r.stats.converged);
        assert!(frsz.stats.converged);
        // CB-GMRES ordering (atmosmod regime): f64 needs no more
        // iterations than the compressed formats.
        assert!(f64r.stats.iterations <= f32r.stats.iterations);
        assert!(f64r.stats.iterations <= frsz.stats.iterations);
    }

    #[test]
    fn residual_history_is_recorded_and_final_explicit() {
        let a = gen::conv_diff_3d(8, 8, 8, [0.2, 0.0, 0.0], 0.2);
        let (_, b) = manufactured_rhs(&a);
        let r = gmres::<DenseStore<f64>, _, _>(&a, &b, &vec![0.0; 512], &opts(1e-9), &Identity);
        assert!(r.stats.converged);
        assert!(!r.history.is_empty());
        // First point: explicit RRN of the zero initial guess = 1.
        assert!(r.history[0].explicit);
        assert!((r.history[0].rrn - 1.0).abs() < 1e-12);
        // Last point: the explicit converged residual.
        let last = r.history.last().unwrap();
        assert!(last.explicit);
        assert!(last.rrn <= 1e-9);
        // Implicit estimates never increase within a cycle.
        let mut prev = f64::INFINITY;
        for p in r.history.iter().filter(|p| !p.explicit) {
            assert!(
                p.rrn <= prev * (1.0 + 1e-12) || p.explicit,
                "implicit rrn rose"
            );
            prev = if p.explicit { f64::INFINITY } else { p.rrn };
        }
    }

    #[test]
    fn restart_cycles_happen_and_make_progress() {
        // Small restart forces many cycles.
        let a = gen::conv_diff_3d(8, 8, 8, [0.3, 0.1, 0.0], 0.05);
        let (_, b) = manufactured_rhs(&a);
        let o = GmresOptions {
            restart: 10,
            target_rrn: 1e-8,
            max_iters: 3000,
            ..GmresOptions::default()
        };
        let r = gmres::<DenseStore<f64>, _, _>(&a, &b, &vec![0.0; 512], &o, &Identity);
        assert!(r.stats.converged, "rrn {}", r.stats.final_rrn);
        assert!(r.stats.restarts >= 2, "expected multiple restarts");
    }

    #[test]
    fn f16_basis_converges_on_easy_problem_with_more_iterations() {
        let a = gen::conv_diff_3d(9, 9, 9, [0.3, 0.2, 0.1], 0.4);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let o = opts(1e-7);
        let full = gmres::<DenseStore<f64>, _, _>(&a, &b, &x0, &o, &Identity);
        let half = gmres::<DenseStore<F16>, _, _>(&a, &b, &x0, &o, &Identity);
        assert!(full.stats.converged && half.stats.converged);
        assert!(half.stats.iterations >= full.stats.iterations);
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations_on_scaled_problem() {
        // Badly row-scaled diagonal-dominant system: Jacobi fixes it.
        let mut coo = spla::Coo::new(400, 400);
        for i in 0..400 {
            let s = f64::powi(10.0, (i % 7) as i32 - 3);
            coo.push(i, i, 4.0 * s);
            if i + 1 < 400 {
                coo.push(i, i + 1, -s);
                coo.push(i + 1, i, -s);
            }
        }
        let a = coo.to_csr();
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; 400];
        let o = opts(1e-10);
        let plain = gmres::<DenseStore<f64>, _, _>(&a, &b, &x0, &o, &Identity);
        let jac = Jacobi::new(&a);
        let pre = gmres::<DenseStore<f64>, _, _>(&a, &b, &x0, &o, &jac);
        assert!(pre.stats.converged);
        assert!(
            pre.stats.iterations <= plain.stats.iterations,
            "jacobi {} vs plain {}",
            pre.stats.iterations,
            plain.stats.iterations
        );
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = Csr::identity(10);
        let r = gmres::<DenseStore<f64>, _, _>(&a, &[0.0; 10], &[1.0; 10], &opts(1e-12), &Identity);
        assert!(r.stats.converged);
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert_eq!(r.stats.iterations, 0);
    }

    #[test]
    fn capture_basis_vector_is_normalized() {
        let a = gen::conv_diff_3d(6, 6, 6, [0.2, 0.1, 0.0], 0.2);
        let (_, b) = manufactured_rhs(&a);
        let o = GmresOptions {
            capture_basis_at: Some(5),
            target_rrn: 1e-10,
            ..GmresOptions::default()
        };
        let r = gmres::<DenseStore<f64>, _, _>(&a, &b, &vec![0.0; 216], &o, &Identity);
        let v = r.captured_basis_vector.expect("vector captured");
        let nrm = spla::dense::norm2(&v);
        assert!(
            (nrm - 1.0).abs() < 1e-10,
            "basis vectors are unit norm, got {nrm}"
        );
    }

    #[test]
    fn lossy_basis_below_accuracy_floor_reports_honest_non_convergence() {
        // Regression (false convergence): frsz2_16 keeps only ~14 bits
        // below each block's max exponent, so on a similarity-scaled
        // operator (the PR02R regime of §VI-A, ~24 binades of
        // within-block spread) the solve stagnates around 1e-4 — far
        // above this target. The implicit Givens estimate keeps
        // shrinking regardless (it knows nothing about the compression
        // loss), so a solver trusting it would report success. The
        // explicit residual must win: converged stays false and
        // final_rrn is exactly the recomputed ‖b − Ax‖/‖b‖.
        let a = gen::wide_range_conv_diff(8, 8, 8, 24, 0x5202);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let o = GmresOptions {
            target_rrn: 1e-12, // below what frsz2_16 can reach here
            max_iters: 400,
            restart: 30,
            ..GmresOptions::default()
        };
        let cfg = frsz2::Frsz2Config::new(32, 16);
        let r = gmres_with(&a, &b, &x0, &o, &Identity, |rows, cols| {
            Frsz2Store::with_config(cfg, rows, cols)
        });
        assert!(
            !r.stats.converged,
            "frsz2_16 cannot reach 1e-12 (floor ~1e-4); reported rrn {:.2e}",
            r.stats.final_rrn
        );
        assert!(r.stats.final_rrn > o.target_rrn);
        // Implicit estimates DID cross the target (the false-convergence
        // bait) — the test is vacuous otherwise.
        assert!(
            r.history
                .iter()
                .any(|p| !p.explicit && p.rrn <= o.target_rrn),
            "implicit estimate never crossed the target; stagnation bait missing"
        );
        // Honesty: final_rrn is bit-for-bit the explicit residual of the
        // returned x (same deterministic kernels, same operator).
        let mut ax = vec![0.0; a.rows()];
        a.spmv(&r.x, &mut ax);
        let mut res = vec![0.0; a.rows()];
        spla::dense::sub(&b, &ax, &mut res);
        let explicit = spla::dense::norm2(&res) / spla::dense::norm2(&b);
        assert_eq!(
            explicit.to_bits(),
            r.stats.final_rrn.to_bits(),
            "final_rrn {:.17e} is not the explicit residual {:.17e}",
            r.stats.final_rrn,
            explicit
        );
        // And the recorded history ends on that explicit point.
        let last = r.history.last().unwrap();
        assert!(last.explicit);
        assert_eq!(last.rrn.to_bits(), r.stats.final_rrn.to_bits());
    }

    #[test]
    fn non_finite_hessenberg_terminates_as_breakdown_not_spin() {
        // Regression (NaN spin): with O(1e308) matrix entries the
        // Gram-Schmidt products and ‖w‖² overflow, the Givens rotation
        // becomes inf/inf = NaN, and every later stopping comparison is
        // false — the solver used to spin silently to max_iters. It must
        // instead detect the non-finite Hessenberg entry, count a
        // breakdown, and terminate the cycle (and solve) cleanly.
        let n = 8;
        let mut coo = spla::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1e308);
            coo.push(i, (i + 1) % n, 1e308);
        }
        let a = coo.to_csr();
        let b = vec![1.0; n];
        let o = GmresOptions {
            target_rrn: 1e-12,
            max_iters: 500,
            ..GmresOptions::default()
        };
        let r = gmres::<DenseStore<f64>, _, _>(&a, &b, &vec![0.0; n], &o, &Identity);
        assert!(!r.stats.converged);
        assert!(r.stats.breakdowns >= 1, "overflow must count as breakdown");
        assert!(
            r.stats.iterations < 5,
            "solver spun for {} iterations instead of terminating",
            r.stats.iterations
        );
        assert!(
            r.stats.final_rrn.is_finite(),
            "reported residual must stay finite"
        );
        // The poisoned cycle recorded no columns, so x is untouched.
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert!(r.history.iter().all(|p| p.rrn.is_finite()));
    }

    #[test]
    fn fixed_format_trajectory_has_one_entry_per_cycle() {
        let a = gen::conv_diff_3d(8, 8, 8, [0.3, 0.1, 0.0], 0.05);
        let (_, b) = manufactured_rhs(&a);
        let o = GmresOptions {
            restart: 10,
            target_rrn: 1e-8,
            max_iters: 3000,
            ..GmresOptions::default()
        };
        let r = gmres::<Frsz2Store, _, _>(&a, &b, &vec![0.0; 512], &o, &Identity);
        assert!(r.stats.converged);
        assert_eq!(r.stats.format_trajectory.len(), r.stats.restarts);
        assert!(r.stats.format_trajectory.iter().all(|f| f == "frsz2_32"));
        assert_eq!(r.stats.escalations, 0);
    }

    #[test]
    fn max_iters_cap_reports_non_convergence() {
        let a = gen::conv_diff_3d(8, 8, 8, [0.5, 0.0, 0.0], 0.0);
        let (_, b) = manufactured_rhs(&a);
        let o = GmresOptions {
            target_rrn: 1e-30, // unattainable
            max_iters: 50,
            ..GmresOptions::default()
        };
        let r = gmres::<DenseStore<f64>, _, _>(&a, &b, &vec![0.0; 512], &o, &Identity);
        assert!(!r.stats.converged);
        assert_eq!(r.stats.iterations, 50);
        assert!(r.stats.final_rrn > 0.0);
    }

    #[test]
    fn residual_history_independent_of_matrix_format() {
        // The bit-identity contract of `SparseMatrix` means a solve is
        // the *same computation* whatever format backs the operator.
        let a = gen::conv_diff_3d(8, 8, 8, [0.3, 0.2, 0.1], 0.1);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; 512];
        let o = opts(1e-9);
        let base = gmres::<Frsz2Store, _, _>(&a, &b, &x0, &o, &Identity);
        let ell = Ell::from_csr(&a);
        let sell = SellCSigma::from_csr(&a, 32, 256);
        for (label, r) in [
            (
                "ell",
                gmres::<Frsz2Store, _, _>(&ell, &b, &x0, &o, &Identity),
            ),
            (
                "sell",
                gmres::<Frsz2Store, _, _>(&sell, &b, &x0, &o, &Identity),
            ),
            (
                "dyn",
                gmres::<Frsz2Store, _, _>(
                    spla::auto_format(&a).build(&a).as_ref(),
                    &b,
                    &x0,
                    &o,
                    &Identity,
                ),
            ),
        ] {
            assert_eq!(r.stats.iterations, base.stats.iterations, "{label}");
            assert_eq!(r.history.len(), base.history.len(), "{label}");
            for (p, q) in r.history.iter().zip(&base.history) {
                assert_eq!(p.rrn.to_bits(), q.rrn.to_bits(), "{label} history");
            }
            for (u, v) in r.x.iter().zip(&base.x) {
                assert_eq!(u.to_bits(), v.to_bits(), "{label} solution");
            }
        }
    }

    #[test]
    fn solver_is_deterministic() {
        let a = gen::conv_diff_3d(8, 8, 8, [0.3, 0.2, 0.1], 0.1);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; 512];
        let o = opts(1e-9);
        let r1 = gmres::<Frsz2Store, _, _>(&a, &b, &x0, &o, &Identity);
        let r2 = gmres::<Frsz2Store, _, _>(&a, &b, &x0, &o, &Identity);
        assert_eq!(r1.stats.iterations, r2.stats.iterations);
        assert_eq!(r1.history.len(), r2.history.len());
        for (p, q) in r1.history.iter().zip(&r2.history) {
            assert_eq!(
                p.rrn.to_bits(),
                q.rrn.to_bits(),
                "history must be bitwise equal"
            );
        }
        for (a1, a2) in r1.x.iter().zip(&r2.x) {
            assert_eq!(a1.to_bits(), a2.to_bits());
        }
    }

    #[test]
    fn fault_nan_hessenberg_is_detected_as_breakdown() {
        // Poison one Hessenberg entry mid-solve: the non-finite guard
        // must record a breakdown and the restarted solve must still
        // converge on fresh cycles.
        let a = gen::conv_diff_3d(8, 8, 8, [0.3, 0.2, 0.1], 0.1);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; 512];
        let mut o = opts(1e-9);
        o.fault_nan_hessenberg_at = Some(7);
        let r = gmres::<DenseStore<f64>, _, _>(&a, &b, &x0, &o, &Identity);
        assert!(r.stats.converged, "final rrn {}", r.stats.final_rrn);
        assert!(r.stats.breakdowns >= 1, "the injected NaN went undetected");

        let clean = gmres::<DenseStore<f64>, _, _>(&a, &b, &x0, &opts(1e-9), &Identity);
        assert_eq!(clean.stats.breakdowns, 0);
    }
}
