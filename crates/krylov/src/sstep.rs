//! s-step CB-GMRES: matrix-powers expansion with two-stage block
//! orthogonalization over the compressed basis.
//!
//! Classical CB-GMRES (Fig. 1) generates one Krylov direction per
//! inner step; each new column costs one operator apply plus **two
//! decode sweeps** of every stored basis column (dots + axpys). The
//! s-step variant (Chronopoulos/Gear lineage; see Yamazaki et al. for
//! the communication-avoiding formulation) generates `s` directions
//! per outer step from the monomial matrix-powers panel
//! `P = [Bv_j, B²v_j, …, Bˢv_j]` (`B = A·M⁻¹`), so the
//! orthogonalization against the compressed basis amortizes: **one**
//! multi-column decode sweep ([`Basis::dots_many_with`] /
//! [`Basis::axpys_many`]) serves all `s` panel columns where the
//! scalar driver would pay `s` separate round trips. With an identity
//! preconditioner the whole panel comes from the fused
//! [`spla::SparseMatrix::spmv_powers_into`] kernel.
//!
//! Orthogonalization runs in two stages, each one copy in the
//! crate-private `panel.rs` that the block solver ([`crate::block`])
//! runs too:
//!
//! 1. **Block CGS against the stored basis** — one fused
//!    `dots_many`/`axpys_many` pair projects the panel against all `k`
//!    current columns (exactly one dot sweep + one gemv sweep,
//!    whatever `s` is), plus one panel-wide DGKS pair when a column
//!    lost most of its norm.
//! 2. **Intra-panel CholQR** — a serial `s × s` Gram matrix and its
//!    Cholesky factor turn the projected panel into orthonormal
//!    columns. When the Gram pivot collapses (monomial panels lose
//!    ~one binade of conditioning per power) the driver falls back to
//!    one corrective block-CGS sweep plus MGS², the block solver's
//!    factorization.
//!
//! This module keeps what is s-step's own: the matrix-powers
//! expansion, the Hessenberg recovery, and the LOO monitor.
//!
//! The Hessenberg columns are *recovered* from the change-of-basis
//! coefficients (`hp`, the panel's projection onto the old columns,
//! and `R`, the intra-panel triangular factor) rather than measured
//! one apply at a time; the Givens least-squares recurrence then runs
//! unchanged. Because the implicit estimate inherits the panel's
//! conditioning on top of the storage loss, convergence remains
//! decided **only** by the explicit residual at restart boundaries —
//! the same contract as every other driver in this crate, enforced by
//! the restart-boundary bookkeeping helper shared with
//! [`mod@crate::gmres`] and [`crate::block`].
//!
//! **Loss-of-orthogonality (LOO) monitor.** Lossy storage floors
//! interact with monomial conditioning: a panel that CholQR considers
//! fine can still decompress into columns that have drifted from
//! orthogonality. After every `s > 1` restart cycle the driver
//! measures `max |(QᵀQ − I)_{ab}|` over the cycle's recorded columns
//! (reading them back *through* the compressed store, so the measure
//! sees exactly what the next cycle will) and compares it against a
//! format-relative budget ([`loo_budget`]). One breach shrinks `s` to
//! 1 for the rest of the solve — convergence evidence is untouched
//! (explicit residual only); the solve just stops amortizing.
//! Per-format admissible `s` lives in
//! [`BasisFormat::max_sstep`], mirroring the measured
//! `accuracy_floor` table.
//!
//! **One restart loop.** s-step is a cycle policy of the restart loop
//! every single-RHS solve shares ([`mod@crate::gmres`]): the panel cycle
//! and the LOO monitor are all this module adds. A requested or gated
//! `s` of 1 runs the scalar cycle from the first boundary — bit-for-bit
//! identical to [`crate::gmres::gmres_with`] /
//! [`crate::basis_format::gmres_dyn`], the same contract the block
//! solver keeps at width 1 (and enforced by the pinned fingerprints
//! in `crates/bench/tests/pinned.rs`).

use crate::basis::Basis;
use crate::basis_format::BasisFormat;
use crate::checkpoint::{DriverKind, SolveCheckpoint};
use crate::gmres::{
    capture_column, finish_cycle, rotate_column, run_cycle, seed_cycle, solve_driver_full,
    ControlledSolve, CycleOutcome, CyclePolicy, GmresOptions, HistoryPoint, SolveHooks,
    SolveResult, SolveStats, Workspace,
};
use crate::panel::{charge, gather_col, pack_interleaved, Panel};
use crate::precond::Preconditioner;
use numfmt::ColumnStorage;
use spla::SparseMatrix;

/// Headroom factor of [`loo_budget`] over the storage-induced LOO
/// floor (`floor · √n`): decompression error alone puts every column
/// pair within `~2·floor·√n` of orthogonal, and one block-CGS sweep
/// over a well-conditioned panel stays within a small multiple of
/// that. A breach therefore signals *conditioning* loss, not routine
/// compression noise.
pub const LOO_HEADROOM: f64 = 32.0;

/// Format-relative loss-of-orthogonality budget for an `n`-row solve
/// whose basis storage has worst-case per-value error `floor` (see
/// [`BasisFormat::accuracy_floor`]): `LOO_HEADROOM · floor · √n`,
/// clamped below by `1e-8` so that near-exact formats (whose floor is
/// machine epsilon) still tolerate the ordinary rounding drift of a
/// single classical Gram-Schmidt sweep.
pub fn loo_budget(floor: f64, rows: usize) -> f64 {
    let n = rows.max(2) as f64;
    (LOO_HEADROOM * floor * n.sqrt()).max(1e-8)
}

/// Options of an s-step solve: the panel width on top of the scalar
/// [`GmresOptions`].
#[derive(Clone, Debug)]
pub struct SStepOptions {
    /// Krylov directions generated per outer step (panel width).
    /// `1` runs the scalar cycle bit-for-bit; larger values
    /// are clamped per basis format by [`BasisFormat::max_sstep`].
    pub s: usize,
    /// Loss-of-orthogonality budget override. `None` derives the
    /// format-relative default via [`loo_budget`].
    pub loo_budget: Option<f64>,
    /// The underlying solver options (restart length, target, ...).
    pub gmres: GmresOptions,
}

impl Default for SStepOptions {
    fn default() -> Self {
        SStepOptions {
            s: 4,
            loo_budget: None,
            gmres: GmresOptions::default(),
        }
    }
}

/// Result of an s-step solve: the scalar [`SolveResult`] plus the
/// panel-width trajectory the LOO monitor produced.
#[derive(Clone, Debug)]
pub struct SStepSolveResult {
    /// Solution, stats, and history — same shape and semantics as the
    /// scalar solver (convergence from the explicit residual only).
    pub solve: SolveResult,
    /// Panel width used by each executed restart cycle, in order
    /// (all `1`s for a gated `s = 1` solve).
    pub s_per_cycle: Vec<usize>,
    /// Measured `max |(QᵀQ − I)_{ab}|` after each `s > 1` cycle, in
    /// order (empty for a gated `s = 1` solve — the monitor never
    /// runs).
    pub loo_per_cycle: Vec<f64>,
    /// Number of LOO budget breaches (each shrinks `s` to 1; at most 1
    /// per solve since the width never grows back).
    pub loo_breaches: usize,
}

/// Per-solve scratch of the s-step cycle, allocated once and reused
/// across restarts (sized by `(n, m, s)`).
struct PanelScratch {
    /// Contiguous matrix powers `[Bv; B²v; …]`, `n · s`.
    powers: Vec<f64>,
    /// The two-stage orthogonalization: W, `hp = VᵀP`, R.
    panel: Panel,
    /// Unrotated Hessenberg (column-major, ld = m+1) — the recovery
    /// recurrence needs raw columns, while `ws.hess` holds the
    /// Givens-rotated triangle.
    hraw: Vec<f64>,
    /// One recovered raw Hessenberg column, `m + 1`.
    pvec: Vec<f64>,
    /// LOO dot products, `m + 1`.
    loo: Vec<f64>,
}

impl PanelScratch {
    fn new(n: usize, m: usize, s: usize) -> Self {
        PanelScratch {
            powers: vec![0.0; n * s],
            // A panel projects against k = j + 1 <= m stored columns.
            panel: Panel::new(n, m, s),
            hraw: vec![0.0; (m + 1) * m],
            pvec: vec![0.0; m + 1],
            loo: vec![0.0; m + 1],
        }
    }
}

/// One s-step restart cycle: panels of `s_cur` matrix-powers
/// directions, two-stage orthogonalization, Hessenberg recovery, then
/// the same least-squares update as the scalar [`crate::gmres`] cycle.
/// The restart loop owns the explicit-residual boundary; only implicit
/// history points are pushed here.
#[allow(clippy::too_many_arguments)]
fn run_sstep_cycle<S: ColumnStorage, P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    precond: &P,
    opts: &GmresOptions,
    basis: &mut Basis<S>,
    ws: &mut Workspace,
    px: &mut PanelScratch,
    x: &mut [f64],
    beta: f64,
    bnorm: f64,
    stats: &mut SolveStats,
    history: &mut Vec<HistoryPoint>,
    captured: &mut Option<Vec<f64>>,
    s_cur: usize,
) -> CycleOutcome {
    let n = x.len();
    let m = ws.m;
    let ld = ws.ld;
    let mut outcome = CycleOutcome::default();
    let col_bytes = seed_cycle(basis, ws, beta, opts, stats, captured);
    // The recovery recurrence consumes raw (unrotated) columns of the
    // whole cycle so far; reset per cycle.
    px.hraw.fill(0.0);

    let mut j = 0usize;
    'outer: while j < m && stats.iterations < opts.max_iters {
        let k = j + 1; // stored columns the panel orthogonalizes against
        let s_eff = s_cur.min(m - j);

        // Matrix-powers expansion: P = [Bv_j, B²v_j, …] with
        // B = A·M⁻¹. Identity preconditioning takes the fused kernel
        // (bit-identical to the stepwise loop); anything else applies
        // M⁻¹ between powers.
        basis.read_column(j, &mut ws.vj);
        stats.basis_bytes_read += col_bytes;
        if precond.is_identity() {
            a.spmv_powers_into(&ws.vj, &mut px.powers[..n * s_eff], s_eff);
        } else {
            for p in 0..s_eff {
                let (done, rest) = px.powers.split_at_mut(p * n);
                let src: &[f64] = if p == 0 { &ws.vj } else { &done[(p - 1) * n..] };
                precond.apply(src, &mut ws.z);
                a.spmv(&ws.z, &mut rest[..n]);
            }
        }
        stats.spmv_count += s_eff as u64;
        let panel = &mut px.panel;
        {
            let refs: Vec<&[f64]> = px.powers[..n * s_eff].chunks(n).collect();
            pack_interleaved(&mut panel.w[..n * s_eff], &refs, n);
        }

        // Stage 1: ONE block-CGS sweep pair against the stored basis —
        // the whole point of the s-step formulation: one dot sweep + one
        // gemv sweep serve all s_eff new directions (the panel-wide DGKS
        // pair, when it fires, is amortized the same way). Stage 2:
        // intra-panel CholQR; on an ill-conditioned Gram, one corrective
        // pair (the panel has then also lost orthogonality to V)
        // followed by MGS².
        let mut pairs = panel.project(basis, k, s_eff, opts.reorth_eta);
        let factored = panel.cholqr(s_eff) || {
            panel.correct(basis, k, s_eff);
            pairs += 1;
            panel.mgs2(s_eff)
        };
        charge(stats, pairs, k as u64, col_bytes);
        if !factored
            || panel.h[..k * s_eff].iter().any(|v| !v.is_finite())
            || panel.r[..s_eff * s_eff].iter().any(|v| !v.is_finite())
        {
            stats.breakdowns += 1;
            break 'outer;
        }

        // Hessenberg recovery: with P = V·hp + Q·R and the monomial
        // shift B·p_c = p_{c+1},
        //   column j     (B v_j   = p_0):  rows i<k ← hp[i,0],
        //                                  row  k   ← R[0,0];
        //   column j+c   (B q_{c-1}, c≥1): ( coeffs(p_c)
        //                                    − Σ_i  hp[i,c−1]·hraw[:,i]
        //                                    − Σ_u  R[u,c−1]·hraw[:,j+1+u] )
        //                                  / R[c−1,c−1], u ≤ c−2,
        // where coeffs(p_c) are hp[:,c] on the old rows and R[:,c] on
        // the panel rows. Each recovered column then runs the ordinary
        // Givens recurrence.
        let jbase = j;
        for c in 0..s_eff {
            let jc = jbase + c;
            {
                let col = &mut px.pvec[..jc + 2];
                panel.raw_column(k, s_eff, c, col);
                if c > 0 {
                    for (i, hcol) in px.hraw.chunks(ld).enumerate().take(k) {
                        let coef = panel.h[i * s_eff + (c - 1)];
                        if coef != 0.0 {
                            for (cv, &hv) in col[..i + 2].iter_mut().zip(&hcol[..i + 2]) {
                                *cv -= coef * hv;
                            }
                        }
                    }
                    for u in 0..c - 1 {
                        let coef = panel.r[u * s_eff + (c - 1)];
                        let src = jbase + 1 + u;
                        if coef != 0.0 {
                            for (cv, &hv) in col[..src + 2]
                                .iter_mut()
                                .zip(&px.hraw[src * ld..src * ld + src + 2])
                            {
                                *cv -= coef * hv;
                            }
                        }
                    }
                    let dvsr = panel.r[(c - 1) * s_eff + (c - 1)];
                    if dvsr == 0.0 || !dvsr.is_finite() {
                        stats.breakdowns += 1;
                        break 'outer;
                    }
                    let inv = 1.0 / dvsr;
                    for v in col.iter_mut() {
                        *v *= inv;
                    }
                }
                if col.iter().any(|v| !v.is_finite()) {
                    stats.breakdowns += 1;
                    break 'outer;
                }
            }
            px.hraw[jc * ld..jc * ld + jc + 2].copy_from_slice(&px.pvec[..jc + 2]);

            // Givens least-squares recurrence, identical to the scalar
            // cycle's step 16.
            ws.hess[jc * ld..jc * ld + jc + 2].copy_from_slice(&px.pvec[..jc + 2]);
            let implicit_rrn = rotate_column(ws, jc, bnorm, opts, stats, history, &mut outcome);
            j = jc + 1;

            // The implicit estimate reaching the target only ENDS THE
            // CYCLE (never sets `converged`); remaining panel columns
            // are discarded, like the scalar cycle discards its
            // unbuilt columns.
            if implicit_rrn <= opts.target_rrn || stats.iterations >= opts.max_iters {
                break 'outer;
            }

            // Store q_c as basis column jc+1 (compressed write) — the
            // next panel and the final combine read it back through
            // the accessor like every other column.
            gather_col(&panel.w[..n * s_eff], s_eff, c, &mut ws.w);
            basis.write(jc + 1, &ws.w);
            stats.basis_bytes_written += col_bytes;
            capture_column(basis, jc + 1, opts, stats, captured);
        }
    }
    outcome.steps = j;
    finish_cycle(basis, precond, ws, x, j, col_bytes, stats);
    outcome
}

/// Measure `max |(QᵀQ − I)_{ab}|` over the first `k` stored basis
/// columns, reading each column back through the compressed store.
/// Diagnostics only: the `k(k+3)/2` column decodes are charged to
/// `basis_bytes_read` but NOT to the sweep counters, which count
/// solver work (the quantity s-step reduces), not monitoring.
fn measure_loo<S: ColumnStorage>(
    basis: &Basis<S>,
    k: usize,
    ws: &mut Workspace,
    px: &mut PanelScratch,
    stats: &mut SolveStats,
) -> f64 {
    let col_bytes = basis.column_bytes() as u64;
    let mut worst = 0.0f64;
    for c in 0..k {
        basis.read_column(c, &mut ws.vj);
        basis.dots_with(c + 1, &ws.vj, &mut px.loo[..c + 1], &mut ws.dot_partials);
        stats.basis_bytes_read += (c as u64 + 2) * col_bytes;
        for (i, &d) in px.loo[..c + 1].iter().enumerate() {
            let target = if i == c { 1.0 } else { 0.0 };
            let dev = (d - target).abs();
            if !dev.is_finite() {
                return f64::INFINITY;
            }
            worst = worst.max(dev);
        }
    }
    worst
}

/// The s-step cycle policy: panel cycles of width `s_cur` followed by
/// the LOO monitor, which shrinks the width to 1 for the rest of the
/// solve on a breach (the remaining cycles keep the panel cycle, at
/// width 1). A gated width of 1 runs the scalar cycle from the first
/// boundary — bit-for-bit [`crate::gmres::gmres_with`] — while its
/// checkpoints still carry the s-step identity.
pub(crate) struct PanelPolicy {
    /// Panel width of the next cycle (starts at the width the format
    /// gate admits, which `px` is sized for).
    s_cur: usize,
    /// LOO budget a measured cycle must stay within.
    budget: f64,
    /// Panel scratch (`None` at a gated width of 1).
    px: Option<PanelScratch>,
    s_per_cycle: Vec<usize>,
    loo_per_cycle: Vec<f64>,
    loo_breaches: usize,
}

impl PanelPolicy {
    fn new(rows: usize, m: usize, gated: usize, budget: f64) -> Self {
        PanelPolicy {
            s_cur: gated,
            budget,
            px: (gated > 1).then(|| PanelScratch::new(rows, m, gated)),
            s_per_cycle: Vec::new(),
            loo_per_cycle: Vec::new(),
            loo_breaches: 0,
        }
    }

    /// Attach the panel-width trajectory to the finished solve.
    pub(crate) fn into_result(self, solve: SolveResult) -> SStepSolveResult {
        SStepSolveResult {
            solve,
            s_per_cycle: self.s_per_cycle,
            loo_per_cycle: self.loo_per_cycle,
            loo_breaches: self.loo_breaches,
        }
    }
}

impl<S: ColumnStorage> CyclePolicy<S> for PanelPolicy {
    const DRIVER: DriverKind = DriverKind::SStep;

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
        self.s_per_cycle.push(self.s_cur);
        let Some(px) = self.px.as_mut() else {
            return run_cycle(
                a, precond, opts, basis, ws, x, beta, bnorm, stats, history, captured,
            );
        };
        let out = run_sstep_cycle(
            a, precond, opts, basis, ws, px, x, beta, bnorm, stats, history, captured, self.s_cur,
        );
        // LOO monitor: measure the cycle's recorded columns through the
        // store; one breach shrinks s to 1 for the rest of the solve.
        if self.s_cur > 1 && out.steps > 0 {
            let loo = measure_loo(basis, out.steps, ws, px, stats);
            self.loo_per_cycle.push(loo);
            // NaN counts as a breach: a non-finite measure means the
            // stored columns are unusable for a wide panel.
            if loo.is_nan() || loo > self.budget {
                self.s_cur = 1;
                self.loo_breaches += 1;
            }
        }
        out
    }

    fn capture(&self, cp: &mut SolveCheckpoint) {
        cp.s_cur = self.s_cur;
        cp.loo_breaches = self.loo_breaches;
        cp.s_per_cycle = self.s_per_cycle.clone();
        cp.loo_per_cycle = self.loo_per_cycle.clone();
    }

    fn restore(&mut self, cp: &SolveCheckpoint) {
        self.s_cur = cp.s_cur;
        self.loo_breaches = cp.loo_breaches;
        self.s_per_cycle = cp.s_per_cycle.clone();
        self.loo_per_cycle = cp.loo_per_cycle.clone();
    }
}

/// The panel width an s-step solve over `format` runs at: the request
/// clamped (at least 1) by [`BasisFormat::max_sstep`].
pub(crate) fn gated_width(format: &dyn BasisFormat, sopts: &SStepOptions) -> usize {
    sopts.s.max(1).min(format.max_sstep().max(1))
}

/// s-step CB-GMRES over a runtime-selected basis format: `s` is gated
/// at [`BasisFormat::max_sstep`] and the LOO budget derives from the
/// format's [`BasisFormat::accuracy_floor`] (unless overridden). A
/// requested or gated `s` of 1 is bit-for-bit
/// [`crate::basis_format::gmres_dyn`]. Observed, controlled, and
/// resumed s-step solves go through [`crate::solve`] with
/// [`crate::SolvePlan::SStep`].
pub fn sstep_gmres_dyn<P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    b: &[f64],
    x0: &[f64],
    sopts: &SStepOptions,
    precond: &P,
    format: &dyn BasisFormat,
) -> SStepSolveResult {
    let (done, policy) = sstep_dyn(a, b, x0, sopts, precond, format, SolveHooks::default());
    policy.into_result(done.result)
}

/// [`sstep_gmres_dyn`] under `hooks` (the [`crate::SolvePlan::SStep`]
/// arm of [`crate::solve`]): the one restart loop under a
/// [`PanelPolicy`] of the gated width, whose LOO budget is the `sopts`
/// override or the one the format's accuracy floor implies. Returns the
/// policy with its panel-width trajectory alongside the solve.
pub(crate) fn sstep_dyn<P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    b: &[f64],
    x0: &[f64],
    sopts: &SStepOptions,
    precond: &P,
    format: &dyn BasisFormat,
    hooks: SolveHooks<'_>,
) -> (ControlledSolve, PanelPolicy) {
    let (n, m) = (a.rows(), sopts.gmres.restart);
    let budget = sopts
        .loo_budget
        .unwrap_or_else(|| loo_budget(format.accuracy_floor(), n));
    let mut policy = PanelPolicy::new(n, m, gated_width(format, sopts), budget);
    let basis = Basis::from_store(format.create(n, m + 1));
    let done = solve_driver_full(a, b, x0, &sopts.gmres, precond, basis, &mut policy, hooks);
    (done, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis_format::by_name;
    use crate::checkpoint::SolveControl;
    use crate::gmres::gmres_with;
    use crate::precond::{Identity, Jacobi};
    use frsz2::{Frsz2Config, Frsz2Store};
    use numfmt::DenseStore;
    use spla::dense::manufactured_rhs;
    use spla::gen;

    fn test_system() -> (spla::Csr, Vec<f64>, Vec<f64>) {
        let a = gen::conv_diff_3d(8, 8, 8, [0.4, 0.2, 0.1], 0.2);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        (a, b, x0)
    }

    fn opts(target: f64) -> GmresOptions {
        GmresOptions {
            target_rrn: target,
            max_iters: 4000,
            ..GmresOptions::default()
        }
    }

    #[test]
    fn s_one_is_bit_identical_to_gmres_with() {
        let (a, b, x0) = test_system();
        let o = opts(1e-9);
        let cfg = Frsz2Config::new(32, 21);
        let scalar = gmres_with(&a, &b, &x0, &o, &Identity, |rows, cols| {
            Frsz2Store::with_config(cfg, rows, cols)
        });
        let sopts = SStepOptions {
            s: 1,
            loo_budget: None,
            gmres: o,
        };
        // The registry's frsz2_21 is Frsz2Store::with_config(32, 21).
        let fmt = by_name("frsz2_21").unwrap();
        let sstep = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
        assert!(scalar.stats.converged && sstep.solve.stats.converged);
        assert_eq!(sstep.solve.stats.iterations, scalar.stats.iterations);
        assert_eq!(sstep.solve.history.len(), scalar.history.len());
        for (p, q) in sstep.solve.history.iter().zip(&scalar.history) {
            assert_eq!(p.rrn.to_bits(), q.rrn.to_bits(), "history must match");
        }
        for (u, v) in sstep.solve.x.iter().zip(&scalar.x) {
            assert_eq!(u.to_bits(), v.to_bits(), "solution must match");
        }
        assert_eq!(
            sstep.solve.stats.basis_dot_sweeps,
            scalar.stats.basis_dot_sweeps
        );
        assert_eq!(
            sstep.solve.stats.basis_gemv_sweeps,
            scalar.stats.basis_gemv_sweeps
        );
        assert!(sstep.s_per_cycle.iter().all(|&s| s == 1));
        assert!(sstep.loo_per_cycle.is_empty());
        assert_eq!(sstep.loo_breaches, 0);
    }

    #[test]
    fn sstep_converges_with_fewer_sweeps_than_scalar() {
        let (a, b, x0) = test_system();
        let o = opts(1e-9);
        let cfg = Frsz2Config::new(32, 21);
        let scalar = gmres_with(&a, &b, &x0, &o, &Identity, |rows, cols| {
            Frsz2Store::with_config(cfg, rows, cols)
        });
        for s in [2, 4, 8] {
            let sopts = SStepOptions {
                s,
                loo_budget: None,
                gmres: o.clone(),
            };
            let fmt = by_name("frsz2_21").unwrap();
            let r = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
            assert!(r.solve.stats.converged, "s={s} must converge");
            assert!(r.solve.stats.final_rrn <= 1e-9, "s={s} explicit target");
            let scalar_sweeps = scalar.stats.basis_dot_sweeps + scalar.stats.basis_gemv_sweeps;
            let sstep_sweeps = r.solve.stats.basis_dot_sweeps + r.solve.stats.basis_gemv_sweeps;
            assert!(
                sstep_sweeps < scalar_sweeps,
                "s={s}: {sstep_sweeps} sweeps must undercut scalar {scalar_sweeps}"
            );
            assert_eq!(r.loo_breaches, 0, "s={s}: no breach expected here");
            assert!(r.s_per_cycle.iter().all(|&sv| sv == s));
        }
    }

    #[test]
    fn sstep_float64_matches_scalar_iteration_count_closely() {
        // Exact storage, well-conditioned operator: the recovered
        // Hessenberg is accurate enough that s-step needs at most a
        // handful of extra iterations over scalar GMRES.
        let (a, b, x0) = test_system();
        let o = opts(1e-10);
        let scalar = gmres_with(&a, &b, &x0, &o, &Identity, DenseStore::<f64>::with_shape);
        let sopts = SStepOptions {
            s: 4,
            loo_budget: None,
            gmres: o,
        };
        let fmt = by_name("float64").unwrap();
        let r = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
        assert!(r.solve.stats.converged);
        assert!(
            r.solve.stats.iterations <= scalar.stats.iterations + 2 * scalar.stats.restarts + 8,
            "s-step {} vs scalar {} iterations",
            r.solve.stats.iterations,
            scalar.stats.iterations
        );
    }

    #[test]
    fn sstep_supports_non_identity_preconditioner() {
        let (a, b, x0) = test_system();
        let jac = Jacobi::new(&a);
        assert!(!jac.is_identity());
        let sopts = SStepOptions {
            s: 4,
            loo_budget: None,
            gmres: opts(1e-9),
        };
        let fmt = by_name("float64").unwrap();
        let r = sstep_gmres_dyn(&a, &b, &x0, &sopts, &jac, fmt.as_ref());
        assert!(r.solve.stats.converged, "rrn {}", r.solve.stats.final_rrn);
        // The explicit-residual contract holds regardless of precond.
        let last = r.solve.history.last().unwrap();
        assert!(last.explicit);
        assert!(last.rrn <= 1e-9);
    }

    #[test]
    fn forced_loo_breach_shrinks_s_without_breaking_convergence() {
        let (a, b, x0) = test_system();
        let sopts = SStepOptions {
            s: 4,
            // Impossible budget: even pure f64 rounding breaches it.
            loo_budget: Some(1e-30),
            gmres: opts(1e-9),
        };
        let fmt = by_name("frsz2_21").unwrap();
        let r = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
        assert!(r.loo_breaches >= 1, "budget 1e-30 must breach");
        assert_eq!(r.s_per_cycle[0], 4, "first cycle runs at requested s");
        // After the breach every later cycle runs at s = 1.
        if r.s_per_cycle.len() > 1 {
            assert!(r.s_per_cycle[1..].iter().all(|&s| s == 1));
        }
        // Convergence evidence untouched: explicit-only contract.
        assert!(r.solve.stats.converged, "rrn {}", r.solve.stats.final_rrn);
        let last = r.solve.history.last().unwrap();
        assert!(last.explicit);
        assert!(last.rrn <= 1e-9);
    }

    #[test]
    fn every_registered_format_reports_finite_loo_and_respects_gate() {
        // Property over the whole registry (satellite: LOO tests).
        let a = gen::conv_diff_3d(6, 6, 6, [0.3, 0.2, 0.1], 0.3);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        for name in crate::basis_format::names() {
            let fmt = by_name(&name).unwrap();
            let cap = fmt.max_sstep();
            assert!(cap >= 1, "{name}: cap must admit scalar solves");
            let sopts = SStepOptions {
                s: 64, // far above every cap: the gate must clamp
                loo_budget: None,
                gmres: GmresOptions {
                    target_rrn: 1e-4,
                    max_iters: 400,
                    restart: 20,
                    ..GmresOptions::default()
                },
            };
            let r = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
            assert!(
                r.s_per_cycle.iter().all(|&s| s <= cap),
                "{name}: gated s exceeded max_sstep {cap}"
            );
            for (i, &loo) in r.loo_per_cycle.iter().enumerate() {
                assert!(loo.is_finite(), "{name}: cycle {i} LOO not finite");
                assert!(loo >= 0.0, "{name}: cycle {i} LOO negative");
            }
            if cap > 1 {
                // An s > 1 cycle must have been measured (unless the
                // solve finished in zero cycles, impossible here).
                assert_eq!(
                    r.loo_per_cycle.len(),
                    r.s_per_cycle.iter().filter(|&&s| s > 1).count(),
                    "{name}: one LOO sample per s>1 cycle"
                );
            } else {
                assert!(r.loo_per_cycle.is_empty(), "{name}: s=1 never measures");
            }
        }
    }

    #[test]
    fn format_gate_clamps_float16_to_its_table_entry() {
        let fmt = by_name("float16").unwrap();
        assert_eq!(fmt.max_sstep(), 2);
        let (a, b, x0) = test_system();
        let sopts = SStepOptions {
            s: 8,
            loo_budget: None,
            gmres: GmresOptions {
                target_rrn: 1e-3,
                max_iters: 1000,
                ..GmresOptions::default()
            },
        };
        let r = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
        assert!(r.s_per_cycle.iter().all(|&s| s <= 2));
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = spla::Csr::identity(12);
        let sopts = SStepOptions {
            s: 4,
            loo_budget: None,
            gmres: opts(1e-12),
        };
        let fmt = by_name("float64").unwrap();
        let r = sstep_gmres_dyn(&a, &[0.0; 12], &[1.0; 12], &sopts, &Identity, fmt.as_ref());
        assert!(r.solve.stats.converged);
        assert!(r.solve.x.iter().all(|&v| v == 0.0));
        assert_eq!(r.solve.stats.iterations, 0);
    }

    #[test]
    fn sstep_is_deterministic() {
        let (a, b, x0) = test_system();
        let sopts = SStepOptions {
            s: 4,
            loo_budget: None,
            gmres: opts(1e-9),
        };
        let fmt = by_name("frsz2_21").unwrap();
        let r1 = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
        let r2 = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
        assert_eq!(r1.solve.stats.iterations, r2.solve.stats.iterations);
        assert_eq!(r1.solve.history.len(), r2.solve.history.len());
        for (p, q) in r1.solve.history.iter().zip(&r2.solve.history) {
            assert_eq!(p.rrn.to_bits(), q.rrn.to_bits());
        }
        for (u, v) in r1.solve.x.iter().zip(&r2.solve.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert_eq!(r1.loo_per_cycle.len(), r2.loo_per_cycle.len());
        for (p, q) in r1.loo_per_cycle.iter().zip(&r2.loo_per_cycle) {
            assert_eq!(p.to_bits(), q.to_bits(), "LOO must be deterministic");
        }
    }

    /// Halt the wide s-step solve mid-run, resume from the captured
    /// checkpoint, and require the stitched run to reproduce the
    /// uninterrupted solve bit for bit — panel-width schedule included.
    #[test]
    fn sstep_halt_and_resume_is_bit_identical() {
        let (a, b, x0) = test_system();
        let sopts = SStepOptions {
            s: 4,
            loo_budget: None,
            gmres: GmresOptions {
                restart: 12,
                ..opts(1e-9)
            },
        };
        let fmt = by_name("frsz2_21").unwrap();
        let base = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
        assert!(base.solve.stats.converged);
        assert!(
            base.solve.stats.restarts >= 3,
            "need several cycles to split"
        );

        let mut taken: Option<SolveCheckpoint> = None;
        let mut boundaries = 0usize;
        let mut probe = |cp: &SolveCheckpoint| {
            boundaries += 1;
            if boundaries == 3 {
                taken = Some(cp.clone());
                SolveControl::Halt
            } else {
                SolveControl::Continue
            }
        };
        let hooks = SolveHooks {
            control: Some(&mut probe),
            ..SolveHooks::default()
        };
        let (first, _) = sstep_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref(), hooks);
        assert!(first.halted);
        let cp = taken.expect("checkpoint captured at halt");
        assert_eq!(cp.driver, DriverKind::SStep);
        assert_eq!(cp.s_per_cycle.len(), 2, "two cycles completed at halt");

        // Round-trip through the byte format.
        let bytes = cp.encode(None);
        let cp = SolveCheckpoint::decode(&bytes, None).expect("decode");

        let hooks = SolveHooks {
            resume: Some(&cp),
            ..SolveHooks::default()
        };
        let zeros = vec![0.0; a.rows()];
        let (resumed, policy) = sstep_dyn(&a, &b, &zeros, &sopts, &Identity, fmt.as_ref(), hooks);
        assert!(!resumed.halted);
        let r = policy.into_result(resumed.result);
        assert!(r.solve.stats.converged);
        assert_eq!(r.s_per_cycle, base.s_per_cycle);
        assert_eq!(r.loo_breaches, base.loo_breaches);
        assert_eq!(r.loo_per_cycle.len(), base.loo_per_cycle.len());
        for (p, q) in r.loo_per_cycle.iter().zip(&base.loo_per_cycle) {
            assert_eq!(p.to_bits(), q.to_bits(), "LOO trace");
        }
        assert_eq!(r.solve.stats.iterations, base.solve.stats.iterations);
        assert_eq!(r.solve.stats.spmv_count, base.solve.stats.spmv_count);
        assert_eq!(r.solve.history.len(), base.solve.history.len());
        for (p, q) in r.solve.history.iter().zip(&base.solve.history) {
            assert_eq!(p.rrn.to_bits(), q.rrn.to_bits(), "history");
        }
        for (u, v) in r.solve.x.iter().zip(&base.solve.x) {
            assert_eq!(u.to_bits(), v.to_bits(), "solution");
        }
    }

    #[test]
    fn loo_budget_is_format_relative_and_clamped() {
        // frsz2_21 on 8000 rows: well above the exact-storage clamp.
        let lossy = loo_budget(f64::powi(2.0, -19), 8000);
        assert!(lossy > 1e-4 && lossy < 1.0);
        // Exact storage: clamped at 1e-8.
        assert_eq!(loo_budget(f64::powi(2.0, -52), 8000), 1e-8);
        // Monotone in the floor.
        assert!(loo_budget(1e-3, 4096) > loo_budget(1e-6, 4096));
    }
}
