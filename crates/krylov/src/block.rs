//! Block (multi-RHS) CB-GMRES: many right-hand sides against one
//! operator, expanded through **one shared compressed Krylov basis**.
//!
//! Real traffic (power-flow Jacobians, parameter sweeps) arrives as
//! `b` right-hand sides sharing one `A`. Solving them independently
//! streams the operator `b` times per expansion and decodes `b`
//! separate compressed bases. The block driver instead runs block
//! Arnoldi: each expansion appends `b` columns at once (one
//! [`SparseMatrix::spmm_into`] sweep reads every stored matrix entry
//! once for all `b` outputs) and orthogonalizes all `b` new vectors in
//! **one decode sweep** of the shared basis through the fused
//! multi-RHS kernels ([`Basis::dots_many_with`] /
//! [`Basis::axpys_many`]) — the multi-RHS analogue of the paper's
//! compressed-basis traffic argument, applied to both of the solver's
//! memory-bound streams.
//!
//! The orthogonalization stages (the block-CGS + DGKS sweep pair and
//! MGS²) are one copy each in the crate-private `panel.rs`, which the
//! s-step driver ([`crate::sstep`]) runs too. This module keeps what is
//! block's own: the SpMM expansion, the MGS² seed of the residual
//! block, the band-QR carriers, and lane deflation.
//!
//! # Shared-space semantics
//!
//! Every right-hand side draws its iterate from the same block Krylov
//! space `K_j(A, [r_1 … r_b])`: the restart boundary seeds the cycle
//! by orthonormalizing the `b` explicit residuals into basis block 0
//! (recording the mixing factor Γ), and each step extends the space by
//! `A·M⁻¹` applied to the newest block. The block Hessenberg is kept
//! QR-factored by Givens rotations (each new column needs exactly `b`
//! eliminations of its subdiagonal band); per RHS the driver carries a
//! rotated right-hand side `g_k` seeded from Γ, so an implicit
//! residual `‖tail(g_k)‖/‖b_k‖` is available per RHS per step, along
//! with per-RHS Hessenberg bookkeeping (`y_k` uses only the leading
//! `q_k` columns recorded while RHS `k` was still unconverged).
//!
//! Because the space is shared, a width-`b` solve is **not**
//! bit-identical per RHS to `b` independent solves — block Arnoldi
//! legitimately differs (it usually converges in fewer iterations per
//! RHS: the shared space deflates the spectrum seen by every RHS).
//! Convergence claims therefore rest on the same contract as the
//! single-RHS driver: only the *explicit* residual at a restart
//! boundary sets [`SolveStats::converged`]. Two things are pinned
//! bit-for-bit:
//!
//! - **b = 1 is the single solver.** The driver delegates width-1
//!   solves to the restart loop behind [`crate::gmres_with`], so the
//!   b=1 path is fingerprint-identical by construction (enforced by
//!   the pinned block rows against the `cb_gmres_frsz2_21`
//!   fingerprint).
//! - **Thread-count invariance.** All parallel reductions go through
//!   the chunk-deterministic basis kernels, so a width-`b` solve is
//!   bit-identical at any thread count.
//!
//! # Per-RHS convergence, freezing, and deflation
//!
//! Within a cycle, an RHS whose implicit residual reaches the target
//! (or whose iteration budget is exhausted) **freezes**: it stops
//! counting iterations and remembers how many Hessenberg columns
//! `q_k` it consumed, while the block keeps expanding for the rest.
//! At the cycle end each RHS back-substitutes its own `q_k × q_k`
//! triangle and all solution updates run through one batched
//! [`Basis::combine_many`] decode sweep. At the next boundary,
//! converged RHS **deflate**: they retire from the block entirely, so
//! subsequent cycles run with a genuinely smaller width (narrower
//! SpMM, fewer appended columns) — the shrinking active block of the
//! issue contract.
//!
//! A breakdown inside the block (a new column that vanishes after
//! projection, i.e. the block Krylov space stopped growing — exactly
//! linearly dependent right-hand sides trigger this at the seed)
//! freezes the whole cycle at the columns recorded so far; the
//! boundary's explicit residual then decides each RHS's fate, and a
//! cycle that recorded nothing retires its RHS unconverged (it would
//! replay verbatim). Use distinct right-hand sides; duplicates are
//! better served by one solve.

use crate::basis::Basis;
use crate::basis_format::BasisFormat;
use crate::gmres::{
    boundary_bookkeeping, givens, solve_driver_full, CycleEvent, GmresOptions, HistoryPoint,
    Scalar, SolveHooks, SolveStats, REORTH_ETA,
};
use crate::panel::{charge, gather_col, pack_interleaved, scatter_col, Panel};
use crate::precond::Preconditioner;
use numfmt::ColumnStorage;
use spla::dense::{axpy, norm2};
use spla::SparseMatrix;
use std::time::Instant;

/// Result of a block solve: per-RHS outputs plus the one block-level
/// quantity single-RHS stats cannot express — how many full sweeps of
/// the operator the whole solve cost.
#[derive(Clone, Debug)]
pub struct BlockSolveResult {
    /// Solution vector of each right-hand side, in input order.
    pub solutions: Vec<Vec<f64>>,
    /// Per-RHS counters and outcome (see [`SolveStats::converged`];
    /// each entry means exactly what it does for a single solve —
    /// `iterations` counts the block steps the RHS participated in
    /// unconverged, and the byte counters are the RHS's amortized
    /// share of the shared-basis traffic).
    pub stats: Vec<SolveStats>,
    /// Per-RHS residual histories (empty when
    /// `GmresOptions::record_history` is off).
    pub histories: Vec<Vec<HistoryPoint>>,
    /// Full passes over the operator's stored entries ([`spmv`] or
    /// [`spmm_into`] calls). Amortized SpMV traffic per RHS is
    /// `operator_sweeps * storage_bytes / width` — the block solver's
    /// headline metric, strictly below the single-solve total whenever
    /// right-hand sides share sweeps.
    ///
    /// [`spmv`]: SparseMatrix::spmv
    /// [`spmm_into`]: SparseMatrix::spmm_into
    pub operator_sweeps: u64,
}

impl BlockSolveResult {
    /// `true` only when **every** RHS converged (each decided from its
    /// own explicit residual, never the implicit estimate).
    pub fn all_converged(&self) -> bool {
        self.stats.iter().all(|s| s.converged)
    }
}

/// Per-RHS driver state that survives across cycles.
struct Lane {
    x: Vec<f64>,
    /// Explicit residual `b − Ax` entering the current cycle.
    r: Vec<f64>,
    stats: SolveStats,
    history: Vec<HistoryPoint>,
    bnorm: f64,
    /// Still solving (not converged / terminated).
    active: bool,
}

impl Lane {
    /// Retire the RHS from the block (converged or terminal), stamping
    /// its wall time: the time-to-solution of *this* RHS, deflation
    /// included.
    fn retire(&mut self, start: Instant) {
        self.active = false;
        self.stats.wall_time = start.elapsed();
    }
}

/// Solve `A x_k = b_k` for every right-hand side in `bs` with block
/// CB-GMRES, expanding one shared Krylov basis built by `make_store`
/// (e.g. `DenseStore::<f64>::with_shape` or
/// `Frsz2Store::with_config`); the factory receives `(rows, cols)` for
/// the whole shared basis and is called once.
///
/// `x0s` supplies per-RHS initial guesses (zero vectors when `None`).
/// See the [module docs](self) for the shared-space semantics; at
/// `b = 1` the result is bit-identical to [`crate::gmres_with`].
pub fn block_gmres_with<S: ColumnStorage, P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    bs: &[Vec<f64>],
    x0s: Option<&[Vec<f64>]>,
    opts: &GmresOptions,
    precond: &P,
    make_store: impl Fn(usize, usize) -> S,
) -> BlockSolveResult {
    block_solve_driver(a, bs, x0s, opts, precond, make_store, |_, _| {})
}

/// [`block_gmres_with`] over a runtime-selected basis format from the
/// [`crate::basis_format`] registry (the block analogue of
/// [`crate::basis_format::gmres_dyn`]).
pub fn block_gmres_dyn<P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    bs: &[Vec<f64>],
    x0s: Option<&[Vec<f64>]>,
    opts: &GmresOptions,
    precond: &P,
    format: &dyn BasisFormat,
) -> BlockSolveResult {
    block_gmres_dyn_observed(a, bs, x0s, opts, precond, format, |_, _| {})
}

/// [`block_gmres_dyn`] with per-RHS restart-boundary telemetry: the
/// hook borrows `(rhs_index, event)` for every cycle an RHS is about
/// to run, with the same boundary semantics as an observed single-RHS
/// [`crate::solve`] (an RHS's converged boundary emits no event; at
/// width 1 the events are that solve's own). The event stream is
/// deterministic, like the solve.
pub fn block_gmres_dyn_observed<P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    bs: &[Vec<f64>],
    x0s: Option<&[Vec<f64>]>,
    opts: &GmresOptions,
    precond: &P,
    format: &dyn BasisFormat,
    on_event: impl FnMut(usize, &CycleEvent),
) -> BlockSolveResult {
    block_solve_driver(
        a,
        bs,
        x0s,
        opts,
        precond,
        |rows, cols| format.create(rows, cols),
        on_event,
    )
}

/// The one block driver: validates shapes, delegates `b = 1` to the
/// single-RHS `solve_driver_full` (fingerprint identity by construction),
/// and runs the shared-space block Arnoldi loop otherwise.
fn block_solve_driver<S: ColumnStorage, P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    bs: &[Vec<f64>],
    x0s: Option<&[Vec<f64>]>,
    opts: &GmresOptions,
    precond: &P,
    make_store: impl Fn(usize, usize) -> S,
    mut on_event: impl FnMut(usize, &CycleEvent),
) -> BlockSolveResult {
    let n = a.rows();
    assert_eq!(a.cols(), n, "GMRES needs a square matrix");
    let width = bs.len();
    assert!(width >= 1, "block solve needs at least one right-hand side");
    for b in bs {
        assert_eq!(b.len(), n, "rhs length mismatch");
    }
    if let Some(x0s) = x0s {
        assert_eq!(x0s.len(), width, "one initial guess per rhs");
        for x0 in x0s {
            assert_eq!(x0.len(), n, "x0 length mismatch");
        }
    }
    assert!(opts.restart >= 1);
    // One shared store of `width × (restart + 1)` columns: exactly
    // `width ×` the single-solve basis, which keeps the service layer's
    // admission estimate exact. At width 1 it is the single solve's.
    let basis = Basis::from_store(make_store(n, (opts.restart + 1) * width));

    if width == 1 {
        let zero;
        let x0 = match x0s {
            Some(x0s) => &x0s[0],
            None => {
                zero = vec![0.0; n];
                &zero
            }
        };
        let mut observe = |event: &CycleEvent| on_event(0, event);
        let hooks = SolveHooks {
            observe: Some(&mut observe),
            ..SolveHooks::default()
        };
        let r = solve_driver_full(a, &bs[0], x0, opts, precond, basis, &mut Scalar, hooks);
        let operator_sweeps = r.stats.spmv_count;
        return BlockSolveResult {
            solutions: vec![r.x],
            stats: vec![r.stats],
            histories: vec![r.history],
            operator_sweeps,
        };
    }

    block_arnoldi_driver(a, bs, x0s, opts, precond, basis, &mut on_event)
}

/// The width > 1 shared-space loop. Restart boundaries mirror
/// `solve_driver_full` per RHS (explicit residual, deflation, telemetry);
/// inside a cycle the block Arnoldi recursion replaces the per-RHS
/// inner loop.
fn block_arnoldi_driver<S: ColumnStorage, P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    bs: &[Vec<f64>],
    x0s: Option<&[Vec<f64>]>,
    opts: &GmresOptions,
    precond: &P,
    mut basis: Basis<S>,
    on_event: &mut impl FnMut(usize, &CycleEvent),
) -> BlockSolveResult {
    let n = a.rows();
    let width = bs.len();
    let m = opts.restart;
    let start = Instant::now();
    let mut operator_sweeps: u64 = 0;
    let format = basis.format_name();

    let mut lanes: Vec<Lane> = (0..width)
        .map(|k| {
            let mut lane = Lane {
                x: match x0s {
                    Some(x0s) => x0s[k].clone(),
                    None => vec![0.0; n],
                },
                r: vec![0.0; n],
                stats: SolveStats::default(),
                history: Vec::new(),
                bnorm: norm2(&bs[k]),
                active: true,
            };
            lane.stats.format = format.clone();
            // b_k = 0: the solution is x_k = 0 exactly (single-driver
            // early return, per RHS).
            if lane.bnorm == 0.0 {
                lane.x.fill(0.0);
                lane.stats.converged = true;
                lane.stats.final_rrn = 0.0;
                lane.retire(start);
            }
            lane
        })
        .collect();

    // Work buffers, sized for the full width once and sliced down as
    // the block deflates. The panel's W doubles as the SpMM output of
    // every operator sweep and the combine target. `ld` is the leading
    // dimension of the rotated Hessenberg / carrier columns: the shared
    // basis can hold at most `(m + 1) · width` columns.
    let ld = (m + 1) * width;
    let cmax = m * width;
    let mut panel = Panel::new(n, cmax, width);
    let mut xbuf = vec![0.0; n * width]; // SpMM input block
    let mut tmp = vec![0.0; n];
    let mut tmp2 = vec![0.0; n];
    let mut rmat = vec![0.0; ld * cmax]; // rotated H̄, column c at c·ld
    let mut gmat = vec![0.0; ld * width]; // per-RHS carriers g_k
    let mut rots: Vec<(u32, f64, f64)> = Vec::new();
    let mut hcol = vec![0.0; ld];
    let mut ys = vec![0.0; cmax * width]; // per-RHS y columns, [jc·wa + s]

    loop {
        // Restart boundary: batched explicit residual r_k = b_k − A x_k
        // over the RHS still solving — the ONLY residual allowed to
        // decide convergence.
        let boundary: Vec<usize> = (0..width).filter(|&k| lanes[k].active).collect();
        if boundary.is_empty() {
            break;
        }
        let wb = boundary.len();
        {
            let srcs: Vec<&[f64]> = boundary.iter().map(|&k| &lanes[k].x[..]).collect();
            pack_interleaved(&mut xbuf[..n * wb], &srcs, n);
        }
        a.spmm_into(&xbuf[..n * wb], &mut panel.w[..n * wb], wb);
        operator_sweeps += 1;
        for (slot, &k) in boundary.iter().enumerate() {
            let lane = &mut lanes[k];
            lane.stats.spmv_count += 1;
            for (i, (r, &b)) in lane.r.iter_mut().zip(&bs[k]).enumerate() {
                *r = b - panel.w[i * wb + slot];
            }
            let rrn = norm2(&lane.r) / lane.bnorm;
            // Shared boundary bookkeeping (identical to `solve_driver_full`):
            // a lane that runs no further cycle retires — a converged one
            // deflates the block, a terminal one (non-finite residual /
            // budget) stops.
            if !boundary_bookkeeping(rrn, opts, &mut lane.stats, &mut lane.history) {
                lane.retire(start);
                continue;
            }
            on_event(k, &CycleEvent::of(&lane.stats));
            lane.stats.format_trajectory.push(format.clone());
        }

        // The block of this cycle: RHS that survived the boundary.
        let act: Vec<usize> = (0..width).filter(|&k| lanes[k].active).collect();
        if act.is_empty() {
            break;
        }
        let wa = act.len();

        // Seed block: orthonormalize the explicit residuals into basis
        // block 0 and seed each carrier from the mixing factor Γ
        // (g_k = Γ e_k expresses r_k in the new basis; at wa = 1 this
        // is the familiar g = β e₁).
        {
            let srcs: Vec<&[f64]> = act.iter().map(|&k| &lanes[k].r[..]).collect();
            pack_interleaved(&mut panel.w[..n * wa], &srcs, n);
        }
        if !panel.mgs2(wa) {
            // Seed breakdown: exactly dependent residuals. No progress
            // is possible; every RHS records the breakdown and retires
            // (a cycle that recorded nothing would replay verbatim).
            for &k in &act {
                lanes[k].stats.breakdowns += 1;
                lanes[k].stats.restarts += 1;
                lanes[k].retire(start);
            }
            continue;
        }
        for s in 0..wa {
            gather_col(&panel.w[..n * wa], wa, s, &mut tmp);
            basis.write(s, &tmp);
        }
        // Queried after the seed writes, like `seed_cycle`: a round-trip
        // store only knows its rate once it has compressed a column.
        let col_bytes = basis.column_bytes() as u64;
        gmat[..ld * wa].fill(0.0);
        for s in 0..wa {
            for u in 0..=s {
                gmat[s * ld + u] = panel.r[u * wa + s];
            }
            lanes[act[s]].stats.basis_bytes_written += col_bytes;
        }
        let mut c_end = 0usize; // Hessenberg columns recorded this cycle
        let mut frozen = vec![false; wa];
        let mut qk = vec![0usize; wa];
        rots.clear();

        // Block Arnoldi steps: append wa columns per expansion.
        for j in 0..m {
            // RHS at their iteration budget freeze (stop counting) but
            // their slot keeps riding the block to the cycle end.
            for s in 0..wa {
                if !frozen[s] && lanes[act[s]].stats.iterations >= opts.max_iters {
                    frozen[s] = true;
                    qk[s] = c_end;
                }
            }
            if frozen.iter().all(|&f| f) {
                break;
            }
            let q0 = (j + 1) * wa; // columns already in the basis

            // Expansion: W = A · M⁻¹ V_j, one operator sweep for the
            // whole block.
            for s in 0..wa {
                basis.read_column(q0 - wa + s, &mut tmp);
                precond.apply(&tmp, &mut tmp2);
                scatter_col(&mut xbuf[..n * wa], wa, s, &tmp2);
            }
            a.spmm_into(&xbuf[..n * wa], &mut panel.w[..n * wa], wa);
            operator_sweeps += 1;

            // Stage 1: ONE decode sweep pair of all q0 shared columns
            // serves every new vector (plus the panel-wide DGKS pair).
            // Each RHS is charged its share: its own j + 1 columns.
            let pairs = panel.project(&basis, q0, wa, REORTH_ETA);
            for s in 0..wa {
                if !frozen[s] {
                    let st = &mut lanes[act[s]].stats;
                    st.spmv_count += 1;
                    st.basis_bytes_read += col_bytes;
                    charge(st, pairs, j as u64 + 1, col_bytes);
                }
            }

            // Breakdown / poison guard: a non-finite projection or a
            // rank-deficient new block ends the cycle at the columns
            // recorded so far (the boundary's explicit residual still
            // decides every RHS).
            let poisoned = panel.pnorms[..wa].iter().any(|v| !v.is_finite())
                || panel.omegas[..wa].iter().any(|v| !v.is_finite())
                || panel.h[..q0 * wa].iter().any(|v| !v.is_finite());
            if poisoned || !panel.mgs2(wa) {
                for s in 0..wa {
                    if !frozen[s] {
                        lanes[act[s]].stats.breakdowns += 1;
                        frozen[s] = true;
                        qk[s] = c_end;
                    }
                }
                break;
            }

            // Store the wa new columns (one compression write each).
            for s in 0..wa {
                gather_col(&panel.w[..n * wa], wa, s, &mut tmp);
                basis.write(q0 + s, &tmp);
                if !frozen[s] {
                    lanes[act[s]].stats.basis_bytes_written += col_bytes;
                }
            }

            // Band QR: each new Hessenberg column gets the stored
            // rotations, then exactly wa new eliminations of its
            // subdiagonal band, applied to every carrier too.
            for t in 0..wa {
                let c = c_end + t;
                panel.raw_column(q0, wa, t, &mut hcol);
                for &(rr, co, si) in rots.iter() {
                    let r = rr as usize;
                    let (a0, a1) = (hcol[r - 1], hcol[r]);
                    hcol[r - 1] = co * a0 + si * a1;
                    hcol[r] = -si * a0 + co * a1;
                }
                for r in ((c + 1)..=(q0 + t)).rev() {
                    let (co, si) = givens(hcol[r - 1], hcol[r]);
                    let (a0, a1) = (hcol[r - 1], hcol[r]);
                    hcol[r - 1] = co * a0 + si * a1;
                    hcol[r] = 0.0;
                    rots.push((r as u32, co, si));
                    // Frozen carriers are safe: these rotations only
                    // touch rows >= c >= their recorded q_k.
                    for s in 0..wa {
                        let g = &mut gmat[s * ld..(s + 1) * ld];
                        let (g0, g1) = (g[r - 1], g[r]);
                        g[r - 1] = co * g0 + si * g1;
                        g[r] = -si * g0 + co * g1;
                    }
                }
                rmat[c * ld..c * ld + c + 1].copy_from_slice(&hcol[..c + 1]);
            }
            c_end += wa;

            // Per-RHS implicit residual from the carrier tail; a target
            // hit freezes the RHS at its q_k (the next boundary's
            // explicit residual decides convergence).
            for s in 0..wa {
                if frozen[s] {
                    continue;
                }
                let lane = &mut lanes[act[s]];
                lane.stats.iterations += 1;
                let g = &gmat[s * ld..(s + 1) * ld];
                let tail: f64 = g[c_end..c_end + wa]
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>()
                    .sqrt();
                let implicit_rrn = tail / lane.bnorm;
                if opts.record_history {
                    lane.history.push(HistoryPoint {
                        iteration: lane.stats.iterations,
                        rrn: implicit_rrn,
                        explicit: false,
                    });
                }
                if implicit_rrn <= opts.target_rrn || !implicit_rrn.is_finite() {
                    frozen[s] = true;
                    qk[s] = c_end;
                }
            }
            if frozen.iter().all(|&f| f) {
                break;
            }
        }
        for s in 0..wa {
            if !frozen[s] {
                qk[s] = c_end;
            }
        }

        // Cycle end: per-RHS back-substitution on its own leading
        // q_k × q_k triangle, then ONE batched decode sweep updates
        // every solution (zero-padded columns reproduce the shorter
        // per-RHS combine bit for bit, thanks to the zero-skip).
        let kmax = qk.iter().copied().max().unwrap_or(0);
        ys[..kmax.max(1) * wa].fill(0.0);
        for s in 0..wa {
            let q = qk[s];
            let lane = &mut lanes[act[s]];
            lane.stats.restarts += 1;
            if q == 0 {
                // A cycle that recorded nothing would replay verbatim.
                lane.retire(start);
                continue;
            }
            let g = &gmat[s * ld..(s + 1) * ld];
            for i in (0..q).rev() {
                let mut acc = g[i];
                for kk in i + 1..q {
                    acc -= rmat[kk * ld + i] * ys[kk * wa + s];
                }
                let d = rmat[i * ld + i];
                ys[i * wa + s] = if d != 0.0 { acc / d } else { 0.0 };
            }
            lane.stats.basis_bytes_read += q as u64 * col_bytes;
            lane.stats.basis_gemv_sweeps += 1;
        }
        if kmax > 0 {
            basis.combine_many(kmax, &ys[..kmax * wa], &mut panel.w[..n * wa], wa);
            for s in 0..wa {
                if qk[s] == 0 {
                    continue;
                }
                gather_col(&panel.w[..n * wa], wa, s, &mut tmp);
                precond.apply(&tmp, &mut tmp2);
                axpy(1.0, &tmp2, &mut lanes[act[s]].x);
            }
        }
    }

    // Read from the live store at the end, like the single-RHS loop:
    // round-trip stores only know their achieved rate after columns
    // have actually been written.
    let bits_per_value = if n > 0 {
        basis.column_bytes() as f64 * 8.0 / n as f64
    } else {
        0.0
    };
    let mut solutions = Vec::with_capacity(width);
    let mut stats = Vec::with_capacity(width);
    let mut histories = Vec::with_capacity(width);
    for mut lane in lanes {
        lane.stats.basis_bits_per_value = bits_per_value;
        solutions.push(lane.x);
        stats.push(lane.stats);
        histories.push(lane.history);
    }
    BlockSolveResult {
        solutions,
        stats,
        histories,
        operator_sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres_with;
    use crate::precond::Identity;
    use frsz2::{Frsz2Config, Frsz2Store};
    use numfmt::DenseStore;
    use spla::dense::{manufactured_rhs, sub};
    use spla::{gen, Csr};

    /// Deterministic family of comparable-difficulty right-hand sides:
    /// RHS 0 is the manufactured one, the rest are smooth waves with
    /// per-RHS frequency AND phase, so any prefix of the family is
    /// full-rank (a phase-only family spans just two dimensions —
    /// sin(ωi + φ) is a combination of sin ωi and cos ωi — which a
    /// shared-basis block solver must not be tested on).
    fn rhs_family(a: &Csr, count: usize) -> Vec<Vec<f64>> {
        let (_, b0) = manufactured_rhs(a);
        let n = a.rows();
        (0..count)
            .map(|k| {
                if k == 0 {
                    b0.clone()
                } else {
                    (0..n)
                        .map(|i| {
                            ((i as f64) * (0.21 + 0.045 * k as f64) + (k as f64) * 0.73).sin() + 0.1
                        })
                        .collect()
                }
            })
            .collect()
    }

    fn opts(target: f64) -> GmresOptions {
        GmresOptions {
            target_rrn: target,
            max_iters: 4000,
            ..GmresOptions::default()
        }
    }

    #[test]
    fn width_one_is_bit_identical_to_gmres_with() {
        let a = gen::conv_diff_3d(8, 8, 8, [0.4, 0.2, 0.1], 0.2);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let o = opts(1e-9);
        let cfg = Frsz2Config::new(32, 21);
        let single = gmres_with(&a, &b, &x0, &o, &Identity, |rows, cols| {
            Frsz2Store::with_config(cfg, rows, cols)
        });
        let block = block_gmres_with(&a, &[b], None, &o, &Identity, |rows, cols| {
            Frsz2Store::with_config(cfg, rows, cols)
        });
        assert!(single.stats.converged && block.stats[0].converged);
        assert_eq!(block.stats[0].iterations, single.stats.iterations);
        assert_eq!(block.histories[0].len(), single.history.len());
        for (p, q) in block.histories[0].iter().zip(&single.history) {
            assert_eq!(p.rrn.to_bits(), q.rrn.to_bits(), "history bits");
        }
        for (u, v) in block.solutions[0].iter().zip(&single.x) {
            assert_eq!(u.to_bits(), v.to_bits(), "solution bits");
        }
        assert_eq!(block.operator_sweeps, single.stats.spmv_count);
    }

    #[test]
    fn width_one_events_are_the_observed_solve_events_on_lane_zero() {
        let a = gen::conv_diff_3d(8, 8, 8, [0.4, 0.2, 0.1], 0.2);
        let (_, b) = manufactured_rhs(&a);
        let o = GmresOptions {
            restart: 10,
            ..opts(1e-9)
        };
        let fmt = crate::basis_format::by_name("frsz2_21").unwrap();
        let mut lane_events = Vec::new();
        let bs = std::slice::from_ref(&b);
        block_gmres_dyn_observed(&a, bs, None, &o, &Identity, fmt.as_ref(), |k, e| {
            lane_events.push((k, e.clone()))
        });
        let mut solve_events = Vec::new();
        let mut observe = |e: &CycleEvent| solve_events.push((0, e.clone()));
        let hooks = SolveHooks {
            observe: Some(&mut observe),
            ..SolveHooks::default()
        };
        let plan = crate::SolvePlan::Fixed(fmt.as_ref(), &o);
        let r = crate::solve(&a, &b, &vec![0.0; a.rows()], &Identity, plan, hooks).unwrap();
        assert!(r.stats.converged);
        assert!(solve_events.len() > 1, "restart 10 must run several cycles");
        assert_eq!(lane_events, solve_events);
    }

    #[test]
    fn shared_space_deflates_converged_rhs_and_solves_the_rest() {
        // RHS 0 starts at the exact solution, so it deflates at its
        // first boundary with zero iterations while the others keep
        // cycling — the block provably runs with a shrunk width, and
        // the shared space still converges every surviving RHS. (A
        // per-RHS bit-identity against sequential solves is NOT
        // expected: block Arnoldi legitimately differs.)
        let a = gen::conv_diff_3d(7, 7, 7, [0.3, 0.2, 0.1], 0.2);
        let bs = rhs_family(&a, 4);
        let o = GmresOptions {
            restart: 20,
            target_rrn: 1e-8,
            max_iters: 3000,
            ..GmresOptions::default()
        };
        let (xsol, _) = manufactured_rhs(&a);
        let mut x0s = vec![vec![0.0; a.rows()]; 4];
        x0s[0] = xsol;
        let block = block_gmres_with(
            &a,
            &bs,
            Some(&x0s),
            &o,
            &Identity,
            DenseStore::<f64>::with_shape,
        );
        assert_eq!(block.stats[0].iterations, 0, "rhs 0 deflates immediately");
        assert!(
            block.stats.iter().any(|s| s.restarts > 0),
            "remaining rhs must keep cycling after the deflation"
        );
        assert!(block.all_converged());
        // Convergence claims are explicit-residual claims: recompute.
        for (k, x) in block.solutions.iter().enumerate() {
            let mut ax = vec![0.0; a.rows()];
            a.spmv(x, &mut ax);
            let mut res = vec![0.0; a.rows()];
            sub(&bs[k], &ax, &mut res);
            let rrn = norm2(&res) / norm2(&bs[k]);
            assert!(rrn <= o.target_rrn * (1.0 + 1e-12), "rhs {k}: {rrn:.2e}");
        }
    }

    #[test]
    fn wide_block_reaches_explicit_target_on_every_rhs_at_any_thread_count() {
        // The acceptance shape: every RHS of a b=16 solve reaches its
        // explicit-residual target, at 1/2/8 threads, with bit-identical
        // results across the pools.
        let a = gen::conv_diff_3d(8, 8, 8, [0.4, 0.2, 0.1], 0.2);
        let bs = rhs_family(&a, 16);
        let o = opts(1e-9);
        let cfg = Frsz2Config::new(32, 21);
        let mut reference: Option<BlockSolveResult> = None;
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let r = pool.install(|| {
                block_gmres_with(&a, &bs, None, &o, &Identity, |rows, cols| {
                    Frsz2Store::with_config(cfg, rows, cols)
                })
            });
            assert_eq!(r.solutions.len(), 16);
            for (k, s) in r.stats.iter().enumerate() {
                assert!(
                    s.converged,
                    "rhs {k} failed at {threads} threads (rrn {:.2e})",
                    s.final_rrn
                );
                assert!(s.final_rrn <= o.target_rrn);
            }
            // Explicit residual of the returned solutions, recomputed
            // here: the solver's claim must hold outside its own
            // bookkeeping.
            for (k, x) in r.solutions.iter().enumerate() {
                let mut ax = vec![0.0; a.rows()];
                a.spmv(x, &mut ax);
                let mut res = vec![0.0; a.rows()];
                sub(&bs[k], &ax, &mut res);
                let rrn = norm2(&res) / norm2(&bs[k]);
                assert!(rrn <= o.target_rrn * (1.0 + 1e-12), "rhs {k}: {rrn:.2e}");
            }
            match &reference {
                None => reference = Some(r),
                Some(base) => {
                    for k in 0..16 {
                        assert_eq!(
                            r.stats[k].iterations, base.stats[k].iterations,
                            "rhs {k} at {threads} threads"
                        );
                        for (u, v) in r.solutions[k].iter().zip(&base.solutions[k]) {
                            assert_eq!(u.to_bits(), v.to_bits(), "rhs {k} at {threads} threads");
                        }
                        for (p, q) in r.histories[k].iter().zip(&base.histories[k]) {
                            assert_eq!(
                                p.rrn.to_bits(),
                                q.rrn.to_bits(),
                                "rhs {k} at {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_solve_amortizes_operator_sweeps() {
        let a = gen::conv_diff_3d(8, 8, 8, [0.4, 0.2, 0.1], 0.2);
        let bs = rhs_family(&a, 8);
        let o = opts(1e-9);
        let block = block_gmres_with(&a, &bs, None, &o, &Identity, DenseStore::<f64>::with_shape);
        let independent: u64 = bs
            .iter()
            .map(|b| {
                crate::gmres::<DenseStore<f64>, _, _>(&a, b, &vec![0.0; a.rows()], &o, &Identity)
                    .stats
                    .spmv_count
            })
            .sum();
        assert!(block.all_converged());
        assert!(
            block.operator_sweeps < independent,
            "block {} sweeps vs {} independent spmvs",
            block.operator_sweeps,
            independent
        );
    }

    #[test]
    fn histories_stay_empty_when_recording_is_off_at_width_gt_1() {
        // Satellite regression: the `record_history: false` guards hold
        // per RHS at b > 1, and the per-RHS summaries are all-None.
        let a = gen::conv_diff_3d(6, 6, 6, [0.2, 0.1, 0.0], 0.2);
        let bs = rhs_family(&a, 4);
        let o = GmresOptions {
            record_history: false,
            target_rrn: 1e-8,
            max_iters: 2000,
            ..GmresOptions::default()
        };
        let r = block_gmres_with(&a, &bs, None, &o, &Identity, DenseStore::<f64>::with_shape);
        assert!(r.all_converged());
        assert!(r.histories.iter().all(|h| h.is_empty()));
        for s in r.histories.iter().map(|h| crate::history_summary(h)) {
            assert_eq!(s.points, 0);
            assert!(s.last.is_none());
            assert!(s.last_explicit.is_none());
        }
        // Convergence is still decided (explicitly) without history.
        assert!(r.stats.iter().all(|s| s.final_rrn <= 1e-8));
    }

    #[test]
    fn per_rhs_telemetry_has_single_solve_boundary_semantics() {
        let a = gen::conv_diff_3d(7, 7, 7, [0.3, 0.1, 0.0], 0.05);
        let bs = rhs_family(&a, 3);
        let o = GmresOptions {
            restart: 10,
            target_rrn: 1e-10,
            max_iters: 2000,
            ..GmresOptions::default()
        };
        let fmt = crate::basis_format::by_name("float64").unwrap();
        let mut events: Vec<(usize, CycleEvent)> = Vec::new();
        let r = block_gmres_dyn_observed(&a, &bs, None, &o, &Identity, fmt.as_ref(), |k, e| {
            events.push((k, e.clone()))
        });
        assert!(r.all_converged());
        for k in 0..3 {
            let lane_events: Vec<&CycleEvent> = events
                .iter()
                .filter(|(j, _)| *j == k)
                .map(|(_, e)| e)
                .collect();
            // One event per executed cycle (converged boundary silent).
            assert_eq!(lane_events.len(), r.stats[k].restarts, "rhs {k}");
            for (c, e) in lane_events.iter().enumerate() {
                assert_eq!(e.cycle, c, "rhs {k}");
                assert_eq!(e.format, "float64");
                assert!(e.explicit_rrn > o.target_rrn);
            }
            assert_eq!(lane_events[0].iterations, 0);
        }
        assert!(
            r.stats.iter().any(|s| s.restarts > 1),
            "the small restart must force at least one rhs through multiple cycles"
        );
    }

    #[test]
    fn zero_rhs_lane_returns_zero_solution_and_others_solve() {
        let a = gen::conv_diff_3d(6, 6, 6, [0.2, 0.1, 0.0], 0.2);
        let (_, b) = manufactured_rhs(&a);
        let bs = vec![vec![0.0; a.rows()], b];
        let o = opts(1e-9);
        let r = block_gmres_with(&a, &bs, None, &o, &Identity, DenseStore::<f64>::with_shape);
        assert!(r.stats[0].converged);
        assert_eq!(r.stats[0].iterations, 0);
        assert!(r.solutions[0].iter().all(|&v| v == 0.0));
        assert!(r.stats[1].converged);
        assert!(r.stats[1].iterations > 0);
    }
}
