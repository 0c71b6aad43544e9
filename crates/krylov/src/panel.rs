//! The two-stage panel orthogonalization of the block and s-step
//! drivers (Yamazaki et al., two-stage block orthogonalization).
//!
//! Block Arnoldi ([`crate::block`]) appends a panel of one column per
//! right-hand side; s-step ([`crate::sstep`]) appends a panel of `s`
//! matrix-powers directions. Both orthogonalize it the same way, and
//! this module holds the one copy of each stage:
//!
//! 1. **Stage 1, [`Panel::project`]**: one block-CGS sweep pair
//!    ([`Basis::dots_many_with`] + [`Basis::axpys_many`]) projects the
//!    whole panel against every stored column, plus one panel-wide
//!    DGKS pair when a column kept less than η of its norm.
//!    [`Panel::correct`] is one forced pair (the s-step CholQR
//!    fallback).
//! 2. **Stage 2**, an intra-panel factorization `W = Q·R`:
//!    [`Panel::cholqr`] (Gram matrix, Cholesky, row TRSM) or
//!    [`Panel::mgs2`] (two MGS passes, composed factor).
//!
//! [`Panel::raw_column`] then reads off the unrotated Hessenberg column
//! `[H[:, t]; R[..=t, t]]` of panel column `t`.
//!
//! The drivers keep what differs in arithmetic: their seeds, which
//! stage 2 they try first, and their Givens updates. The stages report
//! what they did (sweep pairs run, factorization success) and each
//! caller charges its own counters through [`charge`].

use crate::basis::{Basis, TARGET_CHUNK};
use crate::gmres::SolveStats;
use numfmt::ColumnStorage;

/// Relative Gram-pivot threshold below which CholQR is abandoned for
/// the corrective-sweep + MGS² fallback: a pivot this far under the
/// largest diagonal means the panel has lost ≳10 digits of linear
/// independence and the Cholesky factor would amplify noise into the
/// recovered Hessenberg.
const CHOLQR_PIVOT_RTOL: f64 = 1e-10;

/// Row window (in buffer elements) for the interleave passes between
/// per-RHS vectors and the row-major multi-RHS buffers. A window of
/// `PACK_WINDOW / width` rows keeps the strided side of the copy
/// inside L1 while every column's pass streams through it; the copy is
/// pure data movement, so the window size cannot affect any result bit.
const PACK_WINDOW: usize = 4096;

/// `buf[i * w + slot] = srcs[slot][i]` for all `i < n`, row-windowed.
pub(crate) fn pack_interleaved(buf: &mut [f64], srcs: &[&[f64]], n: usize) {
    let w = srcs.len();
    let rows = (PACK_WINDOW / w).max(1);
    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + rows).min(n);
        for (slot, src) in srcs.iter().enumerate() {
            for i in i0..i1 {
                buf[i * w + slot] = src[i];
            }
        }
        i0 = i1;
    }
}

/// `out[i] = buf[i * w + slot]`: one column of a row-major block.
pub(crate) fn gather_col(buf: &[f64], w: usize, slot: usize, out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = buf[i * w + slot];
    }
}

/// `buf[i * w + slot] = src[i]`: write one column of a row-major block.
pub(crate) fn scatter_col(buf: &mut [f64], w: usize, slot: usize, src: &[f64]) {
    for (i, &v) in src.iter().enumerate() {
        buf[i * w + slot] = v;
    }
}

/// Column 2-norms of a row-major `n × w` block, one fused row pass.
fn col_norms(buf: &[f64], w: usize, n: usize, out: &mut [f64]) {
    out[..w].fill(0.0);
    for i in 0..n {
        let row = &buf[i * w..i * w + w];
        for (acc, &v) in out[..w].iter_mut().zip(row) {
            *acc += v * v;
        }
    }
    for v in out[..w].iter_mut() {
        *v = v.sqrt();
    }
}

/// Charge `pairs` dot + gemv sweep pairs over `cols` stored columns of
/// `col_bytes` each to `stats`; every pair past the first is a
/// reorthogonalization.
pub(crate) fn charge(stats: &mut SolveStats, pairs: u64, cols: u64, col_bytes: u64) {
    stats.basis_bytes_read += 2 * pairs * cols * col_bytes;
    stats.basis_dot_sweeps += pairs;
    stats.basis_gemv_sweeps += pairs;
    stats.reorthogonalizations += pairs as usize - 1;
}

/// The scratch of one panel driver, allocated once per solve for panels
/// of up to `wmax` columns projected against up to `kmax` stored
/// columns. Every stage works on the leading `nw` columns of the
/// panel; `nw` may shrink between calls (a deflating block, the last
/// short panel of an s-step cycle).
pub(crate) struct Panel {
    n: usize,
    /// The working panel W, row-major `n × nw` (column `t` at stride
    /// `nw`).
    pub(crate) w: Vec<f64>,
    /// Projection coefficients `H = VᵀW`, `h[i·nw + t]`; every later
    /// sweep pair adds its correction.
    pub(crate) h: Vec<f64>,
    /// Negated coefficients of the pending `axpys_many`.
    neg: Vec<f64>,
    /// Stage-2 factor R, row-major upper-triangular `nw × nw`
    /// (`r[u·nw + t]`).
    pub(crate) r: Vec<f64>,
    /// The second MGS factor R₂, or the CholQR Gram matrix.
    r2: Vec<f64>,
    /// MGS row-pass buffer.
    d: Vec<f64>,
    /// Column norms entering stage 1.
    pub(crate) omegas: Vec<f64>,
    /// Column norms leaving stage 1.
    pub(crate) pnorms: Vec<f64>,
    /// Per-chunk partials of `dots_many_with`, pre-sized so no panel
    /// ever grows it.
    partials: Vec<f64>,
}

impl Panel {
    pub(crate) fn new(n: usize, kmax: usize, wmax: usize) -> Self {
        Panel {
            n,
            w: vec![0.0; n * wmax],
            h: vec![0.0; kmax * wmax],
            neg: vec![0.0; kmax * wmax],
            r: vec![0.0; wmax * wmax],
            r2: vec![0.0; wmax * wmax],
            d: vec![0.0; wmax],
            omegas: vec![0.0; wmax],
            pnorms: vec![0.0; wmax],
            partials: vec![0.0; n.div_ceil(TARGET_CHUNK) * kmax * wmax],
        }
    }

    /// Stage 1: project the panel against the first `k` stored columns
    /// with one sweep pair (`h = VᵀW`, `W ← W − V·h`), then run one more
    /// pair over the whole panel if any column kept less than `eta` of
    /// its norm (DGKS). Returns the number of pairs run (1 or 2); the
    /// column norms before and after are left in `omegas` / `pnorms`.
    pub(crate) fn project<S: ColumnStorage>(
        &mut self,
        basis: &Basis<S>,
        k: usize,
        nw: usize,
        eta: f64,
    ) -> u64 {
        let n = self.n;
        col_norms(&self.w[..n * nw], nw, n, &mut self.omegas);
        basis.dots_many_with(
            k,
            &self.w[..n * nw],
            nw,
            &mut self.h[..k * nw],
            &mut self.partials,
        );
        for (nv, &hv) in self.neg[..k * nw].iter_mut().zip(&self.h[..k * nw]) {
            *nv = -hv;
        }
        basis.axpys_many(k, &self.neg[..k * nw], &mut self.w[..n * nw], nw);
        col_norms(&self.w[..n * nw], nw, n, &mut self.pnorms);
        if !self.pnorms[..nw]
            .iter()
            .zip(&self.omegas[..nw])
            .any(|(&p, &o)| p.is_finite() && o.is_finite() && p < eta * o)
        {
            return 1;
        }
        self.correct(basis, k, nw);
        col_norms(&self.w[..n * nw], nw, n, &mut self.pnorms);
        2
    }

    /// One forced sweep pair against the first `k` stored columns,
    /// accumulated into `h`: `c = VᵀW`, `h += c`, `W ← W − V·c`.
    pub(crate) fn correct<S: ColumnStorage>(&mut self, basis: &Basis<S>, k: usize, nw: usize) {
        let n = self.n;
        basis.dots_many_with(
            k,
            &self.w[..n * nw],
            nw,
            &mut self.neg[..k * nw],
            &mut self.partials,
        );
        for (hv, nv) in self.h[..k * nw].iter_mut().zip(&mut self.neg[..k * nw]) {
            *hv += *nv;
            *nv = -*nv;
        }
        basis.axpys_many(k, &self.neg[..k * nw], &mut self.w[..n * nw], nw);
    }

    /// Stage 2 by MGS²: orthonormalize the panel in place with two MGS
    /// passes (full reorthogonalization, cheap at panel width and robust
    /// for nearly dependent panels), composing the factors into `r =
    /// R₂R₁`. `false` on breakdown: a zero or non-finite pivot, i.e.
    /// linearly dependent columns.
    pub(crate) fn mgs2(&mut self, nw: usize) -> bool {
        let n = self.n;
        let wv = &mut self.w[..n * nw];
        if !mgs_pass(wv, nw, n, &mut self.r, &mut self.d)
            || !mgs_pass(wv, nw, n, &mut self.r2, &mut self.d)
        {
            return false;
        }
        // r ← r2 · r1, upper-triangular product, safely in place: entry
        // (s, t) only consumes r[u*nw + t] with u >= s.
        for t in 0..nw {
            for s in 0..=t {
                let mut acc = 0.0;
                for u in s..=t {
                    acc += self.r2[s * nw + u] * self.r[u * nw + t];
                }
                self.r[s * nw + t] = acc;
            }
        }
        true
    }

    /// Stage 2 by CholQR: Gram matrix `G = WᵀW`, upper Cholesky factor
    /// `G = RᵀR` into `r`, then `W ← W·R⁻¹`. `false`, with the panel
    /// untouched, when a pivot falls under `CHOLQR_PIVOT_RTOL` times the
    /// largest Gram diagonal or anything is non-finite.
    pub(crate) fn cholqr(&mut self, nw: usize) -> bool {
        let n = self.n;
        let (gram, r) = (&mut self.r2, &mut self.r);
        gram[..nw * nw].fill(0.0);
        for row in self.w[..n * nw].chunks_exact(nw) {
            for a in 0..nw {
                let va = row[a];
                for b in a..nw {
                    gram[a * nw + b] += va * row[b];
                }
            }
        }
        let mut gmax = 0.0f64;
        for a in 0..nw {
            gmax = gmax.max(gram[a * nw + a]);
        }
        if gmax == 0.0 || !gmax.is_finite() {
            return false;
        }
        r[..nw * nw].fill(0.0);
        for c in 0..nw {
            let mut d = gram[c * nw + c];
            for u in 0..c {
                d -= r[u * nw + c] * r[u * nw + c];
            }
            if d.is_nan() || d <= gmax * CHOLQR_PIVOT_RTOL {
                return false;
            }
            let dc = d.sqrt();
            r[c * nw + c] = dc;
            let inv = 1.0 / dc;
            for t in c + 1..nw {
                let mut acc = gram[c * nw + t];
                for u in 0..c {
                    acc -= r[u * nw + c] * r[u * nw + t];
                }
                r[c * nw + t] = acc * inv;
            }
        }
        // Row-wise forward substitution against the upper-triangular R.
        for row in self.w[..n * nw].chunks_exact_mut(nw) {
            for c in 0..nw {
                let mut acc = row[c];
                for u in 0..c {
                    acc -= r[u * nw + c] * row[u];
                }
                row[c] = acc / r[c * nw + c];
            }
        }
        true
    }

    /// The unrotated Hessenberg column of panel column `t` after both
    /// stages against `k` stored columns: `out[..k] = H[:, t]` and
    /// `out[k..=k + t] = R[..=t, t]`.
    pub(crate) fn raw_column(&self, k: usize, nw: usize, t: usize, out: &mut [f64]) {
        for (i, o) in out[..k].iter_mut().enumerate() {
            *o = self.h[i * nw + t];
        }
        for u in 0..=t {
            out[k + u] = self.r[u * nw + t];
        }
    }
}

/// One right-looking modified-Gram-Schmidt pass over a row-major
/// `n × w` block, in place: normalizes column `s`, then projects it
/// out of columns `s+1..w` in one fused row pass per pivot. Fills the
/// upper-triangular factor into `r` (row-major `w × w`,
/// `r[s*w + t]`). Returns `false` on breakdown (a pivot with zero or
/// non-finite norm: the block's columns are linearly dependent).
fn mgs_pass(wv: &mut [f64], w: usize, n: usize, r: &mut [f64], d: &mut [f64]) -> bool {
    r[..w * w].fill(0.0);
    for s in 0..w {
        let mut nrm = 0.0;
        for i in 0..n {
            let v = wv[i * w + s];
            nrm += v * v;
        }
        nrm = nrm.sqrt();
        if nrm == 0.0 || !nrm.is_finite() {
            return false;
        }
        r[s * w + s] = nrm;
        let inv = 1.0 / nrm;
        for i in 0..n {
            wv[i * w + s] *= inv;
        }
        if s + 1 == w {
            continue;
        }
        d[s + 1..w].fill(0.0);
        for i in 0..n {
            let vs = wv[i * w + s];
            let row = &wv[i * w..i * w + w];
            for (t, dt) in d[s + 1..w].iter_mut().enumerate() {
                *dt += vs * row[s + 1 + t];
            }
        }
        r[s * w + s + 1..(s + 1) * w].copy_from_slice(&d[s + 1..w]);
        for i in 0..n {
            let vs = wv[i * w + s];
            let row = &mut wv[i * w..i * w + w];
            for (t, &dt) in d[s + 1..w].iter().enumerate() {
                row[s + 1 + t] -= dt * vs;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use frsz2::{Frsz2Config, Frsz2Store};
    use numfmt::DenseStore;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn wave(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64) * (0.013 + 0.007 * seed as f64) + seed as f64).sin() + 0.05)
            .collect()
    }

    /// A float64 basis of `k` orthonormal columns (classical Gram-Schmidt
    /// twice over smooth waves) with room for more.
    fn orthonormal_basis(n: usize, k: usize, cols: usize) -> Basis<DenseStore<f64>> {
        let mut basis = Basis::<DenseStore<f64>>::new(n, cols);
        let mut h = vec![0.0; k];
        for j in 0..k {
            let mut v = wave(n, j);
            for _ in 0..2 {
                basis.dots(j, &v, &mut h);
                let neg: Vec<f64> = h[..j].iter().map(|x| -x).collect();
                basis.axpys(j, &neg, &mut v);
            }
            let nrm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            v.iter_mut().for_each(|x| *x /= nrm);
            basis.write(j, &v);
        }
        basis
    }

    #[test]
    fn project_runs_the_dgks_pair_exactly_when_a_column_keeps_less_than_eta() {
        // Unit-vector basis e_0..e_3: projecting a·e_0 + f·e_5 leaves
        // f·e_5 exactly, so column t keeps exactly the fraction f_t.
        let (n, k) = (16, 4);
        let mut basis = Basis::<DenseStore<f64>>::new(n, k);
        for j in 0..k {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            basis.write(j, &e);
        }
        let mut panel = Panel::new(n, k, 2);
        for (f0, f1, want) in [
            (0.9, 1.0, 1),
            (0.72, 0.8, 1),
            (0.69, 0.9, 2),
            (1.0, 0.01, 2),
            (0.3, 0.2, 2),
        ] {
            panel.w.fill(0.0);
            for (t, f) in [f0, f1].into_iter().enumerate() {
                panel.w[t] = f64::sqrt(1.0 - f * f); // row 0: along e_0
                panel.w[5 * 2 + t] = f; // row 5: outside span(V)
            }
            let pairs = panel.project(&basis, k, 2, FRAC_1_SQRT_2);
            assert_eq!(pairs, want, "kept fractions ({f0}, {f1})");
        }
    }

    #[test]
    fn project_leaves_the_panel_orthogonal_to_a_float64_basis() {
        let (n, k, nw) = (3000, 6, 3);
        let basis = orthonormal_basis(n, k, k);
        let mut panel = Panel::new(n, k, nw);
        let cols: Vec<Vec<f64>> = (0..nw).map(|t| wave(n, 10 + t)).collect();
        let refs: Vec<&[f64]> = cols.iter().map(|c| &c[..]).collect();
        pack_interleaved(&mut panel.w, &refs, n);
        panel.project(&basis, k, nw, FRAC_1_SQRT_2);
        let scale = panel.omegas[..nw].iter().fold(0.0f64, |m, &o| m.max(o));
        let mut col = vec![0.0; n];
        let mut vtw = vec![0.0; k];
        for t in 0..nw {
            gather_col(&panel.w, nw, t, &mut col);
            basis.dots(k, &col, &mut vtw);
            let worst = vtw.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert!(
                worst <= 64.0 * f64::EPSILON * scale,
                "column {t}: |VᵀW|∞ = {worst:.2e} (scale {scale:.2e})"
            );
        }
    }

    #[test]
    fn single_column_project_is_dots_with_plus_axpys_bit_for_bit() {
        // The shared stage relies on the multi-vector kernels matching
        // the single-vector ones at nw = 1, with and without DGKS.
        let (n, k) = (20_011, 5);
        let cfg = Frsz2Config::new(32, 21);
        let mut basis = Basis::from_store(Frsz2Store::with_config(cfg, n, k));
        for j in 0..k {
            basis.write(j, &wave(n, j));
        }
        let w0 = wave(n, 9);
        let mut scratch = Vec::new();
        for (eta, want_pairs) in [(0.0, 1), (f64::INFINITY, 2)] {
            let mut panel = Panel::new(n, k, 1);
            panel.w.copy_from_slice(&w0);
            assert_eq!(panel.project(&basis, k, 1, eta), want_pairs);

            let mut w = w0.clone();
            let mut h = vec![0.0; k];
            let mut c = vec![0.0; k];
            basis.dots_with(k, &w, &mut h, &mut scratch);
            basis.axpys(k, &h.iter().map(|v| -v).collect::<Vec<_>>(), &mut w);
            if want_pairs == 2 {
                basis.dots_with(k, &w, &mut c, &mut scratch);
                h.iter_mut().zip(&c).for_each(|(hv, cv)| *hv += cv);
                basis.axpys(k, &c.iter().map(|v| -v).collect::<Vec<_>>(), &mut w);
            }
            for (i, (p, q)) in panel.h[..k].iter().zip(&h).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "h[{i}] at eta {eta}");
            }
            for (i, (p, q)) in panel.w.iter().zip(&w).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "w[{i}] at eta {eta}");
            }
        }
    }
}
