//! The Krylov basis: a [`ColumnStorage`] plus the streaming operations
//! CB-GMRES performs against it.
//!
//! Orthogonalization is the memory-bound heart of GMRES (§II): every
//! iteration streams all previously stored basis vectors at least twice
//! (once for the dot products `h = Vᵀw`, once for the update
//! `w ← w − Vh`). The basis therefore exposes those two bulk kernels,
//! plus the update fused with the re-projection `Vᵀw` a DGKS pass
//! needs ([`Basis::axpys_dots_with`]), all implemented as
//! rayon-parallel loops over block-aligned row chunks. Within a chunk
//! the storage format's fused multi-column kernels
//! ([`ColumnStorage::dots_chunk`] / [`ColumnStorage::gemv_chunk`] /
//! [`ColumnStorage::gemv_dots_chunk`]) sweep all `k` columns per pass —
//! `w` is read (dots) or read-and-written (axpys) once instead of `k`
//! times, and compressed formats decode straight off their packed
//! words. Reductions sum per-chunk partials in chunk order into a
//! caller-reusable flat buffer, so results are bit-deterministic for
//! any thread count and the hot path allocates nothing after warmup.

use numfmt::ColumnStorage;
use rayon::prelude::*;

/// Target rows per parallel work item (rounded up to the storage
/// format's block alignment).
pub(crate) const TARGET_CHUNK: usize = 8192;

/// A Krylov basis of up to `cols` vectors of length `rows`, held in an
/// arbitrary storage format. All arithmetic is f64; only storage is
/// compressed.
pub struct Basis<S: ColumnStorage> {
    store: S,
    chunk: usize,
}

impl<S: ColumnStorage> Basis<S> {
    /// A basis of `cols` columns of `rows` values in `S`'s default
    /// configuration.
    pub fn new(rows: usize, cols: usize) -> Self {
        Basis::from_store(S::with_shape(rows, cols))
    }

    /// Wrap an already-configured store (e.g. `Frsz2Store::with_config`
    /// for non-default block size / bit length).
    pub fn from_store(store: S) -> Self {
        let align = store.chunk_align().max(1);
        let chunk = TARGET_CHUNK.div_ceil(align) * align;
        Basis { store, chunk }
    }

    /// Values per column.
    pub fn rows(&self) -> usize {
        self.store.rows()
    }

    /// Column capacity (`restart + 1` for GMRES).
    pub fn cols(&self) -> usize {
        self.store.cols()
    }

    /// The underlying column storage.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Store vector `v` as basis column `j` (the compression write of
    /// GMRES steps 1/13).
    pub fn write(&mut self, j: usize, v: &[f64]) {
        self.store.write_column(j, v);
    }

    /// Decompress column `j` into `out`.
    pub fn read_column(&self, j: usize, out: &mut [f64]) {
        self.store.read_column(j, out);
    }

    /// Rows per parallel work item for this basis (the block-aligned
    /// chunking `dots`/`axpys` reduce over). Exposed so callers can
    /// size [`Basis::dots_with`] scratch buffers and so reference
    /// implementations can mirror the reduction order exactly.
    pub fn chunk_rows(&self) -> usize {
        self.chunk
    }

    /// `out[i] = V[:, i]ᵀ w` for `i in 0..k` — the orthogonalization dot
    /// products of step 5. Convenience wrapper over
    /// [`Basis::dots_with`] that allocates its own scratch; hot callers
    /// (the GMRES workspace) thread a reusable buffer instead.
    pub fn dots(&self, k: usize, w: &[f64], out: &mut [f64]) {
        let mut scratch = Vec::new();
        self.dots_with(k, w, out, &mut scratch);
    }

    /// [`Basis::dots`] with caller-provided scratch for the per-chunk
    /// partials (`n_chunks · k` values, grown on demand and never
    /// shrunk) — zero heap allocation once the buffer has reached its
    /// high-water mark.
    ///
    /// All `k` products are computed in **one** parallel pass over the
    /// row chunks through the storage format's fused multi-column
    /// kernel ([`ColumnStorage::dots_chunk`]): each worker holds its
    /// chunk of `w` hot in cache while sweeping the stored columns, and
    /// the pool is entered once per orthogonalization instead of once
    /// per column. Per-column partial sums are still reduced serially
    /// in chunk order, so the result is bit-identical for any thread
    /// count (and to the per-column formulation this replaces).
    pub fn dots_with(&self, k: usize, w: &[f64], out: &mut [f64], scratch: &mut Vec<f64>) {
        assert!(k <= self.cols());
        assert_eq!(w.len(), self.rows());
        assert!(out.len() >= k);
        if k == 0 {
            return;
        }
        let n = self.rows();
        let chunk = self.chunk;
        let n_chunks = n.div_ceil(chunk);
        if scratch.len() < n_chunks * k {
            scratch.resize(n_chunks * k, 0.0);
        }
        let store = &self.store;
        let partials = &mut scratch[..n_chunks * k];
        partials
            .par_chunks_mut(k)
            .enumerate()
            .for_each(|(c, slot)| {
                let start = c * chunk;
                let len = chunk.min(n - start);
                store.dots_chunk(k, start, &w[start..start + len], slot);
            });
        for (j, out_j) in out.iter_mut().enumerate().take(k) {
            *out_j = (0..n_chunks).map(|c| partials[c * k + j]).sum();
        }
    }

    /// `w ← w + Σ_i alpha[i] · V[:, i]` for `i in 0..k` — the projection
    /// update of step 5 (callers pass `alpha = -h`). One parallel pass;
    /// within each chunk the format's fused [`ColumnStorage::gemv_chunk`]
    /// loads and stores `w` once for all `k` columns.
    pub fn axpys(&self, k: usize, alpha: &[f64], w: &mut [f64]) {
        assert!(k <= self.cols());
        assert!(alpha.len() >= k);
        assert_eq!(w.len(), self.rows());
        if k == 0 {
            return;
        }
        let chunk = self.chunk;
        let store = &self.store;
        w.par_chunks_mut(chunk).enumerate().for_each(|(c, wc)| {
            store.gemv_chunk(k, c * chunk, &alpha[..k], wc);
        });
    }

    /// [`Basis::axpys`] followed by [`Basis::dots_with`] on the updated
    /// `w`, in one parallel pass: `w ← w + Σ_i alpha[i] · V[:, i]`, then
    /// `out[i] = V[:, i]ᵀ w` for `i in 0..k` — step 5's update and the
    /// re-projection a DGKS pass (steps 7–8) needs. Within each chunk
    /// the format's fused [`ColumnStorage::gemv_dots_chunk`] decodes
    /// the stored columns once for both halves. The chunks and the
    /// chunk-order reduction are those of the two separate calls, so
    /// `w` and `out` get their bits at any thread count.
    pub fn axpys_dots_with(
        &self,
        k: usize,
        alpha: &[f64],
        w: &mut [f64],
        out: &mut [f64],
        scratch: &mut Vec<f64>,
    ) {
        assert!(k <= self.cols());
        assert!(alpha.len() >= k);
        assert_eq!(w.len(), self.rows());
        assert!(out.len() >= k);
        if k == 0 {
            return;
        }
        let chunk = self.chunk;
        let n_chunks = self.rows().div_ceil(chunk);
        if scratch.len() < n_chunks * k {
            scratch.resize(n_chunks * k, 0.0);
        }
        let store = &self.store;
        let partials = &mut scratch[..n_chunks * k];
        w.par_chunks_mut(chunk)
            .zip(partials.par_chunks_mut(k))
            .enumerate()
            .for_each(|(c, (wc, slot))| {
                store.gemv_dots_chunk(k, c * chunk, &alpha[..k], wc, slot);
            });
        for (j, out_j) in out.iter_mut().enumerate().take(k) {
            *out_j = (0..n_chunks).map(|c| partials[c * k + j]).sum();
        }
    }

    /// `out = Σ_i y[i] · V[:, i]` — the solution update `V_m y_m` of
    /// step 17.
    pub fn combine(&self, y: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        self.axpys(y.len(), y, out);
    }

    /// Block-Arnoldi projection `out[j·nw + t] = V[:, j]ᵀ w_t` for `j
    /// in 0..k`, `t in 0..nw`, with the `nw` vectors interleaved
    /// row-major in `ws` (vector `t` at stride `nw`). One parallel
    /// decode sweep of the stored columns serves **all** `nw` vectors
    /// through the format's fused [`ColumnStorage::dots_many_chunk`];
    /// per-chunk partials reduce serially in chunk order, so every
    /// `out[j·nw + t]` is bit-identical to [`Basis::dots_with`] on the
    /// deinterleaved vector `t`, at any thread count.
    pub fn dots_many_with(
        &self,
        k: usize,
        ws: &[f64],
        nw: usize,
        out: &mut [f64],
        scratch: &mut Vec<f64>,
    ) {
        assert!(k <= self.cols());
        assert!(nw >= 1);
        assert_eq!(ws.len(), self.rows() * nw);
        assert!(out.len() >= k * nw);
        if k == 0 {
            return;
        }
        let n = self.rows();
        let chunk = self.chunk;
        let n_chunks = n.div_ceil(chunk);
        if scratch.len() < n_chunks * k * nw {
            scratch.resize(n_chunks * k * nw, 0.0);
        }
        let store = &self.store;
        let partials = &mut scratch[..n_chunks * k * nw];
        partials
            .par_chunks_mut(k * nw)
            .enumerate()
            .for_each(|(c, slot)| {
                let start = c * chunk;
                let len = chunk.min(n - start);
                store.dots_many_chunk(k, start, &ws[start * nw..(start + len) * nw], nw, slot);
            });
        for jt in 0..k * nw {
            out[jt] = (0..n_chunks).map(|c| partials[c * k * nw + jt]).sum();
        }
    }

    /// Block projection update `w_t ← w_t + Σ_j alphas[j·nw + t] ·
    /// V[:, j]` over `nw` interleaved vectors (callers pass `alphas =
    /// −H`). One parallel decode sweep through the format's fused
    /// [`ColumnStorage::gemv_many_chunk`]; each vector's result is
    /// bit-identical to [`Basis::axpys`] with its coefficient column,
    /// at any thread count.
    pub fn axpys_many(&self, k: usize, alphas: &[f64], ws: &mut [f64], nw: usize) {
        assert!(k <= self.cols());
        assert!(nw >= 1);
        assert!(alphas.len() >= k * nw);
        assert_eq!(ws.len(), self.rows() * nw);
        if k == 0 {
            return;
        }
        let chunk = self.chunk;
        let store = &self.store;
        ws.par_chunks_mut(chunk * nw)
            .enumerate()
            .for_each(|(c, wc)| {
                store.gemv_many_chunk(k, c * chunk, &alphas[..k * nw], nw, wc);
            });
    }

    /// Batched solution update `w_t = Σ_j ys[j·nw + t] · V[:, j]` —
    /// `nw` per-RHS [`Basis::combine`] calls in one decode sweep.
    /// Zero coefficients are skipped by the underlying kernels, so a
    /// vector whose coefficient column is zero-padded (a right-hand
    /// side that used fewer Krylov directions) gets exactly the bits
    /// of a shorter per-vector combine.
    pub fn combine_many(&self, k: usize, ys: &[f64], outs: &mut [f64], nw: usize) {
        outs.iter_mut().for_each(|v| *v = 0.0);
        self.axpys_many(k, ys, outs, nw);
    }

    /// Bytes streamed from storage when reading one full column.
    pub fn column_bytes(&self) -> usize {
        self.store.column_bytes()
    }

    /// Storage format label (paper nomenclature).
    pub fn format_name(&self) -> String {
        self.store.format_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frsz2::Frsz2Store;
    use numfmt::DenseStore;

    fn vec_of(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn dots_match_serial_for_f64() {
        let n = 30_000;
        let mut basis = Basis::<DenseStore<f64>>::new(n, 3);
        let v0 = vec_of(n, |i| (i as f64 * 0.1).sin());
        let v1 = vec_of(n, |i| (i as f64 * 0.2).cos());
        basis.write(0, &v0);
        basis.write(1, &v1);
        let w = vec_of(n, |i| (i as f64 * 0.05).sin() + 0.1);
        let mut h = vec![0.0; 2];
        basis.dots(2, &w, &mut h);
        let s0: f64 = v0.iter().zip(&w).map(|(a, b)| a * b).sum();
        let s1: f64 = v1.iter().zip(&w).map(|(a, b)| a * b).sum();
        assert!((h[0] - s0).abs() < 1e-9 * s0.abs().max(1.0));
        assert!((h[1] - s1).abs() < 1e-9 * s1.abs().max(1.0));
        // Determinism.
        let mut h2 = vec![0.0; 2];
        basis.dots(2, &w, &mut h2);
        assert_eq!(h[0].to_bits(), h2[0].to_bits());
        assert_eq!(h[1].to_bits(), h2[1].to_bits());
    }

    #[test]
    fn axpys_matches_serial() {
        let n = 20_000;
        let mut basis = Basis::<DenseStore<f32>>::new(n, 2);
        let v0 = vec_of(n, |i| (i as f64 * 0.3).sin());
        let v1 = vec_of(n, |i| (i as f64 * 0.7).cos());
        basis.write(0, &v0);
        basis.write(1, &v1);
        let mut w = vec_of(n, |i| i as f64 * 1e-5);
        let mut expect = w.clone();
        basis.axpys(2, &[2.0, -0.5], &mut w);
        // The kernel accumulates column by column; mirror that order so
        // the comparison is exact.
        for i in 0..n {
            expect[i] += 2.0 * (v0[i] as f32 as f64);
        }
        for i in 0..n {
            expect[i] += -0.5 * (v1[i] as f32 as f64);
        }
        assert_eq!(w, expect);
    }

    #[test]
    fn dots_and_axpys_bit_identical_across_thread_counts() {
        let n = 40_000;
        let k = 4;
        let mut basis = Basis::<Frsz2Store>::new(n, k);
        for j in 0..k {
            basis.write(j, &vec_of(n, |i| ((i + 31 * j) as f64 * 0.13).sin()));
        }
        let w = vec_of(n, |i| ((i as f64) * 0.041).cos());
        let mut h_ref = vec![0.0; k];
        basis.dots(k, &w, &mut h_ref);
        let mut u_ref = w.clone();
        basis.axpys(k, &[0.5, -1.25, 2.0, -0.125], &mut u_ref);
        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut h = vec![0.0; k];
            let mut u = w.clone();
            pool.install(|| {
                basis.dots(k, &w, &mut h);
                basis.axpys(k, &[0.5, -1.25, 2.0, -0.125], &mut u);
            });
            for j in 0..k {
                assert_eq!(
                    h[j].to_bits(),
                    h_ref[j].to_bits(),
                    "dot {j} at {threads} threads"
                );
            }
            for i in 0..n {
                assert_eq!(
                    u[i].to_bits(),
                    u_ref[i].to_bits(),
                    "row {i} at {threads} threads"
                );
            }
        }
    }

    /// Same reproducibility pin for the per-block adaptive store: the
    /// wide-spread data makes neighbouring blocks pick different bit
    /// lengths, and the chunk-dealt kernels must still be bit-identical
    /// at any thread count.
    #[test]
    fn adaptive_store_dots_and_axpys_bit_identical_across_thread_counts() {
        let n = 40_000;
        let k = 4;
        let mut basis = Basis::<frsz2::Frsz2AdaptiveStore>::new(n, k);
        for j in 0..k {
            basis.write(
                j,
                &vec_of(n, |i| {
                    let x = ((i + 31 * j) as f64 * 0.13).sin() + 1.1;
                    x * f64::powi(2.0, -(((i * 7 + j) % 25) as i32))
                }),
            );
        }
        let ls = basis.store().column_bit_lengths(0);
        assert!(ls.iter().any(|&l| l as u32 != ls[0] as u32), "lengths vary");
        let w = vec_of(n, |i| ((i as f64) * 0.041).cos());
        let mut h_ref = vec![0.0; k];
        basis.dots(k, &w, &mut h_ref);
        let mut u_ref = w.clone();
        basis.axpys(k, &[0.5, -1.25, 2.0, -0.125], &mut u_ref);
        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut h = vec![0.0; k];
            let mut u = w.clone();
            pool.install(|| {
                basis.dots(k, &w, &mut h);
                basis.axpys(k, &[0.5, -1.25, 2.0, -0.125], &mut u);
            });
            for j in 0..k {
                assert_eq!(
                    h[j].to_bits(),
                    h_ref[j].to_bits(),
                    "dot {j} at {threads} threads"
                );
            }
            for i in 0..n {
                assert_eq!(
                    u[i].to_bits(),
                    u_ref[i].to_bits(),
                    "row {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn combine_is_weighted_sum() {
        let n = 100;
        let mut basis = Basis::<DenseStore<f64>>::new(n, 3);
        for j in 0..3 {
            basis.write(j, &vec_of(n, |i| (i + j) as f64));
        }
        let mut out = vec![7.0; n]; // must be overwritten, not accumulated
        basis.combine(&[1.0, -1.0, 0.5], &mut out);
        for (i, o) in out.iter().enumerate() {
            let expect = i as f64 - (i + 1) as f64 + 0.5 * (i + 2) as f64;
            assert_eq!(*o, expect);
        }
    }

    #[test]
    fn frsz2_basis_respects_block_error_bound() {
        let n = 10_000;
        let mut basis = Basis::<Frsz2Store>::new(n, 1);
        let v = vec_of(n, |i| (i as f64 * 0.17).sin() * 0.9);
        basis.write(0, &v);
        let mut back = vec![0.0; n];
        basis.read_column(0, &mut back);
        for i in 0..n {
            // frsz2_32: error below 2^-30 of the block max (<= 1).
            assert!((back[i] - v[i]).abs() < f64::powi(2.0, -30), "row {i}");
        }
        assert_eq!(basis.format_name(), "frsz2_32");
        // Eq. 3: 313 blocks of (32 code words + 1 exponent word).
        let blocks = 10_000usize.div_ceil(32);
        assert_eq!(basis.column_bytes(), blocks * 33 * 4);
    }
}
