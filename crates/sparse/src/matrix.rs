//! The sparse-matrix interface.
//!
//! Every operator is stored as [`crate::Csr`], the one sparse format:
//! CB-GMRES saves its bandwidth in the compressed Krylov basis, not in
//! the SpMV of step 3. [`SparseMatrix`] is the seam the solver stack
//! (solver, preconditioners, benchmark) is generic over, so a `&dyn`
//! operator or an instrumented wrapper around a `Csr` runs the same
//! code.
//!
//! # The bit-identity contract
//!
//! Every implementation MUST accumulate each output row **serially, in
//! the row's CSR entry order** (ascending column within a row), with one
//! worker owning each row. Consequence: `spmv` results are bit-identical
//! across implementations (`Csr`'s own kernels, the trait defaults, a
//! wrapper) and thread counts, so residual histories of a solve do not
//! depend on how the operator is dispatched — enforced by property
//! tests in `crates/sparse/tests/proptests.rs` and by the pinned SpMV
//! and solve rows of `crates/bench/tests/pinned.rs`.

/// Rows per parallel work item, shared by `Csr` and the trait defaults:
/// large enough to amortize scheduling (≥ ~7k FLOPs per item on the
/// suite's stencils), small enough to balance irregular row lengths.
/// Task boundaries derive from this constant and the row count only —
/// never the thread count — so the pool's chunk-dealing stays
/// deterministic.
pub(crate) const ROW_CHUNK: usize = 1024;

/// The row-parallel driver `Csr::spmv` runs through:
/// `y[i] = kernel(i)` over fixed [`ROW_CHUNK`] chunks, with a serial
/// fast path when a single work item cannot be split. The chunk
/// geometry IS the determinism contract.
pub(crate) fn par_over_rows(y: &mut [f64], kernel: impl Fn(usize) -> f64 + Sync) {
    use rayon::prelude::*;
    if y.len() <= ROW_CHUNK {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = kernel(i);
        }
        return;
    }
    y.par_chunks_mut(ROW_CHUNK)
        .enumerate()
        .for_each(|(chunk, out)| {
            let base = chunk * ROW_CHUNK;
            for (k, yi) in out.iter_mut().enumerate() {
                *yi = kernel(base + k);
            }
        });
}

/// Multi-vector sibling of [`par_over_rows`]: `y` is row-major
/// interleaved (`width` values per row), and `kernel(i, out)` fills the
/// `width`-slot output row `i`. Work items cover the SAME
/// [`ROW_CHUNK`]-row spans as the vector driver — the boundaries derive
/// from `ROW_CHUNK` and the row count only, never the thread count or
/// the block width — so per-row accumulation stays serial and `spmm`
/// results are bit-identical across implementations and thread counts.
pub(crate) fn par_over_row_blocks(
    y: &mut [f64],
    width: usize,
    kernel: impl Fn(usize, &mut [f64]) + Sync,
) {
    use rayon::prelude::*;
    if y.len() <= ROW_CHUNK * width {
        for (i, out) in y.chunks_exact_mut(width).enumerate() {
            kernel(i, out);
        }
        return;
    }
    y.par_chunks_mut(ROW_CHUNK * width)
        .enumerate()
        .for_each(|(chunk, block)| {
            let base = chunk * ROW_CHUNK;
            for (k, out) in block.chunks_exact_mut(width).enumerate() {
                kernel(base + k, out);
            }
        });
}

/// A sparse matrix usable as the operator of the solver stack.
///
/// Object-safe: `&dyn SparseMatrix` works wherever `&impl SparseMatrix`
/// does (boxed operators and instrumented wrappers rely on it).
pub trait SparseMatrix: Send + Sync {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Stored non-zeros.
    fn nnz(&self) -> usize;

    /// Short format label for reports (`"csr"` for [`crate::Csr`]).
    fn format_name(&self) -> &'static str;

    /// Bytes held by the matrix's arrays.
    fn storage_bytes(&self) -> usize;

    /// Visit the stored entries of row `i` as `(col, value)` in the
    /// row's accumulation order (ascending column).
    fn for_each_in_row(&self, i: usize, f: &mut dyn FnMut(u32, f64));

    /// `y := A x` — parallel, deterministic, bit-identical to the
    /// serial row-order sum at any thread count (see module docs).
    fn spmv(&self, x: &[f64], y: &mut [f64]);

    /// `Y := A X` for `width` right-hand sides at once — the block
    /// solver's expansion kernel. `x` and `y` are **row-major
    /// interleaved**: RHS `j`'s value at row `i` sits at `i*width + j`,
    /// so one sweep of the matrix touches all `width` outputs and the
    /// matrix traffic is amortized over the block (the point of block
    /// CB-GMRES).
    ///
    /// The bit-identity contract extends the SpMV one: each
    /// `(row, rhs)` pair accumulates serially in the row's CSR entry
    /// order, and tile boundaries are the same `ROW_CHUNK` row spans
    /// `spmv` uses. Consequence: `spmm_into` at any width, in any
    /// implementation, at any thread count, reproduces `width`
    /// independent `spmv` calls bit for bit — enforced by the property
    /// tests in `crates/sparse/tests/proptests.rs`.
    ///
    /// The default tiles over [`SparseMatrix::for_each_in_row`];
    /// [`crate::Csr`] overrides it with a fused kernel that reads each
    /// stored entry once.
    ///
    /// # Panics
    /// If `width == 0`, `x.len() != cols*width`, or
    /// `y.len() != rows*width`.
    fn spmm_into(&self, x: &[f64], y: &mut [f64], width: usize) {
        assert!(width >= 1, "spmm width must be positive");
        assert_eq!(x.len(), self.cols() * width, "x length mismatch");
        assert_eq!(y.len(), self.rows() * width, "y length mismatch");
        par_over_row_blocks(y, width, |i, out| {
            out.fill(0.0);
            self.for_each_in_row(i, &mut |c, v| {
                let xs = &x[c as usize * width..(c as usize + 1) * width];
                for (acc, xv) in out.iter_mut().zip(xs) {
                    *acc += v * xv;
                }
            });
        });
    }

    /// `ys[(p-1)·rows..][..rows] := Aᵖ x` for `p in 1..=s` — the
    /// matrix-powers expansion of s-step GMRES: one call produces the
    /// whole monomial panel `[Ax, A²x, …, Aˢx]`.
    ///
    /// The contract defines the result as `s` chained
    /// [`SparseMatrix::spmv`] calls, each power applied to the finished
    /// previous one (a global dependency, so powers are not tiled
    /// across each other), and that is exactly what this method does:
    /// bit-identical across implementations and thread counts because
    /// `spmv` is. Enforced by the property tests in
    /// `crates/sparse/tests/proptests.rs`.
    ///
    /// # Panics
    /// If `s == 0`, the matrix is not square, `x.len() != cols`, or
    /// `ys.len() != rows*s`.
    fn spmv_powers_into(&self, x: &[f64], ys: &mut [f64], s: usize) {
        assert!(s >= 1, "spmv_powers s must be positive");
        assert_eq!(
            self.rows(),
            self.cols(),
            "matrix powers need a square operator"
        );
        assert_eq!(x.len(), self.cols(), "x length mismatch");
        assert_eq!(ys.len(), self.rows() * s, "ys length mismatch");
        let n = self.rows();
        for p in 0..s {
            let (done, rest) = ys.split_at_mut(p * n);
            let src: &[f64] = if p == 0 { x } else { &done[(p - 1) * n..] };
            self.spmv(src, &mut rest[..n]);
        }
    }

    /// Main-diagonal entries (zero where the diagonal is absent).
    fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.rows().min(self.cols())];
        for (i, di) in d.iter_mut().enumerate() {
            self.for_each_in_row(i, &mut |c, v| {
                if c as usize == i {
                    *di = v;
                }
            });
        }
        d
    }

    /// Bytes streamed by one SpMV (matrix arrays + input/output
    /// vectors) — drives the performance model.
    fn spmv_bytes(&self) -> usize {
        self.storage_bytes() + self.cols() * 8 + self.rows() * 8
    }
}

#[cfg(test)]
mod tests {
    use crate::{Coo, SparseMatrix};

    fn example() -> crate::Csr {
        let mut m = Coo::new(4, 4);
        m.push(0, 0, 2.0);
        m.push(0, 2, -1.0);
        m.push(1, 1, 3.0);
        m.push(2, 0, 4.0);
        m.push(2, 2, 5.0);
        m.push(2, 3, 0.5);
        m.push(3, 3, -2.0);
        m.to_csr()
    }

    #[test]
    fn trait_object_matches_inherent_csr() {
        let a = example();
        let m: Box<dyn SparseMatrix> = Box::new(a.clone());
        let x = vec![1.0, -2.0, 0.5, 4.0];
        let reference = a.mul_vec(&x);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.format_name(), "csr");
        assert_eq!(m.diagonal(), vec![2.0, 3.0, 5.0, -2.0]);
        let mut y = vec![0.0; 4];
        m.spmv(&x, &mut y);
        for i in 0..4 {
            assert_eq!(y[i].to_bits(), reference[i].to_bits(), "row {i}");
        }
        assert!(m.storage_bytes() > 0);
        assert!(m.spmv_bytes() > m.storage_bytes());
    }
}
