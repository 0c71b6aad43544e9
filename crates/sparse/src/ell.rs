//! ELLPACK (padded, column-major) sparse storage.
//!
//! Every row is padded to the matrix-wide maximum row length `width`;
//! slot `k` of row `i` lives at `k * rows + i`, so on a GPU the lanes
//! of a warp processing 32 consecutive rows read 32 *consecutive*
//! values per step — fully coalesced as long as rows are uniform.
//! Padding makes ELL great for stencil matrices (every row the same
//! length) and terrible for matrices with a few long rows; the runtime
//! choice lives in [`crate::select`].

use crate::matrix::{par_over_row_blocks, par_over_rows, SparseMatrix};
use crate::Csr;

/// Sparse matrix in ELL format (`u32` column indices, column-major).
#[derive(Clone, Debug)]
pub struct Ell {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Padded row length (maximum over all rows).
    width: usize,
    /// Stored entries per row (`<= width`); padding slots are never read.
    row_len: Vec<u32>,
    /// `width * rows`, column-major: slot `k` of row `i` at `k*rows + i`.
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Ell {
    /// Convert from CSR, preserving each row's entry order.
    pub fn from_csr(a: &Csr) -> Ell {
        let rows = a.rows();
        let row_len: Vec<u32> = a.row_lengths().collect();
        let width = row_len.iter().copied().max().unwrap_or(0) as usize;
        let mut col_idx = vec![0u32; width * rows];
        let mut values = vec![0.0f64; width * rows];
        for i in 0..rows {
            let (cols, vals) = a.row(i);
            for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                col_idx[k * rows + i] = c;
                values[k * rows + i] = v;
            }
        }
        Ell {
            rows,
            cols: a.cols(),
            nnz: a.nnz(),
            width,
            row_len,
            col_idx,
            values,
        }
    }

    /// Padded row length.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stored slots (incl. padding) over actual non-zeros; 1.0 means no
    /// padding at all. Returns 1.0 for empty matrices.
    pub fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        (self.width * self.rows) as f64 / self.nnz as f64
    }
}

impl SparseMatrix for Ell {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn format_name(&self) -> &'static str {
        "ell"
    }

    fn storage_bytes(&self) -> usize {
        // Padded values + padded indices + per-row lengths.
        self.values.len() * 8 + self.col_idx.len() * 4 + self.row_len.len() * 4
    }

    fn for_each_in_row(&self, i: usize, f: &mut dyn FnMut(u32, f64)) {
        for k in 0..self.row_len[i] as usize {
            let s = k * self.rows + i;
            f(self.col_idx[s], self.values[s]);
        }
    }

    /// `y := A x`: through the shared row-parallel driver, each row
    /// accumulating serially in CSR entry order, so the result is
    /// bit-identical to `Csr::spmv`.
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "x length mismatch");
        assert_eq!(y.len(), self.rows, "y length mismatch");
        let rows = self.rows;
        let row_len = &self.row_len;
        let col_idx = &self.col_idx;
        let values = &self.values;
        par_over_rows(y, |i| {
            let mut acc = 0.0;
            for k in 0..row_len[i] as usize {
                let s = k * rows + i;
                acc += values[s] * x[col_idx[s] as usize];
            }
            acc
        });
    }

    /// `Y := A X` fused over `width` interleaved right-hand sides: one
    /// read of each padded slot drives all `width` accumulators, with
    /// the same `(row, rhs)` serial entry-order accumulation and chunk
    /// geometry as `spmv` → bit-identical to `width` separate
    /// [`Ell::spmv`] calls on any format at any thread count.
    fn spmm_into(&self, x: &[f64], y: &mut [f64], width: usize) {
        assert!(width >= 1, "spmm width must be positive");
        assert_eq!(x.len(), self.cols * width, "x length mismatch");
        assert_eq!(y.len(), self.rows * width, "y length mismatch");
        let rows = self.rows;
        let row_len = &self.row_len;
        let col_idx = &self.col_idx;
        let values = &self.values;
        par_over_row_blocks(y, width, |i, out| {
            out.fill(0.0);
            for k in 0..row_len[i] as usize {
                let s = k * rows + i;
                let v = values[s];
                let xs = &x[col_idx[s] as usize * width..][..width];
                for (acc, xv) in out.iter_mut().zip(xs) {
                    *acc += v * xv;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    #[test]
    fn from_csr_roundtrip_small() {
        let mut m = Coo::new(3, 3);
        for &(r, c, v) in &[
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ] {
            m.push(r, c, v);
        }
        let a = m.to_csr();
        let e = Ell::from_csr(&a);
        assert_eq!(e.width(), 2);
        assert_eq!(e.nnz(), 5);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        e.spmv(&x, &mut y);
        assert_eq!(y, vec![4.0, 6.0, 19.0]);
    }

    #[test]
    fn empty_and_zero_row_matrices() {
        let a = Coo::new(3, 3).to_csr();
        let e = Ell::from_csr(&a);
        assert_eq!(e.width(), 0);
        assert_eq!(e.padding_ratio(), 1.0);
        let mut y = vec![1.0; 3];
        e.spmv(&[0.0; 3], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }

    // The 1/2/8-thread CSR bit-identity contract is covered for every
    // format (incl. ELL) by `formats_spmv_bit_identical_across_thread_counts`
    // in `tests/proptests.rs`.

    #[test]
    fn padding_ratio_reflects_irregularity() {
        // One dense row in an otherwise diagonal matrix.
        let n = 16;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 1.0);
        }
        for c in 0..n {
            if c != 0 {
                m.push(0, c, 0.5);
            }
        }
        let e = Ell::from_csr(&m.to_csr());
        assert_eq!(e.width(), n);
        assert!(e.padding_ratio() > 4.0, "heavy padding expected");
    }
}
