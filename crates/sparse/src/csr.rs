//! Compressed-sparse-row matrix with parallel SpMV.
//!
//! SpMV is the `w := A v` of GMRES step 3 — memory-bound at roughly
//! 12 bytes per non-zero (8 B value + 4 B column index). Row-parallel
//! execution keeps per-row accumulation serial, so results are
//! bit-deterministic regardless of thread count.

use crate::matrix::SparseMatrix;

/// Sparse matrix in CSR format (`u32` column indices).
#[derive(Clone, Debug)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Build from row-major-sorted, duplicate-free triplets.
    pub fn from_sorted_coo(rows: usize, cols: usize, entries: &[(u32, u32, f64)]) -> Self {
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in entries {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = entries.iter().map(|&(_, c, _)| c).collect();
        let values = entries.iter().map(|&(_, _, v)| v).collect();
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Mutable values (used by scaling transformations).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// `y := A x` (parallel over row chunks, deterministic).
    ///
    /// Each row is accumulated serially by exactly one worker through
    /// the shared `crate::matrix::par_over_rows` driver (private), so
    /// the result is bit-identical to [`Csr::spmv_serial`] at any
    /// thread count.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "x length mismatch");
        assert_eq!(y.len(), self.rows, "y length mismatch");
        let row_ptr = &self.row_ptr;
        let col_idx = &self.col_idx;
        let values = &self.values;
        crate::matrix::par_over_rows(y, |i| {
            let mut acc = 0.0;
            for idx in row_ptr[i]..row_ptr[i + 1] {
                acc += values[idx] * x[col_idx[idx] as usize];
            }
            acc
        });
    }

    /// `Y := A X` for `width` interleaved right-hand sides (fused: each
    /// stored entry is read once and multiplied into all `width`
    /// outputs). Same [`crate::matrix`] chunk geometry as `spmv`, each
    /// `(row, rhs)` accumulated serially in entry order → bit-identical
    /// to `width` separate [`Csr::spmv`] calls at any thread count.
    pub fn spmm_into(&self, x: &[f64], y: &mut [f64], width: usize) {
        assert!(width >= 1, "spmm width must be positive");
        assert_eq!(x.len(), self.cols * width, "x length mismatch");
        assert_eq!(y.len(), self.rows * width, "y length mismatch");
        let row_ptr = &self.row_ptr;
        let col_idx = &self.col_idx;
        let values = &self.values;
        crate::matrix::par_over_row_blocks(y, width, |i, out| {
            out.fill(0.0);
            for idx in row_ptr[i]..row_ptr[i + 1] {
                let v = values[idx];
                let xs = &x[col_idx[idx] as usize * width..][..width];
                for (acc, xv) in out.iter_mut().zip(xs) {
                    *acc += v * xv;
                }
            }
        });
    }

    /// `y := A x` computed serially (reference for tests).
    pub fn spmv_serial(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[idx] * x[self.col_idx[idx] as usize];
            }
            *yi = acc;
        }
    }

    /// Allocating convenience wrapper around [`Csr::spmv`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.spmv(x, &mut y);
        y
    }

    /// Main-diagonal entries (zero where the diagonal is absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.rows.min(self.cols)];
        for (i, di) in d.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            if let Ok(pos) = cols.binary_search(&(i as u32)) {
                *di = vals[pos];
            }
        }
        d
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for idx in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[idx] as usize;
                let dst = cursor[c];
                cursor[c] += 1;
                col_idx[dst] = r as u32;
                values[dst] = self.values[idx];
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Relative asymmetry `‖A − Aᵀ‖_F / ‖A‖_F` (0 for symmetric).
    pub fn asymmetry(&self) -> f64 {
        let t = self.transpose();
        let mut diff = 0.0;
        let mut norm = 0.0;
        for i in 0..self.rows {
            let (ca, va) = self.row(i);
            let (cb, vb) = t.row(i);
            let mut pa = 0;
            let mut pb = 0;
            while pa < ca.len() || pb < cb.len() {
                let (c1, c2) = (
                    ca.get(pa).copied().unwrap_or(u32::MAX),
                    cb.get(pb).copied().unwrap_or(u32::MAX),
                );
                let (x, y) = if c1 == c2 {
                    pa += 1;
                    pb += 1;
                    (va[pa - 1], vb[pb - 1])
                } else if c1 < c2 {
                    pa += 1;
                    (va[pa - 1], 0.0)
                } else {
                    pb += 1;
                    (0.0, vb[pb - 1])
                };
                diff += (x - y) * (x - y);
                norm += x * x;
            }
        }
        if norm == 0.0 {
            0.0
        } else {
            (diff / norm).sqrt()
        }
    }

    /// Bytes streamed by one SpMV (values + column indices + row
    /// pointers + input/output vectors) — drives the performance model.
    pub fn spmv_bytes(&self) -> usize {
        self.nnz() * (8 + 4) + (self.rows + 1) * 8 + self.cols * 8 + self.rows * 8
    }
}

impl SparseMatrix for Csr {
    fn rows(&self) -> usize {
        Csr::rows(self)
    }

    fn cols(&self) -> usize {
        Csr::cols(self)
    }

    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }

    fn format_name(&self) -> &'static str {
        "csr"
    }

    fn storage_bytes(&self) -> usize {
        self.nnz() * (8 + 4) + (self.rows + 1) * 8
    }

    fn for_each_in_row(&self, i: usize, f: &mut dyn FnMut(u32, f64)) {
        let (cols, vals) = self.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            f(c, v);
        }
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        Csr::spmv(self, x, y)
    }

    fn spmm_into(&self, x: &[f64], y: &mut [f64], width: usize) {
        Csr::spmm_into(self, x, y, width)
    }

    fn diagonal(&self) -> Vec<f64> {
        Csr::diagonal(self)
    }

    fn spmv_bytes(&self) -> usize {
        Csr::spmv_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn small() -> Csr {
        // [2 1 0]
        // [0 3 0]
        // [4 0 5]
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
        m.to_csr()
    }

    #[test]
    fn spmv_matches_dense_arithmetic() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(a.mul_vec(&x), vec![4.0, 6.0, 19.0]);
    }

    #[test]
    fn parallel_and_serial_spmv_bitwise_equal() {
        // Big enough to span several row chunks.
        let n = 5000;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 2.5 + (i % 7) as f64);
            if i + 1 < n {
                m.push(i, i + 1, -1.0 - (i % 3) as f64 * 0.25);
                m.push(i + 1, i, -0.75);
            }
        }
        let a = m.to_csr();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        a.spmv(&x, &mut y1);
        a.spmv_serial(&x, &mut y2);
        for i in 0..n {
            assert_eq!(y1[i].to_bits(), y2[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn spmv_bit_identical_across_thread_counts() {
        let n = 20_000;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 4.0 + ((i % 11) as f64) * 0.125);
            if i + 17 < n {
                m.push(i, i + 17, -((i % 5) as f64) * 0.3 - 0.1);
                m.push(i + 17, i, 0.77);
            }
        }
        let a = m.to_csr();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.21).cos()).collect();
        let mut reference = vec![0.0; n];
        a.spmv_serial(&x, &mut reference);
        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut y = vec![0.0; n];
            pool.install(|| a.spmv(&x, &mut y));
            for i in 0..n {
                assert_eq!(
                    y[i].to_bits(),
                    reference[i].to_bits(),
                    "row {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn identity_is_noop() {
        let a = Csr::identity(10);
        let x: Vec<f64> = (0..10).map(|i| i as f64 * 1.5).collect();
        assert_eq!(a.mul_vec(&x), x);
        assert_eq!(a.nnz(), 10);
        assert_eq!(a.asymmetry(), 0.0);
    }

    #[test]
    fn diagonal_extraction() {
        let a = small();
        assert_eq!(a.diagonal(), vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.row(0), (&[0u32, 2][..], &[2.0, 4.0][..]));
        let tt = t.transpose();
        assert_eq!(tt.row_ptr(), a.row_ptr());
        assert_eq!(tt.col_indices(), a.col_indices());
        assert_eq!(tt.values(), a.values());
    }

    #[test]
    fn asymmetry_detects_nonsymmetric() {
        let a = small();
        assert!(a.asymmetry() > 0.1);
        let mut s = Coo::new(2, 2);
        s.push(0, 0, 1.0);
        s.push(0, 1, 2.0);
        s.push(1, 0, 2.0);
        s.push(1, 1, 1.0);
        assert_eq!(s.to_csr().asymmetry(), 0.0);
    }
}
