//! SELL-C-σ (sliced ELL) sparse storage — the format family GPUs
//! actually run SpMV from (Ginkgo's SELL-P, Kreutzer et al.'s
//! SELL-C-σ).
//!
//! Rows are grouped into *slices* of `C` consecutive (permuted) rows;
//! each slice is padded only to its own maximum row length and stored
//! column-major within the slice, so entry `k` of slice-lane `r` sits
//! at `slice_ptr[s] + k*C + r`. A warp of `C` lanes therefore reads `C`
//! consecutive values per step — the coalescing of ELL — while padding
//! is paid per slice, not per matrix. Before slicing, rows are sorted
//! by descending length inside windows of `σ` rows: larger `σ` groups
//! similar-length rows into the same slice (less padding) at the cost
//! of a more scattered output permutation. `σ = 1` disables sorting,
//! `σ = rows` sorts globally.
//!
//! The permutation is pure *storage* bookkeeping: `spmv` writes `y` in
//! original row order and accumulates every row serially in CSR entry
//! order, so results stay bit-identical to [`crate::Csr::spmv`] at any
//! thread count.

use crate::matrix::{par_over_row_blocks, par_over_rows, SparseMatrix};
use crate::Csr;

/// Sparse matrix in SELL-C-σ format.
#[derive(Clone, Debug)]
pub struct SellCSigma {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Slice height `C`.
    c: usize,
    /// Sorting-window size `σ`.
    sigma: usize,
    /// Entry offset of each slice (`len = slices + 1`); slice `s` holds
    /// `slice_width[s] * c` entry slots.
    slice_ptr: Vec<usize>,
    /// Padded width (max row length) of each slice.
    slice_width: Vec<u32>,
    /// Stored entries of each *original* row.
    row_len: Vec<u32>,
    /// Storage position of each original row: `pos[i] = slice*C + lane`.
    row_pos: Vec<u32>,
    /// Original row stored at each position (`u32::MAX` for padding
    /// lanes of the trailing slice).
    perm: Vec<u32>,
    /// Column indices, slice-local column-major.
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SellCSigma {
    /// Convert from CSR with slice height `c` and sorting window
    /// `sigma`, preserving each row's entry order.
    ///
    /// # Panics
    /// If `c == 0` or `sigma == 0`, or if the matrix has more than
    /// `u32::MAX - 1` padded row slots.
    pub fn from_csr(a: &Csr, c: usize, sigma: usize) -> SellCSigma {
        assert!(c >= 1, "slice height C must be positive");
        assert!(sigma >= 1, "sorting window σ must be positive");
        let rows = a.rows();
        let row_len: Vec<u32> = a.row_lengths().collect();

        // σ-sort: descending row length inside each window, ties broken
        // by ascending row id — fully deterministic.
        let mut order: Vec<u32> = (0..rows as u32).collect();
        for window in order.chunks_mut(sigma) {
            window.sort_by_key(|&i| (std::cmp::Reverse(row_len[i as usize]), i));
        }

        let slices = rows.div_ceil(c);
        let padded = slices * c;
        assert!(padded < u32::MAX as usize, "matrix too large for SELL");
        let mut perm = vec![u32::MAX; padded];
        perm[..rows].copy_from_slice(&order);

        let mut row_pos = vec![0u32; rows];
        for (p, &i) in order.iter().enumerate() {
            row_pos[i as usize] = p as u32;
        }

        let mut slice_ptr = Vec::with_capacity(slices + 1);
        let mut slice_width = Vec::with_capacity(slices);
        let mut off = 0usize;
        slice_ptr.push(0);
        for s in 0..slices {
            let width = perm[s * c..(s + 1) * c]
                .iter()
                .filter(|&&i| i != u32::MAX)
                .map(|&i| row_len[i as usize])
                .max()
                .unwrap_or(0) as usize;
            slice_width.push(width as u32);
            off += width * c;
            slice_ptr.push(off);
        }

        let mut col_idx = vec![0u32; off];
        let mut values = vec![0.0f64; off];
        for s in 0..slices {
            let base = slice_ptr[s];
            for r in 0..c {
                let i = perm[s * c + r];
                if i == u32::MAX {
                    continue;
                }
                let (cols, vals) = a.row(i as usize);
                for (k, (&cc, &v)) in cols.iter().zip(vals).enumerate() {
                    col_idx[base + k * c + r] = cc;
                    values[base + k * c + r] = v;
                }
            }
        }

        SellCSigma {
            rows,
            cols: a.cols(),
            nnz: a.nnz(),
            c,
            sigma,
            slice_ptr,
            slice_width,
            row_len,
            row_pos,
            perm,
            col_idx,
            values,
        }
    }

    /// Slice height `C`.
    pub fn slice_height(&self) -> usize {
        self.c
    }

    /// Sorting window `σ`.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of slices.
    pub fn slice_count(&self) -> usize {
        self.slice_width.len()
    }

    /// Entry offsets of the slices (`len = slices + 1`).
    pub fn slice_ptr(&self) -> &[usize] {
        &self.slice_ptr
    }

    /// Padded width of each slice.
    pub fn slice_widths(&self) -> &[u32] {
        &self.slice_width
    }

    /// Original row stored at each position (`u32::MAX` = padding lane).
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }

    /// Stored entries of each original row.
    pub fn row_lengths(&self) -> &[u32] {
        &self.row_len
    }

    /// Slice-local column-major column indices.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// Slice-local column-major values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Stored slots (incl. per-slice padding) over actual non-zeros;
    /// 1.0 means zero padding. Returns 1.0 for empty matrices.
    pub fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        self.values.len() as f64 / self.nnz as f64
    }
}

impl SparseMatrix for SellCSigma {
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
        "sell-c-sigma"
    }

    fn storage_bytes(&self) -> usize {
        self.values.len() * 8
            + self.col_idx.len() * 4
            + self.slice_ptr.len() * 8
            + self.slice_width.len() * 4
            + self.row_len.len() * 4
            + self.row_pos.len() * 4
            + self.perm.len() * 4
    }

    fn for_each_in_row(&self, i: usize, f: &mut dyn FnMut(u32, f64)) {
        let pos = self.row_pos[i] as usize;
        let base = self.slice_ptr[pos / self.c] + pos % self.c;
        for k in 0..self.row_len[i] as usize {
            let s = base + k * self.c;
            f(self.col_idx[s], self.values[s]);
        }
    }

    /// `y := A x`: through the shared row-parallel driver in original
    /// row order; each row accumulates serially in CSR entry order →
    /// bit-identical to `Csr::spmv`.
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "x length mismatch");
        assert_eq!(y.len(), self.rows, "y length mismatch");
        let c = self.c;
        let slice_ptr = &self.slice_ptr;
        let row_len = &self.row_len;
        let row_pos = &self.row_pos;
        let col_idx = &self.col_idx;
        let values = &self.values;
        par_over_rows(y, |i| {
            let pos = row_pos[i] as usize;
            let base = slice_ptr[pos / c] + pos % c;
            let mut acc = 0.0;
            for k in 0..row_len[i] as usize {
                let s = base + k * c;
                acc += values[s] * x[col_idx[s] as usize];
            }
            acc
        });
    }

    /// `Y := A X` fused over `width` interleaved right-hand sides. The
    /// σ-permutation stays pure storage bookkeeping: output rows are
    /// written in original order, each `(row, rhs)` accumulating
    /// serially in CSR entry order over the same chunk geometry as
    /// `spmv` → bit-identical to `width` separate [`Csr::spmv`] calls
    /// at any thread count.
    fn spmm_into(&self, x: &[f64], y: &mut [f64], width: usize) {
        assert!(width >= 1, "spmm width must be positive");
        assert_eq!(x.len(), self.cols * width, "x length mismatch");
        assert_eq!(y.len(), self.rows * width, "y length mismatch");
        let c = self.c;
        let slice_ptr = &self.slice_ptr;
        let row_len = &self.row_len;
        let row_pos = &self.row_pos;
        let col_idx = &self.col_idx;
        let values = &self.values;
        par_over_row_blocks(y, width, |i, out| {
            let pos = row_pos[i] as usize;
            let base = slice_ptr[pos / c] + pos % c;
            out.fill(0.0);
            for k in 0..row_len[i] as usize {
                let s = base + k * c;
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

    fn irregular(n: usize) -> Csr {
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 3.0 + (i % 5) as f64 * 0.5);
            // Row length varies with i: 1..=4 extra entries.
            for k in 0..(i % 4) {
                let c = (i + 3 * k + 1) % n;
                if c != i {
                    m.push(i, c, -0.25 - (k as f64) * 0.125);
                }
            }
        }
        m.to_csr()
    }

    #[test]
    fn matches_csr_on_irregular_matrix() {
        let a = irregular(97);
        for (c, sigma) in [(1, 1), (4, 1), (4, 16), (32, 97), (8, 1000)] {
            let s = SellCSigma::from_csr(&a, c, sigma);
            assert_eq!(s.nnz(), a.nnz());
            let x: Vec<f64> = (0..97).map(|i| ((i as f64) * 0.7).cos()).collect();
            let mut y = vec![0.0; 97];
            s.spmv(&x, &mut y);
            let expect = a.mul_vec(&x);
            for i in 0..97 {
                assert_eq!(
                    y[i].to_bits(),
                    expect[i].to_bits(),
                    "C={c} σ={sigma} row {i}"
                );
            }
        }
    }

    #[test]
    fn sigma_sorting_reduces_padding() {
        let a = irregular(256);
        let unsorted = SellCSigma::from_csr(&a, 32, 1);
        let sorted = SellCSigma::from_csr(&a, 32, 256);
        assert!(
            sorted.padding_ratio() <= unsorted.padding_ratio(),
            "σ-sorting must not increase padding: {} vs {}",
            sorted.padding_ratio(),
            unsorted.padding_ratio()
        );
        assert!(sorted.padding_ratio() < 1.3, "sorted slices nearly dense");
    }

    #[test]
    fn permutation_is_a_bijection_on_rows() {
        let a = irregular(70);
        let s = SellCSigma::from_csr(&a, 32, 70);
        let mut seen = [false; 70];
        for &p in s.permutation() {
            if p != u32::MAX {
                assert!(!seen[p as usize], "row {p} stored twice");
                seen[p as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every row stored exactly once");
        // row_pos is the inverse of perm.
        for i in 0..70 {
            assert_eq!(s.permutation()[s.row_pos[i] as usize], i as u32);
        }
    }

    #[test]
    fn trailing_partial_slice_and_empty_matrix() {
        let a = irregular(37); // 37 rows, C=8 -> 5 slices, last has 5 rows
        let s = SellCSigma::from_csr(&a, 8, 16);
        assert_eq!(s.slice_count(), 5);
        let x = vec![1.0; 37];
        let mut y = vec![0.0; 37];
        s.spmv(&x, &mut y);
        assert_eq!(y, a.mul_vec(&x));

        let empty = SellCSigma::from_csr(&Coo::new(0, 0).to_csr(), 32, 256);
        assert_eq!(empty.slice_count(), 0);
        assert_eq!(empty.padding_ratio(), 1.0);
    }

    // The 1/2/8-thread CSR bit-identity contract is covered for every
    // format (incl. SELL) by `formats_spmv_bit_identical_across_thread_counts`
    // in `tests/proptests.rs`.
}
