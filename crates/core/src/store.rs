//! [`ColumnStorage`] implementation: a Krylov basis held in FRSZ2.
//!
//! Columns are compressed on write (the only write pattern CB-GMRES
//! needs — §IV-A explains why single-element updates are impossible:
//! a changed `emax` would force renormalizing the whole block). Every
//! read — chunked, random, and the fused dot/axpy/gemv kernels — is one
//! call into the crate's shared FRSZ2 chunk drivers, which see this
//! store through its fixed-stride per-block view; the adaptive store
//! runs the same drivers over its own per-block metadata.

use crate::codec::{self, Frsz2Config};
use crate::kernels::{self, Fixed};
use crate::reference::ZERO_BLOCK_EXPONENT;
use numfmt::ColumnStorage;

/// Column-major matrix of FRSZ2-compressed columns.
///
/// Code words and block exponents live in two separate flat arrays
/// (design choice (5) of §IV-C), each with a fixed per-column stride.
#[derive(Clone, Debug)]
pub struct Frsz2Store {
    cfg: Frsz2Config,
    rows: usize,
    cols: usize,
    col_words: usize,
    col_blocks: usize,
    words: Vec<u32>,
    exps: Vec<u32>,
}

impl Frsz2Store {
    /// Allocate with an explicit FRSZ2 configuration.
    pub fn with_config(cfg: Frsz2Config, rows: usize, cols: usize) -> Self {
        let col_words = cfg.words_for_len(rows);
        let col_blocks = cfg.blocks_for(rows);
        Frsz2Store {
            cfg,
            rows,
            cols,
            col_words,
            col_blocks,
            words: vec![0u32; col_words * cols],
            exps: vec![ZERO_BLOCK_EXPONENT; col_blocks * cols],
        }
    }

    /// The format parameters every column is stored with.
    pub fn config(&self) -> Frsz2Config {
        self.cfg
    }

    /// Raw code words of column `j` (diagnostics/tests).
    pub fn column_words(&self, j: usize) -> &[u32] {
        &self.words[j * self.col_words..(j + 1) * self.col_words]
    }

    /// Per-block exponents of column `j` (diagnostics/tests).
    pub fn column_exponents(&self, j: usize) -> &[u32] {
        &self.exps[j * self.col_blocks..(j + 1) * self.col_blocks]
    }

    /// The per-block view the shared kernels read through.
    pub(crate) fn blocks(&self) -> Fixed<'_> {
        Fixed {
            cfg: self.cfg,
            words: &self.words,
            exps: &self.exps,
            col_words: self.col_words,
            col_blocks: self.col_blocks,
        }
    }
}

impl ColumnStorage for Frsz2Store {
    /// Default shape constructor uses `frsz2_32` (BS = 32, l = 32), the
    /// configuration the paper's evaluation recommends.
    fn with_shape(rows: usize, cols: usize) -> Self {
        Frsz2Store::with_config(Frsz2Config::default(), rows, cols)
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn write_column(&mut self, j: usize, data: &[f64]) {
        assert_eq!(data.len(), self.rows, "column length mismatch");
        assert!(j < self.cols, "column index {j} out of range");
        let words = &mut self.words[j * self.col_words..(j + 1) * self.col_words];
        let exps = &mut self.exps[j * self.col_blocks..(j + 1) * self.col_blocks];
        codec::compress_into(self.cfg, data, words, exps);
    }

    #[inline]
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        kernels::decode_range(&self.blocks(), j, self.rows, row_start, out);
    }

    #[inline]
    fn load(&self, i: usize, j: usize) -> f64 {
        kernels::load(&self.blocks(), i, j)
    }

    fn chunk_align(&self) -> usize {
        self.cfg.block_size()
    }

    /// Fused decompress-and-dot straight off the compressed words — the
    /// in-register decompression of §IV-B. Overridden because the
    /// trait's default tiles at 512 rows, which any block size that
    /// does not divide 512 would misalign.
    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        kernels::dot_chunk(&self.blocks(), j, row_start, w)
    }

    /// Fused decompress-and-axpy; see [`Frsz2Store::dot_chunk`].
    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        kernels::axpy_chunk(&self.blocks(), j, row_start, alpha, w);
    }

    /// Multi-column fused dots: all `k` columns are swept per block, so
    /// each block of `w` is loaded once instead of `k` times.
    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        kernels::dots_chunk(&self.blocks(), k, row_start, w, out);
    }

    /// Multi-column fused update: one load/store of each `w` block for
    /// all `k` columns.
    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        kernels::gemv_chunk(&self.blocks(), k, row_start, alphas, w);
    }

    /// Fused update-then-project: each compressed block is decoded
    /// once for both the update of `w` and the dots against it.
    fn gemv_dots_chunk(
        &self,
        k: usize,
        row_start: usize,
        alphas: &[f64],
        w: &mut [f64],
        out: &mut [f64],
    ) {
        kernels::gemv_dots_chunk(&self.blocks(), k, row_start, alphas, w, out);
    }

    fn column_bytes(&self) -> usize {
        (self.col_words + self.col_blocks) * 4
    }

    fn format_name(&self) -> String {
        self.cfg.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, phase: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
    }

    #[test]
    fn write_read_columns_independently() {
        let mut st = Frsz2Store::with_shape(100, 3);
        let (a, b) = (wave(100, 0.0), wave(100, 1.5));
        st.write_column(0, &a);
        st.write_column(2, &b);
        let mut out = vec![0.0; 100];
        st.read_column(0, &mut out);
        for i in 0..100 {
            assert!((out[i] - a[i]).abs() < 1e-8);
        }
        st.read_column(2, &mut out);
        for i in 0..100 {
            assert!((out[i] - b[i]).abs() < 1e-8);
        }
        // Untouched column decodes to zeros.
        st.read_column(1, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn load_matches_chunked_read() {
        let mut st = Frsz2Store::with_config(Frsz2Config::new(32, 21), 90, 2);
        let v = wave(90, 0.3);
        st.write_column(1, &v);
        let mut out = vec![0.0; 90];
        // Chunked read in block-aligned pieces.
        st.read_chunk(1, 0, &mut out[..64]);
        st.read_chunk(1, 64, &mut out[64..]);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(st.load(i, 1).to_bits(), o.to_bits(), "row {i}");
        }
    }

    #[test]
    fn reported_rate_matches_eq3() {
        let st = Frsz2Store::with_shape(3200, 1);
        assert!(
            (st.bits_per_value() - 33.0).abs() < 1e-12,
            "frsz2_32 is 33 bits/value"
        );
        assert_eq!(st.chunk_align(), 32);
        assert_eq!(st.format_name(), "frsz2_32");
        let st16 = Frsz2Store::with_config(Frsz2Config::new(32, 16), 3200, 1);
        assert!(
            (st16.bits_per_value() - 17.0).abs() < 1e-12,
            "frsz2_16 is 17 bits/value"
        );
    }

    /// Regression: a never-written column must be indistinguishable —
    /// words *and* per-block exponents — from a column that was
    /// explicitly compressed from zeros, so `column_exponents` never
    /// lies about never-compressed columns.
    #[test]
    fn unwritten_column_matches_compressed_zeros() {
        let mut st = Frsz2Store::with_config(Frsz2Config::new(32, 21), 70, 2);
        st.write_column(0, &vec![0.0; 70]);
        assert_eq!(st.column_exponents(1), st.column_exponents(0));
        assert_eq!(st.column_words(1), st.column_words(0));
        assert!(st
            .column_exponents(1)
            .iter()
            .all(|&e| e == ZERO_BLOCK_EXPONENT));
    }

    #[test]
    fn overwriting_column_replaces_old_data() {
        let mut st = Frsz2Store::with_shape(64, 1);
        st.write_column(0, &wave(64, 0.0));
        let v2 = wave(64, 2.0);
        st.write_column(0, &v2);
        for (i, v) in v2.iter().enumerate() {
            assert!((st.load(i, 0) - v).abs() < 1e-8);
        }
    }
}
