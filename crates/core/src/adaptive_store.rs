//! Per-block adaptive-`l` FRSZ2 column storage.
//!
//! §VII of the paper names the fixed whole-basis bit length as FRSZ2's
//! main open problem: one `l` for every block means wide-exponent-range
//! data (the PR02R regime) flushes to zero under `frsz2_16` even though
//! most 32-value blocks are locally smooth and would compress fine.
//! [`Frsz2AdaptiveStore`] closes that gap by choosing `l` per block
//! from the block's own exponent *spread*: a block whose nonzero values
//! span `s` binades keeps every value to at least
//! [`DEFAULT_GUARD_BITS`] significand bits by picking the smallest
//! palette length with `l − 2 ≥ s + DEFAULT_GUARD_BITS`.
//!
//! Storage layout follows the uniform [`crate::store::Frsz2Store`]
//! (separate code-word and block-exponent arrays, design choice (5) of
//! §IV-C) with two additions: a per-block bit-length byte and a
//! per-block word offset, because blocks are packed back-to-back at
//! their own width (block `b` occupies exactly `words_per_block(l_b)`
//! words). Kernels touch only the used words of each block, so memory
//! traffic — and the reported [`ColumnStorage::bits_per_value`] — track
//! the actual per-column rate, not the worst-case capacity.
//!
//! The store answers the crate's per-block view (`block(j, b)` reads
//! the block's `(l, offset, emax)` metadata), and every read accessor
//! is one call into the shared chunk drivers that also serve the
//! uniform store. The per-block kernels under them dispatch on each
//! block's own `l ≤ 64` and keep the accessor contracts: single
//! accumulator in row order for dots, ascending-`j` column application
//! with zero-alpha skip for gemv — bit-identical to decode-then-BLAS.

use crate::kernels::{self, Blocks};
use crate::reference::ZERO_BLOCK_EXPONENT;
use numfmt::ColumnStorage;

/// Fixed FRSZ2 block size (the paper's warp width).
const BS: usize = 32;

/// Bit lengths the per-block selector may pick, ascending. The first
/// three are the paper's evaluated lengths; `64` is the lossless
/// fallback for blocks whose spread exceeds what `frsz2_32` retains.
pub const PALETTE: [u32; 4] = [16, 21, 32, 64];

/// Minimum significand bits retained by the *smallest* nonzero value
/// of a block: the per-block length selector's guard-bit budget.
pub const DEFAULT_GUARD_BITS: u32 = 4;

/// Words occupied by one full 32-value block at bit length `l`
/// (`ceil(32·l/32) = l` for every palette length).
#[inline(always)]
fn block_words(l: u32) -> usize {
    l as usize
}

/// Smallest palette length keeping `guard` significand bits for a
/// value `spread` binades below the block maximum; saturates at 64
/// (beyond 58 binades of spread even the widest code flushes the
/// deepest values — unavoidable within a 64-bit field).
#[inline]
fn l_for_spread(spread: u32, guard: u32) -> u32 {
    *PALETTE
        .iter()
        .find(|&&l| l - 2 >= spread + guard)
        .unwrap_or(&64)
}

/// Column-major matrix of FRSZ2 columns with a per-block bit length.
#[derive(Clone, Debug)]
pub struct Frsz2AdaptiveStore {
    rows: usize,
    cols: usize,
    col_blocks: usize,
    /// Capacity stride of `words` per column (all blocks at `l = 64`).
    col_words_cap: usize,
    words: Vec<u32>,
    /// Per-block maximum effective exponent, stride `col_blocks`.
    exps: Vec<u32>,
    /// Per-block chosen bit length, stride `col_blocks`.
    ls: Vec<u8>,
    /// Per-block word offset within the column, stride `col_blocks`.
    offs: Vec<u32>,
    /// Words actually used by each column's packed blocks.
    used: Vec<u32>,
}

impl Frsz2AdaptiveStore {
    /// Per-block bit lengths of column `j` (diagnostics/tests).
    pub fn column_bit_lengths(&self, j: usize) -> &[u8] {
        &self.ls[j * self.col_blocks..(j + 1) * self.col_blocks]
    }

    /// Per-block exponents of column `j` (diagnostics/tests).
    pub fn column_exponents(&self, j: usize) -> &[u32] {
        &self.exps[j * self.col_blocks..(j + 1) * self.col_blocks]
    }

    /// Packed words of column `j`, used span only (diagnostics/tests).
    pub fn column_words(&self, j: usize) -> &[u32] {
        &self.words[j * self.col_words_cap..j * self.col_words_cap + self.used[j] as usize]
    }
}

/// Blocks are packed back-to-back at their own width, so the view
/// answers from the per-block `(l, offset, emax)` metadata.
impl Blocks for Frsz2AdaptiveStore {
    #[inline(always)]
    fn block_size(&self) -> usize {
        BS
    }

    #[inline(always)]
    fn block(&self, j: usize, b: usize) -> (u32, &[u32], u32) {
        let p = j * self.col_blocks + b;
        let l = self.ls[p] as u32;
        let base = j * self.col_words_cap + self.offs[p] as usize;
        (l, &self.words[base..base + block_words(l)], self.exps[p])
    }
}

impl ColumnStorage for Frsz2AdaptiveStore {
    fn with_shape(rows: usize, cols: usize) -> Self {
        let col_blocks = rows.div_ceil(BS);
        let col_words_cap = col_blocks * block_words(64);
        let min_l = PALETTE[0];
        // Initial state is exactly what compressing all-zero columns
        // produces: every block at the cheapest length, zero words,
        // the canonical zero-block exponent.
        let mut offs = vec![0u32; col_blocks * cols];
        for (i, o) in offs.iter_mut().enumerate() {
            *o = ((i % col_blocks.max(1)) * block_words(min_l)) as u32;
        }
        Frsz2AdaptiveStore {
            rows,
            cols,
            col_blocks,
            col_words_cap,
            words: vec![0u32; col_words_cap * cols],
            exps: vec![ZERO_BLOCK_EXPONENT; col_blocks * cols],
            ls: vec![min_l as u8; col_blocks * cols],
            offs,
            used: vec![(col_blocks * block_words(min_l)) as u32; cols],
        }
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
        let base = j * self.col_words_cap;
        let meta = j * self.col_blocks;
        let mut off = 0usize;
        for (b, chunk) in data.chunks(BS).enumerate() {
            // Pass 1: the block's maximum effective exponent plus — new
            // here — the minimum over *nonzero* values, whose distance
            // to the maximum is the spread the length selector sees.
            // Zeros are exact at every length, so they don't widen it.
            let mut emax = ZERO_BLOCK_EXPONENT;
            let mut emin = u32::MAX;
            for &v in chunk {
                debug_assert!(v.is_finite(), "FRSZ2 input must be finite");
                let e = (((v.to_bits() >> 52) & 0x7FF) as u32).max(1);
                emax = emax.max(e);
                if v != 0.0 {
                    emin = emin.min(e);
                }
            }
            let spread = if emin == u32::MAX { 0 } else { emax - emin };
            let l = l_for_spread(spread, DEFAULT_GUARD_BITS);
            self.exps[meta + b] = emax;
            self.ls[meta + b] = l as u8;
            self.offs[meta + b] = off as u32;

            // Pass 2: encode and store at the chosen length.
            let bw = &mut self.words[base + off..base + off + block_words(l)];
            if chunk.len() < BS {
                bw.fill(0);
            }
            kernels::pack_block(l, emax, chunk, bw);
            off += block_words(l);
        }
        self.used[j] = off as u32;
    }

    #[inline]
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        kernels::decode_range(self, j, self.rows, row_start, out);
    }

    #[inline]
    fn load(&self, i: usize, j: usize) -> f64 {
        kernels::load(self, i, j)
    }

    fn chunk_align(&self) -> usize {
        BS
    }

    /// Fused decompress-and-dot straight off the packed words, each
    /// block at its own bit length. Overridden like
    /// `Frsz2Store::dot_chunk`: the trait's default tiles through
    /// `read_chunk` instead of decoding in registers.
    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        kernels::dot_chunk(self, j, row_start, w)
    }

    /// Fused decompress-and-axpy; see [`Frsz2AdaptiveStore::dot_chunk`].
    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        kernels::axpy_chunk(self, j, row_start, alpha, w);
    }

    /// Multi-column fused dots: all `k` columns swept per block so each
    /// block of `w` is loaded once.
    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        kernels::dots_chunk(self, k, row_start, w, out);
    }

    /// Multi-column fused update with the accessor's zero-alpha skip
    /// (signed zeros survive).
    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        kernels::gemv_chunk(self, k, row_start, alphas, w);
    }

    /// Fused update-then-project: each block is decoded once (at its
    /// own bit length) for both the update of `w` and the dots.
    fn gemv_dots_chunk(
        &self,
        k: usize,
        row_start: usize,
        alphas: &[f64],
        w: &mut [f64],
        out: &mut [f64],
    ) {
        kernels::gemv_dots_chunk(self, k, row_start, alphas, w, out);
    }

    /// A variable-rate store has no single column size; report the
    /// across-column average of the *used* bytes (code words + block
    /// exponents + one bit-length byte per block) — the figure the
    /// solver's traffic model needs.
    fn column_bytes(&self) -> usize {
        if self.cols == 0 {
            return 0;
        }
        let word_bytes: usize = self.used.iter().map(|&u| u as usize * 4).sum();
        let meta_bytes = self.col_blocks * 5 * self.cols;
        (word_bytes + meta_bytes) / self.cols
    }

    /// Exact average rate over all columns (the default would re-derive
    /// it from the rounded per-column byte average).
    fn bits_per_value(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        let word_bits: usize = self.used.iter().map(|&u| u as usize * 32).sum();
        let meta_bits = self.col_blocks * 40 * self.cols;
        (word_bits + meta_bits) as f64 / (self.rows * self.cols) as f64
    }

    fn format_name(&self) -> String {
        "frsz2_ab".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// ~`binades` of exponent range across the column, smooth locally.
    fn ramped(n: usize, binades: f64, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let s = ((i + 31 * seed) as f64 * 0.37).sin() + 1.5;
                s * (binades * i as f64 / n.max(1) as f64).exp2()
            })
            .collect()
    }

    #[test]
    fn length_selector_is_monotone_in_spread() {
        let mut prev = 0;
        for spread in 0..70 {
            let l = l_for_spread(spread, DEFAULT_GUARD_BITS);
            assert!(PALETTE.contains(&l));
            assert!(l >= prev, "selector must not narrow as spread grows");
            if l < 64 {
                assert!(l - 2 >= spread + DEFAULT_GUARD_BITS);
            }
            prev = l;
        }
        assert_eq!(l_for_spread(0, DEFAULT_GUARD_BITS), 16);
        assert_eq!(l_for_spread(30, DEFAULT_GUARD_BITS), 64);
    }

    /// A narrow-spread column stays at the cheapest length; a column
    /// with one wide block widens exactly that block.
    #[test]
    fn per_block_lengths_track_local_spread() {
        let mut st = Frsz2AdaptiveStore::with_shape(128, 1);
        let mut v = ramped(128, 2.0, 0);
        st.write_column(0, &v);
        assert!(st.column_bit_lengths(0).iter().all(|&l| l == 16));

        v[40] *= (40.0f64).exp2(); // block 1 now spans ~40 binades
        st.write_column(0, &v);
        let ls = st.column_bit_lengths(0);
        assert_eq!(ls[1], 64);
        assert!(ls[0] == 16 && ls[2] == 16 && ls[3] == 16);
    }

    /// Every stored value keeps `guard_bits` of relative accuracy —
    /// the flush-to-zero failure mode of fixed `frsz2_16` is gone.
    #[test]
    fn guard_bits_bound_relative_error() {
        let n = 203; // ragged tail
        let v = ramped(n, 24.0, 3);
        let mut st = Frsz2AdaptiveStore::with_shape(n, 1);
        st.write_column(0, &v);
        let mut out = vec![0.0; n];
        st.read_column(0, &mut out);
        for (i, (&x, &y)) in v.iter().zip(&out).enumerate() {
            let rel = (x - y).abs() / x.abs();
            assert!(
                rel <= (-(DEFAULT_GUARD_BITS as f64)).exp2(),
                "row {i}: rel err {rel:e}"
            );
        }
    }

    /// Decoded values match the scalar reference at each block's
    /// chosen length, bit for bit (truncation mode).
    #[test]
    fn decode_matches_reference_per_block() {
        let n = 170;
        let v = ramped(n, 18.0, 7);
        let mut st = Frsz2AdaptiveStore::with_shape(n, 1);
        st.write_column(0, &v);
        let mut out = vec![0.0; n];
        st.read_column(0, &mut out);
        for (b, chunk) in v.chunks(BS).enumerate() {
            let l = st.column_bit_lengths(0)[b] as u32;
            let (emax, codes) = reference::compress_block(chunk, l);
            assert_eq!(st.column_exponents(0)[b], emax);
            let expect = reference::decompress_block(emax, &codes, l);
            for (i, e) in expect.iter().enumerate() {
                assert_eq!(
                    out[b * BS + i].to_bits(),
                    e.to_bits(),
                    "block {b} row {i} (l = {l})"
                );
            }
        }
    }

    /// The unwritten-column state is exactly the compressed-zeros
    /// state: same lengths, exponents, and words.
    #[test]
    fn unwritten_column_matches_compressed_zeros() {
        let mut st = Frsz2AdaptiveStore::with_shape(70, 2);
        st.write_column(0, &vec![0.0; 70]);
        assert_eq!(st.column_bit_lengths(1), st.column_bit_lengths(0));
        assert_eq!(st.column_exponents(1), st.column_exponents(0));
        assert_eq!(st.column_words(1), st.column_words(0));
        let mut out = vec![1.0; 70];
        st.read_column(1, &mut out);
        assert!(out.iter().all(|&x| x == 0.0 && x.is_sign_positive()));
    }

    /// Rewriting a column with different per-block lengths must fully
    /// replace the old layout (offsets shift between writes).
    #[test]
    fn overwriting_column_replaces_old_layout() {
        let n = 96;
        let mut st = Frsz2AdaptiveStore::with_shape(n, 1);
        let wide: Vec<f64> = (0..n)
            .map(|i| (1.0 + i as f64) * ((i as f64 * 0.61).sin() * 20.0).exp2())
            .collect();
        st.write_column(0, &wide);
        let narrow = ramped(n, 1.0, 5);
        st.write_column(0, &narrow);
        assert!(st.column_bit_lengths(0).iter().all(|&l| l == 16));
        let mut out = vec![0.0; n];
        st.read_column(0, &mut out);
        for (i, (&x, &y)) in narrow.iter().zip(&out).enumerate() {
            assert!((x - y).abs() / x.abs() < 0.1, "row {i}");
        }
    }

    /// Rate accounting: a narrow-range column must beat whole-basis
    /// `frsz2_21` (22 bits/value) and carry the 40-bit/block metadata.
    #[test]
    fn rate_reflects_used_words() {
        let n = 3200;
        let mut st = Frsz2AdaptiveStore::with_shape(n, 1);
        st.write_column(0, &ramped(n, 3.0, 1));
        let bpv = st.bits_per_value();
        assert!(
            (bpv - (16.0 + 40.0 / 32.0)).abs() < 1e-12,
            "all-16 column is 17.25 bits/value, got {bpv}"
        );
        assert_eq!(st.format_name(), "frsz2_ab");
        assert_eq!(st.chunk_align(), 32);
    }
}
