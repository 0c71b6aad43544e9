//! Branch-free, word-granular fused FRSZ2 kernels: the one kernel set
//! behind every FRSZ2 store.
//!
//! The module has two layers.
//!
//! * Three **per-block kernels** — [`decode_block`], [`dot_block`] and
//!   [`axpy_block`] — take one block's bit length `l`, packed words and
//!   exponent. They and [`pack_block`] on the write side are the only
//!   places a bit length is dispatched.
//! * Six **chunk drivers** — [`decode_range`], [`dot_chunk`],
//!   [`axpy_chunk`], [`dots_chunk`], [`gemv_chunk`] and
//!   [`gemv_dots_chunk`] — are the loops over a row range's blocks
//!   behind each `ColumnStorage` kernel method. They read blocks only
//!   through the [`Blocks`] view, `block(j, b) -> (l, words, emax)`,
//!   which each store answers: [`Fixed`] is the fixed-stride layout of
//!   `Frsz2Store` and of the `codec` functions, and
//!   `Frsz2AdaptiveStore` answers from its per-block
//!   `(l, offset, emax)` metadata. Every read method of both stores is
//!   one driver call, so a kernel change lands once for every store.
//!
//! The multi-RHS sweeps of block and s-step solves have no driver
//! here: both stores inherit `ColumnStorage`'s `dots_many_chunk` and
//! `gemv_many_chunk`, the register-tiled pair of `numfmt::tiled`,
//! which decodes through `read_chunk`, i.e. [`decode_range`] and its
//! lanes.
//!
//! Every hot loop walks a block's packed code words through a
//! **rolling `u64` window**: field `i` of an `l`-bit stream
//! (`l <= 32`) lives in at most two adjacent `u32` words, so
//!
//! ```text
//! code_i = ((w[p] | w[p+1] << 32) >> (i·l mod 32)) & mask(l)      p = ⌊i·l / 32⌋
//! ```
//!
//! extracts it with two loads, one shift and one mask — no per-element
//! branching on word boundaries and no intermediate decode tile, so a
//! value goes from its packed bits to the dot or update that consumes
//! it without a trip through memory: the paper's decompression "in
//! registers" (§IV-B). Only [`gemv_dots_chunk`] keeps a tile: both of
//! its halves read one block of every column, so it decodes that block
//! once into a stack tile that stays in L1.
//! The one wrinkle is the block's final word: a field that lies
//! entirely inside it must not gather the (nonexistent) word after the
//! block, so each block loop is split at [`two_word_fields`] into a
//! two-word prefix and a single-word suffix — a split computed once
//! per block, never per element.
//!
//! The same window runs in reverse for compression:
//! [`pack_fields_le32`] accumulates codes into a `u64` staging register
//! and spills whole 32-bit words as they fill, so packed words are
//! written exactly once and never read back (no read-modify-write as
//! in [`crate::bitpack::write_bits`]). Codes are batch-encoded into a
//! stack buffer first (independent per value, so the branch-free
//! encoder vectorizes), and for a full 32-code batch of a
//! monomorphized length the spill loop fully unrolls with every flush
//! point a compile-time constant.
//!
//! The `l <= 32` kernels are monomorphized over `const L: u32` with
//! `L = 0` meaning "runtime bit length": the per-block kernels
//! dispatch the paper's lengths (`16`, `21`, `32`) to dedicated
//! instances via [`dispatch_l!`] and fall back to one shared
//! runtime-`l` instance for everything else, so every `l` gets a fused
//! kernel and only the common ones pay compile time. For the
//! word-aligned `L ∈ {16, 32}` the window collapses at compile time to
//! the direct single-load form (`⌊i·l/32⌋` and `i·l mod 32` are
//! constant-foldable), keeping those instances as fast as hand-written
//! aligned loops. Bit lengths above 32 take the wide-field path
//! ([`code_at`]) — still fused, still tile-free, just without the
//! two-word window (a >32-bit field can straddle three words).
//!
//! # Decode: one exact convert-and-scale step
//!
//! For `l <= 32` and `emax >= l − 1`, every code of a block decodes to
//! `±field · 2^(emax − 1021 − l)`, a normal number or a signed zero. So
//! the per-block kernels build the block's scale once
//! ([`crate::codec::decode_scale`]) and decode each code as
//! `(field as f64) · scale` with the sign bit OR-ed in — exactly the
//! bits of the paper's count-zero sequence, because an integer below
//! `2^31` times a normal power of two is exact when the product is
//! normal. Blocks below that threshold (largest magnitude under
//! ~`2^(l − 1024)`, or never written, `emax = 1`) and bit lengths above
//! 32 keep the count-zero sequence ([`crate::codec::decode_count_zero`]).
//! The choice is made per block, never per value.
//!
//! # Lanes: AVX-512 inside the same drivers
//!
//! On `x86_64` CPUs with AVX-512 F, BW, DQ and VBMI (detected once per
//! process), [`decode_range`], [`dots_chunk`], [`gemv_chunk`] and
//! [`gemv_dots_chunk`] run the lane drivers of the private `lanes`
//! module for stores with the paper's 32-value blocks; every other
//! host and block size runs the scalar drivers, which stay the
//! reference. Eight consecutive `l`-bit fields span exactly `l` bytes,
//! so one masked `l`-byte load, one `vpermb` through a per-`l` constant
//! table, one variable shift and one mask put 8 codes in 8 lanes, and
//! `vcvtqq2pd` and one multiply by the block scale, with each lane's
//! sign bit OR-ed into it, decode them.
//!
//! * **Across rows** — `decode_range`, `gemv_chunk` and the tile decode
//!   and update of `gemv_dots_chunk`: a 32-row block is four vectors,
//!   and in the updates the 32 rows of `w` stay in four registers
//!   while all `k` columns apply to them.
//! * **Across columns** — `dots_chunk` and the dot half of
//!   `gemv_dots_chunk`: 8 columns' 8-row vectors are transposed in
//!   registers, so each column owns one accumulator lane that adds its
//!   rows in order. A group short of 8 columns repeats its last column
//!   in the spare lanes and drops their sums.
//!
//! Each lane group reads its own blocks' `(l, words, emax)`, so the
//! adaptive store runs the lanes too. A ragged trailing block, and a
//! lane group holding a block that fails the threshold or has
//! `l > 32`, go through the scalar per-block kernels inside the same
//! call. [`dot_chunk`], [`axpy_chunk`] and [`load`] stay scalar.
//!
//! # Bit-identity contract
//!
//! These kernels change *how* codes are extracted and decoded, never
//! *what* is computed from them: extraction is exact, both decode paths
//! give the bits of `reference::decompress_value`, and every
//! accumulation visits elements in row order with one accumulator per
//! output, exactly like the scalar reference loops they replace — in
//! the lanes too, which keep a separate multiply and add (never a
//! fused multiply-add), skip zero coefficients per column and apply
//! columns in ascending `j`. Lanes, scalar drivers and
//! decompress-then-BLAS are therefore bit-identical — property-tested
//! in `tests/fused_kernels.rs`, `tests/adaptive_fused_kernels.rs` and
//! `tests/lanes.rs`, lanes against the scalar drivers in this module's
//! unit tests, checked through the solver's basis in
//! `crates/krylov/tests/fused_ortho.rs`, and pinned at full size by the
//! `basis_dots`/`basis_gemv` rows of `crates/bench/tests/pinned.rs`.

use crate::codec::{
    decode_code, decode_count_zero, decode_scale, decode_scaled, encode_bits, Frsz2Config,
};
use crate::{bitpack, mask64};

#[cfg(target_arch = "x86_64")]
mod lanes;

const MASK52: u64 = (1u64 << 52) - 1;

/// Number of leading fields in a block whose two-word gather stays
/// inside the block's `wpb` words. Fields past this point start in the
/// final word and fit entirely within it.
#[inline(always)]
fn two_word_fields(count: usize, l: u32, wpb: usize) -> usize {
    if wpb < 2 {
        return 0;
    }
    // Field i loads words ⌊i·l/32⌋ and ⌊i·l/32⌋ + 1; the latter is in
    // bounds while i·l <= 32·(wpb − 1) − 1.
    count.min((32 * (wpb - 1) - 1) / l as usize + 1)
}

/// Two-word window gather: the 64-bit little-endian view of the stream
/// at `bitpos`, shifted so the field starts at bit 0 (caller masks).
#[inline(always)]
fn gather2(bw: &[u32], bitpos: usize) -> u64 {
    let p = bitpos >> 5;
    ((bw[p] as u64) | ((bw[p + 1] as u64) << 32)) >> (bitpos & 31)
}

/// Field `i` of a block's `l`-bit stream on its own: random access,
/// and the wide-field (`l > 32`) path of the per-block kernels, where
/// a field may touch three words. `l = 64` is two direct loads; every
/// other length goes through the bit reader.
#[inline(always)]
fn code_at(l: u32, bw: &[u32], i: usize) -> u64 {
    if l == 64 {
        bw[2 * i] as u64 | ((bw[2 * i + 1] as u64) << 32)
    } else {
        bitpack::read_bits(bw, i * l as usize, l)
    }
}

/// Dispatch a runtime bit length to the monomorphized instances for
/// the paper's `l ∈ {16, 21, 32}` or the shared runtime instance
/// (`L = 0`) otherwise.
macro_rules! dispatch_l {
    ($l:expr, $func:ident($($args:expr),* $(,)?)) => {
        match $l {
            16 => $func::<16>($($args),*),
            21 => $func::<21>($($args),*),
            32 => $func::<32>($($args),*),
            _ => $func::<0>($($args),*),
        }
    };
}

/// Resolve the compile-time/runtime bit-length split: `L = 0` means
/// "use the runtime value".
#[inline(always)]
fn resolve_l<const L: u32>(l_rt: u32) -> u32 {
    if L == 0 {
        l_rt
    } else {
        debug_assert_eq!(L, l_rt);
        L
    }
}

/// The decode loop core (`l <= 32`): feed `f(i, code_i)` the first
/// `count` fields of one block, in row order. The `L ∈ {16, 32}`
/// instances constant-fold to direct aligned loads; everything else
/// runs the two-word window with the per-block prefix/suffix split.
#[inline(always)]
fn for_each_code<const L: u32>(l_rt: u32, bw: &[u32], count: usize, mut f: impl FnMut(usize, u64)) {
    let l = resolve_l::<L>(l_rt);
    let wpb = bw.len();
    if L == 32 {
        // The window collapses to one direct load per field.
        for (i, &c) in bw[..count].iter().enumerate() {
            f(i, c as u64);
        }
    } else {
        let m = mask64(l);
        if L != 0 && count == 32 && wpb == L as usize {
            // Full paper block (BS = 32) of a monomorphized length:
            // trip counts and every bit offset are compile-time
            // constants, so the unrolled loop has no per-element index
            // arithmetic or bounds checks left.
            let nt = two_word_fields(32, L, L as usize);
            for i in 0..nt {
                f(i, gather2(bw, i * L as usize) & m);
            }
            let (last, base) = (bw[L as usize - 1] as u64, (L as usize - 1) * 32);
            for i in nt..32 {
                f(i, (last >> (i * L as usize - base)) & m);
            }
        } else {
            let nt = two_word_fields(count, l, wpb);
            for i in 0..nt {
                f(i, gather2(bw, i * l as usize) & m);
            }
            if nt < count {
                let (last, base) = (bw[wpb - 1] as u64, (wpb - 1) * 32);
                for i in nt..count {
                    f(i, (last >> (i * l as usize - base)) & m);
                }
            }
        }
    }
}

/// Feed `f(i, v_i)` the first `count` decoded values of one `l <= 32`
/// block, in row order: convert-and-scale when the block meets
/// [`decode_scale`]'s threshold, the count-zero sequence otherwise —
/// one check per block.
#[inline(always)]
fn for_each_value<const L: u32>(
    l_rt: u32,
    bw: &[u32],
    emax: u32,
    count: usize,
    mut f: impl FnMut(usize, f64),
) {
    let l = resolve_l::<L>(l_rt);
    match decode_scale(emax, l) {
        Some(scale) => for_each_code::<L>(l, bw, count, |i, c| f(i, decode_scaled(c, scale, l))),
        None => for_each_code::<L>(l, bw, count, |i, c| f(i, decode_count_zero(c, emax, l))),
    }
}

// ---------------------------------------------------------------------
// Per-block primitives (l <= 32 window path).
// ---------------------------------------------------------------------

/// Decode one block's leading `out.len()` values from its packed words.
#[inline(always)]
fn decode_block_le32<const L: u32>(l_rt: u32, bw: &[u32], emax: u32, out: &mut [f64]) {
    for_each_value::<L>(l_rt, bw, emax, out.len(), |i, v| out[i] = v);
}

/// Fused decompress-and-dot over one block: `acc += Σ_i vᵢ · wᵢ`,
/// accumulating in row order (bit-compatible with decode-then-dot).
#[inline(always)]
fn dot_block_le32<const L: u32>(l_rt: u32, bw: &[u32], emax: u32, w: &[f64], acc: &mut f64) {
    let mut a = *acc;
    for_each_value::<L>(l_rt, bw, emax, w.len(), |i, v| a += v * w[i]);
    *acc = a;
}

/// Fused decompress-and-axpy over one block: `wᵢ += alpha · vᵢ`.
#[inline(always)]
fn axpy_block_le32<const L: u32>(l_rt: u32, bw: &[u32], emax: u32, alpha: f64, w: &mut [f64]) {
    for_each_value::<L>(l_rt, bw, emax, w.len(), |i, v| w[i] += alpha * v);
}

/// Truncating encode for `l <= 54`: [`encode_bits`] with the
/// saturating shift reduced to `min(shift, 63)` — exact because the
/// 53-bit significand is exhausted by any shift ≥ 53, and `shift =
/// (emax − e_eff) + 54 − l` is non-negative for `l <= 54`. Branch-free.
#[inline(always)]
fn encode_trunc(bits: u64, emax: u32, l: u32) -> u64 {
    let e = ((bits >> 52) & 0x7FF) as u32;
    let sign = bits >> 63;
    let m = bits & MASK52;
    let e_eff = e | u32::from(e == 0);
    let sig = m | (u64::from(e != 0) << 52);
    let shift = ((emax - e_eff) as u64 + 54 - l as u64).min(63);
    (sign << (l - 1)) | (sig >> shift)
}

/// Pack one block's codes through the rolling `u64` staging register
/// (`l <= 32`): every covered word is written exactly once and never
/// read back. The spill is predicate-advanced rather than branched —
/// the fill pattern (`staged >= 32` roughly `l/32` of the time) would
/// otherwise mispredict for every unaligned `l`. Words past the last
/// code are left untouched (the caller zero-fills partial trailing
/// blocks first).
#[inline(always)]
fn pack_fields_le32<const L: u32>(l_rt: u32, emax: u32, chunk: &[f64], bw: &mut [u32]) {
    let l = resolve_l::<L>(l_rt);
    let mut acc: u64 = 0;
    let mut staged: u32 = 0;
    let mut wi = 0usize;
    // Stage in two steps: encode a batch of codes into a stack buffer
    // (independent per value — the compiler vectorizes the branch-free
    // encoder), then spill the batch through the rolling register
    // (serial, but only shift/or/store ops on the critical chain).
    let mut codes = [0u64; 32];
    for batch in chunk.chunks(32) {
        for (c, &v) in codes.iter_mut().zip(batch) {
            *c = encode_trunc(v.to_bits(), emax, l);
        }
        if L != 0 && batch.len() == 32 && wi + L as usize <= bw.len() {
            // Full 32-code batch of a monomorphized length: it spans
            // exactly `L` words starting word-aligned (32·L bits), so
            // the spill loop fully unrolls with every flush point a
            // compile-time constant.
            debug_assert_eq!(staged, 0);
            let out = &mut bw[wi..wi + L as usize];
            let mut wj = 0usize;
            for &c in &codes {
                acc |= c << staged;
                staged += L;
                if staged >= 32 {
                    out[wj] = acc as u32;
                    wj += 1;
                    acc >>= 32;
                    staged -= 32;
                }
            }
            wi += L as usize;
        } else {
            for &c in &codes[..batch.len()] {
                // staged <= 31 and l <= 32, so the shifted code always
                // fits.
                acc |= c << staged;
                staged += l;
                if staged >= 32 {
                    bw[wi] = acc as u32;
                    wi += 1;
                    acc >>= 32;
                    staged -= 32;
                }
            }
        }
    }
    if staged > 0 {
        bw[wi] = acc as u32;
    }
}

// ---------------------------------------------------------------------
// The per-block view every driver reads through.
// ---------------------------------------------------------------------

/// A column-major matrix of FRSZ2 blocks, seen one block at a time.
pub(crate) trait Blocks {
    /// Values per block; row ranges start at a multiple of it.
    fn block_size(&self) -> usize;

    /// `(l, words, emax)` of block `b` of column `j`: its bit length,
    /// its packed code words (the full-block span, zero past the last
    /// code of a partial trailing block) and its exponent.
    fn block(&self, j: usize, b: usize) -> (u32, &[u32], u32);
}

/// The fixed-stride layout: every block at `cfg.bits()` in
/// `cfg.words_per_block()` words, column `j` at offset `j · col_words`
/// in `words` and `j · col_blocks` in `exps`.
pub(crate) struct Fixed<'a> {
    pub cfg: Frsz2Config,
    pub words: &'a [u32],
    pub exps: &'a [u32],
    pub col_words: usize,
    pub col_blocks: usize,
}

impl<'a> Fixed<'a> {
    /// A single column (`j = 0`).
    pub fn column(cfg: Frsz2Config, words: &'a [u32], exps: &'a [u32]) -> Self {
        Fixed {
            cfg,
            words,
            exps,
            col_words: words.len(),
            col_blocks: exps.len(),
        }
    }
}

impl Blocks for Fixed<'_> {
    #[inline(always)]
    fn block_size(&self) -> usize {
        self.cfg.block_size()
    }

    #[inline(always)]
    fn block(&self, j: usize, b: usize) -> (u32, &[u32], u32) {
        let wpb = self.cfg.words_per_block();
        let base = j * self.col_words + b * wpb;
        let emax = self.exps[j * self.col_blocks + b];
        (self.cfg.bits(), &self.words[base..base + wpb], emax)
    }
}

// ---------------------------------------------------------------------
// Chunk drivers (every store, through `Blocks`).
// ---------------------------------------------------------------------

/// Index of the block starting at `row_start`, which must be
/// block-aligned.
#[inline(always)]
fn first_block(bs: usize, row_start: usize) -> usize {
    debug_assert_eq!(row_start % bs, 0, "row_start must be block-aligned");
    row_start / bs
}

/// Value `(i, j)` of the matrix: only its block's exponent and its own
/// code are read (§IV-B).
pub(crate) fn load(m: &impl Blocks, i: usize, j: usize) -> f64 {
    let bs = m.block_size();
    let (l, bw, emax) = m.block(j, i / bs);
    decode_code(code_at(l, bw, i % bs), emax, l)
}

/// Decompress rows `row_start .. row_start + out.len()` of column `j`
/// of a `rows`-row matrix, straight off the packed words. An empty
/// range is a no-op before any check; otherwise `row_start` must be
/// block-aligned and the range must lie within `rows`.
pub(crate) fn decode_range(
    m: &impl Blocks,
    j: usize,
    rows: usize,
    row_start: usize,
    out: &mut [f64],
) {
    if out.is_empty() {
        return;
    }
    let bs = m.block_size();
    assert!(
        row_start.is_multiple_of(bs),
        "row_start must be block-aligned"
    );
    assert!(row_start + out.len() <= rows, "range beyond column");
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = lanes::Avx512::for_blocks(m) {
        return lanes.decode_blocks(m, j, row_start / bs, out);
    }
    decode_blocks_scalar(m, j, row_start / bs, out);
}

/// [`decode_range`]'s scalar loop: blocks `b0, b0 + 1, …` of column `j`
/// into `out`.
fn decode_blocks_scalar(m: &impl Blocks, j: usize, b0: usize, out: &mut [f64]) {
    for (ob, chunk) in out.chunks_mut(m.block_size()).enumerate() {
        let (l, bw, emax) = m.block(j, b0 + ob);
        decode_block(l, bw, emax, chunk);
    }
}

/// Fused dot product `Σ_i V[row_start + i, j] · w[i]`; one
/// accumulator, row order, no intermediate buffer.
pub(crate) fn dot_chunk(m: &impl Blocks, j: usize, row_start: usize, w: &[f64]) -> f64 {
    let bs = m.block_size();
    let b0 = first_block(bs, row_start);
    let mut acc = 0.0;
    for (ob, wc) in w.chunks(bs).enumerate() {
        let (l, bw, emax) = m.block(j, b0 + ob);
        dot_block(l, bw, emax, wc, &mut acc);
    }
    acc
}

/// Fused axpy `w[i] += alpha · V[row_start + i, j]`.
pub(crate) fn axpy_chunk(m: &impl Blocks, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
    let bs = m.block_size();
    let b0 = first_block(bs, row_start);
    for (ob, wc) in w.chunks_mut(bs).enumerate() {
        let (l, bw, emax) = m.block(j, b0 + ob);
        axpy_block(l, bw, emax, alpha, wc);
    }
}

/// Multi-column fused dots: `out[j] = Σ_i V[row_start + i, j] · w[i]`
/// for `j < k`, sweeping all `k` columns per block so each block of
/// `w` is loaded once instead of `k` times. Each `out[j]` accumulates
/// its column in row order — bit-identical to `k` independent
/// [`dot_chunk`] calls.
pub(crate) fn dots_chunk(m: &impl Blocks, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = lanes::Avx512::for_blocks(m) {
        return lanes.dots_chunk(m, k, row_start, w, out);
    }
    dots_chunk_scalar(m, k, row_start, w, out);
}

/// [`dots_chunk`]'s scalar driver.
fn dots_chunk_scalar(m: &impl Blocks, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
    let bs = m.block_size();
    let b0 = first_block(bs, row_start);
    out[..k].fill(0.0);
    for (ob, wc) in w.chunks(bs).enumerate() {
        dots_block(m, 0, b0 + ob, wc, &mut out[..k]);
    }
}

/// Block `b` of columns `j0 .. j0 + out.len()` dotted with `wc`, added
/// to `out` column by column in row order.
#[inline]
fn dots_block(m: &impl Blocks, j0: usize, b: usize, wc: &[f64], out: &mut [f64]) {
    for (j, acc) in (j0..).zip(out.iter_mut()) {
        let (l, bw, emax) = m.block(j, b);
        dot_block(l, bw, emax, wc, acc);
    }
}

/// Multi-column fused update: `w[i] += Σ_j alphas[j] · V[row_start + i, j]`,
/// sweeping all `k` columns per block so each block of `w` is loaded
/// and stored once instead of `k` times. Zero coefficients are skipped
/// entirely (never folded in as `+ 0.0`, which could flip a signed
/// zero), and per element the columns apply in `j` order — both
/// bit-compatible with `k` sequential [`axpy_chunk`] calls.
pub(crate) fn gemv_chunk(
    m: &impl Blocks,
    k: usize,
    row_start: usize,
    alphas: &[f64],
    w: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = lanes::Avx512::for_blocks(m) {
        return lanes.gemv_chunk(m, k, row_start, alphas, w);
    }
    gemv_chunk_scalar(m, k, row_start, alphas, w);
}

/// [`gemv_chunk`]'s scalar driver.
fn gemv_chunk_scalar(m: &impl Blocks, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
    let bs = m.block_size();
    let b0 = first_block(bs, row_start);
    for (ob, wc) in w.chunks_mut(bs).enumerate() {
        gemv_block(m, k, b0 + ob, alphas, wc);
    }
}

/// Block `b` of the first `k` columns applied to `wc` in ascending `j`,
/// skipping zero coefficients.
#[inline]
fn gemv_block(m: &impl Blocks, k: usize, b: usize, alphas: &[f64], wc: &mut [f64]) {
    for (j, &a) in alphas.iter().enumerate().take(k) {
        if a != 0.0 {
            let (l, bw, emax) = m.block(j, b);
            axpy_block(l, bw, emax, a, wc);
        }
    }
}

/// Values in [`gemv_dots_chunk`]'s stack tile: one block of every
/// column, so up to 128 columns at the paper's block size of 32.
const FUSED_TILE: usize = 4096;

/// Fused update-then-project: `w[i] += Σ_j alphas[j] · V[row_start + i, j]`
/// and then `out[j] = Σ_i V[row_start + i, j] · w[i]` on the updated
/// `w`, for `j < k`. Each block of all `k` columns is decoded once into
/// a stack tile; the update runs from the tile exactly as
/// [`gemv_chunk`] runs it (ascending `j`, zero coefficients skipped),
/// and then each `out[j]` adds its column from the tile in row order
/// as [`dots_chunk`] does. When one block of every column does not fit
/// the tile, the two drivers run one after the other.
pub(crate) fn gemv_dots_chunk(
    m: &impl Blocks,
    k: usize,
    row_start: usize,
    alphas: &[f64],
    w: &mut [f64],
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = lanes::Avx512::for_blocks(m) {
        return lanes.gemv_dots_chunk(m, k, row_start, alphas, w, out);
    }
    gemv_dots_chunk_scalar(m, k, row_start, alphas, w, out);
}

/// [`gemv_dots_chunk`]'s scalar driver.
fn gemv_dots_chunk_scalar(
    m: &impl Blocks,
    k: usize,
    row_start: usize,
    alphas: &[f64],
    w: &mut [f64],
    out: &mut [f64],
) {
    let bs = m.block_size();
    if k * bs > FUSED_TILE {
        gemv_chunk_scalar(m, k, row_start, alphas, w);
        dots_chunk_scalar(m, k, row_start, w, out);
        return;
    }
    let b0 = first_block(bs, row_start);
    out[..k].fill(0.0);
    let mut tile = [0.0f64; FUSED_TILE];
    for (ob, wc) in w.chunks_mut(bs).enumerate() {
        gemv_dots_block(m, b0 + ob, alphas, wc, &mut out[..k], &mut tile[..k * bs]);
    }
}

/// One block of [`gemv_dots_chunk`] for the `out.len()` columns: block
/// `b` of each column decoded into its `block_size()` slot of `tile`,
/// applied to `wc` in ascending `j` (zero coefficients skipped), and
/// each column's dot with the updated `wc` added to `out` in row order.
#[inline]
fn gemv_dots_block(
    m: &impl Blocks,
    b: usize,
    alphas: &[f64],
    wc: &mut [f64],
    out: &mut [f64],
    tile: &mut [f64],
) {
    let (bs, n) = (m.block_size(), wc.len());
    for (j, col) in tile.chunks_exact_mut(bs).enumerate() {
        let (l, bw, emax) = m.block(j, b);
        decode_block(l, bw, emax, &mut col[..n]);
    }
    for (&a, col) in alphas.iter().zip(tile.chunks_exact(bs)) {
        if a != 0.0 {
            for (x, &v) in wc.iter_mut().zip(col) {
                *x += a * v;
            }
        }
    }
    for (acc, col) in out.iter_mut().zip(tile.chunks_exact(bs)) {
        for (&v, &x) in col.iter().zip(&*wc) {
            *acc += v * x;
        }
    }
}

// ---------------------------------------------------------------------
// Per-block kernels (every bit length; `bw` is the block's full span).
// ---------------------------------------------------------------------

/// Decode one block's leading `out.len()` values for a per-block bit
/// length (`2 <= l <= 64`). `bw` must be exactly the block's
/// full-block word span (`words_per_block(l)`), zero-padded past the
/// last code for partial trailing blocks.
#[inline]
fn decode_block(l: u32, bw: &[u32], emax: u32, out: &mut [f64]) {
    if l <= 32 {
        dispatch_l!(l, decode_block_le32(l, bw, emax, out));
    } else {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = decode_count_zero(code_at(l, bw, i), emax, l);
        }
    }
}

/// Fused decompress-and-dot over one block at a per-block bit length:
/// `acc += Σ_i vᵢ · wᵢ`, row order (bit-compatible with
/// [`decode_block`] followed by a plain dot).
#[inline]
fn dot_block(l: u32, bw: &[u32], emax: u32, w: &[f64], acc: &mut f64) {
    if l <= 32 {
        dispatch_l!(l, dot_block_le32(l, bw, emax, w, acc));
    } else {
        for (i, &wv) in w.iter().enumerate() {
            *acc += decode_count_zero(code_at(l, bw, i), emax, l) * wv;
        }
    }
}

/// Fused decompress-and-axpy over one block at a per-block bit length:
/// `wᵢ += alpha · vᵢ`.
#[inline]
fn axpy_block(l: u32, bw: &[u32], emax: u32, alpha: f64, w: &mut [f64]) {
    if l <= 32 {
        dispatch_l!(l, axpy_block_le32(l, bw, emax, alpha, w));
    } else {
        for (i, wv) in w.iter_mut().enumerate() {
            *wv += alpha * decode_count_zero(code_at(l, bw, i), emax, l);
        }
    }
}

/// Pack one block's codes at any bit length into `bw`: the staging
/// register for `l <= 32`, two direct word stores per code for
/// `l = 64`, and the `u128` register for the lengths in between. The
/// caller zero-fills a partial trailing block's words first.
#[inline]
pub(crate) fn pack_block(l: u32, emax: u32, chunk: &[f64], bw: &mut [u32]) {
    match l {
        ..=32 => dispatch_l!(l, pack_fields_le32(l, emax, chunk, bw)),
        64 => {
            for (pair, &v) in bw.chunks_exact_mut(2).zip(chunk) {
                let c = encode_bits(v.to_bits(), emax, 64);
                pair[0] = c as u32;
                pair[1] = (c >> 32) as u32;
            }
        }
        _ => pack_fields_wide(l, emax, chunk, bw),
    }
}

/// Pack one block of wide fields (`32 < l < 64`, not word-aligned)
/// through a `u128` staging register — same single-write-per-word
/// discipline as [`pack_fields_le32`], widened so a 63-bit code always
/// fits above the 31 staged bits.
fn pack_fields_wide(l: u32, emax: u32, chunk: &[f64], bw: &mut [u32]) {
    debug_assert!(l > 32 && l < 64);
    let mut acc: u128 = 0;
    let mut staged: u32 = 0;
    let mut wi = 0usize;
    for &v in chunk {
        acc |= (encode_bits(v.to_bits(), emax, l) as u128) << staged;
        staged += l;
        while staged >= 32 {
            bw[wi] = acc as u32;
            wi += 1;
            acc >>= 32;
            staged -= 32;
        }
    }
    if staged > 0 {
        bw[wi] = acc as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branch-free truncating encoder must agree with the general
    /// [`encode_bits`] for every operand class (normal, subnormal,
    /// zero, both signs, saturating shifts).
    #[test]
    fn encode_trunc_matches_encode_bits() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.7,
            1e-300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
        ];
        for &v in &values {
            let bits = v.to_bits();
            let ve = crate::reference::effective_exponent(v);
            for emax in [ve, ve + 1, ve + 40, ve + 200, 2046] {
                for l in [2u32, 8, 16, 21, 32] {
                    assert_eq!(
                        encode_trunc(bits, emax, l),
                        encode_bits(bits, emax, l),
                        "v={v:e} emax={emax} l={l}"
                    );
                }
            }
        }
    }

    /// [`pack_block`] writes the same words as the generic bit writer
    /// on all three of its paths (`l <= 32`, `32 < l < 64`, `l = 64`),
    /// full and partial blocks.
    #[test]
    fn pack_matches_write_bits() {
        let data: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.73).sin() * 3.0).collect();
        for l in [2u32, 4, 5, 8, 11, 16, 21, 31, 32, 33, 40, 63, 64] {
            for count in [1usize, 7, 31, 32] {
                let chunk = &data[..count];
                let emax = chunk
                    .iter()
                    .map(|v| crate::reference::effective_exponent(*v))
                    .max()
                    .unwrap();
                let wpb = bitpack::words_for(32, l);
                let mut expect = vec![0u32; wpb];
                for (i, &v) in chunk.iter().enumerate() {
                    let c = encode_bits(v.to_bits(), emax, l);
                    bitpack::write_bits(&mut expect, i * l as usize, l, c);
                }
                let mut got = vec![0u32; wpb];
                pack_block(l, emax, chunk, &mut got);
                assert_eq!(got, expect, "l={l} count={count}");
            }
        }
    }
}
