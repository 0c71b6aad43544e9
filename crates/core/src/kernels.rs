//! Branch-free, word-granular fused FRSZ2 kernels.
//!
//! Every hot loop in this module walks a block's packed code words
//! through a **rolling `u64` window**: field `i` of an `l`-bit stream
//! (`l <= 32`) lives in at most two adjacent `u32` words, so
//!
//! ```text
//! code_i = ((w[p] | w[p+1] << 32) >> (i·l mod 32)) & mask(l)      p = ⌊i·l / 32⌋
//! ```
//!
//! extracts it with two loads, one shift and one mask — no per-element
//! branching on word boundaries and no intermediate decode tile, which
//! is what the paper's §IV-B means by decompression "in registers".
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
//! All entry points are monomorphized over `const L: u32` with `L = 0`
//! meaning "runtime bit length": call sites dispatch the paper's
//! lengths (`16`, `21`, `32`) to dedicated instances via
//! [`dispatch_l!`] and fall back to one shared runtime-`l` instance
//! for everything else, so every `l` gets a fused kernel and only the
//! common ones pay compile time. For the word-aligned `L ∈ {16, 32}`
//! the window collapses at compile time to the direct single-load
//! form (`⌊i·l/32⌋` and `i·l mod 32` are constant-foldable), keeping
//! those instances as fast as hand-written aligned loops. Bit lengths
//! above 32 take the wide-field path ([`wide_code`]) — still fused,
//! still tile-free, just without the two-word window (a >32-bit field
//! can straddle three words).
//!
//! # Bit-identity contract
//!
//! These kernels change *how* codes are extracted, never *what* is
//! computed from them: extraction is exact (the same code bits reach
//! [`crate::codec::decode_code`]) and every accumulation visits
//! elements in row order with one accumulator per output, exactly like
//! the scalar reference loops they replace. Fused results are
//! therefore bit-identical to decompress-then-BLAS — property-tested
//! in `tests/fused_kernels.rs`, checked through the solver's basis in
//! `crates/krylov/tests/fused_ortho.rs`, and pinned at full size by
//! the `basis_dots`/`basis_gemv` rows of `crates/bench/tests/pinned.rs`.

use crate::codec::{decode_code, encode_bits, Frsz2Config};
use crate::{bitpack, mask64};

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

/// Extract field `i` of a wide (`l > 32`) stream; may touch three
/// words, so it goes through the generic bit reader.
#[inline(always)]
fn wide_code(bw: &[u32], i: usize, l: u32) -> u64 {
    if l == 64 {
        // Word-aligned: two direct loads.
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
fn for_each_code<const L: u32>(
    l_rt: u32,
    wpb: usize,
    bw: &[u32],
    count: usize,
    mut f: impl FnMut(usize, u64),
) {
    let l = resolve_l::<L>(l_rt);
    if L == 32 {
        // The window collapses to one direct load per field.
        for (i, &c) in bw[..count].iter().enumerate() {
            f(i, c as u64);
        }
    } else {
        let m = mask64(l);
        if L != 0 && count == 32 && bw.len() == L as usize {
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

// ---------------------------------------------------------------------
// Per-block primitives (l <= 32 window path).
// ---------------------------------------------------------------------

/// Decode one block's leading `out.len()` values from its packed words.
#[inline(always)]
fn decode_block_le32<const L: u32>(l_rt: u32, wpb: usize, bw: &[u32], emax: u32, out: &mut [f64]) {
    let l = resolve_l::<L>(l_rt);
    for_each_code::<L>(l, wpb, bw, out.len(), |i, c| {
        out[i] = decode_code(c, emax, l);
    });
}

/// Fused decompress-and-dot over one block: `acc += Σ_i vᵢ · wᵢ`,
/// accumulating in row order (bit-compatible with decode-then-dot).
#[inline(always)]
fn dot_block_le32<const L: u32>(
    l_rt: u32,
    wpb: usize,
    bw: &[u32],
    emax: u32,
    w: &[f64],
    acc: &mut f64,
) {
    let l = resolve_l::<L>(l_rt);
    let mut a = *acc;
    for_each_code::<L>(l, wpb, bw, w.len(), |i, c| {
        a += decode_code(c, emax, l) * w[i];
    });
    *acc = a;
}

/// Fused decompress-and-axpy over one block: `wᵢ += alpha · vᵢ`.
#[inline(always)]
fn axpy_block_le32<const L: u32>(
    l_rt: u32,
    wpb: usize,
    bw: &[u32],
    emax: u32,
    alpha: f64,
    w: &mut [f64],
) {
    let l = resolve_l::<L>(l_rt);
    for_each_code::<L>(l, wpb, bw, w.len(), |i, c| {
        w[i] += alpha * decode_code(c, emax, l);
    });
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
fn pack_fields_le32<const L: u32>(
    l_rt: u32,
    emax: u32,
    nearest: bool,
    chunk: &[f64],
    bw: &mut [u32],
) {
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
        if nearest {
            // Rounding ablation path: rare, keeps the full encoder.
            for (c, &v) in codes.iter_mut().zip(batch) {
                *c = encode_bits(v.to_bits(), emax, l, true);
            }
        } else {
            for (c, &v) in codes.iter_mut().zip(batch) {
                *c = encode_trunc(v.to_bits(), emax, l);
            }
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
// Chunk-level drivers (all bit lengths).
// ---------------------------------------------------------------------

/// Decompress `out.len()` values of a column starting at block-aligned
/// `row_start`, straight off the packed words — no tile buffer for any
/// bit length.
pub(crate) fn decode_range(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    row_start: usize,
    out: &mut [f64],
) {
    let bs = cfg.block_size();
    let l = cfg.bits();
    let wpb = cfg.words_per_block();
    let first_block = row_start / bs;
    for (ob, chunk) in out.chunks_mut(bs).enumerate() {
        let b = first_block + ob;
        let emax = exps[b];
        let bw = &words[b * wpb..(b + 1) * wpb];
        if l <= 32 {
            dispatch_l!(l, decode_block_le32(l, wpb, bw, emax, chunk));
        } else {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = decode_code(wide_code(bw, i, l), emax, l);
            }
        }
    }
}

/// Fused dot product `Σ_i column[row_start + i] · w[i]` for any bit
/// length; one accumulator, row order, no intermediate buffer.
pub(crate) fn dot_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    row_start: usize,
    w: &[f64],
) -> f64 {
    let bs = cfg.block_size();
    let l = cfg.bits();
    let wpb = cfg.words_per_block();
    debug_assert_eq!(row_start % bs, 0);
    let first_block = row_start / bs;
    let mut acc = 0.0;
    for (ob, wc) in w.chunks(bs).enumerate() {
        let b = first_block + ob;
        let emax = exps[b];
        let bw = &words[b * wpb..(b + 1) * wpb];
        if l <= 32 {
            dispatch_l!(l, dot_block_le32(l, wpb, bw, emax, wc, &mut acc));
        } else {
            for (i, &wv) in wc.iter().enumerate() {
                acc += decode_code(wide_code(bw, i, l), emax, l) * wv;
            }
        }
    }
    acc
}

/// Fused axpy `w[i] += alpha · column[row_start + i]` for any bit
/// length.
pub(crate) fn axpy_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    row_start: usize,
    alpha: f64,
    w: &mut [f64],
) {
    let bs = cfg.block_size();
    let l = cfg.bits();
    let wpb = cfg.words_per_block();
    debug_assert_eq!(row_start % bs, 0);
    let first_block = row_start / bs;
    for (ob, wc) in w.chunks_mut(bs).enumerate() {
        let b = first_block + ob;
        let emax = exps[b];
        let bw = &words[b * wpb..(b + 1) * wpb];
        if l <= 32 {
            dispatch_l!(l, axpy_block_le32(l, wpb, bw, emax, alpha, wc));
        } else {
            for (i, wv) in wc.iter_mut().enumerate() {
                *wv += alpha * decode_code(wide_code(bw, i, l), emax, l);
            }
        }
    }
}

/// Multi-column fused dots: `out[j] += Σ_i V[row_start + i, j] · w[i]`
/// for `j < k`, sweeping all `k` columns per 32-value block so each
/// block of `w` is loaded once instead of `k` times. Each `out[j]`
/// accumulates its column in row order — bit-identical to `k`
/// independent [`dot_chunk`] calls. Columns live at strides
/// `col_words` / `col_blocks` in `words` / `exps`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dots_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    col_words: usize,
    col_blocks: usize,
    k: usize,
    row_start: usize,
    w: &[f64],
    out: &mut [f64],
) {
    let bs = cfg.block_size();
    let l = cfg.bits();
    let wpb = cfg.words_per_block();
    debug_assert_eq!(row_start % bs, 0);
    let first_block = row_start / bs;
    out[..k].fill(0.0);
    for (ob, wc) in w.chunks(bs).enumerate() {
        let b = first_block + ob;
        for (j, acc) in out[..k].iter_mut().enumerate() {
            let emax = exps[j * col_blocks + b];
            let base = j * col_words + b * wpb;
            let bw = &words[base..base + wpb];
            if l <= 32 {
                dispatch_l!(l, dot_block_le32(l, wpb, bw, emax, wc, acc));
            } else {
                for (i, &wv) in wc.iter().enumerate() {
                    *acc += decode_code(wide_code(bw, i, l), emax, l) * wv;
                }
            }
        }
    }
}

/// Multi-column fused update: `w[i] += Σ_j alphas[j] · V[row_start + i, j]`,
/// sweeping all `k` columns per block so each block of `w` is loaded
/// and stored once instead of `k` times. Zero coefficients are skipped
/// entirely (never folded in as `+ 0.0`, which could flip a signed
/// zero), and per element the columns apply in `j` order — both
/// bit-compatible with `k` sequential [`axpy_chunk`] calls.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemv_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    col_words: usize,
    col_blocks: usize,
    k: usize,
    row_start: usize,
    alphas: &[f64],
    w: &mut [f64],
) {
    let bs = cfg.block_size();
    let l = cfg.bits();
    let wpb = cfg.words_per_block();
    debug_assert_eq!(row_start % bs, 0);
    let first_block = row_start / bs;
    for (ob, wc) in w.chunks_mut(bs).enumerate() {
        let b = first_block + ob;
        for (j, &a) in alphas.iter().enumerate().take(k) {
            if a == 0.0 {
                continue;
            }
            let emax = exps[j * col_blocks + b];
            let base = j * col_words + b * wpb;
            let bw = &words[base..base + wpb];
            if l <= 32 {
                dispatch_l!(l, axpy_block_le32(l, wpb, bw, emax, a, wc));
            } else {
                for (i, wv) in wc.iter_mut().enumerate() {
                    *wv += a * decode_code(wide_code(bw, i, l), emax, l);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Multi-RHS drivers (block solves: one decode sweep, `nw` vectors).
// ---------------------------------------------------------------------

/// Rows per cache sub-window of the multi-RHS drivers, in blocks. The
/// accumulators (`dots`) or the interleaved vectors (`gemv`) of one
/// sub-window stay resident while all `k` columns stream past, so the
/// compressed basis is still decoded exactly once per sweep but the
/// `k × nw` running sums are reloaded only once per sub-window instead
/// of once per block. Pure access reordering — accumulation order per
/// `(column, vector)` is untouched, so bits don't depend on it.
const MANY_SUBWINDOW_BLOCKS: usize = 32;

/// Vectors per stack-accumulator tile of the multi-RHS drivers. Splits
/// very wide blocks into register-friendly strips; per-`(j, t)`
/// accumulation order is again unaffected.
const MANY_NW_TILE: usize = 64;

/// Fused decompress-and-dots over one block against `nw` interleaved
/// vectors: `accs[t] += Σ_i vᵢ · wrows[i·nw + t]` for `t <
/// accs.len()`, each accumulator in row order (bit-compatible with
/// decode-then-dot per vector). `wrows` starts at the block's first
/// row, already offset to the accumulator tile's first vector.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dot_many_block_le32<const L: u32>(
    l_rt: u32,
    wpb: usize,
    bw: &[u32],
    emax: u32,
    wrows: &[f64],
    nw: usize,
    count: usize,
    accs: &mut [f64],
) {
    let l = resolve_l::<L>(l_rt);
    let tl = accs.len();
    for_each_code::<L>(l, wpb, bw, count, |i, c| {
        let v = decode_code(c, emax, l);
        let row = &wrows[i * nw..i * nw + tl];
        for (a, &wv) in accs.iter_mut().zip(row) {
            *a += v * wv;
        }
    });
}

/// Fused decompress-and-axpy over one block into `nw` interleaved
/// vectors: `wrows[i·nw + t] += al[t] · vᵢ`, skipping `t` with
/// `al[t] == 0.0` (signed-zero preservation, matching
/// [`gemv_chunk`]'s contract per vector).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn axpy_many_block_le32<const L: u32>(
    l_rt: u32,
    wpb: usize,
    bw: &[u32],
    emax: u32,
    al: &[f64],
    wrows: &mut [f64],
    nw: usize,
    count: usize,
) {
    let l = resolve_l::<L>(l_rt);
    let tl = al.len();
    for_each_code::<L>(l, wpb, bw, count, |i, c| {
        let v = decode_code(c, emax, l);
        let row = &mut wrows[i * nw..i * nw + tl];
        for (wv, &a) in row.iter_mut().zip(al) {
            if a != 0.0 {
                *wv += a * v;
            }
        }
    });
}

/// Multi-column, multi-RHS fused dots:
/// `out[j·nw + t] = Σ_i V[row_start + i, j] · ws[i·nw + t]` — the
/// block-Arnoldi projection `H = VᵀW` over one row chunk, with `ws`
/// holding `nw` vectors interleaved row-major. Every stored block is
/// decoded once for all `nw` vectors and each `out[j·nw + t]`
/// accumulates in row order with one accumulator — bit-identical to
/// `nw` independent [`dots_chunk`] calls on deinterleaved vectors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dots_many_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    col_words: usize,
    col_blocks: usize,
    k: usize,
    row_start: usize,
    ws: &[f64],
    nw: usize,
    out: &mut [f64],
) {
    let bs = cfg.block_size();
    let l = cfg.bits();
    let wpb = cfg.words_per_block();
    debug_assert_eq!(row_start % bs, 0);
    debug_assert_eq!(ws.len() % nw, 0);
    let len = ws.len() / nw;
    let first_block = row_start / bs;
    out[..k * nw].fill(0.0);
    let sw_rows = MANY_SUBWINDOW_BLOCKS * bs;
    for t0 in (0..nw).step_by(MANY_NW_TILE) {
        let tl = MANY_NW_TILE.min(nw - t0);
        let mut row0 = 0usize;
        while row0 < len {
            let sw_len = sw_rows.min(len - row0);
            let sb = first_block + row0 / bs;
            for j in 0..k {
                let mut accs = [0.0f64; MANY_NW_TILE];
                accs[..tl].copy_from_slice(&out[j * nw + t0..j * nw + t0 + tl]);
                let mut off = 0usize;
                while off < sw_len {
                    let count = bs.min(sw_len - off);
                    let b = sb + off / bs;
                    let emax = exps[j * col_blocks + b];
                    let base = j * col_words + b * wpb;
                    let bw = &words[base..base + wpb];
                    let wrows = &ws[(row0 + off) * nw + t0..];
                    if l <= 32 {
                        dispatch_l!(
                            l,
                            dot_many_block_le32(
                                l,
                                wpb,
                                bw,
                                emax,
                                wrows,
                                nw,
                                count,
                                &mut accs[..tl]
                            )
                        );
                    } else {
                        for i in 0..count {
                            let v = decode_code(wide_code(bw, i, l), emax, l);
                            for (a, &wv) in accs[..tl].iter_mut().zip(&wrows[i * nw..i * nw + tl]) {
                                *a += v * wv;
                            }
                        }
                    }
                    off += count;
                }
                out[j * nw + t0..j * nw + t0 + tl].copy_from_slice(&accs[..tl]);
            }
            row0 += sw_len;
        }
    }
}

/// Multi-column, multi-RHS fused update:
/// `ws[i·nw + t] += Σ_j alphas[j·nw + t] · V[row_start + i, j]` — the
/// block projection update `W ← W − VH` (callers pass `alphas = −H`).
/// Every stored block is decoded once for all `nw` vectors; per
/// element of each vector, columns apply one at a time in ascending
/// `j` and `(j, t)` pairs with a zero coefficient are skipped —
/// bit-identical to `nw` independent [`gemv_chunk`] calls on
/// deinterleaved vectors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemv_many_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    col_words: usize,
    col_blocks: usize,
    k: usize,
    row_start: usize,
    alphas: &[f64],
    nw: usize,
    ws: &mut [f64],
) {
    let bs = cfg.block_size();
    let l = cfg.bits();
    let wpb = cfg.words_per_block();
    debug_assert_eq!(row_start % bs, 0);
    debug_assert_eq!(ws.len() % nw, 0);
    let len = ws.len() / nw;
    let first_block = row_start / bs;
    let sw_rows = MANY_SUBWINDOW_BLOCKS * bs;
    for t0 in (0..nw).step_by(MANY_NW_TILE) {
        let tl = MANY_NW_TILE.min(nw - t0);
        let mut row0 = 0usize;
        while row0 < len {
            let sw_len = sw_rows.min(len - row0);
            let sb = first_block + row0 / bs;
            for j in 0..k {
                let al = &alphas[j * nw + t0..j * nw + t0 + tl];
                if al.iter().all(|&a| a == 0.0) {
                    continue;
                }
                let mut off = 0usize;
                while off < sw_len {
                    let count = bs.min(sw_len - off);
                    let b = sb + off / bs;
                    let emax = exps[j * col_blocks + b];
                    let base = j * col_words + b * wpb;
                    let bw = &words[base..base + wpb];
                    let wrows = &mut ws[(row0 + off) * nw + t0..];
                    if l <= 32 {
                        dispatch_l!(
                            l,
                            axpy_many_block_le32(l, wpb, bw, emax, al, wrows, nw, count)
                        );
                    } else {
                        for i in 0..count {
                            let v = decode_code(wide_code(bw, i, l), emax, l);
                            for (wv, &a) in wrows[i * nw..i * nw + tl].iter_mut().zip(al) {
                                if a != 0.0 {
                                    *wv += a * v;
                                }
                            }
                        }
                    }
                    off += count;
                }
            }
            row0 += sw_len;
        }
    }
}

// ---------------------------------------------------------------------
// Per-block entry points (variable-rate stores pick `l` per block).
// ---------------------------------------------------------------------

/// Decode one block's leading `out.len()` values for a per-block bit
/// length (`2 <= l <= 64`). `bw` must be exactly the block's
/// full-block word span (`words_per_block(l)`), zero-padded past the
/// last code for partial trailing blocks.
#[inline]
pub(crate) fn decode_block(l: u32, bw: &[u32], emax: u32, out: &mut [f64]) {
    if l <= 32 {
        dispatch_l!(l, decode_block_le32(l, bw.len(), bw, emax, out));
    } else {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = decode_code(wide_code(bw, i, l), emax, l);
        }
    }
}

/// Fused decompress-and-dot over one block at a per-block bit length:
/// `acc += Σ_i vᵢ · wᵢ`, row order (bit-compatible with
/// [`decode_block`] followed by a plain dot).
#[inline]
pub(crate) fn dot_block(l: u32, bw: &[u32], emax: u32, w: &[f64], acc: &mut f64) {
    if l <= 32 {
        dispatch_l!(l, dot_block_le32(l, bw.len(), bw, emax, w, acc));
    } else {
        for (i, &wv) in w.iter().enumerate() {
            *acc += decode_code(wide_code(bw, i, l), emax, l) * wv;
        }
    }
}

/// Fused decompress-and-axpy over one block at a per-block bit length:
/// `wᵢ += alpha · vᵢ`.
#[inline]
pub(crate) fn axpy_block(l: u32, bw: &[u32], emax: u32, alpha: f64, w: &mut [f64]) {
    if l <= 32 {
        dispatch_l!(l, axpy_block_le32(l, bw.len(), bw, emax, alpha, w));
    } else {
        for (i, wv) in w.iter_mut().enumerate() {
            *wv += alpha * decode_code(wide_code(bw, i, l), emax, l);
        }
    }
}

/// Fused decompress-and-dots over one block at a per-block bit length
/// against `nw` interleaved vectors: `accs[t] += Σ_i vᵢ ·
/// wrows[i·nw + t]`, each accumulator in row order (bit-compatible
/// with [`dot_block`] per deinterleaved vector). `wrows` starts at the
/// block's first row, pre-offset to the accumulator tile's vector 0.
#[inline]
pub(crate) fn dot_many_block(
    l: u32,
    bw: &[u32],
    emax: u32,
    wrows: &[f64],
    nw: usize,
    count: usize,
    accs: &mut [f64],
) {
    if l <= 32 {
        dispatch_l!(
            l,
            dot_many_block_le32(l, bw.len(), bw, emax, wrows, nw, count, accs)
        );
    } else {
        let tl = accs.len();
        for i in 0..count {
            let v = decode_code(wide_code(bw, i, l), emax, l);
            for (a, &wv) in accs.iter_mut().zip(&wrows[i * nw..i * nw + tl]) {
                *a += v * wv;
            }
        }
    }
}

/// Fused decompress-and-axpy over one block at a per-block bit length
/// into `nw` interleaved vectors: `wrows[i·nw + t] += al[t] · vᵢ`,
/// skipping zero coefficients (bit-compatible with [`axpy_block`] per
/// deinterleaved vector).
#[inline]
pub(crate) fn axpy_many_block(
    l: u32,
    bw: &[u32],
    emax: u32,
    al: &[f64],
    wrows: &mut [f64],
    nw: usize,
    count: usize,
) {
    if l <= 32 {
        dispatch_l!(
            l,
            axpy_many_block_le32(l, bw.len(), bw, emax, al, wrows, nw, count)
        );
    } else {
        let tl = al.len();
        for i in 0..count {
            let v = decode_code(wide_code(bw, i, l), emax, l);
            for (wv, &a) in wrows[i * nw..i * nw + tl].iter_mut().zip(al) {
                if a != 0.0 {
                    *wv += a * v;
                }
            }
        }
    }
}

/// Pack one block for any `l <= 32` through the `u64` staging
/// register, aligned lengths included (`l = 64` keeps its dedicated
/// store loop in `compress_into`; other `l > 32` take
/// [`pack_fields_wide`]).
#[inline]
pub(crate) fn pack_block(l: u32, emax: u32, nearest: bool, chunk: &[f64], bw: &mut [u32]) {
    debug_assert!(l <= 32);
    dispatch_l!(l, pack_fields_le32(l, emax, nearest, chunk, bw));
}

/// Pack one block of wide fields (`32 < l < 64`, not word-aligned)
/// through a `u128` staging register — same single-write-per-word
/// discipline as [`pack_block`], widened so a 63-bit code always fits
/// above the 31 staged bits.
pub(crate) fn pack_fields_wide(l: u32, emax: u32, nearest: bool, chunk: &[f64], bw: &mut [u32]) {
    debug_assert!(l > 32 && l < 64);
    let mut acc: u128 = 0;
    let mut staged: u32 = 0;
    let mut wi = 0usize;
    for &v in chunk {
        acc |= (encode_bits(v.to_bits(), emax, l, nearest) as u128) << staged;
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
                        encode_bits(bits, emax, l, false),
                        "v={v:e} emax={emax} l={l}"
                    );
                }
            }
        }
    }

    /// The predicate-advanced packer writes the same words as the
    /// generic bit writer for every `l <= 32`, full and partial blocks.
    #[test]
    fn pack_matches_write_bits() {
        let data: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.73).sin() * 3.0).collect();
        for l in [2u32, 4, 5, 8, 11, 16, 21, 31, 32] {
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
                    let c = encode_bits(v.to_bits(), emax, l, false);
                    bitpack::write_bits(&mut expect, i * l as usize, l, c);
                }
                let mut got = vec![0u32; wpb];
                pack_block(l, emax, false, chunk, &mut got);
                assert_eq!(got, expect, "l={l} count={count}");
            }
        }
    }
}
