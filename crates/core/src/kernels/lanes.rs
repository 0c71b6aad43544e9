//! AVX-512 lane drivers for `decode_range`, `dots_chunk`, `gemv_chunk`
//! and `gemv_dots_chunk` on stores with 32-value blocks (the layout is
//! described in the parent module's doc).
//!
//! Every driver here computes what its scalar twin in the parent
//! module computes, operation for operation: each decoded value has
//! the same bits (the convert-and-scale rule is exact, and blocks it
//! does not cover go through the scalar per-block kernels), updates
//! keep a separate multiply and add with zero coefficients skipped and
//! columns in ascending `j`, and each dot keeps one accumulator that
//! adds its rows in order. The unit tests below hold every driver to
//! its scalar twin.
//!
//! `unsafe` is confined to the memory accesses (each states the bound
//! it relies on) and to the calls into the `#[target_feature]` drivers,
//! which only an [`Avx512`] token makes.

use super::{
    decode_block, dots_block, first_block, gemv_block, gemv_dots_block, Blocks, FUSED_TILE,
};
use crate::codec::decode_scale;
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Values per block the lanes decode: the paper's block size.
const BS: usize = 32;

/// Values per vector: one 64-bit lane each.
const LANES: usize = 8;

/// Proof that this CPU runs the lane drivers: AVX-512 F, BW, DQ and
/// VBMI, detected once per process. Only [`Avx512::detect`] makes one,
/// so its methods may call the `#[target_feature]` drivers.
#[derive(Clone, Copy)]
pub(super) struct Avx512(());

impl Avx512 {
    /// The lane drivers, if this CPU has the features.
    fn detect() -> Option<Self> {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        DETECTED
            .get_or_init(|| {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vbmi")
            })
            .then_some(Avx512(()))
    }

    /// The lane drivers for `m`, if this CPU has them and `m` has
    /// 32-value blocks.
    #[inline]
    pub(super) fn for_blocks(m: &impl Blocks) -> Option<Self> {
        if m.block_size() == BS {
            Self::detect()
        } else {
            None
        }
    }

    /// `decode_range` from block `b0` of column `j`.
    pub(super) fn decode_blocks(self, m: &impl Blocks, j: usize, b0: usize, out: &mut [f64]) {
        // SAFETY: an `Avx512` exists only where `detect` found every
        // feature the driver enables.
        unsafe { decode_blocks(m, j, b0, out) }
    }

    /// `dots_chunk`.
    pub(super) fn dots_chunk(
        self,
        m: &impl Blocks,
        k: usize,
        row_start: usize,
        w: &[f64],
        out: &mut [f64],
    ) {
        // SAFETY: as in `decode_blocks`.
        unsafe { dots_chunk(m, k, row_start, w, out) }
    }

    /// `gemv_chunk`.
    pub(super) fn gemv_chunk(
        self,
        m: &impl Blocks,
        k: usize,
        row_start: usize,
        alphas: &[f64],
        w: &mut [f64],
    ) {
        // SAFETY: as in `decode_blocks`.
        unsafe { gemv_chunk(m, k, row_start, alphas, w) }
    }

    /// `gemv_dots_chunk`.
    pub(super) fn gemv_dots_chunk(
        self,
        m: &impl Blocks,
        k: usize,
        row_start: usize,
        alphas: &[f64],
        w: &mut [f64],
        out: &mut [f64],
    ) {
        // SAFETY: as in `decode_blocks`.
        unsafe { gemv_dots_chunk(m, k, row_start, alphas, w, out) }
    }
}

/// The lane constants of one bit length `2 <= l <= 32`. Eight
/// consecutive `l`-bit fields that start on a byte boundary span
/// exactly `l` bytes; these place field `q` in bits `0 .. l` of lane
/// `q` and split it into sign and field.
#[derive(Clone, Copy)]
struct LaneTable {
    /// `vpermb` byte indices, little-endian per lane: lane `q` takes
    /// the 8 bytes from byte `⌊q·l/8⌋` (at most byte 35).
    perm: [u64; LANES],
    /// Right shift `q·l mod 8` per lane: field `q` to bit 0.
    shift: [u64; LANES],
    /// The field: the low `l − 1` bits.
    field: [u64; LANES],
    /// Left shift `64 − l`: the sign bit to bit 63.
    sign: [u64; LANES],
}

/// [`LaneTable`] per bit length (rows 0 and 1 are unused). A `const`,
/// so no lane call builds or allocates anything.
const TABLES: [LaneTable; 33] = {
    let mut t = [LaneTable {
        perm: [0; LANES],
        shift: [0; LANES],
        field: [0; LANES],
        sign: [0; LANES],
    }; 33];
    let mut l = 2;
    while l <= 32 {
        let mut q = 0;
        while q < LANES {
            let mut b = 0;
            while b < 8 {
                t[l].perm[q] |= ((q * l / 8 + b) as u64) << (8 * b);
                b += 1;
            }
            t[l].shift[q] = (q * l % 8) as u64;
            t[l].field[q] = (1 << (l - 1)) - 1;
            t[l].sign[q] = (64 - l) as u64;
            q += 1;
        }
        l += 1;
    }
    t
};

/// One 32-value block that meets the convert-and-scale threshold,
/// decoded 8 rows at a time.
#[derive(Clone, Copy)]
struct PackedBlock<'a> {
    words: &'a [u32],
    l: usize,
    table: &'static LaneTable,
    scale: f64,
}

impl<'a> PackedBlock<'a> {
    /// `None` for `l > 32` and for blocks below the threshold: those
    /// decode through the scalar per-block kernels.
    #[inline(always)]
    fn new(l: u32, words: &'a [u32], emax: u32) -> Option<Self> {
        let scale = decode_scale(emax, l)?;
        // 32 fields of `l` bits are `l` words; `rows` reads no further.
        assert!(words.len() >= l as usize, "a 32-value block spans l words");
        Some(PackedBlock {
            words,
            l: l as usize,
            table: &TABLES[l as usize],
            scale,
        })
    }

    /// Rows `8g .. 8g + 8` of the block (`g < 4`), decoded.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
    #[inline]
    fn rows(&self, g: usize) -> __m512d {
        assert!(g < BS / LANES, "a block has four groups of 8 rows");
        let t = self.table;
        // SAFETY: the mask enables bytes `g·l .. g·l + l`, which lie in
        // the block's first `4·l` bytes since `g < 4`, and `new` asserted
        // that `words` holds `l` words (`4·l` bytes). Masked-off bytes
        // are not read.
        let bytes = unsafe {
            _mm512_maskz_loadu_epi8(
                (1u64 << self.l) - 1,
                self.words.as_ptr().cast::<i8>().add(g * self.l),
            )
        };
        let x = _mm512_srlv_epi64(
            _mm512_permutexvar_epi8(table(&t.perm), bytes),
            table(&t.shift),
        );
        let field = _mm512_cvtepi64_pd(_mm512_and_si512(x, table(&t.field)));
        // The sign bit moved to bit 63 and OR-ed into the scale (one
        // ternary-logic op: `(a & b) | c`): a negative scale signs the
        // product, and a zero field still gives its signed zero.
        let scale = _mm512_ternarylogic_epi64::<0xEA>(
            _mm512_sllv_epi64(x, table(&t.sign)),
            _mm512_set1_epi64(i64::MIN),
            _mm512_castpd_si512(_mm512_set1_pd(self.scale)),
        );
        _mm512_mul_pd(field, _mm512_castsi512_pd(scale))
    }
}

/// One row of a [`LaneTable`].
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn table(row: &[u64; LANES]) -> __m512i {
    // SAFETY: `row` is 64 readable bytes, what the unaligned load reads.
    unsafe { _mm512_loadu_si512(row.as_ptr().cast()) }
}

/// Eight values.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn load8(v: &[f64; LANES]) -> __m512d {
    // SAFETY: `v` is 64 readable bytes, what the unaligned load reads.
    unsafe { _mm512_loadu_pd(v.as_ptr()) }
}

/// One block of values as four vectors.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn load32(v: &[f64; BS]) -> [__m512d; 4] {
    let g = v.as_chunks::<LANES>().0;
    [load8(&g[0]), load8(&g[1]), load8(&g[2]), load8(&g[3])]
}

/// Four vectors into one block of values.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn store32(v: &mut [f64; BS], x: [__m512d; 4]) {
    for (dst, x) in v.as_chunks_mut::<LANES>().0.iter_mut().zip(x) {
        // SAFETY: `dst` is 64 writable bytes, what the unaligned store
        // writes.
        unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), x) }
    }
}

/// The first `out.len() <= 8` lanes from `out`, the rest zero.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn load_n(out: &[f64]) -> __m512d {
    assert!(out.len() <= LANES);
    // SAFETY: the mask enables lanes `0 .. out.len()`, all inside `out`;
    // masked-off lanes are not read.
    unsafe { _mm512_maskz_loadu_pd(((1u16 << out.len()) - 1) as u8, out.as_ptr()) }
}

/// The first `out.len() <= 8` lanes of `x` into `out`.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn store_n(out: &mut [f64], x: __m512d) {
    assert!(out.len() <= LANES);
    // SAFETY: the mask enables lanes `0 .. out.len()`, all inside `out`;
    // masked-off lanes are not written.
    unsafe { _mm512_mask_storeu_pd(out.as_mut_ptr(), ((1u16 << out.len()) - 1) as u8, x) }
}

/// Block `(l, words, emax)` as four vectors: in lanes when it meets
/// the threshold, through the scalar per-block decode otherwise (the
/// same bits either way).
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn decode32(l: u32, words: &[u32], emax: u32) -> [__m512d; 4] {
    match PackedBlock::new(l, words, emax) {
        Some(p) => [p.rows(0), p.rows(1), p.rows(2), p.rows(3)],
        None => {
            let mut t = [0.0; BS];
            decode_block(l, words, emax, &mut t);
            load32(&t)
        }
    }
}

/// `x + a · v` per lane: a separate multiply and add, as the scalar
/// `x += a * v`.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn axpy32(x: [__m512d; 4], a: f64, v: [__m512d; 4]) -> [__m512d; 4] {
    let a = _mm512_set1_pd(a);
    [
        _mm512_add_pd(x[0], _mm512_mul_pd(a, v[0])),
        _mm512_add_pd(x[1], _mm512_mul_pd(a, v[1])),
        _mm512_add_pd(x[2], _mm512_mul_pd(a, v[2])),
        _mm512_add_pd(x[3], _mm512_mul_pd(a, v[3])),
    ]
}

/// Transpose an 8×8 block: lane `c` of result `r` is lane `r` of
/// `v[c]`.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn transpose8(v: [__m512d; LANES]) -> [__m512d; LANES] {
    // 128-bit lanes (0, 2) or (1, 3) of each operand.
    const EVEN: i32 = 0b10_00_10_00;
    const ODD: i32 = 0b11_01_11_01;
    // Pairs interleaved: t0 = v0[0] v1[0] | v0[2] v1[2] | v0[4] v1[4] | v0[6] v1[6].
    let t0 = _mm512_unpacklo_pd(v[0], v[1]);
    let t1 = _mm512_unpackhi_pd(v[0], v[1]);
    let t2 = _mm512_unpacklo_pd(v[2], v[3]);
    let t3 = _mm512_unpackhi_pd(v[2], v[3]);
    let t4 = _mm512_unpacklo_pd(v[4], v[5]);
    let t5 = _mm512_unpackhi_pd(v[4], v[5]);
    let t6 = _mm512_unpacklo_pd(v[6], v[7]);
    let t7 = _mm512_unpackhi_pd(v[6], v[7]);
    // Quads: u0 = v0..v3 at rows 0 and 4, u2 at rows 2 and 6, u1 and
    // u3 likewise at the odd rows; u4..u7 the same for v4..v7.
    let u0 = _mm512_shuffle_f64x2::<EVEN>(t0, t2);
    let u1 = _mm512_shuffle_f64x2::<EVEN>(t1, t3);
    let u2 = _mm512_shuffle_f64x2::<ODD>(t0, t2);
    let u3 = _mm512_shuffle_f64x2::<ODD>(t1, t3);
    let u4 = _mm512_shuffle_f64x2::<EVEN>(t4, t6);
    let u5 = _mm512_shuffle_f64x2::<EVEN>(t5, t7);
    let u6 = _mm512_shuffle_f64x2::<ODD>(t4, t6);
    let u7 = _mm512_shuffle_f64x2::<ODD>(t5, t7);
    [
        _mm512_shuffle_f64x2::<EVEN>(u0, u4),
        _mm512_shuffle_f64x2::<EVEN>(u1, u5),
        _mm512_shuffle_f64x2::<EVEN>(u2, u6),
        _mm512_shuffle_f64x2::<EVEN>(u3, u7),
        _mm512_shuffle_f64x2::<ODD>(u0, u4),
        _mm512_shuffle_f64x2::<ODD>(u1, u5),
        _mm512_shuffle_f64x2::<ODD>(u2, u6),
        _mm512_shuffle_f64x2::<ODD>(u3, u7),
    ]
}

/// `acc` lane `c` plus the dot of `cols[c]` (8 rows of column `c`)
/// with `w`: transposed, so each row adds `v · w[r]` to every column's
/// lane with a separate multiply and add, rows in order.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn dot8(mut acc: __m512d, cols: [__m512d; LANES], w: &[f64; LANES]) -> __m512d {
    for (row, &x) in transpose8(cols).into_iter().zip(w) {
        acc = _mm512_add_pd(acc, _mm512_mul_pd(row, _mm512_set1_pd(x)));
    }
    acc
}

/// The lane `decode_range`: blocks `b0, b0 + 1, …` of column `j` into
/// `out`.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
fn decode_blocks(m: &impl Blocks, j: usize, b0: usize, out: &mut [f64]) {
    for (ob, chunk) in out.chunks_mut(BS).enumerate() {
        let (l, words, emax) = m.block(j, b0 + ob);
        match <&mut [f64; BS]>::try_from(&mut *chunk) {
            Ok(dst) => store32(dst, decode32(l, words, emax)),
            Err(_) => decode_block(l, words, emax, chunk),
        }
    }
}

/// The lane `dots_chunk`: 8 columns per group, one accumulator lane
/// each.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
fn dots_chunk(m: &impl Blocks, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
    let b0 = first_block(BS, row_start);
    let out = &mut out[..k];
    out.fill(0.0);
    for (ob, wc) in w.chunks(BS).enumerate() {
        let b = b0 + ob;
        match <&[f64; BS]>::try_from(wc) {
            Ok(wb) => {
                for (g8, acc) in out.chunks_mut(LANES).enumerate() {
                    dots8(m, g8 * LANES, b, wb, acc);
                }
            }
            Err(_) => dots_block(m, 0, b, wc, out),
        }
    }
}

/// Block `b` of the columns `j0 .. j0 + out.len()` (at most 8) dotted
/// with `w`, added to `out`. A group short of 8 columns repeats its
/// last column in the spare lanes, whose sums are never stored. A group
/// with a block the lanes do not decode runs the scalar per-block
/// kernel for each of its columns instead.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
#[inline]
fn dots8(m: &impl Blocks, j0: usize, b: usize, w: &[f64; BS], out: &mut [f64]) {
    let n = out.len();
    let mut cols = [None; LANES];
    for (c, col) in cols.iter_mut().enumerate() {
        let (l, words, emax) = m.block(j0 + c.min(n - 1), b);
        *col = PackedBlock::new(l, words, emax);
    }
    let [Some(c0), Some(c1), Some(c2), Some(c3), Some(c4), Some(c5), Some(c6), Some(c7)] = cols
    else {
        return dots_block(m, j0, b, w, out);
    };
    let cols = [c0, c1, c2, c3, c4, c5, c6, c7];
    let mut acc = load_n(out);
    for (g, wg) in w.as_chunks::<LANES>().0.iter().enumerate() {
        let mut v = [_mm512_setzero_pd(); LANES];
        for (x, col) in v.iter_mut().zip(&cols) {
            *x = col.rows(g);
        }
        acc = dot8(acc, v, wg);
    }
    store_n(out, acc);
}

/// The lane `gemv_chunk`: a block of `w` stays in four registers while
/// all `k` columns apply to it.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
fn gemv_chunk(m: &impl Blocks, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
    let b0 = first_block(BS, row_start);
    for (ob, wc) in w.chunks_mut(BS).enumerate() {
        let b = b0 + ob;
        let Ok(wb) = <&mut [f64; BS]>::try_from(&mut *wc) else {
            gemv_block(m, k, b, alphas, wc);
            continue;
        };
        let mut x = load32(wb);
        for (j, &a) in alphas.iter().enumerate().take(k) {
            if a != 0.0 {
                let (l, words, emax) = m.block(j, b);
                x = axpy32(x, a, decode32(l, words, emax));
            }
        }
        store32(wb, x);
    }
}

/// The lane `gemv_dots_chunk`: each column's block is decoded into the
/// tile and applied to the four registers of `w` as it lands, then the
/// updated rows are projected on 8 tile columns at a time.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
fn gemv_dots_chunk(
    m: &impl Blocks,
    k: usize,
    row_start: usize,
    alphas: &[f64],
    w: &mut [f64],
    out: &mut [f64],
) {
    if k * BS > FUSED_TILE {
        gemv_chunk(m, k, row_start, alphas, w);
        dots_chunk(m, k, row_start, w, out);
        return;
    }
    let b0 = first_block(BS, row_start);
    let out = &mut out[..k];
    out.fill(0.0);
    let mut tile = [0.0f64; FUSED_TILE];
    let tile = &mut tile[..k * BS];
    for (ob, wc) in w.chunks_mut(BS).enumerate() {
        let b = b0 + ob;
        let Ok(wb) = <&mut [f64; BS]>::try_from(&mut *wc) else {
            gemv_dots_block(m, b, alphas, wc, out, tile);
            continue;
        };
        let mut x = load32(wb);
        for (j, col) in tile.as_chunks_mut::<BS>().0.iter_mut().enumerate() {
            let (l, words, emax) = m.block(j, b);
            let v = decode32(l, words, emax);
            store32(col, v);
            if let Some(&a) = alphas.get(j) {
                if a != 0.0 {
                    x = axpy32(x, a, v);
                }
            }
        }
        store32(wb, x);
        let cols = tile.as_chunks::<BS>().0;
        for (g8, acc_out) in out.chunks_mut(LANES).enumerate() {
            let (j0, n) = (g8 * LANES, acc_out.len());
            let mut acc = load_n(acc_out);
            for (g, wg) in wb.as_chunks::<LANES>().0.iter().enumerate() {
                let mut v = [_mm512_setzero_pd(); LANES];
                for (c, x) in v.iter_mut().enumerate() {
                    *x = load8(&cols[j0 + c.min(n - 1)].as_chunks::<LANES>().0[g]);
                }
                acc = dot8(acc, v, wg);
            }
            store_n(acc_out, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::decode_grid;
    use crate::codec::Frsz2Config;
    use crate::kernels::{
        decode_blocks_scalar, dots_chunk_scalar, gemv_chunk_scalar, gemv_dots_chunk_scalar,
    };
    use crate::{bitpack, reference, Frsz2AdaptiveStore, Frsz2Store};
    use numfmt::ColumnStorage;

    /// The lane drivers, or `None` after saying so on a CPU without
    /// them: the scalar half of each comparison is then all there is.
    fn lanes_or_skip(test: &str) -> Option<Avx512> {
        let lanes = Avx512::detect();
        match lanes {
            Some(_) => println!("{test}: AVX-512 F/BW/DQ/VBMI present, lane drivers ran"),
            None => println!("{test}: skipped, this CPU lacks AVX-512 F/BW/DQ/VBMI"),
        }
        lanes
    }

    /// All 32 values of a block that meets the threshold, in lanes.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vbmi")]
    fn decode_lanes(p: &PackedBlock) -> [f64; BS] {
        let mut out = [0.0; BS];
        store32(&mut out, [p.rows(0), p.rows(1), p.rows(2), p.rows(3)]);
        out
    }

    /// The 8-lane decode gives `reference::decompress_value`'s bits for
    /// every code of the exactness grid, and refuses exactly the blocks
    /// below the threshold.
    #[test]
    fn lane_decode_is_exact() {
        if lanes_or_skip("lane_decode_is_exact").is_none() {
            return;
        }
        let mut words = Vec::new();
        decode_grid(|l, emax, codes| {
            for block in codes.chunks_exact(BS) {
                words.clear();
                words.resize(l as usize, 0);
                for (i, &c) in block.iter().enumerate() {
                    bitpack::write_bits(&mut words, i * l as usize, l, c);
                }
                let Some(p) = PackedBlock::new(l, &words, emax) else {
                    assert!(emax <= l - 2, "l={l} emax={emax} refused");
                    continue;
                };
                // SAFETY: `lanes_or_skip` found every feature the
                // function enables.
                let got = unsafe { decode_lanes(&p) };
                for (&c, v) in block.iter().zip(got) {
                    let want = reference::decompress_value(c, emax, l);
                    assert_eq!(v.to_bits(), want.to_bits(), "l={l} emax={emax} code={c:#x}");
                }
            }
        });
    }

    /// Column `j` with `±0` entries and blocks whose magnitudes spread
    /// over 1,070 binades, so lane groups mix blocks above and below
    /// the decode threshold (and subnormal values).
    fn column(rows: usize, j: usize) -> Vec<f64> {
        (0..rows)
            .map(|i| match (i + j) % 11 {
                0 => 0.0,
                5 => -0.0,
                _ => {
                    let binade = ((i / 32) * 37 + j * 101) % 1071;
                    ((i * 7 + j) as f64 * 0.37).sin() * 2f64.powi(-(binade as i32) + (i % 5) as i32)
                }
            })
            .collect()
    }

    /// Every lane driver against its scalar twin on `m`, bit for bit:
    /// `k` over single, ragged and full lane groups and past the tile,
    /// from row 0 and from block 2, with a ragged trailing block.
    fn assert_lanes_match_scalar(
        lanes: Avx512,
        m: &impl Blocks,
        rows: usize,
        cols: usize,
        label: &str,
    ) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for j in [0, cols - 1] {
            let (mut want, mut got) = (vec![0.0; rows], vec![f64::NAN; rows]);
            decode_blocks_scalar(m, j, 0, &mut want);
            lanes.decode_blocks(m, j, 0, &mut got);
            assert_eq!(bits(&got), bits(&want), "{label} decode col {j}");
        }
        for k in [1, 7, 8, 13, 50, 128, 129]
            .into_iter()
            .filter(|&k| k <= cols)
        {
            for start in [0, 64] {
                let w: Vec<f64> = (start..rows)
                    .map(|i| {
                        if i % 9 == 4 {
                            -0.0
                        } else {
                            (i as f64 * 0.61).cos()
                        }
                    })
                    .collect();
                let label = format!("{label} k={k} start={start}");
                let (mut want, mut got) = (vec![0.0; k], vec![f64::NAN; k]);
                dots_chunk_scalar(m, k, start, &w, &mut want);
                lanes.dots_chunk(m, k, start, &w, &mut got);
                assert_eq!(bits(&got), bits(&want), "{label} dots");

                // Scattered zero coefficients, and all zero (every `-0.0`
                // of `w` must survive).
                let scattered: Vec<f64> = (0..k)
                    .map(|j| {
                        if j % 6 == 2 {
                            0.0
                        } else {
                            (j as f64 * 0.29 + 0.1).sin()
                        }
                    })
                    .collect();
                for (set, alphas) in [("scattered", scattered), ("zero", vec![0.0; k])] {
                    let (mut want, mut got) = (w.clone(), w.clone());
                    gemv_chunk_scalar(m, k, start, &alphas, &mut want);
                    lanes.gemv_chunk(m, k, start, &alphas, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{label} gemv {set}");

                    let (mut want_w, mut got_w) = (w.clone(), w.clone());
                    let (mut want, mut got) = (vec![0.0; k], vec![f64::NAN; k]);
                    gemv_dots_chunk_scalar(m, k, start, &alphas, &mut want_w, &mut want);
                    lanes.gemv_dots_chunk(m, k, start, &alphas, &mut got_w, &mut got);
                    assert_eq!(bits(&got_w), bits(&want_w), "{label} gemv_dots w {set}");
                    assert_eq!(bits(&got), bits(&want), "{label} gemv_dots dots {set}");
                }
            }
        }
    }

    /// The lane drivers run the scalar drivers' operations: same bits
    /// on the uniform store at every bit length (those above 32 fall
    /// back block by block) and on the adaptive store.
    #[test]
    fn lane_drivers_match_scalar_drivers() {
        let Some(lanes) = lanes_or_skip("lane_drivers_match_scalar_drivers") else {
            return;
        };
        let (rows, cols) = (203, 129);
        let data: Vec<Vec<f64>> = (0..cols).map(|j| column(rows, j)).collect();
        for l in (2..=32).chain([40, 64]) {
            let mut st = Frsz2Store::with_config(Frsz2Config::new(32, l), rows, cols);
            for (j, col) in data.iter().enumerate() {
                st.write_column(j, col);
            }
            assert_lanes_match_scalar(lanes, &st.blocks(), rows, cols, &format!("l={l}"));
        }
        let mut st = Frsz2AdaptiveStore::with_shape(rows, cols);
        for (j, col) in data.iter().enumerate() {
            st.write_column(j, col);
        }
        assert_lanes_match_scalar(lanes, &st, rows, cols, "adaptive");
    }
}
