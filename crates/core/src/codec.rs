//! Optimized FRSZ2 block codec.
//!
//! Same format as [`crate::reference`] (property-tested equal), organized
//! for throughput: per-block two-pass compression (exponent scan over the
//! raw `u64` bit patterns, then encode) and dedicated storage paths for
//! word-aligned bit lengths — optimization (3) of §IV-C ("separate
//! compression and decompression routines for `l = 2^x` and `l != 2^x`").
//! Index arithmetic in the hot loops uses 32-bit integers where possible
//! (optimization (4)). Unaligned lengths no longer pay a per-element
//! word-boundary branch: both directions stream through the rolling
//! `u64`-window kernels of the crate-private `kernels` module
//! (decompression gathers each code from a two-word window, compression
//! spills whole words from a staging register), monomorphized for the
//! paper's `l ∈ {16, 21, 32}` — the same kernels both column stores run.
//! Decoding is `decode_scale`'s exact convert-and-scale step wherever
//! it holds, and the paper's count-zero sequence
//! (`decode_count_zero`) below it.

use crate::bitpack;
use crate::kernels::{self, Fixed};
use crate::{mask64, shift_signed};

const MASK52: u64 = (1u64 << 52) - 1;

/// Compression error returned by the validating entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frsz2Error {
    /// Input contained NaN or ±∞ at the given index.
    NonFinite(usize),
}

impl std::fmt::Display for Frsz2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Frsz2Error::NonFinite(i) => {
                write!(f, "FRSZ2 input value at index {i} is not finite")
            }
        }
    }
}

impl std::error::Error for Frsz2Error {}

/// FRSZ2 format parameters: block size `BS` and bit length `l`.
///
/// The paper mandates `BS = 32` on NVIDIA GPUs (warp width, §IV-C) and
/// evaluates `l ∈ {16, 21, 32}`; this implementation accepts any
/// `BS >= 1` and `2 <= l <= 64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frsz2Config {
    block_size: u32,
    bits: u32,
}

impl Default for Frsz2Config {
    /// `frsz2_32`: the configuration the paper recommends.
    fn default() -> Self {
        Frsz2Config::new(32, 32)
    }
}

impl Frsz2Config {
    /// Create a configuration. Significands are truncated to `l − 1`
    /// bits, as in the paper's step 5.
    ///
    /// # Panics
    /// If `block_size == 0` or `bits` is outside `2..=64`.
    pub fn new(block_size: u32, bits: u32) -> Self {
        assert!(block_size >= 1, "block size must be positive");
        assert!((2..=64).contains(&bits), "bit length must be in 2..=64");
        Frsz2Config { block_size, bits }
    }

    /// Values per block (`BS`).
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size as usize
    }

    /// Stored bits per value (`l`).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// `u32` words holding the codes of one (full) block.
    #[inline]
    pub fn words_per_block(&self) -> usize {
        bitpack::words_for(self.block_size as usize, self.bits)
    }

    /// Number of blocks covering `n` values.
    #[inline]
    pub fn blocks_for(&self, n: usize) -> usize {
        n.div_ceil(self.block_size as usize)
    }

    /// Total `u32` code words for `n` values (trailing block padded).
    #[inline]
    pub fn words_for_len(&self, n: usize) -> usize {
        self.blocks_for(n) * self.words_per_block()
    }

    /// Storage bytes for `n` values: code words plus one `u32` exponent
    /// per block (Eq. 3 of the paper).
    pub fn storage_bytes(&self, n: usize) -> usize {
        (self.words_for_len(n) + self.blocks_for(n)) * 4
    }

    /// Average bits per value including the amortized block exponent.
    /// For `BS = 32`, `l = 32` this is the paper's 33 bits/value.
    pub fn bits_per_value(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.storage_bytes(n) as f64 * 8.0 / n as f64
    }

    /// Worst-case absolute error for a value in a block whose largest
    /// magnitude is `block_max`: one ULP of the truncated fraction at
    /// block scale, `2^(emax − 1023 − (l − 2))`.
    ///
    /// Edge cases: an all-zero block (`block_max == 0`) compresses
    /// exactly, so the bound is 0 — not the spurious `2^(-1021-l)` a
    /// naive read of the formula would give (zero's *effective*
    /// exponent is 1, but there is no fraction to truncate). A
    /// subnormal `block_max` also has effective exponent 1 and the
    /// formula stays valid: once `l > 54` every subnormal bit is
    /// retained and `exp2i` underflows the bound to exactly 0.
    pub fn worst_case_abs_error(&self, block_max: f64) -> f64 {
        if block_max == 0.0 {
            return 0.0;
        }
        let emax = crate::reference::effective_exponent(block_max) as i32;
        exp2i(emax - 1023 - (self.bits as i32 - 2))
    }

    /// Short name in the paper's nomenclature, e.g. `frsz2_32`.
    pub fn name(&self) -> String {
        format!("frsz2_{}", self.bits)
    }
}

/// `2^e` for possibly far-out-of-range `e`, without `powi` edge surprises.
#[inline]
fn exp2i(e: i32) -> f64 {
    if e >= 1024 {
        f64::INFINITY
    } else if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e >= -1074 {
        f64::from_bits(1u64 << (e + 1074))
    } else {
        0.0
    }
}

/// Encode the raw bits of one finite `f64` against `emax` (shared by all
/// storage paths; same math as `reference::compress_value`).
#[inline(always)]
pub(crate) fn encode_bits(bits: u64, emax: u32, l: u32) -> u64 {
    let e = ((bits >> 52) & 0x7FF) as u32;
    let sign = bits >> 63;
    let m = bits & MASK52;
    let (e_eff, sig) = if e == 0 {
        (1, m)
    } else {
        (e, m | (1u64 << 52))
    };
    let shift = (emax - e_eff) as i32 + 54 - l as i32;
    (sign << (l - 1)) | shift_signed(sig, shift)
}

/// The block scale `2^(emax − 1021 − l)` of the convert-and-scale
/// decode, or `None` below its threshold.
///
/// For `l <= 32` and `emax >= l − 1`, every `l`-bit code of the block
/// decodes to `±field · 2^(emax − 1021 − l)`, a normal number or a
/// signed zero, and the scale is itself normal. An integer below
/// `2^31` times a normal power of two is exact whenever the product is
/// normal, so [`decode_scaled`] gives the bits of the paper's
/// count-zero sequence ([`decode_count_zero`]) in one convert, one
/// multiply and one OR. Below the threshold — a block whose largest
/// magnitude is under ~`2^(l − 1024)`, or a never-written block, whose
/// `emax` is 1 — the scale would be subnormal, and the count-zero
/// sequence decodes.
#[inline(always)]
pub(crate) fn decode_scale(emax: u32, l: u32) -> Option<f64> {
    (l <= 32 && emax >= l - 1).then(|| f64::from_bits(u64::from(emax + 2 - l) << 52))
}

/// Decode one `l`-bit code (`l <= 32`) with its block's
/// [`decode_scale`]: the field converted exactly, scaled, and the sign
/// bit OR-ed in (so field 0 gives ±0).
#[inline(always)]
pub(crate) fn decode_scaled(c: u64, scale: f64, l: u32) -> f64 {
    // The field has at most 31 bits: the signed conversion is exact and
    // one instruction.
    let field = (c & mask64(l - 1)) as i64 as f64;
    f64::from_bits((field * scale).to_bits() | ((c >> (l - 1)) << 63))
}

/// Decode one `l`-bit code against its block exponent (shared by all
/// storage paths; same bits as `reference::decompress_value`): the
/// convert-and-scale rule where [`decode_scale`] holds, the count-zero
/// sequence otherwise. The per-block kernels pick the path once per
/// block instead.
#[inline(always)]
pub(crate) fn decode_code(c: u64, emax: u32, l: u32) -> f64 {
    match decode_scale(emax, l) {
        Some(scale) => decode_scaled(c, scale, l),
        None => decode_count_zero(c, emax, l),
    }
}

/// The paper's decode (§IV-B), which the `gpusim` kernels also model:
/// count the zeros the encoder inserted, then rebuild the exponent and
/// the significand bit by bit. The fallback below [`decode_scale`]'s
/// threshold and for `l > 32`.
#[inline(always)]
pub(crate) fn decode_count_zero(c: u64, emax: u32, l: u32) -> f64 {
    let sign = (c >> (l - 1)) & 1;
    let field = c & mask64(l - 1);
    if field == 0 {
        return f64::from_bits(sign << 63);
    }
    // count_zero intrinsic of §IV-C: position of the first retained 1.
    let k = field.leading_zeros() - (64 - (l - 1));
    let e_new = emax as i32 - k as i32;
    if e_new >= 1 {
        let sig = shift_signed(field, l as i32 - 2 - k as i32 - 52);
        f64::from_bits((sign << 63) | ((e_new as u64) << 52) | (sig & MASK52))
    } else {
        let m = shift_signed(field, l as i32 - 2 - 51 - emax as i32);
        f64::from_bits((sign << 63) | (m & MASK52))
    }
}

/// Compress `input` into caller-provided storage.
///
/// `words.len() >= cfg.words_for_len(input.len())` and
/// `exps.len() >= cfg.blocks_for(input.len())`. Word regions of partial
/// trailing blocks are zero-filled so buffers are fully initialized.
pub fn compress_into(cfg: Frsz2Config, input: &[f64], words: &mut [u32], exps: &mut [u32]) {
    let bs = cfg.block_size as usize;
    let wpb = cfg.words_per_block();
    debug_assert!(words.len() >= cfg.words_for_len(input.len()));
    debug_assert!(exps.len() >= cfg.blocks_for(input.len()));

    for (b, chunk) in input.chunks(bs).enumerate() {
        // Pass 1 (step 1): the block's maximum effective exponent. On the
        // GPU this is the warp-shuffle butterfly reduction; here it is a
        // plain scan over the raw exponent fields — the `e = 0 → 1`
        // effective-exponent fixup folds into the `max` with the
        // initial 1, so the loop body is two shifts and a max.
        let mut emax = crate::reference::ZERO_BLOCK_EXPONENT;
        for &v in chunk {
            debug_assert!(v.is_finite(), "FRSZ2 input must be finite");
            emax = emax.max(((v.to_bits() >> 52) & 0x7FF) as u32);
        }
        exps[b] = emax;

        // Pass 2 (steps 2-6): encode and store. Codes stream through
        // the staging registers of `kernels` (no read-modify-write, no
        // per-element word-boundary branching).
        let block_words = &mut words[b * wpb..(b + 1) * wpb];
        if chunk.len() < bs {
            block_words.fill(0);
        }
        kernels::pack_block(cfg.bits, emax, chunk, block_words);
    }
}

/// Decompress values `row_start .. row_start + out.len()`.
///
/// `row_start` must be block-aligned; the range must lie within `len`.
/// An empty range is a no-op.
pub fn decompress_range(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    len: usize,
    row_start: usize,
    out: &mut [f64],
) {
    kernels::decode_range(&Fixed::column(cfg, words, exps), 0, len, row_start, out);
}

/// Random access to value `i` (§IV-B: only the block exponent is needed
/// in addition to the value's own code word(s)).
pub fn get(cfg: Frsz2Config, words: &[u32], exps: &[u32], i: usize) -> f64 {
    kernels::load(&Fixed::column(cfg, words, exps), i, 0)
}

/// An owned FRSZ2-compressed vector: code words plus the separate
/// per-block exponent array.
#[derive(Clone, Debug)]
pub struct Frsz2Vector {
    cfg: Frsz2Config,
    len: usize,
    words: Vec<u32>,
    exps: Vec<u32>,
}

impl Frsz2Vector {
    /// Compress `data`. Panics in debug builds on non-finite input; use
    /// [`Frsz2Vector::try_compress`] to validate.
    pub fn compress(cfg: Frsz2Config, data: &[f64]) -> Self {
        let mut words = vec![0u32; cfg.words_for_len(data.len())];
        let mut exps = vec![0u32; cfg.blocks_for(data.len())];
        compress_into(cfg, data, &mut words, &mut exps);
        Frsz2Vector {
            cfg,
            len: data.len(),
            words,
            exps,
        }
    }

    /// Validating compression: rejects NaN/±∞ inputs.
    pub fn try_compress(cfg: Frsz2Config, data: &[f64]) -> Result<Self, Frsz2Error> {
        if let Some(i) = data.iter().position(|v| !v.is_finite()) {
            return Err(Frsz2Error::NonFinite(i));
        }
        Ok(Self::compress(cfg, data))
    }

    /// Decompress the whole vector into a fresh allocation.
    pub fn decompress(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        self.decompress_into(&mut out);
        out
    }

    /// Decompress the whole vector into `out` (must match `len`).
    pub fn decompress_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len);
        decompress_range(self.cfg, &self.words, &self.exps, self.len, 0, out);
    }

    /// Decompress a block-aligned sub-range.
    pub fn decompress_range(&self, row_start: usize, out: &mut [f64]) {
        decompress_range(self.cfg, &self.words, &self.exps, self.len, row_start, out);
    }

    /// Random access to element `i`.
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.len);
        get(self.cfg, &self.words, &self.exps, i)
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The format parameters this vector was compressed with.
    pub fn config(&self) -> Frsz2Config {
        self.cfg
    }

    /// Compressed size in bytes (Eq. 3).
    pub fn storage_bytes(&self) -> usize {
        (self.words.len() + self.exps.len()) * 4
    }

    /// Achieved bits per value including block exponents.
    pub fn bits_per_value(&self) -> f64 {
        self.cfg.bits_per_value(self.len)
    }

    /// Worst-case absolute error for the block containing element `i`,
    /// from that block's stored exponent.
    pub fn block_error_bound(&self, i: usize) -> f64 {
        let emax = self.exps[i / self.cfg.block_size as usize] as i32;
        exp2i(emax - 1023 - (self.cfg.bits as i32 - 2))
    }

    /// Stored per-block biased exponents.
    pub fn exponents(&self) -> &[u32] {
        &self.exps
    }

    /// Raw code words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference;

    /// The decode rule's exactness grid: every `l` in `2..=32`, every
    /// `emax` in `1..=l + 70` plus 1023, 1500 and 2046, and per pair
    /// 4,096 codes — 0, sign-only, 1 and all-ones, then pseudo-random
    /// ones — handed to `f(l, emax, codes)`.
    pub(crate) fn decode_grid(mut f: impl FnMut(u32, u32, &[u64])) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut codes = Vec::with_capacity(4096);
        for l in 2u32..=32 {
            let m = mask64(l);
            for emax in (1..=l + 70).chain([1023, 1500, 2046]) {
                codes.clear();
                codes.extend([0, 1 << (l - 1), 1, m]);
                while codes.len() < 4096 {
                    // splitmix64
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    codes.push((z ^ (z >> 31)) & m);
                }
                f(l, emax, &codes);
            }
        }
    }

    /// The convert-and-scale rule gives `reference::decompress_value`'s
    /// bits wherever it applies (`emax >= l − 1`), and below that
    /// threshold `decode_code` takes the count-zero path.
    #[test]
    fn decode_rule_is_exact() {
        decode_grid(|l, emax, codes| {
            let scale = decode_scale(emax, l);
            assert_eq!(scale.is_some(), emax >= l - 1, "l={l} emax={emax}");
            for &c in codes {
                let want = reference::decompress_value(c, emax, l).to_bits();
                let got = decode_code(c, emax, l).to_bits();
                assert_eq!(got, want, "decode_code l={l} emax={emax} code={c:#x}");
                if let Some(s) = scale {
                    let got = decode_scaled(c, s, l).to_bits();
                    assert_eq!(got, want, "decode_scaled l={l} emax={emax} code={c:#x}");
                } else {
                    let got = decode_count_zero(c, emax, l).to_bits();
                    assert_eq!(got, want, "count zero l={l} emax={emax} code={c:#x}");
                }
            }
        });
        // Wide fields never take the rule.
        assert!(decode_scale(2046, 33).is_none());
    }

    fn wave(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.61).sin() * 0.8).collect()
    }

    #[test]
    fn matches_reference_for_all_paths() {
        let data = wave(100); // 3 full blocks + partial block of 4
        for l in [8u32, 16, 21, 32, 64, 11, 48] {
            let cfg = Frsz2Config::new(32, l);
            let v = Frsz2Vector::compress(cfg, &data);
            for (b, chunk) in data.chunks(32).enumerate() {
                let (emax, codes) = reference::compress_block(chunk, l);
                assert_eq!(v.exponents()[b], emax, "l={l} block {b} emax");
                let expect = reference::decompress_block(emax, &codes, l);
                for (i, &x) in expect.iter().enumerate() {
                    let got = v.get(b * 32 + i);
                    assert_eq!(got.to_bits(), x.to_bits(), "l={l} value {}", b * 32 + i);
                }
            }
        }
    }

    #[test]
    fn range_and_full_decompression_agree() {
        let data = wave(256);
        let cfg = Frsz2Config::new(32, 21);
        let v = Frsz2Vector::compress(cfg, &data);
        let full = v.decompress();
        let mut range = vec![0.0; 64];
        v.decompress_range(96, &mut range);
        assert_eq!(&full[96..160], &range[..]);
        // Partial trailing reads work too.
        let mut tail = [0.0; 16];
        v.decompress_range(224, &mut tail[..]);
        assert_eq!(&full[224..240], &tail[..]);
    }

    #[test]
    fn storage_matches_eq3() {
        // Paper: BS=32, l=32 -> (32*32+32)/32 = 33 bits per value.
        let cfg = Frsz2Config::new(32, 32);
        assert_eq!(cfg.storage_bytes(32), 33 * 4);
        assert!((cfg.bits_per_value(3200) - 33.0).abs() < 1e-12);
        // l=21: 21 words of codes + 1 exponent word per 32 values.
        let cfg21 = Frsz2Config::new(32, 21);
        assert_eq!(cfg21.words_per_block(), 21);
        assert_eq!(cfg21.storage_bytes(32), 22 * 4);
        assert!((cfg21.bits_per_value(3200) - 22.0).abs() < 1e-12);
        // l=16 halves the code storage.
        assert_eq!(Frsz2Config::new(32, 16).storage_bytes(32), 17 * 4);
    }

    #[test]
    fn partial_trailing_block() {
        let data = wave(37);
        let cfg = Frsz2Config::new(32, 32);
        let v = Frsz2Vector::compress(cfg, &data);
        assert_eq!(v.exponents().len(), 2);
        let out = v.decompress();
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            assert!((a - b).abs() <= v.block_error_bound(i), "value {i}");
        }
    }

    #[test]
    fn try_compress_rejects_non_finite() {
        let cfg = Frsz2Config::default();
        assert_eq!(
            Frsz2Vector::try_compress(cfg, &[1.0, f64::NAN]).unwrap_err(),
            Frsz2Error::NonFinite(1)
        );
        assert_eq!(
            Frsz2Vector::try_compress(cfg, &[f64::INFINITY]).unwrap_err(),
            Frsz2Error::NonFinite(0)
        );
        assert!(Frsz2Vector::try_compress(cfg, &[1.0, -2.0]).is_ok());
    }

    #[test]
    fn empty_input() {
        let v = Frsz2Vector::compress(Frsz2Config::default(), &[]);
        assert!(v.is_empty());
        assert_eq!(v.decompress(), Vec::<f64>::new());
        assert_eq!(v.storage_bytes(), 0);
    }

    #[test]
    fn error_bound_holds_per_block() {
        let data: Vec<f64> = (0..640)
            .map(|i| ((i as f64) * 0.713).sin() * f64::powi(10.0, (i % 7) - 3))
            .collect();
        for l in [16u32, 21, 32] {
            let v = Frsz2Vector::compress(Frsz2Config::new(32, l), &data);
            let out = v.decompress();
            for i in 0..data.len() {
                let err = (data[i] - out[i]).abs();
                assert!(
                    err < v.block_error_bound(i),
                    "l={l} i={i}: err {err} bound {}",
                    v.block_error_bound(i)
                );
            }
        }
    }

    #[test]
    fn different_block_sizes() {
        let data = wave(300);
        for bs in [1u32, 4, 8, 16, 32, 64, 128, 256] {
            let cfg = Frsz2Config::new(bs, 32);
            let v = Frsz2Vector::compress(cfg, &data);
            let out = v.decompress();
            for i in 0..data.len() {
                assert!(
                    (data[i] - out[i]).abs() <= v.block_error_bound(i),
                    "bs={bs} i={i}"
                );
            }
        }
    }

    #[test]
    fn smaller_blocks_never_less_accurate() {
        // Smaller blocks have tighter emax, so per-value error can only
        // shrink; checks the BS quality/throughput trade-off direction.
        let data: Vec<f64> = (0..256)
            .map(|i| ((i as f64) * 0.917).cos() * f64::powi(2.0, (i % 13) - 6))
            .collect();
        let err = |bs: u32| -> f64 {
            let v = Frsz2Vector::compress(Frsz2Config::new(bs, 32), &data);
            let out = v.decompress();
            data.iter().zip(&out).map(|(a, b)| (a - b).abs()).sum()
        };
        let (e8, e32, e128) = (err(8), err(32), err(128));
        assert!(e8 <= e32 + 1e-300, "BS=8 ({e8}) worse than BS=32 ({e32})");
        assert!(
            e32 <= e128 + 1e-300,
            "BS=32 ({e32}) worse than BS=128 ({e128})"
        );
    }

    #[test]
    fn exp2i_edges() {
        assert_eq!(exp2i(0), 1.0);
        assert_eq!(exp2i(-1022), f64::MIN_POSITIVE);
        assert_eq!(exp2i(-1074), f64::from_bits(1));
        assert_eq!(exp2i(-1075), 0.0);
        assert_eq!(exp2i(1023), f64::MAX / (2.0 - f64::EPSILON));
        assert_eq!(exp2i(1024), f64::INFINITY);
    }
}
