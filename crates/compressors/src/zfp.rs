//! ZFP-style fixed-rate / fixed-accuracy block compressor (Lindstrom \[6\]).
//!
//! 1-D variant of the zfp pipeline on blocks of 4 values:
//!
//! 1. block-floating-point conversion: scale all 4 values by the block's
//!    maximum exponent into 62-bit integers,
//! 2. the zfp lifting transform (a near-orthogonal integer transform —
//!    the decorrelation stage §III-A predicts to be *counterproductive*
//!    on uncorrelated Krylov data),
//! 3. negabinary mapping so magnitude ordering survives sign mixing,
//! 4. embedded (group-tested) bit-plane coding from the most significant
//!    plane down, truncated by either a bit budget (fixed rate, the
//!    `zfp_fr_16`/`zfp_fr_32` rows of Table II) or a tolerance-derived
//!    plane cutoff (fixed accuracy, `zfp_06`/`zfp_10`).
//!
//! Fixed-rate streams are *exactly* `4·rate` bits per block, which is
//! what lets the paper compare `zfp_fr_32` against `float32` at equal
//! memory footprint.

use crate::bitstream::{BitReader, BitWriter};
use crate::{Compressor, DecodeError};
use std::num::Wrapping;

const BLOCK: usize = 4;
/// Block-float integers occupy 60 bits (|i| < 2^60); the lifting
/// transform can grow coefficients by up to 2x and negabinary needs one
/// more bit, so planes run from 63 down.
const TOP_PLANE: i32 = 63;
const NB_MASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Truncation policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ZfpMode {
    /// Exactly `rate` bits per value (`4·rate` per block, header included).
    FixedRate(u32),
    /// Absolute error tolerance.
    FixedAccuracy(f64),
}

/// The compressor.
#[derive(Clone, Copy, Debug)]
pub struct ZfpCompressor {
    mode: ZfpMode,
}

impl ZfpCompressor {
    /// # Panics
    /// On a zero rate, a rate above 64 bits/value, or a non-positive
    /// tolerance.
    pub fn new(mode: ZfpMode) -> Self {
        match mode {
            ZfpMode::FixedRate(r) => {
                assert!((4..=64).contains(&r), "rate must be in 4..=64 bits/value")
            }
            ZfpMode::FixedAccuracy(t) => {
                assert!(t > 0.0 && t.is_finite(), "invalid tolerance {t}")
            }
        }
        ZfpCompressor { mode }
    }
}

/// zfp's forward lifting transform (1-D, 4 values).
#[inline]
fn fwd_lift(p: &mut [i64; 4]) {
    let (mut x, mut y, mut z, mut w) = (p[0], p[1], p[2], p[3]);
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    *p = [x, y, z, w];
}

/// zfp's inverse lifting transform. Wrapping, so that coefficients
/// forged by a corrupt stream cannot overflow; those from a real stream
/// never wrap.
#[inline]
fn inv_lift(p: &mut [i64; 4]) {
    let [mut x, mut y, mut z, mut w] = p.map(Wrapping);
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    *p = [x.0, y.0, z.0, w.0];
}

/// Signed integer -> negabinary.
#[inline]
fn to_negabinary(i: i64) -> u64 {
    ((i as u64).wrapping_add(NB_MASK)) ^ NB_MASK
}

/// Negabinary -> signed integer.
#[inline]
fn from_negabinary(u: u64) -> i64 {
    ((u ^ NB_MASK).wrapping_sub(NB_MASK)) as i64
}

/// Unbiased exponent of the largest magnitude in the block (0 for an
/// all-zero block, flagged separately).
fn block_exponent(vals: &[f64]) -> i32 {
    let mx = vals.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if mx == 0.0 {
        return i32::MIN;
    }
    ((mx.to_bits() >> 52) & 0x7FF) as i32 - 1023
}

/// Exact `2^e` covering the full double range (subnormals included).
fn exp2i(e: i32) -> f64 {
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e >= -1074 {
        f64::from_bits(1u64 << (e + 1074))
    } else {
        0.0
    }
}

/// Lowest encoded plane for a tolerance, given the block exponent:
/// coefficient ULP at plane `p` is `2^(e − 59 + p)`; keep a 3-plane
/// margin for transform gain and truncation accumulation.
fn min_plane(tolerance: f64, e: i32) -> i32 {
    if e == i32::MIN {
        return TOP_PLANE + 1; // all-zero block: nothing to encode
    }
    let tol_exp = tolerance.log2().floor() as i32;
    (tol_exp - (e - 59) - 3).clamp(0, TOP_PLANE + 1)
}

/// Encode one block. In fixed-rate mode writes exactly `budget` bits.
fn encode_block(vals: &[f64; 4], mode: ZfpMode, w: &mut BitWriter) {
    let e = block_exponent(vals);
    let (budget, pmin): (usize, i32) = match mode {
        ZfpMode::FixedRate(r) => ((r as usize) * BLOCK, 0),
        ZfpMode::FixedAccuracy(t) => (usize::MAX, min_plane(t, e)),
    };
    let mut bits_used = 0usize;

    // Header: zero-block flag (1) + 12-bit biased exponent when nonzero.
    if e == i32::MIN {
        w.write_bit(false);
        bits_used += 1;
        pad(w, budget.saturating_sub(bits_used), mode);
        return;
    }
    w.write_bit(true);
    w.write_bits((e + 1023) as u64, 12);
    bits_used += 13;

    // Block-float conversion: x / 2^e ∈ (-2, 2) scaled to 60 bits.
    let scale = exp2i(59 - e);
    let mut ints = [0i64; 4];
    for (i, &v) in vals.iter().enumerate() {
        ints[i] = (v * scale).round() as i64;
    }
    fwd_lift(&mut ints);
    let neg: Vec<u64> = ints.iter().map(|&i| to_negabinary(i)).collect();

    // Embedded coding: group-tested bit planes from the top.
    let mut m = 0usize; // values already known significant
    'planes: for p in (pmin..=TOP_PLANE).rev() {
        for &nb in neg.iter().take(m) {
            if bits_used >= budget {
                break 'planes;
            }
            w.write_bit((nb >> p) & 1 == 1);
            bits_used += 1;
        }
        while m < BLOCK {
            if bits_used >= budget {
                break 'planes;
            }
            // Group test: any not-yet-significant value with this bit set?
            let any = neg[m..].iter().any(|&nb| (nb >> p) & 1 == 1);
            w.write_bit(any);
            bits_used += 1;
            if !any {
                break;
            }
            // Emit bits until the first newly-significant value appears.
            while m < BLOCK {
                if bits_used >= budget {
                    break 'planes;
                }
                let bit = (neg[m] >> p) & 1 == 1;
                w.write_bit(bit);
                bits_used += 1;
                m += 1;
                if bit {
                    break;
                }
            }
        }
    }
    pad(w, budget.saturating_sub(bits_used), mode);
}

/// Fixed-rate blocks are padded to their exact budget.
fn pad(w: &mut BitWriter, missing: usize, mode: ZfpMode) {
    if let ZfpMode::FixedRate(_) = mode {
        for _ in 0..missing {
            w.write_bit(false);
        }
    }
}

/// Decode one block (mirrors `encode_block` decision for decision).
fn decode_block(mode: ZfpMode, r: &mut BitReader) -> [f64; 4] {
    let start = r.bit_pos();
    let budget = match mode {
        ZfpMode::FixedRate(rate) => (rate as usize) * BLOCK,
        ZfpMode::FixedAccuracy(_) => usize::MAX,
    };
    let mut bits_used = 1usize;
    let nonzero = r.read_bit();
    if !nonzero {
        skip_to(r, start, budget, mode);
        return [0.0; 4];
    }
    let e = r.read_bits(12) as i32 - 1023;
    bits_used += 12;
    let pmin = match mode {
        ZfpMode::FixedRate(_) => 0,
        ZfpMode::FixedAccuracy(t) => min_plane(t, e),
    };

    let mut neg = [0u64; 4];
    let mut m = 0usize;
    'planes: for p in (pmin..=TOP_PLANE).rev() {
        for nb in neg.iter_mut().take(m) {
            if bits_used >= budget {
                break 'planes;
            }
            if r.read_bit() {
                *nb |= 1 << p;
            }
            bits_used += 1;
        }
        while m < BLOCK {
            if bits_used >= budget {
                break 'planes;
            }
            let any = r.read_bit();
            bits_used += 1;
            if !any {
                break;
            }
            while m < BLOCK {
                if bits_used >= budget {
                    break 'planes;
                }
                let bit = r.read_bit();
                bits_used += 1;
                if bit {
                    neg[m] |= 1 << p;
                    m += 1;
                    break;
                }
                m += 1;
            }
        }
    }
    skip_to(r, start, budget, mode);

    let mut ints = [0i64; 4];
    for (i, &nb) in neg.iter().enumerate() {
        ints[i] = from_negabinary(nb);
    }
    inv_lift(&mut ints);
    let inv_scale = exp2i(e - 59);
    let mut out = [0.0; 4];
    for (o, &i) in out.iter_mut().zip(&ints) {
        *o = i as f64 * inv_scale;
    }
    out
}

/// Advance the reader to the end of a fixed-rate block.
fn skip_to(r: &mut BitReader, start: usize, budget: usize, mode: ZfpMode) {
    if let ZfpMode::FixedRate(_) = mode {
        let end = start + budget;
        while r.bit_pos() < end {
            r.read_bit();
        }
    }
}

impl Compressor for ZfpCompressor {
    fn name(&self) -> String {
        match self.mode {
            ZfpMode::FixedRate(r) => format!("zfp_fr_{r}"),
            ZfpMode::FixedAccuracy(t) => format!("zfp_abs_{t:e}"),
        }
    }

    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let mut w = BitWriter::new();
        for chunk in data.chunks(BLOCK) {
            let mut block = [0.0; 4];
            block[..chunk.len()].copy_from_slice(chunk);
            encode_block(&block, self.mode, &mut w);
        }
        w.into_bytes()
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, DecodeError> {
        let mut r = BitReader::new(bytes);
        let mut out = Vec::with_capacity(n + BLOCK);
        while out.len() < n {
            out.extend_from_slice(&decode_block(self.mode, &mut r));
        }
        r.finish()?;
        out.truncate(n);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lift_roundtrip_within_one_lsb() {
        // The zfp transform pair is exact except for one floor division
        // in the lowest bit of x.
        let cases = [
            [0i64, 0, 0, 0],
            [1 << 40, -(1 << 39), 12345, -987654321],
            [(1 << 60) - 1, -(1 << 60), 7, -7],
        ];
        for c in cases {
            let mut p = c;
            fwd_lift(&mut p);
            inv_lift(&mut p);
            for i in 0..4 {
                assert!(
                    (p[i] - c[i]).abs() <= 2,
                    "lift roundtrip off by {} at {i} for {c:?}",
                    p[i] - c[i]
                );
            }
        }
    }

    #[test]
    fn negabinary_bijective() {
        for i in [-5i64, -1, 0, 1, 7, 1 << 45, -(1 << 45), i64::MAX / 4] {
            assert_eq!(from_negabinary(to_negabinary(i)), i);
        }
    }

    #[test]
    fn fixed_rate_size_is_exact() {
        for rate in [8u32, 16, 32, 64] {
            let c = ZfpCompressor::new(ZfpMode::FixedRate(rate));
            for n in [4usize, 16, 100, 1001] {
                let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin()).collect();
                let bytes = c.compress(&data);
                let blocks = n.div_ceil(4);
                assert_eq!(
                    bytes.len() * 8,
                    (blocks * 4 * rate as usize).div_ceil(8) * 8,
                    "rate {rate}, n {n}"
                );
            }
        }
    }

    #[test]
    fn fixed_accuracy_bound_holds() {
        let data: Vec<f64> = (0..4096)
            .map(|i| ((i * 2654435761u64 as usize) % 999983) as f64 / 499991.5 - 1.0)
            .collect();
        for tol in [1.4e-6, 4.0e-10, 1e-3] {
            let c = ZfpCompressor::new(ZfpMode::FixedAccuracy(tol));
            let out = c.decompress(&c.compress(&data), data.len()).unwrap();
            for (i, (a, b)) in data.iter().zip(&out).enumerate() {
                assert!(
                    (a - b).abs() <= tol,
                    "tol={tol} i={i}: |{a} - {b}| = {}",
                    (a - b).abs()
                );
            }
        }
    }

    #[test]
    fn fixed_rate_64_nearly_lossless() {
        let data: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
        let c = ZfpCompressor::new(ZfpMode::FixedRate(64));
        let out = c.decompress(&c.compress(&data), data.len()).unwrap();
        for (a, b) in data.iter().zip(&out) {
            // 64 bits/value leaves ~50+ significant bits after headers.
            assert!((a - b).abs() <= a.abs().max(1e-30) * 1e-12);
        }
    }

    #[test]
    fn higher_rate_is_more_accurate() {
        let data: Vec<f64> = (0..1024).map(|i| ((i * i) as f64 * 0.013).sin()).collect();
        let err = |rate| {
            let c = ZfpCompressor::new(ZfpMode::FixedRate(rate));
            let out = c.decompress(&c.compress(&data), data.len()).unwrap();
            data.iter()
                .zip(&out)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        };
        let (e8, e16, e32) = (err(8), err(16), err(32));
        assert!(e32 < e16, "rate 32 ({e32}) must beat rate 16 ({e16})");
        assert!(e16 < e8, "rate 16 ({e16}) must beat rate 8 ({e8})");
    }

    #[test]
    fn zero_blocks_are_cheap_in_accuracy_mode() {
        let mut data = vec![0.0; 4000];
        data[0] = 1.0; // one nonzero block
        let c = ZfpCompressor::new(ZfpMode::FixedAccuracy(1e-9));
        let bytes = c.compress(&data);
        // 999 zero blocks cost 1 bit each.
        assert!(
            bytes.len() < 200,
            "zero blocks should be ~1 bit, got {} bytes",
            bytes.len()
        );
        let out = c.decompress(&bytes, data.len()).unwrap();
        assert!((out[0] - 1.0).abs() <= 1e-9);
        assert!(out[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn partial_trailing_block() {
        let data = vec![0.5, -0.25, 0.125];
        let c = ZfpCompressor::new(ZfpMode::FixedAccuracy(1e-12));
        let out = c.decompress(&c.compress(&data), 3).unwrap();
        assert_eq!(out.len(), 3);
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-12);
        }
    }
}
