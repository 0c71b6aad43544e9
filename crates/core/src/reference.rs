//! Scalar reference implementation of the FRSZ2 format.
//!
//! This module is the *normative* definition: one value at a time, written
//! to match the six compression steps and four decompression steps of
//! §IV-A/§IV-B of the paper literally. The optimized block codec in
//! [`crate::codec`] is property-tested against it bit-for-bit.

use crate::{mask64, shift_signed};

/// Biased effective exponent of an all-zero (or empty) block:
/// [`effective_exponent`]`(0.0)`. Stores that pre-fill their per-block
/// exponent arrays must use this so a never-written column is
/// indistinguishable from a compressed all-zero column.
pub const ZERO_BLOCK_EXPONENT: u32 = 1;

/// Biased IEEE-754 exponent used for block alignment.
///
/// Normal values use their exponent field; subnormals and zeros behave as
/// biased exponent 1 with *no* implicit leading bit (a subnormal is
/// `0.m · 2^-1022`, which is the `e = 1` scale), so one shared shift rule
/// covers every finite input.
#[inline]
pub fn effective_exponent(v: f64) -> u32 {
    let e = ((v.to_bits() >> 52) & 0x7FF) as u32;
    e.max(1)
}

/// The 53-bit significand with the explicit leading 1 for normal values
/// (step 2 of the compression algorithm); subnormals keep their raw
/// mantissa (their leading bit is genuinely 0).
#[inline]
pub fn explicit_significand(v: f64) -> u64 {
    let bits = v.to_bits();
    let e = (bits >> 52) & 0x7FF;
    let m = bits & mask64(52);
    if e == 0 {
        m
    } else {
        (1u64 << 52) | m
    }
}

/// Maximum effective exponent of a block (step 1). An empty block reports
/// 1, the exponent of zero.
pub fn block_emax(values: &[f64]) -> u32 {
    values
        .iter()
        .map(|&v| effective_exponent(v))
        .max()
        .unwrap_or(ZERO_BLOCK_EXPONENT)
}

/// Compress one finite value against a block exponent `emax` into an
/// `l`-bit code (steps 2–5), truncating the significand.
///
/// Returned code layout (LSB-justified): bit `l−1` = sign, bits
/// `l−2 … 0` = normalized significand with the integer part at bit `l−2`.
pub fn compress_value(v: f64, emax: u32, l: u32) -> u64 {
    debug_assert!(v.is_finite(), "FRSZ2 input must be finite, got {v}");
    debug_assert!((2..=64).contains(&l));
    let e = effective_exponent(v);
    debug_assert!(e <= emax, "emax {emax} smaller than value exponent {e}");
    let sign = (v.to_bits() >> 63) & 1;
    let sig = explicit_significand(v);

    // Step 3: prefix k = emax - e zeros; step 5: keep the top l-1 bits of
    // the 53-bit significand. Both are one signed shift by k + (54 - l).
    let k = (emax - e) as i32;
    let field = shift_signed(sig, k + 54 - l as i32);
    debug_assert!(field <= mask64(l - 1));
    (sign << (l - 1)) | field
}

/// Decompress one `l`-bit code against its block exponent (steps 1–4 of
/// the decompression algorithm).
pub fn decompress_value(c: u64, emax: u32, l: u32) -> f64 {
    debug_assert!((2..=64).contains(&l));
    let sign = (c >> (l - 1)) & 1;
    let field = c & mask64(l - 1);
    if field == 0 {
        // All inserted zeros: the value is (signed) zero.
        return if sign == 1 { -0.0 } else { 0.0 };
    }
    // Step 2: count the inserted zeros. The field is l-1 bits wide with the
    // integer part at bit l-2; k is the distance of the leading 1 from it.
    let k = field.leading_zeros() - (64 - (l - 1));
    let e_new = emax as i32 - k as i32;
    if e_new >= 1 {
        // Normal result. Move the leading 1 to bit 52, then drop it.
        let sig = shift_signed(field, l as i32 - 2 - k as i32 - 52);
        let mantissa = sig & mask64(52);
        debug_assert!(e_new < 0x7FF, "exponent overflow from corrupt emax");
        f64::from_bits((sign << 63) | ((e_new as u64) << 52) | mantissa)
    } else {
        // The leading 1 sits below the normal range: reconstruct the
        // subnormal m · 2^-1074 (truncating bits that fall off).
        let m = shift_signed(field, l as i32 - 2 - 51 - emax as i32);
        f64::from_bits((sign << 63) | (m & mask64(52)))
    }
}

/// Compress a whole block: returns `(emax, codes)` (step 6 stores these).
pub fn compress_block(values: &[f64], l: u32) -> (u32, Vec<u64>) {
    let emax = block_emax(values);
    let codes = values.iter().map(|&v| compress_value(v, emax, l)).collect();
    (emax, codes)
}

/// Decompress a whole block.
pub fn decompress_block(emax: u32, codes: &[u64], l: u32) -> Vec<f64> {
    codes
        .iter()
        .map(|&c| decompress_value(c, emax, l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_exponent_classes() {
        assert_eq!(effective_exponent(1.0), 1023);
        assert_eq!(effective_exponent(-2.0), 1024);
        assert_eq!(effective_exponent(0.0), 1);
        assert_eq!(effective_exponent(-0.0), 1);
        assert_eq!(effective_exponent(f64::MIN_POSITIVE), 1); // min normal, e=1
        assert_eq!(effective_exponent(f64::MIN_POSITIVE / 2.0), 1); // subnormal
    }

    /// The canonical zero-block exponent is the effective exponent of
    /// zero — what `block_emax` reports for empty and all-zero blocks.
    #[test]
    fn zero_block_exponent_is_canonical() {
        assert_eq!(ZERO_BLOCK_EXPONENT, effective_exponent(0.0));
        assert_eq!(block_emax(&[]), ZERO_BLOCK_EXPONENT);
        assert_eq!(block_emax(&[0.0, -0.0]), ZERO_BLOCK_EXPONENT);
    }

    /// The worked example of Figure 3: a two-value block where the second
    /// value's significand is prefixed with k zeros before truncation.
    #[test]
    fn fig3_walkthrough() {
        // v0 = 1.5 = (1.1)_2 · 2^0, v1 = -0.375 = (1.1)_2 · 2^-2.
        let block = [1.5, -0.375];
        let l = 8;
        let (emax, codes) = compress_block(&block, l);
        assert_eq!(emax, 1023); // 2^0 dominates the block
                                // c0: sign 0, field = 1.100000 -> 0b0_1100000
        assert_eq!(codes[0], 0b0110_0000);
        // c1: sign 1, field = 0.011000 (k = 2 inserted zeros) -> 0b1_0011000
        assert_eq!(codes[1], 0b1001_1000);
        // Both survive the round trip exactly: 8 bits suffice here.
        let out = decompress_block(emax, &codes, l);
        assert_eq!(out, block);
    }

    #[test]
    fn exact_roundtrip_when_bits_suffice() {
        // Values whose significands fit in l-1-k bits round-trip exactly.
        let block = [0.5, 0.25, -0.75, 1.0, -1.5, 0.0, 0.625, -0.0625];
        let (emax, codes) = compress_block(&block, 16);
        let out = decompress_block(emax, &codes, 16);
        assert_eq!(out, block);
    }

    #[test]
    fn signed_zero_preserved() {
        let (emax, codes) = compress_block(&[0.0, -0.0], 32);
        let out = decompress_block(emax, &codes, 32);
        assert_eq!(out[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(out[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn truncation_error_is_bounded_one_block_ulp() {
        // Random-ish irrational values; error must stay below
        // 2^(emax-1023-(l-2)) for every l.
        let block: Vec<f64> = (0..32)
            .map(|i| ((i as f64 + 0.5) * 0.701).sin() * 0.9)
            .collect();
        for l in [8u32, 12, 16, 21, 32, 48, 64] {
            let (emax, codes) = compress_block(&block, l);
            let out = decompress_block(emax, &codes, l);
            let ulp = f64::powi(2.0, emax as i32 - 1023 - (l as i32 - 2));
            for (i, (&a, &b)) in block.iter().zip(&out).enumerate() {
                let err = (a - b).abs();
                assert!(err < ulp, "l={l} i={i}: |{a} - {b}| = {err} >= ulp {ulp}");
                // Truncation moves toward zero, never away.
                assert!(b.abs() <= a.abs(), "l={l} i={i}: magnitude grew");
            }
        }
    }

    #[test]
    fn wide_exponent_range_flushes_small_values() {
        // PR02R-style block: exponent spread beyond l-2 bits erases the
        // small value entirely (the Fig. 9b stagnation mechanism).
        let big = 1.0; // e = 1023
        let tiny = f64::powi(2.0, -40); // k = 40 > l-2 for l = 32
        let (emax, codes) = compress_block(&[big, tiny], 32);
        let out = decompress_block(emax, &codes, 32);
        assert_eq!(out[0], 1.0);
        assert_eq!(
            out[1], 0.0,
            "value below the block window must flush to zero"
        );
    }

    #[test]
    fn subnormal_inputs_reconstruct() {
        let sub = f64::MIN_POSITIVE / 4.0;
        let block = [sub, -sub, f64::MIN_POSITIVE, 0.0];
        let (emax, codes) = compress_block(&block, 64);
        assert_eq!(emax, 1);
        let out = decompress_block(emax, &codes, 64);
        // l = 64 leaves 63 bits: plenty for exact subnormal round-trip.
        assert_eq!(out, block);
    }

    #[test]
    fn l64_roundtrip_exact_when_spread_small() {
        // With l = 64 there are 62 fraction bits: any block with exponent
        // spread <= 10 round-trips exactly. Exponents here span 2^-2..2^6.
        let block = [1.0 / 3.0, 87.654321, 100.0, -51.123456789];
        let (emax, codes) = compress_block(&block, 64);
        let out = decompress_block(emax, &codes, 64);
        assert_eq!(out, block);
    }

    #[test]
    fn minimal_l2_encodes_sign_and_saturation() {
        // l = 2: one sign bit + one integer bit. Representable: 0, ±2^emax.
        let (emax, codes) = compress_block(&[1.0, -1.0, 0.25], 2);
        assert_eq!(emax, 1023);
        let out = decompress_block(emax, &codes, 2);
        assert_eq!(out, vec![1.0, -1.0, 0.0]);
    }
}
