//! Software IEEE 754 binary16 with round-to-nearest-even conversions.
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
//! Finite range: max 65504, min normal `2^-14`, min subnormal `2^-24`.
//!
//! The `f64 -> f16` conversion rounds once, directly from the 53-bit
//! significand (no double rounding through `f32`), handles gradual
//! underflow into binary16 subnormals, and saturates past-the-end values
//! to infinity exactly as hardware `cvt.rn.f16.f64` does.

/// IEEE 754 binary16 value stored as its bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct F16(pub u16);

const MAN_BITS: u32 = 10;
const BIAS: i32 = 15;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

/// Round-to-nearest-even right shift of a 64-bit integer.
///
/// Returns `v >> shift` rounded; the result may carry into one bit above
/// the kept field (callers renormalize). `shift >= 64` rounds to zero for
/// any value below `2^63` (all significands here are < `2^53`).
#[inline]
fn rtne_shr(v: u64, shift: u32) -> u64 {
    if shift == 0 {
        return v;
    }
    if shift >= 64 {
        return 0;
    }
    let kept = v >> shift;
    let rem = v & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    if rem > half || (rem == half && kept & 1 == 1) {
        kept + 1
    } else {
        kept
    }
}

impl F16 {
    pub const ZERO: F16 = F16(0);
    pub const ONE: F16 = F16(0x3C00);
    pub const INFINITY: F16 = F16(0x7C00);
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_SUBNORMAL: F16 = F16(0x0001);

    /// Convert from `f64` with a single round-to-nearest-even step.
    pub fn from_f64(x: f64) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 63) as u16) << 15;
        let exp = ((bits >> 52) & 0x7FF) as i32;
        let man = bits & ((1u64 << 52) - 1);

        if exp == 0x7FF {
            return if man == 0 {
                F16(sign | EXP_MASK)
            } else {
                // Preserve the top payload bits, force a quiet NaN.
                F16(sign | EXP_MASK | 0x0200 | ((man >> 42) as u16 & 0x01FF))
            };
        }
        if exp == 0 {
            // f64 subnormals are below 2^-1022, far under the f16
            // subnormal range: they round to (signed) zero.
            return F16(sign);
        }

        let e = exp - 1023;
        let sig53 = (1u64 << 52) | man;
        let et = e + BIAS; // tentative biased f16 exponent

        if et >= 0x1F {
            return F16(sign | EXP_MASK); // overflow to infinity
        }
        if et <= 0 {
            // Subnormal (or zero) target: value = sig53 * 2^(e-52), encode
            // as m * 2^-24, i.e. m = sig53 >> (28 - e) = sig53 >> (43 - et).
            let shift = (43 - et) as u32;
            let m = rtne_shr(sig53, shift);
            // m == 0x400 flows naturally into the smallest normal encoding.
            return F16(sign | m as u16);
        }

        // Normal target: keep the top 11 bits (implicit 1 + 10 mantissa).
        let mut m = rtne_shr(sig53, 52 - MAN_BITS);
        let mut et = et;
        if m == (1 << (MAN_BITS + 1)) {
            // Rounding carried all the way: 1.111..1 -> 10.000..0.
            m >>= 1;
            et += 1;
            if et >= 0x1F {
                return F16(sign | EXP_MASK);
            }
        }
        F16(sign | ((et as u16) << MAN_BITS) | (m as u16 & MAN_MASK))
    }

    /// Convert from `f32` (round-to-nearest-even), via the exact `f64` path.
    pub fn from_f32(x: f32) -> F16 {
        // f32 -> f64 is exact, so a single rounding happens in from_f64.
        F16::from_f64(x as f64)
    }

    /// Widen to `f64` (exact).
    pub fn to_f64(self) -> f64 {
        let sign = ((self.0 >> 15) as u64) << 63;
        let exp = ((self.0 & EXP_MASK) >> MAN_BITS) as i32;
        let man = (self.0 & MAN_MASK) as u64;
        let bits = if exp == 0x1F {
            if man == 0 {
                sign | 0x7FF0_0000_0000_0000
            } else {
                sign | 0x7FF8_0000_0000_0000 | (man << 42)
            }
        } else if exp == 0 {
            if man == 0 {
                sign
            } else {
                // Subnormal: man * 2^-24. Normalize into f64.
                let lz = man.leading_zeros() - (64 - MAN_BITS); // zeros within 10-bit field
                let e = -(BIAS - 1) - 1 - lz as i32; // unbiased exponent of leading 1
                let man52 = (man << (lz + 1 + 42)) & ((1u64 << 52) - 1);
                sign | (((e + 1023) as u64) << 52) | man52
            }
        } else {
            let e = exp - BIAS + 1023;
            sign | ((e as u64) << 52) | (man << 42)
        };
        f64::from_bits(bits)
    }

    /// Widen to `f32` (exact).
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    pub fn is_nan(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & MAN_MASK != 0
    }

    pub fn is_finite(self) -> bool {
        self.0 & EXP_MASK != EXP_MASK
    }

    pub fn to_bits(self) -> u16 {
        self.0
    }

    pub fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }
}

impl std::fmt::Debug for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F16({})", self.to_f64())
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl From<f64> for F16 {
    fn from(x: f64) -> F16 {
        F16::from_f64(x)
    }
}

impl From<F16> for f64 {
    fn from(x: F16) -> f64 {
        x.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values_round_trip() {
        for &(v, bits) in &[
            (0.0, 0x0000u16),
            (1.0, 0x3C00),
            (-1.0, 0xBC00),
            (2.0, 0x4000),
            (0.5, 0x3800),
            (65504.0, 0x7BFF),
            (6.103515625e-5, 0x0400),       // min normal 2^-14
            (5.960464477539063e-8, 0x0001), // min subnormal 2^-24
            (0.333251953125, 0x3555),       // nearest f16 to 1/3
        ] {
            assert_eq!(F16::from_f64(v).to_bits(), bits, "encode {v}");
            assert_eq!(F16::from_bits(bits).to_f64(), v, "decode {bits:#06x}");
        }
    }

    #[test]
    fn negative_zero_preserved() {
        assert_eq!(F16::from_f64(-0.0).to_bits(), 0x8000);
        assert_eq!(
            F16::from_bits(0x8000).to_f64().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(F16::from_f64(65520.0).to_bits(), 0x7C00);
        assert_eq!(F16::from_f64(1e30).to_bits(), 0x7C00);
        assert_eq!(F16::from_f64(-1e30).to_bits(), 0xFC00);
        // Just below the rounding threshold stays finite.
        assert_eq!(F16::from_f64(65519.999).to_bits(), 0x7BFF);
    }

    #[test]
    fn ties_round_to_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even -> 1.0
        assert_eq!(F16::from_f64(1.0 + f64::powi(2.0, -11)).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even -> 1+2^-9
        assert_eq!(
            F16::from_f64(1.0 + 3.0 * f64::powi(2.0, -11)).to_bits(),
            0x3C02
        );
    }

    #[test]
    fn underflow_to_subnormals_and_zero() {
        // 2^-25 is exactly half the smallest subnormal: ties to even -> 0
        assert_eq!(F16::from_f64(f64::powi(2.0, -25)).to_bits(), 0x0000);
        // slightly above half rounds up to the smallest subnormal
        assert_eq!(
            F16::from_f64(f64::powi(2.0, -25) * 1.0001).to_bits(),
            0x0001
        );
        // 2^-24 encodes exactly
        assert_eq!(F16::from_f64(f64::powi(2.0, -24)).to_bits(), 0x0001);
        // deep underflow is zero
        assert_eq!(F16::from_f64(1e-300).to_bits(), 0x0000);
    }

    #[test]
    fn nan_and_infinity() {
        assert!(F16::from_f64(f64::NAN).is_nan());
        assert_eq!(F16::from_f64(f64::INFINITY).to_bits(), 0x7C00);
        assert_eq!(F16::from_f64(f64::NEG_INFINITY).to_bits(), 0xFC00);
        assert!(F16::from_bits(0x7E00).to_f64().is_nan());
        assert_eq!(F16::from_bits(0x7C00).to_f64(), f64::INFINITY);
    }

    #[test]
    fn exhaustive_decode_encode_identity() {
        // Every finite f16 bit pattern must survive decode -> encode.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f64(h.to_f64()).is_nan());
            } else {
                assert_eq!(
                    F16::from_f64(h.to_f64()).to_bits(),
                    bits,
                    "round-trip of {bits:#06x}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_decode_matches_reference() {
        // Independent reference decoder built from powi arithmetic.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if !h.is_finite() {
                continue;
            }
            let s = if bits & 0x8000 != 0 { -1.0 } else { 1.0 };
            let e = ((bits >> 10) & 0x1F) as i32;
            let m = (bits & 0x3FF) as f64;
            let reference = if e == 0 {
                s * m * f64::powi(2.0, -24)
            } else {
                s * (1.0 + m / 1024.0) * f64::powi(2.0, e - 15)
            };
            assert_eq!(h.to_f64(), reference, "decode of {bits:#06x}");
        }
    }
}
