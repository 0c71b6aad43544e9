//! FRSZ2 — fixed-rate block-floating-point compression for `f64`.
//!
//! Reproduction of the compressor from *"FRSZ2 for In-Register Block
//! Compression Inside GMRES on GPUs"* (Grützmacher, Underwood, Di,
//! Cappello, Anzt — SC 2024). FRSZ2 groups `BS` consecutive values into a
//! block, extracts the maximum IEEE-754 exponent `emax` of the block,
//! normalizes every significand to that exponent (prefixing `k = emax − e`
//! zero bits), and stores per value only the sign bit plus the top `l − 1`
//! bits of the normalized significand:
//!
//! ```text
//! value ≈ (−1)^s · (c_{l−2} . c_{l−3} … c_0)_2 · 2^(emax − 1023)      (Eq. 2)
//! ```
//!
//! The per-block exponent lives in a separate array (design choice (5) of
//! §IV-C), so the storage cost for `n` values is
//! `⌈n/BS⌉ · ⌈BS·l/32⌉ · 4 + ⌈n/BS⌉ · 4` bytes (Eq. 3).
//!
//! Two independent implementations live here:
//!
//! * [`mod@reference`] — a scalar, value-at-a-time codec written for clarity;
//!   it is the normative definition of the format.
//! * [`codec`] — the optimized block codec with dedicated fast paths for
//!   word-aligned bit lengths (`l ∈ {16, 32, 64}`) and a bit-packed
//!   path for everything else (e.g. the paper's `l = 21`), mirroring
//!   optimization (3) of §IV-C. Its kernels are the same ones both
//!   column stores ([`Frsz2Store`], [`Frsz2AdaptiveStore`]) run. They
//!   decode by one exact convert-and-scale step — for `l <= 32` and a
//!   block exponent `emax >= l − 1`, a code is `±field ·
//!   2^(emax − 1021 − l)`, one integer conversion, one multiply and the
//!   sign OR-ed in — and keep the paper's count-zero sequence for the
//!   blocks below that threshold and for `l > 32`. On x86-64 CPUs with
//!   AVX-512 F, BW, DQ and VBMI (detected once at run time) the
//!   multi-column kernels and chunked decode of 32-value blocks run the
//!   same operations in AVX-512 lanes, 8 values per instruction; every
//!   other host runs the scalar kernels, which stay the reference.
//!
//! Property tests assert the two agree bit-for-bit, and that the
//! worst-case error bound `2^(emax−1023−(l−2))` (one ULP of the truncated
//! fraction at block scale) holds for every input.
//!
//! # Contract
//!
//! Inputs must be finite. NaN and ±∞ have no representation in the format
//! (Krylov vectors are finite by construction); compressing them is a
//! logic error caught by `debug_assert` and the validating
//! [`Frsz2Vector::try_compress`] entry point.
//!
//! # Quick start
//!
//! ```
//! use frsz2::{Frsz2Config, Frsz2Vector};
//!
//! let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() / 3.0).collect();
//! let cfg = Frsz2Config::new(32, 32); // BS = 32, l = 32  ("frsz2_32")
//! let compressed = Frsz2Vector::compress(cfg, &data);
//!
//! // Whole-vector decompression.
//! let restored = compressed.decompress();
//! // Random access (reads only the value's block exponent + its word).
//! let one = compressed.get(617);
//! assert_eq!(one, restored[617]);
//!
//! // Error is bounded by one ULP of the fraction at *block* scale.
//! for (i, (a, b)) in data.iter().zip(&restored).enumerate() {
//!     assert!((a - b).abs() <= compressed.block_error_bound(i));
//! }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod adaptive_store;
pub mod bitpack;
pub mod codec;
pub mod error;
pub(crate) mod kernels;
pub mod reference;
pub mod store;

pub use adaptive_store::Frsz2AdaptiveStore;
pub use codec::{Frsz2Config, Frsz2Vector};
pub use store::Frsz2Store;

/// Mask of the low `n` bits of a `u64` (`n <= 64`).
#[inline(always)]
pub(crate) fn mask64(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Shift `v` right by `s` when `s >= 0`, left by `-s` otherwise, with
/// out-of-range shifts saturating to zero. The codec composes exponent
/// alignment and field extraction into one signed shift.
#[inline(always)]
pub(crate) fn shift_signed(v: u64, s: i32) -> u64 {
    if s >= 64 {
        0
    } else if s >= 0 {
        v >> s
    } else if s <= -64 {
        0
    } else {
        v << (-s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask64_widths() {
        assert_eq!(mask64(0), 0);
        assert_eq!(mask64(1), 1);
        assert_eq!(mask64(31), 0x7FFF_FFFF);
        assert_eq!(mask64(63), u64::MAX >> 1);
        assert_eq!(mask64(64), u64::MAX);
    }

    #[test]
    fn shift_signed_both_directions() {
        assert_eq!(shift_signed(0xF0, 4), 0x0F);
        assert_eq!(shift_signed(0x0F, -4), 0xF0);
        assert_eq!(shift_signed(1, 64), 0);
        assert_eq!(shift_signed(1, 100), 0);
        assert_eq!(shift_signed(1, -64), 0);
        assert_eq!(shift_signed(u64::MAX, 0), u64::MAX);
    }
}
