//! Number formats and the storage/arithmetic accessor abstraction.
//!
//! The CB-GMRES algorithm of Aliaga et al. stores the Krylov basis in a
//! *storage format* that may be narrower than the *arithmetic format*
//! (IEEE binary64). Ginkgo realizes this with its "accessor"; this crate
//! provides the equivalent Rust abstraction:
//!
//! * [`StoredScalar`] — a value-level storage format (a plain cast such as
//!   `f32`, [`F16`], [`BF16`], or `f64` itself),
//! * [`ColumnStorage`] — a column-major matrix whose columns are written
//!   once (compressed) and then re-read many times (decompressed on the
//!   fly), which is exactly the Krylov-basis access pattern,
//! * [`DenseStore`] — the `ColumnStorage` implementation for value-level
//!   casts,
//! * [`tiled`] — the register-tiled multi-RHS kernel pair every store's
//!   `dots_many_chunk`/`gemv_many_chunk` runs.
//!
//! Block-based formats (FRSZ2) implement [`ColumnStorage`] in the `frsz2`
//! crate; the solver in `krylov` is generic over the trait, mirroring how
//! the paper's implementation funnels every decompression through the
//! accessor interface (§IV-C).
//!
//! `binary16` is implemented from scratch here (no `half` dependency): the
//! float16 storage format is one of the compression baselines under study,
//! so its rounding behaviour is part of the system being reproduced.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod accessor;
pub mod bf16;
pub mod f16;
pub mod tiled;

pub use accessor::{ColumnStorage, DenseStore, StoredScalar};
pub use bf16::BF16;
pub use f16::F16;

/// Storage cost in bits per value of each value-level format.
///
/// Block formats report their own effective rate (e.g. FRSZ2 with
/// `BS = 32`, `l = 32` needs 33 bits/value on average, Eq. 3 of the paper).
pub fn bits_per_value<T: StoredScalar>() -> usize {
    std::mem::size_of::<T>() * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_value_matches_width() {
        assert_eq!(bits_per_value::<f64>(), 64);
        assert_eq!(bits_per_value::<f32>(), 32);
        assert_eq!(bits_per_value::<F16>(), 16);
        assert_eq!(bits_per_value::<BF16>(), 16);
    }
}
