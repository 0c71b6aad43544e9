//! Lossy floating-point compressors used as comparison baselines.
//!
//! The paper evaluates FRSZ2 against the three leading scientific-data
//! compressor families through LibPressio (§V-D): SZ (prediction +
//! error-bounded quantization), SZ3 (interpolation prediction) and ZFP
//! (block transform + embedded coding). This crate reimplements each
//! family from scratch in Rust — not bit-compatible with the C
//! libraries, but algorithmically faithful where it matters for the
//! experiments: the *error structure* each decorrelation strategy
//! imprints on uncorrelated Krylov data, the supported error-bound modes
//! (absolute, pointwise-relative, fixed-rate), and realistic compressed
//! sizes (entropy-coded with a real Huffman stage).
//!
//! The paper uses the codecs in round-trip mode only ("compressing and
//! immediately decompressing the Krylov vectors", §V-D);
//! [`RoundTripStore`] reproduces that wiring as a
//! [`numfmt::ColumnStorage`] so the CB-GMRES solver can run over any of
//! them unchanged.

pub mod bitstream;
pub mod cast;
pub mod frsz2_adapter;
pub mod huffman;
pub mod pwrel;
pub mod quantizer;
pub mod registry;
pub mod roundtrip;
pub mod sz;
pub mod zfp;

pub use roundtrip::RoundTripStore;

/// Why [`Compressor::decompress`] refused a byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ends before the data it declares, or declares a count
    /// that its remaining bits cannot hold.
    Truncated,
    /// The stream contradicts itself or the requested length; the text
    /// names what disagrees.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "compressed stream is truncated"),
            DecodeError::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A lossy compressor for `f64` streams.
///
/// `decompress(compress(x), x.len())` must return `Ok` with a slice of
/// the same length whose error respects the codec's configured bound.
/// Any other byte string decodes to `Ok` or a [`DecodeError`], never a
/// panic, and sizes no allocation from a count the stream cannot back.
pub trait Compressor: Send + Sync {
    /// Configuration-bearing display name (e.g. `sz3_abs_1e-8`).
    fn name(&self) -> String;

    /// Compress to a self-contained byte stream.
    fn compress(&self, data: &[f64]) -> Vec<u8>;

    /// Reconstruct `n` values from a stream produced by [`Self::compress`].
    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, DecodeError>;

    /// LibPressio-style round trip: compress, immediately decompress
    /// into `out`, and report the compressed size in bits.
    fn roundtrip(&self, data: &[f64], out: &mut [f64]) -> usize {
        let bytes = self.compress(data);
        let dec = self
            .decompress(&bytes, data.len())
            .expect("a codec decodes the stream it just wrote");
        out.copy_from_slice(&dec);
        bytes.len() * 8
    }

    /// Achieved bits per value on `data` (measures one compression).
    fn bits_per_value(&self, data: &[f64]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        self.compress(data).len() as f64 * 8.0 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity64;
    impl Compressor for Identity64 {
        fn name(&self) -> String {
            "identity".into()
        }
        fn compress(&self, data: &[f64]) -> Vec<u8> {
            data.iter().flat_map(|v| v.to_le_bytes()).collect()
        }
        fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, DecodeError> {
            Ok((0..n)
                .map(|i| f64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap()))
                .collect())
        }
    }

    #[test]
    fn default_roundtrip_reports_bits() {
        let data = [1.0, -2.5, 3.25];
        let mut out = [0.0; 3];
        let bits = Identity64.roundtrip(&data, &mut out);
        assert_eq!(out, data);
        assert_eq!(bits, 3 * 64);
        assert_eq!(Identity64.bits_per_value(&data), 64.0);
    }
}
