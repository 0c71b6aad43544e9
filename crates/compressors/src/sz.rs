//! SZ-family compressor: predict each value from already-decoded ones,
//! quantize the residual on a `2·eps` lattice, Huffman-code the
//! quantization codes, and store the values the lattice misses raw.
//!
//! SZ and SZ3 are this one pipeline with different predictors:
//!
//! - [`Predictor::Lorenzo`] is SZ 1.x/2.x (Di & Cappello \[4\])
//!   restricted to the 1-D Lorenzo predictor, the only one applicable to
//!   a vector stream: each value is predicted by the previous one.
//! - [`Predictor::Interpolation`] is SZ3's multi-level interpolation
//!   \[3\]: index 0 is stored raw as the anchor, then the stream is
//!   traversed level by level (stride halving each level), each
//!   midpoint predicted by linear interpolation of its already-decoded
//!   neighbours at the current stride.
//!
//! On smooth data the residuals cluster near zero and Huffman crushes
//! them. On uncorrelated Krylov data (§III-A) both predictors miss,
//! residuals span the whole value range, and the scheme pays for its
//! escape mechanism — reproducing the behaviour the paper describes as
//! "ineffective at best or counterproductive at worst". Fig. 5 of the
//! paper shows sz3 needing ~46 bits/value at `1e-8` while converging
//! slower than plain float32; this implementation reproduces that
//! regime.
//!
//! Stream layout (LSB-first bits): `eps` (64), the anchor (64, SZ3 with
//! at least one value), the Huffman-coded symbols, the escape count
//! (40), and each escaped value (64).

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman;
use crate::quantizer::{code_to_symbol, quantize, reconstruct, symbol_to_code, UNPREDICTABLE};
use crate::{Compressor, DecodeError};

/// What predicts each value from the values decoded before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Predictor {
    /// SZ: the previous value (0 before the first).
    Lorenzo,
    /// SZ3: level-by-level linear interpolation from an anchor at index 0.
    Interpolation,
}

impl Predictor {
    /// The codec family this predictor names: `sz` or `sz3`.
    pub(crate) fn family(self) -> &'static str {
        match self {
            Predictor::Lorenzo => "sz",
            Predictor::Interpolation => "sz3",
        }
    }

    /// Visit every coded index of `dec` in decode order: `code(i, pred)`
    /// turns index `i`'s prediction into its decoded value, which lands
    /// in `dec[i]` before the next visit. Encoder and decoder both walk
    /// this way, so their predictions agree bit for bit.
    fn walk(self, dec: &mut [f64], mut code: impl FnMut(usize, f64) -> f64) {
        match self {
            Predictor::Lorenzo => {
                let mut pred = 0.0;
                for (i, d) in dec.iter_mut().enumerate() {
                    *d = code(i, pred);
                    pred = *d;
                }
            }
            Predictor::Interpolation => {
                for (i, l, r) in traversal(dec.len()) {
                    let pred = match r {
                        // Right neighbour at this stride was decoded on a
                        // *previous* (coarser) level, so it is available.
                        Some(ri) => 0.5 * (dec[l] + dec[ri]),
                        None => dec[l],
                    };
                    dec[i] = code(i, pred);
                }
            }
        }
    }
}

/// SZ3 traversal order: index 0 is the anchor (stored raw); at level
/// stride `s`, the indices `s, 3s, 5s, ...` are predicted from
/// neighbours `i − s` and `i + s`. Yields `(index, left, right_opt)`
/// triples in decode order.
fn traversal(n: usize) -> impl Iterator<Item = (usize, usize, Option<usize>)> {
    let top = Some(n.next_power_of_two() / 2).filter(|&s| s > 0);
    std::iter::successors(top, |&s| (s > 1).then_some(s / 2)).flat_map(move |s| {
        (s..n)
            .step_by(2 * s)
            .map(move |i| (i, i - s, (i + s < n).then_some(i + s)))
    })
}

/// SZ-family codec with an absolute point-wise error bound.
#[derive(Clone, Copy, Debug)]
pub struct SzCompressor {
    eps: f64,
    predictor: Predictor,
}

impl SzCompressor {
    /// # Panics
    /// If `eps` is not strictly positive and finite.
    pub fn new(eps: f64, predictor: Predictor) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "invalid error bound {eps}");
        SzCompressor { eps, predictor }
    }
}

impl Compressor for SzCompressor {
    fn name(&self) -> String {
        format!("{}_abs_{:e}", self.predictor.family(), self.eps)
    }

    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(self.eps.to_bits(), 64);
        // Reconstruction-side state: the values the decoder will see.
        let mut dec = vec![0.0f64; data.len()];
        if let (Predictor::Interpolation, Some(&anchor)) = (self.predictor, data.first()) {
            w.write_bits(anchor.to_bits(), 64);
            dec[0] = anchor;
        }
        let mut symbols = Vec::with_capacity(data.len());
        let mut raw = Vec::new();
        self.predictor.walk(&mut dec, |i, pred| {
            match quantize(data[i], pred, self.eps) {
                Some(code) => {
                    symbols.push(code_to_symbol(code));
                    reconstruct(pred, code, self.eps)
                }
                None => {
                    // The decoder sees the exact raw value.
                    symbols.push(UNPREDICTABLE);
                    raw.push(data[i]);
                    data[i]
                }
            }
        });
        huffman::encode(&symbols, &mut w);
        w.write_bits(raw.len() as u64, 40);
        for v in raw {
            w.write_bits(v.to_bits(), 64);
        }
        w.into_bytes()
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, DecodeError> {
        let mut r = BitReader::new(bytes);
        let eps = f64::from_bits(r.read_bits(64));
        let mut dec = vec![0.0f64; n];
        let mut coded = n;
        if let (Predictor::Interpolation, Some(anchor)) = (self.predictor, dec.first_mut()) {
            *anchor = f64::from_bits(r.read_bits(64));
            coded -= 1;
        }
        let symbols = huffman::decode(&mut r)?;
        if symbols.len() != coded {
            return Err(DecodeError::Corrupt("symbol count differs from the length"));
        }
        let escapes = symbols.iter().filter(|&&s| s == UNPREDICTABLE).count();
        if r.read_bits(40) != escapes as u64 {
            return Err(DecodeError::Corrupt(
                "escape count differs from the symbols",
            ));
        }
        // One symbol per visit (checked above); escaped values follow in order.
        let mut symbols = symbols.into_iter();
        self.predictor
            .walk(&mut dec, |_, pred| match symbols.next() {
                Some(UNPREDICTABLE) | None => f64::from_bits(r.read_bits(64)),
                Some(s) => reconstruct(pred, symbol_to_code(s), eps),
            });
        r.finish()?;
        Ok(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LORENZO: Predictor = Predictor::Lorenzo;
    const INTERPOLATION: Predictor = Predictor::Interpolation;

    fn check_bound(data: &[f64], eps: f64) -> f64 {
        let c = SzCompressor::new(eps, LORENZO);
        let bytes = c.compress(data);
        let out = c.decompress(&bytes, data.len()).unwrap();
        let mut max_err = 0.0f64;
        for (a, b) in data.iter().zip(&out) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err <= eps, "error {max_err} > bound {eps}");
        bytes.len() as f64 * 8.0 / data.len() as f64
    }

    #[test]
    fn smooth_data_compresses_well() {
        // Slowly varying signal: Lorenzo prediction nails it.
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64 * 1e-3).sin()).collect();
        let bpv = check_bound(&data, 1e-6);
        assert!(
            bpv < 16.0,
            "smooth data should compress below 16 bits/value, got {bpv}"
        );
    }

    #[test]
    fn uncorrelated_data_compresses_poorly() {
        // Krylov-like: white values in [-1, 1] from a split-mix hash (a
        // plain multiplicative congruence would be piecewise linear and
        // Lorenzo-predictable). With a tight bound the residual entropy
        // is near log2(2/2eps): well above 15 bits.
        let data: Vec<f64> = (0..10_000u64)
            .map(|i| {
                let mut h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 30;
                h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h ^= h >> 27;
                (h >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
            })
            .collect();
        let bpv = check_bound(&data, 1e-6);
        assert!(
            bpv > 15.0,
            "uncorrelated data cannot compress well at 1e-6, got {bpv}"
        );
    }

    #[test]
    fn wide_range_values_escape_to_raw() {
        // Values jumping across many orders of magnitude blow the code
        // window: the escape path must keep them bit-exact.
        let data = vec![1e-300, 1e300, -1e300, 0.0, 1.0, -1e-300];
        let c = SzCompressor::new(1e-9, LORENZO);
        let out = c.decompress(&c.compress(&data), data.len()).unwrap();
        for (a, b) in data.iter().zip(&out) {
            if a.abs() > 1e9 {
                assert_eq!(a, b, "escaped values are exact");
            } else {
                assert!((a - b).abs() <= 1e-9);
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let c = SzCompressor::new(1e-4, LORENZO);
        assert_eq!(c.decompress(&c.compress(&[]), 0), Ok(Vec::new()));
        let one = c.decompress(&c.compress(&[0.123]), 1).unwrap();
        assert!((one[0] - 0.123).abs() <= 1e-4);
    }

    #[test]
    fn tighter_bound_means_more_bits() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.7).sin()).collect();
        let loose = SzCompressor::new(1e-3, LORENZO).bits_per_value(&data);
        let tight = SzCompressor::new(1e-9, LORENZO).bits_per_value(&data);
        assert!(tight > loose, "tight {tight} should exceed loose {loose}");
    }

    #[test]
    fn traversal_visits_each_nonzero_index_once() {
        for n in [1usize, 2, 3, 7, 8, 9, 100, 127, 128, 129] {
            let order = traversal(n);
            let mut seen = vec![false; n];
            seen[0] = true;
            for (i, l, r) in order {
                assert!(!seen[i], "index {i} visited twice (n={n})");
                assert!(seen[l], "left neighbour {l} of {i} not yet decoded (n={n})");
                if let Some(ri) = r {
                    assert!(
                        seen[ri],
                        "right neighbour {ri} of {i} not yet decoded (n={n})"
                    );
                }
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s), "not all indices covered (n={n})");
        }
    }

    #[test]
    fn bound_holds_for_all_shapes() {
        for n in [1usize, 2, 5, 64, 100, 1000] {
            let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin()).collect();
            let c = SzCompressor::new(1e-7, INTERPOLATION);
            let out = c.decompress(&c.compress(&data), n).unwrap();
            for (i, (a, b)) in data.iter().zip(&out).enumerate() {
                assert!((a - b).abs() <= 1e-7, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn smooth_data_beats_sz_lorenzo() {
        // Quadratic signal: interpolation predicts exactly, Lorenzo lags.
        let data: Vec<f64> = (0..20_000)
            .map(|i| {
                let t = i as f64 / 20_000.0;
                t * t
            })
            .collect();
        let sz3 = SzCompressor::new(1e-9, INTERPOLATION).bits_per_value(&data);
        let sz = SzCompressor::new(1e-9, LORENZO).bits_per_value(&data);
        assert!(
            sz3 < sz,
            "interpolation ({sz3}) should beat Lorenzo ({sz}) on smooth data"
        );
        assert!(sz3 < 8.0, "quadratic data should compress hard, got {sz3}");
    }

    #[test]
    fn krylov_like_data_needs_many_bits() {
        // Normalized uncorrelated vector at a tight bound: ~dozens of
        // bits/value (the Fig. 5 sz3_08 regime, 46 bits/value). Data from
        // a split-mix hash so interpolation genuinely has nothing to use.
        let data: Vec<f64> = (0..10_000u64)
            .map(|i| {
                let mut h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 30;
                h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h ^= h >> 27;
                ((h >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0) * 1e-2
            })
            .collect();
        let bpv = SzCompressor::new(1e-8, INTERPOLATION).bits_per_value(&data);
        assert!(bpv > 15.0, "expected poor compression, got {bpv}");
    }

    #[test]
    fn malformed_short_or_mislabelled_streams_are_typed_errors() {
        for predictor in [LORENZO, INTERPOLATION] {
            let c = SzCompressor::new(1e-6, predictor);
            assert_eq!(c.decompress(&[], 10), Err(DecodeError::Truncated));
            let bytes = c.compress(&[0.5, 1e300, 0.25]);
            assert!(
                matches!(c.decompress(&bytes, 4), Err(DecodeError::Corrupt(_))),
                "{predictor:?}: one value too many"
            );
            assert_eq!(
                c.decompress(&bytes[..bytes.len() - 1], 3),
                Err(DecodeError::Truncated),
                "{predictor:?}: the escaped value cut short"
            );
        }
    }
}
