//! Point-wise relative error bounds via the logarithmic transform
//! (Liang et al. \[12\], the mechanism behind SZ's `pwrel` mode).
//!
//! A relative bound `|x − x̂| ≤ ε·|x|` becomes an *absolute* bound in
//! log space: compress `ln|x|` with bound `ln(1 + ε)` and re-exponentiate.
//! The log stream goes through the SZ-family codec
//! ([`SzCompressor`]) with the wrapper's [`Predictor`]: Lorenzo for
//! `sz_pwrel`, interpolation for `sz3_pwrel`. Signs and exact zeros are
//! carried in side bitmaps. Figure 6 of the paper shows this preserving
//! value magnitudes much better than absolute bounds on Krylov data —
//! "more similar to our FRSZ2 approach".

use crate::bitstream::{BitReader, BitWriter};
use crate::sz::{Predictor, SzCompressor};
use crate::{Compressor, DecodeError};

/// Point-wise-relative wrapper codec.
#[derive(Clone, Copy, Debug)]
pub struct PwrelCompressor {
    predictor: Predictor,
    rel: f64,
}

impl PwrelCompressor {
    /// # Panics
    /// If `rel` is not in `(0, 1)`.
    pub fn new(predictor: Predictor, rel: f64) -> Self {
        assert!(rel > 0.0 && rel < 1.0, "relative bound must be in (0,1)");
        PwrelCompressor { predictor, rel }
    }

    /// The absolute-bound codec of the log stream:
    /// |ln x̂ - ln x| <= ln(1+ε) guarantees x̂/x ∈ [1/(1+ε), 1+ε].
    fn inner(&self) -> SzCompressor {
        SzCompressor::new(self.rel.ln_1p(), self.predictor)
    }
}

impl Compressor for PwrelCompressor {
    fn name(&self) -> String {
        format!("{}_pwrel_{:e}", self.predictor.family(), self.rel)
    }

    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let mut w = BitWriter::new();
        // Bitmaps: sign and zero flags, one bit per value.
        for &x in data {
            w.write_bit(x.is_sign_negative());
        }
        for &x in data {
            w.write_bit(x == 0.0);
        }
        let logs: Vec<f64> = data
            .iter()
            .filter(|&&x| x != 0.0)
            .map(|&x| x.abs().ln())
            .collect();
        let inner = self.inner().compress(&logs);
        w.write_bits(logs.len() as u64, 40);
        w.write_bits(inner.len() as u64, 40);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&inner);
        bytes
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, DecodeError> {
        let mut r = BitReader::new(bytes);
        let signs: Vec<bool> = (0..n).map(|_| r.read_bit()).collect();
        let zeros: Vec<bool> = (0..n).map(|_| r.read_bit()).collect();
        let log_count = zeros.iter().filter(|&&z| !z).count();
        if r.read_bits(40) != log_count as u64 {
            return Err(DecodeError::Corrupt(
                "log count differs from the zero bitmap",
            ));
        }
        let inner_len = r.read_bits(40) as usize;
        r.finish()?;
        let inner = bytes
            .get(r.bit_pos().div_ceil(8)..)
            .and_then(|rest| rest.get(..inner_len))
            .ok_or(DecodeError::Truncated)?;
        let mut logs = self.inner().decompress(inner, log_count)?.into_iter();
        Ok(signs
            .iter()
            .zip(&zeros)
            .map(|(&negative, &zero)| {
                let mag = if zero {
                    0.0
                } else {
                    logs.next().map_or(0.0, f64::exp)
                };
                if negative {
                    -mag
                } else {
                    mag
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_relative_bound(predictor: Predictor, rel: f64) {
        let c = PwrelCompressor::new(predictor, rel);
        // Values across many magnitudes, plus zeros and negatives.
        let data: Vec<f64> = (0..5000)
            .map(|i| {
                if i % 97 == 0 {
                    0.0
                } else {
                    let mag = f64::powi(10.0, (i % 31) - 15);
                    let v = ((i as f64 * 0.73).sin() + 1.5) * mag;
                    if i % 2 == 0 {
                        v
                    } else {
                        -v
                    }
                }
            })
            .collect();
        let out = c.decompress(&c.compress(&data), data.len()).unwrap();
        for (i, (a, b)) in data.iter().zip(&out).enumerate() {
            if *a == 0.0 {
                assert_eq!(*b, 0.0, "i={i}: zero must survive");
            } else {
                let relerr = ((a - b) / a).abs();
                // ln(1+ε) bound in log space gives (1+ε) multiplicative
                // error; allow tiny slack for the exp/ln round trip.
                assert!(
                    relerr <= rel * (1.0 + 1e-9) + 1e-15,
                    "i={i}: rel err {relerr} > {rel}"
                );
                assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "i={i}: sign");
            }
        }
    }

    #[test]
    fn sz_pwrel_bound_holds() {
        check_relative_bound(Predictor::Lorenzo, 1e-4);
    }

    #[test]
    fn sz3_pwrel_bound_holds() {
        check_relative_bound(Predictor::Interpolation, 1e-4);
    }

    #[test]
    fn magnitudes_preserved_across_200_binades() {
        // The property Fig. 6 credits: tiny values keep their relative
        // accuracy instead of being flushed like absolute bounds do.
        let data = vec![1e-100, 1e100, -1e-80, 2.5e-60];
        let c = PwrelCompressor::new(Predictor::Lorenzo, 1e-4);
        let out = c.decompress(&c.compress(&data), 4).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!(((a - b) / a).abs() <= 1.1e-4, "{a} -> {b}");
        }
    }

    #[test]
    fn all_zero_stream() {
        let data = vec![0.0; 100];
        let c = PwrelCompressor::new(Predictor::Interpolation, 1e-3);
        let out = c.decompress(&c.compress(&data), 100).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn names_match_table_two_convention() {
        assert_eq!(
            PwrelCompressor::new(Predictor::Lorenzo, 1e-4).name(),
            "sz_pwrel_1e-4"
        );
    }
}
