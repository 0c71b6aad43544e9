//! Precision-cast "compressors": the original CB-GMRES storage formats
//! expressed through the [`Compressor`] interface, so the shoot-out
//! binaries can compare every technique uniformly.

use crate::bitstream::BitReader;
use crate::{Compressor, DecodeError};
use numfmt::F16;

/// Cast to IEEE binary32 (the paper's `float32` storage).
#[derive(Clone, Copy, Debug, Default)]
pub struct CastF32;

impl Compressor for CastF32 {
    fn name(&self) -> String {
        "cast_float32".into()
    }

    fn compress(&self, data: &[f64]) -> Vec<u8> {
        data.iter()
            .flat_map(|&v| (v as f32).to_le_bytes())
            .collect()
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, DecodeError> {
        let mut r = BitReader::new(bytes);
        let out = (0..n)
            .map(|_| f32::from_bits(r.read_bits(32) as u32) as f64)
            .collect();
        r.finish()?;
        Ok(out)
    }
}

/// Cast to IEEE binary16 (the paper's `float16` storage).
#[derive(Clone, Copy, Debug, Default)]
pub struct CastF16;

impl Compressor for CastF16 {
    fn name(&self) -> String {
        "cast_float16".into()
    }

    fn compress(&self, data: &[f64]) -> Vec<u8> {
        data.iter()
            .flat_map(|&v| F16::from_f64(v).to_bits().to_le_bytes())
            .collect()
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, DecodeError> {
        let mut r = BitReader::new(bytes);
        let out = (0..n)
            .map(|_| F16::from_bits(r.read_bits(16) as u16).to_f64())
            .collect();
        r.finish()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_cast_rate_and_error() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let c = CastF32;
        assert_eq!(c.bits_per_value(&data), 32.0);
        let out = c.decompress(&c.compress(&data), 100).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(*b, *a as f32 as f64);
        }
    }

    #[test]
    fn f16_cast_rate_and_error() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let c = CastF16;
        assert_eq!(c.bits_per_value(&data), 16.0);
        let out = c.decompress(&c.compress(&data), 100).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= a.abs() * f64::powi(2.0, -11) + 1e-8);
        }
    }
}
