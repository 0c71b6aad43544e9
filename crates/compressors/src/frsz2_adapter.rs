//! FRSZ2 exposed through the [`Compressor`] interface.
//!
//! Inside the solver FRSZ2 runs natively through the accessor
//! ([`frsz2::Frsz2Store`]); this adapter exists for the compressor
//! shoot-out comparisons, where every codec is exercised through the
//! same compress-to-bytes API.

use crate::bitstream::BitReader;
use crate::{Compressor, DecodeError};
use frsz2::{Frsz2Config, Frsz2Vector};

/// FRSZ2 as a byte-stream codec.
#[derive(Clone, Copy, Debug, Default)]
pub struct Frsz2Compressor {
    cfg: Frsz2Config,
}

impl Frsz2Compressor {
    pub fn new(cfg: Frsz2Config) -> Self {
        Frsz2Compressor { cfg }
    }
}

impl Compressor for Frsz2Compressor {
    fn name(&self) -> String {
        self.cfg.name()
    }

    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let v = Frsz2Vector::compress(self.cfg, data);
        // Layout: exponent words, then code words (both little-endian).
        let mut bytes = Vec::with_capacity(v.storage_bytes());
        for &e in v.exponents() {
            bytes.extend_from_slice(&e.to_le_bytes());
        }
        for &w in v.words() {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, DecodeError> {
        let mut r = BitReader::new(bytes);
        let mut words =
            |count| -> Vec<u32> { (0..count).map(|_| r.read_bits(32) as u32).collect() };
        let exps = words(self.cfg.blocks_for(n));
        let codes = words(self.cfg.words_for_len(n));
        r.finish()?;
        // A biased IEEE exponent has 11 bits; a wider one is no block's.
        if exps.iter().any(|&e| e > 0x7FF) {
            return Err(DecodeError::Corrupt("FRSZ2 block exponent exceeds 11 bits"));
        }
        let mut out = vec![0.0; n];
        frsz2::codec::decompress_range(self.cfg, &codes, &exps, n, 0, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_matches_native_codec() {
        let data: Vec<f64> = (0..200).map(|i| (i as f64 * 0.59).sin()).collect();
        let cfg = Frsz2Config::new(32, 32);
        let adapter = Frsz2Compressor::new(cfg);
        let via_bytes = adapter
            .decompress(&adapter.compress(&data), data.len())
            .unwrap();
        let native = Frsz2Vector::compress(cfg, &data).decompress();
        for (a, b) in via_bytes.iter().zip(&native) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reports_eq3_rate() {
        let data = vec![0.5; 3200];
        let adapter = Frsz2Compressor::new(Frsz2Config::new(32, 32));
        // 33 bits/value (Eq. 3).
        assert!((adapter.bits_per_value(&data) - 33.0).abs() < 1e-12);
        let a21 = Frsz2Compressor::new(Frsz2Config::new(32, 21));
        assert!((a21.bits_per_value(&data) - 22.0).abs() < 1e-12);
    }
}
