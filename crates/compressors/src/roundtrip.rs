//! Compress-then-decompress Krylov basis storage (the LibPressio wiring).
//!
//! §V-D: "we decided to simulate the effect of other compression schemes
//! on the CB-GMRES convergence ... by compressing and immediately
//! decompressing the Krylov vectors". [`RoundTripStore`] does exactly
//! that: every column write runs the configured codec's round trip, the
//! lossy result is kept in plain f64, and reads are full-speed. The
//! solver therefore sees the codec's *information loss* without its
//! runtime — which is also why Figs. 5/6 are convergence (not runtime)
//! comparisons.

use crate::Compressor;
use numfmt::{ColumnStorage, DenseStore};
use std::sync::Arc;

/// [`ColumnStorage`] that filters every written column through a lossy
/// codec round trip.
pub struct RoundTripStore {
    inner: DenseStore<f64>,
    codec: Arc<dyn Compressor>,
    bits_written: u64,
    values_written: u64,
}

impl RoundTripStore {
    pub fn new(codec: Arc<dyn Compressor>, rows: usize, cols: usize) -> Self {
        RoundTripStore {
            inner: DenseStore::with_shape(rows, cols),
            codec,
            bits_written: 0,
            values_written: 0,
        }
    }

    /// Average achieved compression rate over all column writes so far.
    ///
    /// Before the first column write nothing has been compressed, so the
    /// average is defined as 0.0 — never the `0/0 = NaN` the naive
    /// quotient would produce (callers such as `column_bytes` and the
    /// solver's byte counters must stay finite from the first query).
    pub fn average_bits_per_value(&self) -> f64 {
        if self.values_written == 0 {
            0.0
        } else {
            self.bits_written as f64 / self.values_written as f64
        }
    }
}

impl ColumnStorage for RoundTripStore {
    /// Not constructible without a codec — use [`RoundTripStore::new`].
    fn with_shape(_rows: usize, _cols: usize) -> Self {
        panic!("RoundTripStore needs a codec: construct with RoundTripStore::new")
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn write_column(&mut self, j: usize, data: &[f64]) {
        let mut lossy = vec![0.0; data.len()];
        let bits = self.codec.roundtrip(data, &mut lossy);
        self.bits_written += bits as u64;
        self.values_written += data.len() as u64;
        self.inner.write_column(j, &lossy);
    }

    #[inline]
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        self.inner.read_chunk(j, row_start, out);
    }

    #[inline]
    fn load(&self, i: usize, j: usize) -> f64 {
        self.inner.load(i, j)
    }

    #[inline]
    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        self.inner.dot_chunk(j, row_start, w)
    }

    #[inline]
    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        self.inner.axpy_chunk(j, row_start, alpha, w)
    }

    /// Multi-column sweeps run on the inner dense store (columns are
    /// plain f64 after the write-time round trip), so round-trip bases
    /// get the fused one-pass orthogonalization kernels for free.
    #[inline]
    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        self.inner.dots_chunk(k, row_start, w, out)
    }

    #[inline]
    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        self.inner.gemv_chunk(k, row_start, alphas, w)
    }

    /// Reports the *achieved* compressed size (what the paper would count
    /// as memory traffic had the codec been integrated for real).
    fn column_bytes(&self) -> usize {
        (self.average_bits_per_value() * self.rows() as f64 / 8.0).ceil() as usize
    }

    fn format_name(&self) -> String {
        self.codec.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sz::{Predictor, SzCompressor};
    use crate::zfp::{ZfpCompressor, ZfpMode};

    #[test]
    fn columns_are_lossy_but_bounded() {
        let codec = Arc::new(SzCompressor::new(1e-6, Predictor::Interpolation));
        let mut st = RoundTripStore::new(codec, 500, 2);
        let v: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).sin()).collect();
        st.write_column(0, &v);
        let mut out = vec![0.0; 500];
        st.read_column(0, &mut out);
        let mut max_err = 0.0f64;
        for (a, b) in v.iter().zip(&out) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(
            max_err > 0.0,
            "the round trip must actually lose information"
        );
        assert!(max_err <= 1e-6, "but stay inside the codec bound");
    }

    #[test]
    fn tracks_achieved_bits() {
        let codec = Arc::new(ZfpCompressor::new(ZfpMode::FixedRate(16)));
        let mut st = RoundTripStore::new(codec, 400, 3);
        let v: Vec<f64> = (0..400).map(|i| (i as f64 * 0.11).cos()).collect();
        st.write_column(0, &v);
        st.write_column(1, &v);
        let bpv = st.average_bits_per_value();
        assert!((bpv - 16.0).abs() < 0.5, "fixed-rate 16 reported as {bpv}");
        assert_eq!(st.format_name(), "zfp_fr_16");
        assert_eq!(st.column_bytes(), (bpv * 400.0 / 8.0).ceil() as usize);
    }

    #[test]
    #[should_panic(expected = "needs a codec")]
    fn with_shape_is_rejected() {
        let _ = RoundTripStore::with_shape(4, 4);
    }

    #[test]
    fn rate_before_any_write_is_zero_not_nan() {
        let codec = Arc::new(SzCompressor::new(1e-6, Predictor::Interpolation));
        let st = RoundTripStore::new(codec, 128, 2);
        assert_eq!(st.average_bits_per_value(), 0.0);
        assert!(!st.average_bits_per_value().is_nan());
        assert_eq!(st.column_bytes(), 0);
        assert_eq!(st.bits_per_value(), 0.0);
        // The zero-row corner must be finite too (0/0 guards).
        let empty = RoundTripStore::new(
            Arc::new(SzCompressor::new(1e-6, Predictor::Interpolation)),
            0,
            1,
        );
        assert_eq!(empty.average_bits_per_value(), 0.0);
        assert!(!empty.bits_per_value().is_nan());
    }
}
