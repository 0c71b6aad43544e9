//! AVX-512 lanes for the multiply half of the tiled pair: one group's
//! dots and update over one tile, with lanes across the strip's
//! vectors `t`, which lie next to each other in every interleaved row
//! of `ws`.
//!
//! A group of `nw` vectors runs in strips of 4 (one ymm register per
//! group column), then the scalar [`dots_strips`]/[`gemv_strips`] for
//! the 1–3 left over. Each lane computes what the scalar strip
//! computes for its `(j, t)`: dots add `v · x` to the running sum row
//! by row, a separate multiply and add; the update forms `x + a · v`
//! the same way and keeps it through a masked add whose mask is
//! `a != 0.0` (unordered compare), so a NaN coefficient applies and a
//! `±0` one leaves `x` as it is, as the scalar select does. Every load
//! and store is a full, unmasked ymm register: a masked 512-bit access
//! to a 4-wide row would overlap the next row's and stall store
//! forwarding. There are no 8-wide zmm strips: no benchmark workload
//! runs a panel of 8 or more vectors, where they would run. The unit
//! tests in the parent module hold these bodies to the scalar strips
//! bit for bit.
//!
//! `unsafe` is confined to the loads and stores (each states the bound
//! it relies on) and to the calls into the `#[target_feature]` bodies,
//! which only an [`Avx512`] token makes.

use super::{dots_strips, gemv_strips, GROUP};
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Proof that this CPU runs the lane bodies: AVX-512 F and VL,
/// detected once per process. Only [`Avx512::detect`] makes one, so
/// its methods may call the `#[target_feature]` bodies.
#[derive(Clone, Copy)]
pub(super) struct Avx512(());

impl Avx512 {
    /// The lane bodies, if this CPU has the features.
    #[inline]
    pub(super) fn detect() -> Option<Self> {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        DETECTED
            .get_or_init(|| {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
            })
            .then_some(Avx512(()))
    }

    /// [`super::dots_group`] in lanes.
    pub(super) fn dots_group(self, cols: [&[f64]; GROUP], wt: &[f64], nw: usize, sums: &mut [f64]) {
        // SAFETY: an `Avx512` exists only where `detect` found every
        // feature the body enables.
        unsafe { dots_group(cols, wt, nw, sums) }
    }

    /// [`super::gemv_group`] in lanes.
    pub(super) fn gemv_group(
        self,
        cols: [&[f64]; GROUP],
        group: [Option<usize>; GROUP],
        alphas: &[f64],
        wt: &mut [f64],
        nw: usize,
    ) {
        // SAFETY: as in `dots_group`.
        unsafe { gemv_group(cols, group, alphas, wt, nw) }
    }
}

/// Vectors per lane strip: one ymm register of `f64`.
const LANES: usize = 4;

/// Strips of 4 vectors, then the scalar remainder.
#[target_feature(enable = "avx512f,avx512vl")]
fn dots_group(cols: [&[f64]; GROUP], wt: &[f64], nw: usize, sums: &mut [f64]) {
    let mut t0 = 0;
    while t0 + LANES <= nw {
        dots4(cols, wt, nw, sums, t0);
        t0 += LANES;
    }
    dots_strips(cols, wt, nw, sums, t0);
}

/// Strips of 4 vectors, then the scalar remainder.
#[target_feature(enable = "avx512f,avx512vl")]
fn gemv_group(
    cols: [&[f64]; GROUP],
    group: [Option<usize>; GROUP],
    alphas: &[f64],
    wt: &mut [f64],
    nw: usize,
) {
    let mut t0 = 0;
    while t0 + LANES <= nw {
        gemv4(cols, group, alphas, wt, nw, t0);
        t0 += LANES;
    }
    gemv_strips(cols, group, alphas, wt, nw, t0);
}

/// Vectors `t0 .. t0 + 4` of one group's dots: the running sums of the
/// group's columns in four ymm registers, each row of `ws` loaded once.
/// The sums of repeated padding slots are dropped.
#[target_feature(enable = "avx512f,avx512vl")]
fn dots4(cols: [&[f64]; GROUP], wt: &[f64], nw: usize, sums: &mut [f64], t0: usize) {
    let g = sums.len() / nw;
    let mut acc = [_mm256_setzero_pd(); GROUP];
    for (c, a) in acc.iter_mut().enumerate().take(g) {
        *a = load4(&sums[c * nw + t0..]);
    }
    for (i, row) in wt.chunks_exact(nw).enumerate() {
        let x = load4(&row[t0..]);
        for (a, col) in acc.iter_mut().zip(cols) {
            *a = _mm256_add_pd(*a, _mm256_mul_pd(_mm256_set1_pd(col[i]), x));
        }
    }
    for (c, a) in acc.iter().enumerate().take(g) {
        store4(&mut sums[c * nw + t0..], *a);
    }
}

/// Vectors `t0 .. t0 + 4` of one group's update: each row's 4 values
/// loaded once, the group's columns applied in slot order where their
/// coefficient is nonzero (a padding slot has none), and stored once.
#[target_feature(enable = "avx512f,avx512vl")]
fn gemv4(
    cols: [&[f64]; GROUP],
    group: [Option<usize>; GROUP],
    alphas: &[f64],
    wt: &mut [f64],
    nw: usize,
    t0: usize,
) {
    let zero = _mm256_setzero_pd();
    let mut coef = [zero; GROUP];
    let mut live = [0u8; GROUP];
    for c in 0..GROUP {
        if let Some(j) = group[c] {
            coef[c] = load4(&alphas[j * nw + t0..]);
            live[c] = _mm256_cmp_pd_mask::<_CMP_NEQ_UQ>(coef[c], zero);
        }
    }
    for (i, row) in wt.chunks_exact_mut(nw).enumerate() {
        let row = &mut row[t0..];
        let mut x = load4(row);
        for c in 0..GROUP {
            let av = _mm256_mul_pd(coef[c], _mm256_set1_pd(cols[c][i]));
            x = _mm256_mask_add_pd(x, live[c], x, av);
        }
        store4(row, x);
    }
}

/// The first 4 values of `v`.
#[target_feature(enable = "avx512f,avx512vl")]
#[inline]
fn load4(v: &[f64]) -> __m256d {
    let v: &[f64; 4] = v.first_chunk().expect("a lane strip is 4 wide");
    // SAFETY: `v` is 32 readable bytes, what the unaligned load reads.
    unsafe { _mm256_loadu_pd(v.as_ptr()) }
}

/// `x` into the first 4 values of `v`.
#[target_feature(enable = "avx512f,avx512vl")]
#[inline]
fn store4(v: &mut [f64], x: __m256d) {
    let v: &mut [f64; 4] = v.first_chunk_mut().expect("a lane strip is 4 wide");
    // SAFETY: `v` is 32 writable bytes, what the unaligned store writes.
    unsafe { _mm256_storeu_pd(v.as_mut_ptr(), x) }
}
