//! Basis-level contract tests for the fused multi-column
//! orthogonalization path: `Basis::dots`/`dots_with`/`axpys`, and the
//! fused update-then-project `Basis::axpys_dots_with`, must be
//! bit-identical to the per-column reference formulation for every
//! storage format and bit length, at 1, 2, and 8 threads.

use frsz2::{Frsz2AdaptiveStore, Frsz2Config, Frsz2Store};
use krylov::Basis;
use numfmt::{ColumnStorage, DenseStore, F16};

fn wave(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = ((i + 31 * seed) as f64 * 0.37).sin();
            x * f64::powi(2.0, ((i * 7 + seed) % 30) as i32 - 15)
        })
        .collect()
}

/// Per-column reference: mirrors the basis' chunked reduction exactly
/// (per-chunk partials of single-column `dot_chunk` calls, summed in
/// chunk order) — the formulation the fused kernels replaced.
fn reference_dots<S: ColumnStorage>(basis: &Basis<S>, k: usize, w: &[f64], out: &mut [f64]) {
    let n = basis.rows();
    let chunk = basis.chunk_rows();
    let n_chunks = n.div_ceil(chunk);
    for (j, out_j) in out.iter_mut().enumerate().take(k) {
        *out_j = (0..n_chunks)
            .map(|c| {
                let start = c * chunk;
                let len = chunk.min(n - start);
                basis.store().dot_chunk(j, start, &w[start..start + len])
            })
            .sum();
    }
}

/// Per-column reference for `axpys`: chunk outer, column inner, zero
/// coefficients skipped — the exact op order of the old per-column
/// loop.
fn reference_axpys<S: ColumnStorage>(basis: &Basis<S>, k: usize, alpha: &[f64], w: &mut [f64]) {
    let n = basis.rows();
    let chunk = basis.chunk_rows();
    let mut start = 0;
    while start < n {
        let len = chunk.min(n - start);
        for (j, &a) in alpha.iter().enumerate().take(k) {
            if a == 0.0 {
                continue;
            }
            basis
                .store()
                .axpy_chunk(j, start, a, &mut w[start..start + len]);
        }
        start += len;
    }
}

fn check_store<S: ColumnStorage>(basis: &Basis<S>, label: &str) {
    let n = basis.rows();
    let k = basis.cols();
    let w = wave(n, 77);
    let alpha = [0.5, -1.25, 0.0, 2.0, -0.125];
    assert!(k <= alpha.len());

    let mut h_ref = vec![0.0; k];
    reference_dots(basis, k, &w, &mut h_ref);
    let mut u_ref = w.clone();
    reference_axpys(basis, k, &alpha[..k], &mut u_ref);
    let mut g_ref = vec![0.0; k];
    reference_dots(basis, k, &u_ref, &mut g_ref);

    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut h = vec![0.0; k];
        let mut scratch = Vec::new();
        let mut u = w.clone();
        pool.install(|| {
            basis.dots_with(k, &w, &mut h, &mut scratch);
            basis.axpys(k, &alpha[..k], &mut u);
        });
        for j in 0..k {
            assert_eq!(
                h[j].to_bits(),
                h_ref[j].to_bits(),
                "{label}: dot {j} at {threads} threads"
            );
        }
        for i in 0..n {
            assert_eq!(
                u[i].to_bits(),
                u_ref[i].to_bits(),
                "{label}: axpys row {i} at {threads} threads"
            );
        }
        // The convenience wrapper must agree with the scratch form.
        let mut h2 = vec![0.0; k];
        pool.install(|| basis.dots(k, &w, &mut h2));
        for j in 0..k {
            assert_eq!(h[j].to_bits(), h2[j].to_bits(), "{label}: dots wrapper {j}");
        }
        // The fused sweep: the update's bits, then the dots of the
        // updated vector.
        let mut g = vec![f64::NAN; k];
        let mut v = w.clone();
        pool.install(|| basis.axpys_dots_with(k, &alpha[..k], &mut v, &mut g, &mut scratch));
        for i in 0..n {
            assert_eq!(
                v[i].to_bits(),
                u_ref[i].to_bits(),
                "{label}: fused update row {i} at {threads} threads"
            );
        }
        for j in 0..k {
            assert_eq!(
                g[j].to_bits(),
                g_ref[j].to_bits(),
                "{label}: fused dot {j} at {threads} threads"
            );
        }
    }
}

/// n spans multiple row chunks (chunk = 8192) with a ragged tail, so
/// the partial-buffer reduction and tail kernels are all exercised.
const N: usize = 20_011;
const K: usize = 5;

#[test]
fn frsz2_fused_ortho_bit_identical_across_threads_all_lengths() {
    for l in [4u32, 16, 21, 32, 64] {
        let mut basis = Basis::from_store(Frsz2Store::with_config(Frsz2Config::new(32, l), N, K));
        for j in 0..K {
            basis.write(j, &wave(N, j));
        }
        check_store(&basis, &format!("frsz2_{l}"));
    }
}

/// Blocks whose exponent spread cycles through 2, 14, 24 and 40
/// binades, so neighbouring blocks of the adaptive store take different
/// bit lengths.
fn spread_wave(n: usize, seed: usize) -> Vec<f64> {
    const SPREADS: [usize; 4] = [2, 14, 24, 40];
    (0..n)
        .map(|i| {
            let spread = SPREADS[(i / 32 + seed) % 4];
            let x = ((i + 31 * seed) as f64 * 0.37).sin() + 1.1;
            x * f64::powi(2.0, -(((i % 32) * spread / 31) as i32))
        })
        .collect()
}

#[test]
fn adaptive_fused_ortho_bit_identical_across_threads() {
    let mut basis = Basis::<Frsz2AdaptiveStore>::new(N, K);
    for j in 0..K {
        basis.write(j, &spread_wave(N, j));
    }
    let ls = basis.store().column_bit_lengths(0);
    assert!(ls.iter().any(|&l| l != ls[0]), "lengths vary");
    check_store(&basis, "frsz2_ab");
}

#[test]
fn dense_fused_ortho_bit_identical_across_threads() {
    let mut f64b = Basis::<DenseStore<f64>>::new(N, K);
    let mut f32b = Basis::<DenseStore<f32>>::new(N, K);
    let mut f16b = Basis::<DenseStore<F16>>::new(N, K);
    for j in 0..K {
        let v = wave(N, j);
        f64b.write(j, &v);
        f32b.write(j, &v);
        f16b.write(j, &v);
    }
    check_store(&f64b, "float64");
    check_store(&f32b, "float32");
    check_store(&f16b, "float16");
}

#[test]
fn boxed_store_uses_fused_kernels() {
    // Box<dyn ColumnStorage> must delegate the multi-column kernels,
    // not fall back to the per-column defaults with different timing
    // (results are bit-equal either way — this pins the delegation by
    // comparing against the concrete store).
    let mut concrete = Frsz2Store::with_config(Frsz2Config::new(32, 21), N, K);
    for j in 0..K {
        concrete.write_column(j, &wave(N, j));
    }
    let boxed: Box<dyn ColumnStorage> = Box::new(concrete.clone());
    let w = wave(N, 13);
    let mut out_c = vec![0.0; K];
    let mut out_b = vec![0.0; K];
    concrete.dots_chunk(K, 0, &w[..8192], &mut out_c);
    boxed.dots_chunk(K, 0, &w[..8192], &mut out_b);
    for j in 0..K {
        assert_eq!(out_c[j].to_bits(), out_b[j].to_bits(), "col {j}");
    }
    let alphas = [0.5, -0.25, 0.0, 1.5, -2.0];
    let mut w_c = w.clone();
    let mut w_b = w.clone();
    concrete.gemv_chunk(K, 0, &alphas, &mut w_c[..8192]);
    boxed.gemv_chunk(K, 0, &alphas, &mut w_b[..8192]);
    for i in 0..8192 {
        assert_eq!(w_c[i].to_bits(), w_b[i].to_bits(), "row {i}");
    }
}
