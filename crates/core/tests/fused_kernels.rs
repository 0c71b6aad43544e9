//! Fused-kernel contract tests: every fused store kernel
//! (`dot_chunk`, `axpy_chunk`, `dots_chunk`, `gemv_chunk`,
//! `gemv_dots_chunk` and the multi-RHS kernels) must be
//! **bit-identical** to decompress-then-naive-BLAS for every bit
//! length, chunk alignment, and tail shape — and must not allocate.
//!
//! The solver's reproducibility guarantees (same residual history for
//! any thread count, any sparse format, and now any kernel fusion
//! level) reduce to exactly this property: fusion changes how codes
//! are extracted, never what is computed.

mod common;

use frsz2::{Frsz2Config, Frsz2Store};
use numfmt::ColumnStorage;
/// The paper's evaluated lengths plus word-aligned and wide extremes;
/// 4 and 64 exercise the shortest and the three-word-straddling paths.
const BIT_LENGTHS: [u32; 6] = [4, 8, 16, 21, 32, 64];

/// Wide-dynamic-range data: exponents spread across ~20 binades so
/// subnormal-grade codes (large `emax − e`) appear in most blocks.
fn wave(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = ((i + 31 * seed) as f64 * 0.37).sin();
            x * f64::powi(2.0, ((i * 7 + seed) % 40) as i32 - 20)
        })
        .collect()
}

fn store_with(l: u32, rows: usize, cols: usize) -> Frsz2Store {
    let mut st = Frsz2Store::with_config(Frsz2Config::new(32, l), rows, cols);
    for j in 0..cols {
        st.write_column(j, &wave(rows, j));
    }
    st
}

/// Every (row_start, len) pair the solver can produce: block-aligned
/// starts, full and ragged tails (rows = 203 ends in a 11-value block).
fn chunk_shapes(rows: usize) -> Vec<(usize, usize)> {
    let mut shapes = vec![(0, rows), (0, 32), (32, 64), (96, rows - 96), (160, 43)];
    shapes.retain(|&(s, len)| s + len <= rows);
    shapes
}

#[test]
fn fused_dot_bit_equals_decompress_then_blas() {
    let rows = 203;
    for l in BIT_LENGTHS {
        let st = store_with(l, rows, 3);
        for j in 0..3 {
            for (start, len) in chunk_shapes(rows) {
                let w = wave(len, 100 + j);
                let fused = st.dot_chunk(j, start, &w);
                let mut tile = vec![0.0; len];
                st.read_chunk(j, start, &mut tile);
                let mut naive = 0.0;
                for (a, b) in tile.iter().zip(&w) {
                    naive += a * b;
                }
                assert_eq!(
                    fused.to_bits(),
                    naive.to_bits(),
                    "l={l} col={j} start={start} len={len}: fused {fused:e} vs naive {naive:e}"
                );
            }
        }
    }
}

#[test]
fn fused_axpy_bit_equals_decompress_then_blas() {
    let rows = 203;
    for l in BIT_LENGTHS {
        let st = store_with(l, rows, 3);
        for j in 0..3 {
            for (start, len) in chunk_shapes(rows) {
                for alpha in [1.75, -0.3, 0.0] {
                    let w0 = wave(len, 7 + j);
                    let mut fused = w0.clone();
                    st.axpy_chunk(j, start, alpha, &mut fused);
                    let mut tile = vec![0.0; len];
                    st.read_chunk(j, start, &mut tile);
                    let mut naive = w0;
                    for (b, a) in naive.iter_mut().zip(&tile) {
                        *b += alpha * a;
                    }
                    for i in 0..len {
                        assert_eq!(
                            fused[i].to_bits(),
                            naive[i].to_bits(),
                            "l={l} col={j} start={start} len={len} alpha={alpha} row {i}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn multi_column_dots_bit_equal_per_column_kernels() {
    let rows = 203;
    let k = 5;
    for l in BIT_LENGTHS {
        let st = store_with(l, rows, k);
        for (start, len) in chunk_shapes(rows) {
            let w = wave(len, 55);
            let mut fused = vec![0.0; k];
            st.dots_chunk(k, start, &w, &mut fused);
            for (j, &f) in fused.iter().enumerate() {
                let single = st.dot_chunk(j, start, &w);
                assert_eq!(
                    f.to_bits(),
                    single.to_bits(),
                    "l={l} col={j} start={start} len={len}"
                );
            }
        }
    }
}

/// The multi-RHS kernels (`dots_many_chunk`, `gemv_many_chunk`) give
/// the bits of the per-vector kernels at every bit-length class:
/// 1,227 rows cross two 512-row tiles and end in an 11-row block.
#[test]
fn multi_rhs_kernels_bit_equal_per_vector_kernels() {
    for l in [16, 21, 32, 40, 64] {
        let st = store_with(l, 1227, 5);
        common::assert_multi_rhs_matches_per_vector(&st, 5, &format!("l={l}"));
    }
}

/// Block sizes that do not divide the 512-row tile (48 tiles at 480
/// rows, 1,024 at one block) keep the multi-RHS kernels' reads
/// block-aligned, on the bare store and behind `Box<dyn
/// ColumnStorage>` alike; both end in a ragged block.
#[test]
fn multi_rhs_kernels_tile_at_any_block_size() {
    for (bs, rows) in [(48, 1227), (1024, 3083)] {
        let mut st = Frsz2Store::with_config(Frsz2Config::new(bs, 21), rows, 5);
        for j in 0..5 {
            st.write_column(j, &wave(rows, j));
        }
        let boxed: Box<dyn ColumnStorage> = Box::new(st.clone());
        common::assert_multi_rhs_matches_per_vector(&st, 5, &format!("bs={bs}"));
        common::assert_multi_rhs_matches_per_vector(&boxed, 5, &format!("boxed bs={bs}"));
    }
}

/// The fused update-then-project sweep gives the bits of `gemv_chunk`
/// then `dots_chunk` at every bit-length class, the runtime-`l`
/// instance (11) included. 203 rows end in an 11-row block; 128 columns
/// fill the kernel's 4,096-value tile and 129 overflow it.
#[test]
fn gemv_dots_bit_equals_gemv_then_dots() {
    for l in [11, 16, 21, 32, 40, 64] {
        let st = store_with(l, 203, 129);
        common::assert_gemv_dots_matches_two_kernels(&st, &[1, 5, 128, 129], &format!("l={l}"));
    }
}

#[test]
fn multi_column_gemv_bit_equal_sequential_axpys() {
    let rows = 203;
    let k = 5;
    // A zero coefficient in the middle checks the skip semantics (a
    // `+ 0.0` fold-in would flip the sign of a stored -0.0).
    let alphas = [0.5, -1.25, 0.0, 2.0, -0.125];
    for l in BIT_LENGTHS {
        let st = store_with(l, rows, k);
        for (start, len) in chunk_shapes(rows) {
            let w0 = wave(len, 99);
            let mut fused = w0.clone();
            st.gemv_chunk(k, start, &alphas, &mut fused);
            let mut seq = w0;
            for (j, &a) in alphas.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                st.axpy_chunk(j, start, a, &mut seq);
            }
            for i in 0..len {
                assert_eq!(
                    fused[i].to_bits(),
                    seq[i].to_bits(),
                    "l={l} start={start} len={len} row {i}"
                );
            }
        }
    }
}

#[test]
fn gemv_skip_preserves_negative_zero() {
    // w holds -0.0; a gemv over columns with all-zero coefficients
    // must leave the bits untouched ((-0.0) + 0.0 would yield +0.0).
    let st = store_with(21, 64, 2);
    let mut w = vec![-0.0f64; 64];
    st.gemv_chunk(2, 0, &[0.0, 0.0], &mut w);
    for (i, v) in w.iter().enumerate() {
        assert_eq!(v.to_bits(), (-0.0f64).to_bits(), "row {i}");
    }
}
