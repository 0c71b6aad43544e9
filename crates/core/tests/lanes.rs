//! The chunk kernels of both FRSZ2 stores — `read_chunk`,
//! `dots_chunk`, `gemv_chunk` and `gemv_dots_chunk`, which run AVX-512
//! lanes on CPUs with F, BW, DQ and VBMI and the scalar drivers
//! elsewhere — against the normative reference: the stored codes
//! decoded by `reference::decompress_block`, then naive row-order BLAS.
//! Bit for bit, at every bit length up to 32, for lane groups that are
//! full, ragged, and mixed with blocks below the convert-and-scale
//! threshold (values spread over 1,070 binades), and for the adaptive
//! store with neighbouring columns at different bit lengths. Which path
//! ran is printed (`--nocapture`); the scalar drivers are held to the
//! lanes directly by the `kernels::lanes` unit tests.

use frsz2::{bitpack, reference, Frsz2AdaptiveStore, Frsz2Config, Frsz2Store};
use numfmt::ColumnStorage;

const BS: usize = 32;

/// Column counts `k` the kernels are called with: one lane group, a
/// ragged group, several, a full fused tile, and one column past it.
const KS: [usize; 5] = [8, 13, 50, 128, 129];

/// Say which path the store kernels take on this CPU.
fn report_path(test: &str) {
    #[cfg(target_arch = "x86_64")]
    let lanes = is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vbmi");
    #[cfg(not(target_arch = "x86_64"))]
    let lanes = false;
    if lanes {
        println!("{test}: AVX-512 F/BW/DQ/VBMI present, the lane drivers ran");
    } else {
        println!(
            "{test}: lane half skipped, this CPU lacks AVX-512 F/BW/DQ/VBMI (scalar drivers ran)"
        );
    }
}

/// Column `j`: `±0` entries, and per block a magnitude anywhere in
/// 1,070 binades below 1, so a lane group of 8 columns mixes blocks
/// above and below the threshold. Inside a block the values span
/// `spread` binades.
fn column(rows: usize, j: usize, spread: usize) -> Vec<f64> {
    (0..rows)
        .map(|i| match (i + 3 * j) % 13 {
            0 => 0.0,
            7 => -0.0,
            _ => {
                let binade = ((i / BS) * 37 + j * 101) % 1071 + (i * 5 + j) % (spread + 1);
                (((i * 7 + j) as f64 * 0.37).sin() + 1.5) * 2f64.powi(-(binade as i32))
            }
        })
        .collect()
}

/// Column `j` of a store, rows `start..`, decoded by the reference
/// codec from its `(l, emax, offset)` per block.
fn reference_column(
    blocks: &[(u32, u32, usize)],
    words: &[u32],
    rows: usize,
    start: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows);
    for (b, &(l, emax, off)) in blocks.iter().enumerate() {
        let n = BS.min(rows - b * BS);
        let codes: Vec<u64> = (0..n)
            .map(|i| bitpack::read_bits(words, off * 32 + i * l as usize, l))
            .collect();
        out.extend(reference::decompress_block(emax, &codes, l));
    }
    out.split_off(start)
}

/// Every kernel over the first `k` columns of `st`, from row `start`,
/// against the reference columns `v` (`v[j]` holds rows `start..`).
fn assert_kernels_match_reference(
    st: &impl ColumnStorage,
    v: &[Vec<f64>],
    start: usize,
    label: &str,
) {
    let len = st.rows() - start;
    for (j, want) in v.iter().enumerate() {
        let mut got = vec![f64::NAN; len];
        st.read_chunk(j, start, &mut got);
        for (i, (g, e)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "{label} read col {j} row {i}");
        }
    }
    let w: Vec<f64> = (0..len)
        .map(|i| {
            if i % 9 == 4 {
                -0.0
            } else {
                ((i as f64) * 0.61).cos()
            }
        })
        .collect();
    for k in KS {
        let cols = &v[..k];
        // Scattered zeros (column 2 and every fifth), and all zero, which
        // must leave every `-0.0` of `w` in place.
        let scattered: Vec<f64> = (0..k)
            .map(|j| {
                if j == 2 || j % 5 == 0 {
                    0.0
                } else {
                    ((j as f64) * 0.29).sin()
                }
            })
            .collect();
        for (set, alphas) in [("scattered", scattered), ("zero", vec![0.0; k])] {
            let dots = |w: &[f64]| -> Vec<f64> {
                cols.iter()
                    .map(|c| c.iter().zip(w).fold(0.0, |acc, (v, x)| acc + v * x))
                    .collect()
            };
            let mut updated = w.clone();
            for (i, x) in updated.iter_mut().enumerate() {
                for (c, &a) in cols.iter().zip(&alphas) {
                    if a != 0.0 {
                        *x += a * c[i];
                    }
                }
            }
            let label = format!("{label} k={k} {set}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

            let mut got = vec![f64::NAN; k];
            st.dots_chunk(k, start, &w, &mut got);
            assert_eq!(bits(&got), bits(&dots(&w)), "{label} dots");

            let mut got_w = w.clone();
            st.gemv_chunk(k, start, &alphas, &mut got_w);
            assert_eq!(bits(&got_w), bits(&updated), "{label} gemv");

            let mut got_w = w.clone();
            st.gemv_dots_chunk(k, start, &alphas, &mut got_w, &mut got);
            assert_eq!(bits(&got_w), bits(&updated), "{label} gemv_dots w");
            assert_eq!(bits(&got), bits(&dots(&updated)), "{label} gemv_dots dots");
        }
    }
}

#[test]
fn uniform_store_kernels_match_reference_at_every_bit_length() {
    report_path("uniform_store_kernels_match_reference_at_every_bit_length");
    let cols = 129;
    for (rows, start) in [(203, 0), (1000, 2 * BS)] {
        let data: Vec<Vec<f64>> = (0..cols).map(|j| column(rows, j, 4)).collect();
        for l in 2u32..=32 {
            let mut st = Frsz2Store::with_config(Frsz2Config::new(BS as u32, l), rows, cols);
            let v: Vec<Vec<f64>> = data
                .iter()
                .enumerate()
                .map(|(j, col)| {
                    st.write_column(j, col);
                    let blocks: Vec<_> = st
                        .column_exponents(j)
                        .iter()
                        .enumerate()
                        .map(|(b, &emax)| (l, emax, b * l as usize))
                        .collect();
                    reference_column(&blocks, st.column_words(j), rows, start)
                })
                .collect();
            assert_kernels_match_reference(&st, &v, start, &format!("l={l} rows={rows}"));
        }
    }
}

#[test]
fn adaptive_store_kernels_match_reference_with_mixed_bit_lengths() {
    report_path("adaptive_store_kernels_match_reference_with_mixed_bit_lengths");
    let cols = 129;
    for (rows, start) in [(203, 0), (1000, 2 * BS)] {
        let mut st = Frsz2AdaptiveStore::with_shape(rows, cols);
        // In-block spreads that pick l = 16, 21, 32 and 64 in turn.
        let v: Vec<Vec<f64>> = (0..cols)
            .map(|j| {
                st.write_column(j, &column(rows, j, [2, 13, 22, 40][j % 4]));
                let mut off = 0;
                let blocks: Vec<_> = st
                    .column_bit_lengths(j)
                    .iter()
                    .zip(st.column_exponents(j))
                    .map(|(&l, &emax)| {
                        off += l as usize;
                        (l as u32, emax, off - l as usize)
                    })
                    .collect();
                reference_column(&blocks, st.column_words(j), rows, start)
            })
            .collect();
        let ls: Vec<u8> = (0..4).map(|j| st.column_bit_lengths(j)[1]).collect();
        assert_eq!(ls, [16, 21, 32, 64], "neighbouring columns differ in l");
        assert_kernels_match_reference(&st, &v, start, &format!("adaptive rows={rows}"));
    }
}
