//! The kernel checks shared by `fused_kernels.rs` (uniform store) and
//! `adaptive_fused_kernels.rs` (per-block adaptive store): the
//! multi-RHS kernels and the fused update-then-project sweep.

use numfmt::ColumnStorage;

/// `gemv_dots_chunk` over the first `k` columns of `st`, for each `k`
/// in `ks`, must give the bits of `gemv_chunk` followed by
/// `dots_chunk` on the updated vector: both the updated vector and the
/// dots. Checked over the whole column and from a nonzero block-aligned
/// start; callers pass a row count ending in a ragged block, and a `k`
/// above the kernel's tile capacity where it has one. `w` holds `-0.0`
/// entries, and the coefficients come in two sets: scattered zeros
/// (column 2 among them), and all zero, which must leave every `-0.0`
/// in place.
pub fn assert_gemv_dots_matches_two_kernels(st: &impl ColumnStorage, ks: &[usize], label: &str) {
    let align = st.chunk_align();
    for &k in ks {
        for start in [0, 2 * align] {
            let len = st.rows() - start;
            let w: Vec<f64> = (0..len)
                .map(|i| match i % 7 {
                    0 => -0.0,
                    _ => ((i as f64) * 0.77).sin() * f64::powi(2.0, (i % 11) as i32 - 5),
                })
                .collect();
            let scattered: Vec<f64> = (0..k)
                .map(|j| {
                    if j == 2 || j % 5 == 0 {
                        0.0
                    } else {
                        ((j as f64) * 0.61).cos() / (k as f64)
                    }
                })
                .collect();
            for (set, alphas) in [("scattered", scattered), ("zero", vec![0.0; k])] {
                let mut want_w = w.clone();
                let mut want = vec![0.0; k];
                st.gemv_chunk(k, start, &alphas, &mut want_w);
                st.dots_chunk(k, start, &want_w, &mut want);
                let mut got_w = w.clone();
                let mut got = vec![f64::NAN; k];
                st.gemv_dots_chunk(k, start, &alphas, &mut got_w, &mut got);
                for (i, (g, e)) in got_w.iter().zip(&want_w).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "{label} k={k} start={start} {set}: w row {i}"
                    );
                }
                for (j, (g, e)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "{label} k={k} start={start} {set}: dot col {j}"
                    );
                }
            }
        }
    }
}

/// `dots_many_chunk` and `gemv_many_chunk` over the first `k` columns
/// of `st` must give the bits of per-vector `dots_chunk` and
/// `gemv_chunk` on each deinterleaved vector. Checked over the whole
/// column and from a nonzero block-aligned start, for `nw ∈ {1, 3,
/// 65}` (a remainder strip alone, and 16 full strips of 4 plus one);
/// callers pass rows that span several 512-row tiles and end in a
/// ragged block. Coefficient column 2 is all zero and the others hold
/// scattered zeros, so both zero skips (whole column, single pair) run.
pub fn assert_multi_rhs_matches_per_vector(st: &impl ColumnStorage, k: usize, label: &str) {
    let align = st.chunk_align();
    for start in [0, 2 * align] {
        let len = st.rows() - start;
        for nw in [1usize, 3, 65] {
            // Some -0.0 entries: folding a zero-coefficient product in
            // as `+ 0.0` would flip them.
            let ws: Vec<f64> = (0..len * nw)
                .map(|i| match i % 17 {
                    0 => -0.0,
                    _ => ((i as f64) * 0.91).sin() * f64::powi(2.0, (i % 9) as i32 - 4),
                })
                .collect();
            let alphas: Vec<f64> = (0..k * nw)
                .map(|p| {
                    let (j, t) = (p / nw, p % nw);
                    if j == 2 || (j + 3 * t) % 4 == 0 {
                        0.0
                    } else {
                        ((p as f64) * 0.53).cos()
                    }
                })
                .collect();
            let mut dots = vec![0.0; k * nw];
            st.dots_many_chunk(k, start, &ws, nw, &mut dots);
            let mut updated = ws.clone();
            st.gemv_many_chunk(k, start, &alphas, nw, &mut updated);
            for t in 0..nw {
                let w: Vec<f64> = (0..len).map(|i| ws[i * nw + t]).collect();
                let mut want = vec![0.0; k];
                st.dots_chunk(k, start, &w, &mut want);
                for (j, d) in want.iter().enumerate() {
                    assert_eq!(
                        dots[j * nw + t].to_bits(),
                        d.to_bits(),
                        "{label} start={start} nw={nw} dots col={j} vec={t}"
                    );
                }
                let al: Vec<f64> = (0..k).map(|j| alphas[j * nw + t]).collect();
                let mut w_upd = w;
                st.gemv_chunk(k, start, &al, &mut w_upd);
                for (i, u) in w_upd.iter().enumerate() {
                    assert_eq!(
                        updated[i * nw + t].to_bits(),
                        u.to_bits(),
                        "{label} start={start} nw={nw} gemv vec={t} row={i}"
                    );
                }
            }
        }
    }
}
