//! Deterministic sparse-problem generators.
//!
//! These produce the synthetic analogues of the paper's SuiteSparse CFD
//! test set (see `DESIGN.md` §1 for the substitution argument). Three
//! ingredients cover all eleven matrices:
//!
//! 1. finite-difference stencils (7- and 27-point, with upwind convection
//!    for non-symmetry) — the discretization structure of the `atmosmod*`,
//!    `cfd2`, `parabolic_fem` family,
//! 2. a branching-tree transport operator — `lung2`'s airway network,
//! 3. diagonal similarity scaling `D A D⁻¹` with a chosen per-row
//!    power-of-two field `phi` — reproducing the wide value-exponent
//!    ranges of `PR02R`/`RM07R`/`HV15R`/`StocF-1465` (Fig. 10) while
//!    leaving the spectrum untouched. Whether `phi` is spatially
//!    correlated decides whether consecutive Krylov-vector entries share
//!    magnitude — exactly the property §VI-A credits for HV15R tolerating
//!    FRSZ2 while PR02R does not.

use crate::{Coo, Csr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Exact `2^k` as f64 (`k` within the normal range).
#[inline]
fn exp2i(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k));
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// Lexicographic index of grid point `(x, y, z)` — x fastest, matching
/// the memory order in which Krylov entries enter FRSZ2 blocks.
#[inline]
fn idx(x: usize, y: usize, z: usize, nx: usize, ny: usize) -> usize {
    (z * ny + y) * nx + x
}

/// 7-point convection–diffusion operator on an `nx × ny × nz` grid:
/// `-Δu + c·∇u + shift·u` with first-order upwinding. `conv = [cx,cy,cz]`
/// makes the operator non-symmetric (GMRES territory); `shift > 0` adds
/// diagonal dominance, which controls the unpreconditioned convergence
/// speed (the paper uses no preconditioner, §V-C).
pub fn conv_diff_3d(nx: usize, ny: usize, nz: usize, conv: [f64; 3], shift: f64) -> Csr {
    let n = nx * ny * nz;
    let mut m = Coo::with_capacity(n, n, 7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z, nx, ny);
                let mut diag = shift;
                // One (lo, hi) coefficient pair per dimension; upwinding
                // splits the convection onto the upstream side.
                let dims: [(usize, usize, usize, f64); 3] = [
                    (x, nx, 1, conv[0]),
                    (y, ny, nx, conv[1]),
                    (z, nz, nx * ny, conv[2]),
                ];
                for &(pos, extent, stride, c) in &dims {
                    let lo = -1.0 - c.max(0.0);
                    let hi = -1.0 + c.min(0.0);
                    diag += -lo - hi; // 2 + |c|
                    if pos > 0 {
                        m.push(i, i - stride, lo);
                    }
                    if pos + 1 < extent {
                        m.push(i, i + stride, hi);
                    }
                }
                m.push(i, i, diag);
            }
        }
    }
    m.to_csr()
}

/// 27-point operator (full 3×3×3 neighbourhood) for the high-nnz CFD
/// matrices (`cfd2`, `PR02R`, `RM07R`, `HV15R` have 25–140 nnz/row).
/// Off-diagonal weight decays with Chebyshev distance; `conv` skews the
/// x-forward couplings for non-symmetry.
pub fn stencil_27pt(nx: usize, ny: usize, nz: usize, conv: f64, shift: f64) -> Csr {
    let n = nx * ny * nz;
    let mut m = Coo::with_capacity(n, n, 27 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z, nx, ny);
                let mut offdiag_sum = 0.0;
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                            if xx < 0
                                || yy < 0
                                || zz < 0
                                || xx >= nx as i64
                                || yy >= ny as i64
                                || zz >= nz as i64
                            {
                                continue;
                            }
                            let dist = dx.abs().max(dy.abs()).max(dz.abs());
                            let mut w = if dist == 1 { -0.5 } else { -0.125 };
                            // Upwind skew along +x.
                            if dx > 0 {
                                w *= 1.0 - conv;
                            } else if dx < 0 {
                                w *= 1.0 + conv;
                            }
                            let j = idx(xx as usize, yy as usize, zz as usize, nx, ny);
                            m.push(i, j, w);
                            offdiag_sum += w;
                        }
                    }
                }
                m.push(i, i, -offdiag_sum + shift);
            }
        }
    }
    m.to_csr()
}

/// Symmetric variable-coefficient diffusion `-(∇·κ∇)u + shift·u` with a
/// smooth κ field (the SPD `cfd2`/`parabolic_fem` analogues). Face
/// coefficients use the mean of the two cell values, preserving symmetry.
pub fn diffusion_3d<F>(nx: usize, ny: usize, nz: usize, kappa: F, shift: f64) -> Csr
where
    F: Fn(usize, usize, usize) -> f64,
{
    let n = nx * ny * nz;
    let mut m = Coo::with_capacity(n, n, 7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z, nx, ny);
                let k0 = kappa(x, y, z);
                let mut diag = shift;
                let mut neighbour = |xx: usize, yy: usize, zz: usize| {
                    let kf = 0.5 * (k0 + kappa(xx, yy, zz));
                    m.push(i, idx(xx, yy, zz, nx, ny), -kf);
                    diag += kf;
                };
                if x > 0 {
                    neighbour(x - 1, y, z);
                }
                if x + 1 < nx {
                    neighbour(x + 1, y, z);
                }
                if y > 0 {
                    neighbour(x, y - 1, z);
                }
                if y + 1 < ny {
                    neighbour(x, y + 1, z);
                }
                if z > 0 {
                    neighbour(x, y, z - 1);
                }
                if z + 1 < nz {
                    neighbour(x, y, z + 1);
                }
                m.push(i, i, diag);
            }
        }
    }
    m.to_csr()
}

/// Transport on a binary tree with `levels` levels (`2^levels − 1`
/// nodes): the `lung2` airway analogue — ~3 nnz/row, non-symmetric
/// (directed flow from root to leaves of strength `flow`).
pub fn tree_transport(levels: u32, flow: f64, shift: f64) -> Csr {
    let n = (1usize << levels) - 1;
    let mut m = Coo::with_capacity(n, n, 4 * n);
    for i in 0..n {
        let mut diag = 2.0 + shift;
        if i > 0 {
            let parent = (i - 1) / 2;
            m.push(i, parent, -1.0 - flow); // inflow from parent
            diag += flow;
        }
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                m.push(i, c, -1.0 + flow); // weak reverse coupling
                diag += 1.0 - flow.min(1.0);
            }
        }
        m.push(i, i, diag);
    }
    m.to_csr()
}

/// Diagonal similarity scaling `A ← D A D⁻¹` with `D = diag(2^phi[i])`.
///
/// Exact powers of two keep the transformation lossless in f64 and leave
/// the spectrum identical; only the *representation* of the problem (and
/// hence the Krylov-vector magnitudes CB-GMRES must store) changes.
pub fn apply_similarity_scaling(a: &mut Csr, phi: &[i32]) {
    assert_eq!(phi.len(), a.rows());
    assert_eq!(a.rows(), a.cols());
    let n = a.rows();
    let row_ptr: Vec<usize> = a.row_ptr().to_vec();
    let col_idx: Vec<u32> = a.col_indices().to_vec();
    let values = a.values_mut();
    for i in 0..n {
        for k in row_ptr[i]..row_ptr[i + 1] {
            let j = col_idx[k] as usize;
            values[k] *= exp2i(phi[i] - phi[j]);
        }
    }
}

/// Spatially-uncorrelated exponent field: uniform in `[-range, 0]`.
/// Adjacent entries differ by ~`range/3` binades on average — the PR02R
/// regime where FRSZ2 blocks span more binades than `l − 2` can hold.
pub fn phi_uncorrelated(n: usize, range: u32, seed: u64) -> Vec<i32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| -(rng.gen_range(0..=range) as i32)).collect()
}

/// The canonical PR02R-regime stagnation operator: the
/// [`conv_diff_3d`] stencil (velocity `[0.3, 0.2, 0.1]`, reaction 0.2)
/// similarity-scaled by [`phi_uncorrelated`] over `range` binades.
///
/// Krylov vectors of this operator spread neighbouring entries across
/// ~`range` binades, so block-exponent storage (FRSZ2) with fewer than
/// `range + 2` mantissa bits flushes most of each block and the solve
/// stagnates at the storage floor instead of restart-refining past it
/// (§VI-A / Fig. 9b). One definition, shared by the solver tests, the
/// pinned stagnation rows, and the `adaptive_basis` example,
/// so the "fixed `frsz2_16` must stagnate here" calibration lives in
/// exactly one place.
pub fn wide_range_conv_diff(nx: usize, ny: usize, nz: usize, range: u32, seed: u64) -> Csr {
    let mut a = conv_diff_3d(nx, ny, nz, [0.3, 0.2, 0.1], 0.2);
    let phi = phi_uncorrelated(a.rows(), range, seed);
    apply_similarity_scaling(&mut a, &phi);
    a
}

/// Partially-correlated exponent field: [`phi_uncorrelated`] draws
/// replicated over runs of `run` consecutive entries. With `run` below
/// the FRSZ2 block size a block straddles two or three scale plateaus,
/// so its exponent spread is the *difference of a few draws* rather
/// than the full `range` — the mixed regime between PR02R (every entry
/// independent) and HV15R (smooth fields): wide enough that one fixed
/// `l` cannot serve every block, narrow enough that per-block bit
/// lengths stay far below `range + 2` on most blocks.
pub fn phi_correlated_runs(n: usize, range: u32, run: usize, seed: u64) -> Vec<i32> {
    assert!(run > 0, "run length must be positive");
    let draws = phi_uncorrelated(n.div_ceil(run), range, seed);
    (0..n).map(|i| draws[i / run]).collect()
}

/// The mixed-regime stagnation operator: the [`conv_diff_3d`] stencil
/// (velocity `[0.3, 0.2, 0.1]`, reaction 0.2) similarity-scaled by
/// [`phi_correlated_runs`].
///
/// At `range = 24`, `run = 16` both fixed `frsz2_16` *and* fixed
/// `frsz2_21` stagnate above a `1e-10` target, while a per-block
/// adaptive store converges at a lower average rate than whole-basis
/// `frsz2_21` (22 bits/value): most blocks sit inside one or two scale
/// plateaus and take short codes, and only the plateau-straddling
/// minority pays for wide ones. As with [`wide_range_conv_diff`], one
/// definition shared by solver tests and the pinned rows keeps the
/// calibration in exactly one place.
pub fn wide_range_conv_diff_runs(
    nx: usize,
    ny: usize,
    nz: usize,
    range: u32,
    run: usize,
    seed: u64,
) -> Csr {
    let mut a = conv_diff_3d(nx, ny, nz, [0.3, 0.2, 0.1], 0.2);
    let phi = phi_correlated_runs(a.rows(), range, run, seed);
    apply_similarity_scaling(&mut a, &phi);
    a
}

/// Exponent field depending only on the slowest (z) grid index: memory-
/// consecutive entries (x runs fastest) share their magnitude — the
/// HV15R regime where "the ordering of non-zero values may lead
/// neighboring Krylov vector values to have a similar magnitude" (§VI-A).
pub fn phi_smooth_z(nx: usize, ny: usize, nz: usize, range: u32) -> Vec<i32> {
    let mut phi = Vec::with_capacity(nx * ny * nz);
    for z in 0..nz {
        let v = if nz > 1 {
            -((range as usize * z / (nz - 1)) as i32)
        } else {
            0
        };
        phi.extend(std::iter::repeat_n(v, nx * ny));
    }
    phi
}

/// Smooth random exponent field: a few low-frequency 3-D cosine modes
/// with random phases, scaled to `[-range, 0]` (the StocF-1465 regime —
/// log-normal-like permeability with spatial correlation).
pub fn phi_smooth_field(nx: usize, ny: usize, nz: usize, range: u32, seed: u64) -> Vec<i32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let modes: Vec<([f64; 3], f64)> = (0..4)
        .map(|_| {
            (
                [
                    rng.gen_range(0.3..1.2),
                    rng.gen_range(0.3..1.2),
                    rng.gen_range(0.3..1.2),
                ],
                rng.gen_range(0.0..std::f64::consts::TAU),
            )
        })
        .collect();
    let mut phi = Vec::with_capacity(nx * ny * nz);
    let tau = std::f64::consts::TAU;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let (fx, fy, fz) = (
                    x as f64 / nx as f64,
                    y as f64 / ny as f64,
                    z as f64 / nz as f64,
                );
                let mut s = 0.0;
                for &(k, ph) in &modes {
                    s += (tau * (k[0] * fx + k[1] * fy + k[2] * fz) + ph).cos();
                }
                // s in [-4, 4] -> [-range, 0]
                let v = -((s + 4.0) / 8.0 * range as f64).round() as i32;
                phi.push(v.clamp(-(range as i32), 0));
            }
        }
    }
    phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;

    #[test]
    fn wide_range_conv_diff_is_deterministic_and_spans_the_binades() {
        let a1 = wide_range_conv_diff(6, 6, 6, 24, 0x5202);
        let a2 = wide_range_conv_diff(6, 6, 6, 24, 0x5202);
        assert_eq!(a1.values(), a2.values(), "same seed, same operator");
        let (lo, hi) = a1
            .values()
            .iter()
            .filter(|v| **v != 0.0)
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
                (lo.min(v.abs()), hi.max(v.abs()))
            });
        assert!(
            hi / lo >= f64::powi(2.0, 24),
            "similarity scaling must actually spread the magnitudes ({lo:e}..{hi:e})"
        );
    }

    #[test]
    fn conv_diff_shapes_and_symmetry() {
        let a = conv_diff_3d(5, 4, 3, [0.0; 3], 0.0);
        assert_eq!(a.rows(), 60);
        // Pure diffusion is symmetric...
        assert!(a.asymmetry() < 1e-15);
        // ...convection breaks it.
        let b = conv_diff_3d(5, 4, 3, [0.4, 0.0, 0.0], 0.0);
        assert!(b.asymmetry() > 0.01);
        // Interior rows have 7 entries.
        let (cols, _) = a.row(idx(2, 2, 1, 5, 4));
        assert_eq!(cols.len(), 7);
    }

    #[test]
    fn conv_diff_interior_row_sums_equal_shift() {
        // With upwinding, interior rows sum to exactly the shift
        // (discrete conservation); boundary rows keep the missing
        // neighbour weight on the diagonal (Dirichlet), so their sums
        // exceed it.
        let a = conv_diff_3d(6, 5, 4, [0.3, -0.2, 0.1], 0.75);
        let ones = vec![1.0; a.rows()];
        let y = a.mul_vec(&ones);
        for x in 1..5 {
            for yy in 1..4 {
                for z in 1..3 {
                    let i = idx(x, yy, z, 6, 5);
                    assert!((y[i] - 0.75).abs() < 1e-12, "row {i}: {}", y[i]);
                }
            }
        }
        for &v in &y {
            assert!(v >= 0.75 - 1e-12, "boundary rows only add to the diagonal");
        }
    }

    #[test]
    fn stencil_27pt_row_counts() {
        let a = stencil_27pt(4, 4, 4, 0.2, 1.0);
        assert_eq!(a.rows(), 64);
        // Interior point has full 27-point neighbourhood.
        let (cols, _) = a.row(idx(1, 1, 1, 4, 4));
        assert_eq!(cols.len(), 27);
        // Row sums equal the shift (weights balance by construction).
        let y = a.mul_vec(&vec![1.0; 64]);
        for &v in &y {
            assert!((v - 1.0).abs() < 1e-12);
        }
        assert!(a.asymmetry() > 0.01);
    }

    #[test]
    fn diffusion_is_symmetric_positive_definite_ish() {
        let a = diffusion_3d(5, 5, 5, |x, _, _| 1.0 + x as f64 * 0.3, 0.1);
        assert!(a.asymmetry() < 1e-15);
        // Weak diagonal dominance with positive diagonal => PD.
        let d = a.diagonal();
        assert!(d.iter().all(|&v| v > 0.0));
        let x: Vec<f64> = (0..125).map(|i| ((i as f64) * 0.77).sin()).collect();
        let y = a.mul_vec(&x);
        assert!(dense::dot(&x, &y) > 0.0, "xᵀAx must be positive");
    }

    #[test]
    fn tree_transport_structure() {
        let a = tree_transport(5, 0.5, 0.2);
        assert_eq!(a.rows(), 31);
        assert!(a.nnz() <= 4 * 31);
        assert!(a.asymmetry() > 0.01);
        // Root has no parent: row 0 has 3 entries (diag + 2 children).
        let (cols, _) = a.row(0);
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn similarity_scaling_preserves_eigen_action() {
        // D A D^-1 (D x) = D (A x): check through one SpMV.
        let mut a = conv_diff_3d(4, 4, 4, [0.2, 0.0, 0.0], 0.5);
        let orig = a.clone();
        let phi = phi_uncorrelated(64, 10, 42);
        apply_similarity_scaling(&mut a, &phi);
        let x: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.31).cos()).collect();
        let dx: Vec<f64> = x.iter().zip(&phi).map(|(&v, &p)| v * exp2i(p)).collect();
        let lhs = a.mul_vec(&dx);
        let ax = orig.mul_vec(&x);
        let rhs: Vec<f64> = ax.iter().zip(&phi).map(|(&v, &p)| v * exp2i(p)).collect();
        for i in 0..64 {
            // Power-of-two scaling is exact: bitwise equality.
            assert_eq!(lhs[i].to_bits(), rhs[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn phi_fields_have_requested_range_and_structure() {
        let u = phi_uncorrelated(10_000, 35, 7);
        assert!(u.iter().all(|&p| (-35..=0).contains(&p)));
        assert!(u.iter().any(|&p| p < -30), "range should be exercised");

        let s = phi_smooth_z(8, 8, 10, 20);
        assert_eq!(s.len(), 640);
        // Constant within an xy-plane.
        assert!(s[0..64].iter().all(|&p| p == s[0]));
        assert_eq!(s[0], 0);
        assert_eq!(s[639], -20);

        let f = phi_smooth_field(16, 16, 16, 30, 3);
        assert!(f.iter().all(|&p| (-30..=0).contains(&p)));
        // Smoothness: x-neighbouring values within a grid row differ by
        // few binades (row wraps may jump more and are excluded).
        let max_step = f
            .chunks(16)
            .flat_map(|row| row.windows(2).map(|w| (w[0] - w[1]).abs()))
            .max()
            .unwrap();
        assert!(max_step <= 8, "smooth field jumps by {max_step}");
    }

    #[test]
    fn generators_are_deterministic() {
        let a1 = phi_uncorrelated(100, 20, 5);
        let a2 = phi_uncorrelated(100, 20, 5);
        assert_eq!(a1, a2);
        let b1 = phi_smooth_field(8, 8, 8, 25, 9);
        let b2 = phi_smooth_field(8, 8, 8, 25, 9);
        assert_eq!(b1, b2);
    }
}
