//! The figure binaries' `--format` and `--precond` names.
//!
//! A format name is either a `krylov::basis_format` registry name —
//! `float64`, `float32`, `float16`, `bfloat16`, any `frsz2_<l>` with
//! `2 <= l <= 64`, `frsz2_ab`, and every Table II compressor
//! configuration (`sz3_06`, `zfp_fr_32`, ...) — or one of the two
//! adaptive-precision presets, `adaptive` and `adaptive_bidir`. The
//! registry is the only table that maps a name to storage; [`solve`]
//! runs every name through `krylov::solve`.

use krylov::basis_format;
use krylov::{
    AdaptiveOptions, BlockJacobi, GmresOptions, Identity, Jacobi, Preconditioner, SolveHooks,
    SolvePlan, SolveResult,
};
use spla::Csr;

/// The four storage formats of the paper's Figs. 7/8/11.
pub const STANDARD_FORMATS: [&str; 4] = ["float64", "float32", "float16", "frsz2_32"];

type Preset = fn(GmresOptions) -> AdaptiveOptions;

/// The adaptive-precision presets [`solve`] accepts besides the
/// registry names, each with its options: `adaptive` climbs the
/// escalation ladder from its bottom rung, and `adaptive_bidir` also
/// steps back down after a qualifying residual drop (single-cycle
/// hysteresis).
const PRESETS: [(&str, Preset); 2] = [
    ("adaptive", |gmres| AdaptiveOptions {
        gmres,
        ..AdaptiveOptions::default()
    }),
    ("adaptive_bidir", |gmres| AdaptiveOptions {
        gmres,
        de_escalate: true,
        de_escalation_cycles: 1,
        ..AdaptiveOptions::default()
    }),
];

/// The adaptive preset names.
pub fn preset_names() -> impl Iterator<Item = &'static str> {
    PRESETS.iter().map(|(name, _)| *name)
}

/// Whether [`solve`] accepts the format `name`.
pub fn is_known(name: &str) -> bool {
    preset_names().any(|n| n == name) || basis_format::by_name(name).is_some()
}

/// Solve `A x = b` from `x0` with the Krylov basis in the format `name`
/// names, right-preconditioned by `precond`. Returns `None` for an
/// unknown name.
pub fn solve(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOptions,
    name: &str,
    precond: &impl Preconditioner,
) -> Option<SolveResult> {
    let run = |plan| {
        krylov::solve(a, b, x0, precond, plan, SolveHooks::default())
            .expect("a solve without a checkpoint cannot mismatch one")
    };
    Some(match PRESETS.iter().find(|(n, _)| *n == name) {
        Some((_, preset)) => run(SolvePlan::Adaptive(&preset(opts.clone()))),
        None => run(SolvePlan::Fixed(
            basis_format::by_name(name)?.as_ref(),
            opts,
        )),
    })
}

type Build = fn(&Csr) -> Box<dyn Preconditioner>;

/// Every `--precond` name with its constructor: `none`/`identity` (the
/// paper's §V-C setup), `jacobi` (point Jacobi), `block_jacobi` (dense
/// 4×4 diagonal blocks). Degenerate rows/blocks degrade gracefully via
/// the infallible constructors.
const PRECONDS: [(&str, Build); 4] = [
    ("none", |_| Box::new(Identity)),
    ("identity", |_| Box::new(Identity)),
    ("jacobi", |a| Box::new(Jacobi::new(a))),
    ("block_jacobi", |a| Box::new(BlockJacobi::new(a, 4))),
];

/// The names [`build_precond`] accepts.
pub fn precond_names() -> impl Iterator<Item = &'static str> {
    PRECONDS.iter().map(|(name, _)| *name)
}

/// Build the named preconditioner from the operator. Returns `None`
/// for unknown names.
pub fn build_precond(name: &str, a: &Csr) -> Option<Box<dyn Preconditioner>> {
    let (_, build) = PRECONDS.iter().find(|(n, _)| *n == name)?;
    Some(build(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use krylov::adaptive_gmres;
    use krylov::basis_format::gmres_dyn;

    fn opts(target_rrn: f64, max_iters: usize) -> GmresOptions {
        GmresOptions {
            target_rrn,
            max_iters,
            ..GmresOptions::default()
        }
    }

    #[test]
    fn known_names_are_the_registry_and_the_presets() {
        for name in basis_format::names() {
            assert!(is_known(&name), "{name}");
        }
        for name in [
            "frsz2_21",
            "frsz2_2",
            "frsz2_64",
            "adaptive",
            "adaptive_bidir",
        ] {
            assert!(is_known(name), "{name}");
        }
        for name in [
            "frsz2_99",
            "frsz2_1",
            "frsz2_",
            "adaptive_up",
            "whatever",
            "",
        ] {
            assert!(!is_known(name), "{name}");
        }
        let a = spla::gen::conv_diff_3d(3, 3, 3, [0.1, 0.0, 0.0], 0.5);
        let b = vec![1.0; a.rows()];
        assert!(solve(&a, &b, &b, &opts(1e-6, 10), "frsz2_99", &Identity).is_none());
    }

    #[test]
    fn precond_names_build_and_apply() {
        let a = spla::gen::conv_diff_3d(4, 4, 4, [0.1, 0.0, 0.0], 0.5);
        for (name, reported) in [
            ("none", "none"),
            ("jacobi", "jacobi"),
            ("block_jacobi", "block-jacobi"),
        ] {
            let p = build_precond(name, &a).unwrap();
            assert_eq!(p.name(), reported);
            let v = vec![1.0; a.rows()];
            let mut out = vec![0.0; a.rows()];
            p.apply(&v, &mut out);
            assert!(out.iter().all(|x| x.is_finite()));
        }
        assert!(build_precond("ilu", &a).is_none());
        for name in precond_names() {
            assert!(build_precond(name, &a).is_some(), "{name}");
        }
    }

    /// The preconditioned path must reach the target in fewer
    /// iterations than the identity path on a diagonally-dominant
    /// operator — and the compressed-basis formats must accept any
    /// preconditioner at the same storage rate as the identity run.
    #[test]
    fn preconditioned_solve_converges_faster() {
        let mut a = spla::gen::conv_diff_3d(6, 6, 6, [0.3, 0.1, 0.0], 0.3);
        // Skew the diagonal so Jacobi has something to equilibrate.
        let phi: Vec<i32> = (0..a.rows()).map(|i| (i % 7) as i32 - 3).collect();
        spla::gen::apply_similarity_scaling(&mut a, &phi);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            restart: 40,
            ..opts(1e-8, 800)
        };
        let plain = solve(&a, &b, &x0, &opts, "frsz2_32", &Identity).unwrap();
        let jac = build_precond("jacobi", &a).unwrap();
        let pre = solve(&a, &b, &x0, &opts, "frsz2_32", &jac).unwrap();
        assert!(pre.stats.converged, "rrn {}", pre.stats.final_rrn);
        assert!(
            pre.stats.iterations <= plain.stats.iterations,
            "jacobi {} > identity {}",
            pre.stats.iterations,
            plain.stats.iterations
        );
        assert_eq!(
            pre.stats.basis_bits_per_value, plain.stats.basis_bits_per_value,
            "preconditioning must not change basis traffic"
        );
    }

    #[test]
    fn frsz2_ab_solves_with_per_block_rate() {
        let a = spla::gen::wide_range_conv_diff_runs(8, 8, 8, 24, 16, 0x5202);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            restart: 30,
            ..opts(1e-10, 1200)
        };
        let r = solve(&a, &b, &x0, &opts, "frsz2_ab", &Identity).unwrap();
        assert!(r.stats.converged, "rrn {}", r.stats.final_rrn);
        assert_eq!(r.stats.format, "frsz2_ab");
        assert!(
            r.stats.basis_bits_per_value < 22.0,
            "rate {}",
            r.stats.basis_bits_per_value
        );
    }

    #[test]
    fn adaptive_solves_and_reports_trajectory() {
        let a = spla::gen::conv_diff_3d(6, 6, 6, [0.3, 0.1, 0.0], 0.3);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            restart: 40,
            ..opts(1e-8, 800)
        };
        let r = solve(&a, &b, &x0, &opts, "adaptive", &Identity).unwrap();
        assert!(r.stats.converged, "rrn {}", r.stats.final_rrn);
        assert!(r.stats.final_rrn <= 1e-8);
        assert_eq!(r.stats.format_trajectory.len(), r.stats.restarts);
        assert_eq!(r.stats.format_trajectory[0], "frsz2_16");
    }

    /// A fixed name runs `gmres_dyn` over its registry entry and a
    /// preset runs `adaptive_gmres` with the preset's options, bit for
    /// bit.
    #[test]
    fn solve_matches_the_plain_krylov_entries() {
        let a = spla::gen::wide_range_conv_diff(6, 6, 6, 24, 0x5202);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            restart: 20,
            record_history: true,
            ..opts(1e-10, 600)
        };
        let same = |x: &SolveResult, y: &SolveResult| {
            let bits = |r: &SolveResult| r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(x), bits(y));
            assert_eq!(x.history, y.history);
            assert_eq!(x.stats.format_trajectory, y.stats.format_trajectory);
        };
        let fmt = basis_format::by_name("frsz2_32").unwrap();
        same(
            &solve(&a, &b, &x0, &opts, "frsz2_32", &Identity).unwrap(),
            &gmres_dyn(&a, &b, &x0, &opts, &Identity, fmt.as_ref()),
        );
        let bidir = AdaptiveOptions {
            gmres: opts.clone(),
            de_escalate: true,
            de_escalation_cycles: 1,
            ..AdaptiveOptions::default()
        };
        let r = solve(&a, &b, &x0, &opts, "adaptive_bidir", &Identity).unwrap();
        same(&r, &adaptive_gmres(&a, &b, &x0, &bidir, &Identity));
        assert!(r.stats.escalations > 0, "the preset must walk the ladder");
    }

    #[test]
    fn lossy_roundtrip_format_converges() {
        let a = spla::gen::conv_diff_3d(6, 6, 6, [0.2, 0.1, 0.0], 0.4);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let r = solve(&a, &b, &x0, &opts(1e-6, 500), "zfp_fr_32", &Identity).unwrap();
        assert!(
            r.stats.converged,
            "zfp_fr_32 should converge, rrn {}",
            r.stats.final_rrn
        );
    }
}
