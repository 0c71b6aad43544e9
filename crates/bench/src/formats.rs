//! Runtime resolution of storage-format names to solver invocations.
//!
//! Accepted names (paper nomenclature):
//! `float64`, `float32`, `float16`, `bfloat16`, `frsz2_16`, `frsz2_21`,
//! `frsz2_32` (any `frsz2_<l>` with `2 <= l <= 64`), and every Table II
//! compressor configuration (`sz3_06`, `zfp_fr_32`, ...), which run as
//! LibPressio-style round-trip storage.

use frsz2::{Frsz2AdaptiveStore, Frsz2Config, Frsz2Store};
use krylov::{
    adaptive_gmres, gmres, gmres_with, AdaptiveOptions, BlockJacobi, GmresOptions, Identity,
    Jacobi, Preconditioner, SolveResult,
};
use lossy::RoundTripStore;
use numfmt::{DenseStore, BF16, F16};
use spla::Csr;

/// Runtime-selected preconditioner (`--precond`). The solver entry
/// points are generic over [`Preconditioner`], so the bench wraps the
/// three supported choices in one enum that delegates `apply`.
#[derive(Clone, Debug)]
pub enum Precond {
    None(Identity),
    Jacobi(Jacobi),
    BlockJacobi(BlockJacobi),
}

type Build = fn(&Csr) -> Precond;

impl Precond {
    /// Every accepted name with its constructor: `none`/`identity` (the
    /// paper's §V-C setup), `jacobi` (point Jacobi), `block_jacobi`
    /// (dense 4×4 diagonal blocks). Degenerate rows/blocks degrade
    /// gracefully via the infallible constructors.
    const BUILDERS: [(&'static str, Build); 4] = [
        ("none", |_| Precond::None(Identity)),
        ("identity", |_| Precond::None(Identity)),
        ("jacobi", |a| Precond::Jacobi(Jacobi::new(a))),
        ("block_jacobi", |a| {
            Precond::BlockJacobi(BlockJacobi::new(a, 4))
        }),
    ];

    /// The names [`Precond::parse`] accepts.
    pub fn names() -> impl Iterator<Item = &'static str> {
        Self::BUILDERS.iter().map(|(name, _)| *name)
    }

    /// Build the named preconditioner from the operator. Returns `None`
    /// for unknown names.
    pub fn parse(name: &str, a: &Csr) -> Option<Precond> {
        let (_, build) = Self::BUILDERS.iter().find(|(n, _)| *n == name)?;
        Some(build(a))
    }
}

impl Preconditioner for Precond {
    #[inline]
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        match self {
            Precond::None(p) => p.apply(v, out),
            Precond::Jacobi(p) => p.apply(v, out),
            Precond::BlockJacobi(p) => p.apply(v, out),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Precond::None(p) => p.name(),
            Precond::Jacobi(p) => p.name(),
            Precond::BlockJacobi(p) => p.name(),
        }
    }
}

/// A resolved storage format.
#[derive(Clone, Debug)]
pub enum FormatSpec {
    F64,
    F32,
    F16,
    BF16,
    /// FRSZ2 at bit length `l`, in the paper's 32-value blocks.
    Frsz2(u32),
    /// Table II codec round-trip (by registry name).
    Lossy(String),
    /// Per-block adaptive bit length (`frsz2_ab`): one store, `l`
    /// chosen per 32-value block from the block's exponent spread.
    Frsz2Adaptive,
    /// Adaptive-precision basis: start at the bottom of
    /// `krylov::ESCALATION_LADDER` and escalate on stagnation.
    Adaptive,
    /// [`FormatSpec::Adaptive`] with ladder de-escalation enabled
    /// (single-cycle hysteresis): steps back down after a qualifying
    /// residual drop, reclaiming bandwidth.
    AdaptiveBidir,
}

impl FormatSpec {
    /// Paper-style display name.
    pub fn name(&self) -> String {
        match self {
            FormatSpec::F64 => "float64".into(),
            FormatSpec::F32 => "float32".into(),
            FormatSpec::F16 => "float16".into(),
            FormatSpec::BF16 => "bfloat16".into(),
            FormatSpec::Frsz2(bits) => format!("frsz2_{bits}"),
            FormatSpec::Lossy(n) => n.clone(),
            FormatSpec::Frsz2Adaptive => "frsz2_ab".into(),
            FormatSpec::Adaptive => "adaptive".into(),
            FormatSpec::AdaptiveBidir => "adaptive_bidir".into(),
        }
    }
}

/// Parse a format name. Returns `None` for unknown names.
pub fn parse(name: &str) -> Option<FormatSpec> {
    match name {
        "float64" | "f64" => return Some(FormatSpec::F64),
        "float32" | "f32" => return Some(FormatSpec::F32),
        "float16" | "f16" => return Some(FormatSpec::F16),
        "bfloat16" | "bf16" => return Some(FormatSpec::BF16),
        "adaptive" => return Some(FormatSpec::Adaptive),
        "adaptive_bidir" => return Some(FormatSpec::AdaptiveBidir),
        "frsz2_ab" => return Some(FormatSpec::Frsz2Adaptive),
        _ => {}
    }
    if let Some(bits) = name.strip_prefix("frsz2_") {
        if let Ok(bits) = bits.parse::<u32>() {
            if (2..=64).contains(&bits) {
                return Some(FormatSpec::Frsz2(bits));
            }
        }
        return None;
    }
    if lossy::registry::by_name(name).is_some() {
        return Some(FormatSpec::Lossy(name.to_string()));
    }
    None
}

/// The four storage formats of the paper's Figs. 7/8/11.
pub fn standard_formats() -> Vec<FormatSpec> {
    vec![
        FormatSpec::F64,
        FormatSpec::F32,
        FormatSpec::F16,
        FormatSpec::Frsz2(32),
    ]
}

/// Solve `A x = b` from `x0` with the Krylov basis held in `spec`
/// (unpreconditioned, as in §V-C).
pub fn solve(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOptions,
    spec: &FormatSpec,
) -> SolveResult {
    solve_precond(a, b, x0, opts, spec, &Precond::None(Identity))
}

/// [`solve`] under an explicit right preconditioner (`--precond`):
/// compressed-basis formats against Jacobi/BlockJacobi at the same
/// basis traffic as the unpreconditioned runs.
pub fn solve_precond(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOptions,
    spec: &FormatSpec,
    precond: &Precond,
) -> SolveResult {
    match spec {
        FormatSpec::F64 => gmres::<DenseStore<f64>, _, _>(a, b, x0, opts, precond),
        FormatSpec::F32 => gmres::<DenseStore<f32>, _, _>(a, b, x0, opts, precond),
        FormatSpec::F16 => gmres::<DenseStore<F16>, _, _>(a, b, x0, opts, precond),
        FormatSpec::BF16 => gmres::<DenseStore<BF16>, _, _>(a, b, x0, opts, precond),
        FormatSpec::Frsz2(bits) => {
            let cfg = Frsz2Config::new(32, *bits);
            gmres_with(a, b, x0, opts, precond, |r, c| {
                Frsz2Store::with_config(cfg, r, c)
            })
        }
        FormatSpec::Lossy(name) => {
            let codec =
                lossy::registry::by_name(name).unwrap_or_else(|| panic!("unknown codec {name}"));
            gmres_with(a, b, x0, opts, precond, |r, c| {
                RoundTripStore::new(codec, r, c)
            })
        }
        FormatSpec::Frsz2Adaptive => gmres::<Frsz2AdaptiveStore, _, _>(a, b, x0, opts, precond),
        FormatSpec::Adaptive => {
            let aopts = AdaptiveOptions {
                gmres: opts.clone(),
                ..AdaptiveOptions::default()
            };
            adaptive_gmres(a, b, x0, &aopts, precond)
        }
        FormatSpec::AdaptiveBidir => {
            let aopts = AdaptiveOptions {
                gmres: opts.clone(),
                de_escalate: true,
                de_escalation_cycles: 1,
                ..AdaptiveOptions::default()
            };
            adaptive_gmres(a, b, x0, &aopts, precond)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_known_names() {
        assert!(matches!(parse("float64"), Some(FormatSpec::F64)));
        assert!(matches!(parse("float16"), Some(FormatSpec::F16)));
        assert!(matches!(parse("frsz2_32"), Some(FormatSpec::Frsz2(32))));
        assert!(matches!(parse("frsz2_21"), Some(FormatSpec::Frsz2(21))));
        assert!(matches!(parse("sz3_08"), Some(FormatSpec::Lossy(_))));
        assert!(matches!(parse("zfp_fr_16"), Some(FormatSpec::Lossy(_))));
        assert!(matches!(parse("adaptive"), Some(FormatSpec::Adaptive)));
        assert!(matches!(
            parse("adaptive_bidir"),
            Some(FormatSpec::AdaptiveBidir)
        ));
        assert!(matches!(parse("frsz2_ab"), Some(FormatSpec::Frsz2Adaptive)));
        assert!(parse("frsz2_99").is_none());
        assert!(parse("whatever").is_none());
    }

    #[test]
    fn precond_parse_and_delegation() {
        let a = spla::gen::conv_diff_3d(4, 4, 4, [0.1, 0.0, 0.0], 0.5);
        for (name, reported) in [
            ("none", "none"),
            ("jacobi", "jacobi"),
            ("block_jacobi", "block-jacobi"),
        ] {
            let p = Precond::parse(name, &a).unwrap();
            assert_eq!(p.name(), reported);
            let v = vec![1.0; a.rows()];
            let mut out = vec![0.0; a.rows()];
            p.apply(&v, &mut out);
            assert!(out.iter().all(|x| x.is_finite()));
        }
        assert!(Precond::parse("ilu", &a).is_none());
        for name in Precond::names() {
            assert!(Precond::parse(name, &a).is_some(), "{name}");
        }
    }

    /// The preconditioned path must reach the target in fewer
    /// iterations than the identity path on a diagonally-dominant
    /// operator — and the compressed-basis formats must accept any
    /// `Precond` at the same storage rate as the identity run.
    #[test]
    fn preconditioned_solve_converges_faster() {
        let mut a = spla::gen::conv_diff_3d(6, 6, 6, [0.3, 0.1, 0.0], 0.3);
        // Skew the diagonal so Jacobi has something to equilibrate.
        let phi: Vec<i32> = (0..a.rows()).map(|i| (i % 7) as i32 - 3).collect();
        spla::gen::apply_similarity_scaling(&mut a, &phi);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            target_rrn: 1e-8,
            max_iters: 800,
            restart: 40,
            ..GmresOptions::default()
        };
        let spec = parse("frsz2_32").unwrap();
        let plain = solve(&a, &b, &x0, &opts, &spec);
        let jac = Precond::parse("jacobi", &a).unwrap();
        let pre = solve_precond(&a, &b, &x0, &opts, &spec, &jac);
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
    fn frsz2_ab_spec_solves_with_per_block_rate() {
        let a = spla::gen::wide_range_conv_diff_runs(8, 8, 8, 24, 16, 0x5202);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            target_rrn: 1e-10,
            max_iters: 1200,
            restart: 30,
            ..GmresOptions::default()
        };
        let r = solve(&a, &b, &x0, &opts, &parse("frsz2_ab").unwrap());
        assert!(r.stats.converged, "rrn {}", r.stats.final_rrn);
        assert_eq!(r.stats.format, "frsz2_ab");
        assert!(
            r.stats.basis_bits_per_value < 22.0,
            "rate {}",
            r.stats.basis_bits_per_value
        );
    }

    #[test]
    fn adaptive_spec_solves_and_reports_trajectory() {
        let a = spla::gen::conv_diff_3d(6, 6, 6, [0.3, 0.1, 0.0], 0.3);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            target_rrn: 1e-8,
            max_iters: 800,
            restart: 40,
            ..GmresOptions::default()
        };
        let r = solve(&a, &b, &x0, &opts, &FormatSpec::Adaptive);
        assert!(r.stats.converged, "rrn {}", r.stats.final_rrn);
        assert!(r.stats.final_rrn <= 1e-8);
        assert_eq!(r.stats.format_trajectory.len(), r.stats.restarts);
        assert_eq!(r.stats.format_trajectory[0], "frsz2_16");
    }

    #[test]
    fn solve_via_spec_matches_direct_call() {
        let a = spla::gen::conv_diff_3d(6, 6, 6, [0.3, 0.1, 0.0], 0.3);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            target_rrn: 1e-8,
            max_iters: 500,
            ..GmresOptions::default()
        };
        let via_spec = solve(&a, &b, &x0, &opts, &parse("frsz2_32").unwrap());
        let direct = gmres::<Frsz2Store, _, _>(&a, &b, &x0, &opts, &Identity);
        assert_eq!(via_spec.stats.iterations, direct.stats.iterations);
        assert_eq!(via_spec.stats.format, "frsz2_32");
    }

    #[test]
    fn lossy_roundtrip_format_converges() {
        let a = spla::gen::conv_diff_3d(6, 6, 6, [0.2, 0.1, 0.0], 0.4);
        let (_, b) = spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            target_rrn: 1e-6,
            max_iters: 500,
            ..GmresOptions::default()
        };
        let r = solve(&a, &b, &x0, &opts, &parse("zfp_fr_32").unwrap());
        assert!(
            r.stats.converged,
            "zfp_fr_32 should converge, rrn {}",
            r.stats.final_rrn
        );
    }
}
