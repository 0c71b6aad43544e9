//! Workspace-level property tests: invariants that span crates.

use frsz2_repro::frsz2::{Frsz2Config, Frsz2Store, Frsz2Vector};
use frsz2_repro::gpusim;
use frsz2_repro::krylov::{
    adaptive_gmres, basis_format, AdaptiveOptions, GmresOptions, Identity, SolveResult,
};
use frsz2_repro::lossy::registry;
use frsz2_repro::numfmt::ColumnStorage;
use frsz2_repro::spla::gen;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The simulated GPU decompression kernel and the CPU codec agree
    /// bit for bit for every supported l on random Krylov-like data.
    #[test]
    fn gpu_sim_equals_cpu_codec(
        l in prop_oneof![Just(16u32), Just(21), Just(32)],
        blocks in 1usize..8,
        seed in 0u64..1000,
    ) {
        let n = blocks * 32;
        let data: Vec<f64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed + 1) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let cfg = Frsz2Config::new(32, l);
        let v = Frsz2Vector::compress(cfg, &data);
        let (sim, _) = gpusim::kernels::frsz2_decompress_sim(cfg, v.words(), v.exponents(), n);
        let cpu = v.decompress();
        for i in 0..n {
            prop_assert_eq!(sim[i].to_bits(), cpu[i].to_bits(), "row {}", i);
        }
    }

    /// Simulated compression produces the same stream the CPU does.
    #[test]
    fn gpu_sim_compression_equals_cpu(
        l in prop_oneof![Just(16u32), Just(21), Just(32)],
        data in prop::collection::vec(-2.0f64..2.0, 32..129),
    ) {
        let n = (data.len() / 32) * 32;
        let data = &data[..n];
        let cfg = Frsz2Config::new(32, l);
        let v = Frsz2Vector::compress(cfg, data);
        let (words, exps, _) = gpusim::kernels::frsz2_compress_sim(cfg, data);
        prop_assert_eq!(&words, v.words());
        prop_assert_eq!(&exps, v.exponents());
    }

    /// Every registered codec round-trips arbitrary finite data within
    /// its advertised bound class (absolute bounds checked directly).
    #[test]
    fn registry_codecs_respect_absolute_bounds(
        data in prop::collection::vec(-1.0f64..1.0, 1..300),
    ) {
        for (name, bound) in [("sz3_06", 1e-6), ("sz3_07", 1e-7), ("sz3_08", 1e-8),
                              ("zfp_06", 1.4e-6), ("zfp_10", 4.0e-10)] {
            let c = registry::by_name(name).unwrap();
            let out = c.decompress(&c.compress(&data), data.len()).unwrap();
            for (i, (a, b)) in data.iter().zip(&out).enumerate() {
                prop_assert!((a - b).abs() <= bound, "{}: i={} err {}", name, i, (a - b).abs());
            }
        }
    }

    /// Writing a column through the FRSZ2 store and through the plain
    /// codec is the same operation.
    #[test]
    fn store_and_codec_are_consistent(
        data in prop::collection::vec(-10.0f64..10.0, 1..200),
        l in prop_oneof![Just(16u32), Just(21), Just(32), Just(48)],
    ) {
        let cfg = Frsz2Config::new(32, l);
        let mut store = Frsz2Store::with_config(cfg, data.len(), 1);
        store.write_column(0, &data);
        let v = Frsz2Vector::compress(cfg, &data);
        for i in 0..data.len() {
            prop_assert_eq!(store.load(i, 0).to_bits(), v.get(i).to_bits(), "i = {}", i);
        }
    }
}

/// Run `solve` under a pool of exactly `threads` threads.
fn under_pool(threads: usize, solve: impl Fn() -> SolveResult) -> SolveResult {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(solve)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The honest-convergence contract, for EVERY registered basis
    /// format at 1/2/8 threads: `converged == true` implies the final
    /// explicit relative residual actually meets the target (never the
    /// implicit Givens estimate alone), and each format's solve is
    /// bit-identical across thread counts (the fingerprint discipline
    /// extended to the whole registry).
    #[test]
    fn every_registered_format_converges_honestly_at_any_thread_count(
        seed in 0u64..1000,
    ) {
        let a = gen::conv_diff_3d(5, 5, 5, [0.3, 0.2, 0.1], 0.25);
        let b: Vec<f64> = (0..a.rows())
            .map(|i| (((i as u64).wrapping_mul(seed + 7) % 997) as f64 / 499.0) - 1.0)
            .collect();
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            target_rrn: 1e-6,
            max_iters: 150,
            restart: 30,
            ..GmresOptions::default()
        };
        for name in basis_format::names() {
            let fmt = basis_format::by_name(&name).unwrap();
            let solve = || basis_format::gmres_dyn(&a, &b, &x0, &opts, &Identity, fmt.as_ref());
            let base = under_pool(1, solve);
            if base.stats.converged {
                prop_assert!(
                    base.stats.final_rrn <= opts.target_rrn,
                    "{}: converged but explicit rrn {:.2e} > target",
                    name, base.stats.final_rrn
                );
                // And the reported residual is the explicit one of the
                // returned x, recomputed independently.
                let mut ax = vec![0.0; a.rows()];
                a.spmv(&base.x, &mut ax);
                let mut res = vec![0.0; a.rows()];
                frsz2_repro::spla::dense::sub(&b, &ax, &mut res);
                let explicit = frsz2_repro::spla::dense::norm2(&res)
                    / frsz2_repro::spla::dense::norm2(&b);
                prop_assert_eq!(
                    explicit.to_bits(), base.stats.final_rrn.to_bits(),
                    "{}: final_rrn is not the explicit residual", &name
                );
            }
            for threads in [2usize, 8] {
                let r = under_pool(threads, solve);
                prop_assert_eq!(
                    r.stats.iterations, base.stats.iterations,
                    "{} at {} threads", &name, threads
                );
                prop_assert_eq!(r.history.len(), base.history.len(), "{}", &name);
                for (p, q) in r.history.iter().zip(&base.history) {
                    prop_assert_eq!(
                        p.rrn.to_bits(), q.rrn.to_bits(),
                        "{} history at {} threads", &name, threads
                    );
                }
                for (u, v) in r.x.iter().zip(&base.x) {
                    prop_assert_eq!(
                        u.to_bits(), v.to_bits(),
                        "{} solution at {} threads", &name, threads
                    );
                }
            }
        }
    }

    /// Adaptive solves — escalation schedule included — are
    /// bit-identical across thread counts.
    #[test]
    fn adaptive_solver_is_bit_identical_across_thread_counts(
        range in prop_oneof![Just(16u32), Just(24)],
    ) {
        let a = gen::wide_range_conv_diff(6, 6, 6, range, 0x5202);
        let (_, b) = frsz2_repro::spla::dense::manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = AdaptiveOptions {
            gmres: GmresOptions {
                target_rrn: 1e-10,
                max_iters: 900,
                restart: 30,
                ..GmresOptions::default()
            },
            ..AdaptiveOptions::default()
        };
        let solve = || adaptive_gmres(&a, &b, &x0, &opts, &Identity);
        let base = under_pool(1, solve);
        prop_assert!(base.stats.converged || base.stats.iterations >= 900);
        for threads in [2usize, 8] {
            let r = under_pool(threads, solve);
            prop_assert_eq!(
                &r.stats.format_trajectory, &base.stats.format_trajectory,
                "escalation schedule diverged at {} threads", threads
            );
            prop_assert_eq!(r.stats.escalations, base.stats.escalations);
            prop_assert_eq!(r.history.len(), base.history.len());
            for (p, q) in r.history.iter().zip(&base.history) {
                prop_assert_eq!(p.rrn.to_bits(), q.rrn.to_bits());
            }
            for (u, v) in r.x.iter().zip(&base.x) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }
}
