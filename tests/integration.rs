//! Cross-crate integration tests: the full pipeline from problem
//! generation through compressed-basis solves, across every storage
//! format, on small instances.

use frsz2_repro::frsz2::{Frsz2Config, Frsz2Store, Frsz2Vector};
use frsz2_repro::gpusim;
use frsz2_repro::krylov::{
    adaptive_gmres, block_gmres_with, gmres, gmres_with, AdaptiveOptions, GmresOptions, Identity,
    Jacobi, ESCALATION_LADDER,
};
use frsz2_repro::lossy::{registry, Compressor, RoundTripStore};
use frsz2_repro::numfmt::{ColumnStorage, DenseStore, BF16, F16};
use frsz2_repro::spla::dense::{manufactured_rhs, norm2};
use frsz2_repro::spla::{gen, suite};

fn small_opts(target: f64) -> GmresOptions {
    GmresOptions {
        target_rrn: target,
        max_iters: 3000,
        ..GmresOptions::default()
    }
}

#[test]
fn every_storage_format_solves_the_same_system() {
    let a = gen::conv_diff_3d(10, 10, 10, [0.4, 0.2, 0.1], 0.2);
    let (x_true, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = small_opts(1e-10);

    let check = |label: &str, r: frsz2_repro::krylov::SolveResult| {
        assert!(
            r.stats.converged,
            "{label} did not converge: {}",
            r.stats.final_rrn
        );
        let err: f64 =
            r.x.iter()
                .zip(&x_true)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt();
        assert!(err < 1e-6, "{label} solution error {err}");
        r.stats.iterations
    };

    let base = check(
        "float64",
        gmres::<DenseStore<f64>, _, _>(&a, &b, &x0, &opts, &Identity),
    );
    for (label, iters) in [
        (
            "float32",
            check(
                "float32",
                gmres::<DenseStore<f32>, _, _>(&a, &b, &x0, &opts, &Identity),
            ),
        ),
        (
            "float16",
            check(
                "float16",
                gmres::<DenseStore<F16>, _, _>(&a, &b, &x0, &opts, &Identity),
            ),
        ),
        (
            "bfloat16",
            check(
                "bfloat16",
                gmres::<DenseStore<BF16>, _, _>(&a, &b, &x0, &opts, &Identity),
            ),
        ),
        (
            "frsz2_32",
            check(
                "frsz2_32",
                gmres::<Frsz2Store, _, _>(&a, &b, &x0, &opts, &Identity),
            ),
        ),
    ] {
        assert!(
            iters >= base,
            "{label} cannot beat the uncompressed basis on iterations here"
        );
    }
}

#[test]
fn cb_gmres_with_frsz2_21_basis_matches_f64_tolerance() {
    // Smoke test for the paper's headline configuration: CB-GMRES whose
    // Krylov basis is stored with the non-word-aligned `l = 21` format
    // must reach the same tolerance as the uncompressed f64 basis on the
    // 10×10×10 convection–diffusion system.
    let a = gen::conv_diff_3d(10, 10, 10, [0.4, 0.2, 0.1], 0.2);
    let (x_true, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = small_opts(1e-10);

    let full = gmres::<DenseStore<f64>, _, _>(&a, &b, &x0, &opts, &Identity);
    assert!(full.stats.converged, "f64 baseline did not converge");

    let cfg = Frsz2Config::new(32, 21);
    let cb = gmres_with(&a, &b, &x0, &opts, &Identity, |rows, cols| {
        Frsz2Store::with_config(cfg, rows, cols)
    });
    assert!(
        cb.stats.converged,
        "frsz2_21 basis did not reach 1e-10 (rrn {:.2e})",
        cb.stats.final_rrn
    );
    assert!(
        cb.stats.final_rrn <= opts.target_rrn,
        "converged flag disagrees with the residual ({:.2e})",
        cb.stats.final_rrn
    );
    // Both solves must actually solve the system, not merely stagnate.
    for (label, r) in [("float64", &full), ("frsz2_21", &cb)] {
        let err: f64 =
            r.x.iter()
                .zip(&x_true)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt();
        assert!(err < 1e-6, "{label} solution error {err}");
    }
    // 21-bit storage cannot beat the uncompressed basis on iterations.
    assert!(cb.stats.iterations >= full.stats.iterations);
    // And it must actually be storing ~21+ amortized bits, not 64.
    assert!(
        cb.stats.basis_bits_per_value < 23.0 && cb.stats.basis_bits_per_value > 20.0,
        "frsz2_21 basis reports {} bits/value",
        cb.stats.basis_bits_per_value
    );
}

#[test]
fn frsz2_variants_order_by_precision() {
    let a = gen::conv_diff_3d(9, 9, 9, [0.3, 0.1, 0.0], 0.15);
    let (_, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = small_opts(1e-9);
    let run = |l: u32| {
        let cfg = Frsz2Config::new(32, l);
        let r = gmres_with(&a, &b, &x0, &opts, &Identity, |rows, cols| {
            Frsz2Store::with_config(cfg, rows, cols)
        });
        assert!(r.stats.converged, "frsz2_{l} failed");
        r.stats.iterations
    };
    let (i16_, i32_, i64_) = (run(16), run(32), run(64));
    assert!(
        i64_ <= i32_,
        "more precision cannot need more iterations ({i64_} vs {i32_})"
    );
    assert!(
        i32_ <= i16_,
        "frsz2_32 ({i32_}) must beat frsz2_16 ({i16_})"
    );
}

#[test]
fn lossy_roundtrip_basis_converges_for_every_table_two_codec() {
    let a = gen::conv_diff_3d(8, 8, 8, [0.2, 0.1, 0.0], 0.3);
    let (_, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = small_opts(1e-6);
    for info in registry::TABLE_TWO.iter() {
        let codec = registry::by_name(info.name).unwrap();
        let r = gmres_with(&a, &b, &x0, &opts, &Identity, |rows, cols| {
            RoundTripStore::new(codec.clone(), rows, cols)
        });
        assert!(
            r.stats.converged,
            "{} did not reach 1e-6 (rrn {:.2e})",
            info.name, r.stats.final_rrn
        );
        assert!(
            r.stats.basis_bits_per_value > 1.0,
            "{} reported no storage rate",
            info.name
        );
    }
}

#[test]
fn simulated_gpu_kernels_agree_with_solver_storage() {
    // The warp-kernel decompression must agree bit-for-bit with what the
    // solver's accessor produced from the same compressed column.
    let n = 640;
    let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
    let cfg = Frsz2Config::new(32, 32);

    let mut store = Frsz2Store::with_config(cfg, n, 1);
    store.write_column(0, &data);
    let mut via_accessor = vec![0.0; n];
    store.read_column(0, &mut via_accessor);

    let v = Frsz2Vector::compress(cfg, &data);
    let (via_sim, counters) =
        gpusim::kernels::frsz2_decompress_sim(cfg, v.words(), v.exponents(), n);
    for i in 0..n {
        assert_eq!(via_sim[i].to_bits(), via_accessor[i].to_bits(), "row {i}");
    }
    // And the simulated kernel must fit the paper's instruction budget.
    let ops_per_value = (counters.int + counters.clz) as f64 / n as f64;
    assert!(
        ops_per_value < 46.0,
        "decompression exceeds the §I budget: {ops_per_value}"
    );
}

#[test]
fn suite_problems_have_finite_unit_rhs() {
    for name in suite::names() {
        let m = suite::build(name, 0.2).unwrap();
        let (x, b) = manufactured_rhs(&m.matrix);
        assert!(
            (norm2(&x) - 1.0).abs() < 1e-12,
            "{name}: solution not unit norm"
        );
        assert!(b.iter().all(|v| v.is_finite()), "{name}: non-finite rhs");
        assert!(
            suite::analogue_target(name).is_some(),
            "{name}: no analogue target"
        );
    }
}

#[test]
fn preconditioned_solve_reaches_tighter_targets() {
    // Extension feature: Jacobi preconditioning on a scaled problem.
    let mut a = gen::conv_diff_3d(8, 8, 8, [0.2, 0.0, 0.0], 0.4);
    let phi = gen::phi_uncorrelated(a.rows(), 6, 9);
    gen::apply_similarity_scaling(&mut a, &phi);
    let (_, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = small_opts(1e-11);
    let jac = Jacobi::new(&a);
    let plain = gmres::<Frsz2Store, _, _>(&a, &b, &x0, &opts, &Identity);
    let pre = gmres::<Frsz2Store, _, _>(&a, &b, &x0, &opts, &jac);
    assert!(pre.stats.converged);
    assert!(pre.stats.iterations <= plain.stats.iterations.max(1));
}

#[test]
fn cb_gmres_bit_identical_across_thread_counts() {
    // The determinism contract end to end: the full CB-GMRES solve with
    // the paper's non-word-aligned l = 21 basis must produce the exact
    // same residual history and iteration count whether the kernels run
    // on 1, 2, or 8 threads. Chunk boundaries (and therefore every
    // floating-point reduction order) are fixed independently of the
    // thread count, so any divergence here is a scheduling bug.
    let a = gen::conv_diff_3d(12, 12, 12, [0.4, 0.2, 0.1], 0.2);
    let (_, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = small_opts(1e-10);
    let cfg = Frsz2Config::new(32, 21);
    let solve = || {
        gmres_with(&a, &b, &x0, &opts, &Identity, |rows, cols| {
            Frsz2Store::with_config(cfg, rows, cols)
        })
    };

    let baseline = solve();
    assert!(baseline.stats.converged, "baseline solve must converge");
    assert!(
        !baseline.history.is_empty(),
        "history must be recorded for the comparison to mean anything"
    );
    for threads in [1, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let r = pool.install(solve);
        assert_eq!(
            r.stats.iterations, baseline.stats.iterations,
            "iteration count diverged at {threads} threads"
        );
        assert_eq!(
            r.stats.final_rrn.to_bits(),
            baseline.stats.final_rrn.to_bits(),
            "final residual diverged at {threads} threads"
        );
        assert_eq!(r.history.len(), baseline.history.len());
        for (p, q) in r.history.iter().zip(&baseline.history) {
            assert_eq!(p.iteration, q.iteration);
            assert_eq!(
                p.rrn.to_bits(),
                q.rrn.to_bits(),
                "residual history diverged at iteration {} with {threads} threads",
                p.iteration
            );
        }
        for (x1, x2) in r.x.iter().zip(&baseline.x) {
            assert_eq!(
                x1.to_bits(),
                x2.to_bits(),
                "solution vector diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn solver_histories_are_reproducible_across_runs() {
    let m = suite::build("atmosmodd", 0.2).unwrap();
    let (_, b) = manufactured_rhs(&m.matrix);
    let x0 = vec![0.0; m.matrix.rows()];
    let opts = small_opts(1e-12);
    let r1 = gmres::<Frsz2Store, _, _>(&m.matrix, &b, &x0, &opts, &Identity);
    let r2 = gmres::<Frsz2Store, _, _>(&m.matrix, &b, &x0, &opts, &Identity);
    assert_eq!(r1.history.len(), r2.history.len());
    for (p, q) in r1.history.iter().zip(&r2.history) {
        assert_eq!(p.rrn.to_bits(), q.rrn.to_bits());
    }
}

#[test]
fn frsz2_byte_adapter_matches_store_semantics() {
    let data: Vec<f64> = (0..300).map(|i| (i as f64 * 0.41).cos()).collect();
    let cfg = Frsz2Config::new(32, 21);
    let adapter = frsz2_repro::lossy::frsz2_adapter::Frsz2Compressor::new(cfg);
    let via_bytes = adapter.decompress(&adapter.compress(&data), data.len());

    let mut store = Frsz2Store::with_config(cfg, data.len(), 1);
    store.write_column(0, &data);
    for (i, v) in via_bytes.iter().enumerate() {
        assert_eq!(v.to_bits(), store.load(i, 0).to_bits(), "row {i}");
    }
}

#[test]
fn cb_gmres_l21_history_is_format_independent_end_to_end() {
    // The paper's headline l = 21 configuration, run with the operator
    // held in each sparse format (CSR / ELL / SELL-C-σ / the runtime
    // auto-selection): the bit-identity contract of `SparseMatrix`
    // means every residual history point and every solution entry is
    // bitwise equal — the format is a pure performance knob.
    use frsz2_repro::spla::{auto_format, Ell, SellCSigma, SparseMatrix};
    let a = gen::conv_diff_3d(10, 10, 10, [0.4, 0.2, 0.1], 0.2);
    let (_, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = small_opts(1e-10);
    let cfg = Frsz2Config::new(32, 21);
    let solve = |op: &dyn SparseMatrix| {
        gmres_with(op, &b, &x0, &opts, &Identity, |rows, cols| {
            Frsz2Store::with_config(cfg, rows, cols)
        })
    };
    let base = solve(&a);
    assert!(base.stats.converged, "CSR-backed l=21 solve must converge");
    let ell = Ell::from_csr(&a);
    let sell = SellCSigma::from_csr(&a, 32, 256);
    let auto = auto_format(&a).build(&a);
    for (label, op) in [
        ("ell", &ell as &dyn SparseMatrix),
        ("sell-c-sigma", &sell),
        ("auto", auto.as_ref()),
    ] {
        let r = solve(op);
        assert_eq!(r.stats.iterations, base.stats.iterations, "{label}");
        assert_eq!(r.history.len(), base.history.len(), "{label}");
        for (p, q) in r.history.iter().zip(&base.history) {
            assert_eq!(p.rrn.to_bits(), q.rrn.to_bits(), "{label} history");
        }
        for (u, v) in r.x.iter().zip(&base.x) {
            assert_eq!(u.to_bits(), v.to_bits(), "{label} solution");
        }
    }
}

#[test]
fn adaptive_basis_rescues_the_stagnating_frsz2_16_solve() {
    // Acceptance scenario end to end, on the PR02R regime (§VI-A):
    // similarity scaling by an uncorrelated power-of-two field spreads
    // neighbouring Krylov entries across ~24 binades, so frsz2_16's 14
    // kept bits flush most of each block and the fixed-format solve
    // stagnates far above target. The adaptive driver must (a) converge,
    // (b) escalate at most one ladder rung per restart boundary,
    // (c) report the per-cycle format trajectory, and (d) be bit-identical
    // at 1, 2 and 8 threads — escalation schedule included.
    let a = gen::wide_range_conv_diff(10, 10, 10, 24, 0x5202);
    let (_, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = GmresOptions {
        restart: 40,
        max_iters: 1500,
        target_rrn: 1e-10,
        ..GmresOptions::default()
    };

    // (counterpoint) fixed frsz2_16 stagnates to the iteration cap.
    let cfg = Frsz2Config::new(32, 16);
    let fixed = gmres_with(&a, &b, &x0, &opts, &Identity, |rows, cols| {
        Frsz2Store::with_config(cfg, rows, cols)
    });
    assert!(
        !fixed.stats.converged,
        "fixed frsz2_16 unexpectedly reached 1e-10 (rrn {:.2e})",
        fixed.stats.final_rrn
    );
    assert!(fixed.stats.final_rrn > 1e-8, "not a real stagnation");

    let aopts = AdaptiveOptions {
        gmres: opts,
        ..AdaptiveOptions::default()
    };
    let solve = || adaptive_gmres(&a, &b, &x0, &aopts, &Identity);
    let r = solve();
    assert!(
        r.stats.converged,
        "adaptive stalled at {:.2e} (trajectory {:?})",
        r.stats.final_rrn, r.stats.format_trajectory
    );
    assert!(r.stats.final_rrn <= 1e-10);
    assert!(
        r.stats.iterations < fixed.stats.iterations,
        "adaptive must beat the stagnating fixed solve"
    );
    assert!(r.stats.escalations >= 1);

    // (b) + (c): trajectory covers every cycle and climbs one rung at
    // a time, starting from the ladder base.
    assert_eq!(r.stats.format_trajectory.len(), r.stats.restarts);
    assert_eq!(r.stats.format_trajectory[0], ESCALATION_LADDER[0]);
    let rungs: Vec<usize> = r
        .stats
        .format_trajectory
        .iter()
        .map(|f| ESCALATION_LADDER.iter().position(|l| l == f).unwrap())
        .collect();
    for pair in rungs.windows(2) {
        assert!(
            pair[1] == pair[0] || pair[1] == pair[0] + 1,
            "more than one escalation at a restart boundary: {:?}",
            r.stats.format_trajectory
        );
    }

    // (d) thread-count bit-identity, fingerprint discipline included.
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let rt = pool.install(solve);
        assert_eq!(rt.stats.format_trajectory, r.stats.format_trajectory);
        assert_eq!(rt.stats.iterations, r.stats.iterations);
        assert_eq!(rt.history.len(), r.history.len());
        for (p, q) in rt.history.iter().zip(&r.history) {
            assert_eq!(
                p.rrn.to_bits(),
                q.rrn.to_bits(),
                "adaptive history diverged at {threads} threads"
            );
        }
        for (u, v) in rt.x.iter().zip(&r.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}

#[test]
fn wide_range_flush_behaviour_matches_prediction_end_to_end() {
    // The PR02R mechanism, end to end: predicted flush fraction from the
    // error module matches what the codec does inside the store.
    let n = 2048;
    let phi = gen::phi_uncorrelated(n, 40, 7);
    let data: Vec<f64> = (0..n)
        .map(|i| ((i as f64 * 0.73).sin() + 1.1) * f64::powi(2.0, phi[i]))
        .collect();
    let cfg = Frsz2Config::new(32, 32);
    let predicted = frsz2_repro::frsz2::error::predicted_flush_fraction(cfg, &data);
    let mut store = Frsz2Store::with_config(cfg, n, 1);
    store.write_column(0, &data);
    let mut out = vec![0.0; n];
    store.read_column(0, &mut out);
    let observed = data
        .iter()
        .zip(&out)
        .filter(|(a, b)| **a != 0.0 && **b == 0.0)
        .count() as f64
        / n as f64;
    assert!(
        (predicted - observed).abs() < 1e-9,
        "predicted {predicted} vs observed {observed}"
    );
    assert!(
        observed > 0.05,
        "the wide-range data must actually flush values"
    );
}

#[test]
fn block_solve_end_to_end_per_rhs_convergence_and_width_one_identity() {
    // The block driver through the umbrella crate, end to end: four
    // right-hand sides of single-solve difficulty share one compressed
    // Krylov space; every RHS must reach the explicit target
    // (recomputed here from scratch), and the width-1 block solve must
    // be the single solve bit for bit.
    let a = gen::conv_diff_3d(10, 10, 10, [0.4, 0.2, 0.1], 0.2);
    let n = a.rows();
    let (_, b0) = manufactured_rhs(&a);
    let rhss: Vec<Vec<f64>> = (0..4)
        .map(|k| {
            if k == 0 {
                b0.clone()
            } else {
                let xsol: Vec<f64> = (0..n)
                    .map(|i| ((i as f64) * (1.0 + 0.37 * k as f64) + (k as f64) * 0.73).sin())
                    .collect();
                a.mul_vec(&xsol)
            }
        })
        .collect();
    let opts = GmresOptions {
        restart: 25,
        ..small_opts(1e-9)
    };
    let cfg = Frsz2Config::new(32, 21);
    let r = block_gmres_with(&a, &rhss, None, &opts, &Identity, |rows, cols| {
        Frsz2Store::with_config(cfg, rows, cols)
    });
    assert!(r.all_converged(), "every RHS must converge");
    for (k, (x, b)) in r.solutions.iter().zip(&rhss).enumerate() {
        let ax = a.mul_vec(x);
        let res: Vec<f64> = ax.iter().zip(b).map(|(ai, bi)| bi - ai).collect();
        let rrn = norm2(&res) / norm2(b);
        assert!(
            rrn <= 1e-9,
            "RHS {k}: explicit residual {rrn:e} misses target"
        );
    }
    // One operator sweep per expansion serves all four RHS: far fewer
    // sweeps than four independent solves would spend.
    let total_iters: usize = r.stats.iter().map(|s| s.iterations).sum();
    assert!(
        (r.operator_sweeps as usize) < total_iters,
        "sweeps {} should be amortized below summed iterations {total_iters}",
        r.operator_sweeps
    );

    let single = gmres_with(&a, &b0, &vec![0.0; n], &opts, &Identity, |rows, cols| {
        Frsz2Store::with_config(cfg, rows, cols)
    });
    let one = block_gmres_with(
        &a,
        std::slice::from_ref(&rhss[0]),
        None,
        &opts,
        &Identity,
        |rows, cols| Frsz2Store::with_config(cfg, rows, cols),
    );
    assert_eq!(one.stats[0].iterations, single.stats.iterations);
    assert_eq!(
        one.stats[0].final_rrn.to_bits(),
        single.stats.final_rrn.to_bits()
    );
    for (x1, x2) in one.solutions[0].iter().zip(&single.x) {
        assert_eq!(
            x1.to_bits(),
            x2.to_bits(),
            "width-1 block must be the single solve"
        );
    }
}

/// Satellite (PR 10): checkpoint round-trips across every registered
/// basis format. Serialize at a mid-solve restart boundary, resume
/// from the decoded bytes, and require the stitched solve to be
/// byte-equal to the uninterrupted one — solution, residual history,
/// and counters — at 1, 2, and 8 threads.
#[test]
fn checkpoint_round_trip_is_bit_identical_for_every_format() {
    use frsz2_repro::krylov::basis_format::{by_name, names};
    use frsz2_repro::krylov::{solve, SolveCheckpoint, SolveControl, SolveHooks, SolvePlan};

    let a = gen::conv_diff_3d(6, 6, 6, [0.3, 0.2, 0.1], 0.2);
    let (_, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = GmresOptions {
        target_rrn: 1e-8,
        max_iters: 400,
        restart: 5,
        ..GmresOptions::default()
    };

    for name in names() {
        let fmt = by_name(&name).unwrap();
        let base = frsz2_repro::krylov::basis_format::gmres_dyn(
            &a,
            &b,
            &x0,
            &opts,
            &Identity,
            fmt.as_ref(),
        );
        assert!(
            base.stats.restarts >= 2,
            "{name}: need at least two cycles to split the solve"
        );

        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (halted, resumed) = pool.install(|| {
                // Halt at the second boundary (one completed cycle)...
                let mut taken: Option<Vec<u8>> = None;
                let mut boundaries = 0usize;
                let mut probe = |cp: &SolveCheckpoint| {
                    boundaries += 1;
                    if boundaries == 2 {
                        taken = Some(cp.encode(None));
                        SolveControl::Halt
                    } else {
                        SolveControl::Continue
                    }
                };
                let plan = SolvePlan::Fixed(fmt.as_ref(), &opts);
                let hooks = SolveHooks {
                    control: Some(&mut probe),
                    ..SolveHooks::default()
                };
                let first = solve(&a, &b, &x0, &Identity, plan, hooks).expect("fresh solve");
                // ...then resume from the serialized bytes.
                let bytes = taken.expect("checkpoint captured at halt");
                let cp = SolveCheckpoint::decode(&bytes, None).expect("checkpoint decodes");
                let hooks = SolveHooks {
                    resume: Some(&cp),
                    ..SolveHooks::default()
                };
                let zeros = vec![0.0; a.rows()];
                let resumed = solve(&a, &b, &zeros, &Identity, plan, hooks).expect("same solve");
                (first, resumed)
            });
            assert!(halted.halted, "{name}/{threads}t: probe must halt");
            let r = resumed.result;
            assert_eq!(
                r.stats.converged, base.stats.converged,
                "{name}/{threads}t: convergence state diverged"
            );
            assert_eq!(
                r.stats.iterations, base.stats.iterations,
                "{name}/{threads}t: iteration count diverged"
            );
            assert_eq!(
                r.stats.spmv_count, base.stats.spmv_count,
                "{name}/{threads}t: spmv count diverged"
            );
            assert_eq!(
                r.stats.final_rrn.to_bits(),
                base.stats.final_rrn.to_bits(),
                "{name}/{threads}t: final residual diverged"
            );
            assert_eq!(r.history.len(), base.history.len(), "{name}/{threads}t");
            for (p, q) in r.history.iter().zip(&base.history) {
                assert_eq!(p.iteration, q.iteration, "{name}/{threads}t");
                assert_eq!(
                    p.rrn.to_bits(),
                    q.rrn.to_bits(),
                    "{name}/{threads}t: residual history diverged at iteration {}",
                    p.iteration
                );
            }
            for (u, v) in r.x.iter().zip(&base.x) {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{name}/{threads}t: solution diverged"
                );
            }
        }
    }
}
