//! Pins what the fingerprint rows do not hash: the traffic counters of
//! the two panel drivers (block Arnoldi and s-step), and the basis
//! traffic a block solve reports over a round-trip codec store.
//!
//! Both drivers charge their own counters from the number of sweep
//! pairs the shared stage-1 projection ran; a change that adds, drops
//! or double-counts a decode sweep moves these literals. The system is
//! `conv_diff_3d(8,8,8,[0.4,0.2,0.1],0.2)` (512 rows), restart 30,
//! target 1e-9, `frsz2_21` storage — DGKS fires in both solves.

use krylov::basis_format::{by_name, gmres_dyn};
use krylov::{
    block_gmres_dyn, block_gmres_dyn_observed, sstep_gmres_dyn, CycleEvent, GmresOptions, Identity,
    SStepOptions, SolveStats,
};
use spla::dense::manufactured_rhs;
use spla::{gen, Csr};

fn system() -> (Csr, Vec<f64>) {
    let a = gen::conv_diff_3d(8, 8, 8, [0.4, 0.2, 0.1], 0.2);
    let (_, b) = manufactured_rhs(&a);
    (a, b)
}

/// The manufactured right-hand side plus smooth waves of distinct
/// frequency and phase (any prefix of the family is full-rank).
fn rhs_family(a: &Csr, b0: &[f64], count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|k| {
            if k == 0 {
                b0.to_vec()
            } else {
                (0..a.rows())
                    .map(|i| {
                        ((i as f64) * (0.21 + 0.045 * k as f64) + (k as f64) * 0.73).sin() + 0.1
                    })
                    .collect()
            }
        })
        .collect()
}

fn opts(target: f64) -> GmresOptions {
    GmresOptions {
        restart: 30,
        target_rrn: target,
        max_iters: 4000,
        ..GmresOptions::default()
    }
}

/// `[basis_dot_sweeps, basis_gemv_sweeps, reorthogonalizations,
/// breakdowns, spmv_count, basis_bytes_read, basis_bytes_written]`.
fn counters(s: &SolveStats) -> [u64; 7] {
    [
        s.basis_dot_sweeps,
        s.basis_gemv_sweeps,
        s.reorthogonalizations as u64,
        s.breakdowns as u64,
        s.spmv_count,
        s.basis_bytes_read,
        s.basis_bytes_written,
    ]
}

#[test]
fn block_width_four_counters_are_pinned() {
    let (a, b) = system();
    let bs = rhs_family(&a, &b, 4);
    let fmt = by_name("frsz2_21").unwrap();
    let r = block_gmres_dyn(&a, &bs, None, &opts(1e-9), &Identity, fmt.as_ref());
    assert!(r.all_converged());
    let got: Vec<[u64; 7]> = r.stats.iter().map(counters).collect();
    let want: Vec<[u64; 7]> = vec![
        [74, 76, 37, 0, 40, 2_530_176, 54_912],
        [88, 90, 44, 0, 47, 3_520_000, 64_768],
        [88, 90, 44, 0, 47, 3_520_000, 64_768],
        [88, 90, 44, 0, 47, 3_520_000, 64_768],
    ];
    assert_eq!(got, want);
    assert_eq!(r.operator_sweeps, 47);
}

#[test]
fn sstep_four_counters_are_pinned() {
    let (a, b) = system();
    let sopts = SStepOptions {
        s: 4,
        loo_budget: None,
        gmres: opts(1e-9),
    };
    let fmt = by_name("frsz2_21").unwrap();
    let x0 = vec![0.0; a.rows()];
    let r = sstep_gmres_dyn(&a, &b, &x0, &sopts, &Identity, fmt.as_ref());
    assert!(r.solve.stats.converged);
    assert_eq!(
        counters(&r.solve.stats),
        [24, 26, 12, 0, 49, 1_776_896, 63_360]
    );
}

/// A round-trip codec store only knows its rate once a column has been
/// compressed, so a block solve must read the column size after each
/// cycle's seed block is written and the bits per value from the live
/// store at the end — as the single-RHS loop does.
#[test]
fn block_solve_reports_round_trip_codec_traffic() {
    let (a, b) = system();
    let bs = rhs_family(&a, &b, 2);
    // A short restart puts each lane through several cycles.
    let o = GmresOptions {
        restart: 10,
        ..opts(1e-6)
    };
    let x0 = vec![0.0; a.rows()];
    for name in ["sz3_08", "zfp_fr_32", "frsz2_21"] {
        let fmt = by_name(name).unwrap();
        let single = gmres_dyn(&a, &b, &x0, &o, &Identity, fmt.as_ref());
        let mut events: Vec<(usize, CycleEvent)> = Vec::new();
        let r = block_gmres_dyn_observed(&a, &bs, None, &o, &Identity, fmt.as_ref(), |k, e| {
            events.push((k, e))
        });
        assert!(r.all_converged(), "{name}");
        let want = single.stats.basis_bits_per_value;
        for (k, s) in r.stats.iter().enumerate() {
            let bpv = s.basis_bits_per_value;
            assert!(
                bpv > 0.5 * want && bpv < 2.0 * want,
                "{name} rhs {k}: {bpv:.2} bits/value vs single {want:.2}"
            );
            assert!(s.basis_bytes_read > 0, "{name} rhs {k}: no bytes read");
            assert!(
                s.basis_bytes_written > 0,
                "{name} rhs {k}: no bytes written"
            );
        }
        // Fixed-rate formats report exactly the single solve's rate.
        if name != "sz3_08" {
            for s in &r.stats {
                assert_eq!(s.basis_bits_per_value, want, "{name}");
            }
        }
        // Every event after a lane's first cycle carries its traffic.
        for (k, e) in events.iter().filter(|(_, e)| e.cycle > 0) {
            assert!(e.basis_bytes_read > 0, "{name} rhs {k} cycle {}", e.cycle);
            assert!(
                e.basis_bytes_written > 0,
                "{name} rhs {k} cycle {}",
                e.cycle
            );
        }
        assert!(
            events.iter().any(|(_, e)| e.cycle > 0),
            "{name}: one cycle only"
        );
    }
}
