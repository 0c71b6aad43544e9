//! Convergence diagnostics: Krylov-vector snapshots for the Fig. 2
//! decorrelation analysis (one Fig. 1 cycle on a basis the snapshot
//! owns, read back as stored), and guarded convergence-history summaries.

use crate::basis::Basis;
use crate::gmres::{run_cycle, GmresOptions, HistoryPoint, SolveStats, Workspace};
use crate::precond::Identity;
use numfmt::ColumnStorage;
use spla::stats;
use spla::SparseMatrix;

/// Summary of a recorded convergence history.
///
/// Every field is optional because a history may legitimately be empty
/// (`record_history: false`, or a solve that converged at iteration 0):
/// consumers must never index or `last().unwrap()` a history directly —
/// this summary is the guarded access path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistorySummary {
    /// Total recorded points.
    pub points: usize,
    /// The last recorded point of any kind.
    pub last: Option<HistoryPoint>,
    /// The last explicitly recomputed residual (restart boundaries).
    pub last_explicit: Option<HistoryPoint>,
    /// The last implicit Givens estimate.
    pub last_implicit: Option<HistoryPoint>,
    /// `last_explicit.rrn / preceding implicit rrn` — the Fig. 9a
    /// restart-correction factor. `None` when either side is missing
    /// or the implicit estimate is zero.
    pub implicit_explicit_gap: Option<f64>,
}

/// Summarize a convergence history. Total function: any slice —
/// including the empty one — yields a well-defined summary, so callers
/// downstream of `record_history: false` cannot panic.
pub fn history_summary(history: &[HistoryPoint]) -> HistorySummary {
    let mut summary = HistorySummary {
        points: history.len(),
        ..HistorySummary::default()
    };
    let mut preceding_implicit: Option<f64> = None;
    for p in history {
        if p.explicit {
            summary.implicit_explicit_gap = match preceding_implicit {
                Some(imp) if imp > 0.0 => Some(p.rrn / imp),
                _ => None,
            };
            summary.last_explicit = Some(*p);
        } else {
            preceding_implicit = Some(p.rrn);
            summary.last_implicit = Some(*p);
        }
        summary.last = Some(*p);
    }
    summary
}

/// A captured Krylov basis vector with the paper's Fig. 2 statistics.
#[derive(Clone, Debug)]
pub struct KrylovSnapshot {
    /// The stored (post-compression) basis vector.
    pub values: Vec<f64>,
    /// Global iteration at which it was written.
    pub iteration: usize,
    /// Histogram of raw values (Fig. 2a/2c).
    pub value_histogram: Vec<(f64, usize)>,
    /// Histogram of base-2 exponents (Fig. 2b/2d).
    pub exponent_histogram: Vec<(i32, usize)>,
    /// (exponents covering 90 % of entries, distinct exponents) — the
    /// "few common exponent values" observation of §III-A.
    pub exponent_concentration: (usize, usize),
}

/// Run the first GMRES cycle from `x0 = 0` (no preconditioner) far
/// enough to write basis vector number `iteration`, and return it as
/// stored, with its statistics. Returns `None` if the cycle breaks down
/// (the Krylov space stopped growing, e.g. the solve converged) before
/// writing it, or if `‖b‖` is zero, subnormal or not finite.
pub fn krylov_snapshot<S: ColumnStorage, A: SparseMatrix + ?Sized>(
    a: &A,
    b: &[f64],
    iteration: usize,
    value_bins: usize,
) -> Option<KrylovSnapshot> {
    let n = a.rows();
    let opts = GmresOptions {
        max_iters: iteration,
        // No implicit estimate ends the cycle; only a breakdown does.
        target_rrn: f64::NEG_INFINITY,
        record_history: false,
        ..GmresOptions::default()
    };
    let basis = &mut Basis::from_store(S::with_shape(n, iteration + 1));
    let ws = &mut Workspace::new(n, iteration);
    let (x, stats, history) = (&mut vec![0.0; n], &mut SolveStats::default(), &mut vec![]);
    let beta = ws.explicit_residual(a, b, x);
    if !beta.is_normal() {
        return None;
    }
    run_cycle(
        a, &Identity, &opts, basis, ws, x, beta, beta, stats, history,
    );
    if stats.breakdowns > 0 {
        return None;
    }
    let mut values = vec![0.0; n];
    basis.read_column(iteration, &mut values);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let pad = (hi - lo).max(1e-300) * 1e-6;
    Some(KrylovSnapshot {
        iteration,
        value_histogram: stats::value_histogram(&values, lo - pad, hi + pad, value_bins),
        exponent_histogram: stats::exponent_histogram(&values),
        exponent_concentration: stats::exponent_concentration(&values),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::gmres;
    use numfmt::DenseStore;
    use spla::dense::manufactured_rhs;
    use spla::gen;

    #[test]
    fn snapshot_captures_unit_vector_with_clustered_exponents() {
        let a = gen::conv_diff_3d(8, 8, 8, [0.3, 0.1, 0.0], 0.1);
        let (_, b) = manufactured_rhs(&a);
        let s = krylov_snapshot::<DenseStore<f64>, _>(&a, &b, 10, 32).expect("snapshot");
        assert_eq!(s.values.len(), 512);
        assert_eq!(s.iteration, 10);
        let nrm = spla::dense::norm2(&s.values);
        assert!((nrm - 1.0).abs() < 1e-10);
        // Fig. 2 observation: most entries share a handful of exponents.
        let (core, total) = s.exponent_concentration;
        assert!(core <= total);
        assert!(core <= 16, "90% of mass within a few binades, got {core}");
        // Histogram counts add to n.
        let count: usize = s.value_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(count, 512);
    }

    /// The snapshot is the stored column: unit norm as written, and for
    /// `float64` storage the exact vector the solver itself writes at
    /// that iteration.
    #[test]
    fn snapshot_is_the_normalized_basis_vector() {
        let a = gen::conv_diff_3d(6, 6, 6, [0.2, 0.1, 0.0], 0.2);
        let (_, b) = manufactured_rhs(&a);
        let v = krylov_snapshot::<DenseStore<f64>, _>(&a, &b, 5, 16)
            .expect("vector captured")
            .values;
        let nrm = spla::dense::norm2(&v);
        assert!(
            (nrm - 1.0).abs() < 1e-10,
            "basis vectors are unit norm, got {nrm}"
        );
        // Iteration 0 is the seed: the normalized right-hand side.
        let seed = krylov_snapshot::<DenseStore<f64>, _>(&a, &b, 0, 16).expect("seed");
        let bnorm = spla::dense::norm2(&b);
        for (s, bi) in seed.values.iter().zip(&b) {
            assert_eq!(s.to_bits(), (bi * (1.0 / bnorm)).to_bits());
        }
    }

    #[test]
    fn snapshot_none_when_converged_before_iteration() {
        let a = spla::Csr::identity(64);
        let (_, b) = manufactured_rhs(&a);
        // Identity converges immediately; iteration 50 is never reached.
        let s = krylov_snapshot::<DenseStore<f64>, _>(&a, &b, 50, 16);
        assert!(s.is_none());
    }

    #[test]
    fn history_summary_of_empty_history_is_all_none() {
        // The `record_history: false` contract: everything downstream
        // must tolerate an empty history.
        let s = history_summary(&[]);
        assert_eq!(s.points, 0);
        assert!(s.last.is_none());
        assert!(s.last_explicit.is_none());
        assert!(s.last_implicit.is_none());
        assert!(s.implicit_explicit_gap.is_none());
    }

    #[test]
    fn history_summary_tracks_kinds_and_restart_gap() {
        let pt = |iteration, rrn, explicit| HistoryPoint {
            iteration,
            rrn,
            explicit,
        };
        let h = vec![
            pt(0, 1.0, true),
            pt(1, 1e-3, false),
            pt(2, 1e-6, false),
            pt(2, 1e-4, true), // restart correction: 100x off the implicit
            pt(3, 5e-5, false),
        ];
        let s = history_summary(&h);
        assert_eq!(s.points, 5);
        assert_eq!(s.last, Some(pt(3, 5e-5, false)));
        assert_eq!(s.last_explicit, Some(pt(2, 1e-4, true)));
        assert_eq!(s.last_implicit, Some(pt(3, 5e-5, false)));
        let gap = s.implicit_explicit_gap.unwrap();
        assert!((gap - 100.0).abs() < 1e-9, "gap {gap}");
    }

    #[test]
    fn solve_without_history_produces_empty_but_valid_summary() {
        let a = gen::conv_diff_3d(6, 6, 6, [0.2, 0.1, 0.0], 0.3);
        let (_, b) = manufactured_rhs(&a);
        let opts = GmresOptions {
            record_history: false,
            target_rrn: 1e-8,
            ..GmresOptions::default()
        };
        let r = gmres::<DenseStore<f64>, _, _>(&a, &b, &vec![0.0; 216], &opts, &Identity);
        assert!(r.stats.converged);
        assert!(r.history.is_empty());
        let s = history_summary(&r.history);
        assert_eq!(s, HistorySummary::default());
        // The honest residual lives in stats, independent of history.
        assert!(r.stats.final_rrn <= 1e-8);
    }
}
