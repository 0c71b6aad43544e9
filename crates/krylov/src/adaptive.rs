//! Adaptive-precision CB-GMRES: escalate the basis storage format when
//! the *explicit* residual stops improving.
//!
//! A fixed lossy basis caps the reachable residual at its
//! storage-accuracy floor: below it the implicit Givens estimate keeps
//! shrinking (it cannot see the compression loss) while the explicit
//! `‖b − Ax‖/‖b‖` stagnates — the Fig. 9a implicit/explicit gap, and
//! the false-convergence bug class this module exists to kill.
//! Compressed Basis GMRES (Aliaga et al., arXiv:2009.12101) observes
//! that the storage precision only needs to match the *current*
//! residual: early cycles tolerate aggressive compression, and
//! precision is only paid for once the residual has earned it.
//!
//! [`adaptive_gmres`] implements that schedule as a driver over the
//! cycle-granular core shared with [`crate::gmres::gmres_with`]: run
//! one restart cycle, recompute the explicit residual, and **escalate**
//! the format along [`crate::basis_format::ESCALATION_LADDER`]
//! (`frsz2_16 → frsz2_21 → frsz2_32 → float64`) when the cycle shows
//! stagnation. Escalation happens at most once per restart boundary,
//! carries `x` across the switch (only the basis store is rebuilt —
//! basis vectors never survive a restart anyway), and is recorded in
//! [`crate::SolveStats::format_trajectory`]. All decisions are pure functions
//! of deterministically-computed residuals, so adaptive solves inherit
//! the workspace-wide bit-identical-across-thread-counts contract.
//!
//! With [`AdaptiveOptions::de_escalate`] the driver is *bidirectional*:
//! once the explicit residual has shown
//! [`AdaptiveOptions::de_escalation_cycles`] consecutive healthy
//! cycles — each improving by at least
//! [`AdaptiveOptions::de_escalation_drop`] with the implicit estimate
//! in agreement — the driver steps **down** one rung, reclaiming basis
//! bandwidth that a conservative escalation left on the table (the
//! Aliaga et al. observation in reverse: a residual that is dropping
//! fast has precision headroom to spare). De-escalation carries `x`
//! across the switch exactly as escalation does, counts in
//! [`crate::SolveStats::de_escalations`], and shows in the trajectory.
//! The hysteresis (consecutive-cycle streak, reset on any stagnation
//! or non-qualifying cycle, one rung per boundary) keeps the ladder
//! from thrashing. Off by default: existing escalation-only schedules
//! are reproduced bit for bit.

use crate::basis::Basis;
use crate::basis_format::{self, BasisFormat};
use crate::checkpoint::{DriverKind, SolveCheckpoint};
use crate::gmres::{
    solve_driver_full, Boundary, ControlledSolve, CyclePolicy, GmresOptions, SolveHooks,
    SolveResult, SolveStats,
};
use crate::precond::Preconditioner;
use numfmt::ColumnStorage;
use spla::SparseMatrix;

/// Options of [`adaptive_gmres`]: the base GMRES options plus the
/// escalation policy.
#[derive(Clone, Debug)]
pub struct AdaptiveOptions {
    /// The underlying solver options (restart length, target, ...).
    pub gmres: GmresOptions,
    /// Starting format name (resolved via [`basis_format::by_name`]).
    /// `None` starts at the bottom of the escalation ladder
    /// (`frsz2_16`): optimistic storage, evidence-driven escalation.
    pub start_format: Option<String>,
    /// A cycle is *stagnant* when it improves the explicit residual by
    /// less than this factor (`previous_rrn / current_rrn <
    /// min_cycle_improvement`). A healthy restart cycle improves by
    /// orders of magnitude; at a storage floor the ratio sits near 1.
    pub min_cycle_improvement: f64,
    /// A cycle is *lying* when the explicit residual exceeds the last
    /// implicit estimate by more than this factor — the implicit/
    /// explicit gap that precedes false convergence.
    pub max_implicit_explicit_gap: f64,
    /// Enable ladder de-escalation (default `false`, which reproduces
    /// the escalation-only schedule bit for bit).
    pub de_escalate: bool,
    /// A cycle *qualifies* toward de-escalation when it improves the
    /// explicit residual by at least this factor
    /// (`previous_rrn / current_rrn ≥ de_escalation_drop`) while the
    /// implicit estimate agrees with the explicit residual within
    /// [`AdaptiveOptions::max_implicit_explicit_gap`] in both
    /// directions.
    pub de_escalation_drop: f64,
    /// Consecutive qualifying cycles required before stepping down one
    /// rung (the hysteresis that prevents ladder thrash). The streak
    /// resets on any stagnant or non-qualifying cycle and after every
    /// rung change.
    pub de_escalation_cycles: usize,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            gmres: GmresOptions::default(),
            start_format: None,
            min_cycle_improvement: 1.5,
            max_implicit_explicit_gap: 10.0,
            de_escalate: false,
            de_escalation_drop: 10.0,
            de_escalation_cycles: 2,
        }
    }
}

/// Decide whether the just-finished cycle stagnated. Pure function of
/// deterministic residuals — no wall-clock, no randomness — so the
/// escalation schedule is reproducible bit for bit.
fn stagnates(
    opts: &AdaptiveOptions,
    prev_explicit: f64,
    explicit: f64,
    last_implicit: Option<f64>,
) -> bool {
    let (gap, target) = (opts.max_implicit_explicit_gap, opts.gmres.target_rrn);
    let lying = last_implicit.is_some_and(|implicit| {
        // False convergence: the implicit estimate claimed the target
        // but the explicit residual missed it by more than the allowed
        // gap. (A healthy cycle that breaks on the implicit test lands
        // the explicit residual within rounding of the target — that is
        // convergence pending the next boundary check, not stagnation.)
        (implicit <= target && explicit > gap * target)
            // Implicit gap: explicit exceeds implicit beyond the gap.
            || (implicit > 0.0 && explicit > gap * implicit)
    });
    // Flat cycle: the explicit residual barely improved.
    lying || (explicit > 0.0 && prev_explicit / explicit < opts.min_cycle_improvement)
}

/// Decide whether the just-finished cycle *qualifies* toward
/// de-escalation: the explicit residual dropped by the hysteresis
/// factor and the implicit estimate agrees with it within the allowed
/// gap in **both** directions (an implicit estimate far below the
/// explicit residual is the stagnation signature, not health; one far
/// above it means the cycle's own arithmetic is suspect). Pure and
/// deterministic, like [`stagnates`].
fn qualifies_for_de_escalation(
    opts: &AdaptiveOptions,
    prev_explicit: f64,
    explicit: f64,
    last_implicit: Option<f64>,
) -> bool {
    let gap = opts.max_implicit_explicit_gap;
    let agrees = last_implicit.is_some_and(|implicit| {
        implicit > 0.0 && explicit <= gap * implicit && implicit <= gap * explicit
    });
    agrees && explicit > 0.0 && prev_explicit / explicit >= opts.de_escalation_drop
}

/// The adaptive cycle policy: the scalar cycle, plus a rung decision
/// at every restart boundary — at most one rung per boundary, in either
/// direction, judged on the cycle that just finished.
struct Ladder<'a> {
    opts: &'a AdaptiveOptions,
    /// The rung the next cycle runs in.
    format: Box<dyn BasisFormat>,
    /// Consecutive cycles qualifying for de-escalation.
    streak: usize,
}

impl Ladder<'_> {
    /// Move to rung `name`: only the basis store is rebuilt (basis
    /// vectors never survive a restart anyway); `x` carries across.
    fn switch(
        &mut self,
        name: &str,
        basis: &mut Basis<Box<dyn ColumnStorage>>,
        stats: &mut SolveStats,
    ) {
        self.format = basis_format::by_name(name).expect("ladder rungs are registered");
        *basis = Basis::from_store(self.format.create(basis.rows(), basis.cols()));
        stats.format = basis.format_name();
    }
}

impl CyclePolicy<Box<dyn ColumnStorage>> for Ladder<'_> {
    const DRIVER: DriverKind = DriverKind::Adaptive;

    fn at_boundary(
        &mut self,
        boundary: &Boundary,
        basis: &mut Basis<Box<dyn ColumnStorage>>,
        stats: &mut SolveStats,
    ) {
        // First boundary: no finished cycle to judge.
        let Some(prev) = boundary.prev_explicit_rrn else {
            return;
        };
        let opts = self.opts;
        let (rrn, implicit) = (boundary.explicit_rrn, boundary.last_implicit_rrn);
        if stagnates(opts, prev, rrn, implicit) {
            self.streak = 0;
            // Already at the top: nothing stronger to switch to; keep
            // iterating toward max_iters honestly.
            if let Some(up) = basis_format::escalate(&self.format.name()) {
                self.switch(&up, basis, stats);
                stats.escalations += 1;
            }
        } else if opts.de_escalate {
            if !qualifies_for_de_escalation(opts, prev, rrn, implicit) {
                self.streak = 0;
                return;
            }
            self.streak += 1;
            if self.streak >= opts.de_escalation_cycles {
                self.streak = 0;
                // At the bottom rung: nothing cheaper to reclaim.
                if let Some(down) = basis_format::de_escalate(&self.format.name()) {
                    self.switch(&down, basis, stats);
                    stats.de_escalations += 1;
                }
            }
        }
    }

    fn capture(&self, cp: &mut SolveCheckpoint) {
        cp.qualifying_streak = self.streak;
    }

    fn restore(&mut self, cp: &SolveCheckpoint) {
        self.streak = cp.qualifying_streak;
    }
}

/// Solve `A x = b` with restarted CB-GMRES whose basis format starts
/// cheap and escalates on stagnation (see module docs).
///
/// Semantics shared with [`crate::gmres::gmres`]: `converged` is
/// decided exclusively from the explicit residual, the history mixes
/// implicit points with explicit restart-boundary points, and the
/// residual history is bit-identical for any thread count. Extra
/// reporting: [`crate::SolveStats::format_trajectory`] holds the format of
/// every executed cycle, [`crate::SolveStats::escalations`] and
/// [`crate::SolveStats::de_escalations`] count the rung changes in each
/// direction, and [`crate::SolveStats::format`] is the final format.
///
/// Observed, controlled, and resumed adaptive solves go through
/// [`crate::solve`] with [`crate::SolvePlan::Adaptive`]: an event
/// names the rung of the cycle about to run, and a checkpoint records
/// that rung plus the de-escalation streak, so a resumed ladder
/// schedule reproduces exactly.
pub fn adaptive_gmres<P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    b: &[f64],
    x0: &[f64],
    opts: &AdaptiveOptions,
    precond: &P,
) -> SolveResult {
    adaptive_driver(a, b, x0, opts, precond, SolveHooks::default()).result
}

/// [`adaptive_gmres`] under `hooks` (the [`crate::SolvePlan::Adaptive`]
/// arm of [`crate::solve`]). A resumed solve starts at the
/// checkpointed rung, which [`SolveCheckpoint::check_resume`] has
/// already found in the registry.
pub(crate) fn adaptive_driver<P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    b: &[f64],
    x0: &[f64],
    opts: &AdaptiveOptions,
    precond: &P,
    hooks: SolveHooks<'_>,
) -> ControlledSolve {
    assert!(opts.min_cycle_improvement >= 1.0);
    assert!(opts.max_implicit_explicit_gap >= 1.0);
    assert!(opts.de_escalation_drop >= 1.0);
    assert!(opts.de_escalation_cycles >= 1);
    let start = match (hooks.resume, &opts.start_format) {
        (Some(cp), _) => cp.format.as_str(),
        (None, Some(name)) => name.as_str(),
        (None, None) => basis_format::ESCALATION_LADDER[0],
    };
    let format =
        basis_format::by_name(start).unwrap_or_else(|| panic!("unknown basis format {start}"));
    let basis = Basis::from_store(format.create(a.rows(), opts.gmres.restart + 1));
    let mut ladder = Ladder {
        opts,
        format,
        streak: 0,
    };
    solve_driver_full(a, b, x0, &opts.gmres, precond, basis, &mut ladder, hooks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::gmres_with;
    use crate::precond::Identity;
    use frsz2::{Frsz2Config, Frsz2Store};
    use spla::dense::manufactured_rhs;
    use spla::gen;

    fn adaptive_opts(target: f64, max_iters: usize, restart: usize) -> AdaptiveOptions {
        AdaptiveOptions {
            gmres: GmresOptions {
                target_rrn: target,
                max_iters,
                restart,
                ..GmresOptions::default()
            },
            ..AdaptiveOptions::default()
        }
    }

    /// The PR02R regime (§VI-A): genuine stagnation for narrow FRSZ2,
    /// not just slow convergence (see [`gen::wide_range_conv_diff`]).
    fn wide_range_system() -> (spla::Csr, Vec<f64>) {
        let a = gen::wide_range_conv_diff(8, 8, 8, 24, 0x5202);
        let (_, b) = manufactured_rhs(&a);
        (a, b)
    }

    #[test]
    fn converges_where_fixed_frsz2_16_stagnates() {
        // The acceptance scenario: target far below what frsz2_16 can
        // reach on a wide-dynamic-range operator. Fixed frsz2_16
        // stagnates to max_iters; adaptive escalates through the
        // ladder and converges.
        let (a, b) = wide_range_system();
        let x0 = vec![0.0; a.rows()];
        let opts = adaptive_opts(1e-10, 1200, 30);

        let cfg = Frsz2Config::new(32, 16);
        let fixed = gmres_with(&a, &b, &x0, &opts.gmres, &Identity, |r, c| {
            Frsz2Store::with_config(cfg, r, c)
        });
        assert!(
            !fixed.stats.converged,
            "fixed frsz2_16 unexpectedly reached 1e-10 (rrn {:.2e})",
            fixed.stats.final_rrn
        );

        let adaptive = adaptive_gmres(&a, &b, &x0, &opts, &Identity);
        assert!(
            adaptive.stats.converged,
            "adaptive stalled at rrn {:.2e} (trajectory {:?})",
            adaptive.stats.final_rrn, adaptive.stats.format_trajectory
        );
        assert!(adaptive.stats.final_rrn <= 1e-10);
        assert!(adaptive.stats.escalations >= 1, "must have escalated");
        // Trajectory bookkeeping: one entry per executed cycle, walking
        // the ladder monotonically, starting at the base.
        assert_eq!(
            adaptive.stats.format_trajectory.len(),
            adaptive.stats.restarts
        );
        assert_eq!(adaptive.stats.format_trajectory[0], "frsz2_16");
        let ladder = crate::basis_format::ESCALATION_LADDER;
        let rungs: Vec<usize> = adaptive
            .stats
            .format_trajectory
            .iter()
            .map(|f| ladder.iter().position(|l| l == f).expect("on-ladder"))
            .collect();
        for pair in rungs.windows(2) {
            assert!(
                pair[1] == pair[0] || pair[1] == pair[0] + 1,
                "escalation must be at most one rung per restart boundary: {:?}",
                adaptive.stats.format_trajectory
            );
        }
        assert_eq!(
            adaptive.stats.escalations,
            rungs.windows(2).filter(|p| p[1] != p[0]).count()
        );
        // The final format is the strongest one used.
        assert_eq!(
            &adaptive.stats.format,
            adaptive.stats.format_trajectory.last().unwrap()
        );
    }

    #[test]
    fn easy_target_never_escalates() {
        // Above the frsz2_16 floor there is no stagnation evidence, so
        // the solve finishes entirely in the cheapest format.
        let a = gen::conv_diff_3d(8, 8, 8, [0.3, 0.2, 0.1], 0.3);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = adaptive_opts(1e-3, 1000, 50);
        let r = adaptive_gmres(&a, &b, &x0, &opts, &Identity);
        assert!(r.stats.converged);
        assert_eq!(r.stats.escalations, 0);
        assert!(r.stats.format_trajectory.iter().all(|f| f == "frsz2_16"));
    }

    #[test]
    fn explicit_start_format_is_respected() {
        let a = gen::conv_diff_3d(6, 6, 6, [0.2, 0.1, 0.0], 0.3);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let mut opts = adaptive_opts(1e-10, 1000, 40);
        opts.start_format = Some("float64".into());
        let r = adaptive_gmres(&a, &b, &x0, &opts, &Identity);
        assert!(r.stats.converged);
        assert_eq!(r.stats.escalations, 0);
        assert!(r.stats.format_trajectory.iter().all(|f| f == "float64"));
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = spla::Csr::identity(10);
        let opts = adaptive_opts(1e-12, 100, 10);
        let r = adaptive_gmres(&a, &[0.0; 10], &[1.0; 10], &opts, &Identity);
        assert!(r.stats.converged);
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert!(r.stats.format_trajectory.is_empty());
    }

    #[test]
    fn qualifying_rule_needs_drop_and_two_sided_agreement() {
        let opts = AdaptiveOptions {
            de_escalate: true,
            ..AdaptiveOptions::default()
        };
        // 100× drop, implicit within the gap: qualifies.
        assert!(qualifies_for_de_escalation(&opts, 1e-2, 1e-4, Some(2e-4)));
        // Drop below the hysteresis factor: no.
        assert!(!qualifies_for_de_escalation(&opts, 1e-2, 2e-3, Some(2e-3)));
        // Implicit far below explicit (stagnation signature): no.
        assert!(!qualifies_for_de_escalation(&opts, 1e-2, 1e-4, Some(1e-7)));
        // Implicit far above explicit: no.
        assert!(!qualifies_for_de_escalation(&opts, 1e-2, 1e-4, Some(1e-1)));
        // No implicit point at all: no.
        assert!(!qualifies_for_de_escalation(&opts, 1e-2, 1e-4, None));
    }

    /// A solve forced to start at `float64` on a smooth operator drops
    /// by orders of magnitude every cycle: with de-escalation enabled
    /// it must step back down the ladder and still converge.
    #[test]
    fn de_escalation_reclaims_bandwidth_after_float64_start() {
        let a = gen::conv_diff_3d(8, 8, 8, [0.3, 0.2, 0.1], 0.3);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let mut opts = adaptive_opts(1e-10, 2000, 10);
        opts.start_format = Some("float64".into());
        opts.de_escalate = true;
        let r = adaptive_gmres(&a, &b, &x0, &opts, &Identity);
        assert!(r.stats.converged, "rrn {:.2e}", r.stats.final_rrn);
        assert!(
            r.stats.de_escalations >= 1,
            "no de-escalation in {:?}",
            r.stats.format_trajectory
        );
        assert_eq!(r.stats.format_trajectory[0], "float64");
        // Rung changes are one step per boundary, both directions, and
        // the counters match the trajectory.
        let ladder = crate::basis_format::ESCALATION_LADDER;
        let rungs: Vec<usize> = r
            .stats
            .format_trajectory
            .iter()
            .map(|f| ladder.iter().position(|l| l == f).expect("on-ladder"))
            .collect();
        for pair in rungs.windows(2) {
            assert!(
                pair[0].abs_diff(pair[1]) <= 1,
                "at most one rung per boundary: {:?}",
                r.stats.format_trajectory
            );
        }
        assert_eq!(
            r.stats.de_escalations,
            rungs.windows(2).filter(|p| p[1] < p[0]).count()
        );
        assert_eq!(
            r.stats.escalations,
            rungs.windows(2).filter(|p| p[1] > p[0]).count()
        );
        assert_eq!(&r.stats.format, r.stats.format_trajectory.last().unwrap());
    }

    /// The acceptance scenario for PR 6: on the wide-range operator the
    /// bidirectional driver escalates out of stagnation *and* steps
    /// back down once the residual is dropping — both directions in one
    /// trajectory, still converging to the deep target.
    #[test]
    fn bidirectional_trajectory_on_wide_range() {
        let (a, b) = wide_range_system();
        let x0 = vec![0.0; a.rows()];
        let mut opts = adaptive_opts(1e-10, 1200, 30);
        opts.de_escalate = true;
        // The 8³ system converges within six cycles; a single qualifying
        // cycle must trigger the step-down for both directions to appear
        // in so short a trajectory (the two-cycle default needs the
        // longer 12³ solve exercised by the bench harness).
        opts.de_escalation_cycles = 1;
        let r = adaptive_gmres(&a, &b, &x0, &opts, &Identity);
        assert!(
            r.stats.converged,
            "stalled at rrn {:.2e} (trajectory {:?})",
            r.stats.final_rrn, r.stats.format_trajectory
        );
        assert!(r.stats.escalations >= 1, "{:?}", r.stats.format_trajectory);
        assert!(
            r.stats.de_escalations >= 1,
            "no de-escalation in {:?}",
            r.stats.format_trajectory
        );
    }

    /// De-escalation is opt-in: with the flag off the escalation-only
    /// schedule of PR 4 reproduces bit for bit, de_escalations stays 0.
    #[test]
    fn de_escalation_is_off_by_default() {
        let (a, b) = wide_range_system();
        let x0 = vec![0.0; a.rows()];
        let opts = adaptive_opts(1e-10, 1200, 30);
        let r = adaptive_gmres(&a, &b, &x0, &opts, &Identity);
        assert_eq!(r.stats.de_escalations, 0);
        let ladder = crate::basis_format::ESCALATION_LADDER;
        let rungs: Vec<usize> = r
            .stats
            .format_trajectory
            .iter()
            .map(|f| ladder.iter().position(|l| l == f).unwrap())
            .collect();
        assert!(rungs.windows(2).all(|p| p[1] >= p[0]), "up-only");
    }

    /// `frsz2_ab` converges on the mixed-regime runs operator where
    /// *both* fixed `frsz2_16` and fixed `frsz2_21` stagnate — the
    /// per-block selector widens exactly the plateau-straddling blocks
    /// whose spread would otherwise flush — at a lower average rate
    /// than whole-basis `frsz2_21` (22 bits/value). On the fully
    /// uncorrelated operator this is impossible: every block spans
    /// ~`range` binades, so honest per-block selection picks wide codes
    /// everywhere and the average rate exceeds 22.
    #[test]
    fn per_block_store_converges_on_wide_range_below_frsz2_21_rate() {
        let a = gen::wide_range_conv_diff_runs(8, 8, 8, 24, 16, 0x5202);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = adaptive_opts(1e-10, 1200, 30);

        let fixed = crate::basis_format::by_name("frsz2_16").unwrap();
        let s = crate::basis_format::gmres_dyn(&a, &b, &x0, &opts.gmres, &Identity, fixed.as_ref());
        assert!(
            !s.stats.converged,
            "fixed frsz2_16 unexpectedly converged (rrn {:.2e})",
            s.stats.final_rrn
        );

        let fmt = crate::basis_format::by_name("frsz2_ab").unwrap();
        let r = crate::basis_format::gmres_dyn(&a, &b, &x0, &opts.gmres, &Identity, fmt.as_ref());
        assert!(
            r.stats.converged,
            "frsz2_ab stalled at rrn {:.2e}",
            r.stats.final_rrn
        );
        assert!(
            r.stats.basis_bits_per_value < 22.0,
            "average rate {} not below frsz2_21's 22 bits/value",
            r.stats.basis_bits_per_value
        );
        assert_eq!(r.stats.format, "frsz2_ab");
    }

    #[test]
    fn adaptive_solver_is_deterministic() {
        // Uses the stagnating system so the escalation schedule itself
        // is part of what must reproduce.
        let (a, b) = wide_range_system();
        let x0 = vec![0.0; a.rows()];
        let opts = adaptive_opts(1e-10, 1200, 30);
        let r1 = adaptive_gmres(&a, &b, &x0, &opts, &Identity);
        let r2 = adaptive_gmres(&a, &b, &x0, &opts, &Identity);
        assert_eq!(r1.stats.format_trajectory, r2.stats.format_trajectory);
        assert_eq!(r1.history.len(), r2.history.len());
        for (p, q) in r1.history.iter().zip(&r2.history) {
            assert_eq!(p.rrn.to_bits(), q.rrn.to_bits());
        }
        for (u, v) in r1.x.iter().zip(&r2.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}
