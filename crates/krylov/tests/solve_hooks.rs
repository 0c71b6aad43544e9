//! Contract of the hooked `krylov::solve` entry, one table for every
//! driver: each plan (`Fixed`, `SStep` at s = 4 and at s = 1, which runs
//! the scalar cycle under the s-step identity, `Adaptive`) under each
//! hook set (none, observer, armed probe) must reproduce the plan's
//! plain entry bit for bit at 1 and 2 threads, and a solve halted at a
//! boundary, serialized, decoded, and resumed must equal the
//! uninterrupted one. The checkpoint a halt returns carries the halted
//! solve's record. A checkpoint from a different solve, or with
//! counters no solve can capture, must be a typed error, never a panic.

use krylov::basis_format::{by_name, gmres_dyn, BasisFormat};
use krylov::{
    adaptive_gmres, solve, sstep_gmres_dyn, AdaptiveOptions, CheckpointError, CycleEvent,
    DriverKind, GmresOptions, Identity, SStepOptions, SolveCheckpoint, SolveControl, SolveHooks,
    SolvePlan, SolveResult, SolveStats,
};
use spla::dense::manufactured_rhs;
use spla::{gen, Csr};

#[derive(Clone, Copy, Debug)]
enum Kind {
    Fixed,
    SStep,
    Adaptive,
}

/// One row of the table: a system, the option structs its plan
/// borrows, and the boundary the halt/resume check splits at.
struct Case {
    kind: Kind,
    a: Csr,
    b: Vec<f64>,
    /// Basis format of the `Fixed`/`SStep` plans (unused by `Adaptive`).
    format: Box<dyn BasisFormat>,
    sopts: SStepOptions,
    aopts: AdaptiveOptions,
    halt_at: usize,
}

impl Case {
    fn new(kind: Kind, s: usize) -> Case {
        let (a, format, gmres, halt_at) = match kind {
            Kind::Fixed => (
                gen::conv_diff_3d(8, 8, 8, [0.3, 0.1, 0.0], 0.05),
                "frsz2_32",
                GmresOptions {
                    restart: 10,
                    target_rrn: 1e-8,
                    max_iters: 3000,
                    ..GmresOptions::default()
                },
                3,
            ),
            Kind::SStep => (
                gen::conv_diff_3d(8, 8, 8, [0.4, 0.2, 0.1], 0.2),
                "frsz2_21",
                GmresOptions {
                    restart: 12,
                    target_rrn: 1e-9,
                    max_iters: 4000,
                    ..GmresOptions::default()
                },
                3,
            ),
            // The PR02R regime: frsz2_16 stagnates, so the ladder
            // escalates mid-solve and the schedule is part of the bits.
            Kind::Adaptive => (
                gen::wide_range_conv_diff(8, 8, 8, 24, 0x5202),
                "frsz2_16",
                GmresOptions {
                    restart: 30,
                    target_rrn: 1e-10,
                    max_iters: 1200,
                    ..GmresOptions::default()
                },
                4,
            ),
        };
        let (_, b) = manufactured_rhs(&a);
        Case {
            kind,
            a,
            b,
            format: by_name(format).unwrap(),
            sopts: SStepOptions {
                s,
                loo_budget: None,
                gmres: gmres.clone(),
            },
            aopts: AdaptiveOptions {
                gmres,
                ..AdaptiveOptions::default()
            },
            halt_at,
        }
    }

    fn plan(&self) -> SolvePlan<'_> {
        match self.kind {
            Kind::Fixed => SolvePlan::Fixed(self.format.as_ref(), &self.sopts.gmres),
            Kind::SStep => SolvePlan::SStep(self.format.as_ref(), &self.sopts),
            Kind::Adaptive => SolvePlan::Adaptive(&self.aopts),
        }
    }

    fn x0(&self) -> Vec<f64> {
        vec![0.0; self.a.rows()]
    }

    /// The plan's plain (hook-free) entry.
    fn plain(&self) -> SolveResult {
        let (a, b, x0) = (&self.a, &self.b, &self.x0());
        match self.kind {
            Kind::Fixed => gmres_dyn(a, b, x0, &self.sopts.gmres, &Identity, self.format.as_ref()),
            Kind::SStep => {
                sstep_gmres_dyn(a, b, x0, &self.sopts, &Identity, self.format.as_ref()).solve
            }
            Kind::Adaptive => adaptive_gmres(a, b, x0, &self.aopts, &Identity),
        }
    }

    fn solve(&self, hooks: SolveHooks<'_>) -> SolveResult {
        solve(&self.a, &self.b, &self.x0(), &Identity, self.plan(), hooks).expect("no mismatch")
    }

    /// Halt at boundary `halt_at` and return the halted solve with the
    /// checkpoint it returned there.
    fn halt(&self) -> (SolveResult, SolveCheckpoint) {
        let mut seen = 0usize;
        let mut halt = || {
            seen += 1;
            if seen == self.halt_at {
                SolveControl::Halt
            } else {
                SolveControl::Continue
            }
        };
        let mut first = self.solve(SolveHooks {
            control: Some(&mut halt),
            ..SolveHooks::default()
        });
        let cp = first
            .checkpoint
            .take()
            .expect("checkpoint captured at halt");
        (first, *cp)
    }
}

/// Bit-for-bit equality of two solves: outcome, every counter, the
/// format and s-step trajectories, the residual history, and the
/// solution.
fn assert_same(label: &str, got: &SolveResult, want: &SolveResult) {
    let (g, w) = (&got.stats, &want.stats);
    assert_eq!(g.converged, w.converged, "{label}: converged");
    assert_eq!(g.iterations, w.iterations, "{label}: iterations");
    assert_eq!(g.restarts, w.restarts, "{label}: restarts");
    assert_eq!(g.spmv_count, w.spmv_count, "{label}: spmv_count");
    assert_eq!(g.reorthogonalizations, w.reorthogonalizations, "{label}");
    assert_eq!(g.breakdowns, w.breakdowns, "{label}: breakdowns");
    assert_eq!(g.escalations, w.escalations, "{label}: escalations");
    assert_eq!(g.de_escalations, w.de_escalations, "{label}");
    assert_eq!(g.basis_dot_sweeps, w.basis_dot_sweeps, "{label}");
    assert_eq!(g.basis_gemv_sweeps, w.basis_gemv_sweeps, "{label}");
    assert_eq!(g.basis_bytes_read, w.basis_bytes_read, "{label}");
    assert_eq!(g.basis_bytes_written, w.basis_bytes_written, "{label}");
    assert_eq!(g.format, w.format, "{label}: final format");
    assert_eq!(g.format_trajectory, w.format_trajectory, "{label}");
    assert_eq!(g.s_per_cycle, w.s_per_cycle, "{label}: panel widths");
    let loo = |s: &SolveStats| {
        s.loo_per_cycle
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(loo(g), loo(w), "{label}: LOO measures");
    assert_eq!(g.loo_breaches, w.loo_breaches, "{label}: LOO breaches");
    assert_eq!(g.final_rrn.to_bits(), w.final_rrn.to_bits(), "{label}");
    assert_eq!(got.history.len(), want.history.len(), "{label}: history");
    for (p, q) in got.history.iter().zip(&want.history) {
        assert_eq!(p.iteration, q.iteration, "{label}: history iteration");
        assert_eq!(p.rrn.to_bits(), q.rrn.to_bits(), "{label}: history rrn");
        assert_eq!(p.explicit, q.explicit, "{label}: history kind");
    }
    assert_eq!(got.x.len(), want.x.len(), "{label}: dimension");
    for (u, v) in got.x.iter().zip(&want.x) {
        assert_eq!(u.to_bits(), v.to_bits(), "{label}: solution");
    }
}

/// The observer streams one event per executed cycle, in cycle order,
/// each naming the format that cycle ran in, with forward-only
/// counters; the first event is the unit residual of `x0 = 0`.
fn assert_event_stream(label: &str, events: &[CycleEvent], r: &SolveResult) {
    assert_eq!(
        events.len(),
        r.stats.restarts,
        "{label}: one event per cycle"
    );
    let formats: Vec<&str> = events.iter().map(|e| e.format.as_str()).collect();
    let trajectory: Vec<&str> = r
        .stats
        .format_trajectory
        .iter()
        .map(String::as_str)
        .collect();
    assert_eq!(formats, trajectory, "{label}: event formats");
    assert_eq!(events[0].cycle, 0, "{label}");
    assert_eq!(events[0].iterations, 0, "{label}");
    assert!((events[0].explicit_rrn - 1.0).abs() < 1e-12, "{label}");
    for pair in events.windows(2) {
        assert_eq!(pair[1].cycle, pair[0].cycle + 1, "{label}: cycle order");
        assert!(pair[1].iterations > pair[0].iterations, "{label}");
        assert!(
            pair[1].basis_bytes_read >= pair[0].basis_bytes_read,
            "{label}"
        );
        assert!(
            pair[1].basis_bytes_written >= pair[0].basis_bytes_written,
            "{label}"
        );
    }
}

#[test]
fn every_plan_and_hook_set_matches_the_plain_entry_and_resumes_bit_identically() {
    let table = [
        (Kind::Fixed, 1),
        (Kind::SStep, 4),
        (Kind::SStep, 1),
        (Kind::Adaptive, 1),
    ];
    for (kind, s) in table {
        let case = Case::new(kind, s);
        let driver = case.plan().driver();
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let plain = one.install(|| case.plain());
        assert!(plain.stats.converged, "{kind:?}: reference must converge");
        assert!(
            plain.stats.restarts >= case.halt_at,
            "{kind:?}: need several cycles to split"
        );
        match kind {
            Kind::Adaptive => assert!(plain.stats.escalations >= 1, "ladder must move"),
            _ => assert!(
                plain
                    .stats
                    .format_trajectory
                    .iter()
                    .all(|f| *f == case.format.name()),
                "{kind:?}: fixed format throughout"
            ),
        }

        for threads in [1usize, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let label = format!("{kind:?}(s={s})/{threads}t");

                let bare = case.solve(SolveHooks::default());
                assert!(bare.checkpoint.is_none());
                assert_same(&format!("{label} no hooks"), &bare, &plain);

                let mut events = Vec::new();
                let mut observe = |e: &CycleEvent| events.push(e.clone());
                let observed = case.solve(SolveHooks {
                    observe: Some(&mut observe),
                    ..SolveHooks::default()
                });
                assert_same(&format!("{label} observer"), &observed, &plain);
                assert_event_stream(&label, &events, &plain);

                let mut boundaries = 0usize;
                let mut probe = || {
                    boundaries += 1;
                    SolveControl::Continue
                };
                let probed = case.solve(SolveHooks {
                    control: Some(&mut probe),
                    ..SolveHooks::default()
                });
                assert!(probed.checkpoint.is_none());
                assert_same(&format!("{label} probe"), &probed, &plain);
                assert_eq!(boundaries, plain.stats.restarts, "{label}: probe per cycle");

                // Halt at boundary `halt_at`, round-trip the checkpoint
                // through its byte format, resume from the decoded copy.
                let (first, cp) = case.halt();
                assert!(!first.stats.converged, "{label}: halt is not done");
                assert_eq!(cp.driver, driver, "{label}");
                assert_eq!(
                    cp.stats.restarts,
                    case.halt_at - 1,
                    "{label}: cycles at halt"
                );
                if let Kind::SStep = kind {
                    assert_eq!(cp.stats.s_per_cycle.len(), case.halt_at - 1, "{label}");
                }
                // The checkpoint is the halted solve's record, bar the
                // fields only the end of a solve sets.
                let halted_record = SolveStats {
                    wall_time: Default::default(),
                    basis_bits_per_value: 0.0,
                    ..first.stats.clone()
                };
                assert_eq!(cp.stats, halted_record, "{label}: checkpoint record");
                let decoded = SolveCheckpoint::decode(&cp.encode()).expect("decode");
                assert_eq!(decoded, cp, "{label}: byte round trip");
                let resumed = case.solve(SolveHooks {
                    resume: Some(&decoded),
                    ..SolveHooks::default()
                });
                assert!(resumed.checkpoint.is_none());
                assert_same(&format!("{label} resumed"), &resumed, &plain);
            });
        }
    }
}

/// Every way a checkpoint can belong to another solve is a typed
/// [`CheckpointError::Mismatch`] naming the field, before any work.
#[test]
fn resume_mismatch_is_a_typed_error_not_a_panic() {
    let fixed = Case::new(Kind::Fixed, 1);
    let sstep = Case::new(Kind::SStep, 4);
    let adaptive = Case::new(Kind::Adaptive, 1);
    let n = fixed.a.rows();
    let cp = |driver, format: &str, rows: usize| SolveCheckpoint {
        driver,
        x: vec![0.0; rows],
        stats: SolveStats {
            format: format.into(),
            ..SolveStats::default()
        },
        ..SolveCheckpoint::default()
    };
    let field = |case: &Case, cp: &SolveCheckpoint| {
        let hooks = SolveHooks {
            resume: Some(cp),
            ..SolveHooks::default()
        };
        match solve(&case.a, &case.b, &case.x0(), &Identity, case.plan(), hooks) {
            Err(CheckpointError::Mismatch { field, .. }) => field,
            other => panic!(
                "expected a mismatch, got {:?}",
                other.map(|r| r.checkpoint.is_some())
            ),
        }
    };
    assert_eq!(
        field(&fixed, &cp(DriverKind::Scalar, "frsz2_32", n + 1)),
        "dimension"
    );
    assert_eq!(
        field(&fixed, &cp(DriverKind::Adaptive, "frsz2_32", n)),
        "driver"
    );
    assert_eq!(
        field(&fixed, &cp(DriverKind::Scalar, "float64", n)),
        "format"
    );
    assert_eq!(
        field(&adaptive, &cp(DriverKind::Adaptive, "no_such_format", n)),
        "format"
    );
    let mut wide = cp(DriverKind::SStep, "frsz2_21", n);
    wide.s_cur = 64;
    assert_eq!(field(&sstep, &wide), "panel width");
    // A matching checkpoint passes the same check.
    assert!(cp(DriverKind::Scalar, "frsz2_32", n)
        .check_resume(n, &fixed.plan())
        .is_ok());
}

/// A captured checkpoint with one counter forged to its type's maximum
/// would overflow that counter on resume (a panic in a debug build,
/// a wrapped counter and a claimed convergence in release). Every such
/// checkpoint, and one whose trajectories, streak or outcome no solve
/// of the plan can produce, is refused before any work.
#[test]
fn forged_checkpoint_counters_are_refused() {
    let refusal = |case: &Case, cp: &SolveCheckpoint| {
        let hooks = SolveHooks {
            resume: Some(cp),
            ..SolveHooks::default()
        };
        match solve(&case.a, &case.b, &case.x0(), &Identity, case.plan(), hooks) {
            Err(CheckpointError::Mismatch { field, .. }) => field,
            other => panic!("expected a refusal, got {:?}", other.map(|r| r.stats)),
        }
    };
    let sstep = Case::new(Kind::SStep, 4);
    let (_, captured) = sstep.halt();
    // The captured checkpoint itself resumes.
    assert!(captured.check_resume(sstep.a.rows(), &sstep.plan()).is_ok());
    let forged = |label: &'static str, forge: fn(&mut SolveStats)| {
        let mut cp = captured.clone();
        forge(&mut cp.stats);
        (label, cp)
    };
    for (label, cp) in [
        forged("restarts", |st| st.restarts = usize::MAX),
        forged("reorthogonalizations", |st| {
            st.reorthogonalizations = usize::MAX
        }),
        forged("spmv_count", |st| st.spmv_count = u64::MAX),
        forged("basis_bytes_read", |st| st.basis_bytes_read = u64::MAX),
        forged("basis_bytes_written", |st| {
            st.basis_bytes_written = u64::MAX
        }),
        forged("basis_dot_sweeps", |st| st.basis_dot_sweeps = u64::MAX),
        forged("basis_gemv_sweeps", |st| st.basis_gemv_sweeps = u64::MAX),
        forged("s_per_cycle", |st| st.s_per_cycle.push(4)),
    ] {
        assert_eq!(refusal(&sstep, &cp), "counters", "{label}");
    }

    // A boundary has no outcome yet: a checkpoint claiming one would
    // hand it to the resumed solve without the explicit residual.
    let (label, cp) = forged("converged", |st| st.converged = true);
    assert_eq!(refusal(&sstep, &cp), "outcome", "{label}");

    let adaptive = Case::new(Kind::Adaptive, 1);
    let (_, mut cp) = adaptive.halt();
    cp.qualifying_streak = adaptive.aopts.de_escalation_cycles;
    assert_eq!(refusal(&adaptive, &cp), "counters", "qualifying_streak");
}
