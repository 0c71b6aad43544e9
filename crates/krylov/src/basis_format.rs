//! Runtime registry of Krylov-basis storage formats.
//!
//! The solver is generic over [`numfmt::ColumnStorage`], which is ideal
//! when the format is known at compile time — but the adaptive driver
//! ([`crate::adaptive`]) and anything configuration-driven need to pick
//! (and *re*-pick) a format at runtime. Here every backend sits behind
//! one object-safe factory ([`BasisFormat`]), formats are resolved by
//! the paper's names ([`by_name`]), and [`auto_basis`] chooses a format
//! from the solve parameters.
//!
//! Registered backends:
//!
//! | name                        | backend                               | accuracy floor      |
//! |-----------------------------|---------------------------------------|---------------------|
//! | `float64`                   | `DenseStore<f64>`                     | 2⁻⁵²                |
//! | `float32`                   | `DenseStore<f32>`                     | 2⁻²⁴                |
//! | `float16`                   | `DenseStore<F16>`                     | 2⁻¹¹                |
//! | `bfloat16`                  | `DenseStore<BF16>`                    | 2⁻⁸                 |
//! | `frsz2_<l>` (2 ≤ l ≤ 64)    | `Frsz2Store`, BS = 32                 | 2⁻⁽ˡ⁻²⁾             |
//! | `frsz2_ab`                  | `Frsz2AdaptiveStore` (per-block `l`)  | 2⁻¹⁴ (measured)     |
//! | any `lossy::registry` name  | `lossy::RoundTripStore`               | the registry row's floor |
//!
//! The **accuracy floor** is the worst-case absolute error storage may
//! add to a unit-scale value (Krylov columns are unit-norm, so this is
//! the storage-induced residual floor a solve can stagnate at). It
//! orders the formats for [`escalate`], the ladder the adaptive solver
//! climbs when the explicit residual stops improving.

use crate::precond::Preconditioner;
use frsz2::{Frsz2AdaptiveStore, Frsz2Config, Frsz2Store};
use lossy::RoundTripStore;
use numfmt::{ColumnStorage, DenseStore, BF16, F16};
use spla::SparseMatrix;

/// An object-safe factory for Krylov-basis storage.
///
/// One registered format = one factory; [`BasisFormat::create`] builds
/// a fresh store of the given shape, which the solver drives through
/// the (also object-safe) `ColumnStorage` surface.
pub trait BasisFormat: Send + Sync {
    /// Paper-style display name (`float64`, `frsz2_21`, `sz3_08`, ...).
    fn name(&self) -> String;

    /// Worst-case absolute storage error on a unit-scale value — the
    /// residual floor this format can stagnate at (see module docs).
    fn accuracy_floor(&self) -> f64;

    /// Stored bits per value for a column of `rows` values (Eq. 3 for
    /// FRSZ2; codecs report a nominal estimate since their achieved
    /// rate is data-dependent).
    fn bits_per_value(&self, rows: usize) -> f64;

    /// Largest s-step panel width the format admits (see
    /// [`crate::sstep`]): the monomial matrix-powers basis loses ~one
    /// binade of conditioning per power, so a format keeping `l`
    /// mantissa bits can only absorb panels whose conditioning growth
    /// stays well inside `l` — beyond that the measured
    /// loss-of-orthogonality trips the runtime monitor every cycle and
    /// s-step degenerates to `s = 1` with extra diagnostics traffic.
    /// Mirrors [`BasisFormat::accuracy_floor`]: a measured, per-format
    /// table rather than a universal constant. Defaults to 1 (no
    /// s-step) so unknown formats are safe by construction.
    fn max_sstep(&self) -> usize {
        1
    }

    /// Allocate a `rows × cols` store of this format.
    fn create(&self, rows: usize, cols: usize) -> Box<dyn ColumnStorage>;
}

enum Backend {
    F64,
    F32,
    F16,
    BF16,
    Frsz2(Frsz2Config),
    Frsz2Adaptive,
    Codec(&'static lossy::registry::Codec),
}

/// A registry entry (construct via [`by_name`] or [`auto_basis`]).
pub struct RegisteredFormat {
    backend: Backend,
}

impl BasisFormat for RegisteredFormat {
    fn name(&self) -> String {
        match &self.backend {
            Backend::F64 => "float64".into(),
            Backend::F32 => "float32".into(),
            Backend::F16 => "float16".into(),
            Backend::BF16 => "bfloat16".into(),
            Backend::Frsz2(cfg) => cfg.name(),
            Backend::Frsz2Adaptive => "frsz2_ab".into(),
            Backend::Codec(row) => row.name.into(),
        }
    }

    fn accuracy_floor(&self) -> f64 {
        match &self.backend {
            Backend::F64 => f64::powi(2.0, -52),
            Backend::F32 => f64::powi(2.0, -24),
            Backend::F16 => f64::powi(2.0, -11),
            Backend::BF16 => f64::powi(2.0, -8),
            // Worst case of Eq. 2 at block max 1: 2^-(l-2).
            Backend::Frsz2(cfg) => cfg.worst_case_abs_error(1.0),
            // Worst case when the per-block selector picks its
            // cheapest length (`l = 16`, zero-spread block at unit
            // scale) — measured by `frsz2_ab_floor_is_measured_tight`.
            Backend::Frsz2Adaptive => f64::powi(2.0, -14),
            Backend::Codec(row) => row.accuracy_floor,
        }
    }

    fn bits_per_value(&self, rows: usize) -> f64 {
        match &self.backend {
            Backend::F64 => 64.0,
            Backend::F32 => 32.0,
            Backend::F16 | Backend::BF16 => 16.0,
            Backend::Frsz2(cfg) => cfg.bits_per_value(rows.max(1)),
            // Nominal best case (all blocks at l = 16 plus the 40-bit
            // per-block metadata); the achieved rate is data-dependent
            // and reported by the live store's `bits_per_value`.
            Backend::Frsz2Adaptive => 16.0 + 40.0 / 32.0,
            // Nominal: codecs only know their rate after compressing.
            Backend::Codec(_) => 64.0,
        }
    }

    fn max_sstep(&self) -> usize {
        match &self.backend {
            // Exact storage: bounded only by the monomial basis itself
            // (κ(panel) ~ κ(A)^s; 16 powers is where double-precision
            // CholQR still recovers on the paper's operators).
            Backend::F64 => 16,
            Backend::F32 => 8,
            // 11/8 mantissa bits leave no headroom beyond a pair.
            Backend::F16 | Backend::BF16 => 2,
            // FRSZ2 keeps `l − 2` mantissa bits below the block max;
            // the table steps down with the bit length like the
            // accuracy floor does.
            Backend::Frsz2(cfg) => match cfg.bits() {
                l if l >= 28 => 12,
                l if l >= 20 => 8,
                l if l >= 12 => 4,
                _ => 2,
            },
            // Per-block adaptive: floor is the cheapest block (l = 16).
            Backend::Frsz2Adaptive => 4,
            // Codecs are ordered by their registered floor.
            Backend::Codec(row) => {
                if row.accuracy_floor <= 1e-10 {
                    8
                } else if row.accuracy_floor <= 1e-6 {
                    4
                } else {
                    2
                }
            }
        }
    }

    fn create(&self, rows: usize, cols: usize) -> Box<dyn ColumnStorage> {
        match &self.backend {
            Backend::F64 => Box::new(DenseStore::<f64>::with_shape(rows, cols)),
            Backend::F32 => Box::new(DenseStore::<f32>::with_shape(rows, cols)),
            Backend::F16 => Box::new(DenseStore::<F16>::with_shape(rows, cols)),
            Backend::BF16 => Box::new(DenseStore::<BF16>::with_shape(rows, cols)),
            Backend::Frsz2(cfg) => Box::new(Frsz2Store::with_config(*cfg, rows, cols)),
            Backend::Frsz2Adaptive => Box::new(Frsz2AdaptiveStore::with_shape(rows, cols)),
            Backend::Codec(row) => Box::new(RoundTripStore::new(row.build(), rows, cols)),
        }
    }
}

/// The adaptive escalation ladder, cheapest storage first (the
/// `frsz2_16 → frsz2_21 → frsz2_32 → float64` path of the paper's
/// recommended configurations; 17 → 22 → 33 → 64 bits/value).
pub const ESCALATION_LADDER: [&str; 4] = ["frsz2_16", "frsz2_21", "frsz2_32", "float64"];

/// Resolve a format by its paper name. Accepts `float64`/`f64`,
/// `float32`/`f32`, `float16`/`f16`, `bfloat16`/`bf16`, any
/// `frsz2_<l>` with `2 ≤ l ≤ 64` (block size 32), `frsz2_ab` (the
/// per-block adaptive-length store), and every `lossy::registry`
/// codec name. Returns `None` for unknown names.
pub fn by_name(name: &str) -> Option<Box<dyn BasisFormat>> {
    let backend = match name {
        "float64" | "f64" => Backend::F64,
        "float32" | "f32" => Backend::F32,
        "float16" | "f16" => Backend::F16,
        "bfloat16" | "bf16" => Backend::BF16,
        "frsz2_ab" => Backend::Frsz2Adaptive,
        _ => {
            if let Some(bits) = name.strip_prefix("frsz2_") {
                let bits: u32 = bits.parse().ok()?;
                if !(2..=64).contains(&bits) {
                    return None;
                }
                Backend::Frsz2(Frsz2Config::new(32, bits))
            } else {
                Backend::Codec(lossy::registry::find(name)?)
            }
        }
    };
    Some(Box::new(RegisteredFormat { backend }))
}

/// All registered format names: the escalation ladder, the value-level
/// casts, the per-block adaptive store, and every Table II codec.
pub fn names() -> Vec<String> {
    let mut v: Vec<String> = ESCALATION_LADDER.iter().map(|s| s.to_string()).collect();
    v.extend(
        ["float32", "float16", "bfloat16", "frsz2_ab"]
            .iter()
            .map(|s| s.to_string()),
    );
    v.extend(lossy::registry::names().iter().map(|s| s.to_string()));
    v
}

/// Safety margin between a format's accuracy floor and the stopping
/// target in [`auto_basis`]: the floor is a per-value bound, a restart
/// cycle accumulates it over up to `m` orthogonalization passes (√m in
/// the usual probabilistic model), and each pass reduces over `n` rows
/// (√log₂ n — far below the worst-case √n because storage errors are
/// uncorrelated across rows). The floor must clear the target by
/// `HEADROOM · √m · √log₂(n)`.
pub const AUTO_BASIS_HEADROOM: f64 = 4.0;

/// Pick a fixed basis format for a solve with stopping target
/// `target_rrn` on an `n`-row system with restart length `m`: the
/// narrowest ladder format whose accuracy floor, amplified by the
/// documented `HEADROOM · √m · √log₂(n)` margin, still clears the
/// target. Falls back to `float64`, which has no meaningful floor.
/// Deterministic: a pure function of its arguments.
///
/// This is the *static* advisor; when the target sits below every
/// compressed floor, [`crate::adaptive::adaptive_gmres`] can still
/// spend most cycles in cheap formats and escalate on evidence.
pub fn auto_basis(target_rrn: f64, n: usize, m: usize) -> Box<dyn BasisFormat> {
    let amplification =
        AUTO_BASIS_HEADROOM * (m.max(1) as f64).sqrt() * (n.max(2) as f64).log2().sqrt();
    for name in ESCALATION_LADDER {
        let fmt = by_name(name).expect("ladder names are registered");
        if fmt.accuracy_floor() * amplification <= target_rrn {
            return fmt;
        }
    }
    by_name("float64").expect("float64 is registered")
}

/// The next-stronger format after `name` on the escalation ladder, or
/// `None` when `name` is `float64` (nothing stronger exists). Aliases
/// (`f64`, `frsz2_ab`, ...) are canonicalized before the ladder
/// lookup. Formats outside the ladder (casts, codecs, wide `frsz2_<l>`)
/// join it monotonically: at the first rung with a *strictly smaller*
/// accuracy floor than their own, falling back to `float64` when no
/// rung qualifies — `float64` stores `f64` data exactly, so it is the
/// one destination stronger than any lossy format in every regime
/// (a nominal `frsz2_60` floor still flushes wide-spread blocks;
/// exact storage never does).
pub fn escalate(name: &str) -> Option<String> {
    let fmt = by_name(name)?;
    let canon = fmt.name();
    if let Some(pos) = ESCALATION_LADDER.iter().position(|&f| f == canon) {
        return ESCALATION_LADDER.get(pos + 1).map(|s| s.to_string());
    }
    let current = fmt.accuracy_floor();
    ESCALATION_LADDER
        .iter()
        .find(|&&f| {
            by_name(f)
                .map(|fmt| fmt.accuracy_floor() < current)
                .unwrap_or(false)
        })
        .map(|s| s.to_string())
        .or_else(|| Some("float64".to_string()))
}

/// The next-*cheaper* ladder format below `name`, or `None` at the
/// bottom rung. De-escalation only retraces the ladder: a solve that
/// escalated through `frsz2_16 → ... → float64` steps back down the
/// same rungs, so off-ladder formats (which nothing escalates *to*)
/// report `None`. Aliases are canonicalized like [`escalate`].
pub fn de_escalate(name: &str) -> Option<String> {
    let canon = by_name(name)?.name();
    let pos = ESCALATION_LADDER.iter().position(|&f| f == canon)?;
    pos.checked_sub(1).map(|p| ESCALATION_LADDER[p].to_string())
}

/// Solve with a runtime-selected basis format: the boxed-storage
/// equivalent of [`crate::gmres::gmres`], one line per registered
/// backend away from any future format. Observed, controlled, and
/// resumed fixed-format solves go through [`crate::solve`] with
/// [`crate::SolvePlan::Fixed`].
pub fn gmres_dyn<P: Preconditioner, A: SparseMatrix + ?Sized>(
    a: &A,
    b: &[f64],
    x0: &[f64],
    opts: &crate::gmres::GmresOptions,
    precond: &P,
    format: &dyn BasisFormat,
) -> crate::gmres::SolveResult {
    crate::gmres::gmres_with(a, b, x0, opts, precond, |rows, cols| {
        format.create(rows, cols)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::GmresOptions;
    use crate::precond::Identity;
    use spla::dense::manufactured_rhs;
    use spla::gen;

    #[test]
    fn every_registered_name_resolves_and_creates_storage() {
        for name in names() {
            let fmt = by_name(&name).unwrap_or_else(|| panic!("{name} not resolvable"));
            assert_eq!(fmt.name(), name);
            assert!(fmt.accuracy_floor() > 0.0, "{name}");
            let mut store = fmt.create(64, 2);
            let v: Vec<f64> = (0..64).map(|i| (i as f64 * 0.21).sin()).collect();
            store.write_column(0, &v);
            let mut out = vec![0.0; 64];
            store.read_column(0, &mut out);
            let floor = fmt.accuracy_floor();
            // Generous envelope: per-codec tightness is asserted by the
            // registry's own tests; here the claim is that the floor is
            // the right order of magnitude for escalation ordering.
            for (i, (a, b)) in v.iter().zip(&out).enumerate() {
                assert!(
                    (a - b).abs() <= floor * 8.0 + 1e-6,
                    "{name}: row {i} error {} far above floor {floor}",
                    (a - b).abs()
                );
            }
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(by_name("frsz2_99").is_none());
        assert!(by_name("frsz2_1").is_none());
        assert!(by_name("no_such_format").is_none());
    }

    #[test]
    fn floors_order_the_ladder_strictly() {
        let floors: Vec<f64> = ESCALATION_LADDER
            .iter()
            .map(|n| by_name(n).unwrap().accuracy_floor())
            .collect();
        for pair in floors.windows(2) {
            assert!(pair[0] > pair[1], "ladder must strictly gain accuracy");
        }
    }

    #[test]
    fn escalate_walks_the_ladder_and_terminates() {
        assert_eq!(escalate("frsz2_16").as_deref(), Some("frsz2_21"));
        assert_eq!(escalate("frsz2_21").as_deref(), Some("frsz2_32"));
        assert_eq!(escalate("frsz2_32").as_deref(), Some("float64"));
        assert_eq!(escalate("float64"), None);
        // Off-ladder formats join at the first stronger rung.
        assert_eq!(escalate("bfloat16").as_deref(), Some("frsz2_16"));
        assert_eq!(escalate("float32").as_deref(), Some("frsz2_32"));
        assert_eq!(escalate("zfp_fr_16").as_deref(), Some("frsz2_16"));
        // sz3_08's 1e-8 floor is weaker than frsz2_32's 2^-30.
        assert_eq!(escalate("sz3_08").as_deref(), Some("frsz2_32"));
        // The per-block store's measured 2^-14 floor joins below it.
        assert_eq!(escalate("frsz2_ab").as_deref(), Some("frsz2_21"));
        // Aliases canonicalize before the ladder lookup.
        assert_eq!(escalate("f64"), None);
        // Off-ladder formats at or beyond float64's nominal floor used
        // to be stuck (`None` while not actually exact); they now
        // finish on exact storage.
        assert_eq!(escalate("frsz2_54").as_deref(), Some("float64"));
        assert_eq!(escalate("frsz2_64").as_deref(), Some("float64"));
        assert_eq!(escalate("not_a_format"), None);
    }

    /// Property over every registered name (plus aliases and the whole
    /// `frsz2_<l>` family): each escalation step either strictly
    /// shrinks the accuracy floor or lands on exact `float64` storage,
    /// and every chain terminates there within one ladder length.
    #[test]
    fn escalate_is_monotone_and_total_for_every_name() {
        let mut all = names();
        all.extend(["f64", "f32", "f16", "bf16"].map(String::from));
        all.extend((2..=64).map(|l| format!("frsz2_{l}")));
        for name in all {
            let mut cur = by_name(&name).unwrap().name();
            let mut steps = 0;
            while let Some(next) = escalate(&cur) {
                let floor_cur = by_name(&cur).unwrap().accuracy_floor();
                let floor_next = by_name(&next).unwrap().accuracy_floor();
                assert!(
                    floor_next < floor_cur || next == "float64",
                    "{name}: step {cur} → {next} weakened the floor"
                );
                cur = next;
                steps += 1;
                assert!(steps <= ESCALATION_LADDER.len(), "{name}: no termination");
            }
            assert_eq!(cur, "float64", "{name}: chain must end at exact storage");
        }
    }

    #[test]
    fn de_escalate_retraces_the_ladder_only() {
        assert_eq!(de_escalate("float64").as_deref(), Some("frsz2_32"));
        assert_eq!(de_escalate("frsz2_32").as_deref(), Some("frsz2_21"));
        assert_eq!(de_escalate("frsz2_21").as_deref(), Some("frsz2_16"));
        assert_eq!(de_escalate("frsz2_16"), None);
        assert_eq!(de_escalate("f64").as_deref(), Some("frsz2_32"), "alias");
        // Off-ladder formats never step down (nothing escalates to them).
        assert_eq!(de_escalate("float32"), None);
        assert_eq!(de_escalate("frsz2_ab"), None);
        assert_eq!(de_escalate("sz3_08"), None);
        assert_eq!(de_escalate("not_a_format"), None);
    }

    /// The registered `frsz2_ab` floor is *measured*, not nominal: on a
    /// unit-scale zero-spread column (selector picks `l = 16`) the
    /// worst observed error must sit within a factor 2 of 2⁻¹⁴ — large
    /// enough to be honest, small enough that the rung is tight.
    #[test]
    fn frsz2_ab_floor_is_measured_tight() {
        let fmt = by_name("frsz2_ab").unwrap();
        let floor = fmt.accuracy_floor();
        let n = 4096;
        let v: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.49 * ((i as f64) * 0.37).sin())
            .collect();
        let mut store = fmt.create(n, 1);
        store.write_column(0, &v);
        let mut out = vec![0.0; n];
        store.read_column(0, &mut out);
        let worst = v
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= floor, "measured {worst:e} above floor {floor:e}");
        assert!(
            worst > floor / 2.0,
            "floor {floor:e} loose: worst {worst:e}"
        );
    }

    #[test]
    fn auto_basis_matches_documented_thresholds() {
        let (n, m) = (1000, 100);
        // Loose target: the cheapest rung clears it.
        assert_eq!(auto_basis(1e-2, n, m).name(), "frsz2_16");
        // Tighter targets climb the ladder.
        assert_eq!(auto_basis(1e-3, n, m).name(), "frsz2_21");
        assert_eq!(auto_basis(1e-6, n, m).name(), "frsz2_32");
        assert_eq!(auto_basis(1e-12, n, m).name(), "float64");
        // Larger systems amplify the floor: a target frsz2_21 clears at
        // n = 1000 needs frsz2_32 once √log₂(n) grows enough.
        assert_eq!(auto_basis(2.5e-4, 1 << 4, m).name(), "frsz2_21");
        assert_eq!(auto_basis(2.5e-4, 1 << 30, m).name(), "frsz2_32");
        // Deterministic.
        assert_eq!(auto_basis(1e-3, n, m).name(), auto_basis(1e-3, n, m).name());
    }

    #[test]
    fn gmres_dyn_matches_static_dispatch_bit_for_bit() {
        let a = gen::conv_diff_3d(7, 7, 7, [0.3, 0.1, 0.0], 0.2);
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        let opts = GmresOptions {
            target_rrn: 1e-9,
            max_iters: 1000,
            ..GmresOptions::default()
        };
        let fmt = by_name("frsz2_21").unwrap();
        let dynamic = gmres_dyn(&a, &b, &x0, &opts, &Identity, fmt.as_ref());
        let cfg = Frsz2Config::new(32, 21);
        let statically = crate::gmres::gmres_with(&a, &b, &x0, &opts, &Identity, |r, c| {
            Frsz2Store::with_config(cfg, r, c)
        });
        assert!(dynamic.stats.converged);
        assert_eq!(dynamic.stats.iterations, statically.stats.iterations);
        assert_eq!(dynamic.history.len(), statically.history.len());
        for (p, q) in dynamic.history.iter().zip(&statically.history) {
            assert_eq!(p.rrn.to_bits(), q.rrn.to_bits());
        }
        for (u, v) in dynamic.x.iter().zip(&statically.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}
