//! Deterministic fault injection for the robustness harness.
//!
//! A production CB-GMRES deployment must treat poisoned compressed
//! basis words, non-finite Hessenberg entries, and wedged or panicking
//! jobs as routine events. This module makes every one of those faults
//! *injectable on demand and deterministically*, so the detection and
//! recovery paths (the explicit-residual convergence test, the
//! non-finite breakdown guards, the service's retry/escalation and
//! deadline machinery) are exercised by tests and the `faults` bench
//! suite instead of waiting for cosmic rays:
//!
//! - **Basis corruption** — [`FaultInjectingStore`] wraps any
//!   [`ColumnStorage`] and flips one chosen bit of one chosen value on
//!   one chosen column write ([`BasisBitFlip`]). [`FaultyFormat`] lifts
//!   the wrapper to a [`BasisFormat`] so the dyn solve paths inject
//!   without code changes. An *unarmed* wrapper delegates every method
//!   and is bit-identical to the bare store.
//! - **Hessenberg NaN** — armed through
//!   [`crate::gmres::GmresOptions::fault_nan_hessenberg_at`], which
//!   poisons the projection coefficients at one global iteration; the
//!   solver's PR-4 non-finite guard must turn it into a typed
//!   breakdown, never an infinite loop or a false convergence.
//! - **Job-level faults** — [`FaultSpec`] is the service-facing plan:
//!   it adds panicking attempts and per-boundary sleeps (to trip
//!   deadlines) on top of the numerical faults above.
//!
//! Detection is structural, not probabilistic: convergence is decided
//! only by the explicit residual `‖b − Ax‖/‖b‖` at restart boundaries,
//! so a corrupted basis can slow a solve or break it down, but it
//! cannot make the solver report a converged `x` that does not satisfy
//! the target — the invariant the pinned fault rows check against an
//! independently recomputed residual.

use crate::basis_format::BasisFormat;
use numfmt::ColumnStorage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Flip one bit of one stored value on one column write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BasisBitFlip {
    /// 0-based index of the `write_column` call to corrupt (writes are
    /// counted across the whole solve, restarts included).
    pub nth_write: u64,
    /// Row index of the value to corrupt (reduced modulo the column
    /// length).
    pub index: usize,
    /// Bit of the f64 pattern to flip (reduced modulo 64; bit 63 is
    /// the sign, 52–62 the exponent).
    pub bit: u32,
}

/// A deterministic basis-corruption plan plus a shared counter of
/// faults actually fired (clone the plan, keep a clone, and read
/// [`FaultPlan::fired`] after the solve).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The bit flip to apply, if any.
    pub flip_on_write: Option<BasisBitFlip>,
    /// Incremented once per injected fault.
    pub fired: Arc<AtomicU64>,
}

impl FaultPlan {
    /// A plan that flips `bit` of value `index` on write `nth_write`.
    pub fn bit_flip(nth_write: u64, index: usize, bit: u32) -> FaultPlan {
        FaultPlan {
            flip_on_write: Some(BasisBitFlip {
                nth_write,
                index,
                bit,
            }),
            fired: Arc::new(AtomicU64::new(0)),
        }
    }

    /// How many faults this plan has injected so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

/// [`ColumnStorage`] wrapper that corrupts writes per a [`FaultPlan`]
/// and otherwise delegates everything to the wrapped store.
///
/// Corruption happens *before* delegation, so the poisoned value goes
/// through the format's real compression path and every read kernel
/// sees the corrupted stored data — exactly what a flipped bit in the
/// compressed words would look like to the solver. The wrapper
/// forwards `chunk_align` and the same method set as
/// `Box<dyn ColumnStorage>`, so an unarmed wrapper preserves the
/// solver's reduction order bit for bit.
pub struct FaultInjectingStore {
    inner: Box<dyn ColumnStorage>,
    plan: FaultPlan,
    writes: u64,
}

impl FaultInjectingStore {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: Box<dyn ColumnStorage>, plan: FaultPlan) -> FaultInjectingStore {
        FaultInjectingStore {
            inner,
            plan,
            writes: 0,
        }
    }
}

impl ColumnStorage for FaultInjectingStore {
    fn with_shape(_rows: usize, _cols: usize) -> Self {
        panic!(
            "FaultInjectingStore has no default format: wrap a store via FaultInjectingStore::new"
        )
    }

    #[inline]
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    #[inline]
    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn write_column(&mut self, j: usize, data: &[f64]) {
        let nth = self.writes;
        self.writes += 1;
        if let Some(f) = self.plan.flip_on_write {
            if f.nth_write == nth && !data.is_empty() {
                let mut poisoned = data.to_vec();
                let i = f.index % poisoned.len();
                poisoned[i] = f64::from_bits(poisoned[i].to_bits() ^ (1u64 << (f.bit % 64)));
                self.plan.fired.fetch_add(1, Ordering::Relaxed);
                self.inner.write_column(j, &poisoned);
                return;
            }
        }
        self.inner.write_column(j, data);
    }

    #[inline]
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        self.inner.read_chunk(j, row_start, out);
    }

    #[inline]
    fn read_column(&self, j: usize, out: &mut [f64]) {
        self.inner.read_column(j, out);
    }

    #[inline]
    fn load(&self, i: usize, j: usize) -> f64 {
        self.inner.load(i, j)
    }

    #[inline]
    fn chunk_align(&self) -> usize {
        self.inner.chunk_align()
    }

    #[inline]
    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        self.inner.dot_chunk(j, row_start, w)
    }

    #[inline]
    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        self.inner.axpy_chunk(j, row_start, alpha, w)
    }

    #[inline]
    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        self.inner.dots_chunk(k, row_start, w, out)
    }

    #[inline]
    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        self.inner.gemv_chunk(k, row_start, alphas, w)
    }

    fn column_bytes(&self) -> usize {
        self.inner.column_bytes()
    }

    fn bits_per_value(&self) -> f64 {
        self.inner.bits_per_value()
    }

    fn format_name(&self) -> String {
        self.inner.format_name()
    }
}

/// [`BasisFormat`] wrapper whose stores inject faults per a
/// [`FaultPlan`]: the entry point for corrupting a dyn-dispatch solve
/// (`gmres_dyn*`, the service, tests) without touching
/// solver code.
pub struct FaultyFormat {
    inner: Box<dyn BasisFormat>,
    plan: FaultPlan,
}

impl FaultyFormat {
    /// Wrap `inner` so every created store runs under `plan`.
    pub fn new(inner: Box<dyn BasisFormat>, plan: FaultPlan) -> FaultyFormat {
        FaultyFormat { inner, plan }
    }
}

impl BasisFormat for FaultyFormat {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn accuracy_floor(&self) -> f64 {
        self.inner.accuracy_floor()
    }

    fn bits_per_value(&self, rows: usize) -> f64 {
        self.inner.bits_per_value(rows)
    }

    fn max_sstep(&self) -> usize {
        self.inner.max_sstep()
    }

    fn create(&self, rows: usize, cols: usize) -> Box<dyn ColumnStorage> {
        Box::new(FaultInjectingStore::new(
            self.inner.create(rows, cols),
            self.plan.clone(),
        ))
    }
}

/// A job-level fault plan for the solver service: which faults to
/// inject into one job, spanning the numerical faults above plus
/// process-level misbehavior (panics, slowness). All fields default to
/// "no fault"; the spec is plain data so jobs stay `Clone`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Poison the Hessenberg at this global iteration (see
    /// [`crate::gmres::GmresOptions::fault_nan_hessenberg_at`]).
    pub nan_hessenberg_at: Option<usize>,
    /// Restrict the numerical faults to attempts running this basis
    /// format — after a retry escalates past it, the fault stops
    /// firing, which is how the harness exercises
    /// retry-until-recovered deterministically.
    pub only_in_format: Option<String>,
    /// Panic at the start of this 0-based solve attempt (caught by the
    /// service's panic isolation).
    pub panic_on_attempt: Option<usize>,
    /// Sleep this long at every restart boundary (trips deadlines
    /// deterministically).
    pub sleep_per_boundary_ms: u64,
    /// Flip a bit in the stored basis.
    pub basis_flip: Option<BasisBitFlip>,
}

impl FaultSpec {
    /// Whether the numerical faults apply to an attempt running
    /// `format` (true when no format gate is set).
    pub fn applies_to_format(&self, format: &str) -> bool {
        self.only_in_format.as_deref().is_none_or(|f| f == format)
    }

    /// Whether any field is armed.
    pub fn is_armed(&self) -> bool {
        *self != FaultSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis_format::by_name;

    #[test]
    fn unarmed_wrapper_is_bit_identical_to_the_bare_store() {
        let fmt = by_name("frsz2_21").unwrap();
        let mut bare = fmt.create(1000, 3);
        let mut wrapped = FaultInjectingStore::new(fmt.create(1000, 3), FaultPlan::default());
        let v: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.17).sin()).collect();
        bare.write_column(1, &v);
        wrapped.write_column(1, &v);
        assert_eq!(wrapped.chunk_align(), bare.chunk_align());
        assert_eq!(wrapped.column_bytes(), bare.column_bytes());
        assert_eq!(wrapped.format_name(), bare.format_name());
        let (mut a, mut b) = (vec![0.0; 1000], vec![0.0; 1000]);
        bare.read_column(1, &mut a);
        wrapped.read_column(1, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let w = vec![0.5; 1000];
        assert_eq!(
            bare.dot_chunk(1, 0, &w).to_bits(),
            wrapped.dot_chunk(1, 0, &w).to_bits()
        );
    }

    #[test]
    fn armed_wrapper_corrupts_exactly_the_planned_write() {
        let fmt = by_name("float64").unwrap();
        let plan = FaultPlan::bit_flip(1, 7, 62);
        let observer = plan.clone();
        let mut store = FaultInjectingStore::new(fmt.create(64, 3), plan);
        let v: Vec<f64> = (0..64).map(|i| 1.0 + i as f64 * 1e-3).collect();
        store.write_column(0, &v); // write 0: clean
        store.write_column(1, &v); // write 1: corrupted
        store.write_column(2, &v); // write 2: clean again
        assert_eq!(observer.fired(), 1);
        let mut out = vec![0.0; 64];
        store.read_column(0, &mut out);
        assert_eq!(out, v);
        store.read_column(2, &mut out);
        assert_eq!(out, v);
        store.read_column(1, &mut out);
        let expect = f64::from_bits(v[7].to_bits() ^ (1u64 << 62));
        assert_eq!(out[7].to_bits(), expect.to_bits());
        let clean = out
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 7)
            .all(|(i, &x)| x == v[i]);
        assert!(clean, "only the planned value may be corrupted");
    }

    #[test]
    fn faulty_format_delegates_metadata_and_wraps_stores() {
        let plan = FaultPlan::bit_flip(0, 0, 63);
        let observer = plan.clone();
        let inner = by_name("frsz2_32").unwrap();
        let floor = inner.accuracy_floor();
        let fmt = FaultyFormat::new(inner, plan);
        assert_eq!(fmt.name(), "frsz2_32");
        assert_eq!(fmt.accuracy_floor(), floor);
        let mut store = fmt.create(128, 2);
        store.write_column(0, &vec![1.0; 128]);
        assert_eq!(observer.fired(), 1);
        // Sign bit flipped on row 0.
        assert!(store.load(0, 0) < 0.0);
        assert!(store.load(1, 0) > 0.0);
    }

    #[test]
    fn fault_spec_format_gate() {
        let spec = FaultSpec {
            nan_hessenberg_at: Some(3),
            only_in_format: Some("frsz2_16".into()),
            ..FaultSpec::default()
        };
        assert!(spec.is_armed());
        assert!(spec.applies_to_format("frsz2_16"));
        assert!(!spec.applies_to_format("frsz2_21"));
        assert!(FaultSpec::default().applies_to_format("anything"));
        assert!(!FaultSpec::default().is_armed());
    }
}
