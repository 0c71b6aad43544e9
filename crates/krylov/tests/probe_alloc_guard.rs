//! Allocation guard for the boundary control probe (its own test
//! binary: the counting allocator is process-global, so no other test
//! may run concurrently in the same process).
//!
//! The probe is a predicate, and the restart loop captures a checkpoint
//! only when it halts. So a solve whose probe always continues must
//! make exactly the heap allocations of the same solve without hooks:
//! no per-boundary copy of the iterate, the record or the history.
//!
//! The guard runs under a 1-thread pool: at a single thread the
//! vendored rayon executes task bodies inline on the caller, so every
//! allocation counted here belongs to the solve itself.

use krylov::basis_format::by_name;
use krylov::{solve, GmresOptions, Identity, SolveControl, SolveHooks, SolvePlan};
use spla::dense::manufactured_rhs;
use spla::gen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning the heap allocations it made with its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}

#[test]
fn a_continuing_probe_allocates_nothing_beyond_the_plain_solve() {
    let a = gen::conv_diff_3d(10, 10, 10, [0.3, 0.2, 0.1], 0.2);
    let (_, b) = manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    // Four cycles: the target is out of reach within 40 iterations.
    let opts = GmresOptions {
        restart: 10,
        target_rrn: 1e-14,
        max_iters: 40,
        ..GmresOptions::default()
    };
    let format = by_name("frsz2_21").unwrap();
    let plan = SolvePlan::Fixed(format.as_ref(), &opts);
    let plain = || solve(&a, &b, &x0, &Identity, plan, SolveHooks::default());

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        // Warmup: any one-time allocation outside the solve itself.
        plain().expect("fresh solve");

        let (bare, r) = allocations(plain);
        assert_eq!(r.expect("fresh solve").stats.restarts, 4, "four cycles");
        let mut boundaries = 0usize;
        let mut probe = || {
            boundaries += 1;
            SolveControl::Continue
        };
        let hooks = SolveHooks {
            control: Some(&mut probe),
            ..SolveHooks::default()
        };
        let (probed, r) = allocations(|| solve(&a, &b, &x0, &Identity, plan, hooks));
        let r = r.expect("fresh solve");
        assert_eq!(boundaries, 4, "the probe ran at every boundary");
        assert!(r.checkpoint.is_none(), "a continuing probe never halts");
        assert!(bare > 0, "the counting allocator sees the solve");
        assert_eq!(
            probed, bare,
            "a continuing probe made {probed} allocations, the plain solve {bare}"
        );
    });
}
