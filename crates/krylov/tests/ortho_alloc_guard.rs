//! Zero-allocation guard for the GMRES orthogonalization inner loop
//! (its own test binary: the counting allocator is process-global, so
//! no other test may run concurrently in the same process).
//!
//! An earlier reduction built a `Vec<Vec<f64>>` (`n_chunks` inner
//! allocations) on **every** orthogonalization call. With the flat
//! scratch threaded through the workspace and the fused store kernels,
//! a steady-state iteration of the scalar cycle — `dots_with`, the
//! fused update-then-project `axpys_dots_with`, and the DGKS `axpys` —
//! must not touch the heap at all.
//!
//! The guard runs under a 1-thread pool: at a single thread the
//! vendored rayon executes task bodies inline with no per-op result
//! slots, so any allocation observed here belongs to the
//! orthogonalization path itself. (At >1 threads the pool boxes one
//! result slot per task — executor overhead outside the kernels this
//! guard pins.)

use frsz2::{Frsz2Config, Frsz2Store};
use krylov::Basis;
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

#[test]
fn orthogonalization_loop_is_allocation_free_after_warmup() {
    let n = 20_011; // 3 row chunks, ragged tail
    let k = 6;
    let mut basis = Basis::from_store(Frsz2Store::with_config(Frsz2Config::new(32, 21), n, k));
    let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.041).cos()).collect();
    for j in 0..k {
        let v: Vec<f64> = (0..n).map(|i| ((i + 31 * j) as f64 * 0.13).sin()).collect();
        basis.write(j, &v);
    }
    let mut h = vec![0.0; k];
    let mut u = vec![0.0; k];
    let mut neg = vec![0.0; k];
    let mut scratch = Vec::new();
    let mut wv = w.clone();

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        // Warmup: grows the scratch to its high-water mark (the one
        // allowed allocation, mirroring `Workspace::new`'s presizing).
        basis.dots_with(k, &w, &mut h, &mut scratch);
        basis.axpys_dots_with(k, &neg, &mut wv, &mut u, &mut scratch);
        basis.axpys(k, &neg, &mut wv);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        // Steady state: one scalar-cycle iteration with a DGKS pass —
        // dots, negate, the fused update that also projects, negate
        // that projection, axpys — for growing column counts. The
        // coefficients are scaled down so the synthetic (non-
        // orthonormal) basis cannot blow `w` up over the iterations;
        // the kernel call sequence is what matters here.
        for _iter in 0..10 {
            for cols in 1..=k {
                basis.dots_with(cols, &wv, &mut h, &mut scratch);
                for i in 0..cols {
                    neg[i] = -1e-6 * h[i];
                }
                basis.axpys_dots_with(cols, &neg, &mut wv, &mut u, &mut scratch);
                for i in 0..cols {
                    neg[i] = -1e-6 * u[i];
                }
                basis.axpys(cols, &neg, &mut wv);
            }
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "orthogonalization loop allocated {} times",
            after - before
        );
    });
    assert!(wv.iter().all(|v| v.is_finite()));
}
