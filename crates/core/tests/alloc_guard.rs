//! Zero-allocation guard for the fused store kernels (its own test
//! binary, with a counting global allocator). The count is per thread:
//! the kernels run on the calling thread, while the test harness's own
//! thread may allocate at the same moment, which a process-wide count
//! picked up in about one run in ten.
//!
//! Satellite of the tile-allocation bugfix: the old unaligned-`l`
//! `dot_chunk`/`axpy_chunk` arms allocated a decode tile on **every**
//! call — one heap round trip per column per chunk per
//! orthogonalization pass. The word-granular kernels decode straight
//! off the packed words; this guard pins that property for every bit
//! length.

use frsz2::{Frsz2Config, Frsz2Store};
use numfmt::ColumnStorage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn wave(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = ((i + 31 * seed) as f64 * 0.37).sin();
            x * f64::powi(2.0, ((i * 7 + seed) % 40) as i32 - 20)
        })
        .collect()
}

/// After construction, NO kernel path may touch the heap — for any bit
/// length, aligned or not, full or ragged tail chunks, at `k = 4` (one
/// ragged lane group) and `k = 13` (a full group and a ragged one),
/// on the bare store and, at `frsz2_21`, behind `Box<dyn
/// ColumnStorage>`, whose multi-RHS kernels tile through `read_chunk`.
/// Those run at `nw` of 3 (scalar strips only), 4, 8 and 12 (one, two
/// and three ymm lane strips). Every kernel is warmed up
/// first, so one-time set-up such as the lane-support check is not
/// counted.
#[test]
fn fused_kernels_never_allocate() {
    let rows = 1024 + 32 + 7; // several blocks plus a ragged tail
    let cols = 13;
    for l in [4u32, 8, 16, 21, 32, 64] {
        let mut bare = Frsz2Store::with_config(Frsz2Config::new(32, l), rows, cols);
        for j in 0..cols {
            bare.write_column(j, &wave(rows, j));
        }
        measure(&mut bare, rows, cols, &format!("l={l}"));
        if l == 21 {
            let mut boxed: Box<dyn ColumnStorage> = Box::new(bare);
            measure(&mut boxed, rows, cols, "boxed l=21");
        }
    }
}

/// The allocation count of every kernel of `st` (and of its column
/// write) over ten warm runs must be zero.
fn measure(st: &mut impl ColumnStorage, rows: usize, cols: usize, label: &str) {
    for nw in [3, 4, 8, 12] {
        measure_kernels(st, rows, cols, nw, &format!("{label} nw={nw}"));
    }

    // Compression is also tile-free: `write_column` performs no
    // heap allocation either (the rolling-register pack stages in
    // a fixed stack buffer).
    let w = wave(rows, 3);
    let before = allocations();
    for _ in 0..10 {
        st.write_column(0, &w);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "{label}: write_column allocated");
}

/// [`measure`]'s kernel half, with `nw` vectors for the multi-RHS pair.
fn measure_kernels(st: &impl ColumnStorage, rows: usize, cols: usize, nw: usize, label: &str) {
    let w = wave(rows, 3);
    let ws = wave(rows * nw, 5);
    let mut wv = w.clone();
    let mut wsv = ws.clone();
    let mut out = vec![0.0; cols * nw];
    let mut tile = vec![0.0; rows];
    let alphas: Vec<f64> = (0..cols * nw)
        .map(|j| {
            if j % 3 == 1 {
                0.0
            } else {
                0.5 - j as f64 / 16.0
            }
        })
        .collect();
    for k in [4, 13] {
        let mut sink = 0.0;
        let mut run = || {
            sink += st.dot_chunk(1, 32, &w[..rows - 32]);
            st.axpy_chunk(2, 0, -0.75, &mut wv);
            st.read_chunk(k - 1, 0, &mut tile);
            st.read_chunk(0, 64, &mut tile[64..]);
            st.dots_chunk(k, 0, &w, &mut out);
            st.gemv_chunk(k, 0, &alphas, &mut wv);
            st.gemv_dots_chunk(k, 32, &alphas, &mut wv[32..], &mut out);
            st.dots_many_chunk(k, 0, &ws, nw, &mut out);
            st.gemv_many_chunk(k, 0, &alphas, nw, &mut wsv);
        };
        run();
        let before = allocations();
        for _ in 0..10 {
            run();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{label} k={k}: kernels allocated {} times",
            after - before
        );
        assert!(sink.is_finite());
    }
}
