//! The multi-RHS kernel pair behind every store: register-tiled
//! [`dots_many_chunk`] and [`gemv_many_chunk`] over any
//! [`ColumnStorage`], the bodies of the trait methods of the same name.
//!
//! Both walk a row chunk in tiles of 512 rows (for a
//! [`ColumnStorage::chunk_align`] that does not divide 512, of a
//! multiple of it). Per tile they decode up to four columns at a time
//! through [`ColumnStorage::read_chunk`] into one 16 KB stack tile, so
//! a block format decodes at its own `read_chunk` speed and each
//! column is read once per tile. The multiply half then runs in
//! registers, one strip of vectors at a time:
//!
//! * **dots** — the group's four columns' running sums for the strip
//!   stay in registers while the tile's rows stream past, and each row
//!   of `ws` is loaded once for the whole group;
//! * **gemv** — each row of the strip is loaded once, the group's
//!   columns apply to it in ascending `j`, and it is stored once.
//!
//! On x86-64 CPUs with AVX-512 F and VL (detected once per process)
//! the strips run in lanes across the vectors `t`, which sit next to
//! each other in every row of `ws`: strips of 4 in ymm registers, and
//! the scalar strips for the 1–3 left over.
//! Every other host runs the scalar strips alone, four vectors at a
//! time plus one strip of the remainder; they stay the reference.
//!
//! A group short of four columns repeats its last column in the spare
//! slots (dots, whose extra sums are dropped) or gives them zero
//! coefficients (gemv, where the select below keeps `w` as it is).
//! A scalar gemv strip whose coefficients are all nonzero, the common
//! case, runs without the select, which is then the identity.
//!
//! # Bit-identity contract
//!
//! Only the order of memory traffic changes, never what is computed:
//! each `(j, t)` dot has one accumulator that adds its rows in row
//! order, and per element of `ws` the columns apply in ascending `j`,
//! each product separately rounded and added (lanes included: a
//! multiply and an add, never a fused multiply-add). A zero `(j, t)`
//! coefficient is skipped by a select (in lanes, an add masked by
//! `a != 0.0`, which a NaN passes), never added as `+ 0.0` (which
//! could flip a `-0.0`), and a column whose `nw` coefficients are all
//! zero is neither read nor applied. So both kernels give the bits of
//! the per-vector `dots_chunk`/`gemv_chunk` on each deinterleaved
//! vector, lanes or not.

use crate::ColumnStorage;

#[cfg(target_arch = "x86_64")]
mod lanes;

/// Columns decoded per group.
const GROUP: usize = 4;

/// Vectors per register strip.
const WIDTH: usize = 4;

/// Tile rows when the store's alignment divides them.
const TILE_ROWS: usize = 512;

/// Rows per tile for a store whose reads align to `align` rows: 512
/// when `align` divides 512, else the largest multiple of `align` up
/// to 512, or one block when a block is longer.
fn tile_rows(align: usize) -> usize {
    let align = align.max(1);
    if align >= TILE_ROWS {
        align
    } else {
        TILE_ROWS / align * align
    }
}

/// Run `f` on a tile of [`GROUP`] column slots of `rows` values: on
/// the stack (16 KB) when `rows <= 512`, which every block size up to
/// 512 gives, otherwise on the heap.
fn with_tile(rows: usize, f: impl FnOnce(&mut [f64])) {
    if rows <= TILE_ROWS {
        f(&mut [0.0; GROUP * TILE_ROWS]);
    } else {
        f(&mut vec![0.0; GROUP * rows]);
    }
}

/// `$strip::<W>(args…, t0)` over the strips of vectors `$t0 .. nw`:
/// full strips of [`WIDTH`], then one strip of the remainder.
macro_rules! strips {
    ($t0:expr, $nw:expr, $strip:ident($($arg:expr),*)) => {{
        let mut t0 = $t0;
        while t0 + WIDTH <= $nw {
            $strip::<WIDTH>($($arg,)* t0);
            t0 += WIDTH;
        }
        match $nw - t0 {
            0 => {}
            1 => $strip::<1>($($arg,)* t0),
            2 => $strip::<2>($($arg,)* t0),
            _ => $strip::<3>($($arg,)* t0),
        }
    }};
}

/// Multi-RHS dots: `out[j·nw + t] = Σ_i column_j[row_start + i] ·
/// ws[i·nw + t]` for `j < k`, `t < nw`, with `ws` holding `nw` vectors
/// interleaved row-major. One `read_chunk` per column per tile.
pub fn dots_many_chunk<S: ColumnStorage + ?Sized>(
    st: &S,
    k: usize,
    row_start: usize,
    ws: &[f64],
    nw: usize,
    out: &mut [f64],
) {
    assert!(nw >= 1, "dots_many_chunk needs at least one vector");
    debug_assert_eq!(ws.len() % nw, 0);
    let len = ws.len() / nw;
    let out = &mut out[..k * nw];
    out.fill(0.0);
    if k == 0 || len == 0 {
        return;
    }
    let rows = tile_rows(st.chunk_align());
    with_tile(rows, |tile| {
        for off in (0..len).step_by(rows) {
            let n = rows.min(len - off);
            let wt = &ws[off * nw..(off + n) * nw];
            for j0 in (0..k).step_by(GROUP) {
                let g = GROUP.min(k - j0);
                for (c, slot) in tile.chunks_exact_mut(rows).take(g).enumerate() {
                    st.read_chunk(j0 + c, row_start + off, &mut slot[..n]);
                }
                let cols = std::array::from_fn(|c| &tile[c.min(g - 1) * rows..][..n]);
                dots_group(cols, wt, nw, &mut out[j0 * nw..(j0 + g) * nw]);
            }
        }
    });
}

/// One group's dots over one tile: in AVX-512 lanes where the CPU has
/// them, else in scalar strips. Not generic over the store, so the
/// multiply half is compiled once.
fn dots_group(cols: [&[f64]; GROUP], wt: &[f64], nw: usize, sums: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = lanes::Avx512::detect() {
        return lanes.dots_group(cols, wt, nw, sums);
    }
    dots_strips(cols, wt, nw, sums, 0);
}

/// Vectors `t0 .. nw` of one group's dots in scalar strips: the
/// fallback and reference body, and the lanes' remainder of 1–3.
fn dots_strips(cols: [&[f64]; GROUP], wt: &[f64], nw: usize, sums: &mut [f64], t0: usize) {
    strips!(t0, nw, dots_strip(cols, wt, nw, sums));
}

/// Vectors `t0 .. t0 + W` of one group's dots over one tile: the
/// group's running sums come from `sums` (`sums[c·nw + t]` for its
/// `c`-th column), add the tile's rows in row order in locals, and go
/// back. The sums of repeated padding slots are dropped.
#[inline(always)]
fn dots_strip<const W: usize>(
    cols: [&[f64]; GROUP],
    wt: &[f64],
    nw: usize,
    sums: &mut [f64],
    t0: usize,
) {
    let g = sums.len() / nw;
    let mut acc = [[0.0f64; W]; GROUP];
    for (c, a) in acc.iter_mut().enumerate().take(g) {
        a.copy_from_slice(&sums[c * nw + t0..][..W]);
    }
    for (i, row) in wt.chunks_exact(nw).enumerate() {
        let w: &[f64; W] = row[t0..t0 + W].try_into().expect("a strip is W wide");
        for (a, col) in acc.iter_mut().zip(cols) {
            let v = col[i];
            for (s, &x) in a.iter_mut().zip(w) {
                *s += v * x;
            }
        }
    }
    for (c, a) in acc.iter().enumerate().take(g) {
        sums[c * nw + t0..][..W].copy_from_slice(a);
    }
}

/// Multi-RHS update: `ws[i·nw + t] += Σ_j alphas[j·nw + t] ·
/// column_j[row_start + i]` for `j < k`, `t < nw` (callers pass
/// `alphas = −H`). One `read_chunk` per tile for each column with a
/// nonzero coefficient, none for the others.
pub fn gemv_many_chunk<S: ColumnStorage + ?Sized>(
    st: &S,
    k: usize,
    row_start: usize,
    alphas: &[f64],
    nw: usize,
    ws: &mut [f64],
) {
    assert!(nw >= 1, "gemv_many_chunk needs at least one vector");
    debug_assert_eq!(ws.len() % nw, 0);
    let len = ws.len() / nw;
    let live = |j: &usize| alphas[j * nw..(j + 1) * nw].iter().any(|&a| a != 0.0);
    if len == 0 || !(0..k).any(|j| live(&j)) {
        return;
    }
    let rows = tile_rows(st.chunk_align());
    with_tile(rows, |tile| {
        for off in (0..len).step_by(rows) {
            let n = rows.min(len - off);
            let wt = &mut ws[off * nw..(off + n) * nw];
            let mut js = (0..k).filter(live).peekable();
            while js.peek().is_some() {
                // The next live columns in ascending `j`, up to GROUP;
                // a padding slot keeps `None`, i.e. zero coefficients.
                let mut group = [None; GROUP];
                for ((slot, c), j) in tile.chunks_exact_mut(rows).zip(&mut group).zip(&mut js) {
                    st.read_chunk(j, row_start + off, &mut slot[..n]);
                    *c = Some(j);
                }
                let cols = std::array::from_fn(|c| &tile[c * rows..][..n]);
                gemv_group(cols, group, alphas, wt, nw);
            }
        }
    });
}

/// One group's update over one tile, in lanes or scalar strips;
/// compiled once, like [`dots_group`].
fn gemv_group(
    cols: [&[f64]; GROUP],
    group: [Option<usize>; GROUP],
    alphas: &[f64],
    wt: &mut [f64],
    nw: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = lanes::Avx512::detect() {
        return lanes.gemv_group(cols, group, alphas, wt, nw);
    }
    gemv_strips(cols, group, alphas, wt, nw, 0);
}

/// Vectors `t0 .. nw` of one group's update in scalar strips, like
/// [`dots_strips`].
fn gemv_strips(
    cols: [&[f64]; GROUP],
    group: [Option<usize>; GROUP],
    alphas: &[f64],
    wt: &mut [f64],
    nw: usize,
    t0: usize,
) {
    strips!(t0, nw, gemv_strip(cols, group, alphas, wt, nw));
}

/// Vectors `t0 .. t0 + W` of one group's update over one tile. When
/// every coefficient of the strip is nonzero, the select is the
/// identity and the rows run without it.
#[inline(always)]
fn gemv_strip<const W: usize>(
    cols: [&[f64]; GROUP],
    group: [Option<usize>; GROUP],
    alphas: &[f64],
    wt: &mut [f64],
    nw: usize,
    t0: usize,
) {
    let coef: [[f64; W]; GROUP] = std::array::from_fn(|c| {
        std::array::from_fn(|u| group[c].map_or(0.0, |j| alphas[j * nw + t0 + u]))
    });
    if coef.iter().flatten().all(|&a| a != 0.0) {
        gemv_rows(cols, coef, wt, nw, t0, |x, a, v| x + a * v);
    } else {
        gemv_rows(cols, coef, wt, nw, t0, |x, a, v| {
            let y = x + a * v;
            if a != 0.0 {
                y
            } else {
                x
            }
        });
    }
}

/// The rows of one strip: each row's `W` values are loaded once, the
/// group's columns apply to them in slot order through `apply(x, a,
/// v)`, and the row is stored once.
#[inline(always)]
fn gemv_rows<const W: usize>(
    cols: [&[f64]; GROUP],
    coef: [[f64; W]; GROUP],
    wt: &mut [f64],
    nw: usize,
    t0: usize,
    apply: impl Fn(f64, f64, f64) -> f64,
) {
    for (i, row) in wt.chunks_exact_mut(nw).enumerate() {
        let strip: &mut [f64; W] = (&mut row[t0..t0 + W])
            .try_into()
            .expect("a strip is W wide");
        let mut x = *strip;
        for (a, col) in coef.iter().zip(cols) {
            let v = col[i];
            for (xu, &au) in x.iter_mut().zip(a) {
                *xu = apply(*xu, au, v);
            }
        }
        *strip = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseStore;
    use std::sync::Mutex;

    /// A dense f64 store that reports alignment `align` and records
    /// every `read_chunk` as `(j, row_start, len)`, checking that it
    /// keeps the trait's alignment rule.
    struct Probe {
        inner: DenseStore<f64>,
        align: usize,
        reads: Mutex<Vec<(usize, usize, usize)>>,
    }

    impl Probe {
        fn new(rows: usize, cols: usize, align: usize) -> Self {
            let mut inner = DenseStore::with_shape(rows, cols);
            for j in 0..cols {
                inner.write_column(j, &column(rows, j));
            }
            let reads = Mutex::new(Vec::new());
            Probe {
                inner,
                align,
                reads,
            }
        }

        fn take_reads(&self) -> Vec<(usize, usize, usize)> {
            std::mem::take(&mut *self.reads.lock().expect("reads lock"))
        }
    }

    impl ColumnStorage for Probe {
        fn with_shape(_rows: usize, _cols: usize) -> Self {
            unreachable!("built by Probe::new")
        }
        fn rows(&self) -> usize {
            self.inner.rows()
        }
        fn cols(&self) -> usize {
            self.inner.cols()
        }
        fn write_column(&mut self, j: usize, data: &[f64]) {
            self.inner.write_column(j, data);
        }
        fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
            let end = row_start + out.len();
            assert!(row_start.is_multiple_of(self.align), "unaligned tile start");
            assert!(
                out.len().is_multiple_of(self.align) || end == self.rows(),
                "unaligned tile end"
            );
            self.reads
                .lock()
                .expect("reads lock")
                .push((j, row_start, out.len()));
            self.inner.read_chunk(j, row_start, out);
        }
        fn load(&self, i: usize, j: usize) -> f64 {
            self.inner.load(i, j)
        }
        fn chunk_align(&self) -> usize {
            self.align
        }
        fn column_bytes(&self) -> usize {
            self.inner.column_bytes()
        }
        fn format_name(&self) -> String {
            "probe".into()
        }
    }

    fn column(rows: usize, j: usize) -> Vec<f64> {
        (0..rows)
            .map(|i| ((i * 7 + j * 13) as f64 * 0.29).sin() * f64::powi(2.0, (i % 9) as i32 - 4))
            .collect()
    }

    /// `nw` vectors of `len` rows interleaved, every 13th value `-0.0`.
    fn vectors(len: usize, nw: usize) -> Vec<f64> {
        (0..len * nw)
            .map(|p| match p % 13 {
                0 => -0.0,
                _ => ((p as f64) * 0.71).cos() * f64::powi(2.0, (p % 7) as i32 - 3),
            })
            .collect()
    }

    /// Coefficients with column 2 all zero, scattered zero pairs, and
    /// one NaN at `(j, t) = (1, nw − 1)`.
    fn coefficients(k: usize, nw: usize) -> Vec<f64> {
        (0..k * nw)
            .map(|p| {
                let (j, t) = (p / nw, p % nw);
                if j == 2 || (j + 2 * t) % 5 == 0 {
                    0.0
                } else if j == 1 && t == nw - 1 {
                    f64::NAN
                } else {
                    ((p as f64) * 0.37).sin()
                }
            })
            .collect()
    }

    /// Both kernels on rows `start..` of `st` against naive loops: one
    /// row-order accumulator per `(j, t)`, and per element the columns
    /// in ascending `j` with zero coefficients skipped. The update runs
    /// with [`coefficients`] and with all coefficients nonzero, the
    /// strips that skip the select.
    fn check(st: &impl ColumnStorage, start: usize, k: usize, nw: usize, label: &str) {
        let len = st.rows() - start;
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let mut c = vec![0.0; st.rows()];
                st.read_column(j, &mut c);
                c.split_off(start)
            })
            .collect();
        let ws = vectors(len, nw);
        let mut dots = vec![f64::NAN; k * nw + 1];
        dots_many_chunk(st, k, start, &ws, nw, &mut dots);
        assert!(dots[k * nw].is_nan(), "{label}: wrote past k·nw");
        for t in 0..nw {
            for (j, col) in cols.iter().enumerate() {
                let mut want = 0.0;
                for (i, &v) in col.iter().enumerate() {
                    want += v * ws[i * nw + t];
                }
                let got = dots[j * nw + t];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{label} k={k} nw={nw} dot ({j}, {t})"
                );
            }
        }
        let nonzero = (1..=k * nw).map(|p| (p as f64 * 0.43).cos()).collect();
        for (set, alphas) in [("sparse", coefficients(k, nw)), ("nonzero", nonzero)] {
            let mut upd = ws.clone();
            gemv_many_chunk(st, k, start, &alphas, nw, &mut upd);
            for t in 0..nw {
                for i in 0..len {
                    let mut want = ws[i * nw + t];
                    for (j, col) in cols.iter().enumerate() {
                        let a = alphas[j * nw + t];
                        if a != 0.0 {
                            want += a * col[i];
                        }
                    }
                    let got = upd[i * nw + t];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{label} k={k} nw={nw} {set}: row {i} vec {t}"
                    );
                }
            }
        }
    }

    /// The tiled pair is bit-equal to naive per-`(j, t)` row-order
    /// loops on dense f64 and f32 stores, a boxed store, and stores
    /// aligned to 48 and 1,024 rows: `k` of 1, 13 and the group size
    /// −1, itself and +1; `nw` on both sides of the strip width and
    /// far past it; 1,100 rows, so a chunk from 0 or 96 ends in a
    /// partial tile.
    #[test]
    fn tiled_pair_matches_naive_row_order_loops() {
        let rows = 1100;
        let dense = |j| column(rows, j);
        let mut f64s = DenseStore::<f64>::with_shape(rows, 13);
        let mut f32s = DenseStore::<f32>::with_shape(rows, 13);
        let mut boxed: Box<dyn ColumnStorage> = Box::new(DenseStore::<f32>::with_shape(rows, 13));
        for j in 0..13 {
            f64s.write_column(j, &dense(j));
            f32s.write_column(j, &dense(j));
            boxed.write_column(j, &dense(j));
        }
        let by48 = Probe::new(rows, 13, 48);
        let by1024 = Probe::new(rows, 13, 1024);
        for k in [1, GROUP - 1, GROUP, GROUP + 1, 13] {
            for nw in [1, 2, 3, 4, 5, 8, 65] {
                for start in [0, 96] {
                    check(&f64s, start, k, nw, "float64");
                    check(&f32s, start, k, nw, "float32");
                    check(&boxed, start, k, nw, "boxed float32");
                    check(&by48, start, k, nw, "aligned 48");
                }
                check(&by1024, 0, k, nw, "aligned 1024");
            }
        }
    }

    /// The lane bodies and the scalar strips run on the same tiles, bit
    /// for bit: `nw` over every mix of 4-wide and 1–3-wide strips, `k`
    /// over short and padded groups, sums carried in, `-0.0` in `ws`,
    /// and the update under [`coefficients`] (a NaN, a zero column,
    /// scattered zeros) and with every coefficient nonzero. Both
    /// bodies run on an AVX-512 host, so the fallback stays tested.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_groups_match_scalar_strips() {
        let Some(lanes) = lanes::Avx512::detect() else {
            println!("lane_groups_match_scalar_strips: skipped, this CPU lacks AVX-512 F/VL");
            return;
        };
        println!("lane_groups_match_scalar_strips: AVX-512 F/VL present, lane bodies ran");
        let rows = 67;
        let data: Vec<Vec<f64>> = (0..13).map(|j| column(rows, j)).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for nw in (1..=17).chain([65]) {
            let ws = vectors(rows, nw);
            for k in [1, 3, 4, 5, 13] {
                let label = format!("k={k} nw={nw}");
                // A group as the chunk kernels build it: dots repeat the
                // last column, the update leaves padding slots empty.
                let groups = (0..k).step_by(GROUP).map(|j0| {
                    let g = GROUP.min(k - j0);
                    let cols: [&[f64]; GROUP] =
                        std::array::from_fn(|c| &data[j0 + c.min(g - 1)][..]);
                    let slots = std::array::from_fn(|c| (c < g).then_some(j0 + c));
                    (j0, g, cols, slots)
                });
                let carried: Vec<f64> = (0..k * nw).map(|p| (p as f64 * 0.53).sin()).collect();
                let (mut want, mut got) = (carried.clone(), carried);
                for (j0, g, cols, _) in groups.clone() {
                    let span = j0 * nw..(j0 + g) * nw;
                    dots_strips(cols, &ws, nw, &mut want[span.clone()], 0);
                    lanes.dots_group(cols, &ws, nw, &mut got[span]);
                }
                assert_eq!(bits(&got), bits(&want), "{label} dots");

                let nonzero = (1..=k * nw).map(|p| (p as f64 * 0.43).cos()).collect();
                for (set, alphas) in [("sparse", coefficients(k, nw)), ("nonzero", nonzero)] {
                    let (mut want, mut got) = (ws.clone(), ws.clone());
                    for (_, _, cols, slots) in groups.clone() {
                        gemv_strips(cols, slots, &alphas, &mut want, nw, 0);
                        lanes.gemv_group(cols, slots, &alphas, &mut got, nw);
                    }
                    assert_eq!(bits(&got), bits(&want), "{label} gemv {set}");
                }
            }
        }
    }

    /// Tiles are 512 rows wherever the alignment divides 512, else a
    /// multiple of it.
    #[test]
    fn tile_rows_follow_the_alignment() {
        for (align, rows) in [
            (0, 512),
            (1, 512),
            (32, 512),
            (512, 512),
            (48, 480),
            (1024, 1024),
        ] {
            assert_eq!(tile_rows(align), rows, "align {align}");
        }
    }

    /// The read pattern: `dots_many_chunk` reads every column once per
    /// 512-row tile, `k · ⌈rows / 512⌉` calls, and `gemv_many_chunk`
    /// reads the same except for a column whose coefficients are all
    /// zero, which it never reads.
    #[test]
    fn each_column_is_read_once_per_tile() {
        let (rows, k, nw) = (1100, 5, 3);
        let st = Probe::new(rows, k, 1);
        let ws = vectors(rows, nw);
        let mut out = vec![0.0; k * nw];
        dots_many_chunk(&st, k, 0, &ws, nw, &mut out);
        let mut reads = st.take_reads();
        reads.sort_unstable();
        let tiles = [(0, 512), (512, 512), (1024, 76)];
        let want: Vec<_> = (0..k).flat_map(|j| tiles.map(|(s, n)| (j, s, n))).collect();
        assert_eq!(reads, want);

        let alphas = coefficients(k, nw);
        let mut upd = ws.clone();
        gemv_many_chunk(&st, k, 0, &alphas, nw, &mut upd);
        let mut reads = st.take_reads();
        reads.sort_unstable();
        let live = (0..k).filter(|&j| j != 2);
        let want: Vec<_> = live.flat_map(|j| tiles.map(|(s, n)| (j, s, n))).collect();
        assert_eq!(reads, want);

        gemv_many_chunk(&st, k, 0, &vec![0.0; k * nw], nw, &mut upd);
        assert!(st.take_reads().is_empty());
    }
}
