//! Span recording and the bit-neutral tracing wrappers.
//!
//! The traced run times every call the solver stack makes into a
//! layer's public trait from *outside* the program: the wrappers below
//! sit between the krylov drivers and the objects they drive, forward
//! every trait method unchanged, and record a span around each method
//! that does work. Forwarding *every* method matters twice over: a
//! method left to its trait default would run different code than the
//! untraced solve (moving time, and for a non-conforming store, bits),
//! and it would hide the call from the trace.
//!
//! Spans go to per-thread in-memory buffers (one uncontended lock per
//! push). Each span carries the trace op id it belongs to, so the
//! harness collects an op's spans from every thread — pool workers
//! included — as soon as the op returns ([`take_op`]).

use krylov::basis_format::BasisFormat;
use krylov::Preconditioner;
use numfmt::ColumnStorage;
use spla::SparseMatrix;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a span timed: a root (the op the harness issued) or one call
/// into a layer's trait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    /// Root: one direct krylov solve.
    Op,
    /// Root: one `SolverService` job.
    Job,
    /// The direct krylov twin run after a traced service job.
    Twin,
    /// `SparseMatrix::spmv`.
    Spmv,
    /// `SparseMatrix::spmm_into`.
    Spmm,
    /// `SparseMatrix::spmv_powers_into`.
    Powers,
    /// `SparseMatrix::diagonal`.
    Diagonal,
    /// `Preconditioner::apply`.
    Precond,
    /// `BasisFormat::create` (or a static store factory).
    Create,
    /// `ColumnStorage::write_column` — the compression step.
    Write,
    /// `ColumnStorage::{read_chunk, read_column, load}`.
    Read,
    /// `ColumnStorage::{dots_chunk, dot_chunk}`.
    Dots,
    /// `ColumnStorage::{gemv_chunk, axpy_chunk}`.
    Gemv,
    /// `ColumnStorage::dots_many_chunk`.
    DotsMany,
    /// `ColumnStorage::gemv_many_chunk`.
    GemvMany,
}

/// The layer a non-root span is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Spla,
    /// `krylov::Preconditioner` — a krylov trait, but timed as a child
    /// so `krylov.self_ms` is the drivers' own work.
    Precond,
    Numfmt,
}

impl Layer {
    pub const ALL: [Layer; 3] = [Layer::Spla, Layer::Precond, Layer::Numfmt];
}

impl SpanName {
    pub const ALL: [SpanName; 15] = [
        SpanName::Op,
        SpanName::Job,
        SpanName::Twin,
        SpanName::Spmv,
        SpanName::Spmm,
        SpanName::Powers,
        SpanName::Diagonal,
        SpanName::Precond,
        SpanName::Create,
        SpanName::Write,
        SpanName::Read,
        SpanName::Dots,
        SpanName::Gemv,
        SpanName::DotsMany,
        SpanName::GemvMany,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SpanName::Op => "op",
            SpanName::Job => "job",
            SpanName::Twin => "twin",
            SpanName::Spmv => "spla.spmv",
            SpanName::Spmm => "spla.spmm",
            SpanName::Powers => "spla.powers",
            SpanName::Diagonal => "spla.diagonal",
            SpanName::Precond => "krylov.precond",
            SpanName::Create => "numfmt.create",
            SpanName::Write => "numfmt.write",
            SpanName::Read => "numfmt.read",
            SpanName::Dots => "numfmt.dots",
            SpanName::Gemv => "numfmt.gemv",
            SpanName::DotsMany => "numfmt.dots_many",
            SpanName::GemvMany => "numfmt.gemv_many",
        }
    }

    /// `None` for root spans.
    pub fn layer(self) -> Option<Layer> {
        match self {
            SpanName::Op | SpanName::Job | SpanName::Twin => None,
            SpanName::Spmv | SpanName::Spmm | SpanName::Powers | SpanName::Diagonal => {
                Some(Layer::Spla)
            }
            SpanName::Precond => Some(Layer::Precond),
            _ => Some(Layer::Numfmt),
        }
    }

    /// Basis decode: every numfmt read path.
    pub fn is_decode(self) -> bool {
        matches!(
            self,
            SpanName::Read
                | SpanName::Dots
                | SpanName::Gemv
                | SpanName::DotsMany
                | SpanName::GemvMany
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: SpanName,
    /// Small per-process thread number (registration order).
    pub thread: u32,
    /// Trace op id; the op's root span is this span's parent.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes the call touched, *computed* from its arguments: f64
    /// equivalents of the values decoded or encoded for numfmt, format
    /// arrays plus vectors for spla, input plus output for precond.
    pub bytes: u64,
    /// The store is an FRSZ2 format (feeds the `frsz2.*` metrics).
    pub frsz2: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

struct Registry {
    epoch: Instant,
    buffers: Mutex<Vec<Buffer>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        epoch: Instant::now(),
        buffers: Mutex::new(Vec::new()),
    })
}

fn register_thread() -> (u32, Buffer) {
    let buffer = Buffer::default();
    let mut all = registry()
        .buffers
        .lock()
        .expect("span registry lock poisoned");
    all.push(Arc::clone(&buffer));
    ((all.len() - 1) as u32, buffer)
}

thread_local! {
    static LOCAL: (u32, Buffer) = register_thread();
}

/// Nanoseconds since the process's trace epoch.
fn now_ns() -> u64 {
    registry().epoch.elapsed().as_nanos() as u64
}

/// Time `f` as a span of trace op `op`.
#[inline]
pub fn span<R>(name: SpanName, op: u32, bytes: u64, frsz2: bool, f: impl FnOnce() -> R) -> R {
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    LOCAL.with(|(thread, buffer)| {
        buffer
            .lock()
            .expect("span buffer lock poisoned")
            .push(Span {
                name,
                thread: *thread,
                op,
                start_ns,
                end_ns,
                bytes,
                frsz2,
            })
    });
    r
}

/// Remove and return every recorded span of trace op `op`, from every
/// thread's buffer. Called once the op has returned, when no thread
/// can still be adding to it.
pub fn take_op(op: u32) -> Vec<Span> {
    let all = registry()
        .buffers
        .lock()
        .expect("span registry lock poisoned");
    let mut out = Vec::new();
    for buffer in all.iter() {
        buffer
            .lock()
            .expect("span buffer lock poisoned")
            .retain(|s| {
                if s.op == op {
                    out.push(*s);
                    false
                } else {
                    true
                }
            });
    }
    out
}

fn f64_bytes(values: usize) -> u64 {
    8 * values as u64
}

/// [`SparseMatrix`] that times `spmv`, `spmm_into`, `spmv_powers_into`
/// and `diagonal`. Metadata methods and the per-row visitor forward
/// untimed: a span per visited row would cost more than the row.
pub struct TracedMatrix<'a, A: ?Sized> {
    inner: &'a A,
    op: u32,
}

impl<'a, A: SparseMatrix + ?Sized> TracedMatrix<'a, A> {
    pub fn new(inner: &'a A, op: u32) -> Self {
        TracedMatrix { inner, op }
    }
}

impl<A: SparseMatrix + ?Sized> SparseMatrix for TracedMatrix<'_, A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn format_name(&self) -> &'static str {
        self.inner.format_name()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn for_each_in_row(&self, i: usize, f: &mut dyn FnMut(u32, f64)) {
        self.inner.for_each_in_row(i, f)
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let bytes = self.inner.spmv_bytes() as u64;
        span(SpanName::Spmv, self.op, bytes, false, || {
            self.inner.spmv(x, y)
        })
    }

    fn spmm_into(&self, x: &[f64], y: &mut [f64], width: usize) {
        let bytes = self.inner.storage_bytes() as u64 + f64_bytes(x.len() + y.len());
        span(SpanName::Spmm, self.op, bytes, false, || {
            self.inner.spmm_into(x, y, width)
        })
    }

    fn spmv_powers_into(&self, x: &[f64], ys: &mut [f64], s: usize) {
        let bytes = s as u64 * self.inner.spmv_bytes() as u64;
        span(SpanName::Powers, self.op, bytes, false, || {
            self.inner.spmv_powers_into(x, ys, s)
        })
    }

    fn diagonal(&self) -> Vec<f64> {
        let bytes = self.inner.storage_bytes() as u64;
        span(SpanName::Diagonal, self.op, bytes, false, || {
            self.inner.diagonal()
        })
    }

    fn spmv_bytes(&self) -> usize {
        self.inner.spmv_bytes()
    }
}

/// [`Preconditioner`] that times `apply`.
pub struct TracedPrecond<'a, P: ?Sized> {
    inner: &'a P,
    op: u32,
}

impl<'a, P: Preconditioner + ?Sized> TracedPrecond<'a, P> {
    pub fn new(inner: &'a P, op: u32) -> Self {
        TracedPrecond { inner, op }
    }
}

impl<P: Preconditioner + ?Sized> Preconditioner for TracedPrecond<'_, P> {
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        let bytes = f64_bytes(v.len() + out.len());
        span(SpanName::Precond, self.op, bytes, false, || {
            self.inner.apply(v, out)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_identity(&self) -> bool {
        self.inner.is_identity()
    }
}

/// [`ColumnStorage`] that times every data-moving method.
pub struct TracedStore<S> {
    inner: S,
    op: u32,
    frsz2: bool,
}

impl<S: ColumnStorage> TracedStore<S> {
    pub fn new(inner: S, op: u32) -> Self {
        let frsz2 = inner.format_name().starts_with("frsz2");
        TracedStore { inner, op, frsz2 }
    }
}

/// Build a store through `make` under a [`SpanName::Create`] span and
/// wrap it — the static-dispatch counterpart of [`TracedFormat`].
pub fn traced_create<S: ColumnStorage>(op: u32, make: impl FnOnce() -> S) -> TracedStore<S> {
    span(SpanName::Create, op, 0, false, || {
        TracedStore::new(make(), op)
    })
}

impl<S: ColumnStorage> ColumnStorage for TracedStore<S> {
    fn with_shape(_rows: usize, _cols: usize) -> Self {
        panic!("TracedStore has no default format: wrap a store via TracedStore::new")
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn write_column(&mut self, j: usize, data: &[f64]) {
        let bytes = f64_bytes(data.len());
        span(SpanName::Write, self.op, bytes, self.frsz2, || {
            self.inner.write_column(j, data)
        })
    }

    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        let bytes = f64_bytes(out.len());
        span(SpanName::Read, self.op, bytes, self.frsz2, || {
            self.inner.read_chunk(j, row_start, out)
        })
    }

    fn read_column(&self, j: usize, out: &mut [f64]) {
        let bytes = f64_bytes(out.len());
        span(SpanName::Read, self.op, bytes, self.frsz2, || {
            self.inner.read_column(j, out)
        })
    }

    fn load(&self, i: usize, j: usize) -> f64 {
        span(SpanName::Read, self.op, 8, self.frsz2, || {
            self.inner.load(i, j)
        })
    }

    fn chunk_align(&self) -> usize {
        self.inner.chunk_align()
    }

    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        let bytes = f64_bytes(w.len());
        span(SpanName::Dots, self.op, bytes, self.frsz2, || {
            self.inner.dot_chunk(j, row_start, w)
        })
    }

    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        let bytes = f64_bytes(w.len());
        span(SpanName::Gemv, self.op, bytes, self.frsz2, || {
            self.inner.axpy_chunk(j, row_start, alpha, w)
        })
    }

    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        let bytes = f64_bytes(k * w.len());
        span(SpanName::Dots, self.op, bytes, self.frsz2, || {
            self.inner.dots_chunk(k, row_start, w, out)
        })
    }

    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        let bytes = f64_bytes(k * w.len());
        span(SpanName::Gemv, self.op, bytes, self.frsz2, || {
            self.inner.gemv_chunk(k, row_start, alphas, w)
        })
    }

    fn dots_many_chunk(&self, k: usize, row_start: usize, ws: &[f64], nw: usize, out: &mut [f64]) {
        let bytes = f64_bytes(k * ws.len() / nw.max(1));
        span(SpanName::DotsMany, self.op, bytes, self.frsz2, || {
            self.inner.dots_many_chunk(k, row_start, ws, nw, out)
        })
    }

    fn gemv_many_chunk(
        &self,
        k: usize,
        row_start: usize,
        alphas: &[f64],
        nw: usize,
        ws: &mut [f64],
    ) {
        let bytes = f64_bytes(k * ws.len() / nw.max(1));
        span(SpanName::GemvMany, self.op, bytes, self.frsz2, || {
            self.inner.gemv_many_chunk(k, row_start, alphas, nw, ws)
        })
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

/// [`BasisFormat`] whose stores are [`TracedStore`]s; `create` itself
/// is timed.
pub struct TracedFormat<'a> {
    inner: &'a dyn BasisFormat,
    op: u32,
}

impl<'a> TracedFormat<'a> {
    pub fn new(inner: &'a dyn BasisFormat, op: u32) -> Self {
        TracedFormat { inner, op }
    }
}

impl BasisFormat for TracedFormat<'_> {
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
        Box::new(traced_create(self.op, || self.inner.create(rows, cols)))
    }
}

/// Per-name totals of one op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub calls: u64,
    /// Wall time covered by the union of this name's spans.
    pub wall_ns: u64,
    pub bytes: u64,
}

/// Bytes and thread-busy time of one kind of FRSZ2 work.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rate {
    pub bytes: u64,
    pub busy_ns: u64,
}

impl Rate {
    fn add(&mut self, s: &Span) {
        self.bytes += s.bytes;
        self.busy_ns += s.duration_ns();
    }
}

/// Everything the per-layer metrics need from one op's spans.
#[derive(Clone, Debug, Default)]
pub struct OpTrace {
    /// Root span: the krylov solve, or the service job.
    pub wall_ns: u64,
    /// The krylov call the layer spans descend from: the op itself, or
    /// the twin of a service job.
    pub solver_ns: u64,
    /// Service jobs only: job time minus twin time.
    pub service_ns: u64,
    /// Union of every layer span.
    pub children_ns: u64,
    pub layer_ns: [u64; Layer::ALL.len()],
    pub names: [NameTotals; SpanName::ALL.len()],
    pub frsz2_decode: Rate,
    pub frsz2_encode: Rate,
}

impl OpTrace {
    pub fn name(&self, name: SpanName) -> &NameTotals {
        &self.names[name.index()]
    }

    pub fn layer(&self, layer: Layer) -> u64 {
        self.layer_ns[layer as usize]
    }

    /// Driver time outside every layer span.
    pub fn krylov_self_ns(&self) -> u64 {
        self.solver_ns.saturating_sub(self.children_ns)
    }
}

/// Wall time covered by the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Reduce one op's spans to its [`OpTrace`].
pub fn summarize(spans: &[Span]) -> OpTrace {
    let mut t = OpTrace::default();
    let root = |name: SpanName| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>()
    };
    let (op, job, twin) = (
        root(SpanName::Op),
        root(SpanName::Job),
        root(SpanName::Twin),
    );
    if job > 0 {
        t.wall_ns = job;
        t.solver_ns = twin;
        t.service_ns = job.saturating_sub(twin);
    } else {
        t.wall_ns = op;
        t.solver_ns = op;
    }
    let interval = |s: &Span| (s.start_ns, s.end_ns);
    let children: Vec<&Span> = spans.iter().filter(|s| s.name.layer().is_some()).collect();
    t.children_ns = union_ns(children.iter().map(|s| interval(s)).collect());
    for layer in Layer::ALL {
        t.layer_ns[layer as usize] = union_ns(
            children
                .iter()
                .filter(|s| s.name.layer() == Some(layer))
                .map(|s| interval(s))
                .collect(),
        );
    }
    for name in SpanName::ALL {
        let of_name: Vec<&&Span> = children.iter().filter(|s| s.name == name).collect();
        t.names[name.index()] = NameTotals {
            calls: of_name.len() as u64,
            wall_ns: union_ns(of_name.iter().map(|s| interval(s)).collect()),
            bytes: of_name.iter().map(|s| s.bytes).sum(),
        };
    }
    for s in children.iter().filter(|s| s.frsz2) {
        if s.name.is_decode() {
            t.frsz2_decode.add(s);
        } else if s.name == SpanName::Write {
            t.frsz2_encode.add(s);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use frsz2::{Frsz2Config, Frsz2Store};
    use numfmt::DenseStore;
    use spla::gen;

    fn column(n: usize, phase: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every data-moving `ColumnStorage` method of the wrapper returns
    /// exactly the wrapped store's bits, and each is recorded.
    fn assert_store_is_transparent<S: ColumnStorage>(make: impl Fn() -> S, op: u32) {
        let (n, k, nw) = (96, 3, 2);
        let mut bare = make();
        let mut traced = TracedStore::new(make(), op);
        for j in 0..k {
            bare.write_column(j, &column(n, j as f64));
            traced.write_column(j, &column(n, j as f64));
        }
        assert_eq!(traced.format_name(), bare.format_name());
        assert_eq!(traced.chunk_align(), bare.chunk_align());
        assert_eq!(traced.column_bytes(), bare.column_bytes());
        assert_eq!(traced.bits_per_value(), bare.bits_per_value());
        assert_eq!((traced.rows(), traced.cols()), (bare.rows(), bare.cols()));

        let w = column(n, 0.5);
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        bare.read_column(1, &mut a);
        traced.read_column(1, &mut b);
        assert_eq!(bits(&a), bits(&b));
        bare.read_chunk(2, 32, &mut a[..32]);
        traced.read_chunk(2, 32, &mut b[..32]);
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(bare.load(5, 2).to_bits(), traced.load(5, 2).to_bits());
        assert_eq!(
            bare.dot_chunk(0, 0, &w).to_bits(),
            traced.dot_chunk(0, 0, &w).to_bits()
        );
        let (mut da, mut db) = (vec![0.0; k], vec![0.0; k]);
        bare.dots_chunk(k, 0, &w, &mut da);
        traced.dots_chunk(k, 0, &w, &mut db);
        assert_eq!(bits(&da), bits(&db));

        let alphas = [0.5, 0.0, -1.25];
        let (mut ua, mut ub) = (w.clone(), w.clone());
        bare.axpy_chunk(1, 0, 0.75, &mut ua);
        traced.axpy_chunk(1, 0, 0.75, &mut ub);
        bare.gemv_chunk(k, 0, &alphas, &mut ua);
        traced.gemv_chunk(k, 0, &alphas, &mut ub);
        assert_eq!(bits(&ua), bits(&ub));

        let ws: Vec<f64> = column(n * nw, 1.5);
        let (mut ma, mut mb) = (vec![0.0; k * nw], vec![0.0; k * nw]);
        bare.dots_many_chunk(k, 0, &ws, nw, &mut ma);
        traced.dots_many_chunk(k, 0, &ws, nw, &mut mb);
        assert_eq!(bits(&ma), bits(&mb));
        let many_alphas = [0.5, -0.25, 0.0, 0.0, 1.0, 2.0];
        let (mut wa, mut wb) = (ws.clone(), ws.clone());
        bare.gemv_many_chunk(k, 0, &many_alphas, nw, &mut wa);
        traced.gemv_many_chunk(k, 0, &many_alphas, nw, &mut wb);
        assert_eq!(bits(&wa), bits(&wb));

        let spans = take_op(op);
        let count = |name| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count(SpanName::Write), k);
        assert_eq!(count(SpanName::Read), 3);
        assert_eq!(count(SpanName::Dots), 2);
        assert_eq!(count(SpanName::Gemv), 2);
        assert_eq!(count(SpanName::DotsMany), 1);
        assert_eq!(count(SpanName::GemvMany), 1);
        let frsz2 = bare.format_name().starts_with("frsz2");
        assert!(spans.iter().all(|s| s.frsz2 == frsz2 && s.op == op));
    }

    #[test]
    fn traced_store_forwards_every_method_bit_for_bit() {
        let cfg = Frsz2Config::new(32, 21);
        assert_store_is_transparent(|| Frsz2Store::with_config(cfg, 96, 3), 9001);
        assert_store_is_transparent(|| DenseStore::<f32>::with_shape(96, 3), 9002);
        let fmt = krylov::basis_format::by_name("frsz2_16").unwrap();
        assert_store_is_transparent(|| fmt.create(96, 3), 9003);
    }

    #[test]
    fn traced_matrix_and_precond_forward_every_method() {
        let a = gen::conv_diff_3d(5, 4, 3, [0.4, 0.2, 0.1], 0.2);
        let op = 9010;
        let t = TracedMatrix::new(&a, op);
        assert_eq!((t.rows(), t.cols(), t.nnz()), (a.rows(), a.cols(), a.nnz()));
        assert_eq!(t.format_name(), SparseMatrix::format_name(&a));
        assert_eq!(t.storage_bytes(), SparseMatrix::storage_bytes(&a));
        assert_eq!(t.spmv_bytes(), SparseMatrix::spmv_bytes(&a));
        assert_eq!(bits(&t.diagonal()), bits(&SparseMatrix::diagonal(&a)));
        let n = a.rows();
        let x = column(n, 0.1);
        let (mut ya, mut yb) = (vec![0.0; n], vec![0.0; n]);
        SparseMatrix::spmv(&a, &x, &mut ya);
        t.spmv(&x, &mut yb);
        assert_eq!(bits(&ya), bits(&yb));
        let xs = column(2 * n, 0.2);
        let (mut ma, mut mb) = (vec![0.0; 2 * n], vec![0.0; 2 * n]);
        SparseMatrix::spmm_into(&a, &xs, &mut ma, 2);
        t.spmm_into(&xs, &mut mb, 2);
        assert_eq!(bits(&ma), bits(&mb));
        let (mut pa, mut pb) = (vec![0.0; 3 * n], vec![0.0; 3 * n]);
        SparseMatrix::spmv_powers_into(&a, &x, &mut pa, 3);
        t.spmv_powers_into(&x, &mut pb, 3);
        assert_eq!(bits(&pa), bits(&pb));
        let mut row = Vec::new();
        t.for_each_in_row(7, &mut |c, v| row.push((c, v.to_bits())));
        assert_eq!(row.len(), a.row(7).0.len());

        let jac = krylov::Jacobi::new(&a);
        let p = TracedPrecond::new(&jac, op);
        let (mut za, mut zb) = (vec![0.0; n], vec![0.0; n]);
        jac.apply(&x, &mut za);
        p.apply(&x, &mut zb);
        assert_eq!(bits(&za), bits(&zb));
        assert_eq!(p.name(), jac.name());
        assert!(!p.is_identity());
        assert!(TracedPrecond::new(&krylov::Identity, op).is_identity());

        let spans = take_op(op);
        let names: Vec<SpanName> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                SpanName::Diagonal,
                SpanName::Spmv,
                SpanName::Spmm,
                SpanName::Powers,
                SpanName::Precond
            ]
        );
    }

    /// `Box<dyn ColumnStorage>` does not forward the multi-vector
    /// kernels, so a panel sweep through a boxed traced store arrives
    /// as per-tile reads — the attribution BENCHMARK.md documents.
    #[test]
    fn boxed_panel_decode_arrives_as_reads() {
        let op = 9020;
        let fmt = krylov::basis_format::by_name("frsz2_21").unwrap();
        let traced = TracedFormat::new(fmt.as_ref(), op);
        let mut store: Box<dyn ColumnStorage> = traced.create(1024, 2);
        store.write_column(0, &column(1024, 0.0));
        store.write_column(1, &column(1024, 1.0));
        let ws = column(2 * 1024, 0.3);
        let mut out = vec![0.0; 4];
        store.dots_many_chunk(2, 0, &ws, 2, &mut out);
        let spans = take_op(op);
        let count = |name| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count(SpanName::Create), 1);
        assert_eq!(count(SpanName::DotsMany), 0);
        assert_eq!(count(SpanName::Read), 2 * (1024 / 512));
    }

    #[test]
    fn summary_takes_unions_and_separates_the_service_share() {
        let s = |name, thread, start_ns, end_ns| Span {
            name,
            thread,
            op: 1,
            start_ns,
            end_ns,
            bytes: 80,
            frsz2: true,
        };
        let spans = [
            s(SpanName::Job, 0, 0, 100),
            s(SpanName::Twin, 0, 100, 180),
            s(SpanName::Dots, 0, 110, 130),
            s(SpanName::Dots, 1, 120, 140),
            s(SpanName::Spmv, 0, 150, 160),
            s(SpanName::Write, 0, 165, 170),
        ];
        let t = summarize(&spans);
        assert_eq!((t.wall_ns, t.solver_ns, t.service_ns), (100, 80, 20));
        let dots = t.name(SpanName::Dots);
        assert_eq!((dots.calls, dots.wall_ns, dots.bytes), (2, 30, 160));
        assert_eq!(t.layer(Layer::Numfmt), 35);
        assert_eq!(t.layer(Layer::Spla), 10);
        assert_eq!(t.children_ns, 45);
        assert_eq!(t.krylov_self_ns(), 35);
        assert_eq!((t.frsz2_decode.bytes, t.frsz2_decode.busy_ns), (160, 40));
        assert_eq!((t.frsz2_encode.bytes, t.frsz2_encode.busy_ns), (80, 5));
    }
}
