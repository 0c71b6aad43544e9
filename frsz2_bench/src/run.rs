//! One benchmark run: the setups, the measured phase(s), and the
//! metrics derived from them.
//!
//! End-to-end metrics always come from an untraced run. A traced run
//! (`--trace 1`) runs every op twice back to back, untraced and then
//! traced: the per-layer metrics come from the traced ops, the two
//! results must be bit-identical, and the two latencies of each op —
//! taken over the same stretch of time, so host speed drifts cancel —
//! give the tracing overhead.

use crate::host::{self, Host, Triad};
use crate::report::Metric;
use crate::speed;
use crate::stats;
use crate::trace::{self, Layer, OpTrace, Span, SpanName};
use crate::workload::{self, Check, Counters, Failure, OpOutcome, Workload, WorkloadId};
use bench::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `setup_s` is the median of at least this many full set-ups...
const MIN_SETUPS: usize = 5;
/// ...and of as many more as fit in this much set-up time, so that a
/// workload which sets up in milliseconds still gives a steady median.
const MIN_SETUP_S: f64 = 1.0;
/// Untraced ops needed for a p90 with ten samples beyond it.
const MIN_OPS: usize = 100;
/// Op pairs needed for a p50 with ten samples beyond it (traced runs).
const MIN_TRACED_OPS: usize = 20;
/// A phase stops here whatever its op count, so a run on a slow host
/// still ends inside its time limit.
const MAX_PHASE_S: f64 = 120.0;
/// Raw spans written to the trace file (those of the first ops).
const MAX_WRITTEN_SPANS: usize = 50_000;

pub struct RunArgs {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub enum RunError {
    /// An output failed a correctness check.
    Check(Failure),
    /// The harness could not measure (too few samples, I/O).
    Harness(String),
}

impl From<Failure> for RunError {
    fn from(f: Failure) -> RunError {
        RunError::Check(f)
    }
}

impl From<String> for RunError {
    fn from(msg: String) -> RunError {
        RunError::Harness(msg)
    }
}

pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub host: Json,
    /// The traced run's span file (`None` untraced).
    pub trace_doc: Option<Json>,
    /// Untraced runs: the end-to-end times before host-speed
    /// normalization, and the run's mean host speed.
    pub raw: Vec<Metric>,
    /// Untraced runs of a workload that mixes job kinds: each kind's
    /// median job latency (normalized like `latency_ms_p50`).
    pub latency_by_kind: Vec<Metric>,
}

/// A measured time and the host speed while it was measured.
#[derive(Clone, Copy)]
struct Timed {
    raw: f64,
    speed: f64,
}

impl Timed {
    /// The time at the reference host speed (see [`speed`]).
    fn normalized(self) -> f64 {
        self.raw * self.speed
    }
}

/// What the harness keeps of one op (of its traced run, in a traced
/// run). Small, so the record buffer adds little to the peak RSS the
/// run reports.
struct Record {
    index: usize,
    latency_ns: u64,
    converged: bool,
    rejected: bool,
    rrn_over_target: Option<f64>,
    /// Host speed over the op.
    speed: f64,
    /// A service round: each job's kind and latency.
    job_ns: Vec<(&'static str, u64)>,
    traced: Option<Box<TracedOp>>,
}

/// What a traced run keeps of an op beyond its record.
struct TracedOp {
    summary: OpTrace,
    counters: Counters,
    /// The same work timed untraced and then traced, in ns: the op
    /// itself, or a service job's krylov twin.
    overhead_pair: (u64, u64),
}

/// Records reserved up front: reserved but untouched pages are not
/// resident, and the buffer never moves (a reallocation copy would make
/// `peak_rss_mb` depend on where the op count falls between doublings).
const RESERVED_RECORDS: usize = 1 << 16;

struct Phase {
    records: Vec<Record>,
    /// Ops completed per second of the clients' time, calibration
    /// excluded.
    ops_per_s: f64,
    /// Raw spans of the first traced ops, for the trace file.
    spans: Vec<Span>,
}

impl Phase {
    fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.converged).count()
    }

    /// Ascending latencies in ms, as `pick` reads them (in ns) from each
    /// record.
    fn latencies_ms(&self, pick: impl Fn(&Record) -> f64) -> Vec<f64> {
        let ms: Vec<f64> = self.records.iter().map(|r| pick(r) / 1e6).collect();
        stats::sorted(&ms)
    }

    fn traced_ops(&self) -> impl Iterator<Item = (&Record, &TracedOp)> {
        self.records.iter().map(|r| {
            let t = r.traced.as_deref().expect("a traced run traces every op");
            (r, t)
        })
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, RunError> {
    let mut setups = Vec::new();
    let mut register_ms = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    let kernel_ns = || workload::with_pool(args.workload.spec().pool_threads, speed::kernel_ns);
    let mut setup_s = 0.0;
    while setups.len() < MIN_SETUPS || setup_s < MIN_SETUP_S {
        // The previous setup is dropped first so setups never overlap
        // in memory.
        drop(current.take());
        let before = kernel_ns();
        let start = Instant::now();
        let w = workload::setup(args.workload, args.seed)?;
        let raw = start.elapsed().as_secs_f64();
        setup_s += raw;
        setups.push(Timed {
            raw,
            speed: speed::host_speed(before, kernel_ns()),
        });
        register_ms.push(w.register_ms());
        current = Some(w);
    }
    let w = current.expect("at least one setup ran");
    let min_ops = if args.trace { MIN_TRACED_OPS } else { MIN_OPS };
    let phase = measure(w.as_ref(), args.seconds, min_ops, args.trace)?;
    let rss_mb = peak_rss_mb()?;
    let host = Host::probe();
    // After the measurement, so the triad's arrays cannot disturb it.
    let triad = host::triad(&host)?;
    let (metrics, raw, latency_by_kind, trace_doc) = if args.trace {
        let service = args.workload == WorkloadId::ServiceMixed;
        let register_ms = stats::median(&register_ms);
        let metrics = per_layer(&phase, register_ms, &triad, service)?;
        (
            metrics,
            Vec::new(),
            Vec::new(),
            Some(trace_doc(args, &phase)),
        )
    } else {
        let (metrics, raw) = end_to_end(&setups, &phase, rss_mb)?;
        (metrics, raw, latency_by_kind(&phase), None)
    };
    Ok(RunResult {
        attempted: phase.records.len(),
        failed: phase.failed(),
        metrics,
        host: host.to_json(&triad),
        trace_doc,
        raw,
        latency_by_kind,
    })
}

/// Closed-loop measurement: `clients` threads, each with its own pool,
/// take op indices in order until `seconds` have passed, at least
/// `min_ops` ops ran, and the last cycle is complete — so every input
/// weighs the same in the statistics. With `traced`, each op runs
/// untraced and then traced. The time each client spends timing the
/// calibration kernel is taken out of its share of the throughput.
fn measure(
    w: &dyn Workload,
    seconds: f64,
    min_ops: usize,
    traced: bool,
) -> Result<Phase, RunError> {
    let spec = w.id().spec();
    let cycle = w.cycle();
    // (next index, stopped)
    let claim = Mutex::new((0usize, false));
    let seen = Mutex::new(HashMap::new());
    let records = Mutex::new(Vec::with_capacity(RESERVED_RECORDS));
    let spans = Mutex::new(Vec::new());
    let failure: Mutex<Option<Failure>> = Mutex::new(None);
    // Per client: ops completed and time spent calibrating.
    let clients = Mutex::new(Vec::with_capacity(spec.clients));
    let start = Instant::now();
    let next = || {
        let mut c = claim.lock().expect("claim lock poisoned");
        let t = start.elapsed().as_secs_f64();
        let i = c.0;
        if c.1 || t >= MAX_PHASE_S || (t >= seconds && i >= min_ops && i.is_multiple_of(cycle)) {
            c.1 = true;
            return None;
        }
        c.0 += 1;
        Some(i)
    };
    std::thread::scope(|s| {
        for _ in 0..spec.clients {
            s.spawn(|| {
                workload::with_pool(spec.pool_threads, || {
                    let mut calibration = speed::Calibration::new();
                    let mut done = 0usize;
                    while let Some(i) = next() {
                        let before = calibration.current();
                        match one_op(w, i, traced, &seen) {
                            Ok(OpRun {
                                outcome,
                                traced,
                                spans: op_spans,
                            }) => {
                                let latency = Duration::from_nanos(outcome.latency_ns);
                                let speed = calibration.speed_over(before, latency);
                                let mut kept = spans.lock().expect("span lock poisoned");
                                let room = MAX_WRITTEN_SPANS.saturating_sub(kept.len());
                                kept.extend(op_spans.into_iter().take(room));
                                drop(kept);
                                records.lock().expect("record lock poisoned").push(Record {
                                    index: i,
                                    latency_ns: outcome.latency_ns,
                                    converged: outcome.converged,
                                    rejected: outcome.rejected,
                                    rrn_over_target: outcome.rrn_over_target,
                                    speed,
                                    job_ns: outcome.job_ns,
                                    traced,
                                });
                                done += 1;
                            }
                            Err(f) => {
                                failure
                                    .lock()
                                    .expect("failure lock poisoned")
                                    .get_or_insert(f);
                                claim.lock().expect("claim lock poisoned").1 = true;
                            }
                        }
                    }
                    clients
                        .lock()
                        .expect("client lock poisoned")
                        .push((done, calibration.spent()));
                })
            });
        }
    });
    let elapsed = start.elapsed();
    if let Some(f) = failure.into_inner().expect("failure lock poisoned") {
        return Err(RunError::Check(f));
    }
    let mut records = records.into_inner().expect("record lock poisoned");
    records.sort_by_key(|r| r.index);
    let ops_per_s = clients
        .into_inner()
        .expect("client lock poisoned")
        .iter()
        .map(|&(done, calibrating)| done as f64 / elapsed.saturating_sub(calibrating).as_secs_f64())
        .sum();
    Ok(Phase {
        records,
        ops_per_s,
        spans: spans.into_inner().expect("span lock poisoned"),
    })
}

/// One measured op.
struct OpRun {
    /// The traced run's outcome in a traced run.
    outcome: OpOutcome,
    traced: Option<Box<TracedOp>>,
    /// The traced run's spans.
    spans: Vec<Span>,
}

/// Run op `i`, check it against the first run of the same input, and
/// with `traced` run it again traced and require the same bits.
fn one_op(
    w: &dyn Workload,
    i: usize,
    traced: bool,
    seen: &Mutex<HashMap<usize, u64>>,
) -> Result<OpRun, Failure> {
    let plain = w.run_op(i, None)?;
    let first = *seen
        .lock()
        .expect("digest lock poisoned")
        .entry(w.input(i))
        .or_insert(plain.digest);
    let mismatch = |check, first: u64, got: u64, what: &str| {
        Failure::new(
            check,
            format!("op {i}: digest {got:016x}, {what} {first:016x}"),
        )
    };
    if first != plain.digest {
        return Err(mismatch(
            Check::Nondeterministic,
            first,
            plain.digest,
            "first run of the same input",
        ));
    }
    if !traced {
        return Ok(OpRun {
            outcome: plain,
            traced: None,
            spans: Vec::new(),
        });
    }
    let id = u32::try_from(i).expect("op index fits a trace id");
    let outcome = w.run_op(i, Some(id))?;
    let spans = trace::take_op(id);
    if outcome.digest != plain.digest {
        return Err(mismatch(
            Check::TracedMismatch,
            plain.digest,
            outcome.digest,
            "untraced",
        ));
    }
    let traced = TracedOp {
        summary: trace::summarize(&spans),
        counters: outcome.counters,
        overhead_pair: outcome
            .twin_ns
            .unwrap_or((plain.latency_ns, outcome.latency_ns)),
    };
    Ok(OpRun {
        outcome,
        traced: Some(Box::new(traced)),
        spans,
    })
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The end-to-end metrics (times at the reference host speed) and the
/// same times raw, with the run's mean host speed.
fn end_to_end(
    setups: &[Timed],
    phase: &Phase,
    rss_mb: f64,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let n = phase.records.len();
    let converged = n - phase.failed();
    let rrn_max = phase
        .records
        .iter()
        .filter_map(|r| r.rrn_over_target)
        .fold(0.0, f64::max);
    // Latency-weighted mean host speed: the share of the phase's op time
    // each speed held, so throughput scales like the op times do.
    let busy_ns: f64 = phase.records.iter().map(|r| r.latency_ns as f64).sum();
    let run_speed = phase
        .records
        .iter()
        .map(|r| r.latency_ns as f64 * r.speed)
        .sum::<f64>()
        / busy_ns;
    let times = |normalized: bool| -> Result<Vec<Metric>, String> {
        let scale = |t: Timed| if normalized { t.normalized() } else { t.raw };
        let setup: Vec<f64> = setups.iter().map(|&t| scale(t)).collect();
        let lat = phase.latencies_ms(|r| {
            scale(Timed {
                raw: r.latency_ns as f64,
                speed: r.speed,
            })
        });
        let per_s = phase.ops_per_s;
        Ok(vec![
            Metric::new("setup_s", "s", stats::median(&setup), setups.len()),
            Metric::new("latency_ms_p50", "ms/op", stats::percentile(&lat, 50.0)?, n),
            Metric::new("latency_ms_p90", "ms/op", stats::percentile(&lat, 90.0)?, n),
            Metric::new(
                "throughput_per_s",
                "ops/s",
                if normalized { per_s / run_speed } else { per_s },
                n,
            ),
        ])
    };
    let mut metrics = times(true)?;
    metrics.extend([
        Metric::new("converged_frac", "ratio", converged as f64 / n as f64, n),
        Metric::new("rrn_over_target_max", "ratio", rrn_max, converged),
        Metric::new("peak_rss_mb", "MB", rss_mb, 1),
    ]);
    let mut raw = times(false)?;
    raw.push(Metric::new("host_speed", "ratio", run_speed, n));
    Ok((metrics, raw))
}

/// Per-layer metrics: per-op means of the traced ops' times and counts;
/// shares and rates are ratios of totals over those ops.
fn per_layer(
    traced: &Phase,
    register_ms: f64,
    triad: &Triad,
    service: bool,
) -> Result<Vec<Metric>, String> {
    let ops: Vec<(&OpTrace, &Counters, bool)> = traced
        .traced_ops()
        .map(|(r, t)| (&t.summary, &t.counters, r.rejected))
        .collect();
    let n = ops.len();
    let mean = |f: &dyn Fn(&OpTrace, &Counters) -> f64| {
        ops.iter().map(|(t, c, _)| f(t, c)).sum::<f64>() / n as f64
    };
    let total = |f: &dyn Fn(&OpTrace) -> u64| ops.iter().map(|(t, _, _)| f(t)).sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ms = |ns: u64| ns as f64 / 1e6;
    let wall = total(&|t| t.wall_ns);
    let mut m = Vec::new();
    let mut push = |name: &str, unit: &str, value: f64| m.push(Metric::new(name, unit, value, n));

    let calls = |name: SpanName| mean(&|t, _| t.name(name).calls as f64);
    let name_ms = |name: SpanName| mean(&|t, _| ms(t.name(name).wall_ns));
    for (label, name) in [
        ("dots", SpanName::Dots),
        ("gemv", SpanName::Gemv),
        ("dots_many", SpanName::DotsMany),
        ("gemv_many", SpanName::GemvMany),
        ("read", SpanName::Read),
        ("write", SpanName::Write),
    ] {
        push(&format!("numfmt.{label}_calls"), "count", calls(name));
        push(&format!("numfmt.{label}_ms"), "ms", name_ms(name));
    }
    push(
        "numfmt.share",
        "ratio",
        ratio(total(&|t| t.layer(Layer::Numfmt)), wall),
    );

    let bits: Vec<f64> = ops
        .iter()
        .filter_map(|(_, c, _)| c.frsz2_bits_per_value)
        .collect();
    let bits_mean = if bits.is_empty() {
        0.0
    } else {
        bits.iter().sum::<f64>() / bits.len() as f64
    };
    let gbps = |bytes: f64, ns: f64| ratio(bytes, ns);
    let decode = gbps(
        total(&|t| t.frsz2_decode.bytes),
        total(&|t| t.frsz2_decode.busy_ns),
    );
    let encode = gbps(
        total(&|t| t.frsz2_encode.bytes),
        total(&|t| t.frsz2_encode.busy_ns),
    );
    push("frsz2.bits_per_value", "bits", bits_mean);
    push("frsz2.decode_gbps_computed", "GB/s", decode);
    push("frsz2.encode_gbps_computed", "GB/s", encode);
    push(
        "frsz2.decode_frac_of_triad",
        "ratio",
        ratio(decode, triad.gbps),
    );

    for (label, name) in [
        ("spmv", SpanName::Spmv),
        ("spmm", SpanName::Spmm),
        ("powers", SpanName::Powers),
    ] {
        push(&format!("spla.{label}_calls"), "count", calls(name));
        push(&format!("spla.{label}_ms"), "ms", name_ms(name));
    }
    let spla_ns = total(&|t| t.layer(Layer::Spla));
    let spla_bytes = total(&|t| {
        [
            SpanName::Spmv,
            SpanName::Spmm,
            SpanName::Powers,
            SpanName::Diagonal,
        ]
        .iter()
        .map(|&s| t.name(s).bytes)
        .sum()
    });
    push("spla.gbps_computed", "GB/s", gbps(spla_bytes, spla_ns));
    push("spla.share", "ratio", ratio(spla_ns, wall));

    push("krylov.precond_calls", "count", calls(SpanName::Precond));
    push("krylov.precond_ms", "ms", name_ms(SpanName::Precond));
    push("krylov.self_ms", "ms", mean(&|t, _| ms(t.krylov_self_ns())));
    push(
        "krylov.share",
        "ratio",
        ratio(total(&|t| t.krylov_self_ns()), wall),
    );
    type Count = fn(&Counters) -> u64;
    let counters: [(&str, Count); 6] = [
        ("iterations", |c| c.iterations),
        ("restarts", |c| c.restarts),
        ("basis_sweeps", |c| c.basis_sweeps),
        ("reorthogonalizations", |c| c.reorthogonalizations),
        ("loo_breaches", |c| c.loo_breaches),
        ("escalations", |c| c.escalations),
    ];
    for (label, get) in counters {
        push(
            &format!("krylov.{label}"),
            "count",
            mean(&|_, c| get(c) as f64),
        );
    }

    // Service metrics are 0 (not applicable) on the direct workloads.
    let only_service = |v: f64| if service { v } else { 0.0 };
    push(
        "solver_service.self_ms",
        "ms",
        mean(&|t, _| ms(t.service_ns)),
    );
    push(
        "solver_service.share",
        "ratio",
        ratio(total(&|t| t.service_ns), wall),
    );
    push(
        "solver_service.register_ms",
        "ms",
        only_service(register_ms),
    );
    // Per job: a service op is a round of several jobs.
    let jobs = ops.iter().map(|(_, c, _)| c.jobs).sum::<u64>() as f64;
    let attempts = ops.iter().map(|(_, c, _)| c.attempts).sum::<u64>() as f64;
    push(
        "solver_service.attempts_mean",
        "count",
        only_service(ratio(attempts, jobs)),
    );
    let rejected = ops.iter().filter(|(_, _, rejected)| *rejected).count();
    push(
        "solver_service.rejected",
        "count",
        rejected as f64 / n as f64,
    );

    // A median of per-op ratios rather than a ratio of medians: on a
    // mix of job kinds, a latency median falls between kinds and jumps.
    let slowdowns: Vec<f64> = traced
        .traced_ops()
        .map(|(_, t)| t.overhead_pair.1 as f64 / t.overhead_pair.0 as f64)
        .collect();
    push(
        "trace.overhead_frac",
        "ratio",
        stats::median(&slowdowns) - 1.0,
    );
    push(
        "trace.coverage",
        "ratio",
        ratio(total(&|t| t.children_ns), total(&|t| t.solver_ns)),
    );
    Ok(m)
}

/// Each job kind's median job latency at the reference host speed, for
/// a workload that mixes kinds (empty otherwise).
fn latency_by_kind(phase: &Phase) -> Vec<Metric> {
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &phase.records {
        for &(kind, ns) in &r.job_ns {
            by_kind
                .entry(kind)
                .or_default()
                .push(ns as f64 * r.speed / 1e6);
        }
    }
    by_kind
        .into_iter()
        .map(|(kind, ms)| Metric::new(kind, "ms/op", stats::median(&ms), ms.len()))
        .collect()
}

/// The span file of a traced phase: per-op summaries of every traced
/// op, and the raw spans of the first ops.
fn trace_doc(args: &RunArgs, phase: &Phase) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let ms = |ns: u64| Json::Num(ns as f64 / 1e6);
    let spans = phase
        .spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::Str(s.name.label().to_string()),
                num(u64::from(s.thread)),
                num(u64::from(s.op)),
                num(s.start_ns),
                num(s.end_ns),
                num(s.bytes),
            ])
        })
        .collect();
    let ops = phase
        .traced_ops()
        .map(|(r, t)| {
            let t = &t.summary;
            Json::obj(vec![
                ("op", num(r.index as u64)),
                ("wall_ms", ms(t.wall_ns)),
                ("solver_ms", ms(t.solver_ns)),
                ("children_ms", ms(t.children_ns)),
                ("numfmt_ms", ms(t.layer(Layer::Numfmt))),
                ("spla_ms", ms(t.layer(Layer::Spla))),
                ("precond_ms", ms(t.layer(Layer::Precond))),
                ("service_ms", ms(t.service_ns)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::Num(args.seed as f64)),
        (
            "span_fields",
            Json::Arr(
                ["name", "thread", "op", "start_ns", "end_ns", "bytes"]
                    .iter()
                    .map(|f| Json::Str(f.to_string()))
                    .collect(),
            ),
        ),
        ("spans", Json::Arr(spans)),
        ("ops", Json::Arr(ops)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIAD: Triad = Triad {
        gbps: 10.0,
        array_bytes: 1 << 30,
    };

    fn phase(n: usize) -> Phase {
        Phase {
            records: (0..n)
                .map(|i| Record {
                    index: i,
                    latency_ns: 1_000_000 + i as u64,
                    converged: true,
                    rejected: false,
                    rrn_over_target: Some(0.5),
                    speed: 0.5,
                    job_ns: Vec::new(),
                    traced: Some(Box::new(TracedOp {
                        summary: OpTrace::default(),
                        counters: Counters::default(),
                        overhead_pair: (1_000_000, 1_000_000 + i as u64),
                    })),
                })
                .collect(),
            ops_per_s: 100.0,
            spans: Vec::new(),
        }
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    /// The workloads and metrics a run knows are exactly the ones
    /// BENCHMARK.json declares, in the same order and with the same
    /// units.
    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = bench::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let units = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("unit").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<String> = WorkloadId::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, names(&doc, "workloads"));
        let (e2e, _) = end_to_end(&[setup(1.0)], &phase(100), 10.0).unwrap();
        assert_eq!(
            e2e.iter().map(|m| m.name.clone()).collect::<Vec<_>>(),
            names(&doc, "end_to_end")
        );
        assert_eq!(
            e2e.iter().map(|m| m.unit.clone()).collect::<Vec<_>>(),
            units("end_to_end")
        );
        let layer = per_layer(&phase(40), 0.0, &TRIAD, false).unwrap();
        assert_eq!(
            layer.iter().map(|m| m.name.clone()).collect::<Vec<_>>(),
            names(&doc, "per_layer")
        );
        assert_eq!(
            layer.iter().map(|m| m.unit.clone()).collect::<Vec<_>>(),
            units("per_layer")
        );
    }

    fn setup(raw: f64) -> Timed {
        Timed { raw, speed: 0.5 }
    }

    #[test]
    fn end_to_end_refuses_p90_below_one_hundred_ops() {
        assert!(end_to_end(&[setup(1.0)], &phase(99), 1.0).is_err());
        let (m, raw) = end_to_end(&[setup(1.0)], &phase(100), 1.0).unwrap();
        assert_eq!(raw[1].value, 1.000049);
        assert_eq!(raw[2].value, 1.000089);
        // At host speed 0.5 every time is reported at half its raw value
        // and the throughput doubles.
        assert_eq!(m[0].value, 0.5);
        assert_eq!(m[1].value, 1.000049 / 2.0);
        assert_eq!((m[3].value, raw[3].value), (200.0, 100.0));
        assert_eq!(raw.last().map(|h| h.value), Some(0.5));
    }

    #[test]
    fn overhead_compares_traced_with_untraced_runs_of_the_same_ops() {
        let m = per_layer(&phase(40), 0.0, &TRIAD, false).unwrap();
        let overhead = m.iter().find(|m| m.name == "trace.overhead_frac").unwrap();
        // Op i took 1 ms untraced and i ns longer traced: the median of
        // the 40 slowdowns lies between ops 19 and 20.
        assert!(
            (overhead.value - 19.5e-6).abs() < 1e-12,
            "{}",
            overhead.value
        );
    }
}
