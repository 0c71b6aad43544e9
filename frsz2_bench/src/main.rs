//! `frsz2_bench` — the repository benchmark: four CB-GMRES workloads
//! measured end to end, a traced run that splits each op across the
//! crate boundaries, and a `--compare` mode that judges two sets of
//! runs by the bounds in `BENCHMARK.json`. See `BENCHMARK.md`.

mod cli;
mod compare;
mod host;
mod report;
mod run;
mod speed;
mod stats;
mod trace;
mod workload;

use bench::json::{self, Json};
use cli::{Command, RunOptions, Selection};
use report::Metric;
use std::process::{ExitCode, Stdio};
use workload::WorkloadId;

/// Pin glibc's mmap threshold at its 128 KiB default. glibc otherwise
/// raises the threshold to the size of each large block freed, after
/// which Krylov bases come from the heap and freed ones stay resident
/// up to twice that size: how much stayed moved `service_mixed`'s peak
/// RSS between 12 and 15 MB on identical runs. Pinned, every large
/// buffer is returned when freed, so `peak_rss_mb` is the live
/// high-water mark (6.3–6.7 MB there). The setting is the benchmark's
/// own and the same for every commit.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's `int mallopt(int, int)`, declared with
    // matching C types; it is called first thing in `main`, before this
    // process starts any other thread or allocates concurrently.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match command {
        Command::TriadChild { array_bytes } => {
            host::run_triad_child(array_bytes);
            ExitCode::SUCCESS
        }
        Command::Compare { base, new } => match compare::run("BENCHMARK.json", &base, &new) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        Command::Run(opts) => match opts.selection {
            Selection::One(id) => run_one(id, &opts),
            Selection::All => run_all(&opts),
        },
    }
}

fn run_one(id: WorkloadId, opts: &RunOptions) -> ExitCode {
    let args = run::RunArgs {
        workload: id,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
    };
    let result = match run::run(&args) {
        Ok(r) => r,
        Err(run::RunError::Check(f)) => {
            eprintln!("correctness check failed in {}: {f}", id.name());
            return ExitCode::from(1);
        }
        Err(run::RunError::Harness(msg)) => {
            eprintln!("error in {}: {msg}", id.name());
            return ExitCode::from(1);
        }
    };
    let spec = id.spec();
    let record = Json::obj(vec![
        ("workload", Json::Str(spec.name.to_string())),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("seconds", Json::Num(opts.seconds)),
        ("clients", Json::Num(spec.clients as f64)),
        ("pool_threads", Json::Num(spec.pool_threads as f64)),
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", report::metrics_json(&result.metrics)),
        ("raw", report::metrics_json(&result.raw)),
        (
            "latency_ms_p50_by_kind",
            report::metrics_json(&result.latency_by_kind),
        ),
        ("host", result.host),
    ]);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("results/{}.jsonl", spec.name));
    let mut written = report::append_line(&out, &report::compact(&record));
    if let Some(doc) = &result.trace_doc {
        let path = format!("results/trace_{}.json", spec.name);
        written = written.and_then(|()| report::write_file(&path, &report::compact(doc)));
    }
    if let Err(e) = written {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    let kind = if opts.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    report::print_table(
        &format!(
            "{} seed {} ({kind}; {} ops, {} failed)",
            spec.name, opts.seed, result.attempted, result.failed
        ),
        &result.metrics,
    );
    if !result.latency_by_kind.is_empty() {
        report::print_table("latency_ms_p50 by job kind", &result.latency_by_kind);
    }
    println!(
        "{}",
        report::result_line(true, result.attempted, result.failed, &result.metrics)
    );
    ExitCode::SUCCESS
}

/// Every workload in its own child process (so each has its own peak
/// RSS), then one combined result line with `<workload>.<metric>` keys.
fn run_all(opts: &RunOptions) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating the benchmark binary: {e}");
            return ExitCode::from(1);
        }
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for id in WorkloadId::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", id.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if let Some(out) = &opts.out {
            cmd.args(["--out", out]);
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: running {}: {e}", id.name());
                return ExitCode::from(1);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        if !output.status.success() {
            eprintln!("{} failed ({})", id.name(), output.status);
            return ExitCode::from(output.status.code().map_or(1, |c| c as u8));
        }
        let Ok(doc) = json::parse(last) else {
            eprintln!("{} printed no result line", id.name());
            return ExitCode::from(1);
        };
        let count = |key| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as usize;
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Json::Obj(pairs)) = doc.get("metrics") {
            for (name, m) in pairs {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                metrics.push(Metric::new(format!("{}.{name}", id.name()), unit, value, 0));
            }
        }
    }
    println!("{}", report::result_line(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
