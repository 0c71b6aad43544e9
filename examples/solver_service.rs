//! The solver-as-a-service walkthrough: register operators once, run
//! mixed-format jobs concurrently with streaming telemetry, verify
//! bit-identity against sequential runs, watch admission control
//! reject an over-budget job with a typed error, and survive failures
//! — a missed deadline resumed bit-identically from its checkpoint and
//! a stagnating format rescued by retry-with-escalation.
//!
//! Run with: `cargo run --release --example solver_service`
//!
//! Pass `--quiet` to drop the wall-clock lines — every remaining line
//! is deterministic (bit-identical at any thread count), so runs diff
//! cleanly.

use frsz2_repro::solver_service::{
    estimated_basis_bytes, AdmissionPolicy, BasisSelection, FaultSpec, JobSpec, PrecondSpec,
    RetryPolicy, ServiceConfig, ServiceError, SolveCheckpoint, SolverService,
};
use frsz2_repro::spla::dense::manufactured_rhs;
use frsz2_repro::spla::gen;
use std::time::{Duration, Instant};

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");

    // ------------------------------------------------------------------
    // 1. Register operators once. Registration caches the CSR matrix
    //    and its factorized preconditioner.
    // ------------------------------------------------------------------
    let service = SolverService::with_defaults();
    let smooth = gen::conv_diff_3d(12, 12, 12, [0.3, 0.2, 0.1], 0.3);
    let wide = gen::wide_range_conv_diff(7, 7, 7, 24, 0x5202);
    let (_, b_smooth) = manufactured_rhs(&smooth);
    let (_, b_wide) = manufactured_rhs(&wide);

    println!("== registered operators ==");
    for (name, a, precond) in [
        ("smooth", &smooth, PrecondSpec::Jacobi),
        ("wide", &wide, PrecondSpec::None),
    ] {
        let info = service.register_csr(name, a, precond).expect("register");
        println!(
            "{:<8} {:>6} rows {:>7} nnz {:>8} bytes  precond={:<8} \
             recommended basis: {}",
            info.name,
            info.rows,
            info.nnz,
            info.storage_bytes,
            info.preconditioner,
            info.recommended_basis,
        );
    }

    // ------------------------------------------------------------------
    // 2. A mixed batch: fixed rungs, the per-block adaptive store, the
    //    auto pick, and the escalating adaptive driver.
    // ------------------------------------------------------------------
    let job = |op: &str, b: &[f64], basis: BasisSelection, target: f64, threads: usize| {
        let mut spec = JobSpec::new(op, b.to_vec());
        spec.basis = basis;
        spec.opts.target_rrn = target;
        spec.threads = threads;
        if op == "wide" {
            spec.opts.restart = 30;
            spec.opts.max_iters = 1200;
        }
        spec
    };
    let fixed = |name: &str| BasisSelection::Fixed(name.into());
    let batch = vec![
        job("smooth", &b_smooth, fixed("frsz2_21"), 1e-3, 2),
        job("smooth", &b_smooth, fixed("float64"), 1e-10, 2),
        job("smooth", &b_smooth, fixed("frsz2_ab"), 1e-6, 2),
        job("smooth", &b_smooth, BasisSelection::Auto, 1e-3, 2),
        job("wide", &b_wide, BasisSelection::Adaptive, 1e-10, 2),
    ];

    // Sequential single-threaded reference first.
    let t = Instant::now();
    let reference: Vec<_> = batch
        .iter()
        .map(|spec| {
            let mut spec = spec.clone();
            spec.threads = 1;
            service.solve_report(&spec).expect("reference solve").result
        })
        .collect();
    let sequential_s = t.elapsed().as_secs_f64();

    // Concurrent batch with per-cycle telemetry through a channel.
    let (tx, rx) = std::sync::mpsc::channel();
    let t = Instant::now();
    let results = service.run_batch(&batch, move |job, e| {
        let _ = tx.send((job, e.clone()));
    });
    let concurrent_s = t.elapsed().as_secs_f64();
    let events: Vec<_> = rx.try_iter().collect();

    println!("\n== concurrent batch ({} jobs) ==", batch.len());
    for (i, (spec, result)) in batch.iter().zip(&results).enumerate() {
        let r = result.as_ref().expect("batch solve");
        let trajectory = r.stats.format_trajectory.join(" → ");
        println!(
            "job {i} on {:<7} {:<28} {:>5} iters  rrn {:.2e}  [{}]",
            spec.operator,
            format!("({:?})", spec.basis),
            r.stats.iterations,
            r.stats.final_rrn,
            trajectory,
        );
    }
    println!(
        "telemetry: {} cycle events streamed while jobs ran (cycle, residual, format, \
         basis traffic)",
        events.len()
    );

    // ------------------------------------------------------------------
    // 3. The headline guarantee: concurrent results are bit-identical
    //    to the sequential single-threaded reference.
    // ------------------------------------------------------------------
    let mut identical = true;
    for (r, c) in reference.iter().zip(&results) {
        let c = c.as_ref().unwrap();
        identical &= r.x.len() == c.x.len()
            && r.x
                .iter()
                .zip(&c.x)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && r.stats.format_trajectory == c.stats.format_trajectory;
    }
    assert!(identical, "concurrent batch diverged from sequential runs");
    println!("bit-identity: concurrent == sequential-1-thread for every job ✓");
    if !quiet {
        println!("wall: sequential {sequential_s:.2} s, concurrent {concurrent_s:.2} s");
    }

    // ------------------------------------------------------------------
    // 4. Admission control: a budget below the float64 job's basis
    //    reservation rejects it with a typed error — never a panic,
    //    never an OOM.
    // ------------------------------------------------------------------
    let f64_cost = estimated_basis_bytes(
        frsz2_repro::krylov::basis_format::by_name("float64")
            .expect("float64")
            .as_ref(),
        smooth.rows(),
        frsz2_repro::krylov::GmresOptions::default().restart,
        1,
        1,
    );
    let budgeted = SolverService::new(ServiceConfig {
        basis_budget_bytes: Some(f64_cost - 1),
        admission: AdmissionPolicy::Reject,
    });
    budgeted
        .register_csr("smooth", &smooth, PrecondSpec::Jacobi)
        .expect("register");
    println!("\n== admission control (budget {} bytes) ==", f64_cost - 1);
    match budgeted.solve_report(&job("smooth", &b_smooth, fixed("float64"), 1e-10, 1)) {
        Err(e @ ServiceError::BudgetExceeded { .. }) => println!("float64 job rejected: {e}"),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    let r = budgeted
        .solve_report(&job("smooth", &b_smooth, fixed("frsz2_21"), 1e-3, 1))
        .expect("compressed job fits")
        .result;
    println!(
        "frsz2_21 job admitted under the same budget and converged ({} iters, rrn {:.2e})",
        r.stats.iterations, r.stats.final_rrn
    );

    // ------------------------------------------------------------------
    // 5. Surviving failures.
    //
    //    (a) Deadline → checkpoint → resume: a zero deadline (made
    //        deterministic by a per-boundary sleep fault) halts the job
    //        at its first restart boundary. The typed error carries the
    //        boundary's checkpoint; serialize it, decode it, and resume
    //        — the resumed solve is bit-identical to an uninterrupted
    //        one.
    // ------------------------------------------------------------------
    println!("\n== surviving failures ==");
    let mut plain = job("smooth", &b_smooth, fixed("frsz2_21"), 1e-8, 1);
    plain.opts.restart = 10; // several boundaries on this easy operator
    let uninterrupted = service
        .solve_report(&plain)
        .expect("reference solve")
        .result;
    let mut rushed = plain.clone();
    rushed.deadline = Some(Duration::ZERO);
    rushed.fault = Some(FaultSpec {
        sleep_per_boundary_ms: 1,
        ..FaultSpec::default()
    });
    let checkpoint = match service.solve_report(&rushed) {
        Err(ServiceError::DeadlineExceeded { checkpoint, .. }) => checkpoint,
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    };
    let bytes = checkpoint.encode();
    println!(
        "deadline hit at restart boundary {} (rrn {:.2e}); checkpoint = {} bytes",
        checkpoint.stats.restarts,
        checkpoint.stats.final_rrn,
        bytes.len(),
    );
    let mut resumed_spec = plain.clone();
    resumed_spec.resume = Some(Box::new(
        SolveCheckpoint::decode(&bytes).expect("decode checkpoint"),
    ));
    let resumed = service
        .solve_report(&resumed_spec)
        .expect("resumed solve")
        .result;
    assert!(
        resumed.x.len() == uninterrupted.x.len()
            && resumed
                .x
                .iter()
                .zip(&uninterrupted.x)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && resumed.stats.iterations == uninterrupted.stats.iterations,
        "resume diverged from the uninterrupted solve"
    );
    println!(
        "resumed from the checkpoint: {} iters, rrn {:.2e} — bit-identical to the \
         uninterrupted solve ✓",
        resumed.stats.iterations, resumed.stats.final_rrn
    );

    // ------------------------------------------------------------------
    //    (b) Retry with escalation: frsz2_16's accuracy floor cannot
    //        reach 1e-10 on the wide-range operator. A retry policy
    //        escalates the basis one ladder rung per attempt until the
    //        explicit residual actually meets the target.
    // ------------------------------------------------------------------
    let mut stubborn = job("wide", &b_wide, fixed("frsz2_16"), 1e-10, 1);
    stubborn.opts.max_iters = 600;
    stubborn.retry = Some(RetryPolicy::quick(3));
    let report = service.solve_report(&stubborn).expect("retried job");
    assert!(report.result.stats.converged, "escalation must recover");
    println!(
        "frsz2_16 @ 1e-10 on `wide`: {} attempts ({}) → converged, rrn {:.2e} ✓",
        report.attempts,
        report.formats_tried.join(" → "),
        report.result.stats.final_rrn,
    );
}
