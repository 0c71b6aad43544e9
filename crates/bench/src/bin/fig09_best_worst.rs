//! Figure 9: residual-norm development for the best- and worst-behaved
//! matrices for FRSZ2: atmosmodm (9a) and PR02R (9b).
//!
//! Reproduction targets: on atmosmodm, every compressed format shows a
//! residual *correction jump* at the first restart (iteration 100) —
//! the implicit Givens estimate is replaced by the explicitly
//! recomputed residual — and frsz2_32 recovers fastest, ordered by
//! significand bits. On PR02R, frsz2_32 departs from float64/float32
//! and stagnates for a long stretch (the within-block exponent-spread
//! flushing of §VI-A), while float16 never gets anywhere near.

//! `--format NAME` replaces the series with a single format (e.g.
//! `--format adaptive` to watch the escalation driver on PR02R), and
//! `--precond jacobi|block_jacobi` right-preconditions both panels
//! with a per-matrix `M⁻¹` shared across the series, keeping the
//! comparison at equal basis traffic.

use bench::runner::{default_opts, prepare, report_histories, solve_formats, Cli};
use krylov::Preconditioner;

fn main() {
    let mut cli = Cli::parse();
    if cli.max_iters == 20_000 {
        cli.max_iters = 6_000;
    }
    let formats = cli.formats(&["float64", "float32", "float16", "frsz2_32"]);

    let pa = prepare("atmosmodm", &cli);
    let precond_a = cli.build_precond(&pa.matrix);
    println!(
        "=== Fig. 9a: atmosmodm (FRSZ2 best case), precond {} ===",
        precond_a.name()
    );
    let opts_a = default_opts(&pa, &cli);
    let runs_a = solve_formats(&pa, &opts_a, &formats, &precond_a);
    report_histories("fig09a_atmosmodm", &runs_a);

    // Quantify the restart correction (the Fig. 9a jump).
    for (name, r) in &runs_a {
        let mut jump: f64 = 0.0;
        for w in r.history.windows(2) {
            if w[1].explicit && !w[0].explicit && w[0].rrn > 0.0 {
                jump = jump.max(w[1].rrn / w[0].rrn);
            }
        }
        println!("  {name}: largest explicit/implicit restart correction = {jump:.2}x");
    }

    let pb = prepare("PR02R", &cli);
    let precond_b = cli.build_precond(&pb.matrix);
    println!(
        "\n=== Fig. 9b: PR02R (FRSZ2 worst case), precond {} ===",
        precond_b.name()
    );
    let opts_b = default_opts(&pb, &cli);
    let runs_b = solve_formats(&pb, &opts_b, &formats, &precond_b);
    report_histories("fig09b_pr02r", &runs_b);
}
