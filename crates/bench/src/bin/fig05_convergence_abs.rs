//! Figure 5: residual-norm development for atmosmodd under absolute
//! error-bounded compression of the Krylov basis.
//!
//! Series: float64 (uncompressed), float32, float16, frsz2_32, and the
//! Table II absolute-bound codecs zfp_06, zfp_10, sz3_06, sz3_07,
//! sz3_08 (LibPressio-style round-trip storage). The paper's finding to
//! reproduce: frsz2_32 nearly matches float64; none of the prediction/
//! transform codecs match even float32, despite sz3_08 spending ~46
//! bits/value.
//!
//! `--format NAME` replaces the series with a single format (e.g.
//! `--format adaptive`), and `--precond jacobi|block_jacobi` runs the
//! whole figure right-preconditioned: every series shares the same
//! `M⁻¹`, so the comparison stays at equal basis traffic.

use bench::runner::{default_opts, prepare, report_histories, solve_formats, Cli};
use krylov::Preconditioner;

fn main() {
    let mut cli = Cli::parse();
    if cli.max_iters == 20_000 {
        cli.max_iters = 2_000; // figure window; override with --max-iters
    }
    let p = prepare("atmosmodd", &cli);
    let opts = default_opts(&p, &cli);
    let precond = cli.build_precond(&p.matrix);
    println!(
        "=== Fig. 5: atmosmodd (n = {}), target RRN {:.1e}, absolute bounds, precond {} ===",
        p.matrix.rows(),
        opts.target_rrn,
        precond.name()
    );
    let formats = cli.formats(&[
        "float64", "float32", "float16", "frsz2_32", "zfp_06", "zfp_10", "sz3_06", "sz3_07",
        "sz3_08",
    ]);
    let runs = solve_formats(&p, &opts, &formats, &precond);
    report_histories("fig05_convergence_abs", &runs);
}
