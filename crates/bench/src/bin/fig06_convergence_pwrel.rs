//! Figure 6: residual-norm development for atmosmodd under point-wise
//! relative and fixed-rate compression of the Krylov basis.
//!
//! Series: float64/float32/float16/frsz2_32 plus sz_pwrel_04,
//! sz3_pwrel_04, zfp_fr_16, zfp_fr_32. Reproduction targets: pointwise
//! relative bounds converge better than absolute ones (magnitudes are
//! preserved, §VI-A), fixed-rate ZFP is the best of the external
//! codecs, and frsz2_32 still has the best convergence of all tested
//! compressors.

use bench::runner::{default_opts, prepare, report_histories, solve_formats, Cli};
use krylov::Identity;

fn main() {
    let mut cli = Cli::parse();
    if cli.max_iters == 20_000 {
        cli.max_iters = 2_000;
    }
    let p = prepare("atmosmodd", &cli);
    let opts = default_opts(&p, &cli);
    println!(
        "=== Fig. 6: atmosmodd (n = {}), target RRN {:.1e}, pointwise-relative bounds ===",
        p.matrix.rows(),
        opts.target_rrn
    );
    let formats = [
        "float64",
        "float32",
        "float16",
        "frsz2_32",
        "sz_pwrel_04",
        "sz3_pwrel_04",
        "zfp_fr_16",
        "zfp_fr_32",
    ];
    let runs = solve_formats(&p, &opts, &formats, &Identity);
    report_histories("fig06_convergence_pwrel", &runs);
}
