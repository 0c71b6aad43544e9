//! Figure 8: iterations to the target, relative to float64 (0 when the
//! target is never reached), for every suite matrix.
//!
//! Reproduction targets: the atmosmod family orders
//! float64 < frsz2_32 < float32 < float16; PR02R shows frsz2_32 at
//! ~3.5x float64; float16 scores 0 on PR02R and StocF-1465; everything
//! else barely differs.

use bench::formats::STANDARD_FORMATS;
use bench::report::{print_table, write_csv};
use bench::runner::{default_opts, prepare, solve_formats, Cli};
use krylov::Identity;

fn main() {
    let mut cli = Cli::parse();
    if cli.max_iters == 20_000 {
        cli.max_iters = 6_000;
    }
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for name in cli.matrices() {
        let p = prepare(name, &cli);
        let opts = default_opts(&p, &cli);
        // float64, the first standard format, is the reference.
        let runs = solve_formats(&p, &opts, &STANDARD_FORMATS, &Identity);
        let base = runs[0].1.stats.iterations as f64;
        let mut row = vec![name.to_string()];
        for (fmt, r) in runs {
            let (converged, iters) = (r.stats.converged, r.stats.iterations);
            // Paper convention: 0 when the target is not reached.
            let rel = if converged { iters as f64 / base } else { 0.0 };
            row.push(format!("{rel:.2}"));
            csv.push(vec![
                name.to_string(),
                fmt,
                format!("{rel}"),
                iters.to_string(),
                converged.to_string(),
            ]);
        }
        rows.push(row);
    }
    println!("\n=== Fig. 8: iterations relative to float64 (0 = target not reached) ===");
    print_table(
        &["matrix", "float64", "float32", "float16", "frsz2_32"],
        &rows,
    );
    let path = write_csv(
        "fig08_iterations",
        &[
            "matrix",
            "format",
            "relative_iterations",
            "iterations",
            "converged",
        ],
        &csv,
    )
    .expect("write csv");
    println!("(csv: {path})");
}
