//! Calibration sweep: solve every suite matrix with the four standard
//! storage formats and report iterations/targets/timings, so the
//! analogue parameters can be tuned to the paper's qualitative shape.
//! Not one of the paper's figures — a development tool.

use bench::formats::STANDARD_FORMATS;
use bench::report::{fmt_g, print_table};
use bench::runner::{default_opts, prepare, solve_formats, Cli};
use krylov::Identity;

fn main() {
    let cli = Cli::parse();
    let mut rows = Vec::new();
    for name in cli.matrices() {
        let p = prepare(name, &cli);
        let opts = default_opts(&p, &cli);
        for (format, r) in solve_formats(&p, &opts, &cli.formats(&STANDARD_FORMATS), &Identity) {
            rows.push(vec![
                name.to_string(),
                format!("{}", p.matrix.rows()),
                format,
                format!("{}", r.stats.iterations),
                if r.stats.converged { "yes" } else { "NO" }.to_string(),
                fmt_g(r.stats.final_rrn),
                fmt_g(p.target_rrn),
                format!("{:.2}s", r.stats.wall_time.as_secs_f64()),
            ]);
        }
    }
    print_table(
        &[
            "matrix",
            "n",
            "format",
            "iters",
            "conv",
            "final_rrn",
            "target",
            "time",
        ],
        &rows,
    );
}
