//! Shared experiment plumbing: CLI options, problem setup, solve loops.

use crate::formats;
use krylov::{basis_format, GmresOptions, Preconditioner, SolveResult};
use spla::dense::manufactured_rhs;
use spla::suite::{self, SuiteMatrix};
use spla::Csr;

/// Common command-line options of the experiment binaries.
///
/// `--scale S` linear-dimension scale of the synthetic analogues
/// (default 1.0), `--runs N` repetitions for timing figures, `--matrix
/// NAME` restrict to one matrix, `--format NAME` replace the figure's
/// format series with one format (a `krylov::basis_format` registry name
/// or an adaptive preset, see [`formats`]), `--mtx PATH` load a real
/// MatrixMarket file instead of the analogue, `--max-iters N` iteration
/// cap, `--precond NAME` right preconditioner
/// (`none`/`jacobi`/`block_jacobi`; figures 5 and 9).
#[derive(Clone, Debug)]
pub struct Cli {
    pub scale: f64,
    pub runs: usize,
    pub matrix: Option<String>,
    pub format: Option<String>,
    pub mtx: Option<String>,
    pub max_iters: usize,
    /// Override the stopping target (probe/calibration use).
    pub target: Option<f64>,
    pub precond: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: 1.0,
            runs: 3,
            matrix: None,
            format: None,
            mtx: None,
            max_iters: 20_000,
            target: None,
            precond: None,
        }
    }
}

/// A command line the figure binaries cannot run.
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// A numeric flag whose value does not parse.
    BadValue { flag: &'static str, value: String },
    /// `--matrix` names no suite matrix.
    UnknownMatrix(String),
    /// `--format` names neither a registered basis format nor an
    /// adaptive preset.
    UnknownFormat(String),
    /// `--precond` names no preconditioner.
    UnknownPrecond(String),
    /// `--mtx` names a file that cannot be read as a MatrixMarket
    /// matrix.
    BadMtx { path: String, error: String },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::BadValue { flag, value } => write!(f, "bad value {value:?} for {flag}"),
            CliError::UnknownMatrix(name) => write!(
                f,
                "unknown matrix {name:?}; the suite has {}",
                suite::names().join(", ")
            ),
            CliError::UnknownFormat(name) => write!(
                f,
                "unknown format {name:?}; expected one of {}, frsz2_<l> with 2 <= l <= 64, {}",
                basis_format::names().join(", "),
                formats::preset_names().collect::<Vec<_>>().join(", ")
            ),
            CliError::UnknownPrecond(name) => write!(
                f,
                "unknown preconditioner {name:?}; expected one of {}",
                formats::precond_names().collect::<Vec<_>>().join(", ")
            ),
            CliError::BadMtx { path, error } => write!(f, "cannot read --mtx {path:?}: {error}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Print a command-line error and exit 2: how every figure binary
/// refuses a run it cannot do.
fn refuse(e: CliError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

fn number<T: std::str::FromStr>(flag: &'static str, value: String) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::BadValue { flag, value })
}

impl Cli {
    /// Parse `std::env::args`, ignoring unknown flags (each binary may
    /// add its own). A bad command line prints the error and exits 2.
    pub fn parse() -> Cli {
        Cli::parse_from(std::env::args().skip(1).collect()).unwrap_or_else(|e| refuse(e))
    }

    /// Parse an explicit argument list (testable).
    pub fn parse_from(args: Vec<String>) -> Result<Cli, CliError> {
        let mut cli = Cli::default();
        let mut i = 0;
        while i < args.len() {
            let next = args.get(i + 1).cloned();
            let mut took = true;
            match (args[i].as_str(), next) {
                ("--scale", Some(v)) => cli.scale = number("--scale", v)?,
                ("--runs", Some(v)) => cli.runs = number("--runs", v)?,
                ("--matrix", Some(v)) if !suite::names().contains(&v.as_str()) => {
                    return Err(CliError::UnknownMatrix(v))
                }
                ("--matrix", Some(v)) => cli.matrix = Some(v),
                ("--format", Some(v)) if !formats::is_known(&v) => {
                    return Err(CliError::UnknownFormat(v))
                }
                ("--format", Some(v)) => cli.format = Some(v),
                ("--mtx", Some(v)) => cli.mtx = Some(v),
                ("--max-iters", Some(v)) => cli.max_iters = number("--max-iters", v)?,
                ("--target", Some(v)) => cli.target = Some(number("--target", v)?),
                ("--precond", Some(v)) if !formats::precond_names().any(|n| n == v) => {
                    return Err(CliError::UnknownPrecond(v))
                }
                ("--precond", Some(v)) => cli.precond = Some(v),
                _ => took = false,
            }
            i += if took { 2 } else { 1 };
        }
        Ok(cli)
    }

    /// Matrices selected by this invocation.
    pub fn matrices(&self) -> Vec<&str> {
        match &self.matrix {
            Some(m) => vec![m],
            None => suite::names(),
        }
    }

    /// Formats selected: `--format NAME` overrides the figure's
    /// default series (so e.g. `--format adaptive` runs the adaptive
    /// driver alone against the chosen preconditioner).
    pub fn formats<'a>(&'a self, default: &[&'a str]) -> Vec<&'a str> {
        match &self.format {
            Some(f) => vec![f.as_str()],
            None => default.to_vec(),
        }
    }

    /// Build the `--precond` preconditioner for `matrix` (identity
    /// when the flag is absent).
    pub fn build_precond(&self, matrix: &Csr) -> Box<dyn Preconditioner> {
        let name = self.precond.as_deref().unwrap_or("none");
        formats::build_precond(name, matrix)
            .expect("`parse_from` admits only known preconditioners")
    }
}

/// A fully-prepared problem: operator, RHS, expected solution, target.
pub struct Problem {
    pub name: String,
    pub matrix: Csr,
    pub b: Vec<f64>,
    pub x_expected: Vec<f64>,
    pub target_rrn: f64,
}

/// Read a MatrixMarket file; an unreadable or malformed one is a
/// [`CliError::BadMtx`].
pub fn load_mtx(path: &str) -> Result<Csr, CliError> {
    std::fs::File::open(path)
        .and_then(|file| spla::io::read_matrix_market(std::io::BufReader::new(file)))
        .map(|coo| coo.to_csr())
        .map_err(|e| CliError::BadMtx {
            path: path.to_string(),
            error: e.to_string(),
        })
}

/// Build a suite problem (or load `--mtx`) with the §V-B deterministic
/// right-hand side. A `--mtx` file that cannot be read is refused like
/// a bad flag: the error is printed and the process exits 2.
pub fn prepare(name: &str, cli: &Cli) -> Problem {
    let (matrix, target_rrn) = match &cli.mtx {
        Some(path) => {
            let t = suite::entry(name).map(|e| e.target_rrn).unwrap_or(1e-10);
            (load_mtx(path).unwrap_or_else(|e| refuse(e)), t)
        }
        None => {
            let SuiteMatrix { entry, matrix } =
                suite::build(name, cli.scale).unwrap_or_else(|| panic!("unknown matrix {name}"));
            // Synthetic analogues use the §V-C-calibrated analogue target;
            // real .mtx inputs use the paper's Table I value.
            let t = suite::analogue_target(name).unwrap_or(entry.target_rrn);
            (matrix, t)
        }
    };
    let (x_expected, b) = manufactured_rhs(&matrix);
    Problem {
        name: name.to_string(),
        matrix,
        b,
        x_expected,
        target_rrn,
    }
}

/// Default solver options for a problem (restart 100, §V-B).
pub fn default_opts(p: &Problem, cli: &Cli) -> GmresOptions {
    GmresOptions {
        restart: 100,
        max_iters: cli.max_iters,
        target_rrn: cli.target.unwrap_or(p.target_rrn),
        record_history: true,
        ..GmresOptions::default()
    }
}

/// Solve `p` once per named format, every format against the same
/// `precond` — so the series differ only in basis storage, the
/// equal-traffic comparison `--precond` asks for — and print a progress
/// line per solve.
pub fn solve_formats(
    p: &Problem,
    opts: &GmresOptions,
    format_names: &[&str],
    precond: &impl Preconditioner,
) -> Vec<(String, SolveResult)> {
    let x0 = vec![0.0; p.matrix.rows()];
    format_names
        .iter()
        .map(|&name| {
            let r = formats::solve(&p.matrix, &p.b, &x0, opts, name, precond)
                .unwrap_or_else(|| panic!("unknown format {name}"));
            eprintln!(
                "  {} {name}: iters={} converged={} final_rrn={:.2e} bits/value={:.1}",
                p.name,
                r.stats.iterations,
                r.stats.converged,
                r.stats.final_rrn,
                r.stats.basis_bits_per_value,
            );
            (name.to_string(), r)
        })
        .collect()
}

/// Emit residual histories in long CSV form and print the run summary.
///
/// Histories may be empty (`record_history: false`): all per-history
/// columns go through the guarded [`krylov::history_summary`] — this
/// path must never index or `unwrap()` a history point.
pub fn report_histories(csv_name: &str, runs: &[(String, SolveResult)]) {
    let mut rows = Vec::new();
    for (name, r) in runs {
        for h in &r.history {
            rows.push(vec![
                name.clone(),
                h.iteration.to_string(),
                format!("{:.6e}", h.rrn),
                if h.explicit { "explicit" } else { "implicit" }.to_string(),
            ]);
        }
    }
    let path = crate::report::write_csv(csv_name, &["format", "iteration", "rrn", "kind"], &rows)
        .expect("write csv");
    let summary: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, r)| {
            let h = krylov::history_summary(&r.history);
            vec![
                name.clone(),
                r.stats.iterations.to_string(),
                if r.stats.converged { "yes" } else { "NO" }.to_string(),
                format!("{:.2e}", r.stats.final_rrn),
                format!("{:.1}", r.stats.basis_bits_per_value),
                h.implicit_explicit_gap
                    .map_or_else(|| "-".to_string(), |g| format!("{g:.2}")),
            ]
        })
        .collect();
    crate::report::print_table(
        &[
            "format",
            "iterations",
            "converged",
            "final_rrn",
            "bits/value",
            "restart_gap",
        ],
        &summary,
    );
    println!("(history csv: {path})");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_builds_all_suite_matrices() {
        let cli = Cli {
            scale: 0.2,
            ..Cli::default()
        };
        for name in cli.matrices() {
            let p = prepare(name, &cli);
            assert_eq!(p.b.len(), p.matrix.rows(), "{name}");
            assert!(p.target_rrn > 0.0);
        }
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_parses_every_flag() {
        let cli = Cli::parse_from(args(
            "--scale 0.5 --runs 2 --matrix cfd2 --format frsz2_21 --max-iters 40 \
             --target 1e-6 --precond jacobi --unknown-flag",
        ))
        .unwrap();
        assert_eq!(cli.scale, 0.5);
        assert_eq!(cli.runs, 2);
        assert_eq!(cli.matrices(), vec!["cfd2"]);
        assert_eq!(cli.format.as_deref(), Some("frsz2_21"));
        assert_eq!(cli.max_iters, 40);
        assert_eq!(cli.target, Some(1e-6));
        assert_eq!(cli.precond.as_deref(), Some("jacobi"));
    }

    #[test]
    fn cli_rejects_bad_numbers() {
        for flag in ["--scale", "--runs", "--max-iters", "--target"] {
            let err = Cli::parse_from(args(&format!("{flag} many"))).unwrap_err();
            assert_eq!(err.to_string(), format!("bad value \"many\" for {flag}"));
        }
        assert!(Cli::parse_from(args("--runs -1")).is_err());
    }

    #[test]
    fn cli_rejects_an_unknown_matrix_and_lists_the_suite() {
        let err = Cli::parse_from(args("--matrix nope")).unwrap_err();
        assert_eq!(err, CliError::UnknownMatrix("nope".into()));
        assert!(suite::names().iter().all(|n| err.to_string().contains(n)));
    }

    #[test]
    fn cli_rejects_an_unknown_format_and_lists_the_accepted_names() {
        let err = Cli::parse_from(args("--format nope")).unwrap_err();
        assert_eq!(err, CliError::UnknownFormat("nope".into()));
        let msg = err.to_string();
        for name in basis_format::names() {
            assert!(msg.contains(&name), "{name} missing from {msg}");
        }
        assert!(msg.contains("frsz2_<l>") && msg.ends_with("adaptive, adaptive_bidir"));
        for bad in ["frsz2_99", "frsz2_ab2", "Float64"] {
            let err = Cli::parse_from(args(&format!("--format {bad}"))).unwrap_err();
            assert_eq!(err, CliError::UnknownFormat(bad.into()));
        }
        for good in ["f64", "frsz2_16", "frsz2_ab", "sz3_08", "adaptive_bidir"] {
            let cli = Cli::parse_from(args(&format!("--format {good}"))).unwrap();
            assert_eq!(cli.formats(&[]), vec![good]);
        }
    }

    #[test]
    fn cli_rejects_an_unknown_preconditioner() {
        let msg = Cli::parse_from(args("--precond ilu"))
            .unwrap_err()
            .to_string();
        assert!(msg.ends_with("none, identity, jacobi, block_jacobi"));
    }

    #[test]
    fn an_unreadable_or_malformed_mtx_is_a_typed_error() {
        let missing = "results/no_such_matrix.mtx";
        let err = load_mtx(missing).unwrap_err();
        assert!(matches!(&err, CliError::BadMtx { path, .. } if path == missing));
        // A header promising 10^14 entries must fail on the count, not
        // abort on an allocation sized from it.
        std::fs::create_dir_all("results").unwrap();
        let path = "results/test_huge_header.mtx";
        std::fs::write(
            path,
            "%%MatrixMarket matrix coordinate real general\n3 3 100000000000000\n1 1 1.0\n",
        )
        .unwrap();
        let msg = load_mtx(path).unwrap_err().to_string();
        let _ = std::fs::remove_file(path);
        assert!(
            msg.ends_with("expected 100000000000000 entries, found 1"),
            "{msg}"
        );
    }

    #[test]
    fn report_histories_tolerates_disabled_history() {
        // Regression: `record_history: false` produces empty histories;
        // the whole report path (CSV + summary table with the guarded
        // restart-gap column) must not panic on them.
        let cli = Cli {
            scale: 0.15,
            ..Cli::default()
        };
        let p = prepare("atmosmodd", &cli);
        let opts = GmresOptions {
            record_history: false,
            target_rrn: 1e-6,
            max_iters: 300,
            ..GmresOptions::default()
        };
        let runs = solve_formats(&p, &opts, &["frsz2_32"], &krylov::Identity);
        assert!(runs[0].1.history.is_empty());
        report_histories("test_empty_history", &runs);
        let _ = std::fs::remove_file("results/test_empty_history.csv");
    }
}
