//! Command-line parsing into checked values, with typed errors.

use crate::workload::WorkloadId;
use std::fmt;

pub const USAGE: &str = "\
usage:
  frsz2_bench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  frsz2_bench --compare BASE.jsonl NEW.jsonl   (bounds from ./BENCHMARK.json)";

/// Which workloads a run covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selection {
    One(WorkloadId),
    /// Every workload, each in its own child process.
    All,
}

#[derive(Clone, Debug, PartialEq)]
pub struct RunOptions {
    pub selection: Selection,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// JSON-lines file the run record is appended to (default
    /// `results/<workload>.jsonl`).
    pub out: Option<String>,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Run(RunOptions),
    Compare {
        base: String,
        new: String,
    },
    /// Internal: the triad measurement, run as a child process.
    TriadChild {
        array_bytes: u64,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    UnknownFlag(String),
    MissingValue(&'static str),
    BadValue {
        flag: &'static str,
        value: String,
        expected: &'static str,
    },
    UnknownWorkload(String),
    NoCommand,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value {value:?} for {flag}: expected {expected}"),
            CliError::UnknownWorkload(name) => {
                let valid: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                write!(
                    f,
                    "unknown workload {name:?}; valid workloads: {}, all",
                    valid.join(", ")
                )
            }
            CliError::NoCommand => write!(f, "nothing to do: give --workload or --compare"),
        }
    }
}

fn value<'a>(
    args: &mut impl Iterator<Item = &'a String>,
    flag: &'static str,
) -> Result<&'a String, CliError> {
    args.next().ok_or(CliError::MissingValue(flag))
}

fn parsed<T: std::str::FromStr>(
    raw: &str,
    flag: &'static str,
    expected: &'static str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    raw.parse::<T>()
        .ok()
        .filter(valid)
        .ok_or_else(|| CliError::BadValue {
            flag,
            value: raw.to_string(),
            expected,
        })
}

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut selection = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out = None;
    let mut compare: Option<(String, String)> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, "--workload")?;
                selection = Some(match name.as_str() {
                    "all" => Selection::All,
                    _ => Selection::One(
                        WorkloadId::parse(name)
                            .ok_or_else(|| CliError::UnknownWorkload(name.clone()))?,
                    ),
                });
            }
            "--seed" => {
                seed = parsed(
                    value(&mut it, "--seed")?,
                    "--seed",
                    "an unsigned integer",
                    |_| true,
                )?;
            }
            "--seconds" => {
                seconds = parsed(
                    value(&mut it, "--seconds")?,
                    "--seconds",
                    "a positive number of seconds",
                    |s: &f64| s.is_finite() && *s > 0.0,
                )?;
            }
            "--trace" => {
                trace = match value(&mut it, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(CliError::BadValue {
                            flag: "--trace",
                            value: other.to_string(),
                            expected: "0 or 1",
                        })
                    }
                };
            }
            "--out" => out = Some(value(&mut it, "--out")?.clone()),
            "--compare" => {
                let base = value(&mut it, "--compare")?.clone();
                let new = value(&mut it, "--compare")?.clone();
                compare = Some((base, new));
            }
            "--triad-child" => {
                let array_bytes = parsed(
                    value(&mut it, "--triad-child")?,
                    "--triad-child",
                    "a positive byte count",
                    |b: &u64| *b >= 8,
                )?;
                return Ok(Command::TriadChild { array_bytes });
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    if let Some((base, new)) = compare {
        return Ok(Command::Compare { base, new });
    }
    let selection = selection.ok_or(CliError::NoCommand)?;
    Ok(Command::Run(RunOptions {
        selection,
        seed,
        seconds,
        trace,
        out,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let cmd = parse(&args(
            "--workload sstep4_dyn --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunOptions {
                selection: Selection::One(WorkloadId::Sstep4Dyn),
                seed: 7,
                seconds: 20.0,
                trace: true,
                out: None,
            })
        );
        assert!(matches!(
            parse(&args("--workload all")),
            Ok(Command::Run(RunOptions {
                selection: Selection::All,
                ..
            }))
        ));
    }

    #[test]
    fn unknown_workload_lists_the_valid_names() {
        let err = parse(&args("--workload paper")).unwrap_err();
        assert_eq!(err, CliError::UnknownWorkload("paper".into()));
        let msg = err.to_string();
        for w in WorkloadId::ALL {
            assert!(msg.contains(w.name()), "{msg}");
        }
    }

    #[test]
    fn malformed_values_are_typed_errors() {
        assert!(matches!(
            parse(&args("--workload operator_f64 --seed -3")),
            Err(CliError::BadValue { flag: "--seed", .. })
        ));
        assert!(matches!(
            parse(&args("--workload operator_f64 --seconds 0")),
            Err(CliError::BadValue {
                flag: "--seconds",
                ..
            })
        ));
        assert!(matches!(
            parse(&args("--workload operator_f64 --trace yes")),
            Err(CliError::BadValue {
                flag: "--trace",
                ..
            })
        ));
        assert_eq!(
            parse(&args("--workload")),
            Err(CliError::MissingValue("--workload"))
        );
        assert_eq!(
            parse(&args("--matrix PR02R")),
            Err(CliError::UnknownFlag("--matrix".into()))
        );
        assert_eq!(parse(&[]), Err(CliError::NoCommand));
    }
}
