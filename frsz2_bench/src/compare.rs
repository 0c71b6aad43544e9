//! `--compare BASE NEW`: judge two sets of runs by `BENCHMARK.json`.
//!
//! Each file is JSON lines, one run record per line, as every run
//! appends them. For each workload × metric the two medians are
//! compared against the metric's bound:
//!
//! * end-to-end metrics are *regressed*, *unchanged* or *improved* by
//!   the bound, and *unresolved* when either side has fewer than
//!   [`MIN_RUNS`] runs, or when either side's run-to-run spread
//!   (interquartile range over median) exceeds the bound — unless every
//!   new run beats every base run;
//! * per-layer `count` metrics must match exactly (*unchanged* or
//!   *changed*);
//! * other per-layer metrics have no bound and are listed as *info*.

use crate::stats;
use bench::json::{self, Json};

/// Runs each side needs before an end-to-end metric is judged: fewer
/// cannot show a spread, nor that one side wins nine pairs in ten.
pub const MIN_RUNS: usize = 10;

/// Hard limits that hold whatever the base measured.
const ABSOLUTE_LIMITS: [(&str, f64); 1] = [("rrn_over_target_max", 1.0)];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Regressed,
    Unchanged,
    Improved,
    Unresolved,
    Changed,
    Info,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Regressed => "regressed",
            Class::Unchanged => "unchanged",
            Class::Improved => "improved",
            Class::Unresolved => "unresolved",
            Class::Changed => "changed",
            Class::Info => "info",
        }
    }
}

/// How a metric is judged.
#[derive(Clone, Copy, Debug)]
pub enum Rule {
    Bounded { lower_is_better: bool, bound: f64 },
    ExactCount,
    Unbounded,
}

/// Classify one workload × metric pair from each side's run values.
pub fn classify(base: &[f64], new: &[f64], rule: Rule) -> Class {
    if base.is_empty() || new.is_empty() {
        return Class::Unresolved;
    }
    let (lower_is_better, bound) = match rule {
        Rule::Unbounded => return Class::Info,
        Rule::ExactCount => {
            let first = base[0];
            return if base.iter().chain(new).all(|&v| v == first) {
                Class::Unchanged
            } else {
                Class::Changed
            };
        }
        Rule::Bounded { .. } if base.len() < MIN_RUNS || new.len() < MIN_RUNS => {
            return Class::Unresolved
        }
        Rule::Bounded {
            lower_is_better,
            bound,
        } => (lower_is_better, bound),
    };
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let all_new_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let spread = match (stats::relative_spread(base), stats::relative_spread(new)) {
        (Some(a), Some(b)) => a.max(b),
        _ => f64::INFINITY,
    };
    if spread > bound {
        return if all_new_better {
            Class::Improved
        } else {
            Class::Unresolved
        };
    }
    let (mb, mn) = (stats::median(base), stats::median(new));
    let change = if mb == 0.0 { 0.0 } else { (mn - mb) / mb.abs() };
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound {
        Class::Regressed
    } else if worse_by < -bound {
        Class::Improved
    } else {
        Class::Unchanged
    }
}

struct MetricDecl {
    name: String,
    rule: Rule,
}

fn str_field<'a>(doc: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing string `{key}`"))
}

/// Metric declarations from BENCHMARK.json, end-to-end first.
fn declarations(benchmark: &Json) -> Result<(Vec<String>, Vec<MetricDecl>), String> {
    let list = |key: &str| {
        benchmark
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: missing array `{key}`"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| str_field(w, "name", "workloads").map(str::to_string))
        .collect::<Result<Vec<_>, _>>()?;
    let mut decls = Vec::new();
    for m in list("end_to_end")? {
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: end_to_end metric without a bound")?;
        decls.push(MetricDecl {
            name: str_field(m, "name", "end_to_end")?.to_string(),
            rule: Rule::Bounded {
                lower_is_better: str_field(m, "better", "end_to_end")? == "lower",
                bound,
            },
        });
    }
    for m in list("per_layer")? {
        let rule = if str_field(m, "unit", "per_layer")? == "count" {
            Rule::ExactCount
        } else {
            Rule::Unbounded
        };
        decls.push(MetricDecl {
            name: str_field(m, "name", "per_layer")?.to_string(),
            rule,
        });
    }
    Ok((workloads, decls))
}

/// Parse a JSON-lines file of run records.
fn records(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| json::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn values(records: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Print the comparison table; `Ok(true)` when nothing regressed or
/// changed.
pub fn run(benchmark_path: &str, base_path: &str, new_path: &str) -> Result<bool, String> {
    let benchmark = json::parse(
        &std::fs::read_to_string(benchmark_path)
            .map_err(|e| format!("reading {benchmark_path}: {e}"))?,
    )
    .map_err(|e| format!("{benchmark_path}: {e}"))?;
    let (workloads, decls) = declarations(&benchmark)?;
    let (base, new) = (records(base_path)?, records(new_path)?);
    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>9} {:>8} {:>7}  class",
        "workload", "metric", "base median", "new median", "change", "spread", "bound"
    );
    let percent = |v: f64| {
        if v.is_finite() {
            format!("{:.2}%", v * 100.0)
        } else {
            "-".to_string()
        }
    };
    let has = |records: &[Json], workload: &str| {
        records
            .iter()
            .any(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
    };
    let mut clean = true;
    for workload in &workloads {
        if !has(&base, workload) || !has(&new, workload) {
            println!("{workload:<16} runs on one side only: not compared");
            continue;
        }
        for d in &decls {
            let (b, n) = (
                values(&base, workload, &d.name),
                values(&new, workload, &d.name),
            );
            // End-to-end metrics live in untraced records, per-layer ones
            // in traced records; a pair of files may hold either kind.
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let mut class = classify(&b, &n, d.rule);
            let breaks_limit = ABSOLUTE_LIMITS
                .iter()
                .any(|&(name, limit)| name == d.name && n.iter().any(|&v| v > limit));
            if breaks_limit {
                class = Class::Regressed;
            }
            clean &= !matches!(class, Class::Regressed | Class::Changed);
            let (mb, mn) = (stats::median(&b), stats::median(&n));
            let spread = stats::relative_spread(&b)
                .into_iter()
                .chain(stats::relative_spread(&n))
                .fold(f64::NAN, f64::max);
            let bound = match d.rule {
                Rule::Bounded { bound, .. } => percent(bound),
                _ => "-".to_string(),
            };
            println!(
                "{:<16} {:<34} {:>14.6} {:>14.6} {:>9} {:>8} {:>7}  {}",
                workload,
                d.name,
                mb,
                mn,
                percent((mn - mb) / mb.abs()),
                percent(spread),
                bound,
                class.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule::Bounded {
        lower_is_better: true,
        bound: 0.10,
    };
    const HIGHER: Rule = Rule::Bounded {
        lower_is_better: false,
        bound: 0.10,
    };

    /// Ten runs: `center` plus small offsets.
    fn runs(center: f64) -> Vec<f64> {
        [0.0, 1.0, -1.0, 0.5, 0.2, -0.3, 0.8, -0.6, 0.1, -0.2]
            .iter()
            .map(|d| center + d)
            .collect()
    }

    #[test]
    fn bounded_metrics_are_classed_by_median_and_bound() {
        let base = runs(100.0);
        let same = runs(100.3);
        let slower = runs(115.0);
        let faster = runs(80.0);
        assert_eq!(classify(&base, &same, LOWER), Class::Unchanged);
        assert_eq!(classify(&base, &slower, LOWER), Class::Regressed);
        assert_eq!(classify(&base, &faster, LOWER), Class::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(classify(&base, &slower, HIGHER), Class::Improved);
        assert_eq!(classify(&base, &faster, HIGHER), Class::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0].repeat(2);
        assert_eq!(classify(&noisy, &runs(115.0), LOWER), Class::Unresolved);
        assert_eq!(classify(&noisy, &runs(11.0), LOWER), Class::Improved);
        assert_eq!(classify(&[], &[1.0], LOWER), Class::Unresolved);
    }

    #[test]
    fn fewer_than_ten_runs_a_side_are_unresolved() {
        // Even when every new run beats every base run.
        assert_eq!(classify(&[100.0], &[50.0], LOWER), Class::Unresolved);
        assert_eq!(classify(&[100.0], &[150.0], LOWER), Class::Unresolved);
        let nine = &runs(80.0)[..9];
        assert_eq!(classify(&runs(100.0), nine, LOWER), Class::Unresolved);
        assert_eq!(classify(nine, &runs(100.0), LOWER), Class::Unresolved);
        assert_eq!(classify(&runs(100.0), &runs(80.0), LOWER), Class::Improved);
    }

    #[test]
    fn counts_must_match_exactly() {
        assert_eq!(
            classify(&[83.0, 83.0], &[83.0, 83.0, 83.0], Rule::ExactCount),
            Class::Unchanged
        );
        assert_eq!(
            classify(&[83.0, 83.0], &[83.0, 84.0], Rule::ExactCount),
            Class::Changed
        );
        assert_eq!(classify(&[1.0], &[9.0], Rule::Unbounded), Class::Info);
    }
}
