//! Output: one-line JSON, result files, and the human-readable table.

use bench::json::Json;
use std::io::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Ops (or setups) the value was computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

/// The result line the benchmark contract requires as the last line of
/// standard output: exactly `correct`, `attempted`, `failed` and
/// `metrics` (each metric a `value` and a `unit`).
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.clone())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    compact(&Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Metrics as a JSON object keeping the sample counts (result files).
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.clone())),
                    ("samples", Json::Num(m.samples as f64)),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// Single-line JSON: `bench::json`'s indented output with each line's
/// indentation dropped. Its emitter escapes newlines inside strings, so
/// every line break it writes is structure.
pub fn compact(value: &Json) -> String {
    value.to_string().lines().map(str::trim).collect()
}

fn create_parent(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

pub fn write_file(path: impl AsRef<Path>, text: &str) -> Result<(), String> {
    let path = path.as_ref();
    create_parent(path)?;
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Append `line` (plus a newline) to a JSON-lines file.
pub fn append_line(path: impl AsRef<Path>, line: &str) -> Result<(), String> {
    let path = path.as_ref();
    create_parent(path)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The table printed above the result line.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<36} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_parseable_line_with_the_contract_keys() {
        let line = result_line(
            true,
            120,
            0,
            &[Metric::new("latency_ms_p50", "ms/op", 171.25, 120)],
        );
        assert!(!line.contains('\n'));
        let doc = bench::json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("latency_ms_p50").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(171.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms/op"));
        assert_eq!(compact(&Json::Num(f64::NAN)), "null");
        let nested = Json::obj(vec![("s", Json::Str(" a\"b\n ".into()))]);
        assert_eq!(compact(&nested), "{\"s\": \" a\\\"b\\n \"}");
    }
}
