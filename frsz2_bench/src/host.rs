//! The host block every result records, and the STREAM-style triad
//! that gives the basis decode rate a measured ceiling.

use bench::json::{self, Json};
use std::path::Path;
use std::time::Instant;

/// Facts about the machine a result came from.
pub struct Host {
    pub cores: usize,
    pub avx2: bool,
    pub avx512f: bool,
    /// Size of the last-level cache, from sysfs (`None` when unreadable).
    pub llc_bytes: Option<u64>,
}

/// The measured single-thread triad `a = b + q·c`.
pub struct Triad {
    pub gbps: f64,
    pub array_bytes: u64,
}

/// Assumed LLC when sysfs does not say; only sizes the triad arrays.
const FALLBACK_LLC_BYTES: u64 = 32 << 20;

/// Where a traced run keeps the triad result, so one checkout pays for
/// the multi-GB measurement once.
const TRIAD_CACHE: &str = "results/host_triad.json";

impl Host {
    pub fn probe() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx2: cpu_has("avx2"),
            avx512f: cpu_has("avx512f"),
            llc_bytes: llc_bytes(),
        }
    }

    /// Triad array size: four times the LLC, so the triad streams from
    /// memory rather than cache.
    pub fn triad_array_bytes(&self) -> u64 {
        4 * self.llc_bytes.unwrap_or(FALLBACK_LLC_BYTES)
    }

    pub fn to_json(&self, triad: &Triad) -> Json {
        let triad = Json::obj(vec![
            ("gbps", Json::Num(triad.gbps)),
            ("array_bytes", Json::Num(triad.array_bytes as f64)),
            ("arrays", Json::Num(3.0)),
            ("threads", Json::Num(1.0)),
        ]);
        Json::obj(vec![
            ("cores", Json::Num(self.cores as f64)),
            ("avx2", Json::Bool(self.avx2)),
            ("avx512f", Json::Bool(self.avx512f)),
            (
                "llc_bytes",
                self.llc_bytes.map_or(Json::Null, |b| Json::Num(b as f64)),
            ),
            ("triad", triad),
        ])
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_has(feature: &str) -> bool {
    match feature {
        "avx2" => std::arch::is_x86_feature_detected!("avx2"),
        "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has(_feature: &str) -> bool {
    false
}

/// Parse a sysfs cache size such as `307200K`.
fn parse_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// The largest-level data or unified cache of CPU 0.
fn llc_bytes() -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for index in 0..16 {
        let dir = base.join(format!("index{index}"));
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_size(&size)) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

/// The triad itself (run in a child process by [`triad`] so its
/// arrays never count toward a workload's peak RSS). Prints one JSON
/// line with the best of three passes.
pub fn run_triad_child(array_bytes: u64) {
    let n = usize::try_from(array_bytes / 8).expect("triad array fits the address space");
    let q = 3.0;
    // Filled, not zero-allocated, so every page is resident before timing.
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.5f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + q * ci;
        }
        std::hint::black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert!(a.iter().step_by(4096).all(|&v| v == 7.0), "triad result");
    let gbps = 3.0 * array_bytes as f64 / best / 1e9;
    println!(
        "{}",
        crate::report::compact(&Json::obj(vec![("gbps", Json::Num(gbps))]))
    );
}

/// The triad result for this host: from the checkout's cache when it
/// matches the array size, else measured in a child process and cached.
pub fn triad(host: &Host) -> Result<Triad, String> {
    let array_bytes = host.triad_array_bytes();
    if let Ok(text) = std::fs::read_to_string(TRIAD_CACHE) {
        let doc = json::parse(&text).map_err(|e| format!("{TRIAD_CACHE}: {e}"))?;
        let cached_bytes = doc.get("array_bytes").and_then(Json::as_f64);
        if let (Some(gbps), Some(bytes)) = (doc.get("gbps").and_then(Json::as_f64), cached_bytes) {
            if bytes as u64 == array_bytes {
                return Ok(Triad { gbps, array_bytes });
            }
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--triad-child", &array_bytes.to_string()])
        .output()
        .map_err(|e| format!("running the triad child: {e}"))?;
    if !out.status.success() {
        return Err(format!("triad child failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let gbps = json::parse(line)
        .ok()
        .and_then(|d| d.get("gbps").and_then(Json::as_f64))
        .ok_or_else(|| format!("triad child printed no result: {line:?}"))?;
    let doc = Json::obj(vec![
        ("array_bytes", Json::Num(array_bytes as f64)),
        ("gbps", Json::Num(gbps)),
    ]);
    crate::report::write_file(TRIAD_CACHE, &crate::report::compact(&doc))?;
    Ok(Triad { gbps, array_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("307200K\n"), Some(300 << 20));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
        assert_eq!(parse_size(""), None);
    }
}
