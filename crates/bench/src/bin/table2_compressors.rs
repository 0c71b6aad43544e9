//! Table II: the compressor configurations under comparison, with the
//! rate each one actually achieves on Krylov-like data.

use bench::report::print_table;
use lossy::registry;
use lossy::Compressor;

fn main() {
    // A Krylov-vector-like probe: unit-norm, uncorrelated mantissas,
    // clustered exponents.
    let n = 32 * 1024;
    let mut probe: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.618_033_988).sin()).collect();
    let nrm = (probe.iter().map(|v| v * v).sum::<f64>()).sqrt();
    probe.iter_mut().for_each(|v| *v /= nrm);

    let mut rows = Vec::new();
    for info in registry::TABLE_TWO {
        let codec = info.build();
        let bpv = codec.bits_per_value(&probe);
        let mut out = vec![0.0; n];
        codec.roundtrip(&probe, &mut out);
        let max_err = probe
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        rows.push(vec![
            info.name.to_string(),
            info.bound_type.to_string(),
            info.bound.to_string(),
            format!("{bpv:.1}"),
            format!("{max_err:.1e}"),
        ]);
    }
    // FRSZ2 for reference.
    let frsz2 = lossy::frsz2_adapter::Frsz2Compressor::new(frsz2::Frsz2Config::new(32, 32));
    let mut out = vec![0.0; n];
    frsz2.roundtrip(&probe, &mut out);
    let max_err = probe
        .iter()
        .zip(&out)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    rows.push(vec![
        "frsz2_32 (ours)".into(),
        "fixed rate".into(),
        "32 bits".into(),
        format!("{:.1}", frsz2.bits_per_value(&probe)),
        format!("{max_err:.1e}"),
    ]);

    println!("=== Table II: compressor configurations (measured on a Krylov-like vector) ===");
    print_table(
        &[
            "name",
            "bound type",
            "requested bound",
            "achieved bits/value",
            "max |err|",
        ],
        &rows,
    );
}
