//! Every registered codec's byte stream and decoded values, pinned.
//!
//! Each codec compresses six fixed inputs — empty, one value, values
//! that take the SZ raw escape, all zeros, a unit-norm Krylov-like
//! vector and a smooth ramp — and FNV-1a hashes the compressed bytes
//! and the decoded value bits. A moved hex is a moved stream: Table II,
//! Figs. 5–6 and every codec-basis solve read these codecs.

use lossy::registry;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn inputs() -> Vec<Vec<f64>> {
    let mut krylov: Vec<f64> = (0..1000u64)
        .map(|i| {
            let mut h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            (h >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
        })
        .collect();
    let norm = krylov.iter().map(|v| v * v).sum::<f64>().sqrt();
    krylov.iter_mut().for_each(|v| *v /= norm);
    vec![
        vec![],
        vec![-std::f64::consts::FRAC_PI_4],
        vec![1e300, -1e-300, -0.0],
        vec![0.0; 100],
        krylov,
        (0..513).map(|i| i as f64 / 256.0 - 1.0).collect(),
    ]
}

fn decode(codec: &dyn lossy::Compressor, bytes: &[u8], n: usize) -> Vec<f64> {
    codec
        .decompress(bytes, n)
        .expect("a codec decodes its own stream")
}

#[test]
fn registry_codec_streams_are_pinned() {
    let pins: [(&str, &str); 12] = [
        ("sz3_06", "ee843e58f37ffb10"),
        ("sz3_07", "a2d9d9b2ed440d10"),
        ("sz3_08", "885525f133f0722e"),
        ("zfp_06", "c4ef990a2a2673d4"),
        ("zfp_10", "b59ec2daf4dac0d9"),
        ("sz_pwrel_04", "f9e6e1fd1ac20b7d"),
        ("sz3_pwrel_04", "f080ac53a89b9ddd"),
        ("zfp_fr_16", "fc04d8444ee54d20"),
        ("zfp_fr_32", "052c30ee3261000a"),
        ("sz_06", "a91a9fd8f74e03a5"),
        ("sz_07", "9d88d9a08fdbf2c4"),
        ("sz_08", "6fbfa5fbd47b9694"),
    ];
    assert_eq!(
        registry::names(),
        pins.iter().map(|&(name, _)| name).collect::<Vec<_>>()
    );
    let inputs = inputs();
    for (name, want) in pins {
        let codec = registry::by_name(name).expect("registered codec");
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for data in &inputs {
            let bytes = codec.compress(data);
            fnv1a(&mut hash, &(bytes.len() as u64).to_le_bytes());
            fnv1a(&mut hash, &bytes);
            for v in decode(codec.as_ref(), &bytes, data.len()) {
                fnv1a(&mut hash, &v.to_bits().to_le_bytes());
            }
        }
        assert_eq!(format!("{hash:016x}"), want, "{name}");
    }
}
