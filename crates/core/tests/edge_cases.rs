//! Edge-case tests for the validating `try_compress` entry point and
//! the codec's behaviour on degenerate inputs: non-finite rejection,
//! empty input, lengths not divisible by the block size, and
//! denormal-heavy blocks.

use frsz2::codec::Frsz2Error;
use frsz2::{reference, Frsz2Config, Frsz2Vector};

#[test]
fn try_compress_rejects_nan_at_first_offending_index() {
    let cfg = Frsz2Config::new(32, 21);
    let mut data = vec![0.5; 100];
    data[63] = f64::NAN;
    assert_eq!(
        Frsz2Vector::try_compress(cfg, &data).unwrap_err(),
        Frsz2Error::NonFinite(63)
    );
    // Several offenders: the first wins.
    data[7] = f64::NAN;
    assert_eq!(
        Frsz2Vector::try_compress(cfg, &data).unwrap_err(),
        Frsz2Error::NonFinite(7)
    );
}

#[test]
fn try_compress_rejects_both_infinities() {
    let cfg = Frsz2Config::default();
    assert_eq!(
        Frsz2Vector::try_compress(cfg, &[0.0, f64::INFINITY]).unwrap_err(),
        Frsz2Error::NonFinite(1)
    );
    assert_eq!(
        Frsz2Vector::try_compress(cfg, &[f64::NEG_INFINITY, 0.0]).unwrap_err(),
        Frsz2Error::NonFinite(0)
    );
    // The error is reportable.
    let msg = Frsz2Vector::try_compress(cfg, &[f64::NAN])
        .unwrap_err()
        .to_string();
    assert!(msg.contains("index 0"), "unhelpful message: {msg}");
}

#[test]
fn try_compress_accepts_extreme_finite_values() {
    let cfg = Frsz2Config::new(32, 32);
    let data = [
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::from_bits(1), // smallest positive subnormal
        0.0,
        -0.0,
    ];
    let v = Frsz2Vector::try_compress(cfg, &data).expect("finite extremes are valid input");
    assert_eq!(v.len(), data.len());
    let out = v.decompress();
    for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
        assert!(
            (a - b).abs() <= v.block_error_bound(i),
            "value {i}: {a} -> {b}"
        );
    }
}

#[test]
fn empty_input_roundtrips_through_every_entry_point() {
    for l in [4u32, 16, 21, 32, 64] {
        let cfg = Frsz2Config::new(32, l);
        let v = Frsz2Vector::try_compress(cfg, &[]).expect("empty input is valid");
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.storage_bytes(), 0);
        assert_eq!(v.decompress(), Vec::<f64>::new());
        assert!(v.exponents().is_empty());
        assert!(v.words().is_empty());
        let mut out: [f64; 0] = [];
        v.decompress_into(&mut out); // must not panic on zero-length out
    }
}

#[test]
fn lengths_not_divisible_by_block_size() {
    // One value short of a block, one value past a block, a single
    // value, and a prime length — for an aligned and an unaligned l.
    for l in [32u32, 21] {
        for n in [1usize, 31, 33, 97] {
            let cfg = Frsz2Config::new(32, l);
            let data: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin() * 3.0).collect();
            let v = Frsz2Vector::try_compress(cfg, &data).unwrap();
            assert_eq!(v.exponents().len(), n.div_ceil(32), "l={l} n={n} blocks");
            // Trailing partial block agrees with the reference codec.
            let out = v.decompress();
            assert_eq!(out.len(), n);
            for (b, chunk) in data.chunks(32).enumerate() {
                let (emax, codes) = reference::compress_block(chunk, l);
                let expect = reference::decompress_block(emax, &codes, l);
                for (i, &x) in expect.iter().enumerate() {
                    assert_eq!(
                        out[b * 32 + i].to_bits(),
                        x.to_bits(),
                        "l={l} n={n} value {}",
                        b * 32 + i
                    );
                }
            }
        }
    }
}

#[test]
fn worst_case_error_bound_is_zero_for_zero_blocks() {
    // An all-zero block stores emax = 1 and all-zero codes; every code
    // decodes to exactly ±0, so the a-priori bound must be 0 — not the
    // spurious 2^(-1021-l) that effective_exponent(0) = 1 would give.
    for l in [4u32, 16, 21, 32, 64] {
        let cfg = Frsz2Config::new(32, l);
        assert_eq!(cfg.worst_case_abs_error(0.0), 0.0, "l={l}");
        assert_eq!(cfg.worst_case_abs_error(-0.0), 0.0, "l={l} negative zero");
        // And the codec agrees: zeros round-trip exactly.
        let zeros = vec![0.0f64; 64];
        let v = Frsz2Vector::try_compress(cfg, &zeros).unwrap();
        for (i, &d) in v.decompress().iter().enumerate() {
            assert_eq!(d.to_bits(), 0.0f64.to_bits(), "l={l} value {i}");
        }
    }
}

#[test]
fn worst_case_error_bound_handles_subnormal_block_max() {
    // Subnormal block_max: effective exponent floors at 1, the bound is
    // 2^(-1022-(l-2)) — finite, non-negative, and it must actually hold
    // for a compressed all-subnormal block.
    let subnormals: Vec<f64> = (1..=32u64)
        .map(|i| f64::from_bits(i * 0x0000_0E38_E38E_38E3))
        .collect();
    let block_max = subnormals
        .iter()
        .fold(0.0f64, |m, &v| if v.abs() > m.abs() { v } else { m });
    assert!(block_max != 0.0 && block_max.abs() < f64::MIN_POSITIVE);
    for l in [4u32, 16, 21, 32] {
        let cfg = Frsz2Config::new(32, l);
        let bound = cfg.worst_case_abs_error(block_max);
        assert!(bound.is_finite() && bound > 0.0, "l={l} bound {bound}");
        let v = Frsz2Vector::try_compress(cfg, &subnormals).unwrap();
        let out = v.decompress();
        for (i, (&a, &b)) in subnormals.iter().zip(&out).enumerate() {
            assert!(
                (a - b).abs() <= bound,
                "l={l} value {i}: err {} beyond a-priori bound {bound}",
                (a - b).abs()
            );
        }
    }
    // l > 54 retains every subnormal bit: the bound underflows to an
    // exact 0 and the round trip is indeed exact.
    let cfg64 = Frsz2Config::new(32, 64);
    assert_eq!(cfg64.worst_case_abs_error(block_max), 0.0);
    let v = Frsz2Vector::try_compress(cfg64, &subnormals).unwrap();
    for (i, (&a, &b)) in subnormals.iter().zip(&v.decompress()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "l=64 value {i} must be exact");
    }
}

#[test]
fn worst_case_error_bound_normal_values_unchanged() {
    // Regression guard for the zero-block clamp: normal inputs keep the
    // paper's 2^(emax-1023-(l-2)) bound.
    let cfg = Frsz2Config::new(32, 32);
    // block_max = 1.0 -> emax = 1023 -> bound 2^-30.
    assert_eq!(cfg.worst_case_abs_error(1.0), f64::powi(2.0, -30));
    assert_eq!(cfg.worst_case_abs_error(-1.5), f64::powi(2.0, -30));
    let cfg21 = Frsz2Config::new(32, 21);
    assert_eq!(cfg21.worst_case_abs_error(1.0), f64::powi(2.0, -19));
}

#[test]
fn denormal_heavy_blocks() {
    // A block made entirely of subnormals: emax is the floor value 1 and
    // nothing may panic, overflow a shift, or produce a non-finite
    // output.
    let subnormals: Vec<f64> = (1..=64u64)
        .map(|i| f64::from_bits(i * 0x0000_0FFF_FFFF_FFFF / 64))
        .collect();
    for l in [4u32, 16, 21, 32, 64] {
        let cfg = Frsz2Config::new(32, l);
        let v = Frsz2Vector::try_compress(cfg, &subnormals).unwrap();
        assert!(
            v.exponents().iter().all(|&e| e == 1),
            "l={l}: emax must floor at 1"
        );
        let out = v.decompress();
        for (i, (&a, &b)) in subnormals.iter().zip(&out).enumerate() {
            assert!(b.is_finite(), "l={l} value {i} not finite");
            assert!(b.abs() <= a.abs(), "l={l} value {i} grew");
            assert!(
                (a - b).abs() <= v.block_error_bound(i),
                "l={l} value {i}: err beyond block bound"
            );
        }
        // l = 64 keeps the full significand of an emax=1 block: exact.
        if l == 64 {
            for (i, (&a, &b)) in subnormals.iter().zip(&out).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "l=64 value {i} must be exact");
            }
        }
    }
}

#[test]
fn mixed_denormal_and_normal_block_flushes_denormals() {
    // A large normal value in the same block pushes emax far above the
    // subnormal range, so with l = 32 every subnormal flushes to ±0 while
    // the normal value survives within its bound.
    let mut data = vec![f64::from_bits(12345); 32];
    data[0] = 1.0e10;
    data[31] = -f64::from_bits(99);
    let cfg = Frsz2Config::new(32, 32);
    let v = Frsz2Vector::try_compress(cfg, &data).unwrap();
    let out = v.decompress();
    assert!((data[0] - out[0]).abs() <= v.block_error_bound(0));
    for (i, &b) in out.iter().enumerate().skip(1) {
        assert_eq!(b.abs(), 0.0, "value {i} should flush to zero");
    }
    // Signs survive the flush (sign bit is stored separately).
    assert!(out[31].is_sign_negative(), "flushed value keeps its sign");
}
