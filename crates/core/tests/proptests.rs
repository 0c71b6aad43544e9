//! Property tests for the FRSZ2 codec.
//!
//! The central invariants:
//! 1. the optimized block codec and the scalar reference codec agree
//!    bit-for-bit for every (BS, l) combination,
//! 2. the decompression error never reaches one ULP of the truncated
//!    fraction at block scale,
//! 3. chunked, whole-vector and random-access decompression agree,
//! 4. truncation never increases a value's magnitude and never changes
//!    its sign.

use frsz2::{reference, Frsz2Config, Frsz2Vector};
use proptest::prelude::*;

/// Generates finite f64 values with a wide but controlled exponent range,
/// including zeros, subnormal-scaled and mixed-magnitude data.
fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -1.0f64..1.0,                           // Krylov-like
        2 => (-1.0f64..1.0).prop_map(|x| x * 1e-30), // deep small values
        2 => (-1.0f64..1.0).prop_map(|x| x * 1e+30), // large values
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => (1u64..(1 << 52)).prop_map(f64::from_bits), // positive subnormals
    ]
}

/// `2^e` across the whole f64 range, subnormals included (the codec's
/// `exp2i` is private, so the tests carry their own copy of the
/// bit-level construction).
fn exp2_wide(e: i32) -> f64 {
    if e >= 1024 {
        f64::INFINITY
    } else if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e >= -1074 {
        f64::from_bits(1u64 << (e + 1074))
    } else {
        0.0
    }
}

fn config_strategy() -> impl Strategy<Value = Frsz2Config> {
    (
        prop_oneof![Just(1u32), Just(4), Just(8), Just(16), Just(32), Just(64)],
        2u32..=64,
    )
        .prop_map(|(bs, l)| Frsz2Config::new(bs, l))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Optimized codec output is bit-identical to the reference codec.
    #[test]
    fn optimized_matches_reference(
        cfg in config_strategy(),
        data in prop::collection::vec(value_strategy(), 0..200),
    ) {
        let v = Frsz2Vector::compress(cfg, &data);
        let out = v.decompress();
        let bs = cfg.block_size();
        for (b, chunk) in data.chunks(bs).enumerate() {
            let (emax, codes) = reference::compress_block(chunk, cfg.bits());
            prop_assert_eq!(v.exponents()[b], emax, "block {} emax", b);
            let expect = reference::decompress_block(emax, &codes, cfg.bits());
            for (i, &x) in expect.iter().enumerate() {
                prop_assert_eq!(
                    out[b * bs + i].to_bits(),
                    x.to_bits(),
                    "value {} (l={}, bs={})", b * bs + i, cfg.bits(), bs
                );
            }
        }
    }

    /// |x - decode(encode(x))| < 2^(emax-1023-(l-2)) for every element.
    #[test]
    fn error_bound_holds(
        cfg in config_strategy(),
        data in prop::collection::vec(value_strategy(), 1..200),
    ) {
        let v = Frsz2Vector::compress(cfg, &data);
        let out = v.decompress();
        for i in 0..data.len() {
            let err = (data[i] - out[i]).abs();
            let bound = v.block_error_bound(i);
            prop_assert!(
                err < bound || (err == 0.0 && bound == 0.0),
                "i={}: err {} >= bound {} (l={}, bs={})",
                i, err, bound, cfg.bits(), cfg.block_size()
            );
        }
    }

    /// Truncation moves every value toward zero and preserves its sign bit.
    #[test]
    fn truncation_shrinks_magnitude(
        cfg in config_strategy(),
        data in prop::collection::vec(value_strategy(), 1..120),
    ) {
        let v = Frsz2Vector::compress(cfg, &data);
        let out = v.decompress();
        for i in 0..data.len() {
            prop_assert!(out[i].abs() <= data[i].abs(), "i={} grew", i);
            prop_assert_eq!(
                out[i].is_sign_negative(), data[i].is_sign_negative(),
                "i={} sign flipped", i
            );
        }
    }

    /// Random access, chunked reads and whole-vector decompression agree.
    #[test]
    fn access_paths_agree(
        cfg in config_strategy(),
        data in prop::collection::vec(value_strategy(), 1..300),
        cut in 0usize..300,
    ) {
        let v = Frsz2Vector::compress(cfg, &data);
        let full = v.decompress();
        // Random access.
        for (i, f) in full.iter().enumerate() {
            prop_assert_eq!(v.get(i).to_bits(), f.to_bits(), "get({})", i);
        }
        // Block-aligned two-piece chunked read.
        let bs = cfg.block_size();
        let cut = (cut % (data.len().div_ceil(bs) + 1)) * bs;
        let cut = cut.min(data.len());
        let mut pieced = vec![0.0; data.len()];
        v.decompress_range(0, &mut pieced[..cut]);
        v.decompress_range(cut, &mut pieced[cut..]);
        for i in 0..data.len() {
            prop_assert_eq!(pieced[i].to_bits(), full[i].to_bits(), "chunk at {}", i);
        }
    }

    /// Values that fit exactly (significand no wider than the retained
    /// field) survive the round trip bit-for-bit.
    #[test]
    fn dyadic_values_roundtrip_exactly(
        bs in prop_oneof![Just(4u32), Just(32)],
        l in 12u32..=64,
        nums in prop::collection::vec((-128i64..=128, -3i32..=3), 1..100),
    ) {
        // value = num * 2^scale has at most 8 significand bits; with
        // exponent spread <= 8+3-(-3) well inside l-2 for l >= 12... keep
        // the spread small so nothing flushes.
        let data: Vec<f64> = nums
            .iter()
            .map(|&(n, s)| n as f64 * f64::powi(2.0, s))
            .collect();
        let cfg = Frsz2Config::new(bs, l);
        let v = Frsz2Vector::compress(cfg, &data);
        let out = v.decompress();
        for i in 0..data.len() {
            // 8 significand bits + spread <= 13 fits in l-2 >= 10... only
            // guaranteed for l >= 23; check exactness there.
            if l >= 23 {
                prop_assert_eq!(out[i].to_bits(), data[i].to_bits(), "i={}", i);
            }
        }
    }

    /// The reference codec and the optimized codec agree bit-for-bit for
    /// every bit length the paper discusses — the word-aligned fast
    /// paths (l ∈ {8, 16, 32, 64}) and the bit-packed non-word-aligned
    /// path (l ∈ {4, 21}, covering the paper's `frsz2_21`) — across
    /// block sizes, partial trailing blocks included.
    #[test]
    fn paper_bit_lengths_match_reference(
        l in prop_oneof![Just(4u32), Just(8), Just(16), Just(21), Just(32), Just(64)],
        bs in prop_oneof![Just(1u32), Just(4), Just(8), Just(16), Just(32), Just(64)],
        data in prop::collection::vec(value_strategy(), 1..200),
    ) {
        let cfg = Frsz2Config::new(bs, l);
        let v = Frsz2Vector::compress(cfg, &data);
        let out = v.decompress();
        for (b, chunk) in data.chunks(bs as usize).enumerate() {
            let (emax, codes) = reference::compress_block(chunk, l);
            prop_assert_eq!(v.exponents()[b], emax, "l={} bs={} block {} emax", l, bs, b);
            let expect = reference::decompress_block(emax, &codes, l);
            for (i, &x) in expect.iter().enumerate() {
                let idx = b * bs as usize + i;
                prop_assert_eq!(
                    out[idx].to_bits(), x.to_bits(),
                    "l={} bs={} value {}", l, bs, idx
                );
                // Random access must take the same path-specific decode.
                prop_assert_eq!(
                    v.get(idx).to_bits(), x.to_bits(),
                    "l={} bs={} get({})", l, bs, idx
                );
            }
        }
    }

    /// The paper's worst-case absolute error bound, written out
    /// explicitly: `|x − decode(encode(x))| < 2^(emax − 1023 − (l − 2))`
    /// with `emax` recomputed from the raw block, and
    /// `Frsz2Config::storage_bytes` equal to Eq. 3 written out term by
    /// term: `⌈n/BS⌉ · ⌈BS·l/32⌉ · 4 + ⌈n/BS⌉ · 4`.
    #[test]
    fn explicit_error_bound_and_eq3(
        cfg in config_strategy(),
        data in prop::collection::vec(value_strategy(), 1..200),
    ) {
        let (bs, l) = (cfg.block_size(), cfg.bits());
        let v = Frsz2Vector::compress(cfg, &data);
        let out = v.decompress();
        for (b, chunk) in data.chunks(bs).enumerate() {
            let emax = reference::block_emax(chunk) as i32;
            let bound = exp2_wide(emax - 1023 - (l as i32 - 2));
            for (i, &x) in chunk.iter().enumerate() {
                let err = (x - out[b * bs + i]).abs();
                prop_assert!(
                    err < bound || (err == 0.0 && bound == 0.0),
                    "l={} bs={} value {}: err {:e} >= bound {:e}",
                    l, bs, b * bs + i, err, bound
                );
            }
        }
        let n = data.len();
        let blocks = n.div_ceil(bs);
        let eq3 = blocks * (bs * l as usize).div_ceil(32) * 4 + blocks * 4;
        prop_assert_eq!(cfg.storage_bytes(n), eq3);
        prop_assert_eq!(v.storage_bytes(), eq3);
    }

    /// Compressed size matches Eq. 3 for arbitrary lengths.
    #[test]
    fn storage_size_matches_eq3(
        cfg in config_strategy(),
        n in 0usize..5000,
    ) {
        let data = vec![0.25f64; n];
        let v = Frsz2Vector::compress(cfg, &data);
        let bs = cfg.block_size();
        let blocks = n.div_ceil(bs);
        let expected = blocks * ((bs * cfg.bits() as usize).div_ceil(32)) * 4 + blocks * 4;
        prop_assert_eq!(v.storage_bytes(), expected);
    }
}
