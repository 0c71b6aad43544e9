//! Simulated GPU kernels: FRSZ2 compression/decompression and the
//! arithmetic-intensity streaming benchmark behind Figure 4.
//!
//! The FRSZ2 kernels are functional re-expressions of the CUDA kernels
//! described in §IV, written against the counted warp API: one warp per
//! 32-value block, warp-shuffle `emax` reduction during compression,
//! per-lane bit manipulation with `clz` during decompression. Tests
//! assert bit-identical output against the CPU codec in `frsz2::codec`.

use crate::cost::{estimate, CostBreakdown};
use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::launch::launch_over;
use crate::warp::{WarpCtx, WARP};
use frsz2::Frsz2Config;

const MASK52: u64 = (1u64 << 52) - 1;

#[inline]
fn mask64(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Per-lane FRSZ2 decode with counted operations (§IV-B steps 2-4).
/// It keeps the paper's count-zero sequence, because it models the H100
/// kernel's instruction mix; the CPU codec decodes most blocks by an
/// exact convert-and-scale step instead, with the same bits.
fn decode_lane(w: &mut WarpCtx, c: u64, emax: u32, l: u32) -> f64 {
    let sign = w.i_shr(c, l - 1);
    let field = w.i_and(c, mask64(l - 1));
    if field == 0 {
        return f64::from_bits(w.i_shl(sign, 63));
    }
    // Step 2: count the inserted zeros (clz + constant adjust).
    let kz = w.clz(field);
    let k = w.i_sub(kz as i64, (64 - (l - 1)) as i64) as u32;
    // Step 3: actual exponent.
    let e_new = w.i_sub(emax as i64, k as i64);
    if e_new >= 1 {
        // Step 4: move the leading 1 to bit 52, drop it, assemble.
        let amt = w.i_sub(l as i64 - 2 - 52, k as i64) as i32;
        let sig = if amt >= 0 {
            w.i_shr(field, amt as u32)
        } else {
            w.i_shl(field, (-amt) as u32)
        };
        let mant = w.i_and(sig, MASK52);
        let exp_part = w.i_shl(e_new as u64, 52);
        let hi = w.i_shl(sign, 63);
        let lo = w.i_or(hi, exp_part);
        let bits = w.i_or(lo, mant);
        f64::from_bits(bits)
    } else {
        // Subnormal result (never taken for Krylov data; counted anyway).
        let amt = w.i_sub(l as i64 - 2 - 51, emax as i64) as i32;
        let m = if amt >= 0 {
            w.i_shr(field, amt as u32)
        } else {
            w.i_shl(field, (-amt) as u32)
        };
        let s63 = w.i_shl(sign, 63);
        let m52 = w.i_and(m, MASK52);
        let bits = w.i_or(s63, m52);
        f64::from_bits(bits)
    }
}

/// Per-lane FRSZ2 encode with counted operations (§IV-A steps 2-5).
/// Mirrors `frsz2::codec::encode_bits` bit for bit.
fn encode_lane(w: &mut WarpCtx, bits: u64, emax: u32, l: u32) -> u64 {
    let eraw = w.i_shr(bits, 52);
    let e = w.i_and(eraw, 0x7FF) as u32;
    let sign = w.i_shr(bits, 63);
    let m = w.i_and(bits, MASK52);
    let e_eff = w.i_max(e.max(1), 1); // exponent of zero/subnormal is 1
    let sig = w.i_select(e != 0, m | (1u64 << 52), m);
    let shift = w.i_sub((emax - e_eff) as i64 + 54, l as i64) as i32;
    let field = if shift >= 64 {
        0
    } else if shift >= 0 {
        w.i_shr(sig, shift as u32)
    } else {
        w.i_shl(sig, (-shift) as u32)
    };
    let shifted = w.i_shl(sign, l - 1);
    w.i_or(shifted, field)
}

/// Simulated decompression of an FRSZ2 vector (`BS = 32` only — the
/// warp-width mandate of §IV-C). Returns values and execution counters.
///
/// `n` must be a multiple of 32 (full warps; real kernels predicate the
/// tail off, which the accounting here does not model).
pub fn frsz2_decompress_sim(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    n: usize,
) -> (Vec<f64>, Counters) {
    assert_eq!(cfg.block_size(), WARP, "simulated kernels require BS = 32");
    assert_eq!(n % WARP, 0, "simulated kernels require full warps");
    let l = cfg.bits();
    let wpb = cfg.words_per_block();
    let mut out = vec![0.0f64; n];
    let counters = launch_over(&mut out, WARP, |w, b, tile| {
        let emax = w.load_broadcast_u32(exps, b);
        let base = b * wpb;
        match l {
            32 => {
                let idxs: [usize; WARP] = std::array::from_fn(|i| base + i);
                let cs = w.load_u32(words, &idxs);
                for (i, t) in tile.iter_mut().enumerate() {
                    *t = decode_lane(w, cs[i] as u64, emax, 32);
                }
            }
            16 => {
                // Two codes per word: lanes gather their word, then
                // extract the half-word (+2 integer ops per value).
                let idxs: [usize; WARP] = std::array::from_fn(|i| base + i / 2);
                let cs = w.load_u32(words, &idxs);
                for (i, t) in tile.iter_mut().enumerate() {
                    let sh = w.i_shl((i as u64) & 1, 4) as u32; // (i&1)*16
                    let word = w.i_shr(cs[i] as u64, sh);
                    let c = w.i_and(word, 0xFFFF);
                    *t = decode_lane(w, c, emax, 16);
                }
            }
            l => {
                // Unaligned: per-lane bit offset, one or two word loads,
                // funnel shift — the "complex index computation and
                // unaligned memory read" overhead of §IV-C.
                let off: [usize; WARP] = std::array::from_fn(|i| i * l as usize);
                let w0: [usize; WARP] = std::array::from_fn(|i| base + off[i] / 32);
                let w1: [usize; WARP] = std::array::from_fn(|i| (w0[i] + 1).min(base + wpb - 1));
                let lo = w.load_u32(words, &w0);
                // The second word of each straddling value overlaps the
                // next lane's first word: an L1 hit, but a second LSU
                // transaction per lane.
                let hi = w.load_u32_l1(words, &w1);
                for (i, t) in tile.iter_mut().enumerate() {
                    // offset math: mul+mod counted as 2 ops
                    let shift = w.i_and(off[i] as u64, 31) as u32;
                    let _ = w.i_add(off[i] as u64, 0); // word index add
                    let hi_shifted = w.i_shl(hi[i] as u64, 32);
                    let pair = w.i_or(lo[i] as u64, hi_shifted);
                    let cut = w.i_shr(pair, shift);
                    let c = w.i_and(cut, mask64(l));
                    *t = decode_lane(w, c, emax, l);
                }
            }
        }
    });
    (out, counters)
}

/// Simulated compression (`BS = 32`, truncating): warp-shuffle `emax`
/// butterfly, per-lane encode, coalesced stores (§IV-A steps 1-6).
pub fn frsz2_compress_sim(cfg: Frsz2Config, input: &[f64]) -> (Vec<u32>, Vec<u32>, Counters) {
    assert_eq!(cfg.block_size(), WARP, "simulated kernels require BS = 32");
    assert_eq!(
        input.len() % WARP,
        0,
        "simulated kernels require full warps"
    );
    let l = cfg.bits();
    let wpb = cfg.words_per_block();
    let blocks = cfg.blocks_for(input.len());
    let mut words = vec![0u32; cfg.words_for_len(input.len())];
    let mut exps = vec![0u32; blocks];

    // One warp per block; output tiles are the word regions.
    let counters = {
        let exps_slices: Vec<&mut u32> = exps.iter_mut().collect();
        let mut paired: Vec<(usize, &mut [u32], &mut u32)> = words
            .chunks_mut(wpb)
            .zip(exps_slices)
            .enumerate()
            .map(|(b, (w, e))| (b, w, e))
            .collect();
        use rayon::prelude::*;
        paired
            .par_iter_mut()
            // One item = one 32-value block; bundle several per task so
            // the per-task overhead stays negligible. Counter merges
            // are exact, so grouping cannot change the result.
            .with_min_len(16)
            .map(|(b, block_words, exp_slot)| {
                let mut w = WarpCtx::new();
                let base = *b * WARP;
                let idxs: [usize; WARP] = std::array::from_fn(|i| base + i);
                let vals = w.load_f64(input, &idxs);

                // Step 1: per-lane exponent extraction + butterfly max.
                let mut e_lanes = [0u32; WARP];
                for (i, &v) in vals.iter().enumerate() {
                    let eraw = w.i_shr(v.to_bits(), 52);
                    let e = w.i_and(eraw, 0x7FF) as u32;
                    e_lanes[i] = w.i_max(e, 1);
                }
                let emax = w.reduce_max_u32(&e_lanes);
                w.store_scalar_u32(std::slice::from_mut(&mut **exp_slot), 0, emax);

                // Steps 2-6: encode and store.
                match l {
                    32 => {
                        let mut cs = [0u32; WARP];
                        for (i, &v) in vals.iter().enumerate() {
                            cs[i] = encode_lane(&mut w, v.to_bits(), emax, 32) as u32;
                        }
                        let idxs: [usize; WARP] = std::array::from_fn(|i| i);
                        w.store_u32(block_words, &idxs, &cs);
                    }
                    _ => {
                        // Aligned sub-word and unaligned paths funnel
                        // through the CPU bit packer for the data while
                        // the ops are counted per lane (encode + pack).
                        for (i, &v) in vals.iter().enumerate() {
                            let c = encode_lane(&mut w, v.to_bits(), emax, l);
                            let _ = w.i_shl(c, (i as u32 * l) % 32); // pack shift
                            frsz2::bitpack::write_bits(block_words, i * l as usize, l, c);
                        }
                        // Stores: one transaction per word region.
                        let word_idxs: [usize; WARP] = std::array::from_fn(|i| i.min(wpb - 1));
                        let zero = [0u32; WARP];
                        w.account_store_only(block_words, &word_idxs, &zero);
                    }
                }
                w.counters
            })
            .reduce(Counters::default, |mut a, b| {
                a.merge(&b);
                a
            })
    };
    (words, exps, counters)
}

/// Storage formats of the Fig. 4 streaming benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamFormat {
    /// Native double precision (no accessor).
    F64Native,
    /// Native single precision: loads f32, computes f32.
    F32Native,
    /// Accessor with f64 storage, f64 arithmetic.
    AccF64,
    /// Accessor with f32 storage, f64 arithmetic.
    AccF32,
    /// Accessor with binary16 storage, f64 arithmetic (extension).
    AccF16,
    /// Accessor with FRSZ2 storage (`BS = 32`, bit length `l`).
    Frsz2(u32),
}

impl StreamFormat {
    /// Label as in Fig. 4's legend.
    pub fn label(&self) -> String {
        match self {
            StreamFormat::F64Native => "float64".into(),
            StreamFormat::F32Native => "float32".into(),
            StreamFormat::AccF64 => "Acc<float64>".into(),
            StreamFormat::AccF32 => "Acc<float32>".into(),
            StreamFormat::AccF16 => "Acc<float16>".into(),
            StreamFormat::Frsz2(l) => format!("Acc<frsz2_{l}>"),
        }
    }

    /// The seven series of Fig. 4.
    pub fn figure4_set() -> Vec<StreamFormat> {
        vec![
            StreamFormat::F64Native,
            StreamFormat::F32Native,
            StreamFormat::AccF64,
            StreamFormat::AccF32,
            StreamFormat::Frsz2(16),
            StreamFormat::Frsz2(21),
            StreamFormat::Frsz2(32),
        ]
    }
}

/// One measured streaming pass over `n` deterministic values: loads (and
/// decompresses) every value, no synthetic FLOPs yet. Returns the
/// counters and a checksum of the decoded values (proves the functional
/// path ran).
pub fn stream_base_counters(fmt: StreamFormat, n: usize) -> (Counters, f64) {
    assert_eq!(n % WARP, 0);
    let data: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.618).sin()).collect();
    match fmt {
        StreamFormat::F64Native | StreamFormat::AccF64 => {
            let mut sink = vec![0.0f64; n];
            let c = launch_over(&mut sink, WARP, |w, b, tile| {
                let idxs: [usize; WARP] = std::array::from_fn(|i| b * WARP + i);
                let vals = w.load_f64(&data, &idxs);
                tile.copy_from_slice(&vals);
            });
            (c, sink.iter().sum())
        }
        StreamFormat::F32Native => {
            // Native single precision: no accessor, no widening.
            let narrow: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            let mut sink = vec![0.0f64; n];
            let c = launch_over(&mut sink, WARP, |w, b, tile| {
                let idxs: [usize; WARP] = std::array::from_fn(|i| b * WARP + i);
                let vals = w.load_f32(&narrow, &idxs);
                for (t, &v) in tile.iter_mut().zip(&vals) {
                    *t = v as f64;
                }
            });
            (c, sink.iter().sum())
        }
        StreamFormat::AccF32 => {
            let narrow: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            let mut sink = vec![0.0f64; n];
            let c = launch_over(&mut sink, WARP, |w, b, tile| {
                let idxs: [usize; WARP] = std::array::from_fn(|i| b * WARP + i);
                let vals = w.load_f32(&narrow, &idxs);
                for (t, &v) in tile.iter_mut().zip(&vals) {
                    // The accessor's F2F.F64.F32 conversion (fp64 pipe).
                    *t = w.f64_add(v as f64, 0.0);
                }
            });
            (c, sink.iter().sum())
        }
        StreamFormat::AccF16 => {
            let narrow: Vec<u16> = data.iter().map(|&v| numfmt_f16_bits(v)).collect();
            let mut sink = vec![0.0f64; n];
            let c = launch_over(&mut sink, WARP, |w, b, tile| {
                let idxs: [usize; WARP] = std::array::from_fn(|i| b * WARP + i);
                let vals = w.load_u16(&narrow, &idxs);
                for (t, &v) in tile.iter_mut().zip(&vals) {
                    let _ = w.i_and(v as u64, 0x7FFF); // unpack
                    *t = w.f64_add(f16_bits_to_f64(v), 0.0); // cvt
                }
            });
            (c, sink.iter().sum())
        }
        StreamFormat::Frsz2(l) => {
            let cfg = Frsz2Config::new(32, l);
            let v = frsz2::Frsz2Vector::compress(cfg, &data);
            let (out, c) = frsz2_decompress_sim(cfg, v.words(), v.exponents(), n);
            (c, out.iter().sum())
        }
    }
}

fn numfmt_f16_bits(v: f64) -> u16 {
    numfmt::F16::from_f64(v).to_bits()
}

fn f16_bits_to_f64(bits: u16) -> f64 {
    numfmt::F16::from_bits(bits).to_f64()
}

/// One point of the Fig. 4 sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    pub ai: f64,
    pub gflops: f64,
    pub bottleneck: &'static str,
    /// Achieved memory bandwidth in GB/s at this point.
    pub bandwidth_gbs: f64,
}

/// Fig. 4: GFLOP/s as a function of arithmetic intensity for one storage
/// format. The streaming pass is *measured* once (instruction counts
/// from the simulated kernel); the synthetic per-value FLOPs — the
/// benchmark's independent variable — are added to the measured
/// counters, exactly like the real benchmark's unrolled FMA loop.
pub fn ai_series(dev: &DeviceSpec, fmt: StreamFormat, n: usize, ais: &[f64]) -> Vec<SweepPoint> {
    let (base, _checksum) = stream_base_counters(fmt, n);
    ais.iter()
        .map(|&ai| {
            let mut c = base;
            let flops = (ai * n as f64) as u64;
            match fmt {
                StreamFormat::F32Native => c.fp32 += flops,
                _ => c.fp64 += flops,
            }
            let cost = estimate(dev, &c);
            SweepPoint {
                ai,
                gflops: flops as f64 / cost.total / 1e9,
                bottleneck: cost.bottleneck(),
                bandwidth_gbs: cost.achieved_bandwidth(c.total_bytes()) / 1e9,
            }
        })
        .collect()
}

/// §IV-C bandwidth claim: the streaming-read bandwidth of a format as a
/// fraction of the device peak (frsz2_32 reaches ~99.6 % on the H100).
pub fn stream_bandwidth_fraction(dev: &DeviceSpec, fmt: StreamFormat, n: usize) -> f64 {
    let (c, _) = stream_base_counters(fmt, n);
    let cost = estimate(dev, &c);
    cost.achieved_bandwidth(c.total_bytes()) / dev.mem_bw
}

/// Cost of one pass for reporting.
pub fn stream_cost(dev: &DeviceSpec, fmt: StreamFormat, n: usize) -> (Counters, CostBreakdown) {
    let (c, _) = stream_base_counters(fmt, n);
    let cost = estimate(dev, &c);
    (c, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::H100_PCIE;

    fn wave(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.37).sin() * 0.93).collect()
    }

    #[test]
    fn simulated_decompression_matches_cpu_codec() {
        let data = wave(320);
        for l in [16u32, 21, 32] {
            let cfg = Frsz2Config::new(32, l);
            let v = frsz2::Frsz2Vector::compress(cfg, &data);
            let (out, counters) = frsz2_decompress_sim(cfg, v.words(), v.exponents(), 320);
            let expect = v.decompress();
            for i in 0..320 {
                assert_eq!(
                    out[i].to_bits(),
                    expect[i].to_bits(),
                    "l={l} value {i} differs from CPU codec"
                );
            }
            assert!(counters.int > 0 && counters.clz > 0);
        }
    }

    #[test]
    fn simulated_compression_matches_cpu_codec() {
        let data = wave(128);
        for l in [16u32, 21, 32] {
            let cfg = Frsz2Config::new(32, l);
            let v = frsz2::Frsz2Vector::compress(cfg, &data);
            let (words, exps, counters) = frsz2_compress_sim(cfg, &data);
            assert_eq!(exps, v.exponents(), "l={l} exponents differ");
            assert_eq!(words, v.words(), "l={l} code words differ");
            assert!(counters.shfl > 0, "emax must use warp shuffles");
        }
    }

    #[test]
    fn decompression_instruction_budget_is_tight() {
        // §I: ~46 spare operations per value at 32 bits. The l=32 decode
        // must fit comfortably.
        let data = wave(32_000);
        let cfg = Frsz2Config::new(32, 32);
        let v = frsz2::Frsz2Vector::compress(cfg, &data);
        let (_, c) = frsz2_decompress_sim(cfg, v.words(), v.exponents(), 32_000);
        let per_value = (c.int + c.clz) as f64 / 32_000.0;
        assert!(
            per_value < 20.0,
            "decompression must stay under ~20 ops/value, got {per_value}"
        );
        assert!(per_value > 5.0, "counting should see the real work");
    }

    #[test]
    fn frsz2_32_saturates_bandwidth_frsz2_16_does_not_double() {
        let n = 1 << 16;
        let f32bw = stream_bandwidth_fraction(&H100_PCIE, StreamFormat::F32Native, n);
        let z32 = stream_bandwidth_fraction(&H100_PCIE, StreamFormat::Frsz2(32), n);
        // §IV-C: frsz2_32 reaches ≈99.6 % of attainable bandwidth.
        assert!(z32 > 0.95, "frsz2_32 bandwidth fraction {z32}");
        assert!(f32bw > 0.95);
        // l = 16 is *not* 2x float32 at equal intensity: it leaves the
        // bandwidth roof because decompression saturates the int pipe.
        let t32 = stream_cost(&H100_PCIE, StreamFormat::F32Native, n).1.total;
        let t16 = stream_cost(&H100_PCIE, StreamFormat::Frsz2(16), n).1.total;
        let speedup = t32 / t16;
        assert!(
            speedup < 1.9,
            "frsz2_16 must not be a full 2x over float32, got {speedup}"
        );
    }

    #[test]
    fn frsz2_21_no_faster_than_frsz2_32() {
        // §IV-C: "the overhead in the more complex index computation and
        // the unaligned memory read operation is too high to translate
        // to higher performance".
        let n = 1 << 16;
        let t21 = stream_cost(&H100_PCIE, StreamFormat::Frsz2(21), n).1.total;
        let t32 = stream_cost(&H100_PCIE, StreamFormat::Frsz2(32), n).1.total;
        assert!(
            t21 > t32 * 0.85,
            "frsz2_21 ({t21:.3e}s) should not meaningfully beat frsz2_32 ({t32:.3e}s)"
        );
    }

    #[test]
    fn accessor_is_zero_cost_when_memory_bound() {
        // Fig. 4: Acc<float64> identical to native float64 while
        // memory-bound.
        let n = 1 << 14;
        let ais = [1.0, 4.0, 16.0];
        let native = ai_series(&H100_PCIE, StreamFormat::F64Native, n, &ais);
        let acc = ai_series(&H100_PCIE, StreamFormat::AccF64, n, &ais);
        for (a, b) in native.iter().zip(&acc) {
            assert!(
                (a.gflops - b.gflops).abs() < 1e-9,
                "accessor overhead visible"
            );
        }
    }

    #[test]
    fn fig4_orderings_hold() {
        let n = 1 << 14;
        let low_ai = [4.0];
        let perf = |f| ai_series(&H100_PCIE, f, n, &low_ai)[0].gflops;
        let f64p = perf(StreamFormat::F64Native);
        let f32p = perf(StreamFormat::F32Native);
        let z32 = perf(StreamFormat::Frsz2(32));
        let z16 = perf(StreamFormat::Frsz2(16));
        // Memory-bound ordering: f32 ≈ frsz2_32 ≈ 2x f64; frsz2_16 fastest.
        assert!(f32p > 1.8 * f64p);
        assert!(z32 > 1.8 * f64p);
        assert!(z16 > z32);
        // High intensity: everyone meets at the fp64 roof (float32
        // computes in fp32 and reaches its own, higher roof).
        let high = [2000.0];
        let f64h = ai_series(&H100_PCIE, StreamFormat::F64Native, n, &high)[0].gflops;
        let z32h = ai_series(&H100_PCIE, StreamFormat::Frsz2(32), n, &high)[0].gflops;
        let f32h = ai_series(&H100_PCIE, StreamFormat::F32Native, n, &high)[0].gflops;
        assert!((f64h - z32h).abs() / f64h < 0.05);
        assert!(f32h > 1.5 * f64h, "native f32 saturates at the fp32 roof");
    }
}
