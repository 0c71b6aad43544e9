//! The 32-lane warp execution context.
//!
//! Kernels are written warp-synchronously: per-lane scalar phases use
//! the counted arithmetic wrappers (`i_*`, `f64_*`, [`WarpCtx::clz`]),
//! warp-collective phases use shuffles ([`WarpCtx::shfl_xor_u32`]) and
//! coalesced memory accessors. Every wrapper both *performs* the
//! operation (the simulation is functional — results are bit-exact) and
//! *counts* it, so the instruction mix reported for a kernel is whatever
//! its control flow actually executed.

use crate::counters::{Counters, InstrClass};

/// Lanes per warp (fixed at 32: the paper mandates `BS = 32` because of
/// exactly this, §IV-C optimization (2)).
pub const WARP: usize = 32;

/// Execution context of one warp.
#[derive(Default)]
pub struct WarpCtx {
    pub counters: Counters,
}

impl WarpCtx {
    pub fn new() -> Self {
        WarpCtx::default()
    }

    // ---- counted per-lane scalar ALU wrappers -------------------------

    #[inline(always)]
    pub fn i_and(&mut self, a: u64, b: u64) -> u64 {
        self.counters.bump(InstrClass::Int, 1);
        a & b
    }

    #[inline(always)]
    pub fn i_or(&mut self, a: u64, b: u64) -> u64 {
        self.counters.bump(InstrClass::Int, 1);
        a | b
    }

    #[inline(always)]
    pub fn i_shl(&mut self, a: u64, s: u32) -> u64 {
        self.counters.bump(InstrClass::Int, 1);
        if s >= 64 {
            0
        } else {
            a << s
        }
    }

    #[inline(always)]
    pub fn i_shr(&mut self, a: u64, s: u32) -> u64 {
        self.counters.bump(InstrClass::Int, 1);
        if s >= 64 {
            0
        } else {
            a >> s
        }
    }

    #[inline(always)]
    pub fn i_add(&mut self, a: u64, b: u64) -> u64 {
        self.counters.bump(InstrClass::Int, 1);
        a.wrapping_add(b)
    }

    #[inline(always)]
    pub fn i_sub(&mut self, a: i64, b: i64) -> i64 {
        self.counters.bump(InstrClass::Int, 1);
        a.wrapping_sub(b)
    }

    #[inline(always)]
    pub fn i_max(&mut self, a: u32, b: u32) -> u32 {
        self.counters.bump(InstrClass::Int, 1);
        a.max(b)
    }

    /// Predicated select (one ISETP+SEL pair, counted as one ALU op as
    /// NVCC fuses these in the decompression inner loop).
    #[inline(always)]
    pub fn i_select(&mut self, cond: bool, t: u64, f: u64) -> u64 {
        self.counters.bump(InstrClass::Int, 1);
        if cond {
            t
        } else {
            f
        }
    }

    /// The `count_zero` intrinsic (`__clz`): §IV-C calls it "mandatory
    /// for good performance".
    #[inline(always)]
    pub fn clz(&mut self, v: u64) -> u32 {
        self.counters.bump(InstrClass::Clz, 1);
        v.leading_zeros()
    }

    // ---- counted floating-point wrappers (counters hold FLOPs) --------

    #[inline(always)]
    pub fn f64_add(&mut self, a: f64, b: f64) -> f64 {
        self.counters.bump(InstrClass::Fp64, 1);
        a + b
    }

    // ---- warp collectives ---------------------------------------------

    /// Butterfly shuffle: lane `i` receives the value of lane `i ^ mask`.
    pub fn shfl_xor_u32(&mut self, vals: &[u32; WARP], mask: u32) -> [u32; WARP] {
        self.counters.bump(InstrClass::Shfl, WARP as u64);
        std::array::from_fn(|i| vals[(i as u32 ^ mask) as usize % WARP])
    }

    /// Warp max-reduction via 5 butterfly rounds (the `emax` reduction
    /// of the FRSZ2 compression kernel, §IV-C optimization (2)).
    pub fn reduce_max_u32(&mut self, vals: &[u32; WARP]) -> u32 {
        let mut cur = *vals;
        let mut mask = 1u32;
        while mask < WARP as u32 {
            let other = self.shfl_xor_u32(&cur, mask);
            for i in 0..WARP {
                cur[i] = self.i_max(cur[i], other[i]);
            }
            mask <<= 1;
        }
        cur[0]
    }

    // ---- coalesced global memory ---------------------------------------

    /// Count the 32-byte sectors touched by per-lane accesses of
    /// `size` bytes at element indices `idxs`. Device allocations are
    /// sector-aligned (cudaMalloc guarantees 256 B), so only element
    /// offsets matter — host heap addresses are deliberately ignored.
    fn account_sectors(&mut self, _base: usize, idxs: &[usize], size: usize, write: bool) {
        // Warp-level coalescing: collect distinct sectors.
        let mut sectors = [usize::MAX; WARP];
        let mut count = 0usize;
        for &i in idxs {
            let s = (i * size) / 32;
            if !sectors[..count].contains(&s) {
                sectors[count] = s;
                count += 1;
            }
        }
        let c = self.counters_mut();
        if write {
            c.sectors_written += count as u64;
            c.bytes_written += 32 * count as u64;
        } else {
            c.sectors_read += count as u64;
            c.bytes_read += 32 * count as u64;
        }
    }

    #[inline]
    fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Coalesced per-lane `u32` loads.
    pub fn load_u32(&mut self, mem: &[u32], idxs: &[usize; WARP]) -> [u32; WARP] {
        self.account_sectors(mem.as_ptr() as usize, idxs, 4, false);
        std::array::from_fn(|i| mem[idxs[i]])
    }

    /// Coalesced per-lane `u16` loads.
    pub fn load_u16(&mut self, mem: &[u16], idxs: &[usize; WARP]) -> [u16; WARP] {
        self.account_sectors(mem.as_ptr() as usize, idxs, 2, false);
        std::array::from_fn(|i| mem[idxs[i]])
    }

    /// Per-lane `u32` loads that hit in L1 (the word was fetched by an
    /// overlapping earlier load): no DRAM bytes, but the load/store
    /// units still issue the transactions — the unaligned-read cost that
    /// keeps `frsz2_21` from outrunning `frsz2_32` (§IV-C).
    pub fn load_u32_l1(&mut self, mem: &[u32], idxs: &[usize; WARP]) -> [u32; WARP] {
        let mut sectors = [usize::MAX; WARP];
        let mut count = 0usize;
        for &i in idxs {
            let s = (i * 4) / 32;
            if !sectors[..count].contains(&s) {
                sectors[count] = s;
                count += 1;
            }
        }
        self.counters.sectors_read += count as u64;
        std::array::from_fn(|i| mem[idxs[i]])
    }

    /// Coalesced per-lane `f64` loads.
    pub fn load_f64(&mut self, mem: &[f64], idxs: &[usize; WARP]) -> [f64; WARP] {
        self.account_sectors(mem.as_ptr() as usize, idxs, 8, false);
        std::array::from_fn(|i| mem[idxs[i]])
    }

    /// Coalesced per-lane `f32` loads.
    pub fn load_f32(&mut self, mem: &[f32], idxs: &[usize; WARP]) -> [f32; WARP] {
        self.account_sectors(mem.as_ptr() as usize, idxs, 4, false);
        std::array::from_fn(|i| mem[idxs[i]])
    }

    /// One lane loads a scalar, broadcast to the warp (the per-block
    /// `emax` read: "cached for all threads of the warp", §IV-C).
    ///
    /// Bills 4 bytes of DRAM traffic, not a whole sector: consecutive
    /// warps read consecutive exponents, so each 32 B sector is shared
    /// by 8 blocks through L2 — this is what makes FRSZ2's effective
    /// rate 33 bits/value rather than 40 (Eq. 3 discussion in §IV-C).
    pub fn load_broadcast_u32(&mut self, mem: &[u32], idx: usize) -> u32 {
        self.counters.bytes_read += 4;
        self.counters.sectors_read += 1; // one LSU transaction regardless
        self.counters.bump(InstrClass::Shfl, 1); // broadcast
        mem[idx]
    }

    /// Coalesced per-lane `u32` stores.
    pub fn store_u32(&mut self, mem: &mut [u32], idxs: &[usize; WARP], vals: &[u32; WARP]) {
        self.account_sectors(mem.as_ptr() as usize, idxs, 4, true);
        for (i, &idx) in idxs.iter().enumerate() {
            mem[idx] = vals[i];
        }
    }

    /// Single-lane `u32` store (block exponent).
    pub fn store_scalar_u32(&mut self, mem: &mut [u32], idx: usize, val: u32) {
        self.account_sectors(mem.as_ptr() as usize, &[idx], 4, true);
        mem[idx] = val;
    }

    /// Account the traffic of a coalesced `u32` store whose data was
    /// already materialized by a host-side helper (used by the packed
    /// FRSZ2 store path, where the bit packer writes the words).
    pub fn account_store_only(&mut self, mem: &[u32], idxs: &[usize; WARP], _vals: &[u32; WARP]) {
        self.account_sectors(mem.as_ptr() as usize, idxs, 4, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_wrappers_compute_and_count() {
        let mut w = WarpCtx::new();
        assert_eq!(w.i_and(0b1100, 0b1010), 0b1000);
        assert_eq!(w.i_shl(1, 10), 1024);
        assert_eq!(w.i_shr(1024, 3), 128);
        assert_eq!(w.i_shl(1, 80), 0, "oversized shifts saturate to zero");
        assert_eq!(w.clz(1u64 << 52), 11);
        assert_eq!(w.counters.int, 4);
        assert_eq!(w.counters.clz, 1);
    }

    #[test]
    fn reduce_max_matches_scalar_max() {
        let mut w = WarpCtx::new();
        let vals: [u32; WARP] = std::array::from_fn(|i| ((i * 37) % 29) as u32 + 1);
        let m = w.reduce_max_u32(&vals);
        assert_eq!(m, *vals.iter().max().unwrap());
        // 5 butterfly rounds: 5*32 shuffles and 5*32 max ops.
        assert_eq!(w.counters.shfl, 160);
        assert_eq!(w.counters.int, 160);
    }

    #[test]
    fn coalesced_f64_load_touches_eight_sectors() {
        let mut w = WarpCtx::new();
        let mem: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let idxs: [usize; WARP] = std::array::from_fn(|i| i);
        let vals = w.load_f64(&mem, &idxs);
        assert_eq!(vals[7], 7.0);
        // 32 consecutive f64 = 256 bytes = exactly 8 sectors.
        assert_eq!(w.counters.sectors_read, 8);
        assert_eq!(w.counters.bytes_read, 256);
    }

    #[test]
    fn strided_load_wastes_sectors() {
        let mut w = WarpCtx::new();
        let mem: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        // Stride 8: every lane in its own sector.
        let idxs: [usize; WARP] = std::array::from_fn(|i| i * 8);
        w.load_f64(&mem, &idxs);
        assert!(
            w.counters.sectors_read >= 32,
            "uncoalesced access must cost full sectors"
        );
    }

    #[test]
    fn u16_loads_coalesce_two_per_sector_pair() {
        let mut w = WarpCtx::new();
        let mem: Vec<u16> = (0..64).map(|i| i as u16).collect();
        let idxs: [usize; WARP] = std::array::from_fn(|i| i);
        w.load_u16(&mem, &idxs);
        // 32 consecutive u16 = 64 bytes = exactly 2 sectors.
        assert_eq!(w.counters.sectors_read, 2);
    }

    #[test]
    fn broadcast_costs_one_transaction_four_bytes() {
        let mut w = WarpCtx::new();
        let mem = vec![7u32; 100];
        assert_eq!(w.load_broadcast_u32(&mem, 50), 7);
        assert_eq!(w.counters.sectors_read, 1);
        assert_eq!(
            w.counters.bytes_read, 4,
            "L2-shared sector bills only its data"
        );
    }
}
