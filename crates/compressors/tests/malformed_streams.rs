//! Decoding what no codec wrote: every truncation and every single-bit
//! flip of one stream per registered codec, and of one FRSZ2-adapter
//! stream, decodes to `Ok` or a typed [`DecodeError`] and never panics,
//! and a forged count is refused before anything is sized from it.
//!
//! Its own test binary: the allocator below records, per thread, the
//! largest single request, and refuses any above 1 GiB outright so that
//! a decoder sizing memory from a forged count fails here instead of
//! reaching for it.

use lossy::bitstream::BitWriter;
use lossy::frsz2_adapter::Frsz2Compressor;
use lossy::sz::{Predictor, SzCompressor};
use lossy::{registry, Compressor, DecodeError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct LargestRequest;

const REFUSED_ABOVE: usize = 1 << 30;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) -> bool {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    size <= REFUSED_ABOVE
}

// SAFETY: every method either returns null (a refused request, which
// `GlobalAlloc` permits) or forwards its arguments unchanged to `System`,
// and `record` touches only a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !record(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !record(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from `System`; the caller's contract holds.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// Smooth values with the raw-escape cases (`1e300`, `-1e-300`, `±0`)
/// mixed in, so every stream carries escapes and zero flags.
fn sample() -> Vec<f64> {
    let mut data: Vec<f64> = (0..48).map(|i| (i as f64 * 0.7).sin() * 0.2).collect();
    data[5] = 1e300;
    data[6] = -1e-300;
    data[7] = -0.0;
    data[8] = 0.0;
    data
}

#[test]
fn malformed_streams_decode_to_ok_or_a_typed_error() {
    let data = sample();
    let n = data.len();
    let mut codecs: Vec<(String, Arc<dyn Compressor>)> = registry::CODECS
        .iter()
        .map(|c| (c.name.to_string(), c.build()))
        .collect();
    let frsz2 = Frsz2Compressor::new(frsz2::Frsz2Config::new(32, 21));
    codecs.push(("frsz2_21 adapter".into(), Arc::new(frsz2)));
    for (name, codec) in &codecs {
        let bytes = codec.compress(&data);
        assert!(codec.decompress(&bytes, n).is_ok(), "{name}: own stream");
        // Every stored bit is read, so every cut loses some: an error.
        for len in 0..bytes.len() {
            assert!(
                codec.decompress(&bytes[..len], n).is_err(),
                "{name}: cut at {len} of {}",
                bytes.len()
            );
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutant = bytes.clone();
                mutant[byte] ^= 1 << bit;
                // No checksum guards a stream: a flip may decode, wrongly.
                if let Ok(values) = codec.decompress(&mutant, n) {
                    assert_eq!(values.len(), n, "{name}: flip {byte}:{bit}");
                }
            }
        }
    }
}

/// An SZ stream of the given `(value, width)` fields.
fn forged(fields: &[(u64, u32)]) -> Vec<u8> {
    let mut w = BitWriter::new();
    for &(value, width) in fields {
        w.write_bits(value, width);
    }
    w.into_bytes()
}

#[test]
fn malformed_forged_counts_are_refused_before_allocating() {
    let eps = (1e-6f64.to_bits(), 64);
    // A one-symbol Huffman table: symbol 1 (code 0) at length 1.
    let (table_size, symbol, length) = ((1, 32), (1, 32), (1, 6));
    let cases = [
        ("table size", forged(&[eps, (u32::MAX as u64, 32)])),
        (
            "symbol count",
            forged(&[eps, table_size, symbol, length, ((1 << 40) - 1, 40)]),
        ),
        (
            "escape count",
            forged(&[
                eps,
                table_size,
                symbol,
                length,
                (4, 40),
                (0, 4),
                ((1 << 40) - 1, 40),
            ]),
        ),
    ];
    let codec = SzCompressor::new(1e-6, Predictor::Lorenzo);
    for (field, bytes) in cases {
        LARGEST.with(|l| l.set(0));
        let got = codec.decompress(&bytes, 4);
        let largest = LARGEST.with(Cell::get);
        assert!(got.is_err(), "{field}: forged count accepted: {got:?}");
        assert!(largest <= 1024, "{field}: allocated {largest} bytes");
    }
}

#[test]
fn malformed_frsz2_exponent_wider_than_11_bits_is_corrupt() {
    // 2^31 as a block exponent overflows the decoder's exponent
    // arithmetic; single bit flips of a real exponent never reach it.
    let codec = Frsz2Compressor::new(frsz2::Frsz2Config::new(32, 21));
    let mut bytes = codec.compress(&sample());
    bytes[..4].copy_from_slice(&0x8000_0000u32.to_le_bytes());
    assert!(matches!(
        codec.decompress(&bytes, 48),
        Err(DecodeError::Corrupt(_))
    ));
}
