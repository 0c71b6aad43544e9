//! Canonical Huffman coding for quantization-code streams.
//!
//! SZ and SZ3 owe most of their compression ratio to entropy-coding the
//! quantization codes; using a real Huffman stage (rather than a size
//! estimate) makes the bits-per-value numbers in Figs. 5/6 honest.

use crate::bitstream::{BitReader, BitWriter};
use crate::DecodeError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Maximum canonical code length we accept (f64 streams of < 2^40
/// symbols cannot exceed this with the heap construction below).
const MAX_LEN: u32 = 56;

/// Compute canonical code lengths from symbol frequencies.
fn code_lengths(freqs: &HashMap<u32, u64>) -> HashMap<u32, u32> {
    let mut symbols: Vec<(u32, u64)> = freqs.iter().map(|(&s, &f)| (s, f)).collect();
    symbols.sort_unstable();
    if symbols.is_empty() {
        return HashMap::new();
    }
    if symbols.len() == 1 {
        return HashMap::from([(symbols[0].0, 1)]);
    }

    // Internal tree: parent[id] for every node, leaves first.
    let n = symbols.len();
    let mut parent = vec![usize::MAX; 2 * n - 1];
    // A min-heap on (weight, id): ties break on id, for determinism.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = symbols
        .iter()
        .enumerate()
        .map(|(id, &(_, f))| Reverse((f, id)))
        .collect();
    let mut next_id = n;
    while let (Some(Reverse((wa, a))), Some(Reverse((wb, b)))) = (heap.pop(), heap.pop()) {
        parent[a] = next_id;
        parent[b] = next_id;
        heap.push(Reverse((wa + wb, next_id)));
        next_id += 1;
    }

    symbols
        .iter()
        .enumerate()
        .map(|(mut id, &(s, _))| {
            let mut len = 0u32;
            while parent[id] != usize::MAX {
                id = parent[id];
                len += 1;
            }
            (s, len.min(MAX_LEN))
        })
        .collect()
}

/// Assign canonical codes (shorter lengths first, ties by symbol value).
fn canonical_codes(lengths: &HashMap<u32, u32>) -> Vec<(u32, u32, u64)> {
    // (symbol, length, code), sorted by (length, symbol).
    let mut order: Vec<(u32, u32)> = lengths.iter().map(|(&s, &l)| (s, l)).collect();
    order.sort_unstable_by_key(|&(s, l)| (l, s));
    let mut codes = Vec::with_capacity(order.len());
    let mut code = 0u64;
    let mut prev_len = 0u32;
    for (s, l) in order {
        code <<= l - prev_len;
        codes.push((s, l, code));
        code += 1;
        prev_len = l;
    }
    codes
}

/// Encode `symbols` into `w`: a self-describing table followed by codes.
pub fn encode(symbols: &[u32], w: &mut BitWriter) {
    let mut freqs = HashMap::new();
    for &s in symbols {
        *freqs.entry(s).or_insert(0u64) += 1;
    }
    let lengths = code_lengths(&freqs);
    let codes = canonical_codes(&lengths);

    // Table: distinct-symbol count, then (symbol:32, length:6) pairs.
    w.write_bits(codes.len() as u64, 32);
    for &(s, l, _) in &codes {
        w.write_bits(s as u64, 32);
        w.write_bits(l as u64, 6);
    }
    // Payload: symbol count then the codes (canonical codes are written
    // MSB-first so prefix decoding works on the LSB-first stream).
    w.write_bits(symbols.len() as u64, 40);
    let table: HashMap<u32, (u32, u64)> = codes.iter().map(|&(s, l, c)| (s, (l, c))).collect();
    for &s in symbols {
        let (l, c) = table[&s];
        for b in (0..l).rev() {
            w.write_bit((c >> b) & 1 == 1);
        }
    }
}

/// Decode a stream produced by [`encode`]. A code length outside
/// `1..=MAX_LEN`, a code that names no symbol, and a count the stream
/// cannot hold are errors.
pub fn decode(r: &mut BitReader) -> Result<Vec<u32>, DecodeError> {
    // `encode` lists the table by ascending (length, symbol), so the codes
    // of one length are consecutive: canonical decoding needs only the
    // symbols in table order and the number of codes of each length.
    let distinct = r.read_count(32, 38)?;
    let mut table = Vec::with_capacity(distinct);
    let mut count = [0u64; MAX_LEN as usize + 1];
    for _ in 0..distinct {
        table.push(r.read_bits(32) as u32);
        let l = r.read_bits(6) as usize;
        if !(1..=MAX_LEN as usize).contains(&l) {
            return Err(DecodeError::Corrupt("Huffman code length out of range"));
        }
        count[l] += 1;
    }
    let n = r.read_count(40, 1)?;
    let mut out = Vec::with_capacity(n);
    'symbols: for _ in 0..n {
        // `first` is the first code of the current length and `index` its
        // table position; a code never falls below `first`.
        let (mut code, mut first, mut index) = (0u64, 0u64, 0usize);
        for &c in &count[1..] {
            code |= r.read_bit() as u64;
            if code - first < c {
                out.push(table[index + (code - first) as usize]);
                continue 'symbols;
            }
            index += c as usize;
            first = (first + c) << 1;
            code <<= 1;
        }
        return Err(DecodeError::Corrupt("Huffman code names no symbol"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) -> Vec<u32> {
        let mut w = BitWriter::new();
        encode(symbols, &mut w);
        let bytes = w.into_bytes();
        decode(&mut BitReader::new(&bytes)).expect("decodes")
    }

    #[test]
    fn roundtrip_simple() {
        let data = vec![1, 2, 2, 3, 3, 3, 3, 1, 2, 3];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_single_symbol() {
        let data = vec![42; 1000];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(roundtrip(&[]), Vec::<u32>::new());
    }

    #[test]
    fn roundtrip_many_distinct() {
        let data: Vec<u32> = (0..5000).map(|i| (i * i) % 257).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn skewed_distribution_compresses_well() {
        // 95% zeros: entropy ~0.3 bits/symbol; Huffman gets ~1 bit.
        let data: Vec<u32> = (0..20_000)
            .map(|i| if i % 20 == 0 { i as u32 % 7 + 1 } else { 0 })
            .collect();
        let mut w = BitWriter::new();
        encode(&data, &mut w);
        let bits = w.bit_len();
        let bpv = bits as f64 / data.len() as f64;
        assert!(
            bpv < 2.0,
            "expected < 2 bits/symbol on skewed data, got {bpv}"
        );
        // And it still round-trips.
        let bytes = w.into_bytes();
        assert_eq!(decode(&mut BitReader::new(&bytes)), Ok(data));
    }

    #[test]
    fn uniform_distribution_near_log2() {
        let data: Vec<u32> = (0..4096).map(|i| i as u32 % 16).collect();
        let mut w = BitWriter::new();
        encode(&data, &mut w);
        let bpv = w.bit_len() as f64 / data.len() as f64;
        // 16 equiprobable symbols need 4 bits each (+ table overhead).
        assert!(bpv < 4.3, "got {bpv}");
        assert!(bpv >= 4.0);
    }

    #[test]
    fn deterministic_encoding() {
        let data: Vec<u32> = (0..1000).map(|i| (i * 7) as u32 % 31).collect();
        let mut w1 = BitWriter::new();
        let mut w2 = BitWriter::new();
        encode(&data, &mut w1);
        encode(&data, &mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }
}
