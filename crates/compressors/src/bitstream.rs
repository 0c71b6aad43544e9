//! LSB-first bit stream over a byte buffer.
//!
//! Shared substrate of every codec's byte stream: the Huffman stage,
//! the ZFP-style bit-plane coder, and the little-endian words of the
//! casts and the FRSZ2 adapter.

use crate::DecodeError;

/// Append-only bit writer.
#[derive(Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits used in the last byte (0 = byte boundary).
    used: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Write the low `n` bits of `v` (`n <= 64`).
    pub fn write_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 64);
        debug_assert!(n == 64 || v < (1u64 << n), "value wider than field");
        let mut v = v;
        let mut remaining = n;
        while remaining > 0 {
            if self.used == 0 {
                self.buf.push(0);
            }
            let free = 8 - self.used;
            let take = free.min(remaining);
            let byte = self.buf.last_mut().unwrap();
            *byte |= ((v & ((1u64 << take) - 1)) as u8) << self.used;
            v >>= take;
            self.used = (self.used + take) % 8;
            remaining -= take;
        }
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8
            - if self.used == 0 {
                0
            } else {
                (8 - self.used) as usize
            }
    }

    /// Finish and return the byte buffer (trailing bits zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential bit reader.
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Read `n` bits (`n <= 64`). Reading past the end yields zeros
    /// (decoders check `finish` afterwards).
    pub fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        let mut out = 0u64;
        let mut got = 0u32;
        while got < n {
            let byte = self.buf.get(self.pos / 8).copied().unwrap_or(0);
            let off = (self.pos % 8) as u32;
            let avail = 8 - off;
            let take = avail.min(n - got);
            let bits = ((byte >> off) as u64) & ((1u64 << take) - 1);
            out |= bits << got;
            got += take;
            self.pos += take as usize;
        }
        out
    }

    #[inline]
    pub fn read_bit(&mut self) -> bool {
        self.read_bits(1) != 0
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Read a `bits`-wide count of items that take at least `min_bits`
    /// each, refusing a count the rest of the stream cannot hold, so no
    /// caller sizes an allocation or a loop from a forged count.
    pub(crate) fn read_count(&mut self, bits: u32, min_bits: u64) -> Result<usize, DecodeError> {
        let count = self.read_bits(bits);
        let remaining = (self.buf.len() * 8)
            .checked_sub(self.pos)
            .ok_or(DecodeError::Truncated)?;
        if count.saturating_mul(min_bits) > remaining as u64 {
            return Err(DecodeError::Truncated);
        }
        Ok(count as usize)
    }

    /// `Err(Truncated)` once a read has gone past the end of the stream.
    pub(crate) fn finish(&self) -> Result<(), DecodeError> {
        if self.pos <= self.buf.len() * 8 {
            Ok(())
        } else {
            Err(DecodeError::Truncated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bit(false);
        w.write_bit(true);
        w.write_bits(0xDEAD_BEEF_CAFE_0123, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), 0b101);
        assert_eq!(r.read_bits(16), 0xFFFF);
        assert!(!r.read_bit());
        assert!(r.read_bit());
        assert_eq!(r.read_bits(64), 0xDEAD_BEEF_CAFE_0123);
    }

    #[test]
    fn bit_len_tracks_exactly() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(3, 2);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn reading_past_end_returns_zeros() {
        let bytes = vec![0xFF];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), 0xFF);
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.read_bits(16), 0);
        assert_eq!(r.finish(), Err(DecodeError::Truncated));
    }

    #[test]
    fn a_count_the_stream_cannot_hold_is_refused() {
        let mut w = BitWriter::new();
        w.write_bits(3, 8);
        w.write_bits(0, 24);
        let bytes = w.into_bytes();
        // Three 8-bit items fit in the 24 bits that follow.
        assert_eq!(BitReader::new(&bytes).read_count(8, 8), Ok(3));
        assert_eq!(
            BitReader::new(&bytes).read_count(8, 9),
            Err(DecodeError::Truncated)
        );
        let mut past = BitReader::new(&bytes);
        past.read_bits(32);
        assert_eq!(past.read_count(8, 0), Err(DecodeError::Truncated));
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }
}
