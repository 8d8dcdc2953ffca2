//! The one checked little-endian reader behind every binary decoder in
//! the workspace: `BNS1` interaction files ([`crate::serialize`]) and the
//! `bns-serve` model artifact with its IVF index section.
//!
//! A [`Reader`] is a forward cursor over a byte slice. Every read checks
//! its bounds with `checked_*` arithmetic and fails with a [`Truncated`]
//! error naming the field, so a decoder fed arbitrary bytes can only
//! return a typed error, never panic. Positions are absolute offsets into
//! the slice the reader was opened on, which lets decoders hand them
//! straight to the zero-copy [`U32Buf`](crate::storage::U32Buf) and
//! [`F32Buf`](crate::storage::F32Buf) views.
//!
//! ```
//! use bns_data::le::{Reader, Truncated};
//!
//! let bytes = [7, 0, 0, 0, 1, 2];
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.u32("count"), Ok(7));
//! assert_eq!(r.u32("id"), Err(Truncated { what: "id" }));
//! ```

use std::fmt;

/// A read ran past the end of its window, or its offset arithmetic
/// overflowed (which no buffer in memory can satisfy either).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// The field that did not fit.
    pub what: &'static str,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "truncated buffer while reading {}", self.what)
    }
}

impl std::error::Error for Truncated {}

/// A run of little-endian 4-byte words located by [`Reader::words`];
/// [`U32Buf::from_words`](crate::storage::U32Buf::from_words) and
/// [`F32Buf::from_words`](crate::storage::F32Buf::from_words) turn it into
/// a typed buffer.
#[derive(Debug, Clone, Copy)]
pub struct Words<'a> {
    /// Absolute byte offset of the first word in the reader's slice.
    pub(crate) offset: usize,
    words: &'a [[u8; 4]],
}

impl Words<'_> {
    /// Number of words.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// The byte offset of these words within `bytes`, or `None` when they
    /// were read from some other slice (so viewing `bytes` at `offset`
    /// would show different data).
    pub(crate) fn offset_in(&self, bytes: &[u8]) -> Option<usize> {
        let at = bytes.get(self.offset..)?.as_ptr();
        (at == self.words.as_ptr().cast()).then_some(self.offset)
    }

    /// The words decoded as `u32`s.
    pub(crate) fn to_u32s(self) -> Vec<u32> {
        self.words.iter().map(|w| u32::from_le_bytes(*w)).collect()
    }

    /// The words decoded as `f32` bit patterns.
    pub(crate) fn to_f32s(self) -> Vec<f32> {
        self.words
            .iter()
            .map(|w| f32::from_bits(u32::from_le_bytes(*w)))
            .collect()
    }
}

/// A bounds-checked forward cursor over little-endian bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over all of `bytes`, positioned at 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// A reader confined to `bytes[start..start + len]` and positioned at
    /// `start`; fails with `what` when that window is not inside `bytes`.
    pub fn window(
        bytes: &'a [u8],
        start: usize,
        len: usize,
        what: &'static str,
    ) -> Result<Self, Truncated> {
        let bytes = start
            .checked_add(len)
            .and_then(|end| bytes.get(..end))
            .ok_or(Truncated { what })?;
        Ok(Self { bytes, pos: start })
    }

    /// The absolute offset of the next read.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left before the end of the window.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], Truncated> {
        let end = self.pos.checked_add(n).ok_or(Truncated { what })?;
        let out = self.bytes.get(self.pos..end).ok_or(Truncated { what })?;
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], Truncated> {
        self.take(N, what)?
            .first_chunk()
            .copied()
            .ok_or(Truncated { what })
    }

    /// The next byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, Truncated> {
        self.array(what).map(u8::from_le_bytes)
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, Truncated> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, Truncated> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, Truncated> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// The next little-endian `u64` as a length or count. A value beyond
    /// `usize` cannot describe bytes that are present, so it is reported as
    /// truncation too.
    pub fn u64_len(&mut self, what: &'static str) -> Result<usize, Truncated> {
        usize::try_from(self.u64(what)?).map_err(|_| Truncated { what })
    }

    /// The next `n` little-endian 4-byte words.
    pub fn words(&mut self, n: usize, what: &'static str) -> Result<Words<'a>, Truncated> {
        let offset = self.pos;
        let bytes = self.take(n.checked_mul(4).ok_or(Truncated { what })?, what)?;
        let (words, _) = bytes.as_chunks();
        Ok(Words { offset, words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_fields_in_order() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0xA1B2_C3D4u32.to_le_bytes());
        bytes.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        bytes.extend_from_slice(&1.5f32.to_bits().to_le_bytes());
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&[0xEE, 0x34, 0x12]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32("a"), Ok(0xA1B2_C3D4));
        assert_eq!(r.u64("b"), Ok(0x0102_0304_0506_0708));
        let words = r.words(2, "c").unwrap();
        assert_eq!(words.offset, 12);
        assert_eq!(words.len(), 2);
        assert_eq!(words.to_f32s()[0], 1.5);
        assert_eq!(words.to_u32s()[1], 9);
        assert_eq!(r.u8("d"), Ok(0xEE));
        assert_eq!(r.u16("e"), Ok(0x1234));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u32("tail"), Err(Truncated { what: "tail" }));
    }

    #[test]
    fn a_failed_read_consumes_nothing() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32("x"), Err(Truncated { what: "x" }));
        assert_eq!(r.pos(), 0);
        assert_eq!(r.take(3, "y"), Ok(&bytes[..]));
    }

    #[test]
    fn windows_confine_reads_and_keep_absolute_offsets() {
        let bytes = [0u8; 16];
        let mut r = Reader::window(&bytes, 4, 8, "w").unwrap();
        assert_eq!(r.pos(), 4);
        assert_eq!(r.words(2, "x").unwrap().offset, 4);
        assert_eq!(
            r.u32("past the window"),
            Err(Truncated {
                what: "past the window"
            })
        );
        assert!(Reader::window(&bytes, 4, 13, "w").is_err());
        assert!(Reader::window(&bytes, usize::MAX, 1, "w").is_err());
    }

    #[test]
    fn overflowing_sizes_are_truncation_not_panics() {
        let bytes = [0u8; 8];
        let mut r = Reader::new(&bytes);
        r.take(1, "skip").unwrap();
        assert!(r.take(usize::MAX, "huge").is_err());
        assert!(r.words(usize::MAX / 2, "huge words").is_err());
        assert_eq!(r.pos(), 1);
    }
}
