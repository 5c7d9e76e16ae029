//! Compact little-endian wire encoding shared by the transport, the SPMD
//! exchange payloads, and the durable checkpoint format.
//!
//! The encoding is deliberately boring: fixed-width little-endian integers,
//! `f64` as raw IEEE-754 bits (so round-tripping is *bit-exact* — required by
//! the determinism contract), and length-prefixed byte strings.  Decoding is
//! bounds-checked and returns a structured [`WireError`] instead of
//! panicking, because frames and checkpoints cross trust boundaries
//! (sockets, disk) and may be truncated or corrupt.

use std::fmt;

/// Structured decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the expected field.
    Truncated {
        /// Bytes still needed by the field being decoded.
        needed: usize,
        /// Bytes actually remaining in the buffer.
        remaining: usize,
    },
    /// A length prefix or tag had a value outside the permitted range.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: field needs {needed} bytes, {remaining} remain"
                )
            }
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked cursor over an encoded byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decode one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Decode a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Decode a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Decode a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Decode an `f64` from its raw IEEE-754 bits (bit-exact round trip).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Decode a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Consume and return every remaining byte (for trailing payloads
    /// whose length is fixed by an outer frame).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

/// Append-only encoder matching [`WireReader`].
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh, empty encoder.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Encode one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Encode a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Encode a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Encode a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Encode an `f64` as its raw IEEE-754 bits (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Encode a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= u32::MAX as usize);
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0); // signed zero must survive bit-exactly
        w.f64(f64::consts_test());
        w.bytes(b"payload");
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::consts_test());
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert!(r.is_empty());
    }

    trait ConstsTest {
        fn consts_test() -> f64;
    }
    impl ConstsTest for f64 {
        fn consts_test() -> f64 {
            1.000_000_000_000_000_2 // not representable exactly in f32
        }
    }

    #[test]
    fn truncation_is_a_structured_error() {
        let mut w = WireWriter::new();
        w.u32(100); // claims 100 payload bytes
        w.u8(1); // …but only one follows
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        match r.bytes() {
            Err(WireError::Truncated {
                needed: 100,
                remaining: 1,
            }) => {}
            other => panic!("expected structured truncation error, got {other:?}"),
        }
    }
}
