//! The shared stream envelope: `[len: u32][crc: u32][body]`.
//!
//! Every TCP protocol in this workspace — the SPMD mesh (`mrbc-net`) and
//! the query service (`mrbc-serve`) — frames its messages identically:
//! a little-endian length prefix counting everything after itself, a
//! CRC-32 of the body, and the body bytes. This module is the single
//! source of truth for that envelope, so length-bounds policy, checksum
//! validation, and the magic/version handshake preamble cannot drift
//! between protocols.
//!
//! The body's *content* stays protocol-specific (the mesh has a 23-byte
//! frame header, the query service a tagged request/response encoding);
//! only the envelope, the handshake preamble and the blocking
//! [`read_loop`] that turns a socket into bodies are shared.

use std::io::{ErrorKind, Read};
use std::ops::ControlFlow;

use crate::crc::crc32;
use crate::wire::{WireError, WireReader, WireWriter};

/// Hard cap on an envelope's encoded size (64 MiB) — a corrupt length
/// prefix must not trigger an unbounded allocation.
pub const MAX_ENVELOPE_BYTES: usize = 64 << 20;

/// Seals `body` into an envelope: `[len][crc32(body)][body]` where `len`
/// counts the crc field plus the body.
pub fn seal(body: &[u8]) -> Vec<u8> {
    debug_assert!(4 + body.len() <= MAX_ENVELOPE_BYTES, "envelope too large");
    let mut w = WireWriter::with_capacity(8 + body.len());
    w.u32((body.len() + 4) as u32);
    w.u32(crc32(body));
    let mut out = w.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Incremental envelope decoder over a byte stream: feed raw TCP bytes,
/// pull whole checksum-validated bodies.
///
/// `min_body` rejects envelopes whose body is structurally too short for
/// the protocol (the mesh requires its 23-byte frame header; the query
/// service at least a tag byte) *before* any content parsing, so a
/// corrupt length prefix fails fast.
#[derive(Debug)]
pub struct EnvelopeDecoder {
    buf: Vec<u8>,
    min_body: usize,
}

impl Default for EnvelopeDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl EnvelopeDecoder {
    /// Decoder accepting any non-empty body.
    pub fn new() -> Self {
        Self::with_min_body(1)
    }

    /// Decoder rejecting bodies shorter than `min_body` bytes.
    pub fn with_min_body(min_body: usize) -> Self {
        EnvelopeDecoder {
            buf: Vec::new(),
            min_body,
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (for diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to extract the next complete body. `Ok(None)` means more
    /// bytes are needed; an error means the stream is corrupt and the
    /// connection must be dropped (re-synchronizing a byte stream after
    /// a bad length prefix is not possible).
    pub fn next_body(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if !(4 + self.min_body..=MAX_ENVELOPE_BYTES).contains(&len) {
            return Err(WireError::Invalid("envelope length out of bounds"));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let crc = u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]);
        let body = self.buf[8..4 + len].to_vec();
        if crc32(&body) != crc {
            return Err(WireError::Invalid("envelope checksum mismatch"));
        }
        self.buf.drain(..4 + len);
        Ok(Some(body))
    }
}

/// The one envelope read loop: reads `src` until EOF, a read error, a
/// corrupt envelope or a [`ControlFlow::Break`] from `on_body`, handing
/// each checksum-valid body to `on_body` in stream order. Bodies shorter
/// than `min_body` count as corrupt (see
/// [`EnvelopeDecoder::with_min_body`]). Every TCP connection in the
/// workspace runs this on a thread that blocks in `read`; a socket
/// `shutdown` from another thread ends it.
pub fn read_loop<R: Read>(
    src: &mut R,
    min_body: usize,
    mut on_body: impl FnMut(Vec<u8>) -> ControlFlow<()>,
) {
    let mut dec = EnvelopeDecoder::with_min_body(min_body);
    let mut buf = [0u8; 16 * 1024];
    loop {
        match src.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => dec.feed(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        loop {
            match dec.next_body() {
                Ok(Some(body)) => {
                    if on_body(body).is_break() {
                        return;
                    }
                }
                Ok(None) => break,
                // A byte stream cannot be re-synchronized after a bad
                // length prefix or checksum.
                Err(_) => return,
            }
        }
    }
}

/// Writes a handshake preamble (protocol magic + version) into `w`.
pub fn write_preamble(w: &mut WireWriter, magic: u32, version: u32) {
    w.u32(magic);
    w.u32(version);
}

/// Validates a handshake preamble read from `r` against the expected
/// magic and version, distinguishing a foreign protocol from a version
/// skew of the right one.
pub fn check_preamble(r: &mut WireReader<'_>, magic: u32, version: u32) -> Result<(), WireError> {
    if r.u32()? != magic {
        return Err(WireError::Invalid("bad protocol magic"));
    }
    if r.u32()? != version {
        return Err(WireError::Invalid("protocol version mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_decode_roundtrip() {
        let bodies: [&[u8]; 3] = [b"x", b"hello envelope", &[0u8; 1000]];
        let mut d = EnvelopeDecoder::new();
        for body in bodies {
            d.feed(&seal(body));
        }
        for body in bodies {
            assert_eq!(d.next_body().unwrap().unwrap(), body);
        }
        assert_eq!(d.buffered(), 0);
        assert!(d.next_body().unwrap().is_none());
    }

    #[test]
    fn split_delivery_reassembles() {
        let body = vec![7u8; 300];
        let bytes = seal(&body);
        let mut d = EnvelopeDecoder::new();
        let mut got = None;
        for b in bytes {
            d.feed(&[b]);
            if let Some(out) = d.next_body().unwrap() {
                assert!(got.is_none(), "body produced twice");
                got = Some(out);
            }
        }
        assert_eq!(got.unwrap(), body);
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let mut bytes = seal(b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut d = EnvelopeDecoder::new();
        d.feed(&bytes);
        assert!(d.next_body().is_err());
    }

    #[test]
    fn insane_length_prefix_is_rejected_without_allocating() {
        let mut d = EnvelopeDecoder::new();
        d.feed(&u32::MAX.to_le_bytes());
        assert!(d.next_body().is_err());
    }

    #[test]
    fn min_body_policy_rejects_short_envelopes() {
        let short = seal(&[1, 2, 3]);
        let mut strict = EnvelopeDecoder::with_min_body(23);
        strict.feed(&short);
        assert!(strict.next_body().is_err());
        let mut lax = EnvelopeDecoder::new();
        lax.feed(&short);
        assert_eq!(lax.next_body().unwrap().unwrap(), vec![1, 2, 3]);
    }

    /// Hands out at most one byte per `read`, like a slow socket.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn bodies_read_from(src: &mut impl Read, min_body: usize) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        read_loop(src, min_body, |body| {
            got.push(body);
            ControlFlow::Continue(())
        });
        got
    }

    #[test]
    fn read_loop_hands_over_every_body_in_order_until_eof() {
        let bodies: [&[u8]; 3] = [b"first", &[9u8; 300], b"last"];
        let bytes: Vec<u8> = bodies.iter().flat_map(|b| seal(b)).collect();
        assert_eq!(bodies_read_from(&mut &bytes[..], 1), bodies);
        assert_eq!(bodies_read_from(&mut Dribble(&bytes), 1), bodies);
    }

    #[test]
    fn read_loop_stops_at_a_corrupt_envelope_or_a_break() {
        let mut bytes = seal(b"good");
        let bad_at = bytes.len();
        bytes.extend(seal(b"flipped"));
        bytes.extend(seal(b"never seen"));
        bytes[bad_at + 8] ^= 0x01;
        assert_eq!(bodies_read_from(&mut &bytes[..], 1), vec![b"good".to_vec()]);
        // Too short for the policy: corrupt as well.
        assert!(bodies_read_from(&mut &seal(b"abc")[..], 4).is_empty());

        let two: Vec<u8> = [seal(b"a"), seal(b"b")].concat();
        let mut seen = 0;
        read_loop(&mut &two[..], 1, |_| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn preamble_roundtrip_and_mismatches() {
        let mut w = WireWriter::new();
        write_preamble(&mut w, 0xABCD_1234, 7);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        check_preamble(&mut r, 0xABCD_1234, 7).expect("preamble valid");

        let mut r = WireReader::new(&bytes);
        assert_eq!(
            check_preamble(&mut r, 0xABCD_1235, 7),
            Err(WireError::Invalid("bad protocol magic"))
        );
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            check_preamble(&mut r, 0xABCD_1234, 8),
            Err(WireError::Invalid("protocol version mismatch"))
        );
    }
}
