//! Length-prefixed, checksummed wire framing with a versioned handshake.
//!
//! Every frame on a mesh connection is
//!
//! ```text
//! [len: u32][crc: u32][kind: u8][from: u16][epoch: u32][step: u64][seq: u64][payload…]
//! ```
//!
//! `len` counts everything after the length field itself (crc + header +
//! payload); `crc` is the CRC-32 of everything after the crc field. The
//! `epoch` stamps which incarnation of the run produced the frame —
//! after a crash-restart recovery the launcher bumps the epoch and
//! stragglers from the previous incarnation are discarded on receipt.
//! `seq` is the per-(sender, receiver) reliability sequence number for
//! [`Data`](FrameKind::Data) frames and the cumulative acknowledgement
//! for [`Ack`](FrameKind::Ack) frames; other kinds carry 0.
//!
//! The handshake: the dialing side sends a [`FrameKind::Hello`] whose
//! payload is the protocol magic + version + its listen rank; the
//! accepting side validates and answers [`FrameKind::Welcome`] with its
//! own rank. Version skew or a corrupt hello terminates the connection
//! before any data flows.
//!
//! The `[len][crc][body]` envelope itself (length bounds, checksum
//! validation, handshake preamble, the blocking read loop) lives in
//! [`mrbc_util::framing`], shared with the `mrbc-serve` query protocol;
//! this module only defines the mesh-specific body layout.

use std::io::Read;
use std::ops::ControlFlow;

use mrbc_util::framing;
use mrbc_util::wire::{WireError, WireReader, WireWriter};

/// Protocol magic carried in every handshake payload: `"MRBC"`.
pub const PROTOCOL_MAGIC: u32 = 0x4342_524D;
/// Protocol version; bumped on any wire-format change.
pub const PROTOCOL_VERSION: u32 = 1;
/// Hard cap on a frame's encoded size (64 MiB) — a corrupt length
/// prefix must not trigger an unbounded allocation.
pub const MAX_FRAME_BYTES: usize = framing::MAX_ENVELOPE_BYTES;

/// Fixed frame-header length (bytes) ahead of the payload: kind + from +
/// epoch + step + seq. The envelope read loop rejects anything shorter.
const HEADER_BYTES: usize = 23;

/// Frame discriminator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Dialer's half of the handshake (payload: magic, version, rank).
    Hello,
    /// Acceptor's half of the handshake (payload: magic, version, rank).
    Welcome,
    /// One step's allgather payload, reliability-sequenced.
    Data,
    /// Cumulative acknowledgement (`seq` = highest delivered in order).
    Ack,
    /// Liveness beacon for the failure detector.
    Heartbeat,
    /// Orderly goodbye (the peer is shutting down cleanly).
    Bye,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Welcome => 1,
            FrameKind::Data => 2,
            FrameKind::Ack => 3,
            FrameKind::Heartbeat => 4,
            FrameKind::Bye => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => FrameKind::Hello,
            1 => FrameKind::Welcome,
            2 => FrameKind::Data,
            3 => FrameKind::Ack,
            4 => FrameKind::Heartbeat,
            5 => FrameKind::Bye,
            _ => return Err(WireError::Invalid("unknown frame kind")),
        })
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Discriminator.
    pub kind: FrameKind,
    /// Sender's rank.
    pub from: u16,
    /// Run incarnation the frame belongs to.
    pub epoch: u32,
    /// SPMD step the frame belongs to (Data frames; 0 otherwise).
    pub step: u64,
    /// Reliability sequence (Data) or cumulative ack (Ack); 0 otherwise.
    pub seq: u64,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a payload-free frame.
    pub fn control(kind: FrameKind, from: u16, epoch: u32) -> Self {
        Frame {
            kind,
            from,
            epoch,
            step: 0,
            seq: 0,
            payload: Vec::new(),
        }
    }

    /// Builds a handshake frame ([`FrameKind::Hello`] / [`FrameKind::Welcome`])
    /// whose payload pins magic + version + rank.
    pub fn handshake(kind: FrameKind, rank: u16, epoch: u32) -> Self {
        let mut w = WireWriter::with_capacity(10);
        framing::write_preamble(&mut w, PROTOCOL_MAGIC, PROTOCOL_VERSION);
        w.u16(rank);
        Frame {
            kind,
            from: rank,
            epoch,
            step: 0,
            seq: 0,
            payload: w.into_bytes(),
        }
    }

    /// Validates a handshake payload, returning the announced rank.
    pub fn handshake_rank(&self) -> Result<u16, WireError> {
        let mut r = WireReader::new(&self.payload);
        framing::check_preamble(&mut r, PROTOCOL_MAGIC, PROTOCOL_VERSION)?;
        let rank = r.u16()?;
        if rank != self.from {
            return Err(WireError::Invalid("handshake rank disagrees with header"));
        }
        Ok(rank)
    }

    /// Encodes the frame, including length prefix and checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = WireWriter::with_capacity(HEADER_BYTES + self.payload.len());
        body.u8(self.kind.to_u8());
        body.u16(self.from);
        body.u32(self.epoch);
        body.u64(self.step);
        body.u64(self.seq);
        let mut body = body.into_bytes();
        body.extend_from_slice(&self.payload);
        framing::seal(&body)
    }

    /// Decodes one envelope body ([`read_frames`] runs it on a stream).
    fn decode(body: &[u8]) -> Result<Frame, WireError> {
        let mut r = WireReader::new(body);
        let kind = FrameKind::from_u8(r.u8()?)?;
        let from = r.u16()?;
        let epoch = r.u32()?;
        let step = r.u64()?;
        let seq = r.u64()?;
        let payload = r.rest().to_vec();
        Ok(Frame {
            kind,
            from,
            epoch,
            step,
            seq,
            payload,
        })
    }
}

/// Reads frames from `src` through the shared envelope
/// [`read_loop`](framing::read_loop) until EOF, a read error, a corrupt
/// frame or a [`ControlFlow::Break`] from `on_frame`. A byte stream
/// cannot be re-synchronized, so a corrupt frame ends it.
pub fn read_frames(src: &mut impl Read, mut on_frame: impl FnMut(Frame) -> ControlFlow<()>) {
    framing::read_loop(src, HEADER_BYTES, |body| match Frame::decode(&body) {
        Ok(frame) => on_frame(frame),
        Err(_) => ControlFlow::Break(()),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames_in(src: &mut impl Read) -> Vec<Frame> {
        let mut got = Vec::new();
        read_frames(src, |f| {
            got.push(f);
            ControlFlow::Continue(())
        });
        got
    }

    fn roundtrip(f: &Frame) -> Frame {
        let mut got = frames_in(&mut &f.encode()[..]);
        assert_eq!(got.len(), 1);
        got.remove(0)
    }

    /// Hands out one byte per `read`, like a slow socket.
    struct Dribble(Vec<u8>);

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0.remove(0);
            Ok(1)
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = Frame {
            kind: FrameKind::Data,
            from: 3,
            epoch: 7,
            step: 42,
            seq: 1234567,
            payload: vec![1, 2, 3, 4, 5],
        };
        assert_eq!(roundtrip(&f), f);
        let hb = Frame::control(FrameKind::Heartbeat, 0, 1);
        assert_eq!(roundtrip(&hb), hb);
    }

    /// One frame of each kind, byte for byte: peers of different builds
    /// must keep reading each other, so the wire may not move unnoticed.
    #[test]
    fn encoded_frames_match_golden_bytes() {
        let mut ack = Frame::control(FrameKind::Ack, 2, 7);
        ack.seq = 9;
        let data = Frame {
            kind: FrameKind::Data,
            from: 3,
            epoch: 7,
            step: 42,
            seq: 1234567,
            payload: vec![1, 2, 3, 4, 5],
        };
        let golden = [
            (
                Frame::handshake(FrameKind::Hello, 1, 2),
                "2500000047549b0800010002000000000000000000000000000000000000004d524243010000000100",
            ),
            (
                Frame::handshake(FrameKind::Welcome, 0, 2),
                "250000005ff0a8d601000002000000000000000000000000000000000000004d524243010000000000",
            ),
            (
                data,
                "20000000cbd10ab1020300070000002a0000000000000087d61200000000000102030405",
            ),
            (
                ack,
                "1b00000041691ed40302000700000000000000000000000900000000000000",
            ),
            (
                Frame::control(FrameKind::Heartbeat, 1, 7),
                "1b000000844790840401000700000000000000000000000000000000000000",
            ),
            (
                Frame::control(FrameKind::Bye, 3, 7),
                "1b000000d064b3310503000700000000000000000000000000000000000000",
            ),
        ];
        for (frame, hex) in golden {
            let got: String = frame.encode().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{:?}", frame.kind);
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn decoder_handles_split_and_batched_input() {
        let a = Frame {
            kind: FrameKind::Data,
            from: 1,
            epoch: 0,
            step: 1,
            seq: 0,
            payload: vec![9; 100],
        };
        let b = Frame::control(FrameKind::Ack, 2, 0);
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        // Both at once, then one byte at a time: both frames come out intact.
        assert_eq!(frames_in(&mut &bytes[..]), vec![a.clone(), b.clone()]);
        assert_eq!(frames_in(&mut Dribble(bytes)), vec![a, b]);
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let f = Frame {
            kind: FrameKind::Data,
            from: 1,
            epoch: 0,
            step: 1,
            seq: 5,
            payload: vec![7; 32],
        };
        let mut bytes = f.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        bytes.extend(f.encode());
        assert!(
            frames_in(&mut &bytes[..]).is_empty(),
            "nothing after a corrupt frame"
        );
    }

    #[test]
    fn insane_length_prefix_is_rejected_without_allocating() {
        assert!(frames_in(&mut &u32::MAX.to_le_bytes()[..]).is_empty());
    }

    #[test]
    fn handshake_validates_magic_version_and_rank() {
        let h = Frame::handshake(FrameKind::Hello, 5, 2);
        assert_eq!(h.handshake_rank().unwrap(), 5);
        let mut bad = h.clone();
        bad.payload[0] ^= 0xFF;
        assert!(bad.handshake_rank().is_err());
        let mut skew = Frame::handshake(FrameKind::Hello, 5, 2);
        skew.from = 6; // header/payload disagreement
        assert!(skew.handshake_rank().is_err());
    }
}
