//! The length-prefixed binary wire protocol of the network front-end.
//!
//! Every frame on the wire is
//!
//! ```text
//! ┌────────────┬──────────────┬──────────────────────┐
//! │ len: u32LE │ check: u32LE │ payload (len bytes)  │
//! └────────────┴──────────────┴──────────────────────┘
//! ```
//!
//! where `check` is the low 32 bits of the FNV-1a64 digest of the payload.
//! The checksum is not there to defeat an adversary — TCP already
//! guarantees in-order delivery — it is there so that **every single-byte
//! corruption of a valid frame decodes to a typed [`ProtoError`]**, never
//! to a silently different request (the same property the artifact format
//! gets from its chunked digests, pinned the same way: an exhaustive
//! byte-flip + truncation sweep in `crates/serve/tests/proto_sweep.rs`).
//!
//! Request payloads (client → server):
//!
//! ```text
//! TopK:  opcode=0x01  user: u32LE  k: u16LE  flags: u8     (8 bytes)
//! Ping:  opcode=0x02                                       (1 byte)
//! ```
//!
//! `flags` bit 0 is *exclude-seen* (mask the user's training positives);
//! bits 1–2 select the index mode (`00` = server default, `01` = force
//! exact, `10` = force IVF at the artifact's default probe width); all
//! higher bits must be zero — unknown flags are a [`ProtoError::BadFlags`]
//! today so they can become features tomorrow.
//!
//! Response payload (server → client):
//!
//! ```text
//! status: u8  generation: u64LE  n: u16LE  items: n × u32LE
//! ```
//!
//! `generation` is the engine generation the answer was computed against
//! (0 for non-[`Status::Ok`] responses, which carry no items) — the field
//! the swap-under-load suite uses to prove no response ever mixes two
//! artifacts. Decoding is strict in both directions: a count that
//! disagrees with the payload length, a non-empty error response, an
//! unknown status or opcode, and trailing bytes are all typed errors.
//!
//! No wall-clock, no I/O, no allocation beyond the decoded item list:
//! this module is pure bytes → frames, so every path is reachable from
//! the fuzz sweeps.

use crate::artifact::fnv1a64;
use bns_data::le::{Reader, Truncated};
use std::fmt;

/// Hard cap on a frame's payload length. Large enough for a
/// [`ResponseFrame`] carrying the biggest encodable item list
/// (`u16::MAX` ids), small enough that a hostile length prefix cannot
/// make the server reserve gigabytes.
pub const MAX_PAYLOAD_LEN: usize = 11 + 4 * u16::MAX as usize;

/// Bytes of frame header on the wire: `len: u32LE` + `check: u32LE`.
pub const HEADER_LEN: usize = 8;

/// Opcode of a [`RequestFrame::TopK`] payload.
pub const OP_TOPK: u8 = 0x01;
/// Opcode of a [`RequestFrame::Ping`] payload.
pub const OP_PING: u8 = 0x02;

/// `flags` bit 0: mask the user's frozen training positives.
pub const FLAG_EXCLUDE_SEEN: u8 = 0b0000_0001;
/// `flags` bits 1–2 = `01`: force the exact path.
pub const FLAG_MODE_EXACT: u8 = 0b0000_0010;
/// `flags` bits 1–2 = `10`: force the IVF path at the default width.
pub const FLAG_MODE_IVF: u8 = 0b0000_0100;
/// Every bit a valid request may set.
pub const FLAG_MASK: u8 = FLAG_EXCLUDE_SEEN | FLAG_MODE_EXACT | FLAG_MODE_IVF;

/// Typed decode failure. Every malformed byte sequence maps to exactly
/// one of these — the protocol sweeps assert no input panics or reads out
/// of bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ended before the named field could be read.
    Truncated {
        /// Which field the decoder was reading when the bytes ran out.
        what: &'static str,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// The length the prefix claimed.
        len: usize,
    },
    /// The header checksum does not match the payload bytes.
    ChecksumMismatch {
        /// Checksum stored in the frame header.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// Unknown request opcode.
    BadOpcode(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// A request set flag bits outside [`FLAG_MASK`], or both index-mode
    /// bits at once.
    BadFlags(u8),
    /// The payload length is wrong for its opcode/status (e.g. a TopK
    /// request that is not exactly 8 bytes, or a response whose item
    /// count disagrees with the bytes that follow).
    LengthMismatch {
        /// Bytes the opcode/status dictated.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// A non-`Ok` response carried items (error responses must be empty).
    NonEmptyError {
        /// The status that must not carry items.
        status: u8,
    },
    /// Bytes remained after a complete frame in a strict (`decode_*`)
    /// call.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { what } => write!(f, "truncated frame while reading {what}"),
            ProtoError::Oversized { len } => {
                write!(f, "length prefix {len} exceeds cap {MAX_PAYLOAD_LEN}")
            }
            ProtoError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored 0x{stored:08X}, computed 0x{computed:08X}"
            ),
            ProtoError::BadOpcode(op) => write!(f, "unknown request opcode 0x{op:02X}"),
            ProtoError::BadStatus(s) => write!(f, "unknown response status 0x{s:02X}"),
            ProtoError::BadFlags(flags) => write!(f, "invalid request flags 0b{flags:08b}"),
            ProtoError::LengthMismatch { expected, found } => {
                write!(f, "payload length {found}, opcode dictates {expected}")
            }
            ProtoError::NonEmptyError { status } => {
                write!(f, "non-Ok response (status {status}) carried items")
            }
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete frame")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<Truncated> for ProtoError {
    fn from(e: Truncated) -> Self {
        ProtoError::Truncated { what: e.what }
    }
}

/// Which retrieval strategy a request asked for (`flags` bits 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModeRequest {
    /// Serve with whatever the engine is configured for.
    #[default]
    Default,
    /// Force the exact path.
    Exact,
    /// Force the IVF path at the artifact's default probe width.
    Ivf,
}

/// A decoded client → server frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFrame {
    /// One top-k query.
    TopK {
        /// User id within the served artifact's id space.
        user: u32,
        /// Recommendation-list cutoff.
        k: u16,
        /// Mask the user's frozen training positives.
        exclude_seen: bool,
        /// Requested retrieval strategy.
        mode: ModeRequest,
    },
    /// Liveness probe; answered with [`Status::Pong`].
    Ping,
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request was served; the payload carries the ranked items.
    Ok = 0,
    /// The bounded in-flight queue was full; retry after backing off.
    Overloaded = 1,
    /// The requested user id is outside the artifact's id space.
    UnknownUser = 2,
    /// IVF was requested but the served artifact carries no index.
    NoIndex = 3,
    /// The server could not produce an answer within its deadline.
    Timeout = 4,
    /// Answer to [`RequestFrame::Ping`].
    Pong = 5,
    /// The request frame decoded but could not be served as sent
    /// (currently unused on the server; reserved for forward compat).
    BadRequest = 6,
}

impl Status {
    /// Parses a status byte.
    pub fn from_u8(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::UnknownUser,
            3 => Status::NoIndex,
            4 => Status::Timeout,
            5 => Status::Pong,
            6 => Status::BadRequest,
            other => return Err(ProtoError::BadStatus(other)),
        })
    }
}

/// A decoded server → client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Outcome of the request.
    pub status: Status,
    /// Engine generation the answer was computed against; 0 for non-`Ok`
    /// statuses (which carry no items).
    pub generation: u64,
    /// Ranked item ids, best first. Empty unless `status == Ok`.
    pub items: Vec<u32>,
}

/// FNV-1a64 of `bytes`, truncated to the low 32 bits — the frame header
/// checksum. The digest is the artifact format's byte-at-a-time
/// [`fnv1a64`]; the artifact's chunked word digest is a separate function,
/// so that one can evolve with its format without moving frame bytes.
pub fn frame_checksum(bytes: &[u8]) -> u32 {
    fnv1a64(bytes) as u32
}

/// Appends one framed payload (header + bytes) to `out`.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_PAYLOAD_LEN);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

impl RequestFrame {
    /// Encodes the request as one wire frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(8);
        match *self {
            RequestFrame::TopK {
                user,
                k,
                exclude_seen,
                mode,
            } => {
                payload.push(OP_TOPK);
                payload.extend_from_slice(&user.to_le_bytes());
                payload.extend_from_slice(&k.to_le_bytes());
                let mut flags = 0u8;
                if exclude_seen {
                    flags |= FLAG_EXCLUDE_SEEN;
                }
                flags |= match mode {
                    ModeRequest::Default => 0,
                    ModeRequest::Exact => FLAG_MODE_EXACT,
                    ModeRequest::Ivf => FLAG_MODE_IVF,
                };
                payload.push(flags);
            }
            RequestFrame::Ping => payload.push(OP_PING),
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        put_frame(&mut out, &payload);
        out
    }

    /// Decodes a request from one complete frame's **payload** bytes
    /// (header already stripped and verified).
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        match r.u8("opcode")? {
            OP_TOPK => {
                if payload.len() != 8 {
                    return Err(ProtoError::LengthMismatch {
                        expected: 8,
                        found: payload.len(),
                    });
                }
                let user = r.u32("user")?;
                let k = r.u16("k")?;
                let flags = r.u8("flags")?;
                if flags & !FLAG_MASK != 0
                    || (flags & FLAG_MODE_EXACT != 0 && flags & FLAG_MODE_IVF != 0)
                {
                    return Err(ProtoError::BadFlags(flags));
                }
                let mode = if flags & FLAG_MODE_EXACT != 0 {
                    ModeRequest::Exact
                } else if flags & FLAG_MODE_IVF != 0 {
                    ModeRequest::Ivf
                } else {
                    ModeRequest::Default
                };
                Ok(RequestFrame::TopK {
                    user,
                    k,
                    exclude_seen: flags & FLAG_EXCLUDE_SEEN != 0,
                    mode,
                })
            }
            OP_PING => {
                if payload.len() != 1 {
                    return Err(ProtoError::LengthMismatch {
                        expected: 1,
                        found: payload.len(),
                    });
                }
                Ok(RequestFrame::Ping)
            }
            other => Err(ProtoError::BadOpcode(other)),
        }
    }

    /// Strict whole-buffer decode: `buf` must hold exactly one frame.
    /// The shape the protocol sweeps drive — every truncation is
    /// [`ProtoError::Truncated`], every extension
    /// [`ProtoError::TrailingBytes`].
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        Self::decode_payload(strict_payload(buf)?)
    }
}

impl ResponseFrame {
    /// An `Ok` response carrying `items`, stamped with the artifact
    /// `generation` it was computed against.
    pub fn ok(generation: u64, items: Vec<u32>) -> Self {
        Self {
            status: Status::Ok,
            generation,
            items,
        }
    }

    /// An item-free response for any non-`Ok` outcome.
    pub fn error(status: Status) -> Self {
        debug_assert!(status != Status::Ok);
        Self {
            status,
            generation: 0,
            items: Vec::new(),
        }
    }

    /// Encodes the response as one wire frame (header + payload).
    /// Truncates the item list to `u16::MAX` entries (unreachable through
    /// the engine: `k` arrives as a `u16`).
    pub fn encode(&self) -> Vec<u8> {
        let n = self.items.len().min(u16::MAX as usize);
        let mut payload = Vec::with_capacity(11 + 4 * n);
        payload.push(self.status as u8);
        payload.extend_from_slice(&self.generation.to_le_bytes());
        payload.extend_from_slice(&(n as u16).to_le_bytes());
        for &item in &self.items[..n] {
            payload.extend_from_slice(&item.to_le_bytes());
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        put_frame(&mut out, &payload);
        out
    }

    /// Decodes a response from one complete frame's **payload** bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        let status = Status::from_u8(r.u8("status")?)?;
        let generation = r.u64("response header")?;
        let n = usize::from(r.u16("response header")?);
        let expected = 11 + 4 * n;
        if payload.len() != expected {
            return Err(ProtoError::LengthMismatch {
                expected,
                found: payload.len(),
            });
        }
        if status != Status::Ok && n != 0 {
            return Err(ProtoError::NonEmptyError {
                status: status as u8,
            });
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(r.u32("item")?);
        }
        Ok(Self {
            status,
            generation,
            items,
        })
    }

    /// Strict whole-buffer decode; see [`RequestFrame::decode`].
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        Self::decode_payload(strict_payload(buf)?)
    }
}

/// What an incremental frame read yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameHeader {
    /// Fewer than [`HEADER_LEN`] bytes so far; read more.
    NeedHeader,
    /// Header complete: the payload is `len` bytes, to be verified
    /// against `check` once fully read.
    Payload {
        /// Payload length the prefix declared (already bounds-checked).
        len: usize,
        /// Checksum the header declared.
        check: u32,
    },
}

/// Parses a frame header from the first bytes of `buf`. Returns
/// [`FrameHeader::NeedHeader`] while fewer than [`HEADER_LEN`] bytes are
/// available; rejects oversized length prefixes **before** any payload is
/// read — the server drops such connections without buffering a byte of
/// the claimed payload.
pub fn parse_header(buf: &[u8]) -> Result<FrameHeader, ProtoError> {
    if buf.len() < HEADER_LEN {
        return Ok(FrameHeader::NeedHeader);
    }
    let mut r = Reader::new(buf);
    let len = r.u32("frame length")? as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(ProtoError::Oversized { len });
    }
    let check = r.u32("frame checksum")?;
    Ok(FrameHeader::Payload { len, check })
}

/// Verifies a fully-read payload against its header checksum.
pub fn verify_payload(check: u32, payload: &[u8]) -> Result<(), ProtoError> {
    let computed = frame_checksum(payload);
    if computed != check {
        return Err(ProtoError::ChecksumMismatch {
            stored: check,
            computed,
        });
    }
    Ok(())
}

/// Strict one-frame view: header parsed, length exact, checksum verified.
fn strict_payload(buf: &[u8]) -> Result<&[u8], ProtoError> {
    let (len, check) = match parse_header(buf)? {
        FrameHeader::NeedHeader => {
            return Err(ProtoError::Truncated {
                what: "frame header",
            })
        }
        FrameHeader::Payload { len, check } => (len, check),
    };
    let body = &buf[HEADER_LEN..];
    if body.len() < len {
        return Err(ProtoError::Truncated { what: "payload" });
    }
    if body.len() > len {
        return Err(ProtoError::TrailingBytes {
            extra: body.len() - len,
        });
    }
    verify_payload(check, body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_round_trips() {
        let req = RequestFrame::TopK {
            user: 42,
            k: 10,
            exclude_seen: true,
            mode: ModeRequest::Ivf,
        };
        let buf = req.encode();
        assert_eq!(RequestFrame::decode(&buf).unwrap(), req);
    }

    #[test]
    fn ping_and_pong_round_trip() {
        let buf = RequestFrame::Ping.encode();
        assert_eq!(RequestFrame::decode(&buf).unwrap(), RequestFrame::Ping);
        let pong = ResponseFrame::error(Status::Pong);
        assert_eq!(ResponseFrame::decode(&pong.encode()).unwrap(), pong);
    }

    #[test]
    fn ok_response_round_trips_with_items() {
        let resp = ResponseFrame::ok(7, vec![3, 1, 4, 1, 5]);
        let buf = resp.encode();
        assert_eq!(ResponseFrame::decode(&buf).unwrap(), resp);
    }

    #[test]
    fn unknown_opcode_and_status_are_typed() {
        let mut buf = RequestFrame::Ping.encode();
        buf[HEADER_LEN] = 0x7F;
        // Restamp so the opcode check is reached behind the checksum.
        let check = frame_checksum(&buf[HEADER_LEN..]);
        buf[4..8].copy_from_slice(&check.to_le_bytes());
        assert_eq!(RequestFrame::decode(&buf), Err(ProtoError::BadOpcode(0x7F)));

        let mut buf = ResponseFrame::error(Status::Pong).encode();
        buf[HEADER_LEN] = 0xEE;
        let check = frame_checksum(&buf[HEADER_LEN..]);
        buf[4..8].copy_from_slice(&check.to_le_bytes());
        assert_eq!(
            ResponseFrame::decode(&buf),
            Err(ProtoError::BadStatus(0xEE))
        );
    }

    #[test]
    fn bad_flags_are_typed() {
        for flags in [0b1000_0000u8, FLAG_MODE_EXACT | FLAG_MODE_IVF] {
            let mut payload = vec![OP_TOPK];
            payload.extend_from_slice(&1u32.to_le_bytes());
            payload.extend_from_slice(&5u16.to_le_bytes());
            payload.push(flags);
            assert_eq!(
                RequestFrame::decode_payload(&payload),
                Err(ProtoError::BadFlags(flags))
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            parse_header(&buf),
            Err(ProtoError::Oversized {
                len: MAX_PAYLOAD_LEN + 1
            })
        );
    }

    #[test]
    fn error_responses_must_be_empty() {
        // Hand-craft an Overloaded response claiming one item.
        let mut payload = vec![Status::Overloaded as u8];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&1u16.to_le_bytes());
        payload.extend_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            ResponseFrame::decode_payload(&payload),
            Err(ProtoError::NonEmptyError {
                status: Status::Overloaded as u8
            })
        );
    }

    #[test]
    fn strict_decode_flags_trailing_bytes() {
        let mut buf = RequestFrame::Ping.encode();
        buf.push(0);
        assert_eq!(
            RequestFrame::decode(&buf),
            Err(ProtoError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn incremental_header_reports_need_more() {
        let buf = RequestFrame::Ping.encode();
        for cut in 0..HEADER_LEN {
            assert_eq!(parse_header(&buf[..cut]).unwrap(), FrameHeader::NeedHeader);
        }
        assert!(matches!(
            parse_header(&buf).unwrap(),
            FrameHeader::Payload { len: 1, .. }
        ));
    }
}
