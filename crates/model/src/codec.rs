//! Stable binary serialization of interned claims and the primitives the
//! on-disk store formats are built from.
//!
//! Everything is little-endian and length-prefixed:
//!
//! * integers — fixed-width `u8` / `u32` / `u64`,
//! * strings — `u32` byte length followed by UTF-8 bytes (bounded by
//!   [`MAX_STR_LEN`] so a corrupted length can never drive an absurd
//!   allocation),
//! * claims — the three raw `u32` ids in `(source, item, value)` order.
//!
//! The claim encoding is **stable**: it is defined purely in terms of the
//! dense id values, which [`NameTable`](crate::NameTable) / [`Interner`]
//! assign in first-seen order. Two stores fed the same claim stream produce
//! byte-identical encodings, and a store recovered from disk re-interns its
//! persisted name tables in index order so every persisted id resolves to
//! the same string it was written with.
//!
//! Decoding is total: any byte slice either decodes or returns a typed
//! [`CodecError`] — never a panic — which is what lets the store treat
//! arbitrary on-disk bytes as untrusted input. This module denies clippy's
//! panic, indexing and `as`-cast lints outside tests: every length
//! conversion is a checked `try_from` (see [`u32_to_usize`] /
//! [`usize_to_u64`]) and every slice access is a total `get`-style read.
//!
//! The same primitives carry the **serving wire protocol**: request and
//! response payloads travel as checksummed frames
//! (`[kind][len][payload][crc32]`, see [`encode_wire_frame`] /
//! [`decode_wire_frame`]), sized for a stream reader that learns the body
//! length from the fixed [`WIRE_HEADER_LEN`]-byte header (then validates
//! header + body with [`decode_wire_parts`], no reassembly copy) and
//! bounded by [`MAX_WIRE_FRAME_LEN`] so hostile peers cannot drive
//! allocations.
//!
//! [`Interner`]: crate::Interner

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::string_slice))]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::ids::{ItemId, SourceId, ValueId};
use crate::observation::Claim;
use std::fmt;

/// Upper bound on the byte length of an encoded string (1 MiB).
///
/// Source/item names and values are human-scale strings; the bound exists so
/// a corrupted length prefix is rejected instead of driving a huge
/// allocation.
pub const MAX_STR_LEN: usize = 1 << 20;

/// Errors produced while decoding (or encoding) the binary claim format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the declared value was complete.
    Truncated {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes that were actually available.
        have: usize,
    },
    /// A string's bytes were not valid UTF-8.
    Utf8 {
        /// Byte offset of the first invalid byte within the string.
        valid_up_to: usize,
    },
    /// A string length exceeded [`MAX_STR_LEN`] (encode or decode side), or
    /// a wire-frame length exceeded [`MAX_WIRE_FRAME_LEN`].
    StringTooLong {
        /// The offending length in bytes.
        len: usize,
    },
    /// A wire-frame payload exceeded [`MAX_WIRE_FRAME_LEN`] on the encode
    /// side.
    FrameTooLong {
        /// The offending payload length in bytes.
        len: usize,
    },
    /// A wire frame's checksum did not match its payload.
    ChecksumMismatch {
        /// The checksum carried by the frame.
        stored: u32,
        /// The checksum computed over the received payload.
        computed: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated input: needed {needed} byte(s), have {have}")
            }
            CodecError::Utf8 { valid_up_to } => {
                write!(f, "invalid UTF-8 in string after {valid_up_to} byte(s)")
            }
            CodecError::StringTooLong { len } => {
                write!(f, "string of {len} bytes exceeds the {MAX_STR_LEN}-byte limit")
            }
            CodecError::FrameTooLong { len } => {
                write!(
                    f,
                    "wire payload of {len} bytes exceeds the {MAX_WIRE_FRAME_LEN}-byte frame limit"
                )
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: frame carries {stored:#010x}, payload computes {computed:#010x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Checked width conversions
// ---------------------------------------------------------------------------

/// Widens a `u32` to `usize` without an `as` cast.
///
/// Lossless on every supported target (`usize` is at least 32 bits); the
/// saturating fallback keeps the conversion total — and panic-free — even
/// on a hypothetical 16-bit target, where a saturated length simply fails
/// the caller's bounds check instead of wrapping.
#[must_use]
pub fn u32_to_usize(v: u32) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Widens a `usize` to `u64` without an `as` cast.
///
/// Lossless on every supported target (`usize` is at most 64 bits); the
/// saturating fallback keeps the conversion total everywhere else.
#[must_use]
pub fn usize_to_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

/// Appends a `u8` to `out`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32` to `out`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to `out`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string to `out`.
///
/// # Errors
/// Returns [`CodecError::StringTooLong`] if `s` exceeds [`MAX_STR_LEN`]
/// bytes; nothing is written in that case.
pub fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), CodecError> {
    if s.len() > MAX_STR_LEN {
        return Err(CodecError::StringTooLong { len: s.len() });
    }
    // MAX_STR_LEN < u32::MAX, so this only fails if the check above is
    // broken — and then it fails loudly as an error, not a truncation.
    let len = u32::try_from(s.len()).map_err(|_| CodecError::StringTooLong { len: s.len() })?;
    put_u32(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Appends a claim's three raw ids (12 bytes) to `out`.
pub fn put_claim(out: &mut Vec<u8>, claim: &Claim) {
    put_u32(out, claim.source.raw());
    put_u32(out, claim.item.raw());
    put_u32(out, claim.value.raw());
}

// ---------------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------------

/// Upper bound on a wire-frame payload (16 MiB): a corrupted or hostile
/// length prefix is rejected before any allocation.
pub const MAX_WIRE_FRAME_LEN: u32 = 1 << 24;

/// Byte length of a wire-frame header (`kind` + payload length).
pub const WIRE_HEADER_LEN: usize = 5;

/// Frames a request/response payload for the serving wire protocol:
///
/// ```text
/// [kind: u8][len: u32][payload: len bytes][crc32(payload): u32]
/// ```
///
/// The header is fixed-size so a stream reader can read exactly
/// [`WIRE_HEADER_LEN`] bytes, learn the remaining length, and then read
/// `len + 4` more; [`decode_wire_parts`] validates the two pieces without
/// reassembling them. `kind` identifies the request/response type — the
/// codec does not interpret it.
///
/// # Errors
/// Returns [`CodecError::FrameTooLong`] if `payload` exceeds
/// [`MAX_WIRE_FRAME_LEN`] bytes; oversized responses must surface as typed
/// protocol errors, never kill a handler thread.
pub fn encode_wire_frame(kind: u8, payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_WIRE_FRAME_LEN)
        .ok_or(CodecError::FrameTooLong { len: payload.len() })?;
    let mut out = Vec::with_capacity(WIRE_HEADER_LEN + payload.len() + 4);
    put_u8(&mut out, kind);
    put_u32(&mut out, len);
    out.extend_from_slice(payload);
    put_u32(&mut out, crc32_ieee(payload));
    Ok(out)
}

/// Decodes the declared payload length from a wire-frame header, bounding it
/// by [`MAX_WIRE_FRAME_LEN`]. Returns the number of bytes that follow the
/// header (payload + checksum).
///
/// # Errors
/// [`CodecError::StringTooLong`] (reusing the bounded-length error) if the
/// declared length exceeds the frame limit.
pub fn wire_frame_body_len(header: &[u8; WIRE_HEADER_LEN]) -> Result<usize, CodecError> {
    let [_, l0, l1, l2, l3] = *header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_WIRE_FRAME_LEN {
        return Err(CodecError::StringTooLong { len: u32_to_usize(len) });
    }
    Ok(u32_to_usize(len) + 4)
}

/// Validates a wire frame split into its fixed-size header and the body a
/// stream reader fetched separately ([`wire_frame_body_len`] bytes), and
/// returns `(kind, payload)` borrowing from `body` — no reassembly copy.
///
/// Extra bytes beyond the declared payload + checksum are ignored, so a
/// caller holding a longer buffer can pass it unsliced.
///
/// # Errors
/// [`CodecError::Truncated`] if `body` ends before the declared payload and
/// checksum, [`CodecError::StringTooLong`] for an over-limit declared
/// length, [`CodecError::ChecksumMismatch`] when the payload fails its CRC.
pub fn decode_wire_parts<'a>(
    header: &[u8; WIRE_HEADER_LEN],
    body: &'a [u8],
) -> Result<(u8, &'a [u8]), CodecError> {
    let [kind, l0, l1, l2, l3] = *header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_WIRE_FRAME_LEN {
        return Err(CodecError::StringTooLong { len: u32_to_usize(len) });
    }
    let payload_len = u32_to_usize(len);
    let needed = payload_len + 4;
    let payload =
        body.get(..payload_len).ok_or(CodecError::Truncated { needed, have: body.len() })?;
    let stored = match body.get(payload_len..needed) {
        Some(&[c0, c1, c2, c3]) => u32::from_le_bytes([c0, c1, c2, c3]),
        _ => return Err(CodecError::Truncated { needed, have: body.len() }),
    };
    let computed = crc32_ieee(payload);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok((kind, payload))
}

/// Validates a complete contiguous wire frame (header + payload + checksum)
/// and returns `(kind, payload)`. Convenience wrapper over
/// [`decode_wire_parts`] for callers that hold the whole frame in one
/// buffer.
///
/// # Errors
/// As [`decode_wire_parts`], plus [`CodecError::Truncated`] if even the
/// header is incomplete.
pub fn decode_wire_frame(bytes: &[u8]) -> Result<(u8, &[u8]), CodecError> {
    let too_short = CodecError::Truncated { needed: WIRE_HEADER_LEN, have: bytes.len() };
    let (header, body) = bytes.split_at_checked(WIRE_HEADER_LEN).ok_or(too_short.clone())?;
    let header: &[u8; WIRE_HEADER_LEN] = header.try_into().map_err(|_| too_short)?;
    decode_wire_parts(header, body)
}

#[expect(
    clippy::as_conversions,
    clippy::indexing_slicing,
    reason = "const-eval has no `try_from`; `i` stays in 0..256, so the cast and index are in range"
)]
const WIRE_CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// One CRC table step: the table is 256 entries, so a `u8` index is total.
fn wire_crc(index: u8) -> u32 {
    WIRE_CRC_TABLE.get(usize::from(index)).copied().unwrap_or(0)
}

/// CRC32 (IEEE 802.3) of `bytes` — the checksum of wire frames, shared with
/// the store's on-disk envelopes.
pub fn crc32_ieee(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let [low, ..] = (crc ^ u32::from(b)).to_le_bytes();
        crc = (crc >> 8) ^ wire_crc(low);
    }
    !crc
}

/// A cursor over an immutable byte slice, yielding typed values.
///
/// Every read either succeeds and advances the cursor or fails with a
/// [`CodecError`] and leaves the cursor where it was.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset from the start of the underlying slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let short = CodecError::Truncated { needed: n, have: self.remaining() };
        let end = self.pos.checked_add(n).ok_or(short.clone())?;
        let slice = self.buf.get(self.pos..end).ok_or(short)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `N` bytes into an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let slice = self.take(N)?;
        // `take` returned exactly N bytes; the conversion is total anyway.
        slice.try_into().map_err(|_| CodecError::Truncated { needed: N, have: slice.len() })
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.take_array()?;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a length-prefixed UTF-8 string as a borrowed slice.
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let start = self.pos;
        let len = u32_to_usize(self.u32()?);
        if len > MAX_STR_LEN {
            self.pos = start;
            return Err(CodecError::StringTooLong { len });
        }
        let bytes = match self.take(len) {
            Ok(b) => b,
            Err(e) => {
                self.pos = start;
                return Err(e);
            }
        };
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(e) => {
                self.pos = start;
                Err(CodecError::Utf8 { valid_up_to: e.valid_up_to() })
            }
        }
    }

    /// Reads a length-prefixed UTF-8 string as an owned `String`.
    pub fn string(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a claim's three raw ids (12 bytes).
    pub fn claim(&mut self) -> Result<Claim, CodecError> {
        let start = self.pos;
        let read = (|| -> Result<Claim, CodecError> {
            Ok(Claim {
                source: SourceId::new(self.u32()?),
                item: ItemId::new(self.u32()?),
                value: ValueId::new(self.u32()?),
            })
        })();
        if read.is_err() {
            self.pos = start;
        }
        read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xAB);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "café 雪").unwrap();
        put_str(&mut out, "").unwrap();
        let claim =
            Claim { source: SourceId::new(3), item: ItemId::new(0), value: ValueId::new(7) };
        put_claim(&mut out, &claim);

        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str_ref().unwrap(), "café 雪");
        assert_eq!(r.string().unwrap(), "");
        assert_eq!(r.claim().unwrap(), claim);
        assert!(r.is_empty());
    }

    #[test]
    fn width_conversions_are_lossless() {
        assert_eq!(u32_to_usize(0), 0);
        assert_eq!(u32_to_usize(u32::MAX), u32::MAX as usize);
        assert_eq!(usize_to_u64(0), 0);
        assert_eq!(usize_to_u64(usize::MAX), usize::MAX as u64);
    }

    #[test]
    fn truncated_reads_fail_without_advancing() {
        let mut out = Vec::new();
        put_u32(&mut out, 10);
        out.extend_from_slice(b"abc"); // declared 10 bytes, only 3 present
        let mut r = Reader::new(&out);
        let before = r.pos();
        assert_eq!(r.str_ref(), Err(CodecError::Truncated { needed: 10, have: 3 }));
        assert_eq!(r.pos(), before, "a failed read must not consume input");
        assert_eq!(Reader::new(&[1, 2]).u32(), Err(CodecError::Truncated { needed: 4, have: 2 }));
        assert_eq!(
            Reader::new(&[0; 11]).claim().unwrap_err(),
            CodecError::Truncated { needed: 4, have: 3 }
        );
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(Reader::new(&out).str_ref(), Err(CodecError::Utf8 { .. })));
    }

    #[test]
    fn string_length_is_bounded() {
        let huge = "x".repeat(MAX_STR_LEN + 1);
        let mut out = Vec::new();
        assert_eq!(
            put_str(&mut out, &huge),
            Err(CodecError::StringTooLong { len: MAX_STR_LEN + 1 })
        );
        assert!(out.is_empty(), "a failed encode must not write");

        // Exactly at the limit round-trips.
        let max = "y".repeat(MAX_STR_LEN);
        put_str(&mut out, &max).unwrap();
        assert_eq!(Reader::new(&out).str_ref().unwrap(), max);

        // A corrupt oversized length prefix is rejected before allocating.
        let mut bad = Vec::new();
        put_u32(&mut bad, (MAX_STR_LEN + 1) as u32);
        assert_eq!(
            Reader::new(&bad).str_ref(),
            Err(CodecError::StringTooLong { len: MAX_STR_LEN + 1 })
        );
    }

    #[test]
    fn errors_display() {
        assert!(CodecError::Truncated { needed: 4, have: 1 }.to_string().contains("needed 4"));
        assert!(CodecError::Utf8 { valid_up_to: 2 }.to_string().contains("UTF-8"));
        assert!(CodecError::StringTooLong { len: 9 }.to_string().contains("9 bytes"));
        assert!(CodecError::FrameTooLong { len: 99 }.to_string().contains("99 bytes"));
        assert!(CodecError::ChecksumMismatch { stored: 1, computed: 2 }
            .to_string()
            .contains("checksum mismatch"));
    }

    #[test]
    fn wire_frame_roundtrip_and_validation() {
        let mut payload = Vec::new();
        put_str(&mut payload, "hello").unwrap();
        put_u32(&mut payload, 42);
        let frame = encode_wire_frame(7, &payload).unwrap();
        assert_eq!(frame.len(), WIRE_HEADER_LEN + payload.len() + 4);

        // The header alone predicts the body length for a stream reader.
        let header: [u8; WIRE_HEADER_LEN] = frame[..WIRE_HEADER_LEN].try_into().unwrap();
        assert_eq!(wire_frame_body_len(&header).unwrap(), payload.len() + 4);

        let (kind, got) = decode_wire_frame(&frame).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(got, payload.as_slice());

        // The split-decode path a stream reader uses agrees exactly.
        let (kind, got) = decode_wire_parts(&header, &frame[WIRE_HEADER_LEN..]).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(got, payload.as_slice());

        // Truncations are truncation, not corruption.
        assert!(matches!(
            decode_wire_frame(&frame[..frame.len() - 1]),
            Err(CodecError::Truncated { .. })
        ));
        assert!(matches!(decode_wire_frame(&frame[..3]), Err(CodecError::Truncated { .. })));

        // A flipped payload bit fails the checksum.
        let mut flipped = frame.clone();
        flipped[WIRE_HEADER_LEN + 1] ^= 0x04;
        assert!(matches!(decode_wire_frame(&flipped), Err(CodecError::ChecksumMismatch { .. })));

        // A hostile length prefix is rejected before any allocation.
        let mut huge = frame;
        huge[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_wire_frame(&huge), Err(CodecError::StringTooLong { .. })));
        let header: [u8; WIRE_HEADER_LEN] = huge[..WIRE_HEADER_LEN].try_into().unwrap();
        assert!(matches!(wire_frame_body_len(&header), Err(CodecError::StringTooLong { .. })));

        // Empty payloads are legal frames (SHUTDOWN, STATS requests).
        let empty = encode_wire_frame(4, &[]).unwrap();
        assert_eq!(decode_wire_frame(&empty).unwrap(), (4, &[][..]));
    }

    #[test]
    fn oversized_encode_is_a_typed_error() {
        let huge = vec![0u8; u32_to_usize(MAX_WIRE_FRAME_LEN) + 1];
        assert_eq!(
            encode_wire_frame(1, &huge).unwrap_err(),
            CodecError::FrameTooLong { len: huge.len() }
        );
    }

    #[test]
    fn crc32_ieee_known_vectors() {
        assert_eq!(crc32_ieee(b""), 0);
        assert_eq!(crc32_ieee(b"123456789"), 0xCBF4_3926);
    }
}
