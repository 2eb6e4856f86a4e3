//! The on-disk binary format of the durable claim store: checksummed file
//! envelopes and the payload codecs for name tables, sealed segments, the
//! manifest and write-ahead-log frames.
//!
//! Every committed file (`tables-*.tbl`, `seg-*.seg`, `MANIFEST`) shares one
//! envelope:
//!
//! ```text
//! [magic: 4 bytes][version: u32][payload_len: u64][payload][crc32(payload): u32]
//! ```
//!
//! The write-ahead log starts with the same 8-byte magic + version header
//! and is followed by independently checksummed frames:
//!
//! ```text
//! [len: u32][payload: len bytes][crc32(payload): u32]
//! ```
//!
//! Framing rules give recovery its failure taxonomy (see
//! [`StoreIoError`](crate::StoreIoError)):
//!
//! * a frame that ends before its declared length is a **torn tail** —
//!   the expected shape of a crash mid-append; it is dropped, not an error;
//! * a *complete* frame whose checksum fails, an oversized length, bad
//!   magic, an out-of-range id or invalid UTF-8 is **corruption**;
//! * a header version other than [`FORMAT_VERSION`] is a version mismatch.
//!
//! All decoding is total — hostile bytes produce a typed [`FormatError`],
//! never a panic. Payload primitives come from
//! [`copydet_model::codec`], so the claim encoding is the model crate's
//! stable interned-id serialization.

use crate::segment::SealedSegment;
use copydet_model::codec::{self, u32_to_usize, usize_to_u64, CodecError, Reader};
use copydet_model::{Claim, ItemId, SourceId, ValueId};

/// Version written into (and required of) every file header.
///
/// Version history:
/// * 1 — initial durable format (PR 4): single full name-table file.
/// * 2 — the manifest lists a **chain** of name-table files (each holding
///   the names appended since its predecessor), so a durable seal writes
///   O(new names) instead of rewriting the full vocabulary.
pub(crate) const FORMAT_VERSION: u32 = 2;

/// Magic of sealed-segment files.
pub(crate) const MAGIC_SEGMENT: [u8; 4] = *b"CDSG";
/// Magic of name-table files.
pub(crate) const MAGIC_TABLES: [u8; 4] = *b"CDTB";
/// Magic of the manifest.
pub(crate) const MAGIC_MANIFEST: [u8; 4] = *b"CDMF";
/// Magic of the write-ahead log.
pub(crate) const MAGIC_WAL: [u8; 4] = *b"CDWL";

/// Byte length of the WAL header (magic + version).
pub(crate) const WAL_HEADER_LEN: usize = 8;

/// Upper bound on a single WAL frame payload (64 MiB): a corrupted length
/// prefix is rejected instead of being treated as a gigantic torn frame.
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 26;

/// Path-free decode failure; callers attach the offending path to build a
/// [`StoreIoError`](crate::StoreIoError).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FormatError {
    /// The file ends before its declared content.
    Truncated(String),
    /// Bytes fail validation (magic, checksum, ids, UTF-8, framing).
    Corrupt(String),
    /// The header carries an unsupported format version.
    Version(u32),
}

impl FormatError {
    /// Attaches a path, producing the public error type.
    pub fn at(self, path: impl Into<std::path::PathBuf>) -> crate::StoreIoError {
        match self {
            FormatError::Truncated(detail) => {
                crate::StoreIoError::Truncated { path: path.into(), detail }
            }
            FormatError::Corrupt(detail) => {
                crate::StoreIoError::Corrupt { path: path.into(), detail }
            }
            FormatError::Version(found) => crate::StoreIoError::VersionMismatch {
                path: path.into(),
                found,
                expected: FORMAT_VERSION,
            },
        }
    }
}

impl From<CodecError> for FormatError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { .. } => FormatError::Truncated(e.to_string()),
            CodecError::Utf8 { .. }
            | CodecError::StringTooLong { .. }
            | CodecError::FrameTooLong { .. }
            | CodecError::ChecksumMismatch { .. } => FormatError::Corrupt(e.to_string()),
        }
    }
}

/// Encodes a collection length as its `u32` wire form; a count past
/// `u32::MAX` cannot be represented on disk and is refused, not truncated.
fn len_u32(len: usize, what: &str) -> Result<u32, FormatError> {
    u32::try_from(len).map_err(|_| {
        FormatError::Corrupt(format!("{what} count {len} overflows the u32 length field"))
    })
}

/// CRC32 (IEEE) of `bytes` — shared with the wire-protocol frames.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    codec::crc32_ieee(bytes)
}

// ---------------------------------------------------------------------------
// File envelope
// ---------------------------------------------------------------------------

/// Byte length of a committed-file envelope header (magic + version +
/// payload length).
const FILE_HEADER_LEN: usize = 16;

/// Wraps `payload` in the committed-file envelope.
pub(crate) fn encode_file(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(&magic);
    codec::put_u32(&mut out, FORMAT_VERSION);
    codec::put_u64(&mut out, usize_to_u64(payload.len()));
    out.extend_from_slice(payload);
    codec::put_u32(&mut out, crc32(payload));
    out
}

/// Unwraps a committed-file envelope, verifying magic, version, length and
/// checksum, and returns the payload slice.
pub(crate) fn decode_file(magic: [u8; 4], bytes: &[u8]) -> Result<&[u8], FormatError> {
    let too_short = || {
        FormatError::Truncated(format!(
            "file header needs {FILE_HEADER_LEN} bytes, file has {}",
            bytes.len()
        ))
    };
    let (header, body) = bytes.split_at_checked(FILE_HEADER_LEN).ok_or_else(too_short)?;
    let header: &[u8; FILE_HEADER_LEN] = header.try_into().map_err(|_| too_short())?;
    let [m0, m1, m2, m3, v0, v1, v2, v3, len_bytes @ ..] = *header;
    let found_magic = [m0, m1, m2, m3];
    if found_magic != magic {
        return Err(FormatError::Corrupt(format!(
            "bad magic {found_magic:02x?}, expected {magic:02x?} ({})",
            String::from_utf8_lossy(&magic)
        )));
    }
    let version = u32::from_le_bytes([v0, v1, v2, v3]);
    if version != FORMAT_VERSION {
        return Err(FormatError::Version(version));
    }
    let declared_len = u64::from_le_bytes(len_bytes);
    // Compare in u64: a corrupt length near u64::MAX must classify as
    // truncation, not overflow `declared_len + 4` into a panic / wrap.
    if usize_to_u64(body.len()) < declared_len.saturating_add(4) {
        return Err(FormatError::Truncated(format!(
            "payload declares {declared_len} byte(s) + checksum, file holds {}",
            body.len()
        )));
    }
    // declared_len + 4 fits in body.len() (a usize), so this cannot fail;
    // the error arm keeps the conversion total.
    let payload_len = usize::try_from(declared_len)
        .map_err(|_| FormatError::Corrupt(format!("payload length {declared_len} overflows")))?;
    let (payload, tail) = body.split_at_checked(payload_len).ok_or_else(too_short)?;
    let stored = match *tail {
        [c0, c1, c2, c3] => u32::from_le_bytes([c0, c1, c2, c3]),
        _ => {
            return Err(FormatError::Corrupt(format!(
                "{} trailing byte(s) after the checksum",
                tail.len().saturating_sub(4)
            )))
        }
    };
    let actual = crc32(payload);
    if stored != actual {
        return Err(FormatError::Corrupt(format!(
            "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Name tables
// ---------------------------------------------------------------------------

/// The three id-ordered name tables: `(sources, items, values)`.
pub(crate) type NameTables = (Vec<String>, Vec<String>, Vec<String>);

/// Encodes the three id-ordered name tables (sources, items, values).
pub(crate) fn encode_tables(
    sources: &[String],
    items: &[String],
    values: &[String],
) -> Result<Vec<u8>, FormatError> {
    let mut payload = Vec::new();
    for table in [sources, items, values] {
        codec::put_u32(&mut payload, len_u32(table.len(), "name table")?);
        for name in table {
            codec::put_str(&mut payload, name).map_err(FormatError::from)?;
        }
    }
    Ok(encode_file(MAGIC_TABLES, &payload))
}

/// Decodes a name-table file into `(sources, items, values)` in id order.
pub(crate) fn decode_tables(bytes: &[u8]) -> Result<NameTables, FormatError> {
    let payload = decode_file(MAGIC_TABLES, bytes)?;
    let mut r = Reader::new(payload);
    let mut tables: [Vec<String>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for table in &mut tables {
        let count = u32_to_usize(r.u32()?);
        table.reserve(count.min(1 << 20));
        for _ in 0..count {
            table.push(r.string()?);
        }
    }
    if !r.is_empty() {
        return Err(FormatError::Corrupt(format!(
            "{} trailing byte(s) after the value table",
            r.remaining()
        )));
    }
    let [sources, items, values] = tables;
    Ok((sources, items, values))
}

// ---------------------------------------------------------------------------
// Sealed segments
// ---------------------------------------------------------------------------

/// Encodes a sealed segment: per-source sorted claim lists in source order.
pub(crate) fn encode_segment(segment: &SealedSegment) -> Result<Vec<u8>, FormatError> {
    let mut payload = Vec::new();
    codec::put_u32(&mut payload, len_u32(segment.num_sources(), "segment source")?);
    for (source, list) in segment.per_source() {
        codec::put_u32(&mut payload, source.raw());
        codec::put_u32(&mut payload, len_u32(list.len(), "segment claim-list")?);
        for &(item, value) in list {
            codec::put_u32(&mut payload, item.raw());
            codec::put_u32(&mut payload, value.raw());
        }
    }
    Ok(encode_file(MAGIC_SEGMENT, &payload))
}

/// Decodes a sealed-segment file, re-validating the segment invariants
/// (strictly increasing source ids, strictly increasing items per source).
pub(crate) fn decode_segment(bytes: &[u8]) -> Result<SealedSegment, FormatError> {
    let payload = decode_file(MAGIC_SEGMENT, bytes)?;
    let mut r = Reader::new(payload);
    let num_sources = u32_to_usize(r.u32()?);
    let mut claims: Vec<(SourceId, Vec<(ItemId, ValueId)>)> = Vec::new();
    let mut num_claims = 0usize;
    for _ in 0..num_sources {
        let source = SourceId::new(r.u32()?);
        if let Some((prev, _)) = claims.last() {
            if *prev >= source {
                return Err(FormatError::Corrupt(format!(
                    "source {source} out of order after {prev}"
                )));
            }
        }
        let len = u32_to_usize(r.u32()?);
        if len == 0 {
            return Err(FormatError::Corrupt(format!("source {source} has an empty claim list")));
        }
        let mut list = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            let item = ItemId::new(r.u32()?);
            let value = ValueId::new(r.u32()?);
            if let Some(&(prev, _)) = list.last() {
                if prev >= item {
                    return Err(FormatError::Corrupt(format!(
                        "item {item} of source {source} out of order after {prev}"
                    )));
                }
            }
            list.push((item, value));
        }
        num_claims += len;
        claims.push((source, list));
    }
    if !r.is_empty() {
        return Err(FormatError::Corrupt(format!(
            "{} trailing byte(s) after the last claim list",
            r.remaining()
        )));
    }
    Ok(SealedSegment::from_parts(claims, num_claims))
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// The commit record of the durable store: which files make up the current
/// sealed state, in segment order (oldest first).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Manifest {
    /// Next file sequence number to allocate.
    pub next_seq: u64,
    /// The name-table **chain**, oldest first: each file holds the names
    /// appended since its predecessor, so the concatenation (in chain
    /// order) yields every table in id order. A durable seal appends one
    /// delta file with only the names that seal introduced — O(new names) —
    /// and compaction collapses the chain back into a single file.
    pub tables: Vec<String>,
    /// Sealed-segment file names, oldest first.
    pub segments: Vec<String>,
}

/// Encodes the manifest.
pub(crate) fn encode_manifest(manifest: &Manifest) -> Result<Vec<u8>, FormatError> {
    let mut payload = Vec::new();
    codec::put_u64(&mut payload, manifest.next_seq);
    codec::put_u32(&mut payload, len_u32(manifest.tables.len(), "manifest tables")?);
    for name in &manifest.tables {
        codec::put_str(&mut payload, name).map_err(FormatError::from)?;
    }
    codec::put_u32(&mut payload, len_u32(manifest.segments.len(), "manifest segment")?);
    for name in &manifest.segments {
        codec::put_str(&mut payload, name).map_err(FormatError::from)?;
    }
    Ok(encode_file(MAGIC_MANIFEST, &payload))
}

/// Decodes and validates a manifest file.
pub(crate) fn decode_manifest(bytes: &[u8]) -> Result<Manifest, FormatError> {
    let payload = decode_file(MAGIC_MANIFEST, bytes)?;
    let mut r = Reader::new(payload);
    let next_seq = r.u64()?;
    let tables_count = u32_to_usize(r.u32()?);
    let mut tables = Vec::with_capacity(tables_count.min(1 << 16));
    for _ in 0..tables_count {
        tables.push(validate_file_name(r.string()?)?);
    }
    let count = u32_to_usize(r.u32()?);
    let mut segments = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        segments.push(validate_file_name(r.string()?)?);
    }
    if !r.is_empty() {
        return Err(FormatError::Corrupt(format!(
            "{} trailing byte(s) after the segment list",
            r.remaining()
        )));
    }
    Ok(Manifest { next_seq, tables, segments })
}

/// Rejects manifest entries that could escape the store directory.
fn validate_file_name(name: String) -> Result<String, FormatError> {
    if name.is_empty() || name.contains(['/', '\\']) || name == "." || name == ".." {
        return Err(FormatError::Corrupt(format!("invalid file name {name:?} in manifest")));
    }
    Ok(name)
}

// ---------------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------------

/// The WAL header bytes (magic + version).
pub(crate) fn wal_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(&MAGIC_WAL);
    codec::put_u32(&mut out, FORMAT_VERSION);
    out
}

/// One durable event in the write-ahead log.
///
/// `Def*` records are written by the bare interning entry points
/// (`ClaimStore::source` / `item` / `value`); a [`Claim`](WalRecord::Claim)
/// record is written by every ingest and *embeds* the definitions of any
/// names that ingest interned, so one ingest is one atomic frame — a crash
/// boundary can never separate a claim from the names it introduced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// A source name was interned with the given dense id.
    DefSource {
        /// The assigned id (`NameTable` index).
        id: u32,
        /// The interned name.
        name: String,
    },
    /// An item name was interned with the given dense id.
    DefItem {
        /// The assigned id.
        id: u32,
        /// The interned name.
        name: String,
    },
    /// A value string was interned with the given dense id.
    DefValue {
        /// The assigned id.
        id: u32,
        /// The interned string.
        name: String,
    },
    /// One ingested claim, with the names it newly interned (if any).
    Claim {
        /// The claim in dense ids.
        claim: Claim,
        /// The source name, when this ingest interned it.
        source_def: Option<String>,
        /// The item name, when this ingest interned it.
        item_def: Option<String>,
        /// The value string, when this ingest interned it.
        value_def: Option<String>,
    },
}

const KIND_DEF_SOURCE: u8 = 1;
const KIND_DEF_ITEM: u8 = 2;
const KIND_DEF_VALUE: u8 = 3;
const KIND_CLAIM: u8 = 4;

/// Encodes a record payload (no framing).
pub(crate) fn encode_record(record: &WalRecord) -> Result<Vec<u8>, FormatError> {
    let mut out = Vec::new();
    match record {
        WalRecord::DefSource { id, name }
        | WalRecord::DefItem { id, name }
        | WalRecord::DefValue { id, name } => {
            codec::put_u8(
                &mut out,
                match record {
                    WalRecord::DefSource { .. } => KIND_DEF_SOURCE,
                    WalRecord::DefItem { .. } => KIND_DEF_ITEM,
                    _ => KIND_DEF_VALUE,
                },
            );
            codec::put_u32(&mut out, *id);
            codec::put_str(&mut out, name).map_err(FormatError::from)?;
        }
        WalRecord::Claim { claim, source_def, item_def, value_def } => {
            codec::put_u8(&mut out, KIND_CLAIM);
            codec::put_claim(&mut out, claim);
            let flags = u8::from(source_def.is_some())
                | u8::from(item_def.is_some()) << 1
                | u8::from(value_def.is_some()) << 2;
            codec::put_u8(&mut out, flags);
            for def in [source_def, item_def, value_def].into_iter().flatten() {
                codec::put_str(&mut out, def).map_err(FormatError::from)?;
            }
        }
    }
    Ok(out)
}

/// Decodes one record payload; the payload must be exactly one record.
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord, FormatError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let record = match kind {
        KIND_DEF_SOURCE | KIND_DEF_ITEM | KIND_DEF_VALUE => {
            let id = r.u32()?;
            let name = r.string()?;
            match kind {
                KIND_DEF_SOURCE => WalRecord::DefSource { id, name },
                KIND_DEF_ITEM => WalRecord::DefItem { id, name },
                _ => WalRecord::DefValue { id, name },
            }
        }
        KIND_CLAIM => {
            let claim = r.claim()?;
            let flags = r.u8()?;
            if flags & !0b111 != 0 {
                return Err(FormatError::Corrupt(format!("bad claim flags {flags:#04x}")));
            }
            let source_def = if flags & 1 != 0 { Some(r.string()?) } else { None };
            let item_def = if flags & 2 != 0 { Some(r.string()?) } else { None };
            let value_def = if flags & 4 != 0 { Some(r.string()?) } else { None };
            WalRecord::Claim { claim, source_def, item_def, value_def }
        }
        other => return Err(FormatError::Corrupt(format!("unknown WAL record kind {other}"))),
    };
    if !r.is_empty() {
        return Err(FormatError::Corrupt(format!(
            "{} trailing byte(s) after a kind-{kind} record",
            r.remaining()
        )));
    }
    Ok(record)
}

/// Frames an encoded record payload: `[len][payload][crc32]`.
///
/// A payload past [`MAX_FRAME_LEN`] cannot be framed (its length would not
/// scan back) and is refused as a typed error, never an assert — WAL
/// appends run on the ingest path.
pub(crate) fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, FormatError> {
    let len =
        u32::try_from(payload.len()).ok().filter(|&len| len <= MAX_FRAME_LEN).ok_or_else(|| {
            FormatError::Corrupt(format!(
                "WAL frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
                payload.len()
            ))
        })?;
    let mut out = Vec::with_capacity(payload.len() + 8);
    codec::put_u32(&mut out, len);
    out.extend_from_slice(payload);
    codec::put_u32(&mut out, crc32(payload));
    Ok(out)
}

/// Result of scanning a WAL's bytes.
#[derive(Debug)]
pub(crate) struct WalContents {
    /// The decoded records of every complete, checksummed frame, in order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + complete frames). Anything
    /// beyond is a torn tail from a crash mid-append and must be truncated
    /// before the log is appended to again.
    pub valid_len: usize,
    /// `true` if a torn tail was found (and dropped).
    pub torn: bool,
}

/// Scans a write-ahead log.
///
/// An empty or header-only file is a valid empty log; a file shorter than
/// the header is treated as a torn header (empty log). A complete frame
/// whose checksum or record fails to decode is **corruption**; an
/// *incomplete* trailing frame is a torn tail and is dropped silently.
pub(crate) fn read_wal(bytes: &[u8]) -> Result<WalContents, FormatError> {
    let header_parts = bytes.split_at_checked(WAL_HEADER_LEN).and_then(|(header, rest)| {
        let header: &[u8; WAL_HEADER_LEN] = header.try_into().ok()?;
        Some((*header, rest))
    });
    let Some(([m0, m1, m2, m3, v0, v1, v2, v3], mut rest)) = header_parts else {
        // A torn header write; nothing was ever durably logged.
        return Ok(WalContents { records: Vec::new(), valid_len: 0, torn: !bytes.is_empty() });
    };
    let found_magic = [m0, m1, m2, m3];
    if found_magic != MAGIC_WAL {
        return Err(FormatError::Corrupt(format!(
            "bad WAL magic {found_magic:02x?}, expected {MAGIC_WAL:02x?}"
        )));
    }
    let version = u32::from_le_bytes([v0, v1, v2, v3]);
    if version != FORMAT_VERSION {
        return Err(FormatError::Version(version));
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    loop {
        if rest.is_empty() {
            return Ok(WalContents { records, valid_len: pos, torn: false });
        }
        let torn = WalContents { records: Vec::new(), valid_len: pos, torn: true };
        // Each frame is peeled off with checked splits; any piece that ends
        // early is the torn-tail case, never an index panic.
        let frame = rest.split_at_checked(4).and_then(|(len_bytes, after_len)| {
            let len_bytes: [u8; 4] = len_bytes.try_into().ok()?;
            Some((u32::from_le_bytes(len_bytes), after_len))
        });
        let Some((len, after_len)) = frame else {
            return Ok(WalContents { records, ..torn });
        };
        if len > MAX_FRAME_LEN {
            return Err(FormatError::Corrupt(format!(
                "frame at byte {pos} declares {len} bytes (limit {MAX_FRAME_LEN})"
            )));
        }
        let payload_len = u32_to_usize(len);
        let Some((payload, after_payload)) = after_len.split_at_checked(payload_len) else {
            // The final append was cut short — the torn-tail case.
            return Ok(WalContents { records, ..torn });
        };
        let crc_parts = after_payload.split_at_checked(4).and_then(|(crc_bytes, next)| {
            let crc_bytes: [u8; 4] = crc_bytes.try_into().ok()?;
            Some((u32::from_le_bytes(crc_bytes), next))
        });
        let Some((stored, next)) = crc_parts else {
            return Ok(WalContents { records, ..torn });
        };
        let actual = crc32(payload);
        if stored != actual {
            return Err(FormatError::Corrupt(format!(
                "frame at byte {pos} checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        records.push(decode_record(payload)?);
        pos += 4 + payload_len + 4;
        rest = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::GrowingSegment;
    use proptest::prelude::*;

    fn sample_segment() -> SealedSegment {
        let mut g = GrowingSegment::new();
        g.insert(SourceId::new(0), ItemId::new(2), ValueId::new(1));
        g.insert(SourceId::new(0), ItemId::new(0), ValueId::new(0));
        g.insert(SourceId::new(5), ItemId::new(1), ValueId::new(3));
        g.freeze()
    }

    fn segments_equal(a: &SealedSegment, b: &SealedSegment) -> bool {
        a.num_claims() == b.num_claims()
            && a.per_source().zip(b.per_source()).all(|((s1, l1), (s2, l2))| s1 == s2 && l1 == l2)
            && a.num_sources() == b.num_sources()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn envelope_roundtrip_and_tamper_detection() {
        let original = encode_file(MAGIC_TABLES, b"hello payload");
        assert_eq!(decode_file(MAGIC_TABLES, &original).unwrap(), b"hello payload");

        // Wrong magic class.
        assert!(matches!(decode_file(MAGIC_SEGMENT, &original), Err(FormatError::Corrupt(_))));
        // A flipped payload bit fails the checksum.
        let mut flipped = original.clone();
        flipped[18] ^= 0x40;
        assert!(matches!(decode_file(MAGIC_TABLES, &flipped), Err(FormatError::Corrupt(_))));
        // A flipped checksum bit fails too.
        let mut bad_crc = original.clone();
        *bad_crc.last_mut().unwrap() ^= 1;
        assert!(matches!(decode_file(MAGIC_TABLES, &bad_crc), Err(FormatError::Corrupt(_))));
        // A truncated file is reported as truncated.
        assert!(matches!(
            decode_file(MAGIC_TABLES, &original[..original.len() - 3]),
            Err(FormatError::Truncated(_))
        ));
        // A length field damaged to near-u64::MAX is truncation, not an
        // arithmetic overflow panic.
        let mut huge_len = original.clone();
        huge_len[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_file(MAGIC_TABLES, &huge_len), Err(FormatError::Truncated(_))));
        assert!(matches!(
            decode_file(MAGIC_TABLES, &original[..7]),
            Err(FormatError::Truncated(_))
        ));
        // Extra bytes after the checksum are corruption, not silently ignored.
        let mut padded = original.clone();
        padded.push(0);
        assert!(matches!(decode_file(MAGIC_TABLES, &padded), Err(FormatError::Corrupt(_))));
        // A foreign version is a version mismatch.
        let mut wrong_version = original;
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(decode_file(MAGIC_TABLES, &wrong_version), Err(FormatError::Version(99)));
    }

    #[test]
    fn tables_roundtrip_including_empty_and_non_ascii() {
        let cases: Vec<(Vec<String>, Vec<String>, Vec<String>)> = vec![
            (vec![], vec![], vec![]),
            (
                vec!["alice".into(), "böb".into(), "источник".into()],
                vec!["NJ".into(), "首都".into()],
                vec!["".into(), "Trenton\u{1F600}".into()],
            ),
        ];
        for (s, i, v) in cases {
            let bytes = encode_tables(&s, &i, &v).unwrap();
            assert_eq!(decode_tables(&bytes).unwrap(), (s, i, v));
        }
    }

    #[test]
    fn segment_roundtrip_and_invariant_validation() {
        let seg = sample_segment();
        let bytes = encode_segment(&seg).unwrap();
        let back = decode_segment(&bytes).unwrap();
        assert!(segments_equal(&seg, &back));

        // Hand-roll a payload with out-of-order sources → corrupt.
        let mut payload = Vec::new();
        codec::put_u32(&mut payload, 2);
        for source in [3u32, 1] {
            codec::put_u32(&mut payload, source);
            codec::put_u32(&mut payload, 1);
            codec::put_u32(&mut payload, 0);
            codec::put_u32(&mut payload, 0);
        }
        let file = encode_file(MAGIC_SEGMENT, &payload);
        assert!(matches!(decode_segment(&file), Err(FormatError::Corrupt(_))));
    }

    #[test]
    fn manifest_roundtrip_and_validation() {
        let m = Manifest {
            next_seq: 7,
            tables: vec!["tables-000003.tbl".into(), "tables-000005.tbl".into()],
            segments: vec!["seg-000001.seg".into(), "seg-000002.seg".into()],
        };
        let bytes = encode_manifest(&m).unwrap();
        assert_eq!(decode_manifest(&bytes).unwrap(), m);

        let empty = Manifest::default();
        let bytes = encode_manifest(&empty).unwrap();
        assert_eq!(decode_manifest(&bytes).unwrap(), empty);

        // Path-traversal names are rejected — in the tables chain too.
        let evil = Manifest { next_seq: 0, tables: vec![], segments: vec!["../../etc".into()] };
        let bytes = encode_manifest(&evil).unwrap();
        assert!(matches!(decode_manifest(&bytes), Err(FormatError::Corrupt(_))));
        let evil = Manifest { next_seq: 0, tables: vec!["a/b.tbl".into()], segments: vec![] };
        let bytes = encode_manifest(&evil).unwrap();
        assert!(matches!(decode_manifest(&bytes), Err(FormatError::Corrupt(_))));
    }

    #[test]
    fn wal_frames_roundtrip_and_torn_tail_is_dropped() {
        let records = vec![
            WalRecord::DefSource { id: 0, name: "alice".into() },
            WalRecord::Claim {
                claim: Claim::new(SourceId::new(0), ItemId::new(0), ValueId::new(0)),
                source_def: None,
                item_def: Some("NJ".into()),
                value_def: Some("Trenton".into()),
            },
            WalRecord::DefValue { id: 1, name: "Ph\u{153}nix".into() },
        ];
        let mut bytes = wal_header();
        for record in &records {
            bytes.extend_from_slice(&encode_frame(&encode_record(record).unwrap()).unwrap());
        }
        let full = read_wal(&bytes).unwrap();
        assert_eq!(full.records, records);
        assert_eq!(full.valid_len, bytes.len());
        assert!(!full.torn);

        // Cutting anywhere inside the final frame drops exactly that frame.
        let second_end =
            full.valid_len - encode_frame(&encode_record(&records[2]).unwrap()).unwrap().len();
        for cut in second_end + 1..bytes.len() {
            let torn = read_wal(&bytes[..cut]).unwrap();
            assert_eq!(torn.records, records[..2], "cut at {cut}");
            assert_eq!(torn.valid_len, second_end);
            assert!(torn.torn);
        }

        // A bit flip in a *complete* frame is corruption, not truncation.
        let mut flipped = bytes.clone();
        flipped[WAL_HEADER_LEN + 6] ^= 0x10;
        assert!(matches!(read_wal(&flipped), Err(FormatError::Corrupt(_))));

        // Bad header magic / version.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(read_wal(&bad_magic), Err(FormatError::Corrupt(_))));
        let mut bad_version = bytes;
        bad_version[4] = 9;
        assert!(matches!(read_wal(&bad_version), Err(FormatError::Version(9))));

        // Empty and torn-header files are valid empty logs.
        assert!(read_wal(&[]).unwrap().records.is_empty());
        let torn_header = read_wal(&MAGIC_WAL[..3]).unwrap();
        assert!(torn_header.records.is_empty() && torn_header.torn);
    }

    #[test]
    fn oversized_frame_length_is_corruption() {
        let mut bytes = wal_header();
        codec::put_u32(&mut bytes, MAX_FRAME_LEN + 1);
        assert!(matches!(read_wal(&bytes), Err(FormatError::Corrupt(_))));
    }

    // -- round-trip properties ---------------------------------------------

    /// Short strings over a mixed ASCII / non-ASCII alphabet.
    fn name_strategy() -> impl Strategy<Value = String> {
        prop::collection::vec(0u8..12, 0..8).prop_map(|chars| {
            const ALPHABET: [char; 12] =
                ['a', 'Z', '0', '#', '\t', ' ', 'é', 'ß', '雪', '\u{1F600}', '\u{0}', 'Ω'];
            chars.into_iter().map(|i| ALPHABET[i as usize]).collect()
        })
    }

    fn record_strategy() -> impl Strategy<Value = WalRecord> {
        (0u8..4, any::<u32>(), name_strategy(), name_strategy(), name_strategy(), 0u8..8).prop_map(
            |(kind, id, a, b, c, flags)| match kind {
                0 => WalRecord::DefSource { id, name: a },
                1 => WalRecord::DefItem { id, name: a },
                2 => WalRecord::DefValue { id, name: a },
                _ => WalRecord::Claim {
                    claim: Claim::new(
                        SourceId::new(id),
                        ItemId::new(id.wrapping_mul(3)),
                        ValueId::new(id.wrapping_add(7)),
                    ),
                    source_def: (flags & 1 != 0).then_some(a),
                    item_def: (flags & 2 != 0).then_some(b),
                    value_def: (flags & 4 != 0).then_some(c),
                },
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// decode(encode(record)) == record for arbitrary records, and the
        /// framed form survives a full WAL scan.
        #[test]
        fn wal_record_roundtrip(records in prop::collection::vec(record_strategy(), 0..12)) {
            let mut bytes = wal_header();
            for record in &records {
                let payload = encode_record(record).unwrap();
                prop_assert_eq!(&decode_record(&payload).unwrap(), record);
                bytes.extend_from_slice(&encode_frame(&payload).unwrap());
            }
            let scanned = read_wal(&bytes).unwrap();
            prop_assert_eq!(scanned.records, records);
            prop_assert_eq!(scanned.valid_len, bytes.len());
            prop_assert!(!scanned.torn);
        }

        /// decode(encode(tables)) == tables for arbitrary name tables.
        #[test]
        fn tables_roundtrip(
            sources in prop::collection::vec(name_strategy(), 0..6),
            items in prop::collection::vec(name_strategy(), 0..6),
            values in prop::collection::vec(name_strategy(), 0..6),
        ) {
            let bytes = encode_tables(&sources, &items, &values).unwrap();
            prop_assert_eq!(decode_tables(&bytes).unwrap(), (sources, items, values));
        }

        /// Arbitrary segments round-trip through the segment codec.
        #[test]
        fn segment_codec_roundtrip(claims in prop::collection::vec((0u32..20, 0u32..20, 0u32..8), 0..40)) {
            let mut g = GrowingSegment::new();
            for (s, d, v) in claims {
                g.insert(SourceId::new(s), ItemId::new(d), ValueId::new(v));
            }
            let seg = g.freeze();
            let back = decode_segment(&encode_segment(&seg).unwrap()).unwrap();
            prop_assert!(segments_equal(&seg, &back));
        }

        /// Feeding arbitrary bytes to every decoder returns an error or a
        /// value — never a panic, never an absurd allocation.
        #[test]
        fn decoders_tolerate_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
            let _ = decode_tables(&bytes);
            let _ = decode_segment(&bytes);
            let _ = decode_manifest(&bytes);
            let _ = decode_record(&bytes);
            let _ = read_wal(&bytes);
            let _ = decode_file(MAGIC_TABLES, &bytes);
        }

        /// Arbitrary bytes *appended to a valid WAL* either extend it with
        /// garbage that is flagged (torn/corrupt) or leave the valid prefix
        /// intact — the original records are never lost or reordered.
        #[test]
        fn wal_prefix_survives_garbage_tail(tail in prop::collection::vec(any::<u8>(), 0..40)) {
            let record = WalRecord::DefSource { id: 0, name: "s".into() };
            let mut bytes = wal_header();
            bytes.extend_from_slice(&encode_frame(&encode_record(&record).unwrap()).unwrap());
            let valid = bytes.len();
            bytes.extend_from_slice(&tail);
            match read_wal(&bytes) {
                Ok(contents) => {
                    prop_assert!(!contents.records.is_empty());
                    prop_assert_eq!(&contents.records[0], &record);
                    prop_assert!(contents.valid_len >= valid || contents.records.len() == 1);
                }
                Err(FormatError::Corrupt(_)) | Err(FormatError::Version(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error {:?}", other),
            }
        }
    }
}
