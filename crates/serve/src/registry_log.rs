//! The `REGISTRY` file: an append-only arrival-order log of the global
//! source registry, kept next to the `SHARDS` pin in a durable fleet root.
//!
//! Sources are the fleet's only global id space. The evidence of a pair no
//! longer depends on any id — sums are exact integers and the value vote is
//! order-free — so items and values have shard-local ids only. Source ids
//! still decide what a client sees: they key and orient every pair (`C→` is
//! "the pair's first source copies from its second"), order DETECT's
//! response and break top-k ties. A shard-major rebuild on restart yields
//! deterministic source ids, but not necessarily the *original arrival
//! order*, so a reopened fleet replays this log before looking at any
//! shard: every source gets its original global id back and DETECT
//! responses are byte-identical across restarts (asserted in
//! `tests/registry_restart.rs`).
//!
//! ## Record format
//!
//! ```text
//! [kind: u8][len: u32 LE][name: len UTF-8 bytes][crc32(kind..name): u32 LE]
//! ```
//!
//! `kind` 0 tags a source. Roots written before items and values lost their
//! global ids also hold kind 1 (item) and kind 2 (value) records: replay
//! parses and drops them, and appends write sources only. The trailing CRC
//! makes a torn tail detectable: replay keeps the longest intact record
//! prefix and truncates the rest (a crash happened mid-append; the sources
//! a torn record carried cannot have reached any shard WAL, because appends
//! are fsynced under the registry lock *before* the batch touches a shard)
//! and re-appends from there. Records are not individually addressable
//! after a bad one (boundaries are data-dependent), so a checksum failure
//! anywhere ends the intact prefix; sources lost that way are re-interned
//! shard-major by the open-time rebuild — detection stays exact, only the
//! pre-crash arrival order degrades. A structurally intact record with an
//! *unknown kind*, by contrast, is unambiguous corruption and refuses the
//! open.
//!
//! The log is written under the existing rank-10 registry write lock — no
//! new lock, no rank-table change: batches whose sources are all known (the
//! steady state) never take the write lock and never touch the log.

use copydet_model::codec::{self, crc32_ieee, CodecError, Reader};
use copydet_store::StoreIoError;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Name of the registry log inside a durable sharded-store root.
pub(crate) const REGISTRY_FILE: &str = "REGISTRY";

/// Byte bound on the `REGISTRY` log (1 GiB). The log holds every distinct
/// source name once (~tens of bytes each); a file near this bound is
/// corruption, rejected before any allocation.
const MAX_REGISTRY_LOG_LEN: u64 = 1 << 30;

/// Record kind of a source name, the only kind appended.
const SOURCE_TAG: u8 = 0;

/// Record kinds of the item (1) and value (2) names older roots logged;
/// replay skips them.
const LEGACY_TAGS: [u8; 2] = [1, 2];

/// An open handle on the arrival-order log, appending records durably.
#[derive(Debug)]
pub(crate) struct RegistryLog {
    path: PathBuf,
    file: std::fs::File,
}

impl RegistryLog {
    /// Opens (creating if absent) the `REGISTRY` log under `root` and
    /// replays the source names of its longest intact record prefix, in
    /// arrival order, truncating anything after it (a torn tail from a
    /// crashed append). An intact record with an unknown kind is
    /// [`StoreIoError::Corrupt`].
    pub(crate) fn open_and_replay(root: &Path) -> Result<(Self, Vec<String>), StoreIoError> {
        let path = root.join(REGISTRY_FILE);
        let bytes = copydet_store::read_bounded(&path, MAX_REGISTRY_LOG_LEN)?.unwrap_or_default();
        let (sources, intact_len) = Self::parse(&path, &bytes)?;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreIoError::io(&path, &e))?;
        if intact_len < bytes.len() {
            // Drop the torn tail so the next append starts on a record
            // boundary. (Append position follows the new length.)
            file.set_len(codec::usize_to_u64(intact_len))
                .map_err(|e| StoreIoError::io(&path, &e))?;
            file.sync_data().map_err(|e| StoreIoError::io(&path, &e))?;
        }
        Ok((Self { path, file }, sources))
    }

    /// Parses `bytes` into source names, returning them plus the byte
    /// length of the intact prefix (shorter than `bytes.len()` only for a
    /// torn tail).
    fn parse(path: &Path, bytes: &[u8]) -> Result<(Vec<String>, usize), StoreIoError> {
        let mut reader = Reader::new(bytes);
        let mut sources = Vec::new();
        while !reader.is_empty() {
            let start = reader.pos();
            let parsed = (|r: &mut Reader<'_>| -> Result<(u8, String), CodecError> {
                let tag = r.u8()?;
                let name = r.string()?;
                let body_end = r.pos();
                let stored = r.u32()?;
                let computed = bytes
                    .get(start..body_end)
                    .map(crc32_ieee)
                    .ok_or(CodecError::Truncated { needed: body_end, have: bytes.len() })?;
                if stored != computed {
                    // Reported as a truncation so a torn final record is
                    // healed; mid-file it is rejected below either way.
                    return Err(CodecError::Truncated { needed: 4, have: 0 });
                }
                Ok((tag, name))
            })(&mut reader);
            match parsed {
                Ok((SOURCE_TAG, name)) => sources.push(name),
                Ok((tag, _)) if LEGACY_TAGS.contains(&tag) => {}
                Ok((tag, _)) => {
                    return Err(StoreIoError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!(
                            "registry log record at offset {start} has unknown kind {tag:#04x}"
                        ),
                    })
                }
                // An unreadable record that reaches the end of the file is a
                // torn tail from a crashed append: truncate and move on.
                Err(_) => return Ok((sources, start)),
            }
        }
        Ok((sources, bytes.len()))
    }

    /// Appends one source record per name and fsyncs. Called under the
    /// registry write lock, *before* the batch that introduced these
    /// sources reaches any shard — so a crash can never leave durable
    /// claims whose sources are missing from the log. New sources are rare
    /// in the steady state, so the per-append fsync is off the hot path.
    pub(crate) fn append(&mut self, sources: &[String]) -> Result<(), StoreIoError> {
        if sources.is_empty() {
            return Ok(());
        }
        let mut out = Vec::new();
        for name in sources {
            let start = out.len();
            codec::put_u8(&mut out, SOURCE_TAG);
            codec::put_str(&mut out, name).map_err(|e| StoreIoError::Corrupt {
                path: self.path.clone(),
                detail: format!("unloggable registry name: {e}"),
            })?;
            let crc = out.get(start..).map(crc32_ieee).unwrap_or_default();
            codec::put_u32(&mut out, crc);
        }
        self.file.write_all(&out).map_err(|e| StoreIoError::io(&self.path, &e))?;
        self.file.sync_data().map_err(|e| StoreIoError::io(&self.path, &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(label: &str) -> PathBuf {
        let root = std::env::temp_dir()
            .join(format!("copydet_registry_log_{label}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch dir");
        root
    }

    fn names(names: &[&str]) -> Vec<String> {
        names.iter().map(|&name| name.to_owned()).collect()
    }

    /// One intact record of `kind`, appended to `bytes` by hand.
    fn put_record(bytes: &mut Vec<u8>, kind: u8, name: &str) {
        let start = bytes.len();
        codec::put_u8(bytes, kind);
        codec::put_str(bytes, name).expect("short name");
        let crc = crc32_ieee(&bytes[start..]);
        codec::put_u32(bytes, crc);
    }

    #[test]
    fn roundtrip_preserves_arrival_order() {
        let root = scratch("roundtrip");
        let records = names(&["NJ", "alice", "Trenton", "bob"]);
        {
            let (mut log, replayed) = RegistryLog::open_and_replay(&root).expect("open fresh");
            assert!(replayed.is_empty());
            log.append(&records).expect("append");
        }
        let (_, replayed) = RegistryLog::open_and_replay(&root).expect("reopen");
        assert_eq!(replayed, records);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let root = scratch("torn");
        {
            let (mut log, _) = RegistryLog::open_and_replay(&root).expect("open fresh");
            log.append(&names(&["alice"])).expect("append");
        }
        // Simulate a crash mid-append: half a record at the tail.
        let path = root.join(REGISTRY_FILE);
        let mut bytes = std::fs::read(&path).expect("read log");
        let intact = bytes.len();
        bytes.extend_from_slice(&[SOURCE_TAG, 200, 0, 0]);
        std::fs::write(&path, &bytes).expect("write torn log");

        let (mut log, replayed) = RegistryLog::open_and_replay(&root).expect("heal torn tail");
        assert_eq!(replayed, names(&["alice"]));
        log.append(&names(&["NJ"])).expect("append after heal");
        drop(log);
        assert!(std::fs::metadata(&path).expect("stat").len() > codec::usize_to_u64(intact));
        let (_, replayed) = RegistryLog::open_and_replay(&root).expect("reopen");
        assert_eq!(replayed, names(&["alice", "NJ"]));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A root written when items and values were logged too still opens:
    /// only its sources come back, in arrival order, and the next append
    /// lands on a record boundary.
    #[test]
    fn legacy_item_and_value_records_are_skipped() {
        let root = scratch("legacy");
        let path = root.join(REGISTRY_FILE);
        let mut bytes = Vec::new();
        put_record(&mut bytes, 1, "NJ");
        put_record(&mut bytes, 0, "alice");
        put_record(&mut bytes, 2, "Trenton");
        put_record(&mut bytes, 2, "Newark");
        put_record(&mut bytes, 0, "bob");
        put_record(&mut bytes, 1, "AZ");
        std::fs::write(&path, &bytes).expect("write legacy log");

        let (mut log, replayed) = RegistryLog::open_and_replay(&root).expect("legacy roots open");
        assert_eq!(replayed, names(&["alice", "bob"]));
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), codec::usize_to_u64(bytes.len()));
        log.append(&names(&["carol"])).expect("append after legacy records");
        drop(log);
        let (_, replayed) = RegistryLog::open_and_replay(&root).expect("reopen");
        assert_eq!(replayed, names(&["alice", "bob", "carol"]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_kind_mid_file_refuses_the_open() {
        let root = scratch("badkind");
        let path = root.join(REGISTRY_FILE);
        // A structurally valid record (good CRC) with an unassigned kind,
        // followed by a valid one: not a torn tail, refused.
        let mut bytes = Vec::new();
        put_record(&mut bytes, 9, "ghost");
        put_record(&mut bytes, SOURCE_TAG, "alice");
        std::fs::write(&path, &bytes).expect("write log");

        let err = RegistryLog::open_and_replay(&root).expect_err("unknown kind is corruption");
        assert!(matches!(err, StoreIoError::Corrupt { .. }), "unexpected error: {err:?}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
