//! The physical I/O layer of the durable store: every byte that reaches disk
//! goes through [`DurableIo`], which funnels writes, fsyncs, renames and
//! removals past an injectable [`SyncPoint`] hook — the crash-injection
//! surface the recovery test suite is built on — and the [`WalWriter`] that
//! appends checksummed frames to the write-ahead log.
//!
//! ## Crash model
//!
//! A [`SyncPoint`] decides the fate of each physical event: let it through,
//! cut a write short after a prefix of its bytes (a torn write), or drop it
//! entirely. The first cut or drop puts the `DurableIo` into **dead mode**:
//! every later event is silently skipped, exactly as if the process had been
//! killed at that boundary — the in-memory store sails on, the disk freezes.
//! Tests then discard the store and recover from the directory, asserting
//! the recovered state equals the durable prefix.
//!
//! Real I/O errors are *not* part of the crash model: they are returned to
//! the persistence layer, which records the first failure as the store's
//! sticky [`StoreIoError`](crate::StoreIoError) and stops persisting.

use crate::error::StoreIoError;
use crate::format::{self, WalRecord};
use copydet_model::codec::usize_to_u64;
use copydet_obs::event::field;
use copydet_obs::{emit, registry, Histogram, Severity, Span};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// An append or fsync slower than this is a stall worth an event: 10ms is
/// two orders of magnitude above a healthy buffered append and roughly a
/// spinning disk's worst-case seek, so it only fires when the device (or a
/// saturated queue ahead of it) is genuinely misbehaving.
const WAL_STALL_NANOS: u64 = 10_000_000;

/// Latency of one WAL frame append (encode + gated write), in nanoseconds.
fn wal_append_nanos() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("copydet_store_wal_append_nanos"))
}

/// Latency of one WAL fsync, in nanoseconds.
fn wal_fsync_nanos() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("copydet_store_wal_fsync_nanos"))
}

/// The fate of one physical I/O event, chosen by a [`SyncPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePermit {
    /// Perform the event in full.
    Full,
    /// Write only the first `n` bytes, then die (simulates a torn write; for
    /// non-write events such as renames any `Partial` behaves like `Die`).
    Partial(usize),
    /// Skip the event and die.
    Die,
}

/// A fault-injection hook observing (and deciding) every physical I/O event
/// of a durable store.
///
/// `tag` names the event — `"wal:frame"`, `"segment:rename"`,
/// `"manifest:dirsync"`, … — and `len` is the number of bytes about to be
/// written (0 for renames, fsyncs, truncations and removals). Returning
/// anything but [`WritePermit::Full`] kills the store's persistence at that
/// boundary; see the module docs for the crash model.
///
/// Production stores never install a hook; the default is a no-op.
pub trait SyncPoint: Send + Sync {
    /// Decides the fate of one physical I/O event.
    fn permit(&self, tag: &str, len: usize) -> WritePermit;
}

/// How [`DurableIo::gate`] resolved an event.
enum Gate {
    /// Proceed with the full event.
    Proceed,
    /// Write only this many bytes, then enter dead mode.
    Cut(usize),
    /// Skip the event entirely (dead mode, or the hook said die).
    Skip,
}

/// All physical file operations of a durable store, gated by an optional
/// [`SyncPoint`] and a dead flag.
pub(crate) struct DurableIo {
    dir: PathBuf,
    hook: Option<Arc<dyn SyncPoint>>,
    dead: bool,
}

impl std::fmt::Debug for DurableIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableIo")
            .field("dir", &self.dir)
            .field("hooked", &self.hook.is_some())
            .field("dead", &self.dead)
            .finish()
    }
}

impl DurableIo {
    /// Creates the I/O layer for `dir`, optionally fault-injected.
    pub fn new(dir: PathBuf, hook: Option<Arc<dyn SyncPoint>>) -> Self {
        Self { dir, hook, dead: false }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Absolute path of a file inside the store directory.
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// `true` once a sync point has simulated a crash; all later events are
    /// skipped.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn gate(&mut self, tag: &str, len: usize) -> Gate {
        if self.dead {
            return Gate::Skip;
        }
        match self.hook.as_ref().map_or(WritePermit::Full, |h| h.permit(tag, len)) {
            WritePermit::Full => Gate::Proceed,
            WritePermit::Partial(n) if n >= len => {
                // Writing every byte and then dying is still a death.
                self.dead = true;
                Gate::Cut(len)
            }
            WritePermit::Partial(n) => {
                self.dead = true;
                Gate::Cut(n)
            }
            WritePermit::Die => {
                self.dead = true;
                Gate::Skip
            }
        }
    }

    /// Appends `bytes` to an open file (gated).
    pub fn append(
        &mut self,
        file: &mut File,
        path: &Path,
        tag: &str,
        bytes: &[u8],
    ) -> Result<(), StoreIoError> {
        let take = match self.gate(tag, bytes.len()) {
            Gate::Proceed => bytes.len(),
            Gate::Cut(n) => n,
            Gate::Skip => return Ok(()),
        };
        // `take` never exceeds `bytes.len()` (the gate cuts, it does not
        // extend); `get` keeps the slice total regardless.
        file.write_all(bytes.get(..take).unwrap_or(bytes)).map_err(|e| StoreIoError::io(path, &e))
    }

    /// Fsyncs an open file (gated).
    pub fn fsync(&mut self, file: &File, path: &Path, tag: &str) -> Result<(), StoreIoError> {
        match self.gate(tag, 0) {
            Gate::Proceed => file.sync_all().map_err(|e| StoreIoError::io(path, &e)),
            Gate::Cut(_) | Gate::Skip => Ok(()),
        }
    }

    /// Truncates an open file to `len` bytes (gated).
    pub fn truncate(
        &mut self,
        file: &File,
        path: &Path,
        tag: &str,
        len: u64,
    ) -> Result<(), StoreIoError> {
        match self.gate(tag, 0) {
            Gate::Proceed => file.set_len(len).map_err(|e| StoreIoError::io(path, &e)),
            Gate::Cut(_) | Gate::Skip => Ok(()),
        }
    }

    /// Removes a file by name, ignoring "not found" (gated).
    pub fn remove(&mut self, name: &str, tag: &str) -> Result<(), StoreIoError> {
        match self.gate(tag, 0) {
            Gate::Proceed => {}
            Gate::Cut(_) | Gate::Skip => return Ok(()),
        }
        let path = self.path_of(name);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreIoError::io(path, &e)),
        }
    }

    /// Fsyncs the store directory so a preceding rename is durable (gated).
    pub fn fsync_dir(&mut self, tag: &str) -> Result<(), StoreIoError> {
        match self.gate(tag, 0) {
            Gate::Proceed => {}
            Gate::Cut(_) | Gate::Skip => return Ok(()),
        }
        // Directory fsync is a POSIX-ism; on platforms where opening a
        // directory fails, the rename itself is the best available barrier.
        if let Ok(dir) = File::open(&self.dir) {
            dir.sync_all().map_err(|e| StoreIoError::io(&self.dir, &e))?;
        }
        Ok(())
    }

    /// Writes `bytes` to `name` atomically: write `name.tmp`, fsync it,
    /// rename over `name`, fsync the directory. Emits the gated events
    /// `{tag}:write`, `{tag}:fsync`, `{tag}:rename`, `{tag}:dirsync`.
    ///
    /// A reader never observes a partially written `name`: either the old
    /// file (or absence) survives, or the complete new bytes do.
    pub fn atomic_write(
        &mut self,
        name: &str,
        tag: &str,
        bytes: &[u8],
    ) -> Result<(), StoreIoError> {
        let tmp_name = format!("{name}.tmp");
        let tmp = self.path_of(&tmp_name);
        let take = match self.gate(&format!("{tag}:write"), bytes.len()) {
            Gate::Proceed => bytes.len(),
            Gate::Cut(n) => n,
            Gate::Skip => return Ok(()),
        };
        let mut file = File::create(&tmp).map_err(|e| StoreIoError::io(&tmp, &e))?;
        file.write_all(bytes.get(..take).unwrap_or(bytes))
            .map_err(|e| StoreIoError::io(&tmp, &e))?;
        self.fsync(&file, &tmp, &format!("{tag}:fsync"))?;
        drop(file);
        match self.gate(&format!("{tag}:rename"), 0) {
            Gate::Proceed => {}
            Gate::Cut(_) | Gate::Skip => return Ok(()),
        }
        let dest = self.path_of(name);
        std::fs::rename(&tmp, &dest).map_err(|e| StoreIoError::io(&dest, &e))?;
        self.fsync_dir(&format!("{tag}:dirsync"))
    }
}

/// Appends checksummed frames to the write-ahead log and resets it after a
/// durable seal.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: Option<File>,
    path: PathBuf,
    /// Complete frames currently in the log file.
    frames: u64,
    /// Bytes currently in the log file (header + frames).
    bytes: u64,
    /// Frames appended since the last fsync.
    unsynced: u64,
    /// Fsync after every append instead of at sync/seal boundaries.
    fsync_each: bool,
}

/// Name of the write-ahead log inside a store directory.
pub(crate) const WAL_FILE: &str = "wal.log";

impl WalWriter {
    /// Creates a fresh log (atomic header write), or resets an existing one.
    pub fn create(io: &mut DurableIo, fsync_each: bool) -> Result<Self, StoreIoError> {
        let mut writer = WalWriter {
            file: None,
            path: io.path_of(WAL_FILE),
            frames: 0,
            bytes: usize_to_u64(format::WAL_HEADER_LEN),
            unsynced: 0,
            fsync_each,
        };
        writer.reset(io)?;
        Ok(writer)
    }

    /// Opens an existing log whose valid prefix is `valid_len` bytes and
    /// holds `frames` frames; a torn tail beyond the prefix is truncated
    /// away so later appends start at a clean boundary.
    pub fn open_existing(
        io: &mut DurableIo,
        valid_len: u64,
        frames: u64,
        torn: bool,
        fsync_each: bool,
    ) -> Result<Self, StoreIoError> {
        let path = io.path_of(WAL_FILE);
        let file =
            OpenOptions::new().append(true).open(&path).map_err(|e| StoreIoError::io(&path, &e))?;
        if torn {
            io.truncate(&file, &path, "wal:truncate", valid_len)?;
        }
        Ok(WalWriter { file: Some(file), path, frames, bytes: valid_len, unsynced: 0, fsync_each })
    }

    /// Number of complete frames in the log.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Byte length of the log (header + frames).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// `true` if frames were appended since the last fsync.
    pub fn needs_sync(&self) -> bool {
        self.unsynced > 0
    }

    /// Appends one record as a checksummed frame (write-ahead: call before
    /// applying the record in memory).
    pub fn append(&mut self, io: &mut DurableIo, record: &WalRecord) -> Result<(), StoreIoError> {
        let span = Span::start();
        let payload = format::encode_record(record).map_err(|e| e.at(&self.path))?;
        let frame = format::encode_frame(&payload).map_err(|e| e.at(&self.path))?;
        let Some(file) = self.file.as_mut() else {
            // Detached writer: a sync point "killed" the store mid-reset;
            // every later event is skipped, like all dead-mode I/O.
            return Ok(());
        };
        io.append(file, &self.path, "wal:frame", &frame)?;
        self.frames += 1;
        self.bytes += usize_to_u64(frame.len());
        self.unsynced += 1;
        // Recorded before any chained fsync, so the append and fsync series
        // decompose the per-claim durability cost instead of double-counting.
        let nanos = span.elapsed_nanos();
        wal_append_nanos().record(nanos);
        if nanos >= WAL_STALL_NANOS {
            emit(
                Severity::Warn,
                "store",
                "wal.append_stall",
                vec![field::u64("nanos", nanos), field::u64("frames", self.frames)],
            );
        }
        if self.fsync_each {
            self.sync(io)?;
        }
        Ok(())
    }

    /// Fsyncs appended frames down to disk.
    pub fn sync(&mut self, io: &mut DurableIo) -> Result<(), StoreIoError> {
        let span = Span::start();
        if let Some(file) = &self.file {
            io.fsync(file, &self.path, "wal:fsync")?;
        }
        self.unsynced = 0;
        let nanos = span.elapsed_nanos();
        wal_fsync_nanos().record(nanos);
        if nanos >= WAL_STALL_NANOS {
            emit(
                Severity::Warn,
                "store",
                "wal.fsync_stall",
                vec![field::u64("nanos", nanos), field::u64("frames", self.frames)],
            );
        }
        Ok(())
    }

    /// Resets the log to an empty header via atomic rename — called after a
    /// durable seal has committed the frames' claims into a sealed segment.
    /// If the rename is cut by a crash, the old log survives intact; its
    /// frames replay idempotently over the committed segment.
    pub fn reset(&mut self, io: &mut DurableIo) -> Result<(), StoreIoError> {
        self.file = None;
        io.atomic_write(WAL_FILE, "wal:reset", &format::wal_header())?;
        self.frames = 0;
        self.bytes = usize_to_u64(format::WAL_HEADER_LEN);
        self.unsynced = 0;
        if io.is_dead() {
            // The process "died" at this boundary; leave the writer detached
            // (every later event is skipped anyway).
            return Ok(());
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreIoError::io(&self.path, &e))?;
        self.file = Some(file);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::read_wal;
    use copydet_model::{Claim, ItemId, SourceId, ValueId};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn tmp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "copydet_wal_{label}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_record(i: u32) -> WalRecord {
        WalRecord::Claim {
            claim: Claim::new(SourceId::new(i), ItemId::new(0), ValueId::new(i)),
            source_def: Some(format!("S{i}")),
            item_def: None,
            value_def: None,
        }
    }

    #[test]
    fn append_reset_append_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut io = DurableIo::new(dir.clone(), None);
        let mut wal = WalWriter::create(&mut io, false).unwrap();
        for i in 0..3 {
            wal.append(&mut io, &sample_record(i)).unwrap();
        }
        assert!(wal.needs_sync());
        wal.sync(&mut io).unwrap();
        assert!(!wal.needs_sync());
        assert_eq!(wal.frames(), 3);

        let contents = read_wal(&std::fs::read(dir.join(WAL_FILE)).unwrap()).unwrap();
        assert_eq!(contents.records.len(), 3);
        assert_eq!(contents.records[1], sample_record(1));

        wal.reset(&mut io).unwrap();
        assert_eq!(wal.frames(), 0);
        wal.append(&mut io, &sample_record(9)).unwrap();
        let contents = read_wal(&std::fs::read(dir.join(WAL_FILE)).unwrap()).unwrap();
        assert_eq!(contents.records, vec![sample_record(9)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_existing_truncates_a_torn_tail() {
        let dir = tmp_dir("torn");
        let mut io = DurableIo::new(dir.clone(), None);
        let mut wal = WalWriter::create(&mut io, true).unwrap();
        wal.append(&mut io, &sample_record(0)).unwrap();
        let valid = wal.bytes();
        drop(wal);
        // Simulate a crash mid-append: garbage half-frame at the tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
            f.write_all(&[7, 0, 0, 0, 1, 2]).unwrap();
        }
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let contents = read_wal(&bytes).unwrap();
        assert!(contents.torn);
        assert_eq!(contents.valid_len as u64, valid);

        let mut wal = WalWriter::open_existing(
            &mut io,
            contents.valid_len as u64,
            contents.records.len() as u64,
            contents.torn,
            false,
        )
        .unwrap();
        wal.append(&mut io, &sample_record(1)).unwrap();
        wal.sync(&mut io).unwrap();
        let contents = read_wal(&std::fs::read(dir.join(WAL_FILE)).unwrap()).unwrap();
        assert_eq!(contents.records, vec![sample_record(0), sample_record(1)]);
        assert!(!contents.torn, "the torn tail was truncated before appending");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Kills at the `n`-th event, optionally tearing a write in half.
    struct KillAt {
        counter: AtomicUsize,
        at: usize,
        tear: bool,
        log: Mutex<Vec<(String, usize)>>,
    }

    impl SyncPoint for KillAt {
        fn permit(&self, tag: &str, len: usize) -> WritePermit {
            let i = self.counter.fetch_add(1, Ordering::SeqCst);
            self.log.lock().unwrap().push((tag.to_owned(), len));
            match i.cmp(&self.at) {
                std::cmp::Ordering::Less => WritePermit::Full,
                std::cmp::Ordering::Equal if self.tear && len > 0 => WritePermit::Partial(len / 2),
                _ => WritePermit::Die,
            }
        }
    }

    #[test]
    fn dead_mode_freezes_the_disk_and_tears_are_recoverable() {
        let dir = tmp_dir("kill");
        let hook = Arc::new(KillAt {
            counter: AtomicUsize::new(0),
            at: 5,
            tear: true,
            log: Mutex::new(Vec::new()),
        });
        let mut io = DurableIo::new(dir.clone(), Some(Arc::clone(&hook) as Arc<dyn SyncPoint>));
        let mut wal = WalWriter::create(&mut io, false).unwrap(); // events 0..4 (header atomic write)
        assert!(!io.is_dead());
        wal.append(&mut io, &sample_record(0)).unwrap(); // event 4: full frame
        wal.append(&mut io, &sample_record(1)).unwrap(); // event 5: torn in half
        assert!(io.is_dead());
        wal.append(&mut io, &sample_record(2)).unwrap(); // skipped silently
        wal.sync(&mut io).unwrap(); // skipped
        drop(wal);

        let contents = read_wal(&std::fs::read(dir.join(WAL_FILE)).unwrap()).unwrap();
        assert_eq!(contents.records, vec![sample_record(0)], "only the pre-crash frame is durable");
        assert!(contents.torn, "the cut frame is a torn tail");
        let log = hook.log.lock().unwrap();
        assert_eq!(log[0].0, "wal:reset:write");
        assert_eq!(log[4].0, "wal:frame");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_cut_at_rename_preserves_the_old_file() {
        let dir = tmp_dir("rename");
        let mut io = DurableIo::new(dir.clone(), None);
        io.atomic_write("MANIFEST", "manifest", b"old").unwrap();

        let hook = Arc::new(KillAt {
            counter: AtomicUsize::new(0),
            at: 2, // manifest:write, manifest:fsync, then die at manifest:rename
            tear: false,
            log: Mutex::new(Vec::new()),
        });
        let mut io = DurableIo::new(dir.clone(), Some(hook as Arc<dyn SyncPoint>));
        io.atomic_write("MANIFEST", "manifest", b"new").unwrap();
        assert!(io.is_dead());
        assert_eq!(std::fs::read(dir.join("MANIFEST")).unwrap(), b"old");
        io.remove("MANIFEST", "gc").unwrap(); // dead: skipped
        assert!(dir.join("MANIFEST").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
