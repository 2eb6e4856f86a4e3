//! The segmented live claim store.

use crate::durable::{self, Persistence, Recovered};
use crate::error::StoreIoError;
use crate::format::WalRecord;
use crate::segment::{merge_sorted, GrowingSegment, SealedSegment};
use crate::snapshot::StoreSnapshot;
use crate::stats::StoreStats;
use crate::wal::SyncPoint;
use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_index::{InvertedIndex, SharedItemCounts};
use copydet_model::{
    Claim, Dataset, Interner, ItemId, ItemValueGroup, NameTable, SourceId, ValueId,
};
use copydet_obs::{registry, Counter, Histogram, Span};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Claims applied to the in-memory state (ingest paths and WAL replay).
fn ingest_claims_total() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("copydet_store_ingest_claims_total"))
}

/// Wall time of one seal (freeze + optional auto-compaction + commit).
fn seal_nanos() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("copydet_store_seal_nanos"))
}

/// Wall time of one compaction (segment merge + commit).
fn compact_nanos() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("copydet_store_compact_nanos"))
}

/// Configuration of a [`ClaimStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreConfig {
    /// Automatically seal the growing segment once it holds this many
    /// claims (`None` = seal only on explicit [`ClaimStore::seal`] /
    /// [`ClaimStore::snapshot`] boundaries).
    pub seal_threshold: Option<usize>,
    /// Automatically compact once the number of sealed segments exceeds this
    /// bound (`None` = compact only on explicit [`ClaimStore::compact`]).
    pub max_sealed_segments: Option<usize>,
    /// For durable stores: fsync the write-ahead log after **every** ingest
    /// instead of at [`sync`](ClaimStore::sync) / seal boundaries. Maximum
    /// durability, at a per-claim fsync cost; ignored by in-memory stores.
    pub wal_fsync_per_append: bool,
}

/// An append-oriented claim store for continuously arriving claims.
///
/// Writes land in an in-memory [`GrowingSegment`]; [`seal`](Self::seal)
/// freezes it into an immutable [`SealedSegment`];
/// [`compact`](Self::compact) coalesces sealed segments newest-wins. The
/// store owns the global name tables (sources, items, values interned in
/// first-seen order), so a [`snapshot`](Self::snapshot) assembles a
/// [`Dataset`] **identical** to building the same claim sequence through one
/// [`DatasetBuilder`](copydet_model::DatasetBuilder) pass — every existing
/// detector runs unchanged on it.
///
/// Snapshots are **zero-copy in the corpus**: the name tables and value
/// interner are handed out as shared `Arc` handles (copy-on-write inside the
/// store, so a held snapshot never observes later interns), and from the
/// second snapshot on the dataset is *patched* from its predecessor — only
/// the claim lists of touched sources and the value groups of touched items
/// are rebuilt, everything else aliases the previous snapshot's storage.
/// Snapshot cost is therefore O(delta), not O(corpus).
///
/// A write costs the same whatever the number of sources: the store keeps
/// no per-pair state. The pairwise shared-item counts `l(S1, S2)` are
/// counted cold when asked for ([`shared_item_counts`](Self::shared_item_counts),
/// [`build_index`](Self::build_index)).
///
/// A store is either **in-memory** ([`new`](Self::new) — state dies with the
/// process) or **durable** ([`open`](Self::open) — every ingest is logged to
/// a write-ahead log, seals and compactions commit checksummed segment files
/// via atomic rename, and [`recover`](Self::recover) rebuilds a store whose
/// `snapshot()` is identical to the pre-crash one). See `DESIGN.md` §6 for
/// the on-disk format and the recovery guarantees.
#[derive(Debug)]
pub struct ClaimStore {
    sources: NameTable,
    items: NameTable,
    values: Interner,
    sealed: Vec<SealedSegment>,
    growing: GrowingSegment,
    /// Sources providing each item (any value), kept sorted: the providers
    /// a snapshot regroups by value for each touched item.
    item_providers: Vec<Vec<SourceId>>,
    /// Sources and items written since the previous snapshot: the patch set
    /// of the next [`snapshot`](Self::snapshot). Bounded by the vocabulary,
    /// not by the number of writes; empty until the first snapshot.
    touched_sources: BTreeSet<SourceId>,
    touched_items: BTreeSet<ItemId>,
    /// The previous snapshot's dataset (cheap handle), the base the next
    /// snapshot is patched from.
    last_snapshot: Option<Dataset>,
    epoch: u64,
    config: StoreConfig,
    num_live_claims: usize,
    total_ingested: u64,
    overwrites: usize,
    /// The durable half (write-ahead log + committed segment files);
    /// `None` for in-memory stores.
    persist: Option<Persistence>,
}

impl Default for ClaimStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for ClaimStore {
    /// Clones the in-memory state. The clone is always an **in-memory
    /// fork**: it shares no write-ahead log or segment files with the
    /// original (two stores appending to one log would corrupt it).
    fn clone(&self) -> Self {
        Self {
            sources: self.sources.clone(),
            items: self.items.clone(),
            values: self.values.clone(),
            sealed: self.sealed.clone(),
            growing: self.growing.clone(),
            item_providers: self.item_providers.clone(),
            touched_sources: self.touched_sources.clone(),
            touched_items: self.touched_items.clone(),
            last_snapshot: self.last_snapshot.clone(),
            epoch: self.epoch,
            config: self.config,
            num_live_claims: self.num_live_claims,
            total_ingested: self.total_ingested,
            overwrites: self.overwrites,
            persist: None,
        }
    }
}

impl ClaimStore {
    /// Creates an empty store with manual sealing/compaction.
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// Creates an empty store with the given configuration.
    pub fn with_config(config: StoreConfig) -> Self {
        Self {
            sources: NameTable::new(),
            items: NameTable::new(),
            values: Interner::new(),
            sealed: Vec::new(),
            growing: GrowingSegment::new(),
            item_providers: Vec::new(),
            touched_sources: BTreeSet::new(),
            touched_items: BTreeSet::new(),
            last_snapshot: None,
            epoch: 0,
            config,
            num_live_claims: 0,
            total_ingested: 0,
            overwrites: 0,
            persist: None,
        }
    }

    /// Opens (creating or recovering) a **durable** store in `dir` with the
    /// default configuration.
    ///
    /// Every ingest is appended to a checksummed write-ahead log before it
    /// is applied; [`seal`](Self::seal) and [`compact`](Self::compact)
    /// additionally commit the sealed segments to disk (write-new-then-
    /// atomic-rename, fsync'd). Reopening the same directory rebuilds the
    /// store from the committed segments plus the log — no re-ingest.
    ///
    /// # Errors
    /// Returns a [`StoreIoError`] if the directory cannot be created or the
    /// existing state fails validation (corruption, truncation of a
    /// committed file, or a format-version mismatch). A torn log *tail* is
    /// not an error: it is the expected shape of a crash and is dropped.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreIoError> {
        Self::open_with_config(dir, StoreConfig::default())
    }

    /// Opens (creating or recovering) a durable store with the given
    /// configuration; see [`open`](Self::open).
    pub fn open_with_config(
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<Self, StoreIoError> {
        Self::open_impl(dir.as_ref().to_path_buf(), config, None)
    }

    /// Like [`open_with_config`](Self::open_with_config), with a
    /// [`SyncPoint`] fault-injection hook observing (and deciding the fate
    /// of) every physical I/O event. This is the crash-injection surface
    /// the recovery test suite drives; production code has no reason to
    /// install a hook.
    pub fn open_with_sync_point(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        hook: Arc<dyn SyncPoint>,
    ) -> Result<Self, StoreIoError> {
        Self::open_impl(dir.as_ref().to_path_buf(), config, Some(hook))
    }

    /// Recovers a durable store from existing on-disk state.
    ///
    /// Identical to [`open`](Self::open) except that a directory holding no
    /// store state (neither a `MANIFEST` nor a `wal.log`) is an error
    /// instead of a fresh empty store — use it when silently starting over
    /// would mask data loss.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Self, StoreIoError> {
        let dir = dir.as_ref();
        if !durable::state_exists(dir) {
            return Err(StoreIoError::Io {
                path: dir.to_path_buf(),
                message: "no durable store state (MANIFEST or wal.log) to recover".to_owned(),
            });
        }
        Self::open(dir)
    }

    fn open_impl(
        dir: PathBuf,
        config: StoreConfig,
        hook: Option<Arc<dyn SyncPoint>>,
    ) -> Result<Self, StoreIoError> {
        let (persistence, recovered) = Persistence::open(dir, hook, config.wal_fsync_per_append)?;
        Self::from_recovered(persistence, recovered, config)
    }

    /// Rebuilds the in-memory store from recovered durable state, then
    /// attaches the persistence handle. The rebuilt store's `snapshot()` is
    /// identical to one `DatasetBuilder` pass over the durable claim
    /// sequence (committed segments oldest→newest, then the log in append
    /// order) — the same equivalence contract every other construction path
    /// honours.
    fn from_recovered(
        persistence: Persistence,
        recovered: Recovered,
        config: StoreConfig,
    ) -> Result<Self, StoreIoError> {
        let corrupt = |path: PathBuf, detail: String| StoreIoError::Corrupt { path, detail };
        let dir = persistence.dir().to_path_buf();
        let wal_path = dir.join(crate::wal::WAL_FILE);
        let mut store = Self::with_config(config);

        // 1. Name tables, re-interned in id order so every persisted id
        //    resolves to the string it was written with.
        for (pos, name) in recovered.sources.iter().enumerate() {
            if store.sources.intern(name) != pos {
                return Err(corrupt(dir, format!("duplicate source name {name:?} in tables")));
            }
        }
        for (pos, name) in recovered.items.iter().enumerate() {
            if store.items.intern(name) != pos {
                return Err(corrupt(dir, format!("duplicate item name {name:?} in tables")));
            }
            store.item_providers.push(Vec::new());
        }
        for (pos, name) in recovered.values.iter().enumerate() {
            if store.values.intern(name).index() != pos {
                return Err(corrupt(dir, format!("duplicate value {name:?} in tables")));
            }
        }

        // 2. Committed segments are adopted as-is (the exact pre-crash
        //    segmentation), with the ingest-time bookkeeping — live-claim
        //    count, per-item providers — replayed oldest→newest under the
        //    same newest-wins rules.
        store.sealed = recovered.segments;
        let segments = std::mem::take(&mut store.sealed);
        for segment in &segments {
            for (source, list) in segment.per_source() {
                for &(item, _) in list {
                    store.replay_bookkeeping(source, item);
                }
            }
        }
        store.sealed = segments;

        // 3. The write-ahead log replays through the normal ingest path
        //    (auto-sealing suppressed: the log must keep mirroring the
        //    growing segment until the next commit boundary).
        for record in &recovered.wal_records {
            match record {
                WalRecord::DefSource { id, name } => {
                    let (sid, _) = store.intern_source(name);
                    if sid.raw() != *id {
                        return Err(corrupt(
                            wal_path,
                            format!("source def {name:?} resolves to {sid}, log says S{id}"),
                        ));
                    }
                }
                WalRecord::DefItem { id, name } => {
                    let (did, _) = store.intern_item(name);
                    if did.raw() != *id {
                        return Err(corrupt(
                            wal_path,
                            format!("item def {name:?} resolves to {did}, log says D{id}"),
                        ));
                    }
                }
                WalRecord::DefValue { id, name } => {
                    let (vid, _) = store.intern_value(name);
                    if vid.raw() != *id {
                        return Err(corrupt(
                            wal_path,
                            format!("value def {name:?} resolves to {vid}, log says V{id}"),
                        ));
                    }
                }
                WalRecord::Claim { claim, source_def, item_def, value_def } => {
                    // Embedded defs intern idempotently: after a crash
                    // between the manifest commit and the WAL reset, the
                    // log replays over tables that already contain these
                    // names — the assigned id must simply match the logged
                    // one. A claim without a def must reference a known id.
                    let ok = match source_def {
                        Some(name) => store.intern_source(name).0 == claim.source,
                        None => claim.source.index() < store.sources.len(),
                    } && match item_def {
                        Some(name) => store.intern_item(name).0 == claim.item,
                        None => claim.item.index() < store.items.len(),
                    } && match value_def {
                        Some(name) => store.intern_value(name).0 == claim.value,
                        None => claim.value.index() < store.values.len(),
                    };
                    if !ok {
                        return Err(corrupt(
                            wal_path,
                            format!("claim {claim:?} does not resolve against its tables"),
                        ));
                    }
                    store.apply_claim(claim.source, claim.item, claim.value, false);
                }
            }
        }

        store.persist = Some(persistence);
        // A recovered growing segment past the auto-seal threshold is
        // sealed (and committed) now that persistence is attached.
        if let Some(limit) = store.config.seal_threshold {
            if store.growing.num_claims() >= limit {
                store.seal();
            }
        }
        Ok(store)
    }

    /// Ingest-time bookkeeping replayed for one committed claim during
    /// recovery: reproduces the *correctness-bearing* state of
    /// [`apply_claim`](Self::apply_claim) — live-claim count, per-item
    /// providers — using provider membership (instead of segment lookups)
    /// to decide new-vs-overwrite.
    ///
    /// The diagnostic counters `total_ingested` / `overwrites` become
    /// **lower bounds** across a recovery: overwrites that collapsed inside
    /// a segment before it was sealed are not re-observable from its
    /// deduplicated claim lists.
    fn replay_bookkeeping(&mut self, source: SourceId, item: ItemId) {
        self.total_ingested += 1;
        let Some(providers) = self.item_providers.get_mut(item.index()) else { return };
        match providers.binary_search(&source) {
            Ok(_) => self.overwrites += 1,
            Err(pos) => {
                self.num_live_claims += 1;
                providers.insert(pos, source);
            }
        }
    }

    /// On a durable store, rejects a string the on-disk format cannot
    /// carry **before** it is interned or logged. Rejecting loudly here is
    /// deliberate: the alternatives are interning a name the log can never
    /// define (recovery would then mismatch) or letting one absurd string
    /// poison persistence and silently lose every *later* claim across a
    /// restart. In-memory stores accept any string.
    ///
    /// # Panics
    /// Panics if `s` exceeds [`copydet_model::codec::MAX_STR_LEN`] bytes
    /// and the store is durable.
    fn check_persistable(&self, what: &str, s: &str) {
        if self.persist.is_some() {
            assert!(
                s.len() <= copydet_model::codec::MAX_STR_LEN,
                "{what} of {} bytes exceeds the {}-byte on-disk string limit of a durable store",
                s.len(),
                copydet_model::codec::MAX_STR_LEN
            );
        }
    }

    /// Interns a source, returning `(id, newly_interned)` without logging.
    fn intern_source(&mut self, name: &str) -> (SourceId, bool) {
        let before = self.sources.len();
        let idx = self.sources.intern(name);
        (SourceId::from_index(idx), idx == before)
    }

    /// Interns an item, returning `(id, newly_interned)` without logging.
    fn intern_item(&mut self, name: &str) -> (ItemId, bool) {
        let before = self.items.len();
        let idx = self.items.intern(name);
        if idx == self.item_providers.len() {
            self.item_providers.push(Vec::new());
        }
        (ItemId::from_index(idx), idx == before)
    }

    /// Interns a value, returning `(id, newly_interned)` without logging.
    fn intern_value(&mut self, s: &str) -> (ValueId, bool) {
        let before = self.values.len();
        let id = self.values.intern(s);
        (id, id.index() == before)
    }

    /// Interns (or retrieves) a source by name.
    ///
    /// Id assignment is shared with `DatasetBuilder` through
    /// [`NameTable`], so the two construction paths cannot drift. On a
    /// durable store a *new* name is logged before the id is returned.
    ///
    /// # Panics
    /// On a durable store, panics if `name` exceeds the on-disk string
    /// limit ([`copydet_model::codec::MAX_STR_LEN`], 1 MiB).
    pub fn source(&mut self, name: &str) -> SourceId {
        self.check_persistable("source name", name);
        let (id, new) = self.intern_source(name);
        if new {
            if let Some(persist) = &mut self.persist {
                persist.log(&WalRecord::DefSource { id: id.raw(), name: name.to_owned() });
            }
        }
        id
    }

    /// Interns (or retrieves) a data item by name.
    ///
    /// # Panics
    /// On a durable store, panics if `name` exceeds the on-disk string
    /// limit ([`copydet_model::codec::MAX_STR_LEN`], 1 MiB).
    pub fn item(&mut self, name: &str) -> ItemId {
        self.check_persistable("item name", name);
        let (id, new) = self.intern_item(name);
        if new {
            if let Some(persist) = &mut self.persist {
                persist.log(&WalRecord::DefItem { id: id.raw(), name: name.to_owned() });
            }
        }
        id
    }

    /// Interns (or retrieves) a value string.
    ///
    /// # Panics
    /// On a durable store, panics if `s` exceeds the on-disk string limit
    /// ([`copydet_model::codec::MAX_STR_LEN`], 1 MiB).
    pub fn value(&mut self, s: &str) -> ValueId {
        self.check_persistable("value", s);
        let (id, new) = self.intern_value(s);
        if new {
            if let Some(persist) = &mut self.persist {
                persist.log(&WalRecord::DefValue { id: id.raw(), name: s.to_owned() });
            }
        }
        id
    }

    /// Ingests the claim "source provides `value` for `item`", interning all
    /// three strings, and returns it as dense ids.
    ///
    /// Re-claiming an already-claimed item overwrites the value
    /// (last-claim-wins, like `DatasetBuilder`). May auto-seal per
    /// [`StoreConfig::seal_threshold`].
    ///
    /// On a durable store the claim — together with any names it newly
    /// interned — is written ahead to the log as **one atomic frame**, so a
    /// crash boundary can never separate a claim from its definitions.
    ///
    /// # Panics
    /// On a durable store, panics if any of the three strings exceeds the
    /// on-disk string limit ([`copydet_model::codec::MAX_STR_LEN`], 1 MiB)
    /// — rejected before interning, so neither memory nor log is touched.
    pub fn ingest(&mut self, source: &str, item: &str, value: &str) -> Claim {
        self.check_persistable("source name", source);
        self.check_persistable("item name", item);
        self.check_persistable("value", value);
        let (s, new_s) = self.intern_source(source);
        let (d, new_d) = self.intern_item(item);
        let (v, new_v) = self.intern_value(value);
        let claim = Claim { source: s, item: d, value: v };
        if let Some(persist) = &mut self.persist {
            persist.log(&WalRecord::Claim {
                claim,
                source_def: new_s.then(|| source.to_owned()),
                item_def: new_d.then(|| item.to_owned()),
                value_def: new_v.then(|| value.to_owned()),
            });
        }
        self.apply_claim(s, d, v, true);
        claim
    }

    /// Applies one claim to the in-memory state (bookkeeping + growing
    /// segment); the write-ahead logging has already happened. Auto-sealing
    /// is suppressed during WAL replay, where the log must keep mirroring
    /// the growing segment.
    fn apply_claim(
        &mut self,
        source: SourceId,
        item: ItemId,
        value: ValueId,
        allow_autoseal: bool,
    ) {
        self.total_ingested += 1;
        ingest_claims_total().inc();
        if self.last_snapshot.is_some() {
            self.touched_sources.insert(source);
            self.touched_items.insert(item);
        }
        if self.merged_value(source, item).is_none() {
            // A brand-new (source, item) claim: count it and list its
            // source among the item's providers.
            self.num_live_claims += 1;
            if let Some(providers) = self.item_providers.get_mut(item.index()) {
                if let Err(pos) = providers.binary_search(&source) {
                    providers.insert(pos, source);
                }
            }
        } else {
            self.overwrites += 1;
        }
        self.growing.insert(source, item, value);
        if allow_autoseal {
            if let Some(limit) = self.config.seal_threshold {
                if self.growing.num_claims() >= limit {
                    self.seal();
                }
            }
        }
    }

    /// The current merged value for `(source, item)`: growing segment first,
    /// then sealed segments newest to oldest.
    pub fn merged_value(&self, source: SourceId, item: ItemId) -> Option<ValueId> {
        if let Some(v) = self.growing.get(source, item) {
            return Some(v);
        }
        self.sealed.iter().rev().find_map(|seg| seg.get(source, item))
    }

    /// Freezes the growing segment into a sealed segment (no-op when the
    /// growing segment is empty). May auto-compact per
    /// [`StoreConfig::max_sealed_segments`].
    ///
    /// On a durable store sealing is a **commit**: the new segment (and, if
    /// the name tables grew, a *delta* tables file holding only the names
    /// this window interned — seal cost is O(new names), never
    /// O(vocabulary)) is written out write-new-then-atomic-rename with
    /// fsyncs, the manifest rename publishes it, and the write-ahead log —
    /// whose claims the segment now covers — is reset. A crash at any point
    /// leaves either the old committed state plus the intact log, or the
    /// new one.
    pub fn seal(&mut self) {
        if self.growing.is_empty() {
            return;
        }
        let span = Span::start();
        let growing = std::mem::take(&mut self.growing);
        self.sealed.push(growing.freeze());
        let mut auto_compacted = false;
        if let Some(limit) = self.config.max_sealed_segments {
            if self.sealed.len() > limit {
                self.compact_segments();
                auto_compacted = true;
            }
        }
        self.persist_commit(true, auto_compacted);
        seal_nanos().record(span.elapsed_nanos());
    }

    /// Coalesces all sealed segments into one (newest-wins), bounding the
    /// number of segments a lookup or snapshot has to visit. On a durable
    /// store the merged segment is committed like a seal — compaction also
    /// collapses the delta tables *chain* into one full file, amortizing
    /// the O(vocabulary) rewrite onto the already-O(corpus) compaction —
    /// but the write-ahead log is untouched, since compaction never sees
    /// the growing segment.
    pub fn compact(&mut self) {
        if self.sealed.len() < 2 {
            return;
        }
        let span = Span::start();
        self.compact_segments();
        self.persist_commit(false, true);
        compact_nanos().record(span.elapsed_nanos());
    }

    /// The in-memory merge of all sealed segments into one (newest-wins).
    fn compact_segments(&mut self) {
        if self.sealed.len() < 2 {
            return;
        }
        let mut merged = self.sealed.remove(0);
        for seg in self.sealed.drain(..) {
            merged = SealedSegment::merge(&merged, &seg);
        }
        self.sealed = vec![merged];
    }

    /// Commits the current sealed state to disk (durable stores only). A
    /// plain seal appends a delta tables file (O(new names) in table I/O);
    /// a commit that compacted segments also collapses the tables chain.
    fn persist_commit(&mut self, reset_wal: bool, compact_tables: bool) {
        let Some(persist) = &mut self.persist else { return };
        let values = self.values.shared_strings();
        persist.commit(
            &self.sealed,
            self.sources.names(),
            self.items.names(),
            values.as_slice(),
            reset_wal,
            compact_tables,
        );
    }

    /// Flushes and fsyncs the write-ahead log (no-op for in-memory stores).
    ///
    /// # Errors
    /// Returns the store's sticky [`StoreIoError`] if persistence has
    /// failed, now or earlier — after the first failure the store keeps
    /// serving from memory but stops persisting, and every later `sync`
    /// reports that same error.
    pub fn sync(&mut self) -> Result<(), StoreIoError> {
        match &mut self.persist {
            Some(persist) => persist.sync(),
            None => Ok(()),
        }
    }

    /// The first persistence failure, if any (durable stores only).
    pub fn io_error(&self) -> Option<&StoreIoError> {
        self.persist.as_ref().and_then(Persistence::broken)
    }

    /// Returns `true` if this store persists to disk.
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// The durable store directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(Persistence::dir)
    }

    /// Returns `true` if write-ahead-log frames await an fsync — the signal
    /// background maintenance uses to double as background flushing.
    pub fn wal_needs_sync(&self) -> bool {
        self.persist.as_ref().is_some_and(Persistence::wal_needs_sync)
    }

    /// Takes a consistent snapshot: a [`Dataset`] over all claims ingested so
    /// far, identical to one `DatasetBuilder` pass over the same claim
    /// sequence. The change between two snapshots is
    /// [`DatasetDelta::between`](copydet_model::DatasetDelta::between) of
    /// their datasets.
    ///
    /// The first snapshot assembles the dataset in full; every later snapshot
    /// is **patched** from its predecessor in O(delta): only the claim lists
    /// of sources and the value groups of items written since the previous
    /// snapshot are rebuilt, while the name tables, the value interner and
    /// every untouched list alias the shared storage (no string or claim is
    /// copied — pointer-provable via
    /// [`Dataset::shared_source_names`] and friends).
    ///
    /// Snapshotting does not seal or otherwise disturb the segments; ingest
    /// can continue afterwards, and snapshots taken earlier keep observing
    /// exactly the claims they were taken over regardless of later ingest,
    /// sealing or compaction.
    pub fn snapshot(&mut self) -> StoreSnapshot {
        let touched_sources = std::mem::take(&mut self.touched_sources);
        let touched_items = std::mem::take(&mut self.touched_items);
        let dataset = match &self.last_snapshot {
            Some(prev) => {
                let patched_sources: Vec<(SourceId, Vec<(ItemId, ValueId)>)> =
                    touched_sources.into_iter().map(|s| (s, self.merged_claims_of(s))).collect();
                let patched_items: Vec<(ItemId, Vec<ItemValueGroup>)> =
                    touched_items.into_iter().map(|d| (d, self.rebuild_groups_of(d))).collect();
                prev.with_patches(
                    self.sources.shared_names(),
                    self.items.shared_names(),
                    self.values.clone(),
                    patched_sources,
                    patched_items,
                )
            }
            None => {
                // First snapshot: merge per-source claim lists across
                // segments, oldest to newest (the growing segment, frozen
                // into a view, is simply the newest).
                let mut claims: Vec<Vec<(ItemId, ValueId)>> = vec![Vec::new(); self.sources.len()];
                let frozen = (!self.growing.is_empty()).then(|| self.growing.freeze_ref());
                for seg in self.sealed.iter().chain(frozen.iter()) {
                    for (s, list) in seg.per_source() {
                        let Some(slot) = claims.get_mut(s.index()) else { continue };
                        if slot.is_empty() {
                            slot.extend_from_slice(list);
                        } else {
                            *slot = merge_sorted(slot, list);
                        }
                    }
                }
                Dataset::from_shared_claims(
                    self.sources.shared_names(),
                    self.items.shared_names(),
                    self.values.clone(),
                    claims,
                )
            }
        };
        debug_assert_eq!(
            dataset.num_claims(),
            self.num_live_claims,
            "patched snapshot must cover every live claim"
        );
        self.epoch += 1;
        self.last_snapshot = Some(dataset.clone());
        StoreSnapshot { epoch: self.epoch, dataset }
    }

    /// The merged (newest-wins) claim list of one source across all
    /// segments — the per-source unit of the O(delta) snapshot path.
    fn merged_claims_of(&self, s: SourceId) -> Vec<(ItemId, ValueId)> {
        let mut list: Vec<(ItemId, ValueId)> = Vec::new();
        for seg in &self.sealed {
            let seg_list = seg.claims_of(s);
            if !seg_list.is_empty() {
                list =
                    if list.is_empty() { seg_list.to_vec() } else { merge_sorted(&list, seg_list) };
            }
        }
        let grown = self.growing.sorted_claims_of(s);
        if !grown.is_empty() {
            list = if list.is_empty() { grown } else { merge_sorted(&list, &grown) };
        }
        list
    }

    /// Rebuilds one item's value groups from the merged view, with exactly
    /// the builder normalization (groups sorted by value, providers sorted by
    /// id — `item_providers` is maintained sorted, so providers arrive in
    /// order). A listed provider without a merged claim is skipped, so a
    /// group never names a claim the snapshot's claim lists lack.
    fn rebuild_groups_of(&self, d: ItemId) -> Vec<ItemValueGroup> {
        let mut by_value: std::collections::BTreeMap<ValueId, Vec<SourceId>> =
            std::collections::BTreeMap::new();
        let providers = self.item_providers.get(d.index()).map(Vec::as_slice).unwrap_or_default();
        for &s in providers {
            if let Some(v) = self.merged_value(s, d) {
                by_value.entry(v).or_default().push(s);
            }
        }
        by_value
            .into_iter()
            .map(|(value, providers)| ItemValueGroup { item: d, value, providers })
            .collect()
    }

    /// Builds the inverted index for the *latest* snapshot: a cold
    /// [`InvertedIndex::build`] over its dataset, counting the shared items
    /// as it goes.
    ///
    /// # Panics
    /// Panics if `snapshot` is not the store's latest snapshot or claims were
    /// ingested after it was taken.
    pub fn build_index(
        &self,
        snapshot: &StoreSnapshot,
        accuracies: &SourceAccuracies,
        probabilities: &ValueProbabilities,
        params: &CopyParams,
    ) -> InvertedIndex {
        assert_eq!(snapshot.epoch, self.epoch, "snapshot is not the store's latest");
        assert_eq!(
            snapshot.dataset.num_claims(),
            self.num_live_claims,
            "claims were ingested after the snapshot was taken"
        );
        InvertedIndex::build(&snapshot.dataset, accuracies, probabilities, params)
    }

    /// The shared-item counts `l(S1, S2)` over the current merged view,
    /// counted cold from the store's per-item provider lists: O(Σ providers²)
    /// per call, and nothing kept between calls.
    pub fn shared_item_counts(&self) -> SharedItemCounts {
        SharedItemCounts::from_provider_lists(self.sources.len(), &self.item_providers)
    }

    /// Number of distinct live `(source, item)` claims in the merged view.
    pub fn num_claims(&self) -> usize {
        self.num_live_claims
    }

    /// Number of sources seen so far.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of items seen so far.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Number of distinct values seen so far.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of snapshots taken so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Summary statistics of the store.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            epoch: self.epoch,
            num_sources: self.num_sources(),
            num_items: self.num_items(),
            num_values: self.num_values(),
            live_claims: self.num_live_claims,
            total_ingested: self.total_ingested,
            overwrites: self.overwrites,
            sealed_segments: self.sealed.len(),
            sealed_claims: self.sealed.iter().map(SealedSegment::num_claims).sum(),
            growing_claims: self.growing.num_claims(),
            durable: self.persist.is_some(),
            wal_frames: self.persist.as_ref().map_or(0, Persistence::wal_frames),
            wal_bytes: self.persist.as_ref().map_or(0, Persistence::wal_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_model::DatasetBuilder;

    const CLAIMS: &[(&str, &str, &str)] = &[
        ("S0", "NJ", "Trenton"),
        ("S1", "NJ", "Trenton"),
        ("S2", "NJ", "Newark"),
        ("S0", "AZ", "Phoenix"),
        ("S1", "AZ", "Tempe"),
        ("S2", "AZ", "Phoenix"),
        ("S0", "NJ", "Newark"), // overwrite
    ];

    fn builder_dataset(claims: &[(&str, &str, &str)]) -> Dataset {
        let mut b = DatasetBuilder::new();
        for (s, d, v) in claims {
            b.add_claim(s, d, v);
        }
        b.build()
    }

    #[test]
    fn snapshot_equals_one_builder_pass() {
        let mut store = ClaimStore::new();
        for (i, (s, d, v)) in CLAIMS.iter().enumerate() {
            store.ingest(s, d, v);
            if i == 2 {
                store.seal();
            }
            if i == 4 {
                store.seal();
                store.compact();
            }
        }
        let snap = store.snapshot();
        assert_eq!(snap.dataset, builder_dataset(CLAIMS));
        assert_eq!(snap.epoch, 1);
        assert_eq!(store.num_claims(), snap.dataset.num_claims());
    }

    #[test]
    fn shared_counts_match_cold_build_and_index_agrees() {
        let mut store = ClaimStore::new();
        for (s, d, v) in CLAIMS {
            store.ingest(s, d, v);
        }
        store.ingest("S3", "NJ", "Trenton");
        store.ingest("S3", "AZ", "Phoenix");
        let snap = store.snapshot();
        let cold = SharedItemCounts::build(&snap.dataset);
        let counts = store.shared_item_counts();
        for (pair, n) in cold.iter_nonzero() {
            assert_eq!(counts.get(pair), n, "pair {pair}");
        }
        assert_eq!(counts.num_sharing_pairs(), cold.num_sharing_pairs());

        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(snap.dataset.num_sources(), 0.8).unwrap();
        let probabilities = ValueProbabilities::uniform_over_dataset(&snap.dataset, 0.4).unwrap();
        let warm = store.build_index(&snap, &accuracies, &probabilities, &params);
        let cold_index = InvertedIndex::build(&snap.dataset, &accuracies, &probabilities, &params);
        assert_eq!(warm.entries(), cold_index.entries());
        assert_eq!(warm.ebar_start(), cold_index.ebar_start());
    }

    #[test]
    fn auto_seal_and_auto_compact() {
        let mut store = ClaimStore::with_config(StoreConfig {
            seal_threshold: Some(2),
            max_sealed_segments: Some(2),
            ..StoreConfig::default()
        });
        for (s, d, v) in CLAIMS {
            store.ingest(s, d, v);
        }
        let stats = store.stats();
        assert!(stats.sealed_segments >= 1, "auto-seal must have fired");
        assert!(stats.sealed_segments <= 2, "auto-compact must bound the segment count");
        assert_eq!(stats.live_claims, 6);
        assert_eq!(stats.total_ingested, 7);
        assert_eq!(stats.overwrites, 1);
        let snap = store.snapshot();
        assert_eq!(snap.dataset, builder_dataset(CLAIMS));
    }

    #[test]
    fn stats_reflect_the_pipeline() {
        let mut store = ClaimStore::new();
        store.ingest("S0", "D0", "x");
        store.ingest("S1", "D0", "y");
        let stats = store.stats();
        assert_eq!(stats.epoch, 0);
        assert_eq!(stats.num_sources, 2);
        assert_eq!(stats.num_items, 1);
        assert_eq!(stats.num_values, 2);
        assert_eq!(stats.growing_claims, 2);
        assert_eq!(stats.sealed_claims, 0);
        let _ = store.snapshot();
        store.seal();
        let stats = store.stats();
        assert_eq!(stats.growing_claims, 0);
        assert_eq!(stats.sealed_claims, 2);
    }

    #[test]
    fn a_listed_provider_without_a_claim_is_skipped() {
        let mut store = ClaimStore::new();
        store.ingest("S0", "D0", "x");
        let _ = store.snapshot();
        // Bookkeeping drift: S1 is listed as a provider of D0 but has no claim.
        let ghost = store.source("S1");
        store.item_providers[0].push(ghost);
        store.ingest("S2", "D0", "x");
        let snap = store.snapshot();
        let d0 = ItemId::new(0);
        let providers: Vec<SourceId> =
            snap.dataset.shared_groups_of(d0).iter().flat_map(|g| g.providers.clone()).collect();
        assert_eq!(providers, [SourceId::new(0), SourceId::new(2)], "the ghost is skipped");
    }

    #[test]
    #[should_panic(expected = "ingested after the snapshot")]
    fn build_index_rejects_stale_snapshots() {
        let mut store = ClaimStore::new();
        store.ingest("S0", "D0", "x");
        store.ingest("S1", "D0", "x");
        let snap = store.snapshot();
        store.ingest("S2", "D0", "x");
        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(3, 0.8).unwrap();
        let probabilities = ValueProbabilities::new(1);
        let _ = store.build_index(&snap, &accuracies, &probabilities, &params);
    }
}
