//! The sharded store: item-partitioned [`SharedClaimStore`] shards behind a
//! global source registry.

use crate::registry_log::RegistryLog;
use copydet_index::SharedItemCounts;
use copydet_model::codec::usize_to_u64;
use copydet_model::sync::RankedRwLock;
use copydet_model::{NameTable, SourceId, SourcePair};
use copydet_obs::event::field;
use copydet_obs::{emit, Severity, Span};
use copydet_store::{
    read_bounded_text, SharedClaimStore, StoreConfig, StoreIoError, StoreSnapshot, StoreStats,
};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// FNV-1a 64-bit hash — the partitioning hash of the sharded store.
///
/// Deliberately *not* `DefaultHasher`: the item → shard assignment is part
/// of the durable layout (each shard persists its own directory), so it must
/// be stable across processes, architectures and Rust versions.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The shard an item name lands on, out of `num_shards`.
pub fn partition_of(item: &str, num_shards: usize) -> usize {
    let partition = fnv1a64(item.as_bytes()) % usize_to_u64(num_shards);
    // Below `num_shards`, so it always fits back into a `usize`.
    usize::try_from(partition).unwrap_or_default()
}

/// Name of the shard-count file inside a durable sharded-store root.
const SHARDS_FILE: &str = "SHARDS";

/// Byte bound on the `SHARDS` pin file: it holds one decimal count, so
/// anything larger is corruption — rejected before it is read, not parsed.
const MAX_SHARDS_FILE_LEN: u64 = 64;

/// Rank of the global source-registry lock — the **lowest** in the process
/// (see `DESIGN.md` §8): it is acquired before any shard mutex and released
/// before shard work begins.
const GLOBAL_REGISTRY_RANK: u32 = 10;

// lock-rank: 10 (serve.shard.global_registry)
fn new_global_registry() -> Arc<RankedRwLock<GlobalTables>> {
    Arc::new(RankedRwLock::new(
        GLOBAL_REGISTRY_RANK,
        "serve.shard.global_registry",
        GlobalTables::default(),
    ))
}

/// The global source registry: every source name the store has ingested,
/// interned in arrival order.
///
/// Sources are the fleet's only global id space. Shards intern items and
/// values (and their own copy of the sources) independently, each a
/// self-contained [`ClaimStore`] with dense local ids; a pair's evidence
/// depends on no item or value id, so only sources need a global id. Those
/// ids key and orient every pair, order DETECT's response and break top-k
/// ties. Because sources are interned here before the claim reaches its
/// shard, a fresh single store fed the same claim stream assigns identical
/// source ids — the property the bit-identical shard-equivalence tests rest
/// on.
///
/// Durable fleets additionally log every first-seen source to the
/// `REGISTRY` file ([`RegistryLog`]) under this same write lock, so a
/// restart replays the exact arrival order and reassigns identical global
/// ids — which is what makes DETECT responses byte-identical across
/// restarts.
#[derive(Debug, Default)]
struct GlobalTables {
    sources: NameTable,
    /// Arrival-order log of a durable fleet; `None` for in-memory stores.
    log: Option<RegistryLog>,
    /// Sources interned since the last [`flush_log`](Self::flush_log), in
    /// arrival order, awaiting one batched durable append.
    pending: Vec<String>,
    /// First log-append failure, sticky — surfaced via
    /// [`ShardedStore::io_error`] like any shard persistence failure.
    log_error: Option<StoreIoError>,
}

impl GlobalTables {
    /// Interns source `name`, buffering it for the log if it is new and a
    /// [`RegistryLog`] is attached. The caller must
    /// [`flush_log`](Self::flush_log) before releasing the write lock.
    fn intern_logged(&mut self, name: &str) -> usize {
        let before = self.sources.len();
        let id = self.sources.intern(name);
        if self.sources.len() > before && self.log.is_some() {
            self.pending.push(name.to_owned());
        }
        id
    }

    /// Durably appends (one write + fsync) everything
    /// [`intern_logged`](Self::intern_logged) buffered. A failure is
    /// recorded sticky (first failure wins), never panicked: the in-memory
    /// registry stays usable, the durability loss is reported through
    /// [`ShardedStore::io_error`].
    fn flush_log(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        if let Some(log) = &mut self.log {
            if let Err(e) = log.append(&pending) {
                if self.log_error.is_none() {
                    // Emitting at rank 60 while holding the rank-10 registry
                    // write lock is in rank order.
                    emit(
                        Severity::Error,
                        "serve",
                        "registry_log.broken",
                        vec![field::str("detail", &e.to_string())],
                    );
                }
                self.log_error.get_or_insert(e);
            }
        }
    }
}

/// Local-to-global id translation for one shard snapshot: the detect-layer
/// [`ShardIdMap`](copydet_detect::ShardIdMap) of sources. Items and values
/// have shard-local ids only — no pair's evidence depends on them. The
/// wrapper remains only because the wire-level benchmark's replay names it
/// and reads `ids`.
#[derive(Debug, Clone, Default)]
pub struct ShardMaps {
    /// Source translation (the merge-layer input).
    pub ids: copydet_detect::ShardIdMap,
}

/// A store hash-partitioned by **data item** across N [`SharedClaimStore`]
/// shards.
///
/// Every claim for one item lands on the same shard (items are routed by a
/// stable FNV-1a hash of the item name), so shards are item-disjoint: each
/// shard's inverted index, shared-item counts and per-pair evidence cover a
/// disjoint slice of the item space, and cross-shard detection is an exact
/// merge (see `copydet_detect::merge_shard_partials`). Sources are
/// *not* partitioned — one source's claims spread over many shards — which
/// is what the global source registry reconciles.
///
/// Handles are cheap clones sharing the shards and the registry. Each shard
/// has its own mutex, so writers touching different shards proceed in
/// parallel; the global registry is read-mostly — a batch whose sources are
/// all already registered (the steady state) only takes the shared read
/// lock, so source bookkeeping does not serialize concurrent writers.
///
/// A sharded store is in-memory ([`new`](Self::new)) or durable
/// ([`open`](Self::open)): durable shards live in `shard-000/`, `shard-001/`,
/// … under one root, each with its own WAL, segments and manifest, so shard
/// recovery is independent — one shard's directory can be restarted or
/// repaired without touching the others.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    shards: Arc<Vec<SharedClaimStore>>,
    /// Read-mostly: batches whose sources are all already registered (the
    /// steady state of a serving workload) take only the shared read lock,
    /// so concurrent writers contend on their shard mutexes, not here.
    // lock-rank: 10 (serve.shard.global_registry)
    global: Arc<RankedRwLock<GlobalTables>>,
    /// The first persistence failure an ingest batch ran into, recorded
    /// under a lock the batch already held and read lock-free by
    /// [`ingest_error`](Self::ingest_error).
    ingest_error: Arc<OnceLock<StoreIoError>>,
}

impl ShardedStore {
    /// Creates an in-memory sharded store with manual maintenance.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        Self::with_config(num_shards, StoreConfig::default())
    }

    /// Creates an in-memory sharded store; every shard gets `config`.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn with_config(num_shards: usize, config: StoreConfig) -> Self {
        assert!(num_shards > 0, "a sharded store needs at least one shard");
        let shards = (0..num_shards).map(|_| SharedClaimStore::with_config(config)).collect();
        Self::from_shards(shards)
    }

    fn from_shards(shards: Vec<SharedClaimStore>) -> Self {
        Self {
            shards: Arc::new(shards),
            global: new_global_registry(),
            ingest_error: Arc::default(),
        }
    }

    /// Opens (creating or recovering) a **durable** sharded store under
    /// `root` with the default per-shard configuration.
    pub fn open(root: impl AsRef<Path>, num_shards: usize) -> Result<Self, StoreIoError> {
        Self::open_with_config(root, num_shards, StoreConfig::default())
    }

    /// Opens (creating or recovering) a durable sharded store: shard `i`
    /// lives in `root/shard-00i`, each with its own WAL and manifest. The
    /// shard count is pinned in a `SHARDS` file — reopening with a
    /// different count is refused, because the item partitioning (and hence
    /// which shard holds which claims) depends on it.
    ///
    /// On recovery the global source registry replays the `REGISTRY`
    /// arrival-order log first (see `registry_log`), so every source gets
    /// its pre-restart global id back: pair keys and orientation, response
    /// order and top-k ties all follow, so DETECT responses are
    /// **byte-identical** across restarts. Sources present in some shard
    /// but missing from the log (a root from before the log existed, or a
    /// log tail lost to a crash) are then re-interned shard-major and
    /// appended, repairing the log for subsequent restarts.
    ///
    /// # Errors
    /// Any shard's [`StoreIoError`] propagates, as does a shard-count
    /// mismatch or an unreadable `REGISTRY` log (both reported as
    /// [`StoreIoError::Corrupt`]).
    pub fn open_with_config(
        root: impl AsRef<Path>,
        num_shards: usize,
        config: StoreConfig,
    ) -> Result<Self, StoreIoError> {
        assert!(num_shards > 0, "a sharded store needs at least one shard");
        let root = root.as_ref();
        std::fs::create_dir_all(root).map_err(|e| StoreIoError::io(root, &e))?;
        Self::pin_shard_count(root, num_shards)?;
        let (log, replayed) = RegistryLog::open_and_replay(root)?;
        let mut shards = Vec::with_capacity(num_shards);
        for i in 0..num_shards {
            shards.push(SharedClaimStore::open_with_config(
                root.join(format!("shard-{i:03}")),
                config,
            )?);
        }
        let store = Self::from_shards(shards);
        {
            // Replay the arrival order before looking at any shard: these
            // records are already durable, so they intern without re-logging.
            let mut global = store.global.write();
            for name in &replayed {
                global.sources.intern(name);
            }
            global.log = Some(log);
        }
        store.rebuild_global_registry()?;
        if !replayed.is_empty() {
            emit(
                Severity::Info,
                "serve",
                "fleet.recovered",
                vec![
                    field::u64("shards", usize_to_u64(store.shards.len())),
                    field::u64("replayed_names", usize_to_u64(replayed.len())),
                ],
            );
        }
        Ok(store)
    }

    /// Validates the `SHARDS` pin against `num_shards`, creating it if the
    /// root is fresh.
    ///
    /// Creation is both **atomic** (a crash can never leave a torn pin: the
    /// bytes are written and fsynced to a process-unique temp file first)
    /// and **exclusive** (publishing via `hard_link`, which fails if the
    /// pin already exists — two processes racing to create the same fresh
    /// root cannot overwrite each other's count; the loser re-reads and
    /// validates like any reopen).
    ///
    /// The pin is read through [`read_bounded_text`]: an oversized or
    /// non-UTF-8 `SHARDS` file is reported as [`StoreIoError::Corrupt`]
    /// instead of being slurped or panicking a conversion.
    fn pin_shard_count(root: &Path, num_shards: usize) -> Result<(), StoreIoError> {
        let shards_path = root.join(SHARDS_FILE);
        let validate = |contents: String| -> Result<(), StoreIoError> {
            let found: usize = contents.trim().parse().map_err(|_| StoreIoError::Corrupt {
                path: shards_path.clone(),
                detail: format!("unparsable shard count {contents:?}"),
            })?;
            if found != num_shards {
                return Err(StoreIoError::Corrupt {
                    path: shards_path.clone(),
                    detail: format!(
                        "store was created with {found} shard(s), opened with {num_shards}: the \
                         item partitioning depends on the count, so it cannot change"
                    ),
                });
            }
            Ok(())
        };
        if let Some(contents) = read_bounded_text(&shards_path, MAX_SHARDS_FILE_LEN)? {
            return validate(contents);
        }
        let tmp = root.join(format!("{SHARDS_FILE}.{}.tmp", std::process::id()));
        let io_err = |e: &std::io::Error| StoreIoError::io(&tmp, e);
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&e))?;
        std::io::Write::write_all(&mut file, format!("{num_shards}\n").as_bytes())
            .map_err(|e| io_err(&e))?;
        file.sync_all().map_err(|e| io_err(&e))?;
        drop(file);
        let published = match std::fs::hard_link(&tmp, &shards_path) {
            Ok(()) => true,
            // Lost the creation race: somebody else's pin is authoritative.
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => false,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(StoreIoError::io(&shards_path, &e));
            }
        };
        let _ = std::fs::remove_file(&tmp);
        if published {
            if let Ok(dir) = std::fs::File::open(root) {
                let _ = dir.sync_all();
            }
            Ok(())
        } else {
            let contents =
                read_bounded_text(&shards_path, MAX_SHARDS_FILE_LEN)?.ok_or_else(|| {
                    StoreIoError::Corrupt {
                        path: shards_path.clone(),
                        detail: "pin vanished after a lost creation race".to_owned(),
                    }
                })?;
            validate(contents)
        }
    }

    /// Re-interns every recovered shard's sources into the global registry,
    /// shard-major. Used at open, after the `REGISTRY` replay: the steady
    /// state re-interns existing sources (no-ops); anything genuinely new
    /// means the log is behind the shards (a legacy root, or a tail lost to
    /// a crash) and gets appended so the *next* restart replays it.
    ///
    /// # Errors
    /// The log append's [`StoreIoError`], if the repair could not be made
    /// durable.
    fn rebuild_global_registry(&self) -> Result<(), StoreIoError> {
        let mut global = self.global.write();
        for shard in self.shards.iter() {
            let snapshot = shard.snapshot();
            let ds = &snapshot.dataset;
            for s in ds.sources() {
                global.intern_logged(ds.source_name(s));
            }
        }
        global.flush_log();
        match global.log_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard handles, in shard order.
    pub fn shards(&self) -> &[SharedClaimStore] {
        &self.shards
    }

    /// The shard an item name is routed to.
    pub fn shard_of_item(&self, item: &str) -> usize {
        partition_of(item, self.shards.len())
    }

    /// Distinct source names seen across all shards.
    pub fn num_sources(&self) -> usize {
        self.global.read().sources.len()
    }

    /// Source names in global id order (index `i` names global source `i`).
    /// A clone taken under the registry's shared read lock — the resolution
    /// path for detection results, whose pair ids live in the global space.
    pub fn global_source_names(&self) -> Vec<String> {
        self.global.read().sources.names().to_vec()
    }

    /// Resolves a source name to its global id, if the fleet has seen it.
    /// The lookup for per-source queries (`detect_topk`), taken under the
    /// registry's shared read lock.
    pub fn global_source_id(&self, name: &str) -> Option<SourceId> {
        self.global.read().sources.get(name).map(SourceId::from_index)
    }

    /// Distinct item names seen across all shards: the sum of the shards'
    /// counts, exact because items are partitioned.
    pub fn num_items(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().num_items()).sum()
    }

    /// Ingests one claim, routing it by item partition.
    pub fn ingest(&self, source: &str, item: &str, value: &str) {
        self.ingest_batch([(source, item, value)]);
    }

    /// Ingests a batch of claims: sources are interned into the global
    /// registry in arrival order (one registry lock for the whole batch),
    /// the batch is split by item partition, and each shard's slice is
    /// applied under **one** shard-lock acquisition — the amortization that
    /// lets many concurrent client batches stream without convoying on a
    /// single store mutex. Returns the number of claims ingested.
    pub fn ingest_batch<'a>(
        &self,
        claims: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
    ) -> usize {
        let claims: Vec<(&str, &str, &str)> = claims.into_iter().collect();
        if claims.is_empty() {
            return 0;
        }
        // Registry fast path: a batch whose sources are all known (the
        // steady state — the source set grows far slower than traffic)
        // verifies that under the shared read lock and skips the exclusive
        // one, and the log, entirely.
        let all_known = {
            let global = self.global.read();
            self.note_ingest_error(global.log_error.as_ref());
            claims.iter().all(|&(s, _, _)| global.sources.get(s).is_some())
        };
        if !all_known {
            let mut global = self.global.write();
            for &(s, _, _) in &claims {
                global.intern_logged(s);
            }
            // Made durable before the batch reaches any shard WAL, so a
            // crash can never leave durable claims whose sources are missing
            // from the arrival-order log.
            global.flush_log();
            self.note_ingest_error(global.log_error.as_ref());
        }
        let mut by_shard: Vec<Vec<(&str, &str, &str)>> = vec![Vec::new(); self.shards.len()];
        for &claim in &claims {
            // `partition_of` is below the shard count, so every claim lands.
            if let Some(slice) = by_shard.get_mut(partition_of(claim.1, self.shards.len())) {
                slice.push(claim);
            }
        }
        for (shard, slice) in self.shards.iter().zip(by_shard) {
            if slice.is_empty() {
                continue;
            }
            let mut guard = shard.lock();
            for (s, d, v) in slice {
                guard.ingest(s, d, v);
            }
            self.note_ingest_error(guard.io_error());
        }
        claims.len()
    }

    /// Records `error` as the fleet's ingest error unless one is already
    /// recorded (the first failure wins). Called with a lock the ingest path
    /// already holds, so the check adds no lock acquisition.
    fn note_ingest_error(&self, error: Option<&StoreIoError>) {
        if let Some(e) = error {
            if self.ingest_error.get().is_none() {
                let _ = self.ingest_error.set(e.clone());
            }
        }
    }

    /// The first persistence failure an [`ingest_batch`](Self::ingest_batch)
    /// observed — a broken registry log or a shard store that has stopped
    /// persisting — read with one atomic load and no lock.
    ///
    /// Sticky: a store that failed once keeps serving from memory but stops
    /// persisting, so the INGEST verb refuses to acknowledge any batch from
    /// then on. Failures that no batch has run into yet (a
    /// background seal, an explicit [`sync`](Self::sync)) show up in
    /// [`io_error`](Self::io_error), which locks every shard, first.
    pub fn ingest_error(&self) -> Option<&StoreIoError> {
        self.ingest_error.get()
    }

    /// Captures every shard's current state for a detection round: the
    /// snapshot and the incrementally-maintained shared-item counts, taken
    /// together under each shard's lock so they are mutually consistent.
    ///
    /// Shards are captured one after another, so the fleet-wide view is a
    /// union of per-shard-consistent snapshots (not a global atomic cut);
    /// because shards are item-disjoint, that union is itself a dataset
    /// some valid interleaving of the ingest stream produces.
    pub fn capture_shards(&self) -> Vec<(StoreSnapshot, Arc<SharedItemCounts>)> {
        self.capture_shards_traced().0
    }

    /// [`capture_shards`](Self::capture_shards) plus the wall time each
    /// shard's capture took (lock wait + snapshot + counts handle clone), in
    /// nanoseconds, indexed like the captures. Feeds the `shard<i>.capture`
    /// stages of the round trace.
    pub fn capture_shards_traced(&self) -> (Vec<(StoreSnapshot, Arc<SharedItemCounts>)>, Vec<u64>) {
        let mut nanos = Vec::with_capacity(self.shards.len());
        let captures = self
            .shards
            .iter()
            .map(|shard| {
                let span = Span::start();
                let mut guard = shard.lock();
                let snapshot = guard.snapshot();
                let counts = Arc::clone(guard.shared_item_counts_handle());
                drop(guard);
                nanos.push(span.elapsed_nanos());
                (snapshot, counts)
            })
            .collect();
        (captures, nanos)
    }

    /// Builds the local→global source map for a shard snapshot: one
    /// registry lookup per local source, none per item or value. Sources
    /// not yet in the registry (impossible through ingest, possible for
    /// a store assembled by hand) are interned on the fly.
    ///
    /// Sources that reached a shard went through the registry first, so the
    /// steady state resolves everything under the shared **read** lock —
    /// detection rounds do not stall concurrent ingest batches; the
    /// exclusive lock is taken only if some source is genuinely missing.
    pub fn maps_for(&self, snapshot: &StoreSnapshot) -> ShardMaps {
        let ds = &snapshot.dataset;
        let known: Option<Vec<SourceId>> = {
            let global = self.global.read();
            ds.sources()
                .map(|s| global.sources.get(ds.source_name(s)).map(SourceId::from_index))
                .collect()
        };
        let sources = known.unwrap_or_else(|| {
            let mut global = self.global.write();
            let sources = ds
                .sources()
                .map(|s| SourceId::from_index(global.intern_logged(ds.source_name(s))))
                .collect();
            global.flush_log();
            sources
        });
        ShardMaps { ids: copydet_detect::ShardIdMap { sources } }
    }

    /// Merges every shard's incrementally-maintained shared-item counts into
    /// one table over the **global** source id space. Shards are
    /// item-disjoint, so the per-pair sums equal a from-scratch
    /// [`SharedItemCounts::build`] over the union dataset — property-tested
    /// in `tests/shard_equivalence.rs`.
    pub fn merged_shared_item_counts(&self) -> SharedItemCounts {
        let captures = self.capture_shards();
        let maps: Vec<ShardMaps> = captures.iter().map(|(snap, _)| self.maps_for(snap)).collect();
        let empty = copydet_model::DatasetBuilder::new().build();
        let mut merged = SharedItemCounts::build(&empty);
        merged.grow(self.num_sources());
        for ((_, counts), map) in captures.iter().zip(&maps) {
            for (pair, n) in counts.iter_nonzero() {
                // The map covers every source of the snapshot it was built
                // from, which is the snapshot these counts describe.
                let global = |local: SourceId| map.ids.sources.get(local.index()).copied();
                if let (Some(first), Some(second)) = (global(pair.first()), global(pair.second())) {
                    merged.increment(SourcePair::new(first, second), n);
                }
            }
        }
        merged
    }

    /// One background-maintenance step across the fleet: every shard gets a
    /// [`SharedClaimStore::maintenance_tick`]. Returns `true` if any shard
    /// acted.
    pub fn maintenance_tick(&self, seal_at: usize, max_segments: usize) -> bool {
        let mut acted = false;
        for shard in self.shards.iter() {
            acted |= shard.maintenance_tick(seal_at, max_segments);
        }
        acted
    }

    /// Flushes and fsyncs every shard's write-ahead log; the first failure
    /// wins.
    pub fn sync(&self) -> Result<(), StoreIoError> {
        for shard in self.shards.iter() {
            shard.sync()?;
        }
        Ok(())
    }

    /// The first persistence failure of the fleet, if any: a registry-log
    /// append failure (the arrival order could not be made durable) wins
    /// over shard failures, since it happened first in the ingest path.
    pub fn io_error(&self) -> Option<StoreIoError> {
        if let Some(e) = self.global.read().log_error.clone() {
            return Some(e);
        }
        self.shards.iter().find_map(SharedClaimStore::io_error)
    }

    /// Per-shard summary statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(SharedClaimStore::stats).collect()
    }

    /// Fleet-wide statistics (see [`StoreStats::merged`]; `num_sources`
    /// there counts per-shard vocabularies — use
    /// [`num_sources`](Self::num_sources) for the global distinct count).
    pub fn stats(&self) -> StoreStats {
        StoreStats::merged(self.shard_stats())
    }

    /// Total distinct live `(source, item)` claims across the fleet.
    pub fn num_claims(&self) -> usize {
        self.shards.iter().map(SharedClaimStore::num_claims).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_is_stable_and_total() {
        // Pinned values: the hash is part of the durable layout.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        for n in 1..6 {
            for item in ["NJ", "AZ", "首都", ""] {
                assert!(partition_of(item, n) < n);
            }
        }
        assert_eq!(partition_of("anything", 1), 0);
        // Pinned routing at 4 shards: which shard holds an item is on disk.
        for (item, shard) in [("D3", 0), ("NJ", 1), ("AZ", 2), ("首都", 3)] {
            assert_eq!(partition_of(item, 4), shard, "{item}");
        }
    }

    #[test]
    fn batches_split_by_item_and_count_claims() {
        let store = ShardedStore::new(3);
        let n = store.ingest_batch([
            ("S0", "D0", "x"),
            ("S0", "D1", "y"),
            ("S1", "D0", "x"),
            ("S1", "D2", "z"),
        ]);
        assert_eq!(n, 4);
        assert_eq!(store.num_claims(), 4);
        assert_eq!(store.num_sources(), 2);
        assert_eq!(store.num_items(), 3);
        // All claims of one item live on one shard.
        let shard = store.shard_of_item("D0");
        let snap = store.shards().get(shard).expect("shard_of_item is in range").snapshot();
        assert_eq!(
            snap.dataset.item_by_name("D0").map(|d| snap.dataset.item_provider_count(d)),
            Some(2)
        );
        // And the fleet totals add up.
        assert_eq!(store.stats().live_claims, 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedStore::new(0);
    }

    #[test]
    fn merged_counts_match_a_cold_build_over_the_union() {
        let store = ShardedStore::new(3);
        let claims = [
            ("S0", "D0", "x"),
            ("S1", "D0", "x"),
            ("S0", "D1", "y"),
            ("S1", "D1", "z"),
            ("S2", "D2", "q"),
            ("S0", "D2", "q"),
        ];
        store.ingest_batch(claims);
        let mut b = copydet_model::DatasetBuilder::new();
        for (s, d, v) in claims {
            b.add_claim(s, d, v);
        }
        let cold = SharedItemCounts::build(&b.build());
        let merged = store.merged_shared_item_counts();
        assert_eq!(merged.num_sharing_pairs(), cold.num_sharing_pairs());
        for (pair, n) in cold.iter_nonzero() {
            assert_eq!(merged.get(pair), n, "pair {pair}");
        }
    }
}
