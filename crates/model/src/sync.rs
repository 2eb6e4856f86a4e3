//! Rank-disciplined lock wrappers: [`RankedMutex`] and [`RankedRwLock`].
//!
//! The serving stack holds a small lock hierarchy — the sharded store's
//! global source registry over per-shard store mutexes, plus the frontend's
//! connection registry — and the only thing standing between "works today"
//! and "deadlocks under next month's refactor" is the *order* those locks
//! are taken in. This module turns that order from a convention into a
//! machine-checked invariant, twice over:
//!
//! * **statically** — `copydet-audit` requires every `Mutex`/`RwLock`
//!   declaration in the workspace to carry a `// lock-rank: N (name)`
//!   annotation and cross-checks the declared ranks against the table in
//!   `DESIGN.md` (§8);
//! * **dynamically** — these wrappers keep a thread-local stack of held
//!   ranks and `debug_assert` on every acquisition that the new lock's rank
//!   is **strictly greater** than every rank the thread already holds.
//!
//! Strictly-greater (not greater-or-equal) means a thread can never nest
//! two locks of the same rank — which is exactly the discipline the
//! item-partitioned shard mutexes rely on: they share one rank and are only
//! ever taken one at a time, so two threads sweeping the shards in
//! different orders cannot deadlock.
//!
//! The bookkeeping exists only under `cfg(debug_assertions)`; release
//! builds compile the wrappers down to the plain `std::sync` primitives
//! with zero overhead. Debug test runs — including the ingest-while-
//! detecting stress suites — therefore double as lock-order checkers.
//!
//! Lock poisoning is handled inside the wrappers: a panic while holding a
//! lock poisons it, and any later acquisition panics with the lock's
//! registered name. That keeps `unwrap`/`expect` chains out of the audited
//! server paths while preserving fail-fast semantics.
//!
//! ## Contention probes
//!
//! Every ranked lock additionally carries an **always-on** contention probe
//! (release builds included): three relaxed atomics counting acquisitions,
//! contended acquisitions (the uncontended `try_lock` fast path failed) and
//! total nanoseconds spent blocked. Locks sharing a `(rank, name)` pair —
//! the item-partitioned shards, for instance — share one probe, so the
//! numbers aggregate per hierarchy entry. [`lock_probe_snapshots`] returns
//! the current readings; `copydet-obs` republishes them as
//! `copydet_lock_*{rank,name}` gauges for the METRICS verb. The uncontended
//! path costs one `fetch_add` (~ns); timing happens only on the blocking
//! path, which already costs a context switch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(debug_assertions)]
mod rank_stack {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks (with names and acquisition tokens) currently held by this
        /// thread, in acquisition order. Tokens make release order-agnostic:
        /// guards may drop in any order, so each pops its own entry.
        static HELD: RefCell<Vec<(u32, &'static str, u64)>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: RefCell<u64> = const { RefCell::new(0) };
    }

    /// Records an acquisition, asserting the rank discipline first.
    pub(super) fn acquire(rank: u32, name: &'static str) -> u64 {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name, _)) = held.iter().max_by_key(|&&(rank, _, _)| rank) {
                assert!(
                    rank > top_rank,
                    "lock rank violation: acquiring '{name}' (rank {rank}) while holding \
                     '{top_name}' (rank {top_rank}); locks must be acquired in strictly \
                     increasing rank order (see DESIGN.md §8)"
                );
            }
            let token = NEXT_TOKEN.with(|t| {
                let mut t = t.borrow_mut();
                *t += 1;
                *t
            });
            held.push((rank, name, token));
            token
        })
    }

    /// Records a release by acquisition token.
    pub(super) fn release(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(_, _, t)| t == token) {
                held.remove(pos);
            }
        });
    }

    /// Greatest rank currently held by this thread, if any (test hook).
    pub(super) fn max_held() -> Option<u32> {
        HELD.with(|held| held.borrow().iter().map(|&(rank, _, _)| rank).max())
    }
}

/// RAII record of one rank acquisition; popping happens on drop, so it must
/// be held alongside the lock guard it accounts for.
#[derive(Debug)]
struct RankToken {
    #[cfg(debug_assertions)]
    token: u64,
}

impl RankToken {
    fn acquire(rank: u32, name: &'static str) -> Self {
        #[cfg(debug_assertions)]
        {
            Self { token: rank_stack::acquire(rank, name) }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (rank, name);
            Self {}
        }
    }
}

impl Drop for RankToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        rank_stack::release(self.token);
    }
}

/// Greatest lock rank the current thread holds, if any.
///
/// Debug-only introspection for tests that want to assert a code path runs
/// lock-free (or at a bounded rank); returns `None` in release builds.
pub fn max_held_rank() -> Option<u32> {
    #[cfg(debug_assertions)]
    {
        rank_stack::max_held()
    }
    #[cfg(not(debug_assertions))]
    {
        None
    }
}

/// Contention counters of one `(rank, name)` entry in the lock hierarchy.
///
/// All counters are relaxed atomics: they are monotone tallies read for
/// dashboards, not synchronization. A probe is shared by every lock
/// constructed with the same rank and name (shards aggregate).
#[derive(Debug)]
pub struct LockProbe {
    rank: u32,
    name: &'static str,
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_nanos: AtomicU64,
}

impl LockProbe {
    fn detached(rank: u32, name: &'static str) -> Self {
        Self {
            rank,
            name,
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait_nanos: AtomicU64::new(0),
        }
    }

    /// Counts one acquisition on the uncontended fast path.
    fn hit(&self) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one contended acquisition and the nanoseconds it blocked.
    fn blocked(&self, waited: std::time::Duration) {
        self.contended.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
        self.wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl Default for LockProbe {
    /// A detached probe (rank 0, empty name) for `Default`-constructed
    /// locks; never registered, so it cannot pollute the snapshots.
    fn default() -> Self {
        Self::detached(0, "")
    }
}

/// A point-in-time reading of one [`LockProbe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockProbeSnapshot {
    /// The lock's rank in the hierarchy.
    pub rank: u32,
    /// The lock's diagnostic name.
    pub name: &'static str,
    /// Total acquisitions (lock / read / write) since process start.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
    /// Total nanoseconds spent blocked across all contended acquisitions.
    pub wait_nanos: u64,
}

/// The process-global probe directory. A plain `Mutex` (not a ranked one):
/// it is touched only at lock *construction* and snapshot time, never on an
/// acquisition path, so it sits outside the rank hierarchy by design.
fn probe_directory() -> &'static Mutex<Vec<Arc<LockProbe>>> {
    static PROBES: OnceLock<Mutex<Vec<Arc<LockProbe>>>> = OnceLock::new();
    PROBES.get_or_init(|| Mutex::new(Vec::new()))
}

/// The shared probe for `(rank, name)`, registering it on first sight.
fn probe_for(rank: u32, name: &'static str) -> Arc<LockProbe> {
    let mut probes = match probe_directory().lock() {
        Ok(guard) => guard,
        // A panic between find and push cannot leave the Vec torn; keep
        // serving probes rather than poisoning every lock constructor.
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(existing) = probes.iter().find(|p| p.rank == rank && p.name == name) {
        return Arc::clone(existing);
    }
    let probe = Arc::new(LockProbe::detached(rank, name));
    probes.push(Arc::clone(&probe));
    probe
}

/// Current readings of every registered lock probe, sorted by rank then
/// name. The observability layer republishes these as registry gauges.
pub fn lock_probe_snapshots() -> Vec<LockProbeSnapshot> {
    let probes = match probe_directory().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut snapshots: Vec<LockProbeSnapshot> = probes
        .iter()
        .map(|p| LockProbeSnapshot {
            rank: p.rank,
            name: p.name,
            acquisitions: p.acquisitions.load(Ordering::Relaxed),
            contended: p.contended.load(Ordering::Relaxed),
            wait_nanos: p.wait_nanos.load(Ordering::Relaxed),
        })
        .collect();
    snapshots.sort_by(|a, b| a.rank.cmp(&b.rank).then_with(|| a.name.cmp(b.name)));
    snapshots
}

/// A [`Mutex`] that participates in the workspace lock hierarchy.
///
/// Construction registers a **rank** and a **name**; every
/// [`lock`](Self::lock) asserts (debug builds only) that the acquiring
/// thread holds no lock of equal or greater rank. See the module docs for
/// the discipline.
#[derive(Debug, Default)]
pub struct RankedMutex<T> {
    rank: u32,
    name: &'static str,
    probe: Arc<LockProbe>,
    inner: Mutex<T>,
}

/// The guard of a [`RankedMutex`]; releases the rank on drop.
#[derive(Debug)]
pub struct RankedMutexGuard<'a, T> {
    // Declaration order matters: the lock guard drops before the rank pops.
    guard: MutexGuard<'a, T>,
    _token: RankToken,
}

impl<T> RankedMutex<T> {
    /// Wraps `value` in a mutex of the given `rank`, named for diagnostics.
    pub fn new(rank: u32, name: &'static str, value: T) -> Self {
        Self { rank, name, probe: probe_for(rank, name), inner: Mutex::new(value) }
    }

    /// The mutex's rank in the lock hierarchy.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The mutex's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the mutex, asserting the rank discipline in debug builds.
    ///
    /// # Panics
    /// Panics if the lock is poisoned (a previous holder panicked), or — in
    /// debug builds — if the acquiring thread already holds a lock of equal
    /// or greater rank.
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        let token = RankToken::acquire(self.rank, self.name);
        self.probe.hit();
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                let start = std::time::Instant::now();
                let acquired = self.inner.lock();
                self.probe.blocked(start.elapsed());
                match acquired {
                    Ok(guard) => guard,
                    Err(poisoned) => {
                        drop(poisoned);
                        panic!("lock '{}' poisoned: a previous holder panicked", self.name)
                    }
                }
            }
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                drop(poisoned);
                panic!("lock '{}' poisoned: a previous holder panicked", self.name)
            }
        };
        RankedMutexGuard { guard, _token: token }
    }
}

impl<T> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// An [`RwLock`] that participates in the workspace lock hierarchy.
///
/// Both [`read`](Self::read) and [`write`](Self::write) count as
/// acquisitions for the rank discipline: a shared read nested inside a
/// same-rank lock can deadlock against a queued writer just as a write can,
/// so neither is exempt.
#[derive(Debug, Default)]
pub struct RankedRwLock<T> {
    rank: u32,
    name: &'static str,
    probe: Arc<LockProbe>,
    inner: RwLock<T>,
}

/// The shared-read guard of a [`RankedRwLock`].
#[derive(Debug)]
pub struct RankedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _token: RankToken,
}

/// The exclusive-write guard of a [`RankedRwLock`].
#[derive(Debug)]
pub struct RankedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _token: RankToken,
}

impl<T> RankedRwLock<T> {
    /// Wraps `value` in an rwlock of the given `rank`, named for
    /// diagnostics.
    pub fn new(rank: u32, name: &'static str, value: T) -> Self {
        Self { rank, name, probe: probe_for(rank, name), inner: RwLock::new(value) }
    }

    /// The lock's rank in the lock hierarchy.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires shared read access, asserting the rank discipline in debug
    /// builds.
    ///
    /// # Panics
    /// Panics if the lock is poisoned, or — in debug builds — on a rank
    /// violation.
    pub fn read(&self) -> RankedReadGuard<'_, T> {
        let token = RankToken::acquire(self.rank, self.name);
        self.probe.hit();
        let guard = match self.inner.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                let start = std::time::Instant::now();
                let acquired = self.inner.read();
                self.probe.blocked(start.elapsed());
                match acquired {
                    Ok(guard) => guard,
                    Err(poisoned) => {
                        drop(poisoned);
                        panic!("lock '{}' poisoned: a previous holder panicked", self.name)
                    }
                }
            }
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                drop(poisoned);
                panic!("lock '{}' poisoned: a previous holder panicked", self.name)
            }
        };
        RankedReadGuard { guard, _token: token }
    }

    /// Acquires exclusive write access, asserting the rank discipline in
    /// debug builds.
    ///
    /// # Panics
    /// Panics if the lock is poisoned, or — in debug builds — on a rank
    /// violation.
    pub fn write(&self) -> RankedWriteGuard<'_, T> {
        let token = RankToken::acquire(self.rank, self.name);
        self.probe.hit();
        let guard = match self.inner.try_write() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                let start = std::time::Instant::now();
                let acquired = self.inner.write();
                self.probe.blocked(start.elapsed());
                match acquired {
                    Ok(guard) => guard,
                    Err(poisoned) => {
                        drop(poisoned);
                        panic!("lock '{}' poisoned: a previous holder panicked", self.name)
                    }
                }
            }
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                drop(poisoned);
                panic!("lock '{}' poisoned: a previous holder panicked", self.name)
            }
        };
        RankedWriteGuard { guard, _token: token }
    }
}

impl<T> std::ops::Deref for RankedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::Deref for RankedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RankedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_allowed_and_released() {
        let low = RankedMutex::new(10, "low", 1);
        let high = RankedMutex::new(20, "high", 2);
        {
            let a = low.lock();
            let b = high.lock();
            assert_eq!(*a + *b, 3);
            if cfg!(debug_assertions) {
                assert_eq!(max_held_rank(), Some(20));
            }
        }
        assert_eq!(max_held_rank(), None);
        // After release, each lock is acquirable again on its own.
        drop(high.lock());
        drop(low.lock());
    }

    #[test]
    fn guards_release_out_of_order() {
        let a = RankedMutex::new(10, "a", ());
        let b = RankedMutex::new(20, "b", ());
        let c = RankedMutex::new(30, "c", ());
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        // Release the middle guard first: the stack must not corrupt.
        drop(gb);
        if cfg!(debug_assertions) {
            assert_eq!(max_held_rank(), Some(30));
        }
        drop(ga);
        drop(gc);
        assert_eq!(max_held_rank(), None);
    }

    #[test]
    fn rwlock_read_then_higher_write_is_allowed() {
        let registry = RankedRwLock::new(10, "registry", vec![1, 2]);
        let shard = RankedMutex::new(20, "shard", 0u32);
        let names = registry.read();
        let mut guard = shard.lock();
        *guard += names.len() as u32;
        drop(guard);
        drop(names);
        *registry.write() = vec![3];
        assert_eq!(*registry.read(), vec![3]);
    }

    #[test]
    fn ranks_and_names_are_introspectable() {
        let m = RankedMutex::new(42, "answer", ());
        assert_eq!((m.rank(), m.name()), (42, "answer"));
        let rw = RankedRwLock::new(7, "seven", ());
        assert_eq!((rw.rank(), rw.name()), (7, "seven"));
    }

    // The inverted-acquisition tests only exist in debug builds: release
    // builds compile the rank bookkeeping away entirely.

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank violation")]
    fn inverted_mutex_acquisition_panics() {
        let registry = RankedMutex::new(10, "registry", ());
        let shard = RankedMutex::new(20, "shard", ());
        let _shard_guard = shard.lock();
        let _registry_guard = registry.lock(); // rank 10 under rank 20: refused
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank violation")]
    fn same_rank_nesting_panics() {
        let a = RankedMutex::new(20, "shard-a", ());
        let b = RankedMutex::new(20, "shard-b", ());
        let _ga = a.lock();
        let _gb = b.lock(); // two shard-rank locks nested: refused
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank violation")]
    fn inverted_rwlock_read_under_mutex_panics() {
        let registry = RankedRwLock::new(10, "registry", ());
        let shard = RankedMutex::new(20, "shard", ());
        let _shard_guard = shard.lock();
        let _read = registry.read(); // even a shared read is an acquisition
    }

    #[test]
    fn probes_count_acquisitions_and_contention() {
        let find = |snaps: &[LockProbeSnapshot]| {
            snaps.iter().find(|s| s.rank == 91 && s.name == "probe-demo").cloned()
        };
        let m = std::sync::Arc::new(RankedMutex::new(91, "probe-demo", 0u32));
        let before = find(&lock_probe_snapshots()).unwrap_or(LockProbeSnapshot {
            rank: 91,
            name: "probe-demo",
            acquisitions: 0,
            contended: 0,
            wait_nanos: 0,
        });
        // Uncontended: acquisitions move, contention does not.
        drop(m.lock());
        let after = find(&lock_probe_snapshots()).expect("probe registered at construction");
        assert_eq!(after.acquisitions, before.acquisitions + 1);
        assert_eq!(after.contended, before.contended);

        // Forced contention: hold the lock while another thread acquires.
        let held = m.lock();
        let contender = {
            let m = std::sync::Arc::clone(&m);
            std::thread::spawn(move || {
                let _guard = m.lock();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        contender.join().expect("contender finishes");
        let contended = find(&lock_probe_snapshots()).expect("probe still registered");
        assert_eq!(contended.acquisitions, after.acquisitions + 2);
        assert!(contended.contended > after.contended, "the blocked acquisition counted");
        assert!(contended.wait_nanos > after.wait_nanos, "the block accrued wait time");
    }

    #[test]
    fn same_rank_and_name_locks_share_one_probe() {
        let a = RankedMutex::new(92, "probe-shared", ());
        let b = RankedMutex::new(92, "probe-shared", ());
        let reading = |snaps: &[LockProbeSnapshot]| {
            snaps
                .iter()
                .find(|s| s.rank == 92 && s.name == "probe-shared")
                .map(|s| s.acquisitions)
                .unwrap_or(0)
        };
        let before = reading(&lock_probe_snapshots());
        drop(a.lock());
        drop(b.lock());
        assert_eq!(reading(&lock_probe_snapshots()), before + 2, "both locks feed one probe");
    }

    #[test]
    fn default_locks_use_a_detached_probe() {
        let m: RankedMutex<u8> = RankedMutex::default();
        drop(m.lock());
        assert!(
            !lock_probe_snapshots().iter().any(|s| s.rank == 0 && s.name.is_empty()),
            "Default-constructed locks must not register probes"
        );
    }

    #[test]
    fn poisoned_lock_panics_with_its_name() {
        let m = std::sync::Arc::new(RankedMutex::new(10, "poisoned-demo", ()));
        let clone = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock();
            panic!("poison it");
        })
        .join();
        let err = std::panic::catch_unwind(|| {
            let _ = m.lock();
        })
        .expect_err("poisoned lock must refuse");
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(message.contains("poisoned-demo"), "panic names the lock: {message}");
    }
}
