//! Summary statistics of a [`ClaimStore`](crate::ClaimStore).

/// A point-in-time summary of a store's shape, for monitoring and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of snapshots taken so far.
    pub epoch: u64,
    /// Sources seen so far.
    pub num_sources: usize,
    /// Items seen so far.
    pub num_items: usize,
    /// Distinct values seen so far.
    pub num_values: usize,
    /// Distinct live `(source, item)` claims in the merged view.
    pub live_claims: usize,
    /// Total ingest calls (including overwrites). After a recovery this is
    /// a lower bound: overwrites that collapsed inside a segment before it
    /// was sealed are not re-observable from disk.
    pub total_ingested: u64,
    /// Ingests that overwrote an existing claim (lower bound after a
    /// recovery, like `total_ingested`).
    pub overwrites: usize,
    /// Number of sealed segments.
    pub sealed_segments: usize,
    /// Claims across all sealed segments (counting per-segment duplicates).
    pub sealed_claims: usize,
    /// Claims in the growing segment.
    pub growing_claims: usize,
    /// `true` if the store persists to disk (opened via `ClaimStore::open`).
    pub durable: bool,
    /// Complete frames currently in the write-ahead log (durable stores).
    pub wal_frames: u64,
    /// Byte length of the write-ahead log, header included (durable stores).
    pub wal_bytes: u64,
}

impl StoreStats {
    /// Folds per-shard statistics into one fleet-wide summary: counts sum,
    /// `epoch` takes the maximum (shards snapshot independently), and
    /// `durable` holds iff every shard persists. Name counts are sums of
    /// per-shard vocabularies — a source claiming items in several shards is
    /// counted once per shard, so `num_sources` is an upper bound on the
    /// global distinct-source count (items are hash-partitioned, hence
    /// counted exactly once).
    pub fn merged(shards: impl IntoIterator<Item = StoreStats>) -> StoreStats {
        let mut shards = shards.into_iter();
        let Some(mut total) = shards.next() else { return StoreStats::default() };
        for s in shards {
            total.epoch = total.epoch.max(s.epoch);
            total.num_sources += s.num_sources;
            total.num_items += s.num_items;
            total.num_values += s.num_values;
            total.live_claims += s.live_claims;
            total.total_ingested += s.total_ingested;
            total.overwrites += s.overwrites;
            total.sealed_segments += s.sealed_segments;
            total.sealed_claims += s.sealed_claims;
            total.growing_claims += s.growing_claims;
            total.durable &= s.durable;
            total.wal_frames += s.wal_frames;
            total.wal_bytes += s.wal_bytes;
        }
        total
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {}: {} claims live ({} sealed segment(s) holding {}, {} growing), \
             {} sources × {} items, {} ingested ({} overwrites)",
            self.epoch,
            self.live_claims,
            self.sealed_segments,
            self.sealed_claims,
            self.growing_claims,
            self.num_sources,
            self.num_items,
            self.total_ingested,
            self.overwrites,
        )?;
        if self.durable {
            write!(f, ", durable ({} WAL frame(s), {} bytes)", self.wal_frames, self.wal_bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_sums_counts_and_maxes_epochs() {
        let a = StoreStats {
            epoch: 3,
            live_claims: 10,
            num_sources: 2,
            durable: true,
            wal_frames: 4,
            ..Default::default()
        };
        let b = StoreStats {
            epoch: 1,
            live_claims: 5,
            num_sources: 3,
            durable: false,
            ..Default::default()
        };
        let m = StoreStats::merged([a, b]);
        assert_eq!(m.epoch, 3);
        assert_eq!(m.live_claims, 15);
        assert_eq!(m.num_sources, 5);
        assert!(!m.durable, "one in-memory shard makes the fleet non-durable");
        assert_eq!(m.wal_frames, 4);
        assert_eq!(StoreStats::merged([]), StoreStats::default());
    }

    #[test]
    fn display_is_informative() {
        let stats =
            StoreStats { epoch: 2, live_claims: 10, sealed_segments: 1, ..Default::default() };
        let s = stats.to_string();
        assert!(s.contains("epoch 2"));
        assert!(s.contains("10 claims live"));
    }
}
