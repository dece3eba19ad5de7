//! Cache-level statistics shared by all Ditto clients of a process.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Concurrent counters describing cache behaviour.
///
/// The `local_*` group tracks the compute-side local tier
/// ([`crate::local_tier`]) over the cache's *lifetime*: like the pool's
/// contention counters, they deliberately survive [`CacheStats::reset`] —
/// coherence events (invalidations, stale rejects) are evidence in
/// correctness post-mortems and must not vanish when a benchmark clears
/// its interval counters.  So do the hinted-lookup pair (`spec_reads_*`), the
/// hinted-publish pair (`spec_publishes_*`), the timestamp-write pair
/// (`ts_writes_*`), `gets_degraded`, `sets_dropped` and `history_ids_burnt`,
/// which are read through accessors rather than [`CacheStatsSnapshot`] fields.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    sets: AtomicU64,
    evictions: AtomicU64,
    bucket_evictions: AtomicU64,
    history_inserts: AtomicU64,
    regrets: AtomicU64,
    weight_syncs: AtomicU64,
    fc_flushes: AtomicU64,
    local_hits: AtomicU64,
    local_revalidations: AtomicU64,
    local_invalidations: AtomicU64,
    local_stale_rejects: AtomicU64,
    local_leases_above_floor: AtomicU64,
    local_lease_ns_granted: AtomicU64,
    evictions_inline: AtomicU64,
    evictions_overlapped: AtomicU64,
    spec_reads_issued: AtomicU64,
    spec_reads_wasted: AtomicU64,
    spec_publishes_issued: AtomicU64,
    spec_publishes_wasted: AtomicU64,
    ts_writes_sent: AtomicU64,
    ts_writes_skipped: AtomicU64,
    gets_degraded: AtomicU64,
    sets_dropped: AtomicU64,
    history_ids_burnt: AtomicU64,
    expert_victories: Vec<AtomicU64>,
}

impl CacheStats {
    /// Creates statistics for a cache with `num_experts` experts.
    pub fn new(num_experts: usize) -> Self {
        let mut expert_victories = Vec::with_capacity(num_experts);
        expert_victories.resize_with(num_experts, AtomicU64::default);
        CacheStats {
            expert_victories,
            ..CacheStats::default()
        }
    }

    /// Records a `Get` hit.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Get` miss.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Set`.
    pub fn record_set(&self) {
        self.sets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a sampling (memory-pressure) eviction decided by `expert`.
    pub fn record_eviction(&self, expert: usize) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = self.expert_victories.get(expert) {
            e.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records how a won sampling eviction ran: `overlapped` when its round
    /// trips hid behind the evicting `Set`'s own lookup and publish
    /// (evict-ahead), inline when every one of them sat on the critical path
    /// (the cold fallback without a spare).
    pub fn record_eviction_path(&self, overlapped: bool) {
        let path = if overlapped {
            &self.evictions_overlapped
        } else {
            &self.evictions_inline
        };
        path.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an eviction forced by a full bucket.
    pub fn record_bucket_eviction(&self) {
        self.bucket_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the insertion of a history entry.
    pub fn record_history_insert(&self) {
        self.history_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a regret (a miss found in the eviction history).
    pub fn record_regret(&self) {
        self.regrets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one weight synchronisation with the controller.
    pub fn record_weight_sync(&self) {
        self.weight_syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one frequency-counter cache flush (an actual `RDMA_FAA`).
    pub fn record_fc_flush(&self) {
        self.fc_flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Get` served entirely from the local tier (0 messages).
    pub fn record_local_hit(&self) {
        self.local_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a local-tier hit that renewed its lease with a slot-word
    /// READ (1 small message) before serving: `lease_ns` is the lease the
    /// renewal granted, `floor_ns` the configured one it cannot go below.
    pub fn record_local_revalidation(&self, lease_ns: u64, floor_ns: u64) {
        self.local_revalidations.fetch_add(1, Ordering::Relaxed);
        self.local_lease_ns_granted
            .fetch_add(lease_ns, Ordering::Relaxed);
        if lease_ns > floor_ns {
            self.local_leases_above_floor
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a local-tier entry dropped because the coherence board saw
    /// a concurrent slot mutation.
    pub fn record_local_invalidation(&self) {
        self.local_invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a local-tier entry dropped because its revalidation READ
    /// observed a changed slot word.
    pub fn record_local_stale_reject(&self) {
        self.local_stale_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a hinted lookup: a `Get` that read the one slot its hint
    /// names (and the object behind it) instead of both buckets;
    /// `wasted` when the slot no longer held the hinted word (or a READ
    /// faulted, or the stripe moved) and the `Get` fell back to the buckets.
    pub fn record_spec_read(&self, wasted: bool) {
        self.spec_reads_issued.fetch_add(1, Ordering::Relaxed);
        if wasted {
            self.spec_reads_wasted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a hinted publish: a `Set` that posted its object WRITE and
    /// the CAS of the slot its hint names behind one doorbell, without a
    /// lookup; `wasted` when the CAS did not return the hinted word (or a
    /// verb faulted) and the `Set` fell back to the lookup.
    pub fn record_spec_publish(&self, wasted: bool) {
        self.spec_publishes_issued.fetch_add(1, Ordering::Relaxed);
        if wasted {
            self.spec_publishes_wasted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an access's `last_ts` update: `sent` as the 8-byte WRITE a
    /// replacing `Set` and a hit on a stale-enough timestamp issue, otherwise
    /// skipped because the hit found the stored timestamp fresh
    /// ([`crate::recency`]).  (An insert writes all four metadata words at
    /// once and is not counted.)
    pub fn record_ts_write(&self, sent: bool) {
        let counter = if sent {
            &self.ts_writes_sent
        } else {
            &self.ts_writes_skipped
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Get` that a verb fault (an unreadable bucket or object)
    /// degraded to a miss — counted as a miss too.
    pub fn record_get_degraded(&self) {
        self.gets_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Set` given up: it returned `Ok(())` without publishing its
    /// value, because the re-allocated object's bytes could not be written
    /// or because every publish attempt lost — whatever the invalidation
    /// sweep that follows made of the key's older value, if it had one.
    pub fn record_set_dropped(&self) {
        self.sets_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a history id that went into no slot: the eviction that
    /// acquired it evicted nothing, or the FAA for it faulted.
    pub fn record_history_id_burnt(&self) {
        self.history_ids_burnt.fetch_add(1, Ordering::Relaxed);
    }

    /// Hinted lookups issued (lifetime): each one that held is a remote hit
    /// served with two READs instead of three, in one round trip.
    pub fn spec_reads_issued(&self) -> u64 {
        self.spec_reads_issued.load(Ordering::Relaxed)
    }

    /// Hinted lookups that mispredicted (lifetime): each cost a round trip
    /// and the READ(s) it carried before the unhinted lookup ran.
    pub fn spec_reads_wasted(&self) -> u64 {
        self.spec_reads_wasted.load(Ordering::Relaxed)
    }

    /// Hinted publishes issued (lifetime): each one that won is a replacing
    /// `Set` done in one round trip, with no bucket READ.
    pub fn spec_publishes_issued(&self) -> u64 {
        self.spec_publishes_issued.load(Ordering::Relaxed)
    }

    /// Hinted publishes that mispredicted (lifetime): each cost a round
    /// trip before the `Set`'s lookup ran after all.
    pub fn spec_publishes_wasted(&self) -> u64 {
        self.spec_publishes_wasted.load(Ordering::Relaxed)
    }

    /// `last_ts` WRITEs issued (lifetime): one per replacing `Set` and per
    /// hit whose stored timestamp had gone stale.
    pub fn ts_writes_sent(&self) -> u64 {
        self.ts_writes_sent.load(Ordering::Relaxed)
    }

    /// `last_ts` WRITEs hits left out because the stored timestamp was
    /// still fresh (lifetime): each one RNIC message saved.
    pub fn ts_writes_skipped(&self) -> u64 {
        self.ts_writes_skipped.load(Ordering::Relaxed)
    }

    /// Local-tier revalidations that renewed a lease for more than the
    /// configured floor (lifetime; [`crate::local_tier::lease_for`]).
    pub fn local_leases_above_floor(&self) -> u64 {
        self.local_leases_above_floor.load(Ordering::Relaxed)
    }

    /// Sum of the leases local-tier revalidations granted, in simulated ns
    /// (lifetime): over `local_revalidations`, the mean lease.
    pub fn local_lease_ns_granted(&self) -> u64 {
        self.local_lease_ns_granted.load(Ordering::Relaxed)
    }

    /// `Get`s degraded to a miss by a verb fault (lifetime).
    pub fn gets_degraded(&self) -> u64 {
        self.gets_degraded.load(Ordering::Relaxed)
    }

    /// `Set`s given up silently (lifetime; see
    /// [`CacheStats::record_set_dropped`]): each an acknowledged write no
    /// reader will see.
    pub fn sets_dropped(&self) -> u64 {
        self.sets_dropped.load(Ordering::Relaxed)
    }

    /// History ids acquired and embedded nowhere (lifetime): each aged its
    /// shard's logical FIFO by one position with no entry.
    pub fn history_ids_burnt(&self) -> u64 {
        self.history_ids_burnt.load(Ordering::Relaxed)
    }

    /// Sampling evictions that ran inline (see
    /// [`CacheStats::record_eviction_path`]) — the share of evicting `Set`s
    /// still paying every eviction round trip.  An accessor, deliberately
    /// not a [`CacheStatsSnapshot`] field.
    pub fn evictions_inline(&self) -> u64 {
        self.evictions_inline.load(Ordering::Relaxed)
    }

    /// Sampling evictions whose round trips overlapped the evicting `Set`.
    pub fn evictions_overlapped(&self) -> u64 {
        self.evictions_overlapped.load(Ordering::Relaxed)
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            sets: self.sets.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bucket_evictions: self.bucket_evictions.load(Ordering::Relaxed),
            history_inserts: self.history_inserts.load(Ordering::Relaxed),
            regrets: self.regrets.load(Ordering::Relaxed),
            weight_syncs: self.weight_syncs.load(Ordering::Relaxed),
            fc_flushes: self.fc_flushes.load(Ordering::Relaxed),
            local_hits: self.local_hits.load(Ordering::Relaxed),
            local_revalidations: self.local_revalidations.load(Ordering::Relaxed),
            local_invalidations: self.local_invalidations.load(Ordering::Relaxed),
            local_stale_rejects: self.local_stale_rejects.load(Ordering::Relaxed),
            expert_victories: self
                .expert_victories
                .iter()
                .map(|e| e.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Resets every interval counter to zero.  The lifetime counters — the
    /// `local_*` group, the hinted-lookup, hinted-publish and
    /// timestamp-write pairs, `gets_degraded`, `sets_dropped`,
    /// `history_ids_burnt` — survive by design (see the struct docs).
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.sets.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.evictions_inline.store(0, Ordering::Relaxed);
        self.evictions_overlapped.store(0, Ordering::Relaxed);
        self.bucket_evictions.store(0, Ordering::Relaxed);
        self.history_inserts.store(0, Ordering::Relaxed);
        self.regrets.store(0, Ordering::Relaxed);
        self.weight_syncs.store(0, Ordering::Relaxed);
        self.fc_flushes.store(0, Ordering::Relaxed);
        for e in &self.expert_victories {
            e.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStatsSnapshot {
    /// `Get` hits.
    pub hits: u64,
    /// `Get` misses.
    pub misses: u64,
    /// `Set` operations.
    pub sets: u64,
    /// Sampling evictions.
    pub evictions: u64,
    /// Bucket-overflow evictions.
    pub bucket_evictions: u64,
    /// History entries inserted.
    pub history_inserts: u64,
    /// Regrets collected.
    pub regrets: u64,
    /// Weight synchronisations with the controller.
    pub weight_syncs: u64,
    /// Frequency-counter flushes (`RDMA_FAA`s actually issued).
    pub fc_flushes: u64,
    /// `Get`s served entirely from the local tier (lifetime; survives
    /// [`CacheStats::reset`]).
    pub local_hits: u64,
    /// Local-tier hits that renewed their lease with a slot-word READ
    /// (lifetime).
    pub local_revalidations: u64,
    /// Local-tier entries dropped by a coherence-board check (lifetime).
    pub local_invalidations: u64,
    /// Local-tier entries dropped by a failed revalidation (lifetime).
    pub local_stale_rejects: u64,
    /// Evictions attributed to each expert.
    pub expert_victories: Vec<u64>,
}

impl CacheStatsSnapshot {
    /// Hit rate over `Get` requests.
    pub fn hit_rate(&self) -> f64 {
        let gets = self.hits + self.misses;
        if gets == 0 {
            0.0
        } else {
            self.hits as f64 / gets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = CacheStats::new(2);
        stats.record_hit();
        stats.record_hit();
        stats.record_miss();
        stats.record_set();
        stats.record_eviction(1);
        stats.record_eviction_path(false);
        stats.record_eviction_path(true);
        stats.record_eviction_path(true);
        stats.record_bucket_eviction();
        stats.record_history_insert();
        stats.record_regret();
        stats.record_weight_sync();
        stats.record_fc_flush();
        let snap = stats.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.sets, 1);
        assert_eq!(snap.evictions, 1);
        assert_eq!(
            (stats.evictions_inline(), stats.evictions_overlapped()),
            (1, 2)
        );
        assert_eq!(snap.expert_victories, vec![0, 1]);
        assert!((snap.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        stats.reset();
        assert_eq!(stats.evictions_inline() + stats.evictions_overlapped(), 0);
        assert_eq!(
            stats.snapshot(),
            CacheStatsSnapshot {
                expert_victories: vec![0, 0],
                ..CacheStatsSnapshot::default()
            }
        );
    }

    #[test]
    fn local_tier_counters_survive_reset() {
        let stats = CacheStats::new(2);
        stats.record_hit();
        stats.record_local_hit();
        stats.record_local_revalidation(150, 50);
        stats.record_local_invalidation();
        stats.record_local_stale_reject();
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.hits, 0, "interval counters reset");
        assert_eq!(snap.local_hits, 1);
        assert_eq!(snap.local_revalidations, 1);
        assert_eq!(snap.local_invalidations, 1);
        assert_eq!(snap.local_stale_rejects, 1);
        assert_eq!(
            (
                stats.local_leases_above_floor(),
                stats.local_lease_ns_granted()
            ),
            (1, 150)
        );
    }

    #[test]
    fn speculation_and_degrade_counters_survive_reset() {
        let stats = CacheStats::new(2);
        stats.record_spec_read(false);
        stats.record_spec_read(true);
        stats.record_spec_publish(true);
        stats.record_spec_publish(false);
        stats.record_spec_publish(false);
        stats.record_get_degraded();
        stats.record_set_dropped();
        stats.record_history_id_burnt();
        stats.record_history_id_burnt();
        stats.record_ts_write(true);
        stats.record_ts_write(false);
        stats.record_ts_write(false);
        stats.reset();
        assert_eq!(
            (stats.spec_reads_issued(), stats.spec_reads_wasted()),
            (2, 1)
        );
        assert_eq!((stats.ts_writes_sent(), stats.ts_writes_skipped()), (1, 2));
        assert_eq!(
            (stats.spec_publishes_issued(), stats.spec_publishes_wasted()),
            (3, 1)
        );
        assert_eq!(stats.gets_degraded(), 1);
        assert_eq!((stats.sets_dropped(), stats.history_ids_burnt()), (1, 2));
    }

    #[test]
    fn out_of_range_expert_is_ignored() {
        let stats = CacheStats::new(1);
        stats.record_eviction(5);
        let snap = stats.snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.expert_victories, vec![0]);
    }

    #[test]
    fn hit_rate_of_empty_stats_is_zero() {
        assert_eq!(CacheStatsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        use std::sync::Arc;
        let stats = Arc::new(CacheStats::new(2));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stats = Arc::clone(&stats);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        stats.record_hit();
                    }
                });
            }
        });
        assert_eq!(stats.snapshot().hits, 40_000);
    }
}
