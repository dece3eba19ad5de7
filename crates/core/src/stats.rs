//! Cache-level statistics shared by all Ditto clients of a process.
//!
//! Every counter is one row of the [`counter_table!`] below — what a row
//! carries, and what `lifetime`, `interval` and `accessor` mean, is said once
//! in [`ditto_dm::stats`].  Here the `lifetime` rows are the ones that are
//! evidence in a correctness post-mortem (local-tier coherence events, hinted
//! operations that mispredicted, `Get`s degraded and `Set`s dropped): they
//! must not vanish when a benchmark clears its interval counters.  Rows
//! marked `accessor` are read through their accessor and are no field of
//! [`CacheStatsSnapshot`], which its users build field by field.

use ditto_dm::counter_table;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

counter_table! {
    /// Concurrent counters describing cache behaviour.
    pub struct CacheStats;
    /// A point-in-time copy of [`CacheStats`].
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CacheStatsSnapshot;
    read through CacheStats [];

    /// `Get` hits.
    hits: interval, counter "ditto_cache_hits_total" "Get operations served from the cache.", bump record_hit;
    /// `Get` misses.
    misses: interval, counter "ditto_cache_misses_total" "Get operations that missed.", bump record_miss;
    /// `Set` operations.
    sets: interval, counter "ditto_cache_sets_total" "Set operations accepted.", bump record_set;
    /// Sampling (memory-pressure) evictions.
    evictions: interval, counter "ditto_cache_evictions_total" "Objects evicted by the sampling eviction path.";
    /// Sampling evictions that ran inline: every round trip sat on the
    /// evicting `Set`'s critical path (the cold fallback without a spare).
    evictions_inline: interval accessor, counter "ditto_cache_evictions_inline_total" "Sampling evictions whose every round trip sat on the evicting Set's critical path.";
    /// Sampling evictions whose round trips hid behind the evicting `Set`'s
    /// own lookup and publish (evict-ahead).
    evictions_overlapped: interval accessor, counter "ditto_cache_evictions_overlapped_total" "Sampling evictions overlapped with the evicting Set's own lookup and publish.";
    /// Evictions forced by a full bucket.
    bucket_evictions: interval, counter "ditto_cache_bucket_evictions_total" "Evictions forced by a full bucket rather than memory pressure.", bump record_bucket_eviction;
    /// History entries inserted.
    history_inserts: interval, counter "ditto_cache_history_inserts_total" "Evicted entries remembered in the lightweight history.", bump record_history_insert;
    /// Regrets collected (misses found in the eviction history).
    regrets: interval, counter "ditto_cache_regrets_total" "Ghost hits on evicted entries (the adaptive regret signal).", bump record_regret;
    /// Weight synchronisations with the controller.
    weight_syncs: interval, counter "ditto_cache_weight_syncs_total" "Client-to-controller expert-weight synchronisations.", bump record_weight_sync;
    /// Frequency-counter cache flushes (`RDMA_FAA`s actually issued).
    fc_flushes: interval, counter "ditto_cache_fc_flushes_total" "Frequency-counter cache flushes.", bump record_fc_flush;
    /// `Get`s served entirely from the local tier (0 messages).
    local_hits: lifetime, counter "ditto_cache_local_hits_total" "Gets served entirely from a compute-side local tier (lifetime).", bump record_local_hit;
    /// Local-tier hits that renewed their lease with a slot-word READ (1
    /// small message) before serving.
    local_revalidations: lifetime, counter "ditto_cache_local_revalidations_total" "Local-tier hits that renewed their lease with a slot-word READ (lifetime).";
    /// Local-tier revalidations that renewed a lease for more than the
    /// configured floor ([`crate::local_tier::lease_for`]).
    local_leases_above_floor: lifetime accessor, counter "ditto_cache_local_leases_above_floor_total" "Local-tier revalidations that renewed a lease for more than the floor (lifetime).";
    /// Sum of the leases local-tier revalidations granted, in simulated ns:
    /// over `local_revalidations`, the mean lease.
    local_lease_ns_granted: lifetime accessor, counter "ditto_cache_local_lease_ns_granted_total" "Sum of the leases local-tier revalidations granted, in simulated ns (lifetime).";
    /// Local-tier entries dropped because the coherence board saw a
    /// concurrent slot mutation.
    local_invalidations: lifetime, counter "ditto_cache_local_invalidations_total" "Local-tier entries dropped by a coherence-board check (lifetime).", bump record_local_invalidation;
    /// Local-tier entries dropped because their revalidation READ observed a
    /// changed slot word.
    local_stale_rejects: lifetime, counter "ditto_cache_local_stale_rejects_total" "Local-tier entries dropped by a failed lease revalidation (lifetime).", bump record_local_stale_reject;
    /// Hinted lookups issued: each one that held is a remote hit served with
    /// two READs instead of three, in one round trip.
    spec_reads_issued: lifetime accessor, counter "ditto_cache_spec_reads_issued_total" "Hinted lookups: Gets that read their one hinted slot instead of both buckets (lifetime).";
    /// Hinted lookups that mispredicted: each cost a round trip and the
    /// READ(s) it carried before the unhinted lookup ran.
    spec_reads_wasted: lifetime accessor, counter "ditto_cache_spec_reads_wasted_total" "Hinted lookups that mispredicted because the slot word had changed (lifetime).";
    /// Hinted lookups whose object is off the slot's node, so the ring rang
    /// two doorbells.
    spec_reads_split: lifetime accessor, counter "ditto_cache_spec_reads_split_total" "Hinted lookups whose object is off the slot's node, so the ring rang two doorbells (lifetime).", bump record_spec_read_split;
    /// Hint-table notes that took the way of another key's live hint: the
    /// key's set was full, and its least recently used hint went.
    hints_displaced: lifetime accessor, counter "ditto_cache_hints_displaced_total" "Hint-table notes that evicted another key's live hint from a full set (lifetime).", bump record_hint_displaced;
    /// Hinted publishes issued: each one that won is a replacing `Set` done
    /// in one round trip, with no bucket READ.
    spec_publishes_issued: lifetime accessor, counter "ditto_cache_spec_publishes_issued_total" "Hinted publishes: replacing Sets that CASed their hinted slot behind the object WRITE, with no lookup (lifetime).";
    /// Hinted publishes that mispredicted: each cost a round trip before the
    /// `Set`'s lookup ran after all.
    spec_publishes_wasted: lifetime accessor, counter "ditto_cache_spec_publishes_wasted_total" "Hinted publishes that mispredicted because the slot word had changed (lifetime).";
    /// `last_ts` WRITEs issued: one per replacing `Set` and per hit whose
    /// stored timestamp had gone stale.
    ts_writes_sent: lifetime accessor, counter "ditto_cache_ts_writes_sent_total" "last_ts WRITEs issued: replacing Sets, and hits whose stored timestamp had gone stale (lifetime).";
    /// `last_ts` WRITEs hits, remote or local-tier, left out because the
    /// stored timestamp was still fresh: each one RNIC message saved.
    ts_writes_skipped: lifetime accessor, counter "ditto_cache_ts_writes_skipped_total" "last_ts WRITEs hits left out because the stored timestamp was fresh (lifetime).";
    /// `Get`s that a verb fault (an unreadable bucket or object) degraded to
    /// a miss — counted as a miss too.
    gets_degraded: lifetime accessor, counter "ditto_cache_gets_degraded_total" "Gets a verb fault degraded to a miss (lifetime).", bump record_get_degraded;
    /// `Set`s whose every publish attempt lost.  Each either invalidated the
    /// key's older value in its place and returned `Ok`, or could not and
    /// returned [`crate::CacheError::SetDropped`].
    sets_dropped: lifetime accessor, counter "ditto_cache_sets_dropped_total" "Sets that published nothing: each invalidated the key instead (Ok) or returned SetDropped (lifetime).", bump record_set_dropped;
    /// History ids that went into no slot: the eviction that acquired one
    /// evicted nothing, or the FAA for it faulted.  Each aged its shard's
    /// logical FIFO by one position with no entry.
    history_ids_burnt: lifetime accessor, counter "ditto_cache_history_ids_burnt_total" "History ids acquired by an eviction and embedded in no slot (lifetime).", bump record_history_id_burnt;

    + per index {
        /// Evictions attributed to each expert.
        expert_victories: interval;
    }
}

impl CacheStats {
    /// Creates statistics for a cache with `num_experts` experts.
    pub fn new(num_experts: usize) -> Self {
        let mut stats = CacheStats::default();
        stats
            .expert_victories
            .resize_with(num_experts, AtomicU64::default);
        stats
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
        // Walks the table, so a new row cannot be added without a recorder
        // call here: an unbumped row fails the audit below.
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
        stats.record_local_hit();
        stats.record_local_revalidation(150, 50);
        stats.record_local_revalidation(50, 50);
        stats.record_local_invalidation();
        stats.record_local_stale_reject();
        stats.record_spec_read(false);
        stats.record_spec_read(true);
        stats.record_spec_read_split();
        stats.record_hint_displaced();
        stats.record_spec_publish(true);
        stats.record_spec_publish(false);
        stats.record_spec_publish(false);
        stats.record_ts_write(true);
        stats.record_ts_write(false);
        stats.record_ts_write(false);
        stats.record_get_degraded();
        stats.record_set_dropped();
        stats.record_history_id_burnt();
        stats.record_history_id_burnt();

        // What the recorders made of it, snapshot fields and accessors.
        let snap = stats.snapshot();
        let expected = CacheStatsSnapshot {
            hits: 2,
            misses: 1,
            sets: 1,
            evictions: 1,
            bucket_evictions: 1,
            history_inserts: 1,
            regrets: 1,
            weight_syncs: 1,
            fc_flushes: 1,
            local_hits: 1,
            local_revalidations: 2,
            local_invalidations: 1,
            local_stale_rejects: 1,
            expert_victories: vec![0, 1],
        };
        assert_eq!(snap, expected);
        assert!((snap.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(
            (stats.evictions_inline(), stats.evictions_overlapped()),
            (1, 2)
        );
        assert_eq!(
            (
                stats.local_leases_above_floor(),
                stats.local_lease_ns_granted()
            ),
            (1, 200)
        );
        assert_eq!(
            (
                stats.spec_reads_issued(),
                stats.spec_reads_wasted(),
                stats.spec_reads_split()
            ),
            (2, 1, 1)
        );
        assert_eq!(stats.hints_displaced(), 1);
        assert_eq!(
            (stats.spec_publishes_issued(), stats.spec_publishes_wasted()),
            (3, 1)
        );
        assert_eq!((stats.ts_writes_sent(), stats.ts_writes_skipped()), (1, 2));
        assert_eq!(stats.gets_degraded(), 1);
        assert_eq!((stats.sets_dropped(), stats.history_ids_burnt()), (1, 2));

        // `reset` zeroes the `interval` rows (and the per-expert votes) and
        // no `lifetime` row.
        let before = stats.values();
        stats.reset();
        let after = stats.values();
        assert_eq!(CacheStats::ROWS.len(), before.len());
        for ((row, &was), &is) in CacheStats::ROWS.iter().zip(&before).zip(&after) {
            assert_ne!(was, 0, "`{}` was never bumped", row.field);
            let expected = if row.interval { 0 } else { was };
            assert_eq!(is, expected, "`{}` after reset", row.field);
        }
        assert_eq!(stats.snapshot().expert_victories, vec![0, 0]);
        assert_eq!(
            snap.delta(&snap),
            CacheStatsSnapshot {
                expert_victories: vec![0, 0],
                ..CacheStatsSnapshot::default()
            }
        );
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
