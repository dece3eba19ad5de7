//! The shared cache instance: remote structures, experts and statistics.

use crate::adaptive::{AdaptivePolicy, WeightService};
use crate::config::DittoConfig;
use crate::error::{CacheError, CacheResult};
use crate::hashtable::SampleFriendlyHashTable;
use crate::history::EvictionHistory;
use crate::local_tier::CoherenceBoard;
use crate::slot::BUCKET_SIZE;
use crate::stats::CacheStats;
use ditto_algorithms::CacheAlgorithm;
use ditto_dm::rpc::WEIGHT_SERVICE;
use ditto_dm::{obs, DmConfig, MemoryPool, MigrationEngine, RemoteAddr};
use std::sync::Arc;

/// A Ditto cache deployed on a disaggregated memory pool.
///
/// `DittoCache` owns the remote structures (hash table, history counter) and
/// the process-wide shared state (experts, global-weight service handle,
/// statistics).  Each client thread obtains its own [`crate::DittoClient`]
/// through [`DittoCache::client`]; the cache itself is cheap to clone.
///
/// `DittoCache` is `Send + Sync`: clone it into as many OS threads as
/// needed and mint one client per thread — the intended deployment shape
/// (see the crate-level *Threading model* section).  Concurrent clients
/// contend on the real slot CAS / FAA hot paths; the pool's contention
/// counters ([`ditto_dm::PoolStats::contention`]) expose how often they do.
#[derive(Clone)]
pub struct DittoCache {
    pub(crate) pool: MemoryPool,
    pub(crate) config: Arc<DittoConfig>,
    pub(crate) table: SampleFriendlyHashTable,
    pub(crate) history: EvictionHistory,
    pub(crate) scratch: RemoteAddr,
    /// The experts, and the uniform weights every new client starts from.
    pub(crate) policy: AdaptivePolicy,
    pub(crate) stats: Arc<CacheStats>,
    weight_service: Arc<WeightService>,
    pub(crate) migration: Arc<MigrationEngine>,
    /// Per-key-hash mutation epochs keeping every client's local tier
    /// coherent with concurrent writers (see [`crate::local_tier`]).
    /// Shared by all clients of the process; bumps are cheap enough that
    /// the board exists even when no client enables a tier.
    pub(crate) board: Arc<CoherenceBoard>,
    /// Base of the per-client crash-recovery redo journal
    /// ([`DittoConfig::enable_crash_recovery_journal`]); `None` when the
    /// journal is disabled.  Recovery reads *other* clients' slots through
    /// it.
    pub(crate) journal_base: Option<RemoteAddr>,
}

/// Number of per-client slots in the crash-recovery redo journal region;
/// clients with ids at or above this write no journal (and are recovered
/// by the segment sweep alone).
const JOURNAL_SLOTS: u64 = 512;

/// Stride of one client's journal slot: 48 bytes of payload (six little-
/// endian words — new/old allocation triples), padded to a cache block.
const JOURNAL_SLOT_BYTES: u64 = 64;

/// Progress made by one [`DittoCache::pump_migration`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationProgress {
    /// Stripe moves committed by this pump.
    pub stripes_moved: u64,
    /// Objects relocated between nodes by this pump.
    pub objects_relocated: u64,
    /// Planned stripe moves still pending after this pump.
    pub jobs_remaining: u64,
}

impl DittoCache {
    /// Deploys a cache on an existing memory pool.
    pub fn new(pool: MemoryPool, config: DittoConfig) -> CacheResult<Self> {
        config.validate().map_err(CacheError::InvalidConfig)?;
        let policy = AdaptivePolicy::from_names(
            &config.experts,
            config.history_len(),
            config.weight_sync_batch,
        )?;
        let table = SampleFriendlyHashTable::create(&pool, config.num_buckets())?;
        let migration = Arc::new(MigrationEngine::new(&pool, Arc::clone(table.directory()))?);
        let history = EvictionHistory::create(&pool, config.history_len())?;
        let scratch = pool.reserve(4096)?;
        let journal_base = if config.enable_crash_recovery_journal {
            Some(pool.reserve(JOURNAL_SLOTS * JOURNAL_SLOT_BYTES)?)
        } else {
            None
        };
        let weight_service = Arc::new(WeightService::new(policy.experts().len()));
        pool.register_handler(WEIGHT_SERVICE, weight_service.clone());
        let stats = Arc::new(CacheStats::new(policy.experts().len()));
        Ok(DittoCache {
            pool,
            config: Arc::new(config),
            table,
            history,
            scratch,
            policy,
            stats,
            weight_service,
            migration,
            board: Arc::new(CoherenceBoard::new(CoherenceBoard::DEFAULT_SLOTS)),
            journal_base,
        })
    }

    /// Builds a dedicated memory pool sized for `config` and deploys the
    /// cache on it.
    ///
    /// The pool gets enough memory for the hash table plus
    /// `capacity_objects` average-sized objects, so allocation failures — and
    /// therefore evictions — start once the configured capacity is reached.
    /// With `dm.num_memory_nodes > 1` the required bytes are divided over
    /// the nodes, matching the striped placement of table and segments.
    pub fn with_dedicated_pool(config: DittoConfig, mut dm: DmConfig) -> CacheResult<Self> {
        config.validate().map_err(CacheError::InvalidConfig)?;
        let table_bytes = config.num_buckets() * BUCKET_SIZE as u64;
        let object_bytes = config.capacity_objects * config.avg_object_blocks() * 64;
        let nodes = dm.num_memory_nodes.max(1) as u64;
        // Margin (per node) for the history counters, the scratch page,
        // allocator alignment and per-client segment remainders.  Multi-node
        // pools additionally get bucket-migration headroom: when a node
        // drains, each survivor must be able to park its share of the
        // drained node's stripes (vacated ranges are reused on later
        // resizes, so the headroom does not compound).
        let migration_headroom = if nodes > 1 {
            (table_bytes / nodes).div_ceil(nodes - 1) + 8 * 1024
        } else {
            0
        };
        let margin = 64 * 1024 + object_bytes / nodes / 50 + migration_headroom;
        dm.memory_node_capacity = (table_bytes + object_bytes).div_ceil(nodes) + margin;
        Self::new(MemoryPool::new(dm), config)
    }

    /// Convenience constructor: dedicated pool with default DM timings.
    pub fn with_capacity(capacity_objects: u64) -> CacheResult<Self> {
        Self::with_dedicated_pool(
            DittoConfig::with_capacity(capacity_objects),
            DmConfig::default(),
        )
    }

    /// Opens a new client (one per application thread).
    pub fn client(&self) -> crate::client::DittoClient {
        crate::client::DittoClient::new(self.clone())
    }

    /// The underlying memory pool.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// The cache configuration.
    pub fn config(&self) -> &DittoConfig {
        &self.config
    }

    /// Shared cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The expert caching algorithms, in configuration order.
    pub fn experts(&self) -> &[Arc<dyn CacheAlgorithm>] {
        self.policy.experts()
    }

    /// The current *global* expert weights held by the controller.
    pub fn global_weights(&self) -> Vec<f64> {
        self.weight_service.weights()
    }

    /// Whether any configured expert requires extension metadata stored with
    /// the objects.
    pub fn uses_extension(&self) -> bool {
        self.experts().iter().any(|e| e.uses_extension())
    }

    /// The bucket-range migration engine (see `ditto_dm::migration`).
    pub fn migration(&self) -> &Arc<MigrationEngine> {
        &self.migration
    }

    /// Drives the online bucket-range migration until the plan for the
    /// current resize epoch is complete: every reassigned stripe is copied,
    /// its resident objects relocated, and the cutover committed; then any
    /// node that left the active set is swept empty of remaining objects.
    ///
    /// Call this from a background thread (or between request batches)
    /// after [`ditto_dm::MemoryPool::add_node`] /
    /// [`ditto_dm::MemoryPool::drain_node`]; the budgeted variant for
    /// incremental pumping is [`crate::DittoClient::pump_migration`].
    pub fn pump_migration(&self) -> MigrationProgress {
        let mut client = self.client();
        let mut total = MigrationProgress::default();
        loop {
            let progress = client.pump_migration(usize::MAX);
            total.stripes_moved += progress.stripes_moved;
            total.objects_relocated += progress.objects_relocated;
            total.jobs_remaining = progress.jobs_remaining;
            // Keep pumping while a pass makes headway (relocations can
            // transiently fail under memory pressure and succeed after the
            // next evictions).  A pass that moved nothing ends the loop
            // even with jobs pending — a blocked plan (destination out of
            // space) is reported through `jobs_remaining` instead of
            // spinning forever.
            if progress.stripes_moved == 0 && progress.objects_relocated == 0 {
                break;
            }
        }
        total
    }

    /// Renders the whole deployment's counters as one Prometheus-style
    /// text page: the pool's latency summaries and counter groups
    /// ([`ditto_dm::obs::text_exposition`]) followed by the cache-level
    /// `ditto_cache_*` series — one per row of the [`CacheStats`] table, the
    /// hit rate and the per-expert victories — and the pool bytes the table
    /// holds and the pool has handed out.  One scrape endpoint for the
    /// whole stack.
    ///
    /// With the flight recorder armed (see
    /// [`ditto_dm::DmConfig::with_flight_recorder_sampled`]) the page also
    /// carries the `ditto_phase_latency_seconds{phase=...}` summaries —
    /// per-phase span quantiles for every phase that recorded at least one
    /// span — and the `ditto_obs_ops_sampled_total` /
    /// `ditto_obs_ops_skipped_total` split of the sampling draw.
    pub fn text_exposition(&self) -> String {
        let mut out = obs::text_exposition(self.pool.stats());
        self.stats.write_exposition(&mut out);
        let snap = self.stats.snapshot();
        obs::write_metric(
            &mut out,
            "ditto_cache_hit_rate",
            "Hit fraction over the snapshot interval.",
            "gauge",
            snap.hit_rate(),
        );
        obs::write_metric(
            &mut out,
            "ditto_table_bytes",
            "Pool bytes of the hash table.",
            "gauge",
            self.table.size_bytes(),
        );
        obs::write_metric(
            &mut out,
            "ditto_pool_used_bytes",
            "Pool bytes handed out, summed over the nodes' high-water marks.",
            "gauge",
            self.pool.used_bytes(),
        );
        obs::write_metric_header(
            &mut out,
            "ditto_cache_expert_victories_total",
            "Per-expert wins of the regret vote.",
            "counter",
        );
        for (idx, (name, wins)) in self
            .config
            .experts
            .iter()
            .zip(snap.expert_victories.iter())
            .enumerate()
        {
            out.push_str(&format!(
                "ditto_cache_expert_victories_total{{expert=\"{name}\",index=\"{idx}\"}} {wins}\n"
            ));
        }
        out
    }

    /// The journal slot of client `client_id` in the journal region at
    /// `base` ([`DittoCache::journal_base`]), when the crash-recovery
    /// journal is enabled and the id falls inside the region.
    pub(crate) fn journal_slot(base: Option<RemoteAddr>, client_id: u32) -> Option<RemoteAddr> {
        let base = base?;
        (u64::from(client_id) < JOURNAL_SLOTS)
            .then(|| base.add(u64::from(client_id) * JOURNAL_SLOT_BYTES))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_that_would_overflow_are_invalid_before_the_pool_is_sized() {
        assert!(DittoConfig::default().validate().is_ok());
        let d = DittoConfig::default;
        for config in [
            DittoConfig {
                avg_object_size: u32::MAX,
                ..d()
            },
            DittoConfig {
                capacity_objects: u64::MAX / 2,
                ..d()
            },
            DittoConfig {
                fc_cache_mb: f64::INFINITY,
                ..d()
            },
            DittoConfig {
                alloc_segment_objects: u64::MAX / 4,
                ..d()
            },
            // One object more than a table of 2^32 buckets holds.
            DittoConfig {
                capacity_objects: (1u64 << 35).div_ceil(3),
                ..d()
            },
        ] {
            let built = DittoCache::with_dedicated_pool(config, DmConfig::default());
            assert!(matches!(built, Err(CacheError::InvalidConfig(_))));
        }
    }

    #[test]
    fn builds_with_default_config() {
        let cache = DittoCache::with_capacity(1_000).unwrap();
        assert_eq!(cache.experts().len(), 2);
        assert_eq!(cache.global_weights().len(), 2);
        assert!(!cache.uses_extension());
        assert!(cache.policy.is_adaptive());
    }

    #[test]
    fn unknown_expert_is_rejected() {
        let config = DittoConfig::with_capacity(100).with_experts(vec!["lru", "belady"]);
        let err = DittoCache::with_dedicated_pool(config, DmConfig::small())
            .err()
            .expect("unknown algorithm must be rejected");
        assert!(matches!(err, CacheError::UnknownAlgorithm(name) if name == "belady"));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = DittoConfig::with_capacity(100);
        config.experts.clear();
        assert!(matches!(
            DittoCache::with_dedicated_pool(config, DmConfig::small()).err(),
            Some(CacheError::InvalidConfig(_))
        ));
    }

    #[test]
    fn dedicated_pool_is_sized_to_capacity() {
        let cache = DittoCache::with_capacity(10_000).unwrap();
        let cap = cache.pool().capacity();
        // Enough for 10k × 5 blocks plus the table, but not wildly more.
        assert!(cap > 10_000 * 5 * 64);
        assert!(cap < 10_000 * 5 * 64 * 4);
    }

    #[test]
    fn extension_detection_follows_experts() {
        let config = DittoConfig::with_capacity(100).with_experts(vec!["lru", "gdsf"]);
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::small()).unwrap();
        assert!(cache.uses_extension());
    }

    #[test]
    fn text_exposition_spans_pool_and_cache_metrics() {
        let cache = DittoCache::with_capacity(1_000).unwrap();
        let mut client = cache.client();
        client.set(b"k", b"v");
        assert!(client.get(b"k").is_some());
        client.set(b"k", b"v2");
        let page = cache.text_exposition();
        // Pool-level groups from the dm crate…
        assert!(page.contains("ditto_ops_total"));
        assert!(page.contains("ditto_node_messages_total"));
        // …and the cache-level series, in the same page.
        assert!(page.contains("ditto_cache_hits_total 1"));
        assert!(page.contains("ditto_cache_sets_total 2"));
        assert!(page.contains("ditto_cache_evictions_inline_total 0"));
        assert!(page.contains("ditto_cache_evictions_overlapped_total 0"));
        // The Set left a hint, so the Get read its one slot — and it held.
        assert!(page.contains("ditto_cache_spec_reads_issued_total 1"));
        assert!(page.contains("ditto_cache_spec_reads_wasted_total 0"));
        // The second Set replaced the value through the same hint.
        assert!(page.contains("ditto_cache_spec_publishes_issued_total 1"));
        assert!(page.contains("ditto_cache_spec_publishes_wasted_total 0"));
        // The hit found the insert's timestamp stale, the replace always
        // writes its own.
        assert!(page.contains("ditto_cache_ts_writes_sent_total 2"));
        assert!(page.contains("ditto_cache_ts_writes_skipped_total 0"));
        assert!(page.contains("ditto_cache_gets_degraded_total 0"));
        assert!(page.contains("ditto_cache_sets_dropped_total 0"));
        assert!(page.contains("ditto_cache_history_ids_burnt_total 0"));
        assert!(page.contains("ditto_cache_expert_victories_total{expert=\"lru\""));
        // 1 000 objects: 375 buckets, rounded up to 6 stripes of 64.
        assert!(page.contains(&format!("ditto_table_bytes {}\n", 384 * BUCKET_SIZE)));
        assert!(page.contains(&format!(
            "ditto_pool_used_bytes {}\n",
            cache.pool.used_bytes()
        )));
        // Every HELP line has a TYPE line.
        let helps = page.matches("# HELP ").count();
        let types = page.matches("# TYPE ").count();
        assert_eq!(helps, types);
    }

    /// `fc_cache_mb` comes from outside input: an FC cache no memory holds
    /// is bounded by its entries, not reserved whole when a client opens.
    #[test]
    fn a_client_opens_under_an_fc_cache_no_memory_holds() {
        let config = DittoConfig {
            fc_cache_mb: 1e6,
            ..DittoConfig::with_capacity(100)
        };
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::small()).unwrap();
        let mut client = cache.client();
        client.set(b"k", b"v");
        assert_eq!(client.get(b"k").as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn clients_share_statistics() {
        let cache = DittoCache::with_capacity(1_000).unwrap();
        let c1 = cache.client();
        let c2 = cache.client();
        drop((c1, c2));
        assert_eq!(cache.stats().snapshot().hits, 0);
    }
}
