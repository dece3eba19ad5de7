//! A fast in-memory cache simulator sharing Ditto's eviction machinery.
//!
//! The motivation and adaptivity figures (3, 4, 5, 18, 20–22) sweep dozens of
//! workloads × cache sizes × client counts and only need *hit rates*, not DM
//! message counts.  [`SimCache`] reproduces Ditto's behaviour — sample-based
//! eviction, priority functions, an eviction history as long as the cache
//! and the regret-minimisation weights — on plain process memory, so those
//! sweeps run about five times faster than on the full DM data path (on a
//! 2-core host, `figures --scale 0.02` over figures 3, 4, 5, 20, 21, 22 and
//! `corpus33` took 5.25 s here and 26.7 s with each sweep replayed by one
//! `DittoClient` on an exactly sized single-node pool).  Every
//! policy step goes through the client's own [`AdaptivePolicy`]: the same
//! expert draw, vote, eviction notice, update rules and regret, with the
//! same learning rate and discount — and the same rule for when a hit
//! leaves `last_ts` alone ([`crate::recency`]), on its logical clock of one
//! tick per request.  Two things differ.  The simulator's local weights are
//! its global weights.  And it scores exactly [`DittoConfig::SAMPLE_SIZE`]
//! resident objects per eviction, where the client reads
//! [`DittoConfig::SAMPLE_SPAN_SLOTS`] consecutive slots, which hold about
//! that many live objects but rarely exactly that many: the simulator's hit
//! rates are not the client's.

use crate::adaptive::AdaptivePolicy;
use crate::config::DittoConfig;
use crate::error::CacheResult;
use crate::hash::FxHashMap;
use crate::recency::{self, EvictionAge, LAST_TS_DIVISOR};
use ditto_algorithms::{AccessContext, AccessKind, CacheAlgorithm, Metadata};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a [`SimCache`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Capacity in objects, and the length of the eviction history.
    pub capacity_objects: usize,
    /// Expert algorithm names; two or more run the adaptive scheme, one
    /// runs that expert alone.
    pub experts: Vec<String>,
}

impl SimConfig {
    /// RNG seed for sampling and expert choice.
    pub const SEED: u64 = 7;

    /// Adaptive LRU+LFU configuration (Ditto's default experts).
    pub fn adaptive(capacity_objects: usize) -> Self {
        SimConfig {
            capacity_objects: capacity_objects.max(1),
            experts: vec!["lru".to_string(), "lfu".to_string()],
        }
    }

    /// Single fixed algorithm configuration (e.g. plain LRU).
    pub fn single(capacity_objects: usize, algorithm: &str) -> Self {
        SimConfig {
            experts: vec![algorithm.to_string()],
            ..SimConfig::adaptive(capacity_objects)
        }
    }
}

/// Hit/miss statistics of a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// `Get` hits.
    pub hits: u64,
    /// `Get` misses.
    pub misses: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Regrets collected from the eviction history.
    pub regrets: u64,
    /// Hits that left `last_ts` alone because it was still fresh
    /// ([`crate::recency`]): the timestamp WRITEs a client would not send.
    pub ts_writes_skipped: u64,
}

impl SimStats {
    /// Hit rate over `Get` requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    metadata: Metadata,
    value: Vec<u8>,
}

struct HistoryEntry {
    id: u64,
    /// The eviction's history word: expert bitmap and draw odds
    /// ([`crate::history::expert_bitmap`]), stored as the client stores it.
    word: u64,
}

/// The in-memory simulator.
///
/// Keyed with the fast [`FxHashMap`] (the figure
/// sweeps are dominated by these lookups), and its eviction sampling loop is
/// allocation-free: candidate indices live in a reusable buffer and victim
/// keys move by ownership instead of being cloned.
pub struct SimCache {
    config: SimConfig,
    policy: AdaptivePolicy,
    entries: FxHashMap<Vec<u8>, Entry>,
    keys: Vec<Vec<u8>>,
    /// Evicted keys by their newest eviction; an entry expires once
    /// `capacity` evictions followed it (see [`SimCache::check_regret`]).
    history: FxHashMap<Vec<u8>, HistoryEntry>,
    history_counter: u64,
    clock: u64,
    eviction_age: EvictionAge,
    /// [`LAST_TS_DIVISOR`]; a field only so that the sweep justifying the
    /// constant can vary it.
    last_ts_divisor: u64,
    rng: StdRng,
    stats: SimStats,
    /// Reusable scratch for the indices sampled by one eviction.
    candidate_idx: Vec<usize>,
    /// Reusable scratch for the sampled entries' metadata, in
    /// `candidate_idx` order.
    candidates: Vec<Metadata>,
}

impl SimCache {
    /// Builds a simulator from its configuration.
    pub fn new(config: SimConfig) -> CacheResult<Self> {
        let policy =
            AdaptivePolicy::from_names(&config.experts, config.capacity_objects as u64, 1)?;
        Ok(Self::with_policy(config, policy))
    }

    /// Builds a simulator with explicitly provided expert instances — the
    /// entry point for user-defined caching algorithms that are not part of
    /// the built-in registry (the `custom_algorithm` example uses this).
    pub fn with_experts(
        config: SimConfig,
        experts: Vec<Arc<dyn CacheAlgorithm>>,
    ) -> CacheResult<Self> {
        let policy = AdaptivePolicy::new(experts, config.capacity_objects as u64, 1)?;
        Ok(Self::with_policy(config, policy))
    }

    fn with_policy(config: SimConfig, policy: AdaptivePolicy) -> Self {
        SimCache {
            policy,
            entries: FxHashMap::default(),
            keys: Vec::new(),
            history: FxHashMap::default(),
            history_counter: 0,
            clock: 0,
            eviction_age: EvictionAge::default(),
            last_ts_divisor: LAST_TS_DIVISOR,
            rng: StdRng::seed_from_u64(SimConfig::SEED),
            stats: SimStats::default(),
            config,
            candidate_idx: Vec::with_capacity(DittoConfig::SAMPLE_SIZE),
            candidates: Vec::with_capacity(DittoConfig::SAMPLE_SIZE),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Current expert weights.
    pub fn weights(&self) -> &[f64] {
        self.policy.weights()
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.eviction_age.begin_op(self.clock);
        self.clock
    }

    fn touch(&mut self, key: &[u8], kind: AccessKind) {
        let now = self.clock;
        let age = self.eviction_age.estimate(now);
        if let Some(entry) = self.entries.get_mut(key) {
            let ctx = AccessContext::at(now).with_kind(kind);
            let stored_ts = entry.metadata.last_ts;
            entry.metadata.record_access(&ctx);
            if kind == AccessKind::Hit
                && recency::last_ts_is_fresh(now, stored_ts, age, self.last_ts_divisor)
            {
                // The client would not have sent the timestamp WRITE.
                entry.metadata.last_ts = stored_ts;
                self.stats.ts_writes_skipped += 1;
            }
            self.policy.update(&mut entry.metadata, &ctx);
        }
    }

    /// Pays the regret a miss on `key` owes when the key was evicted within
    /// the last `capacity` evictions — the history is as long as the cache,
    /// the window [`crate::EvictionHistory::is_valid`] applies in the
    /// client.  An entry found past the window is dropped.
    fn check_regret(&mut self, key: &[u8]) {
        let Some(entry) = self.history.get(key) else {
            return;
        };
        let position = self.history_counter.saturating_sub(entry.id);
        if position as usize > self.config.capacity_objects {
            self.history.remove(key);
            return;
        }
        self.stats.regrets += 1;
        let word = entry.word;
        self.policy.regret(word, position);
        // Local weights are the global weights in the simulator: the
        // buffered penalties have no controller to go to.
        self.policy.take_pending(&mut []);
    }

    fn evict_once(&mut self) {
        if self.keys.is_empty() {
            return;
        }
        let k = DittoConfig::SAMPLE_SIZE.min(self.keys.len());
        // The sampling loop reuses the per-cache scratch buffers: no heap
        // allocation per eviction.
        self.candidate_idx.clear();
        while self.candidate_idx.len() < k {
            let idx = self.rng.gen_range(0..self.keys.len());
            if !self.candidate_idx.contains(&idx) {
                self.candidate_idx.push(idx);
            }
        }
        let now = self.clock;
        self.candidates.clear();
        for idx in &self.candidate_idx {
            self.candidates
                .push(self.entries[&self.keys[*idx]].metadata);
        }
        let (pick, word, _) =
            self.policy
                .pick_victim(&self.candidates, now, &mut self.eviction_age, &mut self.rng);
        let victim_idx = self.candidate_idx[pick];
        // Swap-remove the victim key, taking ownership so nothing is cloned.
        let victim_key = self.keys.swap_remove(victim_idx);
        let victim = self.entries.remove(&victim_key).expect("victim exists");
        self.policy.notify_evict(&victim.metadata, word, now);
        self.stats.evictions += 1;

        if self.policy.is_adaptive() {
            self.history_counter += 1;
            let id = self.history_counter;
            self.history.insert(victim_key, HistoryEntry { id, word });
        }
    }

    fn insert(&mut self, key: &[u8], value: &[u8]) {
        while self.entries.len() >= self.config.capacity_objects {
            self.evict_once();
        }
        let now = self.clock;
        let ctx = AccessContext::at(now).with_kind(AccessKind::Insert);
        let mut metadata = Metadata::on_insert(now, value.len() as u32, &ctx);
        self.policy.update(&mut metadata, &ctx);
        self.keys.push(key.to_vec());
        self.entries.insert(
            key.to_vec(),
            Entry {
                metadata,
                value: value.to_vec(),
            },
        );
        self.history.remove(key);
    }
}

impl ditto_workloads::CacheBackend for SimCache {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.tick();
        if self.entries.contains_key(key) {
            self.touch(key, AccessKind::Hit);
            self.stats.hits += 1;
            self.entries.get(key).map(|e| e.value.clone())
        } else {
            self.stats.misses += 1;
            self.eviction_age.observe_miss();
            if self.policy.is_adaptive() {
                self.check_regret(key);
            }
            None
        }
    }

    fn set(&mut self, key: &[u8], value: &[u8]) {
        self.tick();
        if let Some(entry) = self.entries.get_mut(key) {
            entry.value = value.to_vec();
            self.touch(key, AccessKind::Update);
        } else {
            self.insert(key, value);
        }
    }

    fn backend_name(&self) -> &str {
        if self.policy.is_adaptive() {
            "sim-adaptive"
        } else {
            "sim-single"
        }
    }
}

/// Convenience: replays `requests` against a fresh simulator and returns its
/// hit rate.
pub fn simulate_hit_rate(
    requests: &[ditto_workloads::Request],
    config: SimConfig,
) -> CacheResult<f64> {
    let mut cache = SimCache::new(config)?;
    let stats = ditto_workloads::replay(
        &mut cache,
        requests.iter().copied(),
        ditto_workloads::ReplayOptions::default(),
    );
    Ok(stats.hit_rate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CacheError;
    use ditto_workloads::{replay, CacheBackend, ReplayOptions, Request};

    #[test]
    fn capacity_is_enforced() {
        let mut cache = SimCache::new(SimConfig::single(100, "lru")).unwrap();
        for i in 0..1_000u64 {
            cache.set(format!("k{i}").as_bytes(), b"v");
        }
        assert!(cache.len() <= 100);
        assert!(cache.stats().evictions >= 900);
    }

    #[test]
    fn get_returns_stored_value() {
        let mut cache = SimCache::new(SimConfig::single(10, "lru")).unwrap();
        cache.set(b"a", b"alpha");
        assert_eq!(cache.get(b"a").as_deref(), Some(&b"alpha"[..]));
        assert_eq!(cache.get(b"b"), None);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_sim_prefers_recent_keys() {
        let mut cache = SimCache::new(SimConfig::single(50, "lru")).unwrap();
        for i in 0..50u64 {
            cache.set(format!("k{i}").as_bytes(), b"v");
        }
        // Touch the last 25 keys, then insert 25 more to force evictions.
        for i in 25..50u64 {
            let _ = cache.get(format!("k{i}").as_bytes());
        }
        for i in 100..125u64 {
            cache.set(format!("k{i}").as_bytes(), b"v");
        }
        let recent: usize = (25..50u64)
            .filter(|i| cache.get(format!("k{i}").as_bytes()).is_some())
            .count();
        let old: usize = (0..25u64)
            .filter(|i| cache.get(format!("k{i}").as_bytes()).is_some())
            .count();
        assert!(recent > old, "recent {recent} vs old {old}");
    }

    #[test]
    fn adaptive_sim_tracks_the_better_expert_on_lfu_friendly_work() {
        use ditto_workloads::traces::{lfu_friendly, TraceSpec};
        let spec = TraceSpec::new(4_000, 60_000).with_seed(3);
        let trace = lfu_friendly(&spec);
        let capacity = 400;

        let lru = simulate_hit_rate(&trace, SimConfig::single(capacity, "lru")).unwrap();
        let lfu = simulate_hit_rate(&trace, SimConfig::single(capacity, "lfu")).unwrap();
        let adaptive = simulate_hit_rate(&trace, SimConfig::adaptive(capacity)).unwrap();
        assert!(
            lfu > lru,
            "workload should be LFU-friendly: lfu={lfu} lru={lru}"
        );
        let floor = lru.min(lfu) - 0.02;
        assert!(adaptive >= floor, "adaptive {adaptive} below floor {floor}");
    }

    #[test]
    fn regrets_are_collected_in_adaptive_mode() {
        // A cyclically re-accessed key must come around again while its
        // history entry is still there: within 50 evictions, the history
        // being as long as the cache.
        let mut cache = SimCache::new(SimConfig::adaptive(50)).unwrap();
        let requests: Vec<Request> = (0..5_000u64).map(|i| Request::get(i % 75)).collect();
        replay(&mut cache, requests, ReplayOptions::default());
        assert!(cache.stats().regrets > 0);
        assert!((cache.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_key_evicted_twice_pays_a_regret_on_its_next_miss() {
        // Capacity 2, so every eviction scores both residents, and each
        // victim below is both the older and the less frequent one: LRU and
        // LFU agree whichever expert is drawn.  Sets stamp `last_ts`.
        let mut cache = SimCache::new(SimConfig::adaptive(2)).unwrap();
        for key in [b"x", b"a", b"a", b"a", b"b"] {
            cache.set(key, b"v"); // evicts x: history id 1
        }
        cache.set(b"a", b"v");
        assert_eq!(cache.get(b"x"), None);
        assert_eq!(cache.stats().regrets, 1);
        cache.set(b"x", b"v"); // evicts b: id 2
        cache.set(b"a", b"v");
        cache.set(b"c", b"v"); // evicts x again: id 3
        assert!(!cache.entries.contains_key(&b"x"[..]));
        assert_eq!(cache.stats().evictions, 3);
        // x's newest eviction is the last one, well inside the window.
        assert_eq!(cache.get(b"x"), None);
        assert_eq!(cache.stats().regrets, 2);
    }

    /// The sweep behind [`LAST_TS_DIVISOR`]: hit rate, and the share of hits
    /// that still send their timestamp WRITE, per divisor — on a YCSB-C
    /// trace at capacity 20 % of the records and on the changing trace
    /// (LRU-/LFU-friendly phases alternating) at 30 %.  `cargo test -p
    /// ditto-core last_ts_divisor -- --nocapture` prints the table.
    #[test]
    fn last_ts_divisor_sweep_keeps_the_hit_rate_at_sixteen() {
        use ditto_workloads::traces::TraceSpec;
        use ditto_workloads::{changing_workload, YcsbSpec, YcsbWorkload};
        const EAGER: u64 = u64::MAX;
        const DIVISORS: [u64; 5] = [4, 8, 16, 32, EAGER];
        const RECORDS: u64 = 2_000;
        const REQUESTS: u64 = 100_000;
        for seed in [42, 7] {
            let ycsb = YcsbSpec {
                record_count: RECORDS,
                request_count: REQUESTS,
                ..YcsbSpec::default()
            }
            .with_seed(seed)
            .run_requests(YcsbWorkload::C);
            let changing = changing_workload(&TraceSpec::new(RECORDS, REQUESTS).with_seed(seed), 4);
            for (name, trace, capacity) in [("ycsb-c", ycsb, 400), ("changing", changing, 600)] {
                let runs = DIVISORS.map(|divisor| {
                    let mut cache = SimCache::new(SimConfig::adaptive(capacity)).unwrap();
                    cache.last_ts_divisor = divisor;
                    replay(&mut cache, trace.iter().copied(), ReplayOptions::default());
                    cache.stats()
                });
                let eager = runs[DIVISORS.len() - 1].hit_rate();
                for (divisor, stats) in DIVISORS.iter().zip(runs) {
                    let label = match *divisor {
                        EAGER => "eager".to_string(),
                        d => format!("1/{d}"),
                    };
                    let delta = (stats.hit_rate() - eager) / eager;
                    let written = 1.0 - stats.ts_writes_skipped as f64 / stats.hits as f64;
                    println!(
                        "{name:8} seed {seed:2} tau {label:5}: hit rate {:.4} ({:+.2} %), {:5.1} % of hits write",
                        stats.hit_rate(),
                        delta * 100.0,
                        written * 100.0
                    );
                    if *divisor == LAST_TS_DIVISOR {
                        assert!(delta.abs() <= 0.005, "{name} seed {seed}: {delta}");
                        assert!(written < 0.6, "{name} seed {seed}: the rule must skip");
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_algorithm_is_rejected() {
        assert!(matches!(
            SimCache::new(SimConfig::single(10, "belady")),
            Err(CacheError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn replay_driver_integration() {
        let mut cache = SimCache::new(SimConfig::single(1_000, "lru")).unwrap();
        let requests: Vec<Request> = (0..10_000u64).map(|i| Request::get(i % 500)).collect();
        let stats = replay(&mut cache, requests, ReplayOptions::default());
        assert!(stats.hit_rate() > 0.9, "hit rate {}", stats.hit_rate());
        assert_eq!(stats.hit_rate(), {
            let s = cache.stats();
            s.hits as f64 / (s.hits + s.misses) as f64
        });
    }

    #[test]
    fn eviction_updates_key_index_consistently() {
        let mut cache = SimCache::new(SimConfig::single(20, "fifo")).unwrap();
        for i in 0..200u64 {
            cache.set(format!("k{i}").as_bytes(), b"v");
            // The key vector, which eviction samples, names every entry
            // once.
            assert_eq!(cache.keys.len(), cache.entries.len());
            assert!(cache.keys.iter().all(|key| cache.entries.contains_key(key)));
        }
    }
}
