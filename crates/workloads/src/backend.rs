//! The cache-backend abstraction and the replay driver.
//!
//! Every system under evaluation (Ditto and all baselines) implements
//! [`CacheBackend`], and every experiment drives requests through
//! [`replay`], so hit rates and penalised throughput are measured with the
//! exact same methodology the paper uses: on a `Get` miss the client pays a
//! configurable penalty (500 µs by default, the latency of a distributed
//! storage back-end) and then inserts the missed object with a `Set`.

use crate::request::{Op, Request};
use serde::{Deserialize, Serialize};
use std::ops::DerefMut;

/// A key-value cache under test.
pub trait CacheBackend {
    /// Looks up `key`, returning the cached value on a hit.
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>>;

    /// Inserts or overwrites `key` with `value`.
    fn set(&mut self, key: &[u8], value: &[u8]);

    /// Charges a miss penalty of `us` microseconds of simulated time.
    ///
    /// Backends running on the DM substrate advance the client clock; the
    /// in-memory hit-rate simulators ignore it.
    fn miss_penalty(&mut self, us: u64) {
        let _ = us;
    }

    /// Human-readable name of the backend (used in reports).
    fn backend_name(&self) -> &str {
        "cache"
    }

    /// Flushes client-buffered state (e.g. batched access counters) at the
    /// end of a client's run.
    fn finish(&mut self) {}
}

/// Options controlling [`replay`].  A `Get` miss is always followed by a
/// cache-aside fill of the missed object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplayOptions {
    /// Miss penalty in microseconds of simulated time (0 disables it).
    pub miss_penalty_us: u64,
}

impl ReplayOptions {
    /// The penalised configuration used by Figures 16 and 19 (500 µs misses).
    pub fn penalized() -> Self {
        ReplayOptions {
            miss_penalty_us: 500,
        }
    }
}

/// Aggregate results of a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayStats {
    /// Total requests replayed.
    pub requests: u64,
    /// `Get` requests that hit.
    pub hits: u64,
    /// `Get` requests that missed.
    pub misses: u64,
    /// `Set`-type requests (updates + inserts), excluding miss fills.
    pub sets: u64,
}

impl ReplayStats {
    /// Hit rate over `Get` requests (0.0 when no `Get` was issued).
    pub fn hit_rate(&self) -> f64 {
        let gets = self.hits + self.misses;
        if gets == 0 {
            0.0
        } else {
            self.hits as f64 / gets as f64
        }
    }

    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &ReplayStats) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.misses += other.misses;
        self.sets += other.sets;
    }
}

/// One client's replay: the cache it drives (a `&mut` or a `Box` of a
/// [`CacheBackend`]) and the statistics of the requests issued so far.
/// [`replay`] and the multi-client driver (`ditto_dm::run_clients`) issue
/// every request through [`Replay::issue`].
pub struct Replay<B> {
    /// The client under test.
    pub backend: B,
    /// Hit/miss statistics of the requests issued so far.
    pub stats: ReplayStats,
    opts: ReplayOptions,
    value_buf: Vec<u8>,
}

impl<B: DerefMut<Target = T>, T: CacheBackend + ?Sized> Replay<B> {
    /// A replay of `backend` that has issued nothing yet.
    pub fn new(backend: B, opts: ReplayOptions) -> Self {
        Replay {
            backend,
            stats: ReplayStats::default(),
            opts,
            value_buf: Vec::new(),
        }
    }

    /// Issues `req`: a `Get` (on a miss, the penalty and the cache-aside
    /// fill) or a `Set`.
    pub fn issue(&mut self, req: Request) {
        self.stats.requests += 1;
        let key = req.key_bytes();
        match req.op {
            Op::Get => {
                if self.backend.get(&key).is_some() {
                    self.stats.hits += 1;
                    return;
                }
                self.stats.misses += 1;
                if self.opts.miss_penalty_us > 0 {
                    self.backend.miss_penalty(self.opts.miss_penalty_us);
                }
            }
            Op::Update | Op::Insert => self.stats.sets += 1,
        }
        fill_value(&mut self.value_buf, req.value_size, req.key);
        self.backend.set(&key, &self.value_buf);
    }
}

/// Replays `requests` against `backend` and returns hit/miss statistics.
pub fn replay<B, I>(backend: &mut B, requests: I, opts: ReplayOptions) -> ReplayStats
where
    B: CacheBackend + ?Sized,
    I: IntoIterator<Item = Request>,
{
    let mut replay = Replay::new(backend, opts);
    requests.into_iter().for_each(|req| replay.issue(req));
    replay.stats
}

/// Fills `buf` with `size` deterministic bytes derived from `key`, so tests
/// can verify that a hit returns the value stored for that key.
pub fn fill_value(buf: &mut Vec<u8>, size: u32, key: u64) {
    buf.clear();
    buf.resize(size.max(1) as usize, 0);
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (key as u8).wrapping_add(i as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Unbounded in-memory backend used to test the driver itself.
    #[derive(Default)]
    struct MapBackend {
        map: HashMap<Vec<u8>, Vec<u8>>,
        penalties: u64,
    }

    impl CacheBackend for MapBackend {
        fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
            self.map.get(key).cloned()
        }
        fn set(&mut self, key: &[u8], value: &[u8]) {
            self.map.insert(key.to_vec(), value.to_vec());
        }
        fn miss_penalty(&mut self, _us: u64) {
            self.penalties += 1;
        }
    }

    #[test]
    fn replay_counts_hits_and_misses() {
        let mut backend = MapBackend::default();
        let requests = vec![
            Request::insert(1),
            Request::get(1),
            Request::get(2),
            Request::get(2),
        ];
        let stats = replay(&mut backend, requests, ReplayOptions::default());
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.sets, 1);
        assert_eq!(stats.hits, 2, "second get(2) hits after cache-aside fill");
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn miss_penalty_is_charged_when_configured() {
        let mut backend = MapBackend::default();
        let stats = replay(
            &mut backend,
            vec![Request::get(1), Request::get(2)],
            ReplayOptions::penalized(),
        );
        assert_eq!(stats.misses, 2);
        assert_eq!(backend.penalties, 2);
    }

    #[test]
    fn fill_value_is_deterministic_per_key() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        fill_value(&mut a, 64, 9);
        fill_value(&mut b, 64, 9);
        assert_eq!(a, b);
        fill_value(&mut b, 64, 10);
        assert_ne!(a, b);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = ReplayStats {
            requests: 10,
            hits: 4,
            misses: 6,
            sets: 0,
        };
        let b = ReplayStats {
            requests: 5,
            hits: 5,
            misses: 0,
            sets: 2,
        };
        a.merge(&b);
        assert_eq!(a.requests, 15);
        assert_eq!(a.hits, 9);
        assert_eq!(a.hit_rate(), 0.6);
    }

    #[test]
    fn empty_replay_has_zero_hit_rate() {
        let mut backend = MapBackend::default();
        let stats = replay(&mut backend, Vec::new(), ReplayOptions::default());
        assert_eq!(stats.hit_rate(), 0.0);
    }
}
