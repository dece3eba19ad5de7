//! Steady-state heap allocations per `Get`/`Set` must be **zero**.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase that sizes every per-client scratch buffer (bucket/sample scratch,
//! object read buffer, encode buffer, FC-cache map, allocator free lists),
//! replaying further hits, updates and eviction-triggering inserts — and the
//! expert-weight syncs their regrets trigger, and cache-aside fills that
//! park their evictions and defer their re-samples — must not allocate at
//! all.
//!
//! This file deliberately contains a single test: the allocation counter is
//! process-global, so concurrently running tests would pollute the count.

use ditto_core::{DittoCache, DittoConfig};
use ditto_dm::DmConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_allocations(f: impl FnOnce()) -> u64 {
    COUNTING.store(true, Ordering::SeqCst);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(false, Ordering::SeqCst);
    after - before
}

#[test]
fn steady_state_get_and_set_do_not_allocate() {
    // Tight enough that a good share of each round's Gets miss on evicted
    // keys still in the history (regrets), syncing weights every tenth one.
    let mut config = DittoConfig::with_capacity(400);
    config.weight_sync_batch = 10;
    let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
    let mut client = cache.client();
    let mut value_buf = Vec::with_capacity(512);
    let key = |i: u64| -> [u8; 8] { i.to_le_bytes() };

    // Warm-up: run the exact op mix the measured phase will run, twice over,
    // so every reusable buffer, free list and hash map reaches its
    // steady-state footprint (inserts overflow capacity, so evictions and
    // history inserts happen here too).
    for round in 0..2u64 {
        for i in 0..1_000u64 {
            client.set(&key(i), &[round as u8; 200]);
        }
        for i in 0..1_000u64 {
            let _ = client.get_into(&key(i), &mut value_buf);
        }
    }

    // Measured phase: hits, misses, updates and eviction-triggering inserts,
    // with enough regrets among the misses to cross a weight sync.
    let syncs_before = cache.stats().snapshot().weight_syncs;
    let allocations = count_allocations(|| {
        for round in 2..4u64 {
            for i in 0..1_000u64 {
                client.set(&key(i), &[round as u8; 200]);
            }
            for i in 0..1_000u64 {
                let _ = client.get_into(&key(i), &mut value_buf);
            }
        }
    });

    let snap = cache.stats().snapshot();
    assert!(
        snap.hits > 0,
        "measured phase should produce hits: {snap:?}"
    );
    assert!(
        snap.evictions + snap.bucket_evictions > 0,
        "measured phase should evict: {snap:?}"
    );
    assert!(
        snap.weight_syncs > syncs_before,
        "measured phase should sync the expert weights: {snap:?}"
    );
    assert_eq!(
        allocations, 0,
        "steady-state Get/Set must not allocate (counted {allocations} allocations \
         over 4000 operations)"
    );

    // Armed-recorder phase: with the flight recorder recording every op and
    // the event log live, the steady state must stay allocation-free — the
    // span ring is pre-allocated at client construction and events are
    // plain-Copy records in a pre-allocated ring.
    let armed_cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(600),
        DmConfig::default().with_flight_recorder(1 << 14),
    )
    .unwrap();
    let mut armed_client = armed_cache.client();
    for round in 0..2u64 {
        for i in 0..1_000u64 {
            armed_client.set(&key(i), &[round as u8; 200]);
        }
        for i in 0..1_000u64 {
            let _ = armed_client.get_into(&key(i), &mut value_buf);
        }
    }
    let armed_allocations = count_allocations(|| {
        for round in 2..4u64 {
            for i in 0..1_000u64 {
                armed_client.set(&key(i), &[round as u8; 200]);
            }
            for i in 0..1_000u64 {
                let _ = armed_client.get_into(&key(i), &mut value_buf);
            }
        }
    });
    let obs = armed_cache.pool().stats().obs();
    assert!(
        obs.spans_recorded > 0,
        "armed phase should record spans: {obs:?}"
    );
    assert_eq!(
        armed_allocations, 0,
        "armed flight recording must not allocate in steady state \
         (counted {armed_allocations} allocations over 4000 operations)"
    );

    // Armed-sampled phase: 1-in-16 sampling must stay allocation-free too —
    // the sampling draw is a pure hash, the per-phase histograms are
    // pre-allocated at client construction, and skipped ops record nothing.
    let sampled_cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(600),
        DmConfig::default().with_flight_recorder_sampled(1 << 14, 16),
    )
    .unwrap();
    let mut sampled_client = sampled_cache.client();
    for round in 0..2u64 {
        for i in 0..1_000u64 {
            sampled_client.set(&key(i), &[round as u8; 200]);
        }
        for i in 0..1_000u64 {
            let _ = sampled_client.get_into(&key(i), &mut value_buf);
        }
    }
    let sampled_allocations = count_allocations(|| {
        for round in 2..4u64 {
            for i in 0..1_000u64 {
                sampled_client.set(&key(i), &[round as u8; 200]);
            }
            for i in 0..1_000u64 {
                let _ = sampled_client.get_into(&key(i), &mut value_buf);
            }
        }
    });
    let obs = sampled_cache.pool().stats().obs();
    assert!(
        obs.ops_sampled > 0 && obs.ops_skipped > 0,
        "1-in-16 sampling over 16 000 ops must both keep and skip: {obs:?}"
    );
    assert_eq!(
        sampled_allocations, 0,
        "sampled flight recording must not allocate in steady state \
         (counted {sampled_allocations} allocations over 4000 operations)"
    );

    // Local-tier phase: with the compute-side tier enabled the measured mix
    // exercises every tier path — admissions (CLOCK evictions included),
    // zero-message hits, lease revalidations, board invalidations from the
    // Sets — and must stay allocation-free: tier entries are preallocated,
    // per-entry key/value buffers grow to the largest object seen during
    // warm-up, and the hash index is pre-reserved so it never rehashes.
    let tiered_cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(600).with_local_tier(256, 20_000),
        DmConfig::default(),
    )
    .unwrap();
    let mut tiered_client = tiered_cache.client();
    for round in 0..2u64 {
        for i in 0..1_000u64 {
            tiered_client.set(&key(i), &[round as u8; 200]);
        }
        for i in 0..1_000u64 {
            let _ = tiered_client.get_into(&key(i), &mut value_buf);
            // Re-read a hot subset so lease-valid tier hits actually occur
            // inside one round (the next round's Sets invalidate them).
            if i % 4 == 0 {
                let _ = tiered_client.get_into(&key(i), &mut value_buf);
            }
        }
    }
    let tiered_allocations = count_allocations(|| {
        for round in 2..4u64 {
            for i in 0..1_000u64 {
                tiered_client.set(&key(i), &[round as u8; 200]);
            }
            for i in 0..1_000u64 {
                let _ = tiered_client.get_into(&key(i), &mut value_buf);
                if i % 4 == 0 {
                    let _ = tiered_client.get_into(&key(i), &mut value_buf);
                }
            }
        }
    });
    let snap = tiered_cache.stats().snapshot();
    assert!(
        snap.local_hits > 0,
        "tiered phase should serve local hits: {snap:?}"
    );
    assert_eq!(
        tiered_allocations, 0,
        "the local tier must not allocate in steady state \
         (counted {tiered_allocations} allocations over 4500 operations)"
    );

    // Cache-aside phase: every Get of a fresh key misses and its fill parks
    // an eviction, its sample in flight, for the next fill to carry; two
    // reads of the key follow, the first booking the fill, the second's
    // round decoding the sample.  2 KiB values in a cache sized for 300
    // small objects leave a sample span often short of two candidates, so
    // that round often sends a re-sample READ and the next ops poll it:
    // that path must stay allocation-free too.
    let filling_cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(300), DmConfig::default())
            .unwrap();
    let mut filling_client = filling_cache.client();
    let big = [7u8; 2_048];
    let mut fill = |i: u64| {
        if !filling_client.get_into(&key(i), &mut value_buf) {
            filling_client.set(&key(i), &big);
            for _ in 0..2 {
                let _ = filling_client.get_into(&key(i), &mut value_buf);
            }
        }
    };
    for i in 0..3_000u64 {
        fill(i);
    }
    let deferred = filling_cache.stats().resamples_deferred();
    let filling_allocations = count_allocations(|| {
        for i in 3_000..4_000u64 {
            fill(i);
        }
    });
    assert!(
        filling_cache.stats().resamples_deferred() > deferred,
        "the cache-aside phase should defer re-samples"
    );
    assert_eq!(
        filling_allocations, 0,
        "cache-aside fills whose evictions defer their re-samples must not \
         allocate (counted {filling_allocations} allocations over 4000 operations)"
    );
}
