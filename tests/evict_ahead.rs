//! Evict-ahead on a table so small that the eviction's sample keeps landing
//! on the evicting `Set`'s own buckets.
//!
//! Four buckets, room for a dozen objects, forty keys: every `Set` under
//! pressure runs its replenishing eviction beside its own lookup and
//! publish, and with two of the four buckets belonging to the `Set` itself
//! the sampled span overlaps them most of the time.  Own-bucket slots are
//! not candidates, so the publish CAS and the victim CAS never meet on one
//! word — checked here through what that would break: an acknowledged update
//! lost, or object bytes leaked or double-freed.

mod support;

use ditto::cache::{CacheError, DittoCache, DittoClient, DittoConfig};
use ditto::dm::{DmConfig, MemoryPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::assert_no_orphans;

const KEYS: u64 = 40;
const RESIDENT_OBJECTS: u64 = 12;
const OPS: usize = 6_000;

/// One seeded run, checked as it goes and once it ends.
fn run(seed: u64) {
    let mut config = DittoConfig::with_capacity(10);
    config.alloc_segment_objects = 1;
    assert_eq!(config.num_buckets(), 4, "the table must stay tiny");
    // Size the pool for the cache's fixed reservations plus a dozen objects.
    let fixed = DittoCache::new(MemoryPool::new(DmConfig::default()), config.clone())
        .unwrap()
        .pool()
        .used_bytes();
    let object_bytes = config.avg_object_blocks() * 64;
    let dm = DmConfig::default().with_capacity(fixed + RESIDENT_OBJECTS * object_bytes);
    let cache = DittoCache::new(MemoryPool::new(dm), config).unwrap();
    let mut client = cache.client();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut latest = vec![None::<Vec<u8>>; KEYS as usize];
    let mut value_buf = Vec::new();
    for op in 0..OPS {
        let key = rng.gen_range(0..KEYS);
        if rng.gen_range(0..2u32) == 0 {
            // Mostly updates of resident keys once the cache is warm.
            let value = vec![(op % 251) as u8; 200];
            client.set(&key.to_le_bytes(), &value);
            latest[key as usize] = Some(value);
        } else if client.get_into(&key.to_le_bytes(), &mut value_buf) {
            assert_eq!(
                Some(&value_buf),
                latest[key as usize].as_ref(),
                "op {op}: key {key} lost an acknowledged update"
            );
        }
    }
    let evictions = cache.stats().snapshot().evictions;
    let overlapped = cache.stats().evictions_overlapped();
    assert_eq!(
        cache.stats().evictions_inline() + overlapped,
        evictions,
        "every sampling eviction ran on exactly one path"
    );
    assert_no_orphans(&cache, &mut client, &format!("seed {seed}"));
    assert!(evictions > 500, "the run must stay under pressure");
    assert!(
        overlapped * 10 > evictions * 9,
        "evictions must run ahead of their Sets: {overlapped} of {evictions}"
    );
    let resident = (0..KEYS)
        .filter(|key| client.get_into(&key.to_le_bytes(), &mut value_buf))
        .count();
    assert!(resident < KEYS as usize, "capacity is below the key count");
}

#[test]
fn tiny_table_evict_ahead_overlaps_and_loses_nothing() {
    for seed in [3, 17] {
        run(seed);
    }
}

/// A pool with room for one and a half objects besides its fixed
/// reservations, and an object larger than that but within a two-object
/// segment: the `Set` evicts what there is, still finds no room, and says so
/// with a typed error instead of panicking.  The cache leaks nothing and goes
/// on serving.
#[test]
fn an_object_larger_than_the_pool_is_a_typed_error() {
    let mut config = DittoConfig::with_capacity(10);
    config.alloc_segment_objects = 2;
    let fixed = DittoCache::new(MemoryPool::new(DmConfig::default()), config.clone())
        .unwrap()
        .pool()
        .used_bytes();
    let object_bytes = config.avg_object_blocks() * 64;
    let dm = DmConfig::default().with_capacity(fixed + object_bytes * 3 / 2);
    let cache = DittoCache::new(MemoryPool::new(dm), config).unwrap();
    let mut client = cache.client();
    client.set(&1u64.to_le_bytes(), &[1u8; 200]);
    let huge = vec![2u8; object_bytes as usize * 3 / 2];
    match client.try_set(b"huge", &huge) {
        Err(CacheError::OutOfMemory {
            bytes,
            evictions_won,
            ..
        }) => {
            assert!(bytes as u64 > object_bytes * 3 / 2, "{bytes}");
            assert_eq!(evictions_won, 1);
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(client.get(b"huge"), None);
    assert_no_orphans(&cache, &mut client, "after the refused Set");
    client.set(&7u64.to_le_bytes(), &[3u8; 200]);
    assert_eq!(client.get(&7u64.to_le_bytes()), Some(vec![3u8; 200]));
}

/// The window a one-round fill opens: client A has posted its fill of a key
/// — the object WRITE, the slot's metadata WRITE and the insert CAS on one
/// doorbell — and returned, and has not booked the fill yet.  A cache of
/// room to spare, so nothing here evicts.  Returns the cache, A after its
/// fill of `probe` with `value`, and the bytes the table references then,
/// scanned by a client that has no fill of its own to book.
fn a_fill_posted_and_not_booked(value: &[u8]) -> (DittoCache, DittoClient, u64) {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(1_000), DmConfig::default())
            .unwrap();
    let mut a = cache.client();
    assert!(a.get(b"probe").is_none());
    a.set(b"probe", value);
    let referenced = cache.client().referenced_object_bytes_on(0);
    (cache, a, referenced)
}

/// Order (a): B sets the key in the window with a plain `Set` — a lookup.
/// A's metadata rode ahead of its insert CAS, so the lookup finds A's copy
/// by its `hash` and replaces it: the table references one copy of the key,
/// not two, before A books its fill and after.
#[test]
fn a_set_of_the_key_in_a_fills_window_replaces_the_posted_copy() {
    let (cache, mut a, referenced) = a_fill_posted_and_not_booked(b"from-a");
    let mut b = cache.client();
    b.set(b"probe", b"from-b");
    assert_eq!(cache.client().referenced_object_bytes_on(0), referenced);
    assert_eq!(a.get(b"probe").as_deref(), Some(&b"from-b"[..]));
    assert_eq!(cache.stats().fills_abandoned(), 0);
    assert_eq!(cache.client().referenced_object_bytes_on(0), referenced);
    assert_no_orphans(&cache, &mut a, "after B's replace");
}

/// Order (b): B gets the key in the window, and hits A's value.
#[test]
fn a_get_of_the_key_in_a_fills_window_hits() {
    let (cache, mut a, _) = a_fill_posted_and_not_booked(b"from-a");
    assert_eq!(
        cache.client().get(b"probe").as_deref(),
        Some(&b"from-a"[..])
    );
    assert_no_orphans(&cache, &mut a, "after B's Get");
}

/// Order (c): A's own next op is a `Get` of the key.  It books the fill
/// first, which leaves the key's hint, and hits through it.
#[test]
fn the_fillers_own_get_of_the_key_books_the_fill_and_hits_hinted() {
    let (cache, mut a, _) = a_fill_posted_and_not_booked(b"from-a");
    let hinted = cache.stats().spec_reads_issued();
    assert_eq!(a.get(b"probe").as_deref(), Some(&b"from-a"[..]));
    assert_eq!(cache.stats().spec_reads_issued(), hinted + 1);
    assert_eq!(cache.stats().fills_abandoned(), 0);
    assert_no_orphans(&cache, &mut a, "after A's Get");
}
