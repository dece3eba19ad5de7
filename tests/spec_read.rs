//! The two-READ `Get`: a hinted lookup reads the one 40-byte slot its hint
//! names instead of both buckets, and posts the object READ right behind it.
//! The hint may only ever save messages and latency, and a hint that went
//! stale, whose stripe moved, whose object sits off its slot's node or whose
//! READ faults must cost at most one round trip, never a wrong value or a
//! lost hit.

use ditto::algorithms::EXT_WORDS;
use ditto::cache::hash::fnv1a64;
use ditto::cache::slot::AtomicField;
use ditto::cache::stats::CacheStatsSnapshot;
use ditto::cache::{object, DittoCache, DittoClient, DittoConfig};
use ditto::dm::{DmConfig, FaultPlan, MemoryPool};
use ditto::workloads::{Op, YcsbSpec, YcsbWorkload};
use std::collections::HashMap;

/// What one seeded single-client run observed.
struct Observed {
    stats: CacheStatsSnapshot,
    /// READs the memory node served on behalf of `Get`s that hit.
    hit_reads: u64,
    /// Hinted lookups issued, and how many of them mispredicted.
    hinted: (u64, u64),
}

/// Replays a seeded YCSB trace cache-aside — every hit must return the
/// key's latest value — and returns what it observed.
fn replay(mix: YcsbWorkload, capacity: u64) -> Observed {
    let spec = YcsbSpec {
        record_count: 2_000,
        request_count: 12_000,
        ..YcsbSpec::default()
    }
    .with_seed(23);
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), DmConfig::default())
            .unwrap();
    let mut client = cache.client();
    let reads = || cache.pool().stats().node_snapshots()[0].reads;
    let mut hit_reads = 0;
    let mut latest = HashMap::new();
    let mut value_buf = Vec::new();
    for (i, request) in spec.run_requests(mix).into_iter().enumerate() {
        let key = request.key_bytes();
        let value = vec![(request.key as u8) ^ (i as u8); request.value_size as usize];
        if request.op == Op::Get {
            let before = reads();
            if client.get_into(&key, &mut value_buf) {
                hit_reads += reads() - before;
                assert_eq!(Some(&value_buf), latest.get(&request.key), "request {i}");
                continue;
            }
        }
        client.set(&key, &value);
        latest.insert(request.key, value);
    }
    client.flush();
    let stats = cache.stats();
    Observed {
        stats: stats.snapshot(),
        hit_reads,
        hinted: (stats.spec_reads_issued(), stats.spec_reads_wasted()),
    }
}

#[test]
fn single_client_hints_never_mispredict_and_every_mode_sends_the_same_messages() {
    // YCSB-C under eviction pressure (capacity a third of the records), then
    // YCSB-A with room for every record.
    for (mix, capacity) in [(YcsbWorkload::C, 700), (YcsbWorkload::A, 3_000)] {
        let observed = replay(mix, capacity);
        let hits = observed.stats.hits;
        assert!(hits > 1_000, "{mix:?}: the trace must hit");
        if capacity < 2_000 {
            assert!(observed.stats.evictions > 500, "{mix:?}: and evict");
        }
        // A single client learns of every slot-word change at the CAS that
        // makes it, so its hints are never stale…
        let (issued, wasted) = observed.hinted;
        assert_eq!(wasted, 0, "{mix:?}");
        // …and nearly every hit is a slot READ plus an object READ.
        assert!(
            issued * 10 > hits * 9,
            "{mix:?}: only {issued} of {hits} hits hinted"
        );
        assert!(
            (observed.hit_reads as f64) < 2.2 * hits as f64,
            "{mix:?}: {} READs for {hits} hits",
            observed.hit_reads
        );
    }
}

#[test]
fn a_hint_staled_by_another_client_yields_the_new_value_then_a_miss() {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(100), DmConfig::default())
            .unwrap();
    let (mut a, mut b) = (cache.client(), cache.client());
    b.set(b"shared", b"v1");
    assert_eq!(a.get(b"shared").as_deref(), Some(&b"v1"[..]));
    assert_eq!(a.get(b"shared").as_deref(), Some(&b"v1"[..]));
    let stats = cache.stats();
    assert_eq!(stats.spec_reads_issued(), 1, "A's second Get was hinted");

    // B replaces the value: A must see it.
    b.set(b"shared", b"v2-longer");
    assert_eq!(a.get(b"shared").as_deref(), Some(&b"v2-longer"[..]));

    // B evicts the key (churning far past capacity): A must miss.
    for i in 0..2_000u64 {
        b.set(&i.to_le_bytes(), &[7u8; 200]);
    }
    assert_eq!(b.get(b"shared"), None, "the churn must evict the key");
    assert_eq!(a.get(b"shared"), None);
    // Both times the shared board filtered A's hint before a verb was
    // posted: nothing was wasted on it.
    assert_eq!(stats.spec_reads_issued(), 1);
    assert_eq!(stats.spec_reads_wasted(), 0);
}

/// A two-node pool with room to grow, and 400 keys set through `client`.
fn two_node_cache() -> (DittoCache, DittoClient) {
    let dm = DmConfig::default().with_memory_nodes(2);
    let pool = MemoryPool::with_capacities(dm, &[64 << 20; 2]);
    let cache = DittoCache::new(pool, DittoConfig::with_capacity(2_000)).unwrap();
    let mut client = cache.client();
    for i in 0..400u64 {
        client.set(&i.to_le_bytes(), &i.to_be_bytes());
    }
    (cache, client)
}

/// Pumps the migration plan to completion through `client` itself, whose
/// hints follow the objects it relocates.  Returns the stripes moved.
fn pump(client: &mut DittoClient) -> u64 {
    let mut moved = 0;
    loop {
        let progress = client.pump_migration(usize::MAX);
        moved += progress.stripes_moved;
        if progress.stripes_moved + progress.objects_relocated == 0 {
            assert_eq!(progress.jobs_remaining, 0);
            return moved;
        }
    }
}

/// Gets every key of [`two_node_cache`], checks the value, and returns the
/// READs each node served.
fn get_all(cache: &DittoCache, client: &mut DittoClient) -> Vec<u64> {
    cache.pool().reset_stats();
    for i in 0..400u64 {
        assert_eq!(
            client.get(&i.to_le_bytes()).as_deref(),
            Some(&i.to_be_bytes()[..]),
            "key {i}"
        );
    }
    let nodes = cache.pool().stats().node_snapshots();
    nodes.iter().map(|node| node.reads).collect()
}

#[test]
fn a_hint_follows_its_slot_through_a_stripe_cutover_and_off_a_drained_node() {
    let (cache, mut client) = two_node_cache();
    let stats = cache.stats();

    // Grow: stripes — the slots of hinted keys among them — are cut over to
    // the joiner between the Sets that left the hints and the Gets below.
    // A hint names its slot by place, not by address, so the slot READ goes
    // to wherever the directory says that place lives now.
    let joiner = cache.pool().add_node().unwrap();
    assert!(pump(&mut client) > 0, "add_node must move stripes");
    let reads = get_all(&cache, &mut client);
    assert!(reads[joiner as usize] > 100, "{reads:?}");
    assert_eq!(reads.iter().sum::<u64>(), 2 * 400, "{reads:?}");
    assert_eq!(
        (stats.spec_reads_issued(), stats.spec_reads_wasted()),
        (400, 0)
    );

    // Shrink: node 1 drains to empty, and no hinted READ — of a slot or of
    // an object — still finds its way there.
    cache.pool().drain_node(1).unwrap();
    assert!(pump(&mut client) > 0, "drain_node must move stripes");
    assert_eq!(cache.pool().resident_object_bytes(1), 0);
    let reads = get_all(&cache, &mut client);
    assert_eq!(reads[1], 0, "{reads:?}");
    assert_eq!(reads.iter().sum::<u64>(), 2 * 400, "{reads:?}");
    assert_eq!(
        (stats.spec_reads_issued(), stats.spec_reads_wasted()),
        (800, 0)
    );
    cache.pool().remove_node(1).unwrap();
}

#[test]
fn an_object_off_its_slots_node_saves_the_bucket_read_but_is_never_read_early() {
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(2_000),
        DmConfig::default().with_memory_nodes(2),
    )
    .unwrap();
    let mut client = cache.client();
    // Node 1 drains but nothing migrates: its buckets stay, while every new
    // object — those of its stripes included — is placed on node 0.
    cache.pool().drain_node(1).unwrap();
    for i in 0..400u64 {
        client.set(&i.to_le_bytes(), &i.to_be_bytes());
    }
    assert_eq!(cache.pool().resident_object_bytes(1), 0);

    let round_trip = DmConfig::default().read_latency_ns;
    let (mut off_node, mut on_node) = (0, 0);
    for i in 0..400u64 {
        cache.pool().reset_stats();
        let t0 = client.dm().now_ns();
        assert_eq!(
            client.get(&i.to_le_bytes()).as_deref(),
            Some(&i.to_be_bytes()[..])
        );
        let elapsed = client.dm().now_ns() - t0;
        let nodes = cache.pool().stats().node_snapshots();
        // Hinted either way: the slot READ and the object READ, no bucket.
        assert_eq!(nodes[0].reads + nodes[1].reads, 2, "key {i}");
        // Only slot READs reach node 1, so they tell where the slot lives.
        if nodes[1].reads == 1 {
            // A READ on node 0's queue pair is not ordered behind the slot
            // READ on node 1's: the object waits for the slot to vouch.
            off_node += 1;
            assert!(elapsed >= 2 * round_trip, "key {i}: {elapsed}");
            assert_eq!(cache.pool().stats().doorbells(), 0, "key {i}");
        } else {
            on_node += 1;
            assert!(elapsed < 2 * round_trip, "key {i}: {elapsed}");
            assert_eq!(cache.pool().stats().batched_verbs(), 2, "key {i}");
        }
    }
    assert!(off_node > 50 && on_node > 50, "{off_node} / {on_node}");
    let stats = cache.stats();
    assert_eq!(
        (stats.spec_reads_issued(), stats.spec_reads_wasted()),
        (400, 0)
    );
}

#[test]
fn a_faulted_hinted_read_still_yields_the_hit() {
    // One verb in five fails.  Bucket READs and the fallback object READ
    // are retried; a failed slot READ — or a failed object READ behind it —
    // is simply a misprediction.
    let plan = FaultPlan::seeded(5).with_verb_fail_ppm(200_000);
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(1_000),
        DmConfig::default().with_fault_plan(plan),
    )
    .unwrap();
    let injector = cache.pool().fault_injector();
    injector.set_armed(false);
    let mut client = cache.client();
    for i in 0..300u64 {
        client.set(&i.to_le_bytes(), &i.to_be_bytes());
    }
    injector.set_armed(true);
    for i in 0..300u64 {
        assert_eq!(
            client.get(&i.to_le_bytes()).as_deref(),
            Some(&i.to_be_bytes()[..]),
            "key {i}"
        );
    }
    injector.set_armed(false);
    let stats = cache.stats();
    assert_eq!(stats.gets_degraded(), 0);
    assert_eq!(stats.snapshot().hits, 300);
    let (issued, wasted) = (stats.spec_reads_issued(), stats.spec_reads_wasted());
    assert_eq!(issued, 300, "the Sets left hints");
    // Either of a hinted round's two READs fails one time in five: ≈ 36 %.
    assert!(
        wasted > issued / 4 && wasted < issued / 2,
        "{wasted} of {issued}"
    );
}

/// The extension words of `key`'s object, dug out of node 0's memory: the
/// slot is the one whose hash field — right behind its atomic word — holds
/// the key's hash and whose word points at an object carrying the key.
fn ext_words_of(cache: &DittoCache, key: &[u8]) -> [u64; EXT_WORDS] {
    let node = cache.pool().node(0).unwrap();
    let memory = node.read(0, node.capacity() as usize).unwrap();
    let word_at = |at: usize| u64::from_le_bytes(memory[at..at + 8].try_into().unwrap());
    (8..memory.len() - 8)
        .step_by(8)
        .filter(|&at| word_at(at) == fnv1a64(key))
        .find_map(|at| {
            let word = AtomicField::decode(word_at(at - 8));
            let start = word.object_addr().offset as usize;
            let bytes = memory.get(start..start + word.object_bytes() as usize)?;
            object::view(bytes).filter(|view| view.key == key)
        })
        .expect("the key is cached")
        .ext
}

#[test]
fn a_hinted_hit_feeds_the_extension_algorithms_what_an_unhinted_hit_does() {
    // LFUDA keeps `inflation + freq` in the object's extension words, fed
    // from the slot the lookup decoded — the one hinted slot, or one of
    // sixteen.  (It does not depend on the clock, which the two differ in.)
    let run = |hinted: bool| {
        let config = DittoConfig::with_capacity(1_000).with_experts(vec!["lru", "lfuda"]);
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let (mut writer, mut stranger) = (cache.client(), cache.client());
        writer.set(b"probe", b"value");
        let fresh = ext_words_of(&cache, b"probe");
        // The writer's publish CAS left it a hint; the stranger has none.
        let reader = if hinted { &mut writer } else { &mut stranger };
        assert!(reader.get(b"probe").is_some());
        assert_eq!(cache.stats().spec_reads_issued(), hinted as u64);
        let ext = ext_words_of(&cache, b"probe");
        assert_ne!(ext, fresh, "the hit must write the extension words");
        ext
    };
    assert_eq!(run(true), run(false));
}
