//! The two-READ `Get`: a hinted lookup reads the one 40-byte slot its hint
//! names instead of both buckets, and posts the object READ on the same
//! ring, on the slot's node or off it.
//! The hint may only ever save messages and latency, and a hint that went
//! stale, whose stripe moved, whose object sits off its slot's node or whose
//! READ faults must cost at most one round trip, never a wrong value or a
//! lost hit.
//!
//! And the one-round-trip `Set`: a hinted replace posts its object WRITE and,
//! behind it, the CAS of the hinted slot from the hinted word — no lookup.
//! The same holds of it: at most one round trip lost, never a wrong or lost
//! value, never a leaked or doubly freed object.
//!
//! And the fill after a miss, which publishes from what the miss read of the
//! buckets instead of reading them again: under faults as well, never a
//! wrong value, never a leaked object.

mod support;

use ditto::algorithms::EXT_WORDS;
use ditto::cache::hash::fnv1a64;
use ditto::cache::local_tier::CoherenceBoard;
use ditto::cache::slot::AtomicField;
use ditto::cache::stats::CacheStatsSnapshot;
use ditto::cache::{object, DittoCache, DittoClient, DittoConfig};
use ditto::dm::{attribution, DmConfig, FaultPlan, MemoryPool, Phase};
use ditto::workloads::{Op, YcsbSpec, YcsbWorkload};
use std::collections::HashMap;
use support::{assert_no_orphans, env_u64, splitmix};

/// What one seeded single-client run observed.
struct Observed {
    stats: CacheStatsSnapshot,
    /// READs the memory node served on behalf of `Get`s that hit.
    hit_reads: u64,
    /// Hinted lookups issued, and how many of them mispredicted.
    hinted: (u64, u64),
    /// `Set`s of a key the trace had set before.
    replaces: u64,
    /// Hinted publishes issued, and how many of them mispredicted.
    published: (u64, u64),
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
    let (mut hit_reads, mut replaces) = (0, 0);
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
        replaces += latest.insert(request.key, value).is_some() as u64;
    }
    client.flush();
    let stats = cache.stats();
    Observed {
        stats: stats.snapshot(),
        hit_reads,
        hinted: (stats.spec_reads_issued(), stats.spec_reads_wasted()),
        replaces,
        published: (stats.spec_publishes_issued(), stats.spec_publishes_wasted()),
    }
}

#[test]
fn single_client_hints_never_mispredict_on_gets_or_sets() {
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
        // The same goes for its Sets.  With room for every record a key set
        // before is still there — and nearly always still hinted, so the
        // replace skips the lookup; a fill after an eviction never is.
        let (published, wasted) = observed.published;
        assert_eq!(wasted, 0, "{mix:?}");
        if capacity < 2_000 {
            assert_eq!(
                published, 0,
                "{mix:?}: an evicting client forgets the victim's hint"
            );
        } else {
            let replaces = observed.replaces;
            assert!(replaces > 4_000, "{mix:?}: the trace must update");
            assert!(
                published * 10 > replaces * 9 && published <= replaces,
                "{mix:?}: only {published} of {replaces} replaces hinted"
            );
        }
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

    // The shared board filtered A's hint before a verb was posted.
    assert_eq!(stats.spec_reads_issued(), 1);

    // B evicts the key: A must miss — its hint filtered again, so nothing
    // was issued for it, and nothing wasted all along.
    churn_out(&mut b, b"shared");
    let issued = stats.spec_reads_issued();
    assert_eq!(a.get(b"shared"), None);
    assert_eq!(stats.spec_reads_issued(), issued);
    assert_eq!(stats.spec_reads_wasted(), 0);
}

/// Has `client` churn far past capacity until `key` is evicted.  How long
/// that takes is the eviction policy's business — capacity 100 keeps some 340
/// of these objects resident, a sampling eviction prefers victims that make
/// room for the fill, and a one-block key like this one goes when a full
/// bucket picks it, thousands of `Set`s on — so the churn goes on until a
/// `Get` misses.  It looks at doubling distances: every look is an access,
/// and a key looked at often is a key no expert evicts.
fn churn_out(client: &mut DittoClient, key: &[u8]) {
    for sets in 1..=65_536u64 {
        client.set(&sets.to_le_bytes(), &[7u8; 200]);
        if sets >= 2_048 && sets.is_power_of_two() && client.get(key).is_none() {
            return;
        }
    }
    panic!("the churn must evict the key");
}

#[test]
fn a_set_hint_staled_by_another_client_is_filtered_before_any_verb() {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(100), DmConfig::default())
            .unwrap();
    let (mut a, mut b) = (cache.client(), cache.client());
    let stats = cache.stats();
    a.set(b"shared", b"v1");
    a.set(b"shared", b"v2");
    assert_eq!(stats.spec_publishes_issued(), 1, "A's own word, A's hint");

    // B replaces the value: A's next replace must displace B's object, not
    // CAS on the word A last wrote.
    b.set(b"shared", b"v3-longer");
    a.set(b"shared", b"v4");
    assert_eq!(b.get(b"shared").as_deref(), Some(&b"v4"[..]));

    // B evicts the key: A's next Set is a fresh insert.
    churn_out(&mut b, b"shared");
    a.set(b"shared", b"v5");
    assert_eq!(b.get(b"shared").as_deref(), Some(&b"v5"[..]));
    // Both times the shared board filtered A's hint: no blind CAS went out.
    assert_eq!(
        (stats.spec_publishes_issued(), stats.spec_publishes_wasted()),
        (1, 0)
    );
    assert_no_orphans(&cache, &mut a, "after the fresh insert");
}

/// The board has one epoch per hint entry: another client's update of key X
/// must not cost key Y its hint merely because the two would have shared one
/// of the 4 096 epochs the board had while the hint table already held
/// 131 072 entries.
#[test]
fn an_update_of_a_key_sharing_only_a_4096_slot_epoch_leaves_the_hint_alone() {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(1_000), DmConfig::default())
            .unwrap();
    // X and Y: the first two keys that collide on the old board and not on
    // one the size of the cache's.
    let key = |i: u64| format!("key{i}").into_bytes();
    let old = CoherenceBoard::new(4_096);
    let new = CoherenceBoard::new(CoherenceBoard::DEFAULT_SLOTS);
    let slot = |board: &CoherenceBoard, i: u64| board.slot(fnv1a64(&key(i)));
    let x = key(0);
    let y = (1..)
        .find(|&i| slot(&old, i) == slot(&old, 0))
        .expect("a collision in 4 096 slots");
    assert_ne!(slot(&new, y), slot(&new, 0));
    let y = key(y);

    let (mut a, mut b) = (cache.client(), cache.client());
    let stats = cache.stats();
    b.set(&x, b"x1");
    b.set(&y, b"y1");
    for k in [&x, &y] {
        assert!(a.get(k).is_some(), "an unhinted hit leaves the hint");
    }
    assert_eq!(stats.spec_reads_issued(), 0);

    b.set(&x, b"x2");
    // Y's hint stands: two READs behind one doorbell, one round trip.
    cache.pool().reset_stats();
    assert_eq!(a.get(&y).as_deref(), Some(&b"y1"[..]));
    assert_eq!(
        (stats.spec_reads_issued(), stats.spec_reads_wasted()),
        (1, 0)
    );
    let pool = cache.pool().stats();
    assert_eq!(pool.node_snapshots()[0].reads, 2);
    assert_eq!((pool.doorbells(), pool.batched_verbs()), (1, 2));
    // X's was filtered before any verb, as
    // `a_hint_staled_by_another_client_yields_the_new_value_then_a_miss` pins.
    assert_eq!(a.get(&x).as_deref(), Some(&b"x2"[..]));
    assert_eq!(stats.spec_reads_issued(), 1);
}

/// Two keys whose hashes agree in their low 17 bits shared the one entry of
/// a direct-mapped 131 072-entry hint table, so each one's note displaced
/// the other's hint and every other `Get` read both buckets.  They share a
/// primary set of the two-choice, 4-way table, where both hints stay.
#[test]
fn two_keys_of_one_direct_mapped_entry_both_get_in_one_round_trip() {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(1_000), DmConfig::default())
            .unwrap();
    let key = |i: u64| format!("key{i}").into_bytes();
    let mut low_bits = HashMap::new();
    let (x, y) = (0..)
        .find_map(|i| {
            let other = low_bits.insert(fnv1a64(&key(i)) & ((1 << 17) - 1), i)?;
            Some((key(other), key(i)))
        })
        .unwrap();
    let mut client = cache.client();
    client.set(&x, b"x");
    client.set(&y, b"y");
    let stats = cache.stats();
    for (round, (k, value)) in [(&x, b"x"), (&y, b"y")].repeat(2).into_iter().enumerate() {
        cache.pool().reset_stats();
        assert_eq!(client.get(k).as_deref(), Some(&value[..]), "Get {round}");
        let pool = cache.pool().stats();
        assert_eq!(pool.node_snapshots()[0].reads, 2, "Get {round}");
        assert_eq!(
            (pool.doorbells(), pool.batched_verbs()),
            (1, 2),
            "Get {round}"
        );
    }
    assert_eq!(
        (stats.spec_reads_issued(), stats.spec_reads_wasted()),
        (4, 0)
    );
    assert_eq!(stats.hints_displaced(), 0);
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

/// Replaces every key of [`two_node_cache`] with a value derived from
/// `round`, reads each back, and returns the CASes each node served.
fn set_all(cache: &DittoCache, client: &mut DittoClient, round: u64) -> Vec<u64> {
    cache.pool().reset_stats();
    for i in 0..400u64 {
        client.set(&i.to_le_bytes(), &(i ^ round).to_be_bytes());
    }
    let nodes = cache.pool().stats().node_snapshots();
    for i in 0..400u64 {
        assert_eq!(
            client.get(&i.to_le_bytes()).as_deref(),
            Some(&(i ^ round).to_be_bytes()[..]),
            "key {i}"
        );
    }
    nodes.iter().map(|node| node.cas).collect()
}

#[test]
fn a_hinted_set_follows_its_slot_through_a_stripe_cutover_and_off_a_drained_node() {
    let (cache, mut client) = two_node_cache();
    let stats = cache.stats();
    let published = || (stats.spec_publishes_issued(), stats.spec_publishes_wasted());

    // Grow: the slots of hinted keys are cut over to the joiner between the
    // Sets that left the hints and the replaces below.  The CAS goes to
    // wherever the directory says the hinted place lives now — whenever the
    // new object is placed on that node too, which after a rebalance is
    // where the topology puts it.
    let joiner = cache.pool().add_node().unwrap();
    assert!(pump(&mut client) > 0, "add_node must move stripes");
    let cas = set_all(&cache, &mut client, 1 << 32);
    assert!(cas[joiner as usize] > 100, "{cas:?}");
    assert_eq!(cas.iter().sum::<u64>(), 400, "{cas:?}");
    let (issued, wasted) = published();
    assert!(issued > 300 && wasted == 0, "{issued} / {wasted}");
    assert_no_orphans(&cache, &mut client, "grown");

    // Shrink: node 1 drains to empty, and no blind CAS — nor the WRITE
    // ahead of it — still finds its way there.
    cache.pool().drain_node(1).unwrap();
    assert!(pump(&mut client) > 0, "drain_node must move stripes");
    let cas = set_all(&cache, &mut client, 2 << 32);
    assert_eq!(cas[1], 0, "{cas:?}");
    assert_eq!(cas.iter().sum::<u64>(), 400, "{cas:?}");
    let (again, wasted) = published();
    assert!(again > issued + 300 && wasted == 0, "{again} / {wasted}");
    assert_eq!(cache.pool().resident_object_bytes(1), 0);
    assert_no_orphans(&cache, &mut client, "drained");
    cache.pool().remove_node(1).unwrap();
}

#[test]
fn an_object_allocated_off_its_slots_node_is_never_cased_behind_its_write() {
    let (cache, mut client) = objects_off_node_1(DmConfig::default());
    let stats = cache.stats();
    let (mut off_node, mut on_node) = (0, 0);
    for i in 0..400u64 {
        let issued = stats.spec_publishes_issued();
        cache.pool().reset_stats();
        client.set(&i.to_le_bytes(), &(!i).to_be_bytes());
        let pool = cache.pool().stats();
        let nodes = pool.node_snapshots();
        assert_eq!(nodes[0].cas + nodes[1].cas, 1, "key {i}");
        // Only slot verbs reach node 1, so its CAS tells where the slot is.
        if nodes[1].cas == 1 {
            // A CAS on node 1's queue pair is not ordered behind the WRITE
            // on node 0's: hinted or not, it waits for the lookup round —
            // which carried the WRITE — to complete.
            off_node += 1;
            assert_eq!(stats.spec_publishes_issued(), issued, "key {i}");
            assert_eq!(nodes[0].reads + nodes[1].reads, 2, "key {i}");
        } else {
            on_node += 1;
            assert_eq!(stats.spec_publishes_issued(), issued + 1, "key {i}");
            assert_eq!((pool.doorbells(), pool.batched_verbs()), (1, 2), "key {i}");
        }
        assert_eq!(
            client.get(&i.to_le_bytes()).as_deref(),
            Some(&(!i).to_be_bytes()[..])
        );
    }
    assert!(off_node > 50 && on_node > 50, "{off_node} / {on_node}");
    assert_eq!(stats.spec_publishes_wasted(), 0);
    assert_eq!(cache.pool().resident_object_bytes(1), 0);
    assert_no_orphans(&cache, &mut client, "objects off their slots' node");
}

/// A cache over two nodes, `dm` otherwise, whose node 1 drained before
/// anything migrated: its buckets stay, while every object — those of its
/// stripes included — is placed on node 0.  400 keys are set through the
/// client returned, with the fault injector disarmed.
fn objects_off_node_1(dm: DmConfig) -> (DittoCache, DittoClient) {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(2_000), dm.with_memory_nodes(2))
            .unwrap();
    cache.pool().fault_injector().set_armed(false);
    let mut client = cache.client();
    cache.pool().drain_node(1).unwrap();
    for i in 0..400u64 {
        client.set(&i.to_le_bytes(), &i.to_be_bytes());
    }
    assert_eq!(cache.pool().resident_object_bytes(1), 0);
    (cache, client)
}

#[test]
fn an_object_off_its_slots_node_is_read_beside_its_slot_in_one_round_trip() {
    let (cache, mut client) = objects_off_node_1(DmConfig::default());
    let round_trip = DmConfig::READ_LATENCY_NS;
    let (mut off_node, mut on_node) = (0, 0);
    for i in 0..400u64 {
        cache.pool().reset_stats();
        let t0 = client.dm().now_ns();
        assert_eq!(
            client.get(&i.to_le_bytes()).as_deref(),
            Some(&i.to_be_bytes()[..])
        );
        let elapsed = client.dm().now_ns() - t0;
        let pool = cache.pool().stats();
        let nodes = pool.node_snapshots();
        // Hinted either way: the slot READ and the object READ, no bucket.
        assert_eq!(nodes[0].reads + nodes[1].reads, 2, "key {i}");
        assert_eq!(pool.batched_verbs(), 2, "key {i}");
        // Only slot READs reach node 1, so they tell where the slot lives.
        if nodes[1].reads == 1 {
            // The object READ goes on the slot READ's ring, one doorbell to
            // each node: one round trip, trusted on the unmoved epoch.
            off_node += 1;
            assert!(elapsed < 2 * round_trip, "key {i}: {elapsed}");
            assert_eq!(pool.doorbells(), 2, "key {i}");
        } else {
            on_node += 1;
            assert!(elapsed < 2 * round_trip, "key {i}: {elapsed}");
            assert_eq!(pool.doorbells(), 1, "key {i}");
        }
    }
    assert!(off_node > 50 && on_node > 50, "{off_node} / {on_node}");
    let stats = cache.stats();
    assert_eq!(
        (stats.spec_reads_issued(), stats.spec_reads_wasted()),
        (400, 0)
    );
    assert_eq!(stats.spec_reads_split(), off_node);
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

#[test]
fn a_faulted_hinted_read_off_its_objects_node_still_yields_the_latest_value() {
    // One verb in five fails, on two nodes, the objects of node 1's slots on
    // node 0.  Such a key's slot READ and object READ share a ring but not a
    // queue pair, so an errored slot READ flushes nothing on node 0's: the
    // object READ flies all the same, and both completions are polled.
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 2);
    for seed in 0..seeds {
        let plan = FaultPlan::seeded(0x0ff + seed).with_verb_fail_ppm(200_000);
        let dm = DmConfig::default()
            .with_fault_plan(plan)
            .with_flight_recorder(1 << 12);
        let (cache, mut client) = objects_off_node_1(dm);
        let (injector, stats) = (cache.pool().fault_injector(), cache.stats());
        // Which keys' hinted slots live on node 1, from one fault-free Get.
        let off_node: Vec<bool> = (0..400u64)
            .map(|i| {
                cache.pool().reset_stats();
                assert!(client.get(&i.to_le_bytes()).is_some());
                cache.pool().stats().node_snapshots()[1].reads == 1
            })
            .collect();
        let (mut split, mut split_wasted) = (0, 0);
        for round in 1..=2u64 {
            for i in 0..400u64 {
                client.set(&i.to_le_bytes(), &(i + round * 1_000).to_be_bytes());
            }
            injector.set_armed(true);
            for i in 0..400u64 {
                client.dm().clear_flight_recorder();
                let wasted = stats.spec_reads_wasted();
                assert_eq!(
                    client.get(&i.to_le_bytes()).as_deref(),
                    Some(&(i + round * 1_000).to_be_bytes()[..]),
                    "seed {seed}, round {round}, key {i}"
                );
                assert!(client.dm().poll_cq().is_none(), "seed {seed}, key {i}");
                if !off_node[i as usize] {
                    continue;
                }
                // The Get's first ring is the hinted one.  Every WQE of it
                // that reached the wire has a flight from the ring's end, and
                // both completions are polled before anything else is posted.
                let spans = client.dm().flight_spans();
                let first = spans.iter().position(|s| s.phase == Phase::Post).unwrap();
                let post = &spans[first];
                let ring = spans[first + 1..]
                    .iter()
                    .take_while(|s| s.phase != Phase::Post);
                let (mut flew, mut polled) = (0, 0);
                for span in ring {
                    flew += (span.phase == Phase::Flight && span.start_ns == post.end_ns) as u32;
                    polled += (span.phase == Phase::Poll) as u32;
                }
                assert_eq!(
                    (post.detail, flew, polled),
                    (2, 2, 2),
                    "seed {seed}, key {i}"
                );
                split += 1;
                split_wasted += stats.spec_reads_wasted() - wasted;
            }
            injector.set_armed(false);
        }
        assert_eq!(stats.gets_degraded(), 0, "seed {seed}");
        // Either READ fails one time in five: ≈ 36 % mispredict.
        assert!(
            split_wasted > split / 4 && split_wasted < split / 2,
            "seed {seed}: {split_wasted} of {split}"
        );
    }
}

/// A hintless `Get`'s object READ is one synchronous READ with the fault
/// budget of every data-path verb, and the frequency-counter FAA due at the
/// access is counted after it, once the key check passed.  At
/// `fc_threshold = 1` every hit makes a flush due, and a reader with no
/// hints reads the buckets first: no hinted `Get` comes for a flush to
/// ride, so every second hit posts the waiting one and its own on a
/// doorbell of their own.  One verb in fifty fails, and a faulted object
/// READ is retried — no hit degrades to a miss, and each hit makes exactly
/// one flush due.
#[test]
fn a_hintless_get_that_flushes_keeps_its_fault_budget() {
    const KEYS: u64 = 1_500;
    let plan = FaultPlan::seeded(0x71de).with_verb_fail_ppm(20_000);
    let config = DittoConfig {
        fc_threshold: 1,
        ..DittoConfig::with_capacity(2 * KEYS)
    };
    let cache =
        DittoCache::with_dedicated_pool(config, DmConfig::default().with_fault_plan(plan)).unwrap();
    let injector = cache.pool().fault_injector();
    injector.set_armed(false);
    let mut writer = cache.client();
    for i in 0..KEYS {
        writer.set(&i.to_le_bytes(), &i.to_be_bytes());
    }
    let stats = cache.stats();
    let (hits, flushes) = (stats.snapshot().hits, stats.snapshot().fc_flushes);
    let mut reader = cache.client();
    injector.set_armed(true);
    for i in 0..KEYS {
        assert_eq!(
            reader.get(&i.to_le_bytes()).as_deref(),
            Some(&i.to_be_bytes()[..]),
            "key {i}"
        );
    }
    injector.set_armed(false);
    assert_eq!(stats.gets_degraded(), 0);
    assert_eq!(stats.snapshot().hits - hits, KEYS);
    assert_eq!(stats.spec_reads_issued(), 0, "the reader had no hints");
    assert_eq!(
        stats.snapshot().fc_flushes - flushes,
        KEYS,
        "every hit sent its flush"
    );
    assert!(
        cache.pool().stats().faults().verb_failures > KEYS / 100,
        "the plan must fault"
    );
}

/// A hinted `Get` carries the FC flushes the client's last counted access
/// made due, unsignalled behind its slot READ and object READ.  At
/// `fc_threshold = 1` every hit makes one due, so nearly every hinted `Get`
/// carries one.  One verb in five fails, on one node and on two.  The
/// values are 4 KiB, so an object READ flies longer than an FAA: on two
/// nodes a rider to the node the READs do not go to completes before the
/// object READ does, and when it errors its completion is the first the
/// `Get` polls.  Every hit is the key's latest value (a `Get` whose lookup
/// ran out of fault budget misses), every completion is polled by the op
/// whose ring produced it, and a rider's never reaches the `Get`'s loop
/// (its `debug_assert` holds in debug builds).
#[test]
fn faulted_hinted_gets_carrying_fc_flushes_yield_the_latest_value() {
    const KEYS: u64 = 300;
    let value = |key: u64, round: u64| {
        let mut value = vec![round as u8; 4_096];
        value[..8].copy_from_slice(&key.to_le_bytes());
        value
    };
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 2);
    for seed in 0..seeds {
        for nodes in [1, 2] {
            let plan = FaultPlan::seeded(0xfc + seed).with_verb_fail_ppm(200_000);
            let config = DittoConfig {
                fc_threshold: 1,
                ..DittoConfig::with_capacity(2 * KEYS).with_object_size(4_096)
            };
            let dm = DmConfig::default()
                .with_memory_nodes(nodes)
                .with_fault_plan(plan)
                .with_flight_recorder(1 << 12);
            let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
            let injector = cache.pool().fault_injector();
            let mut client = cache.client();
            let (mut gets, mut carried, mut overtaking) = (0, 0, 0);
            for round in 0..3u64 {
                injector.set_armed(false);
                for i in 0..KEYS {
                    client.set(&i.to_le_bytes(), &value(i, round));
                }
                injector.set_armed(true);
                for i in 0..KEYS {
                    client.dm().clear_flight_recorder();
                    // A lookup out of fault budget degrades to a miss; a
                    // hit is never anything but the latest value.
                    if let Some(got) = client.get(&i.to_le_bytes()) {
                        let at = format!("seed {seed}, {nodes} nodes, round {round}, key {i}");
                        assert!(got == value(i, round), "{at}");
                    }
                    assert!(client.dm().poll_cq().is_none(), "seed {seed}, key {i}");
                    // The Get's first ring is its hinted one: the slot READ,
                    // the object READ, and riders beyond them.
                    let spans = client.dm().flight_spans();
                    let first = spans.iter().position(|s| s.phase == Phase::Post).unwrap();
                    let post = &spans[first];
                    let flight_end = |wr: u32| {
                        spans[first + 1..]
                            .iter()
                            .take_while(|s| s.phase != Phase::Post)
                            .find(|s| s.phase == Phase::Flight && s.detail == wr)
                            .map(|s| s.end_ns)
                    };
                    let slot_wr = spans[first + 1].detail;
                    let object_end = flight_end(slot_wr + 1);
                    let riders = slot_wr + 2..slot_wr + post.detail;
                    gets += 1;
                    carried += u64::from(post.detail > 2);
                    overtaking += u64::from(
                        riders
                            .filter_map(flight_end)
                            .any(|end| Some(end) < object_end),
                    );
                }
            }
            injector.set_armed(false);
            let stats = cache.stats();
            let at = format!("seed {seed}, {nodes} nodes");
            assert_eq!(
                stats.snapshot().misses,
                stats.gets_degraded(),
                "{at}: every miss is a degraded lookup"
            );
            assert!(
                carried * 10 > gets * 9,
                "{at}: {carried} of {gets} Gets carried a flush"
            );
            if nodes > 1 {
                assert!(
                    overtaking * 4 > gets,
                    "{at}: {overtaking} of {gets} riders landed first"
                );
            }
            assert!(
                cache.pool().stats().faults().verb_failures > gets / 10,
                "the plan must fault"
            );
        }
    }
}

/// Every verb a `Get` waits for is on the record: replayed with the flight
/// recorder armed, the ops' spans cover their whole elapsed time, and each
/// op's last span ends at the clock `end_op` read.  The pool is the one of
/// [`an_object_allocated_off_its_slots_node_is_never_cased_behind_its_write`]
/// — node 1 drained, every object on node 0, half the hinted slots on node
/// 1 — so the hinted `Get`s wait for a lone slot READ and then a lone object
/// READ; a second, hintless client's `Get`s read both buckets and then the
/// object.
#[test]
fn every_verb_a_get_waits_for_is_on_the_record() {
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(2_000),
        DmConfig::default()
            .with_memory_nodes(2)
            .with_flight_recorder(1 << 16),
    )
    .unwrap();
    let mut client = cache.client();
    cache.pool().drain_node(1).unwrap();
    for i in 0..400u64 {
        client.set(&i.to_le_bytes(), &i.to_be_bytes());
    }
    let hinted = cache.stats().spec_reads_issued();
    let mut stranger = cache.client();
    for reader in [&mut client, &mut stranger] {
        reader.dm().clear_flight_recorder();
        let mut ends = Vec::new();
        for i in 0..400u64 {
            assert_eq!(
                reader.get(&i.to_le_bytes()).as_deref(),
                Some(&i.to_be_bytes()[..])
            );
            ends.push((reader.dm().op_id(), reader.dm().now_ns()));
        }
        let spans = reader.dm().flight_spans();
        let table = attribution(&[(reader.dm().client_id(), spans.clone())]);
        assert_eq!(table.ops, 400);
        assert_eq!(table.critical_ns, table.elapsed_ns, "time no span covers");
        for (op, end) in ends {
            let last = spans.iter().filter(|s| s.op_id == op).map(|s| s.end_ns);
            assert_eq!(last.max(), Some(end), "op {op}");
        }
    }
    assert_eq!(
        cache.stats().spec_reads_issued() - hinted,
        400,
        "the writer's Gets were all hinted, the stranger's none"
    );
}

#[test]
fn faulted_hinted_sets_leave_every_value_current_and_nothing_leaked() {
    // One verb in five fails.  A failed WRITE flushes the CAS queued behind
    // it, a failed CAS was never applied: either way the hinted publish is
    // merely a misprediction and the Set goes the long way round, through
    // retried lookups, CASes and object WRITEs.
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 2);
    for seed in 0..seeds {
        let plan = FaultPlan::seeded(0x5e7 + seed).with_verb_fail_ppm(200_000);
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
        let stats = cache.stats();
        for round in 1..=3u64 {
            injector.set_armed(true);
            // A Set that returns `Err` is issued but not completed: its value
            // may or may not have landed, so only completed ones are checked.
            let completed: Vec<bool> = (0..300u64)
                .map(|i| {
                    client
                        .try_set(&i.to_le_bytes(), &(i + round * 1_000).to_be_bytes())
                        .is_ok()
                })
                .collect();
            injector.set_armed(false);
            for i in (0..300u64).filter(|&i| completed[i as usize]) {
                assert_eq!(
                    client.get(&i.to_le_bytes()).as_deref(),
                    Some(&(i + round * 1_000).to_be_bytes()[..]),
                    "seed {seed}, round {round}, key {i}"
                );
            }
            assert_no_orphans(&cache, &mut client, &format!("seed {seed}, round {round}"));
        }
        let (issued, wasted) = (stats.spec_publishes_issued(), stats.spec_publishes_wasted());
        // A mispredicted Set republishes through the lookup and leaves a
        // fresh hint, so every one of the 900 went in hinted; either of the
        // round's two verbs fails one time in five: ≈ 36 %.
        assert_eq!(issued, 900, "seed {seed}");
        assert!(
            wasted > issued / 4 && wasted < issued / 2,
            "seed {seed}: {wasted} of {issued}"
        );
    }
}

/// A fill under memory pressure right after its key's miss: the `Set`
/// publishes from what the miss read of the buckets in one round of five
/// verbs — the object WRITE, the insert CAS behind it, the victim CAS of
/// the eviction the previous fill parked, its own eviction's sample READ and
/// history-id FAA — or, its insert slot off its object's node, by the WRITE
/// beside the READ and the FAA, then the CASes.  Any of them may fail here —
/// one verb in five, and an errored WRITE flushes what its node has queued
/// behind it — and the fill then reads the buckets like any other `Set`,
/// its carried victim settled first.  Skewed cache-aside over two thousand
/// keys at capacity 300, on one node and on two: every hit and every re-read
/// returns the last completed value, and no byte leaks.
#[test]
fn faulted_fills_after_misses_leave_every_value_current_and_nothing_leaked() {
    const KEYS: u64 = 2_000;
    let value = |key: u64, round: u64| {
        let mut value = format!("key {key} round {round}").into_bytes();
        value.resize(200, b'.');
        value
    };
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 2);
    for seed in 0..seeds {
        let nodes = 1 + (seed % 2) as u16;
        let plan = FaultPlan::seeded(0xf111 + seed).with_verb_fail_ppm(200_000);
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(300),
            DmConfig::default()
                .with_memory_nodes(nodes)
                .with_fault_plan(plan),
        )
        .unwrap();
        let injector = cache.pool().fault_injector();
        injector.set_armed(false);
        let mut client = cache.client();
        // The last completed value of each key; `None` once a `Set` of it
        // returned `Err`, which may or may not have landed.
        let mut latest: Vec<Option<Vec<u8>>> = (0..KEYS)
            .map(|key| {
                client.set(&key.to_le_bytes(), &value(key, 0));
                Some(value(key, 0))
            })
            .collect();
        let stats = cache.stats();
        let (misses, overlapped) = (stats.snapshot().misses, stats.evictions_overlapped());
        for round in 1..=3u64 {
            let context = format!("seed {seed}, {nodes} node(s), round {round}");
            injector.set_armed(true);
            for i in 0..KEYS {
                // Skewed towards low keys, so some of them hit.
                let u = splitmix(seed << 32 | round << 16 | i) as f64 / u64::MAX as f64;
                let key = (u * u * KEYS as f64) as u64;
                if let Some(hit) = client.get(&key.to_le_bytes()) {
                    if let Some(expected) = &latest[key as usize] {
                        assert_eq!(&hit, expected, "{context}, key {key}");
                    }
                    continue;
                }
                let filled = client.try_set(&key.to_le_bytes(), &value(key, round));
                latest[key as usize] = filled.is_ok().then(|| value(key, round));
            }
            injector.set_armed(false);
            for key in 0..KEYS {
                if let (Some(read), Some(expected)) =
                    (client.get(&key.to_le_bytes()), &latest[key as usize])
                {
                    assert_eq!(&read, expected, "{context}, key {key}");
                }
            }
            assert_no_orphans(&cache, &mut client, &context);
        }
        // The rounds filled under pressure, their evictions running ahead.
        assert!(stats.snapshot().misses - misses > 4_000, "seed {seed}");
        assert!(
            stats.evictions_overlapped() - overlapped > 1_500,
            "seed {seed}"
        );
    }
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

#[test]
fn an_update_leaves_its_extension_words_in_the_live_object() {
    let config = DittoConfig::with_capacity(1_000).with_experts(vec!["lru", "lfuda"]);
    let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
    let mut client = cache.client();
    client.set(b"probe", b"value");
    assert_eq!(ext_words_of(&cache, b"probe"), [0; EXT_WORDS]);
    // The update's rule runs over the displaced slot's metadata, but what it
    // computes belongs to the object the slot names from now on — not to
    // the one about to be freed.
    client.set(b"probe", b"newer");
    assert_eq!(client.get(b"probe").as_deref(), Some(&b"newer"[..]));
    assert_ne!(ext_words_of(&cache, b"probe"), [0; EXT_WORDS]);
    // Extension experts need the decoded slot: such a Set is never blind.
    assert_eq!(cache.stats().spec_publishes_issued(), 0);
}

/// Loading a cache to its capacity through one client and then reading each
/// key once must find nearly every key hinted.  With one choice of set, the
/// load displaced the earlier keys' hints from every set that drew more than
/// four keys, and the scan's own notes then thrashed those sets' LRU order:
/// 36 323 of its 100 000 `Get`s read both buckets.  With two choices a key
/// spills into its alternate set, only a key whose sets are both full loses
/// its hint, and 1 133 do.
#[test]
fn a_scan_of_a_cache_loaded_to_capacity_finds_nearly_every_key_hinted() {
    let records = 100_000;
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(records), DmConfig::default())
            .unwrap();
    let mut client = cache.client();
    for i in 0..records {
        client.set(&i.to_le_bytes(), b"v");
    }
    let stats = cache.stats();
    let before = stats.spec_reads_issued();
    for i in 0..records {
        assert!(client.get(&i.to_le_bytes()).is_some(), "key {i}");
    }
    let hinted = stats.spec_reads_issued() - before;
    assert!(hinted >= 98_000, "{hinted} of {records} Gets hinted");
    assert_eq!(stats.spec_reads_wasted(), 0);
}
