//! The one-round-trip `Get`: a hinted lookup posts its object READ
//! speculatively behind the two bucket READs.  The speculation may only ever
//! buy latency — same values, same cache evolution, same messages as the
//! synchronous-batch mode, which never speculates — and a hint that went
//! stale, points off its bucket's node or whose READ faults must cost at
//! most the one discarded READ, never a wrong value or a lost hit.

use ditto::cache::stats::CacheStatsSnapshot;
use ditto::cache::{DittoCache, DittoConfig};
use ditto::dm::{DmConfig, FaultPlan};
use ditto::workloads::{Op, YcsbSpec, YcsbWorkload};

/// What one seeded single-client run observed.
#[derive(Debug, PartialEq)]
struct Observed {
    gets: Vec<Option<Vec<u8>>>,
    stats: CacheStatsSnapshot,
    /// READs, WRITEs, CASes and FAAs the memory node served.
    verbs: (u64, u64, u64, u64),
}

/// Replays a seeded YCSB trace cache-aside and returns what it observed plus
/// the speculative READs issued and wasted.
fn replay(mix: YcsbWorkload, capacity: u64, async_completion: bool) -> (Observed, u64, u64) {
    let spec = YcsbSpec {
        record_count: 2_000,
        request_count: 12_000,
        ..YcsbSpec::default()
    }
    .with_seed(23);
    let config = DittoConfig::with_capacity(capacity).with_async_completion(async_completion);
    let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
    let mut client = cache.client();
    let mut gets = Vec::new();
    let mut value_buf = Vec::new();
    for (i, request) in spec.run_requests(mix).into_iter().enumerate() {
        let key = request.key_bytes();
        let value = vec![(request.key as u8) ^ (i as u8); request.value_size as usize];
        match request.op {
            Op::Get if client.get_into(&key, &mut value_buf) => {
                gets.push(Some(value_buf.clone()));
            }
            Op::Get => {
                gets.push(None);
                client.set(&key, &value);
            }
            Op::Update | Op::Insert => client.set(&key, &value),
        }
    }
    client.flush();
    let node = cache.pool().stats().node_snapshots()[0];
    let observed = Observed {
        gets,
        stats: cache.stats().snapshot(),
        verbs: (node.reads, node.writes, node.cas, node.faa),
    };
    let stats = cache.stats();
    (
        observed,
        stats.spec_reads_issued(),
        stats.spec_reads_wasted(),
    )
}

#[test]
fn single_client_speculation_never_misses_and_changes_nothing_but_latency() {
    // YCSB-C under eviction pressure (capacity a third of the records), then
    // YCSB-A with room for every record.
    for (mix, capacity) in [(YcsbWorkload::C, 700), (YcsbWorkload::A, 3_000)] {
        let (pipelined, issued, wasted) = replay(mix, capacity, true);
        let (batched, sync_issued, _) = replay(mix, capacity, false);
        assert!(pipelined.stats.hits > 1_000, "{mix:?}: the trace must hit");
        if capacity < 2_000 {
            assert!(pipelined.stats.evictions > 500, "{mix:?}: and evict");
        }
        // A single client learns of every slot-word change at the CAS that
        // makes it, so its hints are never stale…
        assert_eq!(wasted, 0, "{mix:?}");
        // …and most hits are hinted.
        assert!(
            issued * 2 > pipelined.stats.hits,
            "{mix:?}: only {issued} of {} hits speculated",
            pipelined.stats.hits
        );
        assert_eq!(sync_issued, 0, "the serial modes never speculate");
        assert_eq!(pipelined, batched, "{mix:?}");
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
    assert_eq!(stats.spec_reads_wasted(), 0);
}

#[test]
fn an_object_off_its_buckets_node_takes_no_speculation() {
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

    let stats = cache.stats();
    let (mut off_node, mut on_node, mut on_node_speculated) = (0, 0, 0);
    for i in 0..400u64 {
        cache.pool().reset_stats();
        let issued = stats.spec_reads_issued();
        assert_eq!(
            client.get(&i.to_le_bytes()).as_deref(),
            Some(&i.to_be_bytes()[..])
        );
        let speculated = stats.spec_reads_issued() - issued;
        // Only bucket READs reach node 1, so they tell where the key's two
        // buckets — and therefore its slot — live.
        match cache.pool().stats().node_snapshots()[1].reads {
            // The Set left a hint, but a READ on node 0's queue pair is not
            // ordered behind the node-1 bucket READ that must vouch for it.
            2 => {
                off_node += 1;
                assert_eq!(speculated, 0, "key {i}");
            }
            0 => {
                on_node += 1;
                on_node_speculated += speculated;
            }
            _ => {}
        }
    }
    assert!(off_node > 50 && on_node > 50, "{off_node} / {on_node}");
    // (A later Set bumping a shared board slot, or a key colliding in the
    // direct-mapped table, costs a hint now and then — never more than that.)
    assert!(
        on_node_speculated * 10 >= on_node * 8,
        "{on_node_speculated} / {on_node}"
    );
    assert_eq!(stats.spec_reads_wasted(), 0);
}

#[test]
fn a_faulted_speculative_read_still_yields_the_hit() {
    // One verb in five fails.  Bucket READs and the fallback object READ
    // are retried; a failed *speculative* READ is simply a misprediction —
    // as is one whose round was redone for a failed bucket READ.
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
    assert!(issued >= 250, "the Sets left hints: {issued}");
    assert!(
        wasted > issued / 5 && wasted < issued,
        "a fault on any of a round's three READs costs the speculation: {wasted} of {issued}"
    );
}
