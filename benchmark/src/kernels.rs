//! Host-time kernels: small loops over single public functions of each
//! layer, timed in chunks and reported as medians.  They are
//! traffic-independent — inputs are synthetic and seeded — except
//! `evict_once`, which needs the scenario's populated cache.  They call only
//! functions the ROADMAP does not plan to reshape.

use crate::metrics::{Values, KERNELS};
use crate::stats::quartiles;
use crate::workloads::{Scenario, KEY_BYTES, VALUE_BYTES};
use ditto_core::hashtable::SampleFriendlyHashTable;
use ditto_core::slot::{AtomicField, Slot, SLOTS_PER_BUCKET};
use ditto_core::{object, simulate_hit_rate, FcCache, SimConfig};
use ditto_dm::{DmConfig, LatencyHistogram, MemoryPool, Phase, RemoteAddr};
use ditto_workloads::Zipfian;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Timed chunks per kernel.
const CHUNKS: usize = 31;

/// Requests the process-local simulator replays per timed call.
const SIM_REQUESTS: usize = 4_096;

/// Times `CHUNKS` chunks of `calls` calls to `f` (after one untimed warm-up
/// chunk) and returns the host nanoseconds per unit of work of each chunk,
/// one call doing `work_per_call` units.
fn time_chunks(calls: usize, work_per_call: usize, mut f: impl FnMut(u64)) -> Vec<f64> {
    let mut counter = 0u64;
    let mut run_chunk = |f: &mut dyn FnMut(u64)| {
        let started = Instant::now();
        for _ in 0..calls {
            f(counter);
            counter += 1;
        }
        started.elapsed().as_nanos() as f64 / (calls * work_per_call) as f64
    };
    run_chunk(&mut f);
    (0..CHUNKS).map(|_| run_chunk(&mut f)).collect()
}

/// Runs every kernel once and returns its median with quartiles.
pub fn run(scenario: &mut Scenario, seed: u64) -> Values {
    let mut values = Values::default();
    let mut report = |name: &str, mut ns: Vec<f64>| {
        assert!(KERNELS.contains(&name), "unlisted kernel {name}");
        values.set_median(name, quartiles(&mut ns), CHUNKS as u64);
    };

    let zipf = Zipfian::new(100_000, 0.99);
    let mut rng = StdRng::seed_from_u64(seed);
    report(
        "workloads.zipf.host_ns_per_sample",
        time_chunks(4_096, 1, |_| {
            black_box(zipf.sample_scrambled(&mut rng));
        }),
    );

    report(
        "core.hash.hash_key.host_ns",
        time_chunks(8_192, 1, |i| {
            let key: [u8; KEY_BYTES] = i.to_le_bytes();
            black_box(SampleFriendlyHashTable::hash_key(black_box(&key)));
        }),
    );

    let bucket_addr = RemoteAddr::new(0, 4_096);
    let bucket: Vec<u8> = (0..SLOTS_PER_BUCKET as u64)
        .flat_map(|i| {
            Slot {
                atomic: AtomicField::for_object(
                    i as u8,
                    5,
                    RemoteAddr::new(0, 64 * (i + seed % 97)),
                ),
                hash: i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed,
                insert_ts: 1_000 + i,
                last_ts: 2_000 + i,
                freq: i,
            }
            .to_bytes()
        })
        .collect();
    let mut slots: Vec<(RemoteAddr, Slot)> = Vec::with_capacity(SLOTS_PER_BUCKET);
    report(
        "core.hashtable.decode_slots.host_ns",
        time_chunks(4_096, 1, |_| {
            slots.clear();
            SampleFriendlyHashTable::decode_slots(bucket_addr, black_box(&bucket), &mut slots);
            black_box(&slots);
        }),
    );

    let mut value = Vec::new();
    crate::workloads::Oracle::fill(&mut value, seed, 0);
    assert_eq!(value.len(), VALUE_BYTES);
    let mut encoded = Vec::new();
    report(
        "core.object.encode_into.host_ns",
        time_chunks(2_048, 1, |i| {
            let key: [u8; KEY_BYTES] = i.to_le_bytes();
            object::encode_into(
                &key,
                black_box(&value),
                false,
                &Default::default(),
                &mut encoded,
            );
            black_box(&encoded);
        }),
    );
    report(
        "core.object.view.host_ns",
        time_chunks(2_048, 1, |_| {
            black_box(object::view(black_box(&encoded)));
        }),
    );

    let mut fc = FcCache::new(10, 312_500);
    report(
        "core.fc_cache.record.host_ns",
        time_chunks(4_096, 1, |i| {
            black_box(fc.record(RemoteAddr::new(0, (i % 4_096) * 40 + 32)));
        }),
    );

    let client = &mut scenario.clients[0];
    report(
        "core.client.evict_once.host_ns",
        time_chunks(32, 1, |_| {
            black_box(client.evict_once());
        }),
    );

    let replayed = &scenario.trace[..SIM_REQUESTS.min(scenario.trace.len())];
    report(
        "core.sim.host_ns_per_request",
        time_chunks(1, replayed.len(), |_| {
            black_box(
                simulate_hit_rate(replayed, SimConfig::adaptive(1_024)).expect("lru+lfu exist"),
            );
        }),
    );

    // The verb kernels run on a pool of their own: the scenario's dedicated
    // pool may be full, and verbs cost the host the same on any pool.
    let pool = MemoryPool::new(DmConfig::small().with_flight_recorder(4_096));
    let addr = pool.reserve(128).expect("fresh pool has room");
    let dm = pool.connect();
    let (mut first, mut second) = ([0u8; 64], [0u8; 64]);
    report(
        "dm.wqe.post2_ring_poll2.host_ns",
        time_chunks(2_048, 1, |_| {
            let mut wq = dm.work_queue();
            wq.post_read(addr, &mut first, true);
            wq.post_read(addr.add(64), &mut second, true);
            wq.ring();
            drop(wq);
            black_box((dm.poll_cq(), dm.poll_cq()));
        }),
    );
    report(
        "dm.client.read_into_64b.host_ns",
        time_chunks(4_096, 1, |_| {
            dm.read_into(addr, &mut first);
            black_box(&first);
        }),
    );
    dm.write_u64(addr, 0);
    let mut current = 0u64;
    report(
        "dm.client.cas.host_ns",
        time_chunks(4_096, 1, |_| {
            black_box(dm.cas(addr, current, current + 1));
            current += 1;
        }),
    );
    report(
        "dm.client.faa.host_ns",
        time_chunks(4_096, 1, |_| {
            black_box(dm.faa(addr, 1));
        }),
    );
    dm.begin_op();
    report(
        "dm.obs.record_span.host_ns",
        time_chunks(8_192, 1, |i| {
            dm.record_span(Phase::Decode, i, i + 20, 0);
        }),
    );

    let histogram = LatencyHistogram::new();
    report(
        "dm.histogram.record.host_ns",
        time_chunks(8_192, 1, |i| {
            histogram.record(black_box(2_000 + (i % 4_096) * 7));
        }),
    );
    values
}
