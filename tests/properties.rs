//! Property-based tests over the core data structures and invariants.
//!
//! The crates.io `proptest` dependency is unavailable offline, so these are
//! hand-rolled randomized properties: each test draws a few hundred random
//! cases from a seeded [`StdRng`] and asserts the invariant for every case.
//! Failures print the offending inputs, so a reproduction is one seed away.

use ditto::algorithms::{registry, AccessContext, Metadata};
use ditto::cache::fc_cache::FcCache;
use ditto::cache::slot::{AtomicField, Slot, SLOT_SIZE};
use ditto::cache::AdaptivePolicy;
use ditto::dm::{DmConfig, MemoryNode, MemoryPool, RemoteAddr};
use ditto::workloads::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

fn rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(0x9e37_79b9 ^ salt)
}

/// Packing a remote address and unpacking it is the identity.
#[test]
fn remote_addr_pack_roundtrip() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let mn: u16 = rng.gen();
        let offset = rng.gen_range(0..(1u64 << 48));
        let addr = RemoteAddr::new(mn, offset);
        assert_eq!(
            RemoteAddr::unpack(addr.pack()),
            addr,
            "mn={mn} offset={offset}"
        );
    }
}

/// The packed `RemoteAddr` and the slot pointer round-trip **every**
/// memory-node id their encodings admit, and reject the rest with typed
/// errors instead of panics.
#[test]
fn pointers_roundtrip_every_admissible_mn_id() {
    let mut rng = rng(11);
    // RemoteAddr packs a full 16-bit node id: exhaustive over all 65536.
    for mn in 0..=u16::MAX {
        let offset = rng.gen_range(0..(1u64 << 48));
        let addr = RemoteAddr::try_new(mn, offset).expect("offset fits 48 bits");
        assert_eq!(RemoteAddr::unpack(addr.pack()), addr, "mn={mn}");
    }
    // The slot pointer keeps 8 bits of node id: exhaustive over 0..256.
    for mn in 0..256u16 {
        let offset = rng.gen_range(0..(1u64 << 40)) & !63;
        let field = AtomicField::try_for_object(rng.gen(), 1, RemoteAddr::new(mn, offset))
            .expect("mn_id < 256 must be encodable");
        let decoded = AtomicField::decode(field.encode());
        assert_eq!(
            decoded.object_addr(),
            RemoteAddr::new(mn, offset),
            "mn={mn}"
        );
    }
    // Everything beyond is a typed error, not a panic.
    use ditto::cache::error::CacheError;
    use ditto::dm::DmError;
    for _ in 0..CASES {
        let mn = rng.gen_range(256..=u16::MAX as u64) as u16;
        let offset = rng.gen_range(0..(1u64 << 40));
        assert_eq!(
            AtomicField::try_for_object(0, 1, RemoteAddr::new(mn, offset)),
            Err(CacheError::PointerOverflow { mn_id: mn, offset })
        );
        let bad_offset = (1u64 << 48) | rng.gen::<u64>();
        assert!(matches!(
            RemoteAddr::try_new(mn, bad_offset),
            Err(DmError::AddressOverflow { .. })
        ));
        let slot_bad_offset = rng.gen_range((1u64 << 40)..(1u64 << 48));
        assert!(matches!(
            AtomicField::try_for_object(0, 1, RemoteAddr::new(0, slot_bad_offset)),
            Err(CacheError::PointerOverflow { .. })
        ));
    }
}

/// The slot atomic field survives encode/decode for every valid input.
#[test]
fn atomic_field_roundtrip() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let fp: u8 = rng.gen();
        let size_class = rng.gen_range(1u64..=254) as u8;
        let mn = rng.gen_range(0u64..256) as u16;
        let offset = rng.gen_range(0..(1u64 << 40)) & !63;
        let field = AtomicField::for_object(fp, size_class, RemoteAddr::new(mn, offset));
        let decoded = AtomicField::decode(field.encode());
        assert_eq!(decoded, field);
        assert!(decoded.is_object());
        assert_eq!(decoded.object_addr(), RemoteAddr::new(mn, offset));
    }
}

/// Whole slots survive the 40-byte wire encoding.
#[test]
fn slot_bytes_roundtrip() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let slot = Slot {
            atomic: AtomicField::for_object(
                rng.gen(),
                rng.gen_range(1u64..=254) as u8,
                RemoteAddr::new(0, rng.gen_range(64u64..(1 << 30)) & !63),
            ),
            hash: rng.gen(),
            insert_ts: rng.gen(),
            last_ts: rng.gen(),
            freq: rng.gen(),
        };
        let bytes = slot.to_bytes();
        assert_eq!(bytes.len(), SLOT_SIZE);
        assert_eq!(Slot::from_bytes(&bytes), slot);
    }
}

/// Arbitrary writes to the memory node read back unchanged.
#[test]
fn memory_node_write_read_roundtrip() {
    let mut rng = rng(4);
    let node = MemoryNode::new(0, 64 * 1024);
    for _ in 0..CASES {
        let offset = rng.gen_range(0u64..60_000);
        let len = rng.gen_range(1usize..512);
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        node.write(offset, &data).unwrap();
        assert_eq!(
            node.read(offset, len).unwrap(),
            data,
            "offset={offset} len={len}"
        );
    }
}

/// The frequency-counter cache never loses or invents increments.
#[test]
fn fc_cache_conserves_increments() {
    let mut rng = rng(5);
    for case in 0..64 {
        let threshold = rng.gen_range(1u64..20);
        let capacity = rng.gen_range(1usize..32);
        let accesses = rng.gen_range(1usize..2_000);
        let mut fc = FcCache::new(threshold, capacity);
        let mut flushed = 0u64;
        for _ in 0..accesses {
            let slot = rng.gen_range(0u64..50);
            for (_, delta) in fc.record(RemoteAddr::new(0, 64 + slot * 40)) {
                flushed += delta;
            }
        }
        for (_, delta) in fc.flush_all() {
            flushed += delta;
        }
        assert_eq!(
            flushed, accesses as u64,
            "case {case}: threshold={threshold} capacity={capacity}"
        );
    }
}

/// Expert weights always form a probability distribution, whatever the
/// regret sequence.
#[test]
fn expert_weights_stay_normalised() {
    let mut rng = rng(6);
    for _ in 0..64 {
        let num_experts = rng.gen_range(2usize..6);
        let names = vec!["lru".to_string(); num_experts];
        let mut policy = AdaptivePolicy::from_names(&names, 5_000, 10).unwrap();
        for _ in 0..rng.gen_range(0usize..900) {
            let bitmap: u64 = rng.gen();
            let position = rng.gen_range(0u64..10_000);
            policy.regret(bitmap, position);
            let sum: f64 = policy.weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "weights sum to {sum}");
            assert!(policy.weights().iter().all(|w| *w > 0.0 && w.is_finite()));
        }
    }
}

/// Zipfian samples always fall inside the key space.
#[test]
fn zipfian_samples_in_range() {
    let mut rng = rng(7);
    for _ in 0..64 {
        let n = rng.gen_range(1u64..100_000);
        let zipf = Zipfian::ycsb(n);
        let mut sample_rng = StdRng::seed_from_u64(rng.gen());
        for _ in 0..100 {
            assert!(zipf.sample(&mut sample_rng) < n, "n={n}");
            assert!(zipf.sample_scrambled(&mut sample_rng) < n, "n={n}");
        }
    }
}

/// Every built-in algorithm produces a total, deterministic ordering for
/// arbitrary metadata (no NaNs sneak into priorities).
#[test]
fn algorithm_priorities_are_deterministic() {
    let mut rng = rng(8);
    for _ in 0..CASES {
        let insert_ts = rng.gen_range(0u64..1_000_000);
        let extra_accesses = rng.gen_range(0u64..50);
        let size = rng.gen_range(1u64..100_000) as u32;
        let now_delta = rng.gen_range(0u64..1_000_000);
        for alg in registry::all_algorithms() {
            let ctx = AccessContext::at(insert_ts);
            let mut m = Metadata::on_insert(insert_ts, size, &ctx);
            alg.update(&mut m, &ctx);
            for i in 0..extra_accesses {
                let ctx = AccessContext::at(insert_ts + i + 1);
                m.record_access(&ctx);
                alg.update(&mut m, &ctx);
            }
            let now = insert_ts + extra_accesses + now_delta;
            let a = alg.priority(&m, now);
            let b = alg.priority(&m, now);
            assert!(!a.is_nan(), "{} produced NaN", alg.name());
            assert!(a == b, "{} is non-deterministic", alg.name());
        }
    }
}

/// Concurrent-looking sequences of FAA on the pool are linearisable to a
/// plain sum (the substrate's atomics are real atomics).
#[test]
fn pool_faa_accumulates() {
    let mut rng = rng(9);
    for _ in 0..32 {
        let pool = MemoryPool::new(DmConfig::small());
        let addr = pool.reserve(8).unwrap();
        let client = pool.connect();
        let mut expected = 0u64;
        for _ in 0..rng.gen_range(1usize..100) {
            let d = rng.gen_range(1u64..100);
            client.faa(addr, d);
            expected += d;
        }
        assert_eq!(client.read_u64(addr), expected);
    }
}

/// The Ditto cache never returns a value that was not stored under the
/// requested key, for arbitrary small workloads.
#[test]
fn ditto_never_returns_wrong_values() {
    use ditto::cache::{DittoCache, DittoConfig};
    use std::collections::HashMap;
    let mut rng = rng(10);
    for case in 0..16 {
        let cache =
            DittoCache::with_dedicated_pool(DittoConfig::with_capacity(100), DmConfig::default())
                .unwrap();
        let mut client = cache.client();
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
        for _ in 0..rng.gen_range(1usize..400) {
            let key = rng.gen_range(0u64..200);
            let key_bytes = format!("key{key}");
            if rng.gen::<f64>() < 0.5 {
                let value = format!("value-{key}");
                client.set(key_bytes.as_bytes(), value.as_bytes());
                expected.insert(key, value.into_bytes());
            } else if let Some(value) = client.get(key_bytes.as_bytes()) {
                // A hit must return exactly what was last stored (misses are
                // always allowed — the cache may have evicted the key).
                assert_eq!(
                    Some(&value),
                    expected.get(&key),
                    "case {case}: wrong value for key{key}"
                );
            }
        }
    }
}
