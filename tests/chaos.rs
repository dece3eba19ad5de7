//! Chaos harness: the linearizability checker and the migration drain run
//! again — this time under seeded fault plans and enumerated client crash
//! points.
//!
//! # Gate
//!
//! * **No lost acknowledged write.**  Every `Get` that hits must decode to
//!   a version at least the completed floor, checked by the checker
//!   `tests/concurrent.rs` runs (`tests/support`) — injected verb faults
//!   may degrade operations (a Get to a miss, a Set to an invalidation or
//!   a `SetDropped` error) but never roll a key back.  A Set that returned
//!   `Err` counts as issued but not completed: its value may or may not
//!   have landed.
//! * **No permanently wedged bucket.**  After the faulted window is
//!   disarmed, every key can be re-set and re-read cleanly and migration
//!   plans drain to completion.
//! * **Zero orphaned bytes after recovery.**  Each memory node's resident
//!   gauge equals a forensic scan of slot-referenced bytes once crashed
//!   clients are recovered ([`DittoClient::recover_crashed_client`]).
//!
//! # Determinism
//!
//! Fault plans are seeded ([`FaultPlan::seeded`]): per-client fault
//! streams are a pure function of (seed, client id, verb sequence), so a
//! failing seed replays bit-identically.  The harness follows the
//! armed/disarmed discipline the injector documents: disarmed for setup,
//! armed for the measured window, disarmed again for exact verification.
//! Seeds scale up via `DITTO_CHAOS_SEEDS` (used by the CI chaos job, which
//! prints the failing seed).
//!
//! [`DittoClient::recover_crashed_client`]: ditto::cache::DittoClient::recover_crashed_client
//! [`FaultPlan::seeded`]: ditto::dm::FaultPlan::seeded

mod support;

use ditto::cache::recovery::CrashPoint;
use ditto::cache::{DittoCache, DittoClient, DittoConfig};
use ditto::dm::obs::with_event_postmortem;
use ditto::dm::{DmConfig, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use support::{
    assert_no_orphans, checker_pass, decode_version, encode_value, env_u64, make_keys, make_states,
    set_next, splitmix, KeyState, KEYS,
};

/// Preloads every key once from a fresh client.
fn preload(cache: &DittoCache, keys: &[Vec<u8>], states: &[KeyState]) {
    let mut client = cache.client();
    for (k, key) in keys.iter().enumerate() {
        set_next(&mut client, key, k, &states[k]);
    }
}

/// A mixed fault plan for the measured window: error completions, timeouts
/// and a transient slow NIC, all drawn from `seed`.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_verb_fail_ppm(8_000) // 0.8 %
        .with_verb_timeouts(4_000, 20_000) // 0.4 %, 20 µs retransmission window
        .with_slow_nic(0, 500_000, 3_000_000, 300)
}

/// Tentpole: the full linearizability checker under randomized transient
/// verb faults.  After disarming, no key is wedged and nothing leaked.
#[test]
fn chaos_transient_faults_linearize() {
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 2);
    let threads = env_u64("DITTO_STRESS_THREADS", 8) as usize;
    let ops = env_u64("DITTO_STRESS_OPS", 2_000) as usize;
    let keys = make_keys("xk");
    for round in 0..seeds {
        let seed = 0xC805_0000 + round;
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(KEYS as u64 * 3 / 4).with_crash_recovery_journal(true),
            DmConfig::default().with_fault_plan(chaos_plan(seed)),
        )
        .unwrap();
        let injector = cache.pool().fault_injector();

        // Disarmed setup, armed measured window, disarmed verification.
        injector.set_armed(false);
        let states = make_states();
        preload(&cache, &keys, &states);
        injector.set_armed(true);
        with_event_postmortem(cache.pool(), 32, || {
            checker_pass(&cache, &keys, &states, seed, threads, ops);
        });
        injector.set_armed(false);

        // The plan must actually have fired, and the retry layer must have
        // absorbed faults rather than letting them surface as panics.
        let faults = cache.pool().stats().faults();
        assert!(
            faults.verb_failures > 0,
            "seed {seed}: no verb faults fired"
        );
        assert!(
            faults.verb_timeouts > 0,
            "seed {seed}: no verb timeouts fired"
        );
        assert!(faults.verb_retries > 0, "seed {seed}: nothing was retried");

        // No wedged bucket: with faults disarmed every key takes a clean
        // Set and reads back exactly, whatever the faulted window left.
        let mut client = cache.client();
        for (k, key) in keys.iter().enumerate() {
            let v = states[k].issued.fetch_add(1, Ordering::SeqCst) + 1;
            client.set(key, &encode_value(k as u64, v));
            let bytes = client
                .get(key)
                .unwrap_or_else(|| panic!("seed {seed}: key {k} wedged — clean set not readable"));
            assert!(
                decode_version(k as u64, &bytes) >= v,
                "seed {seed}: key {k} stale"
            );
        }
        assert_no_orphans(&cache, &mut cache.client(), &format!("seed {seed}"));
    }
}

/// Tentpole: the migration-under-traffic drain holds under an armed fault
/// plan — the plan completes (no wedged stripe), the drained node empties,
/// and every surviving key still linearizes.
#[test]
fn chaos_migration_drain_survives_faults() {
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 1);
    let threads = (env_u64("DITTO_STRESS_THREADS", 8).max(2) as usize) - 1;
    let ops = env_u64("DITTO_STRESS_OPS", 2_000) as usize;
    let keys = make_keys("xk");
    for round in 0..seeds {
        let seed = 0x319A_0000 + round;
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(2_000).with_crash_recovery_journal(true),
            DmConfig::default()
                .with_memory_nodes(2)
                .with_fault_plan(chaos_plan(seed)),
        )
        .unwrap();
        let injector = cache.pool().fault_injector();
        injector.set_armed(false);
        let states = make_states();
        preload(&cache, &keys, &states);
        assert!(
            cache.pool().resident_object_bytes(1) > 0,
            "node 1 must hold objects"
        );

        cache.pool().drain_node(1).unwrap();
        injector.set_armed(true);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let pump = s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    cache.pump_migration();
                    std::thread::yield_now();
                }
            });
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_event_postmortem(cache.pool(), 32, || {
                    checker_pass(&cache, &keys, &states, seed, threads, ops);
                });
            }));
            stop.store(true, Ordering::SeqCst);
            pump.join().unwrap();
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        });
        injector.set_armed(false);

        // Quiesced and disarmed, the drain must reach *zero* residual bytes
        // (faulted relocations are retried by later pumps).
        for _ in 0..100 {
            if cache.pool().resident_object_bytes(1) == 0 {
                break;
            }
            cache.pump_migration();
        }
        assert_eq!(
            cache.pool().resident_object_bytes(1),
            0,
            "seed {seed}: drained node did not empty under faults"
        );
        assert!(
            cache.migration().is_idle(),
            "seed {seed}: migration plan wedged"
        );
        assert_no_orphans(&cache, &mut cache.client(), &format!("seed {seed}"));

        // Post-drain sweep: survivors still linearize.
        let mut client = cache.client();
        for (k, key) in keys.iter().enumerate() {
            let floor = states[k].completed.load(Ordering::SeqCst);
            if let Some(bytes) = client.get(key) {
                let v = decode_version(k as u64, &bytes);
                assert!(v >= floor, "seed {seed}: key {k} stale read {v} < {floor}");
            }
        }
    }
}

/// Tentpole: every enumerated crash point leaves debris that
/// `recover_crashed_client` fully reclaims — journal replayed, gauge
/// reconciled to the forensic scan, recovery idempotent.
#[test]
fn chaos_crash_points_recover_cleanly() {
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 1);
    let keys = make_keys("xk");
    let points = [
        CrashPoint::AfterAlloc,
        CrashPoint::AfterObjectWrite,
        CrashPoint::AfterPublish,
    ];
    for round in 0..seeds {
        for point in points {
            let seed = 0xDEAD_0000 + round;
            // Generous capacity: the crash anatomy is the subject here, not
            // eviction pressure (that is
            // `chaos_crash_points_recover_cleanly_under_memory_pressure`).
            let cache = DittoCache::with_dedicated_pool(
                DittoConfig::with_capacity(KEYS as u64 * 4).with_crash_recovery_journal(true),
                DmConfig::default().with_fault_plan(chaos_plan(seed)),
            )
            .unwrap();
            let injector = cache.pool().fault_injector();
            injector.set_armed(false);
            let states = make_states();
            preload(&cache, &keys, &states);

            // The victim does some ordinary traffic (armed — transient
            // faults and the crash compose), then dies mid-`set` of an
            // *existing* key so every crash point has a displaced old
            // value in play.
            let mut victim = cache.client();
            let victim_id = victim.dm().client_id();
            injector.set_armed(true);
            for (k, key) in keys.iter().enumerate().take(8) {
                set_next(&mut victim, key, k, &states[k]);
            }
            victim.arm_set_crash(point);
            let crash_key = 13usize;
            let v = states[crash_key].issued.fetch_add(1, Ordering::SeqCst) + 1;
            victim.set(&keys[crash_key], &encode_value(crash_key as u64, v));
            assert!(victim.crashed(), "{point:?}: armed crash did not fire");
            injector.set_armed(false);
            drop(victim);

            // Recovery from a survivor: replay the journal, reconcile the
            // gauge, sweep the orphaned segment space.
            let mut rescuer = cache.client();
            let report = rescuer.recover_crashed_client(victim_id);
            assert_eq!(
                report.journal_entries_replayed, 1,
                "{point:?}: journal entry not replayed"
            );
            assert!(
                report.recovered_bytes > 0,
                "{point:?}: no orphaned allocation was charged back"
            );
            assert!(
                report.swept_bytes >= report.recovered_bytes,
                "{point:?}: sweep missed the journalled orphan \
                 (swept {}, recovered {})",
                report.swept_bytes,
                report.recovered_bytes
            );
            assert!(report.leaked_bytes() > 0, "{point:?}: nothing was leaked?");
            let faults = cache.pool().stats().faults();
            assert_eq!(
                faults.recovered_objects, 1,
                "{point:?}: recovery stat missing"
            );

            // Zero orphans: the gauge agrees with the forensic scan again.
            assert_no_orphans(&cache, &mut cache.client(), &format!("{point:?}"));

            // The crashed Set never returned to its caller, so either the
            // old or the new version is linearizable — but the value must
            // decode cleanly and a fresh Set must land.
            let mut client = cache.client();
            if let Some(bytes) = client.get(&keys[crash_key]) {
                let got = decode_version(crash_key as u64, &bytes);
                assert!(
                    got == v || got == v - 1,
                    "{point:?}: impossible version {got}"
                );
                if point == CrashPoint::AfterPublish {
                    assert_eq!(got, v, "{point:?}: published value must survive");
                }
            }
            let v2 = states[crash_key].issued.fetch_add(1, Ordering::SeqCst) + 1;
            client.set(&keys[crash_key], &encode_value(crash_key as u64, v2));
            let bytes = client
                .get(&keys[crash_key])
                .expect("key wedged after recovery");
            assert_eq!(decode_version(crash_key as u64, &bytes), v2);

            // Idempotency: a second recovery pass finds nothing left.  The
            // fresh Set above displaced (and locally parked) a range that
            // may alias a dead-owned segment, so — per the recovery
            // contract — the survivor returns its hoard first.
            let _ = client.release_parked_memory();
            let again = rescuer.recover_crashed_client(victim_id);
            assert_eq!(
                again.journal_entries_replayed, 0,
                "{point:?}: replay not idempotent"
            );
            assert_eq!(again.recovered_bytes, 0, "{point:?}: double gauge debit");
            assert_eq!(again.swept_bytes, 0, "{point:?}: double sweep");
            assert_no_orphans(
                &cache,
                &mut cache.client(),
                &format!("{point:?} (second pass)"),
            );
        }
    }
}

/// The same anatomy on the one-round-trip `Set`: the victim dies replacing a
/// key *it wrote itself*, so the Set goes in through its hint — no lookup, the
/// journal's old half taken from the hinted word.  There is no
/// `AfterObjectWrite` instant on that path (the WRITE and the CAS share a
/// doorbell); the other two points must recover exactly as above.
#[test]
fn chaos_crash_points_recover_cleanly_on_a_hinted_set() {
    let keys = make_keys("xk");
    for point in [CrashPoint::AfterAlloc, CrashPoint::AfterPublish] {
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(KEYS as u64 * 4).with_crash_recovery_journal(true),
            DmConfig::default(),
        )
        .unwrap();
        let states = make_states();
        preload(&cache, &keys, &states);

        // The victim replaces the key once — leaving itself the hint — and
        // dies in the next replace.
        let mut victim = cache.client();
        let victim_id = victim.dm().client_id();
        let crash_key = 13usize;
        let next = || states[crash_key].issued.fetch_add(1, Ordering::SeqCst) + 1;
        victim.set(&keys[crash_key], &encode_value(crash_key as u64, next()));
        let stats = cache.stats();
        assert_eq!(
            stats.spec_publishes_issued(),
            0,
            "{point:?}: preloaded by another"
        );
        victim.arm_set_crash(point);
        let v = next();
        victim.set(&keys[crash_key], &encode_value(crash_key as u64, v));
        assert!(victim.crashed(), "{point:?}: armed crash did not fire");
        let hinted = (point == CrashPoint::AfterPublish) as u64;
        assert_eq!(
            (stats.spec_publishes_issued(), stats.spec_publishes_wasted()),
            (hinted, 0),
            "{point:?}: the crashed Set went in through its hint"
        );
        drop(victim);

        let mut rescuer = cache.client();
        let report = rescuer.recover_crashed_client(victim_id);
        assert_eq!(report.journal_entries_replayed, 1, "{point:?}");
        // Died before the ring: the new allocation is the orphan.  Died
        // after the CAS: the displaced one, which only the hinted word ever
        // told the journal about.
        assert!(report.recovered_bytes > 0, "{point:?}: {report:?}");
        assert!(
            report.swept_bytes >= report.recovered_bytes,
            "{point:?}: {report:?}"
        );
        assert_no_orphans(&cache, &mut cache.client(), &format!("hinted {point:?}"));

        let mut client = cache.client();
        let bytes = client.get(&keys[crash_key]).expect("the key stays cached");
        let expected = if point == CrashPoint::AfterPublish {
            v
        } else {
            v - 1
        };
        assert_eq!(
            decode_version(crash_key as u64, &bytes),
            expected,
            "{point:?}"
        );

        let _ = client.release_parked_memory();
        let again = rescuer.recover_crashed_client(victim_id);
        assert_eq!(
            again,
            Default::default(),
            "{point:?}: recovery must be idempotent"
        );
        assert_no_orphans(
            &cache,
            &mut cache.client(),
            &format!("hinted {point:?} (second pass)"),
        );
    }
}

/// How the starved client of
/// `chaos_crash_points_recover_cleanly_under_memory_pressure` dies.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Dying {
    /// Replacing a key its neighbour holds.
    Replace,
    /// Filling a key right after it missed: the first such fill, which parks
    /// its eviction, or a later one, which carries the victim the fill
    /// before it parked.
    Fill { carrying: bool },
}

/// The anatomy under memory pressure, where an evicting `Set` runs a
/// sampling eviction beside its own lookup and publish: a starved client
/// dies next to a second client whose segments interleave with its own — so
/// the objects it evicts are as often the neighbour's, in segments the
/// dead-owned sweep never visits.  It dies replacing an existing key, or
/// filling one right after its miss.  The sampling eviction is not
/// journalled; what keeps a crash point from finding a victim taken out of
/// the table and never freed is the order alone: the eviction riding a
/// displacing publish takes its victim only once the `Set` is through, and
/// the fill before the dying `Set` is booked — the victim it carried freed —
/// before that `Set` allocates (`ditto_core` crate docs, *The `Set` path
/// under memory pressure*).  Of a fill's three points only `AfterAlloc` lies
/// on the one-round path, so for the other two the neighbour fills the key
/// between the miss and the dying `Set`: the memo is refused, and the `Set`
/// replaces the neighbour's value through the lookup, a parked victim in
/// hand.
#[test]
fn chaos_crash_points_recover_cleanly_under_memory_pressure() {
    let points = [
        CrashPoint::AfterAlloc,
        CrashPoint::AfterObjectWrite,
        CrashPoint::AfterPublish,
    ];
    let dyings = [
        Dying::Replace,
        Dying::Fill { carrying: false },
        Dying::Fill { carrying: true },
    ];
    for point in points {
        for dying in dyings {
            crash_under_memory_pressure(point, dying);
        }
    }
}

fn crash_under_memory_pressure(point: CrashPoint, dying: Dying) {
    let context = format!("{point:?}, {dying:?}");
    let mut config = DittoConfig::with_capacity(200).with_crash_recovery_journal(true);
    config.alloc_segment_objects = 2;
    let cache =
        DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(2)).unwrap();
    let (mut victim, mut neighbour) = (cache.client(), cache.client());
    let victim_id = victim.dm().client_id();
    // Turn about, far past capacity: two-object segments granted
    // alternately, and each client evicting whatever its samples hold.
    for key in 0..3_000u64 {
        let client = if key % 2 == 0 {
            &mut victim
        } else {
            &mut neighbour
        };
        client.set(&key.to_le_bytes(), &[key as u8; 200]);
    }
    let stats = cache.stats();
    assert!(
        stats.evictions_overlapped() > 2_000,
        "{context}: no pressure"
    );

    // The key the victim dies on, and the value a Set that did not publish
    // leaves readable.
    let (key, untouched) = match dying {
        Dying::Replace => {
            let resident = (0..3_000u64)
                .rev()
                .find(|key| neighbour.get(&key.to_le_bytes()).is_some())
                .expect("something is resident");
            (resident.to_le_bytes(), Some(vec![resident as u8; 200]))
        }
        Dying::Fill { carrying } => {
            // The first fill after a miss parks its eviction; the second
            // evicts inline for its object, carries that victim and parks
            // its own.
            for warm in 5_000..5_000 + 2 * carrying as u64 {
                assert!(victim.get(&warm.to_le_bytes()).is_none());
                victim.set(&warm.to_le_bytes(), &[warm as u8; 200]);
                // A `Get` of the key books the fill it left pending.
                assert!(victim.get(&warm.to_le_bytes()).is_some());
            }
            let key = 6_000u64.to_le_bytes();
            assert!(victim.get(&key).is_none());
            if point == CrashPoint::AfterAlloc {
                (key, None)
            } else {
                neighbour.set(&key, &[0x11; 200]);
                (key, Some(vec![0x11; 200]))
            }
        }
    };

    let nodes = || cache.pool().stats().node_snapshots();
    let (faa, evictions) = (
        nodes().iter().map(|n| n.faa).sum::<u64>(),
        stats.snapshot().evictions,
    );
    victim.arm_set_crash(point);
    victim.set(&key, &[0xEE; 200]);
    assert!(victim.crashed(), "{context}: armed crash did not fire");
    // From its first doorbell on, an eviction rode the Set — its history id
    // went out beside the bucket READs — and no victim was taken: neither
    // its own nor a carried one.
    let riding = (point != CrashPoint::AfterAlloc) as u64;
    assert_eq!(
        nodes().iter().map(|n| n.faa).sum::<u64>() - faa,
        riding,
        "{context}: the dying Set must be a starved one"
    );
    assert_eq!(stats.snapshot().evictions, evictions, "{context}");
    drop(victim);

    let _ = neighbour.release_parked_memory();
    let report = neighbour.recover_crashed_client(victim_id);
    assert_eq!(report.journal_entries_replayed, 1, "{context}");
    assert!(report.recovered_bytes > 0, "{context}: {report:?}");
    assert_no_orphans(&cache, &mut cache.client(), &context);

    let published = point == CrashPoint::AfterPublish;
    let expected = if published {
        Some(vec![0xEE; 200])
    } else {
        untouched
    };
    assert_eq!(neighbour.get(&key), expected, "{context}");
    // The survivor goes on filling after misses — parking and carrying
    // evictions of its own — and nothing drifts.
    for key in 3_000..3_200u64 {
        assert!(neighbour.get(&key.to_le_bytes()).is_none(), "{context}");
        neighbour.set(&key.to_le_bytes(), &[key as u8; 200]);
    }
    // A `Get` of the key books the last fill, which frees the victim it
    // carried.
    let _ = neighbour.get(&3_199u64.to_le_bytes());
    assert_no_orphans(
        &cache,
        &mut cache.client(),
        &format!("{context}, after more fills"),
    );
}

/// A one-round fill under faults.  Its object WRITE, its metadata WRITE and
/// its insert CAS ride one queue pair in that order, so a fault in any of
/// them leaves the insert unlanded — an errored WRITE flushes the CAS behind
/// it — and the fill, acknowledged when its round was rung, is abandoned
/// when the client books it: its object freed, the key a miss.  Fills run
/// under a 5 % verb-fail plan on one node and on two, the ops around them
/// disarmed; every hit reads a version between the key's last acknowledged
/// one and its last issued one, and nothing leaks.
#[test]
fn chaos_a_faulted_fill_is_abandoned_when_booked() {
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 2);
    for nodes in [1u16, 2] {
        for round in 0..seeds {
            let seed = 0xF111_0000 + round;
            let context = format!("{nodes} nodes, seed {seed}");
            let plan = FaultPlan::seeded(seed).with_verb_fail_ppm(50_000);
            let dm = DmConfig::default()
                .with_memory_nodes(nodes)
                .with_fault_plan(plan);
            let config = DittoConfig::with_capacity(300).with_crash_recovery_journal(true);
            let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
            let injector = cache.pool().fault_injector();
            injector.set_armed(false);
            let mut client = cache.client();
            // Per key: the last version acknowledged and the last one issued.
            let mut versions = vec![(0u64, 0u64); 1_000];
            let abandoned = cache.stats().fills_abandoned();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..4_000 {
                let key = rng.gen_range(0..1_000u64);
                let (acked, issued) = versions[key as usize];
                if let Some(bytes) = client.get(&key.to_le_bytes()) {
                    let v = decode_version(key, &bytes);
                    assert!(acked <= v && v <= issued, "{context}: key {key} read {v}");
                    continue;
                }
                let v = issued + 1;
                versions[key as usize].1 = v;
                injector.set_armed(true);
                let result = client.try_set(&key.to_le_bytes(), &encode_value(key, v));
                injector.set_armed(false);
                if result.is_ok() {
                    versions[key as usize].0 = v;
                }
            }
            assert!(
                cache.stats().fills_abandoned() > abandoned,
                "{context}: no fill was abandoned"
            );
            for (key, &(acked, issued)) in versions.iter().enumerate() {
                if let Some(bytes) = client.get(&(key as u64).to_le_bytes()) {
                    let v = decode_version(key as u64, &bytes);
                    assert!(acked <= v && v <= issued, "{context}: key {key} read {v}");
                }
            }
            assert_no_orphans(&cache, &mut client, &context);
        }
    }
}

/// A client gone with its last fill posted and not booked, on a cache only
/// it filled, of one node or two — with room for every key, or under memory
/// pressure, where each fill carries the victim the fill before it picked.
/// Dropped, it books the fill first, and leaves nothing to recover.
/// Crashed — gone without running another step, its destructor included —
/// it leaves its journal armed, naming the fill's object and the carried
/// victim's: the insert landed, so recovery keeps the object; the victim CAS
/// landed too, so no slot references the victim, which recovery frees.
/// Either way no byte leaks and every value still cached stays readable.
#[test]
fn chaos_a_client_gone_with_a_fill_posted_is_recovered() {
    for nodes in [1u16, 2] {
        for (pressure, crash) in [(false, false), (false, true), (true, false), (true, true)] {
            let context = format!("{nodes} nodes, pressure {pressure}, crash {crash}");
            let (capacity, keys) = if pressure {
                (300, 2_000)
            } else {
                (1_000, 100u64)
            };
            let config = DittoConfig::with_capacity(capacity).with_crash_recovery_journal(true);
            let dm = DmConfig::default().with_memory_nodes(nodes);
            let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
            let mut client = cache.client();
            let id = client.dm().client_id();
            for key in 0..keys {
                assert!(client.get(&key.to_le_bytes()).is_none());
                client.set(&key.to_le_bytes(), &[key as u8; 200]);
            }
            let evictions = cache.stats().snapshot().evictions;
            assert_eq!(evictions > 0, pressure, "{context}");
            if crash {
                std::mem::forget(client);
            } else {
                drop(client);
            }
            let mut survivor = cache.client();
            let report = survivor.recover_crashed_client(id);
            assert_eq!(
                report.journal_entries_replayed,
                u64::from(crash),
                "{context}: {report:?}"
            );
            // The insert landed: what is recovered is the carried victim, a
            // 200-byte value in four 64-byte blocks.
            let victim = u64::from(crash && pressure) * 256;
            assert_eq!(report.recovered_bytes, victim, "{context}: {report:?}");
            assert_no_orphans(&cache, &mut survivor, &context);
            let mut cached = 0;
            for key in 0..keys {
                if let Some(bytes) = survivor.get(&key.to_le_bytes()) {
                    assert_eq!(bytes, [key as u8; 200], "{context}");
                    cached += 1;
                }
            }
            assert!(
                survivor.get(&(keys - 1).to_le_bytes()).is_some(),
                "{context}"
            );
            assert_eq!(cached == keys, !pressure, "{context}");
        }
    }
}

/// A client gone while a fill's carried eviction still has to pick, on a
/// cache only it filled, of one node or two, under memory pressure with
/// 2 KiB values, where short samples are common.  A fill that takes up an
/// eviction whose sample was too short to pick from carries it unpicked: its
/// ring carries the re-sample READ in place of the victim CAS, and a later
/// op picks and posts that CAS on a ring of its own, journalling the victim
/// first.  The client dies (gone without running another step, its
/// destructor included) with that re-sample in flight — its journal names
/// the fill's object and no victim: nothing was taken out of the table — or
/// right after a later `Get` posted the victim CAS, which landed, so no slot
/// references the victim, which recovery frees — or right after the `Get`
/// that booked the fill found its insert lost, to a fault on the fill's
/// ring: that booking frees the fill's object, so it settles the carried
/// eviction too and disarms the journal, which recovery would otherwise
/// free the object by a second time.  Each way no byte leaks and every
/// value still cached is the one its `Set` acknowledged.
#[test]
fn chaos_a_client_gone_with_a_carried_eviction_unpicked_is_recovered() {
    #[derive(Debug, PartialEq)]
    enum Gone {
        ResampleInFlight,
        VictimCasPosted,
        InsertLost,
    }
    const BIG: usize = 2_048;
    let sums = |cache: &DittoCache| {
        let nodes = cache.pool().stats().node_snapshots();
        let sum = |f: fn(&ditto::dm::stats::NodeSnapshot) -> u64| nodes.iter().map(f).sum::<u64>();
        (sum(|n| n.reads), sum(|n| n.cas), sum(|n| n.faa))
    };
    for nodes in [1u16, 2] {
        for gone in [
            Gone::ResampleInFlight,
            Gone::VictimCasPosted,
            Gone::InsertLost,
        ] {
            let context = format!("{nodes} nodes, {gone:?}");
            let config = DittoConfig::with_capacity(300).with_crash_recovery_journal(true);
            // Faults hit only the fills of the last case, armed around them.
            let plan = FaultPlan::seeded(0xCA77_1ED0).with_verb_fail_ppm(100_000);
            let dm = DmConfig::default()
                .with_memory_nodes(nodes)
                .with_fault_plan(plan);
            let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
            let injector = cache.pool().fault_injector();
            injector.set_armed(false);
            let mut client = cache.client();
            let id = client.dm().client_id();
            let value = |key: u64| vec![key as u8; BIG];
            // Fills until one carries its eviction unpicked: a re-sample
            // went out on its ring (one more READ than its own sample) and
            // no victim CAS beside its insert, and the history-id FAA shows
            // the fill starved, its own sample on that ring (a fill that
            // found room has none, though its ring's flight may host the
            // parked eviction's re-sample) — and, in the last case, its
            // insert lost and the `Get` after it booked that.
            let (mut key, mut found) = (0u64, false);
            while key < 4_000 && !found {
                assert!(client.get(&key.to_le_bytes()).is_none(), "{context}");
                let (deferred, (reads, cas, faa)) =
                    (cache.stats().resamples_deferred(), sums(&cache));
                let abandoned = cache.stats().fills_abandoned();
                let faulted = gone == Gone::InsertLost && key > 2_000;
                injector.set_armed(faulted);
                let acked = client.try_set(&key.to_le_bytes(), &value(key)).is_ok();
                injector.set_armed(false);
                let after = sums(&cache);
                let carries_resample = cache.stats().resamples_deferred() == deferred + 1;
                found = key > 2_000
                    && carries_resample
                    && (faulted || (after.0 - reads, after.1 - cas, after.2 - faa) == (2, 1, 1));
                if faulted && found {
                    // The `Get` of the key before books the fill.
                    let _ = client.get(&(key - 1).to_le_bytes());
                    found = acked && cache.stats().fills_abandoned() == abandoned + 1;
                }
                key += 1;
            }
            assert!(found, "{context}: no fill carried its eviction unpicked");
            let last = key - 1;
            if gone == Gone::VictimCasPosted {
                // Reads of the key before it: the first polls the re-sample,
                // a later one's round picks and posts the victim CAS — unless
                // the re-sample is short again, and another goes out.
                let cas = |cache: &DittoCache| sums(cache).1;
                let mut posted = false;
                for _ in 0..2 * 8 {
                    let before = cas(&cache);
                    let _ = client.get(&(last - 1).to_le_bytes());
                    if cas(&cache) > before {
                        posted = true;
                        break;
                    }
                }
                assert!(posted, "{context}: no later op posted the victim CAS");
            }
            std::mem::forget(client);
            let mut survivor = cache.client();
            let report = survivor.recover_crashed_client(id);
            let armed = gone != Gone::InsertLost;
            assert_eq!(
                report.journal_entries_replayed,
                u64::from(armed),
                "{context}: {report:?}"
            );
            // The insert landed, and the victim, if its CAS went out: only a
            // victim is unreferenced, a 2 KiB value in more than 32 blocks.
            assert_eq!(
                report.recovered_bytes > 32 * 64,
                gone == Gone::VictimCasPosted,
                "{context}: {report:?}"
            );
            assert_no_orphans(&cache, &mut survivor, &context);
            for key in 0..=last {
                if let Some(bytes) = survivor.get(&key.to_le_bytes()) {
                    assert_eq!(bytes, value(key), "{context}: key {key}");
                }
            }
            assert_eq!(
                survivor.get(&last.to_le_bytes()).is_some(),
                gone != Gone::InsertLost,
                "{context}"
            );
        }
    }
}

/// Tentpole: node fail-stop degrades a striped pool instead of killing it —
/// keys whose buckets live on survivors keep full service, new objects
/// avoid the dead node, and the faults are attributed to it.
#[test]
fn chaos_node_fail_stop_degrades_to_survivors() {
    let keys = make_keys("xk");
    // Node 1 is dead from simulated time zero: the adversarial extreme of
    // the fail-stop class (every clock starts at the baseline).
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(2_000),
        DmConfig::default()
            .with_memory_nodes(2)
            .with_fault_plan(FaultPlan::seeded(7).with_node_fail_stop(1, 0)),
    )
    .unwrap();
    let mut client = cache.client();
    assert!(
        client.dm().node_failed(1),
        "membership oracle must see the dead node"
    );

    // Every key gets a Set and a Get.  Keys with a bucket on the dead node
    // degrade (a Set that says it was dropped, a missing Get) — but never
    // panic, never wedge.
    let (mut served, mut dropped) = (0usize, 0usize);
    for (k, key) in keys.iter().enumerate() {
        dropped += client.try_set(key, &encode_value(k as u64, 1)).is_err() as usize;
        if let Some(bytes) = client.get(key) {
            assert_eq!(decode_version(k as u64, &bytes), 1);
            served += 1;
        }
    }
    assert!(
        served > 0,
        "keys with both buckets on the surviving node must keep full service"
    );
    assert!(
        served < KEYS && dropped > 0,
        "some keys must have degraded (dead-node buckets)"
    );

    // New objects landed on the survivor only, and the dead node took the
    // fault attribution.
    let stats = cache.pool().stats();
    assert!(
        stats.verb_faults_on(1) > 0,
        "faults must be attributed to the dead node"
    );
    assert_eq!(stats.verb_faults_on(0), 0, "the survivor saw no faults");
    assert!(cache.pool().resident_object_bytes(0) > 0);
    assert_no_orphans(&cache, &mut cache.client(), "fail-stop");
}

/// Satellite: a failing chaos checker arrives with its post-mortem — the
/// re-raised panic carries the event-log tail, so a one-line assertion
/// failure in CI comes with the rare events that led up to it.
#[test]
fn chaos_failure_reports_carry_the_event_log_tail() {
    let keys = make_keys("xk");
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(KEYS as u64),
        DmConfig::default().with_fault_plan(FaultPlan::seeded(7).with_verb_fail_ppm(200_000)),
    )
    .unwrap();
    let states = make_states();

    // A faulted preload populates the event log with real verb-fault events
    // (the retry layer absorbs them, so the preload itself succeeds).
    cache.pool().fault_injector().set_armed(true);
    preload(&cache, &keys, &states);
    cache.pool().fault_injector().set_armed(false);
    assert!(
        cache.pool().stats().obs().events_recorded > 0,
        "the faulted preload should have logged verb-fault events"
    );

    // Force a checker-style failure and inspect the enriched payload.
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        with_event_postmortem(cache.pool(), 16, || {
            panic!("key 3: stale read of version 1, completed floor 2");
        });
    }))
    .expect_err("the forced failure must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .expect("enriched panic payload is a String");
    assert!(
        msg.contains("key 3: stale read"),
        "original message lost: {msg}"
    );
    assert!(
        msg.contains("--- event log tail ("),
        "no post-mortem section: {msg}"
    );
    assert!(
        msg.contains("verb "),
        "no verb-fault event line in the tail: {msg}"
    );
}

/// ROADMAP item 1(c): `try_set`'s give-ups — every publish attempt lost, then
/// the invalidation sweep — driven on purpose instead of by thread luck.  One
/// client on one thread drains node 1 of a two-node pool, one stripe every
/// 50 Sets; each Set runs with three verbs in four failing — enough for some
/// 20 % of them to exhaust their retries — and the fault plan is disarmed
/// again before anything else runs.  After every Set a
/// fault-free Get, from the writer and from a second client, must see the
/// latest `Ok`-acknowledged value or the value of a Set that returned `Err`
/// after it: never an older one.  Nothing but the seed decides the run, so a
/// failure replays from the seed it names.
#[test]
fn chaos_set_give_ups_under_a_drain_are_never_stale() {
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 2);
    let keys = make_keys("xk");
    for round in 0..seeds {
        let seed = 0x61BE_0000 + round;
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(2_000),
            DmConfig::default()
                .with_memory_nodes(2)
                .with_fault_plan(FaultPlan::seeded(seed).with_verb_fail_ppm(750_000)),
        )
        .unwrap();
        let injector = cache.pool().fault_injector();
        injector.set_armed(false);
        let (mut writer, mut reader) = (cache.client(), cache.client());
        // Per key: the versions a Get may return — the latest acknowledged
        // one and those of the `Err` Sets since — and the last one issued.
        let mut allowed: Vec<Vec<u64>> = vec![vec![1]; KEYS];
        let mut issued = vec![1u64; KEYS];
        for (k, key) in keys.iter().enumerate() {
            writer.set(key, &encode_value(k as u64, 1));
        }
        assert!(cache.pool().resident_object_bytes(1) > 0);
        cache.pool().drain_node(1).unwrap();

        let mut rng = StdRng::seed_from_u64(splitmix(seed));
        let (mut stripes, mut errs, mut hits) = (0, 0, 0);
        for op in 0..1_600 {
            if op % 50 == 0 {
                stripes += writer.pump_migration(1).stripes_moved;
            }
            let k = rng.gen_range(0..KEYS);
            issued[k] += 1;
            let v = issued[k];
            injector.set_armed(true);
            let acknowledged = writer.try_set(&keys[k], &encode_value(k as u64, v)).is_ok();
            injector.set_armed(false);
            if acknowledged {
                allowed[k].clear();
            } else {
                errs += 1;
            }
            allowed[k].push(v);
            for client in [&mut writer, &mut reader] {
                let Some(bytes) = client.get(&keys[k]) else {
                    continue;
                };
                hits += 1;
                let got = decode_version(k as u64, &bytes);
                assert!(
                    allowed[k].contains(&got),
                    "seed {seed}, op {op}: key {k} read version {got}, \
                     allowed {:?}",
                    allowed[k]
                );
                allowed[k].retain(|&a| a >= got);
            }
        }
        // Both give-up exits ran — the key invalidated instead (`Ok`) and
        // `SetDropped` — while the drain moved stripes, and most Gets hit.
        let gave_up = cache.stats().sets_dropped();
        assert!(
            errs > 0 && gave_up > errs,
            "seed {seed}: {errs} of {gave_up}"
        );
        assert!(
            stripes > 10 && hits > 2_000,
            "seed {seed}: {stripes} / {hits}"
        );
        while writer.pump_migration(usize::MAX).stripes_moved > 0 {}
        assert_eq!(cache.pool().resident_object_bytes(1), 0, "seed {seed}");
        assert_no_orphans(&cache, &mut cache.client(), &format!("seed {seed}"));
    }
}

/// The sum of every slot's `freq` word.
fn freq_total(client: &mut DittoClient) -> u64 {
    client.freq_words().iter().map(|&(_, freq)| freq).sum()
}

/// A leaving client's FC-cache drain under a seeded verb-fail plan on a
/// 2-node pool.  The threshold is out of reach, so every access is still
/// buffered when the drain runs, and the increments that land in the
/// `freq` words must be exactly what the FC cache held: an FAA flushed
/// behind a faulted one in its ring is re-posted, not lost, and nothing
/// lands twice.  The rate is 5 % of verbs failing: a counter spends all
/// eight of its attempts with odds of 0.05⁸ ≈ 4·10⁻¹¹, ≈ 5·10⁻⁷ over 1 000
/// counters and CI's 12 seeds, so `MAX_RETRIES` does not run out.
#[test]
fn chaos_drain_reposts_faas_flushed_behind_a_fault() {
    const COUNTERS: u64 = 1_000;
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 2);
    for round in 0..seeds {
        let seed = 0xD4A1_0000 + round;
        let config = DittoConfig {
            fc_threshold: u64::MAX,
            ..DittoConfig::with_capacity(2 * COUNTERS)
        };
        let plan = FaultPlan::seeded(seed).with_verb_fail_ppm(50_000);
        let dm = DmConfig::default()
            .with_memory_nodes(2)
            .with_fault_plan(plan);
        let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
        let injector = cache.pool().fault_injector();
        injector.set_armed(false);
        let mut client = cache.client();
        for i in 0..COUNTERS {
            let key = i.to_le_bytes();
            client.set(&key, b"value");
            for _ in 0..=i % 3 {
                assert!(client.get(&key).is_some(), "seed {seed}: key {i} missed");
            }
        }
        let owed = client.fc_cache().unwrap().buffered_increments();
        let hits = cache.stats().snapshot().hits;
        assert_eq!(owed, hits, "seed {seed}: an increment flushed early");
        let before = freq_total(&mut client);
        let stats = cache.pool().stats();
        let faas = || -> u64 { stats.node_snapshots().iter().map(|n| n.faa).sum() };
        let (faas_before, failures_before) = (faas(), stats.faults().verb_failures);

        injector.set_armed(true);
        client.flush();
        injector.set_armed(false);

        let failures = stats.faults().verb_failures - failures_before;
        assert!(failures > 0, "seed {seed}: no FAA of the drain failed");
        assert_eq!(
            freq_total(&mut client) - before,
            owed,
            "seed {seed}: the drain lost or doubled increments"
        );
        // A flushed FAA never reached the wire: the drain sent one FAA per
        // counter that landed, and one per fault.
        assert_eq!(
            faas() - faas_before,
            COUNTERS + failures,
            "seed {seed}: a flushed FAA was sent"
        );
    }
}

/// A fill parks its eviction with its first sample in flight, and the
/// client's round after that sample landed decodes it; one that held too
/// few candidates sends the re-sample READ from that round, for the
/// client's next ops to poll.  Here that READ faults: the `Set` that takes
/// the eviction up finds the sample tainted and re-samples — its ring
/// carries the re-sample in place of the victim CAS, or, not a one-round
/// fill, it sends it as it ends — or, the READ still out, carries the
/// eviction unpicked, and a later op's round re-samples.  Values of 2 KiB
/// in a cache sized for 300 small objects make short samples common.  Each
/// fill is read back twice: the first `Get` books it, the second's round
/// decodes its eviction's sample, and runs under a 5 % verb-fail plan; the
/// ops around it run disarmed, so the `Set` after a faulted READ is
/// measured alone.  No FC
/// flush is ever due, so the armed `Get` sends its slot and object READs,
/// the re-sample, at most a `last_ts` WRITE, and what it sends for an
/// eviction the last fill carried unpicked: a further re-sample, or the
/// victim CAS.  After a fill that carried a victim it had picked, one fault
/// in its window, with its READs landed (no misprediction), no `last_ts`
/// WRITE and no CAS sent, is the re-sample's.  Updates of
/// earlier keys ride along, and every hit reads a version between the
/// key's last acknowledged one and its last issued one; nothing leaks.
#[test]
fn chaos_a_faulted_deferred_re_sample_is_re_sampled_by_the_next_fill() {
    const BIG: usize = 2_048;
    const FILLS: u64 = 600;
    let value = |key: u64, version: u64| {
        let mut bytes = vec![0u8; BIG];
        bytes[..8].copy_from_slice(&key.to_le_bytes());
        bytes[8..16].copy_from_slice(&version.to_le_bytes());
        bytes
    };
    let version = |bytes: &[u8]| u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let seeds = env_u64("DITTO_CHAOS_SEEDS", 2);
    for round in 0..seeds {
        let seed = 0xDEF0_0000 + round;
        let plan = FaultPlan::seeded(seed).with_verb_fail_ppm(50_000);
        let dm = DmConfig::default().with_fault_plan(plan);
        let config = DittoConfig {
            fc_threshold: u64::MAX,
            ..DittoConfig::with_capacity(300)
        };
        let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
        let injector = cache.pool().fault_injector();
        injector.set_armed(false);
        let mut client = cache.client();
        // Per key: the last version acknowledged and the last one issued.
        let mut versions = vec![(0u64, 0u64); (2_000 + 2 * FILLS) as usize];
        for key in 0..2_000u64 {
            client.set(&key.to_le_bytes(), &value(key, 1));
            versions[key as usize] = (1, 1);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = |client: &mut DittoClient, key: u64| {
            let v = versions[key as usize].1 + 1;
            versions[key as usize].1 = v;
            if client.try_set(&key.to_le_bytes(), &value(key, v)).is_ok() {
                versions[key as usize].0 = v;
            }
        };
        let (mut faulted, mut deferrals) = (0, 0);
        let mut key = 2_000;
        let stats = cache.pool().stats();
        while key < 2_000 + FILLS {
            // A fresh key's cache-aside fill, and a read that books it.  A
            // fill that sent two CASes carried a victim it had picked, and
            // leaves no eviction to pick for but its own.
            let fill = key.to_le_bytes();
            assert!(client.get(&fill).is_none());
            let cas = || stats.node_snapshots()[0].cas;
            let cas_before = cas();
            set(&mut client, key);
            let carried_picked = cas() - cas_before == 2;
            let _ = client.get(&fill);
            key += 1;
            let window = || {
                let cache = cache.stats();
                let spec = cache.spec_reads_wasted();
                (
                    cache.resamples_deferred(),
                    stats.faults().verb_failures,
                    spec,
                    cache.ts_writes_sent(),
                    stats.node_snapshots()[0].cas,
                )
            };
            let before = window();
            injector.set_armed(true);
            let _ = client.get(&fill);
            injector.set_armed(false);
            let after = window();
            let sent = after.0 > before.0;
            let read_faulted = sent
                && carried_picked
                && after.1 == before.1 + 1
                && (after.2, after.3, after.4) == (before.2, before.3, before.4);
            deferrals += sent as u64;
            if read_faulted {
                // The next starved fill carries that eviction: beside its own
                // sample READ it reads at least one re-sample.  (A fill with
                // room to spare reads no sample and carries nothing.)  Should
                // the faulted READ still be out when the fill comes, the fill
                // carries the eviction unpicked, and of the two reads of its
                // key after it, the first polls the READ and the second's
                // round re-samples: one READ beyond their two each.
                faulted += 1;
                let reads = || stats.node_snapshots()[0].reads;
                loop {
                    let fill = key.to_le_bytes();
                    assert!(client.get(&fill).is_none());
                    let before = reads();
                    set(&mut client, key);
                    key += 1;
                    let mut sent = reads() - before;
                    if sent == 1 {
                        for _ in 0..2 {
                            let before = reads();
                            let _ = client.get(&fill);
                            sent += reads() - before - 2;
                        }
                    }
                    if sent > 0 {
                        assert!(sent > 1, "seed {seed}: key {key} did not re-sample");
                        break;
                    }
                }
            }
            // An update of an earlier key, which may carry the last fill's
            // eviction.
            set(&mut client, rng.gen_range(0..key));
        }
        assert!(deferrals > 0, "seed {seed}: no fill deferred its re-sample");
        assert!(faulted > 0, "seed {seed}: no deferred re-sample faulted");
        for (key, &(acked, issued)) in versions.iter().enumerate() {
            if let Some(bytes) = client.get(&(key as u64).to_le_bytes()) {
                let v = version(&bytes);
                assert!(
                    acked <= v && v <= issued,
                    "seed {seed}: key {key} read version {v}, acknowledged {acked}"
                );
            }
        }
        assert_no_orphans(&cache, &mut client, &format!("seed {seed}"));
    }
}
