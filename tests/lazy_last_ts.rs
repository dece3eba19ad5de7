//! The hazard of writing `last_ts` lazily, driven on purpose: a client that
//! only reads, beside one that evicts.
//!
//! A hit skips the timestamp WRITE while the stored timestamp is younger than
//! a sixteenth of the eviction age the client observes (`ditto_core::recency`).
//! A reader that never evicts observes nothing — it goes by its own uptime —
//! so its threshold grows without bound while another client, filling the
//! cache under memory pressure, evicts at an age the reader cannot see.  What
//! keeps the reader's hot keys alive is the rule's second half: its first
//! miss drops the threshold to zero, and from then on it is only the time
//! since the reader last saw evidence of an eviction — a history counter
//! that moved, a miss on a key evicted since.  The third test is a reader
//! that evicted before it turned read-only.
//!
//! The same holds of a reader whose hits never leave its local tier — the
//! second test — which has no stored timestamp to read and goes by the one
//! its tier entry last saw or wrote.
//!
//! The numbers below are measurements of these schedules, and move when
//! fill timing does (the filler's evictions pick victims by priorities that
//! depend on its clock).  To re-derive them: set
//! `ditto_core::recency::LAST_TS_DIVISOR` to `u64::MAX` in a scratch edit —
//! τ = 0, every hit writes; never commit it, there is no knob — run the tests
//! with `-- --nocapture` and read `EAGER_HIT_RATE` (and `TIER_EAGER_HIT_RATE`
//! of the second) off the line each prints;
//! restore 16, run it again and read the lazy rate and the skipped count.  Last done when the evicting fill
//! lost a round trip: eager 141 396 of 160 000 as on the commit before (the
//! reader's four `Get`s outlast the filler's `Set` either way, so with every
//! hit writing the shared clock did not move), lazy 142 422 of 160 000 with
//! 26 657 timestamps skipped (141 396 with 37 008 skipped before); 26 662
//! since the coherence board has an epoch per hint and the filler's bumps
//! cost the reader five hints fewer.

use ditto::cache::{DittoCache, DittoClient, DittoConfig};
use ditto::dm::DmConfig;

const CAPACITY: u64 = 4_000;
const HOT_KEYS: u64 = 40;
const ROUNDS: u64 = 40_000;
/// Reader `Get`s per filler `Set`.
const GETS_PER_SET: u64 = 4;

/// The reader's hit rate when every hit writes its timestamp, same
/// schedule: 141 396 of 160 000.  Below one because a read-only client never
/// gets back a key it lost, and sampled eviction loses one whenever a
/// sample's only two candidates are both hot — lazy timestamps or not.
const EAGER_HIT_RATE: f64 = 0.883_72;

/// One client reads the hot keys round-robin, [`GETS_PER_SET`] `Get`s a
/// round, while another sets a new key each round, for `rounds` rounds on
/// one wall clock.  Returns the reader's (hits, `Get`s).
fn read_beside_a_filler(cache: &DittoCache, rounds: u64) -> (u64, u64) {
    read_beside(cache.client(), cache.client(), rounds)
}

/// [`read_beside_a_filler`] with the two clients given.
fn read_beside(mut reader: DittoClient, mut filler: DittoClient, rounds: u64) -> (u64, u64) {
    for key in 0..HOT_KEYS {
        filler.set(&key.to_le_bytes(), &[key as u8; 200]);
    }
    // The filler's keys are new every time: each `Set` past capacity evicts,
    // and nothing but the reader's hits tells its hot keys from the filler's
    // one-shot ones.
    let (mut hits, mut gets) = (0u64, 0u64);
    let mut value = Vec::new();
    for round in 0..rounds {
        for i in 0..GETS_PER_SET {
            let key = (round * GETS_PER_SET + i) % HOT_KEYS;
            gets += 1;
            if reader.get_into(&key.to_le_bytes(), &mut value) {
                assert_eq!(value, [key as u8; 200]);
                hits += 1;
            }
        }
        filler.set(&(HOT_KEYS + round).to_le_bytes(), &[7u8; 200]);
        // One wall clock: whoever fell behind waits for the other.
        let (r, f) = (reader.dm().now_ns(), filler.dm().now_ns());
        reader.dm().advance_ns(f.saturating_sub(r));
        filler.dm().advance_ns(r.saturating_sub(f));
    }
    (hits, gets)
}

#[test]
fn a_read_only_client_keeps_its_hot_set_beside_an_evicting_one() {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(CAPACITY), DmConfig::default())
            .unwrap();
    let (hits, gets) = read_beside_a_filler(&cache, ROUNDS);
    let stats = cache.stats();
    assert!(stats.snapshot().evictions > ROUNDS / 2, "the filler evicts");
    // The reader did go by its uptime for as long as it had not missed
    // (26 662 hits' worth)…
    let skipped = stats.ts_writes_skipped();
    println!("reader: {hits} of {gets} hit, {skipped} timestamps skipped");
    assert!(skipped > gets / 8, "{skipped} timestamps skipped");
    // …and its hot set did not pay for it: 0.890 14 lazy.  (Without the
    // first-miss rule the same schedule ends at 0.738.)
    let hit_rate = hits as f64 / gets as f64;
    assert!(
        hit_rate >= EAGER_HIT_RATE - 0.005,
        "reader hit rate {hit_rate:.5} ({hits} of {gets}) against {EAGER_HIT_RATE} with eager timestamps"
    );
}

/// The reader's hit rate below when every hit — a tier hit too — writes its
/// timestamp (the header's procedure): 22 913 of 24 000, four of the forty
/// keys lost to samples with nothing colder in them.
const TIER_EAGER_HIT_RATE: f64 = 0.954_71;

/// A key served from the local tier is touched remotely by nobody: a local
/// hit sends nothing and a revalidation READs the slot's atomic word alone.
/// The tier therefore keeps the timestamp it last saw or wrote and applies
/// the rule to that, or a key one client reads for longer than the eviction
/// age — the longer its lease grows, the likelier — looks idle to every LRU
/// sample of another's.  (While tier hits never wrote it, this reader lost
/// its first key 50 rounds after the filler's first eviction, in round
/// 1 541, and its fortieth in round 4 470: 9 786 hits of 24 000, and a
/// read-only client never gets a key back.)
#[test]
fn a_key_read_only_through_the_tier_survives_another_clients_churn() {
    const TIER_ROUNDS: u64 = 6_000;
    // LRU alone: recency is all that can keep a key (the frequency counter
    // has been fed from the tier all along).
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::single_algorithm(1_000, "lru").with_local_tier(64, 50_000),
        DmConfig::default(),
    )
    .unwrap();
    let (hits, gets) = read_beside_a_filler(&cache, TIER_ROUNDS);
    let stats = cache.stats();
    let snap = stats.snapshot();
    // The filler starts evicting a quarter of the way in and turns the cache
    // over three times…
    assert!(snap.evictions > TIER_ROUNDS * 3 / 4, "the filler evicts");
    // …while the reader's keys are read through its tier and nowhere else.
    let tier_served = snap.local_hits + snap.local_revalidations;
    println!(
        "reader: {hits} of {gets} hit, {tier_served} from its tier, {} timestamps sent",
        stats.ts_writes_sent()
    );
    assert!(tier_served > hits * 99 / 100, "{tier_served} of {hits}");
    let hit_rate = hits as f64 / gets as f64;
    assert!(
        hit_rate >= TIER_EAGER_HIT_RATE - 0.005,
        "reader hit rate {hit_rate:.5} ({hits} of {gets}) against {TIER_EAGER_HIT_RATE} with eager timestamps"
    );
}

/// The reader's hit rate below when every hit writes its timestamp (the
/// header's procedure): 148 313 of 160 000.
const EVICTED_EAGER_HIT_RATE: f64 = 0.926_96;

/// A reader that evicted before it turned read-only: it goes by the age its
/// own evictions observed, and from its last one on by the time since it
/// last saw evidence of an eviction (`ditto_core::recency`).  That keeps
/// growing while it only reads, and so does its τ; what holds it down is the
/// evidence the reader's misses bring — a miss on a key evicted since it
/// last knew the history counter restarts the clock, and so does a counter
/// READ that finds the counter moved.
///
/// Measured on this schedule, hits of 160 000: eager 148 313; lazy 137 452;
/// lazy with the estimate frozen at the reader's own evictions' age, as it
/// was before the estimate grew, 138 121; lazy without the restarts a miss
/// or a counter READ makes, 129 365.  What lazy timestamps lose here even
/// frozen is lost to two-candidate samples: a sample that re-sampled up to
/// only two live objects, the reader's hot key and a key the filler set less
/// than τ ago, evicts the hot key by LRU.  The bound below admits that loss
/// and fails the estimate that grows unchecked.
#[test]
fn a_client_that_evicted_then_only_reads_is_held_back_by_the_evictions_it_sees() {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(CAPACITY), DmConfig::default())
            .unwrap();
    let (mut reader, filler) = (cache.client(), cache.client());
    // The reader fills the cache past its capacity itself first, reading
    // its hot keys as it goes: its own evictions set its estimate.
    let mut value = Vec::new();
    for key in 0..HOT_KEYS {
        reader.set(&key.to_le_bytes(), &[key as u8; 200]);
    }
    for round in 0..2 * CAPACITY {
        for i in 0..GETS_PER_SET {
            let key = (round * GETS_PER_SET + i) % HOT_KEYS;
            let _ = reader.get_into(&key.to_le_bytes(), &mut value);
        }
        reader.set(&(1 << 32 | round).to_le_bytes(), &[3u8; 200]);
    }
    let stats = cache.stats();
    assert!(
        stats.snapshot().evictions > CAPACITY / 2,
        "the reader evicts"
    );
    let skipped = stats.ts_writes_skipped();
    let (hits, gets) = read_beside(reader, filler, ROUNDS);
    let skipped = stats.ts_writes_skipped() - skipped;
    println!("reader: {hits} of {gets} hit, {skipped} timestamps skipped");
    assert!(skipped > gets / 8, "{skipped} timestamps skipped");
    let hit_rate = hits as f64 / gets as f64;
    assert!(
        hit_rate >= EVICTED_EAGER_HIT_RATE - 0.08,
        "reader hit rate {hit_rate:.5} ({hits} of {gets}) against {EVICTED_EAGER_HIT_RATE} with eager timestamps"
    );
}
