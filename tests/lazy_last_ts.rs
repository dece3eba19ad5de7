//! The hazard of writing `last_ts` lazily, driven on purpose: a client that
//! only reads, beside one that evicts.
//!
//! A hit skips the timestamp WRITE while the stored timestamp is younger than
//! a sixteenth of the eviction age the client observes (`ditto_core::recency`).
//! A reader that never evicts observes nothing — it goes by its own uptime —
//! so its threshold grows without bound while another client, filling the
//! cache under memory pressure, evicts at an age the reader cannot see.  What
//! keeps the reader's hot keys alive is the rule's second half: its first
//! miss drops the threshold to zero.
//!
//! The two numbers below are measurements of this schedule, and move when
//! fill timing does (the filler's evictions pick victims by priorities that
//! depend on its clock).  To re-derive them: set
//! `ditto_core::recency::LAST_TS_DIVISOR` to `u64::MAX` in a scratch edit —
//! τ = 0, every hit writes; never commit it, there is no knob — run this test
//! with `-- --nocapture` and read `EAGER_HIT_RATE` off the line it prints;
//! restore 16, run it again and read the lazy rate and the skipped count.  Last done when the evicting fill
//! lost a round trip: eager 141 396 of 160 000 as on the commit before (the
//! reader's four `Get`s outlast the filler's `Set` either way, so with every
//! hit writing the shared clock did not move), lazy 142 422 of 160 000 with
//! 26 657 timestamps skipped (141 396 with 37 008 skipped before).

use ditto::cache::{DittoCache, DittoConfig};
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

#[test]
fn a_read_only_client_keeps_its_hot_set_beside_an_evicting_one() {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(CAPACITY), DmConfig::default())
            .unwrap();
    let (mut reader, mut filler) = (cache.client(), cache.client());
    for key in 0..HOT_KEYS {
        filler.set(&key.to_le_bytes(), &[key as u8; 200]);
    }
    // The filler's keys are new every time: each `Set` past capacity evicts,
    // and nothing but the reader's hits tells its hot keys from the filler's
    // one-shot ones.
    let (mut hits, mut gets) = (0u64, 0u64);
    let mut value = Vec::new();
    for round in 0..ROUNDS {
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
    let stats = cache.stats();
    assert!(stats.snapshot().evictions > ROUNDS / 2, "the filler evicts");
    // The reader did go by its uptime for as long as it had not missed
    // (26 657 hits' worth)…
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
