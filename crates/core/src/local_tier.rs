//! The compute-side local cache tier: zero-message hot reads with
//! lease-based coherence.
//!
//! Ditto's remote data path pays at least one RDMA round trip per `Get`
//! even for the hottest keys.  This module adds the decentralized
//! client-side tier DiFache argues for: each [`crate::DittoClient`] owns a
//! fixed-capacity, allocation-free [`LocalTier`] of decoded hot objects in
//! front of the remote path.  A `Get` that hits a coherent tier entry
//! costs **zero network messages**; one whose lease expired costs a single
//! 8-byte slot-word `RDMA_READ` instead of the full bucket-scan + object
//! READ.
//!
//! # Coherence
//!
//! Two mechanisms compose, one per failure domain:
//!
//! * **The [`CoherenceBoard`]** — a shared array of per-key-hash epoch
//!   counters living in compute-side memory (one per
//!   [`crate::DittoCache`], shared by every client of the process).  Every
//!   successful slot-word mutation — a `Set`'s publish CAS, a sampling or
//!   bucket eviction, a failed-update invalidation sweep — bumps the
//!   epoch of the mutated key's hash *after* the CAS lands and *before*
//!   the mutating operation returns.  A tier probe compares the board
//!   epoch against the value captured when the entry was admitted (a
//!   point at which the value was known current); any mismatch drops the
//!   entry.  Because the bump is sequenced before the writer's operation
//!   completes, a reader that begins after a completed `Set` always
//!   observes the bump — local hits linearize against concurrent writers
//!   (enforced by the checker in `tests/local_tier_parity.rs`).  Board
//!   slots are hashed, so a collision only costs a spurious refetch — of
//!   the tier entry *and* of the client's hint for the key
//!   (`client/lookup.rs`, *What the epoch filter costs*), which is why the
//!   board is sized to the hint table, one epoch per hint entry, and not
//!   to the tier: a foreign write then stales the written key and, in a
//!   100 k-key working set, 0.76 others, not 24.
//! * **Leases + slot-word revalidation** — the protocol a real
//!   multi-process deployment needs, where no shared board exists.  Each
//!   entry carries the slot's 8-byte atomic word and a lease in simulated
//!   time.  Within the lease an entry serves locally; past it, the client
//!   re-READs the slot word and serves only on an exact match.  Any
//!   mutation of the slot — a publish CAS, an eviction CAS, a migration
//!   relocation, a stripe cutover's `RECONCILE_POISON` — changes the
//!   word, so the single 8-byte READ detects staleness (conservatively: a
//!   relocation keeps the value intact but still forces a refetch).
//!
//!   A lease is granted on evidence ([`lease_for`]).  An admission is
//!   leased for [`crate::DittoConfig::local_tier_lease_ns`], the *floor*;
//!   each revalidation that finds the word unchanged renews for the floor
//!   or for 1 / [`LEASE_AGE_DIVISOR`] of the time this client has by then
//!   seen that word in that slot, whichever is longer — the adaptive TTL
//!   of web caches.  A key rewritten a moment ago is re-checked after the
//!   floor; one watched sitting still for 10 ms is trusted for 5 ms more,
//!   so a steady key revalidates O(log t) times instead of t / floor.  Any
//!   dropped entry — board mismatch, changed word, CLOCK eviction, the
//!   owner's own `Set` — starts over at the floor.  The board is tested
//!   before the lease, so nothing above changes in-process.  What changes
//!   is the cross-process bound: without a shared board an entry can be
//!   stale for at most `max(lease_ns, observed stable age /
//!   LEASE_AGE_DIVISOR)` — no longer a constant, but never more than half
//!   as long as the value had already gone unwritten.
//!
//! # Admission
//!
//! One fixed rule: a validated remote hit is admitted when this client has
//! read the key repeatedly — the FC cache's buffered per-client frequency
//! estimate ([`crate::fc_cache::FcCache::pending_delta`]) has reached
//! [`FREQ_ADMIT_THRESHOLD`], or the hit made a flush of it due (the key
//! just crossed the flush threshold, so the buffered delta reads as zero
//! again).  A key read once stays remote.  The rule draws no randomness and
//! keeps no state of its own.  On the repo benchmark's `tiered_skew`
//! (seed 42) it serves 957.7k req/sim_s at 1.768 msg/req; admitting every
//! validated hit serves 951.6k at 1.778, and a two-expert regret arbitration
//! between the two, which shared the client's eviction RNG, served 954.8k at
//! 1.772 — between its experts, never above the better one.
//!
//! The tier is **allocation-free in steady state**: entries are
//! preallocated at construction, per-entry key/value buffers grow to the
//! largest object seen (the `obj_buf` idiom), and the hash index is
//! pre-reserved so it never rehashes.

use ditto_dm::RemoteAddr;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Buffered FC-cache increments that make a key hot enough to admit (module
/// docs, *Admission*): it must have been read more than once recently by
/// this client.
pub const FREQ_ADMIT_THRESHOLD: u64 = 2;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shared per-key-hash mutation epochs (see the module docs).  One board
/// per [`crate::DittoCache`]; cheap enough to check on every tier probe
/// (one relaxed atomic load) and to bump on every slot mutation.
#[derive(Debug)]
pub struct CoherenceBoard {
    epochs: Box<[AtomicU64]>,
    mask: usize,
}

impl CoherenceBoard {
    /// Default number of epoch slots: one per entry of a client's hint
    /// table (`client/lookup.rs` asserts the two equal), 1 MiB shared by
    /// the process.  A collision only costs a spurious refetch, but the
    /// board filters every hint as well as every tier entry, so how many
    /// keys share an epoch is how many hints a foreign write kills: at
    /// 4 096 slots a write staled the hints of ~24 keys of a 100 k-key
    /// working set, at this size the written key's and 0.76 others'.
    pub const DEFAULT_SLOTS: usize = 1 << 17;

    /// Creates a board with `slots` epoch counters (rounded up to a power
    /// of two).
    pub fn new(slots: usize) -> Self {
        let slots = slots.next_power_of_two().max(2);
        let mut epochs = Vec::with_capacity(slots);
        epochs.resize_with(slots, AtomicU64::default);
        CoherenceBoard {
            epochs: epochs.into_boxed_slice(),
            mask: slots - 1,
        }
    }

    /// Number of epoch slots.
    pub fn slots(&self) -> usize {
        self.epochs.len()
    }

    /// The epoch slot `key_hash` shares with every key hashing alike.
    pub fn slot(&self, key_hash: u64) -> usize {
        splitmix(key_hash) as usize & self.mask
    }

    /// Current mutation epoch of `key_hash`'s board slot.
    pub fn epoch(&self, key_hash: u64) -> u64 {
        self.epochs[self.slot(key_hash)].load(Ordering::Acquire)
    }

    /// Bumps `key_hash`'s epoch.  Must be called after a successful
    /// slot-word CAS for the key and **before** the mutating operation
    /// returns to its caller — that ordering is what makes local hits
    /// linearizable (module docs).
    pub fn bump(&self, key_hash: u64) {
        self.epochs[self.slot(key_hash)].fetch_add(1, Ordering::Release);
    }
}

/// Outcome of a [`LocalTier::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierProbe {
    /// No coherent entry; take the remote path.
    Absent,
    /// An entry existed but the coherence board saw a slot mutation since
    /// admission: the entry was dropped.  Take the remote path.
    Invalidated,
    /// Served from the tier — the value was copied into the caller's
    /// buffer.  `slot_addr` is the remote slot backing the entry (for
    /// frequency accounting).
    Served {
        /// Remote slot the entry mirrors.
        slot_addr: RemoteAddr,
        /// The slot's `last_ts` as this client last read or wrote it (for
        /// recency accounting; [`LocalTier::note_last_ts`]).
        last_ts: u64,
    },
    /// The entry is board-coherent but its lease expired: revalidate by
    /// READing 8 bytes at `slot_addr` and comparing against `slot_word`
    /// ([`LocalTier::renew_and_serve`] on a match,
    /// [`LocalTier::remove`] on a mismatch).
    LeaseExpired {
        /// Remote slot whose atomic word must be re-read.
        slot_addr: RemoteAddr,
        /// The word the entry was admitted (or last revalidated) under.
        slot_word: u64,
    },
}

#[derive(Debug)]
struct TierEntry {
    occupied: bool,
    hash: u64,
    key: Vec<u8>,
    value: Vec<u8>,
    slot_addr: RemoteAddr,
    slot_word: u64,
    /// When this client first saw `slot_word` at `slot_addr` — what a
    /// renewed lease is measured against ([`lease_for`]).
    stable_since_ns: u64,
    lease_expiry_ns: u64,
    board_epoch: u64,
    /// The remote slot's `last_ts` as this client last read or wrote it.
    last_ts: u64,
    /// CLOCK reference bit.
    referenced: bool,
}

impl TierEntry {
    fn empty() -> Self {
        TierEntry {
            occupied: false,
            hash: 0,
            key: Vec::new(),
            value: Vec::new(),
            slot_addr: RemoteAddr::new(0, 0),
            slot_word: 0,
            stable_since_ns: 0,
            lease_expiry_ns: 0,
            board_epoch: 0,
            last_ts: 0,
            referenced: false,
        }
    }
}

/// What the time an entry's slot word has been seen unchanged is divided by
/// to give its renewed lease.  A constant, not a setting, picked from a sweep
/// of the repo benchmark's `tiered_skew` workload (two clients, YCSB-B,
/// seed 42, 50 µs floor; simulated req/s with the lease rule alone, the
/// fixed 50 µs lease giving 755.3k): 812.6k at 8, 842.2k at 4, 873.6k at 2,
/// 902.0k at 1.  Two is the adaptive-TTL rule of web caches halved — trust
/// for half again as long as the word has already sat still — and keeps the
/// cross-process staleness bound at half the observed age; 1 buys 3 % more
/// by doubling it.  Capping the grown lease at ×4 / ×16 / ×64 / ×256 of the
/// floor on top of 2 gave 858.7k / 905.6k / 944.1k / 954.6k with the larger
/// board, i.e. a cap only gives the gain back: there is none, and none
/// should be added without a sweep of its own.
pub const LEASE_AGE_DIVISOR: u64 = 2;

/// The lease a revalidation grants: never less than the configured floor,
/// and otherwise `1 / divisor` of the time the entry's slot word has been
/// observed unchanged (callers pass [`LEASE_AGE_DIVISOR`]).  A word that
/// changed a moment ago is re-checked after `floor_ns`; one this client has
/// watched sit still for 10 ms is trusted for 5 ms more.
pub fn lease_for(floor_ns: u64, stable_age_ns: u64, divisor: u64) -> u64 {
    floor_ns.max(stable_age_ns / divisor)
}

/// What [`LocalTier::renew_and_serve`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierRenewal {
    /// Remote slot the entry mirrors.
    pub slot_addr: RemoteAddr,
    /// The slot's `last_ts` as this client last read or wrote it.
    pub last_ts: u64,
    /// The lease granted, in simulated ns.
    pub lease_ns: u64,
}

/// A per-client, fixed-capacity store of decoded hot objects (module
/// docs).  Not shared: each client owns one, so no internal locking.
#[derive(Debug)]
pub struct LocalTier {
    entries: Box<[TierEntry]>,
    /// key-hash → entry index; pre-reserved, never rehashes.
    index: HashMap<u64, usize>,
    hand: usize,
    lease_ns: u64,
}

impl LocalTier {
    /// Creates a tier holding up to `capacity` objects, each leased for at
    /// least `lease_ns` simulated nanoseconds ([`lease_for`]).
    pub fn new(capacity: usize, lease_ns: u64) -> Self {
        let capacity = capacity.max(1);
        let mut entries = Vec::with_capacity(capacity);
        entries.resize_with(capacity, TierEntry::empty);
        let mut index = HashMap::new();
        // Reserve past any realistic load factor so steady-state inserts
        // never rehash (the map holds at most `capacity` keys).
        index.reserve(capacity * 2);
        LocalTier {
            entries: entries.into_boxed_slice(),
            index,
            hand: 0,
            lease_ns,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the tier holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Probes for `key`.  On a lease-valid, board-coherent hit the value
    /// is copied into `out` and [`TierProbe::Served`] is returned; see
    /// [`TierProbe`] for the other outcomes.  `board_epoch` is the current
    /// [`CoherenceBoard::epoch`] of the key's hash.
    pub fn probe(
        &mut self,
        hash: u64,
        key: &[u8],
        now_ns: u64,
        board_epoch: u64,
        out: &mut Vec<u8>,
    ) -> TierProbe {
        let Some(&idx) = self.index.get(&hash) else {
            return TierProbe::Absent;
        };
        let entry = &mut self.entries[idx];
        if entry.key != key {
            // A key-hash collision; the resident entry keeps its slot.
            return TierProbe::Absent;
        }
        if entry.board_epoch != board_epoch {
            self.remove_at(idx);
            return TierProbe::Invalidated;
        }
        if now_ns <= entry.lease_expiry_ns {
            entry.referenced = true;
            out.clear();
            out.extend_from_slice(&entry.value);
            return TierProbe::Served {
                slot_addr: entry.slot_addr,
                last_ts: entry.last_ts,
            };
        }
        TierProbe::LeaseExpired {
            slot_addr: entry.slot_addr,
            slot_word: entry.slot_word,
        }
    }

    /// Completes a successful revalidation (the re-read slot word matched):
    /// renews the lease — for longer the longer the word has been seen
    /// unchanged ([`lease_for`]) — re-anchors the board epoch — the value
    /// is known current as of the revalidation READ — and serves the value
    /// into `out`.  Must follow a [`TierProbe::LeaseExpired`] probe for
    /// `hash` with no intervening tier mutation.
    pub fn renew_and_serve(
        &mut self,
        hash: u64,
        now_ns: u64,
        board_epoch: u64,
        out: &mut Vec<u8>,
    ) -> TierRenewal {
        let idx = self.index[&hash];
        let entry = &mut self.entries[idx];
        let stable_age_ns = now_ns.saturating_sub(entry.stable_since_ns);
        let lease_ns = lease_for(self.lease_ns, stable_age_ns, LEASE_AGE_DIVISOR);
        entry.lease_expiry_ns = now_ns + lease_ns;
        entry.board_epoch = board_epoch;
        entry.referenced = true;
        out.clear();
        out.extend_from_slice(&entry.value);
        TierRenewal {
            slot_addr: entry.slot_addr,
            last_ts: entry.last_ts,
            lease_ns,
        }
    }

    /// Records that the client just wrote `last_ts` into the remote slot
    /// `hash`'s entry mirrors.
    pub fn note_last_ts(&mut self, hash: u64, last_ts: u64) {
        if let Some(&idx) = self.index.get(&hash) {
            self.entries[idx].last_ts = last_ts;
        }
    }

    /// Drops the entry for `hash`, if present (failed revalidation, or a
    /// writer invalidating its own copy before a `Set`).
    pub fn remove(&mut self, hash: u64) {
        if let Some(&idx) = self.index.get(&hash) {
            self.remove_at(idx);
        }
    }

    fn remove_at(&mut self, idx: usize) {
        let entry = &mut self.entries[idx];
        entry.occupied = false;
        entry.referenced = false;
        self.index.remove(&entry.hash);
    }

    /// Admits (or refreshes) an entry for `key`, leased for exactly the
    /// floor.  `board_epoch` must have been captured **before** the object
    /// bytes were read — admission anchors coherence to a point where the
    /// value was provably current.  `last_ts` is the slot's last-access
    /// timestamp as the admitting `Get` read or rewrote it.  The entry's
    /// stable age starts at `now_ns` — a dropped entry's successor starts
    /// over — unless a resident entry is re-admitted under the same slot
    /// address and word.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &mut self,
        hash: u64,
        key: &[u8],
        value: &[u8],
        slot_addr: RemoteAddr,
        slot_word: u64,
        last_ts: u64,
        now_ns: u64,
        board_epoch: u64,
    ) {
        let idx = match self.index.get(&hash) {
            Some(&idx) => {
                if self.entries[idx].key != key {
                    // Hash collision with a resident entry: keep the
                    // incumbent (evicting on a collision would let two
                    // keys thrash one slot).
                    return;
                }
                idx
            }
            None => {
                let idx = self.clock_victim();
                if self.entries[idx].occupied {
                    self.remove_at(idx);
                }
                self.index.insert(hash, idx);
                idx
            }
        };
        let entry = &mut self.entries[idx];
        if !(entry.occupied && entry.slot_addr == slot_addr && entry.slot_word == slot_word) {
            entry.stable_since_ns = now_ns;
        }
        entry.occupied = true;
        entry.hash = hash;
        entry.key.clear();
        entry.key.extend_from_slice(key);
        entry.value.clear();
        entry.value.extend_from_slice(value);
        entry.slot_addr = slot_addr;
        entry.slot_word = slot_word;
        entry.lease_expiry_ns = now_ns + self.lease_ns;
        entry.board_epoch = board_epoch;
        entry.last_ts = last_ts;
        entry.referenced = true;
    }

    /// CLOCK second chance over the preallocated entry array.
    fn clock_victim(&mut self) -> usize {
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.entries.len();
            let entry = &mut self.entries[idx];
            if !entry.occupied {
                return idx;
            }
            if entry.referenced {
                entry.referenced = false;
                continue;
            }
            return idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> RemoteAddr {
        RemoteAddr::new(0, 64 * i)
    }

    fn served(i: u64) -> TierProbe {
        TierProbe::Served {
            slot_addr: addr(i),
            last_ts: 0,
        }
    }

    fn tier(capacity: usize, lease_ns: u64) -> LocalTier {
        LocalTier::new(capacity, lease_ns)
    }

    #[test]
    fn probe_miss_then_admit_then_hit() {
        let board = CoherenceBoard::new(64);
        let mut t = tier(4, 1_000);
        let mut out = Vec::new();
        assert_eq!(
            t.probe(7, b"k", 0, board.epoch(7), &mut out),
            TierProbe::Absent
        );
        t.admit(7, b"k", b"value", addr(1), 42, 0, 0, board.epoch(7));
        let probe = t.probe(7, b"k", 500, board.epoch(7), &mut out);
        assert_eq!(probe, served(1));
        assert_eq!(out, b"value");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn board_bump_invalidates() {
        let board = CoherenceBoard::new(64);
        let mut t = tier(4, 1_000);
        let mut out = Vec::new();
        t.admit(7, b"k", b"v1", addr(1), 42, 0, 0, board.epoch(7));
        board.bump(7);
        assert_eq!(
            t.probe(7, b"k", 100, board.epoch(7), &mut out),
            TierProbe::Invalidated
        );
        // The entry is gone; the next probe is a plain miss.
        assert_eq!(
            t.probe(7, b"k", 100, board.epoch(7), &mut out),
            TierProbe::Absent
        );
        assert!(t.is_empty());
    }

    #[test]
    fn expired_lease_revalidates_and_renews() {
        let board = CoherenceBoard::new(64);
        let mut t = tier(4, 1_000);
        let mut out = Vec::new();
        t.admit(7, b"k", b"v1", addr(1), 42, 0, 0, board.epoch(7));
        let probe = t.probe(7, b"k", 2_000, board.epoch(7), &mut out);
        assert_eq!(
            probe,
            TierProbe::LeaseExpired {
                slot_addr: addr(1),
                slot_word: 42
            }
        );
        // Word matched remotely: renew and serve.
        let renewal = t.renew_and_serve(7, 2_000, board.epoch(7), &mut out);
        assert_eq!(
            renewal,
            TierRenewal {
                slot_addr: addr(1),
                last_ts: 0,
                lease_ns: 1_000
            }
        );
        assert_eq!(out, b"v1");
        // Lease runs from the renewal.
        assert_eq!(t.probe(7, b"k", 2_500, board.epoch(7), &mut out), served(1));
    }

    /// Admits key 7 (`b"k"`) at slot 1 under `word`, at `now`.
    fn admit_at(t: &mut LocalTier, board: &CoherenceBoard, word: u64, now: u64) {
        t.admit(7, b"k", b"v", addr(1), word, 0, now, board.epoch(7));
    }

    /// Probes key 7 at `now`; on an expired lease, revalidates as the client
    /// does when the remote word still matches and returns the lease granted.
    fn probe_renewing(t: &mut LocalTier, board: &CoherenceBoard, now: u64) -> Option<u64> {
        let mut out = Vec::new();
        match t.probe(7, b"k", now, board.epoch(7), &mut out) {
            TierProbe::Served { .. } => None,
            TierProbe::LeaseExpired { .. } => {
                Some(t.renew_and_serve(7, now, board.epoch(7), &mut out).lease_ns)
            }
            other => panic!("entry lost: {other:?}"),
        }
    }

    #[test]
    fn lease_is_the_floor_at_age_zero_monotone_in_age_and_never_below_the_floor() {
        for divisor in [1, 2, 4, 8] {
            assert_eq!(lease_for(50_000, 0, divisor), 50_000);
            let mut last = 0;
            for age in (0..40).map(|shift| 1u64 << shift).chain([u64::MAX]) {
                let lease = lease_for(50_000, age, divisor);
                assert!(lease >= 50_000 && lease >= last, "age {age} / {divisor}");
                assert!(lease == 50_000 || lease == age / divisor);
                last = lease;
            }
        }
        // 10 ms of observed stability buys 5 ms more; a moment's buys the floor.
        assert_eq!(lease_for(50_000, 10_000_000, LEASE_AGE_DIVISOR), 5_000_000);
        assert_eq!(lease_for(50_000, 60_000, LEASE_AGE_DIVISOR), 50_000);
    }

    /// The sweep behind [`LEASE_AGE_DIVISOR`], in miniature: how many of a
    /// steady key's reads — one every 60 µs for 100 ms, each past the 50 µs
    /// floor — have to revalidate.  (The constant's docs carry the repo
    /// benchmark's numbers: 812.6k / 842.2k / 873.6k / 902.0k simulated
    /// req/s on `tiered_skew` at 8 / 4 / 2 / 1, against 755.3k for the fixed
    /// lease — every step here buys less there, since what a grown lease
    /// cannot outlast is the other client's next write.)
    #[test]
    fn lease_divisor_sweep_cuts_a_steady_keys_revalidations_to_a_logarithm() {
        let (floor, gap, reads) = (50_000u64, 60_000u64, 1_667u64);
        let revalidations = |divisor: u64| {
            let (mut expiry, mut count) = (floor, 0);
            for now in (1..=reads).map(|i| i * gap) {
                if now > expiry {
                    count += 1;
                    expiry = now + lease_for(floor, now, divisor);
                }
            }
            count
        };
        assert_eq!(
            revalidations(u64::MAX),
            reads,
            "the fixed lease: every read"
        );
        let swept: Vec<u64> = [8, 4, 2, 1].into_iter().map(revalidations).collect();
        assert_eq!(swept, [49, 28, 17, 10]);
    }

    #[test]
    fn a_steady_entry_is_asked_to_revalidate_logarithmically_often() {
        let board = CoherenceBoard::new(64);
        let (floor, gap, probes) = (1_000u64, 1_500u64, 10_000u64);
        let mut t = tier(4, floor);
        admit_at(&mut t, &board, 42, 0);
        // Every probe comes later than the floor after the one before: a
        // fixed lease would revalidate all 10 000 times.
        let granted: Vec<u64> = (1..=probes)
            .filter_map(|i| probe_renewing(&mut t, &board, i * gap))
            .collect();
        assert!(
            (10..40).contains(&granted.len()),
            "{} revalidations",
            granted.len()
        );
        assert_eq!(granted[0], floor, "age 1.5 floors: still the floor");
        assert!(granted.windows(2).all(|w| w[0] <= w[1]));
        assert!(*granted.last().unwrap() > 1_000 * floor);
    }

    #[test]
    fn a_dropped_entrys_successor_starts_at_the_floor() {
        let board = CoherenceBoard::new(64);
        let floor = 1_000;
        let mut out = Vec::new();
        let mut t = tier(4, floor);
        admit_at(&mut t, &board, 42, 0);
        assert_eq!(probe_renewing(&mut t, &board, 1_000_000), Some(500_000));

        // A board bump drops the entry however long its lease…
        board.bump(7);
        assert_eq!(
            t.probe(7, b"k", 1_000_001, board.epoch(7), &mut out),
            TierProbe::Invalidated
        );
        // …and the entry admitted in its place has earned nothing yet.
        admit_at(&mut t, &board, 43, 1_000_100);
        assert_eq!(probe_renewing(&mut t, &board, 1_001_100), None);
        assert_eq!(probe_renewing(&mut t, &board, 1_001_101), Some(floor));
        assert_eq!(probe_renewing(&mut t, &board, 3_000_100), Some(1_000_000));

        // So does a failed revalidation (the client removes the entry when
        // the re-read word differs).
        assert!(matches!(
            t.probe(7, b"k", 5_000_000, board.epoch(7), &mut out),
            TierProbe::LeaseExpired { slot_word: 43, .. }
        ));
        t.remove(7);
        admit_at(&mut t, &board, 44, 5_000_000);
        assert_eq!(probe_renewing(&mut t, &board, 5_001_001), Some(floor));
    }

    #[test]
    fn readmission_under_the_same_address_and_word_keeps_the_stable_age() {
        let board = CoherenceBoard::new(64);
        let floor = 1_000;
        let mut t = tier(4, floor);
        admit_at(&mut t, &board, 42, 0);
        // The same word at the same slot: what was observed still stands,
        // though the admission itself is leased for exactly the floor.
        admit_at(&mut t, &board, 42, 10_000);
        assert_eq!(probe_renewing(&mut t, &board, 11_000), None);
        assert_eq!(probe_renewing(&mut t, &board, 11_001), Some(5_500));
        // A different word — or the same word at another slot — starts over.
        admit_at(&mut t, &board, 43, 20_000);
        assert_eq!(probe_renewing(&mut t, &board, 21_001), Some(floor));
        t.admit(7, b"k", b"v", addr(2), 43, 0, 30_000, board.epoch(7));
        assert_eq!(probe_renewing(&mut t, &board, 31_001), Some(floor));
    }

    #[test]
    fn remove_drops_the_entry() {
        let board = CoherenceBoard::new(64);
        let mut t = tier(4, 1_000);
        let mut out = Vec::new();
        t.admit(7, b"k", b"v1", addr(1), 42, 0, 0, board.epoch(7));
        t.remove(7);
        assert_eq!(
            t.probe(7, b"k", 0, board.epoch(7), &mut out),
            TierProbe::Absent
        );
    }

    #[test]
    fn clock_eviction_bounds_capacity() {
        let board = CoherenceBoard::new(64);
        let mut t = tier(2, 1_000);
        let mut out = Vec::new();
        for i in 0..10u64 {
            t.admit(i, &i.to_le_bytes(), b"v", addr(i), i, 0, 0, board.epoch(i));
        }
        assert_eq!(t.len(), 2);
        // Second chance: each admission clears both reference bits and takes
        // the older entry's place, so the two newest keys are what is left.
        for i in 0..10u64 {
            let probe = t.probe(i, &i.to_le_bytes(), 0, board.epoch(i), &mut out);
            assert_eq!(probe == served(i), i >= 8, "key {i}: {probe:?}");
        }
    }

    #[test]
    fn hash_collision_keeps_incumbent() {
        let board = CoherenceBoard::new(64);
        let mut t = tier(4, 1_000);
        let mut out = Vec::new();
        t.admit(7, b"alpha", b"v-alpha", addr(1), 1, 0, 0, board.epoch(7));
        // A different key with the same (unlikely in practice) hash:
        // neither admitted nor served.
        t.admit(7, b"beta", b"v-beta", addr(2), 2, 0, 0, board.epoch(7));
        assert_eq!(
            t.probe(7, b"beta", 0, board.epoch(7), &mut out),
            TierProbe::Absent
        );
        assert_eq!(t.probe(7, b"alpha", 0, board.epoch(7), &mut out), served(1));
        assert_eq!(out, b"v-alpha");
    }

    #[test]
    fn readmission_refreshes_value_in_place() {
        let board = CoherenceBoard::new(64);
        let mut t = tier(4, 1_000);
        let mut out = Vec::new();
        t.admit(7, b"k", b"v1", addr(1), 1, 0, 0, board.epoch(7));
        t.admit(7, b"k", b"v2-longer", addr(1), 2, 0, 10, board.epoch(7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.probe(7, b"k", 20, board.epoch(7), &mut out), served(1));
        assert_eq!(out, b"v2-longer");
    }

    #[test]
    fn board_epochs_are_independent_per_hash_slot() {
        let board = CoherenceBoard::new(4096);
        let (a, b) = (1u64, 2u64);
        let ea = board.epoch(a);
        board.bump(b);
        assert_eq!(board.epoch(a), ea, "bumping b must not disturb a");
        assert_eq!(board.epoch(b), 1);
    }
}
