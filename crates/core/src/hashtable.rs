//! The sample-friendly hash table (§4.2.1), striped across memory nodes.
//!
//! The table lives in the memory pool; this struct is a cheap client-side
//! descriptor (per-stripe base addresses plus geometry).  Storing the
//! default access metadata next to the slot pointer is what allows
//!
//! * eviction candidates to be sampled with a *single* `RDMA_READ` of
//!   consecutive slots, and
//! * access information to be updated with one `RDMA_WRITE` (stateless
//!   fields) plus one `RDMA_FAA` (the stateful frequency counter).
//!
//! # Striping
//!
//! The bucket space is divided into contiguous **stripes** and each stripe
//! is reserved on the memory node the pool's
//! [`ditto_dm::topology::PoolTopology`] assigns to it.  A key's primary and
//! secondary buckets may then live on different nodes, so the two bucket
//! READs of a lookup fan out to two NICs inside one doorbell batch, and the
//! per-node message load — the throughput ceiling of §5.3 — shrinks to
//! `1/n`-th per node.  Bucket indices, hashes and sampling positions are
//! all computed in the *global* bucket/slot space; only the final
//! address translation consults the stripe map, which is what keeps a
//! striped cache byte-for-byte identical in behaviour to a single-node one.
//!
//! A sampling span of consecutive global slots may cross a stripe
//! boundary; [`SampleFriendlyHashTable::for_span_segments`] splits such a
//! span into per-stripe segments that callers read in one doorbell batch.
//!
//! Stripe placement is **live**: every stripe's base address is held in a
//! shared [`StripeDirectory`], so an online bucket-range migration (see
//! `ditto_dm::migration`) can move a stripe to another memory node while
//! clients keep serving.  Address translation loads the directory entry
//! (one relaxed atomic in steady state); lookups re-check the entry after
//! each bucket fetch and retry when a cutover raced them, and a slot CAS
//! racing a cutover is carried by the stripe's reconcile pass (a key change
//! then lands its hash again at the stripe's new home).  Adding or
//! draining a node therefore rebalances the *existing* lookup message
//! load, not just future placements.

use crate::client::MAX_RETRIES;
use crate::hash::{fnv1a64, secondary_hash};
use crate::slot::{Slot, BUCKET_SIZE, SLOTS_PER_BUCKET, SLOT_SIZE};
use ditto_dm::migration::StripeDirectory;
use ditto_dm::{DmClient, DmResult, MemoryPool, RemoteAddr};
use rand::Rng;
use std::ops::Range;
use std::sync::Arc;

/// Client-side descriptor of the remote hash table.
#[derive(Clone)]
pub struct SampleFriendlyHashTable {
    /// Live base address of each stripe; stripe `s` holds the contiguous
    /// bucket range `[s * buckets_per_stripe, (s + 1) * buckets_per_stripe)`
    /// and may be migrated between nodes while the table serves.
    stripes: Arc<StripeDirectory>,
    num_buckets: u64,
    buckets_per_stripe: u64,
}

impl SampleFriendlyHashTable {
    /// Stripes of a table of at least this many buckets; a smaller table
    /// has one bucket per stripe.  Well above any realistic node count, so
    /// the stripe space keeps addressing every node after online `add_node`
    /// calls (the directory rebalances the stripes over whatever the active
    /// set currently is).
    const STRIPES: u64 = 64;

    /// Most buckets a table may have: the multiply-shift reduction of a
    /// hash's low 32 bits ([`SampleFriendlyHashTable::primary_bucket`])
    /// multiplies them by the bucket count inside a `u64`.
    pub const MAX_BUCKETS: u64 = 1 << 32;

    /// The bucket count of a table asked for at least `min_buckets`: at
    /// least 4, and above the stripe count a multiple of it, so every stripe
    /// is one equal, contiguous bucket range.  A count already so rounded
    /// is its own.
    pub fn bucket_count(min_buckets: u64) -> u64 {
        let n = min_buckets.max(4);
        n.next_multiple_of(n.min(Self::STRIPES))
    }

    /// Reserves and initialises a table of
    /// [`SampleFriendlyHashTable::bucket_count`]`(num_buckets)` buckets,
    /// striped over the pool's active memory nodes as assigned by its
    /// topology.
    pub fn create(pool: &MemoryPool, num_buckets: u64) -> DmResult<Self> {
        let num_buckets = Self::bucket_count(num_buckets);
        let topology = pool.topology();
        let num_stripes = num_buckets.min(Self::STRIPES);
        let buckets_per_stripe = num_buckets / num_stripes;
        let stripe_bytes = buckets_per_stripe * BUCKET_SIZE as u64;
        let mut bases = Vec::with_capacity(num_stripes as usize);
        for s in 0..num_stripes {
            let mn = topology.layout_node(s);
            bases.push(pool.reserve_on(mn, stripe_bytes)?);
        }
        // The stripe directory is told the table's record layout: of each
        // 40-byte slot clients CAS the atomic word alone — its first, at the
        // slot's own address — so that is the only word a stripe cutover
        // has to poison (see [`ditto_dm::RECONCILE_POISON`]); hash,
        // timestamps and frequency are plain data the cutover copies.
        let directory =
            StripeDirectory::new(&bases, stripe_bytes).with_cas_words(SLOT_SIZE as u64, 0);
        Ok(SampleFriendlyHashTable {
            stripes: Arc::new(directory),
            num_buckets,
            buckets_per_stripe,
        })
    }

    /// Base address of the first stripe.
    pub fn base(&self) -> RemoteAddr {
        self.stripes.current(0)
    }

    /// Number of stripes the table is spread over.
    pub fn num_stripes(&self) -> usize {
        self.stripes.num_stripes()
    }

    /// The live stripe directory — the redirect layer that bucket-range
    /// migration moves stripes through (see `ditto_dm::migration`).
    pub fn directory(&self) -> &Arc<StripeDirectory> {
        &self.stripes
    }

    /// The directory entry token of the stripe owning `bucket_idx`; readers
    /// compare it before and after a bucket fetch to detect a cutover that
    /// raced the lookup (client redirect rule 2).
    pub fn bucket_entry_token(&self, bucket_idx: u64) -> u64 {
        self.stripes.entry_token(self.stripe_of_bucket(bucket_idx))
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> u64 {
        self.num_buckets
    }

    /// Total number of slots.
    pub fn num_slots(&self) -> u64 {
        self.num_buckets * SLOTS_PER_BUCKET as u64
    }

    /// Total size of the table in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_buckets * BUCKET_SIZE as u64
    }

    /// Hash of a key as used by the table.
    pub fn hash_key(key: &[u8]) -> u64 {
        fnv1a64(key)
    }

    /// Primary bucket index for a key hash: the multiply-shift range
    /// reduction of its low 32 bits onto `0..num_buckets`, so the bucket is
    /// independent of the fingerprint (bits 56..63) and of the hint table's
    /// set index (bits 0..14), and any bucket count maps evenly.
    pub fn primary_bucket(&self, hash: u64) -> u64 {
        (u64::from(hash as u32) * self.num_buckets) >> 32
    }

    /// Secondary (alternative) bucket index for a key hash: the same
    /// reduction of [`secondary_hash`], stepped to the next bucket when it
    /// lands on the primary.
    pub fn secondary_bucket(&self, hash: u64) -> u64 {
        let idx = self.primary_bucket(secondary_hash(hash));
        if idx == self.primary_bucket(hash) {
            (idx + 1) % self.num_buckets
        } else {
            idx
        }
    }

    /// Address of bucket `bucket_idx`, translated through the live stripe
    /// directory (so a committed stripe migration redirects immediately).
    pub fn bucket_addr(&self, bucket_idx: u64) -> RemoteAddr {
        let bucket_idx = bucket_idx % self.num_buckets;
        let stripe = bucket_idx / self.buckets_per_stripe;
        let within = bucket_idx % self.buckets_per_stripe;
        self.stripes
            .current(stripe)
            .add(within * BUCKET_SIZE as u64)
    }

    /// The memory node that owns bucket `bucket_idx` — the stripe-local
    /// placement hint for the bucket's objects.
    pub fn node_of_bucket(&self, bucket_idx: u64) -> u16 {
        self.bucket_addr(bucket_idx).mn_id
    }

    /// The stripe index of bucket `bucket_idx` — the placement hint.  The
    /// directory's `assigned_node` of the stripe equals
    /// [`SampleFriendlyHashTable::node_of_bucket`] outside a resize (objects
    /// co-locate with their bucket); after an online add/drain it names
    /// the node the stripe's pending move takes it to.
    pub fn stripe_of_bucket(&self, bucket_idx: u64) -> u64 {
        (bucket_idx % self.num_buckets) / self.buckets_per_stripe
    }

    /// Address of slot `slot_idx` within bucket `bucket_idx`.
    pub fn slot_addr(&self, bucket_idx: u64, slot_idx: usize) -> RemoteAddr {
        self.bucket_addr(bucket_idx)
            .add((slot_idx % SLOTS_PER_BUCKET) as u64 * SLOT_SIZE as u64)
    }

    /// Address of the slot with global index `global_idx` (row-major order).
    pub fn global_slot_addr(&self, global_idx: u64) -> RemoteAddr {
        let idx = global_idx % self.num_slots();
        let bucket = idx / SLOTS_PER_BUCKET as u64;
        let slot = idx % SLOTS_PER_BUCKET as u64;
        self.bucket_addr(bucket).add(slot * SLOT_SIZE as u64)
    }

    /// Splits the span of `count` consecutive global slots starting at
    /// `start` into per-node read segments, invoking `f(address, slot_count)`
    /// for each (allocation-free).  Consecutive stripes that happen to be
    /// physically contiguous on the same node (always the case on a
    /// single-node pool) are merged into one segment, so the degenerate
    /// layout keeps the seed's single `RDMA_READ`.
    ///
    /// Callers fetch the segments in one doorbell batch, so sampling stays
    /// a single round trip even when the sample straddles memory nodes.
    pub fn for_span_segments(
        &self,
        start: u64,
        count: usize,
        mut f: impl FnMut(RemoteAddr, usize),
    ) {
        let slots_per_stripe = self.buckets_per_stripe * SLOTS_PER_BUCKET as u64;
        let mut idx = start % self.num_slots();
        let mut remaining = count as u64;
        let mut pending: Option<(RemoteAddr, u64)> = None;
        while remaining > 0 {
            let within = idx % slots_per_stripe;
            let in_stripe = (slots_per_stripe - within).min(remaining);
            let addr = self.global_slot_addr(idx);
            pending = match pending {
                Some((base, slots))
                    if base.mn_id == addr.mn_id
                        && base.offset + slots * SLOT_SIZE as u64 == addr.offset =>
                {
                    Some((base, slots + in_stripe))
                }
                Some((base, slots)) => {
                    f(base, slots as usize);
                    Some((addr, in_stripe))
                }
                None => Some((addr, in_stripe)),
            };
            idx += in_stripe;
            remaining -= in_stripe;
        }
        if let Some((base, slots)) = pending {
            f(base, slots as usize);
        }
    }

    /// Walks every slot of the stripes in `stripes`, bucket by bucket in
    /// index order, reading each bucket with one `RDMA_READ` when the walk
    /// enters it.  Stripes are contiguous bucket ranges, so walking
    /// `0..num_stripes()` reads every bucket of the table, in index order.
    pub fn walk(&self, stripes: Range<u64>) -> SlotWalk {
        let per = self.buckets_per_stripe;
        SlotWalk {
            buckets: stripes.start * per..stripes.end * per,
            addr: RemoteAddr::default(),
            bytes: [0; BUCKET_SIZE],
            slots: 0..0,
        }
    }

    /// Decodes consecutive slots out of `bytes` previously read from `addr`,
    /// appending `(slot address, decoded slot)` pairs to `out` without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a whole number of slots or `out` lacks the
    /// capacity.
    pub fn decode_slots(addr: RemoteAddr, bytes: &[u8], out: &mut impl Extend<(RemoteAddr, Slot)>) {
        assert!(
            bytes.len().is_multiple_of(SLOT_SIZE),
            "partial slot in bucket bytes"
        );
        out.extend(
            bytes
                .chunks_exact(SLOT_SIZE)
                .enumerate()
                .map(|(i, chunk)| (addr.add((i * SLOT_SIZE) as u64), Slot::from_bytes(chunk))),
        );
    }

    /// Whether a bucket read raced a stripe cutover's reconcile pass: any
    /// slot whose atomic word is [`ditto_dm::RECONCILE_POISON`] marks the
    /// whole read as untrustworthy.  The poisoned words themselves decode
    /// as empty slots (a safe default for scans and samplers), but the
    /// get/set search must NOT act on such a view — concluding "key
    /// absent" from a poisoned bucket would let a `Set` complete without
    /// either installing its value or invalidating the carried old entry.
    /// Re-translate through the directory and re-read instead; the window
    /// ends when the in-flight commit flips the stripe entry.
    pub fn bucket_tainted(bytes: &[u8]) -> bool {
        bytes.chunks_exact(SLOT_SIZE).any(|chunk| {
            u64::from_le_bytes(chunk[0..8].try_into().expect("8-byte field"))
                == ditto_dm::RECONCILE_POISON
        })
    }

    /// Picks the span of `count` consecutive slots starting at a uniformly
    /// random position, returning the starting **global slot index** and
    /// the clamped length — the sampling primitive of the client-centric
    /// caching framework.  Positions are drawn in the global slot space so
    /// a striped and a single-node table sample identical candidates;
    /// [`SampleFriendlyHashTable::for_span_segments`] translates the span
    /// into per-node read segments.
    pub fn sample_span<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> (u64, usize) {
        let count = count.clamp(1, self.num_slots() as usize);
        // Keep the read within the table by clamping the starting slot.
        let max_start = self.num_slots() - count as u64;
        let start = if max_start == 0 {
            0
        } else {
            rng.gen_range(0..=max_start)
        };
        (start, count)
    }

    /// Address of the hash field of the slot at `slot_addr`.
    pub fn hash_addr(slot_addr: RemoteAddr) -> RemoteAddr {
        slot_addr.add(crate::slot::OFF_HASH)
    }

    /// Address of the insert-timestamp field of the slot at `slot_addr`.
    pub fn insert_ts_addr(slot_addr: RemoteAddr) -> RemoteAddr {
        slot_addr.add(crate::slot::OFF_INSERT_TS)
    }

    /// Address of the last-access-timestamp field of the slot at `slot_addr`.
    pub fn last_ts_addr(slot_addr: RemoteAddr) -> RemoteAddr {
        slot_addr.add(crate::slot::OFF_LAST_TS)
    }

    /// Address of the frequency field of the slot at `slot_addr`.
    pub fn freq_addr(slot_addr: RemoteAddr) -> RemoteAddr {
        slot_addr.add(crate::slot::OFF_FREQ)
    }
}

/// A walk over the slots of a range of stripes (see
/// [`SampleFriendlyHashTable::walk`]): the current bucket's address and
/// bytes, and the slots of it not yet walked.
pub struct SlotWalk {
    buckets: Range<u64>,
    addr: RemoteAddr,
    bytes: [u8; BUCKET_SIZE],
    slots: Range<usize>,
}

impl SlotWalk {
    /// The walk's next `(slot address, slot)`, reading the next bucket with
    /// `client` when the current one is used up; `None` at the end.  The
    /// table and client are lent per step, so the walker may issue verbs of
    /// its own — and mutate itself — between two slots.
    ///
    /// A bucket READ retries by the one transient-fault rule
    /// ([`DmClient::with_retry`]); a bucket it cannot read — a fail-stopped
    /// node's at once — walks as empty: the callers (forensic scans,
    /// relocation sweeps) prefer a degraded view over a panic.
    pub fn next_slot(
        &mut self,
        table: &SampleFriendlyHashTable,
        client: &DmClient,
    ) -> Option<(RemoteAddr, Slot)> {
        loop {
            if let Some(i) = self.slots.next() {
                let slot = Slot::from_bytes(&self.bytes[i * SLOT_SIZE..(i + 1) * SLOT_SIZE]);
                return Some((self.addr.add((i * SLOT_SIZE) as u64), slot));
            }
            self.addr = table.bucket_addr(self.buckets.next()?);
            let read = client.with_retry(MAX_RETRIES, |dm| {
                dm.try_read_into(self.addr, &mut self.bytes)
            });
            self.slots = 0..read.map_or(0, |()| SLOTS_PER_BUCKET);
        }
    }
}

#[cfg(test)]
impl SampleFriendlyHashTable {
    /// One bucket's slots, read in one fault-free `RDMA_READ`.
    pub(crate) fn bucket_slots(
        &self,
        client: &DmClient,
        bucket_idx: u64,
    ) -> Vec<(RemoteAddr, Slot)> {
        let addr = self.bucket_addr(bucket_idx);
        let mut slots = Vec::with_capacity(SLOTS_PER_BUCKET);
        Self::decode_slots(addr, &client.read(addr, BUCKET_SIZE), &mut slots);
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::AtomicField;
    use ditto_dm::DmConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (MemoryPool, SampleFriendlyHashTable) {
        let pool = MemoryPool::new(DmConfig::small());
        let table = SampleFriendlyHashTable::create(&pool, 64).unwrap();
        (pool, table)
    }

    fn striped_setup(nodes: u16) -> (MemoryPool, SampleFriendlyHashTable) {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(nodes));
        let table = SampleFriendlyHashTable::create(&pool, 64).unwrap();
        (pool, table)
    }

    /// The table of 100 000 objects, 37 504 buckets in 64 stripes of 586,
    /// maps hashes evenly.  Over a million hashes every bucket is some key's
    /// primary, no key's two buckets coincide and the fullest bucket holds
    /// under 2.5 times the mean (these keys reach 1.9).  The keys sharing
    /// one bucket keep their fingerprints spread: the bucket is not made of
    /// the fingerprint's bits.
    #[test]
    fn an_exact_table_maps_hashes_evenly() {
        let config = crate::config::DittoConfig::with_capacity(100_000);
        let pool = MemoryPool::new(DmConfig::small());
        let table = SampleFriendlyHashTable::create(&pool, config.num_buckets()).unwrap();
        assert_eq!(table.num_buckets(), 37_504);
        assert_eq!(table.num_stripes(), 64);
        assert_eq!(table.buckets_per_stripe, 586);
        assert_eq!(table.size_bytes(), 37_504 * 320);

        const HASHES: u64 = 1 << 20;
        let mut load = vec![0u32; 37_504];
        for key in 0..HASHES {
            let h = SampleFriendlyHashTable::hash_key(&key.to_le_bytes());
            let p = table.primary_bucket(h);
            assert_ne!(p, table.secondary_bucket(h), "key {key}");
            load[p as usize] += 1;
        }
        assert!(load.iter().all(|&n| n > 0), "a bucket no key maps to");
        let mean = HASHES as f64 / 37_504.0;
        let fullest = *load.iter().max().unwrap();
        assert!(
            f64::from(fullest) < 2.5 * mean,
            "fullest {fullest}, mean {mean:.1}"
        );

        let bucket = table.primary_bucket(SampleFriendlyHashTable::hash_key(&0u64.to_le_bytes()));
        let mut seen = [false; 256];
        let mut sharing = 0;
        for key in HASHES.. {
            let h = SampleFriendlyHashTable::hash_key(&key.to_le_bytes());
            if table.primary_bucket(h) == bucket {
                seen[crate::hash::fingerprint(h) as usize] = true;
                sharing += 1;
                if sharing == 600 {
                    break;
                }
            }
        }
        let spread = seen.iter().filter(|&&s| s).count();
        assert!(
            spread >= 200,
            "600 keys of bucket {bucket}: {spread} fingerprints"
        );
    }

    #[test]
    fn create_rounds_bucket_count_up() {
        let pool = MemoryPool::new(DmConfig::small());
        let table = SampleFriendlyHashTable::create(&pool, 100).unwrap();
        assert_eq!(table.num_buckets(), 128);
    }

    #[test]
    fn bucket_indices_stay_in_range_and_differ() {
        let (_pool, table) = setup();
        for key in 0..500u64 {
            let h = SampleFriendlyHashTable::hash_key(&key.to_le_bytes());
            let p = table.primary_bucket(h);
            let s = table.secondary_bucket(h);
            assert!(p < table.num_buckets());
            assert!(s < table.num_buckets());
            assert_ne!(p, s, "primary and secondary bucket must differ");
        }
    }

    #[test]
    fn slot_addresses_are_disjoint_and_aligned() {
        let (_pool, table) = setup();
        let a = table.slot_addr(0, 0);
        let b = table.slot_addr(0, 1);
        let c = table.slot_addr(1, 0);
        assert_eq!(b.offset - a.offset, SLOT_SIZE as u64);
        assert_eq!(c.offset - a.offset, BUCKET_SIZE as u64);
        assert_eq!(a.offset % 8, 0);
    }

    #[test]
    fn striped_table_spreads_buckets_over_all_nodes() {
        let (_pool, table) = striped_setup(4);
        assert_eq!(table.num_stripes(), 64);
        // 64 one-bucket stripes round-robin over 4 nodes.
        for bucket in 0..64u64 {
            assert_eq!(table.stripe_of_bucket(bucket), bucket);
            assert_eq!(table.node_of_bucket(bucket), (bucket % 4) as u16);
        }
        // Every bucket address is unique and 8-aligned on its node.
        let mut seen = std::collections::HashSet::new();
        for bucket in 0..64u64 {
            let addr = table.bucket_addr(bucket);
            assert!(seen.insert((addr.mn_id, addr.offset)));
            assert_eq!(addr.offset % 8, 0);
        }
    }

    #[test]
    fn larger_tables_use_contiguous_bucket_ranges_per_stripe() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(4));
        let table = SampleFriendlyHashTable::create(&pool, 512).unwrap();
        assert_eq!(table.num_stripes(), 64);
        // 8 contiguous buckets per stripe, stripes round-robin over nodes.
        for bucket in 0..512u64 {
            assert_eq!(table.stripe_of_bucket(bucket), bucket / 8);
            assert_eq!(table.node_of_bucket(bucket), ((bucket / 8) % 4) as u16);
        }
        // All four nodes carry an equal share of the table.
        for mn in 0..4u16 {
            let buckets = (0..512u64)
                .filter(|&b| table.node_of_bucket(b) == mn)
                .count();
            assert_eq!(buckets, 128);
        }
    }

    #[test]
    fn striped_bucket_contents_roundtrip() {
        let (pool, table) = striped_setup(4);
        let client = pool.connect();
        let slot = Slot {
            atomic: AtomicField::for_object(7, 4, RemoteAddr::new(2, 640)),
            hash: 42,
            insert_ts: 1,
            last_ts: 2,
            freq: 3,
        };
        // Bucket 42 lives on node 2 of the 4-node round-robin layout.
        let addr = table.slot_addr(42, 3);
        assert_eq!(addr.mn_id, 2);
        client.write(addr, &slot.to_bytes());
        let bucket = table.bucket_slots(&client, 42);
        assert_eq!(bucket[3].1, slot);
        assert_eq!(bucket[3].0, addr);
    }

    #[test]
    fn span_segments_split_at_stripe_boundaries_only() {
        let (_pool, table) = striped_setup(4);
        // One-bucket stripes: 8 slots per stripe.
        let slots_per_stripe = SLOTS_PER_BUCKET as u64;
        // A span fully inside one stripe is one segment.
        let mut segs = Vec::new();
        table.for_span_segments(3, 5, |a, n| segs.push((a, n)));
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].1, 5);
        // A span crossing the stripe 0 → 1 boundary splits into two.
        segs.clear();
        table.for_span_segments(slots_per_stripe - 2, 5, |a, n| segs.push((a, n)));
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].1, 2);
        assert_eq!(segs[1].1, 3);
        assert_eq!(segs[0].0.mn_id, 0);
        assert_eq!(segs[1].0.mn_id, 1);
        assert_eq!(segs.iter().map(|(_, n)| n).sum::<usize>(), 5);
    }

    #[test]
    fn span_segments_merge_contiguous_stripes_on_one_node() {
        // On a single-node pool every stripe is physically contiguous, so
        // any span — even one crossing many stripes — is a single READ.
        let (_pool, table) = setup();
        let mut segs = Vec::new();
        table.for_span_segments(5, 30, |a, n| segs.push((a, n)));
        assert_eq!(segs.len(), 1, "single-node spans must merge: {segs:?}");
        assert_eq!(segs[0].1, 30);
        assert_eq!(segs[0].0, table.global_slot_addr(5));
    }

    #[test]
    fn a_walk_roundtrips_a_written_slot() {
        let (pool, table) = setup();
        let client = pool.connect();
        let slot = Slot {
            atomic: AtomicField::for_object(7, 4, RemoteAddr::new(0, 640)),
            hash: 42,
            insert_ts: 1,
            last_ts: 2,
            freq: 3,
        };
        let addr = table.slot_addr(5, 3);
        client.write(addr, &slot.to_bytes());
        // One bucket per stripe: stripe 5 is bucket 5.
        let mut walk = table.walk(5..6);
        let bucket: Vec<_> = std::iter::from_fn(|| walk.next_slot(&table, &client)).collect();
        assert_eq!(bucket.len(), SLOTS_PER_BUCKET);
        assert_eq!(bucket[3], (addr, slot));
        assert_eq!(bucket[0].0, table.slot_addr(5, 0));
        assert!(bucket[0].1.atomic.is_empty());
    }

    /// Walks every slot of `table`, returning how many it saw.
    fn walk_all(table: &SampleFriendlyHashTable, client: &DmClient) -> usize {
        let mut walk = table.walk(0..table.num_stripes() as u64);
        std::iter::from_fn(|| walk.next_slot(table, client)).count()
    }

    /// A walk's bucket READs follow the one transient-fault retry rule:
    /// every faulted READ is retried and booked in `faults().verb_retries`,
    /// and a fail-stopped node's bucket costs one attempt and walks empty.
    #[test]
    fn a_walk_retries_transient_faults_and_gives_up_on_a_dead_node() {
        use ditto_dm::FaultPlan;
        let plan = FaultPlan::seeded(3).with_verb_fail_ppm(250_000);
        let pool = MemoryPool::new(DmConfig::small().with_fault_plan(plan));
        let table = SampleFriendlyHashTable::create(&pool, 64).unwrap();
        let client = pool.connect();
        assert_eq!(walk_all(&table, &client), 64 * SLOTS_PER_BUCKET);
        let faults = pool.stats().faults();
        assert!(
            faults.verb_failures > 0,
            "the plan faults some bucket READs"
        );
        assert_eq!(faults.verb_retries, faults.verb_failures);

        let plan = FaultPlan::seeded(3).with_node_fail_stop(1, 0);
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2).with_fault_plan(plan));
        let table = SampleFriendlyHashTable::create(&pool, 64).unwrap();
        let client = pool.connect();
        let dead = (0..64).filter(|&b| table.node_of_bucket(b) == 1).count();
        assert!(dead > 0);
        assert_eq!(walk_all(&table, &client), (64 - dead) * SLOTS_PER_BUCKET);
        let faults = pool.stats().faults();
        assert_eq!(
            faults.verb_timeouts, dead as u64,
            "one attempt per dead bucket"
        );
        assert_eq!(faults.verb_retries, 0);
    }

    /// The READ segments of one `count`-slot sample drawn with `rng`.
    fn sample_segments(
        table: &SampleFriendlyHashTable,
        rng: &mut StdRng,
        count: usize,
    ) -> (u64, Vec<(RemoteAddr, usize)>) {
        let (start, count) = table.sample_span(rng, count);
        let mut segments = Vec::new();
        table.for_span_segments(start, count, |addr, slots| segments.push((addr, slots)));
        (start, segments)
    }

    #[test]
    fn sampling_uses_one_read_and_returns_count_slots() {
        let span = crate::config::DittoConfig::SAMPLE_SPAN_SLOTS;
        let pool = MemoryPool::new(DmConfig::small());
        // The smallest table there is (four buckets, 32 slots) and a larger one.
        for buckets in [4, 64] {
            let table = SampleFriendlyHashTable::create(&pool, buckets).unwrap();
            for seed in 0..20u64 {
                let (start, segments) =
                    sample_segments(&table, &mut StdRng::seed_from_u64(seed), span);
                // One READ of the whole span, inside the table.
                assert_eq!(segments, [(table.global_slot_addr(start), span)]);
                let end = segments[0].0.offset + (span * SLOT_SIZE) as u64;
                assert!(end <= table.base().offset + table.size_bytes());
            }
            // A span longer than the table is clamped to all of it.
            let slots = table.num_slots() as usize;
            let mut rng = StdRng::seed_from_u64(1);
            assert_eq!(table.sample_span(&mut rng, slots + span), (0, slots));
        }
    }

    #[test]
    fn striped_sampling_matches_single_node_candidates() {
        // Same seed, same geometry: the striped table must sample the same
        // global slot indices as a single-node table, differing only in the
        // physical addresses its READ segments name.
        let (_pool1, single) = setup();
        let (_pool4, striped) = striped_setup(4);
        for seed in 0..20u64 {
            let (s1, one) = sample_segments(&single, &mut StdRng::seed_from_u64(seed), 7);
            let (s4, four) = sample_segments(&striped, &mut StdRng::seed_from_u64(seed), 7);
            assert_eq!(s1, s4, "seed {seed}: the sampled span diverged");
            assert_eq!(one.len(), 1);
            // Segment by segment, in order, the striped READs cover the
            // span's global slots exactly once.
            let mut idx = s4;
            for &(addr, slots) in &four {
                assert_eq!(addr, striped.global_slot_addr(idx), "seed {seed}");
                idx += slots as u64;
            }
            assert_eq!(idx, s4 + 7, "seed {seed}");
        }
    }

    #[test]
    fn field_addresses_match_layout() {
        let slot = RemoteAddr::new(0, 1_000);
        assert_eq!(SampleFriendlyHashTable::hash_addr(slot).offset, 1_008);
        assert_eq!(SampleFriendlyHashTable::insert_ts_addr(slot).offset, 1_016);
        assert_eq!(SampleFriendlyHashTable::last_ts_addr(slot).offset, 1_024);
        assert_eq!(SampleFriendlyHashTable::freq_addr(slot).offset, 1_032);
    }
}
