//! Synchronous doorbell batches: the post-all/wait-all convenience over the
//! posted-WQE model.
//!
//! The primitive data-path abstraction of this crate is the posted-work
//! model in [`crate::wqe`] / [`crate::cq`]: WQEs are posted signalled or
//! unsignalled, one doorbell starts them, and the client polls the
//! completion queue when — and only when — it actually needs a result,
//! overlapping CPU work with the in-flight transfers.
//!
//! [`BatchBuilder`] is the **synchronous compatibility wrapper** over that
//! model: it queues up to [`MAX_BATCH`] verbs (the same inline, zero-
//! allocation representation the [`crate::WorkQueue`] uses) and then
//!
//! * [`BatchBuilder::execute`] behaves like *post all → ring → immediately
//!   drain every completion with a free poll*: it charges `fanout ×
//!   doorbell_latency_ns + n × verb_issue_ns + max(per-verb transfer
//!   latency)` in one step — where `fanout` is the number of **distinct
//!   memory nodes** touched (one doorbell per node; the transfers overlap
//!   across the NICs) — and records the batch size and fan-out in the pool
//!   statistics.  In NIC terms only the last WQE is signalled and the
//!   client spins on it right away, which is why no post-to-poll CPU work
//!   can be hidden: that overlap is exactly what the posted model buys and
//!   this wrapper gives up (deliberately — it is the ablation baseline for
//!   the pipelined hot paths).
//! * [`BatchBuilder::execute_sequential`] issues the same verbs one
//!   signalled round trip at a time, charging the sum of the individual
//!   round trips — the ablation used by the `enable_doorbell_batching =
//!   false` configuration to quantify what batching buys.
//!
//! Either way every verb still consumes one RNIC message on the target
//! memory node: doorbell batching saves *latency*, not message rate.  What
//! multi-node fan-out buys on top is *message-rate headroom*: a batch that
//! spreads its verbs over `k` nodes burdens each RNIC with only its own
//! share, which is how the throughput ceiling scales with pool size once
//! the hash table and segments are striped (see `ditto_dm::topology`).
//!
//! Unlike the auto-ringing [`crate::WorkQueue`], a full batch reports a
//! typed [`DmError::BatchFull`] from its queueing methods, letting callers
//! flush and continue instead of aborting.

use crate::addr::RemoteAddr;
use crate::client::DmClient;
use crate::error::{DmError, DmResult};
use crate::wqe::{WqeOp, MAX_WQES};

/// Maximum verbs per doorbell batch (same bound as [`MAX_WQES`]).
pub const MAX_BATCH: usize = MAX_WQES;

/// An in-flight doorbell batch of independent verbs (see the module docs).
///
/// Obtained from [`DmClient::batch`]; dropped without executing, it issues
/// nothing.
pub struct BatchBuilder<'client, 'buf> {
    client: &'client DmClient,
    ops: [Option<WqeOp<'buf>>; MAX_BATCH],
    len: usize,
}

impl<'client, 'buf> BatchBuilder<'client, 'buf> {
    pub(crate) fn new(client: &'client DmClient) -> Self {
        BatchBuilder {
            client,
            ops: [const { None }; MAX_BATCH],
            len: 0,
        }
    }

    fn push(&mut self, op: WqeOp<'buf>) -> DmResult<()> {
        if self.len >= MAX_BATCH {
            return Err(DmError::BatchFull { max: MAX_BATCH });
        }
        self.ops[self.len] = Some(op);
        self.len += 1;
        Ok(())
    }

    /// Number of verbs queued so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues a one-sided `RDMA_READ` of `buf.len()` bytes into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::BatchFull`] when the batch already holds
    /// [`MAX_BATCH`] verbs; execute what is queued and start a new batch.
    pub fn read_into(&mut self, addr: RemoteAddr, buf: &'buf mut [u8]) -> DmResult<&mut Self> {
        self.push(WqeOp::Read { addr, buf })?;
        Ok(self)
    }

    /// Queues a one-sided `RDMA_WRITE` of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::BatchFull`] when the batch is full.
    pub fn write(&mut self, addr: RemoteAddr, data: &'buf [u8]) -> DmResult<&mut Self> {
        self.push(WqeOp::Write { addr, data })?;
        Ok(self)
    }

    /// Queues an `RDMA_FAA` of `delta` (the old value is discarded; use
    /// [`DmClient::faa`] when the result matters, since a fetched result
    /// would have to be awaited and could not overlap the batch anyway).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::BatchFull`] when the batch is full.
    pub fn faa(&mut self, addr: RemoteAddr, delta: u64) -> DmResult<&mut Self> {
        let out = None;
        self.push(WqeOp::Faa { addr, delta, out })?;
        Ok(self)
    }

    /// The distinct memory nodes this batch touches, in first-appearance
    /// order (allocation-free; one pass over the queued verbs).
    fn distinct_nodes(&self) -> ([u16; MAX_BATCH], usize) {
        let mut nodes = [0u16; MAX_BATCH];
        let mut count = 0;
        for op in self.ops[..self.len].iter().flatten() {
            let mn = op.mn_id();
            if !nodes[..count].contains(&mn) {
                nodes[count] = mn;
                count += 1;
            }
        }
        (nodes, count)
    }

    /// Number of distinct memory nodes this batch fans out to (one doorbell
    /// is charged per distinct node).
    pub fn fanout(&self) -> usize {
        self.distinct_nodes().1
    }

    fn batched_latency_with_fanout(&self, fanout: usize) -> u64 {
        let cfg = self.client.config();
        let max_transfer = self.transfer_latencies_max();
        cfg.fanout_batch_latency_ns(self.len, fanout, max_transfer)
    }

    /// Latency this batch will charge when executed as one doorbell batch.
    pub fn batched_latency_ns(&self) -> u64 {
        self.batched_latency_with_fanout(self.fanout())
    }

    /// Latency this batch will charge when executed verb-by-verb.
    pub fn sequential_latency_ns(&self) -> u64 {
        self.transfer_latencies_sum()
    }

    fn transfer_latencies_max(&self) -> u64 {
        let cfg = self.client.config();
        self.ops[..self.len]
            .iter()
            .flatten()
            .map(|op| op.transfer_ns(cfg))
            .max()
            .unwrap_or(0)
    }

    fn transfer_latencies_sum(&self) -> u64 {
        let cfg = self.client.config();
        self.ops[..self.len]
            .iter()
            .flatten()
            .map(|op| op.transfer_ns(cfg))
            .sum()
    }

    /// Executes the batch as one doorbell batch, surfacing injected faults:
    /// charges `fanout × doorbell + n × issue + max(transfer)` to the client
    /// clock (a timed-out member additionally stretches the batch by the
    /// retransmission window — the synchronous poster spins until the NIC
    /// gives up on it), one RNIC message per verb to the target nodes, and
    /// records the batch size and per-node doorbells.
    ///
    /// Faulted members do not execute; the remaining members still do
    /// (independent verbs, independent fates — as with per-WQE error CQEs).
    /// Returns the latency charged, or the **first** fault in posting order
    /// after the whole batch has been charged and the healthy members have
    /// executed.
    pub fn try_execute(self) -> DmResult<u64> {
        if self.len == 0 {
            return Ok(0);
        }
        let (nodes, fanout) = self.distinct_nodes();
        let client = self.client;
        let cfg = client.config();
        let stats = client.pool().stats();
        let injector = client.pool().fault_injector();
        stats.record_batch(self.len, fanout);
        for &mn in &nodes[..fanout] {
            stats.record_node_doorbell(mn);
        }
        let n = self.len;
        let mut signalled = n;
        let mut max_transfer = 0;
        let mut timeout_stretch = 0;
        let mut first_err = None;
        for op in self.ops.into_iter().flatten() {
            let mn = op.mn_id();
            stats.record_verb(mn, op.kind(), op.payload_len());
            // Only the last WQE of a synchronous batch carries a signal.
            signalled -= 1;
            stats.record_wqe(signalled == 0);
            let (factor_pct, err) = client.inject(mn);
            max_transfer = max_transfer.max(op.transfer_ns(cfg) * factor_pct / 100);
            match err {
                None => op.perform(client),
                Some(e) => {
                    if matches!(e, DmError::VerbTimeout { .. }) {
                        stats.record_verb_timeout(mn);
                        timeout_stretch = injector.timeout_ns();
                    } else {
                        stats.record_verb_failure(mn);
                    }
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        let latency = cfg.fanout_batch_latency_ns(n, fanout, max_transfer) + timeout_stretch;
        client.advance_ns(latency);
        match first_err {
            Some(e) => Err(e),
            None => Ok(latency),
        }
    }

    /// Executes the same verbs one signalled round trip at a time, charging
    /// the sum of the individual latencies (no doorbell accounting) and
    /// surfacing injected faults.  Every member is issued — a faulted verb
    /// does not stop the ones after it — and the first fault in issue order
    /// is returned at the end.
    pub fn try_execute_sequential(self) -> DmResult<u64> {
        if self.len == 0 {
            return Ok(0);
        }
        let client = self.client;
        let cfg = client.config();
        let stats = client.pool().stats();
        let injector = client.pool().fault_injector();
        let mut latency = 0;
        let mut first_err = None;
        for op in self.ops.into_iter().flatten() {
            let mn = op.mn_id();
            stats.record_verb(mn, op.kind(), op.payload_len());
            stats.record_wqe(true);
            let (factor_pct, err) = client.inject(mn);
            latency += op.transfer_ns(cfg) * factor_pct / 100;
            match err {
                None => op.perform(client),
                Some(e) => {
                    if matches!(e, DmError::VerbTimeout { .. }) {
                        stats.record_verb_timeout(mn);
                        latency += injector.timeout_ns();
                    } else {
                        stats.record_verb_failure(mn);
                    }
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        client.advance_ns(latency);
        match first_err {
            Some(e) => Err(e),
            None => Ok(latency),
        }
    }

    /// Fault-surfacing [`BatchBuilder::execute_mode`]: batched or
    /// sequential depending on `batched`.
    pub fn try_execute_mode(self, batched: bool) -> DmResult<u64> {
        if batched {
            self.try_execute()
        } else {
            self.try_execute_sequential()
        }
    }

    /// Executes the batch as one doorbell batch (see
    /// [`BatchBuilder::try_execute`]).  Returns the latency charged.
    ///
    /// # Panics
    ///
    /// Panics if a fault is injected into any member — fault-aware callers
    /// use [`BatchBuilder::try_execute`].
    pub fn execute(self) -> u64 {
        self.try_execute()
            .unwrap_or_else(|e| panic!("doorbell batch failed: {e}"))
    }

    /// Executes the same verbs one signalled round trip at a time (see
    /// [`BatchBuilder::try_execute_sequential`]).
    ///
    /// # Panics
    ///
    /// Panics if a fault is injected into any member.
    pub fn execute_sequential(self) -> u64 {
        self.try_execute_sequential()
            .unwrap_or_else(|e| panic!("sequential batch failed: {e}"))
    }

    /// Executes batched or sequentially depending on `batched` — the hook
    /// for configuration toggles.
    ///
    /// # Panics
    ///
    /// Panics if a fault is injected into any member (see
    /// [`BatchBuilder::try_execute_mode`]).
    pub fn execute_mode(self, batched: bool) -> u64 {
        if batched {
            self.execute()
        } else {
            self.execute_sequential()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmConfig;
    use crate::pool::MemoryPool;

    fn pool() -> MemoryPool {
        MemoryPool::new(DmConfig::small())
    }

    #[test]
    fn empty_batch_is_free() {
        let pool = pool();
        let client = pool.connect();
        let charged = client.batch().execute();
        assert_eq!(charged, 0);
        assert_eq!(client.now_ns(), 0);
        assert_eq!(pool.stats().doorbells(), 0);
    }

    #[test]
    fn batched_reads_charge_doorbell_plus_max() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(4096).unwrap();
        client.write(a, &[7u8; 4096]);
        let t0 = client.now_ns();
        let cfg = client.config().clone();

        let mut small = [0u8; 64];
        let mut large = [0u8; 4096];
        let mut batch = client.batch();
        batch.read_into(a, &mut small).unwrap();
        batch.read_into(a, &mut large).unwrap();
        let charged = batch.execute();

        let expected = cfg.doorbell_latency_ns
            + 2 * cfg.verb_issue_ns
            + cfg.transfer_latency_ns(cfg.read_latency_ns, 4096);
        assert_eq!(charged, expected);
        assert_eq!(client.now_ns() - t0, expected);
        assert_eq!(small, [7u8; 64]);
        assert_eq!(&large[..], &[7u8; 4096][..]);
        // Both verbs still consumed RNIC messages; one doorbell was rung.
        assert_eq!(pool.stats().doorbells(), 1);
        assert_eq!(pool.stats().batched_verbs(), 2);
        assert_eq!(pool.stats().largest_batch(), 2);
        assert_eq!(pool.stats().node_snapshots()[0].reads, 2);
        // A synchronous batch signals only its last WQE.
        assert_eq!(pool.stats().signalled_wqes(), 1);
        assert_eq!(pool.stats().unsignalled_wqes(), 1);
    }

    #[test]
    fn sequential_execution_charges_the_sum() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(256).unwrap();
        let cfg = client.config().clone();

        let mut b1 = [0u8; 64];
        let mut b2 = [0u8; 64];
        let mut batch = client.batch();
        batch.read_into(a, &mut b1).unwrap();
        batch.read_into(a.add(64), &mut b2).unwrap();
        let charged = batch.execute_sequential();

        assert_eq!(
            charged,
            2 * cfg.transfer_latency_ns(cfg.read_latency_ns, 64)
        );
        assert_eq!(
            pool.stats().doorbells(),
            0,
            "sequential mode rings no doorbell"
        );
        assert_eq!(pool.stats().node_snapshots()[0].reads, 2);
    }

    #[test]
    fn batch_is_cheaper_than_sequential_for_independent_verbs() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(1024).unwrap();
        let mut bufs = [[0u8; 64]; 5];
        let mut batch = client.batch();
        for (i, buf) in bufs.iter_mut().enumerate() {
            batch.read_into(a.add(i as u64 * 64), buf).unwrap();
        }
        let batched = batch.batched_latency_ns();
        let sequential = batch.sequential_latency_ns();
        assert!(
            batched * 2 < sequential,
            "5-verb batch should be >2x cheaper: {batched} vs {sequential}"
        );
        batch.execute();
    }

    #[test]
    fn mixed_batch_performs_writes_and_faa() {
        let pool = pool();
        let client = pool.connect();
        let obj = pool.reserve(128).unwrap();
        let counter = pool.reserve(8).unwrap();
        let mut readback = [0u8; 8];
        client.write(counter, &0u64.to_le_bytes());

        let mut batch = client.batch();
        batch
            .write(obj, b"payload!")
            .unwrap()
            .faa(counter, 5)
            .unwrap()
            .read_into(obj.add(64), &mut readback)
            .unwrap();
        let n = batch.len();
        assert_eq!(n, 3);
        batch.execute();

        assert_eq!(client.read(obj, 8), b"payload!");
        assert_eq!(client.read_u64(counter), 5);
        let snap = &pool.stats().node_snapshots()[0];
        assert_eq!(snap.writes, 2); // setup write + batched write
        assert_eq!(snap.faa, 1);
    }

    #[test]
    fn read_batch_convenience_reads_all_buffers() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(256).unwrap();
        client.write(a, &[1u8; 128]);
        let (mut x, mut y) = ([0u8; 64], [0u8; 64]);
        client.read_batch([(a, &mut x[..]), (a.add(64), &mut y[..])]);
        assert_eq!(x, [1u8; 64]);
        assert_eq!(y, [1u8; 64]);
        assert_eq!(pool.stats().doorbells(), 1);
    }

    #[test]
    fn multi_node_batch_charges_one_doorbell_per_node() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let client = pool.connect();
        let a = pool.reserve_on(0, 64).unwrap();
        let b = pool.reserve_on(1, 64).unwrap();
        let cfg = client.config().clone();
        let (mut x, mut y) = ([0u8; 64], [0u8; 64]);
        let mut batch = client.batch();
        batch.read_into(a, &mut x).unwrap();
        batch.read_into(b, &mut y).unwrap();
        batch.read_into(a.add(0), &mut []).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.fanout(), 2, "three verbs over two distinct nodes");
        let charged = batch.execute();
        let expected = 2 * cfg.doorbell_latency_ns
            + 3 * cfg.verb_issue_ns
            + cfg.transfer_latency_ns(cfg.read_latency_ns, 64);
        assert_eq!(charged, expected);
        // One doorbell was rung at each node's RNIC.
        assert_eq!(pool.stats().doorbells(), 2);
        assert_eq!(pool.stats().largest_fanout(), 2);
        let snaps = pool.stats().node_snapshots();
        assert_eq!(snaps[0].doorbells, 1);
        assert_eq!(snaps[1].doorbells, 1);
        assert_eq!(snaps[0].reads, 2);
        assert_eq!(snaps[1].reads, 1);
    }

    #[test]
    fn fanout_batch_still_beats_sequential_round_trips() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(4));
        let client = pool.connect();
        let addrs: Vec<_> = (0..4u16)
            .map(|mn| pool.reserve_on(mn, 64).unwrap())
            .collect();
        let mut bufs = [[0u8; 64]; 4];
        let mut batch = client.batch();
        for (buf, addr) in bufs.iter_mut().zip(&addrs) {
            batch.read_into(*addr, buf).unwrap();
        }
        assert_eq!(batch.fanout(), 4);
        let batched = batch.batched_latency_ns();
        let sequential = batch.sequential_latency_ns();
        assert!(
            batched * 2 < sequential,
            "4-node fan-out should still be >2x cheaper: {batched} vs {sequential}"
        );
        batch.execute();
    }

    #[test]
    fn overflowing_the_batch_yields_a_typed_error() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(8).unwrap();
        let mut batch = client.batch();
        for _ in 0..MAX_BATCH {
            batch.faa(a, 1).unwrap();
        }
        assert!(matches!(
            batch.faa(a, 1),
            Err(DmError::BatchFull { max: MAX_BATCH })
        ));
        // The batch is still intact and executable after the rejection.
        assert_eq!(batch.len(), MAX_BATCH);
        batch.execute();
        assert_eq!(client.read_u64(a), MAX_BATCH as u64);
    }

    #[test]
    fn faulted_batch_members_surface_without_executing() {
        use crate::fault::FaultPlan;
        // Every verb fails: the batch charges its full latency, consumes its
        // messages, executes nothing, and surfaces a typed error.
        let cfg = DmConfig::small()
            .with_fault_plan(FaultPlan::seeded(7).with_verb_fail_ppm(crate::fault::PPM as u32));
        let pool = MemoryPool::new(cfg);
        let client = pool.connect();
        let a = pool.reserve(16).unwrap();

        let mut batch = client.batch();
        batch.faa(a, 1).unwrap();
        batch.faa(a.add(8), 1).unwrap();
        let err = batch.try_execute().unwrap_err();
        assert!(matches!(err, DmError::VerbFailed { mn_id: 0 }));

        // NAK'd verbs never reach the arena, but their requests went on the
        // wire: messages and latency are still charged and the faults are
        // attributed to the node.
        let node = pool.node(0).unwrap();
        assert_eq!(node.read(a.offset, 16).unwrap(), vec![0u8; 16]);
        assert!(client.now_ns() > 0);
        assert_eq!(pool.stats().faults().verb_failures, 2);
        assert_eq!(pool.stats().verb_faults_on(0), 2);
    }

    #[test]
    fn timed_out_batch_stretches_by_the_retransmission_window() {
        use crate::fault::FaultPlan;
        let timeout_ns = 50_000;
        let cfg = DmConfig::small().with_fault_plan(
            FaultPlan::seeded(7).with_verb_timeouts(crate::fault::PPM as u32, timeout_ns),
        );
        let pool = MemoryPool::new(cfg);
        let client = pool.connect();
        let a = pool.reserve(16).unwrap();

        let mut batch = client.batch();
        batch.faa(a, 1).unwrap();
        let clean = batch.batched_latency_ns();
        let err = batch.try_execute().unwrap_err();
        assert!(matches!(err, DmError::VerbTimeout { mn_id: 0 }));
        assert_eq!(client.now_ns(), clean + timeout_ns);
        assert_eq!(pool.stats().faults().verb_timeouts, 1);
    }

    #[test]
    fn fault_free_try_execute_matches_the_infallible_path() {
        let pool = pool();
        let client = pool.connect();
        let a = pool.reserve(16).unwrap();
        let mut batch = client.batch();
        batch.faa(a, 1).unwrap();
        batch.faa(a.add(8), 2).unwrap();
        let expected = batch.batched_latency_ns();
        let charged = batch.try_execute().unwrap();
        assert_eq!(charged, expected);
        assert_eq!(client.read_u64(a), 1);
        assert_eq!(client.read_u64(a.add(8)), 2);
        assert_eq!(pool.stats().faults().faulted_verbs(), 0);
    }
}
