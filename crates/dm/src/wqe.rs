//! Posted work-queue entries (WQEs): the RNIC send-queue model.
//!
//! Real RDMA clients do not "execute a batch and wait": they **post**
//! work-queue entries to a send queue, ring the doorbell once, and get on
//! with useful CPU work while the NIC carries the verbs out.  Each WQE is
//! posted either *signalled* — its completion will surface as a CQE on the
//! client's [`crate::cq::CompletionQueue`] — or *unsignalled* — fire and
//! forget, no completion is generated and the client never waits for it.
//! Sherman, FUSEE and Ditto (§4.2) all lean on this discipline to hide
//! dependent round trips on disaggregated memory.
//!
//! [`WorkQueue`] is the simulator's send queue.  [`WorkQueue::post_read`] /
//! [`post_write`](WorkQueue::post_write) / [`post_faa`](WorkQueue::post_faa)
//! queue up to [`MAX_WQES`] verbs without heap allocation (the queue is an
//! inline array); [`WorkQueue::ring`] rings one doorbell per distinct target
//! memory node and hands the WQEs to the simulated NIC:
//!
//! * the **posting cost** `fanout × DOORBELL_LATENCY_NS + n × VERB_ISSUE_NS`
//!   is charged to the client clock immediately (it is synchronous CPU/MMIO
//!   work);
//! * every WQE is assigned a **completion time**: the ring-end clock plus
//!   the per-node *prefix maximum* of transfer latencies — WQEs on one node
//!   travel over one queue pair and complete **in order**, so a small verb
//!   posted after a large one completes no earlier than the large one;
//! * every WQE is issued exactly as a synchronous verb is, by
//!   `DmClient::issue` — queue-pair check, fault draw, price, message,
//!   arena — so the verb executes right away (simulation state), and a
//!   completion entry is pushed for every *signalled* WQE; the latency is
//!   only charged when the client later **polls** it, as *time since post* —
//!   CPU work done between `ring` and `poll_cq` genuinely overlaps the
//!   in-flight transfers.
//!
//! The ring adds only what posting adds: the doorbell cost, the queue-pair
//! ordering of completion times, and the flush rule.
//!
//! **The flush rule.**  A WQE that completes in error (an injected
//! [`crate::FaultPlan`] failure or timeout, or
//! [`CompletionStatus::NodeRemoved`] for a node this client has no queue
//! pair to) puts its reliable connection in the error state, and the NIC
//! *flushes* every WQE queued behind it on that queue pair: within one
//! ring, the WQEs posted after an errored one **to the same node** never
//! execute, consume no message and no fault draw, and complete — signalled
//! or not — as [`CompletionStatus::Flushed`] at the errored WQE's
//! completion time or later.  Other nodes' queue pairs in the
//! same ring are unaffected, and the next ring starts clean (the simulator
//! reconnects for free).  This is what makes it sound to post a verb
//! *behind* the verb it depends on: a CAS posted behind the WRITE whose bytes
//! it publishes cannot run unless the WRITE landed.
//!
//! Posting to a full queue automatically rings the doorbell for the queued
//! prefix and keeps going, so an oversized posting burst degrades to an
//! extra doorbell instead of failing (a real send queue blocks the poster
//! the same way).
//!
//! Every WQE — signalled or not — still consumes one RNIC message on its
//! target node: pipelining saves *latency*, never message rate.

use crate::addr::RemoteAddr;
use crate::client::DmClient;
use crate::config::DmConfig;
use crate::cq::{Completion, CompletionStatus};
use crate::error::DmResult;
use crate::memnode::MemoryNode;
use crate::obs::Phase;
use crate::stats::VerbKind;

/// Maximum WQEs per posting round (and per doorbell batch).
///
/// Sized for the largest burst the cache issues (an eviction sample of up to
/// 32 slots plus a couple of metadata verbs); a real RNIC send queue is far
/// deeper, but a fixed bound keeps the queue allocation-free.  Posting past
/// the bound auto-rings the doorbell instead of failing.
pub const MAX_WQES: usize = 40;

/// One one-sided verb: what a WQE carries, and what a synchronous call
/// issues (`DmClient::issue` decides its fate either way).
pub(crate) enum WqeOp<'buf> {
    /// One-sided `RDMA_READ` into a caller-provided buffer.
    Read {
        addr: RemoteAddr,
        buf: &'buf mut [u8],
    },
    /// One-sided `RDMA_WRITE` of borrowed bytes.
    Write { addr: RemoteAddr, data: &'buf [u8] },
    /// `RDMA_FAA`; the old value lands in `out` when one is given, under the
    /// same contract as a CAS's (read it only after the completion).
    Faa {
        addr: RemoteAddr,
        delta: u64,
        out: Option<&'buf mut u64>,
    },
    /// `RDMA_CAS`; the observed old value lands in `out` when the verb
    /// executes (awaiting the completion before reading `out` is the
    /// caller's contract, as for a READ buffer).
    Cas {
        addr: RemoteAddr,
        expected: u64,
        new: u64,
        out: &'buf mut u64,
    },
}

impl WqeOp<'_> {
    pub(crate) fn kind(&self) -> VerbKind {
        match self {
            WqeOp::Read { .. } => VerbKind::Read,
            WqeOp::Write { .. } => VerbKind::Write,
            WqeOp::Faa { .. } => VerbKind::Faa,
            WqeOp::Cas { .. } => VerbKind::Cas,
        }
    }

    pub(crate) fn payload_len(&self) -> usize {
        match self {
            WqeOp::Read { buf, .. } => buf.len(),
            WqeOp::Write { data, .. } => data.len(),
            WqeOp::Faa { .. } | WqeOp::Cas { .. } => 8,
        }
    }

    pub(crate) fn mn_id(&self) -> u16 {
        match self {
            WqeOp::Read { addr, .. }
            | WqeOp::Write { addr, .. }
            | WqeOp::Faa { addr, .. }
            | WqeOp::Cas { addr, .. } => addr.mn_id,
        }
    }

    /// Executes the operation against the target node's arena.  Fails only
    /// on an address the node cannot serve (out of range, or an unaligned
    /// atomic) — a caller bug.
    pub(crate) fn execute(self, node: &MemoryNode) -> DmResult<()> {
        match self {
            WqeOp::Read { addr, buf } => node.read_into(addr.offset, buf),
            WqeOp::Write { addr, data } => node.write(addr.offset, data),
            WqeOp::Faa { addr, delta, out } => {
                let old = node.faa(addr.offset, delta)?;
                if let Some(out) = out {
                    *out = old;
                }
                Ok(())
            }
            WqeOp::Cas {
                addr,
                expected,
                new,
                out,
            } => {
                *out = node.cas(addr.offset, expected, new)?;
                Ok(())
            }
        }
    }
}

struct Wqe<'buf> {
    op: WqeOp<'buf>,
    signalled: bool,
    wr_id: u64,
}

/// A send queue of posted-but-not-yet-rung WQEs (see the module docs).
///
/// Obtained from [`DmClient::work_queue`]; dropped without ringing, the
/// queued WQEs issue nothing.
pub struct WorkQueue<'client, 'buf> {
    client: &'client DmClient,
    wqes: [Option<Wqe<'buf>>; MAX_WQES],
    len: usize,
}

impl<'client, 'buf> WorkQueue<'client, 'buf> {
    pub(crate) fn new(client: &'client DmClient) -> Self {
        WorkQueue {
            client,
            wqes: [const { None }; MAX_WQES],
            len: 0,
        }
    }

    /// Number of WQEs posted since the last doorbell.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no WQE is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn post(&mut self, op: WqeOp<'buf>, signalled: bool) -> u64 {
        if self.len == MAX_WQES {
            // A full send queue blocks the poster on real hardware; the
            // simulator rings the doorbell for the queued prefix instead of
            // failing, so oversized bursts cost an extra doorbell, not a
            // client abort.
            self.ring();
        }
        let wr_id = self.client.alloc_wr_id();
        self.wqes[self.len] = Some(Wqe {
            op,
            signalled,
            wr_id,
        });
        self.len += 1;
        wr_id
    }

    /// Posts a one-sided `RDMA_READ` of `buf.len()` bytes into `buf`.
    /// Returns the work-request id its completion will carry.
    pub fn post_read(&mut self, addr: RemoteAddr, buf: &'buf mut [u8], signalled: bool) -> u64 {
        self.post(WqeOp::Read { addr, buf }, signalled)
    }

    /// Posts a one-sided `RDMA_WRITE` of `data`.
    pub fn post_write(&mut self, addr: RemoteAddr, data: &'buf [u8], signalled: bool) -> u64 {
        self.post(WqeOp::Write { addr, data }, signalled)
    }

    /// Posts an `RDMA_FAA` of `delta` (old value discarded).
    pub fn post_faa(&mut self, addr: RemoteAddr, delta: u64, signalled: bool) -> u64 {
        self.post(
            WqeOp::Faa {
                addr,
                delta,
                out: None,
            },
            signalled,
        )
    }

    /// Posts an `RDMA_FAA` whose old value lands in `out` — for a fetched
    /// result the client overlaps with other work instead of waiting for
    /// right away.  As with [`WorkQueue::post_cas`], `out` must not be
    /// inspected before the WQE's completion is polled.
    pub fn post_faa_fetch(
        &mut self,
        addr: RemoteAddr,
        delta: u64,
        out: &'buf mut u64,
        signalled: bool,
    ) -> u64 {
        let out = Some(out);
        self.post(WqeOp::Faa { addr, delta, out }, signalled)
    }

    /// Posts an `RDMA_CAS`; the observed old value lands in `out`.  As with
    /// a READ buffer, `out` must not be inspected before the WQE's
    /// completion is polled (the migration reconcile sweep posts a whole
    /// chunk's CASes in one doorbell batch and drains them together).
    pub fn post_cas(
        &mut self,
        addr: RemoteAddr,
        expected: u64,
        new: u64,
        out: &'buf mut u64,
        signalled: bool,
    ) -> u64 {
        self.post(
            WqeOp::Cas {
                addr,
                expected,
                new,
                out,
            },
            signalled,
        )
    }

    /// Rings the doorbell: charges the posting cost `fanout ×
    /// DOORBELL_LATENCY_NS + n × VERB_ISSUE_NS` to the client clock, assigns
    /// every WQE its completion time (per-node in-order; see the module
    /// docs), executes the verbs, pushes a completion for each *signalled*
    /// WQE onto the client's completion queue and clears the send queue.
    ///
    /// Returns the posting cost charged (0 for an empty queue).  The
    /// transfer latencies are **not** charged here — they are charged by
    /// [`DmClient::poll_cq`] as time since post.
    pub fn ring(&mut self) -> u64 {
        self.ring_flights(true)
    }

    /// [`WorkQueue::ring`] for verbs the op leaves in flight: nobody in it
    /// waits for them, so their flight spans belong to no op (op id 0) and
    /// do not stretch it past its end.  Whichever later op polls one of
    /// their completions records its own wait for it.
    pub fn ring_left_in_flight(&mut self) -> u64 {
        self.ring_flights(false)
    }

    fn ring_flights(&mut self, in_op: bool) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let client = self.client;
        // Distinct target nodes, in first-appearance order (allocation-free).
        let mut nodes = [0u16; MAX_WQES];
        let mut fanout = 0;
        for wqe in self.wqes[..self.len].iter().flatten() {
            let mn = wqe.op.mn_id();
            if !nodes[..fanout].contains(&mn) {
                nodes[fanout] = mn;
                fanout += 1;
            }
        }
        let ring_start = client.now_ns();
        let post_cost = fanout as u64 * DmConfig::DOORBELL_LATENCY_NS
            + self.len as u64 * DmConfig::VERB_ISSUE_NS;
        client.advance_ns(post_cost);
        let ring_end = client.now_ns();
        client.record_span(Phase::Post, ring_start, ring_end, self.len as u32);
        let stats = client.pool().stats();
        stats.record_batch(self.len, fanout);
        for &mn in &nodes[..fanout] {
            stats.record_node_doorbell(mn);
        }
        // Per-node prefix maximum of transfer latencies: one queue pair per
        // node, completions in posting order.  Each WQE is issued the one
        // way every verb is (`DmClient::issue`); an errored one holds its
        // place in the queue-pair ordering (a timed-out verb's
        // retransmission window delays everything behind it on the same
        // node), and its error completion is pushed even when the WQE was
        // posted *unsignalled* — real NICs always surface error CQEs.
        //
        // An errored WQE also *flushes* every WQE queued behind it on its
        // node's queue pair in this ring (the RC rule, see the module docs):
        // those never reach the wire — no message, no fault draw, nothing
        // executed — and complete in error behind it.
        let mut node_floor = [0u64; MAX_WQES];
        let mut node_errored = [false; MAX_WQES];
        for wqe in self.wqes[..self.len].iter_mut().map(Option::take) {
            let Some(wqe) = wqe else { continue };
            let mn = wqe.op.mn_id();
            let slot = nodes[..fanout].iter().position(|&n| n == mn).unwrap_or(0);
            stats.record_wqe(wqe.signalled);
            let status = if node_errored[slot] {
                CompletionStatus::Flushed { mn_id: mn }
            } else {
                let (transfer, status) = client
                    .issue(wqe.op)
                    .unwrap_or_else(|e| panic!("posted verb failed: {e}"));
                node_floor[slot] = node_floor[slot].max(transfer);
                node_errored[slot] = !status.is_ok();
                // Every WQE in one ring leaves at ring-end, so a multi-WQE
                // ring shows its flight spans overlapping — the pipelining
                // the trace viewer is meant to make visible.
                let (end, wr) = (ring_end + node_floor[slot], wqe.wr_id as u32);
                if in_op {
                    client.record_span(Phase::Flight, ring_end, end, wr);
                } else {
                    client.record_span_outside_op(Phase::Flight, ring_end, end, wr);
                }
                status
            };
            if wqe.signalled || !status.is_ok() {
                client.push_completion(Completion {
                    wr_id: wqe.wr_id,
                    completed_at_ns: ring_end + node_floor[slot],
                    status,
                });
            }
        }
        self.len = 0;
        post_cost
    }
}

impl Drop for WorkQueue<'_, '_> {
    fn drop(&mut self) {
        // Dropped without ringing: like an un-rung doorbell batch, the
        // queued WQEs never reach the NIC.
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
    fn ring_charges_posting_cost_and_poll_charges_time_since_post() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(4096).unwrap();
        client.write(addr, &[9u8; 4096]);
        let t0 = client.now_ns();

        let mut buf = [0u8; 64];
        let mut wq = client.work_queue();
        let wr = wq.post_read(addr, &mut buf, true);
        let post_cost = wq.ring();
        assert_eq!(
            post_cost,
            DmConfig::DOORBELL_LATENCY_NS + DmConfig::VERB_ISSUE_NS
        );
        assert_eq!(
            client.now_ns() - t0,
            post_cost,
            "ring charges only the posting cost"
        );
        drop(wq);
        assert_eq!(buf, [9u8; 64], "the verb executed at ring time");

        let completion = client.poll_cq().expect("signalled WQE must complete");
        assert_eq!(completion.wr_id, wr);
        let transfer = DmConfig::verb_latency_ns(VerbKind::Read, 64);
        assert_eq!(
            client.now_ns() - t0,
            post_cost + transfer + DmConfig::CQ_POLL_NS,
            "poll charges the remaining flight time plus the poll cost"
        );
    }

    #[test]
    fn cpu_work_between_ring_and_poll_overlaps_the_flight() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        let transfer = DmConfig::verb_latency_ns(VerbKind::Read, 64);

        let mut buf = [0u8; 64];
        let mut wq = client.work_queue();
        wq.post_read(addr, &mut buf, true);
        wq.ring();
        drop(wq);
        let ring_end = client.now_ns();
        // CPU work longer than the flight: the poll finds the completion
        // already in the past and charges only the poll cost.
        client.advance_ns(transfer + 500);
        client.poll_cq().unwrap();
        assert_eq!(
            client.now_ns(),
            ring_end + transfer + 500 + DmConfig::CQ_POLL_NS
        );
    }

    #[test]
    fn unsignalled_wqes_produce_no_completion_but_consume_messages() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        let mut wq = client.work_queue();
        wq.post_write(addr, b"fire-and-forget", false);
        wq.post_faa(addr.add(32), 1, false);
        wq.ring();
        drop(wq);
        assert_eq!(client.poll_cq(), None, "unsignalled WQEs surface no CQE");
        let snap = &pool.stats().node_snapshots()[0];
        assert_eq!(snap.messages, 2, "unsignalled WQEs still consume messages");
        assert_eq!(pool.stats().unsignalled_wqes(), 2);
        assert_eq!(pool.stats().signalled_wqes(), 0);
    }

    #[test]
    fn fetched_faa_returns_the_old_value_once_its_completion_is_polled() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(8).unwrap();
        client.write_u64(addr, 41);
        let mut old = 0u64;
        let mut wq = client.work_queue();
        let wr = wq.post_faa_fetch(addr, 1, &mut old, true);
        wq.ring();
        drop(wq);
        assert_eq!(client.poll_cq().map(|c| c.wr_id), Some(wr));
        assert_eq!(old, 41);
        assert_eq!(client.read_u64(addr), 42);
    }

    #[test]
    fn same_node_wqes_complete_in_posting_order() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(8192).unwrap();
        let (mut large, mut small) = ([0u8; 8192], [0u8; 8]);
        let mut wq = client.work_queue();
        let wr_large = wq.post_read(addr, &mut large, true);
        let wr_small = wq.post_read(addr, &mut small, true);
        wq.ring();
        drop(wq);
        let ring_end = client.now_ns();
        let t_large = DmConfig::verb_latency_ns(VerbKind::Read, 8192);
        // The small READ is queued behind the large one on the same queue
        // pair, so both complete at the large READ's time.
        let first = client.poll_cq().unwrap();
        assert_eq!(first.wr_id, wr_large);
        assert_eq!(first.completed_at_ns, ring_end + t_large);
        let second = client.poll_cq().unwrap();
        assert_eq!(second.wr_id, wr_small);
        assert_eq!(second.completed_at_ns, ring_end + t_large);
    }

    #[test]
    fn cross_node_wqes_overlap_and_complete_independently() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let client = pool.connect();
        let a = pool.reserve_on(0, 8192).unwrap();
        let b = pool.reserve_on(1, 64).unwrap();
        let (mut large, mut small) = ([0u8; 8192], [0u8; 64]);
        let mut wq = client.work_queue();
        let wr_large = wq.post_read(a, &mut large, true);
        let wr_small = wq.post_read(b, &mut small, true);
        wq.ring();
        drop(wq);
        let ring_end = client.now_ns();
        // Different nodes, different queue pairs: the small READ is not
        // delayed by the large one and its completion surfaces first.
        let first = client.poll_cq().unwrap();
        assert_eq!(first.wr_id, wr_small);
        assert_eq!(
            first.completed_at_ns,
            ring_end + DmConfig::verb_latency_ns(VerbKind::Read, 64)
        );
        let second = client.poll_cq().unwrap();
        assert_eq!(second.wr_id, wr_large);
        assert_eq!(pool.stats().doorbells(), 2, "one doorbell per node");
    }

    #[test]
    fn doorbells_count_posted_rounds_and_nothing_else() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let client = pool.connect();
        let a = pool.reserve_on(0, 64).unwrap();
        let b = pool.reserve_on(1, 64).unwrap();
        let stats = pool.stats();
        // A synchronous single-verb call is one completed round trip: it
        // rings no doorbell in the accounting.  Nor does an empty queue.
        client.read_u64(a);
        assert_eq!(client.work_queue().ring(), 0);
        assert_eq!((stats.doorbells(), stats.batched_verbs()), (0, 0));
        // A round of n = 3 WQEs over k = 2 nodes adds k doorbells and n
        // verbs, and costs k doorbells plus n issues to post.
        let (mut x, mut y) = ([0u8; 64], [0u8; 64]);
        let mut wq = client.work_queue();
        wq.post_read(a, &mut x, true);
        wq.post_read(b, &mut y, true);
        wq.post_faa(a, 1, false);
        let post_cost = wq.ring();
        drop(wq);
        assert_eq!(
            post_cost,
            2 * DmConfig::DOORBELL_LATENCY_NS + 3 * DmConfig::VERB_ISSUE_NS
        );
        assert_eq!((stats.doorbells(), stats.batched_verbs()), (2, 3));
        assert_eq!((stats.largest_batch(), stats.largest_fanout()), (3, 2));
        assert_eq!(stats.mean_batch_size(), 1.5);
        let nodes = stats.node_snapshots();
        assert_eq!((nodes[0].doorbells, nodes[1].doorbells), (1, 1));
        assert_eq!((nodes[0].messages, nodes[1].messages), (3, 1));
    }

    #[test]
    fn posting_past_the_queue_bound_auto_rings() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(8).unwrap();
        let mut wq = client.work_queue();
        for _ in 0..=MAX_WQES {
            wq.post_faa(addr, 1, false);
        }
        assert_eq!(wq.len(), 1, "the overflowing WQE starts a fresh round");
        wq.ring();
        drop(wq);
        assert_eq!(
            pool.stats().doorbells(),
            2,
            "overflow rang an extra doorbell"
        );
        assert_eq!(client.read_u64(addr), MAX_WQES as u64 + 1);
    }

    #[test]
    fn injected_faults_surface_as_error_completions_even_unsignalled() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::seeded(7).with_verb_fail_ppm(1_000_000); // every verb fails
        let pool = MemoryPool::new(DmConfig::small().with_fault_plan(plan));
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        let mut wq = client.work_queue();
        wq.post_write(addr, b"doomed", false); // unsignalled on purpose
        wq.ring();
        drop(wq);
        let completion = client
            .poll_cq()
            .expect("error CQE surfaces even for unsignalled WQEs");
        assert_eq!(completion.status, CompletionStatus::Failed { mn_id: 0 });
        assert!(completion.status.check().is_err());
        // The faulted WRITE was NAK'd: the arena was never touched.
        assert_eq!(
            pool.node(0).unwrap().read(addr.offset, 6).unwrap(),
            vec![0u8; 6]
        );
        // The message was still consumed and the fault attributed to node 0.
        assert_eq!(pool.stats().node_snapshots()[0].writes, 1);
        assert_eq!(pool.stats().verb_faults_on(0), 1);
        assert_eq!(pool.stats().faults().verb_failures, 1);
    }

    #[test]
    fn timed_out_wqes_delay_everything_behind_them_on_the_same_node() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::seeded(3).with_verb_timeouts(1_000_000, 50_000);
        let pool = MemoryPool::new(DmConfig::small().with_fault_plan(plan));
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        let mut buf = [0u8; 8];
        let mut wq = client.work_queue();
        let wr_a = wq.post_write(addr, b"a", true);
        let wr_b = wq.post_read(addr.add(32), &mut buf, true);
        wq.ring();
        drop(wq);
        let ring_end = client.now_ns();
        let first = client.poll_cq().unwrap();
        assert_eq!(first.wr_id, wr_a);
        assert_eq!(first.status, CompletionStatus::TimedOut { mn_id: 0 });
        let t_first = DmConfig::verb_latency_ns(VerbKind::Write, 1) + 50_000;
        assert_eq!(first.completed_at_ns, ring_end + t_first);
        // The second WQE shares the queue pair: it completes no earlier
        // than the timed-out verb ahead of it — flushed, so the injector
        // (which would have timed it out too) never saw it.
        let second = client.poll_cq().unwrap();
        assert_eq!(second.wr_id, wr_b);
        assert!(second.completed_at_ns >= first.completed_at_ns);
        assert_eq!(second.status, CompletionStatus::Flushed { mn_id: 0 });
        assert_eq!(pool.stats().faults().verb_timeouts, 1);
    }

    #[test]
    fn an_errored_wqe_flushes_the_wqes_behind_it_on_its_node_only() {
        use crate::fault::{FaultInjector, FaultPlan, VerbFate};
        // Half of all verbs fail.  Pick a seed whose first draw for client 0
        // fails and whose second succeeds: the ring below draws once for the
        // WRITE and — the CAS behind it being flushed, not injected — once
        // for the other node's CAS.
        let plan = |seed| FaultPlan::seeded(seed).with_verb_fail_ppm(500_000);
        let seed = (0..)
            .find(|&seed| {
                let injector = FaultInjector::new(Some(plan(seed)));
                injector.fate(0, 0, 0, 0) == VerbFate::Fail
                    && injector.fate(0, 1, 1, 0) == VerbFate::Ok
            })
            .unwrap();
        let config = DmConfig::small()
            .with_memory_nodes(2)
            .with_fault_plan(plan(seed));
        let pool = MemoryPool::new(config);
        let client = pool.connect();
        assert_eq!(client.client_id(), 0);
        let a = pool.reserve_on(0, 64).unwrap();
        let b = pool.reserve_on(1, 64).unwrap();
        for word in [a.add(8), b] {
            let node = pool.node(word.mn_id).unwrap();
            node.store_u64(word.offset, 7).unwrap();
        }

        // Node 0: a WRITE and, behind it, the CAS that would publish it.
        // Node 1: an independent CAS in the same ring.
        let (mut seen_a, mut seen_b) = (u64::MAX, u64::MAX);
        let mut wq = client.work_queue();
        let wr_write = wq.post_write(a, b"object", false);
        let wr_cas_a = wq.post_cas(a.add(8), 7, 9, &mut seen_a, true);
        let wr_cas_b = wq.post_cas(b, 7, 9, &mut seen_b, true);
        wq.ring();
        drop(wq);
        let ring_end = client.now_ns();

        // Node 1's CAS ran; neither of node 0's verbs did, and the flushed
        // CAS left its `out` alone.
        let word = |addr: RemoteAddr| pool.node(addr.mn_id).unwrap().load_u64(addr.offset);
        assert_eq!((word(b), seen_b), (Ok(9), 7));
        assert_eq!((word(a.add(8)), seen_a), (Ok(7), u64::MAX));
        assert_eq!(pool.node(0).unwrap().read(a.offset, 6).unwrap(), [0u8; 6]);

        // The WRITE's error surfaces although unsignalled, the CAS behind
        // it completes flushed no earlier, node 1's CAS succeeds.
        let failed_at = ring_end + DmConfig::verb_latency_ns(VerbKind::Write, 6);
        let completions: Vec<_> = std::iter::from_fn(|| client.poll_cq()).collect();
        let of = |wr| *completions.iter().find(|c| c.wr_id == wr).unwrap();
        assert_eq!(completions.len(), 3);
        assert_eq!(of(wr_write).status, CompletionStatus::Failed { mn_id: 0 });
        assert_eq!(of(wr_write).completed_at_ns, failed_at);
        assert_eq!(of(wr_cas_a).status, CompletionStatus::Flushed { mn_id: 0 });
        assert_eq!(of(wr_cas_a).completed_at_ns, failed_at);
        assert!(of(wr_cas_a).status.check().is_err());
        assert_eq!(of(wr_cas_b).status, CompletionStatus::Success);

        // One injected fault, and no message for the WQE that never left.
        let stats = pool.stats();
        assert_eq!(stats.faults().verb_failures, 1);
        assert_eq!((stats.verb_faults_on(0), stats.verb_faults_on(1)), (1, 0));
        let nodes = stats.node_snapshots();
        assert_eq!((nodes[0].writes, nodes[0].cas, nodes[1].cas), (1, 0, 1));
        assert_eq!((stats.signalled_wqes(), stats.unsignalled_wqes()), (2, 1));
    }

    #[test]
    fn dropped_work_queue_issues_nothing() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(8).unwrap();
        client.write_u64(addr, 0);
        pool.reset_stats();
        {
            let mut wq = client.work_queue();
            wq.post_faa(addr, 5, true);
        }
        assert_eq!(client.poll_cq(), None);
        assert_eq!(client.read_u64(addr), 0, "un-rung WQEs never execute");
    }
}
