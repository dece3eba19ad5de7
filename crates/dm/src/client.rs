//! Client-side connection handle exposing the one-sided verb API.
//!
//! A verb is issued one way.  `DmClient::issue` decides, for every
//! `READ`, `WRITE`, `CAS` and `FAA` — a synchronous `try_*` call or a WQE
//! a [`WorkQueue`] ring posted — whether this client has a queue pair to
//! the node ([`CompletionStatus::NodeRemoved`] if not), the verb's injected
//! fault, its transfer time, the message it costs, and its effect on the
//! arena.  A synchronous call then waits the transfer time out and records
//! it as one [`Phase::Flight`] span; a ring turns it into a completion
//! time on the queue pair.  A synchronous RPC waits through the same
//! helper; a posted one ([`DmClient::post_rpc`]) leaves the wait to its
//! caller.

use crate::addr::RemoteAddr;
use crate::config::DmConfig;
use crate::cq::{Completion, CompletionQueue, CompletionStatus};
use crate::error::{DmError, DmResult};
use crate::fault::VerbFate;
use crate::histogram::LatencyHistogram;
use crate::memnode::MemoryNode;
use crate::obs::{EventKind, FlightRecorder, Phase, Span};
use crate::pool::MemoryPool;
use crate::rpc::PostedRpc;
use crate::stats::VerbKind;
use crate::wqe::{WorkQueue, WqeOp};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Simulated back-off charged between retries of a transiently faulted verb
/// ([`DmClient::back_off_transient`]).
const VERB_RETRY_BACKOFF_NS: u64 = 500;

/// A per-thread connection to the memory pool.
///
/// Every verb executes a real operation against the shared arena and advances
/// this client's *simulated clock* by the verb's round-trip latency.  The
/// clock never sleeps in real time, so experiments run as fast as the host
/// allows while still producing DM-scale latency and throughput numbers.
///
/// `DmClient` is intentionally `!Sync`: each simulated client thread owns its
/// own connection, mirroring one queue pair per client thread on real RDMA.
pub struct DmClient {
    pool: MemoryPool,
    client_id: u32,
    clock_ns: Cell<u64>,
    op_start_ns: Cell<u64>,
    /// Cached node handles, revalidated against the pool's resize epoch so
    /// the per-verb node lookup stays lock-free in steady state.
    nodes: RefCell<NodeCache>,
    /// This client's completion queue: signalled WQEs rung out through a
    /// [`WorkQueue`] complete here and are consumed by [`DmClient::poll_cq`].
    cq: RefCell<CompletionQueue>,
    /// Monotone work-request id source for posted WQEs.
    next_wr_id: Cell<u64>,
    /// Monotone per-client verb counter feeding the fault injector's
    /// deterministic draws (see [`crate::FaultInjector::fate`]).
    fault_seq: Cell<u64>,
    /// Monotone op sequence number (bumped by [`DmClient::begin_op`]).
    op_seq: Cell<u64>,
    /// The [`Span::op_id`] spans are recorded with: the open op's sequence
    /// number from [`DmClient::begin_op`] to [`DmClient::end_op`], 0 outside
    /// any such window.
    span_op: Cell<u64>,
    /// The flight recorder, armed iff
    /// [`DmConfig::flight_recorder_spans`] > 0.  Disarmed, every
    /// [`DmClient::record_span`] call is a single discriminant check, and
    /// recording never advances the simulated clock either way — an armed
    /// run replays the exact simulated timeline of a disarmed one.
    recorder: Option<RefCell<FlightRecorder>>,
    /// Whether the current op's span set survives the recorder's sampling
    /// draw (see [`DmConfig::flight_recorder_sample_one_in`]).  Decided
    /// once per op in [`DmClient::begin_op`] so an op's spans are kept or
    /// skipped atomically; starts `true` so pre-op spans (op id 0) record.
    op_sampled: Cell<bool>,
    /// Client-local per-phase span-latency histograms, armed alongside the
    /// recorder.  Allocated once at construction (preserving the zero-
    /// allocation steady state) and folded into
    /// [`crate::PoolStats::phase_latency`] when the client drops.
    phase_hist: Option<Box<[LatencyHistogram; Phase::COUNT]>>,
}

struct NodeCache {
    epoch: u64,
    nodes: Vec<Arc<MemoryNode>>,
    /// Which nodes were already decommissioned when this client *first*
    /// snapshotted them.  A connection established while a node was alive
    /// models an established queue pair: it keeps serving even after the
    /// node is removed from the pool (the arena stays alive).  A client
    /// whose first snapshot already saw the node removed cannot establish
    /// a queue pair, so its verbs — synchronous or posted — complete
    /// [`CompletionStatus::NodeRemoved`].
    removed: Vec<bool>,
}

impl NodeCache {
    fn snapshot(pool: &MemoryPool, epoch: u64) -> Self {
        let nodes = pool.nodes_snapshot();
        let removed = nodes.iter().map(|n| n.is_decommissioned()).collect();
        NodeCache {
            epoch,
            nodes,
            removed,
        }
    }

    /// Re-snapshots the pool, carrying the `removed` verdicts of nodes this
    /// client already knew forward (an established queue pair survives the
    /// controller-level removal; only nodes *first seen* decommissioned are
    /// unreachable).
    fn refresh(&mut self, pool: &MemoryPool, epoch: u64) {
        let nodes = pool.nodes_snapshot();
        let removed = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                self.removed
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| n.is_decommissioned())
            })
            .collect();
        self.nodes = nodes;
        self.removed = removed;
        self.epoch = epoch;
    }
}

impl DmClient {
    pub(crate) fn new(pool: MemoryPool, client_id: u32) -> Self {
        // A client joining an ongoing experiment starts at the current
        // simulated time, not at zero.
        let start = pool.stats().clock_baseline_ns();
        let nodes = NodeCache::snapshot(&pool, pool.resize_epoch());
        let recorder_spans = pool.config().flight_recorder_spans;
        let recorder =
            (recorder_spans > 0).then(|| RefCell::new(FlightRecorder::new(recorder_spans)));
        let phase_hist = (recorder_spans > 0).then(|| {
            Box::new(std::array::from_fn::<_, { Phase::COUNT }, _>(|_| {
                LatencyHistogram::new()
            }))
        });
        DmClient {
            pool,
            client_id,
            clock_ns: Cell::new(start),
            op_start_ns: Cell::new(start),
            nodes: RefCell::new(nodes),
            cq: RefCell::new(CompletionQueue::new()),
            next_wr_id: Cell::new(0),
            fault_seq: Cell::new(0),
            op_seq: Cell::new(0),
            span_op: Cell::new(0),
            recorder,
            op_sampled: Cell::new(true),
            phase_hist,
        }
    }

    /// The pool this client is connected to.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// The pool configuration (verb latencies, message rates, ...).
    pub fn config(&self) -> &DmConfig {
        self.pool.config()
    }

    /// This client's identifier (unique within the pool).
    pub fn client_id(&self) -> u32 {
        self.client_id
    }

    /// Current simulated time of this client in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns.get()
    }

    /// Advances the simulated clock by `ns` nanoseconds (local work or
    /// deliberate back-off; consumes no network resources).
    pub fn advance_ns(&self, ns: u64) {
        self.clock_ns.set(self.clock_ns.get() + ns);
    }

    /// Advances the simulated clock by `us` microseconds.
    pub fn sleep_us(&self, us: u64) {
        self.advance_ns(us * 1_000);
    }

    /// The last op's sequence number (bumped by [`DmClient::begin_op`]; 0
    /// before the first op).  Spans recorded until that op's
    /// [`DmClient::end_op`] carry it; spans recorded after it, until the
    /// next `begin_op`, carry 0.
    pub fn op_id(&self) -> u64 {
        self.op_seq.get()
    }

    /// Records a phase-stamped span of simulated time into the flight
    /// recorder.  A no-op (one `Option` discriminant check) when the
    /// recorder is disarmed, and one extra `Cell` read when the current op
    /// lost the sampling draw; never advances the simulated clock, so
    /// armed, sampled, and disarmed runs all share one timeline.
    ///
    /// Recorded spans also feed this client's per-phase latency histogram
    /// (see [`crate::PoolStats::phase_latency`]).
    pub fn record_span(&self, phase: Phase, start_ns: u64, end_ns: u64, detail: u32) {
        self.record_span_of(self.span_op.get(), phase, start_ns, end_ns, detail);
    }

    /// [`DmClient::record_span`] of a span that belongs to no op (op id 0),
    /// as if recorded between ops: the flight of a verb its op leaves in
    /// flight, which a later op's poll waits for if anyone does.
    pub(crate) fn record_span_outside_op(
        &self,
        phase: Phase,
        start_ns: u64,
        end_ns: u64,
        detail: u32,
    ) {
        self.record_span_of(0, phase, start_ns, end_ns, detail);
    }

    fn record_span_of(&self, op_id: u64, phase: Phase, start_ns: u64, end_ns: u64, detail: u32) {
        let Some(recorder) = &self.recorder else {
            return;
        };
        if !self.op_sampled.get() {
            return;
        }
        let (dropped, wrapped) = recorder.borrow_mut().push(Span {
            op_id,
            phase,
            start_ns,
            end_ns,
            detail,
        });
        self.pool.stats().record_span(dropped, wrapped);
        if let Some(hist) = &self.phase_hist {
            hist[phase.index()].record(end_ns.saturating_sub(start_ns));
        }
    }

    /// The retained flight-recorder spans, oldest first (empty when
    /// disarmed).
    pub fn flight_spans(&self) -> Vec<Span> {
        self.recorder
            .as_ref()
            .map(|r| r.borrow().in_order())
            .unwrap_or_default()
    }

    /// Clears the flight recorder (e.g. between warm-up and a measured
    /// trace window).  A no-op when disarmed.
    pub fn clear_flight_recorder(&self) {
        if let Some(recorder) = &self.recorder {
            recorder.borrow_mut().clear();
        }
    }

    /// This client's queue pair to `mn_id`: the node's handle, or `None`
    /// when the node was already decommissioned the first time this client
    /// saw it (see [`NodeCache`]).  Handles are cached and revalidated
    /// against the pool's resize epoch.
    ///
    /// # Panics
    ///
    /// Panics on a node id the pool never had.
    fn queue_pair(&self, mn_id: u16) -> Option<Arc<MemoryNode>> {
        let epoch = self.pool.resize_epoch();
        let mut cache = self.nodes.borrow_mut();
        if cache.epoch != epoch || cache.nodes.len() <= mn_id as usize {
            cache.refresh(&self.pool, epoch);
        }
        let idx = mn_id as usize;
        let node = cache
            .nodes
            .get(idx)
            .unwrap_or_else(|| panic!("verb issued to unknown memory node {mn_id}"));
        // A decommissioned node stays reachable through an established queue
        // pair: auxiliary structures (e.g. history-counter shards) may still
        // reference it until they migrate too (see ROADMAP).
        (!cache.removed[idx]).then(|| Arc::clone(node))
    }

    /// Whether `mn_id` has fail-stopped (per the configured
    /// [`crate::FaultPlan`]) by this client's current simulated time.
    ///
    /// The instant, simulated stand-in for a membership service: retry
    /// loops consult it to tell a transient [`DmError::VerbTimeout`] from a
    /// dead node, and re-translate instead of retrying in the latter case.
    pub fn node_failed(&self, mn_id: u16) -> bool {
        self.pool
            .fault_injector()
            .node_failed(mn_id, self.clock_ns.get())
    }

    /// The one transient-verb retry rule: whether a verb that failed with
    /// `e` is worth redoing — a [`DmError::VerbFailed`] /
    /// [`DmError::VerbTimeout`] whose node has not fail-stopped.  If so, a
    /// 500 ns simulated back-off is charged and counted before returning
    /// `true`.  Every other error, and any error from a dead node,
    /// is final: retrying a dead node's verbs only burns simulated time.
    pub fn back_off_transient(&self, e: &DmError) -> bool {
        let transient = match *e {
            DmError::VerbFailed { mn_id } | DmError::VerbTimeout { mn_id } => {
                !self.node_failed(mn_id)
            }
            _ => false,
        };
        if transient {
            self.pool.stats().record_verb_retry(VERB_RETRY_BACKOFF_NS);
            self.advance_ns(VERB_RETRY_BACKOFF_NS);
        }
        transient
    }

    /// Runs `f` — typically one verb — up to `attempts` times, redoing it
    /// while it fails by [`DmClient::back_off_transient`]'s rule; the last
    /// error propagates.
    pub fn with_retry<T>(
        &self,
        attempts: usize,
        mut f: impl FnMut(&DmClient) -> DmResult<T>,
    ) -> DmResult<T> {
        let mut tries = 1;
        loop {
            match f(self) {
                Err(e) if tries < attempts && self.back_off_transient(&e) => tries += 1,
                result => return result,
            }
        }
    }

    /// Consults the fault injector for the next verb to `mn_id`: returns
    /// the latency factor (percent) and the injected fault, if any, with
    /// the retransmission window a timed-out verb waits (0 for an error
    /// completion).  Consumes one draw of this client's deterministic fault
    /// stream, and books the fault: the per-node timeout or failure counter
    /// and one event-log entry.
    fn inject(&self, mn_id: u16) -> (u64, Option<(DmError, u64)>) {
        let inj = self.pool.fault_injector();
        if !inj.is_active() {
            return (100, None);
        }
        let seq = self.fault_seq.get();
        self.fault_seq.set(seq + 1);
        let now = self.clock_ns.get();
        let factor = inj.latency_factor_pct(mn_id, now);
        let stats = self.pool.stats();
        let fault = match inj.fate(self.client_id, seq, mn_id, now) {
            VerbFate::Ok => return (factor, None),
            VerbFate::Fail => {
                stats.record_verb_failure(mn_id);
                (DmError::VerbFailed { mn_id }, 0)
            }
            VerbFate::Timeout | VerbFate::NodeDead => {
                stats.record_verb_timeout(mn_id);
                (DmError::VerbTimeout { mn_id }, inj.timeout_ns())
            }
        };
        // Injected faults are rare by construction; log each one.  Every
        // verb passes through here once, from [`DmClient::issue`].
        self.pool.record_event(
            now,
            self.client_id,
            EventKind::VerbFault {
                mn_id,
                timeout: matches!(fault.0, DmError::VerbTimeout { .. }),
            },
        );
        (factor, Some(fault))
    }

    /// Issues one one-sided verb — the one way every `READ`, `WRITE`, `CAS`
    /// and `FAA` reaches the pool, whether a synchronous call waits for it
    /// or a [`WorkQueue`] ring posted it.  In order, it:
    ///
    /// 1. checks the queue pair: with none ([`DmClient::queue_pair`]) the
    ///    verb never leaves — no fault draw, no message, no time — and
    ///    completes [`CompletionStatus::NodeRemoved`], counted as a verb
    ///    failure on the node;
    /// 2. draws the verb's fault ([`DmClient::inject`]);
    /// 3. prices the transfer: [`DmConfig::verb_latency_ns`], scaled by a
    ///    slow NIC, plus the retransmission window of a timed-out verb;
    /// 4. counts the message — a faulted verb went out on the wire too;
    /// 5. executes the operation against the arena, unless it faulted (a
    ///    NAK'd atomic leaves its word untouched);
    /// 6. returns the transfer time and the verb's [`CompletionStatus`].
    ///
    /// It charges nothing to the clock: a synchronous caller waits the
    /// transfer time out ([`DmClient::wait`]), a ring records it as the
    /// WQE's completion time.  The `Err` is an address the node cannot
    /// serve — a caller bug.
    pub(crate) fn issue(&self, op: WqeOp<'_>) -> DmResult<(u64, CompletionStatus)> {
        let mn_id = op.mn_id();
        let Some(node) = self.queue_pair(mn_id) else {
            self.pool.stats().record_verb_failure(mn_id);
            return Ok((0, CompletionStatus::NodeRemoved { mn_id }));
        };
        let (factor_pct, fault) = self.inject(mn_id);
        let (kind, len) = (op.kind(), op.payload_len());
        let mut transfer_ns = DmConfig::verb_latency_ns(kind, len) * factor_pct / 100;
        self.pool.stats().record_verb(mn_id, kind, len);
        let status = match fault {
            None => {
                op.execute(&node)?;
                CompletionStatus::Success
            }
            Some((DmError::VerbTimeout { .. }, wait_ns)) => {
                transfer_ns += wait_ns;
                CompletionStatus::TimedOut { mn_id }
            }
            Some(_) => CompletionStatus::Failed { mn_id },
        };
        Ok((transfer_ns, status))
    }

    /// Waits `ns` of round trip out: advances the clock and records the
    /// wait as one [`Phase::Flight`] span, so no time a client spends
    /// waiting on the pool is missing from the trace.  `detail` is the
    /// request's payload bytes.
    fn wait(&self, ns: u64, detail: usize) {
        let start = self.clock_ns.get();
        self.advance_ns(ns);
        self.record_span(Phase::Flight, start, start + ns, detail as u32);
    }

    /// Issues `op` and waits for it: one completed round trip.
    fn issue_and_wait(&self, op: WqeOp<'_>) -> DmResult<()> {
        let len = op.payload_len();
        let (transfer_ns, status) = self.issue(op)?;
        self.wait(transfer_ns, len);
        status.check()
    }

    /// The pool's current resize epoch (see [`MemoryPool::resize_epoch`]);
    /// higher layers compare it against the epoch of their cached
    /// [`crate::topology::PoolTopology`] snapshot before trusting cached
    /// placement decisions.
    pub fn resize_epoch(&self) -> u64 {
        self.pool.resize_epoch()
    }

    /// Starts a posted work queue (see [`WorkQueue`]): WQEs are posted
    /// signalled or unsignalled, one doorbell ring per distinct node starts
    /// them, and signalled completions are later consumed with
    /// [`DmClient::poll_cq`] — charging latency as *time since post*, so CPU
    /// work between ring and poll overlaps the in-flight transfers.
    pub fn work_queue<'buf>(&self) -> WorkQueue<'_, 'buf> {
        WorkQueue::new(self)
    }

    /// Allocates a work-request id for a posted WQE.
    pub(crate) fn alloc_wr_id(&self) -> u64 {
        let id = self.next_wr_id.get();
        self.next_wr_id.set(id + 1);
        id
    }

    /// Queues a signalled WQE's completion (called by [`WorkQueue::ring`]).
    pub(crate) fn push_completion(&self, completion: Completion) {
        self.cq.borrow_mut().push(completion);
    }

    /// Polls the completion queue: pops the earliest outstanding completion,
    /// advances the clock to its completion time (no charge when the
    /// completion is already in the past — the flight time was hidden behind
    /// CPU work) plus [`DmConfig::CQ_POLL_NS`], and returns
    /// it.  Returns `None` — for free — when nothing is outstanding.
    pub fn poll_cq(&self) -> Option<Completion> {
        let completion = self.cq.borrow_mut().pop_earliest()?;
        let now = self.clock_ns.get();
        let wait = completion.completed_at_ns.saturating_sub(now);
        self.advance_ns(wait + DmConfig::CQ_POLL_NS);
        self.pool.stats().record_cq_poll();
        self.record_span(
            Phase::Poll,
            now,
            self.clock_ns.get(),
            completion.wr_id as u32,
        );
        Some(completion)
    }

    /// Completions on the queue that no poll has consumed yet, due or not.
    pub fn outstanding_completions(&self) -> usize {
        self.cq.borrow().len()
    }

    /// Polls until the completion queue is empty, returning the number of
    /// completions consumed.  The clock ends at (or after) the last
    /// completion, so no signalled work escapes the op-latency accounting.
    ///
    /// The whole queue is drained (and charged) whatever the statuses, then
    /// the *first* error encountered — in completion order — is returned, so
    /// a caller cannot leave later completions stranded by bailing on the
    /// first failure.
    pub fn drain_cq(&self) -> DmResult<usize> {
        let mut drained = 0;
        let mut first_err = None;
        while let Some(completion) = self.poll_cq() {
            drained += 1;
            if first_err.is_none() {
                first_err = completion.status.check().err();
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(drained),
        }
    }

    /// Fallible one-sided `RDMA_READ` into a caller-provided buffer.
    ///
    /// Surfaces injected faults ([`DmError::VerbFailed`] /
    /// [`DmError::VerbTimeout`]) and [`DmError::NodeRemoved`] for nodes this
    /// client never had a live queue pair to, instead of panicking.
    pub fn try_read_into(&self, addr: RemoteAddr, buf: &mut [u8]) -> DmResult<()> {
        self.issue_and_wait(WqeOp::Read { addr, buf })
    }

    /// Fallible one-sided `RDMA_WRITE` (see [`DmClient::try_read_into`]).
    pub fn try_write(&self, addr: RemoteAddr, data: &[u8]) -> DmResult<()> {
        self.issue_and_wait(WqeOp::Write { addr, data })
    }

    /// Fallible asynchronous (unsignalled) `RDMA_WRITE`: leaves the critical
    /// path but still consumes the target RNIC's message rate.  An injected
    /// fault costs no latency — the client never waits on an unsignalled
    /// WQE — but is surfaced so callers *can* care (most ignore it: the
    /// write is best-effort metadata).
    pub fn try_write_async(&self, addr: RemoteAddr, data: &[u8]) -> DmResult<()> {
        self.issue(WqeOp::Write { addr, data })?.1.check()
    }

    /// Fallible 8-byte little-endian READ (see [`DmClient::try_read_into`]).
    pub fn try_read_u64(&self, addr: RemoteAddr) -> DmResult<u64> {
        let mut word = [0u8; 8];
        self.try_read_into(addr, &mut word)?;
        Ok(u64::from_le_bytes(word))
    }

    /// Fallible `RDMA_CAS` (see [`DmClient::try_read_into`]).  On success returns
    /// the old value; the swap succeeded iff it equals `expected`.  A
    /// faulted CAS is *not* applied: like a NAK'd atomic on real hardware,
    /// the word is untouched and the caller cannot tell whether it would
    /// have won — retry and re-read.
    pub fn try_cas(&self, addr: RemoteAddr, expected: u64, new: u64) -> DmResult<u64> {
        let mut old = 0;
        let out = &mut old;
        self.issue_and_wait(WqeOp::Cas {
            addr,
            expected,
            new,
            out,
        })?;
        Ok(old)
    }

    /// Fallible `RDMA_FAA` (see [`DmClient::try_cas`] for atomic-fault
    /// semantics); returns the old value.
    pub fn try_faa(&self, addr: RemoteAddr, delta: u64) -> DmResult<u64> {
        let mut old = 0;
        let out = Some(&mut old);
        self.issue_and_wait(WqeOp::Faa { addr, delta, out })?;
        Ok(old)
    }

    /// One-sided `RDMA_READ` of `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address range is invalid (remote addresses are produced
    /// by the allocator, so an invalid range indicates a bug in the caller)
    /// or if a fault is injected — fault-aware callers use
    /// [`DmClient::try_read_into`].
    pub fn read(&self, addr: RemoteAddr, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_into(addr, &mut buf);
        buf
    }

    /// One-sided `RDMA_READ` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if the address range is invalid or a fault is injected (see
    /// [`DmClient::read`]).
    pub fn read_into(&self, addr: RemoteAddr, buf: &mut [u8]) {
        self.try_read_into(addr, buf)
            .unwrap_or_else(|e| panic!("RDMA_READ failed: {e}"));
    }

    /// One-sided `RDMA_WRITE` of `data` at `addr` (on the critical path).
    ///
    /// # Panics
    ///
    /// Panics if the address range is invalid or a fault is injected (see
    /// [`DmClient::read`]).
    pub fn write(&self, addr: RemoteAddr, data: &[u8]) {
        self.try_write(addr, data)
            .unwrap_or_else(|e| panic!("RDMA_WRITE failed: {e}"));
    }

    /// Convenience: read an 8-byte little-endian word (counts as a READ).
    ///
    /// # Panics
    ///
    /// Panics if the address is invalid or unaligned, or a fault is injected.
    pub fn read_u64(&self, addr: RemoteAddr) -> u64 {
        self.try_read_u64(addr)
            .unwrap_or_else(|e| panic!("RDMA_READ failed: {e}"))
    }

    /// Convenience: write an 8-byte little-endian word (counts as a WRITE).
    ///
    /// # Panics
    ///
    /// Panics if the address is invalid or unaligned, or a fault is injected.
    pub fn write_u64(&self, addr: RemoteAddr, value: u64) {
        self.try_write(addr, &value.to_le_bytes())
            .unwrap_or_else(|e| panic!("RDMA_WRITE failed: {e}"));
    }

    /// `RDMA_CAS` on the 8-byte word at `addr`.
    ///
    /// Returns the old value; the swap succeeded iff it equals `expected`.
    ///
    /// # Panics
    ///
    /// Panics if the address is invalid or unaligned, or a fault is injected.
    pub fn cas(&self, addr: RemoteAddr, expected: u64, new: u64) -> u64 {
        self.try_cas(addr, expected, new)
            .unwrap_or_else(|e| panic!("RDMA_CAS failed: {e}"))
    }

    /// `RDMA_FAA` on the 8-byte word at `addr`; returns the old value.
    ///
    /// # Panics
    ///
    /// Panics if the address is invalid or unaligned, or a fault is injected.
    pub fn faa(&self, addr: RemoteAddr, delta: u64) -> u64 {
        self.try_faa(addr, delta)
            .unwrap_or_else(|e| panic!("RDMA_FAA failed: {e}"))
    }

    /// Two-sided RPC to the controller of memory node `mn_id`: the reply
    /// lands in the caller's `reply` buffer, sized for the service's largest
    /// reply ([`crate::RpcHandler::handle`]), and its length is returned.
    ///
    /// An RPC is priced by its request bytes alone: one round trip waited
    /// out like a synchronous verb's (one [`Phase::Flight`] span), plus the
    /// controller CPU time the handler reports, charged to the node.  RPCs find their node
    /// through the pool, not a queue pair, and are never faulted (see the
    /// crate docs' failure model).  [`DmClient::post_rpc`] is the same call
    /// left in flight.
    pub fn rpc(
        &self,
        mn_id: u16,
        service: u8,
        request: &[u8],
        reply: &mut [u8],
    ) -> DmResult<usize> {
        let request_len = request.len();
        self.wait(
            DmConfig::verb_latency_ns(VerbKind::Rpc, request_len),
            request_len,
        );
        self.dispatch_rpc(mn_id, service, request, reply)
    }

    /// [`DmClient::rpc`] posted and not waited for: charges what a ring of
    /// one WQE charges (`DOORBELL_LATENCY_NS + VERB_ISSUE_NS`, one
    /// [`Phase::Post`] span), runs the handler into `reply` now, and returns
    /// the reply's length and the time it arrives, the RPC's round trip
    /// after the post.  Its flight span belongs to no op (op id 0), as a
    /// [`crate::WorkQueue::ring_left_in_flight`] verb's does.  The reply
    /// never enters the completion queue: the caller reads `reply` once its
    /// clock has reached the arrival, and waits out the rest if it needs it
    /// sooner.
    pub fn post_rpc(
        &self,
        mn_id: u16,
        service: u8,
        request: &[u8],
        reply: &mut [u8],
    ) -> DmResult<PostedRpc> {
        let start = self.clock_ns.get();
        self.advance_ns(DmConfig::DOORBELL_LATENCY_NS + DmConfig::VERB_ISSUE_NS);
        let posted = self.clock_ns.get();
        self.record_span(Phase::Post, start, posted, 1);
        let arrival_ns = posted + DmConfig::verb_latency_ns(VerbKind::Rpc, request.len());
        self.record_span_outside_op(Phase::Flight, posted, arrival_ns, request.len() as u32);
        let len = self.dispatch_rpc(mn_id, service, request, reply)?;
        Ok(PostedRpc { len, arrival_ns })
    }

    /// What every RPC does but wait: counts its message, runs the handler
    /// and charges the controller CPU it reports to the node.
    fn dispatch_rpc(
        &self,
        mn_id: u16,
        service: u8,
        request: &[u8],
        reply: &mut [u8],
    ) -> DmResult<usize> {
        let stats = self.pool.stats();
        stats.record_verb(mn_id, VerbKind::Rpc, request.len());
        let (len, cpu_ns) = self
            .pool
            .node(mn_id)?
            .dispatch_rpc(service, request, reply)?;
        stats.record_rpc_cpu(mn_id, DmConfig::RPC_BASE_CPU_NS + cpu_ns);
        Ok(len)
    }

    /// Marks the beginning of an application-level operation and advances
    /// the op sequence number that flight-recorder spans are keyed by.
    ///
    /// With the recorder armed, this is also where the sampling draw
    /// happens (see [`DmConfig::flight_recorder_sample_one_in`]): a
    /// deterministic splitmix64 hash of this client's id and the new op
    /// sequence number decides whether the whole op's span set records.
    /// No external seed is involved, so two identical runs — or the same
    /// run armed at different ring sizes — sample the exact same op ids.
    pub fn begin_op(&self) {
        self.op_seq.set(self.op_seq.get() + 1);
        self.span_op.set(self.op_seq.get());
        self.op_start_ns.set(self.clock_ns.get());
        if self.recorder.is_some() {
            let one_in = self.pool.config().flight_recorder_sample_one_in.max(1);
            let sampled = one_in == 1
                || crate::fault::splitmix64(((self.client_id as u64) << 40) ^ self.op_seq.get())
                    .is_multiple_of(one_in);
            self.op_sampled.set(sampled);
            self.pool.stats().record_op_sampled(sampled);
        }
    }

    /// Marks the end of an application-level operation, recording its latency
    /// in the pool-wide histogram, and closes its span window: spans
    /// recorded from here to the next [`DmClient::begin_op`] — a verb posted
    /// between ops, a final drain — carry op id 0, so they do not stretch
    /// the op before them.  Returns the operation latency in ns.
    ///
    /// Any signalled completions still outstanding are drained (and charged)
    /// first, so a pipeline that ends mid-poll cannot under-report its
    /// latency; unsignalled WQEs, by definition, are never waited for.
    pub fn end_op(&self) -> u64 {
        let _ = self.drain_cq();
        self.close_op()
    }

    /// [`DmClient::end_op`] without the drain: the op's verbs still in
    /// flight stay on the completion queue, for a later op's polls to meet.
    /// For a client that hands work across ops on purpose — it must route
    /// those completions itself.
    pub fn close_op(&self) -> u64 {
        let latency = self.clock_ns.get().saturating_sub(self.op_start_ns.get());
        self.pool.stats().record_op(latency);
        self.span_op.set(0);
        latency
    }

    /// Publishes this client's final clock to the pool statistics.  Called
    /// when the client drops; may also be called manually.
    pub fn publish_clock(&self) {
        self.pool.stats().publish_client_clock(self.clock_ns.get());
    }

    /// Resets the simulated clock to the pool's current clock baseline
    /// (e.g. between warm-up and the measured phase of an experiment).
    ///
    /// Outstanding completions are drained first — their completion times
    /// reference the pre-reset clock and must not leak across the boundary.
    pub fn reset_clock(&self) {
        let _ = self.drain_cq();
        let baseline = self.pool.stats().clock_baseline_ns();
        self.clock_ns.set(baseline);
        self.op_start_ns.set(baseline);
    }
}

impl Drop for DmClient {
    fn drop(&mut self) {
        // Publishes the clock when the client goes away, so that a run's
        // report (`run_clients`) includes every client created during it.
        self.publish_clock();
        // Fold the client-local per-phase histograms into the pool-wide set
        // exactly once, so the exposition's phase summaries cover every
        // client that ever connected.
        if let Some(hist) = self.phase_hist.take() {
            self.pool.stats().merge_phase_latency(&hist[..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmConfig;
    use crate::memnode::MemoryNode;
    use std::sync::Arc;

    fn pool() -> MemoryPool {
        MemoryPool::new(DmConfig::small())
    }

    #[test]
    fn verbs_advance_clock_and_count_messages() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        assert_eq!(client.now_ns(), 0);
        client.write(addr, &[7u8; 16]);
        let after_write = client.now_ns();
        assert!(after_write >= DmConfig::WRITE_LATENCY_NS);
        let data = client.read(addr, 16);
        assert_eq!(data, vec![7u8; 16]);
        assert!(client.now_ns() > after_write);
        let snaps = pool.stats().node_snapshots();
        assert_eq!(snaps[0].messages, 2);
        assert_eq!(snaps[0].reads, 1);
        assert_eq!(snaps[0].writes, 1);
    }

    #[test]
    fn async_write_does_not_advance_clock() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        client.try_write_async(addr, b"deferred").unwrap();
        assert_eq!(client.now_ns(), 0);
        assert_eq!(client.read(addr, 8), b"deferred");
        // The async write still consumed a message.
        assert_eq!(pool.stats().node_snapshots()[0].writes, 1);
    }

    #[test]
    fn cas_and_faa_work_through_client() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        client.write_u64(addr, 5);
        assert_eq!(client.cas(addr, 5, 9), 5);
        assert_eq!(client.read_u64(addr), 9);
        assert_eq!(client.faa(addr, 2), 9);
        assert_eq!(client.read_u64(addr), 11);
    }

    #[test]
    fn op_latency_is_recorded() {
        let pool = pool();
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        client.begin_op();
        client.read(addr, 64);
        client.read(addr, 64);
        let latency = client.end_op();
        assert!(latency >= 2 * DmConfig::READ_LATENCY_NS);
        assert_eq!(pool.stats().ops(), 1);
        assert!(pool.stats().latency().max_ns() >= latency);
    }

    #[test]
    fn a_waited_verb_records_one_flight_span_of_its_latency() {
        let pool = MemoryPool::new(DmConfig::small().with_flight_recorder(64));
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        let t0 = client.now_ns();
        client.try_read_into(addr, &mut [0u8; 64]).unwrap();
        let latency = DmConfig::verb_latency_ns(VerbKind::Read, 64);
        assert_eq!(client.now_ns(), t0 + latency);
        let spans = client.flight_spans();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].phase, Phase::Flight);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (t0, t0 + latency));
    }

    #[test]
    fn rpc_charges_controller_cpu() {
        let pool = pool();
        pool.register_handler(
            20,
            Arc::new(|_n: &MemoryNode, req: &[u8], reply: &mut [u8]| {
                crate::rpc::wire::reply(reply, 1)?[0] = req.len() as u8;
                Ok((1, 1_500))
            }),
        );
        let client = pool.connect();
        let mut reply = [0u8; 4];
        assert_eq!(client.rpc(0, 20, b"abc", &mut reply), Ok(1));
        assert_eq!(reply[0], 3);
        let snap = &pool.stats().node_snapshots()[0];
        assert_eq!(snap.rpcs, 1);
        assert_eq!(snap.rpc_cpu_ns, 1_500 + DmConfig::RPC_BASE_CPU_NS);
        assert!(client.now_ns() >= DmConfig::RPC_LATENCY_NS);
    }

    #[test]
    fn a_posted_rpc_charges_its_posting_cost_and_arrives_a_round_trip_later() {
        let pool = MemoryPool::new(DmConfig::small().with_flight_recorder(64));
        pool.register_handler(
            20,
            Arc::new(|_n: &MemoryNode, req: &[u8], reply: &mut [u8]| {
                crate::rpc::wire::reply(reply, 1)?[0] = req.len() as u8;
                Ok((1, 1_500))
            }),
        );
        let client = pool.connect();
        client.begin_op();
        let t0 = client.now_ns();
        let mut reply = [0u8; 4];
        let posted = client.post_rpc(0, 20, b"abc", &mut reply).unwrap();
        let post_end = t0 + DmConfig::DOORBELL_LATENCY_NS + DmConfig::VERB_ISSUE_NS;
        assert_eq!(client.now_ns(), post_end, "the posting cost only");
        assert_eq!(posted.len, 1);
        assert_eq!(reply[0], 3, "the handler ran into the caller's buffer");
        assert_eq!(
            posted.arrival_ns,
            post_end + DmConfig::verb_latency_ns(VerbKind::Rpc, 3)
        );
        assert_eq!(
            DmConfig::verb_latency_ns(VerbKind::Rpc, 3),
            DmConfig::RPC_LATENCY_NS
        );
        let snap = &pool.stats().node_snapshots()[0];
        assert_eq!((snap.rpcs, snap.messages), (1, 1));
        assert_eq!(snap.rpc_cpu_ns, 1_500 + DmConfig::RPC_BASE_CPU_NS);
        let spans = client.flight_spans();
        assert_eq!(spans.len(), 2, "{spans:?}");
        let (post, flight) = (&spans[0], &spans[1]);
        assert_eq!((post.phase, post.op_id), (Phase::Post, 1));
        assert_eq!((post.start_ns, post.end_ns), (t0, post_end));
        assert_eq!((flight.phase, flight.op_id), (Phase::Flight, 0));
        assert_eq!(
            (flight.start_ns, flight.end_ns),
            (post_end, posted.arrival_ns)
        );
    }

    #[test]
    fn rpc_to_missing_service_fails() {
        let pool = pool();
        let client = pool.connect();
        assert!(matches!(
            client.rpc(0, 99, b"", &mut []),
            Err(DmError::NoSuchService { service: 99 })
        ));
    }

    #[test]
    fn sleep_advances_clock_without_messages() {
        let pool = pool();
        let client = pool.connect();
        client.sleep_us(5);
        assert_eq!(client.now_ns(), 5_000);
        assert_eq!(pool.stats().node_snapshots()[0].messages, 0);
    }

    #[test]
    fn reset_clock_and_publish() {
        let pool = pool();
        let client = pool.connect();
        client.sleep_us(10);
        client.publish_clock();
        assert_eq!(pool.stats().max_client_clock_ns(), 10_000);
        client.reset_clock();
        assert_eq!(client.now_ns(), 0);
    }

    #[test]
    #[should_panic]
    fn read_out_of_bounds_panics() {
        let pool = pool();
        let client = pool.connect();
        let cap = pool.config().memory_node_capacity;
        let _ = client.read(RemoteAddr::new(0, cap - 4), 64);
    }

    /// Runs `ops` one-read ops with one hand-recorded span each and
    /// returns (sampled op ids from the recorder, pool handle).
    fn run_sampled(one_in: u64, ops: u64) -> (Vec<u64>, MemoryPool) {
        let pool = MemoryPool::new(DmConfig::small().with_flight_recorder_sampled(1 << 12, one_in));
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        for _ in 0..ops {
            client.begin_op();
            let start = client.now_ns();
            client.read(addr, 16);
            client.record_span(Phase::Decode, start, client.now_ns(), 0);
            client.end_op();
        }
        let mut sampled: Vec<u64> = client.flight_spans().iter().map(|s| s.op_id).collect();
        sampled.dedup();
        drop(client);
        (sampled, pool)
    }

    #[test]
    fn sampling_draw_is_deterministic_and_accounted() {
        let (sampled_a, pool_a) = run_sampled(4, 256);
        let (sampled_b, _pool_b) = run_sampled(4, 256);
        assert_eq!(
            sampled_a, sampled_b,
            "same client/op ids must sample identically across runs"
        );
        let obs = pool_a.stats().obs();
        assert_eq!(obs.ops_sampled + obs.ops_skipped, 256);
        assert_eq!(sampled_a.len() as u64, obs.ops_sampled);
        assert!(obs.ops_sampled > 0, "1-in-4 over 256 ops must keep some");
        assert!(obs.ops_skipped > 0, "1-in-4 over 256 ops must skip some");
    }

    #[test]
    fn sample_every_op_keeps_all_and_skipped_ops_record_nothing() {
        let (sampled, pool) = run_sampled(1, 64);
        assert_eq!(sampled.len(), 64, "1-in-1 sampling keeps every op");
        let obs = pool.stats().obs();
        assert_eq!(obs.ops_sampled, 64);
        assert_eq!(obs.ops_skipped, 0);
    }

    #[test]
    fn phase_histograms_merge_into_pool_on_drop() {
        let (sampled, pool) = run_sampled(4, 256);
        // One Decode span per sampled op, plus nothing else: the pool-wide
        // histogram (merged when the client dropped) must agree exactly.
        assert_eq!(
            pool.stats().phase_latency(Phase::Decode).count(),
            sampled.len() as u64
        );
        assert_eq!(pool.stats().phase_latency(Phase::Translate).count(), 0);
    }

    /// Spans carry the open op's id from `begin_op` to `end_op` and 0
    /// outside that window: before the first op, and after an op ended —
    /// a READ posted then (its post and flight spans) is not the op's,
    /// though the next op polls it.
    #[test]
    fn spans_recorded_between_ops_carry_op_zero() {
        let pool = MemoryPool::new(DmConfig::small().with_flight_recorder(1 << 8));
        let client = pool.connect();
        let addr = pool.reserve(64).unwrap();
        client.read(addr, 16);
        client.begin_op();
        client.read(addr, 16);
        client.end_op();
        let mut buf = [0u8; 16];
        let mut wq = client.work_queue();
        wq.post_read(addr, &mut buf, true);
        wq.ring();
        drop(wq);
        client.begin_op();
        assert!(client.poll_cq().is_some());
        client.end_op();
        let spans: Vec<_> = client
            .flight_spans()
            .iter()
            .map(|s| (s.phase, s.op_id))
            .collect();
        use Phase::{Flight, Poll, Post};
        assert_eq!(
            spans,
            [(Flight, 0), (Flight, 1), (Post, 0), (Flight, 0), (Poll, 2)]
        );
        assert_eq!(client.op_id(), 2, "the last op's sequence number");
    }

    #[test]
    fn span_recording_tracks_the_sampling_draw() {
        let pool = MemoryPool::new(DmConfig::small().with_flight_recorder_sampled(1 << 12, 4));
        let client = pool.connect();
        // Whether a span recorded right now lands in the ring.
        let lands = |client: &DmClient| {
            let before = client.flight_spans().len();
            client.record_span(Phase::Decode, 0, 1, 0);
            client.flight_spans().len() > before
        };
        assert!(
            lands(&client),
            "pre-op spans (op id 0) always record on an armed client"
        );
        let mut seen_on = false;
        let mut seen_off = false;
        for _ in 0..64 {
            client.begin_op();
            match lands(&client) {
                true => seen_on = true,
                false => seen_off = true,
            }
            client.end_op();
        }
        assert!(
            seen_on && seen_off,
            "1-in-4 draw must go both ways in 64 ops"
        );
    }
}
