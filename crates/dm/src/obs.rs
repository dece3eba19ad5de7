//! Observability: flight-recorder trace spans, the structured event log and
//! the exporters that make a run inspectable.
//!
//! The counters in [`crate::PoolStats`] answer *how much* — ops, messages,
//! retries, faults.  This module answers *when*:
//!
//! * [`FlightRecorder`] — an allocation-free, fixed-capacity per-client ring
//!   of phase-stamped [`Span`]s in **simulated** time (translate / post /
//!   flight / poll / decode / publish / lock / evict / relocate /
//!   local_hit / revalidate), armed via
//!   [`crate::DmConfig::flight_recorder_spans`].  Recording never advances
//!   the simulated clock, so an armed run is simulation-identical to a
//!   disarmed one; disarmed, the hot-path cost is a single `Option`
//!   discriminant check in [`crate::DmClient::record_span`].
//! * [`EventLog`] — a bounded ring of rare [`Event`]s (fault injections,
//!   migration state transitions, epoch bumps,
//!   crash-recovery phases) shared pool-wide, always on, with drop counters
//!   when the ring overflows.  Both are one bounded [`Ring`].
//! * [`chrome_trace_json`] — a Chrome-tracing / Perfetto JSON writer, so WQE
//!   overlap and the fig18 migration timeline are visually inspectable.
//! * [`text_exposition`] — a Prometheus-style text dump unifying
//!   [`crate::PoolStats`], the contention / fault snapshots and
//!   [`crate::LatencyHistogram`] quantiles.
//! * [`with_event_postmortem`] — runs a closure and, should it panic,
//!   re-panics with the event-log tail appended, so a failing chaos seed
//!   comes with its last-N-events post-mortem.

use crate::migration::MigrationState;
use crate::pool::MemoryPool;
use crate::stats::{CounterRow, PoolStats};
use std::fmt;

/// The phase of an operation a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Key → bucket/slot address computation on the client CPU.
    Translate,
    /// Posting WQEs and ringing the doorbell (synchronous CPU/MMIO work).
    Post,
    /// A verb in flight: a posted WQE's doorbell-ring end to its
    /// completion time, or a synchronous verb's or RPC's whole round trip.
    Flight,
    /// A successful completion-queue poll (any wait plus the CQE read).
    Poll,
    /// Decoding fetched bucket/slot bytes on the client CPU.
    Decode,
    /// Publishing a slot (the CAS that makes a Set visible).
    Publish,
    /// A remote-lock acquisition (first attempt to outcome), recorded by a
    /// lock-based baseline (`ditto_baselines`' `shardlru`).  Ditto itself
    /// takes no lock and never records it.
    Lock,
    /// An eviction pass, from its first sample READ being issued to the
    /// victim's memory being freed.  An umbrella span: an eviction running
    /// ahead rides along an evicting `Set`'s own lookup and publish, whose
    /// phases are recorded inside it.
    Evict,
    /// Relocating an object's bytes between memory nodes.
    Relocate,
    /// A Get served entirely from the compute-side local tier (zero
    /// network messages; see `ditto_core::local_tier`).
    LocalHit,
    /// A local-tier lease revalidation: the single 8-byte slot-word READ
    /// that re-arms an expired lease.
    Revalidate,
}

impl Phase {
    /// Number of phases; sizes the per-phase histogram arrays in
    /// [`crate::PoolStats`] and the attribution tables below.
    pub const COUNT: usize = 11;

    /// Every phase, in declaration order ([`Phase::index`] order).
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Translate,
        Phase::Post,
        Phase::Flight,
        Phase::Poll,
        Phase::Decode,
        Phase::Publish,
        Phase::Lock,
        Phase::Evict,
        Phase::Relocate,
        Phase::LocalHit,
        Phase::Revalidate,
    ];

    /// Dense index of this phase (declaration order, `< Phase::COUNT`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Translate => "translate",
            Phase::Post => "post",
            Phase::Flight => "flight",
            Phase::Poll => "poll",
            Phase::Decode => "decode",
            Phase::Publish => "publish",
            Phase::Lock => "lock",
            Phase::Evict => "evict",
            Phase::Relocate => "relocate",
            Phase::LocalHit => "local_hit",
            Phase::Revalidate => "revalidate",
        }
    }

    /// Inverse of [`Phase::name`], for exporters that round-trip through
    /// text (the Chrome-trace analyzer re-keys events by this).
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// One phase-stamped interval of simulated time, keyed by the op that was
/// current when it was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The issuing client's op sequence number (see
    /// [`crate::DmClient::op_id`]) while that op is open; 0 outside any
    /// `begin_op`/`end_op` window.
    pub op_id: u64,
    /// What the interval covers.
    pub phase: Phase,
    /// Simulated start, in nanoseconds.
    pub start_ns: u64,
    /// Simulated end, in nanoseconds (`>= start_ns`; equal for instants).
    pub end_ns: u64,
    /// Phase-specific payload: WQE count for `Post`, work-request id for
    /// `Poll` and a posted WQE's `Flight`, payload bytes for the `Flight` of
    /// a synchronous verb or RPC, retries for `Lock`, bytes for `Relocate`, …
    pub detail: u32,
}

impl Span {
    /// Duration of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether two spans overlap in simulated time (shared endpoints do not
    /// count — a zero-width intersection is not concurrency).
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start_ns < other.end_ns && other.start_ns < self.end_ns
    }
}

/// A bounded ring: the backing `Vec` is allocated once at construction and
/// never grows, so pushing in steady state is allocation-free (pinned by
/// `crates/core/tests/zero_alloc.rs`).  When the ring is full the oldest
/// item is overwritten and counted as a drop.
pub struct Ring<T> {
    items: Vec<T>,
    cap: usize,
    total: u64,
}

/// The per-client flight recorder: a ring of [`Span`]s.
/// [`Ring::push`] reports drops and wraps so the caller can feed the
/// pool-wide obs counters.
pub type FlightRecorder = Ring<Span>;

/// The pool-wide ring of [`Event`]s (behind a mutex in the pool; see
/// [`crate::MemoryPool::record_event`]).  Always on — rare events are cheap —
/// holding the last [`EventLog::POOL_CAPACITY`] events.
pub type EventLog = Ring<Event>;

impl EventLog {
    /// Capacity of the pool's log.
    pub const POOL_CAPACITY: usize = 1024;
}

impl<T: Copy> Ring<T> {
    /// Creates a ring holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Ring {
            items: Vec::with_capacity(cap),
            cap,
            total: 0,
        }
    }

    /// Maximum items retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items currently retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been pushed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items pushed since the last clear (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Items lost to overwrites since the last clear.
    pub fn dropped(&self) -> u64 {
        self.total - self.items.len() as u64
    }

    /// Pushes an item.  Returns `(dropped, wrapped)`: `dropped` when an
    /// older item was overwritten, `wrapped` when this push started a new
    /// lap of the ring (slot 0 overwritten).
    pub fn push(&mut self, item: T) -> (bool, bool) {
        let idx = (self.total % self.cap as u64) as usize;
        let full = self.items.len() == self.cap;
        self.total += 1;
        if full {
            self.items[idx] = item;
            (true, idx == 0)
        } else {
            self.items.push(item);
            (false, false)
        }
    }

    /// The retained items, oldest first.
    pub fn in_order(&self) -> Vec<T> {
        // The oldest slot; until the ring first fills it is one past the
        // newest, so the first slice is empty.
        let head = (self.total % self.cap as u64) as usize;
        let mut out = Vec::with_capacity(self.items.len());
        out.extend_from_slice(&self.items[head..]);
        out.extend_from_slice(&self.items[..head]);
        out
    }

    /// The last `n` retained items, oldest first.
    pub fn tail(&self, n: usize) -> Vec<T> {
        let mut ordered = self.in_order();
        ordered.drain(..ordered.len().saturating_sub(n));
        ordered
    }

    /// Forgets everything (e.g. between warm-up and a measured window).
    pub fn clear(&mut self) {
        self.items.clear();
        self.total = 0;
    }
}

/// Phase of a crash-recovery pass (see `ditto_core`'s
/// `recover_crashed_client`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Replaying the dead client's redo journal against a forensic scan.
    JournalReplay,
    /// Sweeping granted-but-unreferenced segment bytes back to their nodes.
    GapSweep,
    /// Both invariants restored.
    Done,
}

impl RecoveryPhase {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::JournalReplay => "journal-replay",
            RecoveryPhase::GapSweep => "gap-sweep",
            RecoveryPhase::Done => "done",
        }
    }
}

/// What a rare [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The fault injector faulted a verb to `mn_id` (`timeout` distinguishes
    /// a retransmission timeout from an error completion).
    VerbFault { mn_id: u16, timeout: bool },
    /// Stripe `stripe` entered migration state `state`.
    Migration { stripe: u64, state: MigrationState },
    /// The pool's resize epoch advanced to `epoch`.
    EpochBump { epoch: u64 },
    /// A crash-recovery pass for `dead_client` entered `phase`.
    Recovery {
        dead_client: u32,
        phase: RecoveryPhase,
    },
}

/// Sentinel [`Event::client_id`] for events not attributable to one client
/// (e.g. pool-level epoch bumps).
pub const POOL_EVENT_CLIENT: u32 = u32::MAX;

/// One rare occurrence, stamped with simulated time and the client that
/// observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated time of the observation, in nanoseconds.
    pub at_ns: u64,
    /// Observing client, or [`POOL_EVENT_CLIENT`] for pool-level events.
    pub client_id: u32,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12} ns] ", self.at_ns)?;
        if self.client_id == POOL_EVENT_CLIENT {
            write!(f, "pool       ")?;
        } else {
            write!(f, "client {:<4}", self.client_id)?;
        }
        match self.kind {
            EventKind::VerbFault { mn_id, timeout } => {
                let what = if timeout { "timeout" } else { "failure" };
                write!(f, "verb {what} on mn{mn_id}")
            }
            EventKind::Migration { stripe, state } => {
                write!(f, "stripe {stripe} -> {}", state.name())
            }
            EventKind::EpochBump { epoch } => write!(f, "resize epoch -> {epoch}"),
            EventKind::Recovery { dead_client, phase } => {
                write!(f, "recovery of client {dead_client}: {}", phase.name())
            }
        }
    }
}

/// Formats events one per line (the post-mortem dump format).
pub fn format_events(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_string());
        out.push('\n');
    }
    out
}

/// Runs `f`, and should it panic, re-panics with the pool's event-log tail
/// (last `tail` events) appended to the panic message — so a failing chaos
/// seed comes with its post-mortem instead of a bare assertion.
///
/// The closure's panic payload is preserved verbatim when it is a string
/// (the overwhelmingly common case for `assert!`/`panic!`).
pub fn with_event_postmortem<R>(pool: &MemoryPool, tail: usize, f: impl FnOnce() -> R) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            let events = pool.event_tail(tail);
            let dump = if events.is_empty() {
                "  (event log empty)\n".to_string()
            } else {
                format_events(&events)
            };
            panic!(
                "{msg}\n--- event log tail ({} of {} recorded) ---\n{dump}",
                events.len(),
                pool.stats().obs().events_recorded,
            );
        }
    }
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Serialises per-client span collections (plus optional events as instant
/// markers) into Chrome-tracing JSON — load the file at `chrome://tracing`
/// or <https://ui.perfetto.dev>.
///
/// Each span becomes a complete (`"ph":"X"`) event with `pid` 0 and `tid`
/// the client id; timestamps are microseconds of **simulated** time.  Each
/// [`Event`] becomes a global instant (`"ph":"i"`).  Metadata records
/// (`"ph":"M"`) name the process `ditto-pool` and each tid `client-<id>`,
/// so Perfetto labels the rows instead of showing bare thread numbers.  No
/// `serde_json` is involved: the build image has no crates.io access, so
/// the writer emits the JSON by hand.
pub fn chrome_trace_json(traces: &[(u32, Vec<Span>)], events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    // Metadata records lead the stream, so `first` below is always false.
    let mut first = false;
    out.push_str(
        "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"ditto-pool\"}}",
    );
    for (client_id, _) in traces {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{client_id},\
             \"args\":{{\"name\":\"client-{client_id}\"}}}}"
        ));
    }
    for (client_id, spans) in traces {
        for span in spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"dm\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"op\":{},\"detail\":{}}}}}",
                span.phase.name(),
                span.start_ns as f64 / 1_000.0,
                span.duration_ns() as f64 / 1_000.0,
                client_id,
                span.op_id,
                span.detail,
            ));
        }
    }
    for event in events {
        if !first {
            out.push(',');
        }
        first = false;
        let tid = if event.client_id == POOL_EVENT_CLIENT {
            0
        } else {
            event.client_id
        };
        let mut name = String::new();
        push_json_escaped(&mut name, &event.to_string());
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{:.3},\
             \"pid\":0,\"tid\":{}}}",
            name,
            event.at_ns as f64 / 1_000.0,
            tid,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// One phase's slice of an [`AttributionTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAttribution {
    /// Spans of this phase across the attributed ops.
    pub spans: u64,
    /// Raw span time: the sum of span durations, counting overlapped
    /// stretches once per span.
    pub raw_ns: u64,
    /// Critical-path (serialized) time: nanoseconds of op timeline
    /// *exclusively* attributed to this phase.  Each instant of an op is
    /// charged to at most one active phase — CPU phases outrank CQ waits,
    /// which outrank the eviction umbrella and pure wire flight — so summing `critical_ns` over all
    /// phases never exceeds the ops' elapsed time.
    pub critical_ns: u64,
    /// Median raw span duration of this phase, in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile raw span duration of this phase, in nanoseconds.
    pub p99_ns: u64,
}

/// Per-phase latency attribution over a set of flight-recorder traces:
/// where op time actually goes once pipelined spans overlap.
///
/// Built by [`attribution`] from the same `(client, spans)` collections
/// [`chrome_trace_json`] consumes.  `raw` time counts every span in full;
/// `critical` time serializes overlap by charging each instant of an op to
/// the highest-ranked phase active at that instant (`Lock`/CPU work ≻
/// `Poll` waits ≻ the `Evict` umbrella ≻ `Flight` wire time), so the per-phase critical
/// shares sum to at most 100 % of the elapsed op time and their difference
/// from raw time is precisely the latency the pipeline hid.
#[derive(Debug, Clone, Default)]
pub struct AttributionTable {
    /// Ops attributed (distinct `(client, op_id)` pairs, `op_id > 0`).
    pub ops: u64,
    /// Σ per-op elapsed time (first span start to last span end), ns.
    pub elapsed_ns: u64,
    /// Σ raw span durations, ns.
    pub raw_ns: u64,
    /// Σ exclusively attributed time, ns (`<= elapsed_ns`).
    pub critical_ns: u64,
    /// Median per-op elapsed time, ns.
    pub op_p50_ns: u64,
    /// 99th-percentile per-op elapsed time, ns.
    pub op_p99_ns: u64,
    /// Per-phase totals over **all** ops, indexed by [`Phase::index`].
    pub phases: [PhaseAttribution; Phase::COUNT],
    /// Ops in the latency tail: the slowest ⌈1 %⌉ of ops, so ops tied at
    /// `op_p99_ns` do not swell it.  The ops tied at the tail's cutoff
    /// latency share the places the slower ops leave, pro rata, so the
    /// tail does not depend on the order the ops were traced in.
    pub tail_ops: u64,
    /// Σ elapsed time of the tail ops, ns: the slower ops' in full, and
    /// the cutoff latency once per place the tied ops share.
    pub tail_elapsed_ns: u64,
    /// Per-phase **critical** time inside the tail ops only: which phase
    /// dominates p99.  The tied ops add their sum × places left ÷ ops
    /// tied.  Indexed by [`Phase::index`].
    pub tail: [PhaseAttribution; Phase::COUNT],
}

impl AttributionTable {
    /// Latency the pipeline hid: raw span time minus serialized time.
    pub fn overlap_saved_ns(&self) -> u64 {
        self.raw_ns.saturating_sub(self.critical_ns)
    }

    /// The share of elapsed op time the phases cover, in percent: Σ
    /// critical ÷ elapsed.  At most 100; what it falls short by is op time
    /// no span covers, which the table cannot explain.
    pub fn attributed_pct(&self) -> f64 {
        100.0 * self.critical_ns as f64 / self.elapsed_ns.max(1) as f64
    }

    /// Renders the table in the fixed-width layout `obs_report` prints.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "ops {}   op p50 {:.2} us   op p99 {:.2} us   attributed {:.2}%   overlap saved {:.1} us total\n",
            self.ops,
            self.op_p50_ns as f64 / 1e3,
            self.op_p99_ns as f64 / 1e3,
            self.attributed_pct(),
            self.overlap_saved_ns() as f64 / 1e3,
        ));
        out.push_str(
            "phase       spans    p50_us    p99_us  critical%     tail%  (critical share of op time; tail = slowest 1% of ops)\n",
        );
        for phase in Phase::ALL {
            let p = &self.phases[phase.index()];
            if p.spans == 0 {
                continue;
            }
            let share = 100.0 * p.critical_ns as f64 / self.elapsed_ns.max(1) as f64;
            let tail_share = 100.0 * self.tail[phase.index()].critical_ns as f64
                / self.tail_elapsed_ns.max(1) as f64;
            out.push_str(&format!(
                "{:<10} {:>6} {:>9.2} {:>9.2} {:>9.1} {:>9.1}\n",
                phase.name(),
                p.spans,
                p.p50_ns as f64 / 1e3,
                p.p99_ns as f64 / 1e3,
                share,
                tail_share,
            ));
        }
        out
    }
}

/// Rank deciding which active phase an instant of op time is charged to
/// (highest wins).  Pure wire flight only collects time no other phase
/// claims; the `Evict` umbrella comes next, so an eviction overlapped with
/// its `Set` is charged only the time it *adds* — the stretches where
/// nothing but the eviction (its serial victim CAS, scoring, any
/// synchronous re-sample) keeps the op waiting — while the lookup and
/// publish it rides along keep their own time; CQ waits hide behind
/// concurrent CPU work; the remaining (CPU / lock / maintenance) phases
/// rarely overlap each other and tie-break by declaration order.
fn attribution_rank(phase: Phase) -> u8 {
    match phase {
        Phase::Flight => 0,
        Phase::Evict => 1,
        Phase::Poll => 2,
        _ => 3 + phase.index() as u8,
    }
}

fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Computes per-phase critical-path attribution over per-client span
/// collections (the shape [`chrome_trace_json`] takes).
///
/// Spans are grouped into ops by `(client, op_id)`; spans with `op_id == 0`
/// (recorded outside any [`crate::DmClient::begin_op`] /
/// [`crate::DmClient::end_op`] window — setup, maintenance, a verb posted
/// between ops, the flight of a verb its op left in flight) are excluded.  Within an op, every elementary time slice is
/// charged to the highest-ranked phase active during it (see
/// [`AttributionTable`]: CPU/lock work ≻ CQ waits ≻ eviction umbrella ≻
/// wire flight);
/// slices where no span is active (client-side think time between posts)
/// are left unattributed, which is why per-phase critical shares sum to
/// **at most** 100 % of the elapsed op time.
pub fn attribution(traces: &[(u32, Vec<Span>)]) -> AttributionTable {
    let mut table = AttributionTable::default();
    let mut op_elapsed: Vec<u64> = Vec::new();
    // (elapsed, per-phase critical ns) per op, for the tail pass.
    let mut per_op: Vec<(u64, [u64; Phase::COUNT])> = Vec::new();
    let mut durations: [Vec<u64>; Phase::COUNT] = Default::default();

    for (_client, spans) in traces {
        // Spans outside any op go first, so that an op whose verbs were left
        // in flight — their flight spans recorded amid its own — stays one
        // run of spans.
        let spans: Vec<Span> = spans.iter().filter(|s| s.op_id != 0).copied().collect();
        let mut idx = 0;
        while idx < spans.len() {
            let op_id = spans[idx].op_id;
            let mut end = idx + 1;
            while end < spans.len() && spans[end].op_id == op_id {
                end += 1;
            }
            let op = &spans[idx..end];
            idx = end;

            let start_ns = op.iter().map(|s| s.start_ns).min().unwrap_or(0);
            let end_ns = op.iter().map(|s| s.end_ns).max().unwrap_or(0);
            let elapsed = end_ns.saturating_sub(start_ns);
            let mut critical = [0u64; Phase::COUNT];

            // Elementary slices between consecutive span boundaries.
            let mut bounds: Vec<u64> = Vec::with_capacity(op.len() * 2);
            for s in op {
                bounds.push(s.start_ns);
                bounds.push(s.end_ns);
            }
            bounds.sort_unstable();
            bounds.dedup();
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let winner = op
                    .iter()
                    .filter(|s| s.start_ns <= lo && s.end_ns >= hi)
                    .map(|s| s.phase)
                    .max_by_key(|p| attribution_rank(*p));
                if let Some(phase) = winner {
                    critical[phase.index()] += hi - lo;
                }
            }

            for s in op {
                let p = &mut table.phases[s.phase.index()];
                p.spans += 1;
                p.raw_ns += s.duration_ns();
                table.raw_ns += s.duration_ns();
                durations[s.phase.index()].push(s.duration_ns());
            }
            for (i, ns) in critical.iter().enumerate() {
                table.phases[i].critical_ns += ns;
                table.critical_ns += ns;
            }
            table.ops += 1;
            table.elapsed_ns += elapsed;
            op_elapsed.push(elapsed);
            per_op.push((elapsed, critical));
        }
    }

    op_elapsed.sort_unstable();
    table.op_p50_ns = percentile_sorted(&op_elapsed, 0.50);
    table.op_p99_ns = percentile_sorted(&op_elapsed, 0.99);
    for (i, d) in durations.iter_mut().enumerate() {
        d.sort_unstable();
        table.phases[i].p50_ns = percentile_sorted(d, 0.50);
        table.phases[i].p99_ns = percentile_sorted(d, 0.99);
    }
    per_op.sort_unstable_by_key(|&(elapsed, _)| std::cmp::Reverse(elapsed));
    let places = per_op.len().div_ceil(100);
    let Some(&(cutoff, _)) = per_op.get(places.saturating_sub(1)) else {
        return table;
    };
    table.tail_ops = places as u64;
    let (mut left, mut tied, mut tied_ops) = (places as u128, [0u128; Phase::COUNT], 0u128);
    for (elapsed, critical) in per_op.iter().take_while(|(e, _)| *e >= cutoff) {
        if *elapsed > cutoff {
            left -= 1;
            table.tail_elapsed_ns += elapsed;
            for (tail, ns) in table.tail.iter_mut().zip(critical) {
                tail.critical_ns += ns;
            }
        } else {
            tied_ops += 1;
            for (sum, ns) in tied.iter_mut().zip(critical) {
                *sum += u128::from(*ns);
            }
        }
    }
    // The ops tied at the cutoff share the places left pro rata.
    table.tail_elapsed_ns += cutoff * left as u64;
    for (tail, sum) in table.tail.iter_mut().zip(tied) {
        tail.critical_ns += (sum * left / tied_ops) as u64;
    }
    table
}

/// Appends one series' `# HELP` and `# TYPE` lines to an exposition page.
pub fn write_metric_header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Appends one unlabelled series — header and value — to an exposition page.
pub fn write_metric(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    value: impl fmt::Display,
) {
    write_metric_header(out, name, help, kind);
    out.push_str(&format!("{name} {value}\n"));
}

/// Appends one series per row of a [`counter_table!`](crate::counter_table);
/// `values` holds the rows' values in table order.
pub fn write_rows(out: &mut String, rows: &[CounterRow], values: &[u64]) {
    for (row, value) in rows.iter().zip(values) {
        write_metric(out, row.name, row.help, row.kind, value);
    }
}

/// Appends one series with a line per instance, `name{label="i"} value` for
/// the `i`th of `values`.
pub fn write_labelled_series(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    label: &str,
    values: impl Iterator<Item = u64>,
) {
    write_metric_header(out, name, help, kind);
    for (i, value) in values.enumerate() {
        out.push_str(&format!("{name}{{{label}=\"{i}\"}} {value}\n"));
    }
}

/// Renders the pool's whole accounting state as a Prometheus-style text
/// exposition: the operation- and per-phase latency summaries (via
/// [`crate::LatencyHistogram::quantiles`], one pass each), then every
/// counter group of [`PoolStats`] — one series per table row
/// ([`PoolStats::write_exposition`]).
pub fn text_exposition(stats: &PoolStats) -> String {
    let mut out = String::new();
    let latency = stats.latency();
    let qs = [0.5, 0.9, 0.99, 0.999];
    let values = latency.quantiles(&qs);
    write_metric_header(
        &mut out,
        "ditto_op_latency_seconds",
        "Operation latency in simulated seconds.",
        "summary",
    );
    for (q, v) in qs.iter().zip(values.iter()) {
        out.push_str(&format!(
            "ditto_op_latency_seconds{{quantile=\"{q}\"}} {:.9}\n",
            *v as f64 / 1e9
        ));
    }
    out.push_str(&format!(
        "ditto_op_latency_seconds_sum {:.9}\nditto_op_latency_seconds_count {}\n",
        latency.sum_ns() as f64 / 1e9,
        latency.count(),
    ));
    write_metric_header(
        &mut out,
        "ditto_phase_latency_seconds",
        "Span latency per operation phase, from (sampled) flight-recorder \
         spans; only phases with recorded spans appear.",
        "summary",
    );
    for phase in Phase::ALL {
        let hist = stats.phase_latency(phase);
        if hist.count() == 0 {
            continue;
        }
        let name = phase.name();
        for (q, v) in qs.iter().zip(hist.quantiles(&qs).iter()) {
            out.push_str(&format!(
                "ditto_phase_latency_seconds{{phase=\"{name}\",quantile=\"{q}\"}} {:.9}\n",
                *v as f64 / 1e9
            ));
        }
        out.push_str(&format!(
            "ditto_phase_latency_seconds_sum{{phase=\"{name}\"}} {:.9}\n\
             ditto_phase_latency_seconds_count{{phase=\"{name}\"}} {}\n",
            hist.sum_ns() as f64 / 1e9,
            hist.count(),
        ));
    }
    stats.write_exposition(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmConfig;

    fn span(op_id: u64, start: u64, end: u64) -> Span {
        Span {
            op_id,
            phase: Phase::Flight,
            start_ns: start,
            end_ns: end,
            detail: 0,
        }
    }

    fn event(at_ns: u64, client: u32) -> Event {
        Event {
            at_ns,
            client_id: client,
            kind: EventKind::EpochBump { epoch: at_ns },
        }
    }

    #[test]
    fn recorder_wraps_evict_oldest_and_count_drops() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..4 {
            assert_eq!(rec.push(span(i, i, i + 1)), (false, false));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 0);
        // Capacity + 1: the oldest span is evicted, one drop, one wrap.
        assert_eq!(rec.push(span(4, 4, 5)), (true, true));
        assert_eq!(rec.dropped(), 1);
        let spans = rec.in_order();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.first().unwrap().op_id, 1, "oldest span evicted");
        assert_eq!(spans.last().unwrap().op_id, 4);
        // Subsequent overwrites drop without wrapping until the next lap.
        assert_eq!(rec.push(span(5, 5, 6)), (true, false));
        assert_eq!(rec.push(span(6, 6, 7)), (true, false));
        assert_eq!(rec.push(span(7, 7, 8)), (true, false));
        assert_eq!(rec.push(span(8, 8, 9)), (true, true));
        assert_eq!(rec.total(), 9);
        assert_eq!(rec.dropped(), 5);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.total(), 0);
    }

    #[test]
    fn span_overlap_is_strict() {
        let a = span(0, 10, 20);
        let b = span(1, 15, 25);
        let c = span(2, 20, 30);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "shared endpoint is not overlap");
        assert_eq!(a.duration_ns(), 10);
    }

    #[test]
    fn event_log_bounds_and_orders() {
        let mut log = EventLog::new(3);
        assert_eq!(log.push(event(1, 0)), (false, false));
        assert_eq!(log.push(event(2, 1)), (false, false));
        assert_eq!(log.push(event(3, 2)), (false, false));
        assert!(log.push(event(4, 3)).0, "overflow overwrites the oldest");
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.total(), 4);
        let events = log.in_order();
        assert_eq!(
            events.iter().map(|e| e.at_ns).collect::<Vec<_>>(),
            [2, 3, 4]
        );
        let tail = log.tail(2);
        assert_eq!(tail.iter().map(|e| e.at_ns).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(log.tail(99).len(), 3);
    }

    #[test]
    fn event_display_is_line_oriented() {
        let e = Event {
            at_ns: 1_234,
            client_id: 7,
            kind: EventKind::VerbFault {
                mn_id: 2,
                timeout: true,
            },
        };
        let line = e.to_string();
        assert!(line.contains("client 7"), "{line}");
        assert!(line.contains("verb timeout on mn2"), "{line}");
        let pool_event = Event {
            at_ns: 5,
            client_id: POOL_EVENT_CLIENT,
            kind: EventKind::EpochBump { epoch: 9 },
        };
        assert!(pool_event.to_string().contains("pool"));
        assert!(pool_event.to_string().contains("resize epoch -> 9"));
    }

    #[test]
    fn chrome_trace_renders_spans_and_events() {
        let traces = vec![(3u32, vec![span(17, 1_000, 3_500)])];
        let events = vec![event(2_000, POOL_EVENT_CLIENT)];
        let json = chrome_trace_json(&traces, &events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"flight\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"op\":17"));
        assert!(json.contains("\"ph\":\"i\""));
        // Balanced braces/brackets (cheap well-formedness check; the full
        // parser lives in the trace-smoke validator).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_with_nothing_is_valid() {
        let json = chrome_trace_json(&[], &[]);
        assert!(json.contains("\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn chrome_trace_metadata_labels_process_and_threads() {
        let traces = vec![(3u32, vec![span(17, 1_000, 3_500)]), (9u32, Vec::new())];
        let json = chrome_trace_json(&traces, &[]);
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(
            json.contains("\"name\":\"process_name\"") && json.contains("\"name\":\"ditto-pool\""),
            "{json}"
        );
        // One thread_name record per client, even span-less ones.
        assert!(
            json.contains("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3")
                && json.contains("\"name\":\"client-3\""),
            "{json}"
        );
        assert!(json.contains("\"name\":\"client-9\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn phase_names_round_trip() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i, "ALL must follow declaration order");
            assert_eq!(Phase::from_name(phase.name()), Some(*phase));
        }
        assert_eq!(Phase::from_name("no-such-phase"), None);
    }

    fn pspan(op_id: u64, phase: Phase, start: u64, end: u64) -> Span {
        Span {
            op_id,
            phase,
            start_ns: start,
            end_ns: end,
            detail: 0,
        }
    }

    #[test]
    fn attribution_serializes_overlap_exclusively() {
        // One pipelined op: decode work [40,80) overlaps the flight
        // [10,110); the poll wait [110,130) closes it out.  An op-id-0
        // setup span must be excluded.
        let traces = vec![(
            0u32,
            vec![
                pspan(0, Phase::Translate, 0, 1_000_000),
                pspan(1, Phase::Post, 0, 10),
                pspan(1, Phase::Flight, 10, 110),
                pspan(1, Phase::Decode, 40, 80),
                pspan(1, Phase::Poll, 110, 130),
            ],
        )];
        let table = attribution(&traces);
        assert_eq!(table.ops, 1);
        assert_eq!(table.elapsed_ns, 130);
        assert_eq!(table.raw_ns, 10 + 100 + 40 + 20);
        // Decode outranks Flight over [40,80), so flight keeps only the
        // uncovered [10,40) and [80,110) slices.
        assert_eq!(table.phases[Phase::Post.index()].critical_ns, 10);
        assert_eq!(table.phases[Phase::Flight.index()].critical_ns, 60);
        assert_eq!(table.phases[Phase::Decode.index()].critical_ns, 40);
        assert_eq!(table.phases[Phase::Poll.index()].critical_ns, 20);
        assert_eq!(table.critical_ns, 130, "no gaps: fully attributed");
        assert_eq!(table.overlap_saved_ns(), 40);
        assert_eq!(
            table.phases[Phase::Translate.index()],
            PhaseAttribution::default(),
            "op-id-0 spans are excluded"
        );
        // A single op is its own p50, p99 and tail.
        assert_eq!(table.op_p50_ns, 130);
        assert_eq!(table.op_p99_ns, 130);
        assert_eq!(table.tail_ops, 1);
        assert_eq!(table.tail_elapsed_ns, 130);
        assert_eq!(table.tail[Phase::Flight.index()].critical_ns, 60);
        // The rendered table carries every non-empty phase and the header.
        let rendered = table.format();
        for needle in ["ops 1", "post", "flight", "decode", "poll"] {
            assert!(rendered.contains(needle), "missing {needle:?}:\n{rendered}");
        }
        assert!(!rendered.contains("translate"), "{rendered}");
    }

    /// Fifty of 250 ops tie at the p99: the tail is the slowest ⌈1 %⌉, three
    /// ops, the first three tied ones in trace order.
    #[test]
    fn the_tail_is_the_slowest_one_percent_of_ops_even_when_they_tie() {
        let spans = (1..=250u64)
            .map(|op| {
                let phase = if op % 2 == 1 {
                    Phase::Flight
                } else {
                    Phase::Poll
                };
                let start = op * 1_000;
                let elapsed = if op > 200 { 200 } else { 100 };
                pspan(op, phase, start, start + elapsed)
            })
            .collect();
        let table = attribution(&[(0, spans)]);
        assert_eq!(table.ops, 250);
        assert_eq!(table.op_p99_ns, 200);
        assert_eq!(table.tail_ops, 3);
        assert_eq!(table.tail_elapsed_ns, 600);
        // All 50 slow ops tie at the cutoff, 25 flight and 25 poll: they
        // share the 3 places pro rata, 25 × 200 × 3 / 50 ns each.
        assert_eq!(table.tail[Phase::Flight.index()].critical_ns, 300);
        assert_eq!(table.tail[Phase::Poll.index()].critical_ns, 300);
    }

    /// Ops strictly above the cutoff join the tail whole; the ops tied at
    /// it share the places left, and the table reads the same whichever
    /// order the ops were traced in.
    #[test]
    fn the_tail_does_not_depend_on_trace_order() {
        // 300 ops, 3 tail places: op 1 (500 ns, evict) is above the cutoff,
        // and ops 2..=8 (200 ns) tie at it: 2 flight, 5 poll.
        let spans: Vec<Span> = (1..=300u64)
            .map(|op| {
                let (phase, elapsed) = match op {
                    1 => (Phase::Evict, 500),
                    2..=3 => (Phase::Flight, 200),
                    4..=8 => (Phase::Poll, 200),
                    _ => (Phase::Decode, 100),
                };
                let start = op * 1_000;
                pspan(op, phase, start, start + elapsed)
            })
            .collect();
        let forward = attribution(&[(0, spans.clone())]);
        let reversed = attribution(&[(0, spans.into_iter().rev().collect())]);
        assert_eq!(forward.tail_ops, 3);
        assert_eq!(forward.tail_elapsed_ns, 500 + 2 * 200);
        let tail = |table: &AttributionTable| table.tail.map(|p| p.critical_ns);
        let mut expected = [0; Phase::COUNT];
        expected[Phase::Evict.index()] = 500;
        expected[Phase::Flight.index()] = 2 * 200 * 2 / 7;
        expected[Phase::Poll.index()] = 5 * 200 * 2 / 7;
        assert_eq!(tail(&forward), expected);
        assert_eq!(format!("{forward:?}"), format!("{reversed:?}"));
    }

    #[test]
    fn attribution_charges_an_overlapped_eviction_only_the_time_it_adds() {
        // An evicting Set on the pipelined path: the Evict umbrella
        // [0,700) opens with the lookup's doorbell and closes after the
        // serial victim CAS.  Inside it run the Set's own post, poll,
        // decode and publish, plus the poll of the eviction's history FAA.
        let traces = vec![(
            0u32,
            vec![
                pspan(1, Phase::Evict, 0, 700),
                pspan(1, Phase::Post, 0, 30),
                pspan(1, Phase::Flight, 30, 230),
                pspan(1, Phase::Poll, 30, 240),
                pspan(1, Phase::Decode, 240, 280),
                pspan(1, Phase::Flight, 300, 500),
                pspan(1, Phase::Publish, 300, 500),
                pspan(1, Phase::Poll, 500, 510),
            ],
        )];
        let table = attribution(&traces);
        let critical = |p: Phase| table.phases[p.index()].critical_ns;
        // The Set's phases keep their time...
        assert_eq!(critical(Phase::Post), 30);
        assert_eq!(critical(Phase::Poll), 210 + 10);
        assert_eq!(critical(Phase::Decode), 40);
        assert_eq!(critical(Phase::Publish), 200);
        // ...wire flight is fully hidden, and the eviction is left with the
        // scoring gap [280,300) and the serial victim CAS [510,700).
        assert_eq!(critical(Phase::Flight), 0);
        assert_eq!(critical(Phase::Evict), 20 + 190);
        assert_eq!(table.phases[Phase::Evict.index()].raw_ns, 700);
        assert_eq!(
            table.critical_ns, table.elapsed_ns,
            "no instant charged twice"
        );
        let shares: f64 = Phase::ALL
            .iter()
            .map(|p| 100.0 * critical(*p) as f64 / table.elapsed_ns as f64)
            .sum();
        assert!(shares <= 100.0 + 1e-9, "shares sum to {shares}");
    }

    #[test]
    fn attribution_leaves_think_time_unattributed() {
        // Two spans separated by client think time: the gap belongs to no
        // phase, so critical time undershoots elapsed time.
        let traces = vec![(
            1u32,
            vec![pspan(1, Phase::Post, 0, 10), pspan(1, Phase::Poll, 50, 70)],
        )];
        let table = attribution(&traces);
        assert_eq!(table.elapsed_ns, 70);
        assert_eq!(table.critical_ns, 30);
        assert!(table.critical_ns <= table.elapsed_ns);
        // The header names the share the phases cover: 30 of 70 ns.
        assert_eq!(table.attributed_pct(), 100.0 * 30.0 / 70.0);
        assert!(table
            .format()
            .lines()
            .next()
            .unwrap()
            .contains("attributed 42.86%"));
    }

    #[test]
    fn text_exposition_reports_exact_latency_sum() {
        let stats = PoolStats::new(1);
        stats.record_op(5_000);
        stats.record_op(1_234);
        let text = text_exposition(&stats);
        // 6 234 ns exactly — not a bucketed mean multiplied back out.
        assert!(
            text.contains("ditto_op_latency_seconds_sum 0.000006234"),
            "{text}"
        );
        assert!(text.contains("ditto_op_latency_seconds_count 2"), "{text}");
    }

    #[test]
    fn text_exposition_phase_summaries_only_name_fed_phases() {
        let stats = PoolStats::new(1);
        let local: Vec<crate::LatencyHistogram> = (0..Phase::COUNT)
            .map(|_| crate::LatencyHistogram::new())
            .collect();
        local[Phase::Flight.index()].record(2_000);
        local[Phase::Flight.index()].record(3_000);
        stats.merge_phase_latency(&local);
        stats.record_op_sampled(true);
        stats.record_op_sampled(false);
        let text = text_exposition(&stats);
        for needle in [
            "# TYPE ditto_phase_latency_seconds summary",
            "ditto_phase_latency_seconds{phase=\"flight\",quantile=\"0.5\"}",
            "ditto_phase_latency_seconds_sum{phase=\"flight\"} 0.000005000",
            "ditto_phase_latency_seconds_count{phase=\"flight\"} 2",
            "ditto_obs_ops_sampled_total 1",
            "ditto_obs_ops_skipped_total 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(
            !text.contains("phase=\"translate\""),
            "empty phases must not appear:\n{text}"
        );
    }

    #[test]
    fn text_exposition_unifies_the_counter_groups() {
        let stats = PoolStats::new(2);
        stats.record_op(5_000);
        stats.record_verb(0, crate::stats::VerbKind::Read, 64);
        stats.record_cas_retry(100);
        stats.record_verb_failure(1);
        stats.record_span(false, false);
        let text = text_exposition(&stats);
        for needle in [
            "# HELP ditto_ops_total",
            "# TYPE ditto_ops_total counter",
            "ditto_ops_total 1",
            "ditto_op_latency_seconds{quantile=\"0.5\"}",
            "ditto_op_latency_seconds{quantile=\"0.999\"}",
            "ditto_op_latency_seconds_count 1",
            "ditto_node_messages_total{node=\"0\"} 1",
            "ditto_node_messages_total{node=\"1\"} 0",
            "ditto_cas_retries_total 1",
            "ditto_verb_failures_total 1",
            "ditto_obs_spans_recorded_total 1",
            "ditto_obs_events_dropped_total 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn postmortem_appends_event_tail_to_panics() {
        let pool = MemoryPool::new(DmConfig::small());
        pool.record_event(
            777,
            4,
            EventKind::VerbFault {
                mn_id: 1,
                timeout: true,
            },
        );
        // Passing closures run through untouched.
        assert_eq!(with_event_postmortem(&pool, 8, || 42), 42);
        // A panicking closure re-panics with the tail appended.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_event_postmortem(&pool, 8, || panic!("seed 13 diverged"));
        }));
        let payload = result.expect_err("closure must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("postmortem panics with a String");
        assert!(msg.contains("seed 13 diverged"), "{msg}");
        assert!(msg.contains("event log tail"), "{msg}");
        assert!(msg.contains("verb timeout on mn1"), "{msg}");
        assert!(msg.contains("client 4"), "{msg}");
    }
}
