//! The closed-loop driver: one thread replays a scenario's trace round-robin
//! over its clients, checks every returned value against the oracle, and
//! collects simulated latencies, counter deltas and host timings per window.

use crate::spans::{HostSpans, SpanId, NO_PARENT};
use crate::stats::{stretch, Stretch};
use crate::workloads::{Oracle, Scenario, KEY_BYTES, PUMP_EVERY, PUMP_STRIPES, TRACE_ONE_IN};
use ditto_core::{CacheStats, CacheStatsSnapshot, DittoClient};
use ditto_dm::stats::NodeSnapshot;
use ditto_dm::{attribution, AttributionTable, MemoryPool, ObsSnapshot};
use ditto_workloads::Op;
use std::time::{Duration, Instant};

/// Equal host-timed chunks a pass is cut into.
pub const HOST_CHUNKS: u64 = 31;

/// The memory node `elastic_resize` drains (node 2 is the one it adds).
const DRAINED_NODE: u16 = 1;

/// Counter deltas and simulated time of one measured window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    pub requests: u64,
    pub nodes: Vec<NodeSnapshot>,
    pub doorbells: u64,
    pub batched_verbs: u64,
    pub signalled_wqes: u64,
    pub unsignalled_wqes: u64,
    pub cq_polls: u64,
    pub stretch: Stretch,
}

impl WindowStats {
    pub fn sim_ops_per_sec(&self) -> f64 {
        self.requests as f64 / self.stretch.elapsed_seconds()
    }
}

/// Migration work of a pass, in-window pumps and between-window completion
/// pumps together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Migration {
    pub stripes_moved: u64,
    pub objects_relocated: u64,
    pub migrated_bytes: u64,
    /// Resident object bytes left on the drained node when the pass ended.
    pub residual_bytes: u64,
}

/// How a traced call ended, classified from `CacheStats` deltas around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    GetHit,
    GetMiss,
    GetLocal,
    SetPlain,
    SetEvicting,
}

impl Outcome {
    pub const ALL: [Outcome; 5] = [
        Outcome::GetHit,
        Outcome::GetMiss,
        Outcome::GetLocal,
        Outcome::SetPlain,
        Outcome::SetEvicting,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Outcome::GetHit => "get_hit",
            Outcome::GetMiss => "get_miss",
            Outcome::GetLocal => "get_local",
            Outcome::SetPlain => "set_plain",
            Outcome::SetEvicting => "set_evicting",
        }
    }
}

/// What only a traced pass collects.
pub struct Traced {
    /// Simulated latency (ns) of the sampled calls, per [`Outcome`],
    /// ascending.
    pub outcome_ns: [Vec<u32>; 5],
    pub spans: HostSpans,
    /// Critical-path attribution of the requests' flight-recorder spans in
    /// the measured windows (load phase and maintenance ops left out).
    pub attribution: AttributionTable,
    /// Recorder self-accounting over the measured windows.
    pub obs: ObsSnapshot,
}

/// Everything one pass over the trace measured.
pub struct Pass {
    pub requests: u64,
    /// Requests that errored, returned wrong or stale bytes, plus one per
    /// broken workload invariant.
    pub failed: u64,
    /// Simulated latency (ns) of every `get_into` call, ascending.
    pub get_ns: Vec<u32>,
    /// Simulated latency (ns) of every `try_set` call (updates and fills),
    /// ascending.
    pub set_ns: Vec<u32>,
    /// Simulated latency (ns) of every request — the Get, the miss penalty
    /// and the fill together, or the update's Set — ascending.
    pub req_ns: Vec<u32>,
    pub windows: Vec<WindowStats>,
    pub cache: CacheStatsSnapshot,
    pub migration: Migration,
    pub used_bytes: u64,
    /// The LRU expert's share of the global expert weights at the end.
    pub final_weight_lru: f64,
    /// Host nanoseconds per request of each of the [`HOST_CHUNKS`] chunks.
    pub chunk_ns_per_op: Vec<f64>,
    pub host_seconds: f64,
    pub allocations: u64,
    pub traced: Option<Traced>,
}

impl Pass {
    pub fn sim_seconds(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.stretch.elapsed_seconds())
            .sum()
    }
}

/// Host time per request in equal chunks, pausable around work that is not
/// part of the request loop (window bookkeeping, completion pumps).
struct ChunkTimer {
    per_chunk: u64,
    in_chunk: u64,
    carried: Duration,
    resumed: Instant,
    ns_per_op: Vec<f64>,
    total: Duration,
}

impl ChunkTimer {
    fn new(requests: u64) -> Self {
        ChunkTimer {
            per_chunk: (requests / HOST_CHUNKS).max(1),
            in_chunk: 0,
            carried: Duration::ZERO,
            resumed: Instant::now(),
            ns_per_op: Vec::with_capacity(HOST_CHUNKS as usize + 1),
            total: Duration::ZERO,
        }
    }

    fn resume(&mut self) {
        self.resumed = Instant::now();
    }

    fn pause(&mut self) {
        self.carried += self.resumed.elapsed();
    }

    #[inline]
    fn tick(&mut self) {
        self.in_chunk += 1;
        if self.in_chunk == self.per_chunk {
            let now = Instant::now();
            let spent = self.carried + (now - self.resumed);
            self.ns_per_op
                .push(spent.as_nanos() as f64 / self.per_chunk as f64);
            self.total += spent;
            self.carried = Duration::ZERO;
            self.resumed = now;
            self.in_chunk = 0;
        }
    }

    /// Total host time of the request loops, the unfinished chunk included.
    fn finish(mut self) -> (Vec<f64>, f64) {
        self.total += self.carried;
        (self.ns_per_op, self.total.as_secs_f64())
    }
}

/// Traced-pass bookkeeping: host spans around every sampled call plus the
/// `CacheStats` deltas that classify its outcome.  Idle (and free) in an
/// untraced pass.
struct Probe {
    tracing: Option<(HostSpans, SpanId)>,
    outcome_ns: [Vec<u32>; 5],
    /// The current request's span when the request is sampled.
    request: Option<SpanId>,
}

struct CallProbe {
    span: SpanId,
    before: CacheStatsSnapshot,
}

impl Probe {
    fn new(traced: bool, requests: u64) -> Self {
        let tracing = traced.then(|| {
            // A sampled request records its own span plus one per call.
            let mut spans = HostSpans::with_capacity(requests as usize / TRACE_ONE_IN * 4 + 64);
            let root = spans.open("bench.driver.pass", NO_PARENT, 0);
            (spans, root)
        });
        Probe {
            tracing,
            outcome_ns: Default::default(),
            request: None,
        }
    }

    #[inline]
    fn request_begin(&mut self, index: usize) {
        self.request = match &mut self.tracing {
            Some((spans, root)) if index.is_multiple_of(TRACE_ONE_IN) => {
                Some(spans.open("bench.driver.request", *root, index as u64))
            }
            _ => None,
        };
    }

    #[inline]
    fn request_end(&mut self) {
        if let (Some(id), Some((spans, _))) = (self.request.take(), &mut self.tracing) {
            spans.close(id);
        }
    }

    #[inline]
    fn call_begin(
        &mut self,
        name: &'static str,
        index: usize,
        stats: &CacheStats,
    ) -> Option<CallProbe> {
        let parent = self.request?;
        let (spans, _) = self.tracing.as_mut()?;
        let before = stats.snapshot();
        Some(CallProbe {
            span: spans.open(name, parent, index as u64),
            before,
        })
    }

    #[inline]
    fn call_end(&mut self, call: Option<CallProbe>, sim_ns: u32, stats: &CacheStats) {
        let Some(call) = call else { return };
        let (spans, _) = self
            .tracing
            .as_mut()
            .expect("call probes exist only when tracing");
        spans.close(call.span);
        let after = stats.snapshot();
        let before = &call.before;
        let outcome = if after.sets > before.sets {
            let evictions = |s: &CacheStatsSnapshot| s.evictions + s.bucket_evictions;
            if evictions(&after) > evictions(before) {
                Outcome::SetEvicting
            } else {
                Outcome::SetPlain
            }
        } else if after.local_hits > before.local_hits {
            Outcome::GetLocal
        } else if after.hits > before.hits {
            Outcome::GetHit
        } else {
            Outcome::GetMiss
        };
        self.outcome_ns[outcome as usize].push(sim_ns);
    }

    /// A span outside any request (a migration pump, the final flush), named
    /// by `label` once the call has returned.
    fn maintenance<R>(
        &mut self,
        index: usize,
        f: impl FnOnce() -> R,
        label: impl FnOnce(&R) -> &'static str,
    ) -> R {
        match &mut self.tracing {
            Some((spans, root)) => {
                let id = spans.open("", *root, index as u64);
                let out = f();
                spans.close(id);
                spans.relabel(id, label(&out));
                out
            }
            None => f(),
        }
    }
}

/// Opens a recorder op of its own for maintenance work (a migration pump,
/// the final flush) and returns its `(client, op)` id.  Without the fence the
/// work's spans would carry the previous request's op id: they would be
/// blamed on that request, and a pump's tens of thousands of spans in one op
/// make `attribution` quadratic.  Touches recorder state only — the
/// simulated clock and every counter are as without it.
fn fence_maintenance(client: &DittoClient) -> (u32, u64) {
    client.dm().begin_op();
    (client.dm().client_id(), client.dm().op_id())
}

fn begin_window(pool: &MemoryPool, clients: &[DittoClient]) -> u64 {
    // Publish before resetting so the new baseline is "now": rewinding a
    // clock below stored timestamps would corrupt the LRU ordering.
    for client in clients {
        client.dm().publish_clock();
    }
    pool.reset_stats();
    for client in clients {
        client.dm().reset_clock();
    }
    clients[0].dm().now_ns()
}

fn end_window(
    pool: &MemoryPool,
    clients: &[DittoClient],
    baseline_ns: u64,
    requests: u64,
) -> WindowStats {
    let stats = pool.stats();
    let nodes = stats.node_snapshots();
    let max_client_ns = clients
        .iter()
        .map(|c| c.dm().now_ns() - baseline_ns)
        .max()
        .unwrap_or(0);
    let messages: Vec<u64> = nodes.iter().map(|n| n.messages).collect();
    let rpc_cpu_ns: Vec<u64> = nodes.iter().map(|n| n.rpc_cpu_ns).collect();
    let config = pool.config();
    WindowStats {
        requests,
        doorbells: stats.doorbells(),
        batched_verbs: stats.batched_verbs(),
        signalled_wqes: stats.signalled_wqes(),
        unsignalled_wqes: stats.unsignalled_wqes(),
        cq_polls: stats.cq_polls(),
        stretch: stretch(
            max_client_ns,
            &messages,
            config.mn_message_rate,
            &rpc_cpu_ns,
            config.mn_cpu_cores,
        ),
        nodes,
    }
}

fn snapshot_delta(after: &CacheStatsSnapshot, before: &CacheStatsSnapshot) -> CacheStatsSnapshot {
    CacheStatsSnapshot {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        sets: after.sets - before.sets,
        evictions: after.evictions - before.evictions,
        bucket_evictions: after.bucket_evictions - before.bucket_evictions,
        history_inserts: after.history_inserts - before.history_inserts,
        regrets: after.regrets - before.regrets,
        weight_syncs: after.weight_syncs - before.weight_syncs,
        fc_flushes: after.fc_flushes - before.fc_flushes,
        local_hits: after.local_hits - before.local_hits,
        local_revalidations: after.local_revalidations - before.local_revalidations,
        local_invalidations: after.local_invalidations - before.local_invalidations,
        local_stale_rejects: after.local_stale_rejects - before.local_stale_rejects,
        expert_victories: after
            .expert_victories
            .iter()
            .zip(&before.expert_victories)
            .map(|(a, b)| a - b)
            .collect(),
    }
}

/// Replays the scenario's trace once.  With `traced`, every
/// [`TRACE_ONE_IN`]th request also records host spans and its outcome, and
/// the flight recorder armed at set-up yields the phase attribution.
pub fn run_pass(scenario: &mut Scenario, traced: bool) -> Pass {
    let Scenario {
        workload,
        cache,
        clients,
        trace,
        oracle,
        ..
    } = scenario;
    let pool = cache.pool().clone();
    let requests = trace.len();
    let per_window = requests / workload.windows();

    let mut pass = Pass {
        requests: requests as u64,
        failed: 0,
        get_ns: Vec::with_capacity(requests),
        set_ns: Vec::with_capacity(requests),
        req_ns: Vec::with_capacity(requests),
        windows: Vec::with_capacity(workload.windows()),
        cache: CacheStatsSnapshot::default(),
        migration: Migration::default(),
        used_bytes: 0,
        final_weight_lru: 0.0,
        chunk_ns_per_op: Vec::new(),
        host_seconds: 0.0,
        allocations: 0,
        traced: None,
    };
    let mut probe = Probe::new(traced, requests as u64);
    let mut timer = ChunkTimer::new(requests as u64);
    let mut maintenance_ops = Vec::with_capacity(requests / PUMP_EVERY + workload.clients);
    let mut value = Vec::with_capacity(crate::workloads::VALUE_BYTES);
    let mut got = Vec::with_capacity(crate::workloads::VALUE_BYTES);

    for client in clients.iter() {
        client.dm().clear_flight_recorder();
    }
    let obs_before = pool.stats().obs();
    let cache_before = cache.stats().snapshot();

    for window in 0..workload.windows() {
        // `elastic_resize`: steady → add a node and migrate while serving →
        // grown → drain a node while serving → drained.
        let resizing = workload.elastic && (window == 1 || window == 3);
        if workload.elastic && window == 1 {
            pool.add_node().expect("add_node");
        }
        if workload.elastic && window == 3 {
            pool.drain_node(DRAINED_NODE).expect("drain_node");
        }
        if window > 0 {
            // Copy traffic of the previous window and its completion pump,
            // before the reset below forgets it.
            pass.migration.migrated_bytes += pool.stats().migrated_bytes();
        }
        let baseline_ns = begin_window(&pool, clients);
        let allocations_before = crate::alloc::allocations();
        timer.resume();

        let first = window * per_window;
        for (index, request) in trace[first..first + per_window].iter().enumerate() {
            let index = first + index;
            let client = &mut clients[index % workload.clients];
            let key: [u8; KEY_BYTES] = request.key.to_le_bytes();
            let mut ok = true;
            probe.request_begin(index);
            let started_ns = client.dm().now_ns();
            let mut version = oracle.version(request.key);
            let fill = match request.op {
                Op::Get => {
                    let call = probe.call_begin("core.client.get", index, cache.stats());
                    let hit = client.get_into(&key, &mut got);
                    let get_ns = (client.dm().now_ns() - started_ns) as u32;
                    probe.call_end(call, get_ns, cache.stats());
                    pass.get_ns.push(get_ns);
                    if hit {
                        ok = oracle.is_latest(request.key, &got);
                    } else if workload.miss_penalty_us > 0 {
                        client.dm().sleep_us(workload.miss_penalty_us);
                    }
                    // Cache-aside: a miss fetches the current version from
                    // the backing store and fills it.
                    !hit
                }
                Op::Update | Op::Insert => {
                    version += 1;
                    true
                }
            };
            if fill {
                Oracle::fill(&mut value, request.key, version);
                let call = probe.call_begin("core.client.set", index, cache.stats());
                let set_started_ns = client.dm().now_ns();
                let result = client.try_set(&key, &value);
                let set_ns = (client.dm().now_ns() - set_started_ns) as u32;
                probe.call_end(call, set_ns, cache.stats());
                pass.set_ns.push(set_ns);
                match result {
                    Ok(()) => oracle.acknowledge(request.key, version),
                    Err(_) => ok = false,
                }
            }
            pass.req_ns.push((client.dm().now_ns() - started_ns) as u32);
            pass.failed += u64::from(!ok);
            probe.request_end();

            if resizing && index % PUMP_EVERY == PUMP_EVERY - 1 {
                maintenance_ops.push(fence_maintenance(client));
                // Most pumps find the plan already drained; only the ones
                // that moved something are timed as pumps.
                let progress = probe.maintenance(
                    index,
                    || client.pump_migration(PUMP_STRIPES),
                    |p| {
                        if p.stripes_moved + p.objects_relocated > 0 {
                            "core.client.pump_migration"
                        } else {
                            "core.client.pump_migration.idle"
                        }
                    },
                );
                pass.migration.stripes_moved += progress.stripes_moved;
                pass.migration.objects_relocated += progress.objects_relocated;
            }
            timer.tick();
        }
        if window + 1 == workload.windows() {
            for client in clients.iter_mut() {
                maintenance_ops.push(fence_maintenance(client));
                probe.maintenance(requests, || client.flush(), |()| "core.client.flush");
            }
        }

        timer.pause();
        pass.allocations += crate::alloc::allocations() - allocations_before;
        pass.windows
            .push(end_window(&pool, clients, baseline_ns, per_window as u64));
        if resizing {
            let progress = cache.pump_migration();
            pass.migration.stripes_moved += progress.stripes_moved;
            pass.migration.objects_relocated += progress.objects_relocated;
        }
    }
    pass.migration.migrated_bytes += pool.stats().migrated_bytes();

    if workload.elastic {
        // Drain invariants: the drained node holds no object bytes and has
        // all but left the read path (only history-shard counters remain).
        pass.migration.residual_bytes = pool.resident_object_bytes(DRAINED_NODE);
        let last = &pass.windows[workload.windows() - 1];
        let total_reads: u64 = last.nodes.iter().map(|n| n.reads).sum();
        let drained_reads = last.nodes[DRAINED_NODE as usize].reads;
        pass.failed += u64::from(pass.migration.residual_bytes != 0);
        pass.failed += u64::from(drained_reads * 20 >= total_reads);
    }

    pass.cache = snapshot_delta(&cache.stats().snapshot(), &cache_before);
    pass.used_bytes = pool.used_bytes();
    let weights = cache.global_weights();
    pass.final_weight_lru = weights[0] / weights.iter().sum::<f64>();
    (pass.chunk_ns_per_op, pass.host_seconds) = timer.finish();
    // Every statistic the report takes is order-free; sort once, here.
    for samples in [&mut pass.get_ns, &mut pass.set_ns, &mut pass.req_ns] {
        samples.sort_unstable();
    }
    for samples in &mut probe.outcome_ns {
        samples.sort_unstable();
    }

    if let Some((mut spans, root)) = probe.tracing.take() {
        spans.close(root);
        maintenance_ops.sort_unstable();
        let traces: Vec<_> = clients
            .iter()
            .map(|c| {
                let id = c.dm().client_id();
                let mut spans = c.dm().flight_spans();
                spans.retain(|s| maintenance_ops.binary_search(&(id, s.op_id)).is_err());
                (id, spans)
            })
            .collect();
        pass.traced = Some(Traced {
            outcome_ns: probe.outcome_ns,
            spans,
            attribution: attribution(&traces),
            obs: pool.stats().obs().delta(&obs_before),
        });
    }
    pass
}
