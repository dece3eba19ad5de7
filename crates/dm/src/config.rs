//! Configuration of the simulated disaggregated-memory fabric.

use crate::stats::VerbKind;
use serde::{Deserialize, Serialize};

/// Configuration of the DM substrate: the pool's shape, each memory node's
/// message rate and controller cores, faults and tracing.
///
/// The fabric's verb costs are not configuration but associated constants
/// ([`DmConfig::READ_LATENCY_NS`] and its siblings), so every run, figure
/// and test prices a verb alike.  They are nanoseconds of *simulated* time
/// and model the round-trip cost of a verb as observed by the issuing
/// client, in the ballpark of the paper's 100 Gbps RoCE fabric with
/// ConnectX-6 RNICs (≈2 µs per one-sided verb RTT, a few µs for an RPC
/// round trip); the default message rate is tens of millions of verbs per
/// second per RNIC.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DmConfig {
    /// Number of memory nodes in the pool.
    pub num_memory_nodes: u16,
    /// Capacity of each memory node in bytes.
    pub memory_node_capacity: u64,
    /// Number of controller CPU cores per memory node (weak compute).
    pub mn_cpu_cores: u32,
    /// Maximum verbs (messages) per second the RNIC of one memory node can
    /// serve.  This is the bottleneck that caps Ditto in §5.3.
    pub mn_message_rate: u64,
    /// Optional seeded failure model injected at the verb/WQE layer (see
    /// [`crate::FaultPlan`]).  `None` — the default — injects nothing and
    /// keeps every verb path byte-identical to a fault-free build.
    pub fault: Option<crate::fault::FaultPlan>,
    /// Capacity of each client's flight recorder in spans; `0` — the
    /// default — leaves the recorder disarmed (no allocation, and the only
    /// hot-path cost is an `Option` discriminant check).  Recording never
    /// advances the simulated clock, so an armed run produces the same
    /// simulated timeline as a disarmed one (see [`crate::obs`]).
    pub flight_recorder_spans: usize,
    /// Sampling rate of the armed flight recorder: full span sets are
    /// recorded for one in this many application-level operations
    /// (`1` — the default — records every op).  The per-op keep/skip
    /// decision is a deterministic `splitmix64` draw over the client id and
    /// op sequence number, so a sampled run replays exactly and two runs of
    /// the same workload sample the same op ids.  Skipped ops cost one
    /// `Cell` read per span; sampled vs skipped ops are counted in
    /// [`crate::PoolStats::obs`].  Irrelevant while the recorder is
    /// disarmed (`flight_recorder_spans == 0`).
    pub flight_recorder_sample_one_in: u64,
}

impl Default for DmConfig {
    fn default() -> Self {
        DmConfig {
            num_memory_nodes: 1,
            memory_node_capacity: 256 * 1024 * 1024,
            mn_cpu_cores: 1,
            mn_message_rate: 40_000_000,
            fault: None,
            flight_recorder_spans: 0,
            flight_recorder_sample_one_in: 1,
        }
    }
}

impl DmConfig {
    /// Round-trip latency of an `RDMA_READ`, in nanoseconds.
    pub const READ_LATENCY_NS: u64 = 2_000;
    /// Round-trip latency of an `RDMA_WRITE`, in nanoseconds.
    pub const WRITE_LATENCY_NS: u64 = 2_000;
    /// Round-trip latency of an `RDMA_CAS`, in nanoseconds.
    pub const CAS_LATENCY_NS: u64 = 2_200;
    /// Round-trip latency of an `RDMA_FAA`, in nanoseconds.
    pub const FAA_LATENCY_NS: u64 = 2_200;
    /// Round-trip latency of an RPC to the memory-node controller, in ns.
    pub const RPC_LATENCY_NS: u64 = 5_000;
    /// Extra per-verb latency added per 1 KiB of payload, in nanoseconds:
    /// the serialisation delay of larger transfers on the link.
    pub const PER_KIB_LATENCY_NS: u64 = 80;
    /// One-off cost of ringing the RNIC doorbell for a batch of work-queue
    /// entries, in nanoseconds (the MMIO write plus the first WQE DMA fetch).
    ///
    /// A doorbell batch of `n` independent verbs completes in
    /// `DOORBELL_LATENCY_NS + n × VERB_ISSUE_NS + max(per-verb transfer
    /// latency)` instead of the sum of the individual round trips: the verbs
    /// travel and execute concurrently, so the batch costs one round trip of
    /// the slowest member plus the issue overheads.
    ///
    /// Only a rung [`crate::wqe::WorkQueue`] pays it (and
    /// [`Self::VERB_ISSUE_NS`]): a synchronous single-verb call charges its
    /// round trip alone, and [`crate::DmClient::try_write_async`] charges
    /// no time at all — a gap of the cost model (see the crate docs, *The
    /// posted-WQE latency model*).
    pub const DOORBELL_LATENCY_NS: u64 = 150;
    /// Per-verb issue cost inside a doorbell batch, in nanoseconds (WQE
    /// posting and RNIC processing; each additional WQE delays the batch a
    /// little even though the round trips overlap).
    pub const VERB_ISSUE_NS: u64 = 50;
    /// Cost of one successful completion-queue poll, in nanoseconds (reading
    /// and consuming a CQE; an empty poll is free).
    ///
    /// Charged by [`crate::DmClient::poll_cq`] on top of any remaining
    /// flight time of the completion it returns.  Small compared with the
    /// doorbell MMIO — polling is a cached memory read.
    pub const CQ_POLL_NS: u64 = 20;
    /// CPU nanoseconds charged on the controller for a minimal RPC.
    pub const RPC_BASE_CPU_NS: u64 = 700;

    /// A small configuration suitable for unit tests and doc examples
    /// (16 MiB per memory node, otherwise the defaults).
    pub fn small() -> Self {
        DmConfig {
            memory_node_capacity: 16 * 1024 * 1024,
            ..DmConfig::default()
        }
    }

    /// Sets the per-node memory capacity (builder style).
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.memory_node_capacity = bytes;
        self
    }

    /// Sets the number of memory nodes (builder style).
    pub fn with_memory_nodes(mut self, n: u16) -> Self {
        self.num_memory_nodes = n;
        self
    }

    /// Sets the number of controller cores per memory node (builder style).
    pub fn with_mn_cores(mut self, cores: u32) -> Self {
        self.mn_cpu_cores = cores;
        self
    }

    /// Sets the RNIC message rate per memory node (builder style).
    pub fn with_message_rate(mut self, verbs_per_sec: u64) -> Self {
        self.mn_message_rate = verbs_per_sec;
        self
    }

    /// Installs a seeded failure model (builder style).
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Arms each client's flight recorder with a `spans`-deep ring
    /// (builder style); `0` disarms it.  Every op is recorded; for
    /// always-on production tracing see
    /// [`DmConfig::with_flight_recorder_sampled`].
    pub fn with_flight_recorder(mut self, spans: usize) -> Self {
        self.flight_recorder_spans = spans;
        self.flight_recorder_sample_one_in = 1;
        self
    }

    /// Arms each client's flight recorder with a `spans`-deep ring that
    /// records full span sets for one in `one_in_n` operations (builder
    /// style).  The keep/skip draw is deterministic over (client id, op id)
    /// — see [`DmConfig::flight_recorder_sample_one_in`] — so runs replay
    /// exactly; `one_in_n` of 0 or 1 records every op.
    pub fn with_flight_recorder_sampled(mut self, spans: usize, one_in_n: u64) -> Self {
        self.flight_recorder_spans = spans;
        self.flight_recorder_sample_one_in = one_in_n.max(1);
        self
    }

    /// Round-trip latency in nanoseconds of one `kind` verb carrying `len`
    /// payload bytes: the kind's base latency plus
    /// [`DmConfig::PER_KIB_LATENCY_NS`] per KiB.
    pub fn verb_latency_ns(kind: VerbKind, len: usize) -> u64 {
        let base = match kind {
            VerbKind::Read => Self::READ_LATENCY_NS,
            VerbKind::Write => Self::WRITE_LATENCY_NS,
            VerbKind::Cas => Self::CAS_LATENCY_NS,
            VerbKind::Faa => Self::FAA_LATENCY_NS,
            VerbKind::Rpc => Self::RPC_LATENCY_NS,
        };
        base + (len as u64 * Self::PER_KIB_LATENCY_NS) / 1024
    }

    /// Round-trip latency of a doorbell batch that fans out to `fanout`
    /// distinct memory nodes: one doorbell charge **per distinct node**
    /// (each node has its own queue pair), the per-verb issue costs, and the
    /// slowest round trip — the transfers overlap across the NICs.
    pub fn fanout_batch_latency_ns(verbs: usize, fanout: usize, max_transfer_ns: u64) -> u64 {
        if verbs == 0 {
            return 0;
        }
        fanout.max(1) as u64 * Self::DOORBELL_LATENCY_NS
            + verbs as u64 * Self::VERB_ISSUE_NS
            + max_transfer_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_weak_mn() {
        let c = DmConfig::default();
        assert_eq!(c.num_memory_nodes, 1);
        assert_eq!(c.mn_cpu_cores, 1);
        assert!(c.mn_message_rate > 1_000_000);
    }

    #[test]
    fn builder_methods_compose() {
        let c = DmConfig::default()
            .with_capacity(1024)
            .with_memory_nodes(4)
            .with_mn_cores(8)
            .with_message_rate(1_000);
        assert_eq!(c.memory_node_capacity, 1024);
        assert_eq!(c.num_memory_nodes, 4);
        assert_eq!(c.mn_cpu_cores, 8);
        assert_eq!(c.mn_message_rate, 1_000);
    }

    #[test]
    fn transfer_latency_scales_with_payload() {
        let small = DmConfig::verb_latency_ns(VerbKind::Read, 64);
        let large = DmConfig::verb_latency_ns(VerbKind::Read, 64 * 1024);
        assert!(large > small);
        assert_eq!(DmConfig::verb_latency_ns(VerbKind::Read, 0), 2_000);
        // Atomics carry 8 bytes: no serialisation delay.
        assert_eq!(DmConfig::verb_latency_ns(VerbKind::Cas, 8), 2_200);
    }

    #[test]
    fn flight_recorder_builders_set_sampling() {
        let every = DmConfig::default().with_flight_recorder(256);
        assert_eq!(every.flight_recorder_spans, 256);
        assert_eq!(every.flight_recorder_sample_one_in, 1);
        let sampled = DmConfig::default().with_flight_recorder_sampled(256, 16);
        assert_eq!(sampled.flight_recorder_spans, 256);
        assert_eq!(sampled.flight_recorder_sample_one_in, 16);
        // 0 means "every op", not division by zero.
        let zero = DmConfig::default().with_flight_recorder_sampled(256, 0);
        assert_eq!(zero.flight_recorder_sample_one_in, 1);
    }

    #[test]
    fn config_is_serde() {
        // Ensure the type implements Serialize/Deserialize (the figure
        // harness serialises configurations alongside results).
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<DmConfig>();
    }
}
