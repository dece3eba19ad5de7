//! Randomized properties of the posted-WQE/polled-completion data path.
//!
//! For arbitrary mixes of READ/WRITE/FAA WQEs, payload sizes, target memory
//! nodes (fan-out 1 to 4) and post-to-poll CPU work `c`, at the fabric's
//! constant verb costs:
//!
//! * a fully drained posting round charges exactly the posting cost plus
//!   what the polls wait: each poll takes the earliest outstanding
//!   completion (WQEs on one node complete in posting order), waits for it
//!   if it is still in flight and costs [`DmConfig::CQ_POLL_NS`];
//! * so the CPU work overlaps the flight instead of serialising behind it:
//!   the round costs `post_cost + max(c, max transfer)` plus one to `n`
//!   polls;
//! * with zero CPU work the drained round is never cheaper than the
//!   post-all/wait-all closed form ([`DmConfig::fanout_batch_latency_ns`]:
//!   doorbells + issues + slowest transfer), and exceeds it by at most one
//!   poll per WQE.

use ditto_dm::stats::VerbKind;
use ditto_dm::{DmConfig, MemoryPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_NODES: u16 = 4;
const POLL: u64 = DmConfig::CQ_POLL_NS;

struct Case {
    kinds: Vec<VerbKind>,
    sizes: Vec<usize>,
    nodes: Vec<u16>,
    num_nodes: u16,
}

fn random_case(rng: &mut StdRng) -> Case {
    let n = rng.gen_range(1usize..12);
    let num_nodes = rng.gen_range(1..=MAX_NODES);
    let kinds = (0..n)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => VerbKind::Read,
            1 => VerbKind::Write,
            _ => VerbKind::Faa,
        })
        .collect();
    let sizes = (0..n).map(|_| rng.gen_range(1usize..4_096)).collect();
    let nodes = (0..n).map(|_| rng.gen_range(0..num_nodes)).collect();
    Case {
        kinds,
        sizes,
        nodes,
        num_nodes,
    }
}

impl Case {
    fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Distinct memory nodes the round targets: one doorbell each.
    fn fanout(&self) -> usize {
        (0..self.num_nodes)
            .filter(|mn| self.nodes.contains(mn))
            .count()
    }

    fn post_cost(&self) -> u64 {
        self.fanout() as u64 * DmConfig::DOORBELL_LATENCY_NS
            + self.len() as u64 * DmConfig::VERB_ISSUE_NS
    }

    /// Each WQE's own transfer latency (an FAA carries 8 bytes).
    fn transfers(&self) -> Vec<u64> {
        self.kinds
            .iter()
            .zip(&self.sizes)
            .map(|(&kind, &len)| match kind {
                VerbKind::Faa => DmConfig::verb_latency_ns(kind, 8),
                _ => DmConfig::verb_latency_ns(kind, len),
            })
            .collect()
    }

    /// The slowest member's transfer latency.
    fn max_transfer(&self) -> u64 {
        self.transfers().into_iter().max().unwrap()
    }

    /// Simulated time from the ring's end until the last completion is
    /// polled, with `cpu_ns` of work before the first poll: completions are
    /// the per-node prefix maxima of the transfers, polled earliest first.
    fn drained_after(&self, cpu_ns: u64) -> u64 {
        let mut floor = [0u64; MAX_NODES as usize];
        let mut completions: Vec<u64> = self
            .transfers()
            .into_iter()
            .zip(&self.nodes)
            .map(|(transfer, &mn)| {
                floor[mn as usize] = floor[mn as usize].max(transfer);
                floor[mn as usize]
            })
            .collect();
        completions.sort_unstable();
        completions
            .into_iter()
            .fold(cpu_ns, |now, done| now.max(done) + POLL)
    }
}

/// Posts the case's WQEs (all signalled) on a fresh pool, rings, does
/// `cpu_ns` of local work, drains the CQ; returns the elapsed simulated
/// time.
fn run_pipelined(case: &Case, cpu_ns: u64) -> u64 {
    let config = DmConfig::small()
        .with_capacity(1 << 20)
        .with_memory_nodes(case.num_nodes);
    let pool = MemoryPool::new(config);
    let client = pool.connect();
    let regions: Vec<_> = (0..case.num_nodes)
        .map(|mn| pool.reserve_on(mn, 64 * 1024).unwrap())
        .collect();
    let mut read_bufs: Vec<Vec<u8>> = case.sizes.iter().map(|&s| vec![0u8; s]).collect();
    let write_buf = vec![7u8; 4_096];
    let t0 = client.now_ns();
    let mut wq = client.work_queue();
    for (i, buf) in read_bufs.iter_mut().enumerate() {
        let addr = regions[case.nodes[i] as usize].add((i * 4_096) as u64);
        match case.kinds[i] {
            VerbKind::Read => {
                wq.post_read(addr, &mut buf[..], true);
            }
            VerbKind::Write => {
                wq.post_write(addr, &write_buf[..case.sizes[i]], true);
            }
            _ => {
                wq.post_faa(addr, 1, true);
            }
        }
    }
    wq.ring();
    drop(wq);
    client.advance_ns(cpu_ns);
    while client.poll_cq().is_some() {}
    client.now_ns() - t0
}

#[test]
fn drained_pipeline_charges_post_cost_plus_max_of_cpu_and_flight() {
    let mut rng = StdRng::seed_from_u64(0x90571);
    for case_idx in 0..200 {
        let case = random_case(&mut rng);
        let n = case.len() as u64;
        let cpu = rng.gen_range(0u64..8_000);
        let (post_cost, max) = (case.post_cost(), case.max_transfer());

        let elapsed = run_pipelined(&case, cpu);
        assert_eq!(
            elapsed,
            post_cost + case.drained_after(cpu),
            "case {case_idx}: a drained round must charge post + the polls' waits \
             (n={n}, fanout={}, cpu={cpu}, max={max})",
            case.fanout()
        );
        // The CPU work overlaps the flight: the round costs the longer of
        // the two, plus at least the last poll and at most one per WQE.
        let overlapped = post_cost + cpu.max(max);
        assert!(
            (overlapped + POLL..=overlapped + n * POLL).contains(&elapsed),
            "case {case_idx}: pipelined {elapsed} must be post + max(cpu, flight) \
             {overlapped} plus 1 to {n} polls"
        );
    }
}

#[test]
fn pipelined_round_matches_synchronous_batch_without_cpu_work() {
    // With zero CPU work, the drained pipeline can never beat the
    // post-all/wait-all closed form, and exceeds it by at most one poll cost
    // per WQE (polls whose completion is still in flight are absorbed by
    // the wait).
    let mut rng = StdRng::seed_from_u64(0xabcde);
    for _ in 0..50 {
        let case = random_case(&mut rng);
        let n = case.len();
        let batch_latency =
            DmConfig::fanout_batch_latency_ns(n, case.fanout(), case.max_transfer());

        let elapsed = run_pipelined(&case, 0);
        assert!(
            elapsed >= batch_latency + POLL,
            "draining without CPU work cannot beat the batch: {elapsed} < {batch_latency} + {POLL}"
        );
        assert!(
            elapsed <= batch_latency + n as u64 * POLL,
            "poll overhead is bounded: {elapsed} > {batch_latency} + {n}×{POLL}"
        );
    }
}

#[test]
fn unsignalled_wqes_are_never_waited_for() {
    // A signalled small READ next to an unsignalled huge WRITE on another
    // node: draining the CQ waits for the READ only.
    let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
    let client = pool.connect();
    let a = pool.reserve_on(0, 64).unwrap();
    let b = pool.reserve_on(1, 32 * 1024).unwrap();
    let huge = vec![3u8; 32 * 1024];
    let mut buf = [0u8; 64];
    let t0 = client.now_ns();
    let mut wq = client.work_queue();
    wq.post_write(b, &huge, false);
    wq.post_read(a, &mut buf, true);
    wq.ring();
    drop(wq);
    client.drain_cq().unwrap();
    let elapsed = client.now_ns() - t0;
    let post = 2 * DmConfig::DOORBELL_LATENCY_NS + 2 * DmConfig::VERB_ISSUE_NS;
    let t_read = DmConfig::verb_latency_ns(VerbKind::Read, 64);
    let t_write = DmConfig::verb_latency_ns(VerbKind::Write, 32 * 1024);
    assert_eq!(
        elapsed,
        post + t_read + POLL,
        "the huge unsignalled WRITE left the critical path"
    );
    assert!(t_write > t_read * 2, "sanity: the WRITE really is slower");
    // ... but it still consumed a message and really happened.
    assert_eq!(client.read(b, 4), vec![3u8; 4]);
    assert_eq!(pool.stats().node_snapshots()[1].writes, 1);
}
