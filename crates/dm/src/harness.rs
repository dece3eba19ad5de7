//! Multi-client experiment driver.
//!
//! Steps `N` clients (each with its own simulated clock) round-robin on the
//! calling thread and condenses the pool's resource accounting into a
//! [`RunReport`].  Round `r` issues request `r` of every client that still
//! has one, so a run repeats exactly and a trace dealt out to the clients
//! with `skip(i).step_by(n)` is issued in its original order.  All
//! throughput/latency figures of the evaluation are produced through this
//! entry point so that Ditto and the baselines share the exact same
//! measurement methodology.  Clients still contend: simulated time, not the
//! OS scheduler, decides who waits (a baseline's lock released in a
//! client's simulated future makes it back off, see `ditto_baselines`'
//! `shardlru`).

use crate::pool::MemoryPool;
use crate::stats::RunReport;

/// Runs `num_clients` clients round-robin and reports aggregate performance.
///
/// The pool statistics are reset when the run starts, so a warm-up phase
/// should be executed with a separate `run_clients` call (the cached data
/// itself persists in the memory pool between calls).
///
/// `connect(i)` opens client `i` after the reset and returns it with its
/// request stream; `issue` serves one request on its client.  Once every
/// stream is exhausted, `finish` consumes the clients in order and its
/// return values come back alongside the [`RunReport`].  A client dropped
/// there publishes its clock (every `DmClient` does on drop) before the
/// report is built; one that `finish` hands back must have published it.
pub fn run_clients<C, I, R>(
    pool: &MemoryPool,
    num_clients: usize,
    connect: impl FnMut(usize) -> (C, I),
    mut issue: impl FnMut(&mut C, I::Item),
    finish: impl FnMut(C) -> R,
) -> (RunReport, Vec<R>)
where
    I: IntoIterator,
{
    assert!(num_clients > 0, "at least one client is required");
    pool.reset_stats();
    let before = pool.stats().node_snapshots();

    let mut clients: Vec<_> = (0..num_clients)
        .map(connect)
        .map(|(client, requests)| (client, requests.into_iter().fuse()))
        .collect();
    let mut issued = true;
    while issued {
        issued = false;
        for (client, requests) in &mut clients {
            if let Some(request) = requests.next() {
                issue(client, request);
                issued = true;
            }
        }
    }
    let results = clients
        .into_iter()
        .map(|(client, _)| client)
        .map(finish)
        .collect();

    let after = pool.stats().node_snapshots();
    let report = RunReport::from_measurement(
        pool.config(),
        &before,
        &after,
        pool.stats().ops(),
        pool.stats().elapsed_client_ns(),
        pool.stats().latency(),
        num_clients,
    );
    (report, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::RemoteAddr;
    use crate::client::DmClient;
    use crate::config::DmConfig;
    use crate::stats::Bottleneck;

    /// `clients` raw clients, each issuing `ops` one-READ ops of `len`
    /// bytes at `addr`.
    fn read_run(
        pool: &MemoryPool,
        clients: usize,
        ops: usize,
        addr: RemoteAddr,
        len: usize,
    ) -> RunReport {
        let read = |client: &mut DmClient, _| {
            client.begin_op();
            client.read(addr, len);
            client.end_op();
        };
        run_clients(pool, clients, |_| (pool.connect(), 0..ops), read, drop).0
    }

    #[test]
    fn all_clients_run_and_results_are_ordered() {
        let pool = MemoryPool::new(DmConfig::small());
        let (report, results) = run_clients(
            &pool,
            4,
            |index| (index * 10, 0..index),
            |sum, step| *sum += step,
            |sum| sum,
        );
        // Client i starts at 10·i and adds 0 + 1 + … + (i − 1).
        assert_eq!(results, vec![0, 10, 21, 33]);
        assert_eq!(report.clients, 4);
    }

    #[test]
    fn report_reflects_operations() {
        let pool = MemoryPool::new(DmConfig::small());
        let addr = pool.reserve(64).unwrap();
        let report = read_run(&pool, 2, 100, addr, 64);
        assert_eq!(report.total_ops, 200);
        assert!(report.throughput_mops > 0.0);
        assert!(report.p50_latency_us >= 1.0);
        assert!((report.messages_per_op - 1.0).abs() < 1e-9);
        assert_eq!(report.bottleneck, Bottleneck::ClientCompute);
    }

    #[test]
    fn message_rate_becomes_bottleneck_with_many_clients() {
        // Throttle the RNIC hard so even a small run saturates it.
        let pool = MemoryPool::new(DmConfig::small().with_message_rate(10_000));
        let addr = pool.reserve(64).unwrap();
        let report = read_run(&pool, 8, 500, addr, 64);
        assert_eq!(report.bottleneck, Bottleneck::NicMessageRate);
        // 4000 messages at 10k msg/s = 0.4 s ≫ per-client 1 ms of verbs.
        assert!(report.simulated_seconds > 0.1);
    }

    #[test]
    fn throughput_does_not_drop_as_clients_join_an_unthrottled_pool() {
        // A fixed budget per client: each added client adds its ops but
        // none of the elapsed time, which is the slowest client's clock.
        let pool = MemoryPool::new(DmConfig::small());
        let addr = pool.reserve(64).unwrap();
        let mut last = 0.0;
        for clients in [1, 2, 4] {
            let report = read_run(&pool, clients, 200, addr, 64);
            assert_eq!(report.total_ops, 200 * clients as u64);
            assert!(
                report.throughput_mops >= last,
                "{clients} clients: {} Mops after {last}",
                report.throughput_mops
            );
            last = report.throughput_mops;
        }
    }

    #[test]
    fn stats_are_reset_between_runs() {
        let pool = MemoryPool::new(DmConfig::small());
        let addr = pool.reserve(64).unwrap();
        assert_eq!(read_run(&pool, 1, 1, addr, 8).total_ops, 1);
        assert_eq!(read_run(&pool, 1, 5, addr, 8).total_ops, 5);
    }

    #[test]
    #[should_panic]
    fn zero_clients_is_a_programming_error() {
        let pool = MemoryPool::new(DmConfig::small());
        let _ = run_clients(&pool, 0, |_| ((), 0..1), |_, _| (), drop);
    }
}
