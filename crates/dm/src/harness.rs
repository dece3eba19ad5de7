//! Multi-client experiment harness.
//!
//! Runs a closure on `N` client threads (each with its own [`DmClient`] and
//! simulated clock) and condenses the pool's resource accounting into a
//! [`RunReport`].  All throughput/latency figures of the evaluation are
//! produced through this entry point so that Ditto and the baselines share
//! the exact same measurement methodology.

use crate::client::DmClient;
use crate::pool::MemoryPool;
use crate::stats::RunReport;

/// Per-thread context handed to the client closure.
pub struct ClientCtx {
    /// The client connection owned by this thread.
    pub client: DmClient,
    /// Index of this client in `0..total`.
    pub index: usize,
    /// Total number of clients taking part in the run.
    pub total: usize,
}

/// Runs `f` on `num_clients` threads and reports aggregate performance.
///
/// The pool statistics are reset when the run starts, so a warm-up phase
/// should be executed with a separate `run_clients` call (the cached data
/// itself persists in the memory pool between calls).
///
/// The closure receives a mutable [`ClientCtx`]; its return values are
/// collected in client order and returned alongside the [`RunReport`].
pub fn run_clients<F, R>(pool: &MemoryPool, num_clients: usize, f: F) -> (RunReport, Vec<R>)
where
    F: Fn(&mut ClientCtx) -> R + Sync,
    R: Send,
{
    assert!(num_clients > 0, "at least one client is required");
    pool.reset_stats();
    let before = pool.stats().node_snapshots();

    let mut results: Vec<Option<R>> = Vec::with_capacity(num_clients);
    results.resize_with(num_clients, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_clients);
        for (index, slot) in results.iter_mut().enumerate() {
            let pool = pool.clone();
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut ctx = ClientCtx {
                    client: pool.connect(),
                    index,
                    total: num_clients,
                };
                let out = f(&mut ctx);
                ctx.client.publish_clock();
                *slot = Some(out);
            }));
        }
        for handle in handles {
            handle.join().expect("client thread panicked");
        }
    });

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
    let results = results
        .into_iter()
        .map(|r| r.expect("client result missing"))
        .collect();
    (report, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmConfig;
    use crate::stats::Bottleneck;

    #[test]
    fn all_clients_run_and_results_are_ordered() {
        let pool = MemoryPool::new(DmConfig::small());
        let (report, results) = run_clients(&pool, 4, |ctx| ctx.index * 10);
        assert_eq!(results, vec![0, 10, 20, 30]);
        assert_eq!(report.clients, 4);
    }

    #[test]
    fn report_reflects_operations() {
        let pool = MemoryPool::new(DmConfig::small());
        let addr = pool.reserve(64).unwrap();
        let (report, _) = run_clients(&pool, 2, |ctx| {
            for _ in 0..100 {
                ctx.client.begin_op();
                ctx.client.read(addr, 64);
                ctx.client.end_op();
            }
        });
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
        let (report, _) = run_clients(&pool, 8, |ctx| {
            for _ in 0..500 {
                ctx.client.begin_op();
                ctx.client.read(addr, 64);
                ctx.client.end_op();
            }
        });
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
            let (report, _) = run_clients(&pool, clients, |ctx| {
                for _ in 0..200 {
                    ctx.client.begin_op();
                    ctx.client.read(addr, 64);
                    ctx.client.end_op();
                }
            });
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
        let (first, _) = run_clients(&pool, 1, |ctx| {
            ctx.client.begin_op();
            ctx.client.read(addr, 8);
            ctx.client.end_op();
        });
        assert_eq!(first.total_ops, 1);
        let (second, _) = run_clients(&pool, 1, |ctx| {
            for _ in 0..5 {
                ctx.client.begin_op();
                ctx.client.read(addr, 8);
                ctx.client.end_op();
            }
        });
        assert_eq!(second.total_ops, 5);
    }

    #[test]
    #[should_panic]
    fn zero_clients_is_a_programming_error() {
        let pool = MemoryPool::new(DmConfig::small());
        let _ = run_clients(&pool, 0, |_| ());
    }
}
