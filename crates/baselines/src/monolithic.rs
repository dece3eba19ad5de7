//! A Redis-like cluster of monolithic cache VMs (Figures 1 and 13).
//!
//! The elasticity experiments contrast Ditto with a server-centric cache
//! whose shards couple one CPU core with a fixed amount of DRAM.  Three
//! properties of that design drive the figures:
//!
//! 1. every request is processed by the CPU core owning the key's shard, so
//!    cluster throughput is capped by the *hottest* shard under a skewed
//!    (Zipfian) workload;
//! 2. scaling the cluster re-shards the key space, and the resulting data
//!    migration takes minutes (≈5.3 min for 32→64 nodes in §2.1) during
//!    which throughput drops and tail latency rises;
//! 3. resources freed by scale-in only become available once migration
//!    completes.
//!
//! [`RedisLikeCluster`] is a calibrated analytical model of such a cluster
//! (per-core service rate, Zipfian shard imbalance, migration bandwidth); it
//! produces the throughput/latency timeline that Figure 1 reports and that
//! Figure 13 contrasts with Ditto's instant resource adjustments.

use serde::{Deserialize, Serialize};

/// A scheduled resource-adjustment event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Time (seconds from the start of the experiment) at which the event is
    /// requested.
    pub at_seconds: f64,
    /// New number of shard nodes.
    pub target_nodes: u32,
}

/// One point of the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Time in seconds from the start of the experiment.
    pub seconds: f64,
    /// Cluster throughput in million operations per second.
    pub throughput_mops: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Number of nodes actively serving requests.
    pub serving_nodes: u32,
    /// Whether a data migration is in progress.
    pub migrating: bool,
}

/// The analytical Redis-like cluster model.
#[derive(Debug, Clone, Copy, Default)]
pub struct RedisLikeCluster;

impl RedisLikeCluster {
    /// Number of cached key-value pairs (the paper loads 10 M × 256 B).
    pub const NUM_KEYS: u64 = 10_000_000;
    /// Value size in bytes.
    pub const VALUE_SIZE: u32 = 256;
    /// Zipfian skew of the request distribution.
    pub const ZIPF_THETA: f64 = 0.99;
    /// Requests per second one shard core can serve.
    pub const PER_CORE_OPS: f64 = 110_000.0;
    /// Sustained migration bandwidth in bytes per second (shared by the
    /// cluster; dominated by the source nodes' CPU).
    pub const MIGRATION_BANDWIDTH: f64 = 4.0 * 1024.0 * 1024.0;
    /// Relative throughput penalty while a migration is in flight.
    pub const MIGRATION_THROUGHPUT_PENALTY: f64 = 0.07;
    /// Relative p99-latency increase while a migration is in flight.
    pub const MIGRATION_LATENCY_PENALTY: f64 = 0.21;
    /// Baseline p99 latency in microseconds when not migrating.
    pub const BASE_P99_US: f64 = 180.0;

    /// Creates the model.
    pub fn new() -> Self {
        RedisLikeCluster
    }

    /// Fraction of requests landing on the hottest of `nodes` shards under
    /// the configured Zipfian skew.
    pub fn hottest_shard_share(&self, nodes: u32) -> f64 {
        let nodes = nodes.max(1) as u64;
        let n = Self::NUM_KEYS;
        let theta = Self::ZIPF_THETA;
        // Approximate the Zipfian mass per shard by integrating the rank
        // probabilities of the keys assigned round-robin by rank: shard i
        // receives ranks i, i+nodes, i+2·nodes, ...; the hottest shard is the
        // one holding rank 0.  Summing 1/r^θ over its ranks and normalising
        // by ζ(n, θ) gives its share.  The harmonic sums are approximated
        // with the standard integral bound to stay O(1).
        let zeta_n = Self::zeta_approx(n, theta);
        // Mass of rank 0 plus the integral over the remaining ranks of the
        // hottest shard.
        let hottest = 1.0 + Self::strided_zeta_approx(n, nodes, theta);
        let uniform = zeta_n / nodes as f64;
        (hottest / zeta_n).max(uniform / zeta_n)
    }

    fn zeta_approx(n: u64, theta: f64) -> f64 {
        // ∑_{r=1..n} r^-θ ≈ 1 + (n^(1-θ) - 1) / (1 - θ)
        1.0 + ((n as f64).powf(1.0 - theta) - 1.0) / (1.0 - theta)
    }

    fn strided_zeta_approx(n: u64, stride: u64, theta: f64) -> f64 {
        // ∑_{k=1..n/stride} (1 + k·stride)^-θ ≈ stride^-θ · ζ(n/stride, θ)
        let terms = (n / stride.max(1)).max(1);
        (stride as f64).powf(-theta) * Self::zeta_approx(terms, theta)
    }

    /// Steady-state cluster throughput with `nodes` serving nodes, in Mops.
    pub fn steady_throughput_mops(&self, nodes: u32) -> f64 {
        let share = self.hottest_shard_share(nodes);
        (Self::PER_CORE_OPS / share) / 1e6
    }

    /// Seconds needed to migrate data when resharding from `from` to `to`
    /// nodes (fraction of keys that change owner × object size ÷ bandwidth).
    pub fn migration_seconds(&self, from: u32, to: u32) -> f64 {
        if from == to {
            return 0.0;
        }
        let (small, large) = if from < to { (from, to) } else { (to, from) };
        let moved_fraction = 1.0 - small as f64 / large as f64;
        let bytes = Self::NUM_KEYS as f64 * Self::VALUE_SIZE as f64 * moved_fraction;
        bytes / Self::MIGRATION_BANDWIDTH
    }

    /// Simulates the throughput/latency timeline of a scaling scenario.
    ///
    /// `initial_nodes` serve from t = 0; each [`ScaleEvent`] triggers a
    /// migration after which the new node count takes effect (for scale-out,
    /// added capacity only helps once migration finishes; for scale-in, the
    /// removed nodes keep serving until migration finishes).
    pub fn scale_timeline(
        &self,
        initial_nodes: u32,
        events: &[ScaleEvent],
        duration_seconds: f64,
        step_seconds: f64,
    ) -> Vec<TimelinePoint> {
        let step = step_seconds.max(0.1);
        let mut points = Vec::new();
        let mut serving = initial_nodes.max(1);
        let mut migration_end = f64::NEG_INFINITY;
        let mut pending_target: Option<u32> = None;
        let mut events: Vec<ScaleEvent> = events.to_vec();
        events.sort_by(|a, b| a.at_seconds.total_cmp(&b.at_seconds));
        let mut next_event = 0usize;

        let mut t = 0.0;
        while t <= duration_seconds {
            if next_event < events.len() && t >= events[next_event].at_seconds {
                let target = events[next_event].target_nodes.max(1);
                migration_end = t + self.migration_seconds(serving, target);
                pending_target = Some(target);
                next_event += 1;
            }
            if let Some(target) = pending_target {
                if t >= migration_end {
                    serving = target;
                    pending_target = None;
                }
            }
            let migrating = pending_target.is_some();
            // During a scale-out migration the old nodes keep serving; during
            // scale-in the cluster still runs at the old size.
            let base = self.steady_throughput_mops(serving);
            let throughput = if migrating {
                base * (1.0 - Self::MIGRATION_THROUGHPUT_PENALTY)
            } else {
                base
            };
            let p99 = if migrating {
                Self::BASE_P99_US * (1.0 + Self::MIGRATION_LATENCY_PENALTY)
            } else {
                Self::BASE_P99_US
            };
            points.push(TimelinePoint {
                seconds: t,
                throughput_mops: throughput,
                p99_us: p99,
                serving_nodes: serving,
                migrating,
            });
            t += step;
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> RedisLikeCluster {
        RedisLikeCluster::new()
    }

    #[test]
    fn hottest_shard_share_decreases_with_nodes_but_stays_skewed() {
        let c = cluster();
        let s32 = c.hottest_shard_share(32);
        let s64 = c.hottest_shard_share(64);
        assert!(
            s32 > 1.0 / 32.0,
            "skew must make the hottest shard over-loaded"
        );
        assert!(s64 < s32);
        assert!(s64 > 1.0 / 64.0);
    }

    #[test]
    fn throughput_does_not_scale_linearly_under_skew() {
        let c = cluster();
        let t32 = c.steady_throughput_mops(32);
        let t64 = c.steady_throughput_mops(64);
        assert!(t64 > t32, "more nodes still help somewhat");
        assert!(
            t64 < t32 * 1.9,
            "skew prevents linear scaling: {t32} → {t64}"
        );
    }

    #[test]
    fn migration_takes_minutes_like_the_paper() {
        let c = cluster();
        let secs = c.migration_seconds(32, 64);
        assert!(
            (120.0..900.0).contains(&secs),
            "32→64 migration should take minutes, got {secs} s"
        );
        assert_eq!(c.migration_seconds(32, 32), 0.0);
        // Scale-in moves a similar amount of data.
        assert!(c.migration_seconds(64, 32) > 120.0);
    }

    #[test]
    fn timeline_reflects_delayed_scale_out() {
        let c = cluster();
        let events = [ScaleEvent {
            at_seconds: 180.0,
            target_nodes: 64,
        }];
        let timeline = c.scale_timeline(32, &events, 1_200.0, 10.0);
        let before = timeline
            .iter()
            .find(|p| p.seconds >= 100.0)
            .unwrap()
            .throughput_mops;
        let during = timeline.iter().find(|p| p.seconds >= 200.0).unwrap();
        let after = timeline.last().unwrap();
        assert!(during.migrating, "migration should be in flight at t=200 s");
        assert!(
            during.throughput_mops < before,
            "throughput dips during migration"
        );
        assert!(during.p99_us > RedisLikeCluster::BASE_P99_US);
        assert!(!after.migrating);
        assert_eq!(after.serving_nodes, 64);
        assert!(after.throughput_mops > before);
    }

    #[test]
    fn timeline_without_events_is_flat() {
        let c = cluster();
        let timeline = c.scale_timeline(32, &[], 100.0, 10.0);
        let first = timeline.first().unwrap().throughput_mops;
        assert!(timeline
            .iter()
            .all(|p| (p.throughput_mops - first).abs() < 1e-9));
        assert!(timeline.iter().all(|p| !p.migrating));
    }

    #[test]
    fn events_are_processed_in_time_order() {
        let c = cluster();
        let events = [
            ScaleEvent {
                at_seconds: 600.0,
                target_nodes: 32,
            },
            ScaleEvent {
                at_seconds: 10.0,
                target_nodes: 64,
            },
        ];
        let timeline = c.scale_timeline(32, &events, 2_000.0, 20.0);
        assert_eq!(timeline.last().unwrap().serving_nodes, 32);
        assert!(timeline.iter().any(|p| p.serving_nodes == 64));
    }
}
