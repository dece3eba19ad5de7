//! Pure arithmetic the report is built from: percentiles, quartiles and the
//! stretch-to-bottleneck elapsed-time formula.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1); 0 when empty.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Mean of the slowest `share` (0..=1) of an ascending slice — at least one
/// sample; 0 when empty.  Unlike a percentile it moves smoothly when the
/// distribution does, which matters on a simulated clock that charges only
/// a handful of distinct latencies.
pub fn tail_mean_sorted(sorted: &[u32], share: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let count = (((sorted.len() as f64) * share).ceil() as usize).clamp(1, sorted.len());
    let tail = &sorted[sorted.len() - count..];
    tail.iter().map(|&v| u64::from(v)).sum::<u64>() as f64 / count as f64
}

/// The percentiles a latency family may be reported at, lowest first.
const PERCENTILE_LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Samples that must lie beyond a percentile before it is worth reporting.
const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// The highest rung of [`PERCENTILE_LADDER`] that still has at least ten of
/// `samples` beyond it, or `None` when not even the median has.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|p| (samples as f64) * (1.0 - p) >= MIN_SAMPLES_BEYOND - 1e-9)
}

/// Whether `samples` calls are enough to name a p99 (ten samples beyond it).
pub fn supports_p99(samples: usize) -> bool {
    highest_supported_percentile(samples).is_some_and(|p| p >= 0.99)
}

/// First quartile, median and third quartile of `values` (sorted in place),
/// each the mean of the two middle order statistics where the cut falls
/// between two samples.  All zero when empty.
pub fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    values.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (values.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quartiles(values).1
}

/// What bounds a measured window, in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stretch {
    /// Largest per-client simulated clock advance.
    pub client_seconds: f64,
    /// Hottest node's messages divided by the RNIC message rate.
    pub nic_seconds: f64,
    /// Busiest memory-node controller's CPU seconds (per core).
    pub cpu_seconds: f64,
}

impl Stretch {
    /// Elapsed simulated time: the most saturated of the three resources,
    /// exactly as `ditto_dm::RunReport::from_measurement` stretches it.
    pub fn elapsed_seconds(&self) -> f64 {
        self.client_seconds
            .max(self.nic_seconds)
            .max(self.cpu_seconds)
            .max(1e-12)
    }
}

/// Builds the [`Stretch`] of one window from its raw accounts.
pub fn stretch(
    max_client_ns: u64,
    node_messages: &[u64],
    message_rate: u64,
    node_rpc_cpu_ns: &[u64],
    mn_cpu_cores: u32,
) -> Stretch {
    let hottest = node_messages.iter().copied().max().unwrap_or(0);
    let busiest = node_rpc_cpu_ns.iter().copied().max().unwrap_or(0);
    Stretch {
        client_seconds: max_client_ns as f64 / 1e9,
        nic_seconds: hottest as f64 / message_rate.max(1) as f64,
        cpu_seconds: busiest as f64 / 1e9 / mn_cpu_cores.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn tail_mean_averages_the_slowest_share() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(tail_mean_sorted(&sorted, 0.01), 100.0);
        assert_eq!(tail_mean_sorted(&sorted, 0.1), 95.5);
        assert_eq!(tail_mean_sorted(&sorted, 1.0), 50.5);
        // Never fewer than one sample, never more than all of them.
        assert_eq!(tail_mean_sorted(&sorted, 0.0), 100.0);
        assert_eq!(tail_mean_sorted(&[3, 5], 7.0), 4.0);
        assert_eq!(tail_mean_sorted(&[], 0.01), 0.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        // 1000 samples leave exactly ten beyond p99 and only one beyond p99.9.
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(1_000_000), Some(0.99999));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        assert!(supports_p99(1_000));
        assert!(!supports_p99(999));
    }

    #[test]
    fn quartiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quartiles(&mut v), (2.0, 3.0, 4.0));
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(quartiles(&mut v), (1.75, 2.5, 3.25));
        assert_eq!(median(&mut [9.0]), 9.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn stretch_picks_the_most_saturated_resource() {
        // Client-bound: 1 ms of client time, trivial NIC and CPU load.
        let s = stretch(1_000_000, &[10, 20], 40_000_000, &[0, 0], 1);
        assert_eq!(s.elapsed_seconds(), 0.001);

        // NIC-bound: the hottest node (90 k messages at 60 k msg/s = 1.5 s)
        // sets the time, not the total and not the cooler node.
        let s = stretch(1_000_000, &[30_000, 90_000], 60_000, &[0, 0], 1);
        assert_eq!(s.nic_seconds, 1.5);
        assert_eq!(s.elapsed_seconds(), 1.5);

        // MN-CPU-bound: 4 s of controller CPU on two cores = 2 s.
        let s = stretch(1_000_000, &[30_000, 90_000], 60_000, &[4_000_000_000, 7], 2);
        assert_eq!(s.cpu_seconds, 2.0);
        assert_eq!(s.elapsed_seconds(), 2.0);

        // Nothing ran: never zero, so a rate stays finite.
        assert!(stretch(0, &[], 1, &[], 1).elapsed_seconds() > 0.0);
    }
}
