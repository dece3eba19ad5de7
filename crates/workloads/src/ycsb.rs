//! YCSB core workloads A–D (Cooper et al., SoCC '10).

use crate::request::Request;
use crate::zipf::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The YCSB core workload mixes used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum YcsbWorkload {
    /// 50 % GET / 50 % UPDATE.
    A,
    /// 95 % GET / 5 % UPDATE.
    B,
    /// 100 % GET.
    C,
    /// 95 % GET / 5 % INSERT.
    D,
}

impl YcsbWorkload {
    /// Fraction of `GET` requests in the mix.
    pub fn read_fraction(&self) -> f64 {
        match self {
            YcsbWorkload::A => 0.5,
            YcsbWorkload::B | YcsbWorkload::D => 0.95,
            YcsbWorkload::C => 1.0,
        }
    }

    /// Whether the write portion inserts new keys (D) or updates existing
    /// ones (A, B).
    pub fn writes_insert(&self) -> bool {
        matches!(self, YcsbWorkload::D)
    }

    /// The workload's conventional name ("YCSB-A", ...).
    pub fn name(&self) -> &'static str {
        match self {
            YcsbWorkload::A => "YCSB-A",
            YcsbWorkload::B => "YCSB-B",
            YcsbWorkload::C => "YCSB-C",
            YcsbWorkload::D => "YCSB-D",
        }
    }

    /// All four workloads, in paper order.
    pub fn all() -> [YcsbWorkload; 4] {
        [
            YcsbWorkload::A,
            YcsbWorkload::B,
            YcsbWorkload::C,
            YcsbWorkload::D,
        ]
    }
}

/// Parameters of a YCSB run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct YcsbSpec {
    /// Number of pre-loaded records (the paper uses 10 million).
    pub record_count: u64,
    /// Number of requests to generate.
    pub request_count: u64,
    /// Value size in bytes (the paper uses 256-byte key-value pairs).
    pub value_size: u32,
    /// Zipfian skew parameter θ (the paper uses 0.99).
    pub theta: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for YcsbSpec {
    fn default() -> Self {
        YcsbSpec {
            record_count: 10_000_000,
            request_count: 10_000_000,
            value_size: crate::DEFAULT_VALUE_SIZE,
            theta: 0.99,
            seed: 42,
        }
    }
}

impl YcsbSpec {
    /// A scaled-down spec suitable for unit tests and quick experiments.
    pub fn small() -> Self {
        YcsbSpec {
            record_count: 10_000,
            request_count: 50_000,
            ..YcsbSpec::default()
        }
    }

    /// Sets the record count (builder style).
    pub fn with_records(mut self, n: u64) -> Self {
        self.record_count = n;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The load phase: one `INSERT` per record.
    pub fn load_requests(&self) -> Vec<Request> {
        (0..self.record_count)
            .map(|k| Request::insert(k).with_value_size(self.value_size))
            .collect()
    }

    /// Requests of the load phase restricted to client `index` of `total`
    /// (records are sharded across clients, as in the paper's setup).
    pub fn load_shard(&self, index: usize, total: usize) -> Vec<Request> {
        assert!(total > 0 && index < total);
        (0..self.record_count)
            .filter(|k| (*k as usize) % total == index)
            .map(|k| Request::insert(k).with_value_size(self.value_size))
            .collect()
    }

    /// Generates the run phase of `workload`.
    pub fn run_requests(&self, workload: YcsbWorkload) -> Vec<Request> {
        self.run_requests_seeded(workload, self.seed)
    }

    /// Generates the run phase with an explicit seed (one per client).
    pub fn run_requests_seeded(&self, workload: YcsbWorkload, seed: u64) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipfian::new(self.record_count, self.theta);
        let mut next_insert_key = self.record_count;
        let read_fraction = workload.read_fraction();
        let mut requests = Vec::with_capacity(self.request_count as usize);
        for _ in 0..self.request_count {
            let key = zipf.sample_scrambled(&mut rng);
            let is_read = rng.gen::<f64>() < read_fraction;
            let req = if is_read {
                Request::get(key)
            } else if workload.writes_insert() {
                let k = next_insert_key;
                next_insert_key += 1;
                Request::insert(k)
            } else {
                Request::update(key)
            };
            requests.push(req.with_value_size(self.value_size));
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Op;

    fn mix(workload: YcsbWorkload) -> (u64, u64, u64) {
        let spec = YcsbSpec::small();
        let reqs = spec.run_requests(workload);
        let gets = reqs.iter().filter(|r| r.op == Op::Get).count() as u64;
        let updates = reqs.iter().filter(|r| r.op == Op::Update).count() as u64;
        let inserts = reqs.iter().filter(|r| r.op == Op::Insert).count() as u64;
        (gets, updates, inserts)
    }

    #[test]
    fn workload_a_is_half_reads() {
        let (gets, updates, inserts) = mix(YcsbWorkload::A);
        let total = (gets + updates + inserts) as f64;
        assert!(inserts == 0);
        let read_share = gets as f64 / total;
        assert!((read_share - 0.5).abs() < 0.02, "read share {read_share}");
    }

    #[test]
    fn workload_c_is_read_only() {
        let (gets, updates, inserts) = mix(YcsbWorkload::C);
        assert_eq!(updates + inserts, 0);
        assert_eq!(gets, YcsbSpec::small().request_count);
    }

    #[test]
    fn workload_d_inserts_new_keys() {
        let spec = YcsbSpec::small();
        let reqs = spec.run_requests(YcsbWorkload::D);
        let max_insert_key = reqs
            .iter()
            .filter(|r| r.op == Op::Insert)
            .map(|r| r.key)
            .max()
            .unwrap();
        assert!(max_insert_key >= spec.record_count);
        let (gets, updates, _) = mix(YcsbWorkload::D);
        assert_eq!(updates, 0);
        assert!(gets > 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = YcsbSpec::small();
        let a = spec.run_requests_seeded(YcsbWorkload::B, 9);
        let b = spec.run_requests_seeded(YcsbWorkload::B, 9);
        let c = spec.run_requests_seeded(YcsbWorkload::B, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn requests_stay_in_keyspace() {
        let spec = YcsbSpec::small();
        for r in spec.run_requests(YcsbWorkload::C) {
            assert!(r.key < spec.record_count);
        }
    }

    #[test]
    fn load_shard_partitions_records() {
        let spec = YcsbSpec::small().with_records(100);
        let mut all: Vec<u64> = Vec::new();
        for i in 0..4 {
            all.extend(spec.load_shard(i, 4).iter().map(|r| r.key));
        }
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }
}
