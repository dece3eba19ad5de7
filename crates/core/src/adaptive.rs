//! Distributed adaptive caching: expert weights, regret minimisation and the
//! lazy weight-update scheme (§4.3, §4.3.2).
//!
//! Each client keeps a *local* copy of the expert weights and makes eviction
//! decisions with it.  Regret penalties are buffered locally and shipped in
//! batches to the [`WeightService`] running on the memory-node controller,
//! which applies them to the *global* weights and returns the merged values.
//! Local and global weights therefore drift slightly between syncs, which the
//! paper shows does not hurt adaptivity.

use crate::history::expert_bitmap;
use ditto_algorithms::{CacheAlgorithm, Metadata};
use ditto_dm::rpc::{wire, RpcHandler, RpcOutcome};
use ditto_dm::{DmError, DmResult, MemoryNode};
use parking_lot::Mutex;
use rand::Rng;
use std::sync::Arc;

/// Lowest weight an expert can decay to; keeps a losing expert exploratory
/// rather than permanently silenced (as in LeCaR).
pub const MIN_WEIGHT: f64 = 0.01;

/// Controller CPU cost of one weight-update RPC, in nanoseconds.
const WEIGHT_RPC_CPU_NS: u64 = 1_500;

/// Upper bound on configured experts (the expert bitmap is 64 bits wide).
pub(crate) const MAX_EXPERTS: usize = u64::BITS as usize;

/// The expert vote of one eviction.  Every expert names the candidate with
/// its lowest `priority(metadata, now)` (the first, among equals); the victim
/// is the pick of expert `chosen`; the bitmap marks every expert whose own
/// pick is that victim — the experts a later regret on it penalises.
///
/// Returns `(index of the victim in candidates, expert bitmap)`.  Pure and
/// allocation-free: the one policy core behind [`crate::DittoClient`]'s
/// eviction and [`crate::SimCache`]'s.  `chosen` is passed in so that each
/// caller draws it ([`ExpertWeights::choose_expert`]) where its RNG sequence
/// always has.
pub fn expert_vote(
    experts: &[Arc<dyn CacheAlgorithm>],
    candidates: &[Metadata],
    now: u64,
    chosen: usize,
) -> (usize, u64) {
    let mut picks = [0usize; MAX_EXPERTS];
    let picks = &mut picks[..experts.len()];
    for (pick, expert) in picks.iter_mut().zip(experts) {
        let mut best_priority = f64::INFINITY;
        for (i, metadata) in candidates.iter().enumerate() {
            let priority = expert.priority(metadata, now);
            if priority < best_priority {
                best_priority = priority;
                *pick = i;
            }
        }
    }
    let victim = picks[chosen.min(picks.len() - 1)];
    let agreeing = picks
        .iter()
        .enumerate()
        .filter(|(_, pick)| **pick == victim);
    let bitmap = agreeing.fold(0, |bitmap, (i, _)| expert_bitmap::with_expert(bitmap, i));
    (victim, bitmap)
}

/// Per-client expert weights plus the lazy-update penalty buffer.
#[derive(Debug, Clone)]
pub struct ExpertWeights {
    weights: Vec<f64>,
    learning_rate: f64,
    discount: f64,
    pending_penalties: Vec<f64>,
    pending_updates: usize,
    batch: usize,
}

impl ExpertWeights {
    /// Creates uniform weights for `num_experts` experts.
    ///
    /// `discount` is the per-position decay `d` applied to older history
    /// entries (`d = 0.005^(1/N)` in the paper); `batch` is the number of
    /// local updates buffered before a global synchronisation.
    pub fn new(num_experts: usize, learning_rate: f64, discount: f64, batch: usize) -> Self {
        let num_experts = num_experts.max(1);
        ExpertWeights {
            weights: vec![1.0 / num_experts as f64; num_experts],
            learning_rate,
            discount: discount.clamp(0.0, 1.0),
            pending_penalties: vec![0.0; num_experts],
            pending_updates: 0,
            batch: batch.max(1),
        }
    }

    /// Number of experts.
    pub fn num_experts(&self) -> usize {
        self.weights.len()
    }

    /// Current (local) weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Chooses an expert index with probability proportional to its weight.
    pub fn choose_expert<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total: f64 = self.weights.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let mut draw = rng.gen::<f64>() * total;
        for (i, w) in self.weights.iter().enumerate() {
            draw -= w;
            if draw <= 0.0 {
                return i;
            }
        }
        self.weights.len() - 1
    }

    /// Applies a regret for the experts in `expert_bitmap`, where the bad
    /// eviction sits `position` entries back in the history.
    ///
    /// Returns `true` when enough penalties have accumulated to warrant a
    /// global synchronisation.
    pub fn apply_regret(&mut self, expert_bitmap: u64, position: u64) -> bool {
        let penalty = self.discount.powf(position as f64);
        for i in 0..self.weights.len() {
            if expert_bitmap::contains(expert_bitmap, i) {
                self.weights[i] *= (-self.learning_rate * penalty).exp();
                self.pending_penalties[i] += penalty;
            }
        }
        self.normalize();
        self.pending_updates += 1;
        self.pending_updates >= self.batch
    }

    /// Moves the buffered penalties (compressed as per-expert sums, §4.3.2)
    /// into the front of `out`, resets the buffer and returns the expert
    /// count.  An `out` shorter than that keeps only what fits, so an empty
    /// slice simply discards the batch.
    pub fn take_pending(&mut self, out: &mut [f64]) -> usize {
        self.pending_updates = 0;
        for (o, p) in out.iter_mut().zip(&self.pending_penalties) {
            *o = *p;
        }
        self.pending_penalties.fill(0.0);
        self.weights.len()
    }

    /// Number of regrets buffered since the last synchronisation.
    pub fn pending_updates(&self) -> usize {
        self.pending_updates
    }

    /// Replaces the local weights with the global values returned by the
    /// controller.
    pub fn set_weights(&mut self, weights: &[f64]) {
        if weights.len() == self.weights.len() {
            self.weights.copy_from_slice(weights);
            self.normalize();
        }
    }

    fn normalize(&mut self) {
        for w in &mut self.weights {
            if !w.is_finite() || *w < MIN_WEIGHT {
                *w = MIN_WEIGHT;
            }
        }
        let total: f64 = self.weights.iter().sum();
        for w in &mut self.weights {
            *w /= total;
        }
    }
}

/// Wire encoding of the weight-update RPC: a `u32` count followed by that
/// many little-endian `f64`s, in both directions.  Both ends work on caller
/// buffers, so a weight sync allocates nothing.
pub mod weight_wire {
    use super::*;

    /// Bytes a vector of `n` values occupies on the wire.
    pub const fn wire_len(n: usize) -> usize {
        4 + n * 8
    }

    /// Encodes `values` into the front of `buf` and returns the encoded
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`wire_len`]`(values.len())`.
    pub fn encode(values: &[f64], buf: &mut [u8]) -> usize {
        buf[..4].copy_from_slice(&(values.len() as u32).to_le_bytes());
        for (chunk, v) in buf[4..].chunks_exact_mut(8).zip(values) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        wire_len(values.len())
    }

    /// Decodes a vector into the front of `out` and returns its length.
    pub fn decode(bytes: &[u8], out: &mut [f64]) -> DmResult<usize> {
        let n = wire::get_u32(bytes, 0).ok_or_else(|| DmError::RpcFailed {
            reason: "short weight vector".to_string(),
        })? as usize;
        if n > out.len() {
            return Err(DmError::RpcFailed {
                reason: format!("{n} weights exceed the {}-expert buffer", out.len()),
            });
        }
        for (i, o) in out[..n].iter_mut().enumerate() {
            *o = wire::get_f64(bytes, 4 + i * 8).ok_or_else(|| DmError::RpcFailed {
                reason: "truncated weight vector".to_string(),
            })?;
        }
        Ok(n)
    }
}

/// The controller-side service holding the global expert weights.
pub struct WeightService {
    weights: Mutex<Vec<f64>>,
    learning_rate: f64,
}

impl WeightService {
    /// Creates the service with uniform global weights.
    pub fn new(num_experts: usize, learning_rate: f64) -> Self {
        let num_experts = num_experts.max(1);
        WeightService {
            weights: Mutex::new(vec![1.0 / num_experts as f64; num_experts]),
            learning_rate,
        }
    }

    /// Current global weights (for inspection).
    pub fn weights(&self) -> Vec<f64> {
        self.weights.lock().clone()
    }
}

impl RpcHandler for WeightService {
    fn handle(&self, node: &MemoryNode, request: &[u8]) -> DmResult<RpcOutcome> {
        let mut resp = vec![0u8; request.len()];
        let (len, cpu_ns) = self.handle_into(node, request, &mut resp)?;
        resp.truncate(len);
        Ok(RpcOutcome::new(resp, cpu_ns))
    }

    fn handle_into(
        &self,
        _node: &MemoryNode,
        request: &[u8],
        response: &mut [u8],
    ) -> DmResult<(usize, u64)> {
        let n = wire::get_u32(request, 0).ok_or_else(|| DmError::RpcFailed {
            reason: "short weight-update request".to_string(),
        })? as usize;
        let mut weights = self.weights.lock();
        if n != weights.len() {
            return Err(DmError::RpcFailed {
                reason: format!("expected {} penalties, got {n}", weights.len()),
            });
        }
        if response.len() < weight_wire::wire_len(n) {
            return Err(DmError::RpcFailed {
                reason: format!("reply buffer too short for {n} weights"),
            });
        }
        for (i, w) in weights.iter_mut().enumerate() {
            let penalty = wire::get_f64(request, 4 + i * 8).ok_or_else(|| DmError::RpcFailed {
                reason: "truncated weight-update request".to_string(),
            })?;
            *w *= (-self.learning_rate * penalty).exp();
            if !w.is_finite() || *w < MIN_WEIGHT {
                *w = MIN_WEIGHT;
            }
        }
        let total: f64 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w /= total;
        }
        Ok((weight_wire::encode(&weights, response), WEIGHT_RPC_CPU_NS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The chosen expert's pick and the experts that agree with it.
    fn tally(picks: &[usize], chosen: usize) -> (usize, u64) {
        let victim = picks[chosen.min(picks.len() - 1)];
        let bitmap = (0..picks.len())
            .filter(|i| picks[*i] == victim)
            .fold(0, expert_bitmap::with_expert);
        (victim, bitmap)
    }

    /// The client's former loop: candidates held as decoded slots, picks
    /// compared by position.
    fn vote_over_slots(
        experts: &[Arc<dyn CacheAlgorithm>],
        slots: &[crate::slot::Slot],
        now: u64,
        chosen: usize,
    ) -> (usize, u64) {
        let mut picks = Vec::new();
        for expert in experts {
            let (mut best, mut best_priority) = (0, f64::INFINITY);
            for (i, slot) in slots.iter().enumerate() {
                let p = expert.priority(&slot.metadata(), now);
                if p < best_priority {
                    (best, best_priority) = (i, p);
                }
            }
            picks.push(best);
        }
        tally(&picks, chosen)
    }

    /// The simulator's former loop: candidates held as sampled indices into
    /// its entry table, picks compared by table index.
    fn vote_over_sampled(
        experts: &[Arc<dyn CacheAlgorithm>],
        table: &[Metadata],
        sampled: &[usize],
        now: u64,
        chosen: usize,
    ) -> (usize, u64) {
        let mut picks = Vec::new();
        for expert in experts {
            let (mut best, mut best_priority) = (sampled[0], f64::INFINITY);
            for &idx in sampled {
                let p = expert.priority(&table[idx], now);
                if p < best_priority {
                    (best, best_priority) = (idx, p);
                }
            }
            picks.push(best);
        }
        tally(&picks, chosen)
    }

    #[test]
    fn expert_vote_is_what_both_callers_wrote_out() {
        use crate::slot::{AtomicField, Slot};
        let experts: Vec<Arc<dyn CacheAlgorithm>> = ["lru", "lfu", "fifo"]
            .iter()
            .map(|name| ditto_algorithms::registry::by_name(name).unwrap())
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        let mut agreed_by_all = 0;
        for round in 0..500u64 {
            let now = 1_000_000 + round;
            // Few distinct values, so priorities tie and the first must win.
            let table: Vec<Slot> = (0..12)
                .map(|_| Slot {
                    atomic: AtomicField::EMPTY,
                    hash: 0,
                    insert_ts: rng.gen_range(0..4u64) * 1_000,
                    last_ts: 4_000 + rng.gen_range(0..4u64) * 1_000,
                    freq: rng.gen_range(1..4u64),
                })
                .collect();
            let mut sampled: Vec<usize> = Vec::new();
            while sampled.len() < 5 {
                let idx = rng.gen_range(0..table.len());
                if !sampled.contains(&idx) {
                    sampled.push(idx);
                }
            }
            let slots: Vec<Slot> = sampled.iter().map(|idx| table[*idx]).collect();
            let metadata: Vec<Metadata> = slots.iter().map(Slot::metadata).collect();
            let entries: Vec<Metadata> = table.iter().map(Slot::metadata).collect();
            for chosen in 0..experts.len() {
                let (victim, bitmap) = expert_vote(&experts, &metadata, now, chosen);
                assert_eq!(
                    (victim, bitmap),
                    vote_over_slots(&experts, &slots, now, chosen)
                );
                assert_eq!(
                    (sampled[victim], bitmap),
                    vote_over_sampled(&experts, &entries, &sampled, now, chosen)
                );
                assert!(expert_bitmap::contains(bitmap, chosen));
                agreed_by_all += u64::from(bitmap == 0b111);
            }
        }
        assert!(agreed_by_all > 0 && agreed_by_all < 1_500);
    }

    #[test]
    fn weights_start_uniform_and_sum_to_one() {
        let w = ExpertWeights::new(2, 0.1, 0.99, 100);
        assert_eq!(w.weights(), &[0.5, 0.5]);
        assert_eq!(w.num_experts(), 2);
    }

    #[test]
    fn regret_decreases_the_guilty_expert() {
        let mut w = ExpertWeights::new(2, 0.5, 0.999, 100);
        for _ in 0..20 {
            w.apply_regret(0b01, 0);
        }
        assert!(w.weights()[0] < w.weights()[1]);
        assert!((w.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.weights()[0] >= MIN_WEIGHT / 2.0);
    }

    #[test]
    fn older_regrets_are_penalised_less() {
        let mut fresh = ExpertWeights::new(2, 0.5, 0.9, 100);
        let mut stale = ExpertWeights::new(2, 0.5, 0.9, 100);
        fresh.apply_regret(0b01, 0);
        stale.apply_regret(0b01, 50);
        assert!(fresh.weights()[0] < stale.weights()[0]);
    }

    #[test]
    fn batch_threshold_triggers_sync() {
        let mut w = ExpertWeights::new(2, 0.1, 0.99, 3);
        assert!(!w.apply_regret(0b10, 0));
        assert!(!w.apply_regret(0b10, 1));
        assert!(w.apply_regret(0b10, 2));
        let mut pending = [0.0; 2];
        assert_eq!(w.take_pending(&mut pending), 2);
        assert!(pending[1] > pending[0]);
        assert_eq!(w.pending_updates(), 0);
        assert_eq!(w.take_pending(&mut pending), 2);
        assert_eq!(pending, [0.0; 2], "taking resets the buffer");
    }

    #[test]
    fn choose_expert_follows_weights() {
        let mut w = ExpertWeights::new(2, 1.0, 0.99, 100);
        for _ in 0..200 {
            w.apply_regret(0b01, 0);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let picks_of_1 = (0..1_000)
            .filter(|_| w.choose_expert(&mut rng) == 1)
            .count();
        assert!(picks_of_1 > 800, "expert 1 picked only {picks_of_1} times");
    }

    #[test]
    fn set_weights_ignores_mismatched_lengths() {
        let mut w = ExpertWeights::new(2, 0.1, 0.99, 10);
        w.set_weights(&[0.9, 0.1, 0.0]);
        assert_eq!(w.weights(), &[0.5, 0.5]);
        w.set_weights(&[0.8, 0.2]);
        assert!((w.weights()[0] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn wire_roundtrip() {
        let mut payload = [0u8; weight_wire::wire_len(2)];
        assert_eq!(weight_wire::encode(&[1.5, 0.25], &mut payload), 20);
        let mut decoded = [0.0; 4];
        assert_eq!(weight_wire::decode(&payload, &mut decoded), Ok(2));
        assert_eq!(decoded[..2], [1.5, 0.25]);
        assert!(weight_wire::decode(&payload[..7], &mut decoded).is_err());
        assert!(weight_wire::decode(&payload, &mut decoded[..1]).is_err());
    }

    #[test]
    fn weight_service_applies_penalties() {
        use ditto_dm::{DmConfig, MemoryPool};
        let pool = MemoryPool::new(DmConfig::small());
        let service = std::sync::Arc::new(WeightService::new(2, 0.5));
        pool.register_handler(ditto_dm::rpc::WEIGHT_SERVICE, service.clone());
        let client = pool.connect();
        let mut req = [0u8; weight_wire::wire_len(2)];
        weight_wire::encode(&[5.0, 0.0], &mut req);
        let mut resp = [0u8; weight_wire::wire_len(2)];
        let len = client
            .rpc_into(0, ditto_dm::rpc::WEIGHT_SERVICE, &req, &mut resp)
            .unwrap();
        let mut weights = [0.0; 2];
        assert_eq!(weight_wire::decode(&resp[..len], &mut weights), Ok(2));
        assert!(weights[0] < weights[1]);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(service.weights(), weights);
    }

    #[test]
    fn weight_service_rejects_bad_requests() {
        use ditto_dm::{DmConfig, MemoryPool};
        let pool = MemoryPool::new(DmConfig::small());
        pool.register_handler(
            ditto_dm::rpc::WEIGHT_SERVICE,
            std::sync::Arc::new(WeightService::new(2, 0.5)),
        );
        let client = pool.connect();
        assert!(client.rpc(0, ditto_dm::rpc::WEIGHT_SERVICE, &[]).is_err());
        let mut wrong_len = [0u8; weight_wire::wire_len(3)];
        weight_wire::encode(&[1.0, 2.0, 3.0], &mut wrong_len);
        assert!(client
            .rpc(0, ditto_dm::rpc::WEIGHT_SERVICE, &wrong_len)
            .is_err());
    }
}
