//! Distributed adaptive caching: expert weights, regret minimisation and the
//! lazy weight-update scheme (§4.3, §4.3.2).
//!
//! Each client keeps a *local* copy of the expert weights and makes eviction
//! decisions with it.  Regret penalties are buffered locally and shipped in
//! batches to the [`WeightService`] running on the memory-node controller,
//! which applies them to the *global* weights and returns the merged values.
//! Local and global weights therefore drift slightly between syncs, which the
//! paper shows does not hurt adaptivity.  The client waits for no reply: it
//! posts the batch, and a later op adopts the returned weights and decays
//! them by the penalties buffered since (`AdaptivePolicy::adopt_weights`).
//!
//! [`AdaptivePolicy`] is the one policy core: [`crate::DittoClient`] and
//! [`crate::SimCache`] both run it, so what the simulator shows is what the
//! client's policy does.  It owns the weights and pays regrets; the holder
//! only ships the buffered penalties to the controller (the simulator,
//! whose local weights are global, discards them).
//!
//! A regret is importance-weighted (EXP3's loss estimator, Auer et al.,
//! "The Nonstochastic Multiarmed Bandit Problem", 2002).  An expert is
//! blamed only when a victim it picked is re-requested, so an expert drawn
//! more often is blamed more often, and unweighted regrets settle the
//! weights where the blame balances, not on the better expert.  Each pick
//! therefore records `p`, the probability that its victim was drawn, in the
//! history word beside the expert bitmap ([`expert_bitmap`]), and the
//! regret on it divides its penalty by `p`: every expert's expected blame
//! is then its loss, however often it is drawn.

use crate::error::{CacheError, CacheResult};
use crate::history::expert_bitmap;
use crate::recency::EvictionAge;
use ditto_algorithms::{registry, AccessContext, CacheAlgorithm, Metadata};
use ditto_dm::rpc::{wire, RpcHandler};
use ditto_dm::{DmError, DmResult, MemoryNode};
use parking_lot::Mutex;
use rand::Rng;
use std::sync::Arc;

/// Lowest weight an expert can decay to; keeps a losing expert exploratory
/// rather than permanently silenced (as in LeCaR).
pub const MIN_WEIGHT: f64 = 0.01;

/// Regret-minimisation learning rate λ (§5.1).
pub const LEARNING_RATE: f64 = 0.1;

/// Controller CPU cost of one weight-update RPC, in nanoseconds.
const WEIGHT_RPC_CPU_NS: u64 = 1_500;

/// Upper bound on configured experts (the history word's expert bitmap is
/// 48 bits wide).
pub(crate) const MAX_EXPERTS: usize = expert_bitmap::EXPERT_BITS as usize;

/// The LeCaR discount rate `d = 0.005^(1/N)` for a history of `N` entries.
pub fn discount(history_len: u64) -> f64 {
    0.005_f64.powf(1.0 / history_len.max(1) as f64)
}

/// The expert vote of one eviction.  Every expert names the candidate with
/// its lowest `priority(metadata, now)` (the first, among equals); the victim
/// is the pick of expert `chosen`; the bitmap marks every expert whose own
/// pick is that victim — the experts a later regret on it penalises.
///
/// Returns `(index of the victim in candidates, expert bitmap)`.  Pure and
/// allocation-free; [`AdaptivePolicy::pick_victim`] draws `chosen` and calls
/// it.
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

/// The adaptive policy of one client (or one simulator): the shared experts,
/// this holder's local expert weights and its lazy-update penalty buffer.
/// With a single expert it is that expert alone — no draw, no history, no
/// regret — which is how the paper's Ditto-LRU and Ditto-LFU configurations
/// run.
#[derive(Clone)]
pub struct AdaptivePolicy {
    experts: Arc<[Arc<dyn CacheAlgorithm>]>,
    weights: Vec<f64>,
    /// Per-position decay `d` of a regret ([`discount`]).
    discount: f64,
    /// Penalties buffered since the last sync, as per-expert sums (§4.3.2).
    pending_penalties: Vec<f64>,
    pending_updates: usize,
    sync_batch: usize,
}

impl AdaptivePolicy {
    /// Builds the policy over the registry's algorithms `names`, for a history
    /// of `history_len` entries and a weight sync every `sync_batch` regrets.
    pub fn from_names(names: &[String], history_len: u64, sync_batch: usize) -> CacheResult<Self> {
        let experts = names
            .iter()
            .map(|name| {
                registry::by_name(name).ok_or_else(|| CacheError::UnknownAlgorithm(name.clone()))
            })
            .collect::<CacheResult<Vec<_>>>()?;
        Self::new(experts, history_len, sync_batch)
    }

    /// Builds the policy over explicitly provided experts — the entry point
    /// for user-defined caching algorithms outside the registry.
    pub fn new(
        experts: Vec<Arc<dyn CacheAlgorithm>>,
        history_len: u64,
        sync_batch: usize,
    ) -> CacheResult<Self> {
        if !(1..=MAX_EXPERTS).contains(&experts.len()) {
            return Err(CacheError::InvalidConfig(format!(
                "{} experts; 1 to {MAX_EXPERTS} fit the history word's expert bitmap",
                experts.len()
            )));
        }
        let n = experts.len();
        Ok(AdaptivePolicy {
            experts: experts.into(),
            weights: vec![1.0 / n as f64; n],
            discount: discount(history_len),
            pending_penalties: vec![0.0; n],
            pending_updates: 0,
            sync_batch: sync_batch.max(1),
        })
    }

    /// The experts, in configuration order.
    pub fn experts(&self) -> &[Arc<dyn CacheAlgorithm>] {
        &self.experts
    }

    /// Whether the policy adapts (two experts or more): draws an expert per
    /// eviction, keeps a history and pays regrets.
    pub fn is_adaptive(&self) -> bool {
        self.experts.len() > 1
    }

    /// Picks the victim among `candidates` at `now`: reports the oldest
    /// candidate's idle time to `age` (what LRU would evict, whichever
    /// expert wins), draws an expert by weight from `rng` when there are
    /// two or more, and runs [`expert_vote`].  The victim was drawn with
    /// probability `p`, the summed weight of the experts in the vote's
    /// bitmap.
    ///
    /// Returns `(victim index, history word, chosen expert)`: the word packs
    /// the bitmap with `p` ([`expert_bitmap::with_odds`]).
    pub fn pick_victim<R: Rng + ?Sized>(
        &self,
        candidates: &[Metadata],
        now: u64,
        age: &mut EvictionAge,
        rng: &mut R,
    ) -> (usize, u64, usize) {
        if let Some(oldest_idle) = candidates.iter().map(|m| m.idle(now)).max() {
            age.observe_eviction(oldest_idle, now);
        }
        let chosen = if self.is_adaptive() {
            self.choose_expert(rng)
        } else {
            0
        };
        let (victim, bitmap) = expert_vote(&self.experts, candidates, now, chosen);
        let p = self
            .weights
            .iter()
            .enumerate()
            .filter(|(i, _)| expert_bitmap::contains(bitmap, *i))
            .map(|(_, w)| w)
            .sum();
        (victim, expert_bitmap::with_odds(bitmap, p), chosen)
    }

    /// Tells every expert in the history word `word` that `victim` was
    /// evicted at `now`.
    pub fn notify_evict(&self, victim: &Metadata, word: u64, now: u64) {
        for (i, expert) in self.experts.iter().enumerate() {
            if expert_bitmap::contains(word, i) {
                expert.on_evict(expert.priority(victim, now));
            }
        }
    }

    /// Runs every expert's update rule over `metadata` for the access `ctx`.
    pub fn update(&self, metadata: &mut Metadata, ctx: &AccessContext) {
        for expert in self.experts.iter() {
            expert.update(metadata, ctx);
        }
    }

    /// This holder's current (local) weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Draws an expert index with probability proportional to its weight.
    fn choose_expert<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut draw = rng.gen::<f64>() * self.weights.iter().sum::<f64>();
        for (i, w) in self.weights.iter().enumerate() {
            draw -= w;
            if draw <= 0.0 {
                return i;
            }
        }
        self.weights.len() - 1
    }

    /// Pays a regret for the experts in the history word `word`, the bad
    /// eviction sitting `position` entries back in the history: their
    /// weights decay at [`LEARNING_RATE`] by the penalty `d^position / p`,
    /// discounted by the position and divided by the probability `p` the
    /// word carries that the victim was drawn.  Returns `true` once
    /// `sync_batch` regrets are buffered and a global sync is due.
    pub fn regret(&mut self, word: u64, position: u64) -> bool {
        let penalty = self.discount.powf(position as f64) / expert_bitmap::odds(word);
        let mut penalties = [0.0; MAX_EXPERTS];
        for (i, pending) in self.pending_penalties.iter_mut().enumerate() {
            if expert_bitmap::contains(word, i) {
                penalties[i] = penalty;
                *pending += penalty;
            }
        }
        decay(&mut self.weights, &penalties);
        self.pending_updates += 1;
        self.pending_updates >= self.sync_batch
    }

    /// Moves the buffered penalties into the front of `out`, resets the
    /// buffer and returns the expert count, or `None` when no regret is
    /// buffered.  An `out` shorter than that keeps only what fits, so an
    /// empty slice discards the batch.  The holder ships it to the
    /// [`WeightService`].
    pub(crate) fn take_pending(&mut self, out: &mut [f64]) -> Option<usize> {
        if self.pending_updates == 0 {
            return None;
        }
        self.pending_updates = 0;
        for (o, p) in out.iter_mut().zip(&self.pending_penalties) {
            *o = *p;
        }
        self.pending_penalties.fill(0.0);
        Some(self.weights.len())
    }

    /// Adopts the global weights a sync's reply returned, once it has
    /// arrived, and decays them by the penalties buffered since the sync was
    /// posted, so a regret paid while the reply was in flight still counts
    /// locally; with none buffered, [`decay`] only renormalises.  A vector
    /// of another length is ignored.
    pub(crate) fn adopt_weights(&mut self, global: &[f64]) {
        if global.len() == self.weights.len() {
            self.weights.copy_from_slice(global);
            decay(&mut self.weights, &self.pending_penalties);
        }
    }
}

/// Decays each weight by `exp(−λ·penalty)` at [`LEARNING_RATE`] and
/// renormalises: the one update rule of a client's local regret and the
/// controller's global sync.  A zero penalty multiplies its weight by
/// exactly 1 (`exp(-0.0)`), so experts a regret spares decay not at all.
fn decay(weights: &mut [f64], penalties: &[f64]) {
    for (w, penalty) in weights.iter_mut().zip(penalties) {
        *w *= (-LEARNING_RATE * penalty).exp();
    }
    normalize(weights);
}

/// Clamps every weight to at least [`MIN_WEIGHT`] (a non-finite one to
/// exactly that) and rescales them to sum to one.
fn normalize(weights: &mut [f64]) {
    for w in weights.iter_mut() {
        if !w.is_finite() || *w < MIN_WEIGHT {
            *w = MIN_WEIGHT;
        }
    }
    let total: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= total;
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
}

impl WeightService {
    /// Creates the service with uniform global weights.
    pub fn new(num_experts: usize) -> Self {
        let num_experts = num_experts.max(1);
        WeightService {
            weights: Mutex::new(vec![1.0 / num_experts as f64; num_experts]),
        }
    }

    /// Current global weights (for inspection).
    pub fn weights(&self) -> Vec<f64> {
        self.weights.lock().clone()
    }
}

impl RpcHandler for WeightService {
    fn handle(
        &self,
        _node: &MemoryNode,
        request: &[u8],
        reply: &mut [u8],
    ) -> DmResult<(usize, u64)> {
        let mut penalties = [0.0; MAX_EXPERTS];
        let n = weight_wire::decode(request, &mut penalties)?;
        let mut weights = self.weights.lock();
        if n != weights.len() {
            return Err(DmError::RpcFailed {
                reason: format!("expected {} penalties, got {n}", weights.len()),
            });
        }
        let reply = wire::reply(reply, weight_wire::wire_len(n))?;
        decay(&mut weights, &penalties);
        Ok((weight_wire::encode(&weights, reply), WEIGHT_RPC_CPU_NS))
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

    /// A policy over `n` LRU experts, for a history of `history_len`.
    fn policy(n: usize, history_len: u64, sync_batch: usize) -> AdaptivePolicy {
        AdaptivePolicy::from_names(&vec!["lru".to_string(); n], history_len, sync_batch).unwrap()
    }

    #[test]
    fn weights_start_uniform_and_sum_to_one() {
        let w = policy(2, 500, 100);
        assert_eq!(w.weights(), &[0.5, 0.5]);
    }

    #[test]
    fn regret_decreases_the_guilty_expert() {
        let mut w = policy(2, 5_000, 100);
        for _ in 0..20 {
            w.regret(0b01, 0);
        }
        assert!(w.weights()[0] < w.weights()[1]);
        assert!((w.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // 150 regrets would decay the guilty weight to about e^-15; the
        // clamp holds it at the fixed point a = MIN_WEIGHT / (1 + MIN_WEIGHT
        // - a), which is MIN_WEIGHT itself.
        for _ in 20..150 {
            w.regret(0b01, 0);
        }
        assert!(w.weights()[0] > 0.0);
        assert!(
            (w.weights()[0] - MIN_WEIGHT).abs() < 1e-12,
            "w0 = {}",
            w.weights()[0]
        );
    }

    #[test]
    fn older_regrets_are_penalised_less() {
        let mut fresh = policy(2, 50, 100);
        let mut stale = policy(2, 50, 100);
        fresh.regret(0b01, 0);
        stale.regret(0b01, 50);
        assert!(fresh.weights()[0] < stale.weights()[0]);
    }

    /// A regret decays its experts by exactly `exp(−λ · d^pos / p)` before
    /// normalising, `p` read off the word: at `p = 0.1` it costs ten times
    /// the penalty it costs at `p = 1` (up to the odds' quantum), and a
    /// word without odds pays as `p = 1`.
    #[test]
    fn a_regret_divides_its_penalty_by_the_odds_its_word_carries() {
        let (history_len, position) = (500, 7);
        let paid = |word: u64| {
            let mut w = policy(2, history_len, 100);
            w.regret(word, position);
            let mut pending = [0.0; 2];
            assert_eq!(w.take_pending(&mut pending), Some(2));
            assert_eq!(pending[1], 0.0, "expert 1 is not in the word");
            (pending[0], w.weights()[0])
        };
        let d_pos = discount(history_len).powf(position as f64);
        for p in [1.0, 0.5, 0.1] {
            let word = expert_bitmap::with_odds(0b01, p);
            let penalty = d_pos / expert_bitmap::odds(word);
            let decayed = 0.5 * (-LEARNING_RATE * penalty).exp();
            assert_eq!(paid(word), (penalty, decayed / (decayed + 0.5)), "p = {p}");
        }
        let (unit, _) = paid(expert_bitmap::with_odds(0b01, 1.0));
        let (tenth, _) = paid(expert_bitmap::with_odds(0b01, 0.1));
        assert!((tenth / unit - 10.0).abs() < 1e-3, "{tenth} / {unit}");
        assert_eq!(paid(0b01), paid(expert_bitmap::with_odds(0b01, 1.0)));
    }

    /// Every adaptive pick's word carries the summed weight of its bitmap's
    /// experts, never zero, even when an expert sits at [`MIN_WEIGHT`].
    #[test]
    fn a_pick_records_the_odds_its_victim_was_drawn() {
        let mut w = AdaptivePolicy::from_names(&["lru".into(), "lfu".into()], 500, 1_000).unwrap();
        for _ in 0..200 {
            w.regret(0b10, 0);
        }
        assert!((w.weights()[1] - MIN_WEIGHT).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(9);
        let mut age = EvictionAge::default();
        let mut lonely_lfu = 0;
        for round in 0..2_000u64 {
            let candidates: Vec<Metadata> = (0..5)
                .map(|_| Metadata {
                    last_ts: rng.gen_range(0..1_000),
                    freq: rng.gen_range(1..50),
                    ..Metadata::default()
                })
                .collect();
            let (_, word, chosen) = w.pick_victim(&candidates, 1_000 + round, &mut age, &mut rng);
            assert!(expert_bitmap::contains(word, chosen));
            assert_ne!(word >> expert_bitmap::EXPERT_BITS, 0);
            let p: f64 = expert_bitmap::experts(word).map(|i| w.weights()[i]).sum();
            assert!((expert_bitmap::odds(word) - p).abs() <= 0.5 / 65_535.0);
            lonely_lfu += u64::from(word & 0b11 == 0b10);
        }
        assert!(lonely_lfu > 0, "LFU alone was never drawn");
    }

    #[test]
    fn batch_threshold_triggers_sync() {
        let mut w = policy(2, 500, 3);
        assert!(!w.regret(0b10, 0));
        assert!(!w.regret(0b10, 1));
        assert!(w.regret(0b10, 2));
        let mut pending = [0.0; 2];
        assert_eq!(w.take_pending(&mut pending), Some(2));
        assert!(pending[1] > pending[0]);
        assert_eq!(w.take_pending(&mut pending), None, "nothing is buffered");
        w.regret(0b01, 0);
        assert_eq!(w.take_pending(&mut pending), Some(2));
        assert_eq!(pending, [1.0, 0.0], "taking resets the buffer");
    }

    #[test]
    fn choose_expert_follows_weights() {
        let mut w = policy(2, 500, 100);
        for _ in 0..200 {
            w.regret(0b01, 0);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let picks_of_1 = (0..1_000)
            .filter(|_| w.choose_expert(&mut rng) == 1)
            .count();
        assert!(picks_of_1 > 800, "expert 1 picked only {picks_of_1} times");
    }

    #[test]
    fn adopt_weights_ignores_mismatched_lengths() {
        let mut w = policy(2, 500, 10);
        w.adopt_weights(&[0.9, 0.1, 0.0]);
        assert_eq!(w.weights(), &[0.5, 0.5]);
        w.adopt_weights(&[0.8, 0.2]);
        assert!((w.weights()[0] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn adopted_weights_keep_the_penalties_buffered_since_the_sync() {
        let mut w = policy(2, 5_000, 100);
        w.regret(0b10, 3);
        let mut pending = [0.0; MAX_EXPERTS];
        let n = w.clone().take_pending(&mut pending).unwrap();
        let global = [0.8, 0.2];
        w.adopt_weights(&global);
        let mut expected = global;
        decay(&mut expected, &pending[..n]);
        assert_eq!(w.weights(), &expected);
        assert!(w.weights()[1] < 0.2);
        // With none buffered, adopting only renormalises.
        w.take_pending(&mut pending);
        w.adopt_weights(&global);
        assert_eq!(w.weights(), &global);
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
        let service = std::sync::Arc::new(WeightService::new(2));
        pool.register_handler(ditto_dm::rpc::WEIGHT_SERVICE, service.clone());
        let client = pool.connect();
        let mut req = [0u8; weight_wire::wire_len(2)];
        weight_wire::encode(&[5.0, 0.0], &mut req);
        let mut resp = [0u8; weight_wire::wire_len(2)];
        let len = client
            .rpc(0, ditto_dm::rpc::WEIGHT_SERVICE, &req, &mut resp)
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
            std::sync::Arc::new(WeightService::new(2)),
        );
        let client = pool.connect();
        let mut resp = [0u8; weight_wire::wire_len(3)];
        assert!(client
            .rpc(0, ditto_dm::rpc::WEIGHT_SERVICE, &[], &mut resp)
            .is_err());
        let mut wrong_len = [0u8; weight_wire::wire_len(3)];
        weight_wire::encode(&[1.0, 2.0, 3.0], &mut wrong_len);
        assert!(client
            .rpc(0, ditto_dm::rpc::WEIGHT_SERVICE, &wrong_len, &mut resp)
            .is_err());
    }

    /// A reply buffer too short for the weight vector fails the sync with
    /// `RpcFailed` before the controller decays its weights.
    #[test]
    fn a_short_reply_buffer_leaves_the_weights_undecayed() {
        use ditto_dm::{DmConfig, DmError, MemoryPool};
        let pool = MemoryPool::new(DmConfig::small());
        let service = std::sync::Arc::new(WeightService::new(2));
        pool.register_handler(ditto_dm::rpc::WEIGHT_SERVICE, service.clone());
        let client = pool.connect();
        let mut req = [0u8; weight_wire::wire_len(2)];
        weight_wire::encode(&[5.0, 0.0], &mut req);
        let mut short = [0u8; weight_wire::wire_len(2) - 1];
        assert!(matches!(
            client.rpc(0, ditto_dm::rpc::WEIGHT_SERVICE, &req, &mut short),
            Err(DmError::RpcFailed { .. })
        ));
        assert_eq!(service.weights(), [0.5, 0.5]);
    }
}
