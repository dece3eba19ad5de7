//! The adaptive policy, pinned bit for bit.
//!
//! Ditto's adaptive caching (§4.3) runs in two places: in the simulator
//! ([`SimCache`]), which the hit-rate figures read, and in the client, whose
//! regrets travel to the memory node's weight service.  Both must make the
//! same draws in the same order.  The constants below were recorded by
//! replaying each run as written; an edit that moves any of them changed
//! which expert was drawn, which victim was evicted or which regret was
//! paid, and must say so by re-deriving them.
//!
//! Weights are compared as `f64::to_bits`: a policy that is merely close is
//! a different policy.  Every run is seeded and single-threaded, so the
//! numbers are the same under `cargo test` and `cargo test --release`.

use ditto::cache::sim::{simulate_hit_rate, SimCache, SimConfig, SimStats};
use ditto::cache::{DittoCache, DittoClient, DittoConfig};
use ditto::dm::{run_clients, DmConfig};
use ditto::workloads::corpus::{figure16_workloads, twitter_storage, CorpusScale, NamedTrace};
use ditto::workloads::traces::{lfu_friendly, TraceSpec};
use ditto::workloads::{
    changing_workload, replay, CacheBackend, Replay, ReplayOptions, ReplayStats, Request,
};

/// LRU- and LFU-friendly phases alternating (seed 42).
fn changing() -> Vec<Request> {
    changing_workload(&TraceSpec::new(2_000, 40_000).with_seed(42), 4)
}

/// An LFU-friendly trace (seed 3).
fn lfu_heavy() -> Vec<Request> {
    lfu_friendly(&TraceSpec::new(4_000, 60_000).with_seed(3))
}

/// Replays `trace` on a simulator built from `config`; returns its
/// statistics and its weights' bits.
fn simulate(trace: &[Request], config: SimConfig) -> (SimStats, Vec<u64>) {
    let mut cache = SimCache::new(config).unwrap();
    replay(&mut cache, trace.iter().copied(), ReplayOptions::default());
    let bits = cache.weights().iter().map(|w| w.to_bits()).collect();
    (cache.stats(), bits)
}

/// `[hits, misses, evictions, regrets, ts_writes_skipped]` as a `SimStats`.
fn stats([hits, misses, evictions, regrets, ts_writes_skipped]: [u64; 5]) -> SimStats {
    SimStats {
        hits,
        misses,
        evictions,
        regrets,
        ts_writes_skipped,
    }
}

/// A single expert's weight: it has no one to lose to.
const ONE: u64 = 0x3ff0_0000_0000_0000;

/// Re-derived when a regret came to divide its penalty by the probability
/// its victim was drawn: adaptive hits 14 750 → 15 758, regrets
/// 6 317 → 4 820, skipped timestamp writes 7 032 → 7 713, and both weights
/// (LRU's 0.1216 → 0.0101).
#[test]
fn the_simulator_on_the_changing_workload() {
    let trace = changing();
    let capacity = 600; // 30 % of the footprint
    let runs = [
        (
            SimConfig::adaptive(capacity),
            [15_758, 24_242, 23_642, 4_820, 7_713],
            vec![0x3f84_a44d_fa42_9543, 0x3fef_ad6e_c816_f5ab],
        ),
        (
            SimConfig::single(capacity, "lru"),
            [13_680, 26_320, 25_720, 0, 6_181],
            vec![ONE],
        ),
        (
            SimConfig::single(capacity, "lfu"),
            [16_440, 23_560, 22_960, 0, 9_175],
            vec![ONE],
        ),
    ];
    for (config, expected, weights) in runs {
        let label = format!("{:?}", config.experts);
        assert_eq!(
            simulate(&trace, config),
            (stats(expected), weights),
            "{label}"
        );
    }
}

/// Re-derived when a regret came to divide its penalty by the probability
/// its victim was drawn: adaptive hits 30 176 → 32 685, regrets
/// 4 896 → 3 507, skipped timestamp writes 12 406 → 15 822, and both
/// weights (LRU's 0.2714 → 0.0174).
#[test]
fn the_simulator_on_an_lfu_friendly_trace() {
    let trace = lfu_heavy();
    let capacity = 400;
    let runs = [
        (
            SimConfig::adaptive(capacity),
            [32_685, 27_315, 26_915, 3_507, 15_822],
            vec![0x3f91_d459_24d5_9b51, 0x3fef_715d_36d9_5325],
        ),
        (
            SimConfig::single(capacity, "lru"),
            [28_577, 31_423, 31_023, 0, 10_374],
            vec![ONE],
        ),
        (
            SimConfig::single(capacity, "lfu"),
            [33_125, 26_875, 26_475, 0, 16_257],
            vec![ONE],
        ),
    ];
    for (config, expected, weights) in runs {
        let label = format!("{:?}", config.experts);
        assert_eq!(
            simulate(&trace, config),
            (stats(expected), weights),
            "{label}"
        );
    }
}

/// One client replays the changing workload at 30 % of its footprint: its
/// regrets reach the memory node's weight service in batches, and the
/// global weights it leaves behind are pinned.  Re-derived when a sample
/// came to span 15 slots (about five candidates) and a fill to reuse its
/// miss's bucket view: hits 17 613 → 17 597, regrets 7 223 → 7 168, weight
/// syncs 73 → 72, and both weights.  Re-derived again when a fill came to
/// park its eviction's victim for the next fill to take out: each victim
/// leaves the table one fill later, picked from a sample that skips the
/// victim then in flight — hits 17 597 → 17 610, regrets 7 168 → 7 196, and
/// both weights.  Re-derived again when eviction came to score a candidate
/// with the FC increments this client still holds for it, and to drop them
/// when the key leaves its slot: hits 17 610 → 18 192, regrets
/// 7 196 → 6 764, weight syncs 72 → 68, and both weights.  Re-derived again
/// when a short sample's re-sample came to fly under the client's next op,
/// and its pick to be made by the `Set` that carries it — later in
/// simulated time, where the τ rule for `last_ts` reads the clock: hits
/// 18 192 → 18 228, regrets 6 764 → 6 686, weight syncs 68 → 67, and both
/// weights.  Re-derived again when a hash came to map onto its bucket by
/// multiply-shift instead of a mask (the table keeps its 256 buckets): other
/// buckets, other samples and victims — hits 18 228 → 18 315, regrets
/// 6 686 → 6 606, and both weights (LRU's 0.1175 → 0.1341).  Re-derived
/// again when a regret came to divide its penalty by the probability its
/// victim was drawn, carried in the history word: hits 18 315 → 18 998,
/// regrets 6 606 → 5 589, weight syncs 67 → 56, and both weights (LRU's
/// 0.1341 → 0.0260).  Re-derived again when a one-round fill came to return
/// once its round is rung, its eviction's sample decoded and its pick made
/// by a later round: other victims — hits 18 998 → 19 083, regrets 5 589 → 5 633, weight syncs 56 → 57, and
/// both weights (LRU's 0.0260 → 0.0529).  Re-derived again when a starved
/// fill came to charge the pick it makes before its ring, and an eviction it
/// takes up unpicked to be picked for by a later op: later rings, other
/// stamps and victims — hits 19 083 → 18 967, regrets 5 633 → 5 709, weight
/// syncs 57 → 58, and both weights (LRU's 0.0529 → 0.0489).  Re-derived
/// again when a weight sync came to be posted and its reply adopted by the
/// first op to begin once it has arrived: the weights lag by an op or so,
/// draws go the other way near their odds, and each sync's op ends 4.8 µs
/// sooner, which moves the `last_ts` stamps — hits 18 967 → 19 009, regrets
/// 5 709 → 5 617, weight syncs 58 → 57, and both weights (LRU's
/// 0.0489 → 0.0426).  Re-derived again when a history-id FAA came to
/// refresh the counter estimate as a READ does: no READ every 256 misses,
/// so a regret's position is judged against the estimate of the client's
/// last pick, which lags a history-id FAA still in flight — the same hits,
/// regrets and syncs, and both weights (LRU's 0.042649 → 0.042662).
#[test]
fn a_client_replay_of_the_changing_workload() {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(600), DmConfig::default())
            .unwrap();
    let mut client = cache.client();
    replay(&mut client, changing(), ReplayOptions::default());
    client.flush();
    let snap = cache.stats().snapshot();
    let weights: Vec<u64> = cache.global_weights().iter().map(|w| w.to_bits()).collect();
    assert_eq!(
        (snap.hits, snap.regrets, snap.weight_syncs, weights),
        (
            19_009,
            5_617,
            57,
            vec![0x3fa5_d7c1_3221_1277, 0x3fee_a283_ecdd_eed9]
        )
    );
}

/// LFU alone, one client, the changing workload at 30 %: with its FC cache
/// and without one, the client evicts the same keys.  Eviction scores a
/// candidate on its `freq` word plus the increments the FC cache still
/// holds for it, and drops them when this client takes the key out of its
/// slot, so LFU sees exact counts — as if every access had sent its own FAA.
///
/// That is LFU-only's drop on the benchmark's `shifting_mix` (0.6941 →
/// 0.6891 at seed 42): it now scores what LFU without an FC cache scores,
/// hit for hit at seeds 42, 7 and 3.  Before, a score lagged its key's count
/// by up to nine reads, so keys read fewer than ten times tied, and an
/// evicted key's leftover increments were flushed onto its slot's next key.
/// On the benchmark's 500 k-request phases that noise paid on the
/// LRU-friendly phases, whose hot window slides across the keys: at the end
/// of the first, exact LFU holds 1 663 of the window's 3 000 keys where the
/// lagging scores held 1 735, and the phase's hits fall 351 820 → 334 810.
/// The LFU-friendly phases gain (340 263 → 349 930 on the second).  On these
/// 10 k-request phases exact counts pay on every phase: 18 757 hits with the
/// FC cache before, 19 204 then and without one.  Since a hash maps onto its
/// bucket by multiply-shift, other samples pick other victims: 19 278, with
/// the FC cache and without one alike.  Since a starved fill charges the
/// pick it makes before its ring and an eviction it takes up unpicked is
/// picked for by a later op, other victims go: 19 203, alike again.  Since
/// each eviction owns its sample bytes, no pick scores the stale bytes
/// another sample left in a shared scratch: 19 203 → 19 268, alike again.
#[test]
fn lfu_evicts_alike_with_and_without_the_fc_cache() {
    let run = |fc_cache_mb: f64| {
        let config = DittoConfig {
            fc_cache_mb,
            ..DittoConfig::single_algorithm(600, "lfu")
        };
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let mut client = cache.client();
        replay(&mut client, changing(), ReplayOptions::default());
        client.flush();
        let mut snap = cache.stats().snapshot();
        // One flush per hit without the FC cache, one per ten with it.
        snap.fc_flushes = 0;
        snap
    };
    let with = run(DittoConfig::single_algorithm(600, "lfu").fc_cache_mb);
    assert!(with.evictions > 0);
    assert_eq!(with, run(0.0));
    assert_eq!(with.hits, 19_268);
}

/// Adaptive's hit rate minus the better of LRU-only's and LFU-only's on the
/// simulator, in points, with the cache at 30 % of the footprint (fig16's
/// sizing).
fn points_over_best_expert(trace: &NamedTrace) -> f64 {
    let capacity = (trace.footprint as usize * 3 / 10).max(128);
    let rate = |config| simulate_hit_rate(&trace.requests, config).unwrap();
    let lru = rate(SimConfig::single(capacity, "lru"));
    let lfu = rate(SimConfig::single(capacity, "lfu"));
    100.0 * (rate(SimConfig::adaptive(capacity)) - lru.max(lfu))
}

/// Fig. 16's claim (§4.3): adaptive caching matches the better of its
/// experts.  On the twitter-storage stand-in at corpus scale 0.02 it comes
/// within 0.5 pt of LFU-only, the better one; with unweighted regrets it
/// sat 1.91 pt below, and with importance-weighted ones 0.35 pt.
#[test]
fn adaptive_matches_the_better_expert_on_twitter_storage() {
    let gap = points_over_best_expert(&twitter_storage(CorpusScale(0.02)));
    assert!(gap >= -0.5, "adaptive is {gap:.2} pt off the better expert");
}

/// Fig. 16's claim on all five stand-ins at corpus scale 0.5 (0.4–0.6 M
/// requests each, about 12 s in release): every cell within 0.5 pt of the
/// better expert.  Unweighted regrets read −0.85 / −0.45 / −3.17 / −1.22 /
/// −0.86 pt; importance-weighted ones −0.34 / −0.08 / −0.31 / −0.32 /
/// +0.09.  Run with `cargo test --release --test policy_golden -- --ignored`.
#[test]
#[ignore = "about 12 s in release; CI runs it"]
fn adaptive_matches_the_better_expert_on_every_fig16_stand_in() {
    let gaps: Vec<(String, f64)> = figure16_workloads(CorpusScale(0.5))
        .iter()
        .map(|trace| (trace.name.clone(), points_over_best_expert(trace)))
        .collect();
    assert!(
        gaps.iter().all(|(_, gap)| *gap >= -0.5),
        "points over the better expert: {gaps:?}"
    );
}

/// The hit rate of `clients` Ditto clients built from `config`, replaying
/// `requests` dealt round-robin, one request each per round — fig16's run.
fn client_hit_rate(requests: &[Request], clients: usize, config: DittoConfig) -> f64 {
    let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
    let open = |index| {
        let requests = requests.iter().skip(index).step_by(clients).copied();
        (
            Replay::new(Box::new(cache.client()), ReplayOptions::default()),
            requests,
        )
    };
    let finish = |mut replay: Replay<Box<DittoClient>>| {
        replay.backend.finish();
        replay.stats
    };
    let (_, stats) = run_clients(cache.pool(), clients, open, Replay::issue, finish);
    let mut total = ReplayStats::default();
    for client in &stats {
        total.merge(client);
    }
    total.hit_rate()
}

/// The key labels of `seed`: key `k` becomes `k + seed · 10¹²`, the same
/// stream over other keys of the same length, so other buckets, samples and
/// draws.  Seed 0 is the stand-in as fig16 replays it.
fn relabelled(requests: &[Request], seed: u64) -> Vec<Request> {
    let offset = seed * 1_000_000_000_000;
    requests
        .iter()
        .map(|r| Request {
            key: r.key + offset,
            ..*r
        })
        .collect()
}

/// The seeds of fig16's client gate.
const CLIENT_GATE_SEEDS: u64 = 4;

/// Ditto's hit rate minus the better of Ditto-LRU's and Ditto-LFU's, in
/// points, at `clients` clients on `trace` relabelled by `seed`, with the
/// cache at 30 % of the footprint.
fn client_points_over_best_expert(trace: &NamedTrace, clients: usize, seed: u64) -> f64 {
    let capacity = (trace.footprint * 3 / 10).max(128);
    let requests = relabelled(&trace.requests, seed);
    let rate = |config| client_hit_rate(&requests, clients, config);
    let lru = rate(DittoConfig::single_algorithm(capacity, "lru"));
    let lfu = rate(DittoConfig::single_algorithm(capacity, "lfu"));
    100.0 * (rate(DittoConfig::with_capacity(capacity)) - lru.max(lfu))
}

/// Fig. 16's claim on the client, at the scale it is made: Ditto's hit rate
/// minus the better of Ditto-LRU's and Ditto-LFU's, in points, on each of
/// the five stand-ins at corpus scale 0.5, at 1 and at 8 clients.  Here the
/// FC cache, the lazy weight sync and the clients' separate local weights
/// play, which the simulator's gate above leaves out.
///
/// One replay moves by up to 0.3 pt when nothing but a draw differs, so
/// each cell is the mean gap over [`CLIENT_GATE_SEEDS`] relabellings of
/// its keys ([`relabelled`]).  Recorded when the gate went in, while a
/// weight sync still waited for its reply inside the miss that completed
/// its batch, mean at 1 / 8 clients: webmail −0.522 / −0.422,
/// twitter-transient −0.118 / −0.078, twitter-storage −0.702 / −0.684,
/// twitter-compute −0.599 / +0.219, ibm +0.143 / +0.023 pt.  The worst
/// cell was already short of 0.7 pt, so the gate asserts every mean within
/// 0.75.  A single seed's twitter-storage cell spread −0.742…−0.631 at 8
/// clients and ibm's −0.081…+0.330 at one.
///
/// With the sync posted and its reply adopted by the first op to begin
/// once it has arrived: −0.506 / −0.439, −0.136 / −0.075, −0.688 / −0.692,
/// −0.580 / +0.189, +0.137 / +0.004 pt.  Over the 40 (cell, seed) pairs
/// the change moved the gap by −0.005 pt, with a standard error of 0.015.
///
/// With every history-id FAA refreshing the counter estimate, so that an
/// evicting client READs the counter no more: −0.478 / −0.394, −0.127 /
/// −0.085, −0.680 / −0.762, −0.629 / +0.187, +0.189 / +0.002 pt, the
/// twitter-storage cell at 8 clients past the bound.  Its clients' estimates
/// lag the other clients' evictions since their own last pick, and a miss
/// on a key one of those evicted read as expired, no regret.  With such a
/// history id raising the estimate past it, and its regret counted: the
/// same at one client, and at 8 −0.343, −0.088, −0.674, +0.218, +0.027 pt.
///
/// Run with `cargo test --release --test policy_golden -- --ignored`.
#[test]
#[ignore = "about 2.5 min in release on two cores; CI runs it"]
fn the_client_matches_the_better_expert_on_every_fig16_stand_in() {
    let traces = figure16_workloads(CorpusScale(0.5));
    let gaps: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..CLIENT_GATE_SEEDS)
            .map(|seed| {
                let traces = &traces;
                scope.spawn(move || {
                    traces
                        .iter()
                        .flat_map(|trace| {
                            [1, 8]
                                .map(|clients| client_points_over_best_expert(trace, clients, seed))
                        })
                        .collect()
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    let mut means = Vec::new();
    for (cell, (trace, clients)) in traces
        .iter()
        .flat_map(|trace| [1, 8].map(|clients| (trace, clients)))
        .enumerate()
    {
        let cells: Vec<f64> = gaps.iter().map(|seed| seed[cell]).collect();
        let mean = cells.iter().sum::<f64>() / cells.len() as f64;
        println!(
            "{:<17} {clients} client(s): {mean:+.3} pt over the better expert, per seed {cells:+.3?}",
            trace.name
        );
        means.push((trace.name.clone(), clients, mean));
    }
    assert!(
        means.iter().all(|(_, _, mean)| *mean >= -0.75),
        "mean points over the better expert: {means:?}"
    );
}
