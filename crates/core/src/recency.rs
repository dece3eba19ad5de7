//! When a hit may leave the slot's `last_ts` alone — the one rule
//! [`crate::DittoClient`] and [`crate::SimCache`] share (see the crate docs,
//! *Which messages a hit and a cutover send*).
//!
//! A hit has just read the slot's stored `last_ts`, so it knows how stale the
//! timestamp is.  It rewrites it only once it is older than τ, a sixteenth of
//! the *eviction age* the client observes: the idle time of the oldest
//! candidate in its own eviction samples — what the LRU expert evicts,
//! whichever expert wins.  A skipped write leaves a timestamp at most τ
//! behind the truth, so sampled LRU misorders two objects only when their
//! last accesses lie within 1/16 of the age at which anything is evicted at
//! all — far below the gaps between K = 5 random samples.
//!
//! The eviction age also keeps growing while the client sees no eviction:
//! it is at least the time since the client last had evidence of one — its
//! own eviction, a history counter that moved past what it knew, or a miss
//! on a key evicted since then.  A cache that evicted nothing since then
//! still holds all it held then, so its eviction age is at least that long;
//! and a client whose evictions stopped would otherwise go on judging its
//! hits by the age of its last one, frozen.

/// What the observed eviction age is divided by to give τ.  A constant, not
/// a setting, picked from the sweep in `sim.rs`
/// (`last_ts_divisor_sweep_keeps_the_hit_rate_at_sixteen`: {4, 8, 16, 32,
/// eager} on YCSB-C and the changing workload, seeds 42 and 7).  From 8
/// upward the hit rate cannot be told from eager — within ±0.25 % at the
/// test's 100 k requests, ±0.1 % at 1 M — while 4 comes out below eager on
/// every 1 M-request row; what the divisor does move is the share of hits
/// that still write: about 27 % at 4, 40 % at 8, 52 % at 16, 64 % at 32.
/// Sixteen keeps a factor of four on the first value that shows a loss and
/// still drops half the writes.
pub const LAST_TS_DIVISOR: u64 = 16;

/// Whether a hit at `now` on a slot whose stored last-access timestamp is
/// `last_ts` may skip rewriting it: the timestamp is younger than
/// `eviction_age / divisor` (callers pass [`LAST_TS_DIVISOR`]; the sweep
/// passes others).  A stored timestamp ahead of `now` — another client's
/// clock — reads as just written.
pub fn last_ts_is_fresh(now: u64, last_ts: u64, eviction_age: u64, divisor: u64) -> bool {
    now.saturating_sub(last_ts) < eviction_age / divisor
}

/// Weight of a new sample in the eviction-age average: 1 / this.
const EWMA_SHIFT: u32 = 3;

/// A client's running estimate of the age at which the cache evicts, in the
/// unit of its clock.
///
/// * Once it has run an eviction: an exponentially weighted average of the
///   oldest sampled candidate's idle time.
/// * Before that, while it has never missed: the time since its own first
///   operation — nothing it reads has been evicted for at least that long.
/// * After its first miss and until its first eviction: zero, i.e. every hit
///   writes.  A miss is evidence that *somebody* evicts, at an age this
///   client cannot see; a reader whose hot keys another client is evicting
///   must not go on starving their timestamps on the strength of its own
///   uptime.
///
/// Whichever applies, the estimate is at least the time since the client
/// last saw evidence of an eviction ([`Self::observe_eviction`],
/// [`Self::observe_evidence`]), once it has seen any: the average stops
/// being the last word once the evictions it averaged have stopped.  A miss
/// on a key whose eviction the client already knew of is no new evidence,
/// and does not restart the clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvictionAge {
    first_op: Option<u64>,
    missed: bool,
    observed: Option<u64>,
    /// When the client last saw evidence of an eviction.
    seen: Option<u64>,
}

impl EvictionAge {
    /// Marks the start of an operation at `now` (the first one counts).
    pub fn begin_op(&mut self, now: u64) {
        self.first_op.get_or_insert(now);
    }

    /// Records that a lookup found its key absent.
    pub fn observe_miss(&mut self) {
        self.missed = true;
    }

    /// Feeds the idle time of the oldest candidate of an eviction sample
    /// the client picked from at `now`.
    pub fn observe_eviction(&mut self, oldest_idle: u64, now: u64) {
        self.observed = Some(match self.observed {
            None => oldest_idle,
            Some(age) => age - (age >> EWMA_SHIFT) + (oldest_idle >> EWMA_SHIFT),
        });
        self.observe_evidence(now);
    }

    /// Records evidence, at `now`, that something was evicted since the
    /// client last looked: a history counter read or fetched past its
    /// estimate, or a miss on a key evicted after that estimate.
    pub fn observe_evidence(&mut self, now: u64) {
        self.seen = Some(self.seen.map_or(now, |seen| seen.max(now)));
    }

    /// The current estimate at `now`.
    pub fn estimate(&self, now: u64) -> u64 {
        let age = match (self.observed, self.missed, self.first_op) {
            (Some(age), _, _) => age,
            (None, false, Some(first_op)) => now.saturating_sub(first_op),
            _ => 0,
        };
        let quiet = self.seen.map_or(0, |seen| now.saturating_sub(seen));
        age.max(quiet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timestamp_is_fresh_below_a_sixteenth_of_the_eviction_age() {
        let age = 16_000;
        assert!(last_ts_is_fresh(10_999, 10_000, age, LAST_TS_DIVISOR));
        assert!(!last_ts_is_fresh(11_000, 10_000, age, LAST_TS_DIVISOR));
        // Nothing is fresh against an unknown (zero) age, or for the eager
        // divisor of the sweep.
        assert!(!last_ts_is_fresh(10_000, 10_000, 0, LAST_TS_DIVISOR));
        assert!(!last_ts_is_fresh(10_000, 10_000, age, u64::MAX));
        // A timestamp from a clock ahead of ours reads as just written.
        assert!(last_ts_is_fresh(5, 10_000, age, LAST_TS_DIVISOR));
    }

    #[test]
    fn the_estimate_is_uptime_then_zero_after_a_miss_then_the_observed_age() {
        let mut age = EvictionAge::default();
        assert_eq!(age.estimate(500), 0, "no operation yet");
        age.begin_op(100);
        age.begin_op(300);
        assert_eq!(age.estimate(500), 400, "since the first operation");
        age.observe_miss();
        assert_eq!(age.estimate(500), 0);
        age.observe_eviction(8_000, 500);
        assert_eq!(age.estimate(500), 8_000, "the first sample is taken whole");
        age.observe_eviction(16_000, 500);
        assert_eq!(age.estimate(500), 9_000, "later ones at a weight of 1/8");
        age.observe_eviction(0, 500);
        assert_eq!(age.estimate(500), 7_875);
    }

    #[test]
    fn the_estimate_grows_with_the_time_since_the_last_eviction_seen() {
        let mut age = EvictionAge::default();
        age.begin_op(0);
        age.observe_miss();
        age.observe_eviction(1_000, 10_000);
        assert_eq!(age.estimate(10_500), 1_000, "the average, while larger");
        assert_eq!(age.estimate(14_000), 4_000, "then the quiet time");
        // A miss alone is no evidence: the clock keeps running.
        age.observe_miss();
        assert_eq!(age.estimate(20_000), 10_000);
    }

    #[test]
    fn each_kind_of_evidence_restarts_the_quiet_time() {
        let mut age = EvictionAge::default();
        age.begin_op(0);
        age.observe_miss();
        assert_eq!(age.estimate(50_000), 0, "missed, and no evidence yet");
        // Its own eviction.
        age.observe_eviction(100, 50_000);
        assert_eq!(age.estimate(60_000), 10_000);
        // A counter read or fetched past its estimate.
        age.observe_evidence(60_000);
        assert_eq!(age.estimate(61_000), 1_000);
        // A miss on a key evicted since — and evidence from an earlier
        // clock moves nothing back.
        age.observe_evidence(70_000);
        age.observe_evidence(65_000);
        assert_eq!(age.estimate(71_000), 1_000);
        // A reader's evidence, without an eviction of its own, counts too.
        let mut reader = EvictionAge::default();
        reader.begin_op(0);
        reader.observe_miss();
        reader.observe_evidence(5_000);
        assert_eq!(reader.estimate(9_000), 4_000);
    }
}
