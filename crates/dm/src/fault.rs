//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] describes *what* can go wrong — per-verb error
//! completions, per-verb timeouts, node fail-stop after a simulated time,
//! and transient slow-NIC windows — and a seed that makes every decision
//! reproducible.  The [`FaultInjector`] built from the plan is consulted by
//! the verb layer ([`crate::DmClient`]'s `try_*` verbs and
//! [`crate::WorkQueue`] rings) once per verb.
//!
//! Decisions are a pure function of `(plan seed, client id, the client's
//! verb sequence number)`: no shared mutable state, so a single-threaded
//! run replays bit-identically and a multi-threaded run's per-client fault
//! pattern does not depend on thread interleaving.
//!
//! Faulted verbs are **not free**: the request still went out on the wire,
//! so the verb's latency is charged and the target NIC's message budget is
//! consumed; a timed-out verb additionally charges
//! [`FaultPlan::verb_timeout_ns`] of waiting.  With no plan installed the
//! hot path reduces to one branch on a `None`.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};

/// Denominator of the per-verb fault rates: rates are expressed in parts
/// per million so that the draw is exact integer arithmetic.
pub const PPM: u64 = 1_000_000;

/// A node that fail-stops at a simulated time: every verb issued to it at
/// or after `at_ns` errors (the RNIC stops answering; requests time out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeFailStop {
    /// The failing memory node.
    pub mn_id: u16,
    /// Simulated time of the failure in nanoseconds.
    pub at_ns: u64,
}

/// A transient degradation window of one node's NIC: transfer latencies of
/// verbs issued inside `[from_ns, until_ns)` are scaled by `factor_pct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowNic {
    /// The degraded memory node.
    pub mn_id: u16,
    /// Window start (simulated nanoseconds, inclusive).
    pub from_ns: u64,
    /// Window end (simulated nanoseconds, exclusive).
    pub until_ns: u64,
    /// Latency multiplier in percent (100 = nominal, 400 = 4× slower).
    pub factor_pct: u32,
}

/// A seeded, declarative failure model for one run.
///
/// The default plan injects nothing; [`FaultPlan::seeded`] plus the builder
/// methods compose the failure classes.  The plan hangs off
/// [`crate::DmConfig::fault`] so every layer above sees the same model.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the per-verb fault draws.
    pub seed: u64,
    /// Probability (ppm) that a verb completes in error.
    pub verb_fail_rate_ppm: u32,
    /// Probability (ppm) that a verb times out instead of completing.
    pub verb_timeout_rate_ppm: u32,
    /// Extra waiting time charged to a timed-out verb, in nanoseconds
    /// (the retransmission window before the RNIC gives up).
    pub verb_timeout_ns: u64,
    /// Nodes that fail-stop at a simulated time.
    pub node_fail_stop: Vec<NodeFailStop>,
    /// Transient slow-NIC windows.
    pub slow_nics: Vec<SlowNic>,
}

impl FaultPlan {
    /// An empty plan with the given seed; compose with the builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            verb_timeout_ns: 100_000,
            ..FaultPlan::default()
        }
    }

    /// Sets the per-verb error-completion rate in parts per million.
    pub fn with_verb_fail_ppm(mut self, ppm: u32) -> Self {
        self.verb_fail_rate_ppm = ppm;
        self
    }

    /// Sets the per-verb timeout rate (ppm) and the timeout duration.
    pub fn with_verb_timeouts(mut self, ppm: u32, timeout_ns: u64) -> Self {
        self.verb_timeout_rate_ppm = ppm;
        self.verb_timeout_ns = timeout_ns;
        self
    }

    /// Adds a node fail-stop at simulated time `at_ns`.
    pub fn with_node_fail_stop(mut self, mn_id: u16, at_ns: u64) -> Self {
        self.node_fail_stop.push(NodeFailStop { mn_id, at_ns });
        self
    }

    /// Adds a transient slow-NIC window.
    pub fn with_slow_nic(
        mut self,
        mn_id: u16,
        from_ns: u64,
        until_ns: u64,
        factor_pct: u32,
    ) -> Self {
        self.slow_nics.push(SlowNic {
            mn_id,
            from_ns,
            until_ns,
            factor_pct,
        });
        self
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.verb_fail_rate_ppm > 0
            || self.verb_timeout_rate_ppm > 0
            || !self.node_fail_stop.is_empty()
            || !self.slow_nics.is_empty()
    }
}

/// The fate the injector assigns to one verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbFate {
    /// The verb executes normally.
    Ok,
    /// The verb completes in error ([`crate::DmError::VerbFailed`]).
    Fail,
    /// The verb times out ([`crate::DmError::VerbTimeout`]); the issuer
    /// additionally waits [`FaultPlan::verb_timeout_ns`].
    Timeout,
    /// The target node has fail-stopped; the verb times out and every
    /// later verb to this node will too.
    NodeDead,
}

/// The runtime face of a [`FaultPlan`], owned by the pool.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    active: bool,
    /// Whether the *probabilistic* fault classes (error completions,
    /// timeouts, slow-NIC windows) are currently firing.  Fail-stopped
    /// nodes stay dead regardless: a crash is state, not noise.  Chaos
    /// harnesses disarm for setup and verification phases so invariants
    /// are checked exactly, then arm for the measured window.
    armed: AtomicBool,
}

/// SplitMix64: a tiny, high-quality avalanche over the draw inputs.  Shared
/// with the flight recorder's per-op sampling draw (see
/// [`crate::DmClient::begin_op`]), which needs the same replayability.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// Builds the injector for `plan` (`None` disables injection).
    pub fn new(plan: Option<FaultPlan>) -> Self {
        let plan = plan.unwrap_or_default();
        let active = plan.is_active();
        FaultInjector {
            plan,
            active,
            armed: AtomicBool::new(true),
        }
    }

    /// Arms or disarms the probabilistic fault classes (see the `armed`
    /// field).  Node fail-stop is unaffected — a dead node stays dead.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::Release);
    }

    /// Whether the probabilistic fault classes are firing.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Whether any fault class is configured; `false` keeps the verb hot
    /// path at a single branch.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Extra waiting time charged to a timed-out verb.
    pub fn timeout_ns(&self) -> u64 {
        self.plan.verb_timeout_ns
    }

    /// Whether `mn_id` has fail-stopped by simulated time `now_ns`.
    ///
    /// Higher layers use this as their (instant, simulated) membership
    /// oracle: a failed verb to a dead node is not worth retrying.
    pub fn node_failed(&self, mn_id: u16, now_ns: u64) -> bool {
        self.active
            && self
                .plan
                .node_fail_stop
                .iter()
                .any(|f| f.mn_id == mn_id && now_ns >= f.at_ns)
    }

    /// The latency multiplier (percent) for a verb to `mn_id` at `now_ns`;
    /// 100 outside every slow-NIC window.
    pub fn latency_factor_pct(&self, mn_id: u16, now_ns: u64) -> u64 {
        if !self.active || !self.is_armed() {
            return 100;
        }
        self.plan
            .slow_nics
            .iter()
            .filter(|w| w.mn_id == mn_id && now_ns >= w.from_ns && now_ns < w.until_ns)
            .map(|w| w.factor_pct as u64)
            .max()
            .unwrap_or(100)
            .max(1)
    }

    /// Assigns a fate to one verb: the `seq`-th verb client `client_id`
    /// ever issued, targeting `mn_id` at simulated time `now_ns`.
    pub fn fate(&self, client_id: u32, seq: u64, mn_id: u16, now_ns: u64) -> VerbFate {
        if !self.active {
            return VerbFate::Ok;
        }
        if self.node_failed(mn_id, now_ns) {
            return VerbFate::NodeDead;
        }
        let fail = self.plan.verb_fail_rate_ppm as u64;
        let timeout = self.plan.verb_timeout_rate_ppm as u64;
        if (fail == 0 && timeout == 0) || !self.is_armed() {
            return VerbFate::Ok;
        }
        let draw = splitmix64(self.plan.seed ^ ((client_id as u64) << 40).wrapping_add(seq)) % PPM;
        if draw < fail {
            VerbFate::Fail
        } else if draw < fail + timeout {
            VerbFate::Timeout
        } else {
            VerbFate::Ok
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let inj = FaultInjector::new(None);
        assert!(!inj.is_active());
        for seq in 0..1000 {
            assert_eq!(inj.fate(0, seq, 0, 0), VerbFate::Ok);
        }
        assert_eq!(inj.latency_factor_pct(0, 0), 100);
        assert!(!inj.node_failed(0, u64::MAX));
    }

    #[test]
    fn draws_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan::seeded(42).with_verb_fail_ppm(100_000); // 10%
        let inj = FaultInjector::new(Some(plan.clone()));
        let inj2 = FaultInjector::new(Some(plan));
        let mut failures = 0;
        for seq in 0..10_000 {
            let fate = inj.fate(7, seq, 0, 0);
            assert_eq!(fate, inj2.fate(7, seq, 0, 0), "same inputs, same fate");
            if fate == VerbFate::Fail {
                failures += 1;
            }
        }
        // 10% of 10k draws: comfortably within [700, 1300].
        assert!((700..=1300).contains(&failures), "got {failures} failures");
    }

    #[test]
    fn clients_draw_independent_streams() {
        let inj = FaultInjector::new(Some(FaultPlan::seeded(9).with_verb_fail_ppm(500_000)));
        let a: Vec<_> = (0..64).map(|s| inj.fate(1, s, 0, 0)).collect();
        let b: Vec<_> = (0..64).map(|s| inj.fate(2, s, 0, 0)).collect();
        assert_ne!(a, b, "different clients must not share a fault pattern");
    }

    #[test]
    fn node_fail_stop_applies_from_its_time() {
        let inj = FaultInjector::new(Some(FaultPlan::seeded(1).with_node_fail_stop(2, 5_000)));
        assert_eq!(inj.fate(0, 0, 2, 4_999), VerbFate::Ok);
        assert_eq!(inj.fate(0, 1, 2, 5_000), VerbFate::NodeDead);
        assert_eq!(
            inj.fate(0, 2, 1, 9_000),
            VerbFate::Ok,
            "other nodes live on"
        );
        assert!(inj.node_failed(2, 5_000));
        assert!(!inj.node_failed(2, 0));
    }

    #[test]
    fn slow_nic_windows_scale_latency() {
        let inj = FaultInjector::new(Some(
            FaultPlan::seeded(1).with_slow_nic(0, 1_000, 2_000, 400),
        ));
        assert_eq!(inj.latency_factor_pct(0, 999), 100);
        assert_eq!(inj.latency_factor_pct(0, 1_000), 400);
        assert_eq!(inj.latency_factor_pct(0, 1_999), 400);
        assert_eq!(inj.latency_factor_pct(0, 2_000), 100);
        assert_eq!(inj.latency_factor_pct(1, 1_500), 100, "window is per-node");
    }

    #[test]
    fn disarming_silences_noise_but_keeps_dead_nodes_dead() {
        let plan = FaultPlan::seeded(11)
            .with_verb_fail_ppm(1_000_000)
            .with_slow_nic(0, 0, u64::MAX, 400)
            .with_node_fail_stop(1, 5_000);
        let inj = FaultInjector::new(Some(plan));
        assert_eq!(inj.fate(0, 0, 0, 0), VerbFate::Fail);
        inj.set_armed(false);
        assert!(!inj.is_armed());
        assert_eq!(inj.fate(0, 1, 0, 0), VerbFate::Ok, "noise suspended");
        assert_eq!(inj.latency_factor_pct(0, 0), 100, "slow NIC suspended");
        assert_eq!(
            inj.fate(0, 2, 1, 9_000),
            VerbFate::NodeDead,
            "crash is state, not noise"
        );
        assert!(inj.node_failed(1, 9_000));
        inj.set_armed(true);
        assert_eq!(
            inj.fate(0, 0, 0, 0),
            VerbFate::Fail,
            "re-armed draws replay"
        );
    }

    #[test]
    fn timeouts_and_failures_share_the_draw() {
        let plan = FaultPlan::seeded(3)
            .with_verb_fail_ppm(50_000)
            .with_verb_timeouts(50_000, 77_000);
        let inj = FaultInjector::new(Some(plan));
        assert_eq!(inj.timeout_ns(), 77_000);
        let (mut fails, mut timeouts) = (0, 0);
        for seq in 0..20_000 {
            match inj.fate(0, seq, 0, 0) {
                VerbFate::Fail => fails += 1,
                VerbFate::Timeout => timeouts += 1,
                _ => {}
            }
        }
        assert!((700..=1300).contains(&fails), "got {fails} failures");
        assert!((700..=1300).contains(&timeouts), "got {timeouts} timeouts");
    }
}
