//! Remote spin locks, the primitive that makes lock-based caching data
//! structures expensive on DM (§3.1 of the paper).  Ditto's own data path
//! and its stripe migration take none; the Shard-LRU and KVC baselines
//! (`ditto_baselines::shardlru`) serialise every list update behind one.
//!
//! A [`RemoteLock`] occupies one 8-byte word in the memory pool:
//!
//! ```text
//! [ locked:1 | ts:63 ]
//! ```
//!
//! * **locked** — the lock bit.
//! * **ts** — while **held**: the acquisition time (simulated).  While
//!   **free**: the release time of the last critical section.
//!
//! An acquisition attempt fails — and must retry after a back-off,
//! consuming more RNIC messages — when either
//!
//! * another client holds the lock (genuine CAS failure): the waiter backs
//!   off `8 × backoff_ns`, or
//! * the lock is free but its last release time lies in the acquirer's
//!   simulated future, meaning that in DM time the lock was still held when
//!   this client tried: the waiter backs off that gap, clamped to between
//!   one and eight back-offs.
//!
//! The second condition is what lets contention appear at simulated scale:
//! client clocks advance by microseconds per verb while the real critical
//! section lasts only nanoseconds, so without it almost every CAS would
//! succeed on the first try and the lock-contention collapse of KVC and
//! Shard-LRU (Figure 2, Figure 14) could not be reproduced.
//!
//! The retry budget is bounded: an acquirer that burns it against a held
//! lock (or a word whose CAS keeps faulting) gives up with a typed
//! [`AcquireOutcome::Exhausted`] instead of spinning forever.  There is no
//! lease and no takeover: a holder that never releases keeps the lock, and
//! the baselines that take these locks model no client crash.

use crate::addr::RemoteAddr;
use crate::client::DmClient;
use crate::error::DmResult;
use crate::obs::{EventKind, Phase};

/// Lock bit stored in the most significant bit of the lock word.
const LOCKED_BIT: u64 = 1 << 63;
/// Timestamp field: the low 63 bits.
const TS_MASK: u64 = LOCKED_BIT - 1;

/// Attempts a release CAS gets over transient faults
/// ([`DmClient::with_retry`]).
const RELEASE_ATTEMPTS: usize = 8;

/// How a [`RemoteLock::acquire`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The free lock was taken.
    Acquired,
    /// The retry budget was spent against a held lock (or faulting verbs).
    /// The lock was **not** acquired; the caller must not enter the
    /// critical section.
    Exhausted,
}

/// Outcome of a lock acquisition attempt — statistics plus the typed
/// [`AcquireOutcome`] and the release token.
///
/// Must be used: on [`AcquireOutcome::Exhausted`] the lock is *not* held,
/// and a held lock must be released through [`RemoteLock::release`] with
/// this value (the release CAS expects the word it carries).
#[must_use = "check the outcome: an Exhausted acquisition did not take the lock, and a held lock must be released with this token"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockAcquisition {
    /// Number of failed attempts before the call returned.
    pub retries: u64,
    /// Simulated nanoseconds spent waiting (back-off included).
    pub wait_ns: u64,
    /// Simulated nanoseconds of deliberate back-off (the part of `wait_ns`
    /// not spent on READ/CAS verbs).
    pub backoff_ns: u64,
    /// How the call ended.
    pub outcome: AcquireOutcome,
    /// The exact lock word written on success (the release CAS expects it);
    /// zero when exhausted.
    token: u64,
}

impl LockAcquisition {
    /// Whether the lock is actually held.
    pub fn is_acquired(&self) -> bool {
        self.outcome == AcquireOutcome::Acquired
    }
}

/// A spin lock stored in disaggregated memory.
#[derive(Debug, Clone, Copy)]
pub struct RemoteLock {
    addr: RemoteAddr,
    backoff_ns: u64,
    max_retries: u64,
}

impl RemoteLock {
    /// Creates a handle to the lock word at `addr`.
    ///
    /// `backoff_ns` is the simulated back-off applied after a failed attempt
    /// (Shard-LRU uses 5 µs in the paper).
    pub fn new(addr: RemoteAddr, backoff_ns: u64) -> Self {
        RemoteLock {
            addr,
            backoff_ns: backoff_ns.max(1),
            max_retries: 10_000,
        }
    }

    /// The lock word address.
    pub fn addr(&self) -> RemoteAddr {
        self.addr
    }

    /// Upper bound on failed attempts, after which a free-but-lagging lock
    /// converges via a clock jump and a *held* lock returns
    /// [`AcquireOutcome::Exhausted`].
    pub fn max_retries(&self) -> u64 {
        self.max_retries
    }

    /// Returns a handle with a different retry bound.
    pub fn with_max_retries(mut self, max_retries: u64) -> Self {
        self.max_retries = max_retries.max(1);
        self
    }

    /// Acquires the lock with a bounded retry/back-off loop.
    ///
    /// * A free lock whose release time has passed is taken by CAS
    ///   ([`AcquireOutcome::Acquired`]).
    /// * A free lock released in the acquirer's simulated future backs the
    ///   acquirer off (simulated contention); past
    ///   [`RemoteLock::max_retries`] failures the clock jumps to the
    ///   release time so a pathologically lagging acquirer converges.
    /// * A held lock that outlasts the whole retry budget yields
    ///   [`AcquireOutcome::Exhausted`]; the lock is **not** held and the
    ///   caller must not enter the critical section.
    ///
    /// Every outcome is recorded in the pool's contention counters
    /// ([`crate::PoolStats::contention`]; exhaustions additionally in
    /// [`crate::PoolStats::faults`]), and the same statistics are returned
    /// so callers can account for wasted RNIC messages.
    pub fn acquire(&self, client: &DmClient) -> LockAcquisition {
        let mut retries = 0u64;
        let mut backoff_total = 0u64;
        let start = client.now_ns();
        loop {
            // A faulted probe or CAS burns a retry like any lost attempt;
            // the bounded budget below turns a dead lock word (e.g. a
            // fail-stopped node) into a typed exhaustion instead of an
            // unbounded spin.
            let observed = client.try_read_u64(self.addr).ok();
            let now = client.now_ns();
            if let Some(free) = observed.filter(|&w| w & LOCKED_BIT == 0 && w <= now) {
                // Free and released in our past: take it.
                let desired = LOCKED_BIT | (now & TS_MASK);
                if client.try_cas(self.addr, free, desired) == Ok(free) {
                    return self.finish(client, start, retries, backoff_total, desired);
                }
            }
            retries += 1;
            // A free word's release time; unknown for a held word or a
            // faulted probe.
            let released = observed.filter(|&w| w & LOCKED_BIT == 0);
            if retries >= self.max_retries {
                match released.filter(|&ts| ts > client.now_ns()) {
                    // Pathological lag against a *free* lock: jump the clock
                    // forward to the release time instead of spinning; the
                    // next failed attempt gives up.
                    Some(ts) => {
                        let jump = ts - client.now_ns();
                        backoff_total += jump;
                        client.advance_ns(jump);
                    }
                    // Budget burned — a holder outlasted us, or a free word
                    // kept losing (or faulting) its CAS.  Typed give-up,
                    // never an unbounded spin.
                    None => return self.finish(client, start, retries, backoff_total, 0),
                }
            }
            // A held lock: eight back-offs.  A free one released in our
            // future: that gap, clamped to one to eight back-offs, so a
            // lagging client converges in a handful of retries.  Otherwise
            // one back-off.
            let now = client.now_ns();
            let wait = match (observed, released) {
                (Some(_), None) => self.backoff_ns * 8,
                (_, Some(ts)) if ts > now => (ts - now).clamp(self.backoff_ns, self.backoff_ns * 8),
                _ => self.backoff_ns,
            };
            backoff_total += wait;
            client.advance_ns(wait);
        }
    }

    /// Builds the outcome of a finished acquisition — `token` is the word
    /// written, zero when exhausted — and records its footprint: the
    /// contention counters, one [`Phase::Lock`] span covering the whole
    /// retry loop (detail = the retry count) and, for an exhaustion, a
    /// structured event.  The span is free when the recorder is disarmed —
    /// or when the current op lost the sampling draw (see
    /// [`DmClient::span_recording`]); the event always logs.
    fn finish(
        &self,
        client: &DmClient,
        start: u64,
        retries: u64,
        backoff_ns: u64,
        token: u64,
    ) -> LockAcquisition {
        let acq = LockAcquisition {
            retries,
            wait_ns: client.now_ns() - start,
            backoff_ns,
            outcome: if token == 0 {
                AcquireOutcome::Exhausted
            } else {
                AcquireOutcome::Acquired
            },
            token,
        };
        let stats = client.pool().stats();
        client.record_span(Phase::Lock, start, client.now_ns(), retries as u32);
        if acq.is_acquired() {
            stats.record_lock_acquisition(retries, backoff_ns);
        } else {
            stats.record_lock_exhaustion(retries, backoff_ns);
            client.pool().record_event(
                client.now_ns(),
                client.client_id(),
                EventKind::LockExhausted { addr: self.addr },
            );
        }
        acq
    }

    /// Releases the lock `acq` holds: one CAS from the word `acq` wrote to
    /// a free word stamped with the caller's current simulated time, so
    /// later acquirers observe how long the critical section lasted.  An
    /// exhausted `acq` holds nothing and releases nothing.  The CAS is
    /// retried over transient faults; one that still fails leaves the lock
    /// held — no lease takes it back — and returns the error.
    pub fn release(&self, client: &DmClient, acq: &LockAcquisition) -> DmResult<()> {
        if !acq.is_acquired() {
            return Ok(());
        }
        let freed = client.now_ns() & TS_MASK;
        let old =
            client.with_retry(RELEASE_ATTEMPTS, |c| c.try_cas(self.addr, acq.token, freed))?;
        debug_assert_eq!(old, acq.token, "only the holder changes a held lock word");
        Ok(())
    }

    /// Runs `f` under the lock and returns its result together with the
    /// acquisition statistics.
    ///
    /// # Panics
    ///
    /// Panics if the acquisition exhausts its retry budget — callers that
    /// must handle a holder keeping the lock that long use
    /// [`RemoteLock::acquire`] directly.
    pub fn with<R>(&self, client: &DmClient, f: impl FnOnce() -> R) -> (R, LockAcquisition) {
        let acq = self.acquire(client);
        assert!(
            acq.is_acquired(),
            "remote lock exhausted its retry budget after {} retries",
            acq.retries
        );
        let result = f();
        let _ = self.release(client, &acq);
        (result, acq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmConfig;
    use crate::pool::MemoryPool;

    fn setup() -> (MemoryPool, RemoteAddr) {
        let pool = MemoryPool::new(DmConfig::small());
        let addr = pool.reserve(8).unwrap();
        (pool, addr)
    }

    #[test]
    fn uncontended_acquire_succeeds_immediately() {
        let (pool, addr) = setup();
        let client = pool.connect();
        let lock = RemoteLock::new(addr, 5_000);
        let acq = lock.acquire(&client);
        assert_eq!(acq.retries, 0);
        assert_eq!(acq.outcome, AcquireOutcome::Acquired);
        lock.release(&client, &acq).unwrap();
    }

    #[test]
    fn reacquire_after_release() {
        let (pool, addr) = setup();
        let client = pool.connect();
        let lock = RemoteLock::new(addr, 5_000);
        let acq = lock.acquire(&client);
        client.sleep_us(3);
        lock.release(&client, &acq).unwrap();
        let acq = lock.acquire(&client);
        assert_eq!(acq.retries, 0, "own release time is never in the future");
        lock.release(&client, &acq).unwrap();
    }

    #[test]
    fn lagging_client_observes_simulated_contention() {
        let (pool, addr) = setup();
        let holder = pool.connect();
        let lock = RemoteLock::new(addr, 5_000);
        // The holder performs a long critical section, pushing the release
        // timestamp far into simulated time.
        let acq = lock.acquire(&holder);
        holder.sleep_us(100);
        lock.release(&holder, &acq).unwrap();

        // A fresh client starts at simulated time 0, so the release lies in
        // its future and it must back off at least once.
        let late = pool.connect();
        let acq = lock.acquire(&late);
        assert!(acq.retries > 0, "expected simulated contention");
        assert!(acq.wait_ns >= 5_000);
        lock.release(&late, &acq).unwrap();
    }

    #[test]
    fn with_runs_closure_under_lock() {
        let (pool, addr) = setup();
        let client = pool.connect();
        let lock = RemoteLock::new(addr, 1_000);
        let (value, acq) = lock.with(&client, || 7 * 6);
        assert_eq!(value, 42);
        assert_eq!(acq.retries, 0);
        // Lock word is released (lock bit clear).
        let raw = client.read_u64(addr);
        assert_eq!(raw & LOCKED_BIT, 0);
    }

    #[test]
    fn acquisitions_feed_the_pool_contention_counters() {
        let (pool, addr) = setup();
        let holder = pool.connect();
        let lock = RemoteLock::new(addr, 5_000);
        let hold = lock.acquire(&holder);
        holder.sleep_us(100);
        lock.release(&holder, &hold).unwrap();

        let late = pool.connect();
        let acq = lock.acquire(&late);
        assert!(acq.retries > 0);
        assert!(acq.backoff_ns > 0);
        assert!(acq.wait_ns >= acq.backoff_ns);
        lock.release(&late, &acq).unwrap();

        let c = pool.stats().contention();
        assert_eq!(c.lock_acquisitions, 2);
        assert_eq!(c.lock_wait_retries, acq.retries);
        assert_eq!(c.lock_acquire_attempts, 2 + acq.retries);
        assert_eq!(c.backoff_ns, acq.backoff_ns);
        // Lifetime counters: a stats reset does not clear them.
        pool.reset_stats();
        assert_eq!(pool.stats().contention(), c);
    }

    #[test]
    fn real_mutual_exclusion_under_threads() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let (pool, lock_addr) = setup();
        let counter_addr = pool.reserve(8).unwrap();
        let in_section = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                let in_section = Arc::clone(&in_section);
                s.spawn(move || {
                    let client = pool.connect();
                    // A generous retry budget: under real-thread contention a
                    // descheduled holder can keep the lock for many of a
                    // waiter's back-offs, and the default budget occasionally
                    // exhausts (a typed give-up, not a bug) — this test is
                    // about mutual exclusion, not about bounded retries.
                    let lock = RemoteLock::new(lock_addr, 100).with_max_retries(1 << 20);
                    for _ in 0..200 {
                        let acq = lock.acquire(&client);
                        assert!(acq.is_acquired());
                        // At most one thread may be inside the section.
                        assert_eq!(in_section.fetch_add(1, Ordering::SeqCst), 0);
                        let v = client.read_u64(counter_addr);
                        client.write_u64(counter_addr, v + 1);
                        in_section.fetch_sub(1, Ordering::SeqCst);
                        lock.release(&client, &acq).unwrap();
                    }
                });
            }
        });
        let client = pool.connect();
        assert_eq!(client.read_u64(counter_addr), 800);
    }

    #[test]
    fn starved_acquire_returns_typed_exhaustion() {
        let (pool, addr) = setup();
        let holder = pool.connect();
        let lock = RemoteLock::new(addr, 1_000).with_max_retries(16);
        let hold = lock.acquire(&holder);
        assert!(hold.is_acquired());

        let starved = pool.connect();
        let acq = lock.acquire(&starved);
        assert!(!acq.is_acquired());
        assert_eq!(acq.outcome, AcquireOutcome::Exhausted);
        assert_eq!(acq.retries, 16);
        // A held lock costs eight back-offs per failed attempt; the last
        // one gives up without waiting.
        assert_eq!(acq.backoff_ns, 15 * 8 * 1_000);
        // An exhausted acquisition releases nothing.
        lock.release(&starved, &acq).unwrap();
        assert_ne!(
            starved.read_u64(addr) & LOCKED_BIT,
            0,
            "holder keeps the lock"
        );

        let f = pool.stats().faults();
        assert_eq!(f.lock_exhaustions, 1);
        // The failed attempts still feed the contention identity.
        let c = pool.stats().contention();
        assert_eq!(
            c.lock_acquire_attempts,
            c.lock_acquisitions + c.lock_wait_retries
        );

        // The real holder's release still lands.
        lock.release(&holder, &hold).unwrap();
        assert_eq!(holder.read_u64(addr) & LOCKED_BIT, 0);
    }
}
