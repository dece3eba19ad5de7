//! The remote spin lock the lock-based baselines ([`crate::shardlru`])
//! serialise every list update behind — the primitive that makes
//! lock-based caching data structures expensive on DM (§3.1 of the paper).
//! Ditto takes no lock, so the lock lives here rather than in `ditto_dm`,
//! built on the substrate's public verbs.
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
//! lock (or a word whose CAS keeps faulting) gives up and holds nothing
//! instead of spinning forever.  There is no lease and no takeover: a
//! holder that never releases keeps the lock, and the baselines model no
//! client crash.

use ditto_dm::{DmClient, DmResult, Phase, RemoteAddr};

/// Lock bit stored in the most significant bit of the lock word.
const LOCKED_BIT: u64 = 1 << 63;
/// Timestamp field: the low 63 bits.
const TS_MASK: u64 = LOCKED_BIT - 1;

/// Failed attempts after which a free-but-lagging lock converges via a
/// clock jump and a *held* lock gives up.
const MAX_RETRIES: u64 = 10_000;

/// Attempts a release CAS gets over transient faults
/// ([`DmClient::with_retry`]).
const RELEASE_ATTEMPTS: usize = 8;

/// How a [`RemoteLock::acquire`] call ended.
///
/// Must be used: without a `token` the lock is *not* held and the caller
/// must not enter the critical section; with one, the lock must be released
/// through [`RemoteLock::release`] with it.
#[must_use = "an acquisition without a token did not take the lock, and a held lock must be released with its token"]
#[derive(Debug)]
pub(crate) struct Acquisition {
    /// Failed attempts before the call returned.
    pub retries: u64,
    /// The lock word written, which the release CAS expects; `None` when
    /// the retry budget ran out.
    pub token: Option<u64>,
}

/// A spin lock stored in disaggregated memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RemoteLock {
    addr: RemoteAddr,
    backoff_ns: u64,
}

impl RemoteLock {
    /// A handle to the lock word at `addr`; `backoff_ns` is the simulated
    /// back-off after a failed attempt (Shard-LRU uses 5 µs in the paper).
    pub fn new(addr: RemoteAddr, backoff_ns: u64) -> Self {
        RemoteLock {
            addr,
            backoff_ns: backoff_ns.max(1),
        }
    }

    /// Acquires the lock with a bounded retry/back-off loop.
    ///
    /// * A free lock whose release time has passed is taken by CAS.
    /// * A free lock released in the acquirer's simulated future backs the
    ///   acquirer off (simulated contention); past [`MAX_RETRIES`] failures
    ///   the clock jumps to the release time so a pathologically lagging
    ///   acquirer converges.
    /// * A held lock that outlasts the whole retry budget yields no token.
    ///
    /// The whole loop is recorded as one [`Phase::Lock`] span whose detail
    /// is the retry count.
    pub fn acquire(&self, client: &DmClient) -> Acquisition {
        let mut retries = 0u64;
        let start = client.now_ns();
        let token = loop {
            // A faulted probe or CAS burns a retry like any lost attempt;
            // the bounded budget below turns a dead lock word (e.g. a
            // fail-stopped node) into a give-up instead of an unbounded
            // spin.
            let observed = client.try_read_u64(self.addr).ok();
            let now = client.now_ns();
            if let Some(free) = observed.filter(|&w| w & LOCKED_BIT == 0 && w <= now) {
                // Free and released in our past: take it.
                let desired = LOCKED_BIT | (now & TS_MASK);
                if client.try_cas(self.addr, free, desired) == Ok(free) {
                    break Some(desired);
                }
            }
            retries += 1;
            // A free word's release time; unknown for a held word or a
            // faulted probe.
            let released = observed.filter(|&w| w & LOCKED_BIT == 0);
            if retries >= MAX_RETRIES {
                match released.filter(|&ts| ts > client.now_ns()) {
                    // Pathological lag against a *free* lock: jump the clock
                    // forward to the release time instead of spinning; the
                    // next failed attempt gives up.
                    Some(ts) => client.advance_ns(ts - client.now_ns()),
                    // Budget burned — a holder outlasted us, or a free word
                    // kept losing (or faulting) its CAS.
                    None => break None,
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
            client.advance_ns(wait);
        };
        client.record_span(Phase::Lock, start, client.now_ns(), retries as u32);
        Acquisition { retries, token }
    }

    /// Releases the lock held with `token`: one CAS from that word to a
    /// free word stamped with the caller's current simulated time, so later
    /// acquirers observe how long the critical section lasted.  The CAS is
    /// retried over transient faults; one that still fails leaves the lock
    /// held — no lease takes it back — and returns the error.
    pub fn release(&self, client: &DmClient, token: u64) -> DmResult<()> {
        let freed = client.now_ns() & TS_MASK;
        let old = client.with_retry(RELEASE_ATTEMPTS, |c| c.try_cas(self.addr, token, freed))?;
        debug_assert_eq!(old, token, "only the holder changes a held lock word");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dm::{DmConfig, MemoryPool};

    fn setup() -> (MemoryPool, RemoteAddr) {
        let pool = MemoryPool::new(DmConfig::small());
        let addr = pool.reserve(8).unwrap();
        (pool, addr)
    }

    /// A holder's long critical section pushes the lock word's release time
    /// to 100 µs of simulated time.
    fn release_late(pool: &MemoryPool, lock: &RemoteLock) {
        let holder = pool.connect();
        let token = lock.acquire(&holder).token.unwrap();
        holder.sleep_us(100);
        lock.release(&holder, token).unwrap();
    }

    #[test]
    fn uncontended_acquire_succeeds_immediately() {
        let (pool, addr) = setup();
        let client = pool.connect();
        let lock = RemoteLock::new(addr, 5_000);
        let acq = lock.acquire(&client);
        assert_eq!(acq.retries, 0);
        let token = acq.token.expect("a free lock is taken");
        assert_eq!(client.read_u64(addr), token);
        assert_ne!(token & LOCKED_BIT, 0);
        lock.release(&client, token).unwrap();
    }

    #[test]
    fn reacquire_after_release() {
        let (pool, addr) = setup();
        let client = pool.connect();
        let lock = RemoteLock::new(addr, 5_000);
        let token = lock.acquire(&client).token.unwrap();
        client.sleep_us(3);
        lock.release(&client, token).unwrap();
        let acq = lock.acquire(&client);
        assert_eq!(acq.retries, 0, "own release time is never in the future");
        lock.release(&client, acq.token.unwrap()).unwrap();
    }

    #[test]
    fn lagging_client_observes_simulated_contention() {
        let (pool, addr) = setup();
        let lock = RemoteLock::new(addr, 5_000);
        release_late(&pool, &lock);

        // A fresh client starts at simulated time 0, so the release lies in
        // its future and it must back off at least once.
        let late = pool.connect();
        let acq = lock.acquire(&late);
        assert!(acq.retries > 0, "expected simulated contention");
        assert!(late.now_ns() >= 100_000, "waited past the release");
        lock.release(&late, acq.token.unwrap()).unwrap();
    }

    #[test]
    fn release_stamps_a_free_word() {
        let (pool, addr) = setup();
        let client = pool.connect();
        let lock = RemoteLock::new(addr, 1_000);
        let token = lock.acquire(&client).token.unwrap();
        client.sleep_us(7);
        let released_at = client.now_ns();
        lock.release(&client, token).unwrap();
        // Lock bit clear, timestamp = the releaser's clock.
        assert_eq!(client.read_u64(addr), released_at);
    }

    #[test]
    fn acquisitions_record_one_lock_span() {
        let pool = MemoryPool::new(DmConfig::small().with_flight_recorder(256));
        let addr = pool.reserve(8).unwrap();
        let lock = RemoteLock::new(addr, 5_000);
        release_late(&pool, &lock);

        let late = pool.connect();
        late.clear_flight_recorder();
        let acq = lock.acquire(&late);
        let spans: Vec<_> = late
            .flight_spans()
            .into_iter()
            .filter(|s| s.phase == Phase::Lock)
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].detail as u64, acq.retries);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (0, late.now_ns()));
        lock.release(&late, acq.token.unwrap()).unwrap();
        // The lock's back-off lands in no slot-CAS counter.
        assert_eq!(pool.stats().contention(), Default::default());
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
                    let lock = RemoteLock::new(lock_addr, 100);
                    for _ in 0..200 {
                        // Under real-thread contention a descheduled holder
                        // can outlast a waiter's whole retry budget (a
                        // give-up, not a bug); this test is about mutual
                        // exclusion, so it tries again.
                        let token = loop {
                            if let Some(token) = lock.acquire(&client).token {
                                break token;
                            }
                        };
                        // At most one thread may be inside the section.
                        assert_eq!(in_section.fetch_add(1, Ordering::SeqCst), 0);
                        let v = client.read_u64(counter_addr);
                        client.write_u64(counter_addr, v + 1);
                        in_section.fetch_sub(1, Ordering::SeqCst);
                        lock.release(&client, token).unwrap();
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
        let lock = RemoteLock::new(addr, 1_000);
        let hold = lock.acquire(&holder).token.unwrap();

        // One probe of the held word, as a fresh client pays it.
        let probe = pool.connect();
        probe.try_read_u64(addr).unwrap();
        let read_ns = probe.now_ns();

        let starved = pool.connect();
        let acq = lock.acquire(&starved);
        assert_eq!(acq.token, None);
        assert_eq!(acq.retries, MAX_RETRIES);
        // Every attempt is one probe and no CAS; a held lock costs eight
        // back-offs per failed attempt, and the last one gives up without
        // waiting.
        assert_eq!(
            starved.now_ns(),
            MAX_RETRIES * read_ns + (MAX_RETRIES - 1) * 8 * 1_000
        );
        assert_eq!(starved.read_u64(addr), hold, "holder keeps the lock");

        // The real holder's release still lands.
        lock.release(&holder, hold).unwrap();
        assert_eq!(holder.read_u64(addr) & LOCKED_BIT, 0);
    }
}
