//! Crash-consistent client failover: crash points and recovery reports.
//!
//! A [`crate::DittoClient`] that dies mid-`set` can leave two kinds of
//! debris behind on the (crash-oblivious) memory nodes:
//!
//! 1. **An in-flight allocation** — object bytes written (or half-written)
//!    but never published into the hash table, or published with the loser
//!    (old) allocation never freed.  Found through the per-client redo
//!    journal ([`crate::DittoConfig::enable_crash_recovery_journal`]) and
//!    reconciled against the table: whichever allocation the table does
//!    *not* reference is garbage.
//! 2. **Orphaned segment space** — allocator segments owned by the dead
//!    client with sub-ranges no table slot points at.  Swept by walking the
//!    node-side owner registry ([`ditto_dm::MemoryNode::owned_segments`])
//!    and returning every unreferenced gap.
//!
//! [`crate::DittoClient::recover_crashed_client`] performs both steps and
//! returns a [`RecoveryReport`].  Crash *injection* for tests goes through
//! [`crate::DittoClient::arm_set_crash`] with a [`CrashPoint`].
//!
//! **Not recovered: a client that dies mid-migration-pump.**  No crash
//! point sits inside a stripe commit.  Were one to fire there, the stripe's
//! claim (its forwarding marker) would stay set, and nothing here could put
//! back the source words its reconcile had poisoned: their values lived
//! only in the dead pass (see `ditto_dm::migration`).

/// Where inside the `set` protocol an armed test crash fires.
///
/// Each point models a client dying immediately *after* the named step —
/// the most adversarial instants for recovery, because each leaves a
/// different combination of journal state and table state behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Right after the object allocation succeeded and the journal armed:
    /// the allocation exists, nothing references it, the object bytes were
    /// never written.
    AfterAlloc,
    /// Right after the object bytes were written (lookup round carrying
    /// the piggybacked WRITE completed), before the publish CAS: the
    /// allocation holds a complete object no table slot points at.  A
    /// hinted `Set` (see the crate docs, *The one-round-trip `Set`*) has no
    /// such instant — its WRITE and its CAS leave behind one doorbell — so
    /// there the point fires only after a misprediction whose WRITE landed,
    /// which leaves exactly this state behind.  Nor has a one-round fill
    /// (the crate docs, *The one-round fill*): its insert CAS leaves behind
    /// its WRITEs, and a lost one is abandoned when the fill is booked, its
    /// object freed.  A client that dies with such a fill posted and not
    /// booked leaves its journal armed: recovery keeps the object if a slot
    /// references it and frees it if not, and frees the victim the fill
    /// carried if no slot references it.
    AfterObjectWrite,
    /// Right after the publish CAS succeeded, before the displaced old
    /// allocation was freed (and before any eviction notify / metadata
    /// write): the *new* allocation is live, the *old* one is the orphan.
    AfterPublish,
}

/// What [`crate::DittoClient::recover_crashed_client`] found and fixed.
///
/// Marked `#[must_use]`: recovery is only meaningful if the caller checks
/// (or at least acknowledges) what was reclaimed — dropping the report
/// silently usually means a test forgot to assert on it.
#[must_use = "recovery results indicate what debris the dead client left; assert on or log them"]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal entries found valid (armed, non-zero new-allocation length)
    /// and replayed against the table.
    pub journal_entries_replayed: u64,
    /// Bytes of the journalled allocations found *unreferenced* by the
    /// table and charged back out of the resident gauge.
    pub recovered_bytes: u64,
    /// Bytes of dead-owned segment space returned to the allocators by the
    /// gap sweep (includes the journalled allocation's bytes when it was
    /// orphaned — the sweep is what actually frees the memory; the journal
    /// replay fixes the accounting).
    pub swept_bytes: u64,
}

impl RecoveryReport {
    /// Total bytes the dead client had leaked before recovery ran.
    pub fn leaked_bytes(&self) -> u64 {
        self.swept_bytes
    }
}
