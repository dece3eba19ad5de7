//! The work an op leaves behind for the client's later ops, in one queue
//! ([`Deferred`]): each entry's completions, what any poll does with them,
//! and the op kinds that must find it settled first are listed once in the
//! crate docs, *What an op leaves behind*.  Four routines serve every entry:
//! `poll_routed` (`round.rs`) routes a completion by its work-request id,
//! [`DittoClient::end_op`] polls up to what the queue still has in flight,
//! [`DittoClient::settle_before`] settles what an op kind must find settled,
//! and [`DittoClient::host_picks`] picks for the evictions whose samples
//! have landed, under the flight of the client's next round.

use super::evict::{picked_victim, Eviction};
use super::publish::PendingInsert;
use super::round::Shape;
use super::DittoClient;
use crate::adaptive::{weight_wire, MAX_EXPERTS};
use ditto_dm::{Phase, PostedRpc};
use std::ops::Range;

/// Where a weight sync's reply lands.
type ReplyBytes = [u8; weight_wire::wire_len(MAX_EXPERTS)];

/// An op kind, as the queue's settle rule tells them apart.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum OpKind {
    /// A `Get` of the key of this hash.
    Get(u64),
    Set,
    Flush,
    Evict,
    Pump,
    Recover,
    /// A forensic scan ([`DittoClient::referenced_object_bytes_on`]).
    Scan,
    Drop,
}

/// The work ops left behind, at most one entry of each kind, inline: the
/// pending fill's insert and the eviction it carried, the eviction parked
/// for the next starved `Set`, the FC flushes the last hinted `Get` carried,
/// and the weight sync's reply.
#[derive(Default)]
pub(super) struct Deferred {
    /// The pending fill's key hash, while its insert or its carried
    /// eviction is queued.
    key: u64,
    pub(super) insert: Option<PendingInsert>,
    pub(super) carried: Option<Eviction>,
    pub(super) parked: Option<Eviction>,
    /// The work-request ids of the FC flushes; their completions, errors
    /// only, are dropped.
    pub(super) riders: Range<u64>,
    /// The reply and the bytes it brings, which the controller wrote when
    /// the RPC was posted.
    pub(super) reply: Option<(PostedRpc, ReplyBytes)>,
}

impl Deferred {
    /// The pending fill's key, if a fill is pending.
    pub(super) fn fill_key(&self) -> Option<u64> {
        (self.insert.is_some() || self.carried.is_some()).then_some(self.key)
    }

    /// Queues a fill of `hash`'s key: its insert, if posted and not booked,
    /// and the eviction it carried.
    pub(super) fn fill(&mut self, hash: u64, insert: Option<PendingInsert>, ev: Option<Eviction>) {
        debug_assert!(self.fill_key().is_none(), "one pending fill");
        (self.key, self.insert, self.carried) = (hash, insert, ev);
    }

    /// The completions still to come: the insert CAS's and every verb the
    /// two evictions have in flight.
    pub(super) fn in_flight(&self) -> usize {
        let unpicked = self.carried.as_ref().filter(|ev| ev.is_sampling());
        let picking = self.parked.iter().chain(unpicked);
        self.awaited() + picking.map(|ev| ev.in_flight).sum::<usize>()
    }

    /// The completions the pending fill's booking waits for: all of its
    /// own but those of a carried eviction still to pick, which waits for
    /// its pick instead.
    pub(super) fn awaited(&self) -> usize {
        let insert = matches!(&self.insert, Some(insert) if !insert.cas_polled);
        let picked = self.carried.as_ref().filter(|ev| !ev.is_sampling());
        usize::from(insert) + picked.map_or(0, |ev| ev.in_flight)
    }

    /// The work-request ids each entry owns.
    pub(super) fn ranges(&self) -> impl Iterator<Item = Range<u64>> + '_ {
        let evictions = self.parked.iter().chain(&self.carried);
        let insert = self.insert.iter().map(|insert| insert.wrs.clone());
        let ranges = evictions.map(|ev| ev.wrs.clone()).chain(insert);
        ranges.chain([self.riders.clone()])
    }

    /// Whether no two entries' id ranges overlap.
    pub(super) fn disjoint(&self) -> bool {
        let overlap = |a: &Range<u64>, b: &Range<u64>| a.start < b.end && b.start < a.end;
        let count = |a: Range<u64>| self.ranges().filter(|b| overlap(&a, b)).count();
        self.ranges().all(|a| count(a) <= 1)
    }
}

impl DittoClient {
    /// Ends an op and records its latency: polls what the op left
    /// outstanding, booking each completion on its owner, up to what the
    /// queue still has in flight, for a later op's polls to meet (a fill's
    /// own op polls none of its round).  A pending fill whose completions the
    /// op's polls met is booked here ([`DittoClient::book_fill`]), by the op
    /// that learnt how it went — but for a carried eviction still to pick,
    /// which a later round picks.
    pub(super) fn end_op(&mut self) {
        while self.dm.outstanding_completions() > self.deferred.in_flight()
            && self.poll_routed(&mut [None, None]).is_some()
        {}
        if self.deferred.awaited() == 0 {
            self.book_fill();
        }
        self.dm.close_op();
    }

    /// Settles what an op of kind `op` must find settled before it begins
    /// (see the crate docs, *What an op leaves behind*).  A `Get` or a `Set`
    /// adopts the weight reply once it has arrived.  A pump polls the queue
    /// empty first: the engine drains this client's completion queue as its
    /// own.  The pending fill is polled until its booking can go ahead and
    /// is booked — by a `Get` only of its own key, which needs just the
    /// insert, and by every other kind whole: a carried eviction still to
    /// pick picks in place.  A `Drop` books none after a crash, which leaves
    /// it to [`DittoClient::recover_crashed_client`], and burns the parked
    /// eviction's history id, which goes into no slot.
    pub(super) fn settle_before(&mut self, op: OpKind) {
        if let OpKind::Get(_) | OpKind::Set = op {
            self.adopt_reply(false);
        }
        if op == OpKind::Pump {
            let _ = self.drain_round(&mut [None, None]);
        }
        let books = match op {
            OpKind::Get(hash) => self.deferred.fill_key() == Some(hash),
            OpKind::Drop => !self.crashed,
            _ => true,
        };
        if books {
            while self.deferred.awaited() > 0 && self.poll_routed(&mut [None, None]).is_some() {}
            self.book_fill();
            if !matches!(op, OpKind::Get(_)) && self.deferred.fill_key().is_some() {
                self.finish_fill();
            }
        }
        if op == OpKind::Drop && self.deferred.parked.is_some() && self.policy.is_adaptive() {
            self.stats.record_history_id_burnt();
        }
    }

    /// Adopts the weight sync's reply, if any, once it has arrived
    /// ([`crate::adaptive::AdaptivePolicy::adopt_weights`]): the global
    /// weights, decayed by the penalties buffered since the post.  `wait` —
    /// the next due sync, or `flush` — first waits out what is left of the
    /// round trip, one [`Phase::Flight`] span.  Returns whether it waited.
    pub(super) fn adopt_reply(&mut self, wait: bool) -> bool {
        let now = self.dm.now_ns();
        let due = |(reply, _): &mut (PostedRpc, ReplyBytes)| wait || reply.arrival_ns <= now;
        let Some((reply, bytes)) = self.deferred.reply.take_if(due) else {
            return false;
        };
        let early = reply.arrival_ns > now;
        if early {
            self.dm.advance_ns(reply.arrival_ns - now);
            self.span_since(Phase::Flight, now, reply.len as u32);
        }
        let mut values = [0.0; MAX_EXPERTS];
        if let Ok(n) = weight_wire::decode(&bytes[..reply.len], &mut values) {
            self.policy.adopt_weights(&values[..n]);
        }
        early
    }

    /// Picks for the queued evictions whose samples have landed, between
    /// the doorbell and the first poll of the client's round, under its
    /// flight (`post_round`, and `search_hinted`'s ring of both READs); each
    /// pick is made on the counts its sample's READ saw.  First the one the
    /// pending fill carries unpicked, from the sample its last re-sample
    /// READ brought: its victim CAS goes out, signalled, on a ring of its own
    /// that the op leaves in flight, and the victim key's board epoch moves,
    /// as the fill would have at its ring; the CAS is booked with the fill.
    /// A sample still short sends the next re-sample the same way.  Then the
    /// parked one, from the first sample its fill left in flight: it picks,
    /// or, the sample short, sends the re-sample it draws ([`Self::park`]).
    /// Returns whether any of it took time.
    pub(super) fn host_picks(&mut self) -> bool {
        let (start, op) = (self.dm.now_ns(), self.dm.op_id());
        if let Some(mut ev) = self.deferred.carried.take_if(|ev| ev.landed(op)) {
            self.pick_carried(&mut ev, false);
            if ev.is_picked() {
                self.post_victim(&mut ev, Shape::Evict, true);
                self.bump_victim_ahead(&mut ev);
            } else {
                self.send_resample(&mut ev);
            }
            self.deferred.carried = Some(ev);
        }
        let first = |ev: &mut Eviction| ev.samples == 1 && ev.deferred && ev.landed(op);
        if let Some(mut ev) = self.deferred.parked.take_if(first) {
            ev.other_victim = ev.other_victim.or(picked_victim(&self.deferred.carried));
            ev.t0 = self.dm.now_ns();
            if self.evict_advance(&mut ev, false).is_none() {
                self.park(ev);
            }
        }
        self.dm.now_ns() > start
    }
}
