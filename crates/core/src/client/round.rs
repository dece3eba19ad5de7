//! The `Set` path as data.  A [`Round`] is one doorbell's verbs as a plain
//! value — each verb's kind and target, its signalled flag and its owner —
//! [`plan_round`] picks a `Set`'s next round from what the op knows, and one
//! executor posts any round ([`DittoClient::post_round`]) and routes its
//! completions to their owners ([`DittoClient::next_completion`]).  Every
//! posted verb of the `Set` path goes through it: the five `Set` shapes and an
//! eviction's own sample and victim CAS.  A step with one verb and nothing to
//! overlap it with — a publish [`DittoClient::slot_cas`], an inline victim
//! CAS, a single sample READ — stays a synchronous verb: posting it would
//! cost a doorbell and a poll.
//!
//! The ordering rules that make the shapes sound are stated once, as
//! [`Rule`]s, and [`check_round`] checks every posted round against them
//! under `debug_assert!`.

use super::evict::{EvictWait, Eviction};
use super::publish::fresh_metadata;
use super::DittoClient;
use crate::config::DittoConfig;
use crate::hashtable::SampleFriendlyHashTable;
use crate::inline::InlineVec;
use crate::slot::{BUCKET_SIZE, OFF_HASH, SLOT_SIZE};
use ditto_dm::{Completion, DmResult, RemoteAddr};

/// Whose verb it is: the op's, its own eviction's — the one a `Set` runs
/// ahead, or an inline one — or that of the parked eviction a `Set` carries.
/// Indexes [`Evictions`] past `Set`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) enum Owner {
    #[default]
    Set,
    Own,
    Carried,
}

/// What follows a won slot CAS, in order: the bump of the key whose word it
/// took out (or the rewrite of the client's own hint) and the free of the
/// allocation it displaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Retire {
    Bump,
    Free,
}

/// An insert displaces no allocation; every other CAS does.
pub(super) const INSERT: &[Retire] = &[Retire::Bump];
pub(super) const DISPLACE: &[Retire] = &[Retire::Bump, Retire::Free];

/// A verb's kind and target.
#[derive(Clone, Copy, Debug)]
pub(super) enum Op {
    /// The `Set`'s object WRITE.
    Write(RemoteAddr),
    /// A fill's metadata WRITE into the insert slot at this address: the key
    /// of this hash, stamped with the time of posting, a frequency of one.
    Meta(RemoteAddr, u64),
    /// A bucket READ into the primary (0) or secondary (1) half of the bucket
    /// scratch.
    Bucket(RemoteAddr, usize),
    /// A sample READ of this many slots, into its eviction's sample bytes
    /// behind that eviction's earlier sample READs in the round.
    Sample(RemoteAddr, usize),
    /// The FAA that acquires an eviction's history id.
    HistoryId(RemoteAddr),
    /// A slot CAS, and what a won one retires.
    Cas {
        addr: RemoteAddr,
        expected: u64,
        new: u64,
        retire: &'static [Retire],
    },
}

impl Default for Op {
    fn default() -> Self {
        Op::Write(RemoteAddr::default())
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Verb {
    pub(super) op: Op,
    pub(super) signalled: bool,
    pub(super) owner: Owner,
}

/// The rounds the planner and the evictions emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Shape {
    /// The hinted replace: the WRITE, unsignalled, and the CAS of the hinted
    /// slot behind it.
    Hinted,
    /// The one-round fill: the WRITE and the insert slot's metadata WRITE,
    /// unsignalled, the insert CAS the memo chose behind them, the carried
    /// victim CAS, the own sample and id.
    Fill,
    /// A fill's first round when its insert slot is off its object's node,
    /// or it has none: the WRITE, signalled, beside the own sample and id.
    Memo,
    /// The lookup: the WRITE, unsignalled, both bucket READs, the own sample
    /// and id.
    LookedUp,
    /// A carried victim CAS, beside a looked-up insert.
    Carry,
    /// An eviction's own round: a sample, or a victim CAS beside an insert.
    Evict,
}

/// What an eviction's riding sample leaves out, and whether it parks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Riding {
    /// The key whose two buckets' slots are never candidates.
    pub(super) key: Option<u64>,
    /// The carried victim's slot, never a candidate either.
    pub(super) victim: Option<RemoteAddr>,
    pub(super) park: bool,
}

/// An eviction's sample waiting to ride a `Set`'s round: its READ segments,
/// the history counter its FAA goes to, and what it leaves out.
pub(super) type RidingSample<'a> = (&'a [(RemoteAddr, usize)], Option<RemoteAddr>, Riding);

/// What a round's rules are judged against besides its verbs.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Context {
    /// The `Set`'s key.
    pub(super) key: Option<u64>,
    /// Of a `Set` that carries a parked eviction, what its rounds know of it.
    pub(super) carried: Option<Carried>,
    /// Whether the `Set` is a fill, right after its key's miss.
    pub(super) fill: bool,
    /// Whether the round flies beside an insert: its own CAS or the
    /// synchronous one after it.
    pub(super) beside_insert: bool,
    /// Of a round that carries the eviction a `Set` runs ahead, its sample.
    pub(super) riding: Option<Riding>,
}

/// What a `Set`'s rounds know of the eviction it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Carried {
    /// Its victim's slot.
    Victim(RemoteAddr),
    /// Its pick is still to make, by a later op: the key whose buckets its
    /// re-sample leaves out.
    Unpicked(Option<u64>),
}

/// What the eviction a `Set` carries sends: its victim CAS, or — its pick
/// still to make, by a later op — the segments of the re-sample it drew,
/// none if it drew none, and the key whose buckets that leaves out.  The
/// one-round fill's ring carries that READ; any other `Set` sends it as it
/// ends.
#[derive(Clone, Copy, Debug)]
pub(super) enum Carry<'a> {
    Victim(Verb),
    Unpicked(&'a [(RemoteAddr, usize)], Option<u64>),
}

impl Carry<'_> {
    /// The same, its re-sample, if any, left to be sent apart: what every
    /// round but the one-round fill's carries.
    pub(super) fn without_resample(self) -> Carry<'static> {
        match self {
            Carry::Victim(verb) => Carry::Victim(verb),
            Carry::Unpicked(_, key) => Carry::Unpicked(&[], key),
        }
    }

    /// What a round's rules know of it.
    fn context(&self) -> Carried {
        match *self {
            Carry::Victim(verb) => {
                let Op::Cas { addr, .. } = verb.op else {
                    unreachable!("a victim goes out by its slot's CAS")
                };
                Carried::Victim(addr)
            }
            Carry::Unpicked(_, key) => Carried::Unpicked(key),
        }
    }
}

/// Verbs a round holds at most: a `Set`'s three, the carried eviction's
/// victim CAS or re-sample, and the own sample's READs — one per stripe a
/// span crosses, at most three, or the scattered-metadata ablation's K —
/// with their history FAA.
const ROUND_VERBS: usize = 3 + 2 * DittoConfig::SAMPLE_SIZE + 1;

/// One doorbell's verbs, in posting order.
#[derive(Clone, Copy, Debug)]
pub(super) struct Round {
    pub(super) shape: Shape,
    pub(super) verbs: InlineVec<Verb, ROUND_VERBS>,
    pub(super) ctx: Context,
    /// Whether its op leaves the round in flight, polling none of it — a
    /// fill's, a parked eviction's re-sample: its flight spans belong to no
    /// op ([`ditto_dm::WorkQueue::ring_left_in_flight`]).
    pub(super) left_in_flight: bool,
}

impl Round {
    pub(super) fn new(shape: Shape, ctx: Context) -> Self {
        let verbs = InlineVec::new();
        let left_in_flight = shape == Shape::Fill;
        Round {
            shape,
            verbs,
            ctx,
            left_in_flight,
        }
    }

    fn push(&mut self, op: Op, signalled: bool, owner: Owner) {
        self.verbs.push(Verb {
            op,
            signalled,
            owner,
        });
    }

    /// Appends the sample READs of `owner`'s eviction and, with its first,
    /// its history FAA.
    pub(super) fn push_sample(
        &mut self,
        segments: &[(RemoteAddr, usize)],
        id: Option<RemoteAddr>,
        owner: Owner,
    ) {
        for &(addr, slots) in segments {
            self.push(Op::Sample(addr, slots), true, owner);
        }
        if let Some(counter) = id {
            self.push(Op::HistoryId(counter), true, owner);
        }
    }
}

/// The ordering rules of the `Set` path.  A round that breaks one is a bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Rule {
    /// A CAS shares a round with the WRITEs it publishes only behind them,
    /// on the same node: the object's, and a fill's metadata WRITE, which
    /// rides ahead of its insert CAS.  One queue pair runs its verbs in
    /// order, and an errored WQE flushes the ones behind it
    /// ([`ditto_dm::wqe`]), so the CAS cannot land unless the bytes it
    /// publishes did — and a won insert carries its key's `hash` from the
    /// instant it lands, for every lookup after the ring to find.
    Flush,
    /// A riding sample — the own eviction's, or the carried one's
    /// re-sample — never takes a slot of the `Set`'s own buckets, nor the
    /// carried victim's: neither the publish CAS nor the carried victim CAS
    /// may meet a victim CAS on one word.  (Both samples then see the
    /// same candidates whichever shape the fill takes, which keeps a striped
    /// cache identical to a single-node one.)
    Sample,
    /// A victim CAS rides beside a publish only when that publish is an
    /// insert.  The two publishes that displace an allocation hold
    /// [`crate::CrashPoint::AfterPublish`], which must not find a victim
    /// taken out of the table and not yet freed.
    AfterPublish,
    /// A CAS that takes a key's word out of its slot bumps the key's board
    /// epoch — or rewrites the client's own hint — before the blocks it
    /// displaced can be freed: while a hint's epoch holds, its word can only
    /// reappear as a live value of the same key (the ABA argument in
    /// [`super::lookup`]).
    BumpBeforeFree,
    /// Only a fill parks its eviction's victim, and a `Set` that carries one
    /// — picked or not — parks its own sample, so each starved `Set` frees
    /// exactly one victim.
    /// A one-round fill parks the eviction with its sample in flight, and
    /// the client's round after the sample landed decodes it and picks
    /// under its own flight; a looked-up fill parks it the same way, its
    /// sample landed and not decoded.  A
    /// first sample too short to pick from has its re-sample sent on a round
    /// of its own, and the `Set` that carries the eviction picks from it —
    /// or, finding it still short, sends the next re-sample (a one-round
    /// fill's ring carries it in place of the victim CAS), and a later op
    /// picks and sends that CAS on a round of its own.
    /// A `Set` with no miss before it, such as a load phase, evicts within
    /// itself: parking there would change what the cache holds after it.
    Park,
}

/// Checks `round` against every [`Rule`].
pub(super) fn check_round(round: &Round) -> Result<(), Rule> {
    let ctx = round.ctx;
    // The WRITEs a `Set`'s CAS publishes: where each is posted, and its node.
    let writes = round
        .verbs
        .iter()
        .enumerate()
        .filter_map(|(w, v)| match v.op {
            Op::Write(addr) | Op::Meta(addr, _) => Some((w, addr.mn_id)),
            _ => None,
        });
    let has_meta = round.verbs.iter().any(|v| matches!(v.op, Op::Meta(..)));
    for (i, verb) in round.verbs.iter().enumerate() {
        let Op::Cas { addr, retire, .. } = verb.op else {
            continue;
        };
        match verb.owner {
            Owner::Set
                if writes.clone().any(|(w, node)| w > i || node != addr.mn_id)
                    || (round.shape == Shape::Fill) != has_meta =>
            {
                return Err(Rule::Flush)
            }
            Owner::Own | Owner::Carried if !ctx.beside_insert => return Err(Rule::AfterPublish),
            _ => {}
        }
        let bump = retire.iter().position(|&step| step == Retire::Bump);
        if retire.contains(&Retire::Free) && bump != Some(0) {
            return Err(Rule::BumpBeforeFree);
        }
    }
    let resamples = round
        .verbs
        .iter()
        .any(|v| v.owner == Owner::Carried && matches!(v.op, Op::Sample(..)));
    if ctx.key.is_some() && resamples && ctx.carried != Some(Carried::Unpicked(ctx.key)) {
        return Err(Rule::Sample);
    }
    if let Some(riding) = ctx.riding {
        let victim = match ctx.carried {
            Some(Carried::Victim(slot)) => Some(slot),
            _ => None,
        };
        if riding.key != ctx.key || riding.victim != victim {
            return Err(Rule::Sample);
        }
        if riding.park != (ctx.fill || ctx.carried.is_some()) {
            return Err(Rule::Park);
        }
    }
    Ok(())
}

/// What the planner knows of a `Set` (or of a `Get`'s lookup).
#[derive(Clone, Copy, Default)]
pub(super) struct Plan<'a> {
    /// The new object and the slot word naming it; `None` for a `Get`.
    pub(super) object: Option<(RemoteAddr, u64)>,
    /// Whether the object's bytes have landed.
    pub(super) written: bool,
    /// Of a fill going by its miss memo: the insert slot it chose and the
    /// word the memo read there — `Some(None)` when it offers none.
    pub(super) memo: Option<Option<(RemoteAddr, u64)>>,
    /// The hinted slot and the hinted word.
    pub(super) hint: Option<(RemoteAddr, u64)>,
    /// The eviction run ahead, while its sample waits to ride.
    pub(super) own: Option<RidingSample<'a>>,
    /// What the carried eviction sends.
    pub(super) carried: Option<Carry<'a>>,
    pub(super) fill: bool,
    pub(super) use_extension: bool,
    pub(super) key: Option<u64>,
    /// The key's two buckets, as translated for this round.
    pub(super) buckets: [RemoteAddr; 2],
}

/// The next round of the op `plan` describes:
///
/// * a fill whose memo's insert slot is on the object's node is one round
///   ([`Shape::Fill`]), carrying every eviction verb the `Set` has — the
///   carried eviction's re-sample among them, should it not have picked
///   (any other shape sends that as the `Set` ends);
/// * else a key with a hint, and no eviction to ride, is replaced in one
///   ([`Shape::Hinted`]) — unless an expert keeps extension words, whose
///   Update rule needs the decoded slot;
/// * else a fill goes by its memo ([`Shape::Memo`]), and anything else looks
///   the key up ([`Shape::LookedUp`]).
pub(super) fn plan_round(plan: &Plan) -> Round {
    let on_node = |slot: RemoteAddr| plan.object.is_some_and(|(obj, _)| obj.mn_id == slot.mn_id);
    let ctx = Context {
        key: plan.key,
        carried: plan.carried.as_ref().map(Carry::context),
        fill: plan.fill,
        beside_insert: false,
        riding: plan.own.map(|own| own.2),
    };
    let (obj, new) = plan.object.unwrap_or_default();
    let publish = |round: &mut Round, (slot, word): (RemoteAddr, u64), retire| {
        round.push(Op::Write(obj), false, Owner::Set);
        if round.shape == Shape::Fill {
            let hash = plan.key.unwrap_or_default();
            round.push(Op::Meta(slot, hash), false, Owner::Set);
        }
        round.push(
            Op::Cas {
                addr: slot,
                expected: word,
                new,
                retire,
            },
            true,
            Owner::Set,
        );
    };
    let mut round = match (plan.memo, plan.hint) {
        (Some(Some(insert)), _) if on_node(insert.0) => {
            let mut round = Round::new(
                Shape::Fill,
                Context {
                    beside_insert: true,
                    ..ctx
                },
            );
            publish(&mut round, insert, INSERT);
            match plan.carried {
                Some(Carry::Victim(verb)) => round.verbs.push(verb),
                Some(Carry::Unpicked(resample, _)) => {
                    round.push_sample(resample, None, Owner::Carried)
                }
                None => {}
            }
            round
        }
        (_, Some(hint)) if plan.own.is_none() && !plan.use_extension && on_node(hint.0) => {
            let mut round = Round::new(Shape::Hinted, ctx);
            publish(&mut round, hint, DISPLACE);
            round
        }
        (Some(_), _) => {
            let mut round = Round::new(Shape::Memo, ctx);
            if !plan.written {
                round.push(Op::Write(obj), true, Owner::Set);
            }
            round
        }
        _ => {
            let mut round = Round::new(Shape::LookedUp, ctx);
            if plan.object.is_some() && !plan.written {
                round.push(Op::Write(obj), false, Owner::Set);
            }
            for (half, bucket) in plan.buckets.into_iter().enumerate() {
                round.push(Op::Bucket(bucket, half), true, Owner::Set);
            }
            round
        }
    };
    if let Some((segments, id, _)) = plan.own {
        round.push_sample(segments, id, Owner::Own);
    }
    round
}

/// The evictions whose verbs a round may carry or find in flight: the op's
/// own, and the one it carries.
pub(super) type Evictions<'e> = [Option<&'e mut Eviction>; 2];

/// `ev` alone, in the place its owner takes.
pub(super) fn alone(ev: &mut Eviction) -> Evictions<'_> {
    match ev.owner {
        Owner::Carried => [None, Some(ev)],
        _ => [Some(ev), None],
    }
}

impl DittoClient {
    /// Posts `round` behind one doorbell per node: its verbs in order, each
    /// into the buffer its op names — the WRITE from `object`, bucket READs
    /// into the bucket scratch, an eviction's sample READs one behind
    /// another into its own sample bytes ([`Eviction::sample`]), its CAS
    /// and FAA results into it too — and books on every eviction in `evs`
    /// the verbs it now has in flight.
    /// A parked eviction whose victim CAS goes out is taken up again here,
    /// and, but in an eviction's own round, the picks the queued evictions
    /// are due run under this one's flight ([`DittoClient::host_picks`]).
    /// Returns the first verb's work-request id — the others follow it one by
    /// one — and the word the `Set`'s own CAS found.
    pub(super) fn post_round(
        &mut self,
        round: &Round,
        object: &[u8],
        evs: &mut Evictions,
    ) -> (u64, u64) {
        debug_assert_eq!(check_round(round), Ok(()), "{round:?}");
        self.rounds_posted[round.shape as usize] += 1;
        let mut now = self.dm.now_ns();
        let mut set_word = 0;
        let mut first = None;
        // A fill's metadata, stamped with the time of posting.
        let meta = round.verbs.iter().find_map(|v| match v.op {
            Op::Meta(_, hash) => Some(fresh_metadata(hash, now)),
            _ => None,
        });
        {
            let [own, carried] = evs.each_mut().map(|ev| match ev.as_deref_mut() {
                Some(ev) => (
                    Some(&mut ev.observed),
                    Some(&mut ev.fetched),
                    &mut ev.sample.0[..],
                ),
                None => (None, None, &mut [][..]),
            });
            let (mut observed, mut fetched) = ([own.0, carried.0], [own.1, carried.1]);
            let mut samples = [own.2, carried.2];
            let (primary, secondary) = self.bucket_buf.split_at_mut(BUCKET_SIZE);
            let mut halves = [Some(primary), Some(secondary)];
            let mut set_word = Some(&mut set_word);
            let mut wq = self.dm.work_queue();
            for verb in round.verbs.iter() {
                let (signalled, ev) = (verb.signalled, (verb.owner as usize).saturating_sub(1));
                let wr = match verb.op {
                    Op::Write(addr) => wq.post_write(addr, object, signalled),
                    Op::Meta(slot, _) => {
                        let meta = meta.as_ref().expect("encoded above");
                        let addr = SampleFriendlyHashTable::hash_addr(slot);
                        wq.post_write(addr, &meta[OFF_HASH as usize..], signalled)
                    }
                    Op::Bucket(addr, half) => {
                        let buf = halves[half].take().expect("one READ per bucket");
                        wq.post_read(addr, buf, signalled)
                    }
                    Op::Sample(addr, slots) => {
                        let (chunk, rest) =
                            std::mem::take(&mut samples[ev]).split_at_mut(slots * SLOT_SIZE);
                        samples[ev] = rest;
                        wq.post_read(addr, chunk, signalled)
                    }
                    Op::HistoryId(addr) => {
                        let out = fetched[ev].take().expect("one FAA per eviction");
                        wq.post_faa_fetch(addr, 1, out, signalled)
                    }
                    Op::Cas {
                        addr,
                        expected,
                        new,
                        ..
                    } => {
                        let out = match verb.owner {
                            Owner::Set => set_word.take(),
                            _ => observed[ev].take(),
                        };
                        // Anything but `expected` until the CAS executes.
                        let out = out.expect("one CAS per owner");
                        *out = !expected;
                        wq.post_cas(addr, expected, new, out, signalled)
                    }
                };
                first.get_or_insert(wr);
            }
            if round.left_in_flight {
                wq.ring_left_in_flight();
            } else {
                wq.ring();
            }
        }
        // An eviction's own round hosts nothing: that eviction's `Evict`
        // span, recorded once it ends, started before the round, and so
        // before any span hosted here.
        if round.shape != Shape::Evict && self.host_picks() {
            // The pick a carried victim CAS goes out for may be the one
            // hosted here: its victim half starts once that work is done.
            now = self.dm.now_ns();
        }
        let first = first.unwrap_or(0);
        for (ev, owner) in evs.iter_mut().zip([Owner::Own, Owner::Carried]) {
            let Some(ev) = ev.as_deref_mut() else {
                continue;
            };
            let mine = round
                .verbs
                .iter()
                .enumerate()
                .filter(|(_, v)| v.owner == owner);
            for (n, (at, verb)) in mine.enumerate() {
                let wr = first + at as u64;
                if n == 0 {
                    (ev.wrs.start, ev.in_flight, ev.failed) = (wr, 0, false);
                }
                (ev.wrs.end, ev.in_flight) = (wr + 1, ev.in_flight + 1);
                match verb.op {
                    Op::Sample(..) => ev.issued = true,
                    Op::HistoryId(_) => (ev.id_counter, ev.id_wr) = (None, Some(wr)),
                    _ if ev.park => {
                        ev.unpark(now);
                        ev.wait = EvictWait::Victim;
                    }
                    _ => ev.wait = EvictWait::Victim,
                }
            }
        }
        (first, set_word)
    }

    /// Polls one completion — `None` once the queue is empty — and routes it
    /// by its work-request id: an eviction's — the op's own, or a queued one
    /// — is booked on the eviction (one fewer in flight; a faulted sample
    /// READ taints its sample, where the FAA and the victim CAS are judged by
    /// what they fetched, which an errored verb never writes), and stamps the
    /// op from which its sample counts as landed ([`Eviction::landed`]); the
    /// pending insert's is booked on it (the WRITEs ahead of its CAS complete
    /// only in error, and then before it); an FC rider's, an error, is
    /// dropped; and the op's own comes back.  Every consumer of the
    /// completion queue polls through here, so none is lost to another's
    /// loop: the queue's id ranges never overlap, and none holds a
    /// completion that comes back.
    pub(super) fn poll_routed(&mut self, evs: &mut Evictions) -> Option<Option<Completion>> {
        let completion = self.dm.poll_cq()?;
        let (wr, landed_op) = (completion.wr_id, self.landed_op());
        let queue = &mut self.deferred;
        debug_assert!(queue.disjoint(), "overlapping queue entries");
        if let Some(insert) = queue.insert.as_mut().filter(|i| i.wrs.contains(&wr)) {
            insert.cas_polled |= wr + 1 == insert.wrs.end;
            return Some(None);
        }
        let queued = queue.parked.iter_mut().chain(queue.carried.iter_mut());
        let mut owners = evs.iter_mut().flatten().map(|ev| &mut **ev).chain(queued);
        if let Some(ev) = owners.find(|ev| ev.in_flight > 0 && ev.wrs.contains(&wr)) {
            ev.in_flight -= 1;
            ev.failed |= !completion.status.is_ok() && ev.id_wr != Some(wr);
            ev.landed_op = landed_op;
            return Some(None);
        }
        let rider = queue.riders.contains(&wr);
        debug_assert!(rider || queue.ranges().all(|r| !r.contains(&wr)));
        Some((!rider).then_some(completion))
    }

    /// The first op in which an eviction's completion polled now counts as
    /// landed ([`Eviction::landed`]): the next op — or, polled by a `Set`,
    /// the one after it.
    fn landed_op(&self) -> u64 {
        let op = self.dm.op_id();
        op + 1 + u64::from(op == self.set_op)
    }

    /// The op's next completion, `None` once the queue is empty; the
    /// evictions' polled on the way are booked on them.
    pub(super) fn next_completion(&mut self, evs: &mut Evictions) -> Option<Completion> {
        loop {
            if let Some(completion) = self.poll_routed(evs)? {
                return Some(completion);
            }
        }
    }

    /// Polls until the queue is empty, routing every completion to its
    /// owner; the first error among the op's own.
    pub(super) fn drain_round(&mut self, evs: &mut Evictions) -> DmResult<()> {
        let mut result = Ok(());
        while let Some(completion) = self.next_completion(evs) {
            result = result.and(completion.status.check());
        }
        result
    }

    /// Polls until every verb `ev` has in flight has completed.  Should the
    /// queue run dry first — somebody else drained it — their outcome is
    /// unknown, and taints the sample.
    pub(super) fn await_eviction(&mut self, ev: &mut Eviction) {
        while ev.in_flight > 0 {
            if self.poll_routed(&mut alone(ev)).is_none() {
                (ev.in_flight, ev.failed, ev.landed_op) = (0, true, self.landed_op());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODE0: u16 = 0;

    fn addr(mn_id: u16, offset: u64) -> RemoteAddr {
        RemoteAddr { mn_id, offset }
    }

    fn victim_cas(slot: RemoteAddr) -> Verb {
        let op = Op::Cas {
            addr: slot,
            expected: 7,
            new: 0,
            retire: DISPLACE,
        };
        Verb {
            op,
            signalled: true,
            owner: Owner::Carried,
        }
    }

    /// Every input the planner can be handed, on pools of one and two nodes:
    /// a carried eviction sends its victim CAS or, not picked yet, its
    /// re-sample of `segments`.
    fn plans(segments: &[(RemoteAddr, usize)]) -> Vec<Plan<'_>> {
        let mut plans = Vec::new();
        for nodes in [1u16, 2] {
            let off = nodes - 1;
            let obj = addr(NODE0, 4096);
            let buckets = [addr(NODE0, 0), addr(off, 320)];
            let memos = [
                None,
                Some(Some((addr(NODE0, 40), 0))),
                Some(Some((addr(off, 360), 0))),
                Some(None),
            ];
            for memo in memos {
                for hint in [None, Some((addr(NODE0, 80), 9)), Some((addr(off, 400), 9))] {
                    for (starved, parked, use_extension, unpicked) in
                        (0..16).map(|b| (b & 1 != 0, b & 2 != 0, b & 4 != 0, b & 8 != 0))
                    {
                        let fill = memo.is_some();
                        if unpicked && !(starved && parked) {
                            continue;
                        }
                        let carried = (starved && parked).then(|| match unpicked {
                            true => Carry::Unpicked(segments, Some(1)),
                            false => Carry::Victim(victim_cas(addr(off, 800))),
                        });
                        let riding = Riding {
                            key: Some(1),
                            victim: (starved && parked && !unpicked).then(|| addr(off, 800)),
                            park: fill || carried.is_some(),
                        };
                        let own = starved.then_some((segments, Some(addr(off, 1 << 20)), riding));
                        plans.push(Plan {
                            object: Some((obj, 5)),
                            written: false,
                            memo,
                            hint,
                            own,
                            carried,
                            fill,
                            use_extension,
                            key: Some(1),
                            buckets,
                        });
                    }
                }
            }
        }
        plans
    }

    #[test]
    fn every_planned_round_passes_the_checker() {
        let segments = [(addr(0, 2048), 10), (addr(1, 0), 5)];
        let plans = plans(&segments);
        assert_eq!(plans.len(), 2 * 4 * 3 * (8 + 2));
        let mut shapes = std::collections::BTreeSet::new();
        for plan in &plans {
            let round = plan_round(plan);
            assert_eq!(check_round(&round), Ok(()), "{round:?}");
            shapes.insert(round.shape as usize);
            // Retrying after a lost front door: the object landed, the hint
            // and the memo's insert slot are spent.
            let retry = Plan {
                written: true,
                hint: None,
                memo: plan.memo.map(|_| None),
                own: None,
                ..*plan
            };
            assert_eq!(check_round(&plan_round(&retry)), Ok(()));
        }
        // The planner's four shapes, all reachable.
        assert_eq!(shapes.len(), 4);
    }

    /// A one-round fill carrying a parked victim and its own sample.
    fn fill() -> Round {
        let segments = [(addr(0, 2048), 15)];
        let carried = victim_cas(addr(0, 800));
        let riding = Riding {
            key: Some(1),
            victim: Some(addr(0, 800)),
            park: true,
        };
        plan_round(&Plan {
            object: Some((addr(0, 4096), 5)),
            memo: Some(Some((addr(0, 40), 0))),
            own: Some((&segments, Some(addr(0, 1 << 20)), riding)),
            carried: Some(Carry::Victim(carried)),
            fill: true,
            key: Some(1),
            ..Plan::default()
        })
    }

    /// `data_path_golden`'s three replays — YCSB-C on one node and on four,
    /// and the YCSB-A mix that replaces through hints — with every round the
    /// client posts checked: `post_round` asserts `check_round` in this
    /// debug build.  Every shape occurs, so none is reachable only in the
    /// enumeration above.
    #[test]
    fn every_shape_occurs_on_real_traffic() {
        use crate::{DittoCache, DittoConfig};
        use ditto_dm::DmConfig;
        use ditto_workloads::{Op as Request, YcsbSpec, YcsbWorkload};
        let spec = YcsbSpec {
            record_count: 2_000,
            request_count: 12_000,
            ..YcsbSpec::default()
        }
        .with_seed(11);
        let replays = [
            (YcsbWorkload::C, DmConfig::default(), 700),
            (
                YcsbWorkload::C,
                DmConfig::default().with_memory_nodes(4),
                350,
            ),
            (YcsbWorkload::A, DmConfig::default(), 3_000),
        ];
        let mut posted = [0u64; 6];
        for (mix, dm, capacity) in replays {
            let config = DittoConfig::with_capacity(capacity);
            let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
            let mut client = cache.client();
            for request in spec.run_requests(mix) {
                let key = request.key_bytes();
                if request.op != Request::Get || client.get(&key).is_none() {
                    client.set(&key, &vec![request.key as u8; request.value_size as usize]);
                }
            }
            for (total, n) in posted.iter_mut().zip(client.rounds_posted) {
                *total += n;
            }
        }
        assert!(posted.iter().all(|&n| n > 0), "{posted:?}");
    }

    #[test]
    fn each_broken_rule_is_named() {
        let round = fill();
        assert_eq!(round.shape, Shape::Fill);
        assert_eq!(check_round(&round), Ok(()));
        let broken = |edit: &dyn Fn(&mut Round)| {
            let mut round = fill();
            edit(&mut round);
            check_round(&round)
        };
        // The insert CAS ahead of the metadata WRITE, then of the object
        // WRITE, then on another node, and a fill without its metadata.
        assert_eq!(broken(&|r| r.verbs.swap(1, 2)), Err(Rule::Flush));
        assert_eq!(broken(&|r| r.verbs[..3].rotate_right(1)), Err(Rule::Flush));
        let off_node = |r: &mut Round| {
            if let Op::Cas { addr, .. } = &mut r.verbs[2].op {
                addr.mn_id = 1;
            }
        };
        assert_eq!(broken(&off_node), Err(Rule::Flush));
        let no_meta = |r: &mut Round| r.verbs[1].op = Op::Write(addr(0, 4096));
        assert_eq!(broken(&no_meta), Err(Rule::Flush));
        // The riding sample left the carried victim's slot, or the key's buckets, in.
        let sample_keeps_victim = |r: &mut Round| r.ctx.riding.as_mut().unwrap().victim = None;
        assert_eq!(broken(&sample_keeps_victim), Err(Rule::Sample));
        assert_eq!(
            broken(&|r| r.ctx.riding.as_mut().unwrap().key = None),
            Err(Rule::Sample)
        );
        // The carried victim CAS beside a publish that displaces.
        assert_eq!(
            broken(&|r| r.ctx.beside_insert = false),
            Err(Rule::AfterPublish)
        );
        // A victim freed before its key's epoch moved.
        let free_first = |r: &mut Round| {
            if let Op::Cas { retire, .. } = &mut r.verbs[3].op {
                *retire = &[Retire::Free, Retire::Bump];
            }
        };
        assert_eq!(broken(&free_first), Err(Rule::BumpBeforeFree));
        // A carrying `Set` that does not park its own sample; a `Set` that
        // neither fills nor carries, and parks.
        assert_eq!(
            broken(&|r| r.ctx.riding.as_mut().unwrap().park = false),
            Err(Rule::Park)
        );
        let parks_alone = |r: &mut Round| {
            r.verbs.swap_remove(3);
            (r.ctx.carried, r.ctx.fill) = (None, false);
            r.ctx.riding.as_mut().unwrap().victim = None;
        };
        assert_eq!(broken(&parks_alone), Err(Rule::Park));
        // A fill whose carried eviction has not picked: its ring carries the
        // re-sample in place of the victim CAS, and that sample leaves the
        // key's buckets out too.
        let segments = [(addr(0, 4096), 15)];
        let mut plan = Plan {
            object: Some((addr(0, 8192), 5)),
            memo: Some(Some((addr(0, 40), 0))),
            carried: Some(Carry::Unpicked(&segments, Some(1))),
            fill: true,
            key: Some(1),
            ..Plan::default()
        };
        let round = plan_round(&plan);
        assert_eq!(round.shape, Shape::Fill);
        assert!(matches!(
            round.verbs[3],
            Verb {
                op: Op::Sample(..),
                owner: Owner::Carried,
                ..
            }
        ));
        assert_eq!(check_round(&round), Ok(()));
        plan.carried = Some(Carry::Unpicked(&segments, None));
        assert_eq!(check_round(&plan_round(&plan)), Err(Rule::Sample));
    }
}
