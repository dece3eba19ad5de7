//! The completion queue (CQ): polled completions of signalled WQEs.
//!
//! Every *signalled* WQE a [`crate::wqe::WorkQueue`] rings out is assigned a
//! completion time and queued here.  [`crate::DmClient::poll_cq`] pops the
//! earliest completion and charges the client clock **time since post**:
//! `max(now, completed_at)` plus the
//! [`poll cost`](crate::DmConfig::CQ_POLL_NS).  A client that did useful CPU
//! work between ringing the doorbell and polling therefore pays only the
//! *remaining* flight time — the mechanism that lets the cache decode the
//! primary bucket while the secondary READ is still on the wire.
//!
//! The queue is a fixed-capacity array ([`CQ_DEPTH`] entries) so the hot
//! path stays allocation-free; the data path keeps at most a handful of
//! signalled WQEs outstanding.  Like a real CQ, overrunning it is a fatal
//! programming error.

use crate::error::{DmError, DmResult};

/// Maximum outstanding signalled completions per client.
pub const CQ_DEPTH: usize = 64;

/// Outcome carried by a [`Completion`].
///
/// Real CQEs carry a status field; assuming success is exactly the bug a
/// fault-injection layer exists to flush out.  Error completions are pushed
/// even for *unsignalled* WQEs (as on real hardware, where errors always
/// generate a CQE), so a pipelined hot path that only signals its final READ
/// still observes a failed rider WRITE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompletionStatus {
    /// The verb completed successfully.
    #[default]
    Success,
    /// The verb completed in error ([`DmError::VerbFailed`]).
    Failed {
        /// Memory node the verb targeted.
        mn_id: u16,
    },
    /// The verb timed out ([`DmError::VerbTimeout`]); its completion time
    /// already includes the retransmission window.
    TimedOut {
        /// Memory node the verb targeted.
        mn_id: u16,
    },
    /// The verb never ran: a WQE ahead of it on the same queue pair, in the
    /// same ring, completed in error, and a reliable connection flushes
    /// every WQE queued behind an errored one (see [`crate::wqe`]).  Not an
    /// injected fault of its own; surfaces as [`DmError::VerbFailed`], which
    /// callers already retry.
    Flushed {
        /// Memory node the verb targeted.
        mn_id: u16,
    },
    /// The verb never left: this client has no queue pair to its node,
    /// which was already decommissioned when the client first saw it
    /// ([`DmError::NodeRemoved`]).  Final — retrying cannot help — and,
    /// like a fault, it flushes the WQEs queued behind it.
    NodeRemoved {
        /// Memory node the verb targeted.
        mn_id: u16,
    },
}

impl CompletionStatus {
    /// Whether the verb completed successfully.
    pub fn is_ok(&self) -> bool {
        matches!(self, CompletionStatus::Success)
    }

    /// Converts the status into a typed verb result.
    pub fn check(&self) -> DmResult<()> {
        match *self {
            CompletionStatus::Success => Ok(()),
            CompletionStatus::Failed { mn_id } | CompletionStatus::Flushed { mn_id } => {
                Err(DmError::VerbFailed { mn_id })
            }
            CompletionStatus::TimedOut { mn_id } => Err(DmError::VerbTimeout { mn_id }),
            CompletionStatus::NodeRemoved { mn_id } => Err(DmError::NodeRemoved { mn_id }),
        }
    }
}

/// A completion-queue entry: the work-request id of a signalled WQE, the
/// simulated time its verb finished, and the verb's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Work-request id returned by the `post_*` call that queued the WQE.
    pub wr_id: u64,
    /// Simulated time at which the verb's round trip completed.
    pub completed_at_ns: u64,
    /// Outcome of the verb ([`CompletionStatus::Success`] unless a
    /// configured [`crate::FaultPlan`] injected a fault).
    pub status: CompletionStatus,
}

/// Fixed-capacity queue of outstanding completions (see the module docs).
#[derive(Debug)]
pub struct CompletionQueue {
    entries: [Option<Completion>; CQ_DEPTH],
    len: usize,
}

impl CompletionQueue {
    /// Creates an empty completion queue.
    pub fn new() -> Self {
        CompletionQueue {
            entries: [None; CQ_DEPTH],
            len: 0,
        }
    }

    /// Number of outstanding completions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no completion is outstanding.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues a completion.
    ///
    /// # Panics
    ///
    /// Panics when more than [`CQ_DEPTH`] completions are outstanding — a CQ
    /// overrun, fatal on real hardware too.  Poll before posting more.
    pub fn push(&mut self, completion: Completion) {
        assert!(
            self.len < CQ_DEPTH,
            "completion queue overrun ({CQ_DEPTH} outstanding completions)"
        );
        self.entries[self.len] = Some(completion);
        self.len += 1;
    }

    /// Pops the earliest completion (ties broken by work-request id, i.e.
    /// posting order), or `None` when the queue is empty.
    pub fn pop_earliest(&mut self) -> Option<Completion> {
        let (idx, _) = self.entries[..self.len]
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (i, c)))
            .min_by_key(|(_, c)| (c.completed_at_ns, c.wr_id))?;
        let completion = self.entries[idx].take();
        self.len -= 1;
        self.entries[idx] = self.entries[self.len].take();
        completion
    }
}

impl Default for CompletionQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(wr_id: u64, at: u64) -> Completion {
        Completion {
            wr_id,
            completed_at_ns: at,
            status: CompletionStatus::Success,
        }
    }

    #[test]
    fn status_converts_to_typed_errors() {
        assert!(CompletionStatus::Success.check().is_ok());
        assert!(CompletionStatus::Success.is_ok());
        assert_eq!(
            CompletionStatus::Failed { mn_id: 3 }.check(),
            Err(DmError::VerbFailed { mn_id: 3 })
        );
        assert_eq!(
            CompletionStatus::TimedOut { mn_id: 5 }.check(),
            Err(DmError::VerbTimeout { mn_id: 5 })
        );
        assert_eq!(
            CompletionStatus::Flushed { mn_id: 2 }.check(),
            Err(DmError::VerbFailed { mn_id: 2 })
        );
        assert_eq!(
            CompletionStatus::NodeRemoved { mn_id: 1 }.check(),
            Err(DmError::NodeRemoved { mn_id: 1 })
        );
        assert!(!CompletionStatus::Failed { mn_id: 0 }.is_ok());
    }

    #[test]
    fn pops_in_completion_time_order() {
        let mut cq = CompletionQueue::new();
        cq.push(c(1, 300));
        cq.push(c(2, 100));
        cq.push(c(3, 200));
        assert_eq!(cq.len(), 3);
        assert_eq!(cq.pop_earliest(), Some(c(2, 100)));
        assert_eq!(cq.pop_earliest(), Some(c(3, 200)));
        assert_eq!(cq.pop_earliest(), Some(c(1, 300)));
        assert_eq!(cq.pop_earliest(), None);
        assert!(cq.is_empty());
    }

    #[test]
    fn ties_break_by_posting_order() {
        let mut cq = CompletionQueue::new();
        cq.push(c(7, 100));
        cq.push(c(3, 100));
        assert_eq!(cq.pop_earliest().unwrap().wr_id, 3);
        assert_eq!(cq.pop_earliest().unwrap().wr_id, 7);
    }

    #[test]
    #[should_panic(expected = "completion queue overrun")]
    fn overrun_is_fatal() {
        let mut cq = CompletionQueue::new();
        for i in 0..=CQ_DEPTH as u64 {
            cq.push(c(i, i));
        }
    }
}
