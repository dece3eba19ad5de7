//! Pool topology: placement of cache structures across memory nodes.
//!
//! Ditto's elasticity claim (§2.2, §5.5) is that both cache capacity *and*
//! aggregate NIC message rate grow with the number of memory nodes.  That
//! only holds if the remote structures are actually spread over the pool:
//! a hash table, history counter and allocator that all sit on MN 0 leave
//! `num_memory_nodes` cosmetic and cap the message rate at one RNIC.
//!
//! [`PoolTopology`] is the placement layer that fixes this.  It maps
//! abstract **stripes** — contiguous bucket ranges of the hash table,
//! history-counter shards, segment-allocation homes — onto the pool's
//! *active* memory nodes by static striping: stripe `s` lives on
//! `active[s mod n]`.  A resize changes that assignment, and the online
//! migration (`crate::migration`) moves the stripes whose home changed.
//!
//! The topology also carries the **resize epoch**: every successful
//! [`PoolTopology::add_node`] / [`PoolTopology::drain_node`] bumps it, and
//! clients validate their cached placement snapshots (allocator homes,
//! active-node lists) against the pool's epoch before relying on them.
//! Draining a node removes it from the *active* set — no new stripes or
//! segments are placed there — while the node itself keeps serving reads
//! of data already resident, which is what makes the shrink window
//! graceful instead of a cliff.

use crate::error::{DmError, DmResult};

/// Maximum number of memory nodes a pool may grow to.
///
/// Bounded by the 48-bit slot pointer encoding of `ditto-core`, which
/// reserves 8 bits for the memory-node id.
pub const MAX_POOL_NODES: usize = 256;

/// The placement map of a memory pool (see the module docs).
///
/// Cheap to clone: clients snapshot it and revalidate the snapshot against
/// the pool's resize epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolTopology {
    /// Active node ids, ascending.  Draining removes a node from this set
    /// without forgetting the node itself.
    active: Vec<u16>,
    epoch: u64,
}

/// One stripe whose assignment differs between where it currently lives and
/// where the topology wants it — the *pending* part of a resize that an
/// online migration (see `ditto_dm::migration`) still has to carry out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeReassignment {
    /// Global stripe index.
    pub stripe: u64,
    /// Node the stripe currently lives on.
    pub from: u16,
    /// Node the topology assigns the stripe to.
    pub to: u16,
}

impl PoolTopology {
    /// Creates a topology over nodes `0..num_nodes`, all active.
    pub fn new(num_nodes: u16) -> Self {
        PoolTopology {
            active: (0..num_nodes.max(1)).collect(),
            epoch: 0,
        }
    }

    /// The active node ids, ascending.
    pub fn active(&self) -> &[u16] {
        &self.active
    }

    /// Number of active nodes.
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// Whether `mn_id` is active (eligible for new placements).
    pub fn is_active(&self, mn_id: u16) -> bool {
        self.active.binary_search(&mn_id).is_ok()
    }

    /// The resize epoch: bumped by every add/drain.  Clients compare their
    /// cached epoch against the pool's before trusting a placement snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The active node that owns stripe `stripe`.
    pub fn node_for_stripe(&self, stripe: u64) -> u16 {
        self.active[(stripe % self.active.len() as u64) as usize]
    }

    /// The active node where an allocation with placement hint `hint`
    /// (typically a key hash or bucket index) should land.
    pub fn alloc_node_for(&self, hint: u64) -> u16 {
        self.node_for_stripe(hint)
    }

    /// The owner of every stripe in `0..num_stripes` (layout helper for
    /// structures that reserve their stripes up front).
    pub fn assignments(&self, num_stripes: u64) -> Vec<u16> {
        (0..num_stripes).map(|s| self.node_for_stripe(s)).collect()
    }

    /// The **pending-assignment view**: every stripe in `0..num_stripes`
    /// whose current placement (as reported by `current`, typically a stripe
    /// directory lookup) differs from this topology's assignment.  These are
    /// the stripes an online bucket-range migration still has to move before
    /// the resize described by this topology is complete.
    pub fn pending_reassignments(
        &self,
        num_stripes: u64,
        mut current: impl FnMut(u64) -> u16,
    ) -> Vec<StripeReassignment> {
        (0..num_stripes)
            .filter_map(|stripe| {
                let from = current(stripe);
                let to = self.node_for_stripe(stripe);
                (from != to).then_some(StripeReassignment { stripe, from, to })
            })
            .collect()
    }

    /// Bumps the resize epoch without a membership change — used to
    /// piggyback **migration cutovers** on the resize epoch, so clients
    /// revalidate their cached placement snapshots after a stripe commits
    /// on its new node.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Activates `mn_id`, rebalancing future placements onto it.
    ///
    /// Returns an error if the node is already active or the pool limit is
    /// reached.
    pub fn add_node(&mut self, mn_id: u16) -> DmResult<()> {
        if self.is_active(mn_id) {
            return Err(DmError::Topology {
                reason: format!("memory node {mn_id} is already active"),
            });
        }
        if self.active.len() >= MAX_POOL_NODES {
            return Err(DmError::Topology {
                reason: format!("pool is limited to {MAX_POOL_NODES} memory nodes"),
            });
        }
        let pos = self.active.partition_point(|&n| n < mn_id);
        self.active.insert(pos, mn_id);
        self.epoch += 1;
        Ok(())
    }

    /// Deactivates `mn_id`: no new stripes or segments are placed there.
    /// Data already resident stays readable; the last active node cannot be
    /// drained.
    pub fn drain_node(&mut self, mn_id: u16) -> DmResult<()> {
        let pos = self
            .active
            .binary_search(&mn_id)
            .map_err(|_| DmError::Topology {
                reason: format!("memory node {mn_id} is not active"),
            })?;
        if self.active.len() == 1 {
            return Err(DmError::Topology {
                reason: "cannot drain the last active memory node".to_string(),
            });
        }
        self.active.remove(pos);
        self.epoch += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_mode_round_robins_over_active_nodes() {
        let topo = PoolTopology::new(4);
        assert_eq!(topo.active(), &[0, 1, 2, 3]);
        for s in 0..32u64 {
            assert_eq!(topo.node_for_stripe(s), (s % 4) as u16);
        }
    }

    #[test]
    fn add_and_drain_bump_the_epoch() {
        let mut topo = PoolTopology::new(2);
        assert_eq!(topo.epoch(), 0);
        topo.add_node(2).unwrap();
        assert_eq!(topo.epoch(), 1);
        assert!(topo.is_active(2));
        topo.drain_node(0).unwrap();
        assert_eq!(topo.epoch(), 2);
        assert!(!topo.is_active(0));
        assert_eq!(topo.active(), &[1, 2]);
    }

    #[test]
    fn drained_nodes_receive_no_new_stripes() {
        let mut topo = PoolTopology::new(4);
        topo.drain_node(1).unwrap();
        for s in 0..64u64 {
            assert_ne!(topo.node_for_stripe(s), 1);
        }
    }

    #[test]
    fn invalid_membership_changes_are_rejected() {
        let mut topo = PoolTopology::new(2);
        assert!(matches!(topo.add_node(0), Err(DmError::Topology { .. })));
        assert!(matches!(topo.drain_node(7), Err(DmError::Topology { .. })));
        topo.drain_node(1).unwrap();
        assert!(matches!(topo.drain_node(0), Err(DmError::Topology { .. })));
    }

    #[test]
    fn node_limit_is_enforced() {
        let mut topo = PoolTopology::new(u16::try_from(MAX_POOL_NODES).unwrap());
        assert!(matches!(
            topo.add_node(MAX_POOL_NODES as u16),
            Err(DmError::Topology { .. })
        ));
    }

    #[test]
    fn assignments_match_pointwise_mapping() {
        let topo = PoolTopology::new(3);
        let assigned = topo.assignments(100);
        for (s, &node) in assigned.iter().enumerate() {
            assert_eq!(node, topo.node_for_stripe(s as u64));
        }
    }
}
