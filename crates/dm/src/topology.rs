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
//! *active* memory nodes.  A structure is laid out by static striping when
//! it is created: stripe `s` starts on `active[s mod n]`
//! ([`PoolTopology::layout_node`]).  From then on a resize does not re-stripe
//! it; [`PoolTopology::rebalance`] moves the fewest stripes that keep every
//! active node within one stripe of every other, and the online migration
//! (`crate::migration`) carries out those moves:
//!
//! * **`add_node`** — the new node takes ⌊S/(n+1)⌋ of the S stripes, each
//!   from the currently fullest node;
//! * **`drain_node`** — each of the drained node's stripes goes to the
//!   currently emptiest node;
//!
//! ties going to the lowest node id.  Growing 2 → 3 nodes therefore moves a
//! third of the stripes, not the two thirds a modulo re-striping would,
//! half of them pointless swaps between the two old nodes.
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

    /// The creation-time layout: the active node stripe `stripe` of a
    /// structure laid out now starts on, `active[stripe mod n]`.  Once the
    /// structure exists its stripes follow [`Self::rebalance`], not this.
    pub fn layout_node(&self, stripe: u64) -> u16 {
        self.active[(stripe % self.active.len() as u64) as usize]
    }

    /// Reassigns `homes` (the node of every stripe of one structure) to this
    /// topology's active set with the fewest moves that leave every active
    /// node within one stripe of every other: first each stripe on a node
    /// that left the active set goes to the emptiest active node, then,
    /// while the fullest node holds two stripes more than the emptiest, the
    /// fullest hands its highest-indexed stripe to the emptiest.  Ties go to
    /// the lowest node id, so the result is a function of `homes` and the
    /// active set alone.  Returns the number of stripes reassigned.
    ///
    /// From a balanced start an added node takes ⌊S/(n+1)⌋ stripes and a
    /// drain moves exactly the drained node's stripes — the least any
    /// balanced assignment can move.
    pub fn rebalance(&self, homes: &mut [u16]) -> usize {
        let mut counts: Vec<usize> = self
            .active
            .iter()
            .map(|&node| homes.iter().filter(|&&home| home == node).count())
            .collect();
        // The lowest id wins a tie: `min_by_key` keeps the first of equal
        // keys, `max_by_key` the last (hence the reversed scan).
        let emptiest = |counts: &[usize]| (0..counts.len()).min_by_key(|&i| counts[i]);
        let fullest = |counts: &[usize]| (0..counts.len()).rev().max_by_key(|&i| counts[i]);
        let mut moves = 0;
        for home in homes.iter_mut().filter(|home| !self.is_active(**home)) {
            let to = emptiest(&counts).expect("a topology has an active node");
            counts[to] += 1;
            *home = self.active[to];
            moves += 1;
        }
        while let (Some(from), Some(to)) = (fullest(&counts), emptiest(&counts)) {
            if counts[from] <= counts[to] + 1 {
                break;
            }
            let stripe = homes
                .iter()
                .rposition(|&home| home == self.active[from])
                .expect("the fullest node holds a stripe");
            homes[stripe] = self.active[to];
            counts[from] -= 1;
            counts[to] += 1;
            moves += 1;
        }
        moves
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
            assert_eq!(topo.layout_node(s), (s % 4) as u16);
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
        let mut homes = layout(&PoolTopology::new(4), 64);
        let mut topo = PoolTopology::new(4);
        topo.drain_node(1).unwrap();
        topo.rebalance(&mut homes);
        for s in 0..64u64 {
            assert_ne!(topo.layout_node(s), 1);
            assert_ne!(homes[s as usize], 1);
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

    /// The creation-time layout of `stripes` stripes over `topo`.
    fn layout(topo: &PoolTopology, stripes: u64) -> Vec<u16> {
        (0..stripes).map(|s| topo.layout_node(s)).collect()
    }

    #[test]
    fn assignments_match_pointwise_mapping() {
        // A fresh layout is already balanced: rebalancing it moves nothing.
        let topo = PoolTopology::new(3);
        let mut assigned = layout(&topo, 100);
        assert_eq!(topo.rebalance(&mut assigned), 0);
        for (s, &node) in assigned.iter().enumerate() {
            assert_eq!(node, topo.layout_node(s as u64));
        }
    }

    /// One membership change of a rebalance sequence.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Add(u16),
        Drain(u16),
    }

    /// Applies `steps` to a `nodes`-node pool holding `stripes` stripes,
    /// rebalancing after each, and checks every step: the active nodes are
    /// within one stripe of each other, an add moves ⌊S/(n+1)⌋ stripes onto
    /// the new node alone, and a drain moves exactly the drained node's
    /// stripes.  Returns the final assignment.
    fn rebalance_through(nodes: u16, stripes: u64, steps: &[Step]) -> Vec<u16> {
        let mut topo = PoolTopology::new(nodes);
        let mut homes = layout(&topo, stripes);
        for &step in steps {
            let before = homes.clone();
            let n = topo.num_active() as u64;
            let (expected, node) = match step {
                Step::Add(node) => {
                    topo.add_node(node).unwrap();
                    (stripes / (n + 1), node)
                }
                Step::Drain(node) => {
                    topo.drain_node(node).unwrap();
                    (before.iter().filter(|&&h| h == node).count() as u64, node)
                }
            };
            let moves = topo.rebalance(&mut homes);
            let changed: Vec<usize> = (0..homes.len())
                .filter(|&s| homes[s] != before[s])
                .collect();
            let context = format!("{stripes} stripes, {step:?}");
            assert_eq!(moves as u64, expected, "{context}");
            assert_eq!(changed.len(), moves, "{context}");
            for &s in &changed {
                match step {
                    Step::Add(_) => assert_eq!(homes[s], node, "{context}"),
                    Step::Drain(_) => assert_eq!(before[s], node, "{context}"),
                }
            }
            let counts: Vec<usize> = topo
                .active()
                .iter()
                .map(|&node| homes.iter().filter(|&&h| h == node).count())
                .collect();
            assert_eq!(counts.iter().sum::<usize>(), stripes as usize, "{context}");
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "{context}: counts {counts:?}");
            // Balanced already: a second rebalance moves nothing.
            assert_eq!(topo.rebalance(&mut homes), 0, "{context}");
        }
        homes
    }

    #[test]
    fn rebalance_moves_the_fewest_stripes_and_keeps_nodes_within_one() {
        use Step::{Add, Drain};
        let sequences: [(u16, Vec<Step>); 3] = [
            (2, vec![Add(2), Drain(1)]),
            (1, (1..8).map(Add).collect()),
            (4, vec![Drain(0)]),
        ];
        for stripes in [1, 2, 8, 64] {
            for (nodes, steps) in &sequences {
                let homes = rebalance_through(*nodes, stripes, steps);
                // Deterministic: the same sequence lands on the same homes.
                assert_eq!(homes, rebalance_through(*nodes, stripes, steps));
            }
        }
        // Ties go to the lowest node id: the joiner takes stripe 6 from
        // node 0 (both old nodes hold 4), then stripe 7 from node 1; the
        // drained node's stripes 1, 3, 5 go to node 2, node 0 (a tie at 3),
        // then node 2.
        assert_eq!(
            rebalance_through(2, 8, &[Step::Add(2)]),
            [0, 1, 0, 1, 0, 1, 2, 2]
        );
        assert_eq!(
            rebalance_through(2, 8, &[Step::Add(2), Step::Drain(1)]),
            [0, 2, 0, 0, 0, 2, 2, 2]
        );
    }
}
