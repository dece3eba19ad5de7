//! Decommissioned-node semantics at the verb layer.
//!
//! A queue pair established while a node was alive keeps serving after the
//! node is removed from the pool (the simulated arena stays alive), so
//! auxiliary structures that have not migrated yet drain naturally.  A
//! client whose *first* snapshot already saw the node decommissioned can
//! never establish a queue pair: every verb class fails with the typed
//! [`DmError::NodeRemoved`], attributed to that node in the per-node fault
//! counters — synchronous verbs and posted WQEs alike, since both are
//! issued one way.  A posted one completes
//! [`CompletionStatus::NodeRemoved`], signalled or not, and flushes what is
//! queued behind it on that queue pair.

use ditto_dm::{CompletionStatus, DmClient, DmConfig, DmError, MemoryPool, RemoteAddr};

/// A two-node pool whose node 1 was drained and removed after `veteran`
/// wrote 16 sevens at the returned address on it, and a `fresh` client
/// connected after the removal: `(pool, addr, veteran, fresh)`.
fn removed_node() -> (MemoryPool, RemoteAddr, DmClient, DmClient) {
    let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
    let addr = pool.reserve_on(1, 128).unwrap();

    // Established before the removal: models a live queue pair.
    let veteran = pool.connect();
    veteran.write(addr, &[7u8; 16]);

    pool.drain_node(1).unwrap();
    pool.remove_node(1).unwrap();
    let fresh = pool.connect();
    (pool, addr, veteran, fresh)
}

#[test]
fn removed_node_fails_fresh_clients_typed_and_attributed() {
    let (pool, addr, veteran, fresh) = removed_node();

    // The veteran's cached handle keeps serving the removed node.
    assert_eq!(veteran.read(addr, 16), vec![7u8; 16]);

    // A client connecting after the removal gets the typed rejection from
    // every verb class.
    let failures_before = pool.stats().faults().verb_failures;
    let on_node_before = pool.stats().verb_faults_on(1);
    assert!(matches!(
        fresh.try_read_into(addr, &mut [0u8; 16]),
        Err(DmError::NodeRemoved { mn_id: 1 })
    ));
    assert!(matches!(
        fresh.try_write(addr, &[0u8; 16]),
        Err(DmError::NodeRemoved { mn_id: 1 })
    ));
    assert!(matches!(
        fresh.try_cas(addr, 0, 1),
        Err(DmError::NodeRemoved { mn_id: 1 })
    ));
    assert!(matches!(
        fresh.try_faa(addr, 1),
        Err(DmError::NodeRemoved { mn_id: 1 })
    ));

    // Attribution: all four rejections are counted as verb failures on the
    // removed node and nowhere else.
    assert_eq!(pool.stats().faults().verb_failures, failures_before + 4);
    assert_eq!(pool.stats().verb_faults_on(1), on_node_before + 4);
    assert_eq!(pool.stats().verb_faults_on(0), 0);

    // The rejection did not corrupt the removed node's data, and the
    // surviving node is untouched.
    assert_eq!(veteran.read(addr, 16), vec![7u8; 16]);
    let ok_addr = pool.reserve_on(0, 64).unwrap();
    fresh.write(ok_addr, &[1u8; 8]);
    assert_eq!(fresh.read(ok_addr, 8), vec![1u8; 8]);
}

#[test]
fn posted_verbs_to_a_removed_node_complete_node_removed() {
    let (pool, addr, veteran, fresh) = removed_node();
    let stats = pool.stats();
    let messages = stats.node_snapshots()[1].messages;
    for signalled in [true, false] {
        for verb in 0..4 {
            let failures = stats.verb_faults_on(1);
            let (mut buf, mut old) = ([0u8; 16], 0u64);
            let mut wq = fresh.work_queue();
            let wr = match verb {
                0 => wq.post_read(addr, &mut buf, signalled),
                1 => wq.post_write(addr, &[0u8; 16], signalled),
                2 => wq.post_cas(addr, 0, 1, &mut old, signalled),
                _ => wq.post_faa(addr, 1, signalled),
            };
            wq.ring();
            drop(wq);
            let completion = fresh
                .poll_cq()
                .expect("an error completion, signalled or not");
            let case = format!("verb {verb}, signalled {signalled}");
            assert_eq!(completion.wr_id, wr, "{case}");
            assert_eq!(
                completion.status,
                CompletionStatus::NodeRemoved { mn_id: 1 },
                "{case}"
            );
            assert_eq!(
                completion.status.check(),
                Err(DmError::NodeRemoved { mn_id: 1 }),
                "{case}"
            );
            assert_eq!(fresh.poll_cq(), None, "{case}");
            assert_eq!(stats.verb_faults_on(1), failures + 1, "{case}");
            assert_eq!((buf, old), ([0u8; 16], 0), "{case}: nothing came back");
        }
    }

    // A WQE queued behind the rejected one on that queue pair is flushed: it
    // never left either, and is no failure of its own.
    let failures = stats.verb_faults_on(1);
    let mut wq = fresh.work_queue();
    let wr_first = wq.post_faa(addr, 1, false);
    let wr_behind = wq.post_write(addr, &[0u8; 16], true);
    wq.ring();
    drop(wq);
    let completions: Vec<_> = std::iter::from_fn(|| fresh.poll_cq()).collect();
    assert_eq!(completions.len(), 2);
    assert_eq!(completions[0].wr_id, wr_first);
    assert_eq!(
        completions[0].status,
        CompletionStatus::NodeRemoved { mn_id: 1 }
    );
    assert_eq!(completions[1].wr_id, wr_behind);
    assert_eq!(
        completions[1].status,
        CompletionStatus::Flushed { mn_id: 1 }
    );
    assert_eq!(stats.verb_faults_on(1), failures + 1);

    // No WQE reached the wire, and the veteran's bytes are unchanged.
    assert_eq!(stats.node_snapshots()[1].messages, messages);
    assert_eq!(veteran.read(addr, 16), vec![7u8; 16]);
}
