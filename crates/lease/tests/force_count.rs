//! The power-fail consume path's cost model, pinned as a count: journal
//! forces per message. With N groups a message costs 3N − 1 — the
//! dispatcher's own `PEND` + `GRANT` share one, every other group pays
//! `PEND` and `GRANT` separately, every group pays its `ACK` — plus two
//! per nack (the `PEND` and the regrant), and nothing under the
//! process-crash tier.
//!
//! `lease.force` is a process-global counter, so this file holds one test
//! and nothing runs beside it.

#![cfg(feature = "instrument")]

use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use lease::{GroupConfig, GroupedQueue};
use pmem::{PmemPool, PoolConfig};
use std::sync::Arc;
use store::SyncPolicy;

const MSGS: u64 = 40;
const NACKED: u64 = 4;

/// Two groups, one thread: `a` dispatches and settles every message, `b`
/// follows; every tenth message is nacked once in `a`. Returns the forces
/// the consume path cost.
fn forces_of_a_scripted_run(sync: SyncPolicy) -> u64 {
    let dir = std::env::temp_dir().join(format!("lease-forces-{sync:?}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
    let base = OptUnlinkedQueue::create(pool, QueueConfig::small_test());
    let config = GroupConfig::new(&dir, ["a", "b"]).with_sync(sync);
    let q = Arc::new(GroupedQueue::create(base, vec![None, None], config).unwrap());
    let (a, b) = (q.group("a").unwrap(), q.group("b").unwrap());
    for item in 1..=MSGS {
        q.enqueue(0, item);
    }
    let before = obs::snapshot().counter("lease.force");
    for item in 1..=MSGS {
        let mut lease = a.dequeue(0).unwrap();
        if item % (MSGS / NACKED) == 0 {
            a.nack(0, &lease).unwrap();
            lease = a.dequeue(0).unwrap();
        }
        assert_eq!(lease.item, item);
        a.ack(&lease).unwrap();
        let lease = b.dequeue(0).unwrap();
        assert_eq!(lease.item, item);
        b.ack(&lease).unwrap();
    }
    assert!(a.dequeue(0).is_none() && b.dequeue(0).is_none());
    let forces = obs::snapshot().counter("lease.force") - before;
    drop((a, b, q));
    std::fs::remove_dir_all(&dir).unwrap();
    forces
}

#[test]
fn a_message_over_two_groups_costs_five_forces_and_a_nack_two_more() {
    assert_eq!(
        forces_of_a_scripted_run(SyncPolicy::PowerFail),
        5 * MSGS + 2 * NACKED
    );
    assert_eq!(forces_of_a_scripted_run(SyncPolicy::ProcessCrash), 0);
}
