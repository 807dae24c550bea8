//! LinkedQ — the first amendment, linked flavour (Section 5.2, Appendix A,
//! Figure 3).
//!
//! LinkedQ also executes a single blocking persist operation per queue
//! operation, but — unlike [`crate::UnlinkedQueue`] — it does persist the
//! `next` links and recovers by walking them from the head. Its key
//! ingredients:
//!
//! * an `initialized` flag in every node tells recovery whether the node's
//!   content is guaranteed valid in NVRAM. The flag is written after the
//!   node's data (same cache line, so Assumption 1 preserves the order), and
//!   nodes are always *allocated* with the flag persistently unset — achieved
//!   without extra fences by piggybacking the clearing flush of a dequeued
//!   node on the fence of the same thread's next successful dequeue;
//! * a **backward link** (`pred`) lets an enqueuer persist exactly the suffix
//!   of nodes that might not be persistent yet (everything before the first
//!   node with a null `pred` is already persistent), then publish the lot
//!   with one fence;
//! * recovery resurrects the path of consecutive `initialized` nodes
//!   reachable from the persisted head.

use crate::api::{DurableQueue, QueueConfig, RecoverableQueue};
use crate::node;
use crate::root::{ROOT_HEAD, ROOT_TAIL};
use obs::rows::CachePadded;
use pmem::{PRef, PmemPool};
use ssmem::{Ssmem, SsmemConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Field offsets within a node (one 64-byte slot).
mod f {
    pub const ITEM: u32 = 0;
    pub const NEXT: u32 = 8;
    pub const PRED: u32 = 16;
    pub const INITIALIZED: u32 = 24;
}

/// The LinkedQ durable queue. See the [module docs](self).
pub struct LinkedQueue {
    pool: Arc<PmemPool>,
    nodes: Ssmem,
    /// Per-thread slot holding the dummy node whose `initialized` flag must
    /// still be persisted (piggybacked on this thread's next successful
    /// dequeue) before the node can be handed back to the allocator.
    node_to_persist_and_retire: Box<[CachePadded<AtomicU64>]>,
    config: QueueConfig,
}

impl LinkedQueue {
    fn ssmem_config(config: &QueueConfig) -> SsmemConfig {
        SsmemConfig {
            obj_size: node::NODE_SIZE,
            area_size: config.area_size,
            max_threads: config.max_threads,
        }
    }

    fn retire_slots(config: &QueueConfig) -> Box<[CachePadded<AtomicU64>]> {
        (0..config.max_threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect()
    }

    /// Flushes the suffix of nodes, ending at `from` and walking backward
    /// links, that is not yet guaranteed persistent (Figure 3, lines 59–63).
    fn flush_not_persisted_suffix(&self, tid: usize, from: PRef) {
        let p = &self.pool;
        let mut cur = from;
        loop {
            p.flush(tid, cur.offset());
            let pred = p.load_u64(cur.offset() + f::PRED);
            if pred == 0 {
                return;
            }
            cur = PRef::from_u64(pred);
        }
    }
}

impl DurableQueue for LinkedQueue {
    fn enqueue(&self, tid: usize, item: u64) {
        crate::instruments::ENQUEUES.incr();
        let p = &self.pool;
        self.nodes.pin(tid);
        let new = self.nodes.alloc(tid);
        p.store_u64(new.offset() + f::ITEM, item);
        p.store_u64(new.offset() + f::NEXT, 0);
        // Written after the data: recovery trusts the node only if this flag
        // reached NVRAM, which (by Assumption 1) implies the data did too.
        p.store_u64(new.offset() + f::INITIALIZED, 1);
        loop {
            let tail = PRef::from_u64(p.load_u64(ROOT_TAIL));
            if p.load_u64(tail.offset() + f::NEXT) == 0 {
                p.store_u64(new.offset() + f::PRED, tail.to_u64());
                if p.cas_u64(tail.offset() + f::NEXT, 0, new.to_u64()).is_ok() {
                    // Persist every node that might not be persistent yet,
                    // then publish with the operation's single fence.
                    self.flush_not_persisted_suffix(tid, new);
                    p.sfence(tid);
                    let _ = p.cas_u64(ROOT_TAIL, tail.to_u64(), new.to_u64());
                    // Everything up to and including `new` is persistent now:
                    // cut the backward chain so later enqueues stop here.
                    p.store_u64(new.offset() + f::PRED, 0);
                    break;
                }
            } else {
                let next = p.load_u64(tail.offset() + f::NEXT);
                let _ = p.cas_u64(ROOT_TAIL, tail.to_u64(), next);
            }
        }
        self.nodes.unpin(tid);
    }

    fn dequeue(&self, tid: usize) -> Option<u64> {
        crate::instruments::DEQUEUES.incr();
        let p = &self.pool;
        self.nodes.pin(tid);
        let result = loop {
            let head = PRef::from_u64(p.load_u64(ROOT_HEAD));
            let head_next = p.load_u64(head.offset() + f::NEXT);
            if head_next == 0 {
                // Persist the head so previous dequeues that emptied the
                // queue are linearized before this failing dequeue.
                p.flush(tid, ROOT_HEAD);
                p.sfence(tid);
                break None;
            }
            if p.cas_u64(ROOT_HEAD, head.to_u64(), head_next).is_ok() {
                let next = PRef::from_u64(head_next);
                let item = p.load_u64(next.offset() + f::ITEM);
                let pending = self.node_to_persist_and_retire[tid].load(Ordering::Relaxed);
                if pending != 0 {
                    // Piggyback the pending initialized-flag clearing on this
                    // operation's fence.
                    p.flush(tid, pending as u32 + f::INITIALIZED);
                }
                p.flush(tid, ROOT_HEAD);
                p.sfence(tid);
                // The new dummy will never need to be walked backwards from:
                // everything before it is persistent.
                p.store_u64(next.offset() + f::PRED, 0);
                if pending != 0 {
                    self.nodes.retire(tid, PRef::from_u64(pending));
                }
                // Clear the old dummy's flag now; its flush rides on this
                // thread's *next* successful dequeue.
                p.store_u64(head.offset() + f::INITIALIZED, 0);
                self.node_to_persist_and_retire[tid].store(head.to_u64(), Ordering::Relaxed);
                break Some(item);
            }
        };
        self.nodes.unpin(tid);
        result
    }

    fn name(&self) -> &'static str {
        "LinkedQ"
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn config(&self) -> QueueConfig {
        self.config
    }
}

impl RecoverableQueue for LinkedQueue {
    const TAG: [u8; 8] = *b"LinkedQ\0";

    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        crate::root::record_tag::<Self>(&pool);
        let nodes = Ssmem::new(Arc::clone(&pool), Self::ssmem_config(&config));
        let dummy = nodes.alloc(0);
        pool.store_u64(dummy.offset() + f::ITEM, 0);
        pool.store_u64(dummy.offset() + f::NEXT, 0);
        pool.store_u64(dummy.offset() + f::PRED, 0);
        pool.store_u64(dummy.offset() + f::INITIALIZED, 1);
        pool.flush(0, dummy.offset());
        pool.store_u64(ROOT_HEAD, dummy.to_u64());
        pool.store_u64(ROOT_TAIL, dummy.to_u64());
        pool.flush(0, ROOT_HEAD);
        pool.flush(0, ROOT_TAIL);
        pool.sfence(0);
        LinkedQueue {
            pool,
            nodes,
            node_to_persist_and_retire: Self::retire_slots(&config),
            config,
        }
    }

    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        let nodes = Ssmem::recover(Arc::clone(&pool), Self::ssmem_config(&config));
        let head = PRef::from_u64(pool.load_u64(ROOT_HEAD));
        let mut live: Vec<PRef> = vec![head];
        let tail;
        if pool.load_u64(head.offset() + f::INITIALIZED) != 1 {
            // The dummy itself was never persisted as initialized: the
            // persistent queue is empty. Reset the dummy (next before
            // initialized, relying on Assumption 1 for crash-during-recovery).
            pool.store_u64(head.offset() + f::NEXT, 0);
            pool.store_u64(head.offset() + f::INITIALIZED, 1);
            pool.flush(0, head.offset());
            tail = head;
        } else {
            // Walk the persisted chain of initialized nodes.
            let mut cur = head;
            loop {
                let next = pool.load_u64(cur.offset() + f::NEXT);
                if next == 0 {
                    tail = cur;
                    break;
                }
                let next = PRef::from_u64(next);
                if live.contains(&next) {
                    // A stale link closing a cycle (possible only under the
                    // eviction adversary): terminate the queue here, durably.
                    pool.store_u64(cur.offset() + f::NEXT, 0);
                    pool.flush(0, cur.offset());
                    tail = cur;
                    break;
                }
                if pool.load_u64(next.offset() + f::INITIALIZED) != 1 {
                    // The successor was linked but its content never became
                    // persistent: terminate the queue here, durably.
                    pool.store_u64(cur.offset() + f::NEXT, 0);
                    pool.flush(0, cur.offset());
                    tail = cur;
                    break;
                }
                live.push(next);
                cur = next;
            }
        }
        // The last node needs no backward link: everything before it is
        // persistent by construction of the recovery.
        pool.store_u64(tail.offset() + f::PRED, 0);
        pool.store_u64(ROOT_TAIL, tail.to_u64());
        pool.flush(0, ROOT_TAIL);

        // Reclaim every other node; those still carrying a set initialized
        // flag are cleared and flushed first so that reallocating them is
        // safe (a single fence at the end covers all these flushes).
        let live_set: HashSet<PRef> = live.iter().copied().collect();
        let mut rr = 0usize;
        nodes.for_each_object(|obj| {
            if !live_set.contains(&obj) {
                if pool.load_u64(obj.offset() + f::INITIALIZED) == 1 {
                    pool.store_u64(obj.offset() + f::INITIALIZED, 0);
                    pool.flush(0, obj.offset() + f::INITIALIZED);
                }
                nodes.free_immediate(rr % config.max_threads, obj);
                rr += 1;
            }
        });
        pool.sfence(0);

        LinkedQueue {
            pool,
            nodes,
            node_to_persist_and_retire: Self::retire_slots(&config),
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn sequential_fifo() {
        testkit::check_sequential_fifo::<LinkedQueue>();
    }

    #[test]
    fn interleaved_matches_model() {
        testkit::check_against_model::<LinkedQueue>(0x71);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        testkit::check_concurrent_integrity::<LinkedQueue>(4, 300);
    }

    #[test]
    fn concurrent_per_producer_fifo_order() {
        testkit::check_concurrent_fifo_per_producer::<LinkedQueue>(2, 2, 300);
    }

    #[test]
    fn recovery_preserves_completed_operations() {
        testkit::check_recovery_preserves_completed_ops::<LinkedQueue>(100, 37);
    }

    #[test]
    fn recovery_of_emptied_queue_is_empty() {
        testkit::check_recovery_of_emptied_queue::<LinkedQueue>();
    }

    #[test]
    fn repeated_crashes_keep_surviving_state() {
        testkit::check_repeated_crashes::<LinkedQueue>(5, 40);
    }

    #[test]
    fn crash_under_concurrency_is_durably_linearizable() {
        testkit::check_crash_during_concurrent_ops::<LinkedQueue>(4, 300, 0x7171);
    }

    #[test]
    fn crash_with_eviction_adversary_is_durably_linearizable() {
        testkit::check_crash_with_evictions::<LinkedQueue>(3, 200, 0x7272);
    }

    #[test]
    fn one_blocking_persist_per_operation() {
        let counts = testkit::persist_counts::<LinkedQueue>(1000);
        assert!(
            (counts.enqueue.fences - 1.0).abs() < 0.05,
            "enqueue fences {}",
            counts.enqueue.fences
        );
        assert!(
            (counts.dequeue.fences - 1.0).abs() < 0.05,
            "dequeue fences {}",
            counts.dequeue.fences
        );
        // Like UnlinkedQ, the first amendment still touches flushed lines.
        assert!(counts.total.post_flush_accesses > 0.5);
    }

    #[test]
    fn backward_links_bound_the_flush_suffix() {
        // In a single-threaded run every enqueue finds its predecessor's
        // backward link already cut after at most one hop, so the suffix walk
        // flushes exactly two nodes (the new node and the previous tail) —
        // crucially independent of the queue length, unlike the naive
        // flush-everything-from-the-head alternative (E10, next test).
        let counts = testkit::persist_counts::<LinkedQueue>(500);
        assert!(
            counts.enqueue.flushes <= 2.05,
            "suffix flushing is not bounded: {}",
            counts.enqueue.flushes
        );
    }

    /// Flushes issued by 64 enqueues on a queue pre-filled to `prefill`.
    fn enqueue_flushes_at<Q: crate::RecoverableQueue>(prefill: u64) -> u64 {
        // One 16 MiB area holds every node of the run, so no measured
        // enqueue carves a fresh area (and flushes its directory entry).
        let cfg = QueueConfig {
            max_threads: 1,
            area_size: 16 << 20,
        };
        let (q, pool) = testkit::fresh_with::<Q>(pmem::PoolConfig::test_with_size(40 << 20), cfg);
        for i in 0..prefill {
            q.enqueue(0, i + 1);
        }
        let before = pool.stats().flushes;
        for i in 0..64 {
            q.enqueue(0, prefill + i + 1);
        }
        pool.stats().flushes - before
    }

    #[test]
    fn enqueue_flushes_do_not_depend_on_the_queue_length() {
        // Experiment E10 as a count: the backward-link scheme flushes only
        // the un-persisted suffix, so an enqueue costs the same flushes on a
        // queue of 10, 1 000 and 100 000 items — for LinkedQ and for
        // OptLinkedQ, which inherits the scheme. A suffix walk that regressed
        // to flushing from the head would grow with the pre-fill.
        fn check<Q: crate::RecoverableQueue>(name: &str) {
            let short = enqueue_flushes_at::<Q>(10);
            assert!(short >= 64, "{name}: {short} flushes over 64 enqueues");
            for prefill in [1_000, 100_000] {
                assert_eq!(
                    enqueue_flushes_at::<Q>(prefill),
                    short,
                    "{name}: flushes per enqueue changed at pre-fill {prefill}"
                );
            }
        }
        check::<LinkedQueue>("LinkedQ");
        check::<crate::OptLinkedQueue>("OptLinkedQ");
    }
}
