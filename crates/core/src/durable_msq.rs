//! DurableMSQ — the state-of-the-art baseline the paper compares against.
//!
//! This is the durable lock-free queue of Friedman, Herlihy, Marathe and
//! Petrank (PPoPP'18) *thinned* exactly as the paper's evaluation does
//! (Section 10): the mechanism for retrieving previously obtained results
//! after a crash is removed, because durable linearizability does not require
//! it and none of the other compared queues provide it. What remains is the
//! persistence discipline that matters for the comparison:
//!
//! * an enqueue flushes + fences the new node *before* linking it, and
//!   flushes + fences the predecessor's `next` link after linking it
//!   (two blocking persist operations per enqueue);
//! * a dequeue flushes + fences the queue head after advancing it
//!   (and on an empty queue, before returning);
//! * flushed locations (the head, the `next` links, the node contents) are
//!   read again by subsequent operations, so the algorithm performs several
//!   accesses to flushed content per operation — the cost the paper's second
//!   amendment eliminates.

use crate::api::{DurableQueue, QueueConfig, RecoverableQueue};
use crate::chain;
use crate::node;
use crate::root::{ROOT_HEAD, ROOT_TAIL};
use pmem::{PRef, PmemPool};
use ssmem::{Ssmem, SsmemConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// Field offsets within a queue node (one 64-byte slot).
mod f {
    pub const ITEM: u32 = 0;
    pub const NEXT: u32 = 8;
}

/// The thinned Friedman et al. durable queue. See the [module docs](self).
pub struct DurableMsQueue {
    pool: Arc<PmemPool>,
    nodes: Ssmem,
    config: QueueConfig,
}

impl DurableMsQueue {
    fn ssmem_config(config: &QueueConfig) -> SsmemConfig {
        SsmemConfig {
            obj_size: node::NODE_SIZE,
            area_size: config.area_size,
            max_threads: config.max_threads,
        }
    }
}

impl DurableQueue for DurableMsQueue {
    fn enqueue(&self, tid: usize, item: u64) {
        crate::instruments::ENQUEUES.incr();
        let p = &self.pool;
        self.nodes.pin(tid);
        let new = self.nodes.alloc(tid);
        p.store_u64(new.offset() + f::ITEM, item);
        p.store_u64(new.offset() + f::NEXT, 0);
        // Persist the node before it can become reachable, so that a
        // persisted link always leads to persisted content.
        p.flush(tid, new.offset());
        p.sfence(tid);
        loop {
            let tail = PRef::from_u64(p.load_u64(ROOT_TAIL));
            let tail_next = p.load_u64(tail.offset() + f::NEXT);
            if tail.to_u64() != p.load_u64(ROOT_TAIL) {
                continue;
            }
            if tail_next == 0 {
                if p.cas_u64(tail.offset() + f::NEXT, 0, new.to_u64()).is_ok() {
                    p.flush(tid, tail.offset() + f::NEXT);
                    p.sfence(tid);
                    let _ = p.cas_u64(ROOT_TAIL, tail.to_u64(), new.to_u64());
                    break;
                }
            } else {
                // Help the obstructing enqueue: persist its link before
                // advancing the tail over it.
                p.flush(tid, tail.offset() + f::NEXT);
                p.sfence(tid);
                let _ = p.cas_u64(ROOT_TAIL, tail.to_u64(), tail_next);
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
            let next = p.load_u64(head.offset() + f::NEXT);
            if next == 0 {
                // Persist the (possibly advanced-by-others) head so that the
                // dequeues that emptied the queue are linearized before this
                // failing dequeue.
                p.flush(tid, ROOT_HEAD);
                p.sfence(tid);
                break None;
            }
            if p.cas_u64(ROOT_HEAD, head.to_u64(), next).is_ok() {
                let item = p.load_u64(PRef::from_u64(next).offset() + f::ITEM);
                p.flush(tid, ROOT_HEAD);
                p.sfence(tid);
                // The head has persistently moved past `head`, so no future
                // recovery can resurrect it: safe to recycle (epoch-deferred).
                self.nodes.retire(tid, head);
                break Some(item);
            }
        };
        self.nodes.unpin(tid);
        result
    }

    fn name(&self) -> &'static str {
        "DurableMSQ"
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn config(&self) -> QueueConfig {
        self.config
    }
}

impl RecoverableQueue for DurableMsQueue {
    const TAG: [u8; 8] = *b"DurMSQ\0\0";

    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        crate::root::record_tag::<Self>(&pool);
        let nodes = Ssmem::new(Arc::clone(&pool), Self::ssmem_config(&config));
        let dummy = nodes.alloc(0);
        pool.store_u64(dummy.offset() + f::ITEM, 0);
        pool.store_u64(dummy.offset() + f::NEXT, 0);
        pool.flush(0, dummy.offset());
        pool.store_u64(ROOT_HEAD, dummy.to_u64());
        pool.store_u64(ROOT_TAIL, dummy.to_u64());
        pool.flush(0, ROOT_HEAD);
        pool.flush(0, ROOT_TAIL);
        pool.sfence(0);
        DurableMsQueue {
            pool,
            nodes,
            config,
        }
    }

    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        let nodes = Ssmem::recover(Arc::clone(&pool), Self::ssmem_config(&config));
        // The persisted head always points at a node whose content was
        // persisted before it became reachable, and every persisted link
        // leads to such a node, so the persisted chain from the head is the
        // recovered queue.
        let head = PRef::from_u64(pool.load_u64(ROOT_HEAD));
        let chain = chain::traverse_chain(&pool, head, f::NEXT, |_| true);
        let last = *chain.last().expect("chain always contains the head");
        // Terminate the chain in the working image (the last persisted link
        // might dangle into a node that was never persisted as linked).
        pool.store_u64(ROOT_TAIL, last.to_u64());
        pool.flush(0, ROOT_TAIL);
        pool.sfence(0);
        let live: HashSet<PRef> = chain.into_iter().collect();
        chain::reclaim_dead(&nodes, &live, config.max_threads);
        DurableMsQueue {
            pool,
            nodes,
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
        testkit::check_sequential_fifo::<DurableMsQueue>();
    }

    #[test]
    fn interleaved_matches_model() {
        testkit::check_against_model::<DurableMsQueue>(0xD0);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        testkit::check_concurrent_integrity::<DurableMsQueue>(4, 300);
    }

    #[test]
    fn concurrent_per_producer_fifo_order() {
        testkit::check_concurrent_fifo_per_producer::<DurableMsQueue>(2, 2, 300);
    }

    #[test]
    fn recovery_preserves_completed_operations() {
        testkit::check_recovery_preserves_completed_ops::<DurableMsQueue>(100, 37);
    }

    #[test]
    fn recovery_of_emptied_queue_is_empty() {
        testkit::check_recovery_of_emptied_queue::<DurableMsQueue>();
    }

    #[test]
    fn repeated_crashes_keep_surviving_state() {
        testkit::check_repeated_crashes::<DurableMsQueue>(5, 40);
    }

    #[test]
    fn crash_under_concurrency_is_durably_linearizable() {
        testkit::check_crash_during_concurrent_ops::<DurableMsQueue>(4, 300, 0xBEEF);
    }

    #[test]
    fn crash_with_eviction_adversary_is_durably_linearizable() {
        testkit::check_crash_with_evictions::<DurableMsQueue>(3, 200, 0xFACE);
    }

    #[test]
    fn per_op_persistence_cost_matches_the_papers_analysis() {
        // Two blocking persists per enqueue, one per successful dequeue, and
        // a non-zero number of post-flush accesses (the weakness the second
        // amendment removes).
        let counts = testkit::persist_counts::<DurableMsQueue>(1000);
        assert!(
            (counts.enqueue.fences - 2.0).abs() < 0.1,
            "enqueue fences {}",
            counts.enqueue.fences
        );
        assert!(
            (counts.dequeue.fences - 1.0).abs() < 0.1,
            "dequeue fences {}",
            counts.dequeue.fences
        );
        assert!(
            counts.total.post_flush_accesses > 0.5,
            "expected post-flush accesses"
        );
    }
}
