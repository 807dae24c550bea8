//! The volatile Michael–Scott queue (Section 3.1 of the paper).
//!
//! This is the (non-persistent) lock-free FIFO queue that every durable queue
//! in this crate extends. It issues no flushes and no fences; after a crash
//! its content is simply gone (`recover` returns an empty queue). It serves
//! two purposes: a correctness reference for the concurrent FIFO semantics,
//! and an upper-bound performance baseline showing the cost of durability.

use crate::api::{DurableQueue, QueueConfig, RecoverableQueue};
use crate::node;
use obs::rows::CachePadded;
use pmem::{PRef, PmemPool};
use ssmem::{Ssmem, SsmemConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Field offsets within a queue node (one 64-byte slot).
mod f {
    pub const ITEM: u32 = 0;
    pub const NEXT: u32 = 8;
}

/// The volatile Michael–Scott queue.
pub struct MsQueue {
    pool: Arc<PmemPool>,
    nodes: Ssmem,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    config: QueueConfig,
}

impl MsQueue {
    fn init(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        let nodes = Ssmem::new_volatile(
            Arc::clone(&pool),
            SsmemConfig {
                obj_size: node::NODE_SIZE,
                area_size: config.area_size,
                max_threads: config.max_threads,
            },
            Arc::new(ssmem::EpochManager::new(config.max_threads)),
        );
        let dummy = nodes.alloc(0);
        pool.store_u64(dummy.offset() + f::ITEM, 0);
        pool.store_u64(dummy.offset() + f::NEXT, 0);
        MsQueue {
            pool,
            nodes,
            head: CachePadded::new(AtomicU64::new(dummy.to_u64())),
            tail: CachePadded::new(AtomicU64::new(dummy.to_u64())),
            config,
        }
    }
}

impl DurableQueue for MsQueue {
    fn enqueue(&self, tid: usize, item: u64) {
        crate::instruments::ENQUEUES.incr();
        self.nodes.pin(tid);
        let new = self.nodes.alloc(tid);
        let p = &self.pool;
        p.store_u64(new.offset() + f::ITEM, item);
        p.store_u64(new.offset() + f::NEXT, 0);
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            let tail_ref = PRef::from_u64(tail);
            let tail_next = p.load_u64(tail_ref.offset() + f::NEXT);
            if tail != self.tail.load(Ordering::Acquire) {
                continue;
            }
            if tail_next == 0 {
                if p.cas_u64(tail_ref.offset() + f::NEXT, 0, new.to_u64())
                    .is_ok()
                {
                    let _ = self.tail.compare_exchange(
                        tail,
                        new.to_u64(),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    break;
                }
            } else {
                let _ = self.tail.compare_exchange(
                    tail,
                    tail_next,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
        self.nodes.unpin(tid);
    }

    fn dequeue(&self, tid: usize) -> Option<u64> {
        crate::instruments::DEQUEUES.incr();
        self.nodes.pin(tid);
        let p = &self.pool;
        let result = loop {
            let head = self.head.load(Ordering::Acquire);
            let head_ref = PRef::from_u64(head);
            let next = p.load_u64(head_ref.offset() + f::NEXT);
            if next == 0 {
                break None;
            }
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Reading the item after the CAS is safe because the old
                // dummy (and hence its successor) cannot be reclaimed while
                // this thread is pinned.
                let item = p.load_u64(PRef::from_u64(next).offset() + f::ITEM);
                self.nodes.retire(tid, head_ref);
                break Some(item);
            }
        };
        self.nodes.unpin(tid);
        result
    }

    fn name(&self) -> &'static str {
        "MSQ (volatile)"
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn config(&self) -> QueueConfig {
        self.config
    }

    fn is_durable(&self) -> bool {
        false
    }
}

impl RecoverableQueue for MsQueue {
    const TAG: [u8; 8] = *b"MSQ\0\0\0\0\0";

    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        crate::root::record_tag::<Self>(&pool);
        Self::init(pool, config)
    }

    /// The queue is volatile: recovery produces an empty queue.
    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        Self::init(pool, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    /// Head and tail are written by every enqueue and dequeue: each sits on
    /// its own cache lines, as the durable queues' pool roots do (see
    /// [`crate::root`]).
    #[test]
    fn head_and_tail_sit_on_their_own_cache_lines() {
        let (q, _) = testkit::fresh::<MsQueue>();
        testkit::check_own_cache_lines(
            &[
                testkit::field_lines("head", &q.head),
                testkit::field_lines("tail", &q.tail),
            ],
            &[
                testkit::field_lines("pool", &q.pool),
                testkit::field_lines("nodes", &q.nodes),
                testkit::field_lines("config", &q.config),
            ],
        );
    }

    #[test]
    fn sequential_fifo() {
        testkit::check_sequential_fifo::<MsQueue>();
    }

    #[test]
    fn interleaved_matches_model() {
        testkit::check_against_model::<MsQueue>(0xA1);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        testkit::check_concurrent_integrity::<MsQueue>(4, 500);
    }

    #[test]
    fn concurrent_per_producer_fifo_order() {
        testkit::check_concurrent_fifo_per_producer::<MsQueue>(2, 2, 400);
    }

    #[test]
    fn issues_no_persistence_operations() {
        let (q, pool) = testkit::fresh::<MsQueue>();
        for i in 0..100 {
            q.enqueue(0, i);
        }
        for _ in 0..100 {
            q.dequeue(0);
        }
        let s = pool.stats();
        assert_eq!(s.fences, 0);
        assert_eq!(s.flushes, 0);
        assert_eq!(s.post_flush_accesses, 0);
    }

    #[test]
    fn recover_returns_empty_queue() {
        testkit::check_volatile_recovery_is_empty::<MsQueue>();
    }
}
