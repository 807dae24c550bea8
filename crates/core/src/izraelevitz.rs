//! The general-transform baselines: IzraelevitzQ and NVTraverseQ.
//!
//! Izraelevitz, Mendes and Scott (DISC'16) showed that any lock-free
//! linearizable object can be made durably linearizable by persisting every
//! shared-memory access: each store/CAS is followed by a flush and a fence,
//! and each load is followed by a flush (and, in the original transform, a
//! fence) of the loaded location, so that any value an operation depends on
//! is persistent before the operation acts on it. Applied to MSQ this yields
//! the paper's `IzraelevitzQ` baseline.
//!
//! `NVTraverseQ` (Friedman et al., PLDI'20) is evaluated by the paper as an
//! almost identical queue: because MSQ has no traversal phase, the only
//! difference is that NVTraverse does **not** issue a fence after a flush
//! that follows a read or a CAS. Both are implemented here by one generic
//! queue parameterised on that single choice.
//!
//! As in the paper, these transforms execute many more blocking persist
//! operations than the tailor-made queues and access flushed content
//! constantly, which is exactly why they trail every other queue in Figure 2.

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

/// MSQ passed through the Izraelevitz-style transform. The const parameter
/// selects whether a fence is issued after flushes that follow loads and
/// CASes (`true` — IzraelevitzQ) or not (`false` — NVTraverseQ).
pub struct TransformedMsQueue<const FENCE_AFTER_READ_FLUSH: bool> {
    pool: Arc<PmemPool>,
    nodes: Ssmem,
    config: QueueConfig,
}

/// The paper's `IzraelevitzQ` baseline.
pub type IzraelevitzQueue = TransformedMsQueue<true>;

/// The paper's `NVTraverseQ` baseline.
pub type NvTraverseQueue = TransformedMsQueue<false>;

impl<const FENCE_AFTER_READ_FLUSH: bool> TransformedMsQueue<FENCE_AFTER_READ_FLUSH> {
    fn ssmem_config(config: &QueueConfig) -> SsmemConfig {
        SsmemConfig {
            obj_size: node::NODE_SIZE,
            area_size: config.area_size,
            max_threads: config.max_threads,
        }
    }

    /// Persisted load: load, then flush the loaded location (+ fence for the
    /// original transform).
    #[inline]
    fn p_load(&self, tid: usize, off: u32) -> u64 {
        let v = self.pool.load_u64(off);
        self.pool.flush(tid, off);
        if FENCE_AFTER_READ_FLUSH {
            self.pool.sfence(tid);
        }
        v
    }

    /// Persisted store: store, flush, fence.
    #[inline]
    fn p_store(&self, tid: usize, off: u32, val: u64) {
        self.pool.store_u64(off, val);
        self.pool.flush(tid, off);
        self.pool.sfence(tid);
    }

    /// Persisted CAS: CAS, then flush the location (+ fence for the original
    /// transform; a successful CAS is a write, so it is always fenced).
    #[inline]
    fn p_cas(&self, tid: usize, off: u32, cur: u64, new: u64) -> Result<u64, u64> {
        let r = self.pool.cas_u64(off, cur, new);
        self.pool.flush(tid, off);
        if FENCE_AFTER_READ_FLUSH || r.is_ok() {
            self.pool.sfence(tid);
        }
        r
    }
}

impl<const FENCE_AFTER_READ_FLUSH: bool> DurableQueue
    for TransformedMsQueue<FENCE_AFTER_READ_FLUSH>
{
    fn enqueue(&self, tid: usize, item: u64) {
        crate::instruments::ENQUEUES.incr();
        self.nodes.pin(tid);
        let new = self.nodes.alloc(tid);
        self.p_store(tid, new.offset() + f::ITEM, item);
        self.p_store(tid, new.offset() + f::NEXT, 0);
        loop {
            let tail = PRef::from_u64(self.p_load(tid, ROOT_TAIL));
            let tail_next = self.p_load(tid, tail.offset() + f::NEXT);
            if tail.to_u64() != self.p_load(tid, ROOT_TAIL) {
                continue;
            }
            if tail_next == 0 {
                if self
                    .p_cas(tid, tail.offset() + f::NEXT, 0, new.to_u64())
                    .is_ok()
                {
                    let _ = self.p_cas(tid, ROOT_TAIL, tail.to_u64(), new.to_u64());
                    break;
                }
            } else {
                let _ = self.p_cas(tid, ROOT_TAIL, tail.to_u64(), tail_next);
            }
        }
        self.nodes.unpin(tid);
    }

    fn dequeue(&self, tid: usize) -> Option<u64> {
        crate::instruments::DEQUEUES.incr();
        self.nodes.pin(tid);
        let result = loop {
            let head = PRef::from_u64(self.p_load(tid, ROOT_HEAD));
            let next = self.p_load(tid, head.offset() + f::NEXT);
            if next == 0 {
                break None;
            }
            if self.p_cas(tid, ROOT_HEAD, head.to_u64(), next).is_ok() {
                let item = self.p_load(tid, PRef::from_u64(next).offset() + f::ITEM);
                self.nodes.retire(tid, head);
                break Some(item);
            }
        };
        self.nodes.unpin(tid);
        result
    }

    fn name(&self) -> &'static str {
        if FENCE_AFTER_READ_FLUSH {
            "IzraelevitzQ"
        } else {
            "NVTraverseQ"
        }
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn config(&self) -> QueueConfig {
        self.config
    }
}

impl<const FENCE_AFTER_READ_FLUSH: bool> RecoverableQueue
    for TransformedMsQueue<FENCE_AFTER_READ_FLUSH>
{
    const TAG: [u8; 8] = if FENCE_AFTER_READ_FLUSH {
        *b"IzraelQ\0"
    } else {
        *b"NVTravQ\0"
    };

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
        TransformedMsQueue {
            pool,
            nodes,
            config,
        }
    }

    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        // Every shared access is persisted before it is depended upon, so the
        // persisted state is always a consistent MSQ: recover exactly like
        // DurableMSQ, by walking the persisted chain from the persisted head.
        let nodes = Ssmem::recover(Arc::clone(&pool), Self::ssmem_config(&config));
        let head = PRef::from_u64(pool.load_u64(ROOT_HEAD));
        let chain = chain::traverse_chain(&pool, head, f::NEXT, |_| true);
        let last = *chain.last().expect("chain always contains the head");
        pool.store_u64(ROOT_TAIL, last.to_u64());
        pool.flush(0, ROOT_TAIL);
        pool.sfence(0);
        let live: HashSet<PRef> = chain.into_iter().collect();
        chain::reclaim_dead(&nodes, &live, config.max_threads);
        TransformedMsQueue {
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
    fn sequential_fifo_izraelevitz() {
        testkit::check_sequential_fifo::<IzraelevitzQueue>();
    }

    #[test]
    fn sequential_fifo_nvtraverse() {
        testkit::check_sequential_fifo::<NvTraverseQueue>();
    }

    #[test]
    fn interleaved_matches_model() {
        testkit::check_against_model::<IzraelevitzQueue>(0x12);
        testkit::check_against_model::<NvTraverseQueue>(0x13);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        testkit::check_concurrent_integrity::<IzraelevitzQueue>(4, 200);
        testkit::check_concurrent_integrity::<NvTraverseQueue>(4, 200);
    }

    #[test]
    fn recovery_preserves_completed_operations() {
        testkit::check_recovery_preserves_completed_ops::<IzraelevitzQueue>(80, 20);
        testkit::check_recovery_preserves_completed_ops::<NvTraverseQueue>(80, 20);
    }

    #[test]
    fn repeated_crashes_keep_surviving_state() {
        testkit::check_repeated_crashes::<IzraelevitzQueue>(4, 30);
        testkit::check_repeated_crashes::<NvTraverseQueue>(4, 30);
    }

    #[test]
    fn crash_under_concurrency_is_durably_linearizable() {
        testkit::check_crash_during_concurrent_ops::<IzraelevitzQueue>(3, 150, 0x1111);
        testkit::check_crash_during_concurrent_ops::<NvTraverseQueue>(3, 150, 0x2222);
    }

    #[test]
    fn transform_issues_many_more_fences_than_the_tailored_queues() {
        let iz = testkit::persist_counts::<IzraelevitzQueue>(500);
        let nv = testkit::persist_counts::<NvTraverseQueue>(500);
        // The original transform fences on every access; the NVTraverse
        // variant drops read/CAS-failure fences but still fences every write.
        assert!(
            iz.enqueue.fences >= 5.0,
            "IzraelevitzQ enqueue fences {}",
            iz.enqueue.fences
        );
        assert!(
            nv.enqueue.fences >= 3.0,
            "NVTraverseQ enqueue fences {}",
            nv.enqueue.fences
        );
        assert!(iz.enqueue.fences > nv.enqueue.fences);
        assert!(iz.total.post_flush_accesses > 1.0);
    }
}
