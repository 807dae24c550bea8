//! OptUnlinkedQ — the second amendment applied to UnlinkedQ (Section 6.1,
//! Appendix B, Figure 4).
//!
//! OptUnlinkedQ keeps UnlinkedQ's single blocking persist per operation and
//! additionally performs **zero accesses to explicitly flushed cache
//! lines** — the guideline the paper introduces for platforms whose flush
//! instructions invalidate the flushed line. Two changes achieve this:
//!
//! 1. **Split nodes.** Each logical node is split into a `Persistent` object
//!    (item, index, linked — flushed once by the enqueuer, then only ever
//!    read again by a recovery) and a `Volatile` object (item, index, next,
//!    pointer to the `Persistent` — never flushed, used by all normal-path
//!    reads). The queue's head and tail point to `Volatile` objects.
//! 2. **Per-thread head indices written with non-temporal stores.** Instead
//!    of flushing and re-reading a global head index, a dequeuer writes the
//!    index of the new dummy to its own persistent slot with `movnti`
//!    (bypassing the cache) followed by the operation's single fence.
//!    Recovery takes the maximum over all threads.

use crate::api::{DurableQueue, QueueConfig, RecoverableQueue};
use crate::node;
use crate::root;
use obs::rows::CachePadded;
use pmem::{PRef, PmemPool, MAX_THREADS};
use ssmem::{Ssmem, SsmemConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Field offsets within a `Persistent` object (one 64-byte slot).
mod p {
    pub const ITEM: u32 = 0;
    pub const INDEX: u32 = 8;
    pub const LINKED: u32 = 16;
}

/// Field offsets within a `Volatile` object (one 64-byte slot, never flushed).
mod v {
    pub const ITEM: u32 = 0;
    pub const NEXT: u32 = 8;
    pub const INDEX: u32 = 16;
    pub const PERSISTENT: u32 = 24;
}

/// Stride of one thread's persistent local data (just the head index, on its
/// own cache line).
const LOCAL_STRIDE: u32 = 64;

/// The OptUnlinkedQ durable queue. See the [module docs](self).
pub struct OptUnlinkedQueue {
    pool: Arc<PmemPool>,
    /// Durable allocator for `Persistent` objects (scanned by recovery).
    pnodes: Ssmem,
    /// Volatile allocator for `Volatile` objects (invisible to recovery).
    vnodes: Ssmem,
    /// Queue head: a `Volatile` reference. Purely volatile state.
    head: CachePadded<AtomicU64>,
    /// Queue tail: a `Volatile` reference. Purely volatile state.
    tail: CachePadded<AtomicU64>,
    /// Pool offset of the per-thread persistent head-index array.
    local_data: u32,
    /// Per-thread volatile record of the dummy to retire on the next
    /// successful dequeue.
    node_to_retire: Box<[CachePadded<AtomicU64>]>,
    config: QueueConfig,
}

impl OptUnlinkedQueue {
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

    #[inline]
    fn head_index_slot(&self, tid: usize) -> u32 {
        root::local_data_slot(self.local_data, LOCAL_STRIDE, tid)
    }

    /// Allocates and initialises a `Volatile` object.
    fn alloc_volatile(&self, tid: usize, item: u64, index: u64, persistent: PRef) -> PRef {
        let vv = self.vnodes.alloc(tid);
        let o = vv.offset();
        self.pool.store_u64(o + v::ITEM, item);
        self.pool.store_u64(o + v::NEXT, 0);
        self.pool.store_u64(o + v::INDEX, index);
        self.pool.store_u64(o + v::PERSISTENT, persistent.to_u64());
        vv
    }
}

impl DurableQueue for OptUnlinkedQueue {
    fn enqueue(&self, tid: usize, item: u64) {
        crate::instruments::ENQUEUES.incr();
        let pl = &self.pool;
        self.pnodes.pin(tid);
        let pnew = self.pnodes.alloc(tid);
        pl.store_u64(pnew.offset() + p::ITEM, item);
        pl.store_u64(pnew.offset() + p::LINKED, 0);
        let vnew = self.alloc_volatile(tid, item, 0, pnew);
        loop {
            let tail = PRef::from_u64(self.tail.load(Ordering::Acquire));
            let tail_next = pl.load_u64(tail.offset() + v::NEXT);
            if tail_next == 0 {
                let index = pl.load_u64(tail.offset() + v::INDEX) + 1;
                pl.store_u64(pnew.offset() + p::INDEX, index);
                pl.store_u64(vnew.offset() + v::INDEX, index);
                if pl
                    .cas_u64(tail.offset() + v::NEXT, 0, vnew.to_u64())
                    .is_ok()
                {
                    pl.store_u64(pnew.offset() + p::LINKED, 1);
                    // The single blocking persist: the Persistent object is
                    // flushed once and never accessed again outside recovery.
                    pl.flush(tid, pnew.offset());
                    pl.sfence(tid);
                    let _ = self.tail.compare_exchange(
                        tail.to_u64(),
                        vnew.to_u64(),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    break;
                }
            } else {
                let _ = self.tail.compare_exchange(
                    tail.to_u64(),
                    tail_next,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
        self.pnodes.unpin(tid);
    }

    fn dequeue(&self, tid: usize) -> Option<u64> {
        crate::instruments::DEQUEUES.incr();
        let pl = &self.pool;
        self.pnodes.pin(tid);
        let result = loop {
            let head = PRef::from_u64(self.head.load(Ordering::Acquire));
            let head_next = pl.load_u64(head.offset() + v::NEXT);
            if head_next == 0 {
                // Persist the dequeues that emptied the queue through this
                // thread's head-index slot, without touching any flushed line.
                let index = pl.load_u64(head.offset() + v::INDEX);
                pl.nt_store_u64(tid, self.head_index_slot(tid), index);
                pl.sfence(tid);
                break None;
            }
            if self
                .head
                .compare_exchange(
                    head.to_u64(),
                    head_next,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                let next = PRef::from_u64(head_next);
                let item = pl.load_u64(next.offset() + v::ITEM);
                let index = pl.load_u64(next.offset() + v::INDEX);
                // The single blocking persist of the dequeue: a non-temporal
                // write of the per-thread head index plus a fence.
                pl.nt_store_u64(tid, self.head_index_slot(tid), index);
                pl.sfence(tid);
                let previous = self.node_to_retire[tid].swap(head.to_u64(), Ordering::Relaxed);
                if previous != 0 {
                    let prev = PRef::from_u64(previous);
                    let prev_persistent =
                        PRef::from_u64(pl.load_u64(prev.offset() + v::PERSISTENT));
                    self.pnodes.retire(tid, prev_persistent);
                    self.vnodes.retire(tid, prev);
                }
                break Some(item);
            }
        };
        self.pnodes.unpin(tid);
        result
    }

    fn name(&self) -> &'static str {
        "OptUnlinkedQ"
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn config(&self) -> QueueConfig {
        self.config
    }
}

impl RecoverableQueue for OptUnlinkedQueue {
    const TAG: [u8; 8] = *b"OptUnlQ\0";

    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        crate::root::record_tag::<Self>(&pool);
        let pnodes = Ssmem::new(Arc::clone(&pool), Self::ssmem_config(&config));
        let vnodes = Ssmem::new_volatile(
            Arc::clone(&pool),
            Self::ssmem_config(&config),
            Arc::clone(pnodes.epoch()),
        );
        let local_data = root::create_local_data(&pool, LOCAL_STRIDE);
        // The initial dummy: index 0 in both halves; its Persistent object is
        // never resurrected (index 0 is never greater than any head index).
        let pdummy = pnodes.alloc(0);
        pool.store_u64(pdummy.offset() + p::ITEM, 0);
        pool.store_u64(pdummy.offset() + p::INDEX, 0);
        pool.store_u64(pdummy.offset() + p::LINKED, 0);
        let vdummy = vnodes.alloc(0);
        pool.store_u64(vdummy.offset() + v::ITEM, 0);
        pool.store_u64(vdummy.offset() + v::NEXT, 0);
        pool.store_u64(vdummy.offset() + v::INDEX, 0);
        pool.store_u64(vdummy.offset() + v::PERSISTENT, pdummy.to_u64());
        OptUnlinkedQueue {
            pool,
            pnodes,
            vnodes,
            head: CachePadded::new(AtomicU64::new(vdummy.to_u64())),
            tail: CachePadded::new(AtomicU64::new(vdummy.to_u64())),
            local_data,
            node_to_retire: Self::retire_slots(&config),
            config,
        }
    }

    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        let pnodes = Ssmem::recover(Arc::clone(&pool), Self::ssmem_config(&config));
        let vnodes = Ssmem::new_volatile(
            Arc::clone(&pool),
            Self::ssmem_config(&config),
            Arc::clone(pnodes.epoch()),
        );
        let (local_data, stride) = root::read_local_data(&pool);
        assert_eq!(stride, LOCAL_STRIDE);

        // The recovered head index is the maximum of the per-thread indices.
        let head_index = (0..MAX_THREADS)
            .map(|tid| pool.load_u64(root::local_data_slot(local_data, stride, tid)))
            .max()
            .unwrap_or(0);

        // Classify every Persistent slot.
        let mut live: Vec<(u64, PRef)> = Vec::new();
        let mut dead: Vec<PRef> = Vec::new();
        pnodes.for_each_object(|obj| {
            let linked = pool.load_u64(obj.offset() + p::LINKED);
            let index = pool.load_u64(obj.offset() + p::INDEX);
            if linked == 1 && index > head_index {
                live.push((index, obj));
            } else {
                dead.push(obj);
            }
        });
        live.sort_unstable_by_key(|&(index, _)| index);
        for (i, obj) in dead.into_iter().enumerate() {
            pnodes.free_immediate(i % config.max_threads, obj);
        }

        // Rebuild the volatile queue over the resurrected Persistent objects.
        let pdummy = pnodes.alloc(0);
        pool.store_u64(pdummy.offset() + p::ITEM, 0);
        pool.store_u64(pdummy.offset() + p::INDEX, head_index);
        pool.store_u64(pdummy.offset() + p::LINKED, 0);
        let vdummy = vnodes.alloc(0);
        pool.store_u64(vdummy.offset() + v::ITEM, 0);
        pool.store_u64(vdummy.offset() + v::NEXT, 0);
        pool.store_u64(vdummy.offset() + v::INDEX, head_index);
        pool.store_u64(vdummy.offset() + v::PERSISTENT, pdummy.to_u64());

        let mut prev = vdummy;
        for &(index, pobj) in &live {
            let item = pool.load_u64(pobj.offset() + p::ITEM);
            let vobj = vnodes.alloc(0);
            pool.store_u64(vobj.offset() + v::ITEM, item);
            pool.store_u64(vobj.offset() + v::NEXT, 0);
            pool.store_u64(vobj.offset() + v::INDEX, index);
            pool.store_u64(vobj.offset() + v::PERSISTENT, pobj.to_u64());
            pool.store_u64(prev.offset() + v::NEXT, vobj.to_u64());
            prev = vobj;
        }

        OptUnlinkedQueue {
            pool,
            pnodes,
            vnodes,
            head: CachePadded::new(AtomicU64::new(vdummy.to_u64())),
            tail: CachePadded::new(AtomicU64::new(prev.to_u64())),
            local_data,
            node_to_retire: Self::retire_slots(&config),
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    /// Head and tail are written by every enqueue and dequeue: each sits on
    /// its own cache lines, as the pool roots do (see [`crate::root`]).
    #[test]
    fn head_and_tail_sit_on_their_own_cache_lines() {
        let (q, _) = testkit::fresh::<OptUnlinkedQueue>();
        testkit::check_own_cache_lines(
            &[
                testkit::field_lines("head", &q.head),
                testkit::field_lines("tail", &q.tail),
            ],
            &[
                testkit::field_lines("pool", &q.pool),
                testkit::field_lines("pnodes", &q.pnodes),
                testkit::field_lines("vnodes", &q.vnodes),
                testkit::field_lines("local_data", &q.local_data),
                testkit::field_lines("node_to_retire", &q.node_to_retire),
                testkit::field_lines("config", &q.config),
            ],
        );
    }

    #[test]
    fn sequential_fifo() {
        testkit::check_sequential_fifo::<OptUnlinkedQueue>();
    }

    #[test]
    fn interleaved_matches_model() {
        testkit::check_against_model::<OptUnlinkedQueue>(0x91);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        testkit::check_concurrent_integrity::<OptUnlinkedQueue>(4, 300);
    }

    #[test]
    fn concurrent_per_producer_fifo_order() {
        testkit::check_concurrent_fifo_per_producer::<OptUnlinkedQueue>(2, 2, 300);
    }

    #[test]
    fn recovery_preserves_completed_operations() {
        testkit::check_recovery_preserves_completed_ops::<OptUnlinkedQueue>(100, 41);
    }

    #[test]
    fn recovery_of_emptied_queue_is_empty() {
        testkit::check_recovery_of_emptied_queue::<OptUnlinkedQueue>();
    }

    #[test]
    fn repeated_crashes_keep_surviving_state() {
        testkit::check_repeated_crashes::<OptUnlinkedQueue>(5, 40);
    }

    #[test]
    fn crash_under_concurrency_is_durably_linearizable() {
        testkit::check_crash_during_concurrent_ops::<OptUnlinkedQueue>(4, 300, 0x9191);
    }

    #[test]
    fn crash_with_eviction_adversary_is_durably_linearizable() {
        testkit::check_crash_with_evictions::<OptUnlinkedQueue>(3, 200, 0x9292);
    }

    #[test]
    fn optimal_persistence_profile() {
        // The theoretical optimum (Section 2.1): one blocking persist per
        // update operation AND zero accesses to flushed content.
        let counts = testkit::persist_counts::<OptUnlinkedQueue>(1000);
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
        assert!(
            (counts.enqueue.flushes - 1.0).abs() < 0.05,
            "enqueue flushes {}",
            counts.enqueue.flushes
        );
        assert!(
            (counts.dequeue.nt_stores - 1.0).abs() < 0.05,
            "dequeue nt stores {}",
            counts.dequeue.nt_stores
        );
        assert_eq!(
            counts.total.post_flush_accesses, 0.0,
            "OptUnlinkedQ must never touch flushed content"
        );
    }
}
