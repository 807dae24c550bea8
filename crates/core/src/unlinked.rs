//! UnlinkedQ — the first amendment, unlinked flavour (Section 5.1, Figure 1).
//!
//! UnlinkedQ executes exactly **one blocking persist operation (flush +
//! SFENCE) per operation**, meeting the Cohen et al. lower bound. It does not
//! rely on the `next` links for recovery and therefore never persists them:
//! all the information recovery needs lives in the nodes themselves, which
//! are allocated from the designated areas that the ssmem directory records.
//!
//! * Every node carries an `index` (its enqueue position) and a `linked`
//!   flag. An enqueuer links the node, sets `linked`, and persists the node —
//!   one fence.
//! * The queue head packs the dummy pointer and the head index into one
//!   atomic word updated by a double-width CAS; a dequeuer advances it and
//!   persists the head's cache line — one fence. A failing dequeue persists
//!   the head too, so the dequeues that emptied the queue are linearized
//!   before it.
//! * Recovery resurrects every node in the designated areas whose `linked`
//!   flag is set and whose index exceeds the persisted head index, and chains
//!   them in index order. Pending enqueues may be discarded (Observation 1),
//!   and the dequeued prefix is exactly the indices at or below the head
//!   index (Observation 2).
//!
//! What UnlinkedQ does *not* avoid — and what the second amendment
//! ([`crate::OptUnlinkedQueue`]) fixes — is reading flushed content: the head
//! line is flushed by every dequeue and re-read by the next one, and a node's
//! line is flushed by its enqueuer and later re-read (its `index` by the next
//! enqueuer, its `item` by its dequeuer).

use crate::api::{DurableQueue, QueueConfig, RecoverableQueue};
use crate::node;
use crate::root::{ROOT_HEAD, ROOT_TAIL};
use obs::rows::CachePadded;
use pmem::{PRef, PmemPool};
use ssmem::{Ssmem, SsmemConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Field offsets within a node (one 64-byte slot).
mod f {
    pub const ITEM: u32 = 0;
    pub const NEXT: u32 = 8;
    pub const LINKED: u32 = 16;
    pub const INDEX: u32 = 24;
}

/// Packs a node reference and the head index into the double-width head word.
#[inline]
fn pack_head(ptr: PRef, index: u64) -> u64 {
    debug_assert!(
        index <= u32::MAX as u64,
        "head index exceeds the packed 32-bit range"
    );
    (index << 32) | ptr.to_u64()
}

/// Unpacks the head word into `(dummy pointer, head index)`.
#[inline]
fn unpack_head(word: u64) -> (PRef, u64) {
    (PRef::from_u64(word & 0xFFFF_FFFF), word >> 32)
}

/// The UnlinkedQ durable queue. See the [module docs](self).
pub struct UnlinkedQueue {
    pool: Arc<PmemPool>,
    nodes: Ssmem,
    /// Per-thread record of the dummy node this thread most recently
    /// replaced, to be retired by its next successful dequeue (volatile,
    /// exactly like the paper's `nodeToRetire` array).
    node_to_retire: Box<[CachePadded<AtomicU64>]>,
    config: QueueConfig,
}

impl UnlinkedQueue {
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
}

impl DurableQueue for UnlinkedQueue {
    fn enqueue(&self, tid: usize, item: u64) {
        crate::instruments::ENQUEUES.incr();
        let p = &self.pool;
        self.nodes.pin(tid);
        let new = self.nodes.alloc(tid);
        p.store_u64(new.offset() + f::ITEM, item);
        p.store_u64(new.offset() + f::NEXT, 0);
        // `linked` is cleared before `index` is written so that a recycled
        // node can never look like a valid queue node with a fresh index
        // before it is actually linked (Assumption 1 preserves this order
        // within the node's single cache line).
        p.store_u64(new.offset() + f::LINKED, 0);
        loop {
            let tail = PRef::from_u64(p.load_u64(ROOT_TAIL));
            if p.load_u64(tail.offset() + f::NEXT) == 0 {
                let index = p.load_u64(tail.offset() + f::INDEX) + 1;
                p.store_u64(new.offset() + f::INDEX, index);
                if p.cas_u64(tail.offset() + f::NEXT, 0, new.to_u64()).is_ok() {
                    p.store_u64(new.offset() + f::LINKED, 1);
                    // The single blocking persist of the enqueue.
                    p.flush(tid, new.offset());
                    p.sfence(tid);
                    let _ = p.cas_u64(ROOT_TAIL, tail.to_u64(), new.to_u64());
                    break;
                }
            } else {
                // Help the obstructing enqueue advance the tail.
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
            let head_word = p.load_u64(ROOT_HEAD);
            let (head_ptr, _head_index) = unpack_head(head_word);
            let head_next = p.load_u64(head_ptr.offset() + f::NEXT);
            if head_next == 0 {
                // Failing dequeue: persist the head index so the dequeues
                // that emptied the queue are linearized before this one.
                p.flush(tid, ROOT_HEAD);
                p.sfence(tid);
                break None;
            }
            let next = PRef::from_u64(head_next);
            let next_index = p.load_u64(next.offset() + f::INDEX);
            // Double-width CAS: advance the pointer and the index together.
            if p.cas_u64(ROOT_HEAD, head_word, pack_head(next, next_index))
                .is_ok()
            {
                let item = p.load_u64(next.offset() + f::ITEM);
                // The single blocking persist of the dequeue.
                p.flush(tid, ROOT_HEAD);
                p.sfence(tid);
                let previous = self.node_to_retire[tid].swap(head_ptr.to_u64(), Ordering::Relaxed);
                if previous != 0 {
                    self.nodes.retire(tid, PRef::from_u64(previous));
                }
                break Some(item);
            }
        };
        self.nodes.unpin(tid);
        result
    }

    fn name(&self) -> &'static str {
        "UnlinkedQ"
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn config(&self) -> QueueConfig {
        self.config
    }
}

impl RecoverableQueue for UnlinkedQueue {
    const TAG: [u8; 8] = *b"UnlinkQ\0";

    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        crate::root::record_tag::<Self>(&pool);
        let nodes = Ssmem::new(Arc::clone(&pool), Self::ssmem_config(&config));
        let dummy = nodes.alloc(0);
        pool.store_u64(dummy.offset() + f::ITEM, 0);
        pool.store_u64(dummy.offset() + f::NEXT, 0);
        pool.store_u64(dummy.offset() + f::LINKED, 0);
        pool.store_u64(dummy.offset() + f::INDEX, 0);
        pool.flush(0, dummy.offset());
        pool.store_u64(ROOT_HEAD, pack_head(dummy, 0));
        pool.store_u64(ROOT_TAIL, dummy.to_u64());
        pool.flush(0, ROOT_HEAD);
        pool.flush(0, ROOT_TAIL);
        pool.sfence(0);
        UnlinkedQueue {
            pool,
            nodes,
            node_to_retire: Self::retire_slots(&config),
            config,
        }
    }

    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        let nodes = Ssmem::recover(Arc::clone(&pool), Self::ssmem_config(&config));
        // The head index is restored from the persisted head word itself,
        // never from the node it points to (whose content might be stale).
        let (_stale_ptr, head_index) = unpack_head(pool.load_u64(ROOT_HEAD));

        // Classify every node slot in the designated areas.
        let mut live: Vec<(u64, PRef)> = Vec::new();
        let mut dead: Vec<PRef> = Vec::new();
        nodes.for_each_object(|obj| {
            let linked = pool.load_u64(obj.offset() + f::LINKED);
            let index = pool.load_u64(obj.offset() + f::INDEX);
            if linked == 1 && index > head_index {
                live.push((index, obj));
            } else {
                dead.push(obj);
            }
        });
        live.sort_unstable_by_key(|&(index, _)| index);

        // Dead slots go back to the free lists (their persisted index/linked
        // state keeps them invisible to any future recovery).
        for (i, obj) in dead.into_iter().enumerate() {
            nodes.free_immediate(i % config.max_threads, obj);
        }

        // A fresh dummy carries the recovered head index.
        let dummy = nodes.alloc(0);
        pool.store_u64(dummy.offset() + f::ITEM, 0);
        pool.store_u64(dummy.offset() + f::LINKED, 0);
        pool.store_u64(dummy.offset() + f::INDEX, head_index);
        pool.store_u64(
            dummy.offset() + f::NEXT,
            live.first().map_or(0, |&(_, n)| n.to_u64()),
        );
        pool.flush(0, dummy.offset());

        // Chain the resurrected nodes in index order (indices need not be
        // consecutive: pending enqueues may have been discarded).
        for pair in live.windows(2) {
            pool.store_u64(pair[0].1.offset() + f::NEXT, pair[1].1.to_u64());
        }
        if let Some(&(_, last)) = live.last() {
            pool.store_u64(last.offset() + f::NEXT, 0);
        }
        let tail = live.last().map_or(dummy, |&(_, n)| n);

        pool.store_u64(ROOT_HEAD, pack_head(dummy, head_index));
        pool.store_u64(ROOT_TAIL, tail.to_u64());
        pool.flush(0, ROOT_HEAD);
        pool.flush(0, ROOT_TAIL);
        pool.sfence(0);

        UnlinkedQueue {
            pool,
            nodes,
            node_to_retire: Self::retire_slots(&config),
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn head_word_packing_roundtrip() {
        let ptr = PRef::from_offset(0xABCD40);
        let (p, i) = unpack_head(pack_head(ptr, 123456));
        assert_eq!(p, ptr);
        assert_eq!(i, 123456);
        assert_eq!(unpack_head(pack_head(PRef::NULL, 0)), (PRef::NULL, 0));
    }

    #[test]
    fn sequential_fifo() {
        testkit::check_sequential_fifo::<UnlinkedQueue>();
    }

    #[test]
    fn interleaved_matches_model() {
        testkit::check_against_model::<UnlinkedQueue>(0x51);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        testkit::check_concurrent_integrity::<UnlinkedQueue>(4, 300);
    }

    #[test]
    fn concurrent_per_producer_fifo_order() {
        testkit::check_concurrent_fifo_per_producer::<UnlinkedQueue>(2, 2, 300);
    }

    #[test]
    fn recovery_preserves_completed_operations() {
        testkit::check_recovery_preserves_completed_ops::<UnlinkedQueue>(100, 41);
    }

    #[test]
    fn recovery_of_emptied_queue_is_empty() {
        testkit::check_recovery_of_emptied_queue::<UnlinkedQueue>();
    }

    #[test]
    fn repeated_crashes_keep_surviving_state() {
        testkit::check_repeated_crashes::<UnlinkedQueue>(5, 40);
    }

    #[test]
    fn crash_under_concurrency_is_durably_linearizable() {
        testkit::check_crash_during_concurrent_ops::<UnlinkedQueue>(4, 300, 0x5151);
    }

    #[test]
    fn crash_with_eviction_adversary_is_durably_linearizable() {
        testkit::check_crash_with_evictions::<UnlinkedQueue>(3, 200, 0x5252);
    }

    #[test]
    fn one_blocking_persist_per_operation_but_nonzero_post_flush_accesses() {
        let counts = testkit::persist_counts::<UnlinkedQueue>(1000);
        // The theoretical lower bound: a single fence per update operation.
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
        assert!((counts.enqueue.flushes - 1.0).abs() < 0.05);
        // ... but the first amendment still reads flushed content (the head
        // line and the node lines), which is why it does not beat DurableMSQ.
        assert!(
            counts.total.post_flush_accesses > 0.5,
            "expected post-flush accesses, got {}",
            counts.total.post_flush_accesses
        );
    }
}
