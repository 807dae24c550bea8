//! OptLinkedQ — the second amendment applied to LinkedQ (Section 6.2,
//! Appendix C, Figures 5–6).
//!
//! Like [`crate::OptUnlinkedQueue`], OptLinkedQ performs a single blocking
//! persist per operation and zero accesses to explicitly flushed cache
//! lines. Because it is problematic to avoid re-reading a node's forward
//! link after flushing it, the recovery direction is reversed: recovery
//! walks **backward links** (`pred`) from a recorded tail candidate down to
//! the node that follows the dummy.
//!
//! * Nodes are split into `Persistent` (item, pred, index — flushed once,
//!   read only by recovery) and `Volatile` (item, next, pred, index, pointer
//!   to the `Persistent`) halves; head and tail point to `Volatile` objects.
//! * The `index` field, written last within the `Persistent` line, doubles as
//!   the staleness detector: recovery accepts a backward walk only if it sees
//!   strictly consecutive indices down to `headIndex + 1`.
//! * Per-thread `lastEnqueues` records (two per thread — the last and the
//!   penultimate enqueue) are written with non-temporal stores and carry a
//!   valid bit in both halves, so recovery can tell whether a record was
//!   written completely.
//! * Per-thread head indices are handled exactly as in OptUnlinkedQ.

use crate::api::{DurableQueue, QueueConfig, RecoverableQueue};
use crate::node;
use crate::root;
use obs::rows::CachePadded;
use pmem::{PRef, PmemPool, MAX_THREADS};
use ssmem::{Ssmem, SsmemConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Field offsets within a `Persistent` object (one 64-byte slot).
mod p {
    pub const ITEM: u32 = 0;
    pub const PRED: u32 = 8;
    pub const INDEX: u32 = 16;
}

/// Field offsets within a `Volatile` object (one 64-byte slot, never flushed).
mod v {
    pub const ITEM: u32 = 0;
    pub const NEXT: u32 = 8;
    pub const PRED: u32 = 16;
    pub const INDEX: u32 = 24;
    pub const PERSISTENT: u32 = 32;
}

/// Per-thread persistent local data: the head index on one cache line and the
/// two `lastEnqueues` cells (pointer + index each) on the next.
const LOCAL_STRIDE: u32 = 128;
const LD_HEAD_INDEX: u32 = 0;
const LD_LAST_ENQ: u32 = 64;
/// Bytes between the two `lastEnqueues` cells.
const LD_CELL_STRIDE: u32 = 16;

/// The most significant bit, used as the valid bit of a recorded index.
const INDEX_VALID_BIT: u64 = 1 << 63;

/// Volatile per-thread state (the paper keeps these next to the persistent
/// fields in `localData`; they are volatile, so they live here).
struct ThreadState {
    node_to_retire: AtomicU64,
    last_enqueues_index: AtomicU64,
    valid_bit: AtomicU64,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            node_to_retire: AtomicU64::new(0),
            last_enqueues_index: AtomicU64::new(0),
            valid_bit: AtomicU64::new(1),
        }
    }
}

/// The OptLinkedQ durable queue. See the [module docs](self).
pub struct OptLinkedQueue {
    pool: Arc<PmemPool>,
    pnodes: Ssmem,
    vnodes: Ssmem,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    local_data: u32,
    threads: Box<[CachePadded<ThreadState>]>,
    config: QueueConfig,
}

/// Applies `bit_value` (0 or 1) at bit position `bit_index` of `value`
/// (Figure 6, `ApplyBit`).
#[inline]
fn apply_bit(value: u64, bit_index: u32, bit_value: u64) -> u64 {
    (value & !(1u64 << bit_index)) | (bit_value << bit_index)
}

impl OptLinkedQueue {
    fn ssmem_config(config: &QueueConfig) -> SsmemConfig {
        SsmemConfig {
            obj_size: node::NODE_SIZE,
            area_size: config.area_size,
            max_threads: config.max_threads,
        }
    }

    fn thread_states(config: &QueueConfig) -> Box<[CachePadded<ThreadState>]> {
        (0..config.max_threads)
            .map(|_| CachePadded::new(ThreadState::new()))
            .collect()
    }

    #[inline]
    fn head_index_slot(&self, tid: usize) -> u32 {
        root::local_data_slot(self.local_data, LOCAL_STRIDE, tid) + LD_HEAD_INDEX
    }

    #[inline]
    fn last_enq_cell(local_data: u32, tid: usize, cell: u32) -> u32 {
        root::local_data_slot(local_data, LOCAL_STRIDE, tid) + LD_LAST_ENQ + cell * LD_CELL_STRIDE
    }

    /// Allocates and initialises a `Volatile` object.
    fn alloc_volatile(
        &self,
        tid: usize,
        item: u64,
        index: u64,
        pred: u64,
        persistent: PRef,
    ) -> PRef {
        let vv = self.vnodes.alloc(tid);
        let o = vv.offset();
        self.pool.store_u64(o + v::ITEM, item);
        self.pool.store_u64(o + v::NEXT, 0);
        self.pool.store_u64(o + v::PRED, pred);
        self.pool.store_u64(o + v::INDEX, index);
        self.pool.store_u64(o + v::PERSISTENT, persistent.to_u64());
        vv
    }

    /// Flushes the `Persistent` halves of the suffix of nodes that might not
    /// be persistent yet, walking volatile backward links (Figure 6,
    /// `FlushNotPersistedSuffix`).
    fn flush_not_persisted_suffix(&self, tid: usize, from: PRef) {
        let pl = &self.pool;
        let mut cur = from;
        loop {
            let pred = pl.load_u64(cur.offset() + v::PRED);
            if pred == 0 {
                return;
            }
            let persistent = pl.load_u64(cur.offset() + v::PERSISTENT);
            pl.flush(tid, persistent as u32);
            cur = PRef::from_u64(pred);
        }
    }

    /// Records the freshly enqueued `Persistent` object in this thread's
    /// `lastEnqueues` array using non-temporal stores (Figure 6,
    /// `RecordLastEnqueue`).
    fn record_last_enqueue(&self, tid: usize, persistent: PRef, index: u64) {
        let state = &self.threads[tid];
        let i = state.last_enqueues_index.load(Ordering::Relaxed);
        let vb = state.valid_bit.load(Ordering::Relaxed);
        let cell = Self::last_enq_cell(self.local_data, tid, i as u32);
        self.pool
            .nt_store_u64(tid, cell, apply_bit(persistent.to_u64(), 0, vb));
        self.pool
            .nt_store_u64(tid, cell + 8, apply_bit(index, 63, vb));
        // Flip the valid bit after every second write (i.e. when i == 1), so
        // consecutive writes to the same cell alternate their valid bit.
        state.valid_bit.store(vb ^ i, Ordering::Relaxed);
        state.last_enqueues_index.store(i ^ 1, Ordering::Relaxed);
    }
}

impl DurableQueue for OptLinkedQueue {
    fn enqueue(&self, tid: usize, item: u64) {
        crate::instruments::ENQUEUES.incr();
        let pl = &self.pool;
        self.pnodes.pin(tid);
        let pnew = self.pnodes.alloc(tid);
        pl.store_u64(pnew.offset() + p::ITEM, item);
        let vnew = self.alloc_volatile(tid, item, 0, 0, pnew);
        loop {
            let tail = PRef::from_u64(self.tail.load(Ordering::Acquire));
            let tail_next = pl.load_u64(tail.offset() + v::NEXT);
            if tail_next == 0 {
                let index = pl.load_u64(tail.offset() + v::INDEX) + 1;
                let tail_persistent = pl.load_u64(tail.offset() + v::PERSISTENT);
                pl.store_u64(vnew.offset() + v::PRED, tail.to_u64());
                pl.store_u64(vnew.offset() + v::INDEX, index);
                pl.store_u64(pnew.offset() + p::PRED, tail_persistent);
                // `index` is the staleness stamp: it is written after every
                // other Persistent field (Assumption 1 keeps that order).
                pl.store_u64(pnew.offset() + p::INDEX, index);
                if pl
                    .cas_u64(tail.offset() + v::NEXT, 0, vnew.to_u64())
                    .is_ok()
                {
                    let _ = self.tail.compare_exchange(
                        tail.to_u64(),
                        vnew.to_u64(),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    self.flush_not_persisted_suffix(tid, vnew);
                    self.record_last_enqueue(tid, pnew, index);
                    // The single blocking persist: covers the suffix flushes
                    // and the two non-temporal stores above.
                    pl.sfence(tid);
                    // All nodes up to `vnew` are persistent: cut the chain.
                    pl.store_u64(vnew.offset() + v::PRED, 0);
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
                pl.nt_store_u64(tid, self.head_index_slot(tid), index);
                pl.sfence(tid);
                // The new dummy must not be reachable by backward walks.
                pl.store_u64(next.offset() + v::PRED, 0);
                let previous = self.threads[tid]
                    .node_to_retire
                    .swap(head.to_u64(), Ordering::Relaxed);
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
        "OptLinkedQ"
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn config(&self) -> QueueConfig {
        self.config
    }
}

impl RecoverableQueue for OptLinkedQueue {
    const TAG: [u8; 8] = *b"OptLinkQ";

    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        crate::root::record_tag::<Self>(&pool);
        let pnodes = Ssmem::new(Arc::clone(&pool), Self::ssmem_config(&config));
        let vnodes = Ssmem::new_volatile(
            Arc::clone(&pool),
            Self::ssmem_config(&config),
            Arc::clone(pnodes.epoch()),
        );
        let local_data = root::create_local_data(&pool, LOCAL_STRIDE);
        let pdummy = pnodes.alloc(0);
        pool.store_u64(pdummy.offset() + p::ITEM, 0);
        pool.store_u64(pdummy.offset() + p::PRED, 0);
        pool.store_u64(pdummy.offset() + p::INDEX, 0);
        let vdummy = vnodes.alloc(0);
        pool.store_u64(vdummy.offset() + v::ITEM, 0);
        pool.store_u64(vdummy.offset() + v::NEXT, 0);
        pool.store_u64(vdummy.offset() + v::PRED, 0);
        pool.store_u64(vdummy.offset() + v::INDEX, 0);
        pool.store_u64(vdummy.offset() + v::PERSISTENT, pdummy.to_u64());
        OptLinkedQueue {
            pool,
            pnodes,
            vnodes,
            head: CachePadded::new(AtomicU64::new(vdummy.to_u64())),
            tail: CachePadded::new(AtomicU64::new(vdummy.to_u64())),
            local_data,
            threads: Self::thread_states(&config),
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

        let head_index = (0..MAX_THREADS)
            .map(|tid| {
                pool.load_u64(root::local_data_slot(local_data, stride, tid) + LD_HEAD_INDEX)
            })
            .max()
            .unwrap_or(0);

        // Gather valid lastEnqueues records with index > headIndex, sorted by
        // index from largest to smallest: the potential tails.
        let mut candidates: Vec<(u64, PRef, usize, u32)> = Vec::new();
        for tid in 0..MAX_THREADS {
            for cell in 0..2u32 {
                let cell_off = Self::last_enq_cell(local_data, tid, cell);
                let ptr_raw = pool.load_u64(cell_off);
                let idx_raw = pool.load_u64(cell_off + 8);
                let valid_ptr = ptr_raw & 1;
                let valid_idx = (idx_raw & INDEX_VALID_BIT) >> 63;
                if valid_ptr != valid_idx {
                    continue; // torn record: only one half was written back
                }
                let ptr = PRef::from_u64(ptr_raw & !1u64);
                let index = idx_raw & !INDEX_VALID_BIT;
                if !ptr.is_null() && index > head_index {
                    candidates.push((index, ptr, tid, cell));
                }
            }
        }
        candidates.sort_unstable_by_key(|candidate| std::cmp::Reverse(candidate.0));

        // Try each potential tail: accept the first one from which a backward
        // walk with strictly consecutive indices reaches headIndex + 1.
        let mut chain: Vec<(u64, PRef)> = Vec::new(); // tail .. headIndex+1
        let mut winner: Option<(usize, u32, u64)> = None; // (tid, cell, valid bit)
        'candidates: for &(index, ptr, tid, cell) in &candidates {
            if pool.load_u64(ptr.offset() + p::INDEX) != index {
                continue; // the recorded node is stale
            }
            let mut this_chain = Vec::new();
            let mut cur = ptr;
            let mut cur_index = index;
            loop {
                this_chain.push((cur_index, cur));
                if cur_index == head_index + 1 {
                    chain = this_chain;
                    let cell_off = Self::last_enq_cell(local_data, tid, cell);
                    let bit = pool.load_u64(cell_off) & 1;
                    winner = Some((tid, cell, bit));
                    break 'candidates;
                }
                let pred = pool.load_u64(cur.offset() + p::PRED);
                if pred == 0 {
                    continue 'candidates;
                }
                let pred = PRef::from_u64(pred);
                let pred_index = pool.load_u64(pred.offset() + p::INDEX);
                if pred_index != cur_index - 1 {
                    continue 'candidates; // stale node along the walk
                }
                cur = pred;
                cur_index = pred_index;
            }
        }
        chain.reverse(); // now headIndex+1 .. tail

        // Reclaim every Persistent object outside the recovered chain. The
        // ones that carry an index above headIndex (at most one per thread —
        // enqueues that were in flight) get their index zeroed and flushed so
        // that reusing them is safe; one fence at the end covers all of it.
        let live: HashSet<PRef> = chain.iter().map(|&(_, p)| p).collect();
        let mut rr = 0usize;
        pnodes.for_each_object(|obj| {
            if !live.contains(&obj) {
                if pool.load_u64(obj.offset() + p::INDEX) > head_index {
                    pool.store_u64(obj.offset() + p::INDEX, 0);
                    pool.flush(0, obj.offset());
                }
                pnodes.free_immediate(rr % config.max_threads, obj);
                rr += 1;
            }
        });

        // Rebuild the volatile queue.
        let pdummy = pnodes.alloc(0);
        pool.store_u64(pdummy.offset() + p::ITEM, 0);
        pool.store_u64(pdummy.offset() + p::PRED, 0);
        pool.store_u64(pdummy.offset() + p::INDEX, head_index);
        let vdummy = vnodes.alloc(0);
        pool.store_u64(vdummy.offset() + v::ITEM, 0);
        pool.store_u64(vdummy.offset() + v::NEXT, 0);
        pool.store_u64(vdummy.offset() + v::PRED, 0);
        pool.store_u64(vdummy.offset() + v::INDEX, head_index);
        pool.store_u64(vdummy.offset() + v::PERSISTENT, pdummy.to_u64());
        let mut prev = vdummy;
        for &(index, pobj) in &chain {
            let item = pool.load_u64(pobj.offset() + p::ITEM);
            let vobj = vnodes.alloc(0);
            pool.store_u64(vobj.offset() + v::ITEM, item);
            pool.store_u64(vobj.offset() + v::NEXT, 0);
            pool.store_u64(vobj.offset() + v::PRED, prev.to_u64());
            pool.store_u64(vobj.offset() + v::INDEX, index);
            pool.store_u64(vobj.offset() + v::PERSISTENT, pobj.to_u64());
            pool.store_u64(prev.offset() + v::NEXT, vobj.to_u64());
            prev = vobj;
        }
        // The last node's backward link is cut: everything it precedes is
        // persistent.
        pool.store_u64(prev.offset() + v::PRED, 0);

        // Reset the per-thread lastEnqueues records. The record that named
        // the recovered tail is kept (a crash before any further enqueue must
        // still find the tail); every other record is zeroed.
        let threads = Self::thread_states(&config);
        for tid in 0..MAX_THREADS {
            for cell in 0..2u32 {
                if winner
                    == Some((
                        tid,
                        cell,
                        pool.load_u64(Self::last_enq_cell(local_data, tid, cell)) & 1,
                    ))
                {
                    continue;
                }
                let cell_off = Self::last_enq_cell(local_data, tid, cell);
                pool.nt_store_u64(0, cell_off, 0);
                pool.nt_store_u64(0, cell_off + 8, 0);
            }
        }
        if let Some((tid, cell, bit)) = winner {
            if tid < config.max_threads {
                let state = &threads[tid];
                if cell == 0 {
                    // Next write goes to cell 1 with the current bit, then the
                    // following write to cell 0 uses the flipped bit.
                    state.valid_bit.store(bit, Ordering::Relaxed);
                    state.last_enqueues_index.store(1, Ordering::Relaxed);
                } else {
                    // Next write goes to cell 0; the following write to cell 1
                    // must use the flipped bit.
                    state.valid_bit.store(bit ^ 1, Ordering::Relaxed);
                    state.last_enqueues_index.store(0, Ordering::Relaxed);
                }
            }
        }
        pool.sfence(0);

        OptLinkedQueue {
            pool,
            pnodes,
            vnodes,
            head: CachePadded::new(AtomicU64::new(vdummy.to_u64())),
            tail: CachePadded::new(AtomicU64::new(prev.to_u64())),
            local_data,
            threads,
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
        let (q, _) = testkit::fresh::<OptLinkedQueue>();
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
                testkit::field_lines("threads", &q.threads),
                testkit::field_lines("config", &q.config),
            ],
        );
    }

    #[test]
    fn apply_bit_matches_the_papers_definition() {
        assert_eq!(apply_bit(0b1010, 0, 1), 0b1011);
        assert_eq!(apply_bit(0b1011, 0, 0), 0b1010);
        assert_eq!(apply_bit(5, 63, 1), 5 | (1 << 63));
        assert_eq!(apply_bit(5 | (1 << 63), 63, 0), 5);
    }

    #[test]
    fn sequential_fifo() {
        testkit::check_sequential_fifo::<OptLinkedQueue>();
    }

    #[test]
    fn interleaved_matches_model() {
        testkit::check_against_model::<OptLinkedQueue>(0xB1);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        testkit::check_concurrent_integrity::<OptLinkedQueue>(4, 300);
    }

    #[test]
    fn concurrent_per_producer_fifo_order() {
        testkit::check_concurrent_fifo_per_producer::<OptLinkedQueue>(2, 2, 300);
    }

    #[test]
    fn recovery_preserves_completed_operations() {
        testkit::check_recovery_preserves_completed_ops::<OptLinkedQueue>(100, 41);
    }

    #[test]
    fn recovery_of_emptied_queue_is_empty() {
        testkit::check_recovery_of_emptied_queue::<OptLinkedQueue>();
    }

    #[test]
    fn repeated_crashes_keep_surviving_state() {
        testkit::check_repeated_crashes::<OptLinkedQueue>(5, 40);
    }

    #[test]
    fn crash_under_concurrency_is_durably_linearizable() {
        testkit::check_crash_during_concurrent_ops::<OptLinkedQueue>(4, 300, 0xB1B1);
    }

    #[test]
    fn crash_with_eviction_adversary_is_durably_linearizable() {
        testkit::check_crash_with_evictions::<OptLinkedQueue>(3, 200, 0xB2B2);
    }

    #[test]
    fn optimal_persistence_profile() {
        let counts = testkit::persist_counts::<OptLinkedQueue>(1000);
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
        // Each enqueue issues exactly two non-temporal stores (its
        // lastEnqueues record) and each dequeue one (its head index).
        assert!(
            (counts.enqueue.nt_stores - 2.0).abs() < 0.05,
            "enqueue nt stores {}",
            counts.enqueue.nt_stores
        );
        assert!(
            (counts.dequeue.nt_stores - 1.0).abs() < 0.05,
            "dequeue nt stores {}",
            counts.dequeue.nt_stores
        );
        assert_eq!(
            counts.total.post_flush_accesses, 0.0,
            "OptLinkedQ must never touch flushed content"
        );
    }
}
