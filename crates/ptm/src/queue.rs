//! Sequential FIFO queues wrapped in the redo-log PTM — the `OneFileLite`
//! and `RedoOptLite` baselines.
//!
//! The queue itself is a textbook singly-linked queue with a dummy node; all
//! of its state (head, tail, node pool bump index, free list) lives in
//! persistent memory and every operation is one PTM transaction, so
//! durability and crash atomicity come entirely from the PTM — at the cost
//! of redo logging on every operation, which is exactly the overhead the
//! paper's evaluation attributes to the transactional baselines.

use crate::redo::{FlushPolicy, Ptm, Tx};
use durable_queues::root::{ROOT_HEAD, ROOT_TAIL};
use durable_queues::{DurableQueue, KeyedQueue, QueueConfig, RecoverableQueue};
use pmem::layout::QUEUE_ROOT;
use pmem::PmemPool;
use std::sync::Arc;

// Same instrument names as the `durable_queues` implementations: the obs
// registry merges same-named statics, so `core.enqueue`/`core.dequeue`
// aggregate over every algorithm regardless of crate.
static ENQUEUES: obs::LazyCounter = obs::LazyCounter::new("core.enqueue");
static DEQUEUES: obs::LazyCounter = obs::LazyCounter::new("core.dequeue");

/// Node field offsets.
const ITEM: u32 = 0;
const NEXT: u32 = 8;

/// Root-block words owned by the PTM queue (distinct lines from the PTM
/// engine's log words and from the head/tail lines).
const ROOT_FREE_LIST: u32 = QUEUE_ROOT + 3 * 64;
const ROOT_NEXT_ALLOC: u32 = QUEUE_ROOT + 4 * 64;
const ROOT_REGION: u32 = QUEUE_ROOT + 5 * 64;
const ROOT_CAPACITY: u32 = QUEUE_ROOT + 5 * 64 + 8;

/// A sequential queue wrapped in the redo-log PTM. `EAGER = true` flushes and
/// fences every log entry (`OneFileLite`); `EAGER = false` batches them
/// (`RedoOptLite`).
pub struct PtmQueue<const EAGER: bool> {
    ptm: Ptm,
    pool: Arc<PmemPool>,
    config: QueueConfig,
}

/// PTM-wrapped queue with eager per-entry log persistence (stands in for the
/// paper's `OneFileQ`).
pub type OneFileLiteQueue = PtmQueue<true>;

/// PTM-wrapped queue with batched commit-time log persistence (stands in for
/// the paper's `RedoOptQ`).
pub type RedoOptLiteQueue = PtmQueue<false>;

impl<const EAGER: bool> PtmQueue<EAGER> {
    fn policy() -> FlushPolicy {
        if EAGER {
            FlushPolicy::EagerPerWord
        } else {
            FlushPolicy::BatchedCommit
        }
    }

    /// Number of node slots in the persistent node region.
    fn capacity_nodes(config: &QueueConfig) -> u32 {
        ((config.area_size / 64) * 4).max(4096)
    }

    /// Transactionally allocates a node slot.
    fn tx_alloc(tx: &mut Tx<'_>) -> u32 {
        let free = tx.read(ROOT_FREE_LIST);
        if free != 0 {
            let next_free = tx.read(free as u32 + NEXT);
            tx.write(ROOT_FREE_LIST, next_free);
            return free as u32;
        }
        let region = tx.read(ROOT_REGION) as u32;
        let capacity = tx.read(ROOT_CAPACITY);
        let idx = tx.read(ROOT_NEXT_ALLOC);
        assert!(
            idx < capacity,
            "PTM queue node region exhausted ({capacity} nodes)"
        );
        tx.write(ROOT_NEXT_ALLOC, idx + 1);
        region + (idx as u32) * 64
    }

    /// Transactionally pushes a node slot onto the free list.
    fn tx_free(tx: &mut Tx<'_>, node: u32) {
        let free = tx.read(ROOT_FREE_LIST);
        tx.write(node + NEXT, free);
        tx.write(ROOT_FREE_LIST, node as u64);
    }
}

impl<const EAGER: bool> DurableQueue for PtmQueue<EAGER> {
    fn enqueue(&self, tid: usize, item: u64) {
        ENQUEUES.incr();
        self.ptm.run(tid, |tx| {
            let node = Self::tx_alloc(tx);
            tx.write(node + ITEM, item);
            tx.write(node + NEXT, 0);
            let tail = tx.read(ROOT_TAIL) as u32;
            tx.write(tail + NEXT, node as u64);
            tx.write(ROOT_TAIL, node as u64);
        });
    }

    fn dequeue(&self, tid: usize) -> Option<u64> {
        DEQUEUES.incr();
        self.ptm.run(tid, |tx| {
            let head = tx.read(ROOT_HEAD) as u32;
            let next = tx.read(head + NEXT);
            if next == 0 {
                return None;
            }
            let next = next as u32;
            let item = tx.read(next + ITEM);
            tx.write(ROOT_HEAD, next as u64);
            Self::tx_free(tx, head);
            Some(item)
        })
    }

    fn name(&self) -> &'static str {
        if EAGER {
            "OneFileLiteQ"
        } else {
            "RedoOptLiteQ"
        }
    }

    fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn config(&self) -> QueueConfig {
        self.config
    }
}

impl<const EAGER: bool> KeyedQueue for PtmQueue<EAGER> {}

impl<const EAGER: bool> RecoverableQueue for PtmQueue<EAGER> {
    const TAG: [u8; 8] = if EAGER { *b"OneFileQ" } else { *b"RedoOptQ" };

    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        durable_queues::root::record_tag::<Self>(&pool);
        let ptm = Ptm::new(Arc::clone(&pool), Self::policy());
        let capacity = Self::capacity_nodes(&config);
        let region = pool.alloc_raw(capacity * 64, 64);
        pool.zero_range(region, capacity * 64);
        pool.flush_range(0, region, capacity * 64);
        // Slot 0 is the initial dummy node.
        pool.store_u64(ROOT_HEAD, region as u64);
        pool.store_u64(ROOT_TAIL, region as u64);
        pool.store_u64(ROOT_FREE_LIST, 0);
        pool.store_u64(ROOT_NEXT_ALLOC, 1);
        pool.store_u64(ROOT_REGION, region as u64);
        pool.store_u64(ROOT_CAPACITY, capacity as u64);
        for off in [
            ROOT_HEAD,
            ROOT_TAIL,
            ROOT_FREE_LIST,
            ROOT_NEXT_ALLOC,
            ROOT_REGION,
        ] {
            pool.flush(0, off);
        }
        pool.sfence(0);
        PtmQueue { ptm, pool, config }
    }

    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self {
        // The PTM replays or discards the redo log; afterwards every root
        // word and node is in a transaction-consistent state and the queue
        // needs no recovery logic of its own.
        let ptm = Ptm::recover(Arc::clone(&pool), Self::policy());
        let region = pool.load_u64(ROOT_REGION) as u32;
        let capacity = pool.load_u64(ROOT_CAPACITY) as u32;
        pool.set_watermark(region + capacity * 64);
        PtmQueue { ptm, pool, config }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_queues::testkit;

    #[test]
    fn sequential_fifo_both_policies() {
        testkit::check_sequential_fifo::<OneFileLiteQueue>();
        testkit::check_sequential_fifo::<RedoOptLiteQueue>();
    }

    #[test]
    fn interleaved_matches_model() {
        testkit::check_against_model::<OneFileLiteQueue>(0xF1);
        testkit::check_against_model::<RedoOptLiteQueue>(0xF2);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        testkit::check_concurrent_integrity::<OneFileLiteQueue>(4, 150);
        testkit::check_concurrent_integrity::<RedoOptLiteQueue>(4, 150);
    }

    #[test]
    fn recovery_preserves_completed_operations() {
        testkit::check_recovery_preserves_completed_ops::<OneFileLiteQueue>(80, 30);
        testkit::check_recovery_preserves_completed_ops::<RedoOptLiteQueue>(80, 30);
    }

    #[test]
    fn recovery_of_emptied_queue_is_empty() {
        testkit::check_recovery_of_emptied_queue::<RedoOptLiteQueue>();
    }

    #[test]
    fn repeated_crashes_keep_surviving_state() {
        testkit::check_repeated_crashes::<RedoOptLiteQueue>(4, 30);
    }

    #[test]
    fn crash_under_concurrency_is_durably_linearizable() {
        testkit::check_crash_during_concurrent_ops::<OneFileLiteQueue>(3, 120, 0xF3F3);
        testkit::check_crash_during_concurrent_ops::<RedoOptLiteQueue>(3, 120, 0xF4F4);
    }

    #[test]
    fn transactions_cost_more_persists_than_the_tailored_queues() {
        let onefile = testkit::persist_counts::<OneFileLiteQueue>(300);
        let redoopt = testkit::persist_counts::<RedoOptLiteQueue>(300);
        // Every operation pays at least the commit-record fence, the apply
        // fence and the log-retire fence.
        assert!(
            redoopt.enqueue.fences >= 3.0,
            "RedoOptLite enqueue fences {}",
            redoopt.enqueue.fences
        );
        assert!(onefile.enqueue.fences > redoopt.enqueue.fences);
        // The recycled log lines are flushed and rewritten every transaction.
        assert!(redoopt.total.post_flush_accesses > 1.0);
    }
}
