//! The common queue interface shared by every algorithm in the crate.

use pmem::{PmemPool, StatsSnapshot};
use std::sync::Arc;

/// Configuration shared by all queue constructors.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Maximum number of threads that will ever operate on the queue.
    /// Thread ids passed to [`DurableQueue::enqueue`]/[`DurableQueue::dequeue`]
    /// must be `< max_threads`.
    pub max_threads: usize,
    /// Designated-area size (bytes) used by the node allocator.
    pub area_size: u32,
}

impl QueueConfig {
    /// Small configuration for unit/property tests.
    pub fn small_test() -> Self {
        QueueConfig {
            max_threads: 8,
            area_size: 64 * 1024,
        }
    }

    /// Configuration used by the benchmark harness.
    pub fn bench(max_threads: usize) -> Self {
        QueueConfig {
            max_threads,
            area_size: 4 * 1024 * 1024,
        }
    }

    /// Overrides the number of threads.
    pub fn with_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self::small_test()
    }
}

/// A concurrent FIFO queue of `u64` items operating on a persistent pool.
///
/// Every operation takes the caller's thread id (`tid`), mirroring the
/// per-thread arrays of the paper's implementations (`nodeToRetire`,
/// `localData`, ...). Thread ids identify *logical* threads: a tid must not
/// be used concurrently from two OS threads.
pub trait DurableQueue: Send + Sync {
    /// Appends `item` at the tail of the queue.
    fn enqueue(&self, tid: usize, item: u64);

    /// Removes and returns the item at the head of the queue, or `None` if
    /// the queue is (observed) empty.
    fn dequeue(&self, tid: usize) -> Option<u64>;

    /// Algorithm name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// The persistent pool the queue operates on.
    fn pool(&self) -> &Arc<PmemPool>;

    /// The configuration the queue was created (or recovered) with.
    fn config(&self) -> QueueConfig;

    /// Whether the queue is durably linearizable (false only for the
    /// volatile Michael–Scott baseline).
    fn is_durable(&self) -> bool {
        true
    }

    /// A snapshot of the persistence counters attributable to this queue.
    ///
    /// The default delegates to the queue's single pool; multi-pool
    /// compositions (e.g. a sharded queue, one pool per shard) override this
    /// to return the aggregate across all of their pools.
    fn stats(&self) -> StatsSnapshot {
        self.pool().stats()
    }

    /// Resets the persistence counters of every pool this queue operates on.
    fn reset_stats(&self) {
        self.pool().reset_stats()
    }
}

/// Key-routed enqueue, as an extension of [`DurableQueue`].
///
/// A plain queue has no notion of routing, so the default implementation
/// simply ignores the key: on a single instance every enqueue lands in the
/// same FIFO order regardless of key. Partitioned compositions (the `shard`
/// crate's `ShardedQueue` under its key-hash policy) override this so that
/// all items with the same key land on the same shard — giving per-key FIFO
/// order across the whole partitioned queue.
pub trait KeyedQueue: DurableQueue {
    /// Appends `item` on behalf of thread `tid`, routed by `key`.
    fn enqueue_keyed(&self, tid: usize, key: u64, item: u64) {
        let _ = key;
        self.enqueue(tid, item);
    }
}

/// Marks every queue in this crate as keyed (with the identity routing of
/// the default method). Compositions that route for real provide their own
/// `impl KeyedQueue` with an overriding `enqueue_keyed`.
macro_rules! impl_keyed_for {
    ($($queue:ty),+ $(,)?) => {
        $(impl KeyedQueue for $queue {})+
    };
}

impl_keyed_for!(
    crate::msq::MsQueue,
    crate::durable_msq::DurableMsQueue,
    crate::izraelevitz::IzraelevitzQueue,
    crate::izraelevitz::NvTraverseQueue,
    crate::unlinked::UnlinkedQueue,
    crate::linked::LinkedQueue,
    crate::opt_unlinked::OptUnlinkedQueue,
    crate::opt_linked::OptLinkedQueue,
);

/// Construction and crash recovery, kept separate from [`DurableQueue`] so
/// trait objects of the latter stay object-safe.
pub trait RecoverableQueue: DurableQueue + Sized {
    /// The algorithm's tag, an ASCII code NUL-padded to 8 bytes:
    /// [`create`](Self::create) records it in the pool, and a file-backed
    /// reopen checks it before `recover` runs, so a pool is never recovered
    /// by an algorithm that did not write it. All zeros, the default, is no
    /// tag: nothing is recorded, and any pool passes.
    const TAG: [u8; 8] = [0; 8];

    /// Creates a fresh, empty queue on a fresh pool.
    fn create(pool: Arc<PmemPool>, config: QueueConfig) -> Self;

    /// Runs the algorithm's recovery procedure on a pool that was recovered
    /// from a crash (see [`PmemPool::simulate_crash`]), reconstructing the
    /// queue from its persistent state.
    fn recover(pool: Arc<PmemPool>, config: QueueConfig) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_methods_delegate_to_the_pool() {
        use crate::opt_unlinked::OptUnlinkedQueue;
        use pmem::PoolConfig;
        let pool = Arc::new(PmemPool::new(PoolConfig::small_test()));
        let q = OptUnlinkedQueue::create(Arc::clone(&pool), QueueConfig::small_test());
        q.reset_stats();
        q.enqueue(0, 1);
        assert_eq!(q.stats(), pool.stats());
        assert!(q.stats().fences >= 1);
        q.reset_stats();
        assert_eq!(pool.stats(), StatsSnapshot::default());
    }

    #[test]
    fn keyed_enqueue_defaults_to_plain_enqueue() {
        use crate::opt_unlinked::OptUnlinkedQueue;
        use pmem::PoolConfig;
        let pool = Arc::new(PmemPool::new(PoolConfig::small_test()));
        let q = OptUnlinkedQueue::create(pool, QueueConfig::small_test());
        q.enqueue_keyed(0, 0xAAAA, 1);
        q.enqueue_keyed(0, 0xBBBB, 2);
        assert_eq!(q.dequeue(0), Some(1));
        assert_eq!(q.dequeue(0), Some(2));
    }

    #[test]
    fn config_defaults_and_builders() {
        let c = QueueConfig::default();
        assert!(c.max_threads >= 2);
        let c2 = QueueConfig::bench(16).with_threads(4);
        assert_eq!(c2.max_threads, 4);
        assert!(c2.area_size >= c.area_size);
    }
}
