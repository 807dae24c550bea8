//! The sharded queue: N independent recoverable queues behind one
//! [`DurableQueue`] front.

use crate::route::{RoutePolicy, Router};
use durable_queues::{DurableQueue, KeyedQueue, QueueConfig, RecoverableQueue};
use obs::LazyCounter;
use pmem::{PmemPool, PoolConfig, StatsSnapshot};
use std::sync::Arc;

// Routing-decision instruments: how traffic spreads over the shards, and
// how often a dequeue scan comes up empty (a `miss` walked every shard).
static ROUTE_ENQ: LazyCounter = LazyCounter::new("shard.route.enqueue");
static ROUTE_KEYED: LazyCounter = LazyCounter::new("shard.route.keyed");
static DEQ_HIT: LazyCounter = LazyCounter::new("shard.dequeue.hit");
static DEQ_MISS: LazyCounter = LazyCounter::new("shard.dequeue.miss");

/// Configuration of a [`ShardedQueue`].
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of shards (independent pool + queue pairs). Must be ≥ 1.
    pub shards: usize,
    /// Configuration of every inner queue. `max_threads` is the number of
    /// logical threads operating on the *sharded* queue; every shard is
    /// configured for all of them, because routing may send any thread to
    /// any shard.
    pub queue: QueueConfig,
    /// Configuration of every per-shard pool.
    pub pool: PoolConfig,
    /// Routing policy for enqueues and dequeue starting points.
    pub policy: RoutePolicy,
}

impl ShardConfig {
    /// A small configuration for unit and property tests.
    pub fn small_test(shards: usize) -> Self {
        ShardConfig {
            shards,
            queue: QueueConfig::small_test(),
            pool: PoolConfig::test_with_size(8 << 20),
            policy: RoutePolicy::RoundRobin,
        }
    }

    /// Divides a total memory budget across `shards` shards so that every
    /// shard is guaranteed to fit its allocator footprint.
    ///
    /// Two adjustments make an N-shard deployment fit in roughly the
    /// single-queue budget: the designated-area size is scaled down by the
    /// shard count (each shard sees ~1/N of the traffic, floored at 256 KiB
    /// so areas stay useful), and the per-shard pool is floored at two
    /// scaled areas per thread — every thread may carve areas on every
    /// shard — plus fixed slack for roots and live nodes.
    pub fn balanced(
        shards: usize,
        queue: QueueConfig,
        pool_budget: usize,
        base_pool: PoolConfig,
        policy: RoutePolicy,
    ) -> Self {
        let shards = shards.max(1);
        let area_size = (queue.area_size / shards as u32).max(256 * 1024);
        let queue = QueueConfig { area_size, ..queue };
        let min_pool = queue.max_threads * area_size as usize * 2 + (16 << 20);
        ShardConfig {
            shards,
            queue,
            pool: PoolConfig {
                size: (pool_budget / shards).max(min_pool),
                ..base_pool
            },
            policy,
        }
    }

    /// Overrides the routing policy.
    pub fn with_policy(mut self, policy: RoutePolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// One shard: its pool, its queue, nothing shared with any other shard.
pub(crate) struct Shard<Q> {
    pub(crate) queue: Q,
    pub(crate) pool: Arc<PmemPool>,
}

/// A FIFO-per-shard durable queue that partitions traffic across `N`
/// independent shards, each owning its own [`PmemPool`] and inner queue.
///
/// Guarantees, relative to a single queue:
///
/// * **Per-shard FIFO** instead of global FIFO: each shard is itself durably
///   linearizable, and under [`RoutePolicy::KeyHash`] all items with one key
///   live on one shard, so per-key FIFO order holds end to end.
/// * **No loss on dequeue**: a dequeue starts at the routed shard and scans
///   the remaining shards in ring order before reporting empty.
/// * **Independent persistence**: shards never share a cache line or a
///   fence, so the per-operation persist cost of the inner algorithm is
///   unchanged while throughput scales with shard count.
pub struct ShardedQueue<Q: RecoverableQueue> {
    shards: Box<[Shard<Q>]>,
    router: Router,
    config: ShardConfig,
}

impl<Q: RecoverableQueue> ShardedQueue<Q> {
    /// Creates `config.shards` fresh shards, each on its own fresh pool.
    pub fn create(config: ShardConfig) -> Self {
        let pools = (0..config.shards)
            .map(|_| Arc::new(PmemPool::new(config.pool)))
            .collect();
        Self::create_on(pools, config)
    }

    /// Creates fresh shards on caller-provided pools (one per shard).
    pub fn create_on(pools: Vec<Arc<PmemPool>>, config: ShardConfig) -> Self {
        assert!(config.shards >= 1, "a sharded queue needs at least 1 shard");
        assert_eq!(pools.len(), config.shards, "one pool per shard");
        let shards = pools
            .into_iter()
            .map(|pool| Shard {
                queue: Q::create(Arc::clone(&pool), config.queue),
                pool,
            })
            .collect();
        Self::from_shards(shards, config)
    }

    /// Assembles a sharded queue from already-constructed shards (used by
    /// the recovery orchestrator).
    pub(crate) fn from_shards(shards: Box<[Shard<Q>]>, config: ShardConfig) -> Self {
        let router = Router::new(config.policy, config.shards, config.queue.max_threads);
        ShardedQueue {
            shards,
            router,
            config,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The sharded configuration (the inner `QueueConfig` is `config()`).
    pub fn shard_config(&self) -> &ShardConfig {
        &self.config
    }

    /// The routing policy in effect.
    pub fn policy(&self) -> RoutePolicy {
        self.router.policy()
    }

    /// Direct access to shard `i`'s queue (tests, per-shard draining).
    pub fn shard(&self, i: usize) -> &Q {
        &self.shards[i].queue
    }

    /// The pool owned by shard `i`.
    pub fn shard_pool(&self, i: usize) -> &Arc<PmemPool> {
        &self.shards[i].pool
    }

    /// All per-shard pools, in shard order.
    pub fn pools(&self) -> Vec<Arc<PmemPool>> {
        self.shards.iter().map(|s| Arc::clone(&s.pool)).collect()
    }

    /// Persistence counters of each shard, in shard order. The bench layer
    /// uses this to attribute persist costs per shard; `stats()` is its sum.
    pub fn per_shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(|s| s.pool.stats()).collect()
    }

    /// Per-shard queue-depth estimates (what the load-aware policy steers
    /// by). Estimates only: concurrent operations race with the counter
    /// updates, and recovery resets them to zero.
    pub fn depth_estimates(&self) -> Vec<i64> {
        self.router.depths()
    }

    /// The shard the key-hash policy routes `key` to.
    pub fn shard_for_key(&self, key: u64) -> usize {
        self.router.shard_for_key(key)
    }

    /// Enqueues into a specific shard, updating the depth estimate.
    #[inline]
    fn enqueue_at(&self, shard: usize, tid: usize, item: u64) {
        self.shards[shard].queue.enqueue(tid, item);
        self.router.note_enqueue(shard);
    }
}

impl<Q: RecoverableQueue> DurableQueue for ShardedQueue<Q> {
    fn enqueue(&self, tid: usize, item: u64) {
        ROUTE_ENQ.incr();
        let shard = self.router.enqueue_shard(tid);
        self.enqueue_at(shard, tid, item);
    }

    fn dequeue(&self, tid: usize) -> Option<u64> {
        let start = self.router.dequeue_start(tid);
        let n = self.shards.len();
        for i in 0..n {
            let shard = (start + i) % n;
            if let Some(v) = self.shards[shard].queue.dequeue(tid) {
                self.router.note_dequeue(shard);
                DEQ_HIT.incr();
                return Some(v);
            }
        }
        DEQ_MISS.incr();
        None
    }

    fn name(&self) -> &'static str {
        // The inner algorithm's name: a sharded queue is a composition, and
        // the figures attribute results to the algorithm being scaled.
        self.shards[0].queue.name()
    }

    /// The pool of shard 0, as the trait's designated "primary" pool.
    /// Aggregate accounting must go through [`DurableQueue::stats`] /
    /// [`ShardedQueue::per_shard_stats`], which cover every shard.
    fn pool(&self) -> &Arc<PmemPool> {
        &self.shards[0].pool
    }

    fn config(&self) -> QueueConfig {
        self.config.queue
    }

    fn is_durable(&self) -> bool {
        self.shards[0].queue.is_durable()
    }

    fn stats(&self) -> StatsSnapshot {
        self.per_shard_stats().into_iter().sum()
    }

    fn reset_stats(&self) {
        for s in self.shards.iter() {
            s.pool.reset_stats();
        }
    }
}

impl<Q: RecoverableQueue> KeyedQueue for ShardedQueue<Q> {
    /// Routes by key hash under *every* policy, so `enqueue_keyed` always
    /// gives per-key FIFO order across the sharded queue.
    fn enqueue_keyed(&self, tid: usize, key: u64, item: u64) {
        ROUTE_KEYED.incr();
        let shard = self.router.shard_for_key(key);
        self.enqueue_at(shard, tid, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_queues::OptUnlinkedQueue;

    fn sharded(shards: usize, policy: RoutePolicy) -> ShardedQueue<OptUnlinkedQueue> {
        ShardedQueue::create(ShardConfig::small_test(shards).with_policy(policy))
    }

    #[test]
    fn single_shard_behaves_like_the_inner_queue() {
        let q = sharded(1, RoutePolicy::RoundRobin);
        for i in 1..=50 {
            q.enqueue(0, i);
        }
        for i in 1..=50 {
            assert_eq!(q.dequeue(0), Some(i));
        }
        assert_eq!(q.dequeue(0), None);
    }

    #[test]
    fn nothing_is_lost_or_duplicated_across_shards() {
        for policy in RoutePolicy::all() {
            let q = sharded(4, policy);
            for i in 1..=200u64 {
                q.enqueue(0, i);
            }
            let mut got: Vec<u64> = std::iter::from_fn(|| q.dequeue(0)).collect();
            got.sort_unstable();
            assert_eq!(got, (1..=200).collect::<Vec<_>>(), "{policy:?}");
        }
    }

    #[test]
    fn round_robin_spreads_enqueues_evenly() {
        let q = sharded(4, RoutePolicy::RoundRobin);
        for i in 0..400u64 {
            q.enqueue(0, i + 1);
        }
        for d in q.depth_estimates() {
            assert_eq!(d, 100);
        }
    }

    #[test]
    fn keyed_enqueues_keep_per_key_fifo_on_one_shard() {
        let q = sharded(8, RoutePolicy::KeyHash);
        for key in 0..16u64 {
            for seq in 0..20u64 {
                q.enqueue_keyed(0, key, (key << 32) | seq);
            }
        }
        for key in 0..16u64 {
            let shard = q.shard_for_key(key);
            // Drain the key's shard directly: its items for this key must
            // appear in enqueue order.
            let mut last = None;
            let drained: Vec<u64> = std::iter::from_fn(|| q.shard(shard).dequeue(0)).collect();
            for v in drained.iter().filter(|v| (*v >> 32) == key) {
                let seq = v & 0xFFFF_FFFF;
                if let Some(prev) = last {
                    assert!(seq > prev, "per-key FIFO violated for key {key}");
                }
                last = Some(seq);
            }
            // Re-enqueue what we drained so later keys on the same shard
            // still find their items (shards are shared between keys).
            for v in drained {
                q.shard(shard).enqueue(0, v);
            }
        }
    }

    #[test]
    fn load_aware_keeps_shards_balanced() {
        let q = sharded(4, RoutePolicy::LoadAware);
        for i in 0..100u64 {
            q.enqueue(0, i + 1);
        }
        let depths = q.depth_estimates();
        assert_eq!(depths.iter().sum::<i64>(), 100);
        assert!(
            depths.iter().all(|&d| d == 25),
            "load-aware enqueue left shards unbalanced: {depths:?}"
        );
    }

    #[test]
    fn stats_aggregate_across_all_shards() {
        let q = sharded(4, RoutePolicy::RoundRobin);
        q.reset_stats();
        for i in 0..40u64 {
            q.enqueue(0, i + 1);
        }
        let per_shard = q.per_shard_stats();
        assert_eq!(per_shard.len(), 4);
        let total: StatsSnapshot = per_shard.iter().sum();
        assert_eq!(q.stats(), total);
        // Every shard did one fence per enqueue (OptUnlinked's bound) and
        // the aggregate is their sum.
        assert_eq!(total.fences, 40);
        for s in &per_shard {
            assert_eq!(s.fences, 10);
        }
        q.reset_stats();
        assert_eq!(q.stats(), StatsSnapshot::default());
    }

    #[test]
    fn dequeue_scans_past_the_routed_shard() {
        let q = sharded(4, RoutePolicy::RoundRobin);
        // Put a single item on one shard only; every dequeue must find it
        // no matter where its scan starts.
        q.enqueue(0, 42);
        assert_eq!(q.dequeue(1), Some(42));
        assert_eq!(q.dequeue(1), None);
    }

    #[test]
    fn balanced_config_scales_areas_and_floors_the_pool() {
        let q = QueueConfig {
            max_threads: 16,
            area_size: 4 << 20,
        };
        let cfg = ShardConfig::balanced(
            8,
            q,
            256 << 20,
            PoolConfig::small_test(),
            RoutePolicy::KeyHash,
        );
        // Areas shrink with the shard count; the budget splits evenly.
        assert_eq!(cfg.queue.area_size, 512 * 1024);
        assert_eq!(cfg.pool.size, 32 << 20);
        assert_eq!(cfg.policy, RoutePolicy::KeyHash);
        // Every shard fits two scaled areas per thread plus slack, even
        // when the budget is far too small.
        let starved = ShardConfig::balanced(
            8,
            q,
            1 << 20,
            PoolConfig::small_test(),
            RoutePolicy::RoundRobin,
        );
        assert!(starved.pool.size >= 16 * (512 * 1024) * 2 + (16 << 20));
        // The area floor keeps tiny configurations usable.
        let tiny = ShardConfig::balanced(
            64,
            QueueConfig::small_test(),
            1 << 20,
            PoolConfig::small_test(),
            RoutePolicy::RoundRobin,
        );
        assert_eq!(tiny.queue.area_size, 256 * 1024);
    }

    #[test]
    #[should_panic(expected = "at least 1 shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedQueue::<OptUnlinkedQueue>::create(ShardConfig::small_test(0));
    }
}
