//! The set of evaluated queue algorithms, as named in the paper's Figure 2.

use durable_queues::{
    DurableMsQueue, DurableQueue, IzraelevitzQueue, LinkedQueue, MsQueue, NvTraverseQueue,
    OptLinkedQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue, UnlinkedQueue,
};
use pmem::PmemPool;
use ptm::{OneFileLiteQueue, RedoOptLiteQueue};
use shard::{ShardConfig, ShardedQueue};
use std::sync::Arc;

/// Dispatches from a runtime [`Algorithm`] value to its concrete
/// [`RecoverableQueue`] type: `with_recoverable!(alg, Q => expr)` evaluates
/// `expr` with `Q` bound to the algorithm's type. This is how generic
/// compositions (`ShardedQueue<Q>`, `persist_counts::<Q>`) are driven from
/// command-line algorithm names.
#[macro_export]
macro_rules! with_recoverable {
    ($alg:expr, $Q:ident => $body:expr) => {{
        use $crate::algorithms::Algorithm;
        match $alg {
            Algorithm::Msq => {
                type $Q = $crate::durable_queues::MsQueue;
                $body
            }
            Algorithm::DurableMsq => {
                type $Q = $crate::durable_queues::DurableMsQueue;
                $body
            }
            Algorithm::Izraelevitz => {
                type $Q = $crate::durable_queues::IzraelevitzQueue;
                $body
            }
            Algorithm::NvTraverse => {
                type $Q = $crate::durable_queues::NvTraverseQueue;
                $body
            }
            Algorithm::Unlinked => {
                type $Q = $crate::durable_queues::UnlinkedQueue;
                $body
            }
            Algorithm::Linked => {
                type $Q = $crate::durable_queues::LinkedQueue;
                $body
            }
            Algorithm::OptUnlinked => {
                type $Q = $crate::durable_queues::OptUnlinkedQueue;
                $body
            }
            Algorithm::OptLinked => {
                type $Q = $crate::durable_queues::OptLinkedQueue;
                $body
            }
            Algorithm::OneFileLite => {
                type $Q = $crate::ptm::OneFileLiteQueue;
                $body
            }
            Algorithm::RedoOptLite => {
                type $Q = $crate::ptm::RedoOptLiteQueue;
                $body
            }
        }
    }};
}

/// Every queue algorithm the harness can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Volatile Michael–Scott queue (not in the paper's figure; reference only).
    Msq,
    /// Thinned Friedman et al. queue — the ratio baseline of Figure 2.
    DurableMsq,
    /// General-transform baseline.
    Izraelevitz,
    /// NVTraverse baseline.
    NvTraverse,
    /// First amendment, unlinked.
    Unlinked,
    /// First amendment, linked.
    Linked,
    /// Second amendment, unlinked.
    OptUnlinked,
    /// Second amendment, linked.
    OptLinked,
    /// PTM baseline with eager log persistence (stands in for OneFileQ).
    OneFileLite,
    /// PTM baseline with batched log persistence (stands in for RedoOptQ).
    RedoOptLite,
}

impl Algorithm {
    /// The nine durable queues evaluated in the paper's Figure 2 (in the
    /// legend's order), i.e. everything except the volatile MSQ.
    pub fn figure2_set() -> Vec<Algorithm> {
        vec![
            Algorithm::OptUnlinked,
            Algorithm::OptLinked,
            Algorithm::Unlinked,
            Algorithm::Linked,
            Algorithm::DurableMsq,
            Algorithm::Izraelevitz,
            Algorithm::NvTraverse,
            Algorithm::OneFileLite,
            Algorithm::RedoOptLite,
        ]
    }

    /// Every implemented algorithm.
    pub fn all() -> Vec<Algorithm> {
        let mut v = vec![Algorithm::Msq];
        v.extend(Self::figure2_set());
        v
    }

    /// The algorithm's display name (the paper's legend label where one exists).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Msq => "MSQ (volatile)",
            Algorithm::DurableMsq => "DurableMSQ",
            Algorithm::Izraelevitz => "IzraelevitzQ",
            Algorithm::NvTraverse => "NVTraverseQ",
            Algorithm::Unlinked => "UnlinkedQ",
            Algorithm::Linked => "LinkedQ",
            Algorithm::OptUnlinked => "OptUnlinkedQ",
            Algorithm::OptLinked => "OptLinkedQ",
            Algorithm::OneFileLite => "OneFileLiteQ",
            Algorithm::RedoOptLite => "RedoOptLiteQ",
        }
    }

    /// Parses a (case-insensitive) algorithm name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        let k = s
            .to_ascii_lowercase()
            .replace(['-', '_', ' ', '(', ')'], "");
        Some(match k.as_str() {
            "msq" | "msqvolatile" => Algorithm::Msq,
            "durablemsq" | "friedman" => Algorithm::DurableMsq,
            "izraelevitz" | "izraelevitzq" => Algorithm::Izraelevitz,
            "nvtraverse" | "nvtraverseq" => Algorithm::NvTraverse,
            "unlinked" | "unlinkedq" => Algorithm::Unlinked,
            "linked" | "linkedq" => Algorithm::Linked,
            "optunlinked" | "optunlinkedq" => Algorithm::OptUnlinked,
            "optlinked" | "optlinkedq" => Algorithm::OptLinked,
            "onefile" | "onefilelite" | "onefileliteq" | "onefileq" => Algorithm::OneFileLite,
            "redoopt" | "redooptlite" | "redooptliteq" | "redooptq" => Algorithm::RedoOptLite,
            _ => return None,
        })
    }

    /// Builds a fresh queue of this algorithm on `pool`.
    pub fn create(&self, pool: Arc<PmemPool>, config: QueueConfig) -> Arc<dyn DurableQueue> {
        match self {
            Algorithm::Msq => Arc::new(MsQueue::create(pool, config)),
            Algorithm::DurableMsq => Arc::new(DurableMsQueue::create(pool, config)),
            Algorithm::Izraelevitz => Arc::new(IzraelevitzQueue::create(pool, config)),
            Algorithm::NvTraverse => Arc::new(NvTraverseQueue::create(pool, config)),
            Algorithm::Unlinked => Arc::new(UnlinkedQueue::create(pool, config)),
            Algorithm::Linked => Arc::new(LinkedQueue::create(pool, config)),
            Algorithm::OptUnlinked => Arc::new(OptUnlinkedQueue::create(pool, config)),
            Algorithm::OptLinked => Arc::new(OptLinkedQueue::create(pool, config)),
            Algorithm::OneFileLite => Arc::new(OneFileLiteQueue::create(pool, config)),
            Algorithm::RedoOptLite => Arc::new(RedoOptLiteQueue::create(pool, config)),
        }
    }

    /// Runs this algorithm's recovery procedure on a crashed-and-restarted
    /// pool.
    pub fn recover(&self, pool: Arc<PmemPool>, config: QueueConfig) -> Arc<dyn DurableQueue> {
        match self {
            Algorithm::Msq => Arc::new(MsQueue::recover(pool, config)),
            Algorithm::DurableMsq => Arc::new(DurableMsQueue::recover(pool, config)),
            Algorithm::Izraelevitz => Arc::new(IzraelevitzQueue::recover(pool, config)),
            Algorithm::NvTraverse => Arc::new(NvTraverseQueue::recover(pool, config)),
            Algorithm::Unlinked => Arc::new(UnlinkedQueue::recover(pool, config)),
            Algorithm::Linked => Arc::new(LinkedQueue::recover(pool, config)),
            Algorithm::OptUnlinked => Arc::new(OptUnlinkedQueue::recover(pool, config)),
            Algorithm::OptLinked => Arc::new(OptLinkedQueue::recover(pool, config)),
            Algorithm::OneFileLite => Arc::new(OneFileLiteQueue::recover(pool, config)),
            Algorithm::RedoOptLite => Arc::new(RedoOptLiteQueue::recover(pool, config)),
        }
    }

    /// Builds a fresh [`ShardedQueue`] of this algorithm: `config.shards`
    /// shards, each on its own fresh pool.
    pub fn create_sharded(&self, config: ShardConfig) -> Arc<dyn DurableQueue> {
        with_recoverable!(*self, Q => Arc::new(ShardedQueue::<Q>::create(config)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;

    #[test]
    fn parse_roundtrips_every_name() {
        for alg in Algorithm::all() {
            assert_eq!(Algorithm::parse(alg.name()), Some(alg), "{}", alg.name());
        }
        assert_eq!(Algorithm::parse("nonsense"), None);
    }

    #[test]
    fn figure2_set_has_nine_queues_and_excludes_msq() {
        let set = Algorithm::figure2_set();
        assert_eq!(set.len(), 9);
        assert!(!set.contains(&Algorithm::Msq));
    }

    /// Every algorithm records a tag of its own, so no pool can be
    /// recovered by another.
    #[test]
    fn every_algorithm_has_a_distinct_tag() {
        let tags: Vec<[u8; 8]> = Algorithm::all()
            .into_iter()
            .map(|alg| with_recoverable!(alg, Q => Q::TAG))
            .collect();
        let distinct: std::collections::BTreeSet<_> = tags.iter().collect();
        assert_eq!(distinct.len(), tags.len(), "{tags:?}");
        assert!(!distinct.contains(&[0; 8]), "{tags:?}");
    }

    #[test]
    fn every_algorithm_builds_and_works() {
        for alg in Algorithm::all() {
            let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(16 << 20)));
            let q = alg.create(pool, QueueConfig::small_test());
            q.enqueue(0, 1);
            q.enqueue(0, 2);
            assert_eq!(q.dequeue(0), Some(1), "{}", alg.name());
            assert_eq!(q.dequeue(0), Some(2));
            assert_eq!(q.dequeue(0), None);
        }
    }

    #[test]
    fn every_durable_algorithm_recovers_its_content() {
        for alg in Algorithm::figure2_set() {
            let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(16 << 20)));
            let q = alg.create(Arc::clone(&pool), QueueConfig::small_test());
            for i in 1..=10 {
                q.enqueue(0, i);
            }
            assert_eq!(q.dequeue(0), Some(1));
            let recovered_pool = Arc::new(pool.simulate_crash());
            let r = alg.recover(recovered_pool, QueueConfig::small_test());
            let rest: Vec<u64> = std::iter::from_fn(|| r.dequeue(0)).collect();
            assert_eq!(rest, (2..=10).collect::<Vec<_>>(), "{}", alg.name());
        }
    }
}
