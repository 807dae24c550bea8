//! Routing policies: which shard an operation lands on.
//!
//! A policy decides two things: the shard an enqueue appends to, and the
//! shard a dequeue *starts* at (the sharded queue scans the remaining shards
//! in ring order before reporting empty, so routing never loses items — it
//! only shapes locality and balance).

use obs::rows::CachePadded;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// How traffic is partitioned across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RoutePolicy {
    /// Each thread cycles through the shards independently. Perfectly even
    /// in steady state, with no shared routing state on the hot path.
    #[default]
    RoundRobin,
    /// `enqueue_keyed` hashes the key to a shard, so all items with the same
    /// key land on the same shard (per-key FIFO order). Plain enqueues hash
    /// the thread id instead, preserving per-producer FIFO order.
    KeyHash,
    /// Enqueue to the shallowest shard and dequeue from the deepest, using
    /// per-shard depth estimates maintained by the sharded queue.
    LoadAware,
}

impl RoutePolicy {
    /// Every policy, for sweeps and tests.
    pub fn all() -> Vec<RoutePolicy> {
        vec![
            RoutePolicy::RoundRobin,
            RoutePolicy::KeyHash,
            RoutePolicy::LoadAware,
        ]
    }

    /// Short identifier used on the command line.
    pub fn key(&self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::KeyHash => "keyhash",
            RoutePolicy::LoadAware => "load",
        }
    }

    /// Parses a (case-insensitive) policy name.
    pub fn parse(s: &str) -> Option<RoutePolicy> {
        match s.to_ascii_lowercase().as_str() {
            "rr" | "roundrobin" | "round-robin" => Some(RoutePolicy::RoundRobin),
            "keyhash" | "key-hash" | "hash" => Some(RoutePolicy::KeyHash),
            "load" | "loadaware" | "load-aware" => Some(RoutePolicy::LoadAware),
            _ => None,
        }
    }
}

/// SplitMix64 finaliser — a cheap, well-mixed hash for shard selection.
#[inline]
pub(crate) fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The routing state of one sharded queue: per-thread ring positions (for
/// round-robin enqueues and for dequeue starting points under every policy)
/// plus the per-shard depth estimates the load-aware policy reads.
pub(crate) struct Router {
    policy: RoutePolicy,
    shards: usize,
    /// Per-thread enqueue ring position (round-robin).
    enq_pos: Box<[CachePadded<AtomicUsize>]>,
    /// Per-thread dequeue ring position.
    deq_pos: Box<[CachePadded<AtomicUsize>]>,
    /// Per-shard queue-depth estimates: incremented on enqueue, decremented
    /// on successful dequeue. Estimates, not truths — concurrent operations
    /// and recovery reset them — so they only ever steer, never gate.
    depths: Box<[CachePadded<AtomicI64>]>,
}

impl Router {
    pub(crate) fn new(policy: RoutePolicy, shards: usize, max_threads: usize) -> Router {
        // Stagger the starting points so thread t does not collide with
        // every other thread on shard 0 at startup.
        let pos = || {
            (0..max_threads)
                .map(|t| CachePadded::new(AtomicUsize::new(t % shards.max(1))))
                .collect()
        };
        Router {
            policy,
            shards,
            enq_pos: pos(),
            deq_pos: pos(),
            depths: (0..shards)
                .map(|_| CachePadded::new(AtomicI64::new(0)))
                .collect(),
        }
    }

    pub(crate) fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The shard a keyed enqueue lands on (always key-hashed, regardless of
    /// policy — that is the contract of `enqueue_keyed`).
    #[inline]
    pub(crate) fn shard_for_key(&self, key: u64) -> usize {
        (mix(key) % self.shards as u64) as usize
    }

    /// The shard a plain enqueue by `tid` lands on.
    #[inline]
    pub(crate) fn enqueue_shard(&self, tid: usize) -> usize {
        match self.policy {
            RoutePolicy::RoundRobin => {
                self.enq_pos[tid].fetch_add(1, Ordering::Relaxed) % self.shards
            }
            RoutePolicy::KeyHash => self.shard_for_key(tid as u64),
            RoutePolicy::LoadAware => self.shallowest_shard(),
        }
    }

    /// The shard a dequeue by `tid` starts scanning at.
    #[inline]
    pub(crate) fn dequeue_start(&self, tid: usize) -> usize {
        match self.policy {
            RoutePolicy::RoundRobin | RoutePolicy::KeyHash => {
                self.deq_pos[tid].fetch_add(1, Ordering::Relaxed) % self.shards
            }
            RoutePolicy::LoadAware => self.deepest_shard(),
        }
    }

    #[inline]
    pub(crate) fn note_enqueue(&self, shard: usize) {
        self.depths[shard].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn note_dequeue(&self, shard: usize) {
        self.depths[shard].fetch_sub(1, Ordering::Relaxed);
    }

    /// Current per-shard depth estimates.
    pub(crate) fn depths(&self) -> Vec<i64> {
        self.depths
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    fn shallowest_shard(&self) -> usize {
        let mut best = 0;
        let mut best_depth = i64::MAX;
        for (i, d) in self.depths.iter().enumerate() {
            let depth = d.load(Ordering::Relaxed);
            if depth < best_depth {
                best = i;
                best_depth = depth;
            }
        }
        best
    }

    fn deepest_shard(&self) -> usize {
        let mut best = 0;
        let mut best_depth = i64::MIN;
        for (i, d) in self.depths.iter().enumerate() {
            let depth = d.load(Ordering::Relaxed);
            if depth > best_depth {
                best = i;
                best_depth = depth;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_keys_parse() {
        for p in RoutePolicy::all() {
            assert_eq!(RoutePolicy::parse(p.key()), Some(p));
        }
        assert_eq!(RoutePolicy::parse("bogus"), None);
        assert_eq!(RoutePolicy::default(), RoutePolicy::RoundRobin);
    }

    #[test]
    fn round_robin_cycles_every_shard_per_thread() {
        let r = Router::new(RoutePolicy::RoundRobin, 4, 2);
        let first: Vec<usize> = (0..8).map(|_| r.enqueue_shard(0)).collect();
        assert_eq!(first, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // An independent thread also cycles all shards.
        let second: Vec<usize> = (0..4).map(|_| r.enqueue_shard(1)).collect();
        let mut sorted = second.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn key_hash_is_stable_and_spread() {
        let r = Router::new(RoutePolicy::KeyHash, 8, 1);
        for key in 0..64u64 {
            assert_eq!(r.shard_for_key(key), r.shard_for_key(key));
        }
        let hit: std::collections::HashSet<usize> =
            (0..64u64).map(|k| r.shard_for_key(k)).collect();
        assert!(hit.len() > 4, "64 keys hit only {} of 8 shards", hit.len());
    }

    #[test]
    fn load_aware_targets_shallow_and_deep_shards() {
        let r = Router::new(RoutePolicy::LoadAware, 3, 1);
        r.note_enqueue(0);
        r.note_enqueue(0);
        r.note_enqueue(2);
        // Shard 1 is empty: enqueues go there, dequeues start at shard 0.
        assert_eq!(r.enqueue_shard(0), 1);
        assert_eq!(r.dequeue_start(0), 0);
        r.note_dequeue(0);
        r.note_dequeue(0);
        assert_eq!(r.dequeue_start(0), 2);
        assert_eq!(r.depths(), vec![0, 0, 1]);
    }
}
