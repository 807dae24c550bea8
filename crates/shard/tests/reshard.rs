//! Elastic-reshard correctness: property-tested split/merge over every
//! shard-count pair in {1,2,4,8} (both directions). A SIGKILL or abort
//! inside `reshard_dir` is a row of the crash driver's table
//! (`crates/harness/tests/reshard.rs`).
//!
//! Invariants checked after every reshard: nothing lost, nothing
//! duplicated, and — under the key-hash policy — per-key FIFO order
//! intact, including for items enqueued *after* the reshard (which must
//! land behind their key's moved items).

use durable_queues::{DurableQueue, KeyedQueue, OptUnlinkedQueue, QueueConfig};
use proptest::prelude::*;
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig, ShardedQueue};
use std::collections::HashMap;
use std::path::PathBuf;
use store::FileConfig;

const COUNTS: [usize; 4] = [1, 2, 4, 8];

fn queue_config() -> QueueConfig {
    QueueConfig::small_test()
}

fn shard_config(shards: usize, policy: RoutePolicy) -> ShardConfig {
    ShardConfig {
        shards,
        queue: queue_config(),
        pool: pmem::PoolConfig::test_with_size(4 << 20),
        policy,
    }
}

fn small_file() -> FileConfig {
    FileConfig::with_size(2 << 20)
}

fn encode(key: u64, seq: u64) -> u64 {
    (key << 32) | seq
}

fn decode(v: u64) -> (u64, u64) {
    (v >> 32, v & 0xFFFF_FFFF)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reshard-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drains every shard of `queue` and checks the per-key FIFO, no-loss and
/// no-duplication conditions against `expected` (key -> highest seq).
fn check_drain(queue: &ShardedQueue<OptUnlinkedQueue>, expected: &HashMap<u64, u64>) {
    let mut last_seq: HashMap<u64, u64> = HashMap::new();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    while let Some(v) = queue.dequeue(0) {
        let (key, seq) = decode(v);
        assert!(expected.contains_key(&key), "invented key {key}");
        if let Some(&prev) = last_seq.get(&key) {
            assert!(
                seq > prev,
                "per-key FIFO violated for key {key}: {seq} after {prev}"
            );
        }
        last_seq.insert(key, seq);
        *counts.entry(key).or_default() += 1;
    }
    for (&key, &per_key) in expected {
        assert_eq!(
            counts.get(&key).copied().unwrap_or(0),
            per_key,
            "key {key} lost or duplicated items"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random item sets and keys survive a keyhash reshard N -> N'
    /// (both split and merge directions are drawn) with per-key FIFO
    /// intact, also for items enqueued after the reshard.
    #[test]
    fn keyhash_reshard_loses_nothing_and_keeps_per_key_fifo(
        from_idx in 0usize..4,
        to_idx in 0usize..4,
        key_count in 3u64..10,
        per_key in 5u64..30,
        seed in 0u64..1_000_000,
    ) {
        let (from, to) = (COUNTS[from_idx], COUNTS[to_idx]);
        let dir = temp_dir(&format!("prop-{from}-{to}-{seed}"));
        let orch = RecoveryOrchestrator::new(4);
        {
            let q: ShardedQueue<OptUnlinkedQueue> = orch
                .create_dir(&dir, shard_config(from, RoutePolicy::KeyHash), small_file())
                .unwrap();
            // Seeded interleaving across keys (SplitMix-ish picks).
            let mut next_seq: HashMap<u64, u64> = (0..key_count).map(|k| (k, 1)).collect();
            let mut state = seed | 1;
            let mut remaining = key_count * per_key;
            while remaining > 0 {
                state = state
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0xD1B5_4A32_D192_ED03);
                let pick = (state >> 33) % key_count;
                let key = (0..key_count)
                    .map(|i| (pick + i) % key_count)
                    .find(|k| next_seq[k] <= per_key)
                    .unwrap();
                let seq = next_seq[&key];
                q.enqueue_keyed(0, key, encode(key, seq));
                next_seq.insert(key, seq + 1);
                remaining -= 1;
            }
        }

        let report = orch
            .reshard_dir_with::<OptUnlinkedQueue>(&dir, to, queue_config(), None, |v| v >> 32)
            .unwrap();
        prop_assert_eq!(report.from, from);
        prop_assert_eq!(report.to, to);
        prop_assert_eq!(report.items_moved, key_count * per_key);

        let (q, _, manifest) = orch
            .open_dir::<OptUnlinkedQueue>(&dir, queue_config())
            .unwrap();
        prop_assert_eq!(manifest.shards(), to);
        // Post-reshard keyed traffic joins the moved items in order.
        for key in 0..key_count {
            q.enqueue_keyed(0, key, encode(key, per_key + 1));
        }
        let expected: HashMap<u64, u64> = (0..key_count).map(|k| (k, per_key + 1)).collect();
        check_drain(&q, &expected);
        drop(q);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every (N, N') pair in {1,2,4,8}² — including N = N' compaction — under
/// round-robin routing: the item multiset is exactly preserved.
#[test]
fn every_count_pair_preserves_the_item_set_round_robin() {
    let orch = RecoveryOrchestrator::new(4);
    for from in COUNTS {
        for to in COUNTS {
            let dir = temp_dir(&format!("pairs-{from}-{to}"));
            {
                let q: ShardedQueue<OptUnlinkedQueue> = orch
                    .create_dir(
                        &dir,
                        shard_config(from, RoutePolicy::RoundRobin),
                        small_file(),
                    )
                    .unwrap();
                for i in 1..=120u64 {
                    q.enqueue(0, i);
                }
                // A few dequeues so the residue is not just "everything".
                for _ in 0..20 {
                    q.dequeue(0).unwrap();
                }
            }
            let report = orch
                .reshard_dir_with::<OptUnlinkedQueue>(
                    &dir,
                    to,
                    queue_config(),
                    Some(small_file()),
                    |v| v,
                )
                .unwrap();
            assert_eq!((report.from, report.to), (from, to));
            assert_eq!(report.items_moved, 100, "{from} -> {to}");

            let (q, _, manifest) = orch
                .open_dir::<OptUnlinkedQueue>(&dir, queue_config())
                .unwrap();
            assert_eq!(manifest.shards(), to, "{from} -> {to}");
            let mut got: Vec<u64> = std::iter::from_fn(|| q.dequeue(0)).collect();
            got.sort_unstable();
            assert_eq!(got, (21..=120).collect::<Vec<_>>(), "{from} -> {to}");
            drop(q);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
