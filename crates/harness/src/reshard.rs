//! The `harness reshard` verb: split or merge a file-backed shard
//! directory on the command line. The SIGKILL-mid-reshard round
//! `harness restart` ends with, and the reshard abort points, are the
//! reshard shape of the crash driver ([`crate::crash`]).
//!
//! ```text
//! harness reshard --dir D --to N' [--algo A] [--create N --items M]
//!                 [--policy P] [--sync S] [--verify] [--expect M]
//!                 [--key-shift B]
//! ```
//!
//! With `--create N` (and no manifest in `--dir`) the verb first creates an
//! N-shard directory seeded with `--items` known items, then reshards it to
//! `--to` and verifies the full item set survived — the zero-loss check CI
//! runs. On a pre-existing directory, `--verify` drains every destination
//! shard, checks for duplicates (and `--expect M` for the exact count),
//! and restores the items in order, so the verification is non-destructive.
//!
//! Key-hash directories re-route each drained item by its key; the verb
//! decodes keys as `item >> key_shift` (default 0: the item is its own
//! key, with a warning, since a directory whose keys live in the items'
//! high bits must pass the real shift to keep per-key FIFO).

use crate::algorithms::Algorithm;
use crate::with_recoverable;
use durable_queues::{DurableQueue, QueueConfig, RecoverableQueue};
use shard::{RecoveryOrchestrator, ReshardReport, RoutePolicy, ShardConfig, ShardedQueue};
use std::collections::BTreeSet;
use std::path::PathBuf;
use store::{FileConfig, SyncPolicy};

/// Configuration of one `harness reshard` invocation.
#[derive(Clone, Debug)]
pub struct ReshardVerbConfig {
    /// The shard directory to reshard.
    pub dir: PathBuf,
    /// Destination shard count.
    pub to: usize,
    /// The algorithm stored in the directory.
    pub algorithm: Algorithm,
    /// Create the directory first with this many shards (requires the
    /// directory to have no manifest yet).
    pub create: Option<usize>,
    /// Items to seed when creating (values `1..=items`).
    pub items: u64,
    /// Routing policy when creating.
    pub policy: RoutePolicy,
    /// Fence durability policy of the pool files.
    pub sync: SyncPolicy,
    /// Per-pool file size in bytes when creating.
    pub pool_bytes: usize,
    /// Drain-and-restore every destination shard after the reshard to
    /// check for loss/duplication (automatic when the verb seeded the
    /// directory itself).
    pub verify: bool,
    /// With `--verify`: assert the directory holds exactly this many items.
    pub expect: Option<u64>,
    /// Key decoder for key-hash directories: an item's key is `item >>
    /// key_shift` (0 = the item is its own key). `None` assumes identity
    /// and warns when the directory routes by key hash, because items
    /// whose keys are encoded in their high bits would be re-routed by
    /// the wrong key and lose per-key FIFO for future keyed enqueues.
    pub key_shift: Option<u32>,
}

impl Default for ReshardVerbConfig {
    fn default() -> Self {
        ReshardVerbConfig {
            dir: std::env::temp_dir().join(format!("harness-reshard-{}", std::process::id())),
            to: 2,
            algorithm: Algorithm::OptUnlinked,
            create: None,
            items: 10_000,
            policy: RoutePolicy::RoundRobin,
            sync: SyncPolicy::ProcessCrash,
            pool_bytes: 64 << 20,
            verify: false,
            expect: None,
            key_shift: None,
        }
    }
}

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_threads: 8,
        area_size: 1 << 20,
    }
}

/// Drains every shard of `queue` (recording the items in per-shard order)
/// and immediately re-enqueues them shard by shard, so the directory's
/// content and per-shard order are unchanged. Returns the drained items.
fn drain_and_restore<Q: RecoverableQueue>(queue: &ShardedQueue<Q>) -> Vec<u64> {
    let mut all = Vec::new();
    for i in 0..queue.shard_count() {
        let start = all.len();
        while let Some(v) = queue.shard(i).dequeue(0) {
            all.push(v);
        }
        for &v in &all[start..] {
            queue.shard(i).enqueue(0, v);
        }
    }
    all
}

/// Runs one `harness reshard` invocation end to end; panics (non-zero
/// exit) on any violated guarantee. Returns the reshard report.
pub fn run_reshard(cfg: &ReshardVerbConfig) -> ReshardReport {
    let orch = RecoveryOrchestrator::available_parallelism();
    let manifest_exists = cfg.dir.join(shard::MANIFEST_FILE).exists();
    let seeded = match cfg.create {
        Some(shards) if !manifest_exists => {
            with_recoverable!(cfg.algorithm, Q => {
                let queue: ShardedQueue<Q> = orch
                    .create_dir(
                        &cfg.dir,
                        ShardConfig {
                            shards,
                            queue: queue_config(),
                            pool: pmem::PoolConfig::test_with_size(cfg.pool_bytes),
                            policy: cfg.policy,
                        },
                        FileConfig::with_size(cfg.pool_bytes).with_sync(cfg.sync),
                    )
                    .expect("reshard: create directory");
                // Under key-hash routing a plain enqueue hashes the thread
                // id, which would pile every seeded item onto one shard;
                // seed each item under its own key instead, matching the
                // identity key extraction the reshard uses.
                use durable_queues::KeyedQueue;
                let key_shift = cfg.key_shift.unwrap_or(0);
                for v in 1..=cfg.items {
                    match cfg.policy {
                        RoutePolicy::KeyHash => queue.enqueue_keyed(0, v >> key_shift, v),
                        _ => queue.enqueue(0, v),
                    }
                }
            });
            println!(
                "created {} with {} shards ({} routing), seeded {} items",
                cfg.dir.display(),
                shards,
                cfg.policy.key(),
                cfg.items
            );
            true
        }
        Some(_) => {
            println!(
                "{} already holds a manifest; resharding it as-is",
                cfg.dir.display()
            );
            false
        }
        None => false,
    };

    if cfg.key_shift.is_none() {
        if let Ok(manifest) = shard::ShardManifest::read(&cfg.dir) {
            if manifest.policy == RoutePolicy::KeyHash {
                eprintln!(
                    "reshard: key-hash directory, assuming each item is its own key; \
                     pass --key-shift B if keys live in the items' high bits, or \
                     per-key FIFO will not survive for future keyed enqueues"
                );
            }
        }
    }
    let key_shift = cfg.key_shift.unwrap_or(0);
    let report = with_recoverable!(cfg.algorithm, Q => orch
        .reshard_dir_with::<Q>(&cfg.dir, cfg.to, queue_config(), None, |v| v >> key_shift)
        .expect("reshard failed"));
    println!("reshard {}: {}", cfg.algorithm.name(), report.summary());

    if seeded || cfg.verify {
        let drained = with_recoverable!(cfg.algorithm, Q => {
            let (queue, _, manifest) = orch
                .open_dir::<Q>(&cfg.dir, queue_config())
                .expect("reopen resharded directory");
            assert_eq!(manifest.shards(), cfg.to, "manifest must record the new count");
            drain_and_restore(&queue)
        });
        let unique: BTreeSet<u64> = drained.iter().copied().collect();
        assert_eq!(unique.len(), drained.len(), "duplicated item after reshard");
        if seeded {
            let expected: BTreeSet<u64> = (1..=cfg.items).collect();
            assert_eq!(unique, expected, "item set changed across the reshard");
        }
        if let Some(expect) = cfg.expect {
            assert_eq!(
                drained.len() as u64,
                expect,
                "directory holds {} items, expected {expect}",
                drained.len()
            );
        }
        println!(
            "verified: {} items across {} shards, no loss, no duplication",
            drained.len(),
            cfg.to
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshard_verb_seeds_splits_and_verifies() {
        let dir = std::env::temp_dir().join(format!("harness-reshard-verb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ReshardVerbConfig {
            dir: dir.clone(),
            to: 4,
            create: Some(2),
            items: 600,
            pool_bytes: 8 << 20,
            ..ReshardVerbConfig::default()
        };
        let report = run_reshard(&cfg);
        assert_eq!((report.from, report.to), (2, 4));
        assert_eq!(report.items_moved, 600);
        // Second invocation on the now-existing directory: merge back with
        // an exact-count verification (the non-destructive path).
        let cfg = ReshardVerbConfig {
            dir: dir.clone(),
            to: 1,
            create: None,
            verify: true,
            expect: Some(600),
            ..cfg
        };
        let report = run_reshard(&cfg);
        assert_eq!((report.from, report.to), (4, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reshard_verb_spreads_keyhash_seeds_and_honors_key_shift() {
        let dir = std::env::temp_dir().join(format!("harness-reshard-kh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ReshardVerbConfig {
            dir: dir.clone(),
            to: 2,
            create: Some(4),
            items: 400,
            policy: RoutePolicy::KeyHash,
            pool_bytes: 8 << 20,
            key_shift: Some(3),
            ..ReshardVerbConfig::default()
        };
        let report = run_reshard(&cfg);
        assert_eq!((report.from, report.to), (4, 2));
        assert_eq!(report.items_moved, 400);
        // Keyed seeding spread the items: after the merge, both shards
        // hold something (identity seeding under keyhash would have put
        // everything on thread-0's shard).
        let orch = RecoveryOrchestrator::new(2);
        let (queue, _, _) = orch
            .open_dir::<durable_queues::OptUnlinkedQueue>(&dir, queue_config())
            .unwrap();
        for i in 0..2 {
            assert!(
                queue.shard(i).dequeue(0).is_some(),
                "shard {i} is empty — keyed seeding failed to spread"
            );
        }
        drop(queue);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drain_and_restore_is_identity_on_shard_content() {
        use durable_queues::OptUnlinkedQueue;
        let q = ShardedQueue::<OptUnlinkedQueue>::create(ShardConfig {
            shards: 4,
            queue: QueueConfig::small_test(),
            pool: pmem::PoolConfig::test_with_size(8 << 20),
            policy: RoutePolicy::RoundRobin,
        });
        for i in 1..=100u64 {
            q.enqueue(0, i);
        }
        let drained = drain_and_restore(&q);
        assert_eq!(drained.len(), 100);
        // The queue still holds everything, in the same per-shard order.
        let again = drain_and_restore(&q);
        assert_eq!(drained, again);
    }
}
