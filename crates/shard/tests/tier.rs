//! A directory's durability tier is recorded in its pools at creation, so
//! a plain `open_dir` reopens a power-fail directory power-fail — its
//! fences group-commit — a reshard's destinations inherit it, and a
//! directory whose pools disagree is refused naming the odd pool.

use durable_queues::testkit::subprocess::scratch_dir;
use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig, ShardManifest, ShardedQueue};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use store::{FileConfig, FilePool, SyncPolicy};

const ITEMS: u64 = 200;

/// `store.fence.*` is process-global: the tests that fence power-fail
/// pools run one at a time, so an exact delta sees only its own fence.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A closed 2-shard OptUnlinkedQ directory of tier `sync` holding
/// `1..=ITEMS`.
fn two_shard_dir(tag: &str, sync: SyncPolicy) -> PathBuf {
    let dir = scratch_dir(tag);
    let config = ShardConfig {
        shards: 2,
        queue: QueueConfig::small_test(),
        pool: pmem::PoolConfig::test_with_size(8 << 20),
        policy: RoutePolicy::RoundRobin,
    };
    let file = FileConfig::with_size(8 << 20).with_sync(sync);
    let orch = RecoveryOrchestrator::new(2);
    let queue: ShardedQueue<OptUnlinkedQueue> = orch.create_dir(&dir, config, file).unwrap();
    (1..=ITEMS).for_each(|i| queue.enqueue(0, i));
    dir
}

fn tiers(dir: &Path) -> Vec<SyncPolicy> {
    let pools = ShardManifest::read(dir).unwrap().pool_paths(dir);
    pools
        .iter()
        .map(|p| FilePool::read_geometry(p).unwrap().sync)
        .collect()
}

/// Reopens `dir` with plain `open_dir`, checks every item is there, and
/// that one fence on a shard's pool leads a group-commit batch of its own.
fn reopens_power_fail(dir: &Path) {
    let orch = RecoveryOrchestrator::new(2);
    let (queue, ..) = orch
        .open_dir::<OptUnlinkedQueue>(dir, QueueConfig::small_test())
        .unwrap();
    let pool = queue.shard(0).pool();
    let off = pool.alloc_raw(64, 64);
    pool.store_u64(off, 7);
    pool.flush(0, off);
    let before = obs::snapshot();
    pool.sfence(0);
    let led = obs::snapshot().counter("store.fence.leader") - before.counter("store.fence.leader");
    assert_eq!(
        led, 1,
        "a fence of the reopened directory did not lead a batch"
    );
    let mut items: Vec<u64> = std::iter::from_fn(|| queue.dequeue(0)).collect();
    items.sort_unstable();
    assert_eq!(items, (1..=ITEMS).collect::<Vec<_>>());
}

#[test]
fn a_power_fail_directory_reopened_with_plain_open_dir_group_commits() {
    let _serial = serial();
    let dir = two_shard_dir("tier-reopen", SyncPolicy::PowerFail);
    reopens_power_fail(&dir);
    assert_eq!(tiers(&dir), [SyncPolicy::PowerFail; 2]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Destinations used to be created process-crash whatever the sources
/// were, so a resharded power-fail directory reopened process-crash.
#[test]
fn a_reshard_keeps_the_directory_power_fail() {
    let _serial = serial();
    let dir = two_shard_dir("tier-reshard", SyncPolicy::PowerFail);
    let orch = RecoveryOrchestrator::new(2);
    let report = orch.reshard_dir::<OptUnlinkedQueue>(&dir, 4, QueueConfig::small_test());
    assert_eq!(report.unwrap().items_moved, ITEMS);
    assert_eq!(tiers(&dir), [SyncPolicy::PowerFail; 4]);
    reopens_power_fail(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One pool recreated under the other tier: both `open_dir` and a reshard
/// refuse the directory, naming that pool, and touch nothing.
#[test]
fn a_directory_of_mixed_tiers_is_refused_naming_the_odd_pool() {
    let _serial = serial();
    let dir = two_shard_dir("tier-mixed", SyncPolicy::ProcessCrash);
    let odd = ShardManifest::read(&dir).unwrap().pool_paths(&dir)[1].clone();
    let file = FileConfig::with_size(8 << 20).with_sync(SyncPolicy::PowerFail);
    drop(OptUnlinkedQueue::create(
        FilePool::create(&odd, file).unwrap().into_pool(),
        QueueConfig::small_test(),
    ));
    let orch = RecoveryOrchestrator::new(2);
    let queue = QueueConfig::small_test();
    let opened = orch.open_dir::<OptUnlinkedQueue>(&dir, queue).map(|_| ());
    let resharded = orch
        .reshard_dir::<OptUnlinkedQueue>(&dir, 4, queue)
        .map(|_| ());
    for err in [opened.unwrap_err(), resharded.unwrap_err()] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        let named = msg.contains(&*odd.to_string_lossy()) && msg.contains("power-fail");
        assert!(named, "{msg}");
    }
    assert_eq!(
        ShardManifest::read(&dir).unwrap().shards(),
        2,
        "the reshard ran"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
