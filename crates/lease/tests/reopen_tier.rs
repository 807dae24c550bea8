//! A lease directory has one durability tier, its shards': the dead-letter
//! pools, and so the journals beside them, are created under it, a reopen
//! keeps it whatever the reopening config says, and a directory whose
//! dead-letter pool was created under another tier is refused naming it.
//!
//! `lease.force` is a process-global counter, so the tests here run one at
//! a time.

use durable_queues::testkit::subprocess::scratch_dir;
use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use lease::{
    create_grouped_dir, create_leased_dir, open_grouped_dir, GroupDirConfig, LeaseDirConfig,
    DLQ_POOL_FILE, GROUPS_DIR,
};
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use store::{FileConfig, FilePool, SyncPolicy};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn one_shard() -> ShardConfig {
    ShardConfig {
        shards: 1,
        queue: QueueConfig::small_test(),
        pool: pmem::PoolConfig::test_with_size(8 << 20),
        policy: RoutePolicy::RoundRobin,
    }
}

fn file(sync: SyncPolicy) -> FileConfig {
    FileConfig::with_size(8 << 20).with_sync(sync)
}

fn tier(pool: &Path) -> SyncPolicy {
    FilePool::read_geometry(pool).unwrap().sync
}

/// The journal forces `consume` costs.
fn forces(consume: impl FnOnce()) -> u64 {
    let before = obs::snapshot().counter("lease.force");
    consume();
    obs::snapshot().counter("lease.force") - before
}

/// A power-fail leased directory created with the default
/// `LeaseDirConfig` (whose `sync` says process-crash) has a power-fail
/// dead-letter pool and forces its ack log.
#[test]
fn a_power_fail_leased_dir_has_a_power_fail_dead_letter_pool_and_forces() {
    let _serial = serial();
    let dir = scratch_dir("lease-tier-leased");
    let orch = RecoveryOrchestrator::new(1);
    let lease = LeaseDirConfig::default();
    let queue = create_leased_dir::<OptUnlinkedQueue>(
        &orch,
        &dir,
        one_shard(),
        file(SyncPolicy::PowerFail),
        &lease,
    )
    .unwrap();
    assert_eq!(tier(&dir.join(DLQ_POOL_FILE)), SyncPolicy::PowerFail);
    queue.enqueue(0, 1);
    let forced = forces(|| queue.ack(&queue.dequeue(0).unwrap()).unwrap());
    assert!(
        forced > 0,
        "a consume + ack of a power-fail directory forced nothing"
    );
    drop(queue);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same for a grouped directory and its group's dead-letter pool.
#[test]
fn a_power_fail_grouped_dir_has_power_fail_dead_letter_pools_and_forces() {
    let _serial = serial();
    let dir = scratch_dir("lease-tier-grouped");
    let orch = RecoveryOrchestrator::new(1);
    let group = GroupDirConfig::new(["a"]);
    let queue = create_grouped_dir::<OptUnlinkedQueue>(
        &orch,
        &dir,
        one_shard(),
        file(SyncPolicy::PowerFail),
        &group,
    )
    .unwrap();
    let dlq = dir.join(GROUPS_DIR).join("a").join(DLQ_POOL_FILE);
    assert_eq!(tier(&dlq), SyncPolicy::PowerFail);
    queue.enqueue(0, 1);
    let a = queue.group("a").unwrap();
    let forced = forces(|| a.ack(&a.dequeue(0).unwrap()).unwrap());
    assert!(
        forced > 0,
        "a consume + ack of a power-fail directory forced nothing"
    );
    drop((a, queue));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_power_fail_grouped_dir_reopened_with_the_default_config_still_forces() {
    let _serial = serial();
    let dir = scratch_dir("lease-reopen-tier");
    let orch = RecoveryOrchestrator::new(1);
    let created = GroupDirConfig::new(["a"]);
    let file = file(SyncPolicy::PowerFail);
    let queue = create_grouped_dir::<OptUnlinkedQueue>(&orch, &dir, one_shard(), file, &created);
    let queue = queue.unwrap();
    (1..=3u64).for_each(|i| queue.enqueue(0, i));
    drop(queue);

    // `GroupDirConfig::new` asks for the process-crash default.
    let reopening = GroupDirConfig::new(["a"]);
    assert_eq!(reopening.sync, SyncPolicy::ProcessCrash);
    let opened = open_grouped_dir::<OptUnlinkedQueue>(
        &orch,
        &dir,
        QueueConfig::small_test(),
        &reopening,
        None,
    );
    let (queue, ..) = opened.unwrap();
    let group = queue.group("a").unwrap();
    let forced = forces(|| group.ack(&group.dequeue(0).unwrap()).unwrap());
    assert!(
        forced > 0,
        "a consume + ack of a power-fail journal forced nothing"
    );
    drop((group, queue));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A group's dead-letter pool recreated process-crash (same algorithm) in
/// a power-fail directory: the reopen refuses it, naming the pool.
#[test]
fn a_grouped_dir_with_a_dead_letter_pool_of_another_tier_is_refused_naming_it() {
    let _serial = serial();
    let dir = scratch_dir("lease-tier-mixed");
    let orch = RecoveryOrchestrator::new(1);
    let group = GroupDirConfig::new(["a"]);
    let file = file(SyncPolicy::PowerFail);
    drop(create_grouped_dir::<OptUnlinkedQueue>(&orch, &dir, one_shard(), file, &group).unwrap());
    let odd = dir.join(GROUPS_DIR).join("a").join(DLQ_POOL_FILE);
    let pool = FilePool::create(&odd, FileConfig::with_size(group.dlq_bytes)).unwrap();
    drop(OptUnlinkedQueue::create(
        pool.into_pool(),
        QueueConfig::small_test(),
    ));
    assert_eq!(tier(&odd), SyncPolicy::ProcessCrash);

    let queue = QueueConfig::small_test();
    let opened = open_grouped_dir::<OptUnlinkedQueue>(&orch, &dir, queue, &group, None);
    let err = opened.map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let msg = err.to_string();
    let named = msg.contains(&*odd.to_string_lossy())
        && msg.contains("process-crash")
        && msg.contains("power-fail");
    assert!(named, "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}
