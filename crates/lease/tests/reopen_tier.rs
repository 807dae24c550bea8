//! A grouped directory's journal reopens under the tier it was created
//! with, whatever the reopening `GroupDirConfig` says: its segment logs
//! take their tier from the dead-letter pools created beside them.
//!
//! `lease.force` is a process-global counter, so this file holds one test
//! and nothing runs beside it.

#![cfg(feature = "instrument")]

use durable_queues::testkit::subprocess::scratch_dir;
use durable_queues::{OptUnlinkedQueue, QueueConfig};
use lease::{create_grouped_dir, open_grouped_dir, GroupDirConfig};
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig};
use store::{FileConfig, SyncPolicy};

#[test]
fn a_power_fail_grouped_dir_reopened_with_the_default_config_still_forces() {
    let dir = scratch_dir("lease-reopen-tier");
    let orch = RecoveryOrchestrator::new(1);
    let shard = ShardConfig {
        shards: 1,
        queue: QueueConfig::small_test(),
        pool: pmem::PoolConfig::test_with_size(8 << 20),
        policy: RoutePolicy::RoundRobin,
    };
    let file = FileConfig::with_size(8 << 20).with_sync(SyncPolicy::PowerFail);
    let created = GroupDirConfig {
        sync: SyncPolicy::PowerFail,
        ..GroupDirConfig::new(["a"])
    };
    let queue = create_grouped_dir::<OptUnlinkedQueue>(&orch, &dir, shard, file, &created);
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
    let before = obs::snapshot().counter("lease.force");
    let lease = group.dequeue(0).unwrap();
    group.ack(&lease).unwrap();
    let forces = obs::snapshot().counter("lease.force") - before;
    assert!(
        forces > 0,
        "a consume + ack of a power-fail journal forced nothing"
    );
    drop((group, queue));
    std::fs::remove_dir_all(&dir).unwrap();
}
