//! Clean process-restart recovery of a file-backed pool: a pool closed in
//! an orderly way reopens clean with exactly enqueued-minus-dequeued, no
//! in-flight windows. The SIGKILL rounds of the same pool live in the
//! crash driver's table (`crates/harness/tests/crash_restart.rs`).

use durable_queues::{DurableMsQueue, DurableQueue, QueueConfig, RecoverableQueue};
use std::sync::Arc;
use store::{FileConfig, FilePool};

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_threads: 8,
        area_size: 1 << 20,
    }
}

/// A pool closed cleanly recovers *exactly* enqueued-minus-dequeued.
#[test]
fn clean_restart_recovers_exact_content() {
    let dir = std::env::temp_dir().join(format!("store-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    {
        let pool = FilePool::create(dir.join("pool.dq"), FileConfig::with_size(32 << 20))
            .unwrap()
            .into_pool();
        let queue = DurableMsQueue::create(Arc::clone(&pool), queue_config());
        for i in 1..=5_000u64 {
            queue.enqueue(0, i);
        }
        for _ in 0..1_234 {
            queue.dequeue(0).unwrap();
        }
    }

    let pool = FilePool::open(dir.join("pool.dq")).unwrap();
    assert!(pool.was_clean());
    let queue = DurableMsQueue::recover(pool.into_pool(), queue_config());
    let drained: Vec<u64> = std::iter::from_fn(|| queue.dequeue(0)).collect();
    assert_eq!(drained, (1_235..=5_000).collect::<Vec<_>>());

    std::fs::remove_dir_all(&dir).unwrap();
}
