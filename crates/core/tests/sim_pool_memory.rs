//! A simulated pool costs the memory a run touches, not its size.
//!
//! Both images of a `PmemPool::new` pool and its per-line states are
//! anonymous mappings the kernel zeroes on first touch, so a 1 GiB pool
//! that serves a short run stays small in resident memory. (Were they
//! allocated and zeroed up front, as a heap arena would be, both images
//! would be resident at once: about 2 GiB.) The test is alone in its binary
//! so no other test's memory lands in the process's RSS while it measures.
#![cfg(target_os = "linux")]

use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use pmem::{PmemPool, PoolConfig};
use std::sync::Arc;

/// The process's resident set, from `/proc/self/status`.
fn rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<usize>().ok())
        .expect("a VmRSS line in kB");
    kib * 1024
}

#[test]
fn a_one_gib_simulated_pool_costs_what_a_run_touches() {
    let before = rss_bytes();
    let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(1 << 30)));
    assert_eq!(pool.len(), 1 << 30);
    let queue = OptUnlinkedQueue::create(pool, QueueConfig::small_test());
    for item in 1..=10_000u64 {
        queue.enqueue(0, item);
        assert_eq!(queue.dequeue(0), Some(item));
    }
    let grown = rss_bytes().saturating_sub(before);
    assert!(
        grown < 32 << 20,
        "a 1 GiB simulated pool serving 10 000 pairs grew RSS by {} MiB",
        grown >> 20
    );
}
