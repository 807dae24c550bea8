//! Property-based tests of the queue family.
//!
//! Two kinds of properties are checked for every durable queue:
//!
//! 1. **Sequential equivalence** — an arbitrary interleaving of enqueues and
//!    dequeues behaves exactly like `VecDeque`.
//! 2. **Crash-point durability** — for an arbitrary operation prefix and an
//!    arbitrary crash point, the recovered queue contains exactly the items
//!    that the completed operations left in the queue (all operations are
//!    completed at the crash point in this single-threaded setting, so the
//!    recovered state must equal the model exactly), in FIFO order. The
//!    crash is checked three ways: with only what was flushed and fenced
//!    durable, under an eviction adversary that persists some other lines
//!    too, and with every line durable as it lands (the adversary at
//!    probability 1) — the machine a process-crash file pool runs on,
//!    where the page cache keeps every retired store and a flush does
//!    nothing.

use durable_queues::{
    DurableMsQueue, LinkedQueue, OptLinkedQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue,
    UnlinkedQueue,
};
use pmem::{PmemPool, PoolConfig};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    Enqueue(u64),
    Dequeue,
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![(1..1_000_000u64).prop_map(Op::Enqueue), Just(Op::Dequeue),],
        1..max_len,
    )
}

fn run_sequential_equivalence<Q: RecoverableQueue>(ops: &[Op]) -> Result<(), TestCaseError> {
    let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(8 << 20)));
    let q = Q::create(Arc::clone(&pool), QueueConfig::small_test());
    let mut model: VecDeque<u64> = VecDeque::new();
    for op in ops {
        match op {
            Op::Enqueue(v) => {
                q.enqueue(0, *v);
                model.push_back(*v);
            }
            Op::Dequeue => prop_assert_eq!(q.dequeue(0), model.pop_front()),
        }
    }
    while let Some(expect) = model.pop_front() {
        prop_assert_eq!(q.dequeue(0), Some(expect));
    }
    prop_assert_eq!(q.dequeue(0), None);
    Ok(())
}

fn run_crash_point<Q: RecoverableQueue>(
    ops: &[Op],
    crash_at: usize,
    eviction_probability: f64,
) -> Result<(), TestCaseError> {
    let crash_at = crash_at % (ops.len() + 1);
    let pool_cfg = PoolConfig::test_with_size(8 << 20).with_evictions(eviction_probability, 0xE51);
    let pool = Arc::new(PmemPool::new(pool_cfg));
    let q = Q::create(Arc::clone(&pool), QueueConfig::small_test());
    let mut model: VecDeque<u64> = VecDeque::new();
    for op in &ops[..crash_at] {
        match op {
            Op::Enqueue(v) => {
                q.enqueue(0, *v);
                model.push_back(*v);
            }
            Op::Dequeue => {
                let got = q.dequeue(0);
                prop_assert_eq!(got, model.pop_front());
            }
        }
    }
    // Crash exactly here; every operation so far has completed, so recovery
    // must reproduce the model exactly.
    let recovered_pool = Arc::new(pool.simulate_crash_with_evictions(eviction_probability, 0x51));
    let recovered = Q::recover(Arc::clone(&recovered_pool), QueueConfig::small_test());
    let mut survivors = Vec::new();
    while let Some(v) = recovered.dequeue(0) {
        survivors.push(v);
    }
    prop_assert_eq!(survivors, model.into_iter().collect::<Vec<_>>());
    Ok(())
}

macro_rules! queue_properties {
    ($module:ident, $queue:ty) => {
        mod $module {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(48))]

                #[test]
                fn sequential_equivalence(ops in ops_strategy(120)) {
                    run_sequential_equivalence::<$queue>(&ops)?;
                }

                #[test]
                fn crash_at_any_point_recovers_the_completed_state(
                    ops in ops_strategy(80),
                    crash_at in 0usize..80,
                ) {
                    run_crash_point::<$queue>(&ops, crash_at, 0.0)?;
                }

                #[test]
                fn crash_with_eviction_adversary_recovers_the_completed_state(
                    ops in ops_strategy(60),
                    crash_at in 0usize..60,
                    evictions in 0.0f64..0.3,
                ) {
                    run_crash_point::<$queue>(&ops, crash_at, evictions)?;
                }

                #[test]
                fn crash_with_every_store_durable_recovers_the_completed_state(
                    ops in ops_strategy(80),
                    crash_at in 0usize..80,
                ) {
                    run_crash_point::<$queue>(&ops, crash_at, 1.0)?;
                }
            }
        }
    };
}

queue_properties!(durable_msq, DurableMsQueue);
queue_properties!(unlinked, UnlinkedQueue);
queue_properties!(linked, LinkedQueue);
queue_properties!(opt_unlinked, OptUnlinkedQueue);
queue_properties!(opt_linked, OptLinkedQueue);
