//! Crash-safe elastic growth, end to end: a child process drives an
//! enqueue-only workload on a **deliberately tiny** pool whose growth step
//! forces repeated `ftruncate` + header-commit cycles, and the
//! parent crashes it at three different points:
//!
//! * a real `SIGKILL` mid-growth-traffic (nondeterministic landing point),
//! * a deterministic abort **after the `ftruncate`, before the commit
//!   record** (`DQ_GROW_ABORT_AFTER_TRUNCATE`) — the reopened pool must
//!   come back at the *old* size, with the over-long file tolerated,
//! * a deterministic abort **after the commit record, before the home-field
//!   rewrite** (`DQ_GROW_ABORT_AFTER_COMMIT`) — the reopened pool must roll
//!   the journal forward and come back at the *new* size.
//!
//! In every case the recovered queue must hold every confirmed enqueue
//! exactly once, in FIFO order, with at most one unconfirmed in-flight
//! extra — and the pool must keep growing after recovery.

use durable_queues::testkit::subprocess::{
    kill_and_reap, read_unique_acks, scratch_dir, wait_until, AckLog, ChildProc,
};
use durable_queues::{
    DurableMsQueue, DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use store::{FileConfig, FilePool, SyncPolicy, HEADER_LEN};

const ENV_DIR: &str = "STORE_GROW_CHILD_DIR";
const ENV_ALGO: &str = "STORE_GROW_CHILD_ALGO";

/// Small enough that the queue outgrows it within a few thousand enqueues.
const BASE_BYTES: usize = 256 << 10;
const GROW_STEP: usize = 256 << 10;

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_threads: 4,
        area_size: 64 << 10,
    }
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// Hidden child entry point: runs only when the parent re-executes this test
/// binary with the env vars set; a no-op test otherwise.
#[test]
fn grow_child_entry() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    let algo = std::env::var(ENV_ALGO).unwrap_or_else(|_| "opt_unlinked".into());
    let pool = FilePool::create(
        Path::new(&dir).join("pool.dq"),
        FileConfig::with_size(BASE_BYTES).with_growth(GROW_STEP),
    )
    .expect("child: create pool")
    .into_pool();
    match algo.as_str() {
        "durable_msq" => drive_enqueues(DurableMsQueue::create(pool, queue_config()), &dir),
        "opt_unlinked" => drive_enqueues(OptUnlinkedQueue::create(pool, queue_config()), &dir),
        other => panic!("child: unknown algorithm {other}"),
    }
}

/// A single enqueuer acknowledging every completed enqueue with one write
/// syscall, so the parent knows exactly which operations were confirmed.
/// Runs until the pool's growth protocol aborts it (abort rounds) or the
/// parent kills it (SIGKILL round); enqueue-only traffic keeps allocation
/// pressure constant, so growths keep coming.
fn drive_enqueues<Q: DurableQueue>(queue: Q, dir: impl AsRef<Path>) {
    let mut enq_log = AckLog::create(dir.as_ref().join("enq.log"));
    for seq in 1..=u64::MAX {
        queue.enqueue(0, seq);
        enq_log.record("E", seq);
    }
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// Child builder; `abort_env` is one of the file pool's deterministic grow
/// crash points (or `None` for a parent-timed SIGKILL).
fn grow_child(dir: &Path, algo: &str, abort_env: Option<&str>) -> ChildProc {
    ChildProc::new("grow_child_entry")
        .env(ENV_DIR, dir)
        .env(ENV_ALGO, algo)
        .abort_at(abort_env)
}

/// Reopens the pool (rolling any pending grow commit forward), recovers the
/// queue, and validates the linearizable suffix for the enqueue-only child:
/// every confirmed enqueue recovered exactly once, FIFO order, at most one
/// unconfirmed in-flight extra. Returns the recovered pool's growth epoch
/// after proving the pool **keeps growing** post-recovery.
fn recover_and_validate<Q: RecoverableQueue>(dir: &Path, expect_epoch: Option<u32>) -> u32 {
    let pool = FilePool::open_with_growth(dir.join("pool.dq"), SyncPolicy::default(), GROW_STEP)
        .expect("reopen pool file");
    assert!(
        !pool.was_clean(),
        "a killed child must leave the pool dirty"
    );
    let epoch = pool.growth_epoch();
    if let Some(expected) = expect_epoch {
        assert_eq!(epoch, expected, "recovered growth epoch");
    }
    let pool = pool.into_pool();
    assert_eq!(pool.growth_epoch(), epoch);
    let queue = Q::recover(Arc::clone(&pool), queue_config());

    let acked: BTreeSet<u64> = read_unique_acks(&dir.join("enq.log"), "E");
    let drained: Vec<u64> = std::iter::from_fn(|| queue.dequeue(0)).collect();
    for pair in drained.windows(2) {
        assert!(
            pair[0] < pair[1],
            "FIFO violated across the restart: {} before {}",
            pair[0],
            pair[1]
        );
    }
    let r_set: BTreeSet<u64> = drained.iter().copied().collect();
    assert_eq!(r_set.len(), drained.len(), "duplicated item in the residue");
    let missing: Vec<u64> = acked
        .iter()
        .filter(|v| !r_set.contains(v))
        .copied()
        .collect();
    assert!(
        missing.is_empty(),
        "{} confirmed enqueues lost (growth must never lose an allocation): {:?}",
        missing.len(),
        &missing[..missing.len().min(10)]
    );
    let extras = r_set.difference(&acked).count();
    assert!(
        extras <= 1,
        "{extras} unconfirmed in-flight extras recovered"
    );
    assert!(
        acked.len() >= 500,
        "the kill landed before meaningful traffic ({} acks)",
        acked.len()
    );

    // The recovered pool is still elastic: keep enqueueing until it grows
    // once more. Counted from the epoch after `Q::recover`, not the one the
    // pool opened at: recovery rebuilds a volatile node for every recovered
    // item, and a backlog of a few thousand may grow the pool once or twice
    // before the first enqueue.
    let recovered_epoch = pool.growth_epoch();
    assert!(recovered_epoch >= epoch, "recovery shrank the growth epoch");
    let mut enqueued = 0u64;
    while pool.growth_epoch() == recovered_epoch {
        // Distinct from the child's sequence space, so a bug that resurrects
        // child items would still be caught by the dedup check above.
        queue.enqueue(0, u64::MAX - enqueued);
        enqueued += 1;
        assert!(
            enqueued < 500_000,
            "pool refused to grow again after recovery"
        );
    }
    assert_eq!(pool.growth_epoch(), recovered_epoch + 1);
    epoch
}

/// SIGKILL lands at a parent-chosen (nondeterministic) point once the file
/// has been extended at least twice.
fn sigkill_round<Q: RecoverableQueue>(algo: &str) {
    let dir = scratch_dir(&format!("store-grow-kill-{algo}"));
    let mut child = grow_child(&dir, algo, None).spawn();
    let pool_path = dir.join("pool.dq");
    wait_until(&mut child, Duration::from_secs(120), "two growths", || {
        std::fs::metadata(&pool_path).map(|m| m.len()).unwrap_or(0)
            >= (HEADER_LEN + BASE_BYTES + 2 * GROW_STEP) as u64
    });
    kill_and_reap(&mut child);

    // At least one growth must have committed (the file was extended twice;
    // only the in-flight one may be uncommitted).
    let epoch = recover_and_validate::<Q>(&dir, None);
    assert!(
        epoch >= 1,
        "committed growth epoch after two truncates: {epoch}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic crash at one of the grow protocol's env-gated points; the
/// child aborts itself, the parent just reaps it.
fn abort_round(abort_env: &str, expect_epoch: u32) {
    let dir = scratch_dir(&format!("store-grow-abort-{expect_epoch}"));
    grow_child(&dir, "opt_unlinked", Some(abort_env)).run_to_abort();

    let geo = FilePool::read_geometry(dir.join("pool.dq")).unwrap();
    assert_eq!(geo.growth_epoch, expect_epoch, "epoch visible before open");
    let file_len = std::fs::metadata(dir.join("pool.dq")).unwrap().len();
    assert!(
        file_len >= (HEADER_LEN + BASE_BYTES + GROW_STEP) as u64,
        "the ftruncate ran before the crash point"
    );
    if expect_epoch == 0 {
        assert_eq!(
            geo.pool_size, geo.base_size,
            "uncommitted growth recovers to the old size"
        );
    } else {
        assert!(
            geo.pool_size >= geo.base_size + GROW_STEP,
            "committed growth recovers to the new size"
        );
    }
    recover_and_validate::<OptUnlinkedQueue>(&dir, Some(expect_epoch));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_msq_grows_across_a_sigkill() {
    sigkill_round::<DurableMsQueue>("durable_msq");
}

#[test]
fn opt_unlinked_grows_across_a_sigkill() {
    sigkill_round::<OptUnlinkedQueue>("opt_unlinked");
}

#[test]
fn crash_after_ftruncate_recovers_to_the_old_size() {
    abort_round("DQ_GROW_ABORT_AFTER_TRUNCATE", 0);
}

#[test]
fn crash_after_commit_record_rolls_the_growth_forward() {
    abort_round("DQ_GROW_ABORT_AFTER_COMMIT", 1);
}
