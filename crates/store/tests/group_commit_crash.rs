//! Deterministic crash inside a coalesced commit: a child process dies at
//! the group-commit layer's env-gated abort point
//! (`DQ_FENCE_ABORT_BEFORE_WAKE`) — after the leader `msync`ed a batch
//! that coalesced ≥ 2 fences, but *before* it bumped the commit sequence
//! and woke the followers. The worst spot for the protocol:
//!
//! * every value a producer acked rode a fully committed batch, so the
//!   survivor must read back each producer's cell at **or past** its last
//!   acked sequence;
//! * the followers parked in the dying batch never returned from
//!   `sfence`, so nothing past the abort was ever acked.
//!
//! Producers ack each sequence to a per-tid log *after* its fence
//! returns, exactly like the SIGKILL suites.
//!
//! Two rounds. Under a 1 ms window the four producers share one batch, so
//! the abort leaves three followers parked. Under a zero window a batch
//! coalesces only out of fences that found the two-deep pipeline full, so
//! the abort lands in a leader that took over a freed slot — typically
//! with another leader's batch still syncing beside it, whose fence must
//! not have been acked either unless its own `msync` completed.

use durable_queues::testkit::subprocess::{read_acks, scratch_dir, AckLog, ChildProc};
use std::path::Path;
use store::{FileConfig, FilePool, SyncPolicy};

const ENV_DIR: &str = "STORE_GC_ABORT_CHILD_DIR";
const ENV_WINDOW: &str = "STORE_GC_ABORT_CHILD_WINDOW_NS";
const ABORT_VAR: &str = "DQ_FENCE_ABORT_BEFORE_WAKE";
const PRODUCERS: usize = 4;

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// Hidden child entry point (no-op unless the parent set the env gate).
#[test]
fn gc_abort_child_entry() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    run_child(Path::new(&dir));
}

fn run_child(dir: &Path) {
    // The abort point (read at pool construction, set by the parent)
    // counts the batches that coalesced ≥ 2 of the producers' fences.
    let window_ns = std::env::var(ENV_WINDOW)
        .expect("child: window")
        .parse()
        .expect("child: window");
    let pool = FilePool::create(
        dir.join("pool.dq"),
        FileConfig::with_size(4 << 20)
            .with_sync(SyncPolicy::PowerFail)
            .with_group_commit(Some(window_ns)),
    )
    .expect("child: create pool")
    .into_pool();
    let region = pool.alloc_raw(PRODUCERS as u32 * 64, 64);
    pool.set_root_u64(0, region as u64);
    std::thread::scope(|scope| {
        for tid in 0..PRODUCERS {
            let pool = &pool;
            let mut log = AckLog::create(dir.join(format!("ack-{tid}.log")));
            scope.spawn(move || {
                let cell = region + tid as u32 * 64;
                // Far more than the abort lets us finish; a clean exit here
                // fails the parent's run_to_abort.
                for seq in 1..=1_000_000u64 {
                    pool.store_u64(cell, seq);
                    pool.flush(tid, cell);
                    pool.sfence(tid);
                    log.record("E", seq);
                }
            });
        }
    });
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// A wide batch window, so the four producers' fences reliably land in
/// one batch.
#[test]
fn abort_between_batched_msync_and_wakeup_loses_no_acked_value() {
    abort_round("store-gc-abort", 1_000_000);
}

/// No window: batches coalesce only behind a full pipeline, so the abort
/// lands while a second batch is in flight.
#[test]
fn abort_with_a_second_batch_in_flight_loses_no_acked_value() {
    abort_round("store-gc-abort-w0", 0);
}

fn abort_round(tag: &str, window_ns: u64) {
    let dir = scratch_dir(tag);
    // Arm the abort at the 25th coalesced batch, not the first, so real
    // acked traffic precedes the crash and the cell assertions below have
    // teeth.
    let status = ChildProc::new("gc_abort_child_entry")
        .env(ENV_DIR, &dir)
        .env(ENV_WINDOW, window_ns.to_string())
        .env(ABORT_VAR, "25")
        .run_to_abort();
    use std::os::unix::process::ExitStatusExt;
    assert_eq!(
        status.signal(),
        Some(libc_sigabrt()),
        "child must die at the abort point, not elsewhere: {status}"
    );

    let pool = FilePool::open(dir.join("pool.dq")).expect("reopen pool file");
    assert!(
        !pool.was_clean(),
        "an aborted process leaves the pool dirty"
    );
    let pool = pool.into_pool();
    let region = pool.root_u64(0) as u32;
    assert_ne!(region, 0, "child died before publishing its region root");
    let mut acked_total = 0usize;
    for tid in 0..PRODUCERS {
        let acks = read_acks(&dir.join(format!("ack-{tid}.log")), "E");
        acked_total += acks.len();
        // Acks are strictly sequential per producer; the cell must be at
        // or past the last fence the producer saw complete (later,
        // unacked stores may share the page).
        if let Some(&last) = acks.last() {
            let cell = pool.load_u64(region + tid as u32 * 64);
            assert!(
                cell >= last,
                "producer {tid} acked seq {last} but the pool reads {cell}"
            );
        }
    }
    assert!(
        acked_total > 0,
        "no fence ever acked before the abort — the round proved nothing"
    );
    eprintln!(
        "[gc-abort] window {window_ns} ns: {acked_total} acked fences across {PRODUCERS} producers"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

fn libc_sigabrt() -> i32 {
    6
}
