//! Real process-restart recovery: a child process drives traffic on a
//! file-backed pool, the parent SIGKILLs it mid-traffic, reopens the pool
//! file in *this* process and checks a linearizable suffix — every
//! confirmed enqueue survives exactly once, no confirmed dequeue is
//! resurrected, and FIFO order holds.
//!
//! Protocol: the child appends `E <seq>` / `D <val>` acknowledgment lines to
//! plain log files *after* the corresponding queue operation returns. An
//! append that reached the kernel survives the kill just like the pool's
//! page-cache writes do, so the parent knows exactly which operations were
//! confirmed:
//!
//! * confirmed enqueues (`E` lines) must be recovered or confirmedly
//!   dequeued — except at most one in-flight dequeue per dequeuer thread
//!   whose ack was lost to the kill,
//! * confirmed dequeues (`D` lines) must NOT be recovered again,
//! * unconfirmed enqueues (at most one per enqueuer thread) may appear, but
//!   at most once,
//! * the drained remainder must be in FIFO (strictly increasing) order.

use durable_queues::testkit::subprocess::{
    kill_and_reap, read_acks, scratch_dir, wait_for_lines, AckLog, ChildProc,
};
use durable_queues::{
    DurableMsQueue, DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Child;
use std::sync::Arc;
use std::time::Duration;
use store::{FileConfig, FilePool, SyncPolicy};

const ENV_DIR: &str = "STORE_CRASH_CHILD_DIR";
const ENV_ALGO: &str = "STORE_CRASH_CHILD_ALGO";
/// When set, the child runs the pool under `SyncPolicy::PowerFail` with
/// this group-commit window (nanoseconds).
const ENV_GC: &str = "STORE_CRASH_CHILD_GC";

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_threads: 8,
        area_size: 1 << 20,
    }
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// Hidden child entry point: runs only when the parent re-executes this test
/// binary with the env vars set; a no-op test otherwise.
#[test]
fn crash_child_entry() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    let algo = std::env::var(ENV_ALGO).unwrap_or_else(|_| "durable_msq".into());
    run_child(Path::new(&dir), &algo);
}

fn run_child(dir: &Path, algo: &str) {
    let mut config = FileConfig::with_size(256 << 20);
    if let Ok(window) = std::env::var(ENV_GC) {
        config = config
            .with_sync(SyncPolicy::PowerFail)
            .with_fence_window(window.parse().expect("bad GC window"));
    }
    let pool = FilePool::create(dir.join("pool.dq"), config)
        .expect("child: create pool")
        .into_pool();
    match algo {
        "durable_msq" => drive_traffic(DurableMsQueue::create(pool, queue_config()), dir),
        "opt_unlinked" => drive_traffic(OptUnlinkedQueue::create(pool, queue_config()), dir),
        other => panic!("child: unknown algorithm {other}"),
    }
}

/// One enqueuer (tid 0) and one dequeuer (tid 1), each acknowledging every
/// completed operation with a log line before issuing the next.
fn drive_traffic<Q: DurableQueue>(queue: Q, dir: &Path) {
    let mut enq_log = AckLog::create(dir.join("enq.log"));
    let mut deq_log = AckLog::create(dir.join("deq.log"));
    std::thread::scope(|scope| {
        let q = &queue;
        scope.spawn(move || {
            // Far more than the parent lets us finish before the kill. Each
            // ack is one write syscall, so the kill can tear at most the
            // final line.
            for seq in 1..=2_000_000u64 {
                q.enqueue(0, seq);
                enq_log.record("E", seq);
            }
        });
        scope.spawn(move || loop {
            if let Some(v) = q.dequeue(1) {
                deq_log.record("D", v);
            }
        });
    });
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// `power_fail`: `None` runs the child's pool under process-crash sync,
/// `Some(window_ns)` under power-fail with that group-commit window.
fn spawn_child(dir: &Path, algo: &str, power_fail: Option<u64>) -> Child {
    let mut child = ChildProc::new("crash_child_entry");
    child = child.env(ENV_DIR, dir).env(ENV_ALGO, algo);
    if let Some(window_ns) = power_fail {
        child = child.env(ENV_GC, window_ns.to_string());
    }
    child.spawn()
}

struct SuffixCheck {
    confirmed_enqueues: usize,
    confirmed_dequeues: usize,
    recovered: usize,
}

/// Drains `queue` and checks the linearizable-suffix conditions against the
/// child's ack logs. `enqueuers`/`dequeuers` bound the per-thread in-flight
/// windows.
fn check_linearizable_suffix(
    queue: &dyn DurableQueue,
    dir: &Path,
    enqueuers: usize,
    dequeuers: usize,
    require_fifo: bool,
) -> SuffixCheck {
    let acked_e: Vec<u64> = read_acks(&dir.join("enq.log"), "E");
    let acked_d: Vec<u64> = read_acks(&dir.join("deq.log"), "D");
    let drained: Vec<u64> = std::iter::from_fn(|| queue.dequeue(0)).collect();

    // No value may come out twice — neither within the drain nor across the
    // confirmed dequeues.
    let mut seen = BTreeSet::new();
    for &v in acked_d.iter().chain(&drained) {
        assert!(seen.insert(v), "item {v} dequeued twice (duplication)");
    }

    let e_set: BTreeSet<u64> = acked_e.iter().copied().collect();
    assert_eq!(e_set.len(), acked_e.len(), "enqueue acks must be unique");
    let d_set: BTreeSet<u64> = acked_d.iter().copied().collect();
    let r_set: BTreeSet<u64> = drained.iter().copied().collect();

    // Confirmed enqueues survive: everything acked, not confirmedly
    // dequeued, and not recovered can only be an in-flight dequeue whose ack
    // was killed — at most one per dequeuer thread.
    let missing: Vec<u64> = e_set
        .iter()
        .filter(|v| !d_set.contains(v) && !r_set.contains(v))
        .copied()
        .collect();
    assert!(
        missing.len() <= dequeuers,
        "{} confirmed items lost (> {} in-flight dequeues): {:?}",
        missing.len(),
        dequeuers,
        &missing[..missing.len().min(10)]
    );

    // Unconfirmed enqueues (ack lost to the kill): at most one per enqueuer.
    let extras: Vec<u64> = r_set.difference(&e_set).copied().collect();
    assert!(
        extras.len() <= enqueuers,
        "{} recovered items were never confirmed enqueued (> {} in-flight enqueues): {:?}",
        extras.len(),
        enqueuers,
        &extras[..extras.len().min(10)]
    );

    // Confirmed dequeues stay dequeued.
    let resurrected: Vec<u64> = r_set.intersection(&d_set).copied().collect();
    assert!(
        resurrected.is_empty(),
        "confirmed dequeues resurrected: {resurrected:?}"
    );

    if require_fifo {
        for pair in drained.windows(2) {
            assert!(
                pair[0] < pair[1],
                "FIFO violated across restart: {} before {}",
                pair[0],
                pair[1]
            );
        }
    }

    SuffixCheck {
        confirmed_enqueues: acked_e.len(),
        confirmed_dequeues: acked_d.len(),
        recovered: drained.len(),
    }
}

fn crash_round<Q: RecoverableQueue>(algo: &str) {
    crash_round_with::<Q>(algo, None)
}

fn crash_round_with<Q: RecoverableQueue>(algo: &str, power_fail: Option<u64>) {
    let tag = if power_fail.is_some() { "-pf" } else { "" };
    let dir = scratch_dir(&format!("store-crash-{algo}{tag}"));

    let mut child = spawn_child(&dir, algo, power_fail);
    wait_for_lines(
        &mut child,
        &dir.join("enq.log"),
        500,
        Duration::from_secs(60),
    );
    kill_and_reap(&mut child);

    let pool = FilePool::open(dir.join("pool.dq")).expect("reopen pool file");
    assert!(
        !pool.was_clean(),
        "a SIGKILLed process must leave the pool dirty"
    );
    let queue = Q::recover(pool.into_pool(), queue_config());
    let check = check_linearizable_suffix(&queue, &dir, 1, 1, true);
    eprintln!(
        "[{algo}] confirmed enqueues {}, confirmed dequeues {}, recovered {}",
        check.confirmed_enqueues, check.confirmed_dequeues, check.recovered
    );
    assert!(
        check.confirmed_enqueues >= 500,
        "kill landed before real traffic"
    );
    assert!(
        check.recovered + check.confirmed_dequeues + 1 >= check.confirmed_enqueues,
        "recovered {} + dequeued {} cannot cover {} confirmed enqueues",
        check.recovered,
        check.confirmed_dequeues,
        check.confirmed_enqueues
    );

    // The recovered queue is a working queue: post-restart traffic flows.
    queue.enqueue(0, u64::MAX);
    assert_eq!(queue.dequeue(0), Some(u64::MAX));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_durable_msq_recovers_without_loss_or_duplication() {
    crash_round::<DurableMsQueue>("durable_msq");
}

#[test]
fn killed_opt_unlinked_recovers_without_loss_or_duplication() {
    crash_round::<OptUnlinkedQueue>("opt_unlinked");
}

/// The same SIGKILL matrix with the child's pool under power-fail sync,
/// whose fences group-commit: batching fences across the enqueuer and
/// dequeuer must not weaken the linearizable-suffix contract. Window 0
/// (batches form only from genuinely concurrent fences) keeps traffic fast.
#[test]
fn killed_power_fail_durable_msq_recovers_without_loss_or_duplication() {
    crash_round_with::<DurableMsQueue>("durable_msq", Some(0));
}

/// As above with a real batch window, so most fences ride a leader's
/// coalesced msync rather than their own.
#[test]
fn killed_power_fail_opt_unlinked_recovers_without_loss_or_duplication() {
    crash_round_with::<OptUnlinkedQueue>("opt_unlinked", Some(100_000));
}

/// The non-crash baseline of the same protocol: a child that is allowed to
/// finish cleanly must leave a pool whose recovered content is *exactly*
/// enqueued-minus-dequeued with no windows.
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
