//! Every sync the stack issues, failed in turn. Each operation that makes
//! bytes durable — in `store`, `lease`, `shard` and `obs` — runs once to
//! count its syncs of each kind, then once per sync with just that one
//! failing (`obs::sys::durable::fail_nth`). Every faulted run must end in
//! an `Err` or in a panic naming a path, never in a success, and count one
//! `sync.error`. A pool's close, which can do neither, must leave the pool
//! reopening dirty — as must every pool that panicked over a lost sync.
//!
//! `sync.error` is process-global, so the tests of this file take turns.

use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use lease::{GroupConfig, GroupedQueue, LeaseConfig, LeasedQueue};
use obs::flight::FlightRecorder;
use obs::sys::durable::{self, SyncKind};
use pmem::{PmemPool, PoolBackend, PoolConfig};
use shard::{RecoveryOrchestrator, ReshardIntent, RoutePolicy, ShardConfig, ShardManifest};
use std::cell::Cell;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use store::{FileConfig, FilePool, SyncPolicy};

const KINDS: [SyncKind; 4] = [
    SyncKind::Msync,
    SyncKind::Fdatasync,
    SyncKind::Fsync,
    SyncKind::Dir,
];

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sync-failures-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// How a faulted run ended.
enum Outcome {
    Returned(io::Result<()>),
    Panicked(String),
}

/// Sweeps one operation: `setup` builds its state in a fresh directory,
/// unfaulted; `op` is the operation, on the directory and the state. The
/// state outlives the fault, so what dropping it syncs is not the
/// operation's. `judge` sees every faulted run's outcome, with the
/// directory and a label for messages. Returns how many syncs the
/// operation issues.
fn sweep<S>(
    name: &str,
    setup: impl Fn(&Path) -> S,
    op: impl Fn(&Path, &S) -> io::Result<()>,
    judge: impl Fn(&Path, &str, Outcome),
) -> u64 {
    let counts: Vec<u64> = {
        let dir = fresh_dir(name);
        let state = setup(&dir);
        let counting: Vec<_> = KINDS
            .iter()
            .map(|&kind| durable::fail_nth(&dir, kind, 0))
            .collect();
        op(&dir, &state).unwrap_or_else(|e| panic!("{name} fails with no fault armed: {e}"));
        let counts = counting.iter().map(durable::Fault::seen).collect();
        drop(counting);
        drop(state);
        std::fs::remove_dir_all(&dir).unwrap();
        counts
    };
    for (&kind, &count) in KINDS.iter().zip(&counts) {
        for nth in 1..=count {
            let case = format!("{name}, {kind:?} #{nth} of {count}");
            let dir = fresh_dir(name);
            let state = setup(&dir);
            let before = obs::snapshot();
            let outcome = {
                let fault = durable::fail_nth(&dir, kind, nth);
                let outcome = match catch_unwind(AssertUnwindSafe(|| op(&dir, &state))) {
                    Ok(result) => Outcome::Returned(result),
                    Err(payload) => Outcome::Panicked(match payload.downcast::<String>() {
                        Ok(message) => *message,
                        Err(_) => "a panic without a message".into(),
                    }),
                };
                assert!(fault.fired(), "{case}: the sync never ran");
                outcome
            };
            drop(state);
            let errors = obs::snapshot().counter("sync.error") - before.counter("sync.error");
            assert_eq!(errors, 1, "{case}: sync.error rose by {errors}");
            judge(&dir, &case, outcome);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    counts.iter().sum()
}

/// The criterion: an `Err`, or a panic naming a path under the sweep's
/// directory — never a success.
fn fails_loudly(dir: &Path, case: &str, outcome: Outcome) {
    match outcome {
        Outcome::Returned(Ok(())) => panic!("{case}: returned Ok over a failed sync"),
        Outcome::Returned(Err(_)) => {}
        Outcome::Panicked(message) => assert!(
            message.contains(&dir.display().to_string()),
            "{case}: the panic names no path: {message}"
        ),
    }
}

// ---------------------------------------------------------------------------
// store: the pool file
// ---------------------------------------------------------------------------

const POOL: &str = "p.pool";

fn power_fail(size: usize) -> FileConfig {
    FileConfig::with_size(size).with_sync(SyncPolicy::PowerFail)
}

fn pool_in(dir: &Path, config: FileConfig) -> FilePool {
    FilePool::create(dir.join(POOL), config).unwrap()
}

/// [`fails_loudly`], and a pool that panicked over a lost sync must never
/// have closed clean.
fn pool_fails_loudly(dir: &Path, case: &str, outcome: Outcome) {
    let panicked = matches!(outcome, Outcome::Panicked(_));
    fails_loudly(dir, case, outcome);
    if panicked {
        let reopened = FilePool::open(dir.join(POOL)).unwrap();
        assert!(!reopened.was_clean(), "{case}: reopens clean");
    }
}

#[test]
fn every_pool_sync_fails_loudly() {
    let _serial = serial();
    let small = || power_fail(1 << 20);
    let created = sweep(
        "pool-create",
        |_| Cell::new(None),
        |dir, kept: &Cell<Option<FilePool>>| {
            kept.set(Some(FilePool::create(dir.join(POOL), small())?));
            Ok(())
        },
        pool_fails_loudly,
    );
    let grown = sweep(
        "pool-grow",
        |dir| pool_in(dir, power_fail(256 << 10).with_growth(256 << 10)),
        |_, pool| {
            assert!(pool.grow_to(pool.len() + 1)?);
            Ok(())
        },
        pool_fails_loudly,
    );
    let rooted = sweep(
        "pool-set-root",
        |dir| pool_in(dir, small()),
        |_, pool| {
            pool.set_root_u64(0, 7);
            Ok(())
        },
        pool_fails_loudly,
    );
    let mut fenced = 0;
    for window_ns in [0, 50_000] {
        fenced += sweep(
            &format!("pool-fence-{window_ns}"),
            |dir| pool_in(dir, small().with_fence_window(window_ns)),
            |_, pool| {
                let off = pmem::layout::HEAP_START;
                pool.store_u64(off, 1);
                pool.flush(0, off);
                pool.sfence(0);
                Ok(())
            },
            pool_fails_loudly,
        );
    }
    let synced = sweep(
        "pool-sync",
        |dir| pool_in(dir, small()),
        |_, pool| {
            PoolBackend::sync(pool);
            Ok(())
        },
        pool_fails_loudly,
    );
    let marked = sweep(
        "pool-mark-clean",
        |dir| pool_in(dir, small()),
        |_, pool| {
            pool.mark_clean(false);
            Ok(())
        },
        pool_fails_loudly,
    );
    // A close cannot fail loudly: it must leave the pool dirty instead.
    let closed = sweep(
        "pool-close",
        |dir| Cell::new(Some(pool_in(dir, small()))),
        |_, pool| {
            drop(pool.take());
            Ok(())
        },
        |dir, case, outcome| {
            assert!(matches!(outcome, Outcome::Returned(Ok(()))), "{case}");
            let reopened = FilePool::open(dir.join(POOL)).unwrap();
            assert!(
                !reopened.was_clean(),
                "{case}: a failed close reopens clean"
            );
        },
    );
    assert_eq!(
        (created, grown, rooted, fenced, synced, marked, closed),
        (1, 4, 1, 2, 2, 1, 4)
    );
}

// ---------------------------------------------------------------------------
// lease: journals
// ---------------------------------------------------------------------------

fn base() -> OptUnlinkedQueue {
    let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
    OptUnlinkedQueue::create(pool, QueueConfig::small_test())
}

fn grouped(dir: &Path, rotate_records: u64) -> Arc<GroupedQueue<OptUnlinkedQueue>> {
    let config = GroupConfig::new(dir, ["a"])
        .with_sync(SyncPolicy::PowerFail)
        .with_rotate_records(rotate_records);
    let q = Arc::new(GroupedQueue::create(base(), vec![None], config).unwrap());
    q.enqueue(0, 1);
    q
}

#[test]
fn every_journal_sync_fails_loudly() {
    let _serial = serial();
    let created = sweep(
        "group-create",
        |_| Cell::new(None),
        |dir, kept: &Cell<Option<GroupedQueue<OptUnlinkedQueue>>>| {
            let config = GroupConfig::new(dir, ["a", "b"]).with_sync(SyncPolicy::PowerFail);
            kept.set(Some(GroupedQueue::create(
                base(),
                vec![None, None],
                config,
            )?));
            Ok(())
        },
        fails_loudly,
    );
    // A transition's force, outside the group's lock.
    let forced = sweep(
        "group-force",
        |dir| grouped(dir, 4096),
        |_, q| {
            assert!(q.group("a").unwrap().dequeue(0).is_some());
            Ok(())
        },
        fails_loudly,
    );
    // With two records to a segment, the ack of the first lease rotates
    // (forcing the sealed segment, then the new header and the directory)
    // and retires segment 0 (forcing the active segment, then rewriting
    // GROUP.meta) before its own force.
    let rotated = sweep(
        "group-rotate-retire",
        |dir| {
            let q = grouped(dir, 2);
            let lease = q.group("a").unwrap().dequeue(0).unwrap();
            (q, lease)
        },
        |_, (q, lease)| {
            let a = q.group("a").unwrap();
            a.ack(lease).unwrap();
            assert_eq!((a.stats().rotations, a.stats().segments_retired), (1, 1));
            Ok(())
        },
        fails_loudly,
    );
    // The third ack crosses `compact_after` with nothing live: AckLog
    // compaction replaces LEASES.log, and the ack's force reaches the new
    // file.
    let compacted = sweep(
        "ack-log-compaction",
        |dir| {
            let config = LeaseConfig::new(dir)
                .with_sync(SyncPolicy::PowerFail)
                .with_compact_after(4);
            let q = LeasedQueue::create(base(), None, config).unwrap();
            (1..=3).for_each(|item| q.enqueue(0, item));
            for _ in 0..2 {
                let lease = q.dequeue(0).unwrap();
                q.ack(&lease).unwrap();
            }
            let lease = q.dequeue(0).unwrap();
            (q, lease)
        },
        |_, (q, lease)| {
            q.ack(lease).unwrap();
            assert_eq!(q.stats().compactions, 1);
            Ok(())
        },
        fails_loudly,
    );
    assert_eq!((created, forced, rotated, compacted), (8, 1, 7, 3));
}

// ---------------------------------------------------------------------------
// shard: manifest, intent, reshard; obs: the flight ring
// ---------------------------------------------------------------------------

const ITEMS: u64 = 100;

fn intent() -> ReshardIntent {
    ReshardIntent {
        old_files: vec!["shard-00.pool".into()],
        new_files: vec!["shard-g1-00.pool".into()],
    }
}

/// A two-shard directory holding items `1..=ITEMS`.
fn shard_dir(dir: &Path) -> RecoveryOrchestrator {
    let orch = RecoveryOrchestrator::new(2);
    let config = ShardConfig {
        shards: 2,
        queue: QueueConfig::small_test(),
        pool: PoolConfig::test_with_size(4 << 20),
        policy: RoutePolicy::RoundRobin,
    };
    let q = orch
        .create_dir::<OptUnlinkedQueue>(dir, config, FileConfig::with_size(4 << 20))
        .unwrap();
    (1..=ITEMS).for_each(|item| q.enqueue(0, item));
    orch
}

#[test]
fn every_directory_sync_fails_loudly() {
    let _serial = serial();
    let manifest = sweep(
        "manifest",
        |_| (),
        |dir, ()| ShardManifest::new(2, RoutePolicy::KeyHash).write(dir),
        fails_loudly,
    );
    let intent_written = sweep(
        "intent-write",
        |_| (),
        |dir, ()| intent().write(dir),
        fails_loudly,
    );
    let intent_removed = sweep(
        "intent-remove",
        |dir| intent().write(dir).unwrap(),
        |dir, ()| ReshardIntent::remove(dir),
        fails_loudly,
    );
    // Whatever sync fails, the directory reopens with every item exactly
    // once: rolled back before the manifest commit, forward after it.
    let resharded = sweep(
        "reshard",
        shard_dir,
        |dir, orch| {
            let dest = Some(FileConfig::with_size(4 << 20));
            orch.reshard_dir_with::<OptUnlinkedQueue>(
                dir,
                1,
                QueueConfig::small_test(),
                dest,
                |i| i,
            )
            .map(drop)
        },
        |dir, case, outcome| {
            fails_loudly(dir, case, outcome);
            let orch = RecoveryOrchestrator::new(2);
            let (q, _, _) = orch
                .open_dir::<OptUnlinkedQueue>(dir, QueueConfig::small_test())
                .unwrap_or_else(|e| panic!("{case}: the directory does not reopen: {e}"));
            let mut items: Vec<u64> = std::iter::from_fn(|| q.dequeue(0)).collect();
            items.sort_unstable();
            assert_eq!(items, (1..=ITEMS).collect::<Vec<_>>(), "{case}");
        },
    );
    let ring = sweep(
        "flight-ring",
        |_| (),
        |dir, ()| FlightRecorder::create_or_open(dir, 8).map(drop),
        fails_loudly,
    );
    assert_eq!(
        (manifest, intent_written, intent_removed, resharded, ring),
        (2, 2, 1, 16, 2)
    );
}
