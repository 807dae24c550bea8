//! Recovery of a **shard directory** from nothing but its files: a clean
//! create → drop → reopen round-trips exactly, with the manifest (not the
//! caller) dictating shard count and policy, and a torn, bit-flipped or
//! missing manifest, or pools another algorithm wrote, are refused with an
//! error naming the file. The SIGKILL rounds of a 4-shard directory live
//! in the crash driver's table (`crates/harness/tests/dir_restart.rs`).

use durable_queues::root::TAG_ROOT_SLOT;
use durable_queues::testkit::subprocess::scratch_dir;
use durable_queues::{
    DurableMsQueue, DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue,
};
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig, ShardManifest};
use store::FileConfig;

const SHARDS: usize = 4;

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_threads: 8,
        area_size: 512 * 1024,
    }
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        queue: queue_config(),
        pool: pmem::PoolConfig::test_with_size(32 << 20),
        policy: RoutePolicy::RoundRobin,
    }
}

/// Clean create → drop → reopen: the directory round-trips exactly, and the
/// manifest (not the caller) dictates shard count and policy.
#[test]
fn clean_dir_restart_recovers_exact_content() {
    let dir = std::env::temp_dir().join(format!("shard-dir-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let orch = RecoveryOrchestrator::new(SHARDS);
    {
        let queue: shard::ShardedQueue<DurableMsQueue> = orch
            .create_dir(
                &dir,
                shard_config().with_policy(RoutePolicy::KeyHash),
                FileConfig::with_size(16 << 20),
            )
            .unwrap();
        for i in 1..=2_000u64 {
            queue.enqueue(0, i);
        }
        for _ in 0..500 {
            queue.dequeue(0).unwrap();
        }
    }

    let (queue, report, manifest) = orch
        .open_dir::<DurableMsQueue>(&dir, queue_config())
        .unwrap();
    // The policy came from the manifest, not from any caller-side config.
    assert_eq!(manifest.policy, RoutePolicy::KeyHash);
    assert_eq!(queue.policy(), RoutePolicy::KeyHash);
    assert!(report.sequential_cost() >= report.critical_path());
    let mut rest: Vec<u64> = std::iter::from_fn(|| queue.dequeue(0)).collect();
    rest.sort_unstable();
    assert_eq!(rest, (501..=2_000).collect::<Vec<_>>());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Creates a 2-shard directory, rewrites its manifest through `corrupt`,
/// and returns the message `open_dir` refuses it with — an `InvalidData`
/// error naming the manifest file, not an opaque parse failure.
fn refusal_of_corrupt_manifest(tag: &str, corrupt: impl FnOnce(String) -> String) -> String {
    let dir = scratch_dir(tag);
    let orch = RecoveryOrchestrator::new(2);
    let config = ShardConfig {
        shards: 2,
        ..shard_config()
    };
    let created = orch.create_dir::<DurableMsQueue>(&dir, config, FileConfig::with_size(8 << 20));
    drop(created.unwrap());
    let path = dir.join(shard::MANIFEST_FILE);
    std::fs::write(&path, corrupt(std::fs::read_to_string(&path).unwrap())).unwrap();
    let opened = orch.open_dir::<DurableMsQueue>(&dir, queue_config());
    let err = opened.map(|_| ()).unwrap_err();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains(shard::MANIFEST_FILE), "{msg}");
    msg
}

/// A torn (truncated) manifest is refused naming the truncation.
#[test]
fn open_dir_with_truncated_manifest_names_the_file_and_the_tear() {
    let msg = refusal_of_corrupt_manifest("shard-dir-truncated", |good| {
        good[..good.len() - 6].to_string()
    });
    assert!(msg.contains("truncated"), "{msg}");
}

/// A bit-flipped manifest is refused with the expected and found CRCs.
#[test]
fn open_dir_with_crc_mismatched_manifest_reports_both_crcs() {
    let msg =
        refusal_of_corrupt_manifest("shard-dir-crcflip", |good| good.replace("policy", "Policy"));
    assert!(msg.contains("CRC mismatch"), "{msg}");
    assert!(msg.contains("expected") && msg.contains("found"), "{msg}");
}

/// A directory without a manifest is refused with a useful error.
#[test]
fn open_dir_without_manifest_is_refused() {
    let dir = std::env::temp_dir().join(format!("shard-dir-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let err = RecoveryOrchestrator::new(2)
        .open_dir::<DurableMsQueue>(&dir, queue_config())
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    // Mention the manifest so the operator knows what is missing.
    let _ = ShardManifest::read(&dir).unwrap_err();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A 2-shard `W` directory after 2 000 enqueues and 500 dequeues, closed.
fn two_shard_dir<W: RecoverableQueue>(tag: &str) -> std::path::PathBuf {
    let dir = scratch_dir(tag);
    let config = ShardConfig {
        shards: 2,
        ..shard_config()
    };
    let orch = RecoveryOrchestrator::new(2);
    let queue = orch.create_dir::<W>(&dir, config, FileConfig::with_size(16 << 20));
    let queue = queue.unwrap();
    (1..=2_000u64).for_each(|i| queue.enqueue(0, i));
    (0..500).for_each(|_| assert!(queue.dequeue(0).is_some()));
    dir
}

/// Reopening a directory `W` wrote as `R` is refused before anything is
/// recovered, naming a pool file and both algorithms; the directory then
/// still opens as `W` with every item.
fn refused_as<W: RecoverableQueue, R: RecoverableQueue>(tag: &str, names: [&str; 2]) {
    let dir = two_shard_dir::<W>(tag);
    let orch = RecoveryOrchestrator::new(2);
    let err = orch.open_dir::<R>(&dir, queue_config()).map(|_| ());
    let err = err.unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let msg = err.to_string();
    let named = msg.contains("shard-00.pool") && names.iter().all(|n| msg.contains(n));
    assert!(named, "{msg}");
    let (queue, ..) = orch.open_dir::<W>(&dir, queue_config()).unwrap();
    assert_eq!(std::iter::from_fn(|| queue.dequeue(0)).count(), 1_500);
    drop(queue);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An OptUnlinkedQ directory used to open as DurableMSQ and dequeue
/// nothing: its 1 500 items went invisible.
#[test]
fn an_opt_unlinked_directory_is_refused_as_durable_msq() {
    refused_as::<OptUnlinkedQueue, DurableMsQueue>("shard-dir-as-msq", ["OptUnlQ", "DurMSQ"]);
}

/// A DurableMSQ directory used to panic in a recovery thread, on an
/// assertion that named no file, when opened as OptUnlinkedQ.
#[test]
fn a_durable_msq_directory_is_refused_as_opt_unlinked() {
    refused_as::<DurableMsQueue, OptUnlinkedQueue>("shard-dir-as-opt", ["DurMSQ", "OptUnlQ"]);
}

/// Pools written before tags existed (root slot zero) are accepted.
#[test]
fn an_untagged_directory_still_opens() {
    let dir = two_shard_dir::<DurableMsQueue>("shard-dir-untagged");
    for path in ShardManifest::read(&dir).unwrap().pool_paths(&dir) {
        let pool = store::FilePool::open(&path).unwrap().into_pool();
        pool.set_root_u64(TAG_ROOT_SLOT, 0);
    }
    let orch = RecoveryOrchestrator::new(2);
    let (queue, ..) = orch
        .open_dir::<DurableMsQueue>(&dir, queue_config())
        .unwrap();
    assert_eq!(std::iter::from_fn(|| queue.dequeue(0)).count(), 1_500);
    drop(queue);
    std::fs::remove_dir_all(&dir).unwrap();
}
