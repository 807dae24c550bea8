//! Recovery of a **shard directory** from nothing but its files: a clean
//! create → drop → reopen round-trips exactly, with the manifest (not the
//! caller) dictating shard count and policy, and a torn, bit-flipped or
//! missing manifest is refused with an error naming it. The SIGKILL
//! rounds of a 4-shard directory live in the crash driver's table
//! (`crates/harness/tests/dir_restart.rs`).

use durable_queues::testkit::subprocess::scratch_dir;
use durable_queues::{DurableMsQueue, DurableQueue, QueueConfig};
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
