//! The acceptance test of the peek-lock layer: a **consumer** process is
//! SIGKILLed while holding live leases over a file-backed 2-shard
//! deployment, and the parent reopens the directory from nothing, checking
//! the full delivery contract under both durability tiers:
//!
//! - every lease that was unacked at the kill is redelivered **exactly
//!   once**, with its delivery count incremented;
//! - no item whose ack the consumer confirmed is ever redelivered;
//! - an item nacked past `max_deliveries` sits in the dead-letter queue
//!   (and only that item);
//! - confirmed enqueues survive (up to the single in-transit item of the
//!   destructive-pop-to-grant window, which no consumer ever observed).
//!
//! Child-side confirmation protocol (see `crates/store/tests/crash_restart.rs`
//! for the pattern): `E <seq>` after each enqueue returns, `A <item>` after
//! each ack returns, `H <item>` after deciding to hold a lease forever
//! (the deliberately-unacked set the kill strands in flight).

use durable_queues::testkit::subprocess::{
    kill_and_reap, read_unique_acks, scratch_dir, wait_for_lines, AckLog as TextLog, ChildProc,
};
use durable_queues::{DurableMsQueue, QueueConfig};
use lease::{create_leased_dir, open_leased_dir, LeaseDirConfig, Redelivery};
use pmem::PoolConfig;
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;
use store::{FileConfig, SyncPolicy};

const ENV_DIR: &str = "LEASE_KILL_CHILD_DIR";
const ENV_SYNC: &str = "LEASE_KILL_CHILD_SYNC";
const SHARDS: usize = 2;
/// The item nacked past its budget (outside the producer's 1.. sequence).
const POISON: u64 = u64::MAX - 1;

fn shard_config() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        queue: QueueConfig::small_test(),
        pool: PoolConfig::test_with_size(16 << 20),
        policy: RoutePolicy::RoundRobin,
    }
}

fn lease_config(sync: SyncPolicy) -> LeaseDirConfig {
    LeaseDirConfig {
        // Long enough that nothing expires during the test: redelivery
        // must come from the crash, not from timeouts.
        lease_timeout: Duration::from_secs(300),
        max_deliveries: 3,
        sync,
        ..LeaseDirConfig::default()
    }
}

fn parse_sync(key: &str) -> SyncPolicy {
    match key {
        "powerfail" => SyncPolicy::PowerFail,
        _ => SyncPolicy::ProcessCrash,
    }
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// Hidden child entry point (no-op unless re-executed with the env vars).
#[test]
fn lease_kill_child_entry() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    let sync = parse_sync(&std::env::var(ENV_SYNC).unwrap_or_default());
    run_child(Path::new(&dir), sync);
}

fn run_child(dir: &Path, sync: SyncPolicy) {
    let orch = RecoveryOrchestrator::new(SHARDS);
    let queue = create_leased_dir::<DurableMsQueue>(
        &orch,
        dir,
        shard_config(),
        FileConfig::with_size(16 << 20),
        &lease_config(sync),
    )
    .expect("child: create leased dir");

    // Poison dance, before any other traffic: nack one item past its
    // budget so the kill always finds it in the dead-letter queue.
    queue.enqueue(0, POISON);
    loop {
        let l = queue.dequeue(1).expect("child: poison item visible");
        assert_eq!(l.item, POISON);
        match queue.nack(1, &l).expect("child: nack poison") {
            Redelivery::Requeued { .. } => continue,
            Redelivery::DeadLettered => break,
        }
    }

    let mut enq_log = TextLog::create(dir.join("enq.log"));
    let mut ack_log = TextLog::create(dir.join("acks.log"));
    let mut held_log = TextLog::create(dir.join("held.log"));
    std::thread::scope(|scope| {
        let q = &queue;
        scope.spawn(move || {
            // Bounded so the 16 MiB shard pools can never exhaust while the
            // (fsync-throttled) consumer lags; the consumer thread still
            // runs forever, so the kill always lands mid-consumption.
            for seq in 1..=20_000u64 {
                q.enqueue(0, seq);
                enq_log.record("E", seq);
            }
        });
        scope.spawn(move || loop {
            let Some(l) = q.dequeue(1) else { continue };
            if l.item % 7 == 0 && l.delivery_count == 1 {
                // Hold forever: the kill strands these in flight.
                held_log.record("H", l.item);
            } else if l.item % 11 == 3 && l.delivery_count == 1 {
                // One nack, to put redelivery traffic in the log too.
                q.nack(1, &l).expect("child: nack");
            } else {
                q.ack(&l).expect("child: ack");
                ack_log.record("A", l.item);
            }
        });
    });
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

fn kill_round(sync_key: &str, min_acks: usize) {
    let sync = parse_sync(sync_key);
    let dir = scratch_dir(&format!("lease-kill-{sync_key}"));

    let mut child = ChildProc::new("lease_kill_child_entry")
        .env(ENV_DIR, &dir)
        .env(ENV_SYNC, sync_key)
        .spawn();
    wait_for_lines(
        &mut child,
        &dir.join("acks.log"),
        min_acks,
        Duration::from_secs(120),
    );
    kill_and_reap(&mut child);

    // A fresh "process": reopen the deployment from the directory alone.
    let orch = RecoveryOrchestrator::new(SHARDS);
    let (queue, report, manifest) = open_leased_dir::<DurableMsQueue>(
        &orch,
        &dir,
        QueueConfig::small_test(),
        &lease_config(sync),
        None,
    )
    .expect("recover leased dir");
    assert_eq!(manifest.shards(), SHARDS);
    let lease_rec = report.lease.expect("lease recovery counts in the report");

    let enq = read_unique_acks(&dir.join("enq.log"), "E");
    let acked = read_unique_acks(&dir.join("acks.log"), "A");
    let held = read_unique_acks(&dir.join("held.log"), "H");
    assert!(acked.len() >= min_acks, "kill landed before real traffic");
    assert!(!held.is_empty(), "kill stranded no live leases");

    // Drain every lease the recovered deployment will grant: redeliveries
    // first (by construction), then the base-queue residue.
    let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
    let mut redelivered = 0u64;
    while let Some(l) = queue.dequeue(0) {
        assert!(
            seen.insert(l.item, l.delivery_count).is_none(),
            "item {} delivered twice after recovery",
            l.item
        );
        if l.delivery_count >= 2 {
            redelivered += 1;
        }
        queue.ack(&l).unwrap();
    }

    // Exactly the recovery-queued redeliveries carried a bumped count (the
    // parent nacked nothing and nothing expired).
    assert_eq!(redelivered, lease_rec.redelivered, "redelivery count drift");
    assert!(
        lease_rec.unacked as usize >= held.len(),
        "report lost held leases: {} < {}",
        lease_rec.unacked,
        held.len()
    );

    // Every deliberately-held lease came back exactly once, second attempt.
    for &h in &held {
        assert_eq!(
            seen.get(&h),
            Some(&2),
            "held item {h} not redelivered with delivery_count 2"
        );
    }

    // No confirmed ack is ever redelivered.
    let resurrected: Vec<u64> = acked
        .iter()
        .filter(|v| seen.contains_key(v))
        .copied()
        .collect();
    assert!(resurrected.is_empty(), "resurrected acks: {resurrected:?}");

    // The poison item (and only it) sits in the dead-letter queue, put
    // there by the child before the kill — recovery added nothing.
    assert_eq!(lease_rec.dead_lettered, 0, "recovery dead-lettered items");
    let dlq = queue.dlq().expect("deployment has a DLQ");
    let dead: Vec<u64> = std::iter::from_fn(|| dlq.dequeue(0)).collect();
    assert_eq!(dead, vec![POISON], "dead-letter queue contents");

    // Confirmed enqueues all survive somewhere (acked, redelivered, or in
    // the residue) — except at most the one in-transit item of the
    // destructive-pop-to-grant window, which no consumer ever observed.
    let missing: Vec<u64> = enq
        .iter()
        .filter(|v| !acked.contains(v) && !seen.contains_key(v))
        .copied()
        .collect();
    assert!(missing.len() <= 1, "confirmed items lost: {missing:?}");
    // And nothing materialises out of thin air (≤ 1 enqueue whose ack
    // line the kill swallowed).
    let extras: Vec<u64> = seen.keys().filter(|v| !enq.contains(v)).copied().collect();
    assert!(extras.len() <= 1, "unconfirmed extras: {extras:?}");

    eprintln!(
        "[{sync_key}] confirmed: {} enqueued, {} acked, {} held; recovered: {} redelivered ({})",
        enq.len(),
        acked.len(),
        held.len(),
        redelivered,
        report.summary(),
    );

    // The recovered deployment serves fresh peek-lock traffic.
    queue.enqueue(2, u64::MAX);
    let l = queue.dequeue(2).expect("post-recovery grant");
    assert_eq!((l.item, l.delivery_count), (u64::MAX, 1));
    queue.ack(&l).unwrap();

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_consumer_redelivers_unacked_leases_process_crash_tier() {
    kill_round("processcrash", 300);
}

/// The producer's and consumer's fences group-commit here, so coalesced
/// msyncs across the two threads must not weaken any part of the delivery
/// contract either.
#[test]
fn killed_consumer_redelivers_unacked_leases_power_fail_tier() {
    kill_round("powerfail", 150);
}
