//! The `harness restart` verb: a real kill-`SIGKILL`-and-reopen round.
//!
//! The parent spawns a child process (this same binary, hidden
//! `restart-child` verb) that creates a **file-backed** queue — a single
//! pool file, or an N-shard directory with a shard-map manifest — and
//! drives enqueue/dequeue traffic, acknowledging every completed operation
//! with one `write(2)` line to an ack log. Once enough operations are
//! confirmed the parent SIGKILLs the child mid-traffic, reopens the pool
//! file(s) in-process via `store::FilePool` (+ the manifest for shard
//! directories), runs the algorithm's ordinary `recover()` and validates a
//! linearizable suffix:
//!
//! * every confirmed enqueue is recovered or confirmedly dequeued (up to
//!   one in-flight dequeue whose ack the kill destroyed),
//! * no confirmed dequeue is resurrected,
//! * at most one unconfirmed in-flight enqueue appears, exactly once,
//! * per-shard FIFO order holds in the residue.

use crate::algorithms::Algorithm;
use crate::with_recoverable;
use durable_queues::{DurableQueue, QueueConfig, RecoverableQueue};
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig, ShardedQueue};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use store::{FileConfig, FilePool, SyncPolicy};

/// Configuration of one restart round (parent and child read the same).
#[derive(Clone, Debug)]
pub struct RestartConfig {
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// Number of shards: 1 = a single pool file, >1 = a manifest directory.
    pub shards: usize,
    /// Working directory holding the pool file(s) and ack logs.
    pub dir: PathBuf,
    /// Per-pool file size in bytes.
    pub pool_bytes: usize,
    /// Per-pool growth step in bytes (`0` = fixed-size pools). With a
    /// deliberately undersized `--pool-bytes` this exercises elastic growth
    /// under kill: the child outgrows its creation-time ceiling mid-traffic
    /// and the kill can land inside the grow protocol itself.
    pub grow_step: usize,
    /// Fence durability policy of the file pools.
    pub sync: SyncPolicy,
    /// Power-fail group-commit window in nanoseconds for the child's pools.
    /// The kill lands with batched `msync` submissions in flight, which is
    /// exactly the protocol window the round must prove safe.
    pub fence_window_ns: u64,
    /// Confirmed enqueues to wait for before the kill.
    pub min_acks: usize,
    /// Routing policy for sharded rounds.
    pub policy: RoutePolicy,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            algorithm: Algorithm::DurableMsq,
            shards: 1,
            dir: std::env::temp_dir().join(format!("harness-restart-{}", std::process::id())),
            pool_bytes: 128 << 20,
            grow_step: 0,
            sync: SyncPolicy::ProcessCrash,
            fence_window_ns: 0,
            min_acks: 2_000,
            policy: RoutePolicy::RoundRobin,
        }
    }
}

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_threads: 8,
        area_size: 1 << 20,
    }
}

const POOL_FILE: &str = "pool.dq";

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// The hidden `restart-child` verb: creates the file-backed queue and
/// drives traffic until killed. Never returns under normal operation.
pub fn run_child(cfg: &RestartConfig) {
    std::fs::create_dir_all(&cfg.dir).expect("restart-child: create dir");
    // The crash-surviving flight recorder rides next to the pool file(s):
    // every lifecycle event the child hits (growth commits, reshard phases,
    // lease settlements) lands in BLACKBOX.ring, where the parent — and
    // `harness blackbox` after any real crash — can replay it post-SIGKILL.
    let recorder =
        obs::flight::FlightRecorder::create_or_open(&cfg.dir, obs::flight::DEFAULT_CAPACITY)
            .expect("restart-child: create flight recorder");
    obs::flight::install(recorder);
    with_recoverable!(cfg.algorithm, Q => {
        let file_cfg = FileConfig::with_size(cfg.pool_bytes)
            .with_sync(cfg.sync)
            .with_growth(cfg.grow_step)
            .with_fence_window(cfg.fence_window_ns);
        if cfg.shards == 1 {
            let pool = FilePool::create(cfg.dir.join(POOL_FILE), file_cfg)
                .expect("restart-child: create pool")
                .into_pool();
            drive_traffic(&Q::create(pool, queue_config()), &cfg.dir);
        } else {
            let orch = RecoveryOrchestrator::new(cfg.shards);
            let queue: ShardedQueue<Q> = orch
                .create_dir(
                    &cfg.dir,
                    ShardConfig {
                        shards: cfg.shards,
                        queue: queue_config(),
                        pool: pmem::PoolConfig::test_with_size(cfg.pool_bytes),
                        policy: cfg.policy,
                    },
                    file_cfg,
                )
                .expect("restart-child: create shard dir");
            drive_traffic(&queue, &cfg.dir);
        }
    });
}

/// One enqueuer (tid 0) + one dequeuer (tid 1); each op is acknowledged
/// with a single `write` after it returns, so the parent knows exactly
/// which operations completed. The dequeuer is throttled to half the
/// enqueue rate, so the kill always finds a substantial residue for
/// recovery to reconstruct (an empty queue would recover trivially).
fn drive_traffic<Q: DurableQueue>(queue: &Q, dir: &Path) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut enq_log = std::fs::File::create(dir.join("enq.log")).expect("restart-child: enq log");
    let mut deq_log = std::fs::File::create(dir.join("deq.log")).expect("restart-child: deq log");
    let enq_count = AtomicU64::new(0);
    let deq_count = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let (enq_count, deq_count) = (&enq_count, &deq_count);
        scope.spawn(move || {
            for seq in 1..=u64::MAX {
                queue.enqueue(0, seq);
                enq_log
                    .write_all(format!("E {seq}\n").as_bytes())
                    .expect("restart-child: enq ack");
                enq_count.fetch_add(1, Ordering::Relaxed);
            }
        });
        scope.spawn(move || loop {
            if deq_count.load(Ordering::Relaxed) * 2 + 8 < enq_count.load(Ordering::Relaxed) {
                if let Some(v) = queue.dequeue(1) {
                    deq_log
                        .write_all(format!("D {v}\n").as_bytes())
                        .expect("restart-child: deq ack");
                    deq_count.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                std::hint::spin_loop();
            }
        });
    });
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// Outcome of a restart round (also the line printed per round).
#[derive(Clone, Debug)]
pub struct RestartOutcome {
    /// Confirmed (acknowledged) enqueues at kill time.
    pub confirmed_enqueues: usize,
    /// Confirmed dequeues at kill time.
    pub confirmed_dequeues: usize,
    /// Items drained from the recovered queue.
    pub recovered: usize,
    /// Wall-clock recovery time (file open + `recover()`, all shards).
    pub recovery: Duration,
    /// Committed pool growths inherited across the restart, summed over all
    /// shards (`0` for rounds whose pools never outgrew `--pool-bytes`).
    pub growth_epochs: u64,
    /// Valid lifecycle events replayed from the child's `BLACKBOX.ring`
    /// after the kill (torn tail records excluded).
    pub blackbox_events: u64,
}

/// Runs one full round: spawn, wait for progress, SIGKILL, reopen,
/// recover, validate. Panics (non-zero exit) on any violated guarantee.
pub fn run_round(cfg: &RestartConfig) -> RestartOutcome {
    assert!(cfg.shards >= 1, "--shards must be >= 1");
    // Work in a round-owned subdirectory: `--dir` may be a pre-existing
    // user directory, and this function deletes its working tree before
    // and after the round.
    let cfg = RestartConfig {
        dir: cfg.dir.join(format!(
            "round-{}-{}shards",
            cfg.algorithm.name().replace([' ', '(', ')'], ""),
            cfg.shards
        )),
        ..cfg.clone()
    };
    let cfg = &cfg;
    let _ = std::fs::remove_dir_all(&cfg.dir);
    std::fs::create_dir_all(&cfg.dir).expect("create restart dir");

    let exe = std::env::current_exe().expect("harness binary path");
    let args = [
        "restart-child",
        "--algo",
        cfg.algorithm.name(),
        "--shards",
        &cfg.shards.to_string(),
        "--dir",
        cfg.dir.to_str().expect("utf-8 dir"),
        "--pool-bytes",
        &cfg.pool_bytes.to_string(),
        "--grow-step",
        &cfg.grow_step.to_string(),
        "--sync",
        cfg.sync.key(),
        "--policy",
        cfg.policy.key(),
        // The CLI flag speaks microseconds (see `harness --help`).
        "--fence-window",
        &(cfg.fence_window_ns / 1_000).to_string(),
    ];
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn restart child");

    let deadline = Instant::now() + Duration::from_secs(120);
    // Cheap progress probe: count newlines only — the full (uniqueness-
    // checking) parse runs once, after the kill, not on every poll tick.
    while count_ack_lines(&cfg.dir.join("enq.log")) < cfg.min_acks {
        if let Some(status) = child.try_wait().expect("poll restart child") {
            panic!("restart child exited prematurely ({status}) before reaching traffic");
        }
        assert!(
            Instant::now() < deadline,
            "restart child reached no traffic within 120s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL restart child");
    child.wait().expect("reap restart child");

    // `recovery` times file open + `recover()` only; the drain and FIFO
    // validation below are checker work, not restart latency.
    let (drained, recovery, growth_epochs) = with_recoverable!(cfg.algorithm, Q => {
        if cfg.shards == 1 {
            let begun = Instant::now();
            let pool =
                FilePool::open_with_growth(cfg.dir.join(POOL_FILE), cfg.sync, cfg.grow_step)
                    .expect("reopen pool file");
            assert!(!pool.was_clean(), "SIGKILL must leave the pool dirty");
            let growths = pool.growth_epoch() as u64;
            let queue = Q::recover(pool.into_pool(), queue_config());
            let recovery = begun.elapsed();
            let drained: Vec<u64> = std::iter::from_fn(|| queue.dequeue(0)).collect();
            for pair in drained.windows(2) {
                assert!(pair[0] < pair[1], "FIFO violated across the restart");
            }
            (drained, recovery, growths)
        } else {
            let orch = RecoveryOrchestrator::new(cfg.shards);
            let begun = Instant::now();
            let (queue, report, manifest) = orch
                .open_dir_with_growth::<Q>(&cfg.dir, queue_config(), cfg.sync, cfg.grow_step)
                .expect("recover shard directory");
            let recovery = begun.elapsed();
            assert!(report.wall <= recovery, "report covers the recover() part");
            assert_eq!(manifest.shards(), cfg.shards, "manifest shard count");
            let growths = report.total_growth_epochs();
            let mut drained = Vec::new();
            for i in 0..cfg.shards {
                let mut last = None;
                while let Some(v) = queue.shard(i).dequeue(0) {
                    if let Some(prev) = last {
                        assert!(v > prev, "shard {i}: FIFO violated across the restart");
                    }
                    last = Some(v);
                    drained.push(v);
                }
            }
            (drained, recovery, growths)
        }
    });

    let acked_e = read_acks(&cfg.dir.join("enq.log"));
    let acked_d = read_acks(&cfg.dir.join("deq.log"));
    validate_suffix(&acked_e, &acked_d, &drained);
    assert!(
        acked_e.len() >= cfg.min_acks,
        "kill landed before the requested traffic"
    );

    // The flight recorder must survive the SIGKILL exactly like the pool
    // files: the ring replays with a valid header, and every pool growth
    // the reopened pools inherited shows up as a PoolGrowthCommit event
    // written *before* the growth's commit fence could be interrupted.
    let ring = obs::flight::replay(&obs::flight::FlightRecorder::ring_path(&cfg.dir))
        .expect("replay BLACKBOX.ring after SIGKILL");
    let growth_events = ring
        .of_kind(obs::flight::EventKind::PoolGrowthCommit)
        .count() as u64;
    assert!(
        growth_events >= growth_epochs,
        "blackbox lost growth commits: ring has {growth_events}, pools report {growth_epochs}"
    );

    let _ = std::fs::remove_dir_all(&cfg.dir);
    RestartOutcome {
        confirmed_enqueues: acked_e.len(),
        confirmed_dequeues: acked_d.len(),
        recovered: drained.len(),
        recovery,
        growth_epochs,
        blackbox_events: ring.events.len() as u64,
    }
}

/// The linearizable-suffix conditions, with the 1-enqueuer/1-dequeuer
/// in-flight windows of [`drive_traffic`].
fn validate_suffix(acked_e: &BTreeSet<u64>, acked_d: &BTreeSet<u64>, drained: &[u64]) {
    let r_set: BTreeSet<u64> = drained.iter().copied().collect();
    assert_eq!(r_set.len(), drained.len(), "duplicated item in the residue");
    let resurrected: Vec<u64> = r_set.intersection(acked_d).copied().collect();
    assert!(
        resurrected.is_empty(),
        "confirmed dequeues resurrected: {resurrected:?}"
    );
    let missing: Vec<u64> = acked_e
        .iter()
        .filter(|v| !acked_d.contains(v) && !r_set.contains(v))
        .copied()
        .collect();
    assert!(
        missing.len() <= 1,
        "{} confirmed items lost: {:?}",
        missing.len(),
        &missing[..missing.len().min(10)]
    );
    let extras: Vec<u64> = r_set.difference(acked_e).copied().collect();
    assert!(
        extras.len() <= 1,
        "{} unconfirmed extras recovered: {:?}",
        extras.len(),
        &extras[..extras.len().min(10)]
    );
}

/// Completed ack lines so far — newline count only, for the wait loop.
fn count_ack_lines(path: &Path) -> usize {
    std::fs::read(path)
        .map(|raw| raw.iter().filter(|&&b| b == b'\n').count())
        .unwrap_or(0)
}

/// Parses complete `<tag> <number>` ack lines; a torn trailing line counts
/// as unacknowledged (exactly what it is).
fn read_acks(path: &Path) -> BTreeSet<u64> {
    let Ok(raw) = std::fs::read(path) else {
        return BTreeSet::new();
    };
    let text = String::from_utf8_lossy(&raw);
    let mut out = BTreeSet::new();
    for line in text.split_inclusive('\n') {
        let Some(body) = line.strip_suffix('\n') else {
            break;
        };
        let num = body
            .get(1..)
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("malformed ack line {body:?}"));
        assert!(out.insert(num), "duplicate ack {num}");
    }
    out
}

/// Renders the collected restart rounds — plus the reshard-kill and
/// lease-kill rounds when they ran — as one machine-readable JSON
/// experiment object (schema documented in the README under
/// "Machine-readable results"), matching the experiment-object shape of
/// `counts` and `shards`.
pub fn restart_json(
    rounds: &[(RestartConfig, RestartOutcome)],
    reshard: Option<&crate::reshard::ReshardKillOutcome>,
    lease: Option<&crate::lease_verb::LeaseKillOutcome>,
) -> String {
    // All rounds of one invocation share the sync policy (they derive from
    // one base config), so the first round's key is the meta-level one.
    let sync = rounds.first().map(|(cfg, _)| cfg.sync.key());
    let mut obj = crate::jsonio::ExperimentObject::new("restart", "file", sync);
    for (cfg, outcome) in rounds {
        obj.row(format!(
            "{{\"algorithm\": \"{}\", \"shards\": {}, \"policy\": \"{}\", \"sync\": \"{}\", \
             \"pool_bytes\": {}, \"grow_step\": {}, \"fence_window_us\": {}, \
             \"growth_epochs\": {}, \"blackbox_events\": {}, \
             \"confirmed_enqueues\": {}, \"confirmed_dequeues\": {}, \"recovered\": {}, \
             \"recovery_ms\": {}}}",
            cfg.algorithm.name(),
            cfg.shards,
            cfg.policy.key(),
            cfg.sync.key(),
            cfg.pool_bytes,
            cfg.grow_step,
            cfg.fence_window_ns / 1_000,
            outcome.growth_epochs,
            outcome.blackbox_events,
            outcome.confirmed_enqueues,
            outcome.confirmed_dequeues,
            outcome.recovered,
            outcome.recovery.as_secs_f64() * 1e3,
        ));
    }
    match reshard {
        Some(o) => {
            let resolution = match o.resolved {
                Some(shard::ReshardResolution::RolledBack { .. }) => "\"rolled-back\"",
                Some(shard::ReshardResolution::RolledForward { .. }) => "\"rolled-forward\"",
                None => "null",
            };
            obj.section(
                "reshard_kill",
                format!(
                    "{{\"completed_reshards\": {}, \"resolution\": {}, \
                     \"shards_after\": {}, \"items\": {}}}",
                    o.completed_reshards, resolution, o.shards_after, o.items,
                ),
            );
        }
        None => obj.section("reshard_kill", String::from("null")),
    }
    match lease {
        Some(o) => obj.section(
            "lease_kill",
            format!(
                "{{\"confirmed_enqueues\": {}, \"confirmed_acks\": {}, \
                 \"held\": {}, \"unacked\": {}, \"redelivered\": {}, \"recovery_ms\": {}}}",
                o.confirmed_enqueues,
                o.confirmed_acks,
                o.held,
                o.unacked,
                o.redelivered,
                o.recovery.as_secs_f64() * 1e3,
            ),
        ),
        None => obj.section("lease_kill", String::from("null")),
    }
    obj.finish()
}

/// Renders one round's outcome as the verb's report line.
pub fn render_outcome(cfg: &RestartConfig, outcome: &RestartOutcome) -> String {
    let growth = match outcome.growth_epochs {
        0 => String::new(),
        n => format!(" (pool grew x{n} past its creation ceiling)"),
    };
    let window = match cfg.fence_window_ns {
        0 => String::new(),
        ns => format!(" [fence window {}us]", ns / 1_000),
    };
    format!(
        "restart {} x{} [{}{}]: {} confirmed enqueues, {} confirmed dequeues, \
         {} recovered in {:.3} ms — no loss, no duplication, FIFO intact{} \
         [{} blackbox event(s) survived the kill]\n",
        cfg.algorithm.name(),
        cfg.shards,
        cfg.sync.key(),
        window,
        outcome.confirmed_enqueues,
        outcome.confirmed_dequeues,
        outcome.recovered,
        outcome.recovery.as_secs_f64() * 1e3,
        growth,
        outcome.blackbox_events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_validation_accepts_legal_windows() {
        let e: BTreeSet<u64> = (1..=10).collect();
        let d: BTreeSet<u64> = [1, 2].into_iter().collect();
        // 3 lost in-flight (1 allowed is violated at 2+ -> use exactly 1):
        let drained: Vec<u64> = (4..=11).collect(); // 3 missing, 11 is an extra
        validate_suffix(&e, &d, &drained);
    }

    #[test]
    #[should_panic(expected = "resurrected")]
    fn suffix_validation_rejects_resurrection() {
        let e: BTreeSet<u64> = (1..=5).collect();
        let d: BTreeSet<u64> = [1].into_iter().collect();
        validate_suffix(&e, &d, &[1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "lost")]
    fn suffix_validation_rejects_loss() {
        let e: BTreeSet<u64> = (1..=10).collect();
        let d = BTreeSet::new();
        validate_suffix(&e, &d, &[9, 10]);
    }

    #[test]
    #[should_panic(expected = "duplicated")]
    fn suffix_validation_rejects_duplication() {
        let e: BTreeSet<u64> = (1..=5).collect();
        let d = BTreeSet::new();
        validate_suffix(&e, &d, &[1, 2, 2, 3, 4, 5]);
    }

    #[test]
    fn restart_json_is_well_formed_with_and_without_reshard() {
        let rounds = vec![
            (
                RestartConfig::default(),
                RestartOutcome {
                    confirmed_enqueues: 2_000,
                    confirmed_dequeues: 990,
                    recovered: 1_011,
                    recovery: Duration::from_millis(3),
                    growth_epochs: 0,
                    blackbox_events: 0,
                },
            ),
            (
                RestartConfig {
                    shards: 4,
                    algorithm: Algorithm::OptUnlinked,
                    ..RestartConfig::default()
                },
                RestartOutcome {
                    confirmed_enqueues: 2_100,
                    confirmed_dequeues: 1_000,
                    recovered: 1_101,
                    recovery: Duration::from_millis(2),
                    growth_epochs: 3,
                    blackbox_events: 7,
                },
            ),
        ];
        let json = restart_json(&rounds, None, None);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
        assert!(json.contains("\"experiment\": \"restart\""));
        assert!(json.contains("\"reshard_kill\": null"));
        assert!(json.contains("\"lease_kill\": null"));
        assert_eq!(json.matches("\"algorithm\"").count(), 2);
        assert!(json.contains("\"sync\": \"process-crash\""));
        assert!(json.contains("\"growth_epochs\": 0"));
        assert!(json.contains("\"growth_epochs\": 3"));
        assert!(json.contains("\"grow_step\": 0"));

        let reshard = crate::reshard::ReshardKillOutcome {
            completed_reshards: 3,
            resolved: Some(shard::ReshardResolution::RolledForward { from: 4, to: 2 }),
            shards_after: 2,
            items: 2_000,
        };
        let lease = crate::lease_verb::LeaseKillOutcome {
            confirmed_enqueues: 5_000,
            confirmed_acks: 1_200,
            held: 170,
            unacked: 180,
            redelivered: 181,
            recovery: Duration::from_millis(4),
        };
        let json = restart_json(&rounds, Some(&reshard), Some(&lease));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"resolution\": \"rolled-forward\""));
        assert!(json.contains("\"shards_after\": 2"));
        assert!(json.contains("\"lease_kill\": {\"confirmed_enqueues\": 5000"));
        assert!(json.contains("\"redelivered\": 181"));
    }
}
