//! The `harness lease` verb — a peek-lock producer/consumer delivery
//! drill with a text table; lease throughput is gated by `qbench`'s
//! `lease-pc`/`group-pf` — plus the consumer-SIGKILL round the `restart`
//! verb runs.
//!
//! ```text
//! harness lease [--shards 1,2,4] [--ops N] [--nack-percent P]
//!               [--consumers N] [--groups G] [--work-ns X]
//!               [--algo A] [--policy rr|keyhash|load]
//!               [--sync process-crash|power-fail] [--dir PATH] [--quick]
//! ```
//!
//! One producer thread enqueues `--ops` items through a file-backed
//! [`lease::LeasedQueue`] deployment while one consumer drains it under
//! peek-lock: every delivery is acked, except that `--nack-percent` of
//! the items are nacked on their first delivery and acked on redelivery,
//! so the measured rate includes real redelivery traffic and every run
//! exercises the ack log's grant/ack/pend record mix. The table reports
//! end-to-end consumed throughput, the ack rate, and the lease-layer
//! counters (granted / redelivered / nacked / compactions).
//!
//! With `--groups G` (or `--consumers N` > 1) the sweep switches to the
//! consumer-group deployment ([`lease::GroupedQueue`]): `G` groups each
//! see every item, `N` consumers per group compete for them, and each
//! delivery waits `--work-ns` nanoseconds of simulated per-item work
//! (a yielding wait modelling downstream I/O, outside any lock) so
//! within-group scaling is visible rather than hidden behind an empty
//! critical section. The table reports the aggregate acked rate
//! (`G * ops / wall`) plus the per-group segment rotation/retirement
//! counters summed across groups.
//!
//! The SIGKILL round ([`run_lease_kill_round`]) spawns this same binary
//! as a `lease-child`, kills it while it holds live leases, reopens the
//! directory in-process and validates the delivery contract: unacked
//! leases redeliver exactly once with a bumped delivery count, confirmed
//! acks never resurface, and the child's deliberately-poisoned item sits
//! alone in the dead-letter queue.

use crate::algorithms::Algorithm;
use crate::with_recoverable;
use durable_queues::QueueConfig;
use lease::{
    create_grouped_dir, create_leased_dir, open_leased_dir, GroupDirConfig, GroupStats,
    LeaseDirConfig, LeaseStats, Redelivery,
};
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use store::{FileConfig, SyncPolicy};

/// Configuration of one `harness lease` throughput run.
#[derive(Clone, Debug)]
pub struct LeaseVerbConfig {
    /// The base-queue algorithm under the lease layer.
    pub algorithm: Algorithm,
    /// Shard counts to sweep (one table row each).
    pub shard_counts: Vec<usize>,
    /// Items the producer enqueues (and the consumer must ack).
    pub ops: u64,
    /// Percent of items nacked on first delivery (acked on redelivery).
    pub nack_percent: u32,
    /// Working directory for the pool files and ack log.
    pub dir: PathBuf,
    /// Fence durability policy of the file pools and the ack log.
    pub sync: SyncPolicy,
    /// Routing policy of the sharded base.
    pub policy: RoutePolicy,
    /// Per-pool file size in bytes.
    pub pool_bytes: usize,
    /// Power-fail group-commit window in nanoseconds for the shard pools;
    /// see [`store::FileConfig::fence_window_ns`].
    pub fence_window_ns: u64,
    /// Competing consumers per group (`> 1`, or `groups > 1`, selects the
    /// grouped sweep).
    pub consumers: usize,
    /// Consumer groups, each seeing every item.
    pub groups: usize,
    /// Simulated per-delivery work in nanoseconds (grouped sweep only),
    /// burned outside every lock.
    pub work_ns: u64,
}

impl Default for LeaseVerbConfig {
    fn default() -> Self {
        LeaseVerbConfig {
            algorithm: Algorithm::OptUnlinked,
            shard_counts: vec![1, 2, 4],
            ops: 200_000,
            nack_percent: 5,
            dir: std::env::temp_dir().join(format!("harness-lease-{}", std::process::id())),
            sync: SyncPolicy::ProcessCrash,
            policy: RoutePolicy::RoundRobin,
            pool_bytes: 64 << 20,
            fence_window_ns: 0,
            consumers: 1,
            groups: 1,
            work_ns: 20_000,
        }
    }
}

impl LeaseVerbConfig {
    /// The CI-sized variant (`--quick`).
    pub fn quick() -> Self {
        LeaseVerbConfig {
            shard_counts: vec![1, 2],
            ops: 20_000,
            pool_bytes: 32 << 20,
            ..LeaseVerbConfig::default()
        }
    }

    /// Whether this configuration selects the consumer-group sweep.
    pub fn is_grouped(&self) -> bool {
        self.groups > 1 || self.consumers > 1
    }
}

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_threads: 8,
        area_size: 1 << 20,
    }
}

/// One row of the lease throughput table.
#[derive(Clone, Debug)]
pub struct LeaseRow {
    /// Shard count of this row's deployment.
    pub shards: usize,
    /// Wall-clock time from first enqueue to last ack.
    pub wall: Duration,
    /// End-to-end consumed (acked) items per second.
    pub acked_per_sec: f64,
    /// Lease-layer counters at the end of the run.
    pub stats: LeaseStats,
    /// Ack-log records on disk at the end of the run (post-compaction).
    pub log_records: u64,
}

/// Runs the producer/consumer sweep: one row per shard count.
pub fn run_lease(cfg: &LeaseVerbConfig) -> Vec<LeaseRow> {
    cfg.shard_counts.iter().map(|&s| run_one(cfg, s)).collect()
}

fn run_one(cfg: &LeaseVerbConfig, shards: usize) -> LeaseRow {
    let dir = cfg.dir.join(format!("sweep-{shards}shards"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("lease: create sweep dir");
    let orch = RecoveryOrchestrator::new(shards);
    let lease_cfg = LeaseDirConfig {
        // Long enough that nothing expires mid-run: redelivery traffic
        // comes from the nacks, not from timeouts.
        lease_timeout: Duration::from_secs(600),
        max_deliveries: 8,
        sync: cfg.sync,
        ..LeaseDirConfig::default()
    };
    let (wall, stats, log_records) = with_recoverable!(cfg.algorithm, Q => {
        let queue = create_leased_dir::<Q>(
            &orch,
            &dir,
            ShardConfig {
                shards,
                queue: queue_config(),
                pool: pmem::PoolConfig::test_with_size(cfg.pool_bytes),
                policy: cfg.policy,
            },
            FileConfig::with_size(cfg.pool_bytes)
                .with_sync(cfg.sync)
                .with_fence_window(cfg.fence_window_ns),
            &lease_cfg,
        )
        .expect("lease: create leased dir");
        let started = Instant::now();
        std::thread::scope(|scope| {
            let q = &queue;
            scope.spawn(move || {
                for seq in 1..=cfg.ops {
                    q.enqueue(0, seq);
                }
            });
            scope.spawn(move || {
                let mut acked = 0u64;
                while acked < cfg.ops {
                    let Some(l) = q.dequeue(1) else {
                        std::hint::spin_loop();
                        continue;
                    };
                    if l.delivery_count == 1 && l.item % 100 < cfg.nack_percent as u64 {
                        // First delivery of a nack-designated item: send it
                        // around again; it is acked on redelivery below.
                        q.nack(1, &l).expect("lease: nack");
                    } else {
                        q.ack(&l).expect("lease: ack");
                        acked += 1;
                    }
                }
            });
        });
        let wall = started.elapsed();
        (wall, queue.stats(), queue.log_records())
    });
    let _ = std::fs::remove_dir_all(&dir);
    LeaseRow {
        shards,
        wall,
        acked_per_sec: cfg.ops as f64 / wall.as_secs_f64(),
        stats,
        log_records,
    }
}

/// Renders the sweep as the verb's table.
pub fn render_lease(cfg: &LeaseVerbConfig, rows: &[LeaseRow]) -> String {
    let mut out = format!(
        "=== lease: peek-lock producer/consumer, {} x {} ops, {}% nacked once [{}] ===\n\
         {:>7} {:>10} {:>12} {:>9} {:>12} {:>8} {:>13} {:>12}\n",
        cfg.algorithm.name(),
        cfg.ops,
        cfg.nack_percent,
        cfg.sync.key(),
        "shards",
        "wall ms",
        "acked/s",
        "granted",
        "redelivered",
        "nacked",
        "compactions",
        "log records",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>7} {:>10.1} {:>12.0} {:>9} {:>12} {:>8} {:>13} {:>12}\n",
            r.shards,
            r.wall.as_secs_f64() * 1e3,
            r.acked_per_sec,
            r.stats.granted,
            r.stats.redelivered,
            r.stats.nacked,
            r.stats.compactions,
            r.log_records,
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Consumer-group sweep (`--consumers N --groups G`)
// ---------------------------------------------------------------------

/// One row of the consumer-group throughput table.
#[derive(Clone, Debug)]
pub struct LeaseGroupRow {
    /// Shard count of this row's deployment.
    pub shards: usize,
    /// Wall-clock time from first enqueue to last ack in any group.
    pub wall: Duration,
    /// Aggregate acked items per second across all groups
    /// (`groups * ops / wall`).
    pub acked_per_sec: f64,
    /// Lease-layer counters summed across groups.
    pub stats: GroupStats,
}

fn grouped_queue_config(cfg: &LeaseVerbConfig) -> QueueConfig {
    QueueConfig {
        // One producer slot plus one per consumer thread, floor 8 so tiny
        // runs match the ungrouped sweep's sizing.
        max_threads: (1 + cfg.groups * cfg.consumers).max(8),
        area_size: 1 << 20,
    }
}

fn group_names(groups: usize) -> Vec<String> {
    (0..groups).map(|g| format!("g{g}")).collect()
}

/// Waits roughly `work_ns` nanoseconds without touching any lock,
/// yielding the CPU the whole time — the per-item work of a real consumer
/// is dominated by downstream I/O (an RPC, a database write), and a
/// yielding wait is what lets those waits overlap across competing
/// consumers, so within-group scaling stays visible even on a single
/// core (a spin would just timeshare).
fn simulate_work(work_ns: u64) {
    if work_ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < work_ns {
        std::thread::yield_now();
    }
}

/// Runs the consumer-group sweep: one row per shard count; every group
/// must ack all `ops` items through `consumers` competing consumers.
pub fn run_lease_groups(cfg: &LeaseVerbConfig) -> Vec<LeaseGroupRow> {
    cfg.shard_counts
        .iter()
        .map(|&s| run_one_grouped(cfg, s))
        .collect()
}

fn run_one_grouped(cfg: &LeaseVerbConfig, shards: usize) -> LeaseGroupRow {
    let dir = cfg.dir.join(format!(
        "groups-{shards}shards-{}x{}",
        cfg.groups, cfg.consumers
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("lease-groups: create sweep dir");
    let orch = RecoveryOrchestrator::new(shards);
    let group_cfg = GroupDirConfig {
        // Long enough that nothing expires mid-run: redelivery traffic
        // comes from the nacks, not from timeouts.
        lease_timeout: Duration::from_secs(600),
        sync: cfg.sync,
        // Low enough that every run rotates and retires segments, so the
        // reported rotation counters always carry signal.
        rotate_records: 8_192,
        ..GroupDirConfig::new(group_names(cfg.groups))
    };
    let (wall, stats) = with_recoverable!(cfg.algorithm, Q => {
        let queue = create_grouped_dir::<Q>(
            &orch,
            &dir,
            ShardConfig {
                shards,
                queue: grouped_queue_config(cfg),
                pool: pmem::PoolConfig::test_with_size(cfg.pool_bytes),
                policy: cfg.policy,
            },
            FileConfig::with_size(cfg.pool_bytes)
                .with_sync(cfg.sync)
                .with_fence_window(cfg.fence_window_ns),
            &group_cfg,
        )
        .expect("lease-groups: create grouped dir");
        let handles = queue.handles();
        let started = Instant::now();
        std::thread::scope(|scope| {
            let q = &queue;
            scope.spawn(move || {
                for seq in 1..=cfg.ops {
                    q.enqueue(0, seq);
                }
            });
            for (g, handle) in handles.iter().enumerate() {
                let acked = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
                for c in 0..cfg.consumers {
                    let handle = handle.clone();
                    let acked = std::sync::Arc::clone(&acked);
                    let tid = 1 + g * cfg.consumers + c;
                    scope.spawn(move || {
                        use std::sync::atomic::Ordering;
                        while acked.load(Ordering::Relaxed) < cfg.ops {
                            let Some(l) = handle.dequeue(tid) else {
                                // Yield, don't spin: a miss means another
                                // thread owns the next step, and burning
                                // the core starves it.
                                std::thread::yield_now();
                                continue;
                            };
                            if l.delivery_count == 1 && l.item % 100 < cfg.nack_percent as u64 {
                                handle.nack(tid, &l).expect("lease-groups: nack");
                            } else {
                                simulate_work(cfg.work_ns);
                                handle.ack(&l).expect("lease-groups: ack");
                                acked.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            }
        });
        let wall = started.elapsed();
        let mut stats = GroupStats::default();
        for handle in &handles {
            let s = handle.stats();
            assert_eq!(s.acked, cfg.ops, "group {} under-acked", handle.name());
            stats.dispatched += s.dispatched;
            stats.granted += s.granted;
            stats.redelivered += s.redelivered;
            stats.acked += s.acked;
            stats.nacked += s.nacked;
            stats.rotations += s.rotations;
            stats.segments_retired += s.segments_retired;
            stats.log_records += s.log_records;
            stats.segments += s.segments;
        }
        (wall, stats)
    });
    let _ = std::fs::remove_dir_all(&dir);
    LeaseGroupRow {
        shards,
        wall,
        acked_per_sec: (cfg.groups as u64 * cfg.ops) as f64 / wall.as_secs_f64(),
        stats,
    }
}

/// Renders the consumer-group sweep as the verb's table.
pub fn render_lease_groups(cfg: &LeaseVerbConfig, rows: &[LeaseGroupRow]) -> String {
    let mut out = format!(
        "=== lease-groups: {} group(s) x {} consumer(s), {} x {} ops, \
         {}% nacked once, {} ns/item [{}] ===\n\
         {:>7} {:>10} {:>14} {:>9} {:>12} {:>10} {:>8} {:>12} {:>9}\n",
        cfg.groups,
        cfg.consumers,
        cfg.algorithm.name(),
        cfg.ops,
        cfg.nack_percent,
        cfg.work_ns,
        cfg.sync.key(),
        "shards",
        "wall ms",
        "acked/s (agg)",
        "granted",
        "redelivered",
        "rotations",
        "retired",
        "log records",
        "segments",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>7} {:>10.1} {:>14.0} {:>9} {:>12} {:>10} {:>8} {:>12} {:>9}\n",
            r.shards,
            r.wall.as_secs_f64() * 1e3,
            r.acked_per_sec,
            r.stats.granted,
            r.stats.redelivered,
            r.stats.rotations,
            r.stats.segments_retired,
            r.stats.log_records,
            r.stats.segments,
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Consumer-SIGKILL round (run by `harness restart`)
// ---------------------------------------------------------------------

const KILL_SHARDS: usize = 2;
/// The item the child nacks past its budget (outside the `1..` sequence),
/// so the kill always finds exactly one known item in the DLQ.
const POISON: u64 = u64::MAX - 1;

fn kill_lease_config(sync: SyncPolicy) -> LeaseDirConfig {
    LeaseDirConfig {
        // Nothing may expire during the round: redelivery must come from
        // the crash, not from timeouts.
        lease_timeout: Duration::from_secs(300),
        max_deliveries: 3,
        sync,
        ..LeaseDirConfig::default()
    }
}

/// The hidden `lease-child` verb: creates a leased deployment, dead-letters
/// one poison item, then produces and consumes forever — acking most
/// deliveries (ack-logged), nacking some, and holding every `item % 7 == 0`
/// lease un-acked so the parent's SIGKILL strands live leases.
pub fn run_lease_child(algorithm: Algorithm, dir: &Path, sync: SyncPolicy, fence_window_ns: u64) {
    std::fs::create_dir_all(dir).expect("lease-child: create dir");
    // Flight recorder next to the pool files: lease grants/acks/settlements
    // land in BLACKBOX.ring so the parent can replay the child's last
    // moments after the SIGKILL (`harness blackbox <dir>` does the same).
    let recorder = obs::flight::FlightRecorder::create_or_open(dir, obs::flight::DEFAULT_CAPACITY)
        .expect("lease-child: create flight recorder");
    obs::flight::install(recorder);
    let orch = RecoveryOrchestrator::new(KILL_SHARDS);
    with_recoverable!(algorithm, Q => {
        let queue = create_leased_dir::<Q>(
            &orch,
            dir,
            ShardConfig {
                shards: KILL_SHARDS,
                queue: queue_config(),
                pool: pmem::PoolConfig::test_with_size(32 << 20),
                policy: RoutePolicy::RoundRobin,
            },
            FileConfig::with_size(32 << 20)
                .with_sync(sync)
                .with_fence_window(fence_window_ns),
            &kill_lease_config(sync),
        )
        .expect("lease-child: create leased dir");

        // Poison dance before any other traffic: nack one item past its
        // budget so the parent always finds it in the dead-letter queue.
        queue.enqueue(0, POISON);
        loop {
            let l = queue.dequeue(1).expect("lease-child: poison visible");
            assert_eq!(l.item, POISON);
            match queue.nack(1, &l).expect("lease-child: nack poison") {
                Redelivery::Requeued { .. } => continue,
                Redelivery::DeadLettered => break,
            }
        }

        let mut enq_log = ack_file(dir, "enq.log");
        let mut ack_log = ack_file(dir, "acks.log");
        let mut held_log = ack_file(dir, "held.log");
        std::thread::scope(|scope| {
            let q = &queue;
            scope.spawn(move || {
                // Bounded so the 32 MiB shard pools can never exhaust while
                // the consumer lags; the consumer still runs forever, so
                // the kill always lands mid-consumption.
                for seq in 1..=50_000u64 {
                    q.enqueue(0, seq);
                    writeln!(enq_log, "E {seq}").expect("lease-child: enq ack");
                }
            });
            scope.spawn(move || loop {
                let Some(l) = q.dequeue(1) else { continue };
                if l.item % 7 == 0 && l.delivery_count == 1 {
                    // Hold forever: the kill strands these in flight.
                    writeln!(held_log, "H {}", l.item).expect("lease-child: held ack");
                } else if l.item % 11 == 3 && l.delivery_count == 1 {
                    q.nack(1, &l).expect("lease-child: nack");
                } else {
                    q.ack(&l).expect("lease-child: ack");
                    writeln!(ack_log, "A {}", l.item).expect("lease-child: ack ack");
                }
            });
        });
    });
}

fn ack_file(dir: &Path, name: &str) -> std::fs::File {
    std::fs::File::options()
        .create(true)
        .append(true)
        .open(dir.join(name))
        .unwrap_or_else(|e| panic!("lease-child: open {name}: {e}"))
}

/// Outcome of one consumer-SIGKILL round.
#[derive(Clone, Debug)]
pub struct LeaseKillOutcome {
    /// Confirmed (ack-logged) enqueues at kill time.
    pub confirmed_enqueues: usize,
    /// Confirmed consumer acks at kill time.
    pub confirmed_acks: usize,
    /// Leases the child deliberately held un-acked.
    pub held: usize,
    /// Unacked leases recovery turned back into deliverable items.
    pub unacked: u64,
    /// Redeliveries observed in the post-recovery drain (all with a
    /// bumped delivery count).
    pub redelivered: u64,
    /// Wall-clock reopen + recovery time.
    pub recovery: Duration,
}

/// Spawns a `lease-child`, SIGKILLs it while it holds live leases, then
/// reopens the leased directory in-process and validates the delivery
/// contract. Panics on any violation.
pub fn run_lease_kill_round(
    algorithm: Algorithm,
    base_dir: &Path,
    sync: SyncPolicy,
    fence_window_ns: u64,
    min_acks: usize,
) -> LeaseKillOutcome {
    let dir = base_dir.join("round-lease");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create lease round dir");

    let exe = std::env::current_exe().expect("harness binary path");
    let args = [
        "lease-child",
        "--algo",
        algorithm.name(),
        "--dir",
        dir.to_str().expect("utf-8 dir"),
        "--sync",
        sync.key(),
        "--fence-window",
        &(fence_window_ns / 1_000).to_string(),
    ];
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn lease child");

    let count_lines = |path: &Path| {
        std::fs::read(path)
            .map(|raw| raw.iter().filter(|&&b| b == b'\n').count())
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    while count_lines(&dir.join("acks.log")) < min_acks || count_lines(&dir.join("held.log")) < 1 {
        if let Some(status) = child.try_wait().expect("poll lease child") {
            panic!("lease child exited prematurely ({status}) before reaching traffic");
        }
        assert!(
            Instant::now() < deadline,
            "lease child reached no traffic within 120s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL lease child");
    child.wait().expect("reap lease child");

    // The child's flight recorder must have survived the kill with its
    // pre-crash lease traffic intact: grants are the densest event in the
    // ring, so a valid replay with zero grants means the ring lost data.
    let ring = obs::flight::replay(&obs::flight::FlightRecorder::ring_path(&dir))
        .expect("replay BLACKBOX.ring after lease SIGKILL");
    assert!(
        ring.of_kind(obs::flight::EventKind::LeaseGrant).count() > 0,
        "blackbox replay has no pre-crash lease grants ({} events, {} torn)",
        ring.events.len(),
        ring.torn,
    );

    let enq = read_tagged(&dir.join("enq.log"));
    let acked = read_tagged(&dir.join("acks.log"));
    let held = read_tagged(&dir.join("held.log"));
    assert!(!held.is_empty(), "kill stranded no live leases");

    let orch = RecoveryOrchestrator::new(KILL_SHARDS);
    let begun = Instant::now();
    let (queue, report) = with_recoverable!(algorithm, Q => {
        let (queue, report, manifest) =
            open_leased_dir::<Q>(&orch, &dir, queue_config(), &kill_lease_config(sync), None)
                .expect("recover leased dir");
        assert_eq!(manifest.shards(), KILL_SHARDS, "manifest shard count");
        let queue: Box<dyn LeaseDrain> = Box::new(queue);
        (queue, report)
    });
    let recovery = begun.elapsed();
    let lease_rec = report.lease.expect("lease recovery counts in the report");

    // Drain everything the recovered deployment will grant and check the
    // contract (mirrors crates/lease/tests/consumer_kill.rs).
    let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
    let mut redelivered = 0u64;
    while let Some((item, delivery_count)) = queue.grant_and_ack() {
        assert!(
            seen.insert(item, delivery_count).is_none(),
            "item {item} delivered twice after recovery"
        );
        if delivery_count >= 2 {
            redelivered += 1;
        }
    }
    assert_eq!(redelivered, lease_rec.redelivered, "redelivery count drift");
    assert!(
        lease_rec.unacked as usize >= held.len(),
        "report lost held leases: {} < {}",
        lease_rec.unacked,
        held.len()
    );
    for &h in &held {
        assert_eq!(
            seen.get(&h),
            Some(&2),
            "held item {h} not redelivered with delivery_count 2"
        );
    }
    let resurrected: Vec<u64> = acked
        .iter()
        .filter(|v| seen.contains_key(v))
        .copied()
        .collect();
    assert!(resurrected.is_empty(), "resurrected acks: {resurrected:?}");
    assert_eq!(lease_rec.dead_lettered, 0, "recovery dead-lettered items");
    let dead = queue.drain_dlq();
    assert_eq!(dead, vec![POISON], "dead-letter queue contents");
    let missing: Vec<u64> = enq
        .iter()
        .filter(|v| !acked.contains(v) && !seen.contains_key(v))
        .copied()
        .collect();
    assert!(missing.len() <= 1, "confirmed items lost: {missing:?}");
    let extras: Vec<u64> = seen.keys().filter(|v| !enq.contains(v)).copied().collect();
    assert!(extras.len() <= 1, "unconfirmed extras: {extras:?}");

    let _ = std::fs::remove_dir_all(&dir);
    LeaseKillOutcome {
        confirmed_enqueues: enq.len(),
        confirmed_acks: acked.len(),
        held: held.len(),
        unacked: lease_rec.unacked,
        redelivered,
        recovery,
    }
}

/// Object-safe drain interface over `LeasedQueue<ShardedQueue<Q>>`, so the
/// kill round's validation runs outside the `with_recoverable!` expansion.
trait LeaseDrain {
    /// Dequeues one lease, acks it, returns `(item, delivery_count)`.
    fn grant_and_ack(&self) -> Option<(u64, u32)>;
    /// Destructively drains the dead-letter queue.
    fn drain_dlq(&self) -> Vec<u64>;
}

impl<Q: durable_queues::RecoverableQueue + 'static> LeaseDrain
    for lease::LeasedQueue<shard::ShardedQueue<Q>>
{
    fn grant_and_ack(&self) -> Option<(u64, u32)> {
        let l = self.dequeue(0)?;
        self.ack(&l).expect("lease kill round: ack");
        Some((l.item, l.delivery_count))
    }

    fn drain_dlq(&self) -> Vec<u64> {
        let dlq = self.dlq().expect("deployment has a DLQ");
        std::iter::from_fn(|| dlq.dequeue(0)).collect()
    }
}

/// Parses complete `<tag> <number>` lines; a torn trailing line counts as
/// unacknowledged.
fn read_tagged(path: &Path) -> std::collections::BTreeSet<u64> {
    let Ok(raw) = std::fs::read(path) else {
        return Default::default();
    };
    let text = String::from_utf8_lossy(&raw);
    let mut out = std::collections::BTreeSet::new();
    for line in text.split_inclusive('\n') {
        let Some(body) = line.strip_suffix('\n') else {
            break;
        };
        let num = body
            .get(1..)
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("malformed ack line {body:?}"));
        out.insert(num);
    }
    out
}

/// Renders one consumer-SIGKILL round's outcome as the verb's report line.
pub fn render_lease_kill_outcome(algorithm: Algorithm, outcome: &LeaseKillOutcome) -> String {
    format!(
        "lease-kill {}: SIGKILL with {} leases held ({} acked, {} enqueued); \
         {} unacked redelivered ({} with bumped delivery count) in {:.3} ms — \
         no resurrection, poison dead-lettered\n",
        algorithm.name(),
        outcome.held,
        outcome.confirmed_acks,
        outcome.confirmed_enqueues,
        outcome.unacked,
        outcome.redelivered,
        outcome.recovery.as_secs_f64() * 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_sweep_runs_and_reports() {
        let cfg = LeaseVerbConfig {
            shard_counts: vec![1, 2],
            ops: 2_000,
            nack_percent: 10,
            dir: std::env::temp_dir().join(format!("lease-verb-test-{}", std::process::id())),
            pool_bytes: 8 << 20,
            ..LeaseVerbConfig::default()
        };
        let rows = run_lease(&cfg);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.stats.acked, cfg.ops);
            assert!(r.stats.redelivered > 0, "nack traffic must redeliver");
            assert_eq!(r.stats.dead_lettered, 0);
            assert!(r.acked_per_sec > 0.0);
        }
        let table = render_lease(&cfg, &rows);
        assert!(table.contains("acked/s"));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn grouped_sweep_runs_and_reports() {
        let cfg = LeaseVerbConfig {
            shard_counts: vec![1, 2],
            ops: 2_000,
            nack_percent: 10,
            consumers: 2,
            groups: 2,
            work_ns: 0,
            dir: std::env::temp_dir().join(format!("lease-verb-group-{}", std::process::id())),
            pool_bytes: 8 << 20,
            ..LeaseVerbConfig::default()
        };
        assert!(cfg.is_grouped());
        let rows = run_lease_groups(&cfg);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // Every group acked every item (asserted per group inside the
            // run); the summed counters must reflect the full fan-out.
            assert_eq!(r.stats.acked, cfg.groups as u64 * cfg.ops);
            assert_eq!(r.stats.dispatched, cfg.groups as u64 * cfg.ops);
            assert!(r.stats.redelivered > 0, "nack traffic must redeliver");
            assert_eq!(r.stats.dead_lettered, 0);
            assert!(r.acked_per_sec > 0.0);
        }
        let table = render_lease_groups(&cfg, &rows);
        assert!(table.contains("acked/s (agg)"));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn tagged_lines_ignore_torn_tail() {
        let dir = std::env::temp_dir().join(format!("lease-verb-tag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tags.log");
        std::fs::write(&path, "A 1\nA 2\nA 3").unwrap(); // torn last line
        let tags = read_tagged(&path);
        assert_eq!(tags.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
