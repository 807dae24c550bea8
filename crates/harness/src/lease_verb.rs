//! The `harness lease` verb — a peek-lock producer/consumer delivery
//! drill with a text table; lease throughput is gated by `qbench`'s
//! `lease-pc`/`group-pf`.
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
//! The consumer-SIGKILL round `harness restart` ends with is the leased
//! shape of the crash driver ([`crate::crash`]), whose table also kills
//! grouped consumers (`crates/harness/tests/group_kill.rs`).

use crate::algorithms::Algorithm;
use crate::with_recoverable;
use durable_queues::QueueConfig;
use lease::{
    create_grouped_dir, create_leased_dir, GroupDirConfig, GroupStats, LeaseDirConfig, LeaseStats,
};
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig};
use std::path::PathBuf;
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
}
