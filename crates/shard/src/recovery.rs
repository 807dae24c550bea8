//! Coherent crash fan-out and parallel recovery across all shards.
//!
//! A crash takes down every shard at once, so the orchestrator snapshots all
//! shard pools as one campaign ([`RecoveryOrchestrator::crash`]) and, on
//! restart, runs every shard's recovery procedure **in parallel** over a
//! bounded thread pool — shard recoveries are completely independent (no
//! shared pool, no shared line), which is exactly what makes restart time
//! scale down with core count. Each recovery is timed individually so the
//! report can show the parallel speedup and spot straggler shards.

use crate::manifest::{invalid, ShardManifest};
use crate::sharded::{Shard, ShardConfig, ShardedQueue};
use durable_queues::root::{check_tag, TAG_ROOT_SLOT};
use durable_queues::{QueueConfig, RecoverableQueue};
use obs::flight::EventKind;
use obs::LazyHistogram;
use pmem::{PmemPool, PoolConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use store::{FileConfig, FilePool, PoolGeometry};

/// The one check every file-backed queue open in the workspace runs before
/// `Q::recover`: reads and validates the header of the pool file at `path`
/// without opening it, and checks the algorithm tag its creator recorded
/// against `Q`'s ([`check_tag`]). A mismatch is an `InvalidData` error
/// naming the file and both algorithms; an untagged pool passes. Returns
/// the pool's geometry, its durability tier included.
pub fn check_pool<Q: RecoverableQueue>(path: &Path) -> io::Result<PoolGeometry> {
    let geometry = FilePool::read_geometry(path)?;
    check_tag::<Q>(geometry.roots[TAG_ROOT_SLOT])
        .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
    Ok(geometry)
}

/// [`check_pool`] over the pools of one directory, which must also share
/// the tier they were created under: a pool whose tier differs from the
/// first's is an `InvalidData` error naming it and both tiers.
pub fn check_dir_pools<Q: RecoverableQueue>(paths: &[PathBuf]) -> io::Result<Vec<PoolGeometry>> {
    let geometries: Vec<PoolGeometry> = paths
        .iter()
        .map(|p| check_pool::<Q>(p))
        .collect::<io::Result<_>>()?;
    if let Some(i) = geometries.iter().position(|g| g.sync != geometries[0].sync) {
        return Err(invalid(format!(
            "{}: created {}, but {} was created {}; a directory's pools share one tier",
            paths[i].display(),
            geometries[i].sync.key(),
            paths[0].display(),
            geometries[0].sync.key()
        )));
    }
    Ok(geometries)
}

/// Runs `f(shard_index)` for every shard on a bounded pool of scoped
/// workers (work-stealing via an atomic claim counter) and returns the
/// results in shard order. The shared scaffold of the crash fan-out, the
/// parallel recovery, and the reshard copy/build phases.
pub(crate) fn par_map_shards<T: Send>(
    shards: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(shards).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= shards {
                    break;
                }
                *slots[i].lock().unwrap() = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every shard was processed"))
        .collect()
}

/// Recovery timing (and pool state) of one shard.
#[derive(Clone, Copy, Debug)]
pub struct ShardRecovery {
    /// The shard index.
    pub shard: usize,
    /// Wall-clock time of this shard's recovery procedure.
    pub latency: Duration,
    /// Effective pool size of this shard in bytes at recovery time. For
    /// file-backed shards this reflects any committed growth (shards grow
    /// independently, so sizes may diverge within one directory).
    pub pool_bytes: usize,
    /// Committed growth epoch read from the shard's pool-file header
    /// (`0` = never grown; always `0` for simulated-crash campaigns, whose
    /// pools are fixed-size).
    pub growth_epoch: u32,
}

/// Lease-layer recovery summary. The orchestrator itself recovers only the
/// shards; when a deployment consumes through the `lease` crate's peek-lock
/// wrapper, its directory open path replays the ack log afterwards and
/// fills this into the [`RecoveryReport`], so one report covers the whole
/// restart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaseRecovery {
    /// Leases that were in a consumer's hands at the crash, now queued for
    /// redelivery with an incremented delivery count.
    pub unacked: u64,
    /// Total items queued for redelivery (`unacked` + previously
    /// nacked/expired items not yet regranted at the crash).
    pub redelivered: u64,
    /// Items moved to the dead-letter queue during recovery because their
    /// next delivery would exceed the budget.
    pub dead_lettered: u64,
    /// Leases repaired at recovery because the exactly-once cursor proved
    /// their ack transaction committed (only the sidecar ack record was
    /// lost to the crash) — these are *not* redelivered.
    pub tx_acked: u64,
    /// Ack-log records replayed.
    pub log_records: u64,
}

/// One consumer group's recovery summary, filled in by the `lease` crate's
/// grouped directory open path — one entry per group, in stripe order, so
/// a restart of a fan-out deployment reports every group's cursor repair
/// in the same place as the shard replay it depends on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupRecovery {
    /// The group's name.
    pub name: String,
    /// Leases in this group's consumers' hands at the crash, requeued with
    /// an incremented delivery count.
    pub unacked: u64,
    /// Total items requeued for redelivery in this group.
    pub redelivered: u64,
    /// Items moved to this group's dead-letter queue during recovery.
    pub dead_lettered: u64,
    /// Leases repaired because the group's `(group, tid)` cursor stripe
    /// proved their ack transaction committed.
    pub tx_acked: u64,
    /// Segment-log records replayed for this group.
    pub log_records: u64,
    /// Segment files present after replay.
    pub segments: u32,
    /// Already-retired segment files deleted on open (interrupted
    /// retirement rolled forward).
    pub retired_leftovers: u32,
}

/// Per-shard recovery latencies, recorded into the process-global
/// histogram so straggler shards show up in exported percentiles too.
static RECOVER_SHARD_NS: LazyHistogram = LazyHistogram::new("shard.recover_ns");

/// One timed phase of a recovery campaign. Phase starts are stamped with
/// [`obs::clock::wall_ns`] — the same clock the flight recorder uses — so a
/// report's spans line up with a post-mortem `harness blackbox` dump.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    /// Phase name: `"manifest-resolution"`, `"shard-replay"`, or
    /// `"lease-repair"`.
    pub name: &'static str,
    /// Wall-clock start of the phase, ns since the Unix epoch.
    pub started_ns: u64,
    /// How long the phase took.
    pub wall: Duration,
}

impl PhaseSpan {
    /// Times `f`, returning its result plus the finished span, and logs the
    /// span to the flight recorder (`ordinal` is the [`EventKind`] phase
    /// number: 1 = manifest resolution, 2 = shard replay, 3 = lease repair).
    pub fn time<T>(name: &'static str, ordinal: u64, f: impl FnOnce() -> T) -> (T, PhaseSpan) {
        let started_ns = obs::clock::wall_ns();
        let begun = Instant::now();
        let value = f();
        let wall = begun.elapsed();
        obs::flight::record(EventKind::RecoveryPhase, ordinal, wall.as_nanos() as u64);
        (
            value,
            PhaseSpan {
                name,
                started_ns,
                wall,
            },
        )
    }
}

/// The outcome of one parallel recovery campaign.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Per-shard recovery latencies, in shard order.
    pub per_shard: Vec<ShardRecovery>,
    /// Wall-clock time of the whole campaign (fan-out to last completion).
    pub wall: Duration,
    /// Worker threads the campaign ran on.
    pub threads: usize,
    /// Lease-state recovery, when the deployment consumes through the
    /// peek-lock layer (`None` for plain destructive-dequeue deployments).
    pub lease: Option<LeaseRecovery>,
    /// Per-consumer-group recovery, in stripe order, when the deployment
    /// fans out to consumer groups (empty otherwise).
    pub groups: Vec<GroupRecovery>,
    /// Timed phases in execution order (manifest resolution, shard replay,
    /// and — filled in by the lease layer — lease repair). Simulated-crash
    /// recoveries have only the replay phase.
    pub phases: Vec<PhaseSpan>,
}

impl RecoveryReport {
    /// Sum of the individual shard recovery times — what a sequential
    /// recovery would have cost.
    pub fn sequential_cost(&self) -> Duration {
        self.per_shard.iter().map(|s| s.latency).sum()
    }

    /// The slowest single shard — the lower bound on any parallel schedule.
    pub fn critical_path(&self) -> Duration {
        self.per_shard
            .iter()
            .map(|s| s.latency)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Total committed pool growths across all shards (`0` when no shard's
    /// pool ever grew — always the case for simulated-crash campaigns).
    pub fn total_growth_epochs(&self) -> u64 {
        self.per_shard.iter().map(|s| s.growth_epoch as u64).sum()
    }

    /// Total pool bytes across all shards at recovery time (effective,
    /// growth included).
    pub fn total_pool_bytes(&self) -> usize {
        self.per_shard.iter().map(|s| s.pool_bytes).sum()
    }

    /// Parallel speedup actually achieved (sequential cost / wall time).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            1.0
        } else {
            self.sequential_cost().as_secs_f64() / wall
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let growth = match self.total_growth_epochs() {
            0 => String::new(),
            n => format!(", {n} pool growth(s) inherited"),
        };
        let lease = match &self.lease {
            None => String::new(),
            Some(l) => {
                let repaired = match l.tx_acked {
                    0 => String::new(),
                    n => format!(", {n} tx-repaired"),
                };
                format!(
                    "; leases: {} unacked redelivered ({} total), {} dead-lettered{repaired}",
                    l.unacked, l.redelivered, l.dead_lettered
                )
            }
        };
        let groups = if self.groups.is_empty() {
            String::new()
        } else {
            let redelivered: u64 = self.groups.iter().map(|g| g.redelivered).sum();
            let dead: u64 = self.groups.iter().map(|g| g.dead_lettered).sum();
            let repaired: u64 = self.groups.iter().map(|g| g.tx_acked).sum();
            let repaired = match repaired {
                0 => String::new(),
                n => format!(", {n} tx-repaired"),
            };
            format!(
                "; {} group(s): {redelivered} redelivered, {dead} dead-lettered{repaired}",
                self.groups.len()
            )
        };
        format!(
            "recovered {} shards on {} threads in {:?} (sequential cost {:?}, critical path {:?}, speedup {:.2}x{}){}{}",
            self.per_shard.len(),
            self.threads,
            self.wall,
            self.sequential_cost(),
            self.critical_path(),
            self.speedup(),
            growth,
            lease,
            groups
        )
    }
}

/// Snapshots and recovers whole sharded queues.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryOrchestrator {
    threads: usize,
}

impl RecoveryOrchestrator {
    /// An orchestrator running campaigns on `threads` workers (≥ 1).
    pub fn new(threads: usize) -> Self {
        RecoveryOrchestrator {
            threads: threads.max(1),
        }
    }

    /// An orchestrator using all available parallelism.
    pub fn available_parallelism() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Simulates a full-system crash: snapshots every shard's pool
    /// (fanning the `simulate_crash` calls out across the worker pool) and
    /// returns the crashed images in shard order. The original queue is
    /// untouched, so one execution can be crashed repeatedly.
    pub fn crash<Q: RecoverableQueue>(&self, queue: &ShardedQueue<Q>) -> Vec<Arc<PmemPool>> {
        self.crash_with_evictions(queue, 0.0, 0)
    }

    /// Like [`crash`](Self::crash), with each cache line of each shard
    /// additionally written back with probability `eviction_probability`
    /// before the power fails — the adversary every recovery procedure must
    /// tolerate.
    pub fn crash_with_evictions<Q: RecoverableQueue>(
        &self,
        queue: &ShardedQueue<Q>,
        eviction_probability: f64,
        seed: u64,
    ) -> Vec<Arc<PmemPool>> {
        par_map_shards(queue.shard_count(), self.threads, |i| {
            Arc::new(
                queue
                    .shard_pool(i)
                    .simulate_crash_with_evictions(eviction_probability, seed ^ (i as u64) << 32),
            )
        })
    }

    /// Recovers a sharded queue from `pools` (one crashed image per shard,
    /// in shard order), running the per-shard recovery procedures in
    /// parallel on the worker pool. Returns the recovered queue plus the
    /// per-shard latency report.
    ///
    /// Depth estimates restart at zero: the load-aware policy re-learns the
    /// balance from live traffic, and correctness never depends on the
    /// estimates.
    pub fn recover<Q: RecoverableQueue>(
        &self,
        pools: Vec<Arc<PmemPool>>,
        config: ShardConfig,
    ) -> (ShardedQueue<Q>, RecoveryReport) {
        assert_eq!(pools.len(), config.shards, "one crashed image per shard");
        let replayed = self.replay::<Q>(config, |i| Ok(Arc::clone(&pools[i])));
        replayed.expect("handing out a crashed image cannot fail")
    }

    /// The shard-replay phase of [`recover`](Self::recover) and
    /// [`open_dir`](Self::open_dir): on the worker pool, takes each shard's
    /// pool from `open` and runs `Q::recover` on it, timing each shard, and
    /// assembles the queue and its report.
    fn replay<Q: RecoverableQueue>(
        &self,
        config: ShardConfig,
        open: impl Fn(usize) -> io::Result<Arc<PmemPool>> + Sync,
    ) -> io::Result<(ShardedQueue<Q>, RecoveryReport)> {
        let n = config.shards;
        let started = Instant::now();
        let (recovered, replay_phase) = PhaseSpan::time("shard-replay", 2, || {
            par_map_shards(n, self.threads, |i| -> io::Result<_> {
                let pool = open(i)?;
                // The epoch the header committed, read before `Q::recover`,
                // whose volatile rebuild of a large residue may grow the
                // pool again in this process.
                let epoch = pool.growth_epoch();
                let begun = Instant::now();
                let queue = Q::recover(Arc::clone(&pool), config.queue);
                Ok((Shard { queue, pool }, begun.elapsed(), epoch))
            })
            .into_iter()
            .collect::<io::Result<Vec<_>>>()
        });
        let recovered = recovered?;
        let wall = started.elapsed();
        let mut shards = Vec::with_capacity(n);
        let mut per_shard = Vec::with_capacity(n);
        for (i, (shard, latency, growth_epoch)) in recovered.into_iter().enumerate() {
            RECOVER_SHARD_NS.record(latency.as_nanos() as u64);
            per_shard.push(ShardRecovery {
                shard: i,
                latency,
                pool_bytes: shard.pool.len(),
                growth_epoch,
            });
            shards.push(shard);
        }
        let queue = ShardedQueue::from_shards(shards.into_boxed_slice(), config);
        let report = RecoveryReport {
            per_shard,
            wall,
            threads: self.threads.min(n).max(1),
            lease: None,
            groups: Vec::new(),
            phases: vec![replay_phase],
        };
        Ok((queue, report))
    }

    /// Convenience: [`crash`](Self::crash) followed by
    /// [`recover`](Self::recover) with the queue's own configuration.
    pub fn crash_and_recover<Q: RecoverableQueue>(
        &self,
        queue: &ShardedQueue<Q>,
    ) -> (ShardedQueue<Q>, RecoveryReport) {
        let config = *queue.shard_config();
        self.recover(self.crash(queue), config)
    }

    // ------------------------------------------------------------------
    // File-backed directories (real restarts, not simulated crashes)
    // ------------------------------------------------------------------

    /// Creates (or reinitialises) a **file-backed** sharded queue in `dir`:
    /// one pool file per shard (created in parallel on the worker pool,
    /// `config.shards` × `file.size` bytes on disk) plus the CRC-checked
    /// [`ShardManifest`] recording shard count, routing policy and pool-file
    /// names. The resulting queue survives a real process restart — reopen
    /// it with [`open_dir`](Self::open_dir).
    pub fn create_dir<Q: RecoverableQueue>(
        &self,
        dir: &Path,
        config: ShardConfig,
        file: FileConfig,
    ) -> io::Result<ShardedQueue<Q>> {
        std::fs::create_dir_all(dir)?;
        let manifest = ShardManifest::new(config.shards, config.policy);
        let paths = manifest.pool_paths(dir);
        let pools: Vec<Arc<PmemPool>> = par_map_shards(config.shards, self.threads, |i| {
            FilePool::create(&paths[i], file).map(FilePool::into_pool)
        })
        .into_iter()
        .collect::<io::Result<_>>()?;
        // The manifest is written only after every pool file exists, so a
        // crash during creation leaves a directory `open_dir` refuses (no
        // manifest) rather than a map naming missing files.
        manifest.write(dir)?;
        Ok(ShardedQueue::create_on(pools, config))
    }

    /// Reopens a file-backed sharded queue from `dir` after a restart: reads
    /// the [`ShardManifest`] (the manifest, not the caller, is the authority
    /// on shard count and routing policy), [checks](check_pool) every
    /// shard's pool-file header — each shard's effective size comes from its
    /// own header, so shards that grew independently reopen at their grown
    /// sizes; its algorithm tag must be `Q`'s; and all shards must share the
    /// durability tier they were created under, which they reopen under —
    /// then opens the pools and runs the per-shard `Q::recover` procedures
    /// in parallel on the worker pool, timing each shard exactly like
    /// [`recover`](Self::recover). Per-shard sizes and inherited growth
    /// epochs are reported in the [`RecoveryReport`]. The pools are
    /// fixed-size; choose a growth step with
    /// [`open_dir_with_config`](Self::open_dir_with_config).
    ///
    /// Works identically after a clean shutdown and after a `kill -9`; the
    /// returned manifest tells the caller what was recovered. A reshard
    /// interrupted by the crash is resolved first — rolled back or forward
    /// to whichever shard count the manifest makes authoritative (see
    /// [`crate::reshard::resolve_reshard`], which can be called directly
    /// when the caller wants to know how the directory was resolved).
    ///
    /// ```
    /// use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig};
    /// use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig};
    /// use store::FileConfig;
    ///
    /// let dir = std::env::temp_dir().join(format!("open-dir-doc-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let orch = RecoveryOrchestrator::new(2);
    ///
    /// // First life: create a 2-shard directory and leave an item behind.
    /// let config = ShardConfig {
    ///     shards: 2,
    ///     queue: QueueConfig::small_test(),
    ///     pool: pmem::PoolConfig::test_with_size(4 << 20),
    ///     policy: RoutePolicy::RoundRobin,
    /// };
    /// let queue = orch
    ///     .create_dir::<OptUnlinkedQueue>(&dir, config, FileConfig::with_size(4 << 20))?;
    /// queue.enqueue(0, 7);
    /// drop(queue); // orderly close; a kill -9 would recover identically
    ///
    /// // Second life: the manifest dictates shard count and policy.
    /// let (queue, report, manifest) =
    ///     orch.open_dir::<OptUnlinkedQueue>(&dir, QueueConfig::small_test())?;
    /// assert_eq!(manifest.shards(), 2);
    /// assert_eq!(report.per_shard.len(), 2);
    /// assert_eq!(queue.dequeue(0), Some(7));
    /// drop(queue);
    /// std::fs::remove_dir_all(&dir)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn open_dir<Q: RecoverableQueue>(
        &self,
        dir: &Path,
        queue: QueueConfig,
    ) -> io::Result<(ShardedQueue<Q>, RecoveryReport, ShardManifest)> {
        self.open_dir_with_config(dir, queue, FileConfig::default())
    }

    /// [`open_dir`](Self::open_dir) with the session's growth step for
    /// every reopened pool, as [`FilePool::open_with_config`] takes it
    /// (`session.size` and `session.sync` are ignored). A directory whose shards grew past their
    /// creation ceiling in a previous life is usually still under the
    /// traffic that grew them — and its pools are near-full, so even
    /// `Q::recover`'s own allocator areas may need room; reopen it elastic
    /// to keep going.
    pub fn open_dir_with_config<Q: RecoverableQueue>(
        &self,
        dir: &Path,
        queue: QueueConfig,
        session: FileConfig,
    ) -> io::Result<(ShardedQueue<Q>, RecoveryReport, ShardManifest)> {
        let started = Instant::now();
        // A crash may have interrupted a reshard: roll it back or forward
        // before trusting the manifest's pool-file list.
        let (resolved, resolution_phase) = PhaseSpan::time("manifest-resolution", 1, || {
            crate::reshard::resolve_reshard(dir).and_then(|_| ShardManifest::read(dir))
        });
        let manifest = resolved?;
        let paths = manifest.pool_paths(dir);
        // Refused before any pool is opened (and marked dirty) or recovered.
        // Each shard's header is the authority on its own effective size —
        // shards grow independently, so neither the manifest nor the
        // siblings can know it — and the open validates it again.
        let geometries = check_dir_pools::<Q>(&paths)?;
        obs::flight::record(EventKind::RecoveryStart, paths.len() as u64, 0);
        let config = ShardConfig {
            shards: paths.len(),
            queue,
            // Sizes may diverge across grown shards; size the (sim-facing)
            // config from the largest so derived pools are never smaller.
            pool: PoolConfig::test_with_size(geometries.iter().map(|g| g.pool_size).max().unwrap()),
            policy: manifest.policy,
        };
        let (queue, mut report) = self.replay::<Q>(config, |i| {
            FilePool::open_with_config(&paths[i], session).map(FilePool::into_pool)
        })?;
        report.wall = started.elapsed();
        report.phases.insert(0, resolution_phase);
        let wall = report.wall.as_nanos() as u64;
        obs::flight::record(EventKind::RecoveryDone, paths.len() as u64, wall);
        Ok((queue, report, manifest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RoutePolicy;
    use durable_queues::{DurableQueue, OptUnlinkedQueue};

    #[test]
    fn crash_and_recover_preserves_every_item_per_shard() {
        let q = ShardedQueue::<OptUnlinkedQueue>::create(
            ShardConfig::small_test(4).with_policy(RoutePolicy::RoundRobin),
        );
        for i in 1..=100u64 {
            q.enqueue(0, i);
        }
        for _ in 0..20 {
            assert!(q.dequeue(0).is_some());
        }
        let orch = RecoveryOrchestrator::new(4);
        let (recovered, report) = orch.crash_and_recover(&q);
        assert_eq!(report.per_shard.len(), 4);
        assert!(report.speedup() > 0.0);
        let mut rest: Vec<u64> = std::iter::from_fn(|| recovered.dequeue(0)).collect();
        rest.sort_unstable();
        assert_eq!(rest, (21..=100).collect::<Vec<_>>());
    }

    #[test]
    fn report_accounts_every_shard_once() {
        let q = ShardedQueue::<OptUnlinkedQueue>::create(ShardConfig::small_test(8));
        for i in 1..=64u64 {
            q.enqueue(0, i);
        }
        let orch = RecoveryOrchestrator::new(3);
        let (_, report) = orch.crash_and_recover(&q);
        let shards: Vec<usize> = report.per_shard.iter().map(|s| s.shard).collect();
        assert_eq!(shards, (0..8).collect::<Vec<_>>());
        assert!(report.sequential_cost() >= report.critical_path());
        assert_eq!(report.threads, 3);
        assert!(report.summary().contains("8 shards"));
        // Simulated pools are fixed-size: no growth to inherit, and the
        // per-shard sizes are the pools' actual sizes.
        assert_eq!(report.total_growth_epochs(), 0);
        assert!(!report.summary().contains("growth"));
        assert!(report.per_shard.iter().all(|s| s.growth_epoch == 0));
        assert_eq!(
            report.total_pool_bytes(),
            report.per_shard.iter().map(|s| s.pool_bytes).sum::<usize>()
        );
        assert!(report.per_shard.iter().all(|s| s.pool_bytes > 0));
    }

    #[test]
    fn orchestrator_clamps_to_at_least_one_thread() {
        assert_eq!(RecoveryOrchestrator::new(0).threads(), 1);
        assert!(RecoveryOrchestrator::available_parallelism().threads() >= 1);
    }

    #[test]
    fn the_original_queue_survives_the_crash_snapshot() {
        let q = ShardedQueue::<OptUnlinkedQueue>::create(ShardConfig::small_test(2));
        q.enqueue(0, 7);
        let orch = RecoveryOrchestrator::new(2);
        let _ = orch.crash(&q);
        assert_eq!(q.dequeue(0), Some(7));
    }
}
