//! Deployments: how a workload's stack is created, reopened and looked at.
//!
//! Two ways to assemble the same deployment:
//!
//! * **plain** — through the packaged public functions
//!   (`lease::create_leased_dir`, `create_grouped_dir`, `open_*_dir`). This
//!   is what the gated run measures; nothing of the benchmark's sits
//!   between the layers.
//! * **traced** — by hand from the public constructors
//!   (`FilePool::create`/`open_with_config`, `PmemPool::from_backend`,
//!   `ShardedQueue::create_on`, `RecoveryOrchestrator::recover`,
//!   `LeasedQueue`/`GroupedQueue` `create`/`recover`), with the wrappers of
//!   [`crate::trace`] at the `store`, `core` and `shard` boundaries and
//!   spans around the `lease` calls.
//!
//! Both hand back a [`Stack`], the one interface the load generator
//! drives; it is generic over it, so the plain stack is called directly.

use crate::sys;
use crate::trace::{self, CoreWrap, Name, ShardWrap, TimedBackend};
use durable_queues::{DurableQueue, KeyedQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use lease::{
    ConsumerGroup, GroupConfig, GroupDirConfig, GroupedQueue, Lease, LeaseConfig, LeaseDirConfig,
    LeasedQueue, Redelivery, DLQ_POOL_FILE, GROUPS_DIR,
};
use pmem::{PmemPool, PoolConfig, StatsSnapshot};
use shard::{
    RecoveryOrchestrator, RecoveryReport, RoutePolicy, ShardConfig, ShardManifest, ShardedQueue,
};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{FileConfig, FilePool, SyncPolicy};

/// The queue algorithm under every workload.
pub type Algo = OptUnlinkedQueue;

/// Leases never expire within a run: expiry would make deliveries depend
/// on the clock.
const LEASE_TIMEOUT: Duration = Duration::from_secs(24 * 3600);

/// `QueueConfig::max_threads` of every file deployment: the machine the
/// numbers were taken on has two processors, and a deployment is sized
/// for its machine, not for the load of the moment.
pub const MAX_THREADS: usize = 2;

/// Delivery budget: never reached, since an item is nacked at most once.
const MAX_DELIVERIES: u32 = 8;

/// Group names of grouped deployments, in stripe order.
pub const GROUP_NAMES: [&str; 2] = ["alpha", "beta"];

/// What a deployment is made of.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Consumer groups; `0` means a plain `LeasedQueue`.
    pub groups: usize,
    /// Shards of the base queue.
    pub shards: usize,
    /// Routing policy of the base queue.
    pub policy: RoutePolicy,
    /// Durability tier of pools and logs.
    pub sync: SyncPolicy,
    /// Group-commit window of the shard pools (power-fail only).
    pub group_commit: Option<u64>,
    /// `QueueConfig::area_size`.
    pub area_size: u32,
    /// Bytes per shard pool (fixed, `grow_step` 0).
    pub pool_bytes: usize,
    /// Bytes per dead-letter pool.
    pub dlq_bytes: usize,
}

impl Spec {
    fn queue_config(&self) -> QueueConfig {
        QueueConfig {
            max_threads: MAX_THREADS,
            area_size: self.area_size,
        }
    }

    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            shards: self.shards,
            queue: self.queue_config(),
            // Only simulated pools read this; file pools carry their own.
            pool: PoolConfig::test_with_size(self.pool_bytes),
            policy: self.policy,
        }
    }

    fn file_config(&self) -> FileConfig {
        FileConfig::with_size(self.pool_bytes)
            .with_sync(self.sync)
            .with_group_commit(self.group_commit)
    }

    fn lease_dir_config(&self) -> LeaseDirConfig {
        LeaseDirConfig {
            lease_timeout: LEASE_TIMEOUT,
            max_deliveries: MAX_DELIVERIES,
            sync: self.sync,
            dlq_bytes: self.dlq_bytes,
            // Compaction threshold: the library's default.
            ..LeaseDirConfig::default()
        }
    }

    fn group_names(&self) -> &'static [&'static str] {
        &GROUP_NAMES[..self.groups]
    }

    fn group_dir_config(&self) -> GroupDirConfig {
        GroupDirConfig {
            lease_timeout: LEASE_TIMEOUT,
            max_deliveries: MAX_DELIVERIES,
            sync: self.sync,
            dlq_bytes: self.dlq_bytes,
            // Segment rotation: the library's default.
            ..GroupDirConfig::new(self.group_names().iter().copied())
        }
    }

    fn lease_config(&self, dir: &Path) -> LeaseConfig {
        LeaseConfig::new(dir)
            .with_timeout(LEASE_TIMEOUT)
            .with_max_deliveries(MAX_DELIVERIES)
            .with_sync(self.sync)
            .with_compact_after(LeaseDirConfig::default().compact_after)
    }

    fn group_config(&self, dir: &Path) -> GroupConfig {
        GroupConfig::new(dir, self.group_names().iter().copied())
            .with_timeout(LEASE_TIMEOUT)
            .with_max_deliveries(MAX_DELIVERIES)
            .with_sync(self.sync)
    }

    /// Paths of the dead-letter pools, in group order.
    fn dlq_paths(&self, dir: &Path) -> Vec<PathBuf> {
        if self.groups == 0 {
            vec![dir.join(DLQ_POOL_FILE)]
        } else {
            self.group_names()
                .iter()
                .map(|g| dir.join(GROUPS_DIR).join(g).join(DLQ_POOL_FILE))
                .collect()
        }
    }
}

/// Counters of the lease layer, summed over groups.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaseCounts {
    /// Leases granted.
    pub granted: u64,
    /// Of those, redeliveries.
    pub redelivered: u64,
    /// Records appended to the ack log(s).
    pub records: u64,
    /// Whole-file compactions (`LeasedQueue`).
    pub compactions: u64,
    /// Segment rotations (`GroupedQueue`).
    pub rotations: u64,
    /// Segments retired (`GroupedQueue`).
    pub retired: u64,
}

impl std::ops::Sub for LeaseCounts {
    type Output = LeaseCounts;
    fn sub(self, r: LeaseCounts) -> LeaseCounts {
        LeaseCounts {
            granted: self.granted - r.granted,
            redelivered: self.redelivered - r.redelivered,
            records: self.records - r.records,
            compactions: self.compactions - r.compactions,
            rotations: self.rotations - r.rotations,
            retired: self.retired - r.retired,
        }
    }
}

/// What the lease layer needs from the queue beneath it, plus what the
/// benchmark reads from it.
pub trait Base: KeyedQueue {
    /// The shard pools, in shard order.
    fn shard_pools(&self) -> Vec<Arc<PmemPool>>;
    /// `ShardedQueue::shard_for_key`.
    fn route(&self, key: u64) -> usize;
}

impl<Q: RecoverableQueue> Base for ShardedQueue<Q> {
    fn shard_pools(&self) -> Vec<Arc<PmemPool>> {
        self.pools()
    }
    fn route(&self, key: u64) -> usize {
        self.shard_for_key(key)
    }
}

impl<B: Base> Base for ShardWrap<B> {
    fn shard_pools(&self) -> Vec<Arc<PmemPool>> {
        self.0.shard_pools()
    }
    fn route(&self, key: u64) -> usize {
        self.0.route(key)
    }
}

/// The interface the load generator drives. `TRACED` stacks open a span
/// around each call; plain ones forward and nothing else.
pub trait Stack: Send + Sync {
    /// Consumer groups to drain (1 for a leased deployment).
    fn groups(&self) -> usize;
    /// Produces one item.
    fn enqueue(&self, tid: usize, key: u64, item: u64);
    /// Leases the next item of `group`.
    fn dequeue(&self, group: usize, tid: usize) -> Option<Lease>;
    /// Acks; `true` on `Ok`.
    fn ack(&self, group: usize, lease: &Lease) -> bool;
    /// Nacks; `true` when the item was requeued.
    fn nack(&self, group: usize, tid: usize, lease: &Lease) -> bool;
    /// Opens the root span of an operation (a no-op on plain stacks).
    fn op_begin(&self, name: Name, msg: u64) -> bool;
    /// Closes it.
    fn op_end(&self, recorded: bool);
    /// The shard an item with `key` lands on.
    fn route(&self, key: u64) -> usize;
    /// Shards of the base queue.
    fn shards(&self) -> usize;
    /// Every pool of the deployment: shards, then dead-letter pools.
    fn pools(&self) -> Vec<Arc<PmemPool>>;
    /// Lease-layer counters since creation or reopen.
    fn lease_counts(&self) -> LeaseCounts;

    /// `StatsSnapshot`s of every pool, summed.
    fn pmem_stats(&self) -> StatsSnapshot {
        self.pools().iter().map(|p| p.stats()).sum()
    }

    /// Pool watermarks, summed.
    fn watermark_bytes(&self) -> u64 {
        self.pools().iter().map(|p| p.watermark() as u64).sum()
    }
}

/// A `LeasedQueue` deployment.
pub struct LeasedStack<B: Base, const TRACED: bool> {
    q: LeasedQueue<B>,
}

/// A `GroupedQueue` deployment.
pub struct GroupedStack<B: Base, const TRACED: bool> {
    q: Arc<GroupedQueue<B>>,
    handles: Vec<ConsumerGroup<B>>,
}

impl<B: Base, const TRACED: bool> GroupedStack<B, TRACED> {
    fn new(q: Arc<GroupedQueue<B>>) -> Self {
        let handles = q.handles();
        GroupedStack { q, handles }
    }
}

/// Runs `f` in a span when the stack is traced.
#[inline(always)]
fn lease_span<const TRACED: bool, R>(name: Name, f: impl FnOnce() -> R) -> R {
    if TRACED {
        trace::span(name, false, f)
    } else {
        f()
    }
}

impl<B: Base, const TRACED: bool> Stack for LeasedStack<B, TRACED> {
    fn groups(&self) -> usize {
        1
    }
    #[inline]
    fn enqueue(&self, tid: usize, key: u64, item: u64) {
        lease_span::<TRACED, _>(Name::LeaseEnqueue, || self.q.enqueue_keyed(tid, key, item))
    }
    #[inline]
    fn dequeue(&self, _group: usize, tid: usize) -> Option<Lease> {
        lease_span::<TRACED, _>(Name::LeaseDequeue, || self.q.dequeue(tid))
    }
    #[inline]
    fn ack(&self, _group: usize, lease: &Lease) -> bool {
        lease_span::<TRACED, _>(Name::LeaseAck, || self.q.ack(lease).is_ok())
    }
    #[inline]
    fn nack(&self, _group: usize, tid: usize, lease: &Lease) -> bool {
        lease_span::<TRACED, _>(Name::LeaseNack, || {
            matches!(self.q.nack(tid, lease), Ok(Redelivery::Requeued { .. }))
        })
    }
    #[inline]
    fn op_begin(&self, name: Name, msg: u64) -> bool {
        TRACED && trace::op_begin(name, msg)
    }
    #[inline]
    fn op_end(&self, recorded: bool) {
        if TRACED {
            trace::op_end(recorded)
        }
    }
    fn route(&self, key: u64) -> usize {
        self.q.base().route(key)
    }
    fn shards(&self) -> usize {
        self.q.base().shard_pools().len()
    }
    fn pools(&self) -> Vec<Arc<PmemPool>> {
        let mut pools = self.q.base().shard_pools();
        pools.extend(self.q.dlq().map(|d| Arc::clone(d.pool())));
        pools
    }
    fn lease_counts(&self) -> LeaseCounts {
        let s = self.q.stats();
        LeaseCounts {
            granted: s.granted,
            redelivered: s.redelivered,
            // GRANT per grant, ACK per ack, PEND per nack or expiry that
            // requeues, DEAD per dead-lettering.
            records: s.granted + s.acked + s.nacked + s.expired,
            compactions: s.compactions,
            rotations: 0,
            retired: 0,
        }
    }
}

impl<B: Base, const TRACED: bool> Stack for GroupedStack<B, TRACED> {
    fn groups(&self) -> usize {
        self.handles.len()
    }
    #[inline]
    fn enqueue(&self, tid: usize, key: u64, item: u64) {
        lease_span::<TRACED, _>(Name::LeaseEnqueue, || self.q.enqueue_keyed(tid, key, item))
    }
    #[inline]
    fn dequeue(&self, group: usize, tid: usize) -> Option<Lease> {
        lease_span::<TRACED, _>(Name::LeaseDequeue, || self.handles[group].dequeue(tid))
    }
    #[inline]
    fn ack(&self, group: usize, lease: &Lease) -> bool {
        lease_span::<TRACED, _>(Name::LeaseAck, || self.handles[group].ack(lease).is_ok())
    }
    #[inline]
    fn nack(&self, group: usize, tid: usize, lease: &Lease) -> bool {
        lease_span::<TRACED, _>(Name::LeaseNack, || {
            matches!(
                self.handles[group].nack(tid, lease),
                Ok(Redelivery::Requeued { .. })
            )
        })
    }
    #[inline]
    fn op_begin(&self, name: Name, msg: u64) -> bool {
        TRACED && trace::op_begin(name, msg)
    }
    #[inline]
    fn op_end(&self, recorded: bool) {
        if TRACED {
            trace::op_end(recorded)
        }
    }
    fn route(&self, key: u64) -> usize {
        self.q.base().route(key)
    }
    fn shards(&self) -> usize {
        self.q.base().shard_pools().len()
    }
    fn pools(&self) -> Vec<Arc<PmemPool>> {
        let mut pools = self.q.base().shard_pools();
        for h in &self.handles {
            pools.extend(h.dlq().map(|d| Arc::clone(d.pool())));
        }
        pools
    }
    fn lease_counts(&self) -> LeaseCounts {
        let mut c = LeaseCounts::default();
        for h in &self.handles {
            let s = h.stats();
            c.granted += s.granted;
            c.redelivered += s.redelivered;
            // PEND per dispatch, GRANT per grant, ACK per ack, PEND per
            // nack or expiry that requeues.
            c.records += s.dispatched + s.granted + s.acked + s.nacked + s.expired;
            c.rotations += s.rotations;
            c.retired += s.segments_retired;
        }
        c
    }
}

/// What a reopen took, by phase.
#[derive(Clone, Debug)]
pub struct Reopened {
    /// The shard layer's report (phases, per-shard `Q::recover` times).
    pub report: RecoveryReport,
    /// Seconds in the lease layer's replay (dead-letter pools and ack
    /// logs).
    pub lease_replay_s: f64,
}

impl Reopened {
    /// Wall time of the shard-replay phase: pool opens plus `Q::recover`,
    /// shards in parallel.
    pub fn shard_phase_s(&self) -> f64 {
        self.report
            .phases
            .iter()
            .find(|p| p.name == "shard-replay")
            .map_or(0.0, |p| p.wall.as_secs_f64())
    }

    /// The slowest shard's `Q::recover`.
    pub fn core_recover_s(&self) -> f64 {
        self.report.critical_path().as_secs_f64()
    }
}

/// Creates and reopens one kind of deployment.
pub trait Deploy: Sync {
    /// The stack it hands back.
    type S: Stack;
    /// What it deploys.
    fn spec(&self) -> &Spec;
    /// Creates a fresh deployment in `dir`.
    fn create(&self, dir: &Path) -> io::Result<Self::S>;
    /// Reopens the deployment in `dir` after a crash.
    fn open(&self, dir: &Path) -> io::Result<(Self::S, Reopened)>;
}

fn orchestrator(spec: &Spec) -> RecoveryOrchestrator {
    RecoveryOrchestrator::new(spec.shards.min(sys::nproc()))
}

fn lease_phase_s(report: &RecoveryReport) -> f64 {
    report
        .phases
        .iter()
        .find(|p| p.name == "lease-repair")
        .map_or(0.0, |p| p.wall.as_secs_f64())
}

/// Plain leased deployment (the gated run).
pub struct PlainLeased(pub Spec);

impl Deploy for PlainLeased {
    type S = LeasedStack<ShardedQueue<Algo>, false>;
    fn spec(&self) -> &Spec {
        &self.0
    }
    fn create(&self, dir: &Path) -> io::Result<Self::S> {
        let s = &self.0;
        let q = lease::create_leased_dir::<Algo>(
            &orchestrator(s),
            dir,
            s.shard_config(),
            s.file_config(),
            &s.lease_dir_config(),
        )?;
        Ok(LeasedStack { q })
    }
    fn open(&self, dir: &Path) -> io::Result<(Self::S, Reopened)> {
        let s = &self.0;
        let (q, report, _) = lease::open_leased_dir::<Algo>(
            &orchestrator(s),
            dir,
            s.queue_config(),
            &s.lease_dir_config(),
            None,
        )?;
        let lease_replay_s = lease_phase_s(&report);
        Ok((
            LeasedStack { q },
            Reopened {
                report,
                lease_replay_s,
            },
        ))
    }
}

/// Plain grouped deployment (the gated run).
pub struct PlainGrouped(pub Spec);

impl Deploy for PlainGrouped {
    type S = GroupedStack<ShardedQueue<Algo>, false>;
    fn spec(&self) -> &Spec {
        &self.0
    }
    fn create(&self, dir: &Path) -> io::Result<Self::S> {
        let s = &self.0;
        let q = lease::create_grouped_dir::<Algo>(
            &orchestrator(s),
            dir,
            s.shard_config(),
            s.file_config(),
            &s.group_dir_config(),
        )?;
        Ok(GroupedStack::new(q))
    }
    fn open(&self, dir: &Path) -> io::Result<(Self::S, Reopened)> {
        let s = &self.0;
        let (q, report, _) = lease::open_grouped_dir::<Algo>(
            &orchestrator(s),
            dir,
            s.queue_config(),
            &s.group_dir_config(),
            None,
        )?;
        let lease_replay_s = lease_phase_s(&report);
        Ok((
            GroupedStack::new(q),
            Reopened {
                report,
                lease_replay_s,
            },
        ))
    }
}

type TracedBase = ShardWrap<ShardedQueue<CoreWrap<Algo>>>;

/// Wraps a file pool in the `store`-boundary decorator and hands it to
/// `PmemPool`.
fn traced_pool(pool: FilePool, spec: &Spec) -> Arc<PmemPool> {
    let always = spec.sync == SyncPolicy::PowerFail;
    Arc::new(PmemPool::from_backend(Box::new(TimedBackend::new(
        pool, always,
    ))))
}

fn traced_create_base(spec: &Spec, dir: &Path) -> io::Result<TracedBase> {
    std::fs::create_dir_all(dir)?;
    let manifest = ShardManifest::new(spec.shards, spec.policy);
    let pools = manifest
        .pool_paths(dir)
        .iter()
        .map(|p| {
            trace::event("store.create", || FilePool::create(p, spec.file_config()))
                .map(|f| traced_pool(f, spec))
        })
        .collect::<io::Result<Vec<_>>>()?;
    manifest.write(dir)?;
    Ok(ShardWrap(ShardedQueue::create_on(
        pools,
        spec.shard_config(),
    )))
}

fn traced_open_base(spec: &Spec, dir: &Path) -> io::Result<(TracedBase, RecoveryReport)> {
    let manifest = ShardManifest::read(dir)?;
    let pools = manifest
        .pool_paths(dir)
        .iter()
        .map(|p| {
            trace::event("store.open", || {
                FilePool::open_with_config(p, spec.file_config())
            })
            .map(|f| traced_pool(f, spec))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let (base, report) = orchestrator(spec).recover::<CoreWrap<Algo>>(pools, spec.shard_config());
    Ok((ShardWrap(base), report))
}

/// Dead-letter queues, created or recovered. They are on no workload's
/// path, so their pools go unwrapped.
fn dlqs(spec: &Spec, dir: &Path, fresh: bool) -> io::Result<Vec<Option<Arc<dyn DurableQueue>>>> {
    spec.dlq_paths(dir)
        .iter()
        .map(|path| {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            let q: Arc<dyn DurableQueue> = if fresh {
                let cfg = FileConfig::with_size(spec.dlq_bytes).with_sync(spec.sync);
                Arc::new(Algo::create(
                    FilePool::create(path, cfg)?.into_pool(),
                    spec.queue_config(),
                ))
            } else {
                Arc::new(Algo::recover(
                    FilePool::open_with_sync(path, spec.sync)?.into_pool(),
                    spec.queue_config(),
                ))
            };
            Ok(Some(q))
        })
        .collect()
}

/// Traced leased deployment, assembled by hand.
pub struct TracedLeased(pub Spec);

impl Deploy for TracedLeased {
    type S = LeasedStack<TracedBase, true>;
    fn spec(&self) -> &Spec {
        &self.0
    }
    fn create(&self, dir: &Path) -> io::Result<Self::S> {
        let base = traced_create_base(&self.0, dir)?;
        let dlq = dlqs(&self.0, dir, true)?.pop().flatten();
        let q = LeasedQueue::create(base, dlq, self.0.lease_config(dir))?;
        Ok(LeasedStack { q })
    }
    fn open(&self, dir: &Path) -> io::Result<(Self::S, Reopened)> {
        let (base, report) = traced_open_base(&self.0, dir)?;
        let begun = Instant::now();
        let dlq = dlqs(&self.0, dir, false)?.pop().flatten();
        let (q, _) = LeasedQueue::recover(base, dlq, self.0.lease_config(dir), None)?;
        let lease_replay_s = begun.elapsed().as_secs_f64();
        Ok((
            LeasedStack { q },
            Reopened {
                report,
                lease_replay_s,
            },
        ))
    }
}

/// Traced grouped deployment, assembled by hand.
pub struct TracedGrouped(pub Spec);

impl Deploy for TracedGrouped {
    type S = GroupedStack<TracedBase, true>;
    fn spec(&self) -> &Spec {
        &self.0
    }
    fn create(&self, dir: &Path) -> io::Result<Self::S> {
        let base = traced_create_base(&self.0, dir)?;
        let dlqs = dlqs(&self.0, dir, true)?;
        let q = GroupedQueue::create(base, dlqs, self.0.group_config(dir))?;
        Ok(GroupedStack::new(Arc::new(q)))
    }
    fn open(&self, dir: &Path) -> io::Result<(Self::S, Reopened)> {
        let (base, report) = traced_open_base(&self.0, dir)?;
        let begun = Instant::now();
        let dlqs = dlqs(&self.0, dir, false)?;
        let (q, _) = GroupedQueue::recover(base, dlqs, self.0.group_config(dir), None)?;
        let lease_replay_s = begun.elapsed().as_secs_f64();
        Ok((
            GroupedStack::new(Arc::new(q)),
            Reopened {
                report,
                lease_replay_s,
            },
        ))
    }
}

/// Every regular file under `dir`, recursively.
fn files_under(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let ty = entry.file_type()?;
            if ty.is_dir() {
                stack.push(entry.path());
            } else if ty.is_file() {
                out.push(entry.path());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Rule 3: allocates every block of every `*.pool` file under `dir` and
/// reads each front to back once (then `fsync`s them under power-fail), so
/// that no timed region allocates a block or reads a hole from disk.
/// Returns the bytes of pool files prepared.
pub fn preallocate_pools(dir: &Path, sync: SyncPolicy) -> io::Result<u64> {
    let mut total = 0;
    for path in files_under(dir)? {
        if path.extension().is_none_or(|e| e != "pool") {
            continue;
        }
        let mut file = File::options().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        sys::preallocate(&file, len)?;
        total += sys::read_through(&mut file)?;
        if sync == SyncPolicy::PowerFail {
            file.sync_all()?;
        }
    }
    Ok(total)
}

/// Bytes of the lease layer's own files under `dir`: `LEASES.log`,
/// `segment-*.log` and `GROUP.meta`.
pub fn log_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for path in files_under(dir)? {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let is_log = name == lease::LEASE_LOG_FILE
            || name == lease::GROUP_META_FILE
            || (name.starts_with("segment-") && name.ends_with(".log"));
        if is_log {
            total += std::fs::metadata(&path)?.len();
        }
    }
    Ok(total)
}
