//! The one SIGKILL driver: every crash round above `core` is a
//! [`Scenario`] run by [`run`].
//!
//! A scenario names a deployment [`Shape`], the algorithm, sync tier,
//! fence window, pool/area/growth sizes, how much confirmed traffic to
//! wait for, and how the child dies: a SIGKILL, or an env-gated abort
//! point inside the stack. [`run`] spawns the hidden `crash-child` verb of
//! a harness binary (the caller names the executable), waits, kills it or
//! lets it run to its abort point, reopens its files in this process and
//! applies the shape's oracle. The child
//! ([`run_child`]) confirms every completed operation with one [`AckLog`]
//! line written after the operation returned; the oracles read each log
//! with [`read_unique_acks`]. `harness restart` runs its rounds through
//! here with its own binary; the suites of `crates/harness/tests/` run
//! the whole table with the built one.

use crate::algorithms::Algorithm;
use crate::restart::check_suffix;
use crate::with_recoverable;
use durable_queues::root::TAG_ROOT_SLOT;
use durable_queues::testkit::subprocess::{
    count_lines, kill_and_reap, read_unique_acks, wait_until, AckLog,
};
use durable_queues::{DurableQueue, KeyedQueue, QueueConfig, RecoverableQueue};
use lease::{
    create_grouped_dir, create_leased_dir, open_grouped_dir, open_leased_dir, ConsumerGroup,
    GroupDirConfig, Lease, LeaseDirConfig, LeasedQueue, Redelivery, DLQ_POOL_FILE, GROUPS_DIR,
};
use obs::flight::{EventKind, FlightRecorder};
use pmem::PmemPool;
use shard::{
    check_pool, resolve_reshard, RecoveryOrchestrator, RoutePolicy, ShardConfig, ShardedQueue,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use store::{FileConfig, FilePool, SyncPolicy, HEADER_LEN};

const POOL_FILE: &str = "pool.dq";
/// Keys of the reshard shape's items (`key << 32 | seq`).
const KEYS: u64 = 8;
/// The item each holding group nacks past its budget before any traffic.
const POISON: u64 = u64::MAX - 1;
/// The lease producers' bound: the shard pools never exhaust while the
/// consumers lag, and the consumers still run until the crash.
const PRODUCED: u64 = 50_000;
/// Producers of the fence-cells shape.
const CELLS: usize = 4;
const SIGABRT: i32 = 6;

/// What the crash child runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// One pool file (`shards == 1`) or a manifest directory: an enqueuer
    /// and, with `dequeue`, a dequeuer held to half its rate so the crash
    /// always leaves a residue; a single pool may hold `held_views` views.
    Queue,
    /// A `LeasedQueue` with one consumer that holds every `item % 7 == 0`,
    /// nacks `item % 11 == 3` once and acks the rest.
    Leased,
    /// A `GroupedQueue`: three competing `alpha` consumers that hold and
    /// nack like the leased one, and a `beta` consumer acking everything.
    Grouped,
    /// `items` over 8 keys seeded into a `shards`-shard key-hash
    /// directory, then resharded to 2, 8, 4, 2, ... shards forever.
    Reshard,
    /// Four producers each storing, flushing and fencing one raw cell.
    FenceCells,
}

/// One crash round.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// What the child runs.
    pub shape: Shape,
    /// The queue algorithm (every shape but fence cells).
    pub algorithm: Algorithm,
    /// Shard count: 1 is a single pool file for the queue shape.
    pub shards: usize,
    /// Routing policy of a shard directory.
    pub policy: RoutePolicy,
    /// Whether the queue shape runs a dequeuer beside its enqueuer.
    pub dequeue: bool,
    /// Views of a single queue pool held from before traffic on.
    pub held_views: usize,
    /// Items the reshard shape seeds (rounded down to a multiple of 8).
    pub items: u64,
    /// Fence durability of every pool file and journal.
    pub sync: SyncPolicy,
    /// Power-fail group-commit window, nanoseconds.
    pub fence_window_ns: u64,
    /// Per-pool file size.
    pub pool_bytes: usize,
    /// The node allocator's designated-area size.
    pub area_bytes: u32,
    /// Per-pool growth step (`0` = fixed size).
    pub grow_step: usize,
    /// Confirmed operations (or reshards) the child must reach.
    pub min_acks: usize,
    /// Pool-file extensions to wait for, too, before a SIGKILL.
    pub growths: u32,
    /// Delay between the trigger and the SIGKILL.
    pub jitter_ms: u64,
    /// Instead of a SIGKILL: the env-gated crash point (and its value) the
    /// child must die at by SIGABRT; the oracles know what each leaves.
    pub abort: Option<(&'static str, u32)>,
    /// Working directory; [`run`] empties it before and removes it after.
    pub dir: PathBuf,
}

/// What a round observed, for reports; a field a shape has no use for
/// stays 0. `consumed` counts confirmed dequeues, consumer acks or
/// completed reshards; `recovery` is the reopen plus `recover()` time;
/// `resolved` and `shards_after` say how an interrupted reshard resolved.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub(crate) enqueued: usize,
    pub(crate) consumed: usize,
    pub(crate) held: usize,
    pub(crate) recovered: usize,
    pub(crate) recovery: Duration,
    pub(crate) growth_epochs: u64,
    pub(crate) blackbox_events: u64,
    pub(crate) unacked: u64,
    pub(crate) redelivered: u64,
    pub(crate) resolved: Option<shard::ReshardResolution>,
    pub(crate) shards_after: usize,
}

impl Scenario {
    /// A queue round on process-crash pools: an enqueuer and a dequeuer,
    /// SIGKILLed after 500 confirmed enqueues.
    pub fn queue(algorithm: Algorithm, shards: usize) -> Self {
        Scenario {
            shape: Shape::Queue,
            algorithm,
            shards,
            policy: RoutePolicy::RoundRobin,
            dequeue: true,
            held_views: 0,
            items: 0,
            sync: SyncPolicy::ProcessCrash,
            fence_window_ns: 0,
            pool_bytes: 128 << 20,
            area_bytes: 1 << 20,
            grow_step: 0,
            min_acks: 500,
            growths: 0,
            jitter_ms: 0,
            abort: None,
            dir: std::env::temp_dir().join(format!("harness-crash-{}", std::process::id())),
        }
    }

    /// An enqueue-only 256 KiB pool growing by 256 KiB steps, SIGKILLed
    /// once its file has been extended twice.
    pub fn growing(algorithm: Algorithm) -> Self {
        Scenario {
            dequeue: false,
            pool_bytes: 256 << 10,
            area_bytes: 64 << 10,
            grow_step: 256 << 10,
            growths: 2,
            ..Scenario::queue(algorithm, 1)
        }
    }

    /// A leased (or consumer-group) round on DurableMSQ over 2 shards.
    pub fn leased(shape: Shape, sync: SyncPolicy) -> Self {
        let power_fail = sync == SyncPolicy::PowerFail;
        Scenario {
            shape,
            sync,
            pool_bytes: 32 << 20,
            min_acks: if power_fail { 150 } else { 300 },
            ..Scenario::queue(Algorithm::DurableMsq, 2)
        }
    }

    /// A reshard round on OptUnlinkedQ from 4 shards, SIGKILLed
    /// `jitter_ms` after its `min_reshards`-th completed reshard.
    pub fn reshard(items: u64, min_reshards: usize, jitter_ms: u64) -> Self {
        Scenario {
            shape: Shape::Reshard,
            policy: RoutePolicy::KeyHash,
            items,
            pool_bytes: 32 << 20,
            min_acks: min_reshards,
            jitter_ms,
            ..Scenario::queue(Algorithm::OptUnlinked, 4)
        }
    }

    /// Four producers fencing on a power-fail pool with window
    /// `window_ns`, aborted inside the 25th coalesced batch — after its
    /// `msync`, before the followers wake.
    pub fn fence_cells(window_ns: u64) -> Self {
        Scenario {
            shape: Shape::FenceCells,
            sync: SyncPolicy::PowerFail,
            fence_window_ns: window_ns,
            pool_bytes: 4 << 20,
            min_acks: 1,
            abort: Some(("DQ_FENCE_ABORT_BEFORE_WAKE", 25)),
            ..Scenario::queue(Algorithm::DurableMsq, 1)
        }
    }

    /// This scenario, dying at the env-gated crash point `var` (set to 1)
    /// instead of by SIGKILL.
    pub fn aborting_at(self, var: &'static str) -> Self {
        Scenario {
            abort: Some((var, 1)),
            ..self
        }
    }

    fn child_args(&self) -> Vec<String> {
        [
            ("shape", format!("{:?}", self.shape)),
            ("algo", self.algorithm.name().to_string()),
            ("shards", self.shards.to_string()),
            ("policy", self.policy.key().to_string()),
            ("dequeue", (self.dequeue as u8).to_string()),
            ("held-views", self.held_views.to_string()),
            ("items", self.items.to_string()),
            ("sync", self.sync.key().to_string()),
            ("fence-window-ns", self.fence_window_ns.to_string()),
            ("pool-bytes", self.pool_bytes.to_string()),
            ("area-bytes", self.area_bytes.to_string()),
            ("grow-step", self.grow_step.to_string()),
            ("dir", self.dir.to_str().expect("utf-8 dir").to_string()),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [format!("--{flag}"), value])
        .collect()
    }

    /// The scenario a `crash-child` was spawned with; the kill and the
    /// minimum are the parent's business.
    pub fn from_flags(flags: &HashMap<String, String>) -> Self {
        let get = |flag: &str| {
            let value = flags.get(flag).map(String::as_str);
            value.unwrap_or_else(|| panic!("crash-child: missing --{flag}"))
        };
        let num = |flag: &str| -> u64 {
            let value = get(flag).parse();
            value.unwrap_or_else(|_| panic!("crash-child: bad --{flag}"))
        };
        let shape = match get("shape") {
            "Queue" => Shape::Queue,
            "Leased" => Shape::Leased,
            "Grouped" => Shape::Grouped,
            "Reshard" => Shape::Reshard,
            "FenceCells" => Shape::FenceCells,
            other => panic!("crash-child: bad --shape {other}"),
        };
        Scenario {
            shape,
            algorithm: Algorithm::parse(get("algo")).expect("crash-child: bad --algo"),
            shards: num("shards") as usize,
            policy: RoutePolicy::parse(get("policy")).expect("crash-child: bad --policy"),
            dequeue: num("dequeue") == 1,
            held_views: num("held-views") as usize,
            items: num("items"),
            sync: SyncPolicy::parse(get("sync")).expect("crash-child: bad --sync"),
            fence_window_ns: num("fence-window-ns"),
            pool_bytes: num("pool-bytes") as usize,
            area_bytes: num("area-bytes") as u32,
            grow_step: num("grow-step") as usize,
            dir: PathBuf::from(get("dir")),
            ..Scenario::queue(Algorithm::DurableMsq, 1)
        }
    }

    fn queue_config(&self) -> QueueConfig {
        QueueConfig {
            max_threads: 8,
            area_size: self.area_bytes,
        }
    }

    fn file_config(&self) -> FileConfig {
        FileConfig::with_size(self.pool_bytes)
            .with_sync(self.sync)
            .with_growth(self.grow_step)
            .with_fence_window(self.fence_window_ns)
    }

    /// What a reopen chooses: only the grow step. The tier is the pools'.
    fn session(&self) -> FileConfig {
        FileConfig::default().with_growth(self.grow_step)
    }

    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            shards: self.shards,
            queue: self.queue_config(),
            pool: pmem::PoolConfig::test_with_size(self.pool_bytes),
            policy: self.policy,
        }
    }

    fn lease_config(&self) -> LeaseDirConfig {
        LeaseDirConfig {
            // Nothing may expire: redelivery must come from the crash.
            lease_timeout: Duration::from_secs(300),
            max_deliveries: 3,
            ..LeaseDirConfig::default()
        }
    }

    fn group_config(&self) -> GroupDirConfig {
        GroupDirConfig {
            lease_timeout: Duration::from_secs(300),
            max_deliveries: 3,
            // Small segments, so the crash lands with rotations (and
            // usually retirements) behind it.
            rotate_records: 512,
            ..GroupDirConfig::new(["alpha", "beta"])
        }
    }

    /// Whether the SIGKILL may land: enough confirmed traffic (a dequeuer's
    /// first dequeue included), and the pool file extended `growths` times.
    fn ready(&self) -> bool {
        let at = |name: &str, min: usize| count_lines(&self.dir.join(name)) >= min;
        let min = self.min_acks;
        // Alpha's minimum is summed over its consumers, polled on one.
        let traffic = match self.shape {
            Shape::Queue => at("enq.log", min) && at("deq.log", self.dequeue as usize),
            Shape::Leased => at("acks-leased-0.log", min) && at("held-leased-0.log", 1),
            Shape::Grouped => at("acks-alpha-0.log", min / 3) && at("acks-beta-0.log", min),
            Shape::Reshard => at("reshard.log", min),
            Shape::FenceCells => at("ack-0.log", min),
        };
        let grown = HEADER_LEN + self.pool_bytes + self.growths as usize * self.grow_step;
        let pool_len = || std::fs::metadata(self.dir.join(POOL_FILE)).map_or(0, |m| m.len());
        traffic && (self.growths == 0 || pool_len() >= grown as u64)
    }
}

// ---- Parent side: spawn, wait, kill or reap, reopen, check. ----------

/// Runs one crash round with `exe` (a harness binary) as the child: spawn,
/// wait, SIGKILL or run to the abort point, reopen, apply the shape's
/// oracle. Panics on any violated guarantee.
pub fn run(exe: &Path, s: &Scenario) -> Outcome {
    let _ = std::fs::remove_dir_all(&s.dir);
    std::fs::create_dir_all(&s.dir).expect("create crash round dir");
    let mut cmd = Command::new(exe);
    cmd.arg("crash-child").args(s.child_args());
    cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
    let timeout = Duration::from_secs(120);
    if let Some((var, at)) = s.abort {
        let mut child = cmd
            .env(var, at.to_string())
            .spawn()
            .expect("spawn crash child");
        let deadline = Instant::now() + timeout;
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll crash child") {
                break status;
            }
            if Instant::now() > deadline {
                kill_and_reap(&mut child);
                panic!("the child never reached {var} within {timeout:?}");
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let died = status.signal();
        assert_eq!(died, Some(SIGABRT), "the child must die at {var}: {status}");
    } else {
        let mut child = cmd.spawn().expect("spawn crash child");
        wait_until(&mut child, timeout, "the kill point", || s.ready());
        std::thread::sleep(Duration::from_millis(s.jitter_ms));
        kill_and_reap(&mut child);
    }
    let outcome = with_recoverable!(s.algorithm, Q => match s.shape {
        Shape::Queue => queue_oracle::<Q>(s),
        Shape::Leased | Shape::Grouped => lease_oracle::<Q>(s),
        Shape::Reshard => reshard_oracle::<Q>(s),
        Shape::FenceCells => fence_oracle(s),
    });
    let _ = std::fs::remove_dir_all(&s.dir);
    outcome
}

fn drain(queue: &(impl DurableQueue + ?Sized)) -> Vec<u64> {
    std::iter::from_fn(|| queue.dequeue(0)).collect()
}

fn replay_ring(dir: &Path) -> obs::flight::Replay {
    let ring = obs::flight::replay(&FlightRecorder::ring_path(dir));
    ring.expect("replay BLACKBOX.ring after the crash")
}

/// The growth a grow abort point leaves committed, checked on the header
/// before the pool is opened.
fn check_grow_abort(s: &Scenario, var: &str, geometry: &store::PoolGeometry) {
    let committed = match var {
        "DQ_GROW_ABORT_AFTER_TRUNCATE" => 0,
        "DQ_GROW_ABORT_AFTER_COMMIT" => 1,
        other => panic!("no growth expectation for {other}"),
    };
    assert_eq!(geometry.growth_epoch, committed, "{var}: committed epoch");
    let file_len = std::fs::metadata(s.dir.join(POOL_FILE)).map_or(0, |m| m.len());
    let truncated = file_len >= (HEADER_LEN + s.pool_bytes + s.grow_step) as u64;
    assert!(truncated, "{var}: the ftruncate ran before the crash point");
    // An uncommitted growth recovers to the old size, a committed one to
    // the new.
    let grown = geometry.pool_size - geometry.base_size;
    let sized = if committed == 0 {
        grown == 0
    } else {
        grown >= s.grow_step
    };
    assert!(sized, "{var}: recovered size {geometry:?}");
}

/// The recovered pool is still elastic: enqueueing grows it exactly once
/// more. Counted from the epoch after `Q::recover`, whose volatile rebuild
/// of a large residue may itself grow the pool.
fn keeps_growing(queue: &impl DurableQueue, pool: &PmemPool) {
    let recovered = pool.growth_epoch();
    // Outside the child's sequence space.
    let mut next = u64::MAX;
    while pool.growth_epoch() == recovered {
        queue.enqueue(0, next);
        next -= 1;
        assert!(next > u64::MAX - 500_000, "the pool stopped growing");
    }
    assert_eq!(pool.growth_epoch(), recovered + 1);
}

/// Every pool file of the reopened deployment still carries the tier the
/// scenario created it under and the algorithm tag `tag` (zeros: none).
fn check_recorded(s: &Scenario, tag: [u8; 8], pools: &[PathBuf]) {
    for path in pools {
        let g = FilePool::read_geometry(path).expect("read a reopened pool's header");
        let recorded = (g.sync, g.roots[TAG_ROOT_SLOT].to_le_bytes());
        assert_eq!(recorded, (s.sync, tag), "{}: tier and tag", path.display());
    }
}

fn serves_fresh_traffic(queue: &impl DurableQueue) {
    queue.enqueue(2, u64::MAX);
    assert_eq!(queue.dequeue(2), Some(u64::MAX), "no post-recovery traffic");
}

/// The reopened pool is dirty at its committed size (a grow abort point
/// fixes which), [`check_suffix`] holds, the ring kept every inherited
/// growth, and the queue serves fresh traffic and, if elastic, grows.
fn queue_oracle<Q: RecoverableQueue>(s: &Scenario) -> Outcome {
    let (residues, recovery, growth_epochs) = if s.shards == 1 {
        let path = s.dir.join(POOL_FILE);
        let geometry = check_pool::<Q>(&path).expect("check the pool header");
        if let Some((var, _)) = s.abort {
            check_grow_abort(s, var, &geometry);
        }
        let epoch = geometry.growth_epoch;
        // Only the growth in flight at a SIGKILL may be uncommitted.
        assert!(s.abort.is_some() || epoch + 1 >= s.growths, "growths lost");
        let begun = Instant::now();
        let pool = FilePool::open_with_config(&path, s.session()).expect("reopen pool");
        assert!(!pool.was_clean(), "a crashed child leaves the pool dirty");
        let pool = pool.into_pool();
        let reopened = (pool.growth_epoch(), pool.len());
        assert_eq!(reopened, (epoch, geometry.pool_size), "committed geometry");
        let queue = Q::recover(Arc::clone(&pool), s.queue_config());
        let recovery = begun.elapsed();
        assert!(pool.growth_epoch() >= epoch, "recovery shrank the epoch");
        let residue = drain(&queue);
        serves_fresh_traffic(&queue);
        if s.grow_step > 0 {
            keeps_growing(&queue, &pool);
        }
        check_recorded(s, Q::TAG, &[path]);
        (vec![residue], recovery, epoch as u64)
    } else {
        let begun = Instant::now();
        let (queue, report, manifest) = RecoveryOrchestrator::new(s.shards)
            .open_dir_with_config::<Q>(&s.dir, s.queue_config(), s.session())
            .expect("recover the shard directory");
        let recovery = begun.elapsed();
        assert!(report.wall <= recovery, "the report covers recover()");
        let deployed = (manifest.shards(), manifest.policy, report.per_shard.len());
        assert_eq!(deployed, (s.shards, s.policy, s.shards), "manifest");
        let residues = (0..s.shards).map(|i| drain(queue.shard(i))).collect();
        serves_fresh_traffic(&queue);
        check_recorded(s, Q::TAG, &manifest.pool_paths(&s.dir));
        (residues, recovery, report.total_growth_epochs())
    };
    let acked_e = read_unique_acks(&s.dir.join("enq.log"), "E");
    let acked_d = read_unique_acks(&s.dir.join("deq.log"), "D");
    check_suffix(&acked_e, &acked_d, &residues, 1, s.dequeue as usize);
    assert!(acked_e.len() >= s.min_acks, "crashed before traffic");
    // The ring records a growth just after its journal record commits it,
    // so each traffic thread may leave one committed growth unrecorded.
    let ring = replay_ring(&s.dir);
    let commits = ring.of_kind(EventKind::PoolGrowthCommit).count() as u64;
    let in_flight = 1 + s.dequeue as u64;
    assert!(
        commits + in_flight >= growth_epochs,
        "ring has {commits} growths"
    );
    Outcome {
        enqueued: acked_e.len(),
        consumed: acked_d.len(),
        recovered: residues.iter().map(Vec::len).sum(),
        recovery,
        growth_epochs,
        blackbox_events: ring.events.len() as u64,
        ..Outcome::default()
    }
}

/// The consumer groups of the leased or grouped shape: (name, competing
/// consumers, whether they hold, nack and dead-letter or just ack).
fn groups(shape: Shape) -> &'static [(&'static str, usize, bool)] {
    match shape {
        Shape::Leased => &[("leased", 1, true)],
        _ => &[("alpha", 3, true), ("beta", 1, false)],
    }
}

/// A recovered group: its consumer handle, dead-letter queue, and the
/// recovery report's (unacked, redelivered, dead-lettered) counts.
type Recovered<'a> = (&'a dyn PeekLock, &'a dyn DurableQueue, (u64, u64, u64));

fn lease_oracle<Q: RecoverableQueue + 'static>(s: &Scenario) -> Outcome {
    let orch = RecoveryOrchestrator::new(s.shards);
    let begun = Instant::now();
    if s.shape == Shape::Leased {
        let (queue, report, manifest) =
            open_leased_dir::<Q>(&orch, &s.dir, s.queue_config(), &s.lease_config(), None)
                .expect("recover the leased dir");
        let recovery = begun.elapsed();
        let pools = [manifest.pool_paths(&s.dir), vec![s.dir.join(DLQ_POOL_FILE)]];
        check_recorded(s, Q::TAG, &pools.concat());
        let r = report.lease.expect("lease recovery counts in the report");
        let dlq = queue.dlq().expect("a DLQ").as_ref();
        let counts = (r.unacked, r.redelivered, r.dead_lettered);
        let recovered: [Recovered; 1] = [(&queue, dlq, counts)];
        let enqueue = |v| queue.enqueue(2, v);
        check_groups(s, manifest.shards(), recovery, &enqueue, &recovered)
    } else {
        let (queue, report, manifest) =
            open_grouped_dir::<Q>(&orch, &s.dir, s.queue_config(), &s.group_config(), None)
                .expect("recover the grouped dir");
        let recovery = begun.elapsed();
        let handles = queue.handles();
        let mut pools = manifest.pool_paths(&s.dir);
        let dlq_of =
            |h: &ConsumerGroup<_>| s.dir.join(GROUPS_DIR).join(h.name()).join(DLQ_POOL_FILE);
        pools.extend(handles.iter().map(dlq_of));
        check_recorded(s, Q::TAG, &pools);
        let recovered: Vec<Recovered> = (handles.iter().zip(&report.groups))
            .map(|(h, r)| {
                assert_eq!(h.name(), r.name, "report order");
                let dlq = queue.dlq(h.name()).expect("a group DLQ").as_ref();
                let counts = (r.unacked, r.redelivered, r.dead_lettered);
                (h as &dyn PeekLock, dlq, counts)
            })
            .collect();
        let enqueue = |v| queue.enqueue(2, v);
        check_groups(s, manifest.shards(), recovery, &enqueue, &recovered)
    }
}

/// The leased and grouped oracle, per recovered group: held leases come
/// back exactly once with delivery count 2, confirmed acks and the settled
/// poison never do, the poison sits alone in the holding group's
/// dead-letter queue, confirmed enqueues survive up to the in-transit
/// window, and a fresh grant follows.
fn check_groups(
    s: &Scenario,
    shards: usize,
    recovery: Duration,
    enqueue: &dyn Fn(u64),
    recovered: &[Recovered],
) -> Outcome {
    // Grants are the ring's densest event: a valid replay without one
    // lost the pre-crash lease traffic.
    let ring = replay_ring(&s.dir);
    let (grants, torn) = (ring.of_kind(EventKind::LeaseGrant).count(), ring.torn);
    assert!(grants > 0, "no pre-crash grant ({torn} torn)");
    assert_eq!(shards, s.shards, "manifest shard count");
    let enq = read_unique_acks(&s.dir.join("enq.log"), "E");
    let mut out = Outcome {
        enqueued: enq.len(),
        recovery,
        blackbox_events: ring.events.len() as u64,
        ..Outcome::default()
    };
    let specs = groups(s.shape);
    assert_eq!(specs.len(), recovered.len(), "groups");
    for (&(name, consumers, holds), &(queue, dlq, counts)) in specs.iter().zip(recovered) {
        let (unacked, redelivered, dead_lettered) = counts;
        let log = |kind: &str, tag: &str| -> BTreeSet<u64> {
            let read = |c| read_unique_acks(&s.dir.join(format!("{kind}-{name}-{c}.log")), tag);
            (0..consumers).flat_map(read).collect()
        };
        let (acked, held) = (log("acks", "A"), log("held", "H"));
        assert!(held.len() >= holds as usize, "{name}: no lease held");
        // The leased consumer drains alone; a group's drain competes.
        let leased = s.shape == Shape::Leased;
        let seen = drain_leases(queue, if leased { 1 } else { 2 });
        for h in &held {
            assert_eq!(seen.get(h), Some(&2), "{name}: {h} not redelivered once");
        }
        let bumped = seen.values().filter(|&&count| count >= 2).count() as u64;
        // Every item recovery requeued was live at the crash; a leased
        // stream has no dispatched-but-ungranted items, so there each one
        // was delivered before and comes back bumped.
        let drift = bumped > redelivered || (leased && bumped < redelivered);
        assert!(!drift, "{name}: {bumped} bumped, report says {redelivered}");
        assert!(unacked as usize >= held.len(), "{name}: unacked lost");
        assert_eq!(dead_lettered, 0, "{name}: recovery dead-lettered items");
        let back: Vec<&u64> = acked.iter().filter(|v| seen.contains_key(v)).collect();
        assert!(back.is_empty(), "{name} resurrected acks: {back:?}");
        assert!(!seen.contains_key(&POISON), "{name}: poison back");
        // Confirmed enqueues may surface nowhere: the in-transit item,
        // plus, in a group, one per consumer whose ack landed but whose
        // confirmation line did not.
        let slack = if leased { 1 } else { consumers + 1 };
        let gone = |v: &&u64| !acked.contains(v) && !seen.contains_key(v);
        let lost: Vec<&u64> = enq.iter().filter(gone).collect();
        assert!(lost.len() <= slack, "{name}: lost {lost:?}");
        let extras: Vec<&u64> = seen.keys().filter(|v| !enq.contains(v)).collect();
        assert!(extras.len() <= 1, "{name}: unconfirmed extras: {extras:?}");
        let dead = drain(dlq);
        assert_eq!(dead, &[POISON][..holds as usize], "{name}: dead letters");
        out.consumed += acked.len();
        out.held += held.len();
        out.recovered += seen.len();
        out.unacked += unacked;
        out.redelivered += bumped;
    }
    assert!(out.consumed >= s.min_acks, "crashed before traffic");
    // The recovered deployment grants fresh traffic to every group.
    enqueue(u64::MAX);
    for (queue, ..) in recovered {
        let l = queue.dequeue(2).expect("post-recovery grant");
        assert_eq!((l.item, l.delivery_count), (u64::MAX, 1), "fresh grant");
        queue.ack(&l);
    }
    out
}

/// Drains `queue` with `drainers` competing threads, acking everything:
/// item -> delivery count, each item delivered at most once.
fn drain_leases(queue: &dyn PeekLock, drainers: usize) -> BTreeMap<u64, u32> {
    let seen = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for c in 0..drainers {
            let seen = &seen;
            scope.spawn(move || {
                while let Some(l) = queue.dequeue(c) {
                    let prior = obs::locked(seen).insert(l.item, l.delivery_count);
                    assert!(prior.is_none(), "item {} delivered twice", l.item);
                    queue.ack(&l);
                }
            });
        }
    });
    seen.into_inner().expect("drain threads finished")
}

/// The directory resolves to a consistent shard count (fixed by an abort
/// point), holds every key's items once and in order, and reopens empty.
fn reshard_oracle<Q: RecoverableQueue>(s: &Scenario) -> Outcome {
    let log = s.dir.join("reshard.log");
    assert!(log.exists(), "the child died before it finished seeding");
    let completed = read_unique_acks(&log, "R").len();
    assert!(completed >= s.min_acks, "the crash landed before a reshard");
    let resolved = resolve_reshard(&s.dir).expect("resolve the interrupted reshard");
    let orch = RecoveryOrchestrator::new(s.shards);
    let reopen = || orch.open_dir::<Q>(&s.dir, s.queue_config());
    let begun = Instant::now();
    let (queue, _, manifest) = reopen().expect("recover the resharded directory");
    let recovery = begun.elapsed();
    let shards = manifest.shards();
    check_recorded(s, Q::TAG, &manifest.pool_paths(&s.dir));
    // The child's first reshard goes to 2 shards.
    let expected: &[usize] = match s.abort {
        None => &[2, 4, 8],
        Some(("DQ_RESHARD_ABORT_AFTER_INTENT", _)) => &[s.shards],
        Some(("DQ_RESHARD_ABORT_AFTER_COMMIT", _)) => &[2],
        Some((other, _)) => panic!("no reshard expectation for {other}"),
    };
    assert!(expected.contains(&shards), "recovered to {shards} shards");
    if s.abort.is_some() {
        assert!(resolved.is_some(), "no reshard to resolve");
    }
    // Exactly the seeded items, each key's in order, whichever way the
    // reshard resolved.
    let mut last = [0u64; KEYS as usize];
    for v in (0..shards).flat_map(|i| drain(queue.shard(i))) {
        let (key, seq) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
        assert!(key < KEYS as usize, "invented key {key}");
        assert_eq!(seq, last[key] + 1, "key {key} out of sequence");
        last[key] = seq;
    }
    let seeded = [s.items / KEYS; KEYS as usize];
    assert_eq!(last, seeded, "keys lost their tails");
    drop(queue);
    let (queue, ..) = reopen().expect("reopen the drained directory");
    assert_eq!(queue.dequeue(0), None, "a drained directory reopens empty");
    Outcome {
        consumed: completed,
        recovered: last.iter().sum::<u64>() as usize,
        recovery,
        resolved,
        shards_after: shards,
        ..Outcome::default()
    }
}

/// Each producer's cell reads at or past its last acked fence.
fn fence_oracle(s: &Scenario) -> Outcome {
    let path = s.dir.join(POOL_FILE);
    let pool = FilePool::open(&path).expect("reopen pool file");
    assert!(!pool.was_clean(), "an aborted child leaves the pool dirty");
    check_recorded(s, [0; 8], &[path]); // a raw pool: no algorithm
    let pool = pool.into_pool();
    let region = pool.root_u64(0) as u32;
    assert_ne!(region, 0, "the child died before publishing its cells");
    let mut acked = 0;
    for tid in 0..CELLS {
        let acks = read_unique_acks(&s.dir.join(format!("ack-{tid}.log")), "E");
        acked += acks.len();
        // Every acked fence rode a committed batch; later, unacked stores
        // may share the page, so the cell reads at or past the last ack.
        let cell = pool.load_u64(region + tid as u32 * 64);
        let last = acks.last().copied().unwrap_or(0);
        assert!(cell >= last, "producer {tid} acked {last}, pool has {cell}");
    }
    assert!(acked >= s.min_acks, "no fence acked before the abort");
    Outcome {
        enqueued: acked,
        ..Outcome::default()
    }
}

// ---- Child side: build the deployment, drive traffic, confirm. -------

/// The hidden `crash-child` verb: builds the scenario's deployment and
/// drives its traffic until killed or aborted. Never returns normally.
pub fn run_child(s: &Scenario) {
    std::fs::create_dir_all(&s.dir).expect("crash-child: create dir");
    // The crash-surviving flight recorder rides next to the pool files,
    // where the oracle (and `harness blackbox`) replays it.
    let recorder = FlightRecorder::create_or_open(&s.dir, obs::flight::DEFAULT_CAPACITY);
    obs::flight::install(recorder.expect("crash-child: create flight recorder"));
    let orch = RecoveryOrchestrator::new(s.shards);
    with_recoverable!(s.algorithm, Q => match s.shape {
        Shape::Queue if s.shards == 1 => {
            let pool = FilePool::create(s.dir.join(POOL_FILE), s.file_config())
                .expect("crash-child: create pool")
                .into_pool();
            // Views that pin nothing: a growth must commit around them.
            let _views: Vec<_> = (0..s.held_views).map(|_| pool.map_ref()).collect();
            drive_queue(&Q::create(Arc::clone(&pool), s.queue_config()), s);
        }
        Shape::Queue => drive_queue(&create_dir::<Q>(&orch, s), s),
        Shape::Leased => {
            let lease = s.lease_config();
            let queue = create_leased_dir::<Q>(&orch, &s.dir, s.shard_config(), s.file_config(), &lease)
                .expect("crash-child: create leased dir");
            drive_groups(s, &|v| queue.enqueue(0, v), &[&queue]);
        }
        Shape::Grouped => {
            let group = s.group_config();
            let queue = create_grouped_dir::<Q>(&orch, &s.dir, s.shard_config(), s.file_config(), &group)
                .expect("crash-child: create grouped dir");
            let handles = queue.handles();
            let handles: Vec<&dyn PeekLock> = handles.iter().map(|h| h as _).collect();
            drive_groups(s, &|v| queue.enqueue(0, v), &handles);
        }
        Shape::Reshard => reshard(&orch, create_dir::<Q>(&orch, s), s),
        Shape::FenceCells => fence_cells(s),
    });
}

fn create_dir<Q: RecoverableQueue>(orch: &RecoveryOrchestrator, s: &Scenario) -> ShardedQueue<Q> {
    let queue = orch.create_dir(&s.dir, s.shard_config(), s.file_config());
    queue.expect("crash-child: create shard dir")
}

fn drive_queue(queue: &impl DurableQueue, s: &Scenario) {
    let mut enq_log = AckLog::create(s.dir.join("enq.log"));
    let mut deq_log = AckLog::create(s.dir.join("deq.log"));
    let (enqueued, dequeued) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for seq in 1..=u64::MAX {
                queue.enqueue(0, seq);
                enq_log.record("E", seq);
                enqueued.fetch_add(1, Relaxed);
            }
        });
        if s.dequeue {
            scope.spawn(|| loop {
                if dequeued.load(Relaxed) * 2 + 8 >= enqueued.load(Relaxed) {
                    std::hint::spin_loop();
                } else if let Some(v) = queue.dequeue(1) {
                    deq_log.record("D", v);
                    dequeued.fetch_add(1, Relaxed);
                }
            });
        }
    });
}

/// The peek-lock surface the leased and grouped shapes share.
trait PeekLock: Sync {
    fn dequeue(&self, tid: usize) -> Option<Lease>;
    fn ack(&self, lease: &Lease);
    fn nack(&self, tid: usize, lease: &Lease) -> Redelivery;
}

macro_rules! peek_lock {
    ($($surface:ident),*) => {$(
        impl<B: DurableQueue + 'static> PeekLock for $surface<B> {
            fn dequeue(&self, tid: usize) -> Option<Lease> {
                $surface::dequeue(self, tid)
            }
            fn ack(&self, lease: &Lease) {
                $surface::ack(self, lease).expect("ack")
            }
            fn nack(&self, tid: usize, lease: &Lease) -> Redelivery {
                $surface::nack(self, tid, lease).expect("nack")
            }
        }
    )*};
}
peek_lock!(LeasedQueue, ConsumerGroup);

/// Drives the groups of a leased or grouped deployment: the poison item
/// first (dead-lettered by each holding group, acked by the others), then
/// a bounded producer and every group's consumers until the crash.
fn drive_groups(s: &Scenario, enqueue: &(dyn Fn(u64) + Sync), handles: &[&dyn PeekLock]) {
    enqueue(POISON);
    for (&(_, _, holds), queue) in groups(s.shape).iter().zip(handles) {
        loop {
            let l = queue.dequeue(1).expect("crash-child: poison visible");
            assert_eq!(l.item, POISON);
            if !holds {
                queue.ack(&l);
                break;
            }
            if let Redelivery::DeadLettered = queue.nack(1, &l) {
                break;
            }
        }
    }
    let log = |name: String| AckLog::create(s.dir.join(name));
    let mut enq_log = log("enq.log".into());
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for seq in 1..=PRODUCED {
                enqueue(seq);
                enq_log.record("E", seq);
            }
        });
        let mut tid = 0;
        for (&(name, consumers, holds), &queue) in groups(s.shape).iter().zip(handles) {
            for c in 0..consumers {
                tid += 1;
                let acks = log(format!("acks-{name}-{c}.log"));
                let held = holds.then(|| log(format!("held-{name}-{c}.log")));
                scope.spawn(move || consume(queue, tid, acks, held));
            }
        }
    });
}

/// Consumes forever. With a `held` log, the first delivery of every
/// `item % 7 == 0` is held (the crash strands it) and of `item % 11 == 3`
/// nacked once; everything else is acked and logged.
fn consume(queue: &dyn PeekLock, tid: usize, mut acks: AckLog, mut held: Option<AckLog>) {
    loop {
        let Some(l) = queue.dequeue(tid) else {
            continue;
        };
        let first = l.delivery_count == 1;
        match held.as_mut() {
            Some(held) if first && l.item % 7 == 0 => held.record("H", l.item),
            Some(_) if first && l.item % 11 == 3 => {
                queue.nack(tid, &l);
            }
            _ => {
                queue.ack(&l);
                acks.record("A", l.item);
            }
        }
    }
}

/// Seeds the key-ordered items, closes the directory, then reshards it
/// forever, confirming each completed reshard.
fn reshard<Q: RecoverableQueue>(orch: &RecoveryOrchestrator, queue: ShardedQueue<Q>, s: &Scenario) {
    for seq in 1..=s.items / KEYS {
        for key in 0..KEYS {
            queue.enqueue_keyed(0, key, key << 32 | seq);
        }
    }
    drop(queue);
    // The log's existence tells the oracle the seeding finished.
    let mut log = AckLog::create(s.dir.join("reshard.log"));
    for (done, to) in [2usize, 8, 4].into_iter().cycle().enumerate() {
        orch.reshard_dir_with::<Q>(&s.dir, to, s.queue_config(), None, |v| v >> 32)
            .expect("crash-child: reshard");
        log.record("R", done as u64 + 1);
    }
}

fn fence_cells(s: &Scenario) {
    let pool = FilePool::create(s.dir.join(POOL_FILE), s.file_config())
        .expect("crash-child: create pool")
        .into_pool();
    let region = pool.alloc_raw(CELLS as u32 * 64, 64);
    pool.set_root_u64(0, region as u64);
    std::thread::scope(|scope| {
        for tid in 0..CELLS {
            let (pool, mut log) = (&pool, AckLog::create(s.dir.join(format!("ack-{tid}.log"))));
            scope.spawn(move || {
                let cell = region + tid as u32 * 64;
                for seq in 1..=u64::MAX {
                    pool.store_u64(cell, seq);
                    pool.flush(tid, cell);
                    pool.sfence(tid);
                    log.record("E", seq);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_round_trip_through_the_child_flags() {
        for s in [
            Scenario::fence_cells(500),
            Scenario::reshard(96, 1, 0),
            Scenario::leased(Shape::Grouped, SyncPolicy::PowerFail),
            Scenario {
                held_views: 4,
                ..Scenario::growing(Algorithm::OptUnlinked)
            },
        ] {
            let args = s.child_args();
            let flags: HashMap<String, String> = (args.chunks(2))
                .map(|kv| (kv[0].trim_start_matches("--").to_string(), kv[1].clone()))
                .collect();
            assert_eq!(Scenario::from_flags(&flags).child_args(), args);
        }
    }
}
