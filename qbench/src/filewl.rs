//! The three file-backend workloads and the closed-loop engine they share.
//!
//! A workload is a sequence of *rounds*; a round is a produce phase and a
//! consume phase. A timed *sample* is one lap of a round — the whole round,
//! or, where a round has to be long (`backlog-pc` fills far beyond cache),
//! one of `laps` equal cuts of each phase, lap *i* of the consume phase
//! settling what lap *i* of the produce phase put in. Samples are kept
//! short (10–150 ms) and many: the sandbox's noise is one-sided and comes
//! in bursts, and the median of many short samples sits in the undisturbed
//! cluster where the median of a few long ones moves with how many of them
//! a burst touched. Operation counts are fixed, never a wall-clock budget. A crash takes leases and
//! holds them, drops every handle without closing (`mem::forget`: no
//! destructor runs, exactly what SIGKILL leaves), reopens, and times until
//! the first lease is granted. Crashes are either part of every round, which
//! fills before and drains after (`backlog-pc`), or follow the measured
//! rounds as cycles on a standing backlog that is filled once and drained
//! once (`lease-pc`, `group-pf`).

use crate::deploy::{self, Deploy, LeaseCounts, Reopened, Spec, Stack};
use crate::fit::{DeploymentLoad, LIMBO_SLACK};
use crate::model::{FifoView, Inputs, Model};
use crate::sys;
use crate::trace::{self, Name, ThreadTrace};
use obs::MetricsSnapshot;
use pmem::StatsSnapshot;
use shard::RoutePolicy;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use store::SyncPolicy;

/// The shape of one file workload.
#[derive(Clone, Debug)]
pub struct FileWorkload {
    /// Name on the command line.
    pub name: &'static str,
    /// Consumer groups (`0` = `LeasedQueue`).
    pub groups: usize,
    /// Shards.
    pub shards: usize,
    /// Routing policy.
    pub policy: RoutePolicy,
    /// Durability tier.
    pub sync: SyncPolicy,
    /// Group-commit window of the shard pools.
    pub group_commit: Option<u64>,
    /// Load threads (clients).
    pub threads: usize,
    /// Designated-area size.
    pub area_size: u32,
    /// Items each thread produces per produce phase.
    pub batch: u64,
    /// Timed samples each phase of a round is cut into (1 = the round is
    /// the sample); only rounds that crash are cut.
    pub laps: u64,
    /// Measured rounds.
    pub rounds: u64,
    /// Discarded warm-up rounds.
    pub warmup: u64,
    /// Leases held per group across the crash that is part of every
    /// round; `None` when rounds do not crash.
    pub crash_in_round: Option<u64>,
    /// Crash cycles after the measured rounds (one more is run first and
    /// discarded).
    pub cycles: u64,
    /// Standing backlog at each of those crashes.
    pub cycle_depth: u64,
    /// Leases held per group across each of those crashes; as many items
    /// are settled and produced again per cycle.
    pub cycle_held: u64,
    /// One operation in this many is recorded as a span tree when traced.
    pub trace_period: u64,
}

/// How many times a run sets up; `setup_s` is the median. Not more: each
/// set-up of `backlog-pc` creates and deletes 315 MB of pool files. With
/// five, `setup_s` of `group-pf` and `backlog-pc` spread 0.39 and 0.35 over
/// ten runs; with nine, 0.11 and 0.16.
pub const SETUPS: usize = 9;

impl FileWorkload {
    /// `lease-pc`: cache-resident closed loop on a leased directory.
    pub fn lease_pc() -> Self {
        FileWorkload {
            name: "lease-pc",
            groups: 0,
            shards: 1,
            policy: RoutePolicy::RoundRobin,
            sync: SyncPolicy::ProcessCrash,
            group_commit: None,
            threads: 1,
            area_size: 256 << 10,
            batch: 4096,
            laps: 1,
            rounds: 1536,
            warmup: 64,
            crash_in_round: None,
            cycles: 30,
            cycle_depth: 4096,
            cycle_held: 256,
            trace_period: 64,
        }
    }

    /// `group-pf`: two groups, two threads, every fence an `msync`.
    pub fn group_pf() -> Self {
        FileWorkload {
            name: "group-pf",
            groups: 2,
            shards: 1,
            policy: RoutePolicy::RoundRobin,
            sync: SyncPolicy::PowerFail,
            group_commit: Some(0),
            threads: 2,
            area_size: 256 << 10,
            batch: 100,
            laps: 1,
            rounds: 100,
            warmup: 10,
            crash_in_round: None,
            cycles: 30,
            cycle_depth: 1000,
            cycle_held: 10,
            trace_period: 1,
        }
    }

    /// `backlog-pc`: fill far beyond cache, crash, reopen, drain.
    pub fn backlog_pc() -> Self {
        FileWorkload {
            name: "backlog-pc",
            groups: 2,
            shards: 2,
            policy: RoutePolicy::KeyHash,
            sync: SyncPolicy::ProcessCrash,
            group_commit: None,
            threads: 1,
            area_size: 256 << 10,
            batch: 300_000,
            laps: 30,
            rounds: 8,
            warmup: 1,
            crash_in_round: Some(1000),
            cycles: 0,
            cycle_depth: 0,
            cycle_held: 0,
            trace_period: 64,
        }
    }

    /// The same shapes with every count cut down to run in well under a
    /// second; the checker stays on.
    pub fn smoke(mut self) -> Self {
        self.batch = (self.batch / 50).max(20);
        self.laps = self.laps.min(3);
        self.rounds = 2;
        self.warmup = 1;
        self.crash_in_round = self.crash_in_round.map(|_| 10);
        self.cycles = self.cycles.min(2);
        self.cycle_depth = self.cycle_depth.min(80);
        self.cycle_held = self.cycle_held.min(5);
        self.area_size = 64 << 10;
        self
    }

    /// Scales the measured rounds (never below eight) by `factor`.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.rounds = ((self.rounds as f64 * factor).round() as u64).max(8);
        self
    }

    /// Messages per round.
    pub fn round_msgs(&self) -> u64 {
        self.batch * self.threads as u64
    }

    /// Reopens one deployment goes through.
    fn reopens(&self) -> u64 {
        match self.crash_in_round {
            Some(_) => self.rounds + self.warmup,
            None => self.cycles + 1,
        }
    }

    /// Items the whole run produces.
    fn capacity(&self) -> u64 {
        (self.rounds + self.warmup) * self.round_msgs()
            + match self.crash_in_round {
                Some(_) => 0,
                None => self.cycle_depth + (self.cycles + 1) * self.cycle_held,
            }
    }

    /// Pool sizes from the fit arithmetic, or the refusal.
    pub fn spec(&self) -> Result<Spec, String> {
        let block = self.batch * self.threads as u64;
        let at_reopen = match self.crash_in_round {
            Some(_) => block,
            None => self.cycle_depth,
        };
        let load = DeploymentLoad {
            // The deepest the queue gets, plus what the epoch scheme keeps
            // in limbo before it hands nodes back.
            peak: block.max(self.cycle_depth) + LIMBO_SLACK,
            backlog: at_reopen,
            shards: self.shards,
            threads: self.threads,
            area_size: self.area_size,
            crash_cycles: self.reopens() as u32,
        };
        let fit = load.fit().map_err(|e| format!("{}: {e}", self.name))?;
        Ok(Spec {
            groups: self.groups,
            shards: self.shards,
            policy: self.policy,
            sync: self.sync,
            group_commit: self.group_commit,
            area_size: self.area_size,
            pool_bytes: fit.pool_bytes,
            dlq_bytes: fit.dlq_bytes,
        })
    }
}

/// One timed sample: a lap of a measured round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lap {
    /// Messages produced in the lap.
    pub msgs: u64,
    /// Deliveries acked in the lap, all groups.
    pub acks: u64,
    /// Its part of the produce phase.
    pub produce_s: f64,
    /// Its part of the consume phase.
    pub consume_s: f64,
}

/// Everything one pass over a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Bytes of pool files each set-up prepared.
    pub pool_file_bytes: u64,
    /// The timed samples of the measured rounds.
    pub laps: Vec<Lap>,
    /// Load threads.
    pub threads: usize,
    /// Consumer groups drained (1 for a leased directory).
    pub groups: usize,
    /// Reopen → first lease, per measured crash cycle.
    pub recover_s: Vec<f64>,
    /// The reopens behind them.
    pub reopened: Vec<Reopened>,
    /// Watermark growth across each measured reopen.
    pub reopen_pool_bytes: Vec<u64>,
    /// Persistence counters over the measured phases, all pools.
    pub pmem: StatsSnapshot,
    /// Lease-layer counters over the measured phases.
    pub lease: LeaseCounts,
    /// `obs` instruments over the measured rounds.
    pub obs: MetricsSnapshot,
    /// Minor faults inside the measured phases.
    pub minor_faults: u64,
    /// Watermark growth inside the measured phases.
    pub steady_pool_bytes: u64,
    /// Empty polls of competing consumers in the measured phases.
    pub empty_polls: u64,
    /// (max − min) ÷ mean of what the last fill put into each shard.
    pub depth_skew: f64,
    /// Items produced over the whole run.
    pub produced: u64,
    /// Pool watermarks plus lease-layer files at the end of the run.
    pub space_bytes: u64,
    /// The lease-layer files alone.
    pub log_bytes: u64,
    /// Operations attempted, failed, and the first failure.
    pub verdict: (u64, u64, Option<String>),
    /// What the load threads recorded (traced passes).
    pub traces: Vec<ThreadTrace>,
    /// Rare spans recorded (traced passes).
    pub events: Vec<trace::Event>,
}

impl Pass {
    /// Messages completed in the measured rounds.
    pub fn measured_msgs(&self) -> u64 {
        self.laps.iter().map(|l| l.msgs).sum()
    }
}

/// What the threads of a consume phase share.
struct ConsumeCtl {
    /// Deliveries due per group, cumulative over the run.
    due: Vec<AtomicU64>,
    /// Deliveries claimed per group, cumulative.
    claims: Vec<AtomicU64>,
    empty_polls: AtomicU64,
    threads: usize,
}

impl ConsumeCtl {
    fn new(groups: usize, threads: usize) -> Self {
        let zeros = || (0..groups).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        ConsumeCtl {
            due: zeros(),
            claims: zeros(),
            empty_polls: AtomicU64::new(0),
            threads,
        }
    }

    /// Makes `n` more deliveries due in every group.
    fn owe(&self, n: u64) {
        for d in &self.due {
            d.fetch_add(n, Relaxed);
        }
    }
}

/// How long a competing consumer polls for a delivery it has claimed
/// before the run is declared stuck.
const STARVE_AFTER: Duration = Duration::from_secs(20);

/// Produces items `first..first + n` on thread `tid`.
fn produce_phase<S: Stack>(stack: &S, model: &Model, tid: usize, first: u64, n: u64) {
    let inputs = *model.inputs();
    for seq in first..first + n {
        let (key, item) = (inputs.key(seq), inputs.item(seq));
        model.produced(seq, stack.route(key), tid);
        let rec = stack.op_begin(Name::Produce, seq);
        stack.enqueue(tid, key, item);
        stack.op_end(rec);
    }
    model.attempt(n);
}

/// Settles one lease the way the plan says: nack it the first time if it
/// was chosen for a nack, ack it otherwise. Returns whether it was acked.
#[inline]
fn settle<S: Stack>(
    stack: &S,
    model: &Model,
    group: usize,
    tid: usize,
    lease: &lease::Lease,
    view: &mut FifoView,
) -> bool {
    match model.delivered(group, lease, view) {
        Some((seq, true)) => {
            // The model first: the nack hands the item to whichever thread
            // dequeues next, which must not find it still marked as leased.
            model.nacking(group, seq);
            model.nacked(group, seq, stack.nack(group, tid, lease));
            false
        }
        Some((seq, false)) => {
            model.acked(group, seq, stack.ack(group, lease));
            true
        }
        // Not an item of this run: already counted as a failure; ack it so
        // the drain can go on.
        None => stack.ack(group, lease),
    }
}

/// Leases and settles on thread 0 until `acks` items of `group` are
/// acked, or — with `acks` `None` — until the group is empty. `first` is
/// a lease already in hand.
fn settle_until<S: Stack>(
    stack: &S,
    model: &Model,
    group: usize,
    acks: Option<u64>,
    mut first: Option<lease::Lease>,
    view: &mut FifoView,
) {
    let mut acked = 0;
    while acks.is_none_or(|n| acked < n) {
        model.attempt(2);
        match first.take().or_else(|| stack.dequeue(group, 0)) {
            Some(l) => acked += settle(stack, model, group, 0, &l, view) as u64,
            None => {
                if let Some(n) = acks {
                    model.starved(group, n - acked);
                }
                break;
            }
        }
    }
}

/// Claims deliveries group by group until none is due, leasing and
/// settling each. Returns how many this thread acked.
fn consume_phase<S: Stack>(
    stack: &S,
    model: &Model,
    tid: usize,
    ctl: &ConsumeCtl,
    view: &mut FifoView,
) -> u64 {
    let mut ops = 0u64;
    let mut acked = 0u64;
    loop {
        let mut claimed = false;
        for g in 0..ctl.due.len() {
            let due = ctl.due[g].load(Relaxed);
            if ctl.claims[g].load(Relaxed) >= due || ctl.claims[g].fetch_add(1, Relaxed) >= due {
                continue;
            }
            claimed = true;
            ops += 2;
            let rec = stack.op_begin(Name::Consume, 0);
            let mut lease = stack.dequeue(g, tid);
            if lease.is_none() && ctl.threads > 1 {
                // Another thread holds the lease whose nack will feed this
                // claim; poll until it lands.
                let begun = Instant::now();
                while lease.is_none() && begun.elapsed() < STARVE_AFTER {
                    ctl.empty_polls.fetch_add(1, Relaxed);
                    std::thread::yield_now();
                    lease = stack.dequeue(g, tid);
                }
            }
            match lease {
                Some(l) => acked += settle(stack, model, g, tid, &l, view) as u64,
                None => model.starved(g, 1),
            }
            stack.op_end(rec);
        }
        if !claimed {
            break;
        }
    }
    model.attempt(ops);
    acked
}

/// Takes `held` leases in every group and keeps them: the crash catches
/// them in flight.
fn hold_phase<S: Stack>(stack: &S, model: &Model, held: u64, view: &mut FifoView) {
    for g in 0..stack.groups() {
        for _ in 0..held {
            model.attempt(1);
            match stack.dequeue(g, 0) {
                Some(l) => {
                    if let Some((seq, _)) = model.delivered(g, &l, view) {
                        model.caught_in_flight(g, seq);
                    }
                }
                None => model.starved(g, held),
            }
        }
    }
}

/// After a drain every group must be empty.
fn expect_empty<S: Stack>(stack: &S, model: &Model) {
    for g in 0..stack.groups() {
        model.attempt(1);
        if let Some(l) = stack.dequeue(g, 0) {
            model.surplus(g, l.item);
            stack.ack(g, &l);
        }
    }
}

/// Creates the deployment in `dir` and prepares its pool files.
fn set_up<D: Deploy>(d: &D, dir: &Path) -> Result<(D::S, f64, u64), String> {
    let begun = Instant::now();
    let stack = d
        .create(dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let bytes = deploy::preallocate_pools(dir, d.spec().sync)
        .map_err(|e| format!("preallocating {}: {e}", dir.display()))?;
    Ok((stack, begun.elapsed().as_secs_f64(), bytes))
}

/// What a crash and reopen hands back.
struct Reopen<S> {
    stack: S,
    /// Seconds from the reopen to the first lease granted.
    recover_s: f64,
    phases: Reopened,
    /// That first lease of group 0, not yet settled.
    first: Option<lease::Lease>,
    /// Watermark growth across the reopen.
    pool_bytes: u64,
}

/// "Crashes" the deployment and reopens it.
fn crash_and_reopen<D: Deploy>(
    d: &D,
    dir: &Path,
    stack: D::S,
    model: &Model,
    view: &mut FifoView,
) -> Result<Reopen<D::S>, String> {
    let before = stack.watermark_bytes();
    // No destructor runs: mappings, descriptors and dirty flags stay as a
    // killed process leaves them.
    std::mem::forget(stack);
    view.reset();
    let begun = Instant::now();
    let (stack, reopened) = d
        .open(dir)
        .map_err(|e| format!("reopening {}: {e}", dir.display()))?;
    let first = stack.dequeue(0, 0);
    let recover_s = begun.elapsed().as_secs_f64();
    model.attempt(1);
    if first.is_none() {
        model.starved(0, 1);
    }
    let pool_bytes = stack.watermark_bytes() - before;
    Ok(Reopen {
        stack,
        recover_s,
        phases: reopened,
        first,
        pool_bytes,
    })
}

/// Accumulates what the measured phases cost between two points where the
/// stack's counters are continuous (they restart at every reopen).
struct Segment {
    pmem: StatsSnapshot,
    lease: LeaseCounts,
    watermark: u64,
}

impl Segment {
    fn open<S: Stack>(stack: &S) -> Self {
        Segment {
            pmem: stack.pmem_stats(),
            lease: stack.lease_counts(),
            watermark: stack.watermark_bytes(),
        }
    }

    fn close<S: Stack>(self, stack: &S, pass: &mut Pass) {
        pass.pmem += stack.pmem_stats() - self.pmem;
        let l = stack.lease_counts() - self.lease;
        pass.lease.granted += l.granted;
        pass.lease.redelivered += l.redelivered;
        pass.lease.records += l.records;
        pass.lease.compactions += l.compactions;
        pass.lease.rotations += l.rotations;
        pass.lease.retired += l.retired;
        pass.steady_pool_bytes += stack.watermark_bytes() - self.watermark;
    }
}

/// What one crash round cost.
struct CrashRound {
    laps: Vec<Lap>,
    recover_s: f64,
    reopened: Reopened,
    reopen_pool_bytes: u64,
}

/// The `i`-th of `laps` near-equal shares of `total`.
fn share(total: u64, laps: u64, i: u64) -> u64 {
    total * (i + 1) / laps - total * i / laps
}

/// One single-threaded round with a crash in the middle: produce items
/// `first..first + n`, take `held` leases per group and hold them, crash,
/// reopen (timed), drain every group, `due` deliveries each. Both phases
/// are timed in `laps` cuts; the hold is booked to the first consume lap.
/// The measured phases are booked to `pass` when it is given.
#[allow(clippy::too_many_arguments)]
fn crash_round<D: Deploy>(
    d: &D,
    path: &Path,
    stack: D::S,
    model: &Model,
    ctl: &ConsumeCtl,
    view: &mut FifoView,
    (first, n, held, due, cuts): (u64, u64, u64, u64, u64),
    mut pass: Option<&mut Pass>,
) -> Result<(D::S, CrashRound), String> {
    let mut laps = vec![Lap::default(); cuts as usize];
    let segment = Segment::open(&stack);
    let faults = sys::minor_faults();
    let mut next = first;
    for (i, lap) in laps.iter_mut().enumerate() {
        lap.msgs = share(n, cuts, i as u64);
        let t = Instant::now();
        produce_phase(&stack, model, 0, next, lap.msgs);
        lap.produce_s = t.elapsed().as_secs_f64();
        next += lap.msgs;
    }
    let skew = model.routing_skew(first, n, stack.shards());
    let t = Instant::now();
    hold_phase(&stack, model, held, view);
    laps[0].consume_s = t.elapsed().as_secs_f64();
    if let Some(pass) = pass.as_deref_mut() {
        pass.depth_skew = skew;
        pass.minor_faults += sys::minor_faults() - faults;
        segment.close(&stack, pass);
    }

    let Reopen {
        stack,
        recover_s,
        phases: reopened,
        first,
        pool_bytes: reopen_pool_bytes,
    } = crash_and_reopen(d, path, stack, model, view)?;

    let segment = Segment::open(&stack);
    let faults = sys::minor_faults();
    let mut in_hand = first;
    for (i, lap) in laps.iter_mut().enumerate() {
        ctl.owe(share(due, cuts, i as u64));
        let t = Instant::now();
        if let Some(l) = in_hand.take() {
            ctl.claims[0].fetch_add(1, Relaxed);
            model.attempt(1);
            lap.acks += settle(&stack, model, 0, 0, &l, view) as u64;
        }
        lap.acks += consume_phase(&stack, model, 0, ctl, view);
        lap.consume_s += t.elapsed().as_secs_f64();
    }
    if let Some(pass) = pass {
        pass.minor_faults += sys::minor_faults() - faults;
        segment.close(&stack, pass);
    }
    expect_empty(&stack, model);
    Ok((
        stack,
        CrashRound {
            laps,
            recover_s,
            reopened,
            reopen_pool_bytes,
        },
    ))
}

/// The rounds of a workload that does not crash inside them: every thread
/// produces its share, then all compete for every group. Thread 0 is the
/// calling thread; it times the phases and keeps the books while the
/// others wait at the gate.
fn shared_rounds<S: Stack>(
    stack: &S,
    wl: &FileWorkload,
    model: &Model,
    ctl: &ConsumeCtl,
    nacks_per_block: u64,
    traced: bool,
    pass: &mut Pass,
) {
    let groups = stack.groups();
    let block = wl.batch * wl.threads as u64;
    let total_rounds = wl.warmup + wl.rounds;
    let gate = Barrier::new(wl.threads);
    let first_of = |round: u64, tid: usize| round * block + tid as u64 * wl.batch;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..wl.threads)
            .map(|tid| {
                let gate = &gate;
                scope.spawn(move || {
                    if traced {
                        trace::arm(wl.trace_period);
                    }
                    let mut view = FifoView::new(groups);
                    for round in 0..total_rounds {
                        if traced && round == wl.warmup {
                            trace::reset();
                        }
                        gate.wait();
                        produce_phase(stack, model, tid, first_of(round, tid), wl.batch);
                        gate.wait();
                        consume_phase(stack, model, tid, ctl, &mut view);
                        gate.wait();
                    }
                    traced.then(trace::take)
                })
            })
            .collect();

        let mut view = FifoView::new(groups);
        let mut obs_before = MetricsSnapshot::default();
        for round in 0..total_rounds {
            let measured = round >= wl.warmup;
            if round == wl.warmup {
                obs_before = obs::snapshot();
                ctl.empty_polls.store(0, Relaxed);
                if traced {
                    trace::reset();
                }
            }
            ctl.owe(block + nacks_per_block);
            let segment = Segment::open(stack);
            let faults = sys::minor_faults();
            gate.wait();
            let t0 = Instant::now();
            produce_phase(stack, model, 0, first_of(round, 0), wl.batch);
            gate.wait();
            let t1 = Instant::now();
            consume_phase(stack, model, 0, ctl, &mut view);
            gate.wait();
            let t2 = Instant::now();
            if measured {
                pass.minor_faults += sys::minor_faults() - faults;
                segment.close(stack, pass);
                // Every group acks every message of the round once.
                pass.laps.push(Lap {
                    msgs: block,
                    acks: block * groups as u64,
                    produce_s: (t1 - t0).as_secs_f64(),
                    consume_s: (t2 - t1).as_secs_f64(),
                });
            }
        }
        pass.obs = obs::snapshot() - obs_before;
        pass.empty_polls = ctl.empty_polls.load(Relaxed);
        let last = first_of(total_rounds - 1, 0);
        pass.depth_skew = model.routing_skew(last, block, stack.shards());
        for w in workers {
            pass.traces.extend(w.join().expect("load thread panicked"));
        }
    });
}

/// Runs one pass of `wl` through deployments made by `d` under `dir`.
pub fn run<D: Deploy>(
    d: &D,
    wl: &FileWorkload,
    seed: u64,
    dir: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let groups = wl.groups.max(1);
    let model = Model::new(Inputs::new(seed), groups, wl.capacity());
    let mut pass = Pass {
        threads: wl.threads,
        groups,
        ..Pass::default()
    };

    if traced {
        trace::take_events();
    }

    // Set-up, several times over; the last deployment is the one used.
    // The others are closed in an orderly way and deleted, so that their
    // page-cache pages go back to the kernel before the next one needs
    // pages (pages the sandbox has never touched cost a host fault each).
    let mut deployment: Option<(D::S, PathBuf)> = None;
    for k in 0..SETUPS {
        if let Some((stack, old)) = deployment.take() {
            drop(stack);
            let _ = std::fs::remove_dir_all(old);
            // Commit the deletion now, outside the next set-up's time: the
            // sandbox's disk is mounted `discard`, and freeing 315 MB while
            // the next set-up allocates as much doubled some of them.
            let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
        }
        let path = dir.join(format!("{}-{k}", wl.name));
        let (stack, secs, bytes) = set_up(d, &path)?;
        pass.setup_s.push(secs);
        pass.pool_file_bytes = bytes;
        deployment = Some((stack, path));
    }
    let (mut stack, path) = deployment.expect("at least one set-up");

    // The plan: which items are nacked once, block by block.
    let block = wl.batch * wl.threads as u64;
    let total_rounds = wl.warmup + wl.rounds;
    let mut nacks_per_block = 0;
    for b in 0..total_rounds {
        nacks_per_block = model.plan_nacks(b * block, block);
    }
    model.reserve(total_rounds * block);

    let ctl = ConsumeCtl::new(groups, wl.threads);
    if traced {
        trace::arm(wl.trace_period);
    }

    let mut view = FifoView::new(groups);
    match wl.crash_in_round {
        None => shared_rounds(&stack, wl, &model, &ctl, nacks_per_block, traced, &mut pass),
        Some(held) => {
            let mut obs_before = MetricsSnapshot::default();
            for round in 0..total_rounds {
                let measured = round >= wl.warmup;
                if round == wl.warmup {
                    obs_before = obs::snapshot();
                    if traced {
                        trace::reset();
                    }
                }
                let (next, out) = crash_round(
                    d,
                    &path,
                    stack,
                    &model,
                    &ctl,
                    &mut view,
                    (round * block, block, held, block + nacks_per_block, wl.laps),
                    measured.then_some(&mut pass),
                )?;
                stack = next;
                if measured {
                    pass.laps.extend(out.laps);
                    pass.recover_s.push(out.recover_s);
                    pass.reopened.push(out.reopened);
                    pass.reopen_pool_bytes.push(out.reopen_pool_bytes);
                }
            }
            pass.obs = obs::snapshot() - obs_before;
        }
    }
    if traced {
        // The crash cycles below are not part of the ledger.
        pass.traces.insert(0, trace::take());
    }

    // Crash cycles after the measured rounds, on a standing backlog: fill
    // once, then per cycle hold leases, crash, reopen (timed), settle what
    // the crash caught and top the backlog up again. The first cycle is
    // discarded; the backlog is drained once, at the end.
    if wl.crash_in_round.is_none() {
        let first = model.reserve(wl.cycle_depth);
        model.plan_nacks(first, wl.cycle_depth);
        produce_phase(&stack, &model, 0, first, wl.cycle_depth);
        for cycle in 0..=wl.cycles {
            hold_phase(&stack, &model, wl.cycle_held, &mut view);
            let mut reopen = crash_and_reopen(d, &path, stack, &model, &mut view)?;
            stack = reopen.stack;
            for g in 0..groups {
                let in_hand = if g == 0 { reopen.first.take() } else { None };
                settle_until(&stack, &model, g, Some(wl.cycle_held), in_hand, &mut view);
            }
            let refill = model.reserve(wl.cycle_held);
            model.plan_nacks(refill, wl.cycle_held);
            produce_phase(&stack, &model, 0, refill, wl.cycle_held);
            if cycle > 0 {
                pass.recover_s.push(reopen.recover_s);
                pass.reopened.push(reopen.phases);
                pass.reopen_pool_bytes.push(reopen.pool_bytes);
            }
        }
        for g in 0..groups {
            settle_until(&stack, &model, g, None, None, &mut view);
        }
    }
    if traced {
        pass.events = trace::take_events();
        trace::take();
    }

    expect_empty(&stack, &model);
    model.audit(0..model.produced_count());
    pass.produced = model.produced_count();
    pass.log_bytes = deploy::log_bytes(&path).map_err(|e| format!("sizing logs: {e}"))?;
    pass.space_bytes = stack.watermark_bytes() + pass.log_bytes;
    pass.verdict = model.verdict();
    std::mem::forget(stack);
    let _ = std::fs::remove_dir_all(&path);
    Ok(pass)
}
