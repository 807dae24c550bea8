//! The benchmark's metrics by name: the one list `BENCHMARK.json`, the
//! README and the output all follow, and how each is computed from what a
//! pass measured.

use crate::filewl;
use crate::pairs;
use crate::stats::{self, median};
use crate::trace::{Event, Ledger, Name};

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// The end-to-end metric and workload a per-layer metric should move
    /// (for end-to-end metrics: what it is).
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, note: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics; every workload reports all of them.
pub const END_TO_END: &[Def] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "create the deployment, preallocate and pre-read its pools (median of several set-ups)",
    ),
    e2e(
        "msgs_per_s",
        "1/s",
        Higher,
        0.25,
        "median over samples of messages completed / wall time of their produce and consume laps",
    ),
    e2e(
        "produce_us",
        "us",
        Lower,
        0.25,
        "median over samples of produce-lap wall time x threads / enqueue calls",
    ),
    e2e(
        "consume_us",
        "us",
        Lower,
        0.25,
        "median over samples of consume-lap wall time x threads / acked deliveries",
    ),
    e2e(
        "fences_per_msg",
        "count",
        Lower,
        0.002,
        "StatsSnapshot.fences over every pool across the measured rounds / messages completed",
    ),
    e2e(
        "space_bytes_per_msg",
        "B",
        Lower,
        0.01,
        "(pool watermarks + lease-layer log files) at the end of the run / messages produced",
    ),
];

/// The per-layer metrics, reported by the traced run.
pub const PER_LAYER: &[Def] = &[
    layer(
        "recover_s",
        "s",
        Lower,
        "the whole stack's reopen -> first lease granted; what the *.recover_s, lease.replay_s and store.open_s below add up to",
    ),
    layer(
        "lease.enqueue_self_us",
        "us",
        Lower,
        "produce_us on lease-pc, backlog-pc",
    ),
    layer(
        "lease.dequeue_self_us",
        "us",
        Lower,
        "consume_us on lease-pc, backlog-pc",
    ),
    layer(
        "lease.ack_self_us",
        "us",
        Lower,
        "consume_us on lease-pc, backlog-pc",
    ),
    layer(
        "lease.nack_self_us",
        "us",
        Lower,
        "consume_us on lease-pc, backlog-pc",
    ),
    layer(
        "lease.enqueue_p99_us",
        "us",
        Lower,
        "tail behind produce_us, file workloads",
    ),
    layer(
        "lease.consume_p99_us",
        "us",
        Lower,
        "tail behind consume_us, file workloads",
    ),
    layer(
        "lease.log_records_per_msg",
        "count",
        Lower,
        "consume_us on group-pf; space_bytes_per_msg",
    ),
    layer(
        "lease.log_bytes_per_msg",
        "B",
        Lower,
        "space_bytes_per_msg on file workloads",
    ),
    layer(
        "lease.compactions_per_kmsg",
        "count",
        Lower,
        "lease.consume_p99_us on lease-pc",
    ),
    layer(
        "lease.rotations_per_kmsg",
        "count",
        Lower,
        "space_bytes_per_msg on backlog-pc, group-pf",
    ),
    layer(
        "lease.retired_per_kmsg",
        "count",
        Higher,
        "space_bytes_per_msg on backlog-pc, group-pf",
    ),
    layer(
        "lease.redelivered_share",
        "share",
        Lower,
        "consume_us; the load says 5 % plus held leases",
    ),
    layer(
        "lease.replay_s",
        "s",
        Lower,
        "recover_s on backlog-pc, lease-pc",
    ),
    layer(
        "shard.enqueue_self_us",
        "us",
        Lower,
        "produce_us on backlog-pc",
    ),
    layer(
        "shard.dequeue_self_us",
        "us",
        Lower,
        "consume_us on backlog-pc",
    ),
    layer(
        "shard.dequeue_miss_share",
        "share",
        Lower,
        "consume_us on backlog-pc",
    ),
    layer(
        "shard.depth_skew",
        "share",
        Lower,
        "consume_us on backlog-pc",
    ),
    layer("shard.recover_s", "s", Lower, "recover_s on backlog-pc"),
    layer(
        "shard.recover_speedup",
        "ratio",
        Higher,
        "recover_s on backlog-pc",
    ),
    layer(
        "core.enqueue_self_us",
        "us",
        Lower,
        "produce_us everywhere; msgs_per_s on paper-pairs",
    ),
    layer(
        "core.dequeue_self_us",
        "us",
        Lower,
        "consume_us everywhere; msgs_per_s on paper-pairs",
    ),
    layer(
        "core.recover_s",
        "s",
        Lower,
        "recover_s on backlog-pc, paper-pairs",
    ),
    layer(
        "core.opt_vs_msq_ratio",
        "ratio",
        Higher,
        "msgs_per_s on paper-pairs (the paper's headline)",
    ),
    layer("ssmem.alloc_free_ns", "ns", Lower, "produce_us on lease-pc"),
    layer(
        "ssmem.pool_bytes_per_reopen",
        "B",
        Lower,
        "space_bytes_per_msg, recover_s on backlog-pc",
    ),
    layer(
        "ssmem.pool_bytes_per_msg_steady",
        "B",
        Lower,
        "space_bytes_per_msg everywhere (0 when recycling works)",
    ),
    layer(
        "pmem.flushes_per_msg",
        "count",
        Lower,
        "produce_us; fences_per_msg stays put while it falls",
    ),
    layer("pmem.nt_stores_per_msg", "count", Lower, "consume_us"),
    layer(
        "pmem.word_ops_per_msg",
        "count",
        Lower,
        "produce_us, consume_us on lease-pc (x store.word_ns)",
    ),
    layer(
        "pmem.post_flush_per_msg",
        "count",
        Lower,
        "msgs_per_s on paper-pairs; must be 0 there",
    ),
    layer(
        "store.word_ns",
        "ns",
        Lower,
        "msgs_per_s, produce_us, consume_us on lease-pc, backlog-pc",
    ),
    layer("store.word_ns_raw", "ns", Lower, "floor for store.word_ns"),
    layer("store.sfence_us", "us", Lower, "msgs_per_s on group-pf"),
    layer(
        "store.flush_ns",
        "ns",
        Lower,
        "produce_us on file workloads",
    ),
    layer(
        "store.msyncs_per_msg",
        "count",
        Lower,
        "msgs_per_s on group-pf",
    ),
    layer(
        "store.msync_pages_per_fence",
        "count",
        Lower,
        "msgs_per_s on group-pf",
    ),
    layer(
        "store.fence_coalesced_share",
        "share",
        Higher,
        "msgs_per_s, fences_per_msg on group-pf",
    ),
    layer("store.open_s", "s", Lower, "recover_s on file workloads"),
    layer("store.create_s", "s", Lower, "setup_s on file workloads"),
    layer(
        "store.minor_faults_per_kmsg",
        "count",
        Lower,
        "produce_us; must stay near 0 in measured rounds",
    ),
    layer(
        "obs.snapshot_us",
        "us",
        Lower,
        "none: the instrument budget",
    ),
    layer(
        "trace.overhead_share",
        "share",
        Lower,
        "none: 1 - traced / untraced msgs_per_s",
    ),
    layer(
        "trace.load_self_us",
        "us",
        Lower,
        "none: the load generator's own time per message",
    ),
    layer(
        "env.msync_page_us",
        "us",
        Lower,
        "explains drift of group-pf",
    ),
    layer(
        "env.fdatasync_append_us",
        "us",
        Lower,
        "explains drift of group-pf",
    ),
    layer(
        "env.spin_calib_ns",
        "ns",
        Lower,
        "explains drift of every timed metric",
    ),
];

/// The workloads and why each exists (one line each, as in
/// `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    ("lease-pc",
     "LeasedQueue over 1 shard, process-crash, 1 client, 1536 rounds of 4096: cache-resident, nothing blocks, so the time is store word access + core + lease log"),
    ("group-pf",
     "GroupedQueue, 2 groups over 1 shard, power-fail with group commit, 2 clients, 100 rounds of 200: the time is msync and fdatasync, CPU savings predict no change"),
    ("backlog-pc",
     "GroupedQueue, 2 groups over 2 key-hash shards, process-crash, 1 client, 8 rounds of fill 300000, crash, reopen, drain: working set beyond cache, recovery proportional to backlog"),
    ("paper-pairs",
     "the paper's Figure 2 pairs on a queue of 10, simulated pool with Optane-like latency, 2 clients, 12M pairs: bypasses store, shard and lease entirely"),
];

/// Named values, in registry order.
pub type Values = Vec<(&'static str, f64)>;

fn lookup(defs: &'static [Def], name: &str) -> &'static Def {
    defs.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

/// Orders `values` as the registry lists them and checks that each of
/// `defs` got exactly one finite value.
pub fn in_registry_order(defs: &'static [Def], mut values: Values) -> Values {
    for (name, v) in &mut values {
        lookup(defs, name);
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    defs.iter()
        .map(|d| {
            let mut found = values.iter().filter(|(n, _)| *n == d.name);
            let value = found
                .next()
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name))
                .1;
            assert!(found.next().is_none(), "metric {} computed twice", d.name);
            (d.name, value)
        })
        .collect()
}

/// The definition of a metric in either list.
pub fn def_of(name: &str) -> &'static Def {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The end-to-end metrics from per-set-up and per-sample times and the
/// two counts.
fn end_to_end(
    setup_s: &[f64],
    (rate, produce_us, consume_us): (Vec<f64>, Vec<f64>, Vec<f64>),
    fences_per_msg: f64,
    space_bytes_per_msg: f64,
) -> Values {
    in_registry_order(
        END_TO_END,
        vec![
            ("setup_s", median(setup_s)),
            ("msgs_per_s", median(&rate)),
            ("produce_us", median(&produce_us)),
            ("consume_us", median(&consume_us)),
            ("fences_per_msg", fences_per_msg),
            ("space_bytes_per_msg", space_bytes_per_msg),
        ],
    )
}

/// End-to-end metrics of a file-workload pass.
pub fn file_end_to_end(p: &filewl::Pass) -> Values {
    let threads = p.threads as f64;
    let per_lap = |f: &dyn Fn(&filewl::Lap) -> f64| p.laps.iter().map(f).collect();
    end_to_end(
        &p.setup_s,
        (
            per_lap(&|l| l.msgs as f64 / (l.produce_s + l.consume_s)),
            per_lap(&|l| l.produce_s * threads / l.msgs as f64 * 1e6),
            per_lap(&|l| l.consume_s * threads / l.acks as f64 * 1e6),
        ),
        per(p.pmem.fences as f64, p.measured_msgs()),
        per(p.space_bytes as f64, p.produced),
    )
}

/// End-to-end metrics of a `paper-pairs` pass.
pub fn pairs_end_to_end(p: &pairs::Pass) -> Values {
    let per_slice = |f: &dyn Fn(&pairs::SliceTimes) -> f64| p.slices.iter().map(f).collect();
    // The bursts run one thread at a time, so their wall time is already
    // the sum over threads.
    end_to_end(
        &p.setup_s,
        (
            per_slice(&|s| p.slice_pairs as f64 / s.pairs_s),
            per_slice(&|s| s.produce_s / p.slice_burst as f64 * 1e6),
            per_slice(&|s| s.consume_s / p.slice_burst as f64 * 1e6),
        ),
        per(p.pmem.fences as f64, p.measured_msgs()),
        per(p.space_bytes as f64, p.produced),
    )
}

/// Seconds of measured time behind the timed end-to-end metrics: the
/// rounds, and the crash cycles.
pub fn measured_seconds_file(p: &filewl::Pass) -> (f64, f64) {
    (
        p.laps.iter().map(|l| l.produce_s + l.consume_s).sum(),
        p.recover_s.iter().sum(),
    )
}

/// What the probes measured; see [`crate::probes`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeValues {
    /// `env.msync_page_us`.
    pub msync_page_us: f64,
    /// `env.fdatasync_append_us`.
    pub fdatasync_append_us: f64,
    /// `env.spin_calib_ns`.
    pub spin_calib_ns: f64,
    /// `store.word_ns`.
    pub word_ns: f64,
    /// `store.word_ns_raw`.
    pub word_ns_raw: f64,
    /// `ssmem.alloc_free_ns`.
    pub alloc_free_ns: f64,
    /// `obs.snapshot_us`.
    pub snapshot_us: f64,
}

fn probe_values(v: &ProbeValues) -> Values {
    vec![
        ("env.msync_page_us", v.msync_page_us),
        ("env.fdatasync_append_us", v.fdatasync_append_us),
        ("env.spin_calib_ns", v.spin_calib_ns),
        ("store.word_ns", v.word_ns),
        ("store.word_ns_raw", v.word_ns_raw),
        ("ssmem.alloc_free_ns", v.alloc_free_ns),
        ("obs.snapshot_us", v.snapshot_us),
    ]
}

/// The `pmem.*` counts per message.
fn pmem_values(s: &pmem::StatsSnapshot, msgs: u64) -> Values {
    vec![
        ("pmem.flushes_per_msg", per(s.flushes as f64, msgs)),
        ("pmem.nt_stores_per_msg", per(s.nt_stores as f64, msgs)),
        (
            "pmem.word_ops_per_msg",
            per((s.loads + s.stores + s.cas_ops) as f64, msgs),
        ),
        (
            "pmem.post_flush_per_msg",
            per(s.post_flush_accesses as f64, msgs),
        ),
    ]
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn event_median(events: &[Event], name: &str) -> f64 {
    let v: Vec<f64> = events
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|&(_, s)| s)
        .collect();
    median_or_zero(&v)
}

/// Self times and tails every traced pass reports the same way.
fn ledger_values(ledger: &Ledger, msgs_per_op: f64) -> Values {
    let us = |n: Name| ledger.self_ns(n) / 1000.0;
    let mut produce = ledger.produce_us.clone();
    let mut consume = ledger.consume_us.clone();
    let p99 = |s: &mut Vec<f64>| stats::tail(s).map_or(0.0, |t| t.value);
    // The roots' self time is what the load generator itself spends
    // between the calls it makes: per message, one produce root and
    // `msgs_per_op` consume roots.
    let load = us(Name::Produce) + us(Name::Consume) * msgs_per_op;
    vec![
        ("lease.enqueue_self_us", us(Name::LeaseEnqueue)),
        ("lease.dequeue_self_us", us(Name::LeaseDequeue)),
        ("lease.ack_self_us", us(Name::LeaseAck)),
        ("lease.nack_self_us", us(Name::LeaseNack)),
        ("lease.enqueue_p99_us", p99(&mut produce)),
        ("lease.consume_p99_us", p99(&mut consume)),
        ("shard.enqueue_self_us", us(Name::ShardEnqueue)),
        ("shard.dequeue_self_us", us(Name::ShardDequeue)),
        ("core.enqueue_self_us", us(Name::CoreEnqueue)),
        ("core.dequeue_self_us", us(Name::CoreDequeue)),
        (
            "store.sfence_us",
            ledger.mean_ns(Name::StoreSfence) / 1000.0,
        ),
        ("store.flush_ns", ledger.mean_ns(Name::StoreFlush)),
        ("trace.load_self_us", load),
    ]
}

fn rate_of(values: &Values) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == "msgs_per_s")
        .map_or(0.0, |&(_, v)| v)
}

/// Per-layer metrics of a file workload: counts from the plain pass, times
/// from the traced pass.
pub fn file_per_layer(
    plain: &filewl::Pass,
    traced: &filewl::Pass,
    ledger: &mut Ledger,
    probes: &ProbeValues,
) -> Values {
    // What the phase timing of the traced pass says one operation takes.
    let threads = traced.threads as f64;
    let produce_s: f64 = traced.laps.iter().map(|l| l.produce_s).sum();
    let consume_s: f64 = traced.laps.iter().map(|l| l.consume_s).sum();
    ledger.calibrate_in_place(
        per(
            produce_s * threads * 1e9,
            ledger.calls[Name::Produce as usize],
        ),
        per(
            consume_s * threads * 1e9,
            ledger.calls[Name::Consume as usize],
        ),
    );
    let ledger = &*ledger;
    let msgs = plain.measured_msgs();
    let kmsgs = msgs as f64 / 1000.0;
    let deliveries_per_msg = per(plain.lease.granted as f64, msgs);
    let obs = &plain.obs;
    let (hit, miss) = (
        obs.counter("shard.dequeue.hit") as f64,
        obs.counter("shard.dequeue.miss") as f64,
    );
    let (leader, follower) = (
        obs.counter("store.fence.leader") as f64,
        obs.counter("store.fence.follower") as f64,
    );
    let hist = |name: &str| obs.histograms.get(name).cloned().unwrap_or_default();
    let median_of = |f: &dyn Fn(&crate::deploy::Reopened) -> f64| {
        median_or_zero(&plain.reopened.iter().map(f).collect::<Vec<_>>())
    };
    let reopen_bytes: Vec<f64> = plain.reopen_pool_bytes.iter().map(|&b| b as f64).collect();
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    let mut v = ledger_values(ledger, deliveries_per_msg);
    v.extend(probe_values(probes));
    v.extend(pmem_values(&plain.pmem, msgs));
    v.extend([
        (
            "lease.log_records_per_msg",
            per(plain.lease.records as f64, msgs),
        ),
        (
            "lease.log_bytes_per_msg",
            per(plain.log_bytes as f64, plain.produced),
        ),
        (
            "lease.compactions_per_kmsg",
            plain.lease.compactions as f64 / kmsgs,
        ),
        (
            "lease.rotations_per_kmsg",
            plain.lease.rotations as f64 / kmsgs,
        ),
        ("lease.retired_per_kmsg", plain.lease.retired as f64 / kmsgs),
        (
            "lease.redelivered_share",
            share(plain.lease.redelivered as f64, plain.lease.granted as f64),
        ),
        ("recover_s", median_or_zero(&plain.recover_s)),
        ("lease.replay_s", median_of(&|r| r.lease_replay_s)),
        ("shard.dequeue_miss_share", share(miss, hit + miss)),
        ("shard.depth_skew", plain.depth_skew),
        ("shard.recover_s", median_of(&|r| r.shard_phase_s())),
        ("shard.recover_speedup", median_of(&|r| r.report.speedup())),
        ("core.recover_s", median_of(&|r| r.core_recover_s())),
        ("core.opt_vs_msq_ratio", 0.0),
        ("ssmem.pool_bytes_per_reopen", median_or_zero(&reopen_bytes)),
        (
            "ssmem.pool_bytes_per_msg_steady",
            per(plain.steady_pool_bytes as f64, msgs),
        ),
        (
            "store.msyncs_per_msg",
            per(hist("store.msync_ns").count() as f64, msgs),
        ),
        (
            "store.msync_pages_per_fence",
            share(
                hist("store.msync_batch_pages").sum as f64,
                obs.counter("store.fence") as f64,
            ),
        ),
        (
            "store.fence_coalesced_share",
            share(follower, leader + follower),
        ),
        ("store.open_s", event_median(&traced.events, "store.open")),
        (
            "store.create_s",
            event_median(&traced.events, "store.create"),
        ),
        (
            "store.minor_faults_per_kmsg",
            plain.minor_faults as f64 / kmsgs,
        ),
        (
            "trace.overhead_share",
            1.0 - share(
                rate_of(&file_end_to_end(traced)),
                rate_of(&file_end_to_end(plain)),
            ),
        ),
    ]);
    in_registry_order(PER_LAYER, v)
}

/// Per-layer metrics of `paper-pairs`: everything of `store`, `shard` and
/// `lease` is absent and reads 0.
pub fn pairs_per_layer(
    plain: &pairs::Pass,
    traced: &pairs::Pass,
    ledger: &mut Ledger,
    msq_pairs_per_s: f64,
    probes: &ProbeValues,
) -> Values {
    // What one pair takes a thread in the pairs phase, split between its
    // enqueue and its dequeue the way the bursts split.
    let pairs_s: f64 = traced.slices.iter().map(|s| s.pairs_s).sum();
    let produce_s: f64 = traced.slices.iter().map(|s| s.produce_s).sum();
    let consume_s: f64 = traced.slices.iter().map(|s| s.consume_s).sum();
    let pair_ns = per(
        pairs_s * pairs::THREADS as f64 * 1e9,
        traced.slice_pairs * traced.slices.len() as u64,
    );
    let enqueue_share = if produce_s + consume_s > 0.0 {
        produce_s / (produce_s + consume_s)
    } else {
        0.5
    };
    ledger.calibrate_in_place(pair_ns * enqueue_share, pair_ns * (1.0 - enqueue_share));
    let ledger = &*ledger;
    let msgs = plain.measured_msgs();
    let reopen_bytes: Vec<f64> = plain.reopen_pool_bytes.iter().map(|&b| b as f64).collect();
    let plain_rate = rate_of(&pairs_end_to_end(plain));
    // Of the ledger only `core` and the load generator exist here (the
    // roots wrap `core` calls, not `lease` calls).
    let mut v: Values = ledger_values(ledger, 1.0)
        .into_iter()
        .filter(|(name, _)| name.starts_with("core.") || name.starts_with("trace."))
        .collect();
    v.extend(probe_values(probes));
    v.extend(pmem_values(&plain.pmem, msgs));
    v.extend([
        ("recover_s", median_or_zero(&plain.recover_s)),
        ("core.recover_s", median_or_zero(&plain.core_recover_s)),
        (
            "core.opt_vs_msq_ratio",
            if msq_pairs_per_s > 0.0 {
                plain_rate / msq_pairs_per_s
            } else {
                0.0
            },
        ),
        ("ssmem.pool_bytes_per_reopen", median_or_zero(&reopen_bytes)),
        (
            "ssmem.pool_bytes_per_msg_steady",
            per(plain.steady_pool_bytes as f64, msgs),
        ),
        (
            "trace.overhead_share",
            if plain_rate > 0.0 {
                1.0 - rate_of(&pairs_end_to_end(traced)) / plain_rate
            } else {
                0.0
            },
        ),
    ]);
    // Everything of `lease`, `shard` and `store` is bypassed and reads 0.
    for d in PER_LAYER {
        if !v.iter().any(|(name, _)| *name == d.name) {
            v.push((d.name, 0.0));
        }
    }
    in_registry_order(PER_LAYER, v)
}

/// What the ledger says one message costs: every layer's self time times
/// how often a message calls it (one enqueue; a dequeue per delivery, of
/// which the redelivered share are extra; one ack; a nack per redelivery),
/// once per consumer group, plus the load generator's own time.
pub fn ledger_sum_us(per_layer: &Values, groups: usize) -> f64 {
    let get = |name: &str| {
        per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let redelivered = get("lease.redelivered_share");
    let deliveries = 1.0 / (1.0 - redelivered);
    let groups = groups as f64;
    let fence_us = get("store.sfence_us");
    let flush_us = get("store.flush_ns") / 1000.0;
    let produce = get("lease.enqueue_self_us")
        + get("shard.enqueue_self_us")
        + get("core.enqueue_self_us")
        + get("pmem.flushes_per_msg") * flush_us
        + fence_us;
    let consume = groups
        * (deliveries * get("lease.dequeue_self_us")
            + get("lease.ack_self_us")
            + (deliveries - 1.0) * get("lease.nack_self_us"))
        + get("shard.dequeue_self_us")
        + get("core.dequeue_self_us")
        + fence_us;
    produce + consume + get("trace.load_self_us")
}

/// `BENCHMARK.json`, written from the lists above so that the file at the
/// repository root can be checked against them.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound.expect("end-to-end metrics have a bound")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \
         \"--manifest-path\", \"qbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"qbench\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The result line: one JSON object, last on standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def_of(name).unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contracts_alphabet() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.note.len() <= 200);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(PER_LAYER.len() <= 128);
        for d in END_TO_END {
            let bound = d.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
        }
        for (name, why) in WORKLOADS {
            assert!(seen.insert(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_plain_numbers() {
        let line = result_line(true, 12, 0, &vec![("setup_s", 0.25), ("msgs_per_s", 1e-9)]);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"value\": 0.000000001, \"unit\": \"1/s\""));
    }
}
