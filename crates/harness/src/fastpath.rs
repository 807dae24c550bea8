//! The `fastpath` experiment: what a file pool's word access costs.
//!
//! `store::FilePool` maps its file once, at a base that never moves, and
//! `PmemPool` serves its words inline from that mapping. It does so for
//! both kinds of pool this experiment times side by side:
//!
//! * **fixed** (`grow_step == 0`) — the mapping is exactly the pool,
//! * **elastic** (`grow_step > 0`) — the mapping reserves the whole 32-bit
//!   offset space and growth extends the file underneath it.
//!
//! Each row times the same primitives — a plain `load_u64`, a
//! `store_u64 + flush + sfence` persist round trip, and a take/drop of the
//! raw [`pmem::MapRef`] view — in per-op nanoseconds. Next to them it
//! times the same load loop on a bare `AtomicU64` (`raw_load_ns`): the
//! paper's model prices a word access at one cached load, so both rows'
//! `load_ns` are gated against twice that figure (`scripts/bench_gate.py`).
//! The same loop over [`obs::LazyCounter::incr`] (`counter_incr_ns`)
//! prices the named counters every instrumented operation bumps, gated at
//! three times that floor. The emitted JSON object carries
//! `"lock_free_fast_path": true`: no lock or pin stands between a word
//! access and the mapping.
//!
//! Beside the file pool it prices the simulated one: `sim_spin` holds, for
//! each event [`LatencyModel::optane_like`] charges and for the two spins a
//! fence pays in a pair (`flush+fence`, `nt_store+fence`: a pool charges a
//! flush or nt-store at its thread's next fence), the delay requested and
//! what one [`pmem::latency::spin_delay`] of it costs (`charged_ns`), which
//! the gate holds to the request within the run. `sim_pool` times creating
//! a 1 MiB and a 256 MiB simulated pool (`new_us`): their images are zeroed
//! by the kernel as a run touches them, so the gate holds the large pool's
//! cost to within a small factor of the small one's. `sim_queue` times the
//! set-up `paper-pairs` pays before its first pair: a [`PoolConfig::bench`]
//! pool, [`OptUnlinkedQueue::create`] with 128 KiB areas and ten enqueues
//! (`setup_us`), with the flushes and fences it issued. A simulated pool's
//! fresh space is durable zero already, so carving an area costs its
//! directory entry's one flush and one fence: the gate holds the set-up's
//! flushes below one area's lines and its time below what flushing one
//! area would charge.
//!
//! `hw` keeps the price of the real persist instructions on record, on a
//! heap buffer of the host's DRAM: a store, `CLFLUSH` and `SFENCE` on one
//! line (`flush_fence_ns`), and a dependent load of a line flushed before
//! it (`post_flush_load_ns`) against the same load of a cached line
//! (`cached_load_ns`) — the paper's second amendment, priced. The file
//! pool executes none of these instructions (its stores are in the page
//! cache already), so this module is their only caller and a process-crash
//! row's `persist_ns` is a word store and two counted no-ops; the gate
//! holds it to ten times `load_ns`, and the post-flush load to at least
//! twice the cached one.

use std::time::Instant;

use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use pmem::{LatencyModel, PmemPool, PoolConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use store::{FileConfig, FilePool, SyncPolicy};

/// Configuration for the [`run_fastpath`] measurement.
#[derive(Clone, Debug)]
pub struct FastpathConfig {
    /// Timed operations per trial.
    pub ops: u64,
    /// Trials per metric; the minimum is reported (noise floor).
    pub trials: usize,
    /// Pool file size in bytes.
    pub pool_bytes: usize,
    /// Growth step for the elastic row (the fixed row always uses 0).
    pub grow_step: usize,
    /// `msync` policy for both pools.
    pub sync: SyncPolicy,
}

impl Default for FastpathConfig {
    fn default() -> Self {
        FastpathConfig {
            ops: 200_000,
            trials: 5,
            pool_bytes: 16 << 20,
            grow_step: 4 << 20,
            sync: SyncPolicy::ProcessCrash,
        }
    }
}

impl FastpathConfig {
    /// CI-sized variant: small enough for the perf-track smoke lane.
    pub fn quick() -> Self {
        FastpathConfig {
            ops: 20_000,
            trials: 3,
            pool_bytes: 4 << 20,
            grow_step: 1 << 20,
            ..FastpathConfig::default()
        }
    }
}

/// One kind of pool's measured per-operation costs, in nanoseconds.
pub struct FastpathRow {
    /// `"fixed"` or `"elastic"`.
    pub mode: &'static str,
    /// The growth step the pool was created with (0 for the fixed row).
    pub grow_step: usize,
    /// Plain `load_u64` (one mapping access, no persistence), as a
    /// dependent chain: the latency of one load, not the throughput of many.
    pub load_ns: f64,
    /// `store_u64 + flush + sfence` round trip.
    pub persist_ns: f64,
    /// Taking and dropping a [`pmem::MapRef`] (a size load and a pointer
    /// copy).
    pub map_ref_ns: f64,
}

fn bench_pool(tag: &str, cfg: &FastpathConfig, grow_step: usize) -> Arc<PmemPool> {
    // Unique per thread too: parallel tests must not share a pool file.
    let path = std::env::temp_dir().join(format!(
        "harness-fastpath-{tag}-{}-{:?}.pool",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut file_config = FileConfig::with_size(cfg.pool_bytes).with_sync(cfg.sync);
    if grow_step > 0 {
        file_config = file_config.with_growth(grow_step);
    }
    let pool = FilePool::create(&path, file_config)
        .expect("fastpath: create pool file")
        .into_pool();
    // The mapping keeps the file alive; nothing is left behind in $TMPDIR.
    let _ = std::fs::remove_file(&path);
    pool
}

/// Minimum-of-`trials` per-op time of `op`, in nanoseconds.
fn time_ns(cfg: &FastpathConfig, mut op: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..cfg.trials {
        let start = Instant::now();
        for i in 0..cfg.ops {
            op(i);
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / cfg.ops as f64);
    }
    best
}

fn measure(mode: &'static str, grow_step: usize, cfg: &FastpathConfig) -> FastpathRow {
    let pool = bench_pool(mode, cfg, grow_step);
    let off = pool.alloc_raw(64, 64);
    // A dependent chain, the way a queue operation chases head -> node ->
    // next: each load's offset comes from the value the previous one
    // returned (always 0, which the compiler cannot know).
    pool.store_u64(off, 0);
    let mut at = off;
    let load_ns = time_ns(cfg, |_| {
        at = off.wrapping_add(pool.load_u64(at) as u32);
    });
    std::hint::black_box(at);
    let persist_ns = time_ns(cfg, |i| {
        pool.store_u64(off, i);
        pool.flush(0, off);
        pool.sfence(0);
    });
    let map_ref_ns = time_ns(cfg, |_| {
        let view = pool.map_ref().expect("file pools expose their mapping");
        std::hint::black_box(view.len());
    });
    FastpathRow {
        mode,
        grow_step,
        load_ns,
        persist_ns,
        map_ref_ns,
    }
}

/// What the simulator charges for one `optane_like` event, or for the one
/// spin a fence pays for itself and the flush or nt-store before it.
pub struct SpinRow {
    /// `"flush"`, `"nt_store"`, `"fence"`, `"nvram_read"`, `"flush+fence"`
    /// or `"nt_store+fence"`.
    pub event: &'static str,
    /// The model's delay for the event, ns.
    pub requested_ns: u32,
    /// One `spin_delay(requested_ns)`, ns.
    pub charged_ns: f64,
}

/// Times `spin_delay` at each delay of [`LatencyModel::optane_like`], and
/// at the two a fence spins in a pair: an enqueue's flush and fence, a
/// dequeue's nt-store and fence.
fn measure_sim_spin(cfg: &FastpathConfig) -> Vec<SpinRow> {
    let model = LatencyModel::optane_like();
    [
        ("flush", model.flush_ns),
        ("nt_store", model.nt_store_ns),
        ("fence", model.fence_ns),
        ("nvram_read", model.nvram_read_ns),
        ("flush+fence", model.flush_ns + model.fence_ns),
        ("nt_store+fence", model.nt_store_ns + model.fence_ns),
    ]
    .into_iter()
    .map(|(event, requested_ns)| SpinRow {
        event,
        requested_ns,
        charged_ns: time_ns(cfg, |_| {
            pmem::latency::spin_delay(std::hint::black_box(requested_ns))
        }),
    })
    .collect()
}

/// The sizes of the simulated pools `sim_pool` creates.
const SIM_POOL_BYTES: [usize; 2] = [1 << 20, 256 << 20];

/// What creating one simulated pool costs.
pub struct SimPoolRow {
    /// The pool's size in bytes.
    pub size_bytes: usize,
    /// One `PmemPool::new`, best of the trials, µs.
    pub new_us: f64,
}

/// Times `PmemPool::new` at each of [`SIM_POOL_BYTES`]; dropping the pool
/// is not timed.
fn measure_sim_pool(cfg: &FastpathConfig) -> Vec<SimPoolRow> {
    SIM_POOL_BYTES
        .into_iter()
        .map(|size_bytes| {
            let mut best = f64::INFINITY;
            for _ in 0..cfg.trials {
                let start = Instant::now();
                let pool = std::hint::black_box(PmemPool::new(PoolConfig::bench(size_bytes)));
                best = best.min(start.elapsed().as_secs_f64() * 1e6);
                drop(pool);
            }
            SimPoolRow {
                size_bytes,
                new_us: best,
            }
        })
        .collect()
}

/// The pool size, area size and prefill of the set-up `sim_queue` times:
/// `paper-pairs`' shape.
const SIM_QUEUE_POOL_BYTES: usize = 8 << 20;
const SIM_QUEUE_AREA_BYTES: u32 = 128 << 10;
const SIM_QUEUE_PREFILL: u64 = 10;

/// What setting up `paper-pairs`' queue on a simulated pool costs.
pub struct SimQueueRow {
    /// The queue's designated-area size in bytes.
    pub area_bytes: u32,
    /// Pool creation, `OptUnlinkedQueue::create` and the prefill, best of
    /// the trials, µs.
    pub setup_us: f64,
    /// Flushes the set-up issued.
    pub flushes: u64,
    /// Fences the set-up issued.
    pub fences: u64,
}

/// Times [`SimQueueRow`]'s set-up; dropping the queue is not timed.
fn measure_sim_queue(cfg: &FastpathConfig) -> SimQueueRow {
    let config = QueueConfig {
        max_threads: 2,
        area_size: SIM_QUEUE_AREA_BYTES,
    };
    let mut best = f64::INFINITY;
    let mut stats = pmem::StatsSnapshot::default();
    for _ in 0..cfg.trials {
        let start = Instant::now();
        let pool = Arc::new(PmemPool::new(PoolConfig::bench(SIM_QUEUE_POOL_BYTES)));
        let q = OptUnlinkedQueue::create(pool, config);
        for item in 1..=SIM_QUEUE_PREFILL {
            q.enqueue(0, item);
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
        stats = q.stats();
    }
    SimQueueRow {
        area_bytes: SIM_QUEUE_AREA_BYTES,
        setup_us: best,
        flushes: stats.flushes,
        fences: stats.fences,
    }
}

/// The real persist instructions. Nothing else in the workspace executes
/// them; off x86-64 a flush is a no-op and a fence a full memory fence.
mod hw {
    /// `CLFLUSH` of the line holding `addr`: written back and invalidated.
    #[inline]
    pub(super) fn clflush(addr: *const u8) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: CLFLUSH faults only on an unmapped address; every caller
        // passes a pointer into a live buffer.
        unsafe {
            core::arch::x86_64::_mm_clflush(addr)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    /// `SFENCE`: waits for the flushes issued before it.
    #[inline]
    pub(super) fn sfence() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SFENCE has no preconditions.
        unsafe {
            core::arch::x86_64::_mm_sfence()
        };
        #[cfg(not(target_arch = "x86_64"))]
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }
}

/// Lines of the buffer [`HwRow`]'s loads chase through: 256 KiB, which
/// stays in a server core's L2 between passes unless it is flushed.
const HW_CHASE_LINES: usize = 4096;

/// One cache line of the chase: the index of the next line to load.
#[repr(C, align(64))]
struct ChaseLine {
    next: usize,
}

/// What the real persist instructions cost on a heap buffer, ns.
pub struct HwRow {
    /// A store, `CLFLUSH` and `SFENCE` on one line, per op.
    pub flush_fence_ns: f64,
    /// A dependent load of a line flushed and fenced before the chase.
    pub post_flush_load_ns: f64,
    /// The same dependent load of a line left in the cache.
    pub cached_load_ns: f64,
}

/// [`HW_CHASE_LINES`] lines linked into one cycle in a shuffled order, so
/// no prefetcher can run ahead of the chase.
fn chase_buffer() -> Vec<ChaseLine> {
    let mut order: Vec<usize> = (0..HW_CHASE_LINES).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..order.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let mut lines: Vec<ChaseLine> = (0..HW_CHASE_LINES).map(|_| ChaseLine { next: 0 }).collect();
    for (i, &line) in order.iter().enumerate() {
        lines[line].next = order[(i + 1) % order.len()];
    }
    lines
}

/// Per-load time of one lap of the chase, best over the trials, with
/// `prepare` run untimed before every lap.
fn chase_ns(cfg: &FastpathConfig, lines: &[ChaseLine], mut prepare: impl FnMut()) -> f64 {
    let laps = (cfg.ops as usize / lines.len()).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..cfg.trials {
        let mut total = 0.0;
        for _ in 0..laps {
            prepare();
            let mut at = 0;
            let start = Instant::now();
            for _ in 0..lines.len() {
                // SAFETY: a reference to a live line; volatile, so every
                // lap loads.
                at = unsafe { std::ptr::read_volatile(&lines[at].next) };
            }
            total += start.elapsed().as_secs_f64();
            std::hint::black_box(at);
        }
        best = best.min(total * 1e9 / (laps * lines.len()) as f64);
    }
    best
}

/// Times [`HwRow`]'s three figures.
fn measure_hw(cfg: &FastpathConfig) -> HwRow {
    let mut line = Box::new(ChaseLine { next: 0 });
    let flush_fence_ns = time_ns(cfg, |i| {
        // SAFETY: a live, aligned, exclusively borrowed word; volatile, so
        // every op stores.
        unsafe { std::ptr::write_volatile(&mut line.next, i as usize) };
        hw::clflush(&line.next as *const usize as *const u8);
        hw::sfence();
    });
    let lines = chase_buffer();
    let post_flush_load_ns = chase_ns(cfg, &lines, || {
        for line in &lines {
            hw::clflush(line as *const ChaseLine as *const u8);
        }
        hw::sfence();
    });
    chase_ns(cfg, &lines, || {}); // warm every line
    let cached_load_ns = chase_ns(cfg, &lines, || {});
    HwRow {
        flush_fence_ns,
        post_flush_load_ns,
        cached_load_ns,
    }
}

/// The measured rows plus the floor they are judged against.
pub struct FastpathReport {
    /// The `load_ns` loop on bare `AtomicU64`s (acquire loads), ns/op.
    pub raw_load_ns: f64,
    /// One `LazyCounter::incr` after first touch, ns/op.
    pub counter_incr_ns: f64,
    /// One row per kind of pool, fixed first.
    pub rows: Vec<FastpathRow>,
    /// What the simulated pool charges per event.
    pub sim_spin: Vec<SpinRow>,
    /// What creating a simulated pool costs, small pool first.
    pub sim_pool: Vec<SimPoolRow>,
    /// What setting up `paper-pairs`' queue costs.
    pub sim_queue: SimQueueRow,
    /// What the real persist instructions cost.
    pub hw: HwRow,
}

/// Times a fixed and an elastic pool over identical workloads, and the
/// raw-atomic floor with the same loop.
pub fn run_fastpath(cfg: &FastpathConfig) -> FastpathReport {
    assert!(cfg.ops > 0 && cfg.trials > 0, "fastpath: empty measurement");
    assert!(cfg.grow_step > 0, "fastpath: the elastic row needs a step");
    // The same dependent chain on bare atomics, bounds-checked by the slice.
    let words: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
    let words = std::hint::black_box(&words[..]);
    let mut at = 0usize;
    let raw_load_ns = time_ns(cfg, |_| {
        at = words[at].load(Ordering::Acquire) as usize;
    });
    std::hint::black_box(at);
    static PROBE: obs::LazyCounter = obs::LazyCounter::new("harness.fastpath.probe");
    PROBE.incr();
    let counter_incr_ns = time_ns(cfg, |_| PROBE.incr());
    FastpathReport {
        raw_load_ns,
        counter_incr_ns,
        rows: vec![
            measure("fixed", 0, cfg),
            measure("elastic", cfg.grow_step, cfg),
        ],
        sim_spin: measure_sim_spin(cfg),
        sim_pool: measure_sim_pool(cfg),
        sim_queue: measure_sim_queue(cfg),
        hw: measure_hw(cfg),
    }
}

/// Renders the comparison as the verb's report table.
pub fn render_fastpath(cfg: &FastpathConfig, report: &FastpathReport) -> String {
    let rows = &report.rows[..];
    let mut out = String::new();
    out.push_str(&format!(
        "\n=== file-pool word path ({} ops x {} trials, min reported) ===\n",
        cfg.ops, cfg.trials
    ));
    out.push_str(&format!(
        "{:<14}{:>12}{:>12}{:>14}{:>14}\n",
        "mode", "grow step", "load ns/op", "persist ns/op", "map_ref ns/op"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<14}{:>12}{:>12.1}{:>14.1}{:>14.1}\n",
            row.mode, row.grow_step, row.load_ns, row.persist_ns, row.map_ref_ns
        ));
    }
    if let [fixed, elastic] = rows {
        out.push_str(&format!(
            "raw atomic load: {:.1} ns/op (fixed load is {:.2}x, elastic {:.2}x)\n",
            report.raw_load_ns,
            fixed.load_ns / report.raw_load_ns,
            elastic.load_ns / report.raw_load_ns,
        ));
        out.push_str(&format!(
            "named counter incr: {:.1} ns/op\n",
            report.counter_incr_ns
        ));
    }
    out.push_str("simulated pool, optane_like (requested -> charged ns):");
    for spin in &report.sim_spin {
        out.push_str(&format!(
            " {} {} -> {:.1};",
            spin.event, spin.requested_ns, spin.charged_ns
        ));
    }
    out.push_str("\nsimulated pool creation (best of the trials):");
    for pool in &report.sim_pool {
        out.push_str(&format!(
            " {} MiB {:.1} us;",
            pool.size_bytes >> 20,
            pool.new_us
        ));
    }
    let queue = &report.sim_queue;
    out.push_str(&format!(
        "\nsimulated queue set-up ({} KiB areas, {} enqueues): {:.1} us, {} flushes, {} fences\n",
        queue.area_bytes >> 10,
        SIM_QUEUE_PREFILL,
        queue.setup_us,
        queue.flushes,
        queue.fences
    ));
    let hw = &report.hw;
    out.push_str(&format!(
        "real instructions on a heap line: store+clflush+sfence {:.1} ns; \
         dependent load {:.1} ns after a flush vs {:.1} ns cached\n",
        hw.flush_fence_ns, hw.post_flush_load_ns, hw.cached_load_ns
    ));
    out
}

/// Renders the rows as one machine-readable JSON experiment object (schema
/// documented in the README under "Machine-readable results"). The
/// `lock_free_fast_path` marker distinguishes lock-free numbers from the
/// earlier mapping-lock implementation in a `BENCH_*.json` trajectory.
pub fn fastpath_json(cfg: &FastpathConfig, report: &FastpathReport) -> String {
    let mut obj = crate::jsonio::ExperimentObject::new("fastpath", "file", Some(cfg.sync.key()));
    obj.field("ops", cfg.ops);
    obj.field("trials", cfg.trials);
    obj.field("lock_free_fast_path", true);
    obj.field("raw_load_ns", format!("{:.3}", report.raw_load_ns));
    obj.field("counter_incr_ns", format!("{:.3}", report.counter_incr_ns));
    for row in &report.rows {
        obj.row(format!(
            "{{\"mode\": \"{}\", \"grow_step\": {}, \"load_ns\": {:.3}, \
             \"persist_ns\": {:.3}, \"map_ref_ns\": {:.3}}}",
            row.mode, row.grow_step, row.load_ns, row.persist_ns, row.map_ref_ns,
        ));
    }
    let spins: Vec<String> = report
        .sim_spin
        .iter()
        .map(|spin| {
            format!(
                "{{\"event\": \"{}\", \"requested_ns\": {}, \"charged_ns\": {:.3}}}",
                spin.event, spin.requested_ns, spin.charged_ns
            )
        })
        .collect();
    obj.section("sim_spin", format!("[{}]", spins.join(", ")));
    let pools: Vec<String> = report
        .sim_pool
        .iter()
        .map(|pool| {
            format!(
                "{{\"size_bytes\": {}, \"new_us\": {:.3}}}",
                pool.size_bytes, pool.new_us
            )
        })
        .collect();
    obj.section("sim_pool", format!("[{}]", pools.join(", ")));
    let queue = &report.sim_queue;
    obj.section(
        "sim_queue",
        format!(
            "{{\"area_bytes\": {}, \"setup_us\": {:.3}, \"flushes\": {}, \"fences\": {}}}",
            queue.area_bytes, queue.setup_us, queue.flushes, queue.fences
        ),
    );
    let hw = &report.hw;
    obj.section(
        "hw",
        format!(
            "{{\"flush_fence_ns\": {:.3}, \"post_flush_load_ns\": {:.3}, \
             \"cached_load_ns\": {:.3}}}",
            hw.flush_fence_ns, hw.post_flush_load_ns, hw.cached_load_ns
        ),
    );
    obj.finish()
}

/// Parses the `fastpath` verb's flags into a config (shared with tests).
pub fn config_from_flags(flags: &std::collections::HashMap<String, String>) -> FastpathConfig {
    let mut cfg = if flags.contains_key("quick") {
        FastpathConfig::quick()
    } else {
        FastpathConfig::default()
    };
    if let Some(o) = flags.get("ops") {
        cfg.ops = o.parse().expect("bad --ops");
    }
    if let Some(t) = flags.get("trials") {
        cfg.trials = t.parse().expect("bad --trials");
    }
    if let Some(p) = flags.get("pool-bytes") {
        cfg.pool_bytes = p.parse().expect("bad --pool-bytes");
    }
    if let Some(g) = flags.get("grow-step") {
        cfg.grow_step = g.parse().expect("bad --grow-step");
        assert!(cfg.grow_step > 0, "fastpath --grow-step must be > 0");
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FastpathConfig {
        FastpathConfig {
            ops: 200,
            trials: 1,
            pool_bytes: 1 << 20,
            grow_step: 1 << 20,
            sync: SyncPolicy::ProcessCrash,
        }
    }

    #[test]
    fn fastpath_measures_both_mapping_modes() {
        let cfg = tiny();
        let report = run_fastpath(&cfg);
        let rows = &report.rows;
        assert!(report.raw_load_ns > 0.0 && report.raw_load_ns.is_finite());
        assert!(report.counter_incr_ns >= 0.0 && report.counter_incr_ns.is_finite());
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].mode, rows[0].grow_step), ("fixed", 0));
        assert_eq!((rows[1].mode, rows[1].grow_step), ("elastic", 1 << 20));
        for row in rows {
            assert!(row.load_ns > 0.0 && row.load_ns.is_finite());
            assert!(row.persist_ns > 0.0 && row.persist_ns.is_finite());
            assert!(row.map_ref_ns > 0.0 && row.map_ref_ns.is_finite());
        }
        let rendered = render_fastpath(&cfg, &report);
        assert!(rendered.contains("fixed"));
        assert!(rendered.contains("elastic"));
        assert!(rendered.contains("raw atomic load"));
        let events: Vec<_> = report.sim_spin.iter().map(|s| s.event).collect();
        assert_eq!(
            events,
            [
                "flush",
                "nt_store",
                "fence",
                "nvram_read",
                "flush+fence",
                "nt_store+fence"
            ]
        );
        for spin in &report.sim_spin {
            assert!(spin.requested_ns > 0);
            assert!(spin.charged_ns > 0.0 && spin.charged_ns.is_finite());
        }
        assert!(rendered.contains("nvram_read 300 -> "));
        assert!(rendered.contains("nt_store+fence 160 -> "));
        let sizes: Vec<_> = report.sim_pool.iter().map(|p| p.size_bytes).collect();
        assert_eq!(sizes, SIM_POOL_BYTES);
        for pool in &report.sim_pool {
            assert!(pool.new_us > 0.0 && pool.new_us.is_finite());
        }
        assert!(rendered.contains(" 256 MiB "));
        let queue = &report.sim_queue;
        assert!(queue.setup_us > 0.0 && queue.setup_us.is_finite());
        // Carving the two areas the set-up touches (local data, the first
        // node's) flushes neither of them.
        assert!(queue.flushes < (SIM_QUEUE_AREA_BYTES / 64) as u64 / 16);
        assert!(queue.fences >= SIM_QUEUE_PREFILL);
        assert!(rendered.contains("simulated queue set-up (128 KiB areas, 10 enqueues)"));
        let hw = &report.hw;
        for ns in [hw.flush_fence_ns, hw.post_flush_load_ns, hw.cached_load_ns] {
            assert!(ns > 0.0 && ns.is_finite());
        }
        assert!(rendered.contains("dependent load "));
    }

    #[test]
    fn intrinsics_do_not_corrupt_data() {
        let mut lines = chase_buffer();
        let before: Vec<usize> = lines.iter().map(|l| l.next).collect();
        lines[0].next = 999;
        for line in &lines {
            hw::clflush(line as *const ChaseLine as *const u8);
        }
        hw::sfence();
        assert_eq!(lines[0].next, 999);
        assert!(lines.iter().zip(&before).skip(1).all(|(l, &b)| l.next == b));
        // One cycle through every line.
        let mut seen = vec![false; HW_CHASE_LINES];
        let mut at = 0;
        for _ in 0..HW_CHASE_LINES {
            at = before[at];
            assert!(!std::mem::replace(&mut seen[at], true));
        }
    }

    #[test]
    fn fastpath_json_is_well_formed_and_carries_the_marker() {
        let cfg = tiny();
        let report = run_fastpath(&cfg);
        let json = fastpath_json(&cfg, &report);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"experiment\": \"fastpath\""));
        assert!(json.contains("\"lock_free_fast_path\": true"));
        assert!(json.contains("\"raw_load_ns\": "));
        assert!(json.contains("\"counter_incr_ns\": "));
        assert!(json.contains("\"mode\": \"fixed\""));
        assert!(json.contains("\"mode\": \"elastic\""));
        assert_eq!(json.matches("\"mode\"").count(), 2);
        assert!(json.contains("\"sim_spin\": [{\"event\": \"flush\", \"requested_ns\": 40, "));
        assert_eq!(json.matches("\"charged_ns\"").count(), 6);
        assert!(json.contains("\"sim_pool\": [{\"size_bytes\": 1048576, \"new_us\": "));
        assert_eq!(json.matches("\"new_us\"").count(), 2);
        assert!(json.contains("\"sim_queue\": {\"area_bytes\": 131072, \"setup_us\": "));
        assert!(json.contains("\"hw\": {\"flush_fence_ns\": "));
    }

    #[test]
    fn flags_override_the_defaults() {
        let mut flags = std::collections::HashMap::new();
        flags.insert("quick".into(), "true".into());
        flags.insert("ops".into(), "123".into());
        flags.insert("grow-step".into(), "65536".into());
        let cfg = config_from_flags(&flags);
        assert_eq!(cfg.ops, 123);
        assert_eq!(cfg.trials, FastpathConfig::quick().trials);
        assert_eq!(cfg.grow_step, 65536);
    }
}
