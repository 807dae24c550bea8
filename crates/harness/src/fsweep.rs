//! The `fsweep` experiment: power-fail fence throughput under group
//! commit, across producer counts and fence windows.
//!
//! Under [`store::SyncPolicy::PowerFail`] every fence `msync`s the fencing
//! thread's dirty pages through the pool's group commit: up to two leaders
//! at a time each submit the pages of every fence that shared their batch,
//! merged into contiguous ranges, and a window
//! ([`store::FileConfig::fence_window_ns`]) holds one batch open for
//! stragglers instead.
//!
//! This sweep measures what that buys: `producers` threads each dirty
//! `pages` private pages and fence, `fences` times over, and the aggregate
//! fence rate (`producers * fences / wall`) is reported per producer
//! count × window. Two shares read from the `store.fence.*` counters say
//! *why* a row moved: `coalesced` is the fraction of its fences that
//! shared a batch with another fence, `overlapped` the fraction of its
//! batches submitted while another was still in flight. The 1-producer
//! rows have nobody to coalesce with or overlap: what they measure is
//! run-merging alone (docs/PERFORMANCE.md, "Group commit"). The JSON object
//! (`"experiment": "group_commit"`) feeds the perf-track regression gate.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use store::{FileConfig, FilePool, SyncPolicy};

/// Configuration for the [`run_fsweep`] measurement.
#[derive(Clone, Debug)]
pub struct FsweepConfig {
    /// Producer counts to sweep (one table block each).
    pub producers: Vec<usize>,
    /// Fences each producer performs per measured point.
    pub fences: u64,
    /// Distinct private pages each producer dirties before every fence.
    pub pages: usize,
    /// Fence windows to sweep, in microseconds (`0` = submit immediately).
    pub windows_us: Vec<u64>,
    /// Pool file size in bytes.
    pub pool_bytes: usize,
}

impl Default for FsweepConfig {
    fn default() -> Self {
        FsweepConfig {
            producers: vec![1, 2, 4, 8],
            fences: 400,
            pages: 16,
            windows_us: vec![0, 50, 200],
            pool_bytes: 16 << 20,
        }
    }
}

impl FsweepConfig {
    /// CI-sized variant: small enough for the perf-track smoke lane.
    pub fn quick() -> Self {
        FsweepConfig {
            producers: vec![1, 2, 4, 8],
            fences: 150,
            windows_us: vec![0, 100],
            pool_bytes: 8 << 20,
            ..FsweepConfig::default()
        }
    }
}

/// One measured (producer count × window) point.
#[derive(Clone, Debug)]
pub struct FsweepRow {
    /// Concurrent fencing producers.
    pub producers: usize,
    /// Fence window in microseconds.
    pub window_us: u64,
    /// Wall-clock time of the point.
    pub wall: Duration,
    /// Aggregate fence rate: `producers * fences / wall`.
    pub fences_per_sec: f64,
    /// Share of the point's fences that shared a batch with another fence
    /// (`store.fence.coalesced` over fences issued).
    pub coalesced_share: f64,
    /// Share of the point's batches submitted while another batch was in
    /// flight (`store.fence.overlapped` over `store.fence.leader`).
    pub overlapped_share: f64,
}

/// Runs one point: `producers` threads each flush `pages` private pages
/// and fence, `fences` times, all against one power-fail pool.
fn measure(cfg: &FsweepConfig, producers: usize, window_us: u64) -> FsweepRow {
    // Unique per thread too: parallel tests must not share a pool file.
    let path = std::env::temp_dir().join(format!(
        "harness-fsweep-{producers}p-{window_us}us-{}-{:?}.pool",
        std::process::id(),
        std::thread::current().id()
    ));
    let pool = FilePool::create(
        &path,
        FileConfig::with_size(cfg.pool_bytes)
            .with_sync(SyncPolicy::PowerFail)
            .with_fence_window(window_us * 1_000),
    )
    .expect("fsweep: create pool file")
    .into_pool();
    // The mapping keeps the file alive; nothing is left behind in $TMPDIR.
    let _ = std::fs::remove_file(&path);
    let page = store::mmap::page_size() as u32;
    // One contiguous region, producer `t` owning pages [t*K, (t+1)*K) of
    // it: adjacent across producers, so a coalesced batch merges into few
    // contiguous msync ranges — the geometry group commit is built to
    // exploit.
    let region = pool.alloc_raw(producers as u32 * cfg.pages as u32 * page, 64);
    let barrier = Barrier::new(producers + 1);
    let mut wall = Duration::ZERO;
    let before = obs::snapshot();
    std::thread::scope(|scope| {
        for tid in 0..producers {
            let (pool, barrier) = (&pool, &barrier);
            let pages = cfg.pages;
            let fences = cfg.fences;
            scope.spawn(move || {
                let base = region + (tid * pages) as u32 * page;
                barrier.wait();
                for i in 0..fences {
                    for k in 0..pages {
                        let off = base + k as u32 * page;
                        pool.store_u64(off, i);
                        pool.flush(tid, off);
                    }
                    pool.sfence(tid);
                }
                barrier.wait();
            });
        }
        barrier.wait(); // release the producers together
        let started = Instant::now();
        barrier.wait(); // all producers done
        wall = started.elapsed();
    });
    // Exact under the verb: the producers have been joined, and nothing
    // else in the process fences a pool while a point runs.
    let after = obs::snapshot();
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let total = (producers as u64 * cfg.fences) as f64;
    FsweepRow {
        producers,
        window_us,
        wall,
        fences_per_sec: total / wall.as_secs_f64(),
        coalesced_share: share(delta("store.fence.coalesced"), total),
        overlapped_share: share(delta("store.fence.overlapped"), delta("store.fence.leader")),
    }
}

/// Runs the full sweep: one row per producer count × window.
pub fn run_fsweep(cfg: &FsweepConfig) -> Vec<FsweepRow> {
    assert!(!cfg.producers.is_empty(), "fsweep: no producer counts");
    assert!(!cfg.windows_us.is_empty(), "fsweep: no windows");
    assert!(cfg.fences > 0 && cfg.pages > 0, "fsweep: empty measurement");
    let mut rows = Vec::new();
    for &producers in &cfg.producers {
        for &us in &cfg.windows_us {
            rows.push(measure(cfg, producers, us));
        }
    }
    rows
}

/// Renders the sweep as the verb's report table.
pub fn render_fsweep(cfg: &FsweepConfig, rows: &[FsweepRow]) -> String {
    let mut out = format!(
        "\n=== fsweep: power-fail fence throughput, {} fences x {} pages per producer ===\n\
         {:<11}{:>11}{:>11}{:>15}{:>11}{:>12}\n",
        cfg.fences,
        cfg.pages,
        "producers",
        "window us",
        "wall ms",
        "fences/s (agg)",
        "coalesced",
        "overlapped"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11}{:>11}{:>11.1}{:>15.0}{:>11.2}{:>12.2}\n",
            r.producers,
            r.window_us,
            r.wall.as_secs_f64() * 1e3,
            r.fences_per_sec,
            r.coalesced_share,
            r.overlapped_share,
        ));
    }
    out
}

/// Renders the rows as one machine-readable JSON experiment object
/// (`"experiment": "group_commit"`; schema documented in the README under
/// "Machine-readable results").
pub fn fsweep_json(cfg: &FsweepConfig, rows: &[FsweepRow]) -> String {
    let mut obj = crate::jsonio::ExperimentObject::new("group_commit", "file", Some("power-fail"));
    obj.field("fences", cfg.fences);
    obj.field("pages", cfg.pages);
    for r in rows {
        obj.row(format!(
            "{{\"producers\": {}, \"window_us\": {}, \"wall_ms\": {}, \
             \"fences_per_sec\": {}, \"coalesced_share\": {}, \"overlapped_share\": {}}}",
            r.producers,
            r.window_us,
            r.wall.as_secs_f64() * 1e3,
            r.fences_per_sec,
            r.coalesced_share,
            r.overlapped_share,
        ));
    }
    obj.finish()
}

/// Parses the `fsweep` verb's flags into a config (shared with tests).
pub fn config_from_flags(flags: &std::collections::HashMap<String, String>) -> FsweepConfig {
    let mut cfg = if flags.contains_key("quick") {
        FsweepConfig::quick()
    } else {
        FsweepConfig::default()
    };
    if let Some(p) = flags.get("producers") {
        cfg.producers = p
            .split(',')
            .map(|s| s.trim().parse().expect("bad --producers"))
            .collect();
    }
    if let Some(f) = flags.get("fences") {
        cfg.fences = f.parse().expect("bad --fences");
    }
    if let Some(p) = flags.get("pages") {
        cfg.pages = p.parse().expect("bad --pages");
    }
    if let Some(w) = flags.get("windows") {
        cfg.windows_us = w
            .split(',')
            .map(|s| s.trim().parse().expect("bad --windows"))
            .collect();
    }
    if let Some(p) = flags.get("pool-bytes") {
        cfg.pool_bytes = p.parse().expect("bad --pool-bytes");
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FsweepConfig {
        FsweepConfig {
            producers: vec![1, 2],
            fences: 20,
            pages: 4,
            windows_us: vec![0, 25],
            pool_bytes: 4 << 20,
        }
    }

    #[test]
    fn fsweep_measures_every_producer_count_at_every_window() {
        let cfg = tiny();
        let rows = run_fsweep(&cfg);
        let points: Vec<(usize, u64)> = rows.iter().map(|r| (r.producers, r.window_us)).collect();
        assert_eq!(points, [(1, 0), (1, 25), (2, 0), (2, 25)]);
        for r in &rows {
            assert!(r.fences_per_sec > 0.0 && r.fences_per_sec.is_finite());
        }
        let rendered = render_fsweep(&cfg, &rows);
        assert!(rendered.contains("window us"));
    }

    #[test]
    fn fsweep_json_is_well_formed() {
        let cfg = tiny();
        let rows = run_fsweep(&cfg);
        let json = fsweep_json(&cfg, &rows);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"experiment\": \"group_commit\""));
        assert!(json.contains("\"window_us\": 25"));
        assert!(json.contains("\"coalesced_share\": "));
        assert!(json.contains("\"overlapped_share\": "));
        assert!(!json.contains("null"));
    }

    #[test]
    fn flags_override_the_defaults() {
        let mut flags = std::collections::HashMap::new();
        flags.insert("quick".into(), "true".into());
        flags.insert("producers".into(), "1,4".into());
        flags.insert("windows".into(), "0,25".into());
        flags.insert("fences".into(), "33".into());
        let cfg = config_from_flags(&flags);
        assert_eq!(cfg.producers, vec![1, 4]);
        assert_eq!(cfg.windows_us, vec![0, 25]);
        assert_eq!(cfg.fences, 33);
        assert_eq!(cfg.pages, FsweepConfig::quick().pages);
    }
}
