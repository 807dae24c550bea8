//! Thread sweeps over (workload × algorithm) — the machinery that
//! regenerates the panels of the paper's Figure 2.

use crate::algorithms::Algorithm;
use crate::workloads::{run_workload, RunConfig, Workload};
use durable_queues::QueueConfig;
use pmem::{LatencyModel, PmemPool, PoolConfig};
use shard::{RoutePolicy, ShardConfig};
use std::path::PathBuf;
use std::sync::Arc;
use store::{FileConfig, FilePool, SyncPolicy};

/// Which pool backend a sweep runs on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// The simulated in-DRAM pool with the configured latency model (the
    /// paper's setup).
    #[default]
    Sim,
    /// Memory-mapped pool files under `dir` (one file per measured point,
    /// one file per shard for sharded points; removed after each point).
    /// The simulated latency model is ignored: file pools pay their real
    /// flush/fence/`msync` costs.
    File {
        /// Directory the per-point pool files are created in.
        dir: PathBuf,
        /// Fence durability policy of the pool files.
        sync: SyncPolicy,
    },
}

/// Configuration of a full panel sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Thread counts to sweep (the x axis).
    pub threads: Vec<usize>,
    /// Operations per thread at each point.
    pub ops_per_thread: u64,
    /// Initial queue size; `None` uses the workload's paper default.
    pub initial_size: Option<u64>,
    /// Overrides the dequeue-only pre-fill only (the paper's 12M-item
    /// pre-fill, scaled); unlike `initial_size` it leaves the other panels'
    /// initial sizes at their defaults.
    pub prefill: Option<u64>,
    /// Pool size in bytes for every run (split across shards when
    /// `shards > 1`).
    pub pool_bytes: usize,
    /// Growth step in bytes for file-backed pools (`0` = fixed-size, the
    /// default). Lets a deliberately undersized `--pool-bytes` panel run to
    /// completion through elastic growth; ignored by the simulated backend,
    /// which is always fixed-size.
    pub grow_step: usize,
    /// Latency model of the simulated NVRAM.
    pub latency: LatencyModel,
    /// Designated-area size for the node allocator.
    pub area_size: u32,
    /// Algorithms to include (columns).
    pub algorithms: Vec<Algorithm>,
    /// Number of shards each queue is partitioned into (1 = the paper's
    /// unsharded setup).
    pub shards: usize,
    /// Routing policy used when `shards > 1`.
    pub policy: RoutePolicy,
    /// Pool backend every point runs on (simulated or file-backed).
    pub backend: BackendChoice,
    /// Seed for the workload mixes.
    pub seed: u64,
}

impl SweepConfig {
    /// A sweep approximating the paper's setup (1–16 threads, Optane-like
    /// latencies). Operation counts are per-point and chosen so a full panel
    /// completes in seconds rather than the paper's 5-second timed runs.
    pub fn paper_like() -> Self {
        SweepConfig {
            threads: vec![1, 2, 4, 8, 12, 16],
            ops_per_thread: 20_000,
            initial_size: None,
            prefill: None,
            pool_bytes: 256 << 20,
            grow_step: 0,
            latency: LatencyModel::optane_like(),
            area_size: 4 << 20,
            algorithms: Algorithm::figure2_set(),
            shards: 1,
            policy: RoutePolicy::RoundRobin,
            backend: BackendChoice::Sim,
            seed: 0xF162,
        }
    }

    /// A small sweep for smoke tests and CI.
    pub fn quick() -> Self {
        SweepConfig {
            threads: vec![1, 2, 4],
            ops_per_thread: 2_000,
            initial_size: None,
            prefill: None,
            pool_bytes: 64 << 20,
            grow_step: 0,
            latency: LatencyModel::optane_like(),
            area_size: 1 << 20,
            algorithms: Algorithm::figure2_set(),
            shards: 1,
            policy: RoutePolicy::RoundRobin,
            backend: BackendChoice::Sim,
            seed: 0xF162,
        }
    }

    /// The initial queue size for `workload` at one sweep point, after the
    /// `--initial-size` and `--prefill` overrides.
    pub fn initial_size_for(&self, workload: Workload, threads: usize) -> u64 {
        self.initial_size
            .or(match workload {
                Workload::DequeueOnly => self.prefill,
                _ => None,
            })
            .unwrap_or_else(|| workload.default_initial_size(threads, self.ops_per_thread))
    }
}

/// One measured cell of a panel.
#[derive(Clone, Copy, Debug)]
pub struct PanelCell {
    /// The algorithm measured.
    pub algorithm: Algorithm,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Blocking persists per operation observed during the run.
    pub fences_per_op: f64,
    /// Post-flush accesses per operation observed during the run.
    pub post_flush_per_op: f64,
}

/// One row (thread count) of a panel.
#[derive(Clone, Debug)]
pub struct PanelRow {
    /// The thread count of this row.
    pub threads: usize,
    /// Measured cells, in the order of `SweepConfig::algorithms` (algorithms
    /// that do not run this workload are omitted).
    pub cells: Vec<PanelCell>,
}

impl PanelRow {
    /// The cell for `alg`, if it was measured.
    pub fn cell(&self, alg: Algorithm) -> Option<&PanelCell> {
        self.cells.iter().find(|c| c.algorithm == alg)
    }

    /// Throughput of `alg` relative to DurableMSQ in the same row — the
    /// paper's right-hand graphs.
    pub fn ratio_to_durable_msq(&self, alg: Algorithm) -> Option<f64> {
        let base = self.cell(Algorithm::DurableMsq)?.mops;
        Some(self.cell(alg)?.mops / base)
    }
}

/// Returns `true` if the paper evaluates `alg` on `workload` (the PTM
/// baselines appear only in the first two panels).
pub fn algorithm_runs_workload(alg: Algorithm, workload: Workload) -> bool {
    match alg {
        Algorithm::OneFileLite | Algorithm::RedoOptLite => {
            matches!(workload, Workload::RandomOps | Workload::Pairs)
        }
        _ => true,
    }
}

/// Measures a single (algorithm, workload, threads) point on a fresh pool.
pub fn measure_point(
    alg: Algorithm,
    workload: Workload,
    threads: usize,
    sweep: &SweepConfig,
) -> PanelCell {
    let queue_cfg = QueueConfig {
        max_threads: threads.max(1),
        area_size: sweep.area_size,
    };
    let pool_cfg = PoolConfig {
        size: sweep.pool_bytes,
        latency: sweep.latency,
        eviction_probability: 0.0,
        eviction_seed: sweep.seed,
    };
    // Path of this point's file-backed pool (file backend only), removed
    // after the measurement so a sweep does not accumulate pool files.
    let mut cleanup: Option<(PathBuf, bool)> = None;
    let point_tag = || {
        format!(
            "{}-{}-{}t",
            workload.key(),
            alg.name().replace([' ', '(', ')'], ""),
            threads
        )
    };
    let queue = if sweep.shards > 1 {
        let shard_cfg = ShardConfig::balanced(
            sweep.shards,
            queue_cfg,
            sweep.pool_bytes,
            pool_cfg,
            sweep.policy,
        );
        match &sweep.backend {
            BackendChoice::Sim => alg.create_sharded(shard_cfg),
            BackendChoice::File { dir, sync } => {
                let subdir = dir.join(format!("{}-{}shards", point_tag(), sweep.shards));
                cleanup = Some((subdir.clone(), true));
                let file_cfg = FileConfig::with_size(shard_cfg.pool.size)
                    .with_sync(*sync)
                    .with_growth(sweep.grow_step);
                alg.create_sharded_dir(&subdir, shard_cfg, file_cfg)
            }
        }
    } else {
        let pool = match &sweep.backend {
            BackendChoice::Sim => Arc::new(PmemPool::new(pool_cfg)),
            BackendChoice::File { dir, sync } => {
                std::fs::create_dir_all(dir).expect("create --dir");
                let path = dir.join(format!("{}.pool", point_tag()));
                cleanup = Some((path.clone(), false));
                FilePool::create(
                    &path,
                    FileConfig::with_size(sweep.pool_bytes)
                        .with_sync(*sync)
                        .with_growth(sweep.grow_step),
                )
                .expect("create pool file")
                .into_pool()
            }
        };
        alg.create(pool, queue_cfg)
    };
    let run_cfg = RunConfig {
        threads,
        ops_per_thread: sweep.ops_per_thread,
        initial_size: sweep.initial_size_for(workload, threads),
        seed: sweep.seed,
    };
    let result = run_workload(&queue, workload, &run_cfg);
    let per_op = result.stats.per_op(result.total_ops);
    drop(queue); // close file pools before deleting their backing files
    if let Some((path, is_dir)) = cleanup {
        let _ = if is_dir {
            std::fs::remove_dir_all(&path)
        } else {
            std::fs::remove_file(&path)
        };
    }
    PanelCell {
        algorithm: alg,
        mops: result.mops(),
        fences_per_op: per_op.fences,
        post_flush_per_op: per_op.post_flush_accesses,
    }
}

/// Runs a whole panel: every configured algorithm at every thread count.
pub fn run_panel(workload: Workload, sweep: &SweepConfig) -> Vec<PanelRow> {
    sweep
        .threads
        .iter()
        .map(|&threads| PanelRow {
            threads,
            cells: sweep
                .algorithms
                .iter()
                .filter(|&&alg| algorithm_runs_workload(alg, workload))
                .map(|&alg| measure_point(alg, workload, threads, sweep))
                .collect(),
        })
        .collect()
}

/// Renders a panel as two text tables: absolute throughput (left graph of the
/// paper's panel) and ratio to DurableMSQ (right graph).
pub fn render_panel(workload: Workload, sweep: &SweepConfig, rows: &[PanelRow]) -> String {
    let mut out = String::new();
    let algs: Vec<Algorithm> = sweep.algorithms.clone();
    let mut sharding = if sweep.shards > 1 {
        format!(" [{} shards, {} routing]", sweep.shards, sweep.policy.key())
    } else {
        String::new()
    };
    if let BackendChoice::File { sync, .. } = &sweep.backend {
        sharding.push_str(&format!(" [file backend, {}]", sync.key()));
    }
    let header = |title: &str| {
        let mut s = format!("\n=== {}{} — {} ===\n", workload.name(), sharding, title);
        s.push_str(&format!("{:>8}", "threads"));
        for alg in &algs {
            s.push_str(&format!("{:>15}", alg.name()));
        }
        s.push('\n');
        s
    };

    out.push_str(&header("throughput (Mops/s)"));
    for row in rows {
        out.push_str(&format!("{:>8}", row.threads));
        for alg in &algs {
            match row.cell(*alg) {
                Some(c) => out.push_str(&format!("{:>15.3}", c.mops)),
                None => out.push_str(&format!("{:>15}", "-")),
            }
        }
        out.push('\n');
    }

    out.push_str(&header("ops per DurableMSQ ops"));
    for row in rows {
        out.push_str(&format!("{:>8}", row.threads));
        for alg in &algs {
            match row.ratio_to_durable_msq(*alg) {
                Some(r) => out.push_str(&format!("{:>15.2}", r)),
                None => out.push_str(&format!("{:>15}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepConfig {
        SweepConfig {
            threads: vec![1, 2],
            ops_per_thread: 400,
            initial_size: None,
            prefill: None,
            pool_bytes: 32 << 20,
            grow_step: 0,
            latency: LatencyModel::ZERO,
            area_size: 256 * 1024,
            algorithms: vec![
                Algorithm::DurableMsq,
                Algorithm::OptUnlinked,
                Algorithm::RedoOptLite,
            ],
            shards: 1,
            policy: RoutePolicy::RoundRobin,
            backend: BackendChoice::Sim,
            seed: 11,
        }
    }

    #[test]
    fn panel_produces_one_row_per_thread_count() {
        let sweep = tiny_sweep();
        let rows = run_panel(Workload::Pairs, &sweep);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.cells.len(), 3);
            assert!(row.ratio_to_durable_msq(Algorithm::OptUnlinked).unwrap() > 0.0);
        }
        let rendered = render_panel(Workload::Pairs, &sweep, &rows);
        assert!(rendered.contains("OptUnlinkedQ"));
        assert!(rendered.contains("ops per DurableMSQ ops"));
    }

    #[test]
    fn ptm_queues_are_skipped_outside_the_first_two_workloads() {
        assert!(algorithm_runs_workload(
            Algorithm::RedoOptLite,
            Workload::Pairs
        ));
        assert!(!algorithm_runs_workload(
            Algorithm::RedoOptLite,
            Workload::EnqueueOnly
        ));
        let sweep = tiny_sweep();
        let rows = run_panel(Workload::EnqueueOnly, &sweep);
        assert_eq!(rows[0].cells.len(), 2, "PTM queue should be skipped");
        let rendered = render_panel(Workload::EnqueueOnly, &sweep, &rows);
        assert!(rendered.contains("-"));
    }

    #[test]
    fn sharded_points_run_and_aggregate_stats() {
        let mut sweep = tiny_sweep();
        sweep.shards = 4;
        let cell = measure_point(Algorithm::OptUnlinked, Workload::Pairs, 2, &sweep);
        assert!(cell.mops > 0.0);
        // Aggregated across shards the fence count stays close to the
        // one-per-op bound (a dequeue that scans an empty shard pays an
        // extra fence, so exact equality is not expected).
        assert!(
            cell.fences_per_op >= 0.9 && cell.fences_per_op < 2.5,
            "fences/op {}",
            cell.fences_per_op
        );
        let rendered = render_panel(Workload::Pairs, &sweep, &[]);
        assert!(rendered.contains("[4 shards, rr routing]"));
    }

    #[test]
    fn prefill_override_applies_to_dequeue_only_alone() {
        let mut sweep = tiny_sweep();
        sweep.prefill = Some(5000);
        assert_eq!(sweep.initial_size_for(Workload::DequeueOnly, 2), 5000);
        assert_eq!(sweep.initial_size_for(Workload::Pairs, 2), 10);
        sweep.initial_size = Some(77);
        assert_eq!(sweep.initial_size_for(Workload::DequeueOnly, 2), 77);
        assert_eq!(sweep.initial_size_for(Workload::Pairs, 2), 77);
    }

    #[test]
    fn file_backend_points_run_and_clean_up_after_themselves() {
        let dir = std::env::temp_dir().join(format!("runner-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sweep = tiny_sweep();
        sweep.backend = BackendChoice::File {
            dir: dir.clone(),
            sync: SyncPolicy::ProcessCrash,
        };
        // Single pool file per point.
        let cell = measure_point(Algorithm::DurableMsq, Workload::Pairs, 1, &sweep);
        assert!(cell.mops > 0.0);
        assert!(
            (cell.fences_per_op - 2.0).abs() < 1.0,
            "real fences counted"
        );
        // Sharded: a manifest directory per point.
        sweep.shards = 2;
        let cell = measure_point(Algorithm::OptUnlinked, Workload::Pairs, 2, &sweep);
        assert!(cell.mops > 0.0);
        // Every per-point file/directory was removed after its measurement.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.map(|e| e.unwrap().path()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let rendered = render_panel(Workload::Pairs, &sweep, &[]);
        assert!(rendered.contains("[file backend, process-crash]"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undersized_file_pools_grow_instead_of_exhausting() {
        let dir = std::env::temp_dir().join(format!("runner-grow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sweep = tiny_sweep();
        // Far below a single designated area: without growth the very first
        // allocation would abort the run with PoolExhausted.
        sweep.pool_bytes = 1 << 16;
        sweep.grow_step = 4 << 20;
        sweep.backend = BackendChoice::File {
            dir: dir.clone(),
            sync: SyncPolicy::ProcessCrash,
        };
        let cell = measure_point(Algorithm::OptUnlinked, Workload::Pairs, 2, &sweep);
        assert!(cell.mops > 0.0, "the point must complete via growth");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_op_fence_counts_surface_in_the_cells() {
        let sweep = tiny_sweep();
        let cell = measure_point(Algorithm::OptUnlinked, Workload::Pairs, 1, &sweep);
        assert!(
            (cell.fences_per_op - 1.0).abs() < 0.1,
            "fences/op {}",
            cell.fences_per_op
        );
        assert_eq!(cell.post_flush_per_op, 0.0);
    }
}
