//! The shard-scaling sweep: a Figure-2-style experiment with the shard
//! count, rather than the thread count, on the x axis.
//!
//! For each shard count the sweep runs one workload at a fixed thread count
//! on a `ShardedQueue` of the chosen algorithm, reporting aggregate
//! throughput, per-shard persist counts (so the persist cost of scaling is
//! attributable shard by shard), and — because a sharded deployment must
//! also *restart* fast — a crash of every shard followed by parallel
//! recovery, timed per shard.

use crate::algorithms::Algorithm;
use crate::with_recoverable;
use crate::workloads::{run_workload, RunConfig, Workload};
use durable_queues::{DurableQueue, QueueConfig, RecoverableQueue};
use pmem::{LatencyModel, PoolConfig, StatsSnapshot};
use shard::{RecoveryOrchestrator, RecoveryReport, RoutePolicy, ShardConfig, ShardedQueue};
use std::sync::Arc;

/// Configuration of one shard-scaling sweep.
#[derive(Clone, Debug)]
pub struct ShardSweepConfig {
    /// Shard counts to sweep (the x axis).
    pub shard_counts: Vec<usize>,
    /// Worker threads at every point.
    pub threads: usize,
    /// Operations per thread at every point.
    pub ops_per_thread: u64,
    /// Total pool budget in bytes, split evenly across the shards.
    pub pool_bytes: usize,
    /// Latency model of the simulated NVRAM.
    pub latency: LatencyModel,
    /// Designated-area size for the node allocator.
    pub area_size: u32,
    /// The algorithm being scaled.
    pub algorithm: Algorithm,
    /// The workload driven at every point.
    pub workload: Workload,
    /// Routing policy.
    pub policy: RoutePolicy,
    /// Worker threads of the recovery orchestrator.
    pub recovery_threads: usize,
    /// Seed for the workload mixes.
    pub seed: u64,
}

impl ShardSweepConfig {
    /// The default sweep: 1/2/4/8 shards of `OptUnlinkedQ` under the
    /// enqueue-dequeue-pairs workload at 4 threads, Optane-like latencies.
    pub fn paper_like() -> Self {
        ShardSweepConfig {
            shard_counts: vec![1, 2, 4, 8],
            threads: 4,
            ops_per_thread: 20_000,
            pool_bytes: 256 << 20,
            latency: LatencyModel::optane_like(),
            area_size: 1 << 20,
            algorithm: Algorithm::OptUnlinked,
            workload: Workload::Pairs,
            policy: RoutePolicy::RoundRobin,
            recovery_threads: 8,
            seed: 0x54A2,
        }
    }

    /// A small sweep for smoke tests and CI.
    pub fn quick() -> Self {
        ShardSweepConfig {
            ops_per_thread: 2_000,
            pool_bytes: 64 << 20,
            ..Self::paper_like()
        }
    }
}

/// One measured point of the shard-scaling sweep.
#[derive(Clone, Debug)]
pub struct ShardScalingRow {
    /// The shard count of this row.
    pub shards: usize,
    /// Aggregate throughput in million operations per second.
    pub mops: f64,
    /// Blocking persists per operation, aggregated over all shards.
    pub fences_per_op: f64,
    /// Persistence counters of each shard during the measured phase.
    pub per_shard: Vec<StatsSnapshot>,
    /// Items left in the queue when the crash hit (what recovery rebuilt).
    pub recovered_items: u64,
    /// Timing of the crash-recovery campaign run after the workload.
    pub recovery: RecoveryReport,
}

/// Runs the whole sweep.
pub fn run_shard_sweep(cfg: &ShardSweepConfig) -> Vec<ShardScalingRow> {
    cfg.shard_counts
        .iter()
        .map(|&shards| with_recoverable!(cfg.algorithm, Q => measure_shard_point::<Q>(cfg, shards)))
        .collect()
}

/// Measures one (algorithm, shard count) point: workload, then crash, then
/// parallel recovery.
fn measure_shard_point<Q: RecoverableQueue + 'static>(
    cfg: &ShardSweepConfig,
    shards: usize,
) -> ShardScalingRow {
    let shard_cfg = ShardConfig::balanced(
        shards,
        QueueConfig {
            max_threads: cfg.threads.max(1),
            area_size: cfg.area_size,
        },
        cfg.pool_bytes,
        PoolConfig {
            size: cfg.pool_bytes,
            latency: cfg.latency,
            eviction_probability: 0.0,
            eviction_seed: cfg.seed,
        },
        cfg.policy,
    );
    let queue = Arc::new(ShardedQueue::<Q>::create(shard_cfg));
    let dyn_queue: Arc<dyn DurableQueue> = Arc::clone(&queue) as Arc<dyn DurableQueue>;
    let run_cfg = RunConfig {
        threads: cfg.threads,
        ops_per_thread: cfg.ops_per_thread,
        initial_size: cfg
            .workload
            .default_initial_size(cfg.threads, cfg.ops_per_thread),
        seed: cfg.seed,
    };
    // Warm-up pass (unmeasured): carves every shard's designated areas and
    // — via the drain — retires every warm-up node into the free lists, so
    // the measured pass sees the steady state the paper's timed runs
    // measure, not N shards' worth of one-time allocator setup.
    let _ = run_workload(&dyn_queue, cfg.workload, &run_cfg);
    while dyn_queue.dequeue(0).is_some() {}
    let result = run_workload(&dyn_queue, cfg.workload, &run_cfg);
    let per_shard = queue.per_shard_stats();
    let per_op = result.stats.per_op(result.total_ops);

    // Crash every shard coherently and recover them in parallel.
    let orchestrator = RecoveryOrchestrator::new(cfg.recovery_threads);
    let (recovered, recovery) = orchestrator.crash_and_recover(&queue);
    let mut recovered_items = 0u64;
    while recovered.dequeue(0).is_some() {
        recovered_items += 1;
    }

    ShardScalingRow {
        shards,
        mops: result.mops(),
        fences_per_op: per_op.fences,
        per_shard,
        recovered_items,
        recovery,
    }
}

/// Renders the sweep as one machine-readable JSON experiment object (schema
/// documented in the README under "Machine-readable results").
pub fn shard_sweep_json(cfg: &ShardSweepConfig, rows: &[ShardScalingRow]) -> String {
    let base = rows.first().map(|r| r.mops).unwrap_or(0.0);
    let mut obj = crate::jsonio::ExperimentObject::new("shards", "sim", None);
    obj.str_field("algorithm", cfg.algorithm.name());
    obj.str_field("workload", cfg.workload.key());
    obj.field("threads", cfg.threads);
    obj.field("ops_per_thread", cfg.ops_per_thread);
    obj.str_field("policy", cfg.policy.key());
    obj.field("recovery_threads", cfg.recovery_threads);
    for row in rows {
        let per_shard: Vec<String> = row
            .per_shard
            .iter()
            .zip(&row.recovery.per_shard)
            .enumerate()
            .map(|(s, (stats, rec))| {
                format!(
                    "{{\"shard\": {s}, \"fences\": {}, \"flushes\": {}, \"recovery_ms\": {}}}",
                    stats.fences,
                    stats.flushes,
                    rec.latency.as_secs_f64() * 1e3,
                )
            })
            .collect();
        obj.row(format!(
            "{{\"shards\": {}, \"mops\": {}, \"scaling\": {}, \"fences_per_op\": {}, \
             \"recovered_items\": {}, \"recovery_wall_ms\": {}, \
             \"recovery_critical_path_ms\": {}, \"recovery_sequential_ms\": {}, \
             \"recovery_speedup\": {}, \"per_shard\": [{}]}}",
            row.shards,
            row.mops,
            if base > 0.0 { row.mops / base } else { 0.0 },
            row.fences_per_op,
            row.recovered_items,
            row.recovery.wall.as_secs_f64() * 1e3,
            row.recovery.critical_path().as_secs_f64() * 1e3,
            row.recovery.sequential_cost().as_secs_f64() * 1e3,
            row.recovery.speedup(),
            per_shard.join(", "),
        ));
    }
    obj.finish()
}

/// Renders the sweep as a scaling table plus per-shard persist counts.
pub fn render_shard_sweep(cfg: &ShardSweepConfig, rows: &[ShardScalingRow]) -> String {
    let mut out = format!(
        "\n=== Shard scaling — {} — {} ({} threads, {} routing) ===\n",
        cfg.workload.name(),
        cfg.algorithm.name(),
        cfg.threads,
        cfg.policy.key()
    );
    out.push_str(&format!(
        "{:>7}{:>10}{:>9}{:>11}{:>13}{:>14}{:>15}{:>10}\n",
        "shards",
        "Mops/s",
        "scaling",
        "fences/op",
        "recovered",
        "rec-wall(ms)",
        "rec-shard(ms)",
        "rec-par"
    ));
    let base = rows.first().map(|r| r.mops).unwrap_or(0.0);
    for row in rows {
        out.push_str(&format!(
            "{:>7}{:>10.3}{:>8.2}x{:>11.3}{:>13}{:>14.3}{:>15.3}{:>9.2}x\n",
            row.shards,
            row.mops,
            if base > 0.0 { row.mops / base } else { 0.0 },
            row.fences_per_op,
            row.recovered_items,
            row.recovery.wall.as_secs_f64() * 1e3,
            row.recovery.critical_path().as_secs_f64() * 1e3,
            row.recovery.speedup(),
        ));
    }
    out.push_str("\nper-shard persist counts (measured phase):\n");
    for row in rows {
        out.push_str(&format!("  {} shard(s):", row.shards));
        for (i, s) in row.per_shard.iter().enumerate() {
            out.push_str(&format!(
                " [{}] fences={} flushes={}",
                i, s.fences, s.flushes
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ShardSweepConfig {
        ShardSweepConfig {
            shard_counts: vec![1, 2],
            threads: 2,
            ops_per_thread: 300,
            pool_bytes: 32 << 20,
            latency: LatencyModel::ZERO,
            area_size: 256 * 1024,
            algorithm: Algorithm::OptUnlinked,
            workload: Workload::Pairs,
            policy: RoutePolicy::RoundRobin,
            recovery_threads: 2,
            seed: 3,
        }
    }

    #[test]
    fn sweep_produces_one_row_per_shard_count_with_recovery() {
        let cfg = tiny();
        let rows = run_shard_sweep(&cfg);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.mops > 0.0);
            assert_eq!(row.per_shard.len(), row.shards);
            assert_eq!(row.recovery.per_shard.len(), row.shards);
            // Pairs leaves the 10 pre-fill items (plus at most a small
            // imbalance) in the queue; recovery must find them again.
            assert!(row.recovered_items >= 1, "nothing recovered");
        }
        let rendered = render_shard_sweep(&cfg, &rows);
        assert!(rendered.contains("Shard scaling"));
        assert!(rendered.contains("per-shard persist counts"));
    }

    #[test]
    fn shard_sweep_json_is_well_formed_and_complete() {
        let cfg = tiny();
        let rows = run_shard_sweep(&cfg);
        let json = shard_sweep_json(&cfg, &rows);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
        assert!(json.contains("\"experiment\": \"shards\""));
        assert!(json.contains("\"workload\": \"pairs\""));
        assert!(json.contains("\"recovery_speedup\""));
        assert_eq!(json.matches("\"shards\":").count(), rows.len());
        // Per-shard arrays carry one entry per shard of the row.
        assert_eq!(
            json.matches("\"shard\":").count(),
            rows.iter().map(|r| r.shards).sum::<usize>()
        );
    }

    #[test]
    fn every_algorithm_survives_a_small_sharded_sweep_point() {
        for alg in [Algorithm::DurableMsq, Algorithm::RedoOptLite] {
            let cfg = ShardSweepConfig {
                algorithm: alg,
                shard_counts: vec![2],
                ..tiny()
            };
            let rows = run_shard_sweep(&cfg);
            assert_eq!(rows[0].per_shard.len(), 2, "{}", alg.name());
        }
    }
}
