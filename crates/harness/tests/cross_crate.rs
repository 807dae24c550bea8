//! Cross-crate integration tests: pmem + ssmem + durable_queues + ptm driven
//! through the harness, exactly as the benchmarks drive them.

use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use harness::algorithms::Algorithm;
use harness::checker::{check_algorithm, CrashCheckConfig};
use harness::counts::persist_counts_table;
use harness::runner::{measure_point, run_panel, SweepConfig};
use harness::workloads::{run_workload, RunConfig, Workload};
use pmem::{LatencyModel, PmemPool, PoolConfig};
use std::sync::Arc;
use std::time::Instant;

fn tiny_sweep(algorithms: Vec<Algorithm>) -> SweepConfig {
    SweepConfig {
        threads: vec![1, 2],
        ops_per_thread: 400,
        initial_size: None,
        prefill: None,
        pool_bytes: 32 << 20,
        latency: LatencyModel::ZERO,
        area_size: 256 * 1024,
        algorithms,
        shards: 1,
        policy: shard::RoutePolicy::RoundRobin,
        seed: 99,
    }
}

#[test]
fn every_figure2_panel_runs_end_to_end_for_every_algorithm() {
    let sweep = tiny_sweep(Algorithm::figure2_set());
    for workload in Workload::all() {
        let rows = run_panel(workload, &sweep);
        assert_eq!(rows.len(), sweep.threads.len(), "{}", workload.name());
        for row in rows {
            for cell in &row.cells {
                assert!(
                    cell.mops > 0.0,
                    "{} produced no throughput",
                    cell.algorithm.name()
                );
            }
        }
    }
}

#[test]
fn second_amendment_outperforms_the_baseline_under_the_latency_model() {
    // The headline comparison of the paper, at the smallest scale that still
    // shows it: with the Optane-like latency model, OptUnlinkedQ beats
    // DurableMSQ on the random-operations workload — because it never
    // touches a flushed line, which is a count, and therefore in time,
    // which on two cores shared with the binary's other tests is taken as
    // the best of three.
    let sweep = SweepConfig {
        threads: vec![2],
        ops_per_thread: 4_000,
        latency: LatencyModel::optane_like(),
        ..tiny_sweep(vec![Algorithm::DurableMsq, Algorithm::OptUnlinked])
    };
    let mut best = 0.0f64;
    for _ in 0..3 {
        let rows = run_panel(Workload::RandomOps, &sweep);
        let post_flush = |alg| rows[0].cell(alg).unwrap().post_flush_per_op;
        assert_eq!(post_flush(Algorithm::OptUnlinked), 0.0);
        assert!(post_flush(Algorithm::DurableMsq) > 0.0);
        best = best.max(
            rows[0]
                .ratio_to_durable_msq(Algorithm::OptUnlinked)
                .unwrap(),
        );
        if best > 1.1 {
            break;
        }
    }
    assert!(
        best > 1.1,
        "OptUnlinkedQ should outperform DurableMSQ (best of three ratios {best:.2})"
    );
}

/// A hot one-thread OptUnlinkedQ pair is charged its model in full: an
/// enqueue's flush and fence, a dequeue's nt-store and fence, 300 ns on
/// `optane_like`. A floor, so a slow box cannot fail it. On `optane_like`
/// the simulator's own cost, in this unoptimised build, is larger than
/// any one charge, so the same floor also runs on `optane_like` scaled
/// ×1000: there a fence that pays only its own delay (two thirds of the
/// charge) falls well under 0.9× of it.
#[test]
fn a_hot_pair_pays_at_least_its_flush_nt_store_and_two_fences() {
    let optane = LatencyModel::optane_like();
    for (scale, pairs) in [(1, 2_000), (1_000, 100)] {
        let model = LatencyModel {
            flush_ns: scale * optane.flush_ns,
            fence_ns: scale * optane.fence_ns,
            nvram_read_ns: scale * optane.nvram_read_ns,
            nt_store_ns: scale * optane.nt_store_ns,
        };
        let pool = Arc::new(PmemPool::new(PoolConfig {
            latency: model,
            ..PoolConfig::test_with_size(8 << 20)
        }));
        let q = OptUnlinkedQueue::create(pool, QueueConfig::small_test());
        for item in 1..=10 {
            q.enqueue(0, item);
        }
        // Warm: the spin's clock is calibrated and the node is recycled.
        for item in 11..=20 {
            q.enqueue(0, item);
            q.dequeue(0);
        }
        let before = q.stats();
        let start = Instant::now();
        for item in 0..pairs {
            q.enqueue(0, 100 + item);
            q.dequeue(0);
        }
        let pair_ns = start.elapsed().as_nanos() as f64 / pairs as f64;
        let stats = q.stats() - before;
        assert_eq!(stats.post_flush_accesses, 0);
        assert_eq!(stats.fences, 2 * pairs);
        let charge = model.flush_ns + model.nt_store_ns + 2 * model.fence_ns;
        assert!(
            pair_ns >= 0.9 * f64::from(charge),
            "a pair cost {pair_ns:.0} ns, under 0.9x the {charge} ns its model charges"
        );
    }
}

#[test]
fn first_amendment_meets_the_fence_lower_bound_in_the_full_stack() {
    let sweep = tiny_sweep(vec![Algorithm::Unlinked]);
    let cell = measure_point(Algorithm::Unlinked, Workload::Pairs, 1, &sweep);
    assert!(
        (cell.fences_per_op - 1.0).abs() < 0.1,
        "fences/op {}",
        cell.fences_per_op
    );
}

#[test]
fn opt_queues_make_zero_post_flush_accesses_in_the_full_stack() {
    let sweep = tiny_sweep(vec![Algorithm::OptUnlinked, Algorithm::OptLinked]);
    for alg in [Algorithm::OptUnlinked, Algorithm::OptLinked] {
        for workload in Workload::all() {
            let cell = measure_point(alg, workload, 2, &sweep);
            assert_eq!(
                cell.post_flush_per_op,
                0.0,
                "{} touched flushed content in {}",
                alg.name(),
                workload.name()
            );
        }
    }
}

#[test]
fn persist_count_table_covers_every_algorithm() {
    let rows = persist_counts_table(200);
    assert_eq!(rows.len(), Algorithm::all().len());
}

#[test]
fn crash_checker_passes_for_a_sample_of_algorithms() {
    let cfg = CrashCheckConfig {
        threads: 3,
        ops_per_thread: 120,
        rounds: 1,
        seed: 0xAB,
    };
    for alg in [
        Algorithm::DurableMsq,
        Algorithm::Unlinked,
        Algorithm::OptLinked,
        Algorithm::RedoOptLite,
    ] {
        check_algorithm(alg, &cfg);
    }
}

#[test]
fn a_recovered_queue_can_be_driven_by_the_workload_generators() {
    // Fill a queue, crash it, recover it, and run a full workload on the
    // recovered instance — recovery must leave every allocator structure in
    // a state that supports normal operation at full speed.
    let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(32 << 20)));
    let q =
        Algorithm::OptLinked.create(Arc::clone(&pool), QueueConfig::small_test().with_threads(4));
    for i in 0..500u64 {
        q.enqueue(0, i + 1);
    }
    let recovered_pool = Arc::new(pool.simulate_crash());
    let recovered =
        Algorithm::OptLinked.recover(recovered_pool, QueueConfig::small_test().with_threads(4));
    let result = run_workload(
        &recovered,
        Workload::RandomOps,
        &RunConfig {
            threads: 4,
            ops_per_thread: 500,
            initial_size: 0,
            seed: 5,
        },
    );
    assert_eq!(result.total_ops, 2000);
    assert!(result.mops() > 0.0);
}

#[test]
fn sharded_queues_run_every_workload_through_the_harness() {
    // The sharded composition behind the same dyn DurableQueue front the
    // harness sweeps use: built by algorithm name, driven by the workload
    // generators, stats aggregated across all shard pools.
    let queue = Algorithm::OptLinked.create_sharded(shard::ShardConfig {
        shards: 4,
        queue: QueueConfig::small_test().with_threads(4),
        pool: PoolConfig::test_with_size(16 << 20),
        policy: shard::RoutePolicy::RoundRobin,
    });
    for workload in Workload::all() {
        let result = run_workload(
            &queue,
            workload,
            &RunConfig {
                threads: 4,
                ops_per_thread: 300,
                initial_size: workload.default_initial_size(4, 300),
                seed: 21,
            },
        );
        assert_eq!(result.total_ops, 1200, "{}", workload.name());
        assert!(result.stats.fences > 0, "{}", workload.name());
    }
}
