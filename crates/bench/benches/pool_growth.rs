//! What elastic pool growth costs: enqueue throughput on a pool that must
//! grow mid-run (`ftruncate` + journaled header commit + `mremap` and
//! epoch retirement per growth event) versus the same workload on a
//! pre-sized pool.
//!
//! Three file-pool variants push the same enqueue burst:
//!
//! * `pre-sized` — the pool is created big enough up front (the paper's
//!   assumption); no growth events, the baseline,
//! * `grow-coarse` — created deliberately tiny with a large growth step, so
//!   a handful of growth events land inside the run,
//! * `grow-fine` — created tiny with a small step, so the run pays many
//!   growth events; the worst case for the growth protocol (readers never
//!   pause — growth serializes only against other growths).
//!
//! The throughput gap between `pre-sized` and the `grow-*` variants is the
//! amortised cost of growth (each variant ends the burst holding the same
//! data); the `grow-fine` vs `grow-coarse` gap shows how the step size
//! trades pause count against over-allocation.
//!
//! ```bash
//! cargo bench --bench pool_growth           # full run
//! cargo bench --bench pool_growth -- --test # CI smoke mode
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use std::time::{Duration, Instant};
use store::{FileConfig, FilePool};

/// Enqueues per measured burst; sized so the tiny variants grow several
/// times (~64 B of heap per resident item).
const BURST: u64 = 40_000;

fn queue_config() -> QueueConfig {
    QueueConfig {
        max_threads: 2,
        area_size: 1 << 20,
    }
}

struct Variant {
    tag: &'static str,
    base: usize,
    step: usize,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        tag: "pre-sized",
        base: 64 << 20,
        step: 0,
    },
    Variant {
        tag: "grow-coarse",
        base: 2 << 20,
        step: 8 << 20,
    },
    Variant {
        tag: "grow-fine",
        base: 2 << 20,
        step: 1 << 20,
    },
];

/// One timed burst on a fresh pool file; returns (elapsed, growth epochs).
fn run_burst(variant: &Variant, round: u64) -> (Duration, u32) {
    let path = std::env::temp_dir().join(format!(
        "bench-pool-growth-{}-{}-{round}.pool",
        variant.tag,
        std::process::id()
    ));
    let pool = FilePool::create(
        &path,
        FileConfig::with_size(variant.base).with_growth(variant.step),
    )
    .expect("create bench pool file")
    .into_pool();
    // Unlink immediately: the mapping keeps the file alive for the burst and
    // nothing is left behind in $TMPDIR.
    let _ = std::fs::remove_file(&path);
    let queue = OptUnlinkedQueue::create(std::sync::Arc::clone(&pool), queue_config());
    let start = Instant::now();
    for seq in 1..=BURST {
        queue.enqueue(0, seq);
    }
    let elapsed = start.elapsed();
    let growths = pool.growth_epoch();
    (elapsed, growths)
}

fn enqueue_across_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_growth/enqueue_burst");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(BURST));
    for variant in &VARIANTS {
        // The shape every variant must satisfy: pre-sized never grows, the
        // elastic ones always do (otherwise the bench measures nothing).
        let (_, growths) = run_burst(variant, u64::MAX);
        if variant.step == 0 {
            assert_eq!(growths, 0, "{}: must not grow", variant.tag);
        } else {
            assert!(growths >= 1, "{}: must grow during the burst", variant.tag);
        }
        group.bench_function(BenchmarkId::new("enqueue", variant.tag), |b| {
            let mut round = 0u64;
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let (elapsed, _) = run_burst(variant, round);
                    round += 1;
                    total += elapsed;
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, enqueue_across_growth);
criterion_main!(benches);
