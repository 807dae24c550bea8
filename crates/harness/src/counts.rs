//! Experiment E7/E8: per-operation persistence-event counts.
//!
//! The paper's analytic claims (Sections 5–6): UnlinkedQ, LinkedQ,
//! OptUnlinkedQ and OptLinkedQ execute exactly one blocking persist operation
//! per queue operation (the Cohen et al. lower bound), and the two Opt queues
//! additionally perform zero accesses to explicitly flushed cache lines
//! (which Section 2.1 shows is simultaneously achievable). This module
//! measures those quantities for every implemented queue.

use crate::algorithms::Algorithm;
use crate::with_recoverable;
use durable_queues::testkit::{self, persist_counts, PersistCounts};
use durable_queues::{QueueConfig, RecoverableQueue};
use pmem::PoolConfig;
use shard::{RoutePolicy, ShardConfig, ShardedQueue};

/// Per-operation persistence profile of one algorithm.
pub struct CountsRow {
    /// The algorithm measured.
    pub algorithm: Algorithm,
    /// Measured averages (enqueue phase, dequeue phase, combined).
    pub counts: PersistCounts,
}

/// Measures every implemented algorithm over `ops` single-threaded
/// enqueue/dequeue pairs.
pub fn persist_counts_table(ops: u64) -> Vec<CountsRow> {
    Algorithm::all()
        .into_iter()
        .map(|algorithm| CountsRow {
            algorithm,
            counts: with_recoverable!(algorithm, Q => persist_counts::<Q>(ops)),
        })
        .collect()
}

/// Like [`persist_counts_table`], but measured through a [`ShardedQueue`]
/// with `shards` shards (counters aggregated across every shard's pool).
/// Verifies that sharding leaves the per-operation persist profile of the
/// inner algorithm intact: shards never share a flush or a fence.
pub fn persist_counts_table_sharded(
    ops: u64,
    shards: usize,
    policy: RoutePolicy,
) -> Vec<CountsRow> {
    Algorithm::all()
        .into_iter()
        .map(|algorithm| CountsRow {
            algorithm,
            counts: with_recoverable!(algorithm, Q => sharded_counts::<Q>(ops, shards, policy)),
        })
        .collect()
}

/// Per-operation persistence costs of `Q` behind a sharded front — the same
/// measurement recipe as the unsharded table, over aggregated counters.
fn sharded_counts<Q: RecoverableQueue>(
    ops: u64,
    shards: usize,
    policy: RoutePolicy,
) -> PersistCounts {
    let q = ShardedQueue::<Q>::create(ShardConfig {
        shards,
        queue: QueueConfig {
            max_threads: 8,
            area_size: 2 << 20,
        },
        pool: PoolConfig::test_with_size(32 << 20),
        policy,
    });
    testkit::persist_counts_on(&q, ops)
}

/// Renders the counts table as one machine-readable JSON experiment object
/// (schema documented in the README under "Machine-readable results").
pub fn counts_json(rows: &[CountsRow], ops: u64, shards: usize, policy: RoutePolicy) -> String {
    let mut obj = crate::jsonio::ExperimentObject::new("counts", "sim", None);
    obj.field("ops", ops);
    obj.field("shards", shards);
    obj.str_field("policy", policy.key());
    for row in rows {
        let c = &row.counts;
        obj.row(format!(
            "{{\"algorithm\": \"{}\", \"enq_fences\": {}, \"deq_fences\": {}, \
             \"enq_flushes\": {}, \"nt_stores_per_op\": {}, \"post_flush_per_op\": {}}}",
            row.algorithm.name(),
            c.enqueue.fences,
            c.dequeue.fences,
            c.enqueue.flushes,
            c.total.nt_stores,
            c.total.post_flush_accesses,
        ));
    }
    obj.finish()
}

/// Renders the counts table.
pub fn render_counts(rows: &[CountsRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "\n=== Persistence operations per queue operation (single-threaded steady state) ===\n",
    );
    out.push_str(&format!(
        "{:<16}{:>14}{:>14}{:>14}{:>14}{:>18}\n",
        "queue", "enq fences", "deq fences", "enq flushes", "nt-stores/op", "post-flush/op"
    ));
    for row in rows {
        let c = &row.counts;
        out.push_str(&format!(
            "{:<16}{:>14.2}{:>14.2}{:>14.2}{:>14.2}{:>18.3}\n",
            row.algorithm.name(),
            c.enqueue.fences,
            c.dequeue.fences,
            c.enqueue.flushes,
            c.total.nt_stores,
            c.total.post_flush_accesses,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_queues::OptUnlinkedQueue;

    #[test]
    fn counts_table_reproduces_the_papers_analytic_claims() {
        let rows = persist_counts_table(400);
        let get = |a: Algorithm| rows.iter().find(|r| r.algorithm == a).unwrap();

        // The four new queues meet the one-fence lower bound.
        for alg in [
            Algorithm::Unlinked,
            Algorithm::Linked,
            Algorithm::OptUnlinked,
            Algorithm::OptLinked,
        ] {
            let c = &get(alg).counts;
            assert!(
                (c.enqueue.fences - 1.0).abs() < 0.05,
                "{}: {}",
                alg.name(),
                c.enqueue.fences
            );
            assert!(
                (c.dequeue.fences - 1.0).abs() < 0.05,
                "{}: {}",
                alg.name(),
                c.dequeue.fences
            );
        }
        // The second amendment eliminates post-flush accesses; the first does not.
        assert_eq!(
            get(Algorithm::OptUnlinked).counts.total.post_flush_accesses,
            0.0
        );
        assert_eq!(
            get(Algorithm::OptLinked).counts.total.post_flush_accesses,
            0.0
        );
        assert!(get(Algorithm::Unlinked).counts.total.post_flush_accesses > 0.5);
        assert!(get(Algorithm::DurableMsq).counts.total.post_flush_accesses > 0.5);
        // The baselines fence more than the lower bound.
        assert!(get(Algorithm::DurableMsq).counts.enqueue.fences > 1.5);
        assert!(get(Algorithm::Izraelevitz).counts.enqueue.fences > 3.0);
        // The volatile queue persists nothing.
        assert_eq!(get(Algorithm::Msq).counts.total.fences, 0.0);

        let rendered = render_counts(&rows);
        assert!(rendered.contains("OptLinkedQ"));
    }

    #[test]
    fn counts_json_is_well_formed_and_complete() {
        let rows = persist_counts_table(50);
        let json = counts_json(&rows, 50, 4, RoutePolicy::KeyHash);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
        assert!(json.contains("\"experiment\": \"counts\""));
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("\"policy\": \"keyhash\""));
        for alg in Algorithm::all() {
            assert!(json.contains(alg.name()), "missing {}", alg.name());
        }
        // One row object per algorithm, comma-separated except the last.
        assert_eq!(
            json.matches("\"algorithm\"").count(),
            Algorithm::all().len()
        );
        assert!(!json.contains("}\n  ],")); // no trailing comma artifacts
    }

    #[test]
    fn sharding_preserves_the_per_op_persist_profile() {
        // Behind 4 shards, the second-amendment queue still pays exactly one
        // fence per operation and zero post-flush accesses — shards add
        // throughput, not persist cost.
        let counts = super::sharded_counts::<OptUnlinkedQueue>(400, 4, RoutePolicy::RoundRobin);
        assert!((counts.enqueue.fences - 1.0).abs() < 0.05);
        assert!((counts.dequeue.fences - 1.0).abs() < 0.05);
        assert_eq!(counts.total.post_flush_accesses, 0.0);
    }
}
