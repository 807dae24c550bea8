//! The observability verbs: `harness metrics` and `harness blackbox`.
//!
//! ```text
//! harness metrics  [--ops N] [--dir PATH] [--sync S] [--json PATH]
//! harness blackbox (--dir PATH | PATH) [--json PATH]
//! ```
//!
//! `metrics` drives a short leased producer/consumer round — the one
//! workload that touches every instrument family at once (core
//! enqueue/dequeue, store mapping/fence/msync, shard routing, lease
//! grant/ack/nack/compaction) — then prints the process-global
//! [`obs::snapshot`] as Prometheus text exposition, or as a `metrics`
//! experiment object with `--json`.
//!
//! `blackbox` replays a crash-surviving `BLACKBOX.ring` left behind by a
//! killed process (every crash child writes one; so does any
//! deployment that installs a [`obs::flight::FlightRecorder`]) and
//! pretty-prints the lifecycle events that survived, torn tail included in
//! the accounting. Point it at the deployment directory or at the ring
//! file itself.

use crate::jsonio::ExperimentObject;
use durable_queues::{OptUnlinkedQueue, QueueConfig};
use lease::{create_leased_dir, LeaseDirConfig};
use obs::flight::{FlightRecorder, Replay};
use obs::MetricsSnapshot;
use pmem::PoolConfig;
use shard::{RecoveryOrchestrator, RoutePolicy, ShardConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;
use store::{FileConfig, SyncPolicy};

/// Drives the warm-up workload for `harness metrics` and returns the
/// process-global snapshot. `ops` items flow through a 2-shard leased
/// deployment in `dir/leased` (removed again afterwards): one producer
/// thread enqueues them while one consumer acks each, except that 5 % are
/// nacked on their first delivery and acked on redelivery, so the lease
/// instruments see grant, ack, nack and compaction traffic.
///
/// A flight recorder is installed in `dir` first, so the run leaves a
/// `BLACKBOX.ring` of its lifecycle events behind — `harness blackbox DIR`
/// replays it, which makes `metrics` + `blackbox` a self-contained
/// tour of both halves of the observability layer.
pub fn warmed_snapshot(ops: u64, dir: PathBuf, sync: SyncPolicy) -> MetricsSnapshot {
    std::fs::create_dir_all(&dir).expect("metrics: create dir");
    let recorder = FlightRecorder::create_or_open(&dir, obs::flight::DEFAULT_CAPACITY)
        .expect("metrics: create flight recorder");
    obs::flight::install(recorder);
    let dir = dir.join("leased");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("metrics: create deployment dir");
    let pool_bytes = 16 << 20;
    let queue = create_leased_dir::<OptUnlinkedQueue>(
        &RecoveryOrchestrator::new(2),
        &dir,
        ShardConfig {
            shards: 2,
            queue: QueueConfig {
                max_threads: 8,
                area_size: 1 << 20,
            },
            pool: PoolConfig::test_with_size(pool_bytes),
            policy: RoutePolicy::RoundRobin,
        },
        FileConfig::with_size(pool_bytes).with_sync(sync),
        &LeaseDirConfig {
            // Long enough that nothing expires mid-run: redelivery traffic
            // comes from the nacks, not from timeouts.
            lease_timeout: Duration::from_secs(600),
            ..LeaseDirConfig::default()
        },
    )
    .expect("metrics: create leased dir");
    std::thread::scope(|scope| {
        let q = &queue;
        scope.spawn(move || (1..=ops).for_each(|seq| q.enqueue(0, seq)));
        let mut acked = 0;
        while acked < ops {
            let Some(l) = q.dequeue(1) else {
                std::hint::spin_loop();
                continue;
            };
            if l.delivery_count == 1 && l.item % 100 < 5 {
                q.nack(1, &l).expect("metrics: nack");
            } else {
                q.ack(&l).expect("metrics: ack");
                acked += 1;
            }
        }
    });
    // A scan of the drained shards finds nothing, so `shard.dequeue.miss`
    // counts in every run, not only when the consumer outran the producer.
    let missed = queue.dequeue(1).is_none();
    assert!(missed, "metrics: the drained deployment is empty");
    drop(queue);
    let _ = std::fs::remove_dir_all(&dir);
    obs::snapshot()
}

/// Renders a snapshot as the `metrics` experiment object: one row per
/// instrument (`type` distinguishes counters from histograms), with the
/// full snapshot also embedded in the shared `meta` block like every other
/// verb's output.
pub fn metrics_json(snap: &MetricsSnapshot, sync: SyncPolicy) -> String {
    let mut obj = ExperimentObject::new("metrics", "file", Some(sync.key()));
    obj.field("counters", snap.counters.len());
    obj.field("histograms", snap.histograms.len());
    for (name, value) in &snap.counters {
        obj.row(format!(
            "{{\"instrument\": \"{name}\", \"type\": \"counter\", \"value\": {value}}}"
        ));
    }
    for (name, hist) in &snap.histograms {
        obj.row(format!(
            "{{\"instrument\": \"{name}\", \"type\": \"histogram\", \"count\": {}, \
             \"sum\": {}, \"p50\": {}, \"p99\": {}}}",
            hist.count(),
            hist.sum,
            hist.quantile(0.5),
            hist.quantile(0.99),
        ));
    }
    obj.finish()
}

/// Resolves the `blackbox` verb's target: a directory means its
/// `BLACKBOX.ring`; anything else is taken as the ring file itself.
pub fn resolve_ring_path(target: &Path) -> PathBuf {
    if target.is_dir() {
        FlightRecorder::ring_path(target)
    } else {
        target.to_path_buf()
    }
}

/// Pretty-prints a replayed ring: header line, then one line per
/// surviving event in sequence order.
pub fn render_blackbox(path: &Path, replay: &Replay) -> String {
    let mut out = format!(
        "=== blackbox: {} ===\n{} event(s) replayed (capacity {}, max seq {}, {} torn)\n",
        path.display(),
        replay.events.len(),
        replay.capacity,
        replay.max_seq(),
        replay.torn,
    );
    for e in &replay.events {
        out.push_str(&format!(
            "{:>8}  {:<22} {}\n",
            e.seq,
            e.kind_name(),
            e.describe()
        ));
    }
    out
}

/// Renders a replayed ring as the `blackbox` experiment object.
pub fn blackbox_json(path: &Path, replay: &Replay) -> String {
    let mut obj = ExperimentObject::new("blackbox", "file", None);
    obj.str_field("ring", &path.display().to_string());
    obj.field("capacity", replay.capacity);
    obj.field("torn", replay.torn);
    obj.field("max_seq", replay.max_seq());
    for e in &replay.events {
        obj.row(format!(
            "{{\"seq\": {}, \"kind\": \"{}\", \"raw_kind\": {}, \"a\": {}, \"b\": {}, \
             \"wall_ns\": {}}}",
            e.seq,
            e.kind_name(),
            e.kind,
            e.a,
            e.b,
            e.wall_ns,
        ));
    }
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::flight::EventKind;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-verbs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn blackbox_render_and_json_cover_the_replayed_events() {
        let dir = tmp("render");
        let rec = FlightRecorder::create_or_open(&dir, 64).unwrap();
        rec.record(EventKind::PoolGrowthCommit, 1, 4096);
        rec.record(EventKind::LeaseGrant, 7, 42);
        drop(rec);

        let path = resolve_ring_path(&dir);
        assert!(path.ends_with("BLACKBOX.ring"));
        let replay = obs::flight::replay(&path).unwrap();
        assert_eq!(replay.events.len(), 2);

        let text = render_blackbox(&path, &replay);
        assert!(text.contains("2 event(s) replayed"));
        assert!(text.contains("pool-growth-commit"));
        assert!(text.contains("lease 7 granted for item 42"));

        let json = blackbox_json(&path, &replay);
        assert!(json.contains("\"experiment\": \"blackbox\""));
        assert!(json.contains("\"kind\": \"pool-growth-commit\""));
        assert!(json.contains("\"kind\": \"lease-grant\""));
        assert!(json.contains("\"torn\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_ring_path_passes_files_through() {
        let p = Path::new("/nonexistent/some.ring");
        assert_eq!(resolve_ring_path(p), p);
    }

    #[test]
    fn metrics_json_renders_counter_and_histogram_rows() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("core.enqueue".into(), 9);
        let mut h = obs::HistogramSnapshot {
            buckets: vec![0; 64],
            sum: 30,
        };
        h.buckets[2] = 3;
        snap.histograms.insert("store.msync_ns".into(), h);
        let json = metrics_json(&snap, SyncPolicy::ProcessCrash);
        assert!(json.contains("\"experiment\": \"metrics\""));
        assert!(json
            .contains("{\"instrument\": \"core.enqueue\", \"type\": \"counter\", \"value\": 9}"));
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.contains("\"count\": 3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
