//! The `harness restart` verb: real kill-`SIGKILL`-and-reopen rounds run
//! by the crash driver ([`crate::crash`]) with this binary as the child —
//! by default DurableMSQ and OptUnlinkedQ, each as one pool file and as a
//! 4-shard manifest directory, then a SIGKILL-mid-reshard and a
//! SIGKILL-mid-lease round (`--algo`/`--shards` narrow it to one queue
//! round). The full table, crash points included, is the suites of
//! `crates/harness/tests/` (indexed in `sigkill/mod.rs` there).

use crate::algorithms::Algorithm;
use crate::crash::{Outcome, Scenario, Shape};
use std::collections::BTreeSet;

/// The verb's rounds over `base`, a queue scenario built from the flags:
/// the queue matrix (or `base` alone when `narrowed`), then the reshard
/// and lease kill rounds. Each round works in its own subdirectory of
/// `base.dir`, so a user's `--dir` is never emptied.
pub fn plan(base: &Scenario, narrowed: bool) -> Vec<Scenario> {
    let queue_round = |algorithm: Algorithm, shards: usize| {
        let name = algorithm.name().replace([' ', '(', ')'], "");
        Scenario {
            algorithm,
            shards,
            dir: base.dir.join(format!("round-{name}-{shards}shards")),
            ..base.clone()
        }
    };
    if narrowed {
        return vec![queue_round(base.algorithm, base.shards)];
    }
    // Then a kill inside reshard_dir, and a consumer killed holding leases.
    let reshard = Scenario {
        algorithm: base.algorithm,
        sync: base.sync,
        dir: base.dir.join("round-reshard"),
        ..Scenario::reshard(base.min_acks as u64, 1, std::process::id() as u64 % 13)
    };
    let lease = Scenario {
        algorithm: base.algorithm,
        fence_window_ns: base.fence_window_ns,
        min_acks: base.min_acks.min(1_000),
        dir: base.dir.join("round-lease"),
        ..Scenario::leased(Shape::Leased, base.sync)
    };
    [Algorithm::DurableMsq, Algorithm::OptUnlinked]
        .into_iter()
        .flat_map(|algorithm| [1, 4].map(|shards| queue_round(algorithm, shards)))
        .chain([reshard, lease])
        .collect()
}

/// The linearizable-suffix rule of a crashed queue, from its confirmed
/// enqueues and dequeues and each shard's residue in drain order: nothing
/// duplicated, each shard FIFO, no confirmed dequeue resurrected, every
/// confirmed enqueue recovered or dequeued up to one in-flight dequeue per
/// dequeuer, and at most one unconfirmed enqueue per enqueuer.
pub fn check_suffix(
    acked_e: &BTreeSet<u64>,
    acked_d: &BTreeSet<u64>,
    residues: &[Vec<u64>],
    enqueuers: usize,
    dequeuers: usize,
) {
    let mut recovered = BTreeSet::new();
    for (shard, residue) in residues.iter().enumerate() {
        let mut last = None;
        for &v in residue {
            assert!(recovered.insert(v), "item {v} duplicated in the residue");
            assert!(last < Some(v), "shard {shard} not FIFO: {v} after {last:?}");
            last = Some(v);
        }
    }
    let back: Vec<&u64> = recovered.intersection(acked_d).collect();
    assert!(back.is_empty(), "dequeues resurrected: {back:?}");
    let gone = |v: &&u64| !acked_d.contains(v) && !recovered.contains(v);
    let lost: Vec<&u64> = acked_e.iter().filter(gone).take(10).collect();
    let extra: Vec<&u64> = recovered.difference(acked_e).take(10).collect();
    assert!(lost.len() <= dequeuers, "confirmed items lost: {lost:?}");
    assert!(extra.len() <= enqueuers, "unconfirmed items: {extra:?}");
}

/// Renders the collected rounds as one machine-readable JSON experiment
/// object (schema documented in the README under "Machine-readable
/// results"), matching the experiment-object shape of `counts` and
/// `shards`: one row per queue round, plus the `reshard_kill` and
/// `lease_kill` objects (`null` when those rounds did not run).
pub fn restart_json(rounds: &[(Scenario, Outcome)]) -> String {
    // All rounds of one invocation share the sync policy (they derive from
    // one base scenario), so the first round's key is the meta-level one.
    let sync = rounds.first().map(|(s, _)| s.sync.key());
    let mut obj = crate::jsonio::ExperimentObject::new("restart", "file", sync);
    let (mut reshard, mut lease) = (String::from("null"), String::from("null"));
    for (s, o) in rounds {
        match s.shape {
            Shape::Queue => obj.row(format!(
                "{{\"algorithm\": \"{}\", \"shards\": {}, \"policy\": \"{}\", \"sync\": \"{}\", \
                 \"pool_bytes\": {}, \"grow_step\": {}, \"fence_window_us\": {}, \
                 \"growth_epochs\": {}, \"blackbox_events\": {}, \
                 \"confirmed_enqueues\": {}, \"confirmed_dequeues\": {}, \"recovered\": {}, \
                 \"recovery_ms\": {}}}",
                s.algorithm.name(),
                s.shards,
                s.policy.key(),
                s.sync.key(),
                s.pool_bytes,
                s.grow_step,
                s.fence_window_ns / 1_000,
                o.growth_epochs,
                o.blackbox_events,
                o.enqueued,
                o.consumed,
                o.recovered,
                o.recovery.as_secs_f64() * 1e3,
            )),
            Shape::Reshard => {
                let resolution = match o.resolved {
                    Some(shard::ReshardResolution::RolledBack { .. }) => "\"rolled-back\"",
                    Some(shard::ReshardResolution::RolledForward { .. }) => "\"rolled-forward\"",
                    None => "null",
                };
                reshard = format!(
                    "{{\"completed_reshards\": {}, \"resolution\": {}, \
                     \"shards_after\": {}, \"items\": {}}}",
                    o.consumed, resolution, o.shards_after, o.recovered,
                );
            }
            Shape::Leased => {
                lease = format!(
                    "{{\"confirmed_enqueues\": {}, \"confirmed_acks\": {}, \
                     \"held\": {}, \"unacked\": {}, \"redelivered\": {}, \"recovery_ms\": {}}}",
                    o.enqueued,
                    o.consumed,
                    o.held,
                    o.unacked,
                    o.redelivered,
                    o.recovery.as_secs_f64() * 1e3,
                );
            }
            Shape::Grouped | Shape::FenceCells => {}
        }
    }
    obj.section("reshard_kill", reshard);
    obj.section("lease_kill", lease);
    obj.finish()
}

/// Renders one round's outcome as the verb's report line.
pub fn render(s: &Scenario, o: &Outcome) -> String {
    let algorithm = s.algorithm.name();
    match s.shape {
        Shape::Reshard => format!(
            "reshard-kill {algorithm}: {} completed reshards, then SIGKILL mid-reshard; \
             {} -> {} shards, {} items intact, per-key FIFO preserved\n",
            o.consumed,
            o.resolved
                .map_or("no reshard in flight".to_string(), |r| r.summary()),
            o.shards_after,
            o.recovered,
        ),
        Shape::Leased => format!(
            "lease-kill {algorithm}: SIGKILL with {} leases held ({} acked, {} enqueued); \
             {} unacked redelivered ({} with bumped delivery count) in {:.3} ms — \
             no resurrection, poison dead-lettered\n",
            o.held,
            o.consumed,
            o.enqueued,
            o.unacked,
            o.redelivered,
            o.recovery.as_secs_f64() * 1e3,
        ),
        Shape::Grouped | Shape::FenceCells => unreachable!("not a restart round"),
        Shape::Queue => {
            let growth = match o.growth_epochs {
                0 => String::new(),
                n => format!(" (pool grew x{n} past its creation ceiling)"),
            };
            let window = match s.fence_window_ns {
                0 => String::new(),
                ns => format!(" [fence window {}us]", ns / 1_000),
            };
            format!(
                "restart {algorithm} x{} [{}{window}]: {} confirmed enqueues, \
                 {} confirmed dequeues, {} recovered in {:.3} ms — no loss, no duplication, \
                 FIFO intact{growth} [{} blackbox event(s) survived the kill]\n",
                s.shards,
                s.sync.key(),
                o.enqueued,
                o.consumed,
                o.recovered,
                o.recovery.as_secs_f64() * 1e3,
                o.blackbox_events,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard::ReshardResolution::RolledForward;

    fn check(e: impl IntoIterator<Item = u64>, d: &[u64], residues: &[Vec<u64>]) {
        let e = e.into_iter().collect();
        check_suffix(&e, &d.iter().copied().collect(), residues, 1, 1);
    }

    #[test]
    fn suffix_validation_accepts_legal_windows() {
        // 3 is an in-flight dequeue's loss, 11 an unconfirmed enqueue.
        check(1..=10, &[1, 2], &[(4..=11).collect()]);
    }

    #[test]
    #[should_panic(expected = "resurrected")]
    fn suffix_validation_rejects_resurrection() {
        check(1..=5, &[1], &[vec![1, 2, 3, 4, 5]]);
    }

    #[test]
    #[should_panic(expected = "lost")]
    fn suffix_validation_rejects_loss() {
        check(1..=10, &[], &[vec![9, 10]]);
    }

    #[test]
    #[should_panic(expected = "duplicated")]
    fn suffix_validation_rejects_duplication() {
        check(1..=5, &[], &[vec![1, 2], vec![2, 3, 4, 5]]);
    }

    #[test]
    fn restart_json_is_well_formed_with_and_without_reshard() {
        let outcome = |s: &Scenario| match s.shape {
            Shape::Reshard => Outcome {
                consumed: 3,
                resolved: Some(RolledForward { from: 4, to: 2 }),
                shards_after: 2,
                ..Outcome::default()
            },
            Shape::Leased => Outcome {
                enqueued: 5_000,
                redelivered: 181,
                ..Outcome::default()
            },
            _ => Outcome {
                growth_epochs: s.shards as u64 - 1,
                ..Outcome::default()
            },
        };
        let rounds: Vec<(Scenario, Outcome)> =
            (plan(&Scenario::queue(Algorithm::DurableMsq, 1), false).into_iter())
                .map(|s| (s.clone(), outcome(&s)))
                .collect();
        for n in [4, rounds.len()] {
            let json = restart_json(&rounds[..n]);
            let braces = (json.matches('{').count(), json.matches('}').count());
            assert_eq!(braces.0, braces.1, "balanced braces: {json}");
            assert_eq!(json.matches("\"algorithm\"").count(), 4);
            for key in ["\"experiment\": \"restart\"", "\"sync\": \"process-crash\""] {
                assert!(json.contains(key), "{key} in {json}");
            }
            for key in [
                "\"growth_epochs\": 0",
                "\"growth_epochs\": 3",
                "\"grow_step\": 0",
            ] {
                assert!(json.contains(key), "{key} in {json}");
            }
            let nulls =
                json.contains("\"reshard_kill\": null") && json.contains("\"lease_kill\": null");
            assert_eq!(nulls, n == 4, "{json}");
        }
        let json = restart_json(&rounds);
        for key in [
            "\"resolution\": \"rolled-forward\"",
            "\"shards_after\": 2",
            "\"lease_kill\": {\"confirmed_enqueues\": 5000",
            "\"redelivered\": 181",
        ] {
            assert!(json.contains(key), "{key} in {json}");
        }
    }
}
