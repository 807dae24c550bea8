//! Resharding crash rows: the reshard protocol's two crash points in the
//! first reshard (4 -> 2), and SIGKILLs at varied points inside
//! `reshard_dir`, for each algorithm and on each durability tier. (The
//! split/merge proptests are `shard`'s `reshard.rs`.)

mod sigkill;

use harness::crash::Scenario;
use harness::Algorithm::DurableMsq;
use store::SyncPolicy::PowerFail;

table! {
    abort_after_intent_rolls_back_to_the_source_count:
        Scenario::reshard(1_200, 0, 0).aborting_at("DQ_RESHARD_ABORT_AFTER_INTENT");
    abort_after_commit_rolls_forward_to_the_destination_count:
        Scenario::reshard(1_200, 0, 0).aborting_at("DQ_RESHARD_ABORT_AFTER_COMMIT");
    // The ratio baseline's directories reshard too.
    durable_msq_sigkill_mid_reshard_recovers_to_a_consistent_state: Scenario {
        algorithm: DurableMsq,
        ..Scenario::reshard(1_200, 1, 5)
    };
    // Every source and destination pool fences through msync.
    power_fail_sigkill_mid_reshard_recovers_to_a_consistent_state: Scenario {
        algorithm: DurableMsq,
        sync: PowerFail,
        ..Scenario::reshard(1_200, 1, 5)
    };
}

/// SIGKILL at varied points inside `reshard_dir` (and occasionally between
/// reshards): (completed reshards, jitter ms) per round.
#[test]
fn sigkill_mid_reshard_recovers_to_a_consistent_state() {
    for (min_reshards, jitter_ms) in [(1, 0), (2, 3), (1, 7), (3, 11)] {
        sigkill::run_row(
            &format!("reshard-{min_reshards}-{jitter_ms}"),
            Scenario::reshard(1_200, min_reshards, jitter_ms),
        );
    }
}
