//! SIGKILL rows over a single pool file: an enqueuer and a throttled
//! dequeuer killed mid-traffic, then the linearizable-suffix oracle on the
//! reopened pool. (The clean-restart test is `store`'s `crash_restart.rs`.)

mod sigkill;

use harness::crash::Scenario;
use harness::Algorithm::{DurableMsq, OptUnlinked};
use store::SyncPolicy::PowerFail;

table! {
    // Process-crash tier.
    killed_durable_msq_recovers_without_loss_or_duplication: Scenario::queue(DurableMsq, 1);
    killed_opt_unlinked_recovers_without_loss_or_duplication: Scenario::queue(OptUnlinked, 1);

    // Power-fail tier: window 0 batches only genuinely concurrent fences.
    killed_power_fail_durable_msq_recovers_without_loss_or_duplication: Scenario {
        sync: PowerFail,
        ..Scenario::queue(DurableMsq, 1)
    };
    // A 100 µs window: most fences ride a leader's coalesced msync.
    killed_power_fail_opt_unlinked_recovers_without_loss_or_duplication: Scenario {
        sync: PowerFail,
        fence_window_ns: 100_000,
        ..Scenario::queue(OptUnlinked, 1)
    };
}
