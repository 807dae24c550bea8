//! SIGKILL rows over a `LeasedQueue`: a consumer killed holding live
//! leases; every unacked lease redelivers exactly once with a bumped
//! delivery count, and no acked item resurfaces.

mod sigkill;

use harness::crash::{Scenario, Shape};
use store::SyncPolicy::{PowerFail, ProcessCrash};

table! {
    killed_consumer_redelivers_unacked_leases_process_crash_tier: Scenario::leased(Shape::Leased, ProcessCrash);
    killed_consumer_redelivers_unacked_leases_power_fail_tier: Scenario::leased(Shape::Leased, PowerFail);
}
