//! SIGKILL rows over a `GroupedQueue`: competing consumers in two groups
//! killed mid-consumption; each group redelivers its unacked items
//! exactly once.

mod sigkill;

use harness::crash::{Scenario, Shape};
use store::SyncPolicy::{PowerFail, ProcessCrash};

table! {
    killed_group_consumers_redeliver_exactly_once_process_crash_tier: Scenario::leased(Shape::Grouped, ProcessCrash);
    killed_group_consumers_redeliver_exactly_once_power_fail_tier: Scenario::leased(Shape::Grouped, PowerFail);
}
