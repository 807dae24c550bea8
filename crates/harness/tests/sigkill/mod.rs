//! The SIGKILL table's row driver. Every real process-crash scenario above
//! `core` is one `#[test]` row of a suite in `crates/harness/tests/`
//! (`crash_restart`, `grow_restart`, `elastic_growth`, `group_commit_crash`,
//! `dir_restart`, `reshard`, `consumer_kill`, `group_kill`), run end to end
//! by `harness::crash::run` with the built harness binary as the child.
//! There is no other entry point: a new crash round is a new row.

use harness::crash::{run, Scenario};
use std::path::Path;

/// Runs `scenario` in a fresh directory named after the row.
pub fn run_row(name: &str, scenario: Scenario) {
    let dir = std::env::temp_dir().join(format!("sigkill-{name}-{}", std::process::id()));
    let exe = Path::new(env!("CARGO_BIN_EXE_harness"));
    run(exe, &Scenario { dir, ..scenario });
}

/// One `#[test]` per `name: scenario;` row, so a failure names its
/// scenario.
#[macro_export]
macro_rules! table {
    ($($name:ident: $scenario:expr;)*) => {$(
        #[test]
        fn $name() {
            sigkill::run_row(stringify!($name), $scenario);
        }
    )*};
}
