//! Process plumbing for SIGKILL crash rounds.
//!
//! Every crash round above `core` follows one protocol, driven by
//! `harness::crash`: the parent spawns the harness binary's hidden
//! `crash-child` verb, which drives traffic against file-backed pools while
//! acknowledging every completed operation with one `<tag> <value>\n`
//! write syscall; the parent SIGKILLs it mid-traffic (or the child aborts
//! at an env-gated crash point), reopens the files and checks the
//! recovered state against the ack logs. The SIGKILL table in
//! `crates/harness/tests/` runs every scenario through it. This
//! module holds the pieces that need nothing above `core` — progress wait,
//! kill/reap, and the ack log with its torn-tail-tolerant reader.
//!
//! An ack line that reached the kernel survives the kill exactly like the
//! pool's page-cache writes do; a torn trailing line (the kill can land
//! mid-write) is an unacknowledged operation and is ignored.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

/// A fresh scratch directory under the system temp dir, unique per process
/// and test thread; any leftover from a previous run is removed first.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Number of complete lines in `path` (0 when absent). Cheap enough to
/// poll; the full ack parse runs only after the kill.
pub fn count_lines(path: &Path) -> usize {
    std::fs::read(path)
        .map(|raw| raw.iter().filter(|&&b| b == b'\n').count())
        .unwrap_or(0)
}

/// Polls `ready()` until it returns true, panicking if the child exits
/// first (it must die by *our* hand, not its own) or `timeout` elapses.
/// `what` names the awaited condition in the panic messages.
pub fn wait_until(
    child: &mut Child,
    timeout: Duration,
    what: &str,
    mut ready: impl FnMut() -> bool,
) {
    let deadline = Instant::now() + timeout;
    loop {
        if ready() {
            return;
        }
        if let Some(status) = child.try_wait().expect("poll crash-test child") {
            panic!("child exited prematurely ({status}) before {what}");
        }
        assert!(
            Instant::now() < deadline,
            "child did not reach {what} within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// SIGKILLs the child and reaps it — the crash under test.
pub fn kill_and_reap(child: &mut Child) {
    child.kill().expect("SIGKILL crash-test child");
    child.wait().expect("reap crash-test child");
}

/// Parses the complete `<tag> <number>` lines of an ack log. A torn
/// trailing line (no final newline) is ignored, exactly like the
/// unacknowledged operation it is. Each value may be acknowledged at most
/// once (one ack per completed operation): a duplicate panics, as does a
/// complete line that is malformed or carries another tag. Returns the
/// empty set when the file is absent (the kill can land before the child
/// created it).
pub fn read_unique_acks(path: &Path, tag: &str) -> BTreeSet<u64> {
    let Ok(raw) = std::fs::read(path) else {
        return BTreeSet::new();
    };
    let text = String::from_utf8_lossy(&raw);
    let mut out = BTreeSet::new();
    for line in text.split_inclusive('\n') {
        let Some(body) = line.strip_suffix('\n') else {
            break; // torn tail
        };
        let num = body
            .strip_prefix(tag)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|num| num.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("malformed {tag:?} ack line {body:?} in {path:?}"));
        assert!(out.insert(num), "duplicate ack {num} in {path:?}");
    }
    out
}

/// Child-side ack log: one `<tag> <value>\n` line per completed operation,
/// each a single `write` syscall issued strictly *after* the operation
/// returned, so the parent knows exactly which operations were confirmed.
pub struct AckLog {
    file: std::fs::File,
}

impl AckLog {
    /// Creates (truncates) the log at `path`.
    pub fn create(path: impl AsRef<Path>) -> Self {
        AckLog {
            file: std::fs::File::create(path).expect("create ack log"),
        }
    }

    /// Acknowledges one completed operation.
    pub fn record(&mut self, tag: &str, value: u64) {
        self.file
            .write_all(format!("{tag} {value}\n").as_bytes())
            .expect("write ack line");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_logs_ignore_a_torn_tail_and_refuse_duplicates_and_foreign_tags() {
        let dir = scratch_dir("testkit-ack-log");
        let path = dir.join("acks.log");
        let read = |text: &str| {
            std::fs::write(&path, text).unwrap();
            std::panic::catch_unwind(|| read_unique_acks(&path, "A"))
        };
        let torn = read("A 1\nA 2\nA 3").expect("a torn tail is not an error");
        assert_eq!(torn.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(
            read("A 1\nA 2\nA 1\n").is_err(),
            "a duplicate ack must panic"
        );
        assert!(read("A 1\nH 2\n").is_err(), "a foreign tag must panic");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
