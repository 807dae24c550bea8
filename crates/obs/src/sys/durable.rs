//! How bytes become durable: every sync the workspace issues, with one
//! failure policy and one fault injector.
//!
//! Below the pool words (persisted by the paper's flush + fence
//! discipline) the stack reaches the disk four ways, one helper each —
//! [`msync`], [`fdatasync`], [`fsync`], [`sync_dir`] — and replaces files
//! atomically one way, [`replace_file`]. No other code calls `sync_all`,
//! `sync_data` or `msync`; CI greps for it.
//!
//! Every helper returns `io::Result` and counts a failure as `sync.error`.
//! A caller that has promised nothing yet (a create, an open, a growth, a
//! rewrite) propagates the error. One that promises durability by
//! returning (a fence, a root-slot write, a checkpoint, a journal force)
//! calls [`durability_lost`]: the failed sync may have marked the pages
//! clean, so no retry proves them durable, and the process panics naming
//! the file. A pool's close, which can do neither, leaves the pool dirty.
//!
//! [`fail_nth`] fails the `n`-th sync of one [`SyncKind`] under a path with
//! `EIO`. Keyed by path, a fault reaches whichever thread syncs the file (a
//! group-commit leader, a journal's out-of-lock forcer) and leaves tests in
//! other directories alone. Unarmed, it costs one relaxed load per sync.

use super::{page_size, MmapRegion};
use crate::{locked, LazyCounter};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static SYNC_ERROR: LazyCounter = LazyCounter::new("sync.error");
const MS_SYNC: i32 = 4;
const EIO: i32 = 5;

/// The four ways bytes are made durable, each named after its helper
/// ([`sync_dir`] is `Dir`): what a [`Fault`] targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncKind {
    Msync,
    Fdatasync,
    Fsync,
    Dir,
}

/// `msync(MS_SYNC)` of the pages of `map` overlapping `[offset, offset +
/// len)`, rounded out to page boundaries; `map` maps the file at `path`.
pub fn msync(map: &MmapRegion, offset: usize, len: usize, path: &Path) -> io::Result<()> {
    if len == 0 {
        return Ok(());
    }
    assert!(
        offset.checked_add(len).is_some_and(|end| end <= map.len),
        "msync range out of bounds"
    );
    let start = offset & !(page_size() - 1);
    synced(SyncKind::Msync, path, || {
        // SAFETY: [start, offset + len) is page-rounded and was just
        // checked to lie inside the mapping.
        let rc = unsafe { super::msync(map.ptr.add(start).cast(), offset + len - start, MS_SYNC) };
        (rc == 0).then_some(()).ok_or_else(io::Error::last_os_error)
    })
}

/// `fdatasync(2)` of `file`, which lives at `path`: its data, and the
/// metadata needed to read it back (its length).
pub fn fdatasync(file: &File, path: &Path) -> io::Result<()> {
    synced(SyncKind::Fdatasync, path, || file.sync_data())
}

/// `fsync(2)` of `file`, which lives at `path`: its data and metadata.
pub fn fsync(file: &File, path: &Path) -> io::Result<()> {
    synced(SyncKind::Fsync, path, || file.sync_all())
}

/// Persists `dir`'s entries: the creations, renames and unlinks in it.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    synced(SyncKind::Dir, dir, || File::open(dir)?.sync_all())
}

/// Atomically replaces `dir/name` with `bytes`, through `name.tmp` and a
/// rename: a crash leaves the old file or the new one.
/// When `durable`, a power failure does too: the tmp file is
/// [`fdatasync`]ed before the rename and the directory [synced](sync_dir)
/// after it. Otherwise the page cache is trusted, as against a process
/// crash.
pub fn replace_file(dir: &Path, name: &str, bytes: &[u8], durable: bool) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    if durable {
        fdatasync(&file, &tmp)?;
    }
    std::fs::rename(&tmp, dir.join(name))?;
    if durable {
        sync_dir(dir)?;
    }
    Ok(())
}

/// The policy for a failed sync whose caller promises durability by
/// returning: panic, naming the file and the sync (`what`).
pub fn durability_lost(path: &Path, what: &str, err: io::Error) -> ! {
    panic!(
        "{what} of {} failed: {err}; what it holds on the medium is now \
         unknowable, restart and recover",
        path.display()
    )
}

/// Runs one sync of `kind` on `path`, unless a fault fails it, and counts
/// a failure.
fn synced(kind: SyncKind, path: &Path, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
    let result = if ARMED.load(Ordering::Relaxed) > 0 && injected(kind, path) {
        Err(io::Error::from_raw_os_error(EIO))
    } else {
        sync()
    };
    if result.is_err() {
        SYNC_ERROR.incr();
    }
    result
}

static FAULTS: Mutex<Vec<Arc<Armed>>> = Mutex::new(Vec::new());
/// How many faults are armed: all an unarmed sync reads.
static ARMED: AtomicUsize = AtomicUsize::new(0);

struct Armed {
    under: PathBuf,
    kind: SyncKind,
    nth: u64,
    seen: AtomicU64,
}

/// Counts one sync against every fault it matches; true if it is the
/// `nth` of one.
fn injected(kind: SyncKind, path: &Path) -> bool {
    let mut hit = false;
    for f in locked(&FAULTS).iter() {
        if f.kind == kind && path.starts_with(&f.under) {
            hit |= f.seen.fetch_add(1, Ordering::Relaxed) + 1 == f.nth;
        }
    }
    hit
}

/// An armed fault (test support); dropping it disarms it.
pub struct Fault(Arc<Armed>);

/// Arms a fault: the `nth` sync (1-based) of `kind` on a path under
/// `under` fails with `EIO`, once. `nth` 0 never fires: the fault only
/// counts, which is how a test learns how many syncs an operation issues.
pub fn fail_nth(under: impl Into<PathBuf>, kind: SyncKind, nth: u64) -> Fault {
    let armed = Arc::new(Armed {
        under: under.into(),
        kind,
        nth,
        seen: AtomicU64::new(0),
    });
    locked(&FAULTS).push(Arc::clone(&armed));
    ARMED.fetch_add(1, Ordering::Relaxed);
    Fault(armed)
}

impl Fault {
    /// Syncs this fault has matched so far, the failed one included.
    pub fn seen(&self) -> u64 {
        self.0.seen.load(Ordering::Relaxed)
    }

    /// Whether this fault has failed its sync.
    pub fn fired(&self) -> bool {
        self.0.nth > 0 && self.seen() >= self.0.nth
    }
}

impl Drop for Fault {
    fn drop(&mut self) {
        locked(&FAULTS).retain(|f| !Arc::ptr_eq(f, &self.0));
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `sync.error` is process-global: the tests that fail syncs take turns.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        locked(&SERIAL)
    }

    #[test]
    fn a_fault_fails_exactly_the_nth_sync_of_its_kind_under_its_path() {
        let _serial = serial();
        let dir = temp_dir("nth");
        let path = dir.join("file");
        let file = File::create(&path).unwrap();
        let before = crate::snapshot();
        let fault = fail_nth(&dir, SyncKind::Fdatasync, 2);
        fsync(&file, &path).unwrap(); // another kind
        fdatasync(&file, Path::new("/elsewhere")).unwrap(); // another path
        fdatasync(&file, &path).unwrap();
        assert!(!fault.fired());
        let err = fdatasync(&file, &path).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        fdatasync(&file, &path).unwrap(); // once only
        assert_eq!((fault.seen(), fault.fired()), (3, true));
        drop(fault);
        let counting = fail_nth(&dir, SyncKind::Dir, 0);
        sync_dir(&dir).unwrap();
        assert_eq!((counting.seen(), counting.fired()), (1, false));
        if cfg!(feature = "instrument") {
            let after = crate::snapshot();
            assert_eq!(
                after.counter("sync.error") - before.counter("sync.error"),
                1
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replacement_is_whole_or_absent() {
        let _serial = serial();
        let dir = temp_dir("replace");
        let read = || std::fs::read(dir.join("meta")).unwrap();
        replace_file(&dir, "meta", b"old", true).unwrap();
        {
            let _fault = fail_nth(&dir, SyncKind::Fdatasync, 1);
            assert!(replace_file(&dir, "meta", b"new", true).is_err());
        }
        assert_eq!(read(), b"old", "a failed force must stop the rename");
        {
            let _fault = fail_nth(&dir, SyncKind::Dir, 1);
            assert!(replace_file(&dir, "meta", b"new", true).is_err());
        }
        let _fault = fail_nth(&dir, SyncKind::Fdatasync, 1);
        replace_file(&dir, "meta", b"plain", false).unwrap();
        assert_eq!(read(), b"plain");
        assert!(!dir.join("meta.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_lost_names_the_file_and_the_sync() {
        let path = Path::new("/data/q/shard-00.pool");
        let died = std::panic::catch_unwind(|| {
            durability_lost(path, "fence msync", io::Error::from_raw_os_error(EIO))
        });
        let message = *died.unwrap_err().downcast::<String>().unwrap();
        assert!(message.starts_with("fence msync of /data/q/shard-00.pool failed"));
    }
}
