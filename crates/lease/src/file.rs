//! One lease journal file — `LEASES.log` or a group's segment — opened,
//! replayed, chopped, appended to and forced through [`JournalFile`]. The
//! two journal formats, [`AckLog`](crate::log::AckLog) and
//! [`SegmentedLog`](crate::segments::SegmentedLog), keep only their
//! headers and their maintenance: compaction, or rotation and retirement.
//!
//! # The zero reserve
//!
//! An `fdatasync` after an append that grew the file must also commit the
//! inode's new size through the file system's journal; one after a write
//! inside the file's existing, written blocks flushes data alone. So under
//! [`SyncPolicy::PowerFail`] a journal file's logical end lies inside a
//! reserve of zeros, written ahead of the records one 4 KiB page at a
//! time: only the force right after an extension commits metadata. The
//! zeros are plainly written: `fallocate` is not in `std`, and an
//! unwritten extent (or a hole) would only move each page's metadata
//! commit to the first record written into it (docs/PERFORMANCE.md
//! measures all three). An extension stops at the file's cap, so a full
//! segment ends exactly at its sealed size. Under `ProcessCrash` nothing
//! is forced and there is no reserve: every file is exactly its header
//! and records. Replay chops the reserve with the crash tail (see
//! [`JournalFile::replay`]), so a file written without one is a prefix of
//! the layout and opens the same way.

use crate::log::{bad_data, Record, RECORD_LEN};
use obs::sys::durable;
use obs::LazyCounter;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use store::SyncPolicy;

static FORCES: LazyCounter = LazyCounter::new("lease.force");

/// How far ahead of its records a power-fail journal file is filled with
/// zeros: one page (see [the zero reserve](self#the-zero-reserve)).
pub(crate) const RESERVE_STEP: u64 = 4096;

/// Atomically replaces `dir/name` with `bytes` (a new journal file,
/// `GROUP.meta`, a compacted `LEASES.log`), forced under
/// [`SyncPolicy::PowerFail`].
pub(crate) fn replace_file(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    sync: SyncPolicy,
) -> io::Result<()> {
    let forced = sync == SyncPolicy::PowerFail;
    durable::replace_file(dir, name, bytes, forced)?;
    #[cfg(test)]
    if forced {
        crate::powerfail::replaced(&dir.join(name), bytes.len() as u64);
    }
    Ok(())
}

/// The open file and where it lives: shared with the [`Force`]s handed
/// out, which outlive the lock hold that appended.
#[derive(Debug)]
struct Target {
    file: File,
    path: PathBuf,
}

impl Target {
    /// `fdatasync`s the file, whose contents end at byte `end` — its
    /// logical end, short of its length when a zero reserve follows. Every
    /// force of a journal file goes through here.
    fn sync(&self, #[cfg_attr(not(test), allow(unused_variables))] end: u64) -> io::Result<()> {
        #[cfg(test)]
        crate::powerfail::crash_point(self.path.parent().expect("a journal lives in a directory"));
        durable::fdatasync(&self.file, &self.path)?;
        #[cfg(test)]
        crate::powerfail::forced(&self.path, end);
        Ok(())
    }
}

/// A journal file open for appends. Single-writer: every call happens
/// under the owning journal's lock. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct JournalFile {
    target: Arc<Target>,
    sync: SyncPolicy,
    /// Where the records end: the next append's offset.
    end: u64,
    /// The file's length: `end`, plus the zero reserve under
    /// [`SyncPolicy::PowerFail`].
    len: u64,
    /// The most bytes the file will ever hold (`u64::MAX` = unbounded); the
    /// reserve stops there.
    cap: u64,
}

impl JournalFile {
    /// Creates the journal file `dir/name` holding `contents` — whole,
    /// through [`replace_file`] — and opens it for appends after them.
    pub(crate) fn create(
        dir: &Path,
        name: &str,
        contents: &[u8],
        sync: SyncPolicy,
        cap: u64,
    ) -> io::Result<JournalFile> {
        replace_file(dir, name, contents, sync)?;
        Ok(JournalFile::open(dir.join(name), sync, cap)?.0)
    }

    /// Opens the journal file at `path` and reads it whole, for its owner
    /// to judge the header before [`replay`](Self::replay) reads the
    /// records.
    pub(crate) fn open(path: PathBuf, sync: SyncPolicy, cap: u64) -> io::Result<(Self, Vec<u8>)> {
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let len = bytes.len() as u64;
        let target = Arc::new(Target { file, path });
        let file = JournalFile {
            target,
            sync,
            end: len,
            len,
            cap,
        };
        Ok((file, bytes))
    }

    /// Hands every record of `bytes` (the file as [`open`](Self::open) read
    /// it) past the `header_len`-byte header to `each`, then chops the
    /// crash tail — forced under [`SyncPolicy::PowerFail`] — so that
    /// appends start where the records end. The records end at the first
    /// slot that does not decode; the tail is that slot (a torn record) and
    /// nothing but zeros (the reserve). A non-zero byte past the slot would
    /// mean the chop silently drops a record, and a `sealed` file was
    /// complete when its successor's header committed, so both are refused
    /// as real damage with an error naming the file. Returns the torn
    /// record's bytes up to its last non-zero one.
    pub(crate) fn replay(
        &mut self,
        bytes: &[u8],
        header_len: usize,
        sealed: bool,
        mut each: impl FnMut(&Record),
    ) -> io::Result<u64> {
        let path = &self.target.path;
        let body = &bytes[header_len..];
        let mut consumed = 0usize;
        while let Some(rec) = body
            .get(consumed..consumed + RECORD_LEN)
            .and_then(Record::decode)
        {
            consumed += RECORD_LEN;
            each(&rec);
        }
        let tail = &body[consumed..];
        if sealed && !tail.is_empty() {
            let what = if tail.len() < RECORD_LEN {
                format!("torn record of {} bytes", tail.len())
            } else {
                format!("corrupt record at byte {}", header_len + consumed)
            };
            return Err(bad_data(path, format!("{what} inside a sealed segment")));
        }
        let slot = RECORD_LEN.min(tail.len());
        if let Some(at) = tail[slot..].iter().position(|&b| b != 0) {
            return Err(bad_data(
                path,
                format!(
                    "corrupt record at byte {} (not at the tail: byte {} after it is not zero; \
                     refusing to drop {} trailing bytes)",
                    header_len + consumed,
                    header_len + consumed + slot + at,
                    tail.len(),
                ),
            ));
        }
        self.end = (header_len + consumed) as u64;
        if !tail.is_empty() {
            self.target.file.set_len(self.end)?;
            self.len = self.end;
            self.sync()?;
        }
        Ok(tail[..slot]
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1) as u64)
    }

    /// Atomically rewrites the file to hold exactly `contents` (a
    /// compaction), as [`create`](Self::create) would, and appends after
    /// them from here on. A [`Force`] still running on the old file covers
    /// only records whose effect `contents` holds.
    pub(crate) fn rewrite(&mut self, contents: &[u8]) -> io::Result<()> {
        let path = &self.target.path;
        let (dir, name) = (path.parent(), path.file_name().and_then(|n| n.to_str()));
        let (dir, name) = dir
            .zip(name)
            .expect("a journal file is named in a directory");
        *self = JournalFile::create(dir, name, contents, self.sync, self.cap)?;
        Ok(())
    }

    /// Writes whole records at the logical end — under
    /// [`SyncPolicy::PowerFail`], into the zero reserve, or with the next
    /// page of it when they would not fit (see
    /// [the zero reserve](self#the-zero-reserve)).
    /// They are durable once a [`force`](Self::force) taken after this call
    /// has run.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let end = self.end + bytes.len() as u64;
        if self.sync == SyncPolicy::PowerFail && end > self.len {
            let reserve = end.next_multiple_of(RESERVE_STEP).min(self.cap);
            let mut extension = bytes.to_vec();
            extension.resize((reserve - self.end) as usize, 0);
            self.target.file.write_all_at(&extension, self.end)?;
            self.len = reserve;
        } else {
            self.target.file.write_all_at(bytes, self.end)?;
        }
        self.end = end;
        self.len = self.len.max(end);
        Ok(())
    }

    /// The force covering everything appended so far, to run once the
    /// caller's lock is released: an `fdatasync` under
    /// [`SyncPolicy::PowerFail`], nothing under `ProcessCrash`, where the
    /// page cache is the durability domain.
    pub(crate) fn force(&self) -> Force {
        Force((self.sync == SyncPolicy::PowerFail).then(|| (Arc::clone(&self.target), self.end)))
    }

    /// Forces everything appended so far now, under the caller's lock: a
    /// maintenance step's ordering across files (rotation, retirement).
    /// Not counted as `lease.force`.
    pub(crate) fn sync(&self) -> io::Result<()> {
        if self.sync == SyncPolicy::PowerFail {
            self.target.sync(self.end)?;
        }
        Ok(())
    }

    /// Where the records end.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// The file's path.
    pub(crate) fn path(&self) -> &Path {
        &self.target.path
    }
}

/// The second step of making appended records durable: a handle on the
/// file a journal appended to, to be [`run`](Force::run) once the state
/// lock is released. Forcing a file covers every byte written to it
/// before the force began, whoever wrote it; the handle promises the
/// bytes up to the file's logical end when it was taken.
#[derive(Default)]
pub(crate) struct Force(Option<(Arc<Target>, u64)>);

impl Force {
    /// Forces the file; counted as `lease.force`.
    pub(crate) fn run(&self) -> io::Result<()> {
        if let Some((target, end)) = &self.0 {
            target.sync(*end)?;
            FORCES.incr();
        }
        Ok(())
    }

    /// The file this force syncs, if any.
    pub(crate) fn path(&self) -> Option<&Path> {
        self.0.as_ref().map(|(target, _)| target.path.as_path())
    }
}
