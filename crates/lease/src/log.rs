//! The durable ack log behind peek-lock consumption.
//!
//! Every lease-state transition is one fixed-size, CRC-protected record
//! appended to a sidecar file (`LEASES.log`) next to the queue's pool
//! file(s) — the same enq/ack-pair discipline message stores like LavinMQ
//! use, collapsed into a single append-only file. The log is the durable
//! authority on which dequeued items are still owned by a consumer: on
//! restart it is replayed sequentially and every lease without a terminal
//! record ([`ACK`](RecordKind::Ack) or [`DEAD`](RecordKind::Dead)) becomes
//! redeliverable.
//!
//! # Record linkage
//!
//! Item *values* are not unique (a queue may carry the same `u64` twice),
//! so redelivery cannot retire the superseded lease by item. Instead every
//! [`GRANT`](RecordKind::Grant) carries `prev_lease_id` — the lease it
//! re-delivers (`0` for a fresh dequeue from the base queue) — and replay
//! retires `prev` before registering the new lease. The chain
//! `GRANT(id=5) → PEND(5, next) → GRANT(9, prev=5) → ACK(9)` therefore
//! nets out to nothing, while a crash after the `PEND` leaves exactly one
//! redeliverable entry.
//!
//! # Header: id high-water mark and generation
//!
//! The header carries two u64s besides the magic/version:
//!
//! * **`next_lease_id`** — the id high-water mark at the last
//!   create/compaction. Compaction snapshots only *live* leases, so when
//!   the highest-numbered leases are all settled their GRANT records — the
//!   only other witnesses of the high-water mark — vanish with the retired
//!   prefix. Persisting the mark in the header (rewritten by every
//!   compaction) keeps lease ids monotonic across restarts; replay seeds
//!   from the header and maxes in the surviving records.
//! * **`generation`** — a non-zero value chosen once at
//!   [`AckLog::create`] and carried unchanged through every compaction: the
//!   log's identity. The exactly-once cursor stamps each acked lease id
//!   with the generation it was acked under, and recovery ignores cursor
//!   entries from other generations — a stale cursor paired with a
//!   recreated log can therefore never repair-ack an unrelated lease.
//!
//! # Durability
//!
//! The file is written and forced through the crate's one journal-file
//! writer, as every journal file is: one `pwrite` per append, made durable
//! under [`SyncPolicy::PowerFail`] by an `fdatasync` before the operation
//! returns (the engine forces outside its lock), into a zero reserve
//! written one 4 KiB page ahead so that the force flushes data only
//! (docs/FORMATS.md); the default process-crash tier trusts the page
//! cache, as the pool files do, and its file is exactly header and
//! records.
//! [`AckLog::compact`] is the one place where two files are in play: it
//! forces the snapshot before the rename, under the lock, and from then on
//! hands out forces of the new file — one still running on the old file
//! covers only records whose effect the snapshot already holds.
//!
//! Replay tolerates a torn final record (it, and any reserve after it, is
//! chopped, never trusted; a clean reserve stays) but refuses a corrupt
//! header or a CRC mismatch in the *interior* of the file, which indicate
//! real damage rather than a mid-append crash.

use crate::engine::Journal;
use crate::file::JournalFile;
use obs::flight::EventKind;
use obs::LazyCounter;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use store::{crc32, SyncPolicy};

static COMPACTIONS: LazyCounter = LazyCounter::new("lease.compaction");

/// File name of the ack log inside a leased-queue directory.
pub const LEASE_LOG_FILE: &str = "LEASES.log";

/// Magic bytes opening the log file.
pub const LOG_MAGIC: [u8; 8] = *b"DQLEASE1";

/// Current format version.
pub const LOG_VERSION: u32 = 2;

/// Size of the file header in bytes (magic + version + next lease id +
/// generation + header CRC).
pub const HEADER_LEN: usize = 32;

/// Size of every record in bytes.
pub const RECORD_LEN: usize = 40;

/// The four lease-state transitions a record can encode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum RecordKind {
    /// An item left the base queue (or the redelivery set) and is now owned
    /// by lease `lease_id`; `prev_lease_id` is the superseded lease this
    /// grant re-delivers (`0` = fresh from the base queue).
    Grant = 1,
    /// Lease `lease_id` was acknowledged: the item is consumed and will
    /// never be redelivered.
    Ack = 2,
    /// Lease `lease_id` was nacked or expired: the item awaits redelivery
    /// with `delivery_count` as its *next* attempt number. Also written by
    /// compaction as the snapshot form of a pending entry, so replay treats
    /// it as an upsert (it may appear without a preceding grant).
    Pend = 3,
    /// Lease `lease_id` exceeded its delivery budget; the item was durably
    /// moved to the dead-letter queue (the DLQ enqueue happens *before*
    /// this record, so a crash between the two duplicates into the DLQ
    /// rather than losing the item).
    Dead = 4,
}

impl RecordKind {
    pub(crate) fn from_u32(v: u32) -> Option<Self> {
        match v {
            1 => Some(RecordKind::Grant),
            2 => Some(RecordKind::Ack),
            3 => Some(RecordKind::Pend),
            4 => Some(RecordKind::Dead),
            _ => None,
        }
    }
}

/// One fixed-size log record. See [`RecordKind`] for the semantics of each
/// field per kind; byte layout is documented in `docs/FORMATS.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// The transition this record encodes.
    pub kind: RecordKind,
    /// Attempt number: for [`Grant`](RecordKind::Grant) the count of *this*
    /// delivery (first delivery = 1); for [`Pend`](RecordKind::Pend) the
    /// count the *next* delivery will carry; `0` for terminal records.
    pub delivery_count: u32,
    /// The lease this record is about.
    pub lease_id: u64,
    /// The item value (meaningful for `Grant`/`Pend`; `0` for terminals).
    pub item: u64,
    /// For `Grant`: the lease this grant supersedes (`0` = none).
    pub prev_lease_id: u64,
}

impl Record {
    /// `GRANT`: lease `id` now owns `item` on its `delivery_count`-th
    /// delivery, superseding lease `prev` (`0` = none).
    pub(crate) fn grant(id: u64, item: u64, delivery_count: u32, prev: u64) -> Record {
        Record {
            kind: RecordKind::Grant,
            delivery_count,
            lease_id: id,
            item,
            prev_lease_id: prev,
        }
    }

    /// `PEND`: `item` awaits a delivery that will carry `next_count`,
    /// under lease id `id`.
    pub(crate) fn pend(id: u64, item: u64, next_count: u32) -> Record {
        Record {
            kind: RecordKind::Pend,
            delivery_count: next_count,
            lease_id: id,
            item,
            prev_lease_id: 0,
        }
    }

    /// A terminal record (`ACK` or `DEAD`) for lease `id`.
    pub(crate) fn terminal(kind: RecordKind, id: u64) -> Record {
        Record {
            kind,
            delivery_count: 0,
            lease_id: id,
            item: 0,
            prev_lease_id: 0,
        }
    }

    /// What this record does to the live set.
    pub(crate) fn effect(&self) -> Effect {
        let (retired, live) = match self.kind {
            RecordKind::Grant => (
                (self.prev_lease_id != 0).then_some(self.prev_lease_id),
                Some(self.lease_id),
            ),
            RecordKind::Pend => (None, Some(self.lease_id)),
            RecordKind::Ack | RecordKind::Dead => (Some(self.lease_id), None),
        };
        Effect { retired, live }
    }

    pub(crate) fn encode(&self) -> [u8; RECORD_LEN] {
        let mut buf = [0u8; RECORD_LEN];
        buf[0..4].copy_from_slice(&(self.kind as u32).to_le_bytes());
        buf[4..8].copy_from_slice(&self.delivery_count.to_le_bytes());
        buf[8..16].copy_from_slice(&self.lease_id.to_le_bytes());
        buf[16..24].copy_from_slice(&self.item.to_le_bytes());
        buf[24..32].copy_from_slice(&self.prev_lease_id.to_le_bytes());
        let crc = crc32(&buf[0..32]);
        buf[32..36].copy_from_slice(&crc.to_le_bytes());
        // buf[36..40] stays zero (pad).
        buf
    }

    /// Decodes one record, or `None` if the CRC or kind is invalid (a torn
    /// or never-written tail).
    pub(crate) fn decode(buf: &[u8]) -> Option<Record> {
        debug_assert_eq!(buf.len(), RECORD_LEN);
        let stored = u32::from_le_bytes(buf[32..36].try_into().unwrap());
        if crc32(&buf[0..32]) != stored {
            return None;
        }
        let kind = RecordKind::from_u32(u32::from_le_bytes(buf[0..4].try_into().unwrap()))?;
        Some(Record {
            kind,
            delivery_count: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            lease_id: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            item: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            prev_lease_id: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        })
    }
}

/// The change one [`Record`] makes to the live set: the lease it retires,
/// then the lease it makes (or keeps) live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Effect {
    pub retired: Option<u64>,
    pub live: Option<u64>,
}

/// A lease that was live (no terminal record) when the log ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveLease {
    /// The item the lease owns.
    pub item: u64,
    /// For a granted lease: the delivery count it was granted with. For a
    /// pending lease: the count its next delivery must carry.
    pub delivery_count: u32,
    /// Whether the lease was granted (in a consumer's hands at the crash)
    /// or pending redelivery (nacked/expired, not yet regranted).
    pub granted: bool,
}

/// What replaying the log reconstructed.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Every lease without a terminal record, keyed (and therefore ordered)
    /// by lease id — grant order, since ids are monotonic.
    pub live: BTreeMap<u64, LiveLease>,
    /// The first id the next life may grant: the header's persisted
    /// high-water mark maxed with `lease id + 1` over the replayed records,
    /// so ids stay monotonic even when compaction retired every record that
    /// witnessed the previous maximum.
    pub next_lease_id: u64,
    /// The log's generation (see the [module docs](self)); exactly-once
    /// cursor entries stamped with a different generation belong to another
    /// log and must be ignored.
    pub generation: u64,
    /// Valid records replayed.
    pub records: u64,
    /// Terminal `ACK` records seen.
    pub acked: u64,
    /// Terminal `DEAD` records seen.
    pub dead: u64,
    /// Bytes dropped at the tail as a torn final append (0 or a partial /
    /// corrupt record's worth), up to the record's last non-zero byte: the
    /// zero reserve is not counted.
    pub torn_bytes: u64,
}

impl Replay {
    /// Folds one valid record into the reconstruction — the one place that
    /// knows what each [`RecordKind`] means for the live set, shared by
    /// every log format. Returns the record's [`effect`](Record::effect)
    /// for callers that track where live leases reside.
    pub(crate) fn apply(&mut self, rec: &Record) -> Effect {
        self.records += 1;
        self.next_lease_id = self.next_lease_id.max(rec.lease_id + 1);
        let effect = rec.effect();
        if let Some(id) = effect.retired {
            self.live.remove(&id);
        }
        if let Some(id) = effect.live {
            self.live.insert(
                id,
                LiveLease {
                    item: rec.item,
                    delivery_count: rec.delivery_count,
                    granted: rec.kind == RecordKind::Grant,
                },
            );
        }
        match rec.kind {
            RecordKind::Ack => self.acked += 1,
            RecordKind::Dead => self.dead += 1,
            RecordKind::Grant | RecordKind::Pend => {}
        }
        effect
    }
}

fn header_bytes(next_lease_id: u64, generation: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&LOG_MAGIC);
    h[8..12].copy_from_slice(&LOG_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&next_lease_id.to_le_bytes());
    h[20..28].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&h[0..28]);
    h[28..32].copy_from_slice(&crc.to_le_bytes());
    h
}

/// A fresh, non-zero log generation: wall-clock nanoseconds mixed with the
/// process id, with a process-wide sequence in the low 16 bits so two
/// creates inside one clock tick still differ. Zero is reserved as the
/// cursor's "no generation" value, and collisions across recreations of
/// one deployment's log are what matter — within a process the sequence
/// rules them out, across processes the pid/nanosecond mix makes them
/// vanishingly unlikely.
pub(crate) fn fresh_generation() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed) & 0xFFFF;
    (((nanos ^ ((std::process::id() as u64) << 32)) & !0xFFFF) | seq).max(1)
}

pub(crate) fn bad_data(path: &Path, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", path.display()),
    )
}

/// The append-only ack log. All mutation goes through the owning
/// `LeasedQueue`'s lock, so the log itself is single-writer.
#[derive(Debug)]
pub struct AckLog {
    file: JournalFile,
    /// The log's identity, fixed at create time and preserved by
    /// compaction (see the [module docs](self)).
    generation: u64,
    /// Compact once the file holds more than this many records *and*
    /// retired records dominate live ones 4:1 (`0` = never; the owner's
    /// [`LeaseConfig::compact_after`](crate::LeaseConfig::compact_after)).
    compact_after: u64,
    /// Compactions performed since open.
    compactions: u64,
}

impl AckLog {
    /// Creates a fresh, empty log at `dir/`[`LEASE_LOG_FILE`], truncating
    /// any previous one. Under [`SyncPolicy::PowerFail`] the header and the
    /// directory entry are fsync'd before returning.
    pub fn create(dir: &Path, sync: SyncPolicy) -> io::Result<AckLog> {
        std::fs::create_dir_all(dir)?;
        let generation = fresh_generation();
        // Ids start at 1 (0 is the "no previous lease" sentinel), so a
        // fresh log's high-water mark is 1.
        let header = header_bytes(1, generation);
        Ok(AckLog {
            file: JournalFile::create(dir, LEASE_LOG_FILE, &header, sync, u64::MAX)?,
            generation,
            compact_after: 0,
            compactions: 0,
        })
    }

    /// Opens and replays the log at `dir/`[`LEASE_LOG_FILE`], returning the
    /// reconstructed lease state alongside the log (positioned for further
    /// appends). A missing file is not an error — it becomes a fresh log
    /// with an empty replay, so a directory that never leased opens
    /// cleanly. A torn final record is dropped; a corrupt header or an
    /// interior CRC mismatch is refused with an error naming the file.
    pub fn replay(dir: &Path, sync: SyncPolicy) -> io::Result<(AckLog, Replay)> {
        let (mut file, bytes) = match JournalFile::open(dir.join(LEASE_LOG_FILE), sync, u64::MAX) {
            Ok(opened) => opened,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let log = AckLog::create(dir, sync)?;
                let replay = Replay {
                    next_lease_id: 1,
                    generation: log.generation,
                    ..Replay::default()
                };
                return Ok((log, replay));
            }
            Err(e) => return Err(e),
        };
        let path = file.path();
        if bytes.len() < HEADER_LEN {
            return Err(bad_data(
                path,
                format!("truncated header ({} of {HEADER_LEN} bytes)", bytes.len()),
            ));
        }
        if bytes[0..8] != LOG_MAGIC {
            return Err(bad_data(path, format!("bad magic {:?}", &bytes[0..8])));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let header_next_id = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let generation = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let stored = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        if crc32(&bytes[0..28]) != stored {
            return Err(bad_data(
                path,
                format!(
                    "header CRC mismatch (expected {:08x}, found {stored:08x})",
                    crc32(&bytes[0..28])
                ),
            ));
        }
        if version != LOG_VERSION {
            return Err(bad_data(
                path,
                format!("unsupported version {version} (this build reads {LOG_VERSION})"),
            ));
        }
        let mut replay = Replay {
            next_lease_id: header_next_id,
            generation,
            ..Replay::default()
        };
        replay.torn_bytes = file.replay(&bytes, HEADER_LEN, false, |rec| {
            replay.apply(rec);
        })?;
        let log = AckLog {
            file,
            generation,
            compact_after: 0,
            compactions: 0,
        };
        Ok((log, replay))
    }

    /// Appends one record (a single `pwrite`; `fdatasync`'d under
    /// [`SyncPolicy::PowerFail`]).
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        Journal::append(self, rec, 0)?;
        self.file.force().run()
    }

    /// Atomically rewrites the log to contain exactly `live` (the snapshot
    /// form of the current lease state), discarding the retired prefix, so
    /// a killed process leaves either the old or the new log. Under
    /// [`SyncPolicy::PowerFail`] the replacement is forced, like the shard
    /// manifest's; under `ProcessCrash` the page cache is trusted, as it is
    /// by [`create`](Self::create) and [`append`](Self::append).
    ///
    /// `next_lease_id` is the caller's id high-water mark, persisted in the
    /// rewritten header: the snapshot holds only *live* leases, so without
    /// it a snapshot taken after the highest ids settled would lose the
    /// mark and a later replay would hand out already-used ids. The
    /// generation is carried through unchanged — compaction does not change
    /// which log this is.
    pub fn compact(
        &mut self,
        next_lease_id: u64,
        live: impl IntoIterator<Item = Record>,
    ) -> io::Result<()> {
        let mut buf: Vec<u8> = header_bytes(next_lease_id, self.generation).to_vec();
        for rec in live {
            buf.extend_from_slice(&rec.encode());
        }
        self.file.rewrite(&buf)
    }

    /// Records in the file since the last create/compaction.
    pub fn records(&self) -> u64 {
        (self.file.end() - HEADER_LEN as u64) / RECORD_LEN as u64
    }

    /// The log's generation: its identity, fixed at create time and
    /// preserved by compaction (see the [module docs](self)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Arms compaction on the settlement path (`0` = never, the default).
    pub(crate) fn set_compact_after(&mut self, records: u64) {
        self.compact_after = records;
    }

    /// Compactions performed since open.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }
}

impl Journal for AckLog {
    fn append(&mut self, rec: &Record, _next_lease_id: u64) -> io::Result<()> {
        // The header's id mark is only rewritten by compaction; between
        // compactions the GRANT records themselves witness it.
        self.file.append(&rec.encode())
    }

    fn file(&self) -> &JournalFile {
        &self.file
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    /// Compacts when retired records dominate the live set 4:1 past the
    /// configured floor — the "acked prefix dominates" test. `live` only
    /// holds live leases, so the id high-water mark rides the rewritten
    /// header — without it, settling the highest-numbered leases and then
    /// crashing would reuse their ids.
    fn after_terminal(
        &mut self,
        next_lease_id: u64,
        live_len: usize,
        live: impl Iterator<Item = Record>,
    ) -> io::Result<()> {
        let records = self.records();
        if self.compact_after == 0
            || records <= self.compact_after
            || records <= live_len as u64 * 4
        {
            return Ok(());
        }
        self.compact(next_lease_id, live)?;
        self.compactions += 1;
        COMPACTIONS.incr();
        obs::flight::record(EventKind::LeaseCompaction, self.records(), 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn grant(id: u64, item: u64, dc: u32, prev: u64) -> Record {
        Record {
            kind: RecordKind::Grant,
            delivery_count: dc,
            lease_id: id,
            item,
            prev_lease_id: prev,
        }
    }

    fn terminal(kind: RecordKind, id: u64) -> Record {
        Record {
            kind,
            delivery_count: 0,
            lease_id: id,
            item: 0,
            prev_lease_id: 0,
        }
    }

    #[test]
    fn roundtrip_reconstructs_live_leases() {
        let dir = tmp("roundtrip");
        let mut log = AckLog::create(&dir, SyncPolicy::PowerFail).unwrap();
        log.append(&grant(1, 100, 1, 0)).unwrap();
        log.append(&grant(2, 200, 1, 0)).unwrap();
        log.append(&terminal(RecordKind::Ack, 1)).unwrap();
        // Lease 2 nacked, regranted as 3, then dead-lettered.
        log.append(&Record {
            kind: RecordKind::Pend,
            delivery_count: 2,
            lease_id: 2,
            item: 200,
            prev_lease_id: 0,
        })
        .unwrap();
        log.append(&grant(3, 200, 2, 2)).unwrap();
        log.append(&terminal(RecordKind::Dead, 3)).unwrap();
        log.append(&grant(4, 400, 1, 0)).unwrap();
        drop(log);

        let (log, replay) = AckLog::replay(&dir, SyncPolicy::PowerFail).unwrap();
        assert_eq!(log.records(), 7);
        assert_eq!(replay.records, 7);
        assert_eq!(replay.acked, 1);
        assert_eq!(replay.dead, 1);
        assert_eq!(replay.next_lease_id, 5);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.live.len(), 1);
        assert_eq!(
            replay.live[&4],
            LiveLease {
                item: 400,
                delivery_count: 1,
                granted: true
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_chopped() {
        let dir = tmp("torn");
        let mut log = AckLog::create(&dir, SyncPolicy::default()).unwrap();
        log.append(&grant(1, 10, 1, 0)).unwrap();
        log.append(&grant(2, 20, 1, 0)).unwrap();
        drop(log);
        // Simulate an append torn mid-record.
        let path = dir.join(LEASE_LOG_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; RECORD_LEN - 7]).unwrap();
        drop(f);

        let (mut log, replay) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(replay.torn_bytes, (RECORD_LEN - 7) as u64);
        assert_eq!(replay.live.len(), 2);
        // The tail was chopped: a fresh append lands on a record boundary
        // and replays cleanly.
        log.append(&terminal(RecordKind::Ack, 1)).unwrap();
        drop(log);
        let (_, replay) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.live.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn file_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join(LEASE_LOG_FILE)).unwrap().len()
    }

    /// Under power-fail the file's length — the metadata a force must
    /// commit — moves once per reserved page, not once per append.
    #[test]
    fn power_fail_appends_grow_the_file_a_page_at_a_time() {
        let dir = tmp("reserve");
        let mut log = AckLog::create(&dir, SyncPolicy::PowerFail).unwrap();
        let mut lengths = vec![file_len(&dir)];
        for i in 1..=300u64 {
            log.append(&grant(i, i, 1, 0)).unwrap();
            if file_len(&dir) != *lengths.last().unwrap() {
                lengths.push(file_len(&dir));
            }
        }
        assert_eq!(log.file.end(), 32 + 300 * 40);
        assert_eq!(lengths, [32, 4096, 8192, 12288]);
        let bytes = std::fs::read(dir.join(LEASE_LOG_FILE)).unwrap();
        assert!(bytes[12032..].iter().all(|&b| b == 0));
        drop(log);
        let (mut log, replay) = AckLog::replay(&dir, SyncPolicy::PowerFail).unwrap();
        assert_eq!((replay.records, replay.torn_bytes), (300, 0));
        assert_eq!(file_len(&dir), 12288, "replay chopped a clean reserve");
        log.append(&grant(301, 301, 1, 0)).unwrap();
        assert_eq!(file_len(&dir), 12288, "append 301 grew the file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A file written before the reserve — records, then EOF — is a prefix
    /// of the reserved layout: it replays, and appends reserve after it.
    #[test]
    fn a_log_without_a_reserve_replays_and_takes_appends() {
        let dir = tmp("no-reserve");
        let mut bytes = header_bytes(1, 7).to_vec();
        for i in 1..=3u64 {
            bytes.extend_from_slice(&grant(i, i * 10, 1, 0).encode());
        }
        std::fs::write(dir.join(LEASE_LOG_FILE), &bytes).unwrap();

        let (mut log, replay) = AckLog::replay(&dir, SyncPolicy::PowerFail).unwrap();
        assert_eq!((replay.records, replay.torn_bytes), (3, 0));
        assert_eq!((replay.generation, replay.next_lease_id), (7, 4));
        log.append(&terminal(RecordKind::Ack, 1)).unwrap();
        assert_eq!(file_len(&dir), 4096);
        drop(log);
        let (_, replay) = AckLog::replay(&dir, SyncPolicy::PowerFail).unwrap();
        assert_eq!(replay.records, 4);
        assert_eq!(replay.live.keys().copied().collect::<Vec<_>>(), [2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_refused_with_the_file_name() {
        let dir = tmp("interior");
        let mut log = AckLog::create(&dir, SyncPolicy::default()).unwrap();
        for i in 1..=3 {
            log.append(&grant(i, i * 10, 1, 0)).unwrap();
        }
        drop(log);
        let path = dir.join(LEASE_LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 5] ^= 0xFF; // first record, not the tail
        std::fs::write(&path, &bytes).unwrap();

        let err = AckLog::replay(&dir, SyncPolicy::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(LEASE_LOG_FILE), "{msg}");
        assert!(msg.contains("corrupt record"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_damage_is_refused() {
        let dir = tmp("header");
        drop(AckLog::create(&dir, SyncPolicy::default()).unwrap());
        let path = dir.join(LEASE_LOG_FILE);

        let good = std::fs::read(&path).unwrap();
        std::fs::write(&path, &good[..HEADER_LEN - 3]).unwrap();
        let err = AckLog::replay(&dir, SyncPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("truncated header"), "{err}");

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = AckLog::replay(&dir, SyncPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");

        let mut bad = good.clone();
        bad[9] ^= 0xFF; // version byte → header CRC mismatch
        std::fs::write(&path, &bad).unwrap();
        let err = AckLog::replay(&dir, SyncPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("header CRC mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_opens_as_a_fresh_log() {
        let dir = tmp("missing");
        let (log, replay) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert_eq!(log.records(), 0);
        assert!(replay.live.is_empty());
        assert_eq!(replay.next_lease_id, 1);
        assert_eq!(replay.generation, log.generation());
        assert_ne!(replay.generation, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_discards_the_retired_prefix_and_survives_replay() {
        let dir = tmp("compact");
        let mut log = AckLog::create(&dir, SyncPolicy::PowerFail).unwrap();
        for i in 1..=100u64 {
            log.append(&grant(i, i, 1, 0)).unwrap();
            if i <= 98 {
                log.append(&terminal(RecordKind::Ack, i)).unwrap();
            }
        }
        assert_eq!(log.records(), 198);
        log.compact(101, [grant(99, 99, 1, 0), grant(100, 100, 1, 0)])
            .unwrap();
        assert_eq!(log.records(), 2);
        // The compacted log still appends and replays.
        log.append(&terminal(RecordKind::Ack, 99)).unwrap();
        drop(log);
        let (_, replay) = AckLog::replay(&dir, SyncPolicy::PowerFail).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.live.len(), 1);
        assert_eq!(replay.live[&100].item, 100);
        assert_eq!(replay.next_lease_id, 101);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_compaction_keeps_the_id_high_water_mark_and_generation() {
        // Regression: when the highest-numbered leases are all settled, the
        // snapshot holds no record witnessing the id maximum — only the
        // header's persisted mark keeps replay from reusing lease ids.
        let dir = tmp("empty-compact");
        let mut log = AckLog::create(&dir, SyncPolicy::default()).unwrap();
        let generation = log.generation();
        for i in 1..=50u64 {
            log.append(&grant(i, i, 1, 0)).unwrap();
            log.append(&terminal(RecordKind::Ack, i)).unwrap();
        }
        log.compact(51, []).unwrap();
        assert_eq!(log.records(), 0);
        assert_eq!(log.generation(), generation);
        drop(log);

        let (log, replay) = AckLog::replay(&dir, SyncPolicy::default()).unwrap();
        assert!(replay.live.is_empty());
        assert_eq!(replay.next_lease_id, 51, "high-water mark lost");
        assert_eq!(replay.generation, generation, "generation changed");
        assert_eq!(log.generation(), generation);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
