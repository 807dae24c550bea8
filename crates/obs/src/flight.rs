//! The flight recorder: a crash-surviving ring of lifecycle events.
//!
//! `BLACKBOX.ring` is an mmap'd file holding a fixed-size header plus
//! `capacity` fixed-size (64-byte) CRC'd event records. Writers stamp each
//! event with a monotonically increasing sequence number and store it at
//! slot `(seq − 1) % capacity`; the file therefore always holds the last
//! `capacity` events, and after a SIGKILL the parent (or an operator, via
//! `harness blackbox`) can [`replay`] it to reconstruct what the process
//! was doing when it died.
//!
//! Durability tier: **process crash**. Stores into a shared mapping land in
//! the OS page cache the moment they retire, so the ring survives SIGKILL
//! without any msync — the same guarantee the pool files give under the
//! default sync policy. (Power-fail durability would need an msync per
//! event, which a forensic aid does not justify; the events that matter for
//! correctness — growth commits, lease grants — are already in durable logs
//! of their own.)
//!
//! Torn-record handling follows `LEASES.log`: every record carries a CRC
//! over its payload, and [`replay`] simply drops slots that fail it (a kill
//! mid-store tears at most the records being written at that instant).
//! Unlike the ack log, *interior* CRC failures are also dropped rather than
//! refused — a lossy ring is forensics, not a source of truth, and a lapped
//! writer tearing an old slot must not render the whole ring unreadable.
//! The file itself is created through `obs::sys::durable::replace_file`,
//! like `SHARDS.manifest`, so a crash during creation leaves either no ring
//! or a whole one.
//!
//! ## On-disk format
//!
//! Header (64 bytes):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | magic `"DQBLKBX1"` |
//! | 8      | 4    | format version (1), little-endian u32 |
//! | 12     | 4    | capacity (slot count), LE u32 |
//! | 16     | 4    | record length (64), LE u32 |
//! | 20     | 4    | reserved (0) |
//! | 24     | 4    | CRC-32 of bytes [0, 24) |
//! | 28     | 36   | reserved (0) |
//!
//! Record `i` (64 bytes at offset `64 + i × 64`):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | sequence number (1-based; 0 = slot never written), LE u64 |
//! | 8      | 4    | event kind, LE u32 ([`EventKind`], unknown values preserved) |
//! | 12     | 4    | reserved (0) |
//! | 16     | 8    | operand `a`, LE u64 |
//! | 24     | 8    | operand `b`, LE u64 |
//! | 32     | 8    | wall-clock timestamp, ns since Unix epoch, LE u64 |
//! | 40     | 4    | CRC-32 of bytes [0, 40) |
//! | 44     | 20   | reserved (0) |

use crate::clock;
use crate::crc::crc32;
use crate::sys::{durable, MmapRegion};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// File name of the ring, created next to `SHARDS.manifest`.
pub const RING_FILE: &str = "BLACKBOX.ring";

/// Default slot count for rings created by the harness.
pub const DEFAULT_CAPACITY: u32 = 1024;

const MAGIC: &[u8; 8] = b"DQBLKBX1";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 64;
const RECORD_LEN: usize = 64;
const RECORD_CRC_AT: usize = 40;

/// Lifecycle events the stack records. The `u32` wire values are part of
/// the on-disk format; never renumber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum EventKind {
    /// A pool growth committed: `a` = new growth epoch, `b` = new length.
    PoolGrowthCommit = 1,
    /// A reshard intent was durably written: `a` = shards from, `b` = to.
    ReshardIntent = 2,
    /// A reshard committed (manifest rewritten): `a` = new shard count.
    ReshardCommit = 3,
    /// Recovery resolved an interrupted reshard: `a` = 1 if rolled
    /// forward, 0 if rolled back.
    ReshardResolved = 4,
    /// A lease was granted: `a` = lease id, `b` = item.
    LeaseGrant = 5,
    /// A lease was acked: `a` = lease id.
    LeaseAck = 6,
    /// A lease was nacked: `a` = lease id, `b` = next delivery count.
    LeaseNack = 7,
    /// A lease expired and was reaped: `a` = lease id, `b` = next
    /// delivery count.
    LeaseExpire = 8,
    /// An item was dead-lettered: `a` = lease id, `b` = item.
    LeaseDead = 9,
    /// The ack log compacted: `a` = live records kept.
    LeaseCompaction = 10,
    /// Recovery began: `a` = shard count.
    RecoveryStart = 11,
    /// A recovery phase finished: `a` = phase ordinal (1 = manifest
    /// resolution, 2 = shard replay, 3 = lease repair), `b` = wall ns.
    RecoveryPhase = 12,
    /// Recovery finished: `a` = shards recovered, `b` = wall ns.
    RecoveryDone = 13,
    /// An item was fanned out from the base queue to every consumer
    /// group's pending set: `a` = item, `b` = group count.
    LeaseDispatch = 14,
    /// A consumer group's ack log rotated to a fresh segment: `a` = new
    /// segment seq, `b` = live leases resident in the sealed segments.
    LeaseSegmentRotate = 15,
    /// A fully-settled ack-log segment was retired (unlinked): `a` =
    /// segment seq.
    LeaseSegmentRetire = 16,
    /// A file pool's first coalesced group-commit batch: `a` = fences
    /// sharing the batch, `b` = pages in the batched `msync`. Recorded
    /// once per pool (not per batch — a per-batch event would flood the
    /// ring and evict the growth/reshard lifecycle), as the durable marker
    /// that this deployment ran under fence coalescing.
    FenceGroupCommit = 17,
}

impl EventKind {
    /// The kind for a wire value, or `None` for kinds this build does not
    /// know (replay preserves them raw).
    pub fn from_u32(v: u32) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::PoolGrowthCommit,
            2 => EventKind::ReshardIntent,
            3 => EventKind::ReshardCommit,
            4 => EventKind::ReshardResolved,
            5 => EventKind::LeaseGrant,
            6 => EventKind::LeaseAck,
            7 => EventKind::LeaseNack,
            8 => EventKind::LeaseExpire,
            9 => EventKind::LeaseDead,
            10 => EventKind::LeaseCompaction,
            11 => EventKind::RecoveryStart,
            12 => EventKind::RecoveryPhase,
            13 => EventKind::RecoveryDone,
            14 => EventKind::LeaseDispatch,
            15 => EventKind::LeaseSegmentRotate,
            16 => EventKind::LeaseSegmentRetire,
            17 => EventKind::FenceGroupCommit,
            _ => return None,
        })
    }

    /// Stable lowercase name, used by exporters and `harness blackbox`.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PoolGrowthCommit => "pool-growth-commit",
            EventKind::ReshardIntent => "reshard-intent",
            EventKind::ReshardCommit => "reshard-commit",
            EventKind::ReshardResolved => "reshard-resolved",
            EventKind::LeaseGrant => "lease-grant",
            EventKind::LeaseAck => "lease-ack",
            EventKind::LeaseNack => "lease-nack",
            EventKind::LeaseExpire => "lease-expire",
            EventKind::LeaseDead => "lease-dead",
            EventKind::LeaseCompaction => "lease-compaction",
            EventKind::RecoveryStart => "recovery-start",
            EventKind::RecoveryPhase => "recovery-phase",
            EventKind::RecoveryDone => "recovery-done",
            EventKind::LeaseDispatch => "lease-dispatch",
            EventKind::LeaseSegmentRotate => "lease-segment-rotate",
            EventKind::LeaseSegmentRetire => "lease-segment-retire",
            EventKind::FenceGroupCommit => "fence-group-commit",
        }
    }
}

/// One replayed ring record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// 1-based global sequence number.
    pub seq: u64,
    /// Raw wire kind (use [`Event::kind`] for the decoded enum).
    pub kind: u32,
    /// First operand; meaning depends on the kind.
    pub a: u64,
    /// Second operand; meaning depends on the kind.
    pub b: u64,
    /// Wall clock at record time, ns since the Unix epoch.
    pub wall_ns: u64,
}

impl Event {
    /// The decoded kind, if this build knows it.
    pub fn kind(&self) -> Option<EventKind> {
        EventKind::from_u32(self.kind)
    }

    /// The kind's stable name, or `"unknown"`.
    pub fn kind_name(&self) -> &'static str {
        self.kind().map(EventKind::name).unwrap_or("unknown")
    }

    /// One human line: kind plus decoded operands.
    pub fn describe(&self) -> String {
        match self.kind() {
            Some(EventKind::PoolGrowthCommit) => {
                format!(
                    "pool growth committed: epoch {} -> {} bytes",
                    self.a, self.b
                )
            }
            Some(EventKind::ReshardIntent) => {
                format!("reshard intent: {} -> {} shards", self.a, self.b)
            }
            Some(EventKind::ReshardCommit) => {
                format!("reshard committed: {} shards", self.a)
            }
            Some(EventKind::ReshardResolved) => format!(
                "reshard resolved: rolled {}",
                if self.a == 1 { "forward" } else { "back" }
            ),
            Some(EventKind::LeaseGrant) => {
                format!("lease {} granted for item {}", self.a, self.b)
            }
            Some(EventKind::LeaseAck) => format!("lease {} acked", self.a),
            Some(EventKind::LeaseNack) => {
                format!("lease {} nacked (next delivery {})", self.a, self.b)
            }
            Some(EventKind::LeaseExpire) => {
                format!("lease {} expired (next delivery {})", self.a, self.b)
            }
            Some(EventKind::LeaseDead) => {
                format!("lease {} dead-lettered item {}", self.a, self.b)
            }
            Some(EventKind::LeaseCompaction) => {
                format!("ack log compacted to {} live records", self.a)
            }
            Some(EventKind::LeaseDispatch) => {
                format!("item {} dispatched to {} group(s)", self.a, self.b)
            }
            Some(EventKind::LeaseSegmentRotate) => {
                format!(
                    "ack log rotated to segment {} ({} live in sealed segments)",
                    self.a, self.b
                )
            }
            Some(EventKind::LeaseSegmentRetire) => {
                format!("ack-log segment {} retired", self.a)
            }
            Some(EventKind::RecoveryStart) => {
                format!("recovery started over {} shards", self.a)
            }
            Some(EventKind::RecoveryPhase) => {
                let phase = match self.a {
                    1 => "manifest-resolution",
                    2 => "shard-replay",
                    3 => "lease-repair",
                    _ => "unknown-phase",
                };
                format!("recovery phase {phase} took {} ns", self.b)
            }
            Some(EventKind::RecoveryDone) => {
                format!("recovery done: {} shards in {} ns", self.a, self.b)
            }
            Some(EventKind::FenceGroupCommit) => {
                format!(
                    "group commit active: first coalesced batch had {} fence(s) over {} page(s)",
                    self.a, self.b
                )
            }
            None => format!("unknown kind {} (a={}, b={})", self.kind, self.a, self.b),
        }
    }
}

/// The result of scanning a ring file.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Slot count from the header.
    pub capacity: u32,
    /// Slots whose bytes were non-zero but failed their CRC (torn by a
    /// kill mid-store, or corrupted at rest). Dropped, not fatal.
    pub torn: u32,
    /// Valid events, ascending by sequence number.
    pub events: Vec<Event>,
}

impl Replay {
    /// Highest valid sequence number seen (0 for an empty ring).
    pub fn max_seq(&self) -> u64 {
        self.events.last().map(|e| e.seq).unwrap_or(0)
    }

    /// Valid events of one kind, in sequence order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind as u32)
    }
}

fn bad_data(path: &Path, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", path.display()),
    )
}

fn encode_header(capacity: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&capacity.to_le_bytes());
    h[16..20].copy_from_slice(&(RECORD_LEN as u32).to_le_bytes());
    let crc = crc32(&h[0..24]);
    h[24..28].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Validates a header and returns the capacity.
fn decode_header(path: &Path, bytes: &[u8]) -> io::Result<u32> {
    if bytes.len() < HEADER_LEN {
        return Err(bad_data(path, "ring file shorter than its header"));
    }
    if &bytes[0..8] != MAGIC {
        return Err(bad_data(path, "bad magic (not a BLACKBOX ring)"));
    }
    let crc_stored = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    if crc32(&bytes[0..24]) != crc_stored {
        return Err(bad_data(path, "header CRC mismatch"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(bad_data(
            path,
            &format!("unsupported ring version {version}"),
        ));
    }
    let record_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    if record_len as usize != RECORD_LEN {
        return Err(bad_data(
            path,
            &format!("unsupported record length {record_len}"),
        ));
    }
    let capacity = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if capacity == 0 {
        return Err(bad_data(path, "zero-capacity ring"));
    }
    let need = HEADER_LEN + capacity as usize * RECORD_LEN;
    if bytes.len() < need {
        return Err(bad_data(path, "ring file truncated below its capacity"));
    }
    Ok(capacity)
}

fn encode_record(seq: u64, kind: u32, a: u64, b: u64, wall_ns: u64) -> [u8; RECORD_LEN] {
    let mut r = [0u8; RECORD_LEN];
    r[0..8].copy_from_slice(&seq.to_le_bytes());
    r[8..12].copy_from_slice(&kind.to_le_bytes());
    r[16..24].copy_from_slice(&a.to_le_bytes());
    r[24..32].copy_from_slice(&b.to_le_bytes());
    r[32..40].copy_from_slice(&wall_ns.to_le_bytes());
    let crc = crc32(&r[0..RECORD_CRC_AT]);
    r[40..44].copy_from_slice(&crc.to_le_bytes());
    r
}

fn decode_record(bytes: &[u8]) -> Option<Event> {
    debug_assert_eq!(bytes.len(), RECORD_LEN);
    if bytes.iter().all(|&b| b == 0) {
        return None; // never written
    }
    let crc_stored = u32::from_le_bytes(bytes[40..44].try_into().unwrap());
    if crc32(&bytes[0..RECORD_CRC_AT]) != crc_stored {
        return None; // torn or corrupt — caller counts these
    }
    let seq = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    if seq == 0 {
        return None;
    }
    Some(Event {
        seq,
        kind: u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        a: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
        b: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
        wall_ns: u64::from_le_bytes(bytes[32..40].try_into().unwrap()),
    })
}

/// Scans the ring at `path` and returns every CRC-valid event, ascending by
/// sequence number. Pure file read — safe on a ring whose writer was just
/// SIGKILLed, and on one still being written (in-flight records show up as
/// `torn`). Fails only on a bad header; record damage is tolerated.
pub fn replay(path: &Path) -> io::Result<Replay> {
    let bytes = std::fs::read(path)?;
    let capacity = decode_header(path, &bytes)?;
    let mut out = Replay {
        capacity,
        torn: 0,
        events: Vec::new(),
    };
    for slot in 0..capacity as usize {
        let at = HEADER_LEN + slot * RECORD_LEN;
        let rec = &bytes[at..at + RECORD_LEN];
        match decode_record(rec) {
            Some(ev) => out.events.push(ev),
            None if rec.iter().all(|&b| b == 0) => {}
            None => out.torn += 1,
        }
    }
    out.events.sort_unstable_by_key(|e| e.seq);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// An open ring, ready to record. Cheap to share (`Arc`); `record` is
/// lock-free.
pub struct FlightRecorder {
    /// A shared mapping: stores reach the page cache immediately and
    /// survive SIGKILL.
    map: MmapRegion,
    capacity: u32,
    next_seq: AtomicU64,
    path: PathBuf,
}

impl FlightRecorder {
    /// The ring path inside a queue directory.
    pub fn ring_path(dir: &Path) -> PathBuf {
        dir.join(RING_FILE)
    }

    /// Opens the ring in `dir`, creating it (through
    /// [`durable::replace_file`], so a crash leaves no half-written ring)
    /// with `capacity` slots if absent. When the ring already exists its own
    /// header capacity wins, and the sequence counter resumes past the
    /// highest replayed event so history keeps appending across restarts.
    pub fn create_or_open(dir: &Path, capacity: u32) -> io::Result<Arc<FlightRecorder>> {
        assert!(capacity > 0, "ring capacity must be positive");
        let path = Self::ring_path(dir);
        if !path.exists() {
            let mut ring = vec![0; HEADER_LEN + capacity as usize * RECORD_LEN];
            ring[..HEADER_LEN].copy_from_slice(&encode_header(capacity));
            durable::replace_file(dir, RING_FILE, &ring, true)?;
        }
        Self::open(&path)
    }

    /// Opens an existing ring for appending.
    pub fn open(path: &Path) -> io::Result<Arc<FlightRecorder>> {
        let replayed = replay(path)?;
        let capacity = replayed.capacity;
        let file = File::options().read(true).write(true).open(path)?;
        let map = MmapRegion::map(&file, HEADER_LEN + capacity as usize * RECORD_LEN)?;
        Ok(Arc::new(FlightRecorder {
            map,
            capacity,
            next_seq: AtomicU64::new(replayed.max_seq() + 1),
            path: path.to_path_buf(),
        }))
    }

    /// The file this recorder writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Slot count.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Records one event. Lock-free: claim a sequence number, then
    /// store the 64-byte record into its slot word by word (payload first,
    /// CRC last), so a kill mid-store leaves a slot that fails its CRC and
    /// is dropped at replay rather than misread.
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        self.record_raw(kind as u32, a, b);
    }

    /// [`record`](Self::record) with a raw kind value (forward
    /// compatibility: a newer writer's events survive an older reader).
    pub fn record_raw(&self, kind: u32, a: u64, b: u64) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let slot = ((seq - 1) % self.capacity as u64) as usize;
        let bytes = encode_record(seq, kind, a, b, clock::wall_ns());
        let at = HEADER_LEN + slot * RECORD_LEN;
        debug_assert!(at + RECORD_LEN <= self.map.len());
        // SAFETY: `at` is 8-aligned and in bounds; going through AtomicU64
        // makes concurrent writes to a lapped slot a race in values (caught
        // by the CRC) instead of UB.
        unsafe {
            let words = self.map.as_ptr().add(at) as *const AtomicU64;
            for w in 0..RECORD_LEN / 8 {
                let v = u64::from_le_bytes(bytes[w * 8..w * 8 + 8].try_into().unwrap());
                (*words.add(w)).store(v, Ordering::Release);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Process-global hook
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();

/// Installs `rec` as the process-global recorder that [`record`] writes to.
/// First caller wins; returns `false` if one was already installed. Library
/// layers record through the global so they need no directory plumbing;
/// only binaries that own a queue directory (the harness children) install.
pub fn install(rec: Arc<FlightRecorder>) -> bool {
    GLOBAL.set(rec).is_ok()
}

/// The installed recorder, if any.
pub fn global() -> Option<&'static Arc<FlightRecorder>> {
    GLOBAL.get()
}

/// Records through the process-global recorder; a no-op (one atomic load)
/// when none is installed.
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64) {
    if let Some(rec) = GLOBAL.get() {
        rec.record(kind, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "obs-flight-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_in_order() {
        let dir = temp_dir("roundtrip");
        let rec = FlightRecorder::create_or_open(&dir, 64).unwrap();
        rec.record(EventKind::PoolGrowthCommit, 1, 4096);
        rec.record(EventKind::LeaseGrant, 7, 42);
        rec.record(EventKind::LeaseAck, 7, 0);
        drop(rec);
        let rep = replay(&FlightRecorder::ring_path(&dir)).unwrap();
        assert_eq!(rep.torn, 0);
        assert_eq!(rep.capacity, 64);
        let kinds: Vec<_> = rep.events.iter().map(|e| e.kind_name()).collect();
        assert_eq!(kinds, ["pool-growth-commit", "lease-grant", "lease-ack"]);
        assert_eq!(rep.events[1].a, 7);
        assert_eq!(rep.events[1].b, 42);
        assert!(rep.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(rep.events.iter().all(|e| e.wall_ns > 0));
        // tmp+rename left no droppings.
        assert!(!dir.join(format!("{RING_FILE}.tmp")).exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reopen_resumes_sequence() {
        let dir = temp_dir("reopen");
        {
            let rec = FlightRecorder::create_or_open(&dir, 16).unwrap();
            rec.record(EventKind::LeaseGrant, 1, 10);
            rec.record(EventKind::LeaseGrant, 2, 11);
        }
        {
            // Capacity argument is ignored on reopen: the header wins.
            let rec = FlightRecorder::create_or_open(&dir, 9999).unwrap();
            assert_eq!(rec.capacity(), 16);
            rec.record(EventKind::LeaseAck, 1, 0);
        }
        let rep = replay(&FlightRecorder::ring_path(&dir)).unwrap();
        let seqs: Vec<_> = rep.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn wraparound_keeps_the_last_capacity_events() {
        let dir = temp_dir("wrap");
        let rec = FlightRecorder::create_or_open(&dir, 8).unwrap();
        for i in 0..20u64 {
            rec.record(EventKind::LeaseGrant, i, 0);
        }
        drop(rec);
        let rep = replay(&FlightRecorder::ring_path(&dir)).unwrap();
        let seqs: Vec<_> = rep.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (13..=20).collect::<Vec<_>>());
        assert_eq!(rep.max_seq(), 20);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = temp_dir("torn");
        let rec = FlightRecorder::create_or_open(&dir, 32).unwrap();
        for i in 0..5u64 {
            rec.record(EventKind::LeaseGrant, i, 0);
        }
        drop(rec);
        let path = FlightRecorder::ring_path(&dir);
        // Flip a payload byte of the newest record (slot 4) — a torn write.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 4 * RECORD_LEN + 17] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert_eq!(rep.torn, 1);
        assert_eq!(rep.max_seq(), 4);
        assert_eq!(rep.events.len(), 4);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_dropped_and_counted() {
        let dir = temp_dir("interior");
        let rec = FlightRecorder::create_or_open(&dir, 32).unwrap();
        for i in 0..5u64 {
            rec.record(EventKind::LeaseGrant, i, 0);
        }
        drop(rec);
        let path = FlightRecorder::ring_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 2 * RECORD_LEN + 3] ^= 0x01; // middle record
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert_eq!(rep.torn, 1);
        let seqs: Vec<_> = rep.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2, 4, 5]); // seq 3 lived in slot 2
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn header_corruption_is_refused_with_the_file_name() {
        let dir = temp_dir("header");
        drop(FlightRecorder::create_or_open(&dir, 8).unwrap());
        let path = FlightRecorder::ring_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[13] ^= 0xFF; // capacity field, invalidating the header CRC
        std::fs::write(&path, &bytes).unwrap();
        let err = replay(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(RING_FILE), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unknown_kinds_survive_replay() {
        let dir = temp_dir("unknown");
        let rec = FlightRecorder::create_or_open(&dir, 8).unwrap();
        rec.record_raw(999, 5, 6);
        drop(rec);
        let rep = replay(&FlightRecorder::ring_path(&dir)).unwrap();
        assert_eq!(rep.events.len(), 1);
        assert_eq!(rep.events[0].kind, 999);
        assert_eq!(rep.events[0].kind_name(), "unknown");
        assert!(rep.events[0].describe().contains("999"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn of_kind_filters() {
        let dir = temp_dir("ofkind");
        let rec = FlightRecorder::create_or_open(&dir, 8).unwrap();
        rec.record(EventKind::LeaseGrant, 1, 0);
        rec.record(EventKind::LeaseAck, 1, 0);
        rec.record(EventKind::LeaseGrant, 2, 0);
        drop(rec);
        let rep = replay(&FlightRecorder::ring_path(&dir)).unwrap();
        assert_eq!(rep.of_kind(EventKind::LeaseGrant).count(), 2);
        assert_eq!(rep.of_kind(EventKind::LeaseAck).count(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn concurrent_writers_never_corrupt_valid_slots() {
        let dir = temp_dir("concurrent");
        let rec = FlightRecorder::create_or_open(&dir, 32).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        rec.record(EventKind::LeaseGrant, t, i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(rec);
        let rep = replay(&FlightRecorder::ring_path(&dir)).unwrap();
        assert_eq!(rep.torn, 0);
        assert_eq!(rep.events.len(), 32);
        assert_eq!(rep.max_seq(), 400);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
