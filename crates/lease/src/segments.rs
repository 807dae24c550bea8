//! Rotating ack-log segments: the per-group replacement for whole-file
//! compaction.
//!
//! A [`SegmentedLog`] stores the same 40-byte CRC'd [`Record`]s as the
//! single-file [`AckLog`](crate::log::AckLog), but spread over a directory
//! of numbered segment files instead of one file that must periodically be
//! rewritten in full:
//!
//! ```text
//! groups/<name>/
//!   GROUP.meta          # generation + retirement watermark (atomic rewrite)
//!   segment-0000.log    # sealed (may already be retired/unlinked)
//!   segment-0001.log    # sealed
//!   segment-0002.log    # active (appends go here)
//! ```
//!
//! Compaction in the single-file log stops the world: every live lease is
//! re-serialised into a tmp file while the state lock is held. Here the
//! retired prefix simply *ages out*: once the active segment holds
//! `rotate_records` records, a fresh segment is created (**rotation**) and
//! appends move there; once a sealed segment no longer holds the latest
//! live record of any lease, it is unlinked (**retirement**). Both are
//! O(1)-ish in the live set — no stall, no full rewrite.
//!
//! # Commit points
//!
//! * **Rotation** commits when the new segment's header is durable: the
//!   segment is born whole, as an atomic replacement, forced under
//!   [`SyncPolicy::PowerFail`]. A crash before that leaves the old segment
//!   active; a crash after replays both. A torn header (damage) is only
//!   ever accepted in the highest-numbered segment, and is rolled back
//!   (the file is deleted) on replay.
//! * **Retirement** writes the meta file's `retired_below` watermark
//!   (an atomic replacement, like the shard manifest) *before* unlinking the
//!   segment. A crash between the two leaves a segment below the watermark
//!   on disk; replay refuses to read it and completes the unlink instead —
//!   a retired segment can never resurrect settled leases, even if a
//!   backup restores the file.
//!
//! # Durability
//!
//! The active segment is written and forced as the single-file log is,
//! through the crate's one journal-file writer.
//! Within one segment a later force covers every earlier record, so
//! nothing more is needed. Across segments it is not so, and the two
//! maintenance steps force the active segment themselves, under the lock,
//! once per `rotate_records` records:
//!
//! * **rotation** forces the old segment before the new header commits — a
//!   sealed segment must be complete, since replay refuses a torn one;
//! * **retirement** forces the active segment before the watermark moves —
//!   what settled the old segment's last lease may be a record there (a
//!   `GRANT` superseding a `PEND`), and a power failure must not find the
//!   `PEND` unlinked and the `GRANT` missing.
//!
//! The power-fail zero reserve (docs/FORMATS.md) is capped at the sealed
//! size, `SEGMENT_HEADER_LEN + rotate_records × RECORD_LEN`, so a sealed
//! segment carries none.
//!
//! # High-water mark and generation
//!
//! Every segment header snapshots the lease-id high-water mark at its
//! creation, so retiring the segments that witnessed the highest settled
//! ids never loses the mark (the regression family the single-file log
//! guards with its compacted header). The group's **generation** lives in
//! `GROUP.meta`, is fixed at create time, and every segment header must
//! carry it — a segment from another group (or another life of this group)
//! is refused, and the exactly-once cursor uses it exactly as with the
//! single-file log.
//!
//! Torn-tail handling per segment follows the single-file rules: only the
//! *active* (highest-numbered) segment may end in a crash tail — a torn
//! record, then nothing but the zero reserve — which is chopped; a torn or
//! corrupt record in a sealed segment is real damage and is refused with an
//! error naming the file.

use crate::engine::Journal;
use crate::file::{replace_file, JournalFile};
use crate::log::{bad_data, fresh_generation, Record, Replay, RECORD_LEN};
use obs::flight::EventKind;
use obs::LazyCounter;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use store::{crc32, SyncPolicy};

static ROTATIONS: LazyCounter = LazyCounter::new("lease.group.rotation");
static RETIREMENTS: LazyCounter = LazyCounter::new("lease.group.retire");

/// File name of the per-group meta file.
pub const GROUP_META_FILE: &str = "GROUP.meta";

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"DQSEGMT1";

/// Magic bytes opening the group meta file.
pub const GROUP_META_MAGIC: [u8; 8] = *b"DQGMETA1";

/// Current segment/meta format version.
pub const SEGMENT_VERSION: u32 = 1;

/// Size of a segment file header in bytes (magic + version + seq +
/// id high-water mark + generation + CRC + pad). One record's worth, so
/// every record in the file sits at `HEADER + n × RECORD_LEN`.
pub const SEGMENT_HEADER_LEN: usize = 40;

/// Size of the group meta file in bytes.
pub const GROUP_META_LEN: usize = 32;

/// Default rotation threshold (records per segment).
pub const DEFAULT_ROTATE_RECORDS: u64 = 4096;

fn segment_name(seq: u32) -> String {
    format!("segment-{seq:04}.log")
}

fn segment_path(dir: &Path, seq: u32) -> PathBuf {
    dir.join(segment_name(seq))
}

/// Parses `segment-NNNN.log` back to `NNNN` (any decimal width ≥ 1, so
/// sequences past 9999 keep working).
fn segment_seq(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("segment-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The length of a full segment, which rotation seals (unbounded when
/// the log never rotates).
fn sealed_len(rotate_records: u64) -> u64 {
    match rotate_records {
        0 => u64::MAX,
        n => SEGMENT_HEADER_LEN as u64 + n * RECORD_LEN as u64,
    }
}

fn segment_header(seq: u32, next_lease_id: u64, generation: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[0..8].copy_from_slice(&SEGMENT_MAGIC);
    h[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&seq.to_le_bytes());
    h[16..24].copy_from_slice(&next_lease_id.to_le_bytes());
    h[24..32].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&h[0..32]);
    h[32..36].copy_from_slice(&crc.to_le_bytes());
    // h[36..40] stays zero (pad).
    h
}

fn meta_bytes(retired_below: u32, generation: u64) -> [u8; GROUP_META_LEN] {
    let mut m = [0u8; GROUP_META_LEN];
    m[0..8].copy_from_slice(&GROUP_META_MAGIC);
    m[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    m[12..16].copy_from_slice(&retired_below.to_le_bytes());
    m[16..24].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&m[0..24]);
    m[24..28].copy_from_slice(&crc.to_le_bytes());
    // m[28..32] stays zero (pad).
    m
}

struct Meta {
    retired_below: u32,
    generation: u64,
}

fn read_meta(dir: &Path) -> io::Result<Option<Meta>> {
    let path = dir.join(GROUP_META_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < GROUP_META_LEN - 4 {
        // The trailing pad may legitimately be missing from a hand-rolled
        // file, but anything shorter than magic..crc is damage.
        return Err(bad_data(
            &path,
            format!("truncated meta ({} of {GROUP_META_LEN} bytes)", bytes.len()),
        ));
    }
    if bytes[0..8] != GROUP_META_MAGIC {
        return Err(bad_data(&path, format!("bad magic {:?}", &bytes[0..8])));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SEGMENT_VERSION {
        return Err(bad_data(
            &path,
            format!("unsupported version {version} (this build reads {SEGMENT_VERSION})"),
        ));
    }
    let stored = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    if crc32(&bytes[0..24]) != stored {
        return Err(bad_data(
            &path,
            format!(
                "meta CRC mismatch (expected {:08x}, found {stored:08x})",
                crc32(&bytes[0..24])
            ),
        ));
    }
    Ok(Some(Meta {
        retired_below: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
        generation: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
    }))
}

/// What replaying a segment directory reconstructed: the single-file
/// [`Replay`] plus segment accounting.
#[derive(Clone, Debug, Default)]
pub struct GroupReplay {
    /// The lease-state reconstruction, identical in meaning to the
    /// single-file log's replay.
    pub replay: Replay,
    /// Segment files present after replay (retirement roll-forward
    /// included).
    pub segments: u32,
    /// Files found below the retirement watermark and deleted on open —
    /// the roll-forward of an interrupted retirement, or the refusal of a
    /// restored already-retired segment.
    pub retired_leftovers: u32,
}

impl GroupReplay {
    fn empty(generation: u64, retired_leftovers: u32) -> GroupReplay {
        GroupReplay {
            replay: Replay {
                next_lease_id: 1,
                generation,
                ..Replay::default()
            },
            segments: 1,
            retired_leftovers,
        }
    }
}

/// An append-only ack log spread over rotating segment files. Single-writer
/// (all mutation goes through the owning group's lock), like [`AckLog`].
///
/// [`AckLog`]: crate::log::AckLog
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    sync: SyncPolicy,
    /// Rotate once the active segment holds this many records (`0` =
    /// never rotate; the log degenerates to a single ever-growing segment).
    rotate_records: u64,
    generation: u64,
    retired_below: u32,
    active_seq: u32,
    /// Its forces outlive the lock hold that appended (and, harmlessly, a
    /// rotation away from this file).
    active: JournalFile,
    /// Total valid records across all surviving segments (replayed +
    /// appended, minus retired files' contributions — recomputed only at
    /// replay, so between opens this only grows).
    records: u64,
    /// Live lease → seq of the segment holding its latest live record.
    resident: HashMap<u64, u32>,
    /// Per existing segment: how many live leases reside in it. Every
    /// on-disk segment has an entry (possibly 0).
    seg_live: BTreeMap<u32, u64>,
    /// Rotations performed since open.
    rotations: u64,
    /// Segments retired (unlinked) since open.
    retired: u64,
    /// Test knob: when `false`, retirement never runs on the append path,
    /// leaving the crash window between rotation and retirement on disk.
    auto_retire: bool,
}

impl SegmentedLog {
    /// Creates a fresh segmented log in `dir`: a new generation in
    /// `GROUP.meta` and an empty `segment-0000.log`.
    pub fn create(dir: &Path, sync: SyncPolicy, rotate_records: u64) -> io::Result<SegmentedLog> {
        std::fs::create_dir_all(dir)?;
        let generation = fresh_generation();
        replace_file(dir, GROUP_META_FILE, &meta_bytes(0, generation), sync)?;
        Self::start(dir, sync, rotate_records, generation)
    }

    /// An empty log of the given generation: `segment-0000.log` with
    /// nothing in it, nothing retired.
    fn start(
        dir: &Path,
        sync: SyncPolicy,
        rotate_records: u64,
        generation: u64,
    ) -> io::Result<SegmentedLog> {
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            sync,
            rotate_records,
            generation,
            retired_below: 0,
            active_seq: 0,
            active: Self::new_segment(dir, 0, 1, generation, sync, sealed_len(rotate_records))?,
            records: 0,
            resident: HashMap::new(),
            seg_live: BTreeMap::from([(0, 0)]),
            rotations: 0,
            retired: 0,
            auto_retire: true,
        })
    }

    fn new_segment(
        dir: &Path,
        seq: u32,
        next_lease_id: u64,
        generation: u64,
        sync: SyncPolicy,
        cap: u64,
    ) -> io::Result<JournalFile> {
        // The durable header *is* the rotation commit point.
        let header = segment_header(seq, next_lease_id, generation);
        let active = JournalFile::create(dir, &segment_name(seq), &header, sync, cap)?;
        #[cfg(test)]
        crate::powerfail::crash_point(dir);
        Ok(active)
    }

    /// Opens and replays the segment directory. A missing directory (or a
    /// directory with neither meta nor segments) becomes a fresh log.
    /// Files below the meta's retirement watermark are deleted (see the
    /// [module docs](self)); a torn header or torn tail in the
    /// highest-numbered segment is rolled back or chopped; any damage in a
    /// sealed segment is refused with an error naming the file.
    pub fn replay(
        dir: &Path,
        sync: SyncPolicy,
        rotate_records: u64,
    ) -> io::Result<(SegmentedLog, GroupReplay)> {
        let meta = read_meta(dir)?;
        let mut seqs: Vec<u32> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| segment_seq(&e.file_name().to_string_lossy()))
                .collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        seqs.sort_unstable();
        let Some(meta) = meta else {
            if seqs.is_empty() {
                let log = SegmentedLog::create(dir, sync, rotate_records)?;
                let replay = GroupReplay::empty(log.generation, 0);
                return Ok((log, replay));
            }
            return Err(bad_data(
                &dir.join(GROUP_META_FILE),
                "segment files without GROUP.meta (the generation authority is gone)".into(),
            ));
        };

        // Prefix retirement + unit-increment rotation ⇒ the surviving seqs
        // run contiguously up from the watermark; anything else means a
        // sealed segment vanished. Refused before anything is unlinked or
        // rolled back.
        let leftovers = seqs.partition_point(|&seq| seq < meta.retired_below);
        let surviving = &seqs[leftovers..];
        if surviving.first().is_some_and(|&s| s != meta.retired_below) {
            return Err(bad_data(
                dir,
                format!(
                    "segment sequence gap: the retirement watermark is {} but the \
                     first segment found is segment-{:04}.log",
                    meta.retired_below, surviving[0]
                ),
            ));
        }
        for pair in surviving.windows(2) {
            if pair[1] != pair[0] + 1 {
                return Err(bad_data(
                    dir,
                    format!(
                        "segment sequence gap: segment-{:04}.log is followed by \
                         segment-{:04}.log",
                        pair[0], pair[1]
                    ),
                ));
            }
        }

        // Roll forward interrupted retirements and refuse restored retired
        // segments: anything below the watermark was durably declared
        // settled and must not be replayed.
        for seq in seqs.drain(..leftovers) {
            let _ = std::fs::remove_file(segment_path(dir, seq));
        }
        let retired_leftovers = leftovers as u32;

        if seqs.is_empty() {
            if meta.retired_below != 0 {
                // Retirement never touches the active segment, so a log
                // that ever retired must still have one.
                return Err(bad_data(
                    dir,
                    format!(
                        "no segments at or above the retirement watermark {}",
                        meta.retired_below
                    ),
                ));
            }
            // Crash between meta creation and segment-0 creation: finish
            // the create with the durable generation.
            let log = Self::start(dir, sync, rotate_records, meta.generation)?;
            let replay = GroupReplay::empty(meta.generation, retired_leftovers);
            return Ok((log, replay));
        }

        let mut replay = Replay {
            next_lease_id: 1,
            generation: meta.generation,
            ..Replay::default()
        };
        let mut resident: HashMap<u64, u32> = HashMap::new();
        let last_seq = *seqs.last().unwrap();
        let mut rolled_back_last = false;
        // The last segment replayed: the active one, once the loop is done.
        let mut active = None;
        let cap = sealed_len(rotate_records);
        for &seq in &seqs {
            let (mut file, bytes) = JournalFile::open(segment_path(dir, seq), sync, cap)?;
            let path = file.path();
            let header_ok = bytes.len() >= SEGMENT_HEADER_LEN && {
                let stored = u32::from_le_bytes(bytes[32..36].try_into().unwrap());
                bytes[0..8] == SEGMENT_MAGIC && crc32(&bytes[0..32]) == stored
            };
            if !header_ok {
                if seq == last_seq && seq != meta.retired_below {
                    // A torn header can only be the newest segment's — an
                    // incomplete rotation, which by the commit-point rule
                    // never happened. Roll it back; the previous segment
                    // is still the active one. (The lone segment of a
                    // never-rotated log has no predecessor to fall back
                    // to, so damage there is refused like any sealed
                    // segment.)
                    std::fs::remove_file(path)?;
                    rolled_back_last = true;
                    break;
                }
                return Err(bad_data(
                    path,
                    "corrupt segment header (not the newest segment; refusing)".into(),
                ));
            }
            let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
            if version != SEGMENT_VERSION {
                return Err(bad_data(
                    path,
                    format!("unsupported version {version} (this build reads {SEGMENT_VERSION})"),
                ));
            }
            let header_seq = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
            if header_seq != seq {
                return Err(bad_data(
                    path,
                    format!("header seq {header_seq} does not match the file name"),
                ));
            }
            let header_next_id = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
            let header_generation = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
            if header_generation != meta.generation {
                return Err(bad_data(
                    path,
                    format!(
                        "generation {header_generation:#x} does not match GROUP.meta \
                         ({:#x}); this segment belongs to another log",
                        meta.generation
                    ),
                ));
            }
            replay.next_lease_id = replay.next_lease_id.max(header_next_id);

            let sealed = seq != last_seq;
            replay.torn_bytes += file.replay(&bytes, SEGMENT_HEADER_LEN, sealed, |rec| {
                // A lease resides in the segment holding its latest live
                // record.
                let effect = replay.apply(rec);
                if let Some(id) = effect.retired {
                    resident.remove(&id);
                }
                if let Some(id) = effect.live {
                    resident.insert(id, seq);
                }
            })?;
            active = Some(file);
        }

        let active_seq = if rolled_back_last {
            last_seq - 1
        } else {
            last_seq
        };
        let mut seg_live: BTreeMap<u32, u64> = (seqs[0]..=active_seq).map(|s| (s, 0)).collect();
        for &seq in resident.values() {
            *seg_live.get_mut(&seq).expect("resident seq exists") += 1;
        }
        let active = active.expect("only a segment above the watermark rolls back");

        let records = replay.records;
        let mut log = SegmentedLog {
            dir: dir.to_path_buf(),
            sync,
            rotate_records,
            generation: meta.generation,
            retired_below: meta.retired_below,
            active_seq,
            active,
            records,
            resident,
            seg_live,
            rotations: 0,
            retired: 0,
            auto_retire: true,
        };
        // A crash between rotation and retirement leaves fully-settled
        // sealed segments behind; finish their retirement now.
        log.retire_prefix()?;
        let segments = log.seg_live.len() as u32;
        Ok((
            log,
            GroupReplay {
                replay,
                segments,
                retired_leftovers,
            },
        ))
    }

    /// Appends one record, runs the rotation/retirement maintenance, and
    /// forces the record per the sync tier before returning.
    /// `next_lease_id` is the caller's current id high-water mark — a
    /// rotation triggered by this append snapshots it into the fresh
    /// segment's header.
    ///
    /// Rotation is lazy: a full active segment is sealed when the *next*
    /// record arrives, not when the last one lands, so an idle log never
    /// carries an empty trailing segment.
    pub fn append(&mut self, rec: &Record, next_lease_id: u64) -> io::Result<()> {
        Journal::append(self, rec, next_lease_id)?;
        self.active.force().run()
    }

    /// Records in the active segment.
    fn active_records(&self) -> u64 {
        (self.active.end() - SEGMENT_HEADER_LEN as u64) / RECORD_LEN as u64
    }

    fn rotate_if_full(&mut self, next_lease_id: u64) -> io::Result<()> {
        if self.rotate_records > 0 && self.active_records() >= self.rotate_records {
            self.rotate(next_lease_id)?;
        }
        Ok(())
    }

    /// Accounts for one record written to the active segment.
    fn wrote(&mut self, rec: &Record) {
        self.records += 1;

        // Residency bookkeeping mirrors replay: a lease lives in the
        // segment holding its latest live record.
        let effect = rec.effect();
        if let Some(id) = effect.retired {
            self.unresident(id);
        }
        if let Some(id) = effect.live {
            self.make_resident(id);
        }
    }

    fn maintain(&mut self) -> io::Result<()> {
        if self.auto_retire {
            self.retire_prefix()?;
        }
        Ok(())
    }

    fn make_resident(&mut self, lease_id: u64) {
        if let Some(old) = self.resident.insert(lease_id, self.active_seq) {
            *self.seg_live.get_mut(&old).expect("old seq exists") -= 1;
        }
        *self
            .seg_live
            .get_mut(&self.active_seq)
            .expect("active seq exists") += 1;
    }

    fn unresident(&mut self, lease_id: u64) {
        if let Some(seq) = self.resident.remove(&lease_id) {
            *self.seg_live.get_mut(&seq).expect("seq exists") -= 1;
        }
    }

    /// Seals the active segment and opens the next one. The new header
    /// carries the caller's id high-water mark, so the mark survives even
    /// if every record witnessing it retires with the old segments.
    ///
    /// Appends are forced outside the caller's lock, so the tail of the old
    /// segment may still be unforced here: it is forced first, or a power
    /// failure could keep the new header and tear the segment it seals.
    fn rotate(&mut self, next_lease_id: u64) -> io::Result<()> {
        self.active.sync()?;
        let new_seq = self.active_seq + 1;
        self.active = Self::new_segment(
            &self.dir,
            new_seq,
            next_lease_id,
            self.generation,
            self.sync,
            sealed_len(self.rotate_records),
        )?;
        self.active_seq = new_seq;
        self.seg_live.insert(new_seq, 0);
        self.rotations += 1;
        ROTATIONS.incr();
        let sealed_live: u64 = self
            .seg_live
            .iter()
            .filter(|&(&s, _)| s != new_seq)
            .map(|(_, &n)| n)
            .sum();
        obs::flight::record(EventKind::LeaseSegmentRotate, new_seq as u64, sealed_live);
        Ok(())
    }

    /// Unlinks every leading sealed segment with no resident live leases:
    /// watermark first (durable), file second, so a crash in between is
    /// rolled forward by the next replay rather than resurrecting settled
    /// leases.
    ///
    /// What settled the segment's last lease may be a record still unforced
    /// in the active segment — a `GRANT` superseding a `PEND` here — so the
    /// active segment is forced before the first watermark moves: a power
    /// failure must never find the `PEND` unlinked and the `GRANT` missing.
    fn retire_prefix(&mut self) -> io::Result<()> {
        let mut forced = false;
        while let Some((&seq, &live)) = self.seg_live.first_key_value() {
            if seq >= self.active_seq || live != 0 {
                break;
            }
            if !forced {
                self.active.sync()?;
                forced = true;
            }
            let meta = meta_bytes(seq + 1, self.generation);
            replace_file(&self.dir, GROUP_META_FILE, &meta, self.sync)?;
            self.retired_below = seq + 1;
            std::fs::remove_file(segment_path(&self.dir, seq))?;
            #[cfg(test)]
            crate::powerfail::crash_point(&self.dir);
            self.seg_live.remove(&seq);
            self.retired += 1;
            RETIREMENTS.incr();
            obs::flight::record(EventKind::LeaseSegmentRetire, seq as u64, 0);
        }
        Ok(())
    }

    /// The log's generation (fixed at create, carried by every segment).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Valid records across the surviving segments (replayed + appended).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Segment files currently on disk.
    pub fn segments(&self) -> u32 {
        self.seg_live.len() as u32
    }

    /// The active (append-target) segment's sequence number.
    pub fn active_seq(&self) -> u32 {
        self.active_seq
    }

    /// All segments below this sequence number are durably retired.
    pub fn retired_below(&self) -> u32 {
        self.retired_below
    }

    /// Rotations performed since open.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Segments retired (unlinked) since open.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    #[cfg(test)]
    fn disable_auto_retire(&mut self) {
        self.auto_retire = false;
    }
}

impl Journal for SegmentedLog {
    fn append(&mut self, rec: &Record, next_lease_id: u64) -> io::Result<()> {
        self.rotate_if_full(next_lease_id)?;
        self.active.append(&rec.encode())?;
        self.wrote(rec);
        self.maintain()
    }

    /// Two records in one `write` — unless the second would open the next
    /// segment, when they go down one by one as they always did.
    fn append_pair(&mut self, first: (&Record, u64), second: (&Record, u64)) -> io::Result<()> {
        self.rotate_if_full(first.1)?;
        if self.rotate_records > 0 && self.active_records() + 2 > self.rotate_records {
            Journal::append(self, first.0, first.1)?;
            return Journal::append(self, second.0, second.1);
        }
        let mut both = [0u8; 2 * RECORD_LEN];
        both[..RECORD_LEN].copy_from_slice(&first.0.encode());
        both[RECORD_LEN..].copy_from_slice(&second.0.encode());
        self.active.append(&both)?;
        self.wrote(first.0);
        self.wrote(second.0);
        self.maintain()
    }

    fn file(&self) -> &JournalFile {
        &self.active
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    // `after_terminal` keeps its no-op default: rotation and retirement
    // already ride `append`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::RESERVE_STEP;
    use crate::log::RecordKind;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::os::unix::fs::FileExt;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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

    fn ack(id: u64) -> Record {
        Record {
            kind: RecordKind::Ack,
            delivery_count: 0,
            lease_id: id,
            item: 0,
            prev_lease_id: 0,
        }
    }

    #[test]
    fn roundtrip_across_rotation_reconstructs_live_leases() {
        let dir = tmp("roundtrip");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::PowerFail, 4).unwrap();
        let mut next = 1u64;
        for i in 1..=6u64 {
            log.append(&grant(i, i * 10, 1, 0), next).unwrap();
            next = i + 1;
        }
        // 6 grants at rotate_records = 4 → at least one rotation.
        assert!(log.rotations() >= 1);
        log.append(&ack(1), next).unwrap();
        log.append(&ack(3), next).unwrap();
        drop(log);

        let (log, gr) = SegmentedLog::replay(&dir, SyncPolicy::PowerFail, 4).unwrap();
        assert_eq!(gr.replay.records, 8);
        assert_eq!(gr.replay.acked, 2);
        assert_eq!(gr.replay.next_lease_id, 7);
        assert_eq!(gr.replay.torn_bytes, 0);
        let live: Vec<u64> = gr.replay.live.keys().copied().collect();
        assert_eq!(live, vec![2, 4, 5, 6]);
        assert!(log.segments() >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_settled_segments_retire_and_never_resurrect() {
        let dir = tmp("retire");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 4).unwrap();
        let mut next = 1u64;
        for i in 1..=20u64 {
            log.append(&grant(i, i, 1, 0), next).unwrap();
            next = i + 1;
            log.append(&ack(i), next).unwrap();
        }
        assert!(log.retired() >= 1, "no segment ever retired");
        assert!(log.segments() <= 2, "settled segments piled up");
        assert!(log.retired_below() >= 1);
        drop(log);

        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 4).unwrap();
        assert!(gr.replay.live.is_empty(), "settled lease resurrected");
        assert_eq!(gr.replay.next_lease_id, 21, "high-water mark lost");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hwm_survives_retirement_of_every_witnessing_record() {
        // The high-water-mark regression family, segment edition: settle
        // the highest-numbered leases, let every segment that witnessed
        // them retire, and require replay not to reuse their ids. The mark
        // rides each rotation's fresh header.
        let dir = tmp("hwm");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        let mut next = 1u64;
        for i in 1..=9u64 {
            log.append(&grant(i, i, 1, 0), next).unwrap();
            next = i + 1;
            log.append(&ack(i), next).unwrap();
        }
        assert!(log.retired() >= 3);
        drop(log);
        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert_eq!(gr.replay.next_lease_id, 10, "retirement lost the id mark");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_is_continuous_across_rotation_and_replay() {
        let dir = tmp("generation");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        let generation = log.generation();
        assert_ne!(generation, 0);
        let mut next = 1u64;
        for i in 1..=7u64 {
            log.append(&grant(i, i, 1, 0), next).unwrap();
            next = i + 1;
        }
        assert!(log.rotations() >= 3);
        assert_eq!(
            log.generation(),
            generation,
            "rotation changed the generation"
        );
        drop(log);
        let (log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert_eq!(gr.replay.generation, generation);
        assert_eq!(log.generation(), generation);
        // Every surviving segment header carries it.
        for seq in log.retired_below()..=log.active_seq() {
            let bytes = std::fs::read(segment_path(&dir, seq)).unwrap();
            let g = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
            assert_eq!(g, generation, "segment {seq} carries a foreign generation");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_generation_segment_is_refused() {
        let dir = tmp("foreign");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 4).unwrap();
        log.append(&grant(1, 1, 1, 0), 2).unwrap();
        let generation = log.generation();
        drop(log);
        // Rewrite segment 0's header with a different generation (CRC
        // fixed up, so only the generation check can catch it).
        let path = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..SEGMENT_HEADER_LEN].copy_from_slice(&segment_header(0, 1, generation + 1));
        std::fs::write(&path, &bytes).unwrap();
        let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 4).unwrap_err();
        assert!(err.to_string().contains("another log"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_in_the_active_segment_is_chopped_after_a_boundary() {
        // "Torn final record at a segment boundary": rotation just sealed
        // segment N; the very first append into segment N+1 tears. Replay
        // must chop the torn record, keep both segments, and leave the log
        // appendable.
        let dir = tmp("torn-active");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        log.append(&grant(2, 20, 1, 0), 3).unwrap(); // segment 0 now full
        log.append(&grant(3, 30, 1, 0), 4).unwrap(); // lazy rotation → segment 1
        assert_eq!(log.active_seq(), 1);
        let active = segment_path(&dir, 1);
        drop(log);
        let mut f = OpenOptions::new().append(true).open(&active).unwrap();
        f.write_all(&[0xAB; RECORD_LEN - 5]).unwrap();
        drop(f);

        let (mut log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert_eq!(gr.replay.records, 3);
        assert_eq!(gr.replay.torn_bytes, (RECORD_LEN - 5) as u64);
        assert_eq!(gr.replay.live.len(), 3);
        // The chop leaves the next append on a record boundary.
        log.append(&ack(1), 4).unwrap();
        drop(log);
        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert_eq!(gr.replay.records, 4);
        assert_eq!(gr.replay.live.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_in_a_sealed_segment_is_refused() {
        // A sealed segment was fsync-complete when its successor's header
        // committed; a short record there is damage, not a mid-append
        // crash, and silently chopping it could drop a settled ack.
        let dir = tmp("torn-sealed");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        log.append(&grant(2, 20, 1, 0), 3).unwrap(); // rotation → segment 1
        log.append(&grant(3, 30, 1, 0), 4).unwrap();
        assert_eq!(log.active_seq(), 1);
        drop(log);
        let sealed = segment_path(&dir, 0);
        let len = std::fs::metadata(&sealed).unwrap().len();
        let f = OpenOptions::new().write(true).open(&sealed).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("segment-0000.log"), "{msg}");
        assert!(msg.contains("sealed"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_rotation_and_retirement_rolls_forward_on_replay() {
        // Settle everything in segment 0 *after* rotating away from it,
        // with auto-retirement disabled to freeze the crash window: the
        // sealed segment is fully settled but still on disk, and the
        // watermark still reads 0. Replay must finish the retirement.
        let dir = tmp("rot-retire-window");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 2).unwrap();
        log.disable_auto_retire();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        log.append(&grant(2, 20, 1, 0), 3).unwrap(); // segment 0 now full
        log.append(&ack(1), 3).unwrap(); // lazy rotation → segment 1
        log.append(&ack(2), 3).unwrap();
        assert_eq!(log.active_seq(), 1);
        assert_eq!(log.retired(), 0, "auto-retire knob failed");
        assert!(segment_path(&dir, 0).exists());
        drop(log); // the "crash"

        let (log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 2).unwrap();
        assert!(gr.replay.live.is_empty());
        assert!(
            !segment_path(&dir, 0).exists(),
            "fully-settled sealed segment survived replay"
        );
        assert_eq!(log.retired_below(), 1);
        assert_eq!(gr.segments, 1);
        assert_eq!(gr.replay.next_lease_id, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_watermark_and_unlink_deletes_the_leftover() {
        // The other half of the retirement window: the meta write landed
        // but the unlink did not. The file sits below the watermark;
        // replay must delete it without reading a single record from it.
        let dir = tmp("watermark-window");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 1).unwrap();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        log.append(&grant(2, 20, 1, 0), 3).unwrap(); // rotation → segment 1
        let seg0 = std::fs::read(segment_path(&dir, 0)).unwrap();
        log.append(&ack(1), 3).unwrap(); // segment 0 now settled → retired
        assert_eq!(log.retired_below(), 1);
        drop(log);
        // Resurrect the retired file, as a crash-between (or a careless
        // backup restore) would.
        std::fs::write(segment_path(&dir, 0), &seg0).unwrap();

        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 1).unwrap();
        assert_eq!(gr.retired_leftovers, 1);
        assert!(
            !segment_path(&dir, 0).exists(),
            "retired segment not deleted"
        );
        // Lease 1's ack retired with segment 0 — the leftover must not
        // have resurrected the lease.
        assert_eq!(
            gr.replay.live.keys().copied().collect::<Vec<_>>(),
            vec![2],
            "retired segment was replayed"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_rotation_header_rolls_back_to_the_previous_segment() {
        let dir = tmp("torn-header");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 0).unwrap();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        drop(log);
        // A rotation that died mid-header-write: a short garbage file at
        // the next seq.
        std::fs::write(segment_path(&dir, 1), [0xCD; 11]).unwrap();

        let (mut log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 0).unwrap();
        assert_eq!(
            log.active_seq(),
            0,
            "rolled-back rotation left seq 1 active"
        );
        assert!(!segment_path(&dir, 1).exists());
        assert_eq!(gr.replay.live.len(), 1);
        log.append(&ack(1), 2).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_gap_is_refused() {
        // An interior sealed segment vanished, then the leading one: the
        // lease each held would be silently lost.
        for (missing, names) in [(1, "segment-0002.log"), (0, "segment-0001.log")] {
            let dir = tmp(&format!("gap-{missing}"));
            let mut log = SegmentedLog::create(&dir, SyncPolicy::default(), 1).unwrap();
            log.disable_auto_retire();
            for i in 1..=4u64 {
                log.append(&grant(i, i, 1, 0), i + 1).unwrap();
            }
            assert!(log.active_seq() >= 3);
            drop(log);
            std::fs::remove_file(segment_path(&dir, missing)).unwrap();
            let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 1).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("sequence gap"), "{msg}");
            assert!(msg.contains(names), "{msg}");
            assert!(msg.contains(dir.to_str().unwrap()), "{msg}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn missing_directory_opens_fresh_and_meta_damage_is_refused() {
        let dir = tmp("fresh");
        let (log, gr) = SegmentedLog::replay(&dir, SyncPolicy::default(), 8).unwrap();
        assert_eq!(gr.replay.next_lease_id, 1);
        assert_eq!(gr.segments, 1);
        assert_ne!(log.generation(), 0);
        drop(log);

        let meta = dir.join(GROUP_META_FILE);
        let good = std::fs::read(&meta).unwrap();
        let mut bad = good.clone();
        bad[13] ^= 0xFF; // retired_below byte → CRC mismatch
        std::fs::write(&meta, &bad).unwrap();
        let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 8).unwrap_err();
        assert!(err.to_string().contains("meta CRC mismatch"), "{err}");

        std::fs::remove_file(&meta).unwrap();
        let err = SegmentedLog::replay(&dir, SyncPolicy::default(), 8).unwrap_err();
        assert!(err.to_string().contains("without GROUP.meta"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn file_len(dir: &Path, seq: u32) -> u64 {
        std::fs::metadata(segment_path(dir, seq)).unwrap().len()
    }

    /// Appends grants 1..=n, every third step a pair, and runs `check`
    /// after each step.
    fn append_grants(log: &mut SegmentedLog, n: u64, mut check: impl FnMut(&SegmentedLog)) {
        let mut id = 1;
        while id <= n {
            if id.is_multiple_of(3) && id < n {
                let (first, second) = (grant(id, id, 1, 0), grant(id + 1, id + 1, 1, 0));
                Journal::append_pair(log, (&first, id + 1), (&second, id + 2)).unwrap();
                id += 2;
            } else {
                log.append(&grant(id, id, 1, 0), id + 1).unwrap();
                id += 1;
            }
            check(log);
        }
    }

    #[test]
    fn a_torn_record_and_the_zero_reserve_are_chopped_and_the_reserve_regrows() {
        let dir = tmp("reserve-tail");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::PowerFail, 0).unwrap();
        for i in 1..=3u64 {
            log.append(&grant(i, i * 10, 1, 0), i + 1).unwrap();
        }
        let end = log.active.end();
        drop(log);
        assert_eq!(file_len(&dir, 0), RESERVE_STEP);
        // [records][torn half record][zeros]
        let f = OpenOptions::new()
            .write(true)
            .open(segment_path(&dir, 0))
            .unwrap();
        f.write_all_at(&[0xAB; RECORD_LEN / 2], end).unwrap();
        drop(f);

        let (mut log, gr) = SegmentedLog::replay(&dir, SyncPolicy::PowerFail, 0).unwrap();
        assert_eq!(gr.replay.records, 3);
        assert_eq!(
            gr.replay.live.keys().copied().collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(gr.replay.torn_bytes, (RECORD_LEN / 2) as u64);
        assert_eq!(file_len(&dir, 0), end, "replay left the tail on disk");
        log.append(&ack(1), 4).unwrap();
        assert_eq!(
            file_len(&dir, 0),
            RESERVE_STEP,
            "the next append reserved nothing"
        );
        drop(log);
        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::PowerFail, 0).unwrap();
        assert_eq!((gr.replay.records, gr.replay.torn_bytes), (4, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_past_a_zero_slot_is_refused_with_its_byte_offset() {
        let dir = tmp("reserve-gap");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::PowerFail, 0).unwrap();
        log.append(&grant(1, 10, 1, 0), 2).unwrap();
        drop(log);
        // [record][zero slot][valid record]: chopping at the zero slot
        // would drop a record.
        let f = OpenOptions::new()
            .write(true)
            .open(segment_path(&dir, 0))
            .unwrap();
        let third = SEGMENT_HEADER_LEN + 2 * RECORD_LEN;
        f.write_all_at(&grant(2, 20, 1, 0).encode(), third as u64)
            .unwrap();
        drop(f);

        let err = SegmentedLog::replay(&dir, SyncPolicy::PowerFail, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("segment-0000.log"), "{msg}");
        let slot = SEGMENT_HEADER_LEN + RECORD_LEN;
        assert!(
            msg.contains(&format!("corrupt record at byte {slot}")),
            "{msg}"
        );
        assert!(msg.contains(&format!("byte {third} after it")), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The file's length moving is the metadata a force must commit, so
    /// under power-fail it moves once per reserved page (and once per
    /// rotation), not once per append.
    #[test]
    fn power_fail_segments_grow_a_page_at_a_time_and_seal_at_their_exact_size() {
        const ROTATE: u64 = 300;
        let dir = tmp("reserve-growth");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::PowerFail, ROTATE).unwrap();
        let sealed_len = sealed_len(ROTATE);
        assert_eq!(sealed_len, 40 + ROTATE * 40);
        let mut last = (0, SEGMENT_HEADER_LEN as u64);
        let mut changes = 0u64;
        append_grants(&mut log, 3 * ROTATE, |log| {
            let bytes = std::fs::read(segment_path(&dir, log.active_seq())).unwrap();
            let (len, end) = (bytes.len() as u64, log.active.end());
            assert!(
                (end..end + RESERVE_STEP).contains(&len),
                "{len} bytes for records ending at {end}"
            );
            assert!(bytes[end as usize..].iter().all(|&b| b == 0));
            if (log.active_seq(), len) != last {
                changes += 1;
                last = (log.active_seq(), len);
            }
        });
        assert_eq!(log.rotations(), 2);
        let bound = 3 * sealed_len.div_ceil(RESERVE_STEP) + log.rotations();
        assert!(
            changes <= bound,
            "the length changed {changes} times (bound {bound})"
        );
        for seq in 0..log.active_seq() {
            assert_eq!(file_len(&dir, seq), sealed_len, "segment {seq}");
        }
        drop(log);
        let (_, gr) = SegmentedLog::replay(&dir, SyncPolicy::PowerFail, ROTATE).unwrap();
        assert_eq!(gr.replay.records, 3 * ROTATE);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn process_crash_segments_are_exactly_their_records() {
        let dir = tmp("no-reserve");
        let mut log = SegmentedLog::create(&dir, SyncPolicy::ProcessCrash, 5).unwrap();
        append_grants(&mut log, 20, |log| {
            let n = log.active_records();
            assert_eq!(file_len(&dir, log.active_seq()), 40 + n * 40);
        });
        assert!(log.rotations() >= 3);
        // And `LEASES.log`: exactly its 32-byte header and records.
        let leased = dir.join("leased");
        let path = leased.join(crate::log::LEASE_LOG_FILE);
        let mut log = crate::log::AckLog::create(&leased, SyncPolicy::ProcessCrash).unwrap();
        for i in 1..=20u64 {
            log.append(&grant(i, i, 1, 0)).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 32 + i * 40);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
