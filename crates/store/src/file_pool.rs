//! The memory-mapped, file-backed persistent pool.
//!
//! A [`FilePool`] implements [`pmem::PoolBackend`] over a shared mapping of
//! an ordinary file, so every queue algorithm in the workspace — they all
//! operate on `Arc<PmemPool>` — runs unchanged on storage that survives a
//! real process restart. Wrap it with [`FilePool::into_pool`] and hand the
//! result to `RecoverableQueue::create` / `recover` exactly like a simulated
//! pool.
//!
//! ## File format (version 1, minor 1)
//!
//! ```text
//! byte 0                                  byte 4096             4096+size
//! ┌──────────────────────────────────────┬─────────────────────────────┐
//! │ header page                          │ pool bytes                  │
//! │   0  magic      u64  "DQSTORE1"      │ offset-addressed space;     │
//! │   8  version    u32  major|minor<<16 │ offset 0 is reserved        │
//! │  12  header_len u32  = 4096          │ (PRef::NULL), the queue     │
//! │  16  pool_size  u64  (creation size) │ root block and the ssmem    │
//! │  24  root_slots u32  = 8             │ directory sit at the fixed  │
//! │  28  geo_crc    u32  CRC-32 of [0,28)│ pmem::layout offsets, the   │
//! │  32  flags      u32  bit0 clean,     │ heap above HEAP_START       │
//! │                      bit1 power-fail │                             │
//! │  36  watermark  u32  (atomic)        │                             │
//! │  40  grown_size u64  (minor ≥ 1)     │ `size` is `pool_size` until │
//! │  48  grow_epoch u32  (minor ≥ 1)     │ the pool grows, then the    │
//! │  52  grow_crc   u32  CRC of [40,52)  │ committed `grown_size`      │
//! │  64  roots      [u64; 8] (atomic)    │                             │
//! │ 128  grow-commit journal (32 B)      │                             │
//! │ ...zero...                           │                             │
//! └──────────────────────────────────────┴─────────────────────────────┘
//! ```
//!
//! The geometry CRC covers only the immutable fields (magic through
//! root-slot count, including the version word): the mutable words below it
//! — flags, watermark, roots — are each a single naturally-aligned word
//! updated atomically in place, so they are always self-consistent and
//! deliberately outside the checksum. The flags word also records the
//! pool's [durability tier](self#durability-model), once, at creation:
//! every open takes it from there. The grow record (`grown_size`,
//! `grow_epoch`) carries its own CRC and is rewritten only through the
//! journaled commit protocol described below.
//!
//! ## Mapping
//!
//! A pool maps its file once, shared, and the base never moves. A
//! fixed-size pool (`grow_step == 0`) maps exactly its size. An elastic
//! pool maps `HEADER_LEN + MAX_POOL_SIZE` bytes, the whole 32-bit offset
//! space: about 4 GiB of address space and no memory, because a shared
//! file mapping commits nothing and the pages past the end of the file are
//! never touched. So every file pool hands [`PmemPool`] a
//! [`MapRef`](pmem::MapRef) once, at `into_pool`, and `PmemPool` performs
//! loads, stores and CASes inline on the mapping behind its own
//! release-mode bounds check — the reason the file backend's steady-state
//! cost is just the flushes the algorithm itself issues. The backend's own
//! operations check their bounds against the published size in release
//! builds too: an out-of-range offset panics rather than touching a page
//! the file does not hold.
//!
//! ## Elastic growth
//!
//! A pool created (or opened) with a non-zero growth step is **elastic**:
//! when `try_alloc_raw` runs out of space, the backend extends the file by
//! at least one growth step (`ftruncate`) underneath the reserved mapping
//! and retries — a queue can outgrow its creation-time watermark ceiling
//! without ever surfacing `PoolExhausted`. Nothing is remapped, so growth
//! neither blocks readers nor waits for them: the larger size is published
//! (one atomic store) only once the file holds it, and no offset past the
//! old size exists before then. Growth is also **crash-safe**: the durable
//! commit point is a self-checksummed journal record in the header page,
//! persisted after the `ftruncate` and *before* the larger size is
//! published to allocators — the watermark is persisted eagerly on every
//! allocation, so space above the old ceiling must never be handed out
//! ahead of the record that makes the new size survive a crash. A `kill -9`
//! anywhere in the protocol recovers to either the old size (journal absent
//! or torn) or the new size (journal intact, rolled forward on open); no
//! allocation is ever lost. The first committed growth bumps the header's
//! minor version to 1, which makes readers that predate the grow record
//! reject the file instead of silently ignoring the grown space. A kernel
//! that refuses the reservation (a tight `RLIMIT_AS`) fails `create` or
//! `open` with an error naming the pool's path.
//!
//! ## Durability model
//!
//! Stores go straight into the shared mapping, i.e. the OS page cache.
//! Against a **process crash** (`kill -9` included) everything already
//! stored is therefore durable — the page cache outlives the process — and
//! the flush/fence discipline costs only the real `CLWB`/`SFENCE`
//! instructions ([`SyncPolicy::ProcessCrash`], the default). Against
//! **power failure** the pool must reach the medium:
//! [`SyncPolicy::PowerFail`] additionally `msync`s, at every fence, the
//! pages the fencing thread flushed since its previous fence — the
//! file-system analogue of the paper's flush+SFENCE discipline. On DAX
//! mounts (real NVRAM mapped cache-coherently) the `CLWB`+`SFENCE` path
//! alone is the durability barrier, and `ProcessCrash` is the right mode.
//! The policy is chosen once, at [`FilePool::create`], and recorded in the
//! header's flags word; every open runs the pool under the recorded one.
//! Either way [`PmemPool::sync`] performs a full `msync` + `fsync`
//! checkpoint, and an orderly drop marks the header clean; a killed process
//! leaves the dirty flag set, which [`FilePool::was_clean`] reports on
//! reopen.
//!
//! ## Group commit
//!
//! Every [`SyncPolicy::PowerFail`] fence reaches the medium through group
//! commit, the way a write-ahead log's commits do, whether the pool was
//! created or reopened. It is a pipeline two batches deep
//! (`PIPELINE_DEPTH`):
//!
//! 1. A fencing thread publishes its dirty pages into the pool-wide **open
//!    batch** under a mutex.
//! 2. If the open batch has no leader yet and fewer than two batches are
//!    syncing, the thread **leads** it at once: closes it, sorts and
//!    dedups everyone's pages, merges adjacent pages into contiguous runs
//!    and issues one `msync` per run, beside whatever batch another
//!    leader is syncing. Otherwise it waits, and on every wake-up either
//!    finds its batch done or leads it when a slot has freed.
//! 3. The leader marks its batch done and wakes everyone; a **follower**
//!    returns once *its* batch is done, whatever happened to the one
//!    before — batches complete in any order.
//!
//! A lone fence therefore leads a batch of its own at once and pays only
//! its own pages' `msync`s, merged into contiguous runs. Two batches, not
//! one, because two threads `msync`ing one file at once each finish in
//! little more than the time of one alone, while two taking turns each pay
//! for both (the table in docs/PERFORMANCE.md, "Group commit"); not more
//! than two, because the fences that queue behind a full pipeline are what
//! coalesces under load.
//!
//! The durability contract is per fence: a fence returns only once a batch
//! containing *its* pages has fully `msync`ed. Nothing orders one thread's
//! fence after another's, and a page that sits in two in-flight batches is
//! synced twice, each time with contents at least as new as the stores the
//! fence that published it covers. A batch whose `msync` fails takes the
//! pool down: its leader panics with the pool's path, and so does every
//! fence that waits on the pool's group commit then or later. The
//! `store.fence.{leader,follower,coalesced,overlapped}` counters and the
//! `store.msync_batch_pages` histogram expose the batching.

use obs::crc::crc32;
use obs::flight::EventKind;
use obs::rows::CachePadded;
use obs::sys::{self, durable, page_size, MmapRegion};
use obs::{LazyCounter, LazyHistogram};
use pmem::layout::{self, CACHE_LINE};
use pmem::{PmemPool, PoolBackend, MAX_THREADS, ROOT_SLOTS};
use std::cell::UnsafeCell;
use std::collections::BTreeSet;
use std::fs::File;
use std::io;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

// Named instruments (see docs/OBSERVABILITY.md for the catalogue). The map
// counter counts mapping views handed out, not words touched: one per
// `map_ref` (a `PmemPool` takes one for its lifetime). The histograms time
// the two syscall-heavy cold paths.
static MAP_DIRECT: LazyCounter = LazyCounter::new("store.map.direct");
static FENCES: LazyCounter = LazyCounter::new("store.fence");
static GROWTHS: LazyCounter = LazyCounter::new("store.growth");
static GROWTH_NS: LazyHistogram = LazyHistogram::new("store.growth_ns");
static MSYNC_NS: LazyHistogram = LazyHistogram::new("store.msync_ns");
// Group-commit accounting: batches led, fences that rode another thread's
// submission, fences that shared a batch with at least one other fence,
// batches submitted while another was still in flight, and how many pages
// each batched submission covered. A failed sync is `obs::sys::durable`'s
// `sync.error`.
static FENCE_LEADER: LazyCounter = LazyCounter::new("store.fence.leader");
static FENCE_FOLLOWER: LazyCounter = LazyCounter::new("store.fence.follower");
static FENCE_COALESCED: LazyCounter = LazyCounter::new("store.fence.coalesced");
static FENCE_OVERLAPPED: LazyCounter = LazyCounter::new("store.fence.overlapped");
static MSYNC_BATCH_PAGES: LazyHistogram = LazyHistogram::new("store.msync_batch_pages");

/// `"DQSTORE1"` in little-endian byte order.
pub const MAGIC: u64 = u64::from_le_bytes(*b"DQSTORE1");

/// Pool-file **major** format version this build reads and writes (the low
/// 16 bits of the header's version word).
pub const FORMAT_VERSION: u32 = 1;

/// Highest **minor** format version this build reads (the high 16 bits of
/// the version word). Minor 0 = the original fixed-size layout; minor 1
/// adds the grow record. Files that have never grown keep minor 0, so they
/// stay readable by builds that predate elastic growth; the first committed
/// growth bumps the minor, which those old readers reject.
pub const FORMAT_MINOR: u32 = 1;

/// Size of the pool-file header page; pool offset 0 maps to this file byte.
pub const HEADER_LEN: usize = 4096;

// Header field byte offsets (see the module docs for the layout diagram).
const H_MAGIC: usize = 0;
const H_VERSION: usize = 8;
const H_HEADER_LEN: usize = 12;
const H_POOL_SIZE: usize = 16;
const H_ROOT_SLOTS: usize = 24;
const H_GEO_CRC: usize = 28;
const H_FLAGS: usize = 32;
const H_WATERMARK: usize = 36;
const H_GROWN_SIZE: usize = 40;
const H_GROW_EPOCH: usize = 48;
const H_GROW_CRC: usize = 52;
const H_ROOTS: usize = 64;
/// Grow-commit journal: the durable commit point of a growth. 24 bytes of
/// record (`version`, `geo_crc`, `grown_size`, `grow_epoch`, `grow_crc` —
/// the exact values the home fields will take) followed by a CRC-32 of
/// those 24 bytes. All-zero (or torn) = no commit in flight.
const H_JOURNAL: usize = 128;
const JOURNAL_LEN: usize = 32;

/// Extent of the geometry fields the header CRC covers.
const GEO_LEN: usize = H_GEO_CRC;

/// Extent of the grow record the grow CRC covers.
const GROW_RECORD: std::ops::Range<usize> = H_GROWN_SIZE..H_GROW_CRC;

/// `flags` bit: the pool was closed in an orderly fashion.
const FLAG_CLEAN: u32 = 1;

/// `flags` bit: the pool was created under [`SyncPolicy::PowerFail`]. Set
/// once, at creation; pools written before the bit existed read as
/// process-crash. Every higher bit is reserved and must be zero.
const FLAG_POWER_FAIL: u32 = 2;

/// Largest representable pool size: offsets are 32-bit and `align_up`
/// needs headroom for the cache-line round-up. An elastic pool reserves a
/// mapping this large (plus the header) up front.
const MAX_POOL_SIZE: usize = u32::MAX as usize - CACHE_LINE;

/// What a fence must guarantee. See the [module docs](self#durability-model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Durable against process crashes (and against any crash on DAX-mapped
    /// NVRAM): flush/fence execute the real `CLWB`/`SFENCE` instructions
    /// only; stores are already in the OS page cache.
    #[default]
    ProcessCrash,
    /// Durable against power failure on ordinary storage: every fence also
    /// `msync(MS_SYNC)`s the pages its thread flushed since the last fence,
    /// through the pool's [group commit](self#group-commit).
    PowerFail,
}

impl SyncPolicy {
    /// Short identifier used on the command line.
    pub fn key(&self) -> &'static str {
        match self {
            SyncPolicy::ProcessCrash => "process-crash",
            SyncPolicy::PowerFail => "power-fail",
        }
    }

    /// Parses a (case-insensitive) policy name.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "process-crash" | "processcrash" | "process" | "cache" => {
                Some(SyncPolicy::ProcessCrash)
            }
            "power-fail" | "powerfail" | "power" | "msync" => Some(SyncPolicy::PowerFail),
            _ => None,
        }
    }
}

/// Configuration of a fresh pool file.
#[derive(Clone, Copy, Debug)]
pub struct FileConfig {
    /// Pool size in bytes (the offset-addressed space, excluding the
    /// header). Rounded up to a whole number of cache lines; must leave room
    /// for the fixed layout regions.
    pub size: usize,
    /// Fence durability policy. Recorded in the header at creation and
    /// ignored on open, like `size`: a reopened pool runs under its own.
    pub sync: SyncPolicy,
    /// Growth step in bytes. `0` (the default) keeps the pool fixed-size:
    /// exhaustion surfaces as `PoolExhausted` exactly as before. Non-zero
    /// makes the pool elastic — on exhaustion the file is extended by at
    /// least this many bytes (more if one allocation needs more) and the
    /// allocation retried. See the [module docs](self#elastic-growth).
    pub grow_step: usize,
}

impl FileConfig {
    /// A pool of `size` bytes under the default (process-crash) policy.
    pub fn with_size(size: usize) -> Self {
        FileConfig {
            size,
            sync: SyncPolicy::default(),
            grow_step: 0,
        }
    }

    /// Overrides the fence durability policy.
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Enables elastic growth with the given step (`0` disables it).
    pub fn with_growth(mut self, grow_step: usize) -> Self {
        self.grow_step = grow_step;
        self
    }

    /// The former group-commit window setter, kept for callers that still
    /// pass one: every power-fail pool runs the one pipeline, so
    /// `_window_ns` is ignored, as `FilePool::open_with_sync` ignores its
    /// tier.
    #[doc(hidden)]
    pub fn with_group_commit(self, _window_ns: Option<u64>) -> Self {
        self
    }
}

impl Default for FileConfig {
    fn default() -> Self {
        Self::with_size(64 << 20)
    }
}

/// How many group-commit batches may be syncing at once. A constant, not a
/// [`FileConfig`] field: one queues a fence behind another thread's whole
/// `msync`, and without a bound nothing ever waits, so nothing coalesces.
const PIPELINE_DEPTH: usize = 2;

/// Shared state of the power-fail group-commit protocol, one per pool.
/// Fencing threads publish their dirty pages to the open batch under the
/// mutex; up to [`PIPELINE_DEPTH`] of them at a time lead a batch each,
/// and every other fence waits on the condvar for its batch. See the
/// [module docs](self#group-commit).
struct GroupCommit {
    state: Mutex<GcState>,
    cv: Condvar,
    /// Deterministic crash point (`DQ_FENCE_ABORT_BEFORE_WAKE=N`, read at
    /// pool construction): the process aborts on the `N`th *coalesced*
    /// batch, after its `msync`s complete but before the batch is marked
    /// done — no follower of that batch may have observed durability.
    abort_before_wake: Option<u64>,
    /// Coalesced (≥ 2 fences) batches submitted so far; drives the crash
    /// point above and the once-per-pool flight-recorder event.
    coalesced_batches: AtomicU64,
    /// Test support: called by each leader once its `msync`s are through
    /// and before its batch is marked done, outside the state mutex, with
    /// the batch's number and how many batches had a leader when it
    /// closed. Lets a test stall one chosen batch.
    #[cfg(test)]
    on_submit: Mutex<Option<SubmitHook>>,
}

#[cfg(test)]
type SubmitHook = Arc<dyn Fn(u64, usize) + Send + Sync>;

/// Mutex-protected core of [`GroupCommit`]. Batches are numbered from 1
/// and closed in order; batch `b` is **done** — every page published into
/// it has been `msync`ed — exactly when `b < open_batch` and `b` is not in
/// `leading`, in whatever order the leaders finished. Invariant: an open
/// batch that holds fences and has no leader has a fence waiting on the
/// condvar that will lead it once `leading` has room, and every change to
/// `leading` notifies the condvar.
struct GcState {
    /// Pages published by fences of the currently open batch.
    pending: Vec<usize>,
    /// Fences participating in the currently open batch.
    fences: u64,
    /// Number of the currently open batch.
    open_batch: u64,
    /// The batches that have a leader and are not done, at most
    /// [`PIPELINE_DEPTH`]; each is closed and being `msync`ed.
    leading: Vec<u64>,
    /// A batch's `msync` failed (its leader is panicking or has): no fence
    /// of this pool can promise durability any more, so every waiter
    /// panics as well instead of returning or staying parked.
    failed: bool,
}

impl GroupCommit {
    fn new() -> GroupCommit {
        GroupCommit {
            state: Mutex::new(GcState {
                pending: Vec::new(),
                fences: 0,
                open_batch: 1,
                leading: Vec::with_capacity(PIPELINE_DEPTH),
                failed: false,
            }),
            cv: Condvar::new(),
            abort_before_wake: std::env::var("DQ_FENCE_ABORT_BEFORE_WAKE")
                .ok()
                .and_then(|v| v.parse().ok()),
            coalesced_batches: AtomicU64::new(0),
            #[cfg(test)]
            on_submit: Mutex::new(None),
        }
    }
}

/// A leader's claim on its batch, from the moment the batch is closed.
/// Dropping it takes the batch out of `leading` and wakes every waiter —
/// as done if [`synced`](Self::synced) was set, as failed otherwise, which
/// is what a leader that panics inside its `msync`s leaves behind: its
/// followers neither stay parked nor return.
struct Leading<'a> {
    gc: &'a GroupCommit,
    batch: u64,
    synced: bool,
}

impl Drop for Leading<'_> {
    fn drop(&mut self) {
        // Runs during a panic too, so a poisoned mutex must not panic
        // again; the state is plain data, valid at every step.
        let mut st = self
            .gc
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.leading.retain(|&b| b != self.batch);
        st.failed |= !self.synced;
        drop(st);
        self.gc.cv.notify_all();
    }
}

/// Per-thread pages with outstanding flushes (power-fail policy only);
/// same single-owner-per-tid discipline as the pool's persist API.
#[derive(Default)]
struct PendingPages(UnsafeCell<Vec<usize>>);

// SAFETY: each slot is only accessed by the single thread owning the tid.
unsafe impl Sync for PendingPages {}

/// The validated geometry of an existing pool file, read from its header
/// without mapping the pool (see [`FilePool::read_geometry`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolGeometry {
    /// Effective pool size in bytes (the offset-addressed space, header
    /// excluded) — the committed grown size for pools that have grown, the
    /// creation size otherwise. Resharding sizes destination pools from
    /// this, so grown sources are never under-provisioned.
    pub pool_size: usize,
    /// Creation-time pool size (the header's immutable `pool_size` field).
    pub base_size: usize,
    /// Committed growth epoch: how many times the pool has grown. `0` for a
    /// pool that has never grown (minor version 0).
    pub growth_epoch: u32,
    /// Persisted allocation watermark: the pool offset below which space
    /// has been handed out. Never below `pmem::layout::HEAP_START`.
    pub watermark: u32,
    /// Whether the last session closed the pool cleanly.
    pub was_clean: bool,
    /// The durability tier the pool was created under, which every open
    /// runs it under.
    pub sync: SyncPolicy,
    /// The header's root slots, read without opening the pool.
    pub roots: [u64; ROOT_SLOTS],
}

impl PoolGeometry {
    /// Heap bytes actually handed out so far — what a copy or reshard of
    /// this pool must at minimum be able to hold.
    pub fn used_bytes(&self) -> usize {
        self.watermark as usize - layout::HEAP_START as usize
    }
}

/// The file-backed pool. See the [module docs](self).
pub struct FilePool {
    /// Header page plus pool space, at a base fixed for the pool's
    /// lifetime; an elastic pool's covers the whole offset space (see the
    /// [module docs](self#mapping)).
    map: MmapRegion,
    /// Pool size in bytes: how much of the mapping past the header the
    /// file holds. Growth raises it (`Release`, after the commit point);
    /// nothing lowers it.
    size: AtomicUsize,
    /// Serializes growth. Readers never take it.
    grow: Mutex<()>,
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    grow_step: usize,
    was_clean: bool,
    /// Created in this session: its tail above the watermark is the hole
    /// `create` made, and nothing has written there (see
    /// [`PoolBackend::vouches_zero_tail`]).
    created: bool,
    /// Whether `Drop` may mark the header clean: set once `create`/`open`
    /// has finished, cleared for good by a [lost](Self::lost) sync.
    /// `Relaxed`: whatever ends the other threads' use of the pool (the
    /// last `Arc`'s drop, a join) orders their stores before `Drop`.
    closes_clean: AtomicBool,
    pending: Box<[CachePadded<PendingPages>]>,
    /// Power-fail group commit: every power-fail fence goes through it.
    group: GroupCommit,
    /// Test-support `msync` oracle (`DQ_TRACK_MSYNC`, read at pool
    /// construction): every page any `msync` on this pool covered, file
    /// page numbers. See [`synced_pages`](Self::synced_pages).
    synced: Option<Mutex<BTreeSet<usize>>>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The five header words a growth commits, as staged in the journal.
#[derive(Clone, Copy)]
struct GrowCommit {
    version: u32,
    geo_crc: u32,
    grown_size: u64,
    grow_epoch: u32,
    grow_crc: u32,
}

impl GrowCommit {
    fn to_bytes(self) -> [u8; 24] {
        let mut b = [0u8; 24];
        b[0..4].copy_from_slice(&self.version.to_le_bytes());
        b[4..8].copy_from_slice(&self.geo_crc.to_le_bytes());
        b[8..16].copy_from_slice(&self.grown_size.to_le_bytes());
        b[16..20].copy_from_slice(&self.grow_epoch.to_le_bytes());
        b[20..24].copy_from_slice(&self.grow_crc.to_le_bytes());
        b
    }
}

/// Decodes the grow-commit journal, returning the staged record only if its
/// CRC matches and it names a real growth (epoch > 0). A torn or absent
/// record reads as `None`: the commit never happened.
fn read_journal(header: &[u8]) -> Option<GrowCommit> {
    let read_u32 = |off: usize| u32::from_le_bytes(header[off..off + 4].try_into().unwrap());
    let read_u64 = |off: usize| u64::from_le_bytes(header[off..off + 8].try_into().unwrap());
    if crc32(&header[H_JOURNAL..H_JOURNAL + 24]) != read_u32(H_JOURNAL + 24) {
        return None;
    }
    let rec = GrowCommit {
        version: read_u32(H_JOURNAL),
        geo_crc: read_u32(H_JOURNAL + 4),
        grown_size: read_u64(H_JOURNAL + 8),
        grow_epoch: read_u32(H_JOURNAL + 16),
        grow_crc: read_u32(H_JOURNAL + 20),
    };
    (rec.grow_epoch > 0).then_some(rec)
}

/// Reads and validates the header of the pool file `file` at `path`
/// (length, magic, format version, geometry CRC, grow record,
/// size-vs-file-length, watermark) and returns the decoded geometry plus
/// whether a grow-commit journal record is pending (the crash landed
/// between a growth's commit point and its home-field rewrite; the
/// journal's values supersede the home fields and `open` rolls them
/// forward). Shared by [`FilePool::open_with_config`] and
/// [`FilePool::read_geometry`].
fn validate_header(file: &File, path: &Path) -> io::Result<(PoolGeometry, bool)> {
    use std::io::Read;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN as u64 {
        return Err(invalid(format!(
            "{}: {} bytes is too short to hold a pool-file header",
            path.display(),
            file_len
        )));
    }
    let mut header = [0u8; HEADER_LEN];
    (&*file).read_exact(&mut header)?;
    // Splice a pending commit's values over the home fields before
    // validating, so a journal-committed growth reads exactly like a fully
    // home-written one.
    let journal = read_journal(&header);
    let mut image = [0u8; H_JOURNAL];
    image.copy_from_slice(&header[..H_JOURNAL]);
    if let Some(rec) = journal {
        image[H_VERSION..H_VERSION + 4].copy_from_slice(&rec.version.to_le_bytes());
        image[H_GEO_CRC..H_GEO_CRC + 4].copy_from_slice(&rec.geo_crc.to_le_bytes());
        image[H_GROWN_SIZE..H_GROWN_SIZE + 8].copy_from_slice(&rec.grown_size.to_le_bytes());
        image[H_GROW_EPOCH..H_GROW_EPOCH + 4].copy_from_slice(&rec.grow_epoch.to_le_bytes());
        image[H_GROW_CRC..H_GROW_CRC + 4].copy_from_slice(&rec.grow_crc.to_le_bytes());
    }
    let header = &image[..];
    let read_u64 = |off: usize| u64::from_le_bytes(header[off..off + 8].try_into().unwrap());
    let read_u32 = |off: usize| u32::from_le_bytes(header[off..off + 4].try_into().unwrap());
    if read_u64(H_MAGIC) != MAGIC {
        return Err(invalid(format!(
            "{}: bad magic {:#018x} (not a durable-queues pool file)",
            path.display(),
            read_u64(H_MAGIC)
        )));
    }
    let version = read_u32(H_VERSION);
    let (major, minor) = (version & 0xFFFF, version >> 16);
    if major != FORMAT_VERSION || minor > FORMAT_MINOR {
        return Err(invalid(format!(
            "{}: pool-file format version {}.{} (this build reads {}.0 through {}.{})",
            path.display(),
            major,
            minor,
            FORMAT_VERSION,
            FORMAT_VERSION,
            FORMAT_MINOR
        )));
    }
    let geo_crc = crc32(&header[..GEO_LEN]);
    if geo_crc != read_u32(H_GEO_CRC) {
        return Err(invalid(format!(
            "{}: header CRC mismatch (stored {:#010x}, computed {:#010x})",
            path.display(),
            read_u32(H_GEO_CRC),
            geo_crc
        )));
    }
    if read_u32(H_HEADER_LEN) as usize != HEADER_LEN
        || read_u32(H_ROOT_SLOTS) as usize != ROOT_SLOTS
    {
        return Err(invalid(format!(
            "{}: unsupported geometry (header_len {}, root_slots {})",
            path.display(),
            read_u32(H_HEADER_LEN),
            read_u32(H_ROOT_SLOTS)
        )));
    }
    let base_size = read_u64(H_POOL_SIZE) as usize;
    if base_size > u32::MAX as usize || (HEADER_LEN + base_size) as u64 > file_len {
        return Err(invalid(format!(
            "{}: header claims {} pool bytes but the file holds {}",
            path.display(),
            base_size,
            file_len.saturating_sub(HEADER_LEN as u64)
        )));
    }
    let (size, growth_epoch) = if minor >= 1 {
        if crc32(&header[GROW_RECORD]) != read_u32(H_GROW_CRC) {
            return Err(invalid(format!(
                "{}: grow-record CRC mismatch (stored {:#010x}, computed {:#010x})",
                path.display(),
                read_u32(H_GROW_CRC),
                crc32(&header[GROW_RECORD])
            )));
        }
        let grown = read_u64(H_GROWN_SIZE);
        let epoch = read_u32(H_GROW_EPOCH);
        if epoch == 0
            || (grown as usize) < base_size
            || grown > u32::MAX as u64
            || HEADER_LEN as u64 + grown > file_len
        {
            return Err(invalid(format!(
                "{}: corrupt grow record (grown_size {}, epoch {}, base size {}, file length {})",
                path.display(),
                grown,
                epoch,
                base_size,
                file_len
            )));
        }
        (grown as usize, epoch)
    } else {
        (base_size, 0)
    };
    let flags = read_u32(H_FLAGS);
    if flags & !(FLAG_CLEAN | FLAG_POWER_FAIL) != 0 {
        return Err(invalid(format!(
            "{}: reserved bits set in the header flags word {flags:#010x} at offset {H_FLAGS}",
            path.display()
        )));
    }
    let watermark = read_u32(H_WATERMARK);
    if watermark < layout::HEAP_START || watermark as usize > size {
        return Err(invalid(format!(
            "{}: corrupt watermark {} (heap starts at {}, pool size {})",
            path.display(),
            watermark,
            layout::HEAP_START,
            size
        )));
    }
    Ok((
        PoolGeometry {
            pool_size: size,
            base_size,
            growth_epoch,
            watermark,
            was_clean: flags & FLAG_CLEAN != 0,
            sync: if flags & FLAG_POWER_FAIL != 0 {
                SyncPolicy::PowerFail
            } else {
                SyncPolicy::ProcessCrash
            },
            roots: std::array::from_fn(|i| read_u64(H_ROOTS + i * 8)),
        },
        journal.is_some(),
    ))
}

/// Copies a pool file after validating its header, `fsync`ing the copy.
/// Only the live prefix — the header page plus the pool bytes below the
/// persisted watermark — is physically copied; the allocator never hands
/// out (and the pool never writes) space above the watermark, so the tail
/// is left as a sparse hole of zeroes and the copy keeps the source's full
/// length. Returns that length.
///
/// The source must not be open in any process (a torn copy of a live pool
/// would be a silent corruption); resharding uses this to drain source
/// shards from scratch copies without mutating the originals.
pub fn copy_pool_file(src: impl AsRef<Path>, dst: impl AsRef<Path>) -> io::Result<u64> {
    use std::io::Read;
    let (src, dst) = (src.as_ref(), dst.as_ref());
    let geometry = FilePool::read_geometry(src)?;
    let len = std::fs::metadata(src)?.len();
    let live = (HEADER_LEN + geometry.watermark as usize) as u64;
    let mut from = File::open(src)?;
    let mut to = File::create(dst)?;
    io::copy(&mut (&mut from).take(live.min(len)), &mut to)?;
    to.set_len(len)?;
    durable::fsync(&to, dst)?;
    Ok(len)
}

impl FilePool {
    /// Creates (or overwrites) a pool file at `path` and opens it. The pool
    /// starts zeroed with the watermark at [`layout::HEAP_START`], dirty
    /// until dropped cleanly, and records `config.sync` in its header.
    pub fn create(path: impl AsRef<Path>, config: FileConfig) -> io::Result<FilePool> {
        let path = path.as_ref().to_path_buf();
        let min = layout::HEAP_START as usize + CACHE_LINE;
        // Ceiling leaves headroom for the cache-line round-up (align_up
        // computes n + align - 1 left to right): anything above
        // u32::MAX - 64 would overflow the 32-bit offset arithmetic.
        let size = layout::align_up(
            config.size.clamp(min, MAX_POOL_SIZE) as u32,
            CACHE_LINE as u32,
        ) as usize;
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.set_len((HEADER_LEN + size) as u64)?;
        let pool = FilePool::from_file(file, path, size, config, None)?;
        pool.write_header(size);
        pool.msync(0, HEADER_LEN)?;
        Ok(pool.opened())
    }

    /// Opens an existing pool file, validating magic, format version,
    /// geometry CRC, flags, grow record, size and watermark, under the
    /// durability tier its header records. The previous session's clean
    /// flag is captured in [`was_clean`](Self::was_clean), then the pool is
    /// marked dirty for the new session. A growth whose commit was
    /// journaled but not home-written when the last session died is rolled
    /// forward here. The pool is fixed-size.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FilePool> {
        Self::open_with_config(path, FileConfig::default())
    }

    /// The former spelling of [`open`](Self::open); the tier comes from the
    /// header and `_sync` is ignored.
    #[doc(hidden)]
    pub fn open_with_sync(path: impl AsRef<Path>, _sync: SyncPolicy) -> io::Result<FilePool> {
        Self::open(path)
    }

    /// [`open`](Self::open) with the session's growth step. It is not
    /// recorded in the file, so each session chooses its own.
    /// `config.size` and `config.sync` are ignored: an existing pool's
    /// geometry and tier come from its header.
    pub fn open_with_config(path: impl AsRef<Path>, config: FileConfig) -> io::Result<FilePool> {
        let path = path.as_ref().to_path_buf();
        let file = File::options().read(true).write(true).open(&path)?;
        // Geometry must be validated before the pool size is trusted for
        // the full mapping.
        let (geometry, journal_pending) = validate_header(&file, &path)?;

        let config = config.with_sync(geometry.sync);
        let pool = FilePool::from_file(
            file,
            path,
            geometry.pool_size,
            config,
            Some(geometry.was_clean),
        )?;
        if journal_pending {
            pool.roll_forward_grow();
        }
        pool.set_flags(false); // dirty while open
        pool.msync(0, HEADER_LEN)?;
        Ok(pool.opened())
    }

    /// Maps `file`, which holds a pool of `size` bytes, for the session
    /// `config` describes: exactly `size` bytes on a fixed-size pool, the
    /// whole offset space on an elastic one. `reopened` carries the
    /// previous session's clean flag, `None` for a pool `create` just made.
    fn from_file(
        file: File,
        path: PathBuf,
        size: usize,
        config: FileConfig,
        reopened: Option<bool>,
    ) -> io::Result<FilePool> {
        let reserve = if config.grow_step > 0 {
            MAX_POOL_SIZE.max(size)
        } else {
            size
        };
        let map = MmapRegion::map(&file, HEADER_LEN + reserve).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "{}: cannot map {} bytes: {e}",
                    path.display(),
                    HEADER_LEN + reserve
                ),
            )
        })?;
        Ok(FilePool {
            map,
            size: AtomicUsize::new(size),
            grow: Mutex::new(()),
            file,
            path,
            policy: config.sync,
            grow_step: config.grow_step,
            was_clean: reopened.unwrap_or(true),
            created: reopened.is_none(),
            closes_clean: AtomicBool::new(false),
            pending: new_pending(),
            group: GroupCommit::new(),
            synced: std::env::var_os("DQ_TRACK_MSYNC").map(|_| Mutex::new(BTreeSet::new())),
        })
    }

    /// The end of `create` and `open`: a `?` before it drops a pool that
    /// closes dirty, so a crashed session stays unrecovered until an open
    /// completes.
    fn opened(self) -> FilePool {
        self.closes_clean.store(true, Ordering::Relaxed);
        self
    }

    /// Reads and validates the header of an existing pool file **without
    /// opening it**: no mapping of the pool space, no dirty-marking, no
    /// side effects on the file. This is how a resharding (or inspection)
    /// pass sizes destination pools from the source pools' persisted
    /// watermarks before committing to anything. A pending grow-commit
    /// journal is honoured virtually (the reported size is the committed
    /// grown size) but not rolled forward.
    pub fn read_geometry(path: impl AsRef<Path>) -> io::Result<PoolGeometry> {
        let path = path.as_ref();
        validate_header(&File::open(path)?, path).map(|(geometry, _)| geometry)
    }

    /// Whether the previous session closed this pool cleanly. `true` for a
    /// freshly created pool; `false` after a crash/kill, in which case the
    /// caller should run the queue's `recover` procedure (running it after a
    /// clean shutdown is also always safe).
    pub fn was_clean(&self) -> bool {
        self.was_clean
    }

    /// The path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fence durability policy in effect.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The configured growth step in bytes (`0` = fixed-size).
    pub fn grow_step(&self) -> usize {
        self.grow_step
    }

    /// The committed growth epoch: how many growths have reached their
    /// commit point over this pool file's lifetime (`0` = never grown).
    pub fn growth_epoch(&self) -> u32 {
        self.header_u32(H_GROW_EPOCH).load(Ordering::Acquire)
    }

    /// A direct-pointer view of the pool space (see [`pmem::MapRef`]).
    ///
    /// The mapping's base never moves, so a view is free to take and to
    /// hold, on a fixed-size and an elastic pool alike. Its length is the
    /// pool size when it was taken: offsets an elastic pool hands out after
    /// a later growth lie past it, and the view's accessors panic on them —
    /// take a fresh view to address the grown space.
    ///
    /// ```
    /// use pmem::PoolBackend;
    /// use store::{FileConfig, FilePool};
    ///
    /// let path = std::env::temp_dir().join(format!("mapref-doc-{}.pool", std::process::id()));
    /// let pool = FilePool::create(&path, FileConfig::with_size(4 << 20))?.into_pool();
    /// let off = pool.alloc_raw(64, 64);
    /// pool.store_u64(off, 7);
    ///
    /// let view = pool.map_ref().expect("file pools expose their mapping");
    /// assert_eq!(view.len(), pool.len());
    /// assert_eq!(view.atomic_u64(off).load(std::sync::atomic::Ordering::Acquire), 7);
    ///
    /// drop(pool);
    /// std::fs::remove_file(&path)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn map_ref(&self) -> pmem::MapRef<'_> {
        MAP_DIRECT.incr();
        // SAFETY: the base is fixed and stays mapped until the pool drops,
        // which the returned borrow of `self` outlasts; the file holds
        // `[0, size)` of pool space, and the size never shrinks. Pool
        // offset 0 is the first byte after the header.
        unsafe {
            pmem::MapRef::new(
                self.map.as_ptr().add(HEADER_LEN),
                self.size.load(Ordering::Acquire),
            )
        }
    }

    /// Wraps this backend in an [`Arc<PmemPool>`] — the handle every queue
    /// constructor takes, so any algorithm in the workspace runs unchanged
    /// on file-backed storage.
    ///
    /// ```
    /// use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
    /// use store::{FileConfig, FilePool};
    ///
    /// let path = std::env::temp_dir().join(format!("into-pool-doc-{}.pool", std::process::id()));
    /// let pool = FilePool::create(&path, FileConfig::with_size(4 << 20))?.into_pool();
    /// let queue = OptUnlinkedQueue::create(pool, QueueConfig::small_test());
    /// queue.enqueue(0, 7);
    /// assert_eq!(queue.dequeue(0), Some(7));
    /// drop(queue);
    /// std::fs::remove_file(&path)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn into_pool(self) -> Arc<PmemPool> {
        Arc::new(PmemPool::from_backend(Box::new(self)))
    }

    // ------------------------------------------------------------------
    // Growth
    // ------------------------------------------------------------------

    /// Grows the pool so its size is at least `min_len` bytes, extending by
    /// at least the configured growth step. Returns `Ok(true)` when the pool
    /// now holds `min_len` bytes (including when a concurrent growth already
    /// got there), `Ok(false)` when it cannot (growth disabled, or `min_len`
    /// exceeds the 32-bit offset ceiling). The protocol — `ftruncate`,
    /// journaled header commit, then publishing the size — is described in
    /// the [module docs](self#elastic-growth); readers are never blocked,
    /// and a crash at any point recovers to either the old or the new size
    /// with no allocation lost.
    pub fn grow_to(&self, min_len: usize) -> io::Result<bool> {
        let _grow = self
            .grow
            .lock()
            .expect("a growth panicked while holding the growth lock");
        let old_size = self.size.load(Ordering::Acquire);
        if old_size >= min_len {
            return Ok(true); // a concurrent growth already satisfied us
        }
        if self.grow_step == 0 {
            return Ok(false);
        }
        let target = min_len
            .max(old_size.saturating_add(self.grow_step))
            .min(MAX_POOL_SIZE);
        let new_size = layout::align_up(target as u32, CACHE_LINE as u32) as usize;
        if new_size < min_len {
            return Ok(false); // even the offset ceiling cannot satisfy this
        }

        let _growth_timer = GROWTH_NS.start_timer();

        // 1. Extend the file. Its new length must be durable before the
        //    commit record can claim space inside it.
        self.file.set_len((HEADER_LEN + new_size) as u64)?;
        durable::fsync(&self.file, &self.path)?;
        sys::crash_point("DQ_GROW_ABORT_AFTER_TRUNCATE");

        // 2. Compose the commit: the grow record, plus the minor-version
        //    bump (with its re-covered geometry CRC) that makes pre-growth
        //    readers reject the file rather than ignore the grown space.
        let version = FORMAT_VERSION | (FORMAT_MINOR << 16);
        let mut geo = [0u8; GEO_LEN];
        geo.copy_from_slice(self.header_bytes(0..GEO_LEN));
        geo[H_VERSION..H_VERSION + 4].copy_from_slice(&version.to_le_bytes());
        let mut grow = [0u8; 12];
        grow[0..8].copy_from_slice(&(new_size as u64).to_le_bytes());
        let epoch = self.header_u32(H_GROW_EPOCH).load(Ordering::Acquire) + 1;
        grow[8..12].copy_from_slice(&epoch.to_le_bytes());
        let commit = GrowCommit {
            version,
            geo_crc: crc32(&geo),
            grown_size: new_size as u64,
            grow_epoch: epoch,
            grow_crc: crc32(&grow),
        };

        // 3. Journal record — the durable commit point — persisted
        //    strictly *before* the larger size becomes visible to
        //    allocators: the watermark is persisted eagerly on every
        //    allocation, so space above the old ceiling must never be
        //    handed out ahead of the record that makes the new size
        //    survive a crash.
        let record = commit.to_bytes();
        for (i, chunk) in record.chunks(8).enumerate() {
            self.header_u64(H_JOURNAL + i * 8).store(
                u64::from_le_bytes(chunk.try_into().unwrap()),
                Ordering::Release,
            );
        }
        self.header_u32(H_JOURNAL + 24).store(
            crc32(self.header_bytes(H_JOURNAL..H_JOURNAL + 24)),
            Ordering::Release,
        );
        self.persist_header();
        // The journal record above is the durable commit point — log it to
        // the flight ring before the crash-injection hook so a kill "right
        // after commit" is visible in a post-mortem `harness blackbox`.
        GROWTHS.incr();
        obs::flight::record(EventKind::PoolGrowthCommit, epoch as u64, new_size as u64);
        sys::crash_point("DQ_GROW_ABORT_AFTER_COMMIT");

        // 4. Home fields (idempotent with open's journal roll-forward),
        //    then retire the journal.
        self.write_grow_home(commit);

        // 5. Publish. The file already holds the new bytes under the
        //    mapping's fixed base, so nothing is remapped and no reader is
        //    waited for: allocators may hand the space out from here on.
        self.size.store(new_size, Ordering::Release);
        Ok(true)
    }

    /// Writes a grow commit's five home fields and clears the journal; the
    /// tail of [`grow_to`](Self::grow_to) and of the roll-forward in `open`.
    fn write_grow_home(&self, commit: GrowCommit) {
        self.header_u32(H_VERSION)
            .store(commit.version, Ordering::Release);
        self.header_u32(H_GEO_CRC)
            .store(commit.geo_crc, Ordering::Release);
        self.header_u64(H_GROWN_SIZE)
            .store(commit.grown_size, Ordering::Release);
        self.header_u32(H_GROW_EPOCH)
            .store(commit.grow_epoch, Ordering::Release);
        self.header_u32(H_GROW_CRC)
            .store(commit.grow_crc, Ordering::Release);
        self.persist_header();
        for off in (H_JOURNAL..H_JOURNAL + JOURNAL_LEN).step_by(8) {
            self.header_u64(off).store(0, Ordering::Release);
        }
        self.persist_header();
    }

    /// Rolls a journaled-but-not-home-written growth forward (open path;
    /// the crash landed between the commit point and the home rewrite).
    fn roll_forward_grow(&self) {
        let commit = read_journal(self.header_bytes(0..HEADER_LEN))
            .expect("roll_forward_grow called without a valid journal");
        self.write_grow_home(commit);
    }

    // ------------------------------------------------------------------
    // Raw access helpers
    // ------------------------------------------------------------------

    #[inline]
    fn header_u32(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off + 4 <= HEADER_LEN && off.is_multiple_of(4));
        // SAFETY: in bounds of the header page, 4-byte aligned.
        unsafe { &*(self.map.as_ptr().add(off) as *const AtomicU32) }
    }

    #[inline]
    fn header_u64(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= HEADER_LEN && off.is_multiple_of(8));
        // SAFETY: in bounds of the header page, 8-byte aligned.
        unsafe { &*(self.map.as_ptr().add(off) as *const AtomicU64) }
    }

    /// A byte slice of the header range `r` (for CRC computation).
    fn header_bytes(&self, r: std::ops::Range<usize>) -> &[u8] {
        debug_assert!(r.end <= HEADER_LEN);
        // SAFETY: the header page is mapped and valid for HEADER_LEN bytes.
        unsafe { std::slice::from_raw_parts(self.map.as_ptr().add(r.start), r.end - r.start) }
    }

    /// Marks the pool clean or dirty, keeping its tier bit.
    fn set_flags(&self, clean: bool) {
        let tier = match self.policy {
            SyncPolicy::PowerFail => FLAG_POWER_FAIL,
            SyncPolicy::ProcessCrash => 0,
        };
        let flags = tier | if clean { FLAG_CLEAN } else { 0 };
        self.header_u32(H_FLAGS).store(flags, Ordering::Release);
        // SAFETY: the header page is valid readable memory.
        unsafe { pmem::hw::clflush(self.map.as_ptr().add(H_FLAGS)) };
        pmem::hw::sfence();
    }

    /// The mapped address of pool offset `off`, for an access of `bytes`
    /// bytes. The bound is checked in release builds too: past the
    /// published size the mapping has no file under it.
    #[inline]
    fn addr(&self, off: u32, bytes: u32) -> *mut u8 {
        let size = self.size.load(Ordering::Acquire);
        assert!(
            off as usize + bytes as usize <= size,
            "pool access out of bounds (offset {off}, pool size {size})"
        );
        // SAFETY: in bounds of the pool space the file holds.
        unsafe { self.map.as_ptr().add(HEADER_LEN + off as usize) }
    }

    #[inline]
    fn word(&self, off: u32) -> &AtomicU64 {
        let addr = self.addr(off, 8);
        debug_assert!(off.is_multiple_of(8), "unaligned pool access");
        // SAFETY: in bounds, 8-byte aligned (the mapping is page aligned),
        // and only ever accessed atomically.
        unsafe { &*(addr as *const AtomicU64) }
    }

    /// Synchronously writes `[offset, offset + len)` of the mapping
    /// (header included) back to the file, through [`durable::msync`].
    fn msync(&self, offset: usize, len: usize) -> io::Result<()> {
        let end = HEADER_LEN + self.size.load(Ordering::Acquire);
        assert!(
            offset.checked_add(len).is_some_and(|e| e <= end),
            "msync range out of bounds"
        );
        if let Some(tracker) = &self.synced {
            let page = page_size();
            let mut synced = tracker.lock().unwrap();
            synced.extend(offset / page..(offset + len).div_ceil(page));
        }
        durable::msync(&self.map, offset, len, &self.path)
    }

    /// `msync`s the first `len` bytes of the mapping, then `fsync`s the file.
    fn checkpoint(&self, len: usize) -> io::Result<()> {
        self.msync(0, len)
            .and_then(|()| durable::fsync(&self.file, &self.path))
    }

    /// Test support (`DQ_TRACK_MSYNC`): every file page number any `msync`
    /// on this pool has covered, sorted. Empty when the gate was unset at
    /// construction. Fences add exactly the pages flushed before them,
    /// whichever batch carried them — the fence-semantics property tests
    /// hold the set to a model of the flush/fence history.
    pub fn synced_pages(&self) -> Vec<usize> {
        self.synced
            .as_ref()
            .map(|t| t.lock().unwrap().iter().copied().collect())
            .unwrap_or_default()
    }

    /// Durably persists the header page when the policy demands it (rare
    /// path: root-slot writes, growth commits and their home fields). Its
    /// callers promise durability by returning, so a failed power-fail
    /// `msync` is [lost](Self::lost), as a fence's is.
    fn persist_header(&self) {
        // SAFETY: the header page is valid readable memory.
        unsafe { pmem::hw::persist_range(self.map.as_ptr(), HEADER_LEN) };
        if self.policy == SyncPolicy::PowerFail {
            if let Err(e) = self.msync(0, HEADER_LEN) {
                self.lost("header msync", e);
            }
        }
    }

    /// Fills in a fresh header (create path; the mapping is zeroed).
    fn write_header(&self, size: usize) {
        self.header_u64(H_MAGIC).store(MAGIC, Ordering::Relaxed);
        self.header_u32(H_VERSION)
            .store(FORMAT_VERSION, Ordering::Relaxed); // minor 0 until grown
        self.header_u32(H_HEADER_LEN)
            .store(HEADER_LEN as u32, Ordering::Relaxed);
        self.header_u64(H_POOL_SIZE)
            .store(size as u64, Ordering::Relaxed);
        self.header_u32(H_ROOT_SLOTS)
            .store(ROOT_SLOTS as u32, Ordering::Relaxed);
        let geo_crc = crc32(self.header_bytes(0..GEO_LEN));
        self.header_u32(H_GEO_CRC).store(geo_crc, Ordering::Relaxed);
        self.header_u32(H_WATERMARK)
            .store(layout::HEAP_START, Ordering::Release);
        self.set_flags(false);
    }

    fn with_pending<R>(&self, tid: usize, f: impl FnOnce(&mut Vec<usize>) -> R) -> R {
        assert!(tid < MAX_THREADS, "tid {tid} exceeds MAX_THREADS");
        // SAFETY: by the persist-API contract only the owner of `tid` calls
        // this, and the borrow is confined to the call.
        f(unsafe { &mut *self.pending[tid].0.get() })
    }

    /// The one place a fence-path `msync` is issued and its result looked
    /// at: merges adjacent `pages` (file page numbers, sorted, duplicates
    /// allowed) into contiguous runs and `msync`s each run once, stopping
    /// at the first error.
    fn sync_runs(&self, pages: &[usize]) -> io::Result<()> {
        debug_assert!(pages.is_sorted());
        let Some(&first) = pages.first() else {
            return Ok(());
        };
        let page = page_size();
        let mut run = (first, first);
        for &p in &pages[1..] {
            if p > run.1 + 1 {
                self.msync(run.0 * page, (run.1 - run.0 + 1) * page)?;
                run.0 = p;
            }
            run.1 = p;
        }
        self.msync(run.0 * page, (run.1 - run.0 + 1) * page)
    }

    /// [`sync_runs`](Self::sync_runs) for a caller that promises
    /// durability by returning — `persist_now`, a watermark move.
    fn sync_or_die(&self, pages: &[usize]) {
        if let Err(e) = self.sync_runs(pages) {
            self.lost("msync", e);
        }
    }

    /// A sync this pool promised failed (`EIO`, `ENOMEM`): the promise is
    /// unkeepable and, since the kernel may have marked the pages clean,
    /// unrepairable by retrying. The pool never closes clean again, and
    /// the process panics through [`durable::durability_lost`].
    fn lost(&self, what: &str, e: io::Error) -> ! {
        self.closes_clean.store(false, Ordering::Relaxed);
        durable::durability_lost(&self.path, what, e)
    }

    /// The power-fail tail of [`sfence`](PoolBackend::sfence): publishes
    /// this fence's pages to the pool-wide open batch, then leads that
    /// batch or waits for whoever does (the three steps of the
    /// [module docs](self#group-commit)). A fence only returns once a
    /// batch *containing its pages* has fully `msync`ed. `pages` is
    /// non-empty.
    fn fence_grouped(&self, pages: &[usize]) {
        let gc = &self.group;
        let mut st = gc.state.lock().unwrap();
        st.pending.extend_from_slice(pages);
        st.fences += 1;
        let my_batch = st.open_batch;
        loop {
            if st.failed {
                drop(st); // panic without poisoning the other waiters' lock
                panic!(
                    "a group-commit batch of pool {} failed to msync; this \
                     fence's pages may not be durable, restart and recover",
                    self.path.display()
                );
            }
            if my_batch < st.open_batch {
                if !st.leading.contains(&my_batch) {
                    // Another fence's submission covered this fence's pages.
                    FENCE_FOLLOWER.incr();
                    return;
                }
            } else if st.leading.len() < PIPELINE_DEPTH {
                // Still open, so nobody leads it: a leader closes its batch
                // in the lock hold it takes the lead in.
                break;
            }
            st = gc.cv.wait(st).unwrap();
        }
        // Lead the open batch, beside whatever batch is already syncing.
        st.leading.push(my_batch);
        let mut batch = std::mem::take(&mut st.pending);
        let fences = std::mem::take(&mut st.fences);
        st.open_batch += 1;
        let in_flight = st.leading.len();
        drop(st);
        let mut lead = Leading {
            gc,
            batch: my_batch,
            synced: false,
        };
        if let Err(e) = self.submit_batch(in_flight, &mut batch, fences) {
            self.lost("group-commit msync", e); // unwinds through `lead`: batch failed
        }
        #[cfg(test)]
        {
            // Cloned out, so a hook that stalls does not hold the hook's lock.
            let hook = gc.on_submit.lock().unwrap().clone();
            if let Some(hook) = hook {
                hook(my_batch, in_flight);
            }
        }
        lead.synced = true;
    }

    /// Leader half of group commit: `msync`s a closed batch's pages as
    /// merged runs. Runs outside the batch mutex — followers wait on the
    /// condvar, new fences publish into the next batch and may lead it.
    /// `in_flight` is how many batches had a leader when this one closed,
    /// itself included.
    fn submit_batch(
        &self,
        in_flight: usize,
        pages: &mut Vec<usize>,
        fences: u64,
    ) -> io::Result<()> {
        let gc = &self.group;
        FENCE_LEADER.incr();
        if in_flight > 1 {
            FENCE_OVERLAPPED.incr();
        }
        pages.sort_unstable();
        pages.dedup();
        MSYNC_BATCH_PAGES.record(pages.len() as u64);
        if fences >= 2 {
            FENCE_COALESCED.add(fences);
            if gc.coalesced_batches.fetch_add(1, Ordering::Relaxed) == 0 {
                // Once per pool, not per batch: the flight ring is tiny
                // and a hot producer workload commits millions of batches.
                obs::flight::record(EventKind::FenceGroupCommit, fences, pages.len() as u64);
            }
        }
        {
            let _msync_timer = MSYNC_NS.start_timer();
            self.sync_runs(pages)?;
        }
        // Deterministic crash point for the power-fail tests: die with the
        // batch synced but its followers still parked — a survivor of this
        // kill must find every page the batch promised already durable,
        // and no follower may have acked work past this point.
        if let Some(target) = gc.abort_before_wake {
            if fences >= 2 && gc.coalesced_batches.load(Ordering::Relaxed) >= target {
                std::process::abort();
            }
        }
        Ok(())
    }
}

fn new_pending() -> Box<[CachePadded<PendingPages>]> {
    (0..MAX_THREADS)
        .map(|_| CachePadded::new(PendingPages::default()))
        .collect()
}

impl Drop for FilePool {
    /// Orderly close: full durability barrier, then a durable clean mark.
    /// A killed process never gets here, and a close whose barrier or mark
    /// fails (counted as `sync.error`; `Drop` must not panic) leaves the
    /// header dirty, as does a pool that never finished opening or lost a
    /// sync: the next open recovers. An unlinked file (a reshard's scratch
    /// copy) is not synced at all: no open will ever read it.
    fn drop(&mut self) {
        if !self.closes_clean.load(Ordering::Relaxed)
            || self.file.metadata().is_ok_and(|m| m.nlink() == 0)
        {
            return;
        }
        if self.checkpoint(HEADER_LEN + self.len()).is_err() {
            return;
        }
        self.set_flags(true);
        if self.checkpoint(HEADER_LEN).is_err() {
            self.set_flags(false);
        }
    }
}

impl PoolBackend for FilePool {
    fn kind(&self) -> &'static str {
        "file"
    }

    fn len(&self) -> usize {
        self.size.load(Ordering::Acquire)
    }

    #[inline]
    fn load_u64(&self, off: u32) -> u64 {
        self.word(off).load(Ordering::Acquire)
    }

    #[inline]
    fn store_u64(&self, off: u32, val: u64) {
        self.word(off).store(val, Ordering::Release)
    }

    #[inline]
    fn cas_u64(&self, off: u32, current: u64, new: u64) -> Result<u64, u64> {
        self.word(off)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    #[inline]
    fn fetch_add_u64(&self, off: u32, val: u64) -> u64 {
        self.word(off).fetch_add(val, Ordering::AcqRel)
    }

    #[inline]
    fn swap_u64(&self, off: u32, val: u64) -> u64 {
        self.word(off).swap(val, Ordering::AcqRel)
    }

    #[inline]
    fn flush(&self, tid: usize, off: u32) {
        // SAFETY: the line containing `off` is inside the mapping.
        unsafe { pmem::hw::clflush(self.addr(off, 8)) };
        if self.policy == SyncPolicy::PowerFail {
            let page = (HEADER_LEN + off as usize) / page_size();
            self.with_pending(tid, |pending| {
                if pending.last() != Some(&page) {
                    pending.push(page);
                }
            });
        }
    }

    fn sfence(&self, tid: usize) {
        FENCES.incr();
        pmem::hw::sfence();
        if self.policy == SyncPolicy::PowerFail {
            // Sorted and deduped with the rest of the batch by its leader.
            let pages = self.with_pending(tid, std::mem::take);
            if !pages.is_empty() {
                self.fence_grouped(&pages);
            }
        }
    }

    #[inline]
    fn nt_store_u64(&self, tid: usize, off: u32, val: u64) {
        // SAFETY: in bounds, 8-byte aligned; concurrent access to pool words
        // is atomic by contract (a racing movnti would be the caller's
        // single-writer-per-word violation, same as on real hardware).
        unsafe { pmem::hw::nt_store_u64(self.word(off).as_ptr(), val) };
        if self.policy == SyncPolicy::PowerFail {
            let page = (HEADER_LEN + off as usize) / page_size();
            self.with_pending(tid, |pending| pending.push(page));
        }
    }

    fn persist_now(&self, off: u32) {
        // SAFETY: the line containing `off` is inside the mapping.
        unsafe { pmem::hw::persist_range(self.addr(off, 8), 8) };
        if self.policy == SyncPolicy::PowerFail {
            self.sync_or_die(&[(HEADER_LEN + off as usize) / page_size()]);
        }
    }

    fn zero_range(&self, off: u32, len: u32) {
        assert_eq!(off % 8, 0);
        assert_eq!(len % 8, 0);
        for i in 0..(len / 8) {
            self.word(off + i * 8).store(0, Ordering::Release);
        }
    }

    /// Only for a pool created in this session. `create` truncates the
    /// file and extends it, so the tail is a hole, and the header `msync`
    /// that ends `create` makes the file's length durable; a growth
    /// extends the hole the same way before its commit. Nothing writes
    /// above the watermark, so a crash can surface nothing there either.
    /// A reopened pool cannot vouch: a page of an earlier session's area
    /// may have reached the disk ahead of the watermark that covers it.
    fn vouches_zero_tail(&self) -> bool {
        self.created
    }

    fn watermark(&self) -> u32 {
        self.header_u32(H_WATERMARK).load(Ordering::Acquire)
    }

    fn cas_watermark(&self, current: u32, new: u32) -> Result<u32, u32> {
        let r = self.header_u32(H_WATERMARK).compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if r.is_ok() {
            // Allocations are rare (the ssmem layer carves whole designated
            // areas); persist the moved watermark eagerly so a reopened pool
            // never re-hands-out reserved space.
            // SAFETY: the header page is valid readable memory.
            unsafe { pmem::hw::clflush(self.map.as_ptr().add(H_WATERMARK)) };
            pmem::hw::sfence();
            if self.policy == SyncPolicy::PowerFail {
                self.sync_or_die(&[0]); // the header's page
            }
        }
        r
    }

    fn try_grow(&self, min_len: usize) -> bool {
        match self.grow_to(min_len) {
            Ok(grown) => grown,
            Err(e) => {
                // The caller surfaces PoolExhausted, which would otherwise
                // bury a real filesystem failure (ENOSPC, mmap) as a sizing
                // problem; growth is rare, so a stderr line is affordable.
                eprintln!(
                    "store: growing pool {} to {} bytes failed: {e}",
                    self.path.display(),
                    min_len
                );
                false
            }
        }
    }

    fn growth_epoch(&self) -> u32 {
        FilePool::growth_epoch(self)
    }

    fn root_u64(&self, slot: usize) -> u64 {
        debug_assert!(slot < ROOT_SLOTS);
        self.header_u64(H_ROOTS + slot * 8).load(Ordering::Acquire)
    }

    fn set_root_u64(&self, slot: usize, val: u64) {
        debug_assert!(slot < ROOT_SLOTS);
        self.header_u64(H_ROOTS + slot * 8)
            .store(val, Ordering::Release);
        self.persist_header();
    }

    /// A full checkpoint. A caller that asked for one relies on it, so a
    /// failed `msync` or `fsync` panics naming the pool, as a fence's does.
    fn sync(&self) {
        if let Err(e) = self.checkpoint(HEADER_LEN + self.len()) {
            self.lost("checkpoint", e);
        }
    }

    fn mark_clean(&self, clean: bool) {
        self.set_flags(clean);
        if let Err(e) = self.msync(0, HEADER_LEN) {
            self.lost("header msync", e);
        }
    }

    fn map_ref(&self) -> Option<pmem::MapRef<'_>> {
        Some(FilePool::map_ref(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("store-filepool-{tag}-{}", std::process::id()))
    }

    fn small() -> FileConfig {
        FileConfig::with_size(1 << 20)
    }

    #[test]
    fn create_open_roundtrip_preserves_data_and_watermark() {
        let path = temp_path("roundtrip");
        let off;
        {
            let pool = FilePool::create(&path, small()).unwrap();
            assert!(pool.was_clean());
            let p = pool.into_pool();
            off = p.alloc_raw(64, 64);
            p.store_u64(off, 0xFEED);
            p.flush(0, off);
            p.sfence(0);
            p.set_root_u64(0, off as u64);
        } // clean drop
        {
            let pool = FilePool::open(&path).unwrap();
            assert!(pool.was_clean(), "orderly drop must mark the pool clean");
            let p = pool.into_pool();
            assert_eq!(p.backend_kind(), "file");
            assert_eq!(p.root_u64(0), off as u64);
            assert_eq!(p.load_u64(off), 0xFEED);
            assert!(p.watermark() >= off + 64, "watermark must persist");
            // The watermark protects existing data: a new allocation lands
            // strictly above it.
            assert!(p.alloc_raw(64, 64) >= off + 64);
        }
        fs::remove_file(&path).unwrap();
    }

    /// A power-fail pool group-commits whether it was created or reopened,
    /// and a plain open takes the tier from the header: what the first life
    /// fenced reads back, and a fence of the second life leads a batch of
    /// its own.
    #[test]
    fn a_reopened_power_fail_pool_still_group_commits() {
        let _serial = gc_serial();
        let path = temp_path("gc-reopen");
        let off;
        {
            let p = FilePool::create(&path, small().with_sync(SyncPolicy::PowerFail))
                .unwrap()
                .into_pool();
            off = p.alloc_raw(64, 64);
            p.store_u64(off, 0xC0A1E5CE);
            p.flush(0, off);
            p.sfence(0); // a lone fence leads its own batch of one
            p.set_root_u64(0, off as u64);
        }
        let p = FilePool::open(&path).unwrap().into_pool();
        assert_eq!(p.root_u64(0), off as u64);
        assert_eq!(p.load_u64(off), 0xC0A1E5CE);
        let before = obs::snapshot();
        p.store_u64(off, 0xD0_0D);
        p.flush(0, off);
        p.sfence(0);
        let after = obs::snapshot();
        assert_eq!(
            after.counter("store.fence.leader") - before.counter("store.fence.leader"),
            1,
            "a fence of the reopened pool did not lead a batch"
        );
        drop(p);
        fs::remove_file(&path).unwrap();
    }

    /// The `store.fence.*` counters are process-global and this binary's
    /// tests run in parallel: every test that fences a power-fail pool
    /// holds this, so the ones that check an exact delta see only their own.
    fn gc_serial() -> std::sync::MutexGuard<'static, ()> {
        static GC_SERIAL: Mutex<()> = Mutex::new(());
        GC_SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A power-fail group-commit pool of `pages` data pages with the
    /// synced-page oracle armed (what `DQ_TRACK_MSYNC` does, without
    /// touching the environment of a multi-threaded test binary) and
    /// `hook` installed as its submit hook.
    fn gc_pool(
        tag: &str,
        pages: usize,
        hook: impl Fn(u64, usize) + Send + Sync + 'static,
    ) -> (PathBuf, FilePool) {
        let path = temp_path(tag);
        let mut pool = FilePool::create(
            &path,
            FileConfig::with_size((pages + 1) * page_size()).with_sync(SyncPolicy::PowerFail),
        )
        .unwrap();
        pool.synced = Some(Mutex::new(BTreeSet::new()));
        *pool.group.on_submit.lock().unwrap() = Some(Arc::new(hook));
        (path, pool)
    }

    /// One store + flush + fence on data page `idx`; returns its file page.
    fn fence_page(pool: &FilePool, tid: usize, idx: usize) -> usize {
        let off = (idx * page_size()) as u32;
        pool.store_u64(off, idx as u64 + 1);
        pool.flush(tid, off);
        pool.sfence(tid);
        (HEADER_LEN + off as usize) / page_size()
    }

    fn is_synced(pool: &FilePool, file_page: usize) -> bool {
        let synced = pool.synced.as_ref().unwrap().lock().unwrap();
        synced.contains(&file_page)
    }

    /// Spins until `cond` holds. Bounded, and every stall in these tests
    /// goes through it, so a broken protocol fails an assertion instead of
    /// hanging the binary.
    fn wait_until(cond: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !cond() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// The tentpole's claim as an interleaving: while batch 1's leader is
    /// stalled short of marking it done, a fence that publishes into batch
    /// 2 leads it and returns; batch 1's fence returns only after the
    /// release.
    #[test]
    fn a_fence_does_not_queue_behind_another_batchs_msync() {
        use std::sync::atomic::AtomicBool;
        let _serial = gc_serial();
        let stalled = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (path, pool) = gc_pool("gc-pipeline", 2, {
            let (stalled, release) = (stalled.clone(), release.clone());
            move |batch, _| {
                if batch == 1 {
                    stalled.store(true, Ordering::SeqCst);
                    wait_until(|| release.load(Ordering::SeqCst));
                }
            }
        });
        let first_returned = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                let page = fence_page(&pool, 0, 0);
                first_returned.store(true, Ordering::SeqCst);
                page
            });
            assert!(wait_until(|| stalled.load(Ordering::SeqCst)));
            let second = scope.spawn(|| fence_page(&pool, 1, 1));
            let overtook = wait_until(|| second.is_finished());
            let first_was_parked = !first_returned.load(Ordering::SeqCst);
            release.store(true, Ordering::SeqCst);
            let second_page = second.join().unwrap();
            assert!(
                overtook,
                "batch 2's fence queued behind batch 1's stalled submission"
            );
            assert!(first_was_parked, "batch 1's fence returned while stalled");
            assert!(is_synced(&pool, second_page));
            let first_page = first.join().unwrap();
            assert!(is_synced(&pool, first_page));
        });
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    /// Fence threads of a test scope, each returning its file page.
    type Fences<'scope> = Vec<std::thread::ScopedJoinHandle<'scope, usize>>;

    /// Fences on pages 0 and 1 lead batches 1 and 2, which the pool's
    /// submit hook stalls (counting each stall in `stalled`); then fences
    /// on pages 2 and 3 publish into batch 3 behind the full pipeline.
    /// Returns the first two fences, the two sharing batch 3 and whether
    /// both of those had published before the deadline.
    fn fill_the_pipeline<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        pool: &'scope FilePool,
        stalled: &AtomicUsize,
    ) -> (Fences<'scope>, Fences<'scope>, bool) {
        let stalls = (0..2)
            .map(|tid| {
                let handle = scope.spawn(move || fence_page(pool, tid, tid));
                assert!(wait_until(|| stalled.load(Ordering::SeqCst) == tid + 1));
                handle
            })
            .collect();
        let sharers = (2..4)
            .map(|tid| scope.spawn(move || fence_page(pool, tid, tid)))
            .collect();
        let both_parked = wait_until(|| pool.group.state.lock().unwrap().fences == 2);
        (stalls, sharers, both_parked)
    }

    /// Coalescing without timing: batches 1 and 2 stall and fill the
    /// pipeline, two more fences publish into batch 3 meanwhile, and once
    /// the stalls are released exactly one of them leads batch 3 and the
    /// other follows it.
    #[test]
    fn group_commit_coalesces_concurrent_fences() {
        use std::sync::atomic::AtomicBool;
        use std::thread::ThreadId;
        let _serial = gc_serial();
        let stalled = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let third_leader: Arc<Mutex<Option<ThreadId>>> = Arc::default();
        let (path, pool) = gc_pool("gc-coalesce", 4, {
            let (stalled, release) = (stalled.clone(), release.clone());
            let third_leader = third_leader.clone();
            move |batch, _| {
                if batch <= 2 {
                    stalled.fetch_add(1, Ordering::SeqCst);
                    wait_until(|| release.load(Ordering::SeqCst));
                } else if batch == 3 {
                    *third_leader.lock().unwrap() = Some(std::thread::current().id());
                }
            }
        });
        let before = obs::snapshot();
        std::thread::scope(|scope| {
            let (stalls, sharers, both_parked) = fill_the_pipeline(scope, &pool, &stalled);
            release.store(true, Ordering::SeqCst);
            assert!(both_parked, "two fences must publish into batch 3");
            let ids: Vec<ThreadId> = sharers.iter().map(|h| h.thread().id()).collect();
            for handle in stalls.into_iter().chain(sharers) {
                let page = handle.join().unwrap();
                assert!(is_synced(&pool, page));
            }
            let leader = third_leader.lock().unwrap().expect("batch 3 had a leader");
            assert!(
                ids.contains(&leader),
                "batch 3 was led by a fence outside it"
            );
        });
        let after = obs::snapshot();
        let delta = |name| after.counter(name) - before.counter(name);
        assert_eq!(delta("store.fence.leader"), 3, "batches 1, 2 and 3");
        assert_eq!(delta("store.fence.follower"), 1, "batch 3's second fence");
        assert_eq!(delta("store.fence.coalesced"), 2, "batch 3's two fences");
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    /// 8 threads x 500 fences, every fence on a page of its own: never more
    /// than `PIPELINE_DEPTH` batches in flight and that many at least once,
    /// every fence either led a batch or followed one, and no fence returns
    /// before its own page is in the synced-page record.
    #[test]
    fn the_pipeline_stays_two_deep_and_every_fence_leads_or_follows() {
        const THREADS: usize = 8;
        const FENCES: usize = 500;
        let _serial = gc_serial();
        let deepest = Arc::new(AtomicUsize::new(0));
        let (path, pool) = gc_pool("gc-depth", THREADS * FENCES, {
            let deepest = deepest.clone();
            move |_, in_flight| {
                deepest.fetch_max(in_flight, Ordering::Relaxed);
            }
        });
        let before = obs::snapshot();
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..FENCES {
                        let page = fence_page(pool, tid, tid * FENCES + i);
                        assert!(
                            is_synced(pool, page),
                            "tid {tid}'s fence {i} returned before its page synced"
                        );
                    }
                });
            }
        });
        let after = obs::snapshot();
        assert_eq!(
            deepest.load(Ordering::Relaxed),
            PIPELINE_DEPTH,
            "the most batches in flight at once"
        );
        let delta = |name| after.counter(name) - before.counter(name);
        assert_eq!(
            delta("store.fence.leader") + delta("store.fence.follower"),
            (THREADS * FENCES) as u64,
            "a fence neither led nor followed"
        );
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    /// A batch whose `msync` fails (injected) must not pass for durable:
    /// its leader panics naming the pool, the follower parked in it panics
    /// too instead of returning or staying parked, and so does every later
    /// fence of the pool. The batches that synced before it return.
    #[test]
    fn a_failed_msync_panics_the_leader_and_its_followers_with_the_pools_path() {
        use std::sync::atomic::AtomicBool;
        let _serial = gc_serial();
        let stalled = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(false));
        // Batches 1 and 2 stall and fill the pipeline, so the next two
        // fences share batch 3, whose one run is the third msync: the one
        // that fails.
        let (path, pool) = gc_pool("gc-eio", 5, {
            let (stalled, release) = (stalled.clone(), release.clone());
            move |batch, _| {
                if batch <= 2 {
                    stalled.fetch_add(1, Ordering::SeqCst);
                    wait_until(|| release.load(Ordering::SeqCst));
                }
            }
        });
        let fault = durable::fail_nth(&path, durable::SyncKind::Msync, 3);
        let before = obs::snapshot();
        let message = |r: std::thread::Result<usize>| {
            let payload = r.expect_err("a fence of the failed batch returned");
            *payload.downcast::<String>().expect("panic with a message")
        };
        std::thread::scope(|scope| {
            let (synced, failed, both_parked) = fill_the_pipeline(scope, &pool, &stalled);
            release.store(true, Ordering::SeqCst);
            assert!(both_parked, "two fences must share the batch that fails");
            for handle in synced {
                let page = handle.join().expect("batches 1 and 2 synced");
                assert!(is_synced(&pool, page));
            }
            let path = path.display().to_string();
            let mut messages: Vec<String> = failed.into_iter().map(|h| message(h.join())).collect();
            messages.push(message(
                scope.spawn(|| fence_page(&pool, 4, 4)).join(), // a later fence
            ));
            assert_eq!(
                messages
                    .iter()
                    .filter(|m| m.contains("Input/output error"))
                    .count(),
                1,
                "exactly the leader reports the errno: {messages:?}"
            );
            for m in &messages {
                assert!(m.contains(&path), "panic must name the pool: {m}");
            }
        });
        assert!(fault.fired());
        assert_sync_errors(&before, 1);
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dirty_flag_survives_until_clean_close() {
        let path = temp_path("dirty");
        {
            let _pool = FilePool::create(&path, small()).unwrap();
            // Reopening while another handle holds the pool open (or after a
            // kill) must observe the dirty flag.
            let second = FilePool::open(&path).unwrap();
            assert!(!second.was_clean());
        }
        let third = FilePool::open(&path).unwrap();
        assert!(third.was_clean());
        drop(third);
        fs::remove_file(&path).unwrap();
    }

    /// `sync.error` rose by exactly `n` since `before`. It is
    /// process-global: the tests that fail syncs hold `gc_serial()`.
    fn assert_sync_errors(before: &obs::MetricsSnapshot, n: u64) {
        let after = obs::snapshot();
        assert_eq!(
            after.counter("sync.error") - before.counter("sync.error"),
            n
        );
    }

    /// Runs `call` with the `nth` sync of `kind` on `path` failing, and
    /// returns its panic message, which must name `path`.
    fn panic_of(path: &Path, kind: durable::SyncKind, nth: u64, call: impl FnOnce()) -> String {
        let _fault = durable::fail_nth(path, kind, nth);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call));
        let message = *died
            .expect_err("returned over a failed sync")
            .downcast::<String>()
            .expect("panic with a message");
        assert!(
            message.contains(&path.display().to_string()),
            "panic must name the pool: {message}"
        );
        message
    }

    /// A checkpoint (`sync`) and a clean/dirty mark (`mark_clean`) return
    /// as durable, so a sync that fails under either must panic naming the
    /// pool, counted like a fence's — under either policy.
    #[test]
    fn a_failed_sync_panics_with_the_path() {
        use durable::SyncKind::{Fsync, Msync};
        let _serial = gc_serial(); // `sync.error` is process-global
        let path = temp_path("sync-fails");
        let pool = FilePool::create(&path, small()).unwrap();
        let before = obs::snapshot();
        panic_of(&path, Msync, 1, || pool.sync());
        panic_of(&path, Fsync, 1, || pool.sync());
        panic_of(&path, Msync, 1, || pool.mark_clean(false));
        assert_sync_errors(&before, 3);
        drop(pool);
        assert!(!FilePool::open(&path).unwrap().was_clean());
        fs::remove_file(&path).unwrap();
    }

    /// A root-slot write returns as durable, so a header `msync` that fails
    /// under it must panic naming the pool, counted like a fence's.
    #[test]
    fn a_failed_header_sync_panics_with_the_path() {
        let _serial = gc_serial(); // `sync.error` is process-global
        let path = temp_path("header-fails");
        let pool = FilePool::create(&path, small().with_sync(SyncPolicy::PowerFail)).unwrap();
        let before = obs::snapshot();
        panic_of(&path, durable::SyncKind::Msync, 1, || {
            pool.set_root_u64(0, 7)
        });
        assert_sync_errors(&before, 1);
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_close_whose_data_sync_fails_leaves_the_pool_dirty() {
        let _serial = gc_serial(); // `sync.error` is process-global
        let path = temp_path("close-fails");
        let before = obs::snapshot();
        let pool = FilePool::create(&path, small().with_sync(SyncPolicy::PowerFail)).unwrap();
        let fault = durable::fail_nth(&path, durable::SyncKind::Msync, 1);
        drop(pool);
        assert!(fault.fired());
        let reopened = FilePool::open(&path).unwrap();
        assert!(
            !reopened.was_clean(),
            "a failed close reopens as cleanly closed"
        );
        assert_sync_errors(&before, 1);
        drop(reopened);
        assert!(FilePool::open(&path).unwrap().was_clean());
        fs::remove_file(&path).unwrap();
    }

    /// Regression: an open that failed after mapping the pool dropped it
    /// half-opened, and the drop marked the header clean — so a crashed,
    /// never-recovered session reopened as cleanly closed.
    #[test]
    fn a_failed_open_leaves_a_crashed_pool_dirty() {
        let _serial = gc_serial(); // `sync.error` is process-global
        let path = temp_path("open-fails");
        std::mem::forget(FilePool::create(&path, small()).unwrap()); // a crash
        {
            let _fault = durable::fail_nth(&path, durable::SyncKind::Msync, 1);
            let err = FilePool::open(&path).map(|_| ()).unwrap_err();
            assert_eq!(err.raw_os_error(), Some(5), "{err}");
        }
        let pool = FilePool::open(&path).unwrap();
        assert!(
            !pool.was_clean(),
            "a failed open marked a crashed pool clean"
        );
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_bad_magic_version_and_crc() {
        use std::io::{Seek, SeekFrom, Write};
        let path = temp_path("validate");
        drop(FilePool::create(&path, small()).unwrap());

        let corrupt_at = |pos: u64, bytes: &[u8]| {
            let mut f = File::options().read(true).write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(pos)).unwrap();
            f.write_all(bytes).unwrap();
        };
        let reopen = || FilePool::open(&path).map(|_| ()).unwrap_err().to_string();

        corrupt_at(0, b"NOTAPOOL");
        assert!(reopen().contains("bad magic"), "{}", reopen());
        corrupt_at(0, b"DQSTORE1");
        // Magic restored but the CRC content changed? No — magic is part of
        // the CRC'd region and was restored bit-for-bit, so this reopens.
        FilePool::open(&path).unwrap();

        corrupt_at(8, &99u32.to_le_bytes());
        assert!(reopen().contains("version"), "{}", reopen());
        // An unknown minor version is rejected too (the geometry CRC is
        // recomputed so the minor check itself is what trips).
        let bad_minor = FORMAT_VERSION | ((FORMAT_MINOR + 1) << 16);
        corrupt_at(8, &bad_minor.to_le_bytes());
        let mut geo = fs::read(&path).unwrap()[..GEO_LEN].to_vec();
        geo[H_VERSION..H_VERSION + 4].copy_from_slice(&bad_minor.to_le_bytes());
        corrupt_at(H_GEO_CRC as u64, &crc32(&geo).to_le_bytes());
        assert!(reopen().contains("version 1.2"), "{}", reopen());
        corrupt_at(8, &FORMAT_VERSION.to_le_bytes());

        corrupt_at(16, &(123456789u64).to_le_bytes());
        assert!(reopen().contains("CRC"), "{}", reopen());

        fs::remove_file(&path).unwrap();
    }

    /// The tier bit survives every flags write: created, closed clean,
    /// reopened, crashed and reopened again, the header keeps the creation
    /// tier, and every open runs under it whatever its config asks for.
    #[test]
    fn the_tier_bit_survives_clean_close_crash_and_reopen() {
        for (sync, other) in [
            (SyncPolicy::PowerFail, SyncPolicy::ProcessCrash),
            (SyncPolicy::ProcessCrash, SyncPolicy::PowerFail),
        ] {
            let path = temp_path(&format!("tier-{}", sync.key()));
            let header = || {
                let g = FilePool::read_geometry(&path).unwrap();
                (g.sync, g.was_clean)
            };
            drop(FilePool::create(&path, small().with_sync(sync)).unwrap());
            assert_eq!(header(), (sync, true), "after a clean close");
            let crashed = FilePool::open_with_config(&path, small().with_sync(other)).unwrap();
            assert_eq!(crashed.sync_policy(), sync, "the config's tier won");
            std::mem::forget(crashed); // a crash
            assert_eq!(header(), (sync, false), "after a crash");
            let reopened = FilePool::open(&path).unwrap();
            assert_eq!(
                (reopened.sync_policy(), reopened.was_clean()),
                (sync, false)
            );
            drop(reopened);
            assert_eq!(header(), (sync, true), "after the recovery's close");
            fs::remove_file(&path).unwrap();
        }
    }

    /// A flags word with a reserved bit set is refused, naming the file and
    /// the word's offset; the two defined bits together are fine.
    #[test]
    fn open_refuses_reserved_flag_bits() {
        use std::io::{Seek, SeekFrom, Write};
        let path = temp_path("flags");
        drop(FilePool::create(&path, small()).unwrap());
        let write_flags = |flags: u32| {
            let mut f = File::options().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(H_FLAGS as u64)).unwrap();
            f.write_all(&flags.to_le_bytes()).unwrap();
        };
        for hostile in [FLAG_POWER_FAIL << 1, 1 << 31, u32::MAX] {
            write_flags(hostile);
            let opened = FilePool::open(&path).map(|_| ()).unwrap_err();
            let read = FilePool::read_geometry(&path).map(|_| ()).unwrap_err();
            for err in [opened, read] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
                let msg = err.to_string();
                let located = msg.contains(&*path.to_string_lossy()) && msg.contains("offset 32");
                assert!(located, "{msg}");
            }
        }
        write_flags(FLAG_CLEAN | FLAG_POWER_FAIL);
        let pool = FilePool::open(&path).unwrap();
        assert_eq!(
            (pool.sync_policy(), pool.was_clean()),
            (SyncPolicy::PowerFail, true)
        );
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_truncated_files_and_corrupt_watermarks() {
        let path = temp_path("truncate");
        drop(FilePool::create(&path, small()).unwrap());
        let f = File::options().read(true).write(true).open(&path).unwrap();
        f.set_len(HEADER_LEN as u64 + 100).unwrap();
        drop(f);
        let err = FilePool::open(&path).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains("claims"), "{err}");
        fs::remove_file(&path).unwrap();

        let path = temp_path("watermark");
        drop(FilePool::create(&path, small()).unwrap());
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = File::options().read(true).write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(H_WATERMARK as u64)).unwrap();
            f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        }
        let err = FilePool::open(&path).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains("watermark"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn power_fail_policy_msyncs_without_changing_semantics() {
        let _serial = gc_serial();
        let path = temp_path("powerfail");
        {
            let pool = FilePool::create(&path, small().with_sync(SyncPolicy::PowerFail)).unwrap();
            assert_eq!(pool.sync_policy(), SyncPolicy::PowerFail);
            let p = pool.into_pool();
            let off = p.alloc_raw(256, 64);
            for i in 0..32 {
                p.store_u64(off + i * 8, i as u64 + 1);
            }
            p.flush_range(0, off, 256);
            p.sfence(0);
            p.nt_store_u64(0, off, 999);
            p.sfence(0);
            p.persist_now(off + 8);
            p.sync();
            assert_eq!(p.load_u64(off), 999);
            assert_eq!(p.load_u64(off + 8), 2);
        }
        let reopened = FilePool::open(&path).unwrap();
        assert_eq!(reopened.sync_policy(), SyncPolicy::PowerFail);
        drop(reopened);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomics_and_roots_behave_like_the_sim_backend() {
        let path = temp_path("atomics");
        let pool = FilePool::create(&path, small()).unwrap();
        let p = pool.into_pool();
        let off = p.alloc_raw(64, 64);
        assert_eq!(p.fetch_add_u64(off, 5), 0);
        assert_eq!(p.cas_u64(off, 5, 6), Ok(5));
        assert_eq!(p.cas_u64(off, 5, 7), Err(6));
        assert_eq!(p.swap_u64(off, 100), 6);
        p.set_root_u64(3, 0xBEEF);
        assert_eq!(p.root_u64(3), 0xBEEF);
        assert_eq!(p.persistent_u64_at(off), 100);
        p.mark_line_cached(off); // no-op, must not panic
        drop(p);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_geometry_reports_size_watermark_and_cleanliness() {
        let path = temp_path("geometry");
        let off;
        {
            let pool = FilePool::create(&path, small()).unwrap();
            let expected_size = pool.len();
            let p = pool.into_pool();
            off = p.alloc_raw(256, 64);
            // Mid-session: dirty, watermark already moved.
            let geo = FilePool::read_geometry(&path).unwrap();
            assert_eq!(geo.pool_size, expected_size);
            assert_eq!(geo.base_size, expected_size);
            assert_eq!(geo.growth_epoch, 0);
            assert!(!geo.was_clean, "open pool reads as dirty");
            assert!(geo.watermark >= off + 256);
            assert_eq!(
                geo.used_bytes(),
                geo.watermark as usize - layout::HEAP_START as usize
            );
        }
        let geo = FilePool::read_geometry(&path).unwrap();
        assert!(geo.was_clean, "orderly drop marks the pool clean");
        assert!(geo.used_bytes() >= 256);
        // Reading the geometry has no side effects: the file still opens
        // clean afterwards.
        assert!(FilePool::open(&path).unwrap().was_clean());
        fs::remove_file(&path).unwrap();

        // Validation errors surface exactly like open's.
        let err = FilePool::read_geometry(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        fs::write(&path, b"short").unwrap();
        let err = FilePool::read_geometry(&path).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("too short"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn copy_pool_file_produces_an_identical_openable_pool() {
        let src = temp_path("copy-src");
        let dst = temp_path("copy-dst");
        {
            let pool = FilePool::create(&src, small()).unwrap().into_pool();
            let off = pool.alloc_raw(64, 64);
            pool.store_u64(off, 0xC0FFEE);
            pool.set_root_u64(0, off as u64);
        }
        let bytes = copy_pool_file(&src, &dst).unwrap();
        assert_eq!(bytes, fs::metadata(&src).unwrap().len());
        let copy = FilePool::open(&dst).unwrap();
        assert!(copy.was_clean());
        let p = copy.into_pool();
        let off = p.root_u64(0) as u32;
        assert_eq!(p.load_u64(off), 0xC0FFEE);
        // Copying a non-pool file is refused before any bytes move.
        fs::write(&src, b"not a pool").unwrap();
        assert!(copy_pool_file(&src, &dst).is_err());
        fs::remove_file(&src).unwrap();
        fs::remove_file(&dst).unwrap();
    }

    #[test]
    fn create_clamps_huge_sizes_without_align_overflow() {
        // u32::MAX used to overflow the cache-line round-up inside create.
        let path = temp_path("huge");
        let pool = FilePool::create(&path, FileConfig::with_size(u32::MAX as usize)).unwrap();
        assert!(pool.len() <= u32::MAX as usize);
        assert_eq!(pool.len() % CACHE_LINE, 0);
        assert!(pool.len() >= (u32::MAX as usize) - 2 * CACHE_LINE);
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sizes_are_floored_and_aligned() {
        let path = temp_path("sizing");
        let pool = FilePool::create(&path, FileConfig::with_size(10)).unwrap();
        assert!(pool.len() >= layout::HEAP_START as usize + CACHE_LINE);
        assert_eq!(pool.len() % CACHE_LINE, 0);
        assert_eq!(
            pool.path().file_name(),
            path.file_name(),
            "path is recorded"
        );
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    // ------------------------------------------------------------------
    // Growth
    // ------------------------------------------------------------------

    /// A 256 KiB pool that grows in 256 KiB steps.
    fn tiny_elastic() -> FileConfig {
        FileConfig::with_size(256 << 10).with_growth(256 << 10)
    }

    #[test]
    fn grow_to_extends_preserves_data_and_bumps_the_epoch() {
        let path = temp_path("grow");
        let pool = FilePool::create(&path, tiny_elastic()).unwrap();
        let base = pool.len();
        assert_eq!(pool.growth_epoch(), 0);
        assert_eq!(pool.grow_step(), 256 << 10);
        let p = pool.into_pool();
        let off = p.alloc_raw(64, 64);
        p.store_u64(off, 0xDA7A);

        // Exhaust the base size through the public allocation API: the pool
        // grows instead of failing.
        let mut last = off;
        while (last as usize) < base {
            last = p.alloc_raw(4096, 64);
        }
        assert!(p.len() > base, "pool must have grown");
        assert_eq!(p.growth_epoch(), 1);
        assert_eq!(p.load_u64(off), 0xDA7A, "pre-growth data survives growth");
        p.store_u64(last, 0x600D);
        assert_eq!(p.load_u64(last), 0x600D, "grown space is addressable");

        drop(p); // clean close
        let geo = FilePool::read_geometry(&path).unwrap();
        assert_eq!(geo.growth_epoch, 1);
        assert_eq!(geo.base_size, base);
        assert!(geo.pool_size > base);
        assert!(geo.was_clean);

        // Reopen: the grown size is the effective size, the data is intact.
        let pool = FilePool::open(&path).unwrap();
        assert_eq!(pool.len(), geo.pool_size);
        assert_eq!(pool.growth_epoch(), 1);
        let p = pool.into_pool();
        assert_eq!(p.load_u64(off), 0xDA7A);
        assert_eq!(p.load_u64(last), 0x600D);
        drop(p);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn growth_bumps_the_minor_version_so_old_readers_reject() {
        let path = temp_path("grow-minor");
        {
            let pool = FilePool::create(&path, tiny_elastic()).unwrap();
            let want = pool.len() + 1;
            assert!(pool.grow_to(want).unwrap());
            assert!(pool.len() >= want);
        }
        // A reader that predates elastic growth compares the whole version
        // word against 1 — a grown file's word is 1 | (1 << 16), so it is
        // rejected instead of silently ignoring the grown space.
        let header = fs::read(&path).unwrap();
        let version = u32::from_le_bytes(header[H_VERSION..H_VERSION + 4].try_into().unwrap());
        assert_eq!(version, FORMAT_VERSION | (FORMAT_MINOR << 16));
        assert_ne!(version, 1, "pre-growth readers must reject this file");
        // This build accepts it, with the geometry CRC re-covering the new
        // version word.
        let geo = FilePool::read_geometry(&path).unwrap();
        assert_eq!(geo.growth_epoch, 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ungrown_pools_keep_minor_zero_for_old_readers() {
        let path = temp_path("grow-compat");
        drop(FilePool::create(&path, tiny_elastic()).unwrap());
        let header = fs::read(&path).unwrap();
        let version = u32::from_le_bytes(header[H_VERSION..H_VERSION + 4].try_into().unwrap());
        assert_eq!(
            version, 1,
            "never-grown files stay readable by minor-0 readers"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn grow_to_is_refused_on_fixed_pools_and_past_the_offset_ceiling() {
        let path = temp_path("grow-fixed");
        let pool = FilePool::create(&path, small()).unwrap();
        let len = pool.len();
        assert!(!pool.grow_to(len * 2).unwrap(), "grow_step 0 = fixed size");
        assert!(
            pool.grow_to(len).unwrap(),
            "already-satisfied requests succeed even on fixed pools"
        );
        assert_eq!(pool.len(), len);
        assert_eq!(pool.growth_epoch(), 0);
        drop(pool);
        fs::remove_file(&path).unwrap();

        let path = temp_path("grow-ceiling");
        let pool = FilePool::create(&path, tiny_elastic()).unwrap();
        assert!(
            !pool.grow_to(usize::MAX).unwrap(),
            "past the u32 offset ceiling"
        );
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn repeated_growth_accumulates_epochs_across_reopens() {
        let path = temp_path("grow-epochs");
        let mut expected = 0u32;
        let mut sizes = Vec::new();
        for _ in 0..3 {
            let pool = if expected == 0 {
                FilePool::create(&path, tiny_elastic()).unwrap()
            } else {
                FilePool::open_with_config(&path, FileConfig::default().with_growth(256 << 10))
                    .unwrap()
            };
            assert_eq!(pool.growth_epoch(), expected);
            let want = pool.len() + 1;
            assert!(pool.grow_to(want).unwrap());
            expected += 1;
            assert_eq!(pool.growth_epoch(), expected);
            sizes.push(pool.len());
        }
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_pending_grow_journal_is_honoured_and_rolled_forward() {
        use std::io::{Seek, SeekFrom, Write};
        let path = temp_path("grow-journal");
        {
            let pool = FilePool::create(&path, tiny_elastic()).unwrap();
            let want = pool.len() + 1;
            assert!(pool.grow_to(want).unwrap());
        }
        // Rewind the home fields to their pre-growth values and re-stage the
        // commit in the journal — the exact on-disk state of a crash between
        // the commit point and the home-field rewrite.
        let bytes = fs::read(&path).unwrap();
        let grown = u64::from_le_bytes(bytes[H_GROWN_SIZE..H_GROWN_SIZE + 8].try_into().unwrap());
        let commit = GrowCommit {
            version: u32::from_le_bytes(bytes[H_VERSION..H_VERSION + 4].try_into().unwrap()),
            geo_crc: u32::from_le_bytes(bytes[H_GEO_CRC..H_GEO_CRC + 4].try_into().unwrap()),
            grown_size: grown,
            grow_epoch: 1,
            grow_crc: u32::from_le_bytes(bytes[H_GROW_CRC..H_GROW_CRC + 4].try_into().unwrap()),
        };
        let mut old_geo = bytes[..GEO_LEN].to_vec();
        old_geo[H_VERSION..H_VERSION + 4].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        {
            let mut f = File::options().read(true).write(true).open(&path).unwrap();
            let record = commit.to_bytes();
            f.seek(SeekFrom::Start(H_JOURNAL as u64)).unwrap();
            f.write_all(&record).unwrap();
            f.write_all(&crc32(&record).to_le_bytes()).unwrap();
            // Home fields back to minor 0 / no grow record.
            f.seek(SeekFrom::Start(H_VERSION as u64)).unwrap();
            f.write_all(&FORMAT_VERSION.to_le_bytes()).unwrap();
            f.seek(SeekFrom::Start(H_GEO_CRC as u64)).unwrap();
            f.write_all(&crc32(&old_geo).to_le_bytes()).unwrap();
            f.seek(SeekFrom::Start(H_GROWN_SIZE as u64)).unwrap();
            f.write_all(&[0u8; 16]).unwrap();
        }
        // read_geometry honours the journal virtually...
        let geo = FilePool::read_geometry(&path).unwrap();
        assert_eq!(geo.growth_epoch, 1);
        assert_eq!(geo.pool_size as u64, grown);
        // ...and open rolls it forward durably.
        drop(FilePool::open(&path).unwrap());
        let bytes = fs::read(&path).unwrap();
        assert_eq!(
            u64::from_le_bytes(bytes[H_GROWN_SIZE..H_GROWN_SIZE + 8].try_into().unwrap()),
            grown,
            "home fields rewritten from the journal"
        );
        assert!(
            bytes[H_JOURNAL..H_JOURNAL + JOURNAL_LEN]
                .iter()
                .all(|&b| b == 0),
            "journal retired after roll-forward"
        );
        let geo = FilePool::read_geometry(&path).unwrap();
        assert_eq!(geo.growth_epoch, 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_grow_journal_is_ignored() {
        use std::io::{Seek, SeekFrom, Write};
        let path = temp_path("grow-torn");
        drop(FilePool::create(&path, tiny_elastic()).unwrap());
        {
            // Garbage where the journal lives: the CRC cannot match, so the
            // record reads as "no commit in flight".
            let mut f = File::options().read(true).write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(H_JOURNAL as u64)).unwrap();
            f.write_all(&[0xAB; JOURNAL_LEN]).unwrap();
        }
        let geo = FilePool::read_geometry(&path).unwrap();
        assert_eq!(geo.growth_epoch, 0, "torn journal = commit never happened");
        let pool = FilePool::open(&path).unwrap();
        assert_eq!(pool.growth_epoch(), 0);
        drop(pool);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pool_exhausted_diagnostics_report_the_file_pools_true_state() {
        let path = temp_path("exhaust-diag");
        let pool = FilePool::create(&path, small()).unwrap();
        let capacity = pool.len();
        let p = pool.into_pool();
        let err = loop {
            match p.try_alloc_raw(8192, 64) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.requested, 8192, "requested bytes surface");
        assert_eq!(err.align, 64);
        assert_eq!(err.capacity, capacity, "capacity is the pool size");
        assert_eq!(err.watermark, p.watermark(), "watermark is the live one");
        assert!(err.watermark as usize <= capacity);
        let rendered = err.to_string();
        for needle in ["requested 8192 bytes", "watermark", "capacity", "free"] {
            assert!(rendered.contains(needle), "{rendered}");
        }
        drop(p);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn growth_is_safe_under_concurrent_traffic() {
        // Writers hammer already-allocated words while other threads force
        // repeated growths: growing under the fixed mapping must never lose
        // a committed store or hand out overlapping space.
        let path = temp_path("grow-race");
        let pool = FilePool::create(
            &path,
            FileConfig::with_size(256 << 10).with_growth(64 << 10),
        )
        .unwrap();
        let p = pool.into_pool();
        let slots: Vec<u32> = (0..8).map(|_| p.alloc_raw(64, 64)).collect();
        std::thread::scope(|scope| {
            for (tid, &slot) in slots.iter().enumerate() {
                let p = &p;
                scope.spawn(move || {
                    for i in 1..=500u64 {
                        p.store_u64(slot, i);
                        p.flush(tid, slot);
                        p.sfence(tid);
                        if i % 50 == 0 {
                            // Force allocation pressure from this thread too.
                            let off = p.alloc_raw(4096, 64);
                            p.store_u64(off, i);
                        }
                    }
                });
            }
        });
        for &slot in &slots {
            assert_eq!(p.load_u64(slot), 500);
        }
        assert!(p.growth_epoch() >= 1, "the race must have grown the pool");
        drop(p);
        fs::remove_file(&path).unwrap();
    }
}
