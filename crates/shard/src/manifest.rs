//! The shard-map manifest: the durable description of a sharded queue's
//! on-disk directory.
//!
//! A file-backed sharded queue is a directory containing one pool file per
//! shard plus a `SHARDS.manifest` recording the shard count, the routing
//! policy and the pool-file names. A restarting process reads the manifest
//! first and learns the complete shape of the deployment from it — the
//! groundwork for elastic shard counts, where the manifest (not the code)
//! is the authority on how many shards exist.
//!
//! ## Format (version 1)
//!
//! A line-oriented text file, CRC-checked and atomically rewritten:
//!
//! ```text
//! dqshardmap 1
//! shards 4
//! policy keyhash
//! pool shard-00.pool
//! pool shard-01.pool
//! pool shard-02.pool
//! pool shard-03.pool
//! crc 3f82c1aa
//! ```
//!
//! The trailing `crc` line holds the CRC-32 of every byte before it, so a
//! torn or corrupted manifest is detected at read time. Rewrites go through
//! `obs::sys::durable::replace_file` (temporary file, force, `rename`,
//! directory `fsync`) — a reader sees either the old manifest or the new
//! one, never a mixture.
//!
//! ## Reshard intent records
//!
//! The resharding operation (`RecoveryOrchestrator::reshard_dir`) rewrites
//! the directory *structurally* — it replaces N pool files with N′ — so the
//! manifest protocol graduates from a record of creation to a write-ahead
//! intent log: before touching any data, the operation durably writes a
//! [`ReshardIntent`] ([`INTENT_FILE`], same line-oriented CRC-checked
//! format) naming the source and destination pool files. The manifest
//! rewrite is the commit point; a restart that finds a leftover intent
//! compares the manifest against the intent's two sides and rolls the
//! reshard back (manifest still names the sources) or forward (manifest
//! names the destinations). See `crate::reshard` for the full protocol.

use crate::route::RoutePolicy;
use obs::sys::durable;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use store::crc32;

/// The manifest file's name inside a shard directory.
pub const MANIFEST_FILE: &str = "SHARDS.manifest";

/// The reshard intent record's file name inside a shard directory.
pub const INTENT_FILE: &str = "SHARDS.manifest.reshard";

/// Manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u32 = 1;

/// Reshard-intent format version this build reads and writes.
pub const INTENT_VERSION: u32 = 1;

pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Durably and atomically writes `body` + a trailing `crc` line as
/// `dir/name`. Shared by the manifest and the reshard intent record.
fn write_checked(dir: &Path, name: &str, body: &str) -> io::Result<()> {
    let content = format!("{body}crc {:08x}\n", crc32(body.as_bytes()));
    durable::replace_file(dir, name, content.as_bytes(), true)
}

/// Reads `path` and validates its trailing `crc` line, returning the body
/// the CRC covers.
///
/// Every failure mode names the file and what was found, so an operator
/// staring at a refused directory knows whether the file was **truncated**
/// (a torn write: empty, ends mid-line, or the trailer line is missing
/// entirely) or **corrupted** (a complete trailer whose expected CRC does
/// not match the one found on disk).
fn read_checked(path: &Path) -> io::Result<String> {
    let content = fs::read_to_string(path)?;
    if content.is_empty() {
        return Err(invalid(format!(
            "{}: empty file (truncated before any content, including the crc trailer)",
            path.display()
        )));
    }
    // The writer always ends the file with a newline-terminated
    // `crc <hex8>` trailer; a file that stops mid-line was truncated.
    let Some(complete) = content.strip_suffix('\n') else {
        let tail_start = content.rfind('\n').map(|i| i + 1).unwrap_or(0);
        return Err(invalid(format!(
            "{}: truncated file ({} bytes, ends mid-line at {:?}; crc trailer incomplete)",
            path.display(),
            content.len(),
            &content[tail_start..tail_start + (content.len() - tail_start).min(24)]
        )));
    };
    let (body, trailer) = match complete.rfind('\n') {
        Some(i) => (&content[..i + 1], &complete[i + 1..]),
        None => ("", complete),
    };
    let Some(stored_hex) = trailer.strip_prefix("crc ") else {
        return Err(invalid(format!(
            "{}: truncated file ({} bytes; last line {trailer:?} is not the crc trailer)",
            path.display(),
            content.len()
        )));
    };
    let stored = u32::from_str_radix(stored_hex.trim(), 16).map_err(|_| {
        invalid(format!(
            "{}: malformed crc value {stored_hex:?}",
            path.display()
        ))
    })?;
    let expected = crc32(body.as_bytes());
    if stored != expected {
        return Err(invalid(format!(
            "{}: CRC mismatch (expected {expected:08x} over {} body bytes, found {stored:08x})",
            path.display(),
            body.len()
        )));
    }
    Ok(body.to_string())
}

/// The durable shard map of one sharded-queue directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Routing policy the deployment was created with.
    pub policy: RoutePolicy,
    /// Pool-file names (relative to the directory), in shard order. The
    /// shard count is `pool_files.len()`.
    pub pool_files: Vec<String>,
}

impl ShardManifest {
    /// A manifest for `shards` shards with the default `shard-NN.pool`
    /// file names.
    pub fn new(shards: usize, policy: RoutePolicy) -> ShardManifest {
        assert!(shards >= 1, "a shard map needs at least 1 shard");
        ShardManifest {
            policy,
            pool_files: (0..shards).map(|i| format!("shard-{i:02}.pool")).collect(),
        }
    }

    /// Number of shards recorded in the map.
    pub fn shards(&self) -> usize {
        self.pool_files.len()
    }

    /// Absolute paths of every shard's pool file, in shard order.
    pub fn pool_paths(&self, dir: &Path) -> Vec<PathBuf> {
        self.pool_files.iter().map(|f| dir.join(f)).collect()
    }

    /// Serialises the manifest body (everything the CRC covers).
    fn body(&self) -> String {
        let mut out = format!("dqshardmap {MANIFEST_VERSION}\n");
        out.push_str(&format!("shards {}\n", self.shards()));
        out.push_str(&format!("policy {}\n", self.policy.key()));
        for file in &self.pool_files {
            out.push_str(&format!("pool {file}\n"));
        }
        out
    }

    /// Durably and atomically (re)writes the manifest into `dir`.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        write_checked(dir, MANIFEST_FILE, &self.body())
    }

    /// Reads and validates the manifest in `dir`.
    pub fn read(dir: &Path) -> io::Result<ShardManifest> {
        let path = dir.join(MANIFEST_FILE);
        let body = read_checked(&path)?;
        let mut lines = body.lines();
        let header = lines.next().unwrap_or_default();
        let version = header
            .strip_prefix("dqshardmap ")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| invalid(format!("{}: bad header {header:?}", path.display())))?;
        if version != MANIFEST_VERSION {
            return Err(invalid(format!(
                "{}: manifest version {version} (this build reads {MANIFEST_VERSION})",
                path.display()
            )));
        }
        let mut shards: Option<usize> = None;
        let mut policy: Option<RoutePolicy> = None;
        let mut pool_files = Vec::new();
        for line in lines {
            if let Some(v) = line.strip_prefix("shards ") {
                shards =
                    Some(v.trim().parse().map_err(|_| {
                        invalid(format!("{}: bad shard count {v:?}", path.display()))
                    })?);
            } else if let Some(v) = line.strip_prefix("policy ") {
                policy =
                    Some(RoutePolicy::parse(v.trim()).ok_or_else(|| {
                        invalid(format!("{}: unknown policy {v:?}", path.display()))
                    })?);
            } else if let Some(v) = line.strip_prefix("pool ") {
                pool_files.push(v.trim().to_string());
            } else if !line.trim().is_empty() {
                return Err(invalid(format!(
                    "{}: unknown manifest line {line:?}",
                    path.display()
                )));
            }
        }
        let shards =
            shards.ok_or_else(|| invalid(format!("{}: missing shard count", path.display())))?;
        let policy =
            policy.ok_or_else(|| invalid(format!("{}: missing policy", path.display())))?;
        if shards != pool_files.len() || shards == 0 {
            return Err(invalid(format!(
                "{}: shard count {} does not match {} pool files",
                path.display(),
                shards,
                pool_files.len()
            )));
        }
        Ok(ShardManifest { policy, pool_files })
    }
}

/// The durable **write-ahead intent record** of one resharding operation.
///
/// Written (atomically, CRC-checked) *before* the reshard touches any data,
/// and removed only after the commit (or rollback) is complete. Its two
/// file lists are the two consistent states the directory may be left in:
///
/// * `old_files` — the pool files named by the manifest **before** the
///   reshard (the rollback state),
/// * `new_files` — the destination pool files the new manifest will name
///   (the roll-forward state).
///
/// A restart that finds this record compares `SHARDS.manifest` against the
/// two lists to decide which way to resolve; the manifest rewrite is the
/// single atomic commit point.
///
/// ## Format (version 1)
///
/// ```text
/// dqreshard 1
/// from 4
/// to 2
/// old shard-00.pool
/// old shard-01.pool
/// old shard-02.pool
/// old shard-03.pool
/// new shard-g1-00.pool
/// new shard-g1-01.pool
/// crc 9c24f11b
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReshardIntent {
    /// Source pool-file names (the manifest's list when the reshard began).
    pub old_files: Vec<String>,
    /// Destination pool-file names (what the committed manifest will list).
    pub new_files: Vec<String>,
}

impl ReshardIntent {
    /// Source shard count.
    pub fn from_shards(&self) -> usize {
        self.old_files.len()
    }

    /// Destination shard count.
    pub fn to_shards(&self) -> usize {
        self.new_files.len()
    }

    /// Whether a reshard intent record exists in `dir`.
    pub fn exists(dir: &Path) -> bool {
        dir.join(INTENT_FILE).exists()
    }

    fn body(&self) -> String {
        let mut out = format!("dqreshard {INTENT_VERSION}\n");
        out.push_str(&format!("from {}\n", self.from_shards()));
        out.push_str(&format!("to {}\n", self.to_shards()));
        for file in &self.old_files {
            out.push_str(&format!("old {file}\n"));
        }
        for file in &self.new_files {
            out.push_str(&format!("new {file}\n"));
        }
        out
    }

    /// Durably and atomically writes the intent record into `dir` — the
    /// write-ahead step of the reshard protocol.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        write_checked(dir, INTENT_FILE, &self.body())
    }

    /// Reads and validates the intent record in `dir`. `NotFound` when no
    /// reshard is in flight.
    pub fn read(dir: &Path) -> io::Result<ReshardIntent> {
        let path = dir.join(INTENT_FILE);
        let body = read_checked(&path)?;
        let mut lines = body.lines();
        let header = lines.next().unwrap_or_default();
        let version = header
            .strip_prefix("dqreshard ")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| invalid(format!("{}: bad header {header:?}", path.display())))?;
        if version != INTENT_VERSION {
            return Err(invalid(format!(
                "{}: reshard-intent version {version} (this build reads {INTENT_VERSION})",
                path.display()
            )));
        }
        let mut from: Option<usize> = None;
        let mut to: Option<usize> = None;
        let mut old_files = Vec::new();
        let mut new_files = Vec::new();
        for line in lines {
            if let Some(v) = line.strip_prefix("from ") {
                from =
                    Some(v.trim().parse().map_err(|_| {
                        invalid(format!("{}: bad from count {v:?}", path.display()))
                    })?);
            } else if let Some(v) = line.strip_prefix("to ") {
                to = Some(
                    v.trim()
                        .parse()
                        .map_err(|_| invalid(format!("{}: bad to count {v:?}", path.display())))?,
                );
            } else if let Some(v) = line.strip_prefix("old ") {
                old_files.push(v.trim().to_string());
            } else if let Some(v) = line.strip_prefix("new ") {
                new_files.push(v.trim().to_string());
            } else if !line.trim().is_empty() {
                return Err(invalid(format!(
                    "{}: unknown intent line {line:?}",
                    path.display()
                )));
            }
        }
        let from =
            from.ok_or_else(|| invalid(format!("{}: missing from count", path.display())))?;
        let to = to.ok_or_else(|| invalid(format!("{}: missing to count", path.display())))?;
        if from != old_files.len() || to != new_files.len() || from == 0 || to == 0 {
            return Err(invalid(format!(
                "{}: counts (from {from}, to {to}) do not match {} old / {} new files",
                path.display(),
                old_files.len(),
                new_files.len()
            )));
        }
        Ok(ReshardIntent {
            old_files,
            new_files,
        })
    }

    /// Removes the intent record (the final step of commit or rollback) and
    /// persists the removal with a directory `fsync`. Idempotent: a missing
    /// record is success.
    pub fn remove(dir: &Path) -> io::Result<()> {
        match fs::remove_file(dir.join(INTENT_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        }
        durable::sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shard-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrips_every_policy() {
        let dir = temp_dir("roundtrip");
        for policy in RoutePolicy::all() {
            let m = ShardManifest::new(4, policy);
            m.write(&dir).unwrap();
            assert_eq!(ShardManifest::read(&dir).unwrap(), m);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_is_atomic_and_replaces_the_old_map() {
        let dir = temp_dir("rewrite");
        ShardManifest::new(2, RoutePolicy::RoundRobin)
            .write(&dir)
            .unwrap();
        ShardManifest::new(8, RoutePolicy::KeyHash)
            .write(&dir)
            .unwrap();
        let m = ShardManifest::read(&dir).unwrap();
        assert_eq!(m.shards(), 8);
        assert_eq!(m.policy, RoutePolicy::KeyHash);
        // No temporary files survive the rewrite.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name() != MANIFEST_FILE)
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = temp_dir("corrupt");
        ShardManifest::new(4, RoutePolicy::LoadAware)
            .write(&dir)
            .unwrap();
        let path = dir.join(MANIFEST_FILE);
        let good = fs::read_to_string(&path).unwrap();

        // Flip a byte inside the body: CRC mismatch, reported with the
        // file, the expected CRC and the one found on disk.
        fs::write(&path, good.replace("shards 4", "shards 5")).unwrap();
        let err = ShardManifest::read(&dir).unwrap_err().to_string();
        assert!(err.contains("CRC mismatch"), "{err}");
        assert!(err.contains(MANIFEST_FILE), "{err}");
        assert!(err.contains("expected") && err.contains("found"), "{err}");

        // Remove the crc line entirely (complete lines, no trailer).
        let no_crc = format!("{}\n", good.lines().take(3).collect::<Vec<_>>().join("\n"));
        fs::write(&path, no_crc).unwrap();
        let err = ShardManifest::read(&dir).unwrap_err().to_string();
        assert!(err.contains("not the crc trailer"), "{err}");

        // Truncate mid-line (a torn write): reported as truncation, with
        // the file and the torn tail.
        fs::write(&path, &good.as_bytes()[..good.len() - 5]).unwrap();
        let err = ShardManifest::read(&dir).unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");
        assert!(err.contains(MANIFEST_FILE), "{err}");

        // Truncate to nothing.
        fs::write(&path, "").unwrap();
        let err = ShardManifest::read(&dir).unwrap_err().to_string();
        assert!(err.contains("empty file"), "{err}");

        // A non-hex crc value is malformed, not a mismatch.
        let body = &good[..good.rfind("crc ").unwrap()];
        fs::write(&path, format!("{body}crc zzzzzzzz\n")).unwrap();
        let err = ShardManifest::read(&dir).unwrap_err().to_string();
        assert!(err.contains("malformed crc value"), "{err}");

        // Future version is refused (CRC recomputed to keep that the only
        // difference).
        let future_body =
            good[..good.rfind("crc ").unwrap()].replace("dqshardmap 1", "dqshardmap 9");
        let future = format!("{future_body}crc {:08x}\n", crc32(future_body.as_bytes()));
        fs::write(&path, future).unwrap();
        let err = ShardManifest::read(&dir).unwrap_err().to_string();
        assert!(err.contains("version"), "{err}");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pool_paths_and_default_names() {
        let m = ShardManifest::new(3, RoutePolicy::RoundRobin);
        assert_eq!(
            m.pool_files,
            vec!["shard-00.pool", "shard-01.pool", "shard-02.pool"]
        );
        let paths = m.pool_paths(Path::new("/data/q"));
        assert_eq!(paths[2], Path::new("/data/q/shard-02.pool"));
    }

    #[test]
    fn reshard_intent_roundtrips_and_removes_idempotently() {
        let dir = temp_dir("intent");
        let intent = ReshardIntent {
            old_files: (0..4).map(|i| format!("shard-{i:02}.pool")).collect(),
            new_files: (0..2).map(|i| format!("shard-g1-{i:02}.pool")).collect(),
        };
        assert!(!ReshardIntent::exists(&dir));
        intent.write(&dir).unwrap();
        assert!(ReshardIntent::exists(&dir));
        let read = ReshardIntent::read(&dir).unwrap();
        assert_eq!(read, intent);
        assert_eq!(read.from_shards(), 4);
        assert_eq!(read.to_shards(), 2);
        ReshardIntent::remove(&dir).unwrap();
        assert!(!ReshardIntent::exists(&dir));
        ReshardIntent::remove(&dir).unwrap(); // idempotent
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reshard_intent_corruption_and_mismatches_are_detected() {
        let dir = temp_dir("intent-corrupt");
        let intent = ReshardIntent {
            old_files: vec!["shard-00.pool".into()],
            new_files: vec!["shard-g1-00.pool".into(), "shard-g1-01.pool".into()],
        };
        intent.write(&dir).unwrap();
        let path = dir.join(INTENT_FILE);
        let good = fs::read_to_string(&path).unwrap();

        // Body corruption: CRC mismatch.
        fs::write(&path, good.replace("to 2", "to 3")).unwrap();
        let err = ReshardIntent::read(&dir).unwrap_err().to_string();
        assert!(err.contains("CRC"), "{err}");

        // Count/list mismatch survives the CRC but is rejected.
        let bad_body = intent.body().replace("to 2", "to 9");
        fs::write(
            &path,
            format!("{bad_body}crc {:08x}\n", crc32(bad_body.as_bytes())),
        )
        .unwrap();
        let err = ReshardIntent::read(&dir).unwrap_err().to_string();
        assert!(err.contains("do not match"), "{err}");

        // Future version is refused.
        let future = intent.body().replace("dqreshard 1", "dqreshard 7");
        fs::write(
            &path,
            format!("{future}crc {:08x}\n", crc32(future.as_bytes())),
        )
        .unwrap();
        let err = ReshardIntent::read(&dir).unwrap_err().to_string();
        assert!(err.contains("version"), "{err}");

        // Missing record: NotFound, and `exists` agrees.
        fs::remove_file(&path).unwrap();
        assert_eq!(
            ReshardIntent::read(&dir).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_mismatch_is_rejected() {
        let dir = temp_dir("mismatch");
        let mut m = ShardManifest::new(3, RoutePolicy::RoundRobin);
        m.pool_files.pop();
        // Bypass `new`'s invariant by writing the inconsistent map directly.
        let body = format!(
            "dqshardmap 1\nshards 3\npolicy rr\npool {}\npool {}\n",
            m.pool_files[0], m.pool_files[1]
        );
        let content = format!("{body}crc {:08x}\n", crc32(body.as_bytes()));
        fs::write(dir.join(MANIFEST_FILE), content).unwrap();
        let err = ShardManifest::read(&dir).unwrap_err().to_string();
        assert!(err.contains("does not match"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
