//! What a power failure would keep: a test-only shadow of every journal
//! file's forced length, and the tests that read it.
//!
//! The SIGKILL suites cannot see a missing force — the page cache survives
//! the process — so [`crate::file`] reports every `fdatasync` of a journal
//! file here, with the logical end the journal promised it, and every
//! forced replacement. The moments at which an unforced tail can be cut
//! are crash points: every force, before it runs, and the two moments at
//! which an unforced tail becomes fatal to a group: a segment was
//! unlinked, or a new segment's header exists. An *image* is a copy of a
//! journal's directory with every file cut back to its forced length plus
//! a torn half record, and zeros for the rest of its length — the worst a
//! power failure at that moment could leave of a file written into its
//! zero reserve, directory operations being forced as they happen. The
//! shadow records the promised end, not the file's length: a reserve makes
//! the file longer than what was forced.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Path → the most bytes of it any completed force covered. Segment names
/// are never reused within a log's life, so the maximum is the truth even
/// when two threads' forces of one file complete out of order.
static FORCED: Mutex<BTreeMap<PathBuf, u64>> = Mutex::new(BTreeMap::new());

/// The file at `path` was `fdatasync`ed by a force promising its bytes up
/// to `len`.
pub(crate) fn forced(path: &Path, len: u64) {
    let mut shadow = obs::locked(&FORCED);
    let seen = shadow.entry(path.to_path_buf()).or_insert(0);
    *seen = (*seen).max(len);
}

/// `path` was durably replaced by a file of `len` bytes, written whole.
pub(crate) fn replaced(path: &Path, len: u64) {
    obs::locked(&FORCED).insert(path.to_path_buf(), len);
}

fn forced_len(path: &Path) -> u64 {
    obs::locked(&FORCED).get(path).copied().unwrap_or(0)
}

type CrashHook = Box<dyn FnMut(&Path)>;

thread_local! {
    static CRASH_HOOK: RefCell<Option<CrashHook>> = const { RefCell::new(None) };
}

/// The journal in `dir` is about to force a file, or just unlinked a
/// segment or created one. Runs the calling thread's hook, if it set one;
/// journal operations the hook itself performs do not re-enter it.
pub(crate) fn crash_point(dir: &Path) {
    let Some(mut hook) = CRASH_HOOK.with(|h| h.borrow_mut().take()) else {
        return;
    };
    hook(dir);
    CRASH_HOOK.with(|h| *h.borrow_mut() = Some(hook));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{AckLog, Record, Replay, HEADER_LEN, LEASE_LOG_FILE, RECORD_LEN};
    use crate::segments::{SegmentedLog, GROUP_META_FILE, SEGMENT_HEADER_LEN};
    use crate::{ConsumerGroup, GroupConfig, GroupedQueue, Redelivery, GROUPS_DIR};
    use crate::{LeaseConfig, LeasedQueue};
    use durable_queues::{OptUnlinkedQueue, QueueConfig, RecoverableQueue};
    use pmem::{PmemPool, PoolConfig};
    use std::collections::{BTreeSet, HashMap, HashSet};
    use std::io;
    use std::rc::Rc;
    use std::sync::Arc;
    use std::time::Duration;
    use store::SyncPolicy;

    const ROTATE: u64 = 8;
    const GROUPS: [&str; 2] = ["a", "b"];

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lease-pf-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base() -> OptUnlinkedQueue {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_with_size(4 << 20)));
        OptUnlinkedQueue::create(pool, QueueConfig::small_test())
    }

    fn grouped(dir: &Path) -> Arc<GroupedQueue<OptUnlinkedQueue>> {
        let base = base();
        let config = GroupConfig::new(dir, GROUPS)
            .with_sync(SyncPolicy::PowerFail)
            .with_rotate_records(ROTATE)
            .with_timeout(Duration::from_secs(3600));
        Arc::new(GroupedQueue::create(base, vec![None, None], config).unwrap())
    }

    fn files_of(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect()
    }

    /// Where a file's contents end: `GROUP.meta` at its length, a journal
    /// file past its last record, its zero reserve following.
    fn logical_end(path: &Path, bytes: &[u8]) -> usize {
        let header_len = match path.file_name().and_then(|n| n.to_str()) {
            Some(GROUP_META_FILE) => return bytes.len(),
            Some(LEASE_LOG_FILE) => HEADER_LEN,
            _ => SEGMENT_HEADER_LEN,
        };
        let records = bytes[header_len..].chunks_exact(RECORD_LEN);
        header_len + records.take_while(|r| Record::decode(r).is_some()).count() * RECORD_LEN
    }

    /// Invariant (a): nothing in the journal's directory has an unforced
    /// tail — every file was forced up to its logical end, and holds only
    /// zeros past it.
    fn assert_all_forced(journal_dir: &Path, when: &str) {
        for path in files_of(journal_dir) {
            let bytes = std::fs::read(&path).unwrap();
            let end = logical_end(&path, &bytes);
            assert_eq!(
                forced_len(&path),
                end as u64,
                "{when}: {} ends at byte {end}",
                path.display()
            );
            assert!(
                bytes[end..].iter().all(|&b| b == 0),
                "{when}: {} holds a torn record at byte {end}",
                path.display()
            );
        }
    }

    /// Copies `journal_dir` as a power failure now would leave it — of
    /// every unforced tail only a torn half record, then the zero reserve —
    /// and replays the copy with `replay`; returns the items of the leases
    /// that survive.
    fn survivors_of_image(
        journal_dir: &Path,
        replay: impl FnOnce(&Path) -> io::Result<Replay>,
    ) -> BTreeSet<u64> {
        let image = journal_dir.with_extension("image");
        let _ = std::fs::remove_dir_all(&image);
        std::fs::create_dir_all(&image).unwrap();
        for path in files_of(journal_dir) {
            let mut bytes = std::fs::read(&path).unwrap();
            let torn = (forced_len(&path) as usize + RECORD_LEN / 2).min(bytes.len());
            bytes[torn..].fill(0);
            std::fs::write(image.join(path.file_name().unwrap()), bytes).unwrap();
        }
        let replayed = replay(&image)
            .unwrap_or_else(|e| panic!("the image of {} is damaged: {e}", journal_dir.display()));
        std::fs::remove_dir_all(&image).unwrap();
        replayed.live.values().map(|l| l.item).collect()
    }

    /// What the script knows of one group between operations, and what the
    /// operation now running may change.
    #[derive(Default)]
    struct Model {
        /// Items whose dispatch has returned and whose ack has not.
        live: BTreeSet<u64>,
        /// The item the running operation may settle.
        settling: Option<u64>,
        /// The item the running operation may dispatch.
        arriving: Option<u64>,
        images: usize,
    }

    type Models = Rc<RefCell<HashMap<String, Model>>>;

    /// Invariant (b), checked from inside the journal at every crash point.
    fn check_image(models: &Models, group_dir: &Path) {
        let name = group_dir.file_name().unwrap().to_str().unwrap();
        let mut models = models.borrow_mut();
        let Some(model) = models.get_mut(name) else {
            return;
        };
        let survivors = survivors_of_image(group_dir, |image| {
            SegmentedLog::replay(image, SyncPolicy::ProcessCrash, ROTATE).map(|(_, r)| r.replay)
        });
        model.check(&survivors, &format!("group {name}"));
    }

    impl Model {
        /// Invariant (b) for the leases of `whose` that a power failure
        /// would leave: every live lease the running operation does not
        /// settle survives, and nothing survives but the live leases and
        /// the item the operation may deliver.
        fn check(&mut self, survivors: &BTreeSet<u64>, whose: &str) {
            let settling = self.settling;
            let must: BTreeSet<u64> = self
                .live
                .iter()
                .copied()
                .filter(|&i| Some(i) != settling)
                .collect();
            let lost: Vec<_> = must.difference(survivors).collect();
            assert!(lost.is_empty(), "{whose}: a power failure loses {lost:?}");
            let may: BTreeSet<u64> = self.live.iter().copied().chain(self.arriving).collect();
            let risen: Vec<_> = survivors.difference(&may).collect();
            assert!(
                risen.is_empty(),
                "{whose}: a power failure resurrects {risen:?}"
            );
            self.images += 1;
        }
    }

    struct Script {
        q: Arc<GroupedQueue<OptUnlinkedQueue>>,
        dir: PathBuf,
        models: Models,
        /// The next item the base queue will give up.
        next_fresh: u64,
    }

    impl Script {
        fn group_dir(&self, name: &str) -> PathBuf {
            self.dir.join(GROUPS_DIR).join(name)
        }

        fn returned(&self, what: &str) {
            for model in self.models.borrow_mut().values_mut() {
                model.settling = None;
                model.arriving = None;
            }
            for name in GROUPS {
                assert_all_forced(&self.group_dir(name), what);
            }
        }

        fn dequeue(&mut self, g: &ConsumerGroup<OptUnlinkedQueue>) -> crate::Lease {
            for model in self.models.borrow_mut().values_mut() {
                model.arriving = Some(self.next_fresh);
            }
            let lease = g.dequeue(0).expect("the script never drains the base");
            if lease.item == self.next_fresh && lease.delivery_count == 1 {
                // A dispatch: the item is now every group's.
                for model in self.models.borrow_mut().values_mut() {
                    model.live.insert(lease.item);
                }
                self.next_fresh += 1;
            }
            self.returned("after dequeue");
            lease
        }

        fn ack(&mut self, g: &ConsumerGroup<OptUnlinkedQueue>, lease: &crate::Lease) {
            self.models.borrow_mut().get_mut(g.name()).unwrap().settling = Some(lease.item);
            g.ack(lease).unwrap();
            self.models
                .borrow_mut()
                .get_mut(g.name())
                .unwrap()
                .live
                .remove(&lease.item);
            self.returned("after ack");
        }

        fn nack(&mut self, g: &ConsumerGroup<OptUnlinkedQueue>, lease: &crate::Lease) {
            assert!(matches!(
                g.nack(0, lease).unwrap(),
                Redelivery::Requeued { .. }
            ));
            self.returned("after nack");
        }
    }

    /// Group `a` dispatches and settles item by item while group `b` lets
    /// its `PEND`s age across rotations before granting them, so `b`'s
    /// segments retire on a `GRANT` that lands segments later — with eight
    /// records to a segment, rotation and retirement both fall between a
    /// `PEND` and its `GRANT`, again and again.
    ///
    /// The test is only worth its images if it fails without the forces it
    /// guards: disabling either the force in `SegmentedLog::rotate` or the
    /// one in `retire_prefix` must make it fail.
    #[test]
    fn a_power_failure_image_at_any_rotation_or_retirement_loses_no_live_lease() {
        let dir = tmp("image");
        let models: Models = Rc::new(RefCell::new(
            GROUPS
                .iter()
                .map(|g| (g.to_string(), Model::default()))
                .collect(),
        ));
        let hook_models = Rc::clone(&models);
        let q = grouped(&dir);
        CRASH_HOOK.with(|h| {
            *h.borrow_mut() = Some(Box::new(move |group_dir: &Path| {
                check_image(&hook_models, group_dir)
            }))
        });
        let (a, b) = (q.group("a").unwrap(), q.group("b").unwrap());
        let mut script = Script {
            q: Arc::clone(&q),
            dir: dir.clone(),
            models,
            next_fresh: 1,
        };
        for item in 1..=200u64 {
            script.q.enqueue(0, item);
        }
        for round in 0..60u64 {
            let lease = script.dequeue(&a);
            if round % 5 == 4 {
                script.nack(&a, &lease);
                let again = script.dequeue(&a);
                assert_eq!((again.item, again.delivery_count), (lease.item, 2));
                script.ack(&a, &again);
            } else {
                script.ack(&a, &lease);
            }
            if round % 4 == 3 {
                // `b` catches up on the four items it was fanned out.
                for _ in 0..4 {
                    let lease = script.dequeue(&b);
                    if round % 8 == 7 && lease.delivery_count == 1 {
                        script.nack(&b, &lease);
                        let again = script.dequeue(&b);
                        script.ack(&b, &again);
                    } else {
                        script.ack(&b, &lease);
                    }
                }
            }
        }
        CRASH_HOOK.with(|h| h.borrow_mut().take());
        for name in GROUPS {
            let images = script.models.borrow()[name].images;
            assert!(images >= 20, "group {name}: only {images} crash points");
            let stats = q.group(name).unwrap().stats();
            assert!(stats.rotations >= 10 && stats.segments_retired >= 10);
            assert!(script.models.borrow()[name].live.is_empty());
        }
        drop((a, b, script, q));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The single-file log under the same rules: a power-fail
    /// `LeasedQueue` compacting every few records, its `LEASES.log` cut
    /// at every force — the forced bytes, a torn half record, then zeros.
    ///
    /// The test is only worth its images if it fails without the forces it
    /// guards: making `AckLog`'s force a no-op must make it fail.
    #[test]
    fn a_power_failure_image_at_any_force_of_the_ack_log_loses_no_live_lease() {
        let dir = tmp("leased");
        let config = LeaseConfig::new(&dir)
            .with_sync(SyncPolicy::PowerFail)
            .with_compact_after(16)
            .with_timeout(Duration::from_secs(3600));
        let q = LeasedQueue::create(base(), None, config).unwrap();
        for item in 1..=100u64 {
            q.enqueue(0, item);
        }
        let model = Rc::new(RefCell::new(Model::default()));
        let (hook_model, hook_dir) = (Rc::clone(&model), dir.clone());
        CRASH_HOOK.with(|h| {
            *h.borrow_mut() = Some(Box::new(move |at: &Path| {
                if at == hook_dir {
                    let survivors = survivors_of_image(at, |image| {
                        AckLog::replay(image, SyncPolicy::ProcessCrash).map(|(_, r)| r)
                    });
                    hook_model.borrow_mut().check(&survivors, LEASE_LOG_FILE);
                }
            }))
        });
        let returned = |what: &str| {
            let mut m = model.borrow_mut();
            (m.settling, m.arriving) = (None, None);
            drop(m);
            assert_all_forced(&dir, what);
        };
        let mut next_fresh = 1;
        let mut dequeue = || {
            model.borrow_mut().arriving = Some(next_fresh);
            let lease = q.dequeue(0).expect("the script never drains the base");
            if lease.delivery_count == 1 {
                assert_eq!(lease.item, next_fresh);
                model.borrow_mut().live.insert(lease.item);
                next_fresh += 1;
            }
            returned("after dequeue");
            lease
        };
        for round in 0..60u64 {
            let lease = dequeue();
            let lease = if round % 5 == 4 {
                assert!(matches!(
                    q.nack(0, &lease).unwrap(),
                    Redelivery::Requeued { .. }
                ));
                returned("after nack");
                let again = dequeue();
                assert_eq!((again.item, again.delivery_count), (lease.item, 2));
                again
            } else {
                lease
            };
            model.borrow_mut().settling = Some(lease.item);
            q.ack(&lease).unwrap();
            model.borrow_mut().live.remove(&lease.item);
            returned("after ack");
        }
        CRASH_HOOK.with(|h| h.borrow_mut().take());
        let images = model.borrow().images;
        assert!(images >= 120, "only {images} crash points");
        assert!(q.stats().compactions >= 5);
        assert!(model.borrow().live.is_empty());
        drop(q);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Competing consumers forcing outside the lock: four threads over two
    /// groups, one item in twenty nacked once.
    #[test]
    fn competing_consumers_under_power_fail_deliver_exactly_once_per_group() {
        const ITEMS: u64 = 400;
        let dir = tmp("stress");
        let q = grouped(&dir);
        for item in 1..=ITEMS {
            q.enqueue(0, item);
        }
        let handles = q.handles();
        let per_thread: Vec<Vec<(usize, crate::Lease, bool)>> = std::thread::scope(|s| {
            (0..4usize)
                .map(|tid| {
                    let handles = &handles;
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        let mut idle = 0;
                        // A group can look empty while another thread
                        // holds the lease it is about to nack.
                        while idle < 2 * handles.len() {
                            let g = &handles[(tid + seen.len() + idle) % handles.len()];
                            let Some(lease) = g.dequeue(tid) else {
                                idle += 1;
                                std::thread::yield_now();
                                continue;
                            };
                            idle = 0;
                            let nack = lease.item % 20 == 0 && lease.delivery_count == 1;
                            if nack {
                                g.nack(tid, &lease).unwrap();
                            } else {
                                g.ack(&lease).unwrap();
                            }
                            seen.push((g.index(), lease, !nack));
                        }
                        seen
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Stragglers: a nack that landed after every other thread gave up.
        let mut all: Vec<(usize, crate::Lease, bool)> = per_thread.into_iter().flatten().collect();
        for g in &handles {
            while let Some(lease) = g.dequeue(0) {
                g.ack(&lease).unwrap();
                all.push((g.index(), lease, true));
            }
        }
        for (index, g) in handles.iter().enumerate() {
            let mine = || all.iter().filter(|(g, ..)| *g == index);
            let mut ids = HashSet::new();
            assert!(
                mine().all(|(_, l, _)| ids.insert(l.id)),
                "group {}: a lease id was granted twice",
                g.name()
            );
            let mut acked: Vec<u64> = mine()
                .filter(|(.., ack)| *ack)
                .map(|(_, l, _)| l.item)
                .collect();
            acked.sort_unstable();
            assert_eq!(
                acked,
                (1..=ITEMS).collect::<Vec<_>>(),
                "group {}: lost or doubled deliveries",
                g.name()
            );
            assert_eq!(mine().filter(|(.., ack)| !*ack).count() as u64, ITEMS / 20);
            assert_eq!((g.in_flight(), g.pending_redelivery()), (0, 0));
            assert!(g.stats().rotations >= 10 && g.stats().segments_retired >= 10);
            assert_all_forced(&dir.join(GROUPS_DIR).join(g.name()), "at the end");
        }
        drop((handles, q));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
