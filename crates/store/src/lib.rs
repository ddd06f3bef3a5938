//! # mintri-store — the persistent warm-state tier
//!
//! Everything the engine wins at runtime — per-atom completed-answer
//! replay caches, memoized plans, the serve graph registry — is RAM
//! that dies with the process. This crate is the disk tier underneath:
//! a directory of versioned, checksummed snapshot files
//! ([`AnswerSnapshot`], [`PlanSnapshot`], [`GraphSnapshot`]) keyed the
//! same way the RAM caches are (graph fingerprint + backend + recorded
//! order), so a restarted — or *different* — process rebuilds warm
//! state by reading instead of re-enumerating.
//!
//! **The invariant the whole tier rests on:** disk is a cache of proven
//! results addressed by fingerprint, with graph equality verified by
//! the loader. A store miss, a corrupt entry, a version bump, a deleted
//! directory — all of them are *safe*; they only cost recomputation.
//! Nothing above this layer may treat a store answer as authoritative
//! without the equality proof carried inside the snapshot.
//!
//! Mechanics:
//!
//! * **Write-behind.** [`Store::put_answers`] & friends enqueue onto an
//!   unbounded channel and return immediately; one worker thread owns
//!   every file write. A query never blocks on `fsync` (and by default
//!   the worker doesn't fsync either — crash-safety comes from
//!   publication, not durability-at-all-costs).
//! * **Graph loads read the store's own writes.** Registry graph puts
//!   and removals stay in a small in-memory map until the worker has
//!   handled them, and [`Store::load_graph`] consults it first — so a
//!   serving layer may age a graph out of RAM the moment it is queued
//!   and still reload it, without waiting on [`Store::flush`].
//! * **Crash-safe publication.** The worker writes `.name.tmp` in the
//!   destination directory, then `rename`s over the final name —
//!   readers see the old complete file or the new complete file, never
//!   a torn one. Stale `.tmp` files from a crashed writer are swept on
//!   [`Store::open`].
//! * **Quarantine on corrupt load.** A file that fails magic, version,
//!   length, checksum or payload validation is moved into `quarantine/`
//!   (keeping the evidence) and reported as a miss.
//! * **Budget.** With [`StoreConfig::max_disk_bytes`] set, writes that
//!   would exceed the budget are skipped (counted, not errored), and
//!   serving layers can ask [`Store::would_exceed_budget`] *before*
//!   accepting an upload.
//!
//! Zero dependencies; the snapshot payloads speak primitive types only
//! (vertex lists, not interner ids), which is what makes entries
//! process- and replica-portable.

mod codec;
mod snapshot;

pub use codec::{fnv1a64, CodecError};
pub use snapshot::{
    AnswerSnapshot, EntryKind, GraphSnapshot, MemoSummary, PlanSnapshot, StoredOrder, HEADER_LEN,
    MAGIC, VERSION,
};

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// Where and how a [`Store`] keeps its files.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory; created (with its subdirectories) on open.
    pub root: PathBuf,
    /// Disk budget over all entries, in bytes. `None` = unbounded.
    pub max_disk_bytes: Option<u64>,
    /// `true` makes the worker fsync each file before publishing it.
    /// Off by default: the tier is a cache, and rename-publication
    /// already guarantees no torn reads.
    pub fsync: bool,
}

impl StoreConfig {
    /// Unbounded, non-fsyncing store under `root`.
    pub fn at(root: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            root: root.into(),
            max_disk_bytes: None,
            fsync: false,
        }
    }
}

/// A consistent read of the store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entry files currently published.
    pub entries: u64,
    /// Bytes across all published entry files.
    pub bytes: u64,
    /// Files written (publications, including overwrites).
    pub writes: u64,
    /// Writes skipped: entry already present (`overwrite = false`) or
    /// the disk budget would be exceeded.
    pub skipped_writes: u64,
    /// Writes that failed with an I/O error.
    pub write_errors: u64,
    /// Load attempts.
    pub loads: u64,
    /// Loads that found no (valid) entry.
    pub load_misses: u64,
    /// Corrupt files moved to `quarantine/`.
    pub corrupt_quarantined: u64,
}

#[derive(Default)]
struct Counters {
    entries: AtomicU64,
    bytes: AtomicU64,
    writes: AtomicU64,
    skipped_writes: AtomicU64,
    write_errors: AtomicU64,
    loads: AtomicU64,
    load_misses: AtomicU64,
    corrupt_quarantined: AtomicU64,
    quarantine_seq: AtomicU64,
}

/// State shared between the front (`&self` API) and the worker thread.
struct Shared {
    root: PathBuf,
    max_disk_bytes: Option<u64>,
    fsync: bool,
    counters: Counters,
    /// Registry graph puts (`Some(encoded snapshot)`) and removals
    /// (`None`) the worker has not handled yet, by file name, each with
    /// the sequence number of its latest queued job.
    unpublished_graphs: Mutex<UnpublishedGraphs>,
}

#[derive(Default)]
struct UnpublishedGraphs {
    next_seq: u64,
    by_name: HashMap<String, (u64, Option<Vec<u8>>)>,
}

enum Job {
    Write {
        subdir: &'static str,
        name: String,
        bytes: Vec<u8>,
        overwrite: bool,
    },
    Remove {
        subdir: &'static str,
        name: String,
    },
    /// Barrier: ack once every job enqueued before it has been handled.
    Flush(mpsc::SyncSender<()>),
    /// The graph job with sequence number `seq` ahead of it in the queue
    /// has been handled: drop its unpublished entry unless a later job
    /// for the same name replaced it.
    GraphHandled {
        name: String,
        seq: u64,
    },
}

const ANSWERS_DIR: &str = "answers";
const PLANS_DIR: &str = "plans";
const GRAPHS_DIR: &str = "graphs";
/// Where older stores kept learned cost profiles, a retired entry kind.
/// [`Store::open`] deletes it, so its bytes do not sit outside the
/// budget's accounting.
const RETIRED_PROFILES_DIR: &str = "profiles";
/// Name suffix of answer lists recorded in a retired order (one
/// unordered parallel run's race outcome, filename tag `u`). No query can
/// replay them, so [`Store::open`] deletes them rather than let them hold
/// the disk budget.
const RETIRED_UNORDERED_SUFFIX: &str = "-u.mts";
const QUARANTINE_DIR: &str = "quarantine";
const ENTRY_EXT: &str = "mts";

/// The disk tier. Cheap to share behind an `Arc`; all methods take
/// `&self`. Loads are synchronous reads; puts are write-behind.
/// Dropping the last handle joins the worker after it drains the queue,
/// so a clean shutdown publishes everything enqueued (a crash simply
/// loses the tail — which, by the invariant above, is safe).
pub struct Store {
    shared: Arc<Shared>,
    tx: Option<mpsc::Sender<Job>>,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Store {
    /// Opens (creating if needed) the store under `config.root`,
    /// sweeping stale temp files, a retired `profiles/` directory and
    /// answer lists in the retired unordered order, and scanning the
    /// published entries into the byte/entry counters.
    pub fn open(config: StoreConfig) -> io::Result<Store> {
        let shared = Arc::new(Shared {
            root: config.root,
            max_disk_bytes: config.max_disk_bytes,
            fsync: config.fsync,
            counters: Counters::default(),
            unpublished_graphs: Mutex::default(),
        });
        // Best effort, like the temp-file sweep below.
        let _ = fs::remove_dir_all(shared.root.join(RETIRED_PROFILES_DIR));
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for subdir in [ANSWERS_DIR, PLANS_DIR, GRAPHS_DIR, QUARANTINE_DIR] {
            let dir = shared.root.join(subdir);
            fs::create_dir_all(&dir)?;
            if subdir == QUARANTINE_DIR {
                continue;
            }
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let retired = subdir == ANSWERS_DIR && name.ends_with(RETIRED_UNORDERED_SUFFIX);
                if name.ends_with(".tmp") || retired {
                    // A writer died mid-publication (the final file, if
                    // any, is still whole), or the entry can never be
                    // replayed. Best effort, like the sweep above.
                    let _ = fs::remove_file(entry.path());
                    continue;
                }
                if !name.ends_with(&format!(".{ENTRY_EXT}")) {
                    continue;
                }
                if let Ok(meta) = entry.metadata() {
                    entries += 1;
                    bytes += meta.len();
                }
            }
        }
        shared.counters.entries.store(entries, Ordering::Relaxed);
        shared.counters.bytes.store(bytes, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel::<Job>();
        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("mintri-store".to_string())
            .spawn(move || {
                // Senders dropping closes the channel; buffered jobs are
                // still delivered before the Err, so a clean drop
                // flushes.
                while let Ok(job) = rx.recv() {
                    handle_job(&worker_shared, job);
                }
            })?;
        Ok(Store {
            shared,
            tx: Some(tx),
            worker: Mutex::new(Some(worker)),
        })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    fn enqueue(&self, job: Job) {
        // The worker outlives every sender except during Drop, where
        // `tx` is taken first — enqueue is never reachable then.
        let _ = self.tx.as_ref().expect("store worker running").send(job);
    }

    /// Persists a completed-answer replay cache (write-behind). With
    /// `overwrite = false` an already-published entry is left alone —
    /// the mode for eviction spills, where a deposit-time write usually
    /// got there first.
    pub fn put_answers(&self, snap: &AnswerSnapshot, overwrite: bool) {
        self.enqueue(Job::Write {
            subdir: ANSWERS_DIR,
            name: answers_name(snap.fingerprint, &snap.backend, snap.order),
            bytes: snap.encode(),
            overwrite,
        });
    }

    /// Loads the replay cache for `(fingerprint, backend, order)`.
    /// `None` on absence *or* corruption (the corrupt file is
    /// quarantined). The caller still owns the graph-equality check
    /// against the snapshot's `nodes`/`edges`.
    pub fn load_answers(
        &self,
        fingerprint: u64,
        backend: &str,
        order: StoredOrder,
    ) -> Option<AnswerSnapshot> {
        self.load(
            ANSWERS_DIR,
            &answers_name(fingerprint, backend, order),
            AnswerSnapshot::decode,
        )
    }

    /// Persists a memoized plan (write-behind; last write wins).
    pub fn put_plan(&self, snap: &PlanSnapshot) {
        self.enqueue(Job::Write {
            subdir: PLANS_DIR,
            name: plan_name(snap.fingerprint),
            bytes: snap.encode(),
            overwrite: true,
        });
    }

    /// Loads the plan snapshot for `fingerprint`, with the same
    /// miss/quarantine contract as [`Store::load_answers`].
    pub fn load_plan(&self, fingerprint: u64) -> Option<PlanSnapshot> {
        self.load(PLANS_DIR, &plan_name(fingerprint), PlanSnapshot::decode)
    }

    /// Persists a registry graph under its wire id (write-behind). Until
    /// the write lands, [`Store::load_graph`] answers from memory.
    pub fn put_graph(&self, snap: &GraphSnapshot) {
        let name = graph_name(&snap.id);
        let bytes = snap.encode();
        self.enqueue_graph_job(
            name.clone(),
            Some(bytes.clone()),
            Job::Write {
                subdir: GRAPHS_DIR,
                name,
                bytes,
                overwrite: true,
            },
        );
    }

    /// Loads the registry graph under `id`: the latest queued put or
    /// removal if the worker has not handled it yet, else the published
    /// file.
    pub fn load_graph(&self, id: &str) -> Option<GraphSnapshot> {
        let name = graph_name(id);
        let queued = {
            let unpublished = self
                .shared
                .unpublished_graphs
                .lock()
                .expect("a thread panicked holding the unpublished-graph map");
            unpublished
                .by_name
                .get(&name)
                .map(|(_, bytes)| bytes.clone())
        };
        let Some(bytes) = queued else {
            return self.load(GRAPHS_DIR, &name, GraphSnapshot::decode);
        };
        let c = &self.shared.counters;
        c.loads.fetch_add(1, Ordering::Relaxed);
        let snap = bytes.and_then(|bytes| GraphSnapshot::decode(&bytes).ok());
        if snap.is_none() {
            c.load_misses.fetch_add(1, Ordering::Relaxed);
        }
        snap
    }

    /// Records `job` (a put or removal of the graph file `name`) as
    /// unpublished and queues it, followed by the marker that retires the
    /// record once handled. The lock spans both sends, so sequence
    /// numbers follow queue order.
    fn enqueue_graph_job(&self, name: String, bytes: Option<Vec<u8>>, job: Job) {
        let mut unpublished = self
            .shared
            .unpublished_graphs
            .lock()
            .expect("a thread panicked holding the unpublished-graph map");
        let seq = unpublished.next_seq;
        unpublished.next_seq += 1;
        unpublished.by_name.insert(name.clone(), (seq, bytes));
        self.enqueue(job);
        self.enqueue(Job::GraphHandled { name, seq });
    }

    /// Unpublishes the registry graph under `id` (write-behind). Loads
    /// miss from this call on.
    pub fn remove_graph(&self, id: &str) {
        let name = graph_name(id);
        self.enqueue_graph_job(
            name.clone(),
            None,
            Job::Remove {
                subdir: GRAPHS_DIR,
                name,
            },
        );
    }

    /// Blocks until every put/remove enqueued before this call has been
    /// handled. Tests and clean shutdowns use it; queries never should.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        self.enqueue(Job::Flush(ack_tx));
        let _ = ack_rx.recv();
    }

    /// Bytes across all published entries.
    pub fn bytes_stored(&self) -> u64 {
        self.shared.counters.bytes.load(Ordering::Relaxed)
    }

    /// Published entry files.
    pub fn entries(&self) -> u64 {
        self.shared.counters.entries.load(Ordering::Relaxed)
    }

    /// Would publishing `extra` more bytes overflow the configured
    /// budget? Always `false` without a budget. Advisory — the worker
    /// re-checks at write time.
    pub fn would_exceed_budget(&self, extra: u64) -> bool {
        match self.shared.max_disk_bytes {
            Some(cap) => self.bytes_stored().saturating_add(extra) > cap,
            None => false,
        }
    }

    /// The configured disk budget, if any.
    pub fn max_disk_bytes(&self) -> Option<u64> {
        self.shared.max_disk_bytes
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let c = &self.shared.counters;
        StoreStats {
            entries: c.entries.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            skipped_writes: c.skipped_writes.load(Ordering::Relaxed),
            write_errors: c.write_errors.load(Ordering::Relaxed),
            loads: c.loads.load(Ordering::Relaxed),
            load_misses: c.load_misses.load(Ordering::Relaxed),
            corrupt_quarantined: c.corrupt_quarantined.load(Ordering::Relaxed),
        }
    }

    fn load<T>(
        &self,
        subdir: &'static str,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    ) -> Option<T> {
        let c = &self.shared.counters;
        c.loads.fetch_add(1, Ordering::Relaxed);
        let path = self.shared.root.join(subdir).join(name);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                c.load_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode(&bytes) {
            Ok(value) => Some(value),
            Err(_) => {
                self.quarantine(&path, bytes.len() as u64);
                c.load_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Moves a corrupt entry aside (evidence preserved, address freed)
    /// and retires it from the byte/entry accounting.
    fn quarantine(&self, path: &Path, len: u64) {
        let c = &self.shared.counters;
        let seq = c.quarantine_seq.fetch_add(1, Ordering::Relaxed);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let dest = self
            .shared
            .root
            .join(QUARANTINE_DIR)
            .join(format!("{name}.{seq}"));
        if fs::rename(path, &dest)
            .or_else(|_| fs::remove_file(path))
            .is_ok()
        {
            c.corrupt_quarantined.fetch_add(1, Ordering::Relaxed);
            c.entries.fetch_sub(1, Ordering::Relaxed);
            c.bytes.fetch_sub(len, Ordering::Relaxed);
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Closing the channel lets the worker drain what's queued and
        // exit; joining makes drop a flush point.
        self.tx.take();
        if let Some(worker) = self.worker.lock().unwrap().take() {
            let _ = worker.join();
        }
    }
}

fn handle_job(shared: &Shared, job: Job) {
    let c = &shared.counters;
    match job {
        Job::Write {
            subdir,
            name,
            bytes,
            overwrite,
        } => {
            let dir = shared.root.join(subdir);
            let path = dir.join(&name);
            let old_len = fs::metadata(&path).map(|m| m.len()).ok();
            if !overwrite && old_len.is_some() {
                c.skipped_writes.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if let Some(cap) = shared.max_disk_bytes {
                let projected =
                    c.bytes.load(Ordering::Relaxed) - old_len.unwrap_or(0) + bytes.len() as u64;
                if projected > cap {
                    c.skipped_writes.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            let tmp = dir.join(format!(".{name}.tmp"));
            let published = fs::write(&tmp, &bytes)
                .and_then(|()| {
                    if shared.fsync {
                        fs::File::open(&tmp)?.sync_all()?;
                    }
                    fs::rename(&tmp, &path)
                })
                .is_ok();
            if published {
                c.writes.fetch_add(1, Ordering::Relaxed);
                c.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                if let Some(old) = old_len {
                    c.bytes.fetch_sub(old, Ordering::Relaxed);
                } else {
                    c.entries.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                let _ = fs::remove_file(&tmp);
                c.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Job::Remove { subdir, name } => {
            let path = shared.root.join(subdir).join(&name);
            if let Ok(meta) = fs::metadata(&path) {
                if fs::remove_file(&path).is_ok() {
                    c.entries.fetch_sub(1, Ordering::Relaxed);
                    c.bytes.fetch_sub(meta.len(), Ordering::Relaxed);
                }
            }
        }
        Job::Flush(ack) => {
            let _ = ack.send(());
        }
        Job::GraphHandled { name, seq } => {
            let mut unpublished = shared
                .unpublished_graphs
                .lock()
                .expect("a thread panicked holding the unpublished-graph map");
            if unpublished
                .by_name
                .get(&name)
                .is_some_and(|(s, _)| *s == seq)
            {
                unpublished.by_name.remove(&name);
            }
        }
    }
}

/// File-name-safe rendering of an id fragment (backend names, wire
/// graph ids). The sanitized form is part of the entry's disk identity.
fn sanitize(fragment: &str) -> String {
    fragment
        .chars()
        .map(|ch| {
            if ch.is_ascii_alphanumeric() || ch == '-' || ch == '_' {
                ch
            } else {
                '_'
            }
        })
        .collect()
}

fn answers_name(fingerprint: u64, backend: &str, order: StoredOrder) -> String {
    format!(
        "a{fingerprint:016x}-{}-{}.{ENTRY_EXT}",
        sanitize(backend),
        order.tag()
    )
}

fn plan_name(fingerprint: u64) -> String {
    format!("p{fingerprint:016x}.{ENTRY_EXT}")
}

fn graph_name(id: &str) -> String {
    format!("g-{}.{ENTRY_EXT}", sanitize(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A unique scratch root, removed on drop.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> ScratchDir {
            let dir = std::env::temp_dir().join(format!(
                "mintri-store-{tag}-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample(fp: u64) -> AnswerSnapshot {
        AnswerSnapshot {
            fingerprint: fp,
            backend: "mcs-m".into(),
            order: StoredOrder::UponGeneration,
            nodes: 5,
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
            answers: vec![vec![vec![0, 2]], vec![vec![1, 3]]],
            summary: MemoSummary::default(),
        }
    }

    #[test]
    fn put_flush_load_round_trips() {
        let dir = ScratchDir::new("roundtrip");
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        let snap = sample(7);
        store.put_answers(&snap, true);
        store.flush();
        assert_eq!(store.entries(), 1);
        assert!(store.bytes_stored() > 0);
        let loaded = store
            .load_answers(7, "mcs-m", StoredOrder::UponGeneration)
            .expect("published entry loads");
        assert_eq!(loaded, snap);
        // A different order key is a different entry: miss.
        assert!(store
            .load_answers(7, "mcs-m", StoredOrder::UponPop)
            .is_none());
        assert_eq!(store.stats().load_misses, 1);
    }

    #[test]
    fn entries_survive_a_reopen() {
        let dir = ScratchDir::new("reopen");
        {
            let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
            store.put_answers(&sample(1), true);
            store.put_plan(&PlanSnapshot {
                fingerprint: 1,
                nodes: 5,
                edges: vec![(0, 1)],
                components: vec![vec![0, 1]],
                atoms: vec![vec![0, 1]],
                separators: vec![],
            });
            store.put_graph(&GraphSnapshot {
                id: "g1".into(),
                nodes: 2,
                edges: vec![(0, 1)],
            });
            // No explicit flush: Drop joins the worker after a drain.
        }
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        assert_eq!(store.entries(), 3, "reopen scans the published entries");
        assert!(store
            .load_answers(1, "mcs-m", StoredOrder::UponGeneration)
            .is_some());
        assert!(store.load_plan(1).is_some());
        assert_eq!(store.load_graph("g1").unwrap().nodes, 2);
    }

    #[test]
    fn corrupt_entries_are_quarantined_misses() {
        let dir = ScratchDir::new("corrupt");
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        store.put_answers(&sample(3), true);
        store.flush();
        // Flip one payload bit on disk.
        let path =
            dir.0
                .join(ANSWERS_DIR)
                .join(answers_name(3, "mcs-m", StoredOrder::UponGeneration));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(
            store
                .load_answers(3, "mcs-m", StoredOrder::UponGeneration)
                .is_none(),
            "a corrupt entry must be a miss, not an answer"
        );
        let stats = store.stats();
        assert_eq!(stats.corrupt_quarantined, 1);
        assert_eq!(stats.entries, 0, "quarantine retires the entry");
        assert!(!path.exists(), "the corrupt file left its address");
        assert_eq!(
            fs::read_dir(dir.0.join(QUARANTINE_DIR)).unwrap().count(),
            1,
            "the evidence is preserved"
        );
        // The address is reusable: a rewrite publishes cleanly.
        store.put_answers(&sample(3), true);
        store.flush();
        assert!(store
            .load_answers(3, "mcs-m", StoredOrder::UponGeneration)
            .is_some());
    }

    #[test]
    fn truncated_entries_are_quarantined_misses() {
        let dir = ScratchDir::new("truncated");
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        store.put_answers(&sample(4), true);
        store.flush();
        let path =
            dir.0
                .join(ANSWERS_DIR)
                .join(answers_name(4, "mcs-m", StoredOrder::UponGeneration));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store
            .load_answers(4, "mcs-m", StoredOrder::UponGeneration)
            .is_none());
        assert_eq!(store.stats().corrupt_quarantined, 1);
    }

    #[test]
    fn open_removes_a_retired_profiles_dir() {
        let dir = ScratchDir::new("retired-profiles");
        let profiles = dir.0.join(RETIRED_PROFILES_DIR);
        fs::create_dir_all(&profiles).unwrap();
        fs::write(profiles.join(format!("x.{ENTRY_EXT}")), [0u8; 64]).unwrap();
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        assert!(!profiles.exists(), "the retired directory is gone");
        assert_eq!(store.entries(), 0);
        assert_eq!(store.bytes_stored(), 0);
        // A second open finds nothing to remove.
        drop(store);
        Store::open(StoreConfig::at(&dir.0)).unwrap();
    }

    #[test]
    fn open_removes_retired_unordered_answer_lists() {
        let dir = ScratchDir::new("retired-unordered");
        {
            let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
            store.put_answers(&sample(5), true);
        }
        let answers = dir.0.join(ANSWERS_DIR);
        let kept = answers.join(answers_name(5, "mcs-m", StoredOrder::UponGeneration));
        let retired = answers.join(format!("a{:016x}-mcs-m-u.{ENTRY_EXT}", 5));
        fs::write(&retired, [0u8; 64]).unwrap();
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        assert!(!retired.exists(), "the unordered list is gone");
        assert!(kept.exists(), "ordered lists stay");
        assert_eq!(store.entries(), 1, "only the ordered list is counted");
        assert_eq!(store.bytes_stored(), fs::metadata(&kept).unwrap().len());
        assert!(store
            .load_answers(5, "mcs-m", StoredOrder::UponGeneration)
            .is_some());
    }

    #[test]
    fn no_overwrite_skips_published_entries() {
        let dir = ScratchDir::new("skip");
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        let first = sample(9);
        store.put_answers(&first, true);
        store.flush();
        let mut second = sample(9);
        second.answers.clear(); // a conflicting (worse) spill
        store.put_answers(&second, false);
        store.flush();
        assert_eq!(store.stats().skipped_writes, 1);
        let loaded = store
            .load_answers(9, "mcs-m", StoredOrder::UponGeneration)
            .unwrap();
        assert_eq!(loaded, first, "the published entry won");
    }

    #[test]
    fn budget_skips_writes_and_answers_would_exceed() {
        let dir = ScratchDir::new("budget");
        let store = Store::open(StoreConfig {
            max_disk_bytes: Some(16),
            ..StoreConfig::at(&dir.0)
        })
        .unwrap();
        assert!(!store.would_exceed_budget(16));
        assert!(store.would_exceed_budget(17));
        store.put_answers(&sample(5), true); // the header alone is 24 bytes
        store.flush();
        assert_eq!(store.entries(), 0, "over-budget write was skipped");
        assert_eq!(store.stats().skipped_writes, 1);
    }

    #[test]
    fn remove_graph_unpublishes() {
        let dir = ScratchDir::new("remove");
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        store.put_graph(&GraphSnapshot {
            id: "gx".into(),
            nodes: 3,
            edges: vec![(0, 1), (1, 2)],
        });
        store.flush();
        assert_eq!(store.entries(), 1);
        store.remove_graph("gx");
        store.flush();
        assert_eq!(store.entries(), 0);
        assert_eq!(store.bytes_stored(), 0);
        assert!(store.load_graph("gx").is_none());
    }

    #[test]
    fn graph_loads_read_queued_writes_and_removals() {
        let dir = ScratchDir::new("unpublished");
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        let snap = GraphSnapshot {
            id: "gq".into(),
            nodes: 3,
            edges: vec![(0, 1), (1, 2)],
        };
        // Park the worker on a rendezvous ack, so everything queued
        // behind it stays unpublished until the ack is taken.
        let (ack_tx, ack_rx) = mpsc::sync_channel(0);
        store.enqueue(Job::Flush(ack_tx));
        store.put_graph(&snap);
        assert_eq!(store.load_graph("gq"), Some(snap.clone()));
        store.remove_graph("gq");
        assert_eq!(store.load_graph("gq"), None);
        store.put_graph(&snap);
        assert_eq!(store.entries(), 0, "nothing is published yet");
        ack_rx.recv().unwrap();
        store.flush();
        assert_eq!(store.entries(), 1);
        assert!(store
            .shared
            .unpublished_graphs
            .lock()
            .unwrap()
            .by_name
            .is_empty());
        assert_eq!(store.load_graph("gq"), Some(snap));
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = ScratchDir::new("sweep");
        {
            let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
            store.put_answers(&sample(2), true);
            store.flush();
        }
        let stale = dir.0.join(ANSWERS_DIR).join(".aabb.mts.tmp");
        fs::write(&stale, b"half a write").unwrap();
        let store = Store::open(StoreConfig::at(&dir.0)).unwrap();
        assert!(!stale.exists(), "crashed-writer leftovers are swept");
        assert_eq!(store.entries(), 1, "tmp files never count as entries");
    }
}
