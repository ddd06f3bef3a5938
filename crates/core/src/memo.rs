//! Sharded concurrent separator table behind [`crate::MsGraph`].
//!
//! The enumeration stack memoizes one table per input graph: the
//! *separator interner* (content-addressed `NodeSet` → dense [`SepId`]),
//! whose id → row direction also holds each separator's component labels
//! once a crossing query needs them. The content → id direction is striped
//! over `N` mutex-guarded shards selected by key hash, so concurrent
//! `EnumMIS` workers — and concurrent *queries* sharing one warm
//! [`crate::MsGraph`] through the engine's session layer — hit different
//! stripes and intern each separator at most once per graph.
//!
//! Interned ids stay **dense and insertion-ordered** (`0, 1, 2, …`): a
//! genuinely new separator takes the next id under a small id lock (lock
//! order shard → id) and writes its row into an append-only segmented
//! table. Segment `k` holds `64 << k` write-once rows and is itself
//! allocated once, so rows never move and the id → row direction reads
//! with no lock and no reference-count traffic. Under a single-threaded
//! caller the assignment order — and therefore the whole enumeration
//! order — is identical to the historical `RefCell` implementation.

use mintri_graph::{FxHashMap, FxHasher, NodeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Dense identifier of an interned minimal separator.
pub type SepId = u32;

/// Number of lock stripes. A power of two so shard selection is a mask;
/// 16 stripes keep contention negligible for any thread count this
/// workspace targets while costing ~1 KiB of locks per graph.
const SHARDS: usize = 16;

/// Rows in the id table's first segment; segment `k` holds
/// `FIRST_SEGMENT << k` rows, starting at id `FIRST_SEGMENT · (2^k − 1)`.
const FIRST_SEGMENT: usize = 64;

/// Segments needed to give every [`SepId`] a row:
/// `64 · (2^27 − 1) > u32::MAX`.
const SEGMENTS: usize = 27;

const SHARD_POISONED: &str = "a thread panicked interning a separator";
const ID_POISONED: &str = "a thread panicked assigning an id";

/// Selects one of `stripes` lock stripes for `key` (`stripes` must be a
/// power of two). The low hash bits feed the hash-map bucket index inside
/// a stripe, so the stripe comes from the *high* bits to keep the two
/// selections independent. Shared with the engine's concurrent seen-set.
pub fn stripe_of<K: Hash>(key: &K, stripes: usize) -> usize {
    debug_assert!(stripes.is_power_of_two());
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() >> 57) as usize & (stripes - 1)
}

fn shard_of<K: Hash>(key: &K) -> usize {
    stripe_of(key, SHARDS)
}

/// `(segment, offset)` of the row behind `id`.
fn locate(id: usize) -> (usize, usize) {
    let segment = (id / FIRST_SEGMENT + 1).ilog2() as usize;
    (segment, id - FIRST_SEGMENT * ((1 << segment) - 1))
}

/// Content-addressed interner from [`NodeSet`] separators to dense
/// [`SepId`]s, safe for concurrent use from many threads.
///
/// Separators are stored as `Arc<NodeSet>`, shared between the
/// content → id map and the id → row table.
pub struct ShardedInterner {
    /// content → id, striped by content hash (`Arc<NodeSet>: Borrow<NodeSet>`
    /// lets callers probe by reference, no allocation on the hit path).
    shards: [Mutex<FxHashMap<Arc<NodeSet>, SepId>>; SHARDS],
    /// id → row, append-only: segment `k` holds `FIRST_SEGMENT << k` rows
    /// (see [`locate`]), each written once, before its id is handed out.
    segments: [OnceLock<Box<[OnceLock<Interned>]>>; SEGMENTS],
    /// Ids assigned so far; the next new separator takes this value.
    next: Mutex<usize>,
}

/// One row of the id → row table: a separator and, once a crossing query
/// needs them, the component labels of `g \ set`.
pub(crate) struct Interned {
    set: Arc<NodeSet>,
    labels: OnceLock<Box<[u32]>>,
}

impl Interned {
    /// The separator.
    pub(crate) fn set(&self) -> &NodeSet {
        &self.set
    }

    /// The separator's labels, computed by `label` on first use. Racing
    /// callers wait for the first one, so `label` runs exactly once.
    pub(crate) fn labels(&self, label: impl FnOnce(&NodeSet) -> Box<[u32]>) -> &[u32] {
        self.labels.get_or_init(|| label(&self.set))
    }
}

impl Default for ShardedInterner {
    fn default() -> Self {
        ShardedInterner {
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            segments: std::array::from_fn(|_| OnceLock::new()),
            next: Mutex::new(0),
        }
    }
}

impl ShardedInterner {
    /// Interns `s`, returning its dense id; equal sets always map to the
    /// same id, no matter which thread got there first.
    pub fn intern(&self, s: NodeSet) -> SepId {
        let mut shard = self.shards[shard_of(&s)].lock().expect(SHARD_POISONED);
        if let Some(&id) = shard.get(&s) {
            return id;
        }
        self.insert_new(&mut shard, Arc::new(s))
    }

    /// Interns by reference: a pure lookup when the set is already known
    /// (the steady state of the enumeration kernel), cloning `s` only
    /// when it is genuinely new.
    pub fn intern_ref(&self, s: &NodeSet) -> SepId {
        let mut shard = self.shards[shard_of(s)].lock().expect(SHARD_POISONED);
        if let Some(&id) = shard.get(s) {
            return id;
        }
        self.insert_new(&mut shard, Arc::new(s.clone()))
    }

    /// Assigns the next dense id to a genuinely new separator and writes
    /// its row. The caller holds the (missed) shard lock, which is what
    /// makes the assignment unique; lock order is always shard → id, so
    /// this cannot deadlock. The row is written before the id leaves this
    /// function, so every id a caller can hold resolves.
    fn insert_new(&self, shard: &mut FxHashMap<Arc<NodeSet>, SepId>, s: Arc<NodeSet>) -> SepId {
        let mut next = self.next.lock().expect(ID_POISONED);
        let id = SepId::try_from(*next).expect("more than u32::MAX separators");
        let (segment, at) = locate(*next);
        let rows = self.segments[segment].get_or_init(|| {
            (0..FIRST_SEGMENT << segment)
                .map(|_| OnceLock::new())
                .collect()
        });
        let row = Interned {
            set: Arc::clone(&s),
            labels: OnceLock::new(),
        };
        assert!(rows[at].set(row).is_ok(), "id {id} assigned twice");
        *next += 1;
        drop(next);
        shard.insert(s, id);
        id
    }

    /// Number of distinct separators interned so far.
    pub fn len(&self) -> usize {
        *self.next.lock().expect(ID_POISONED)
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row behind `id`, read with no lock.
    pub(crate) fn row(&self, id: SepId) -> &Interned {
        let (segment, at) = locate(id as usize);
        self.segments[segment]
            .get()
            .and_then(|rows| rows[at].get())
            .expect("a SepId comes from this interner")
    }

    /// A shared handle on the separator behind `id` (refcount bump, no
    /// bitset copy).
    pub fn get(&self, id: SepId) -> Arc<NodeSet> {
        Arc::clone(&self.row(id).set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};

    #[test]
    fn interner_ids_are_dense_and_content_addressed() {
        let interner = ShardedInterner::default();
        let a = interner.intern(NodeSet::from_iter(8, [0, 2]));
        let b = interner.intern(NodeSet::from_iter(8, [1, 3]));
        let a2 = interner.intern(NodeSet::from_iter(8, [0, 2]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!({ a.max(b) } as usize + 1, interner.len());
        assert_eq!(interner.get(a).to_vec(), vec![0, 2]);
    }

    #[test]
    fn rows_are_located_across_segment_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(960), (4, 0));
        let (segment, at) = locate(u32::MAX as usize);
        assert!(segment < SEGMENTS && at < FIRST_SEGMENT << segment);
    }

    /// Writers intern the same sets, crossing four segment boundaries
    /// (ids 64, 192, 448 and 960), while readers resolve the ids they
    /// publish. The barrier holds every writer halfway until each reader
    /// has resolved at least one id, so reads overlap interning.
    #[test]
    fn interner_is_race_free_across_threads() {
        const SETS: u32 = 1200;
        const WRITERS: u32 = 4;
        const READERS: usize = 2;
        let interner = ShardedInterner::default();
        let halfway = Barrier::new(WRITERS as usize + READERS);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..READERS).map(|_| mpsc::channel()).unzip();
        let published = std::thread::scope(|scope| {
            let readers: Vec<_> = receivers
                .into_iter()
                .map(|rx: mpsc::Receiver<(u32, SepId)>| {
                    let (interner, halfway) = (&interner, &halfway);
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        for (i, id) in rx {
                            assert_eq!(interner.row(id).set().to_vec(), vec![i, i + 1]);
                            if seen.is_empty() {
                                halfway.wait();
                            }
                            seen.push((i, id));
                        }
                        seen
                    })
                })
                .collect();
            for t in 0..WRITERS {
                let tx = senders[t as usize % READERS].clone();
                let (interner, halfway) = (&interner, &halfway);
                scope.spawn(move || {
                    for k in 0..SETS {
                        if k == SETS / 2 {
                            halfway.wait();
                        }
                        // every thread interns the same sets, rotated
                        let i = (k + t * 300) % SETS;
                        let id = interner.intern(NodeSet::from_iter(SETS as usize + 1, [i, i + 1]));
                        tx.send((i, id)).expect("readers outlive writers");
                    }
                });
            }
            drop(senders);
            readers
                .into_iter()
                .flat_map(|r| r.join().expect("reader panicked"))
                .collect::<Vec<_>>()
        });
        assert_eq!(
            interner.len(),
            SETS as usize,
            "each distinct set interned once"
        );
        assert_eq!(published.len(), (SETS * WRITERS) as usize);
        let mut ids: Vec<SepId> = published.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, (0..SETS).collect::<Vec<_>>(), "ids are dense");
        for (i, id) in published {
            assert_eq!(
                interner.get(id).to_vec(),
                vec![i, i + 1],
                "id must resolve to the set that produced it"
            );
        }
    }
}
