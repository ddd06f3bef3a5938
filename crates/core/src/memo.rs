//! Sharded, lock-striped concurrent memo tables behind [`crate::MsGraph`].
//!
//! The enumeration stack memoizes one table per input graph: the
//! *separator interner* (content-addressed `NodeSet` → dense [`SepId`]),
//! whose id → set direction also holds each separator's component labels
//! once a crossing query needs them. The content → id direction is striped
//! over `N` mutex-guarded shards selected by key hash, so concurrent
//! `EnumMIS` workers — and concurrent *queries* sharing one warm
//! [`crate::MsGraph`] through the engine's session layer — hit different
//! stripes and intern each separator at most once per graph.
//!
//! Interned ids stay **dense and insertion-ordered** (`0, 1, 2, …`): the
//! id → set direction is an append-only vector under a read-write lock,
//! taken for writing only on a genuinely new separator. Under a
//! single-threaded caller the assignment order — and therefore the whole
//! enumeration order — is identical to the historical `RefCell`
//! implementation.

use mintri_graph::{FxHashMap, FxHasher, NodeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Dense identifier of an interned minimal separator.
pub type SepId = u32;

/// Number of lock stripes. A power of two so shard selection is a mask;
/// 16 stripes keep contention negligible for any thread count this
/// workspace targets while costing ~1 KiB of locks per graph.
const SHARDS: usize = 16;

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

/// Content-addressed interner from [`NodeSet`] separators to dense
/// [`SepId`]s, safe for concurrent use from many threads.
///
/// Separators are stored as `Arc<NodeSet>`, shared between the
/// content → id map and the id → content vector, so lookups hand out
/// reference-counted handles instead of cloning bitsets under the lock.
pub struct ShardedInterner {
    /// content → id, striped by content hash (`Arc<NodeSet>: Borrow<NodeSet>`
    /// lets callers probe by reference, no allocation on the hit path).
    shards: [Mutex<FxHashMap<Arc<NodeSet>, SepId>>; SHARDS],
    /// id → content, append-only; write-locked only when a new separator
    /// is first seen.
    sets: RwLock<Vec<Interned>>,
}

/// One row of the id → content table.
struct Interned {
    set: Arc<NodeSet>,
    /// Component labels of `g \ set`, filled on first use (see
    /// [`ShardedInterner::set_labels`]).
    labels: OnceLock<Box<[u32]>>,
}

impl Default for ShardedInterner {
    fn default() -> Self {
        ShardedInterner {
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            sets: RwLock::new(Vec::new()),
        }
    }
}

impl ShardedInterner {
    /// Interns `s`, returning its dense id; equal sets always map to the
    /// same id, no matter which thread got there first.
    pub fn intern(&self, s: NodeSet) -> SepId {
        let mut shard = self.shards[shard_of(&s)].lock().unwrap();
        if let Some(&id) = shard.get(&s) {
            return id;
        }
        self.insert_new(&mut shard, Arc::new(s))
    }

    /// Interns by reference: a pure lookup when the set is already known
    /// (the steady state of the enumeration kernel), cloning `s` only
    /// when it is genuinely new.
    pub fn intern_ref(&self, s: &NodeSet) -> SepId {
        let mut shard = self.shards[shard_of(s)].lock().unwrap();
        if let Some(&id) = shard.get(s) {
            return id;
        }
        self.insert_new(&mut shard, Arc::new(s.clone()))
    }

    /// Assigns the next dense id to a genuinely new separator. The caller
    /// holds the (missed) shard lock, which is what makes the assignment
    /// unique; lock order is always shard → sets, so this cannot deadlock.
    fn insert_new(&self, shard: &mut FxHashMap<Arc<NodeSet>, SepId>, s: Arc<NodeSet>) -> SepId {
        let mut sets = self.sets.write().unwrap();
        let id = sets.len() as SepId;
        sets.push(Interned {
            set: Arc::clone(&s),
            labels: OnceLock::new(),
        });
        drop(sets);
        shard.insert(s, id);
        id
    }

    /// Number of distinct separators interned so far.
    pub fn len(&self) -> usize {
        self.sets.read().unwrap().len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A shared handle on the separator behind `id` (refcount bump, no
    /// bitset copy).
    pub fn get(&self, id: SepId) -> Arc<NodeSet> {
        Arc::clone(&self.sets.read().unwrap()[id as usize].set)
    }

    /// Appends shared handles on the separators behind `ids` to `out`,
    /// under one brief read lock.
    pub fn extend_handles(&self, ids: &[SepId], out: &mut Vec<Arc<NodeSet>>) {
        let sets = self.sets.read().unwrap();
        out.extend(ids.iter().map(|&id| Arc::clone(&sets[id as usize].set)));
    }

    /// Runs `f` over `a`'s component labels and `b`'s set under one read
    /// lock, with no handle clones; `None` while `a` is still unlabelled.
    pub fn with_labels<R>(
        &self,
        a: SepId,
        b: SepId,
        f: impl FnOnce(&[u32], &NodeSet) -> R,
    ) -> Option<R> {
        let sets = self.sets.read().unwrap();
        let labels = sets[a as usize].labels.get()?;
        Some(f(labels, &sets[b as usize].set))
    }

    /// Stores `a`'s component labels, computed outside the lock. Returns
    /// `false`, dropping `labels`, when another thread stored them first.
    pub fn set_labels(&self, a: SepId, labels: Box<[u32]>) -> bool {
        self.sets.read().unwrap()[a as usize]
            .labels
            .set(labels)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
    fn interner_is_race_free_across_threads() {
        let interner = Arc::new(ShardedInterner::default());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let interner = Arc::clone(&interner);
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for i in 0..200u32 {
                        // every thread interns the same 200 sets, rotated
                        let i = (i + t * 25) % 200;
                        ids.push((i, interner.intern(NodeSet::from_iter(256, [i, i + 1]))));
                    }
                    ids
                })
            })
            .collect();
        let all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(interner.len(), 200, "each distinct set interned once");
        for (i, id) in all {
            assert_eq!(
                interner.get(id).to_vec(),
                vec![i, i + 1],
                "id must resolve to the set that produced it"
            );
        }
    }
}
