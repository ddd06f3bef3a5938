//! The set of `Jv` inputs a stream has already sent to `Extend`.
//!
//! Every key is a **sorted** node slice. All keys live back to back in
//! one arena (`u32` ids for the minimal-separator graph), and an
//! open-addressing index of key ids finds them, so a stream holding tens
//! of thousands of keys pays no heap allocation per key — only the
//! occasional doubling of the arena or the index.

use mintri_graph::FxHasher;
use std::hash::{Hash, Hasher};

/// An insert-only set of sorted node slices (see the module docs).
#[derive(Debug, Clone)]
pub struct JvKeys<N> {
    /// Every key's nodes, back to back, in insertion order.
    arena: Vec<N>,
    /// `ends[k]`: one past key `k`'s last arena slot (key `k` starts at
    /// `ends[k - 1]`, or 0).
    ends: Vec<u32>,
    /// Open-addressing index, power-of-two length: `0` marks an empty
    /// slot, anything else is a key id + 1. Kept at most half full.
    /// Slots hold ids only, so a probe compares arena slices; a stored
    /// hash would double the index for little speed.
    slots: Vec<u32>,
}

impl<N> Default for JvKeys<N> {
    fn default() -> Self {
        JvKeys {
            arena: Vec::new(),
            ends: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<N: Clone + Eq + Hash> JvKeys<N> {
    /// An empty set with room for `keys` keys of `nodes` nodes in total:
    /// inserts within that size never allocate.
    pub fn with_capacity(keys: usize, nodes: usize) -> Self {
        JvKeys {
            arena: Vec::with_capacity(nodes),
            ends: Vec::with_capacity(keys),
            slots: vec![0; (2 * keys).next_power_of_two().max(8)],
        }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Inserts `key` unless it is already present. Returns `true` iff it
    /// was new — the caller is the first to extend this `Jv`.
    pub fn insert(&mut self, key: &[N]) -> bool {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = hash_of(key);
        let Ok(slot) = self.probe(key, hash) else {
            return false;
        };
        self.arena.extend_from_slice(key);
        let too_big = "JvKeys holds fewer than 2^32 nodes and keys";
        self.ends
            .push(u32::try_from(self.arena.len()).expect(too_big));
        self.slots[slot] = u32::try_from(self.ends.len()).expect(too_big);
        true
    }

    fn key(&self, id: usize) -> &[N] {
        let start = if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        };
        &self.arena[start..self.ends[id] as usize]
    }

    /// Linear probe for `key`: `Ok(slot)` is the empty slot it would
    /// take, `Err(())` means it is present.
    fn probe(&self, key: &[N], hash: usize) -> Result<usize, ()> {
        let mask = self.slots.len() - 1;
        let mut slot = hash & mask;
        loop {
            let entry = self.slots[slot];
            if entry == 0 {
                return Ok(slot);
            }
            if self.key(entry as usize - 1) == key {
                return Err(());
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the index, re-placing every key by its hash.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(8);
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for id in 0..self.ends.len() {
            let mut slot = hash_of(self.key(id)) & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }
}

fn hash_of<N: Hash>(key: &[N]) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    // Fx mixes upward: the high bits are the well-spread ones.
    (h.finish() >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_insert_wins_and_repeats_are_refused() {
        let mut keys = JvKeys::default();
        assert!(keys.insert(&[] as &[u32]));
        assert!(keys.insert(&[1, 2, 3]));
        assert!(keys.insert(&[1, 2]));
        assert!(!keys.insert(&[1, 2, 3]));
        assert!(!keys.insert(&[]));
        assert!(!keys.insert(&[1, 2]));
        assert!(keys.insert(&[2, 3]));
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn growth_keeps_every_key() {
        let mut keys = JvKeys::default();
        for i in 0..5_000u32 {
            assert!(keys.insert(&[i, i + 1, i * 7]));
        }
        for i in 0..5_000u32 {
            assert!(!keys.insert(&[i, i + 1, i * 7]));
        }
        assert_eq!(keys.len(), 5_000);
    }

    #[test]
    fn presized_inserts_reuse_their_buffers() {
        let mut keys = JvKeys::with_capacity(100, 300);
        let (arena, ends, slots) = (keys.arena.as_ptr(), keys.ends.as_ptr(), keys.slots.as_ptr());
        for i in 0..100u32 {
            keys.insert(&[i, i + 1, i + 2]);
        }
        assert_eq!(arena, keys.arena.as_ptr());
        assert_eq!(ends, keys.ends.as_ptr());
        assert_eq!(slots, keys.slots.as_ptr());
    }
}
