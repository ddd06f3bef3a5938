//! A small, fast, non-cryptographic hasher for hot hash maps.
//!
//! The enumeration stack hashes millions of short integer keys (interned
//! separator ids, answer vectors). The std SipHash is measurably slow for
//! such keys, so we bundle the Firefox/rustc "Fx" multiply-rotate hash —
//! reimplemented here because external hashing crates are not on the offline
//! dependency allowlist. HashDoS resistance is irrelevant: all keys are
//! internally generated.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx multiply-rotate hasher (word-at-a-time).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
    }

    #[test]
    fn discriminates() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&vec![1u32, 2]), hash_of(&vec![2u32, 1]));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
    }

    #[test]
    fn usable_in_maps() {
        let mut m: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        m.insert(vec![1, 2, 3], 1);
        m.insert(vec![], 2);
        assert_eq!(m[&vec![1, 2, 3]], 1);
        assert_eq!(m[&vec![]], 2);

        let mut s: FxHashSet<u32> = FxHashSet::default();
        for i in 0..1000 {
            s.insert(i % 100);
        }
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn odd_length_byte_streams() {
        // exercise the chunk remainder path
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(hash_of(&[0u8; 7].as_slice()), hash_of(&[0u8; 9].as_slice()));
    }
}
