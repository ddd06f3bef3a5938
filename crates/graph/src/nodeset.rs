//! Fixed-capacity bitsets over graph nodes.
//!
//! Every set-valued object in this workspace — separators, connected
//! components, neighborhoods, cliques, bags — is a [`NodeSet`]: a bitset with
//! capacity fixed at the number of nodes of the ambient graph. All binary
//! operations are word-parallel, which is the single most important
//! performance property of the enumeration stack (the crossing test and
//! clique extraction are dominated by subset/intersection checks).

use crate::Node;
use std::fmt;

/// Number of bits per storage word.
const BITS: usize = u64::BITS as usize;

/// A set of graph nodes as a bitmap over its words `W`: an owned
/// `Vec<u64>` by default, or a borrowed `&[u64]` for a [`NodeRow`].
///
/// The words always number `ceil(capacity / 64)` and any bits at
/// positions `>= capacity` are zero, so `Eq`, `Ord` and `Hash` agree with
/// set equality for sets created with the same capacity, and a row hashes
/// like the owned set with the same nodes.
///
/// `Ord` is an arbitrary-but-total order (lexicographic on words); it exists
/// so `NodeSet`s can key `BTreeMap`s and be sorted deterministically.
///
/// Every read — membership, iteration, cardinality and the binary tests
/// and operations — works on either storage and accepts either storage as
/// its argument; mutation needs the owned words.
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeSet<W = Vec<u64>> {
    pub(crate) words: W,
    pub(crate) capacity: u32,
}

/// A read-only view of a set stored elsewhere: a row of a
/// [`Graph`](crate::Graph)'s adjacency, as [`Graph::neighbors`](crate::Graph::neighbors)
/// returns it. [`NodeSet::to_set`] makes an owned copy.
pub type NodeRow<'a> = NodeSet<&'a [u64]>;

impl Clone for NodeSet {
    fn clone(&self) -> Self {
        NodeSet {
            words: self.words.clone(),
            capacity: self.capacity,
        }
    }

    /// Reuses the existing word buffer — allocation-free whenever `self`
    /// has ever held a set at least as large. The scratch kernels lean on
    /// this: a derived `clone_from` would discard the buffer.
    fn clone_from(&mut self, other: &Self) {
        self.words.clone_from(&other.words);
        self.capacity = other.capacity;
    }
}

impl NodeSet {
    /// Creates an empty set able to hold nodes `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(BITS)],
            capacity: capacity as u32,
        }
    }

    /// Creates a set holding all of `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Builds a set from an iterator of nodes.
    pub fn from_iter<I: IntoIterator<Item = Node>>(capacity: usize, nodes: I) -> Self {
        let mut s = Self::new(capacity);
        for v in nodes {
            s.insert(v);
        }
        s
    }

    /// Zeroes any bits at positions `>= capacity` to keep the representation
    /// canonical.
    #[inline]
    fn trim(&mut self) {
        let cap = self.capacity as usize;
        if !cap.is_multiple_of(BITS) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (cap % BITS)) - 1;
            }
        }
    }

    /// Inserts `v`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, v: Node) -> bool {
        let v = v as usize;
        debug_assert!(v < self.capacity as usize);
        let w = &mut self.words[v / BITS];
        let mask = 1u64 << (v % BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: Node) -> bool {
        let v = v as usize;
        debug_assert!(v < self.capacity as usize);
        let w = &mut self.words[v / BITS];
        let mask = 1u64 << (v % BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Removes all elements, keeping the capacity.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Re-purposes the set as an empty set over `0..capacity`, reusing the
    /// word buffer (allocation-free once the buffer has grown to the
    /// largest capacity seen).
    pub fn reset(&mut self, capacity: usize) {
        self.capacity = capacity as u32;
        self.words.clear();
        self.words.resize(capacity.div_ceil(BITS), 0);
    }

    /// Like [`NodeSet::reset`] but filled with all of `0..capacity`.
    pub fn reset_full(&mut self, capacity: usize) {
        self.capacity = capacity as u32;
        self.words.clear();
        self.words.resize(capacity.div_ceil(BITS), u64::MAX);
        self.trim();
    }

    /// Re-purposes the set as the nodes of `0..capacity` whose bits are
    /// set in `words` (laid out as [`NodeSet::words`]), reusing the word
    /// buffer. Words past `⌈capacity / 64⌉` and bits at positions
    /// `>= capacity` are ignored.
    ///
    /// # Panics
    /// Panics if `words` is shorter than `⌈capacity / 64⌉`.
    pub fn assign_words(&mut self, capacity: usize, words: &[u64]) {
        self.capacity = capacity as u32;
        self.words.clear();
        self.words
            .extend_from_slice(&words[..capacity.div_ceil(BITS)]);
        self.trim();
    }

    /// In-place union: `self ∪= other`.
    #[inline]
    pub fn union_with<V: AsRef<[u64]>>(&mut self, other: &NodeSet<V>) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    #[inline]
    pub fn intersect_with<V: AsRef<[u64]>>(&mut self, other: &NodeSet<V>) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// In-place difference: `self \= other`.
    #[inline]
    pub fn difference_with<V: AsRef<[u64]>>(&mut self, other: &NodeSet<V>) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// Pops an arbitrary element (the smallest), removing it from the set.
    pub fn pop(&mut self) -> Option<Node> {
        let v = self.first()?;
        self.remove(v);
        Some(v)
    }
}

impl<W: AsRef<[u64]>> NodeSet<W> {
    /// The fixed capacity (number of addressable nodes), *not* the cardinality.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// The backing words, lowest nodes first: `⌈capacity / 64⌉` of them,
    /// with every bit at a position `>= capacity` zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        self.words.as_ref()
    }

    /// An owned copy of the set.
    pub fn to_set(&self) -> NodeSet {
        NodeSet {
            words: self.words().to_vec(),
            capacity: self.capacity,
        }
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: Node) -> bool {
        let v = v as usize;
        debug_assert!(v < self.capacity as usize);
        (self.words()[v / BITS] >> (v % BITS)) & 1 == 1
    }

    /// Returns `self ∪ other` as a new set.
    pub fn union<V: AsRef<[u64]>>(&self, other: &NodeSet<V>) -> NodeSet {
        let mut s = self.to_set();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection<V: AsRef<[u64]>>(&self, other: &NodeSet<V>) -> NodeSet {
        let mut s = self.to_set();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other` as a new set.
    pub fn difference<V: AsRef<[u64]>>(&self, other: &NodeSet<V>) -> NodeSet {
        let mut s = self.to_set();
        s.difference_with(other);
        s
    }

    /// Cardinality of `self ∩ other` without materializing the set.
    #[inline]
    pub fn intersection_len<V: AsRef<[u64]>>(&self, other: &NodeSet<V>) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `true` iff the sets share no element.
    #[inline]
    pub fn is_disjoint<V: AsRef<[u64]>>(&self, other: &NodeSet<V>) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & b == 0)
    }

    /// `true` iff `self ⊆ other`.
    #[inline]
    pub fn is_subset<V: AsRef<[u64]>>(&self, other: &NodeSet<V>) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff `self ⊇ other`.
    #[inline]
    pub fn is_superset<V: AsRef<[u64]>>(&self, other: &NodeSet<V>) -> bool {
        other.is_subset(self)
    }

    /// `true` iff `self ∩ other` has at least one element that is also in
    /// neither set's complement — i.e. whether any element of `other` lies in
    /// `self` (alias for `!is_disjoint`).
    #[inline]
    pub fn intersects<V: AsRef<[u64]>>(&self, other: &NodeSet<V>) -> bool {
        !self.is_disjoint(other)
    }

    /// The smallest element, if any.
    #[inline]
    pub fn first(&self) -> Option<Node> {
        for (i, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some((i * BITS + w.trailing_zeros() as usize) as Node);
            }
        }
        None
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter::new(self.words())
    }

    /// Collects the elements into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<Node> {
        self.iter().collect()
    }
}

impl<W: AsRef<[u64]>> fmt::Debug for NodeSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a, W: AsRef<[u64]>> IntoIterator for &'a NodeSet<W> {
    type Item = Node;
    type IntoIter = NodeSetIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Node> for NodeSet {
    /// Builds a set whose capacity is one more than the largest element.
    /// Prefer [`NodeSet::from_iter`] with an explicit capacity when the
    /// ambient graph is known.
    fn from_iter<I: IntoIterator<Item = Node>>(iter: I) -> Self {
        let nodes: Vec<Node> = iter.into_iter().collect();
        let cap = nodes.iter().map(|&v| v as usize + 1).max().unwrap_or(0);
        NodeSet::from_iter(cap, nodes)
    }
}

/// Iterator over the elements of a [`NodeSet`] in increasing order.
pub struct NodeSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> NodeSetIter<'a> {
    fn new(words: &'a [u64]) -> Self {
        NodeSetIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for NodeSetIter<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.word_idx * BITS + bit) as Node);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set() {
        let s = NodeSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.first(), None);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(65));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.to_vec(), vec![0, 129]);
    }

    #[test]
    fn full_and_trim() {
        let s = NodeSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        // Canonical representation: equal to an explicitly constructed set.
        let t = NodeSet::from_iter(70, 0..70);
        assert_eq!(s, t);
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_iter(10, [1, 2, 3, 7]);
        let b = NodeSet::from_iter(10, [2, 3, 4]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 7]);
        assert_eq!(a.intersection(&b).to_vec(), vec![2, 3]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 7]);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&NodeSet::from_iter(10, [0, 9])));
    }

    #[test]
    fn subset_relations() {
        let a = NodeSet::from_iter(200, [3, 100, 150]);
        let b = NodeSet::from_iter(200, [3, 100, 150, 199]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(b.is_superset(&a));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn iteration_order_is_sorted() {
        let s = NodeSet::from_iter(300, [250, 3, 64, 65, 127, 128]);
        assert_eq!(s.to_vec(), vec![3, 64, 65, 127, 128, 250]);
    }

    #[test]
    fn pop_drains_in_order() {
        let mut s = NodeSet::from_iter(80, [5, 70, 12]);
        assert_eq!(s.pop(), Some(5));
        assert_eq!(s.pop(), Some(12));
        assert_eq!(s.pop(), Some(70));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn eq_and_hash_are_structural() {
        use std::collections::HashSet;
        let a = NodeSet::from_iter(65, [0, 64]);
        let mut b = NodeSet::new(65);
        b.insert(64);
        b.insert(0);
        assert_eq!(a, b);
        let mut h = HashSet::new();
        h.insert(a);
        assert!(h.contains(&b));
    }

    #[test]
    fn reset_changes_capacity_and_empties() {
        let mut s = NodeSet::from_iter(200, [3, 100, 150]);
        s.reset(70);
        assert_eq!(s.capacity(), 70);
        assert!(s.is_empty());
        s.insert(69);
        assert_eq!(s.to_vec(), vec![69]);
        s.reset_full(10);
        assert_eq!(s, NodeSet::full(10));
    }

    #[test]
    fn clone_from_matches_clone() {
        let src = NodeSet::from_iter(130, [0, 64, 129]);
        let mut dst = NodeSet::from_iter(300, 0..300);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.capacity(), src.capacity());
        let mut small = NodeSet::new(0);
        small.clone_from(&src);
        assert_eq!(small, src);
    }

    #[test]
    fn assign_words_round_trips_and_trims() {
        let src = NodeSet::from_iter(130, [0, 64, 129]);
        let mut dst = NodeSet::from_iter(300, 0..300);
        dst.assign_words(130, src.words());
        assert_eq!(dst, src);
        // extra words and bits past the capacity are dropped
        dst.assign_words(65, &[u64::MAX, u64::MAX, 7]);
        assert_eq!(dst, NodeSet::full(65));
        dst.assign_words(0, &[1]);
        assert_eq!(dst, NodeSet::new(0));
    }

    #[test]
    fn zero_capacity() {
        let s = NodeSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let t = NodeSet::full(0);
        assert_eq!(s, t);
    }
}
