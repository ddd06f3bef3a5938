//! A graph's adjacency as one flat, row-major bit matrix.
//!
//! [`Graph`] keeps one heap-allocated [`NodeSet`] per row, which is the
//! right shape for a graph that lives long and changes little. A kernel
//! that rebuilds and sweeps a whole adjacency per call (MCS-M inside
//! `Extend`) wants the opposite: every row in one buffer, at a fixed
//! stride, so a row is a slice and nothing is chased through a pointer.

use crate::{Graph, Node, NodeSet};

/// Number of bits per storage word.
const BITS: usize = u64::BITS as usize;

/// The adjacency of a graph on `0..n` as `n` rows of
/// `max(1, ⌈n / 64⌉)` words each ([`BitMatrix::width`]), back to back in
/// one `Vec<u64>`.
///
/// Row `v` holds `N(v)` laid out as [`NodeSet::words`]: bit `u % 64` of
/// word `u / 64`. Every buffer is reused across [`BitMatrix::load`]
/// calls, so a warm matrix never allocates.
#[derive(Clone, Debug, Default)]
pub struct BitMatrix {
    words: Vec<u64>,
    n: usize,
    width: usize,
}

impl BitMatrix {
    /// Overwrites the matrix with the adjacency of `g`.
    pub fn load(&mut self, g: &Graph) {
        self.n = g.num_nodes();
        // an empty graph still gets one word, so a width is never zero
        self.width = self.n.div_ceil(BITS).max(1);
        self.words.clear();
        for v in g.nodes() {
            self.words.extend_from_slice(g.neighbors(v).words());
        }
    }

    /// Adds an edge between every non-adjacent pair in `clique` (the
    /// saturation of Section 2.1): each member's row gains the whole
    /// clique, then loses its own bit.
    pub fn saturate(&mut self, clique: &NodeSet) {
        debug_assert_eq!(clique.capacity(), self.n);
        let (width, members) = (self.width, clique.words());
        for u in clique.iter() {
            let u = u as usize;
            let row = &mut self.words[u * width..(u + 1) * width];
            for (a, b) in row.iter_mut().zip(members) {
                *a |= b;
            }
            row[u / BITS] &= !(1 << (u % BITS));
        }
    }

    /// Number of nodes (rows).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Words per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `v`: the neighbourhood of `v`, [`BitMatrix::width`] words.
    #[inline]
    pub fn row(&self, v: Node) -> &[u64] {
        let v = v as usize;
        &self.words[v * self.width..(v + 1) * self.width]
    }

    /// Every row, back to back: row `v` starts at word `v * width`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}
