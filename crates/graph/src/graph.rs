//! The undirected graph type used throughout the workspace.

use crate::{Node, NodeRow, NodeSet};
use std::fmt;

/// Number of bits per storage word.
const BITS: usize = u64::BITS as usize;

/// A simple undirected graph over nodes `0..n`, stored as its adjacency
/// bit matrix: `n` rows of [`Graph::width`] words, back to back in one
/// `Vec<u64>`.
///
/// Row `v` holds `N(v)` laid out as [`NodeSet::words`] (bit `u % 64` of
/// word `u / 64`), and [`Graph::neighbors`] lends it out as a [`NodeRow`]
/// with the whole read API of a [`NodeSet`]. The representation favors the
/// operations the enumeration stack is hot on: neighborhood unions,
/// saturation of node sets and induced-component searches are all
/// word-parallel, and a copy is one buffer — `clone_from` into a graph
/// that has held one at least as large allocates nothing. Edge insertion
/// and adjacency queries are `O(1)`.
#[derive(PartialEq, Eq, Default)]
pub struct Graph {
    words: Vec<u64>,
    n: usize,
    num_edges: usize,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            words: self.words.clone(),
            ..*self
        }
    }

    /// Reuses the word buffer, so repeatedly cloning graphs into the same
    /// one (the kernel's input, a saturation scratch) allocates nothing
    /// once it has held the largest of them.
    fn clone_from(&mut self, other: &Self) {
        self.words.clone_from(&other.words);
        self.n = other.n;
        self.num_edges = other.num_edges;
    }
}

impl Graph {
    /// Creates an edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            words: vec![0; n * row_width(n)],
            n,
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list. Self-loops are rejected.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n` or if `u == v`.
    pub fn from_edges(n: usize, edges: &[(Node, Node)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Builds the complete graph `K_n`.
    pub fn complete(n: usize) -> Self {
        let mut g = Graph::new(n);
        for u in 0..n as Node {
            for v in (u + 1)..n as Node {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Builds the cycle `C_n` (for `n >= 3`).
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "a cycle needs at least 3 nodes");
        let mut g = Graph::new(n);
        for u in 0..n {
            g.add_edge(u as Node, ((u + 1) % n) as Node);
        }
        g
    }

    /// Builds the path `P_n`.
    pub fn path(n: usize) -> Self {
        let mut g = Graph::new(n);
        for u in 1..n {
            g.add_edge((u - 1) as Node, u as Node);
        }
        g
    }

    /// Number of nodes (`|V(g)|`).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges (`|E(g)|`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Words per row: `max(1, ⌈n / 64⌉)`, so a width is never zero.
    #[inline]
    pub fn width(&self) -> usize {
        row_width(self.n)
    }

    /// Every row, back to back: row `v` starts at word `v * width`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        0..self.n as Node
    }

    /// The open neighborhood `N(v)`: row `v` of the matrix.
    #[inline]
    pub fn neighbors(&self, v: Node) -> NodeRow<'_> {
        let w = self.width();
        let v = v as usize;
        NodeRow {
            words: &self.words[v * w..(v + 1) * w],
            capacity: self.n as u32,
        }
    }

    /// Sets (`on`) or clears bit `v` of row `u`; returns whether it was set.
    #[inline]
    fn put(&mut self, u: Node, v: Node, on: bool) -> bool {
        let v = v as usize;
        debug_assert!(v < self.n);
        let at = u as usize * self.width() + v / BITS;
        let word = &mut self.words[at];
        let mask = 1u64 << (v % BITS);
        let was = *word & mask != 0;
        if on {
            *word |= mask;
        } else {
            *word &= !mask;
        }
        was
    }

    /// The closed neighborhood `N[v] = N(v) ∪ {v}`.
    pub fn closed_neighborhood(&self, v: Node) -> NodeSet {
        let mut s = self.neighbors(v).to_set();
        s.insert(v);
        s
    }

    /// The open neighborhood of a set: `N(U) = (⋃_{v∈U} N(v)) \ U`.
    pub fn neighborhood_of_set(&self, us: &NodeSet) -> NodeSet {
        let mut s = NodeSet::new(self.num_nodes());
        self.neighborhood_of_set_into(us, &mut s);
        s
    }

    /// [`Graph::neighborhood_of_set`] into a caller-supplied set, which is
    /// reset to this graph's capacity first. The BFS kernels call this once
    /// per frontier; with a warm buffer it never allocates.
    pub fn neighborhood_of_set_into(&self, us: &NodeSet, out: &mut NodeSet) {
        out.reset(self.num_nodes());
        for v in us {
            out.union_with(&self.neighbors(v));
        }
        out.difference_with(us);
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        self.neighbors(v).len()
    }

    /// Adjacency test.
    #[inline]
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        u != v && self.neighbors(u).contains(v)
    }

    /// Adds the edge `{u, v}`; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics on self-loops.
    pub fn add_edge(&mut self, u: Node, v: Node) -> bool {
        assert_ne!(u, v, "self-loops are not allowed");
        let fresh = !self.put(u, v, true);
        self.put(v, u, true);
        if fresh {
            self.num_edges += 1;
        }
        fresh
    }

    /// Removes the edge `{u, v}`; returns `true` if it was present.
    pub fn remove_edge(&mut self, u: Node, v: Node) -> bool {
        let present = self.put(u, v, false);
        self.put(v, u, false);
        if present {
            self.num_edges -= 1;
        }
        present
    }

    /// All edges as `(u, v)` pairs with `u < v`, in lexicographic order.
    pub fn edges(&self) -> Vec<(Node, Node)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for u in self.nodes() {
            out.extend(self.neighbors(u).iter().filter(|&v| u < v).map(|v| (u, v)));
        }
        out
    }

    /// Adds an edge between every non-adjacent pair in `clique` — the
    /// *saturation* operation of Section 2.1. Returns the number of edges
    /// added.
    ///
    /// Word-parallel: each member's row gains the whole clique at once,
    /// then loses its own bit; the edge count follows from the bits each
    /// row gains. Never allocates.
    pub fn saturate(&mut self, clique: &NodeSet) -> usize {
        debug_assert_eq!(clique.capacity(), self.n);
        let (w, members) = (self.width(), clique.words());
        let mut gained = 0;
        for u in clique.iter() {
            let u = u as usize;
            let row = &mut self.words[u * w..(u + 1) * w];
            for (a, &b) in row.iter_mut().zip(members) {
                gained += (b & !*a).count_ones() as usize;
                *a |= b;
            }
            // the self bit was never set, so it was counted as gained
            row[u / BITS] &= !(1 << (u % BITS));
            gained -= 1;
        }
        // every new edge grew both of its endpoints' rows
        let added = gained / 2;
        self.num_edges += added;
        added
    }

    /// [`Graph::saturate`] that also overwrites `members` with the
    /// clique's sorted node list. It stays only for the benchmark's
    /// phase replay, which calls it with this signature.
    pub fn saturate_with(&mut self, clique: &NodeSet, members: &mut Vec<Node>) -> usize {
        members.clear();
        members.extend(clique.iter());
        self.saturate(clique)
    }

    /// `true` iff `us` induces a clique.
    pub fn is_clique(&self, us: &NodeSet) -> bool {
        let mut missing = us.clone();
        for u in us {
            missing.remove(u);
            if !missing.is_subset(&self.neighbors(u)) {
                return false;
            }
        }
        true
    }

    /// Number of edges missing for `us` to be a clique (its *deficiency*).
    pub fn fill_cost(&self, us: &NodeSet) -> usize {
        let k = us.len();
        if k < 2 {
            return 0;
        }
        let mut present = 0;
        for u in us {
            present += self.neighbors(u).intersection_len(us);
        }
        // every present edge inside `us` is counted from both endpoints
        k * (k - 1) / 2 - present / 2
    }

    /// The subgraph induced by `keep`, with nodes renumbered to
    /// `0..keep.len()`. Returns the graph and the mapping `new -> old`.
    pub fn induced_subgraph(&self, keep: &NodeSet) -> (Graph, Vec<Node>) {
        let old_of: Vec<Node> = keep.to_vec();
        let mut new_of = vec![Node::MAX; self.num_nodes()];
        for (new, &old) in old_of.iter().enumerate() {
            new_of[old as usize] = new as Node;
        }
        let mut g = Graph::new(old_of.len());
        for (new_u, &old_u) in old_of.iter().enumerate() {
            for old_v in self.neighbors(old_u).iter().filter(|&v| keep.contains(v)) {
                let new_v = new_of[old_v as usize];
                if (new_u as Node) < new_v {
                    g.add_edge(new_u as Node, new_v);
                }
            }
        }
        (g, old_of)
    }

    /// `true` iff `other` has the same nodes and a superset of the edges.
    pub fn is_supergraph_of(&self, other: &Graph) -> bool {
        self.n == other.n
            && other
                .words
                .iter()
                .zip(&self.words)
                .all(|(small, big)| small & !big == 0)
    }

    /// The edges of `self` that are not in `base` (`E(self) \ E(base)`),
    /// each with `u < v`, in lexicographic order: the *fill edges* when
    /// `self` is a triangulation of `base`. Read off the rows'
    /// difference; when `self` is a supergraph of `base`, the list is
    /// allocated once at its exact length.
    ///
    /// # Panics
    /// Panics if the graphs have different node counts.
    pub fn fill_edges_over(&self, base: &Graph) -> Vec<(Node, Node)> {
        assert_eq!(self.n, base.n);
        let mut out = Vec::with_capacity(self.num_edges.saturating_sub(base.num_edges));
        let w = self.width();
        for u in 0..self.n {
            for i in u / BITS..w {
                let mut bits = self.words[u * w + i] & !base.words[u * w + i];
                if i == u / BITS {
                    // only the neighbours above `u`
                    bits &= !0 << (u % BITS) << 1;
                }
                while bits != 0 {
                    out.push((u as Node, (i * BITS) as Node + bits.trailing_zeros()));
                    bits &= bits - 1;
                }
            }
        }
        out
    }

    /// The full node set `V(g)` as a bitset.
    pub fn node_set(&self) -> NodeSet {
        NodeSet::full(self.num_nodes())
    }
}

/// Words per adjacency row of a graph on `n` nodes: `max(1, ⌈n / 64⌉)`.
fn row_width(n: usize) -> usize {
    n.div_ceil(BITS).max(1)
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, edges={:?})",
            self.num_nodes(),
            self.num_edges(),
            self.edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 1));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1).to_vec(), vec![0, 2]);
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    fn complete_cycle_path() {
        assert_eq!(Graph::complete(5).num_edges(), 10);
        assert_eq!(Graph::cycle(5).num_edges(), 5);
        assert_eq!(Graph::path(5).num_edges(), 4);
        let c = Graph::cycle(4);
        assert!(c.has_edge(3, 0));
    }

    #[test]
    fn neighborhood_of_set_excludes_the_set() {
        let g = Graph::cycle(6);
        let u = NodeSet::from_iter(6, [0, 1]);
        assert_eq!(g.neighborhood_of_set(&u).to_vec(), vec![2, 5]);
    }

    #[test]
    fn saturation_makes_cliques() {
        let mut g = Graph::cycle(5);
        let s = NodeSet::from_iter(5, [0, 2, 4]);
        assert!(!g.is_clique(&s));
        assert_eq!(g.fill_cost(&s), 2); // 0-2 and 2-4 are missing; 4-0 is an edge
        let added = g.saturate(&s);
        assert_eq!(added, 2);
        assert!(g.is_clique(&s));
        assert_eq!(g.fill_cost(&s), 0);
    }

    #[test]
    fn edge_list_is_sorted_and_complete() {
        let g = Graph::from_edges(4, &[(2, 3), (0, 1), (1, 3)]);
        assert_eq!(g.edges(), vec![(0, 1), (1, 3), (2, 3)]);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::cycle(5);
        let keep = NodeSet::from_iter(5, [0, 1, 3]);
        let (h, old_of) = g.induced_subgraph(&keep);
        assert_eq!(old_of, vec![0, 1, 3]);
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.edges(), vec![(0, 1)]); // only edge among {0,1,3} is 0-1
    }

    #[test]
    fn supergraph_and_fill_edges() {
        let g = Graph::cycle(4);
        let mut h = g.clone();
        h.add_edge(0, 2);
        assert!(h.is_supergraph_of(&g));
        assert!(!g.is_supergraph_of(&h));
        assert_eq!(h.fill_edges_over(&g), vec![(0, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn is_clique_on_small_sets() {
        let g = Graph::complete(4);
        assert!(g.is_clique(&NodeSet::from_iter(4, [0, 1, 2, 3])));
        assert!(g.is_clique(&NodeSet::from_iter(4, [2])));
        assert!(g.is_clique(&NodeSet::new(4)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Word-parallel saturation equals adding the clique's missing
        /// edges one pair at a time: same graph, same edge count, same
        /// "added" count. Sizes up to 150 cover multi-word rows.
        #[test]
        fn saturate_with_matches_pairwise_insertion(
            n in 1usize..150,
            edges in proptest::collection::vec((0u32..150, 0u32..150), 0..400),
            members in proptest::collection::vec(0u32..150, 0..40),
        ) {
            let n32 = n as Node;
            let edges: Vec<(Node, Node)> = edges
                .into_iter()
                .map(|(u, v)| (u % n32, v % n32))
                .filter(|(u, v)| u != v)
                .collect();
            let clique = NodeSet::from_iter(n, members.into_iter().map(|v| v % n32));
            let mut pairwise = Graph::from_edges(n, &edges);
            let mut word = pairwise.clone();
            let list = clique.to_vec();
            let mut expected_added = 0;
            for (i, &u) in list.iter().enumerate() {
                for &v in &list[i + 1..] {
                    expected_added += usize::from(pairwise.add_edge(u, v));
                }
            }
            let mut buf = vec![7];
            prop_assert_eq!(word.saturate_with(&clique, &mut buf), expected_added);
            prop_assert_eq!(buf, list);
            prop_assert_eq!(word.num_edges(), pairwise.num_edges());
            prop_assert_eq!(word, pairwise);
        }
    }
}
