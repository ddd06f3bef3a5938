//! The undirected graph type used throughout the workspace.

use crate::{Node, NodeSet};
use std::fmt;

/// A simple undirected graph over nodes `0..n`, stored as one adjacency
/// bitset per node.
///
/// The representation favors the operations the enumeration stack is hot on:
/// neighborhood unions, saturation of node sets, and induced-component
/// searches — all word-parallel on [`NodeSet`]s. Edge insertion is `O(1)`;
/// adjacency queries are `O(1)`.
#[derive(PartialEq, Eq, Default)]
pub struct Graph {
    adj: Vec<NodeSet>,
    num_edges: usize,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            adj: self.adj.clone(),
            num_edges: self.num_edges,
        }
    }

    /// Element-wise `clone_from` over the adjacency rows, so repeatedly
    /// cloning same-sized graphs into the same buffer (the saturation
    /// scratch) allocates nothing.
    fn clone_from(&mut self, other: &Self) {
        self.adj.clone_from(&other.adj);
        self.num_edges = other.num_edges;
    }
}

impl Graph {
    /// Creates an edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: (0..n).map(|_| NodeSet::new(n)).collect(),
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
        self.adj.len()
    }

    /// Number of edges (`|E(g)|`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        0..self.adj.len() as Node
    }

    /// The open neighborhood `N(v)` as a bitset.
    #[inline]
    pub fn neighbors(&self, v: Node) -> &NodeSet {
        &self.adj[v as usize]
    }

    /// The closed neighborhood `N[v] = N(v) ∪ {v}`.
    pub fn closed_neighborhood(&self, v: Node) -> NodeSet {
        let mut s = self.adj[v as usize].clone();
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
            out.union_with(&self.adj[v as usize]);
        }
        out.difference_with(us);
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        self.adj[v as usize].len()
    }

    /// Adjacency test.
    #[inline]
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        u != v && self.adj[u as usize].contains(v)
    }

    /// Adds the edge `{u, v}`; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics on self-loops.
    pub fn add_edge(&mut self, u: Node, v: Node) -> bool {
        assert_ne!(u, v, "self-loops are not allowed");
        let fresh = self.adj[u as usize].insert(v);
        self.adj[v as usize].insert(u);
        if fresh {
            self.num_edges += 1;
        }
        fresh
    }

    /// Removes the edge `{u, v}`; returns `true` if it was present.
    pub fn remove_edge(&mut self, u: Node, v: Node) -> bool {
        let present = self.adj[u as usize].remove(v);
        self.adj[v as usize].remove(u);
        if present {
            self.num_edges -= 1;
        }
        present
    }

    /// All edges as `(u, v)` pairs with `u < v`, in lexicographic order.
    pub fn edges(&self) -> Vec<(Node, Node)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for u in self.nodes() {
            for v in self.adj[u as usize].iter() {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Adds an edge between every non-adjacent pair in `clique` — the
    /// *saturation* operation of Section 2.1. Returns the number of edges
    /// added.
    pub fn saturate(&mut self, clique: &NodeSet) -> usize {
        let mut members = Vec::new();
        self.saturate_with(clique, &mut members)
    }

    /// [`Graph::saturate`] with a caller-supplied member buffer, so the
    /// saturation loop of `Extend` allocates nothing once the buffer is
    /// warm. `members` is overwritten with the clique's sorted node list.
    ///
    /// Word-parallel: each member's row gains the whole clique at once
    /// (`adj[u] |= clique`, then the self bit is cleared), and the edge
    /// count follows from the rows' popcount growth.
    pub fn saturate_with(&mut self, clique: &NodeSet, members: &mut Vec<Node>) -> usize {
        members.clear();
        members.extend(clique.iter());
        let mut gained = 0;
        for &u in members.iter() {
            let row = &mut self.adj[u as usize];
            let before = row.len();
            row.union_with(clique);
            row.remove(u);
            gained += row.len() - before;
        }
        // every new edge grew both of its endpoints' rows
        let added = gained / 2;
        self.num_edges += added;
        added
    }

    /// `true` iff `us` induces a clique.
    pub fn is_clique(&self, us: &NodeSet) -> bool {
        let mut missing = us.clone();
        for u in us {
            missing.remove(u);
            if !missing.is_subset(&self.adj[u as usize]) {
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
            present += self.adj[u as usize].intersection_len(us);
        }
        // every present edge inside `us` is counted from both endpoints
        k * (k - 1) / 2 - present / 2
    }

    /// The subgraph induced by `us`, *keeping node ids* (nodes outside `us`
    /// become isolated). Useful when set-compatibility with the parent graph
    /// matters more than compactness.
    pub fn induced_subgraph_same_ids(&self, us: &NodeSet) -> Graph {
        let n = self.num_nodes();
        let mut g = Graph::new(n);
        for u in us {
            let mut row = self.adj[u as usize].clone();
            row.intersect_with(us);
            g.num_edges += row.len();
            g.adj[u as usize] = row;
        }
        g.num_edges /= 2;
        g
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
            for old_v in self.adj[old_u as usize].intersection(keep).iter() {
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
        self.num_nodes() == other.num_nodes()
            && other
                .adj
                .iter()
                .zip(&self.adj)
                .all(|(small, big)| small.is_subset(big))
    }

    /// The edges of `self` that are not in `base` (`E(self) \ E(base)`), i.e.
    /// the *fill edges* when `self` is a triangulation of `base`.
    pub fn fill_edges_over(&self, base: &Graph) -> Vec<(Node, Node)> {
        assert_eq!(self.num_nodes(), base.num_nodes());
        self.edges()
            .into_iter()
            .filter(|&(u, v)| !base.has_edge(u, v))
            .collect()
    }

    /// The full node set `V(g)` as a bitset.
    pub fn node_set(&self) -> NodeSet {
        NodeSet::full(self.num_nodes())
    }
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
    fn induced_subgraph_same_ids_isolates_rest() {
        let g = Graph::cycle(5);
        let keep = NodeSet::from_iter(5, [0, 1, 2]);
        let h = g.induced_subgraph_same_ids(&keep);
        assert_eq!(h.num_nodes(), 5);
        assert_eq!(h.edges(), vec![(0, 1), (1, 2)]);
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
        /// "added" count. `BitMatrix` saturation gives the same rows.
        /// Sizes up to 150 cover multi-word rows.
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
            let mut matrix = crate::BitMatrix::default();
            matrix.load(&word);
            matrix.saturate(&clique);
            let mut buf = vec![7];
            prop_assert_eq!(word.saturate_with(&clique, &mut buf), expected_added);
            for v in word.nodes() {
                prop_assert_eq!(matrix.row(v), word.neighbors(v).words());
            }
            prop_assert_eq!(buf, list);
            prop_assert_eq!(word.num_edges(), pairwise.num_edges());
            prop_assert_eq!(word, pairwise);
        }
    }
}
