//! Polynomial-delay enumeration of all minimal separators, after Berry,
//! Bordat and Cogis, in the variation of Figure 2 of the paper.
//!
//! The algorithm views minimal separators as neighborhoods of connected
//! components: it seeds the queue with `N(C)` for every component
//! `C ∈ C({v} ∪ N(v))` over all vertices `v`, and expands a popped
//! separator `S` by every `x ∈ S` into the neighborhoods of the components
//! of `g \ (S ∪ N(x))`. Every generated candidate is a genuine minimal
//! separator, and the process reaches all of them. The delay between two
//! consecutive results is `O(|V(g)|^3)`.
//!
//! Empty candidates (which arise only for disconnected inputs, where a whole
//! other component has an empty neighborhood) are suppressed: the iterator
//! yields the nonempty minimal separators, and disconnected graphs are
//! handled by per-component decomposition one level up (see
//! `mintri-core`).

use mintri_graph::traversal::components_after_removing;
use mintri_graph::{FxHashSet, Graph, NodeSet};
use std::collections::VecDeque;

/// The resumable state of the enumeration: the queue `Q` of generated but
/// unprocessed separators plus the deduplication set `Q ∪ P`.
///
/// Decoupling the state from the graph reference lets the `MSGraph` SGR use
/// it as its node cursor (the `A_V^ms` access algorithm), while
/// [`MinimalSeparatorIter`] packages both for standalone use.
#[derive(Debug, Clone, Default)]
pub struct MinSepState {
    /// Generated but not yet processed (the `Q` of Figure 2).
    queue: VecDeque<NodeSet>,
    /// Everything ever inserted into the queue (`Q ∪ P`), for deduplication.
    seen: FxHashSet<NodeSet>,
    seeded: bool,
}

impl MinSepState {
    /// Creates an unseeded state; the first [`MinSepState::next`] call seeds
    /// it from `g` (`O(|V| · (|V| + |E|))`).
    pub fn new() -> Self {
        Self::default()
    }

    fn push_candidate(&mut self, sep: NodeSet) {
        if !sep.is_empty() && !self.seen.contains(&sep) {
            self.seen.insert(sep.clone());
            self.queue.push_back(sep);
        }
    }

    /// Number of separators generated so far (including ones not yet
    /// yielded).
    pub fn generated(&self) -> usize {
        self.seen.len()
    }

    /// Produces the next minimal separator of `g`, or `None` when all have
    /// been enumerated. The same graph must be passed on every call.
    pub fn next(&mut self, g: &Graph) -> Option<NodeSet> {
        if !self.seeded {
            self.seeded = true;
            for v in g.nodes() {
                let closed = g.closed_neighborhood(v);
                for comp in components_after_removing(g, &closed) {
                    self.push_candidate(g.neighborhood_of_set(&comp));
                }
            }
        }
        let s = self.queue.pop_front()?;
        // expand S by every x ∈ S (lines 8–11 of Figure 2)
        for x in s.iter() {
            let mut removed = s.union(&g.neighbors(x));
            removed.insert(x);
            for comp in components_after_removing(g, &removed) {
                self.push_candidate(g.neighborhood_of_set(&comp));
            }
        }
        Some(s)
    }
}

/// Lazy polynomial-delay iterator over `MinSep(g)`.
pub struct MinimalSeparatorIter<'g> {
    g: &'g Graph,
    state: MinSepState,
}

impl<'g> MinimalSeparatorIter<'g> {
    /// Starts the enumeration.
    pub fn new(g: &'g Graph) -> Self {
        MinimalSeparatorIter {
            g,
            state: MinSepState::new(),
        }
    }

    /// Number of separators generated so far (including ones not yet
    /// yielded).
    pub fn generated(&self) -> usize {
        self.state.generated()
    }
}

impl Iterator for MinimalSeparatorIter<'_> {
    type Item = NodeSet;

    fn next(&mut self) -> Option<NodeSet> {
        self.state.next(self.g)
    }
}

/// Collects all (nonempty) minimal separators of `g`. Convenience wrapper
/// over [`MinimalSeparatorIter`]; exponential output on worst-case inputs.
pub fn all_minimal_separators(g: &Graph) -> Vec<NodeSet> {
    let mut out: Vec<NodeSet> = MinimalSeparatorIter::new(g).collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_graph::Graph;

    fn as_vecs(seps: &[NodeSet]) -> Vec<Vec<u32>> {
        seps.iter().map(|s| s.to_vec()).collect()
    }

    #[test]
    fn path_separators_are_internal_nodes() {
        let g = Graph::path(5);
        let seps = all_minimal_separators(&g);
        assert_eq!(as_vecs(&seps), vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn cycle_separators_are_nonadjacent_pairs() {
        let g = Graph::cycle(5);
        let seps = all_minimal_separators(&g);
        // C5: every pair of non-adjacent nodes is a minimal separator -> 5 of them
        assert_eq!(seps.len(), 5);
        assert!(seps.iter().all(|s| s.len() == 2));
        for s in &seps {
            let v = s.to_vec();
            assert!(!g.has_edge(v[0], v[1]));
        }
    }

    #[test]
    fn complete_graph_has_none() {
        assert!(all_minimal_separators(&Graph::complete(5)).is_empty());
        assert!(all_minimal_separators(&Graph::new(1)).is_empty());
        assert!(all_minimal_separators(&Graph::new(0)).is_empty());
    }

    #[test]
    fn star_separator_is_the_center() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let seps = all_minimal_separators(&g);
        assert_eq!(as_vecs(&seps), vec![vec![0]]);
    }

    #[test]
    fn disconnected_graph_yields_per_component_separators() {
        // P3 + P3: minimal separators within components are the middles
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let seps = all_minimal_separators(&g);
        assert_eq!(as_vecs(&seps), vec![vec![1], vec![4]]);
    }

    #[test]
    fn k23_has_three_pair_separators_plus_sides() {
        // K_{2,3}: sides {0,1} and {2,3,4}
        let g = Graph::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]);
        let seps = all_minimal_separators(&g);
        // {0,1} separates any two of {2,3,4}; each pair {2,3},{2,4},{3,4}
        // separates 0 from... no wait: removing {2,3} leaves 0-4-1 connected.
        // The minimal separators of K_{2,3} are {0,1} and {2,3,4}... removing
        // {2,3,4} separates 0 from 1. Check exact set:
        let vecs = as_vecs(&seps);
        assert!(vecs.contains(&vec![0, 1]));
        assert!(vecs.contains(&vec![2, 3, 4]));
        assert_eq!(vecs.len(), 2);
    }

    #[test]
    fn chordal_graph_matches_clique_tree_extraction() {
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (1, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
            ],
        );
        let mut from_tree = mintri_chordal::minimal_separators_of_chordal(&g);
        from_tree.sort();
        assert_eq!(all_minimal_separators(&g), from_tree);
    }

    #[test]
    fn iterator_is_lazy_and_deduplicated() {
        let g = Graph::cycle(6);
        let mut it = MinimalSeparatorIter::new(&g);
        let first = it.next().unwrap();
        assert!(!first.is_empty());
        let rest: Vec<_> = it.collect();
        let mut all: Vec<_> = std::iter::once(first).chain(rest).collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before, "no duplicates may be yielded");
        // C6: separators are the 9 non-adjacent pairs... (6 "short" + 3 "diameter")
        assert_eq!(all.len(), 9);
    }
}
