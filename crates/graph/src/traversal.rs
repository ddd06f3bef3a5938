//! Graph traversal: connected components and reachability, restricted to
//! arbitrary node subsets.
//!
//! The separator machinery constantly asks for the connected components of
//! `g \ U` (Section 2.2's `C(U)`), so everything here takes an explicit
//! *allowed* set rather than mutating the graph.

use crate::{Graph, Node, NodeSet};

/// Connected components of the subgraph induced by `allowed`.
///
/// Each returned [`NodeSet`] is one component; components are ordered by
/// their smallest node, and the union of all components is `allowed`.
pub fn components_within(g: &Graph, allowed: &NodeSet) -> Vec<NodeSet> {
    let mut remaining = allowed.clone();
    let mut out = Vec::new();
    while let Some(start) = remaining.first() {
        let comp = component_of(g, start, allowed);
        remaining.difference_with(&comp);
        out.push(comp);
    }
    out
}

/// Connected components of `g \ removed` (the paper's `C(U)` for `U =
/// removed`).
pub fn components_after_removing(g: &Graph, removed: &NodeSet) -> Vec<NodeSet> {
    let mut allowed = g.node_set();
    allowed.difference_with(removed);
    components_within(g, &allowed)
}

/// The connected component of `start` inside the subgraph induced by
/// `allowed`. `start` must be in `allowed`.
pub fn component_of(g: &Graph, start: Node, allowed: &NodeSet) -> NodeSet {
    debug_assert!(allowed.contains(start));
    let n = g.num_nodes();
    let mut comp = NodeSet::new(n);
    comp.insert(start);
    let mut frontier = NodeSet::new(n);
    frontier.insert(start);
    // Breadth-first expansion a whole frontier at a time: the next frontier
    // is N(frontier) ∩ allowed \ comp, all word-parallel.
    while !frontier.is_empty() {
        let mut next = g.neighborhood_of_set(&frontier);
        next.intersect_with(allowed);
        next.difference_with(&comp);
        comp.union_with(&next);
        frontier = next;
    }
    comp
}

/// `true` iff the subgraph induced by `allowed` is connected (vacuously true
/// when `allowed` is empty).
pub fn is_connected_within(g: &Graph, allowed: &NodeSet) -> bool {
    match allowed.first() {
        None => true,
        Some(start) => component_of(g, start, allowed) == *allowed,
    }
}

/// `true` iff `g` is connected (vacuously true for the empty graph).
pub fn is_connected(g: &Graph) -> bool {
    is_connected_within(g, &g.node_set())
}

/// `true` iff `sep` is a `(u, v)`-separator: `u` and `v` lie in distinct
/// components of `g \ sep`. Nodes inside `sep` separate nothing.
pub fn separates(g: &Graph, sep: &NodeSet, u: Node, v: Node) -> bool {
    if sep.contains(u) || sep.contains(v) {
        return false;
    }
    let mut allowed = g.node_set();
    allowed.difference_with(sep);
    !component_of(g, u, &allowed).contains(v)
}

/// Number of distinct components of `g \ sep` that `targets \ sep` meets.
///
/// This is the primitive behind the crossing test: `S` crosses `T` iff
/// `T` meets at least two components of `g \ S`.
pub fn count_components_meeting(g: &Graph, sep: &NodeSet, targets: &NodeSet) -> usize {
    let mut allowed = g.node_set();
    allowed.difference_with(sep);
    let mut pending = targets.difference(sep);
    let mut count = 0;
    while let Some(start) = pending.first() {
        let comp = component_of(g, start, &allowed);
        pending.difference_with(&comp);
        count += 1;
    }
    count
}

/// Component labels of `g \ removed`: `0` on `removed`, then `1, 2, …`
/// per component, in the order of [`components_after_removing`].
///
/// With `S`'s labels at hand, the number of components of `g \ S` that a
/// set meets is a scan over that set's nodes — no further search.
pub fn component_labels(g: &Graph, removed: &NodeSet) -> Vec<u32> {
    let mut labels = vec![0; g.num_nodes()];
    for (label, comp) in (1..).zip(components_after_removing(g, removed)) {
        for v in comp.iter() {
            labels[v as usize] = label;
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> Graph {
        // 0-1-2 triangle, 3-4-5 triangle, no connection
        Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = two_triangles();
        let comps = components_within(&g, &g.node_set());
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].to_vec(), vec![0, 1, 2]);
        assert_eq!(comps[1].to_vec(), vec![3, 4, 5]);
    }

    #[test]
    fn components_after_removal() {
        let g = Graph::path(5); // 0-1-2-3-4
        let removed = NodeSet::from_iter(5, [2]);
        let comps = components_after_removing(&g, &removed);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].to_vec(), vec![0, 1]);
        assert_eq!(comps[1].to_vec(), vec![3, 4]);
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&Graph::cycle(5)));
        assert!(!is_connected(&two_triangles()));
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(!is_connected(&Graph::new(2)));
    }

    #[test]
    fn component_of_respects_allowed() {
        let g = Graph::cycle(6);
        let allowed = NodeSet::from_iter(6, [0, 1, 2, 4]);
        let comp = component_of(&g, 0, &allowed);
        assert_eq!(comp.to_vec(), vec![0, 1, 2]); // 4 is cut off (3 and 5 not allowed)
    }

    #[test]
    fn separator_detection() {
        let g = Graph::path(5);
        let mid = NodeSet::from_iter(5, [2]);
        assert!(separates(&g, &mid, 0, 4));
        assert!(separates(&g, &mid, 1, 3));
        assert!(!separates(&g, &mid, 0, 1));
        // a node inside the separator is not separated from anything
        assert!(!separates(&g, &mid, 2, 4));
        let end = NodeSet::from_iter(5, [4]);
        assert!(!separates(&g, &end, 0, 3));
    }

    #[test]
    fn counting_components_meeting_targets() {
        let g = Graph::cycle(6);
        let sep = NodeSet::from_iter(6, [0, 3]);
        // removing {0,3} splits C6 into {1,2} and {4,5}
        let t1 = NodeSet::from_iter(6, [1, 4]);
        assert_eq!(count_components_meeting(&g, &sep, &t1), 2);
        let t2 = NodeSet::from_iter(6, [1, 2]);
        assert_eq!(count_components_meeting(&g, &sep, &t2), 1);
        // targets inside the separator do not count
        let t3 = NodeSet::from_iter(6, [0, 3]);
        assert_eq!(count_components_meeting(&g, &sep, &t3), 0);
    }

    #[test]
    fn labels_number_the_components() {
        let g = Graph::cycle(6);
        let sep = NodeSet::from_iter(6, [0, 3]);
        // removing {0,3} splits C6 into {1,2} and {4,5}
        assert_eq!(component_labels(&g, &sep), vec![0, 1, 1, 0, 2, 2]);
        assert_eq!(
            component_labels(&Graph::new(2), &NodeSet::new(2)),
            vec![1, 2]
        );
    }

    #[test]
    fn vacuous_cases() {
        let g = Graph::new(3);
        assert!(is_connected_within(&g, &NodeSet::new(3)));
        assert_eq!(components_within(&g, &NodeSet::new(3)).len(), 0);
    }
}
