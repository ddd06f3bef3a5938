//! The crossing relation `S ♮ T` between minimal separators (Section 2.2)
//! and a direct minimal-separator test.

use mintri_graph::traversal::{components_after_removing, count_components_meeting};
use mintri_graph::{Graph, NodeSet};

/// `true` iff `s` crosses `t` in `g` (`S ♮ T`): there are nodes `u, v ∈ T`
/// such that `S` is a `(u, v)`-separator — equivalently, `T \ S` meets at
/// least two connected components of `g \ S`.
///
/// The relation is symmetric for minimal separators (Parra–Scheffler /
/// Kloks–Kratsch–Spinrad), which the property tests verify.
pub fn crossing(g: &Graph, s: &NodeSet, t: &NodeSet) -> bool {
    count_components_meeting(g, s, t) >= 2
}

/// `true` iff `s` and `t` are parallel (non-crossing).
pub fn are_parallel(g: &Graph, s: &NodeSet, t: &NodeSet) -> bool {
    !crossing(g, s, t)
}

/// Decides whether `s` is a minimal separator of `g`, using the
/// full-component characterization: `s` is a minimal separator iff `g \ s`
/// has at least two components `C` with `N(C) = s`.
pub fn is_minimal_separator(g: &Graph, s: &NodeSet) -> bool {
    let mut full = 0;
    for comp in components_after_removing(g, s) {
        if g.neighborhood_of_set(&comp) == *s {
            full += 1;
            if full == 2 {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_graph::Graph;

    #[test]
    fn crossing_pairs_in_c4() {
        let g = Graph::cycle(4);
        let s = NodeSet::from_iter(4, [0, 2]);
        let t = NodeSet::from_iter(4, [1, 3]);
        assert!(crossing(&g, &s, &t));
        assert!(crossing(&g, &t, &s));
        assert!(!are_parallel(&g, &s, &t));
    }

    #[test]
    fn parallel_pairs_in_c6() {
        let g = Graph::cycle(6);
        // {0,2} and {0,4} are parallel: 2 and 4 both avoid... check: g\{0,2}
        // has components {1} and {3,4,5}; t={0,4}\s = {4} meets one.
        let s = NodeSet::from_iter(6, [0, 2]);
        let t = NodeSet::from_iter(6, [0, 4]);
        assert!(are_parallel(&g, &s, &t));
        assert!(are_parallel(&g, &t, &s));
        // but {0,3} and {1,4} cross
        let a = NodeSet::from_iter(6, [0, 3]);
        let b = NodeSet::from_iter(6, [1, 4]);
        assert!(crossing(&g, &a, &b));
        assert!(crossing(&g, &b, &a));
    }

    #[test]
    fn separator_never_crosses_itself() {
        let g = Graph::cycle(5);
        let s = NodeSet::from_iter(5, [0, 2]);
        assert!(!crossing(&g, &s, &s));
    }

    #[test]
    fn minimal_separator_test() {
        let g = Graph::path(5);
        assert!(is_minimal_separator(&g, &NodeSet::from_iter(5, [2])));
        // {1,2} separates 0 from 3 but is not minimal ({1} and {2} both work
        // for the relevant pairs; {1,2} has only one full component on the right)
        assert!(!is_minimal_separator(&g, &NodeSet::from_iter(5, [1, 2])));
        assert!(!is_minimal_separator(&g, &NodeSet::from_iter(5, [0])));
        assert!(!is_minimal_separator(&g, &NodeSet::new(5)));
    }

    #[test]
    fn empty_set_is_minimal_separator_of_disconnected_graph_by_full_components() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        // two components, both with empty neighborhoods -> two full components
        assert!(is_minimal_separator(&g, &NodeSet::new(4)));
    }
}
