//! LB-Triang: minimal triangulation from an arbitrary ordering
//! (Berry, Bordat, Heggernes, Simonet, Villanger — reference [6] of the
//! paper).
//!
//! LB-Triang processes every vertex exactly once. Processing `v` on the
//! current filled graph `H` makes `v` *LB-simplicial*: for every connected
//! component `C` of `H \ N_H[v]`, the neighborhood `N_H(C)` (a minimal
//! separator contained in `N_H(v)`) is saturated. After all `n` steps the
//! filled graph is a minimal triangulation — for *any* processing order,
//! which is what lets the algorithm plug in dynamic heuristics such as
//! min-fill (the variant evaluated in Section 6.1.2 of the paper).

use crate::types::{Triangulation, Triangulator};
use mintri_graph::traversal::components_after_removing;
use mintri_graph::{Graph, Node, NodeSet};

/// Vertex-selection strategy for [`LbTriang`] (and for the non-minimal
/// elimination triangulator).
#[derive(Debug, Clone, Default)]
pub enum OrderingStrategy {
    /// At each step pick the unprocessed vertex whose neighborhood in the
    /// current graph needs the fewest fill edges (the paper's min-fill
    /// heuristic).
    #[default]
    MinFill,
    /// At each step pick the unprocessed vertex of minimum current degree.
    MinDegree,
    /// Process vertices in id order `0, 1, …, n-1`.
    Natural,
    /// Process vertices in the given order (must be a permutation of
    /// `0..n`).
    Given(Vec<Node>),
}

impl OrderingStrategy {
    /// Picks the next vertex among `unprocessed` for the current graph `h`.
    /// `step` is the number of already-processed vertices. Elimination
    /// scores the same way among its not-yet-eliminated vertices.
    pub(crate) fn next(&self, h: &Graph, unprocessed: &NodeSet, step: usize) -> Node {
        match self {
            OrderingStrategy::MinFill => unprocessed
                .iter()
                .min_by_key(|&v| (h.fill_cost(&h.neighbors(v).intersection(unprocessed)), v))
                .expect("unprocessed is nonempty"),
            OrderingStrategy::MinDegree => unprocessed
                .iter()
                .min_by_key(|&v| (h.neighbors(v).intersection_len(unprocessed), v))
                .expect("unprocessed is nonempty"),
            OrderingStrategy::Natural => unprocessed.first().expect("unprocessed is nonempty"),
            OrderingStrategy::Given(order) => order[step],
        }
    }
}

/// The LB-Triang minimal triangulation algorithm, parameterized by its
/// vertex-processing order.
#[derive(Debug, Clone, Default)]
pub struct LbTriang {
    /// How the processing order is chosen.
    pub strategy: OrderingStrategy,
}

impl LbTriang {
    /// LB-Triang with the min-fill heuristic (the configuration the paper
    /// benchmarks as `LB_TRIANG`).
    pub fn min_fill() -> Self {
        LbTriang {
            strategy: OrderingStrategy::MinFill,
        }
    }

    /// LB-Triang with a fixed processing order.
    pub fn with_order(order: Vec<Node>) -> Self {
        LbTriang {
            strategy: OrderingStrategy::Given(order),
        }
    }
}

impl Triangulator for LbTriang {
    fn triangulate(&self, g: &Graph) -> Triangulation {
        lb_triang(g, &self.strategy)
    }

    fn guarantees_minimal(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "LB_TRIANG"
    }
}

/// Runs LB-Triang on `g` with the given strategy.
pub fn lb_triang(g: &Graph, strategy: &OrderingStrategy) -> Triangulation {
    let n = g.num_nodes();
    if let OrderingStrategy::Given(order) = strategy {
        assert_eq!(order.len(), n, "given order must cover all nodes");
    }
    let mut h = g.clone();
    let mut unprocessed = NodeSet::full(n);
    let mut processing_order = Vec::with_capacity(n);

    for step in 0..n {
        let v = strategy.next(&h, &unprocessed, step);
        debug_assert!(
            unprocessed.contains(v),
            "strategy must pick unprocessed vertices"
        );
        unprocessed.remove(v);
        processing_order.push(v);
        // make v LB-simplicial on the current graph
        let closed = h.closed_neighborhood(v);
        for comp in components_after_removing(&h, &closed) {
            let sep = h.neighborhood_of_set(&comp);
            h.saturate(&sep);
        }
    }

    let fill = h.fill_edges_over(g);
    Triangulation {
        graph: h,
        fill,
        // LB-Triang's processing order is a minimal elimination ordering of
        // the result; it is a PEO of the filled graph.
        peo: Some(processing_order),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_chordal::{is_chordal, is_perfect_elimination_order};

    #[test]
    fn chordal_input_gets_no_fill() {
        for g in [Graph::path(6), Graph::complete(5)] {
            for strat in [
                OrderingStrategy::MinFill,
                OrderingStrategy::MinDegree,
                OrderingStrategy::Natural,
            ] {
                let t = lb_triang(&g, &strat);
                assert_eq!(t.fill_count(), 0, "{strat:?} must not fill a chordal graph");
            }
        }
    }

    #[test]
    fn cycles_get_minimal_fill_for_every_strategy() {
        for n in 4..9 {
            let g = Graph::cycle(n);
            for strat in [
                OrderingStrategy::MinFill,
                OrderingStrategy::MinDegree,
                OrderingStrategy::Natural,
            ] {
                let t = lb_triang(&g, &strat);
                assert!(is_chordal(&t.graph));
                assert_eq!(t.fill_count(), n - 3, "C{n} with {strat:?}");
            }
        }
    }

    #[test]
    fn any_given_order_yields_a_minimal_triangulation() {
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 2),
            ],
        );
        // a deliberately bad order
        let t = lb_triang(&g, &OrderingStrategy::Given(vec![6, 5, 4, 3, 2, 1, 0]));
        assert!(is_chordal(&t.graph));
        assert!(crate::is_minimal_triangulation(&g, &t.graph));
    }

    #[test]
    fn processing_order_is_a_peo_of_the_result() {
        let g = Graph::cycle(7);
        let t = lb_triang(&g, &OrderingStrategy::MinFill);
        assert!(is_perfect_elimination_order(
            &t.graph,
            t.peo.as_ref().unwrap()
        ));
    }

    #[test]
    fn different_orders_can_reach_different_triangulations() {
        let g = Graph::cycle(4);
        let a = lb_triang(&g, &OrderingStrategy::Given(vec![0, 1, 2, 3]));
        let b = lb_triang(&g, &OrderingStrategy::Given(vec![1, 0, 2, 3]));
        assert_ne!(a.graph, b.graph, "C4 has two minimal triangulations");
    }

    #[test]
    fn disconnected_input() {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        );
        let t = lb_triang(&g, &OrderingStrategy::MinFill);
        assert!(is_chordal(&t.graph));
        assert_eq!(t.fill_count(), 2);
    }
}
