//! Classic node-elimination triangulation (Ohtsuki et al. [35]): eliminate
//! vertices in some order, saturating the neighborhood of each eliminated
//! vertex among the not-yet-eliminated ones. Always produces a
//! triangulation whose elimination order is a PEO, but **not** a minimal
//! one in general — which is exactly what makes it a good exercise for the
//! minimal-triangulation sandwich step of `Extend`.

use crate::lbtriang::OrderingStrategy;
use crate::types::{Triangulation, Triangulator};
use mintri_graph::{Graph, NodeSet};

/// Triangulation by straight node elimination along an ordering strategy.
#[derive(Debug, Clone, Default)]
pub struct EliminationOrder {
    /// How the elimination order is chosen.
    pub strategy: OrderingStrategy,
}

impl EliminationOrder {
    /// Min-degree elimination — the classic cheap heuristic.
    pub fn min_degree() -> Self {
        EliminationOrder {
            strategy: OrderingStrategy::MinDegree,
        }
    }

    /// Min-fill elimination.
    pub fn min_fill() -> Self {
        EliminationOrder {
            strategy: OrderingStrategy::MinFill,
        }
    }
}

impl Triangulator for EliminationOrder {
    fn triangulate(&self, g: &Graph) -> Triangulation {
        eliminate(g, &self.strategy)
    }

    // deliberately NOT guaranteeing minimality
    fn name(&self) -> &'static str {
        "ELIMINATION"
    }
}

/// Eliminates vertices of `g` along `strategy`, saturating each eliminated
/// vertex's remaining neighborhood.
pub fn eliminate(g: &Graph, strategy: &OrderingStrategy) -> Triangulation {
    let n = g.num_nodes();
    if let OrderingStrategy::Given(order) = strategy {
        assert_eq!(order.len(), n, "given order must cover all nodes");
    }
    let mut h = g.clone();
    let mut remaining = NodeSet::full(n);
    let mut order = Vec::with_capacity(n);

    for step in 0..n {
        let v = strategy.next(&h, &remaining, step);
        debug_assert!(remaining.contains(v));
        remaining.remove(v);
        order.push(v);
        let nb = h.neighbors(v).intersection(&remaining);
        h.saturate(&nb);
    }

    let fill = h.fill_edges_over(g);
    Triangulation {
        graph: h,
        fill,
        peo: Some(order),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_chordal::{is_chordal, is_perfect_elimination_order};

    #[test]
    fn elimination_always_triangulates() {
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
        for strat in [
            OrderingStrategy::MinFill,
            OrderingStrategy::MinDegree,
            OrderingStrategy::Natural,
            OrderingStrategy::Given(vec![3, 1, 4, 0, 6, 2, 5]),
        ] {
            let t = eliminate(&g, &strat);
            assert!(is_chordal(&t.graph), "{strat:?}");
            assert!(t.graph.is_supergraph_of(&g));
            assert!(is_perfect_elimination_order(
                &t.graph,
                t.peo.as_ref().unwrap()
            ));
        }
    }

    #[test]
    fn bad_orders_produce_non_minimal_fill() {
        // Eliminating the hub of a star saturates all leaves: grossly
        // non-minimal (the star is already chordal).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let t = eliminate(&g, &OrderingStrategy::Given(vec![0, 1, 2, 3, 4]));
        assert!(t.fill_count() > 0);
        assert!(!crate::is_minimal_triangulation(&g, &t.graph));
        // whereas min-degree eliminates leaves first and adds nothing
        let t2 = eliminate(&g, &OrderingStrategy::MinDegree);
        assert_eq!(t2.fill_count(), 0);
    }

    #[test]
    fn min_fill_on_cycle_is_minimal() {
        let g = Graph::cycle(6);
        let t = eliminate(&g, &OrderingStrategy::MinFill);
        assert_eq!(t.fill_count(), 3);
        assert!(crate::is_minimal_triangulation(&g, &t.graph));
    }
}
