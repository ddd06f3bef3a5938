//! Chordality recognition via perfect elimination orders.
//!
//! A graph is chordal iff it admits a *perfect elimination order* (PEO): an
//! ordering `v_1, …, v_n` such that for every `v_i`, the neighbors of `v_i`
//! that come later in the order form a clique. Maximum Cardinality Search
//! (MCS) and Lex-BFS both produce a PEO whenever one exists
//! (Tarjan–Yannakakis [41] in the paper's bibliography); verifying a
//! candidate order then decides chordality in near-linear time.

use mintri_graph::{Graph, Node, NodeSet};

/// Computes a Maximum Cardinality Search order of `g`.
///
/// The returned vector is in *elimination order*: index 0 is eliminated
/// first. MCS itself visits vertices in the reverse of this order, always
/// choosing an unvisited vertex with the maximum number of visited
/// neighbors. If `g` is chordal, the result is a perfect elimination order.
pub fn mcs_order(g: &Graph) -> Vec<Node> {
    let n = g.num_nodes();
    let mut weight = vec![0usize; n];
    let mut visited = NodeSet::new(n);
    // buckets[w] = vertices with current weight w (lazily cleaned)
    let mut buckets: Vec<Vec<Node>> = vec![Vec::new(); n + 1];
    buckets[0].extend(0..n as Node);
    let mut max_weight = 0usize;
    let mut visit_order = Vec::with_capacity(n);

    for _ in 0..n {
        // find the highest-weight unvisited vertex
        let v = loop {
            match buckets[max_weight].pop() {
                Some(v) if !visited.contains(v) && weight[v as usize] == max_weight => break v,
                Some(_) => continue, // stale entry
                None => {
                    debug_assert!(max_weight > 0, "ran out of candidates");
                    max_weight -= 1;
                }
            }
        };
        visited.insert(v);
        visit_order.push(v);
        for u in g.neighbors(v).iter() {
            if !visited.contains(u) {
                let w = &mut weight[u as usize];
                *w += 1;
                buckets[*w].push(u);
                max_weight = max_weight.max(*w);
            }
        }
    }

    visit_order.reverse();
    visit_order
}

/// Verifies that `order` (elimination order, index 0 eliminated first) is a
/// perfect elimination order of `g`.
///
/// Uses the classic test: for each vertex `v` with later neighbors `RN(v)`,
/// let `p` be the earliest-eliminated member of `RN(v)`; it suffices that
/// `RN(v) \ {p} ⊆ N(p)`.
pub fn is_perfect_elimination_order(g: &Graph, order: &[Node]) -> bool {
    let n = g.num_nodes();
    assert_eq!(order.len(), n, "order must cover all nodes");
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        assert!(pos[v as usize] == usize::MAX, "order must not repeat nodes");
        pos[v as usize] = i;
    }

    let mut remaining = NodeSet::full(n);
    for &v in order {
        remaining.remove(v);
        let rn = g.neighbors(v).intersection(&remaining);
        let Some(p) = rn.iter().min_by_key(|&u| pos[u as usize]) else {
            continue;
        };
        let mut rest = rn;
        rest.remove(p);
        if !rest.is_subset(&g.neighbors(p)) {
            return false;
        }
    }
    true
}

/// Decides whether `g` is chordal (every cycle of length > 3 has a chord).
pub fn is_chordal(g: &Graph) -> bool {
    is_perfect_elimination_order(g, &mcs_order(g))
}

/// Returns a perfect elimination order of `g` if it is chordal.
pub fn perfect_elimination_order(g: &Graph) -> Option<Vec<Node>> {
    let order = mcs_order(g);
    is_perfect_elimination_order(g, &order).then_some(order)
}

/// Computes a Lex-BFS order of `g` (elimination order, index 0 first).
///
/// Lex-BFS is an independent PEO-producing search; it is used to
/// cross-validate [`mcs_order`] and as an alternative seed ordering for
/// triangulation heuristics. Implemented by partition refinement over a
/// list of buckets.
pub fn lexbfs_order(g: &Graph) -> Vec<Node> {
    let n = g.num_nodes();
    // sequence of buckets; the visit order picks from the front bucket
    let mut buckets: Vec<Vec<Node>> = vec![(0..n as Node).collect()];
    let mut visited = NodeSet::new(n);
    let mut visit_order = Vec::with_capacity(n);

    while let Some(front) = buckets.first_mut() {
        let Some(v) = front.pop() else {
            buckets.remove(0);
            continue;
        };
        if visited.contains(v) {
            continue;
        }
        visited.insert(v);
        visit_order.push(v);
        // split every bucket into (neighbors of v, non-neighbors), neighbors first
        let nv = g.neighbors(v);
        let mut refined = Vec::with_capacity(buckets.len() * 2);
        for bucket in buckets.drain(..) {
            let (hit, miss): (Vec<Node>, Vec<Node>) = bucket
                .into_iter()
                .filter(|&u| !visited.contains(u))
                .partition(|&u| nv.contains(u));
            if !hit.is_empty() {
                refined.push(hit);
            }
            if !miss.is_empty() {
                refined.push(miss);
            }
        }
        buckets = refined;
    }

    visit_order.reverse();
    visit_order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trees_and_complete_graphs_are_chordal() {
        assert!(is_chordal(&Graph::path(7)));
        assert!(is_chordal(&Graph::complete(6)));
        assert!(is_chordal(&Graph::new(0)));
        assert!(is_chordal(&Graph::new(1)));
        assert!(is_chordal(&Graph::cycle(3)));
    }

    #[test]
    fn long_cycles_are_not_chordal() {
        for n in 4..9 {
            assert!(!is_chordal(&Graph::cycle(n)), "C{n} must not be chordal");
        }
    }

    #[test]
    fn chorded_cycle_is_chordal() {
        let mut g = Graph::cycle(5);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        assert!(is_chordal(&g));
    }

    #[test]
    fn grid_is_not_chordal() {
        // 2x2 grid = C4
        let g = Graph::from_edges(4, &[(0, 1), (2, 3), (0, 2), (1, 3)]);
        assert!(!is_chordal(&g));
    }

    #[test]
    fn peo_verification_rejects_bad_orders() {
        // P3: 0-1-2. Eliminating 1 first demands {0,2} be a clique -> reject.
        let g = Graph::path(3);
        assert!(!is_perfect_elimination_order(&g, &[1, 0, 2]));
        assert!(is_perfect_elimination_order(&g, &[0, 1, 2]));
        assert!(is_perfect_elimination_order(&g, &[0, 2, 1]));
    }

    #[test]
    fn mcs_order_is_peo_on_chordal_inputs() {
        let mut g = Graph::complete(4);
        // glue a pendant triangle
        let mut h = Graph::new(6);
        for (u, v) in g.edges() {
            h.add_edge(u, v);
        }
        h.add_edge(3, 4);
        h.add_edge(3, 5);
        h.add_edge(4, 5);
        g = h;
        let order = mcs_order(&g);
        assert!(is_perfect_elimination_order(&g, &order));
    }

    #[test]
    fn lexbfs_agrees_with_mcs_on_chordality() {
        let chordal = {
            let mut g = Graph::cycle(6);
            g.add_edge(0, 2);
            g.add_edge(0, 3);
            g.add_edge(0, 4);
            g
        };
        assert!(is_perfect_elimination_order(
            &chordal,
            &lexbfs_order(&chordal)
        ));
        let non_chordal = Graph::cycle(6);
        assert!(!is_perfect_elimination_order(
            &non_chordal,
            &lexbfs_order(&non_chordal)
        ));
    }

    #[test]
    fn disconnected_chordal() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        assert!(is_chordal(&g));
        let order = mcs_order(&g);
        assert_eq!(order.len(), 6);
    }

    #[test]
    #[should_panic(expected = "repeat")]
    fn peo_check_rejects_duplicates() {
        let g = Graph::path(3);
        is_perfect_elimination_order(&g, &[0, 0, 1]);
    }
}
