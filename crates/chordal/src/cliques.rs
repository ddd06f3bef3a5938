//! Maximal cliques: linear-time extraction for chordal graphs and
//! Bron–Kerbosch for general graphs (used as a test oracle and by the
//! tree-decomposition machinery).

use crate::peo::perfect_elimination_order;
use mintri_graph::{Graph, Node, NodeSet};

/// The maximal cliques of a *chordal* graph, given a perfect elimination
/// order.
///
/// Every maximal clique of a chordal graph is `C(v) = {v} ∪ RN(v)` for some
/// `v`, where `RN(v)` are the neighbors eliminated after `v` (Fulkerson &
/// Gross). `C(v)` fails to be maximal exactly when some earlier-eliminated
/// neighbor `u` of `v` satisfies `RN(u) ⊇ C(v)`; the subset checks are
/// word-parallel on bitsets.
///
/// Gavril's bound guarantees at most `n` maximal cliques. Cliques are
/// returned ordered by their representative's elimination position.
pub fn maximal_cliques_of_chordal(g: &Graph, peo: &[Node]) -> Vec<NodeSet> {
    let n = g.num_nodes();
    debug_assert_eq!(peo.len(), n);
    let mut pos = vec![0usize; n];
    for (i, &v) in peo.iter().enumerate() {
        pos[v as usize] = i;
    }

    // rn[v] = neighbors of v eliminated after v
    let mut remaining = NodeSet::full(n);
    let mut rn: Vec<NodeSet> = vec![NodeSet::new(0); n];
    for &v in peo {
        remaining.remove(v);
        rn[v as usize] = g.neighbors(v).intersection(&remaining);
    }

    let mut cliques = Vec::new();
    for &v in peo {
        let mut cv = rn[v as usize].clone();
        cv.insert(v);
        let maximal = g
            .neighbors(v)
            .iter()
            .filter(|&u| pos[u as usize] < pos[v as usize])
            .all(|u| !rn[u as usize].is_superset(&cv));
        if maximal {
            cliques.push(cv);
        }
    }
    cliques
}

/// The maximal cliques of a chordal graph (computes a PEO internally).
///
/// # Panics
/// Panics if `g` is not chordal; use [`maximal_cliques`] for general graphs.
pub fn maximal_cliques_chordal(g: &Graph) -> Vec<NodeSet> {
    let peo =
        perfect_elimination_order(g).expect("maximal_cliques_chordal requires a chordal graph");
    maximal_cliques_of_chordal(g, &peo)
}

/// All maximal cliques of an arbitrary graph, via Bron–Kerbosch with
/// pivoting. Exponential in the worst case — intended for small graphs and
/// as an oracle for the chordal fast path.
pub fn maximal_cliques(g: &Graph) -> Vec<NodeSet> {
    let n = g.num_nodes();
    let mut out = Vec::new();
    let mut r = NodeSet::new(n);
    let p = NodeSet::full(n);
    let x = NodeSet::new(n);
    bron_kerbosch(g, &mut r, p, x, &mut out);
    out.sort();
    out
}

fn bron_kerbosch(g: &Graph, r: &mut NodeSet, p: NodeSet, x: NodeSet, out: &mut Vec<NodeSet>) {
    if p.is_empty() && x.is_empty() {
        out.push(r.clone());
        return;
    }
    // pivot: vertex of P ∪ X with most neighbors in P
    let pivot = p
        .union(&x)
        .iter()
        .max_by_key(|&u| g.neighbors(u).intersection_len(&p))
        .expect("P ∪ X is nonempty here");
    let mut candidates = p.difference(&g.neighbors(pivot));
    let mut p = p;
    let mut x = x;
    while let Some(v) = candidates.pop() {
        let nv = g.neighbors(v);
        r.insert(v);
        bron_kerbosch(g, r, p.intersection(&nv), x.intersection(&nv), out);
        r.remove(v);
        p.remove(v);
        x.insert(v);
    }
}

/// The treewidth of a *chordal* graph: its maximum clique size minus one.
///
/// # Panics
/// Panics if `g` is not chordal.
pub fn treewidth_of_chordal(g: &Graph) -> usize {
    let peo = perfect_elimination_order(g).expect("treewidth_of_chordal requires a chordal graph");
    let n = g.num_nodes();
    if n == 0 {
        return 0;
    }
    let mut remaining = NodeSet::full(n);
    let mut best = 0;
    for &v in &peo {
        remaining.remove(v);
        best = best.max(g.neighbors(v).intersection_len(&remaining));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut cs: Vec<NodeSet>) -> Vec<Vec<Node>> {
        cs.sort();
        cs.iter().map(|c| c.to_vec()).collect()
    }

    #[test]
    fn cliques_of_a_tree_are_edges() {
        let g = Graph::path(4);
        let cs = sorted(maximal_cliques_chordal(&g));
        assert_eq!(cs, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
    }

    #[test]
    fn cliques_of_complete_graph() {
        let g = Graph::complete(5);
        let cs = maximal_cliques_chordal(&g);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].len(), 5);
    }

    #[test]
    fn cliques_of_triangulated_square() {
        let mut g = Graph::cycle(4);
        g.add_edge(0, 2);
        let cs = sorted(maximal_cliques_chordal(&g));
        assert_eq!(cs, vec![vec![0, 1, 2], vec![0, 2, 3]]);
    }

    #[test]
    fn chordal_fast_path_matches_bron_kerbosch() {
        // a moderately interesting chordal graph: two triangles sharing an
        // edge plus pendant vertices
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5)]);
        let fast = sorted(maximal_cliques_chordal(&g));
        let slow = sorted(maximal_cliques(&g));
        assert_eq!(fast, slow);
    }

    #[test]
    fn bron_kerbosch_on_cycle() {
        let g = Graph::cycle(5);
        let cs = sorted(maximal_cliques(&g));
        assert_eq!(cs.len(), 5); // every edge is a maximal clique
        assert!(cs.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn bron_kerbosch_isolated_vertices() {
        let g = Graph::new(3);
        let cs = maximal_cliques(&g);
        assert_eq!(cs.len(), 3); // each singleton
        assert!(cs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn treewidth_examples() {
        assert_eq!(treewidth_of_chordal(&Graph::path(5)), 1);
        assert_eq!(treewidth_of_chordal(&Graph::complete(4)), 3);
        let mut g = Graph::cycle(4);
        g.add_edge(0, 2);
        assert_eq!(treewidth_of_chordal(&g), 2);
        assert_eq!(treewidth_of_chordal(&Graph::new(0)), 0);
        assert_eq!(treewidth_of_chordal(&Graph::new(3)), 0);
    }

    #[test]
    #[should_panic(expected = "chordal")]
    fn chordal_clique_extraction_rejects_non_chordal() {
        maximal_cliques_chordal(&Graph::cycle(4));
    }

    #[test]
    fn gavril_bound_holds() {
        // chordal graphs have at most n maximal cliques
        let mut g = Graph::cycle(7);
        for v in 2..6 {
            g.add_edge(0, v);
        }
        assert!(crate::is_chordal(&g));
        assert!(maximal_cliques_chordal(&g).len() <= g.num_nodes());
    }
}
