//! Scratch-space separator extraction: the minimal separators of a
//! chordal graph from one maximum-cardinality search, into pooled
//! buffers.
//!
//! This is the reference implementation of the clique-generator rule.
//! The `Extend` kernel no longer calls it: MCS-M
//! (`mintri_triangulate::mcs_m_into`) applies the same rule while it
//! builds the triangulation, and its unit proptests pin that output to
//! this function's, sequence for sequence.
//!
//! [`minimal_separators_with`] visits exactly the sets
//! [`CliqueForest::minimal_separators`] returns, in the same order,
//! without building a `CliqueForest` and without allocating once the
//! workspace is warm. It uses the clique-generator rule of MCS on chordal
//! graphs (Blair–Peyton; Berry–Pogorelčnik, IPL 2011): number the vertices
//! by MCS, and whenever a vertex is numbered with a label (its count of
//! numbered neighbours) no larger than the previous vertex's label, and
//! that label is positive, its numbered neighbourhood is a minimal
//! separator. Every minimal separator of the graph appears this way.
//!
//! The order argument: a chordal graph has exactly one set of minimal
//! separators, and both this function and
//! [`CliqueForest::minimal_separators`] emit it sorted by [`NodeSet`]
//! order with duplicates removed. Neither the search order nor the
//! perfect elimination order can show through.
//!
//! [`CliqueForest::minimal_separators`]: crate::CliqueForest::minimal_separators

use crate::buckets::WeightBuckets;
use mintri_graph::{Graph, Node, NodeSet};

/// Reusable workspace for [`minimal_separators_with`]: the MCS label
/// buckets, the numbered set and the separator pool. One per enumeration
/// stream.
#[derive(Default)]
pub struct ForestScratch {
    buckets: WeightBuckets,
    numbered: NodeSet,
    seps: Vec<NodeSet>,
    sep_count: usize,
    order: Vec<u32>,
}

/// The minimal separators of the chordal graph `g`, visited in the order
/// `CliqueForest::build_with_peo(g, peo).minimal_separators()` would
/// return them: sorted, without duplicates. `emit` borrows each
/// separator; callers that need to keep one clone (or intern) it.
///
/// `peo` is unused: the separators are read off a maximum-cardinality
/// search of `g`, which needs no elimination order. The argument stays so
/// callers holding one keep a stable signature.
pub fn minimal_separators_with(
    g: &Graph,
    peo: &[Node],
    ws: &mut ForestScratch,
    mut emit: impl FnMut(&NodeSet),
) {
    let n = g.num_nodes();
    debug_assert_eq!(peo.len(), n);
    ws.buckets.reset(n);
    ws.numbered.reset(n);
    ws.sep_count = 0;
    let mut prev_label = 0;
    while let Some((v, label)) = ws.buckets.pop_max() {
        // `v` starts a new maximal clique; the part it shares with the
        // numbered cliques is a minimal separator (empty between
        // components, which is not one).
        if label > 0 && label <= prev_label {
            if ws.seps.len() == ws.sep_count {
                ws.seps.push(NodeSet::default());
            }
            let sep = &mut ws.seps[ws.sep_count];
            sep.assign_words(n, g.neighbors(v).words());
            sep.intersect_with(&ws.numbered);
            ws.sep_count += 1;
        }
        prev_label = label;
        ws.numbered.insert(v);
        for u in g.neighbors(v).iter() {
            if !ws.numbered.contains(u) {
                ws.buckets.increment(u);
            }
        }
    }

    // --- distinct separators, sorted by set content (mirrors
    // `minimal_separators`: sort + dedup) ---
    ws.order.clear();
    ws.order.extend(0..ws.sep_count as u32);
    let seps = &ws.seps;
    ws.order
        .sort_unstable_by(|&a, &b| seps[a as usize].cmp(&seps[b as usize]));
    let mut prev: Option<u32> = None;
    for &i in &ws.order {
        if let Some(p) = prev {
            if seps[p as usize] == seps[i as usize] {
                continue;
            }
        }
        prev = Some(i);
        emit(&seps[i as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peo::{is_perfect_elimination_order, perfect_elimination_order};
    use crate::CliqueForest;
    use mintri_workloads::random::erdos_renyi;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_forest(g: &Graph, ws: &mut ForestScratch) {
        let peo = perfect_elimination_order(g).expect("test graphs are chordal");
        let expected: Vec<NodeSet> = CliqueForest::build_with_peo(g, &peo).minimal_separators();
        let mut got = Vec::new();
        minimal_separators_with(g, &peo, ws, |s| got.push(s.clone()));
        assert_eq!(got, expected);
    }

    #[test]
    fn scratch_separators_match_clique_forest() {
        // one shared workspace across graphs of different sizes
        let mut ws = ForestScratch::default();
        let mut square = Graph::cycle(4);
        square.add_edge(0, 2);
        let star_of_triangles = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (0, 3),
                (3, 4),
                (0, 4),
                (0, 5),
                (5, 6),
                (0, 6),
            ],
        );
        let disconnected = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        for g in [
            Graph::path(6),
            Graph::complete(5),
            square,
            star_of_triangles,
            disconnected,
            Graph::new(0),
            Graph::new(3),
        ] {
            assert_matches_forest(&g, &mut ws);
        }
    }

    /// The elimination game: eliminating `order` front to back and
    /// saturating each vertex's later neighbourhood yields a chordal
    /// supergraph of `g` with `order` as a perfect elimination order.
    fn eliminate(g: &Graph, order: &[Node]) -> Graph {
        let mut h = g.clone();
        let mut remaining = NodeSet::full(g.num_nodes());
        for &v in order {
            remaining.remove(v);
            let later = h.neighbors(v).intersection(&remaining);
            h.saturate(&later);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The extraction does not depend on the elimination order: on a
        /// chordal graph built from a *random* order (not an MCS-M one),
        /// with that order handed in, it emits exactly the clique
        /// forest's separators. Sizes up to 150 cover 1-, 2- and 3-word
        /// bitsets; one workspace is shared across cases.
        #[test]
        fn separators_match_clique_forest_under_random_peos(
            n in 0usize..150,
            percent in 1u64..30,
            seed in any::<u64>(),
        ) {
            let g = erdos_renyi(n, percent as f64 / 100.0, seed);
            let mut order: Vec<Node> = (0..n as Node).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let h = eliminate(&g, &order);
            prop_assert!(is_perfect_elimination_order(&h, &order));
            let expected = CliqueForest::build_with_peo(&h, &order).minimal_separators();
            let mut got = Vec::new();
            thread_local! {
                static WS: std::cell::RefCell<ForestScratch> = Default::default();
            }
            WS.with(|ws| {
                minimal_separators_with(&h, &order, &mut ws.borrow_mut(), |s| got.push(s.clone()))
            });
            prop_assert_eq!(got, expected);
        }
    }
}
