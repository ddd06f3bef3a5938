//! MCS-M: Maximum Cardinality Search for Minimal Triangulation
//! (Berry, Blair, Heggernes — reference [4] of the paper).
//!
//! MCS-M extends Maximum Cardinality Search: vertices are numbered from `n`
//! down to `1`, always choosing an unnumbered vertex of maximum weight. When
//! `v` is numbered, every unnumbered `u` that is adjacent to `v` *or*
//! reachable from `v` through unnumbered vertices of weight strictly smaller
//! than `w(u)` gets its weight incremented and — if `{u,v}` is not an edge —
//! a fill edge. The original graph plus the fill edges is a minimal
//! triangulation, and the numbering (reversed) is a perfect elimination
//! order of it.
//!
//! The kernel also reports the minimal separators of that triangulation
//! `h` (MCS-M+, Berry–Pogorelčnik–Simonet). A vertex's weight is exactly
//! its number of numbered neighbours in `h`, so the numbering is a
//! maximum-cardinality search of `h`, and the clique-generator rule of
//! MCS on chordal graphs applies unchanged: a vertex numbered with a
//! positive weight no larger than the previous vertex's starts a new
//! maximal clique, and its numbered neighbourhood in `h` is a minimal
//! separator. Every minimal separator of `h` appears this way.

use crate::types::{TriScratch, Triangulation, Triangulator};
use mintri_graph::{Graph, NodeSet};

/// The MCS-M minimal triangulation algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct McsM;

impl Triangulator for McsM {
    fn triangulate(&self, g: &Graph) -> Triangulation {
        mcs_m(g)
    }

    fn guarantees_minimal(&self) -> bool {
        true
    }

    fn triangulate_into(&self, g: &Graph, ws: &mut TriScratch) -> bool {
        mcs_m_into(g, ws);
        true
    }

    fn name(&self) -> &'static str {
        "MCS_M"
    }
}

/// Runs MCS-M on `g`, returning a minimal triangulation together with its
/// perfect elimination order. `O(n²·⌈n/64⌉)` word operations overall (see
/// [`mcs_m_into`]). The fill edges come out grouped by the step that added
/// them, in step order, and ascending within one step.
pub fn mcs_m(g: &Graph) -> Triangulation {
    let mut ws = TriScratch::default();
    mcs_m_into(g, &mut ws);
    let mut h = g.clone();
    for &(u, v) in &ws.fill {
        h.add_edge(u, v);
    }
    Triangulation {
        graph: h,
        fill: ws.fill,
        peo: Some(ws.peo),
    }
}

/// The MCS-M core: writes the fill edges, perfect elimination order and
/// minimal separators ([`TriScratch::separators`]) into `ws` without
/// building the chordal graph (callers that need it add `ws.fill` to
/// their own copy). Allocation-free once the workspace has seen a graph
/// at least this large.
///
/// Each step works a word at a time. The next vertex `v` is the lowest
/// set bit of the top weight level (max weight, then smallest id). The
/// vertices it raises are found by growing a reach set from `N(v)`
/// through weight thresholds in ascending order: at threshold `t`, every
/// reached vertex of weight `< t` joins the component `C` of `v` and adds
/// its neighbourhood to the reach set, until nothing new is reached; then
/// every reached vertex of weight exactly `t` qualifies. So `u` qualifies
/// iff some `v`–`u` path runs through unnumbered vertices lighter than
/// `u` only, which is the MCS-M rule. The search stops early once no
/// heavier vertex is reached (none can qualify any more) or every heavier
/// vertex is (all of them qualify). A step costs `O(n)` word operations
/// per bitset word: at most `n` thresholds and `n` absorbed vertices.
///
/// Every qualified `u` becomes a neighbour of `v` in the triangulation,
/// so `v` joins `u`'s row of numbered neighbours. When a vertex is
/// numbered, its row is complete; the clique-generator rule (see the
/// module docs) picks the rows that are separators, which are then
/// sorted and deduplicated in place.
pub fn mcs_m_into(g: &Graph, ws: &mut TriScratch) {
    let n = g.num_nodes();
    ws.fill.clear();
    ws.peo.clear();
    ws.generators.clear();
    if ws.rows.len() < n {
        ws.rows.resize_with(n, NodeSet::default);
    }
    for row in &mut ws.rows[..n] {
        row.reset(n);
    }
    ws.buckets.reset(n);
    ws.unnumbered.reset_full(n);
    for set in [
        &mut ws.reach,
        &mut ws.component,
        &mut ws.lighter,
        &mut ws.heavier,
        &mut ws.fresh,
        &mut ws.qualified,
    ] {
        set.reset(n);
    }

    let mut prev_label = 0;
    while let Some((v, label)) = ws.buckets.pop_max() {
        debug_assert_eq!(label, ws.rows[v as usize].len());
        if label > 0 && label <= prev_label {
            ws.generators.push(v);
        }
        prev_label = label;
        ws.unnumbered.remove(v);
        // Intersecting with a weight level keeps unnumbered vertices only,
        // so `reach` may hold `v` and numbered vertices harmlessly.
        ws.reach.clone_from(g.neighbors(v));
        ws.component.clear();
        ws.lighter.clear();
        ws.heavier.clone_from(&ws.unnumbered);
        ws.qualified.clear();
        'thresholds: for t in 0..=ws.buckets.top() {
            if t > 0 && !ws.buckets.level(t - 1).is_empty() {
                // lighter: weight < t; heavier: weight >= t
                ws.lighter.union_with(ws.buckets.level(t - 1));
                ws.heavier.difference_with(ws.buckets.level(t - 1));
                loop {
                    if ws.heavier.is_subset(&ws.reach) {
                        // reach only grows: every heavier vertex will
                        // qualify at its own threshold
                        ws.qualified.union_with(&ws.heavier);
                        break 'thresholds;
                    }
                    ws.fresh.clone_from(&ws.reach);
                    ws.fresh.intersect_with(&ws.lighter);
                    ws.fresh.difference_with(&ws.component);
                    if ws.fresh.is_empty() {
                        break;
                    }
                    ws.component.union_with(&ws.fresh);
                    for a in ws.fresh.iter() {
                        ws.reach.union_with(g.neighbors(a));
                    }
                }
            }
            // Every reached lighter vertex is in `C` now; with no heavier
            // one reached, no later threshold can change anything.
            if !ws.reach.intersects(&ws.heavier) {
                break;
            }
            let level = ws.buckets.level(t);
            if !level.is_empty() {
                ws.fresh.clone_from(&ws.reach);
                ws.fresh.intersect_with(level);
                ws.qualified.union_with(&ws.fresh);
            }
        }

        for u in ws.qualified.iter() {
            ws.buckets.increment(u);
            ws.rows[u as usize].insert(v);
            if !g.has_edge(u, v) {
                ws.fill.push((u.min(v), u.max(v)));
            }
        }
        ws.peo.push(v);
    }

    ws.peo.reverse();
    let rows = &ws.rows;
    ws.generators
        .sort_unstable_by(|&a, &b| rows[a as usize].cmp(&rows[b as usize]));
    ws.generators
        .dedup_by(|a, b| rows[*a as usize] == rows[*b as usize]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_chordal::{
        is_chordal, is_perfect_elimination_order, minimal_separators_with, ForestScratch,
    };
    use mintri_graph::Node;
    use mintri_workloads::random::erdos_renyi;
    use mintri_workloads::PgmFamily;
    use proptest::prelude::*;

    /// The bucket-search MCS-M `mcs_m_into` replaced, kept as the oracle
    /// for its identity tests: an `O(n)` scan picks each vertex, and a
    /// bucketed search visits neighbours one at a time. Returns the PEO
    /// and the fill edges in the order this version added them.
    fn bucket_search_mcs_m(g: &Graph) -> (Vec<Node>, Vec<(Node, Node)>) {
        let n = g.num_nodes();
        let mut weight = vec![0usize; n];
        let mut numbered = NodeSet::new(n);
        let mut marked = NodeSet::new(n);
        let mut reach: Vec<Vec<Node>> = vec![Vec::new(); n + 1];
        let (mut peo, mut fill) = (Vec::new(), Vec::new());
        for _ in 0..n {
            let v = (0..n as Node)
                .filter(|&u| !numbered.contains(u))
                .max_by(|&a, &b| weight[a as usize].cmp(&weight[b as usize]).then(b.cmp(&a)))
                .expect("an unnumbered vertex exists");
            // For every unnumbered u, the minimum over v-u paths through
            // unnumbered vertices of the maximum intermediate weight; u
            // qualifies iff that is < w(u). Neighbours always qualify.
            marked.clear();
            marked.insert(v);
            let mut qualified = Vec::new();
            for u in g.neighbors(v).iter() {
                if !numbered.contains(u) {
                    marked.insert(u);
                    qualified.push(u);
                    reach[weight[u as usize]].push(u);
                }
            }
            for j in 0..n {
                while let Some(y) = reach[j].pop() {
                    for z in g.neighbors(y).iter() {
                        if numbered.contains(z) || marked.contains(z) {
                            continue;
                        }
                        marked.insert(z);
                        if weight[z as usize] > j {
                            qualified.push(z);
                            reach[weight[z as usize]].push(z);
                        } else {
                            reach[j].push(z);
                        }
                    }
                }
            }
            for &u in &qualified {
                weight[u as usize] += 1;
                if !g.has_edge(u, v) {
                    fill.push((u.min(v), u.max(v)));
                }
            }
            numbered.insert(v);
            peo.push(v);
        }
        peo.reverse();
        (peo, fill)
    }

    /// `mcs_m_into` agrees with the oracle: the same PEO bit for bit and
    /// the same fill set.
    fn assert_matches_oracle(g: &Graph, ws: &mut TriScratch) {
        let (peo, mut fill) = bucket_search_mcs_m(g);
        mcs_m_into(g, ws);
        assert_eq!(ws.peo, peo);
        let mut got = ws.fill.clone();
        got.sort_unstable();
        fill.sort_unstable();
        assert_eq!(got, fill);
    }

    /// The separators `mcs_m_into` collects are, sequence for sequence,
    /// the ones the reference extraction `minimal_separators_with` reads
    /// off `g` plus the fill with a second search.
    fn assert_separators_match_second_search(
        g: &Graph,
        ws: &mut TriScratch,
        forest: &mut ForestScratch,
    ) {
        mcs_m_into(g, ws);
        let mut h = g.clone();
        for &(u, v) in &ws.fill {
            h.add_edge(u, v);
        }
        let mut expected = Vec::new();
        minimal_separators_with(&h, &ws.peo, forest, |s| expected.push(s.clone()));
        let got: Vec<NodeSet> = ws.separators().cloned().collect();
        assert_eq!(got, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random graphs up to 150 vertices (1-, 2- and 3-word bitsets),
        /// from sparse to dense, through one shared workspace.
        #[test]
        fn collected_separators_match_second_search(
            n in 0usize..150,
            percent in 1u64..60,
            seed in any::<u64>(),
        ) {
            thread_local! {
                static WS: std::cell::RefCell<(TriScratch, ForestScratch)> = Default::default();
            }
            let g = erdos_renyi(n, percent as f64 / 100.0, seed);
            WS.with(|ws| {
                let (tri, forest) = &mut *ws.borrow_mut();
                assert_separators_match_second_search(&g, tri, forest);
            });
        }

        /// Random graphs up to 150 vertices (1-, 2- and 3-word bitsets),
        /// from sparse to dense, through one shared workspace.
        #[test]
        fn word_parallel_mcs_m_matches_bucket_search(
            n in 0usize..150,
            percent in 1u64..60,
            seed in any::<u64>(),
        ) {
            thread_local! {
                static WS: std::cell::RefCell<TriScratch> = Default::default();
            }
            let g = erdos_renyi(n, percent as f64 / 100.0, seed);
            WS.with(|ws| assert_matches_oracle(&g, &mut ws.borrow_mut()));
        }
    }

    #[test]
    fn word_parallel_mcs_m_matches_bucket_search_on_paper_families() {
        let mut ws = TriScratch::default();
        for family in PgmFamily::ALL {
            for instance in family.instances(2, 7) {
                assert_matches_oracle(&instance.graph, &mut ws);
            }
        }
    }

    #[test]
    fn collected_separators_match_second_search_on_paper_families() {
        let (mut ws, mut forest) = (TriScratch::default(), ForestScratch::default());
        for family in PgmFamily::ALL {
            for instance in family.instances(2, 7) {
                assert_separators_match_second_search(&instance.graph, &mut ws, &mut forest);
            }
        }
    }

    #[test]
    fn chordal_input_gets_no_fill() {
        for g in [Graph::path(6), Graph::complete(5), Graph::cycle(3)] {
            let t = mcs_m(&g);
            assert_eq!(
                t.fill_count(),
                0,
                "chordal graphs are their own minimal triangulation"
            );
            assert_eq!(t.graph, g);
            assert!(is_perfect_elimination_order(&g, t.peo.as_ref().unwrap()));
        }
    }

    #[test]
    fn cycle_fill_is_n_minus_3() {
        for n in 4..10 {
            let g = Graph::cycle(n);
            let t = mcs_m(&g);
            assert!(is_chordal(&t.graph), "C{n} triangulation must be chordal");
            assert_eq!(
                t.fill_count(),
                n - 3,
                "minimal triangulations of C{n} add n-3 chords"
            );
            assert_eq!(t.width(), 2);
        }
    }

    #[test]
    fn result_is_minimal_by_fill_edge_removal() {
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
                (1, 4),
            ],
        );
        let t = mcs_m(&g);
        assert!(is_chordal(&t.graph));
        assert!(crate::is_minimal_triangulation(&g, &t.graph));
    }

    #[test]
    fn peo_is_valid_for_the_triangulation() {
        let g = Graph::cycle(8);
        let t = mcs_m(&g);
        assert!(is_perfect_elimination_order(
            &t.graph,
            t.peo.as_ref().unwrap()
        ));
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
        let t = mcs_m(&g);
        assert!(is_chordal(&t.graph));
        assert_eq!(t.fill_count(), 2); // one chord per C4
    }

    #[test]
    fn empty_and_trivial_graphs() {
        assert_eq!(mcs_m(&Graph::new(0)).fill_count(), 0);
        assert_eq!(mcs_m(&Graph::new(5)).fill_count(), 0);
    }
}
