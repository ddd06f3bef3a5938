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
//!
//! The search runs over flat words: the input graph's adjacency is one
//! row-major bit matrix ([`Graph::words`]), and the weight levels, the
//! rows of numbered neighbours and the per-step sets are rows of one
//! width in buffers of their own. The body is generic over that width as
//! a constant, instantiated for one and two words (graphs of up to 128
//! vertices, where every word loop has a constant trip count) and once
//! with the width read at run time for larger graphs.

use crate::types::{TriScratch, Triangulation, Triangulator};
use mintri_graph::{Graph, Node};

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

    fn triangulate_loaded(&self, ws: &mut TriScratch) -> bool {
        match ws.input.width() {
            1 => mcs_m_words::<1>(ws),
            2 => mcs_m_words::<2>(ws),
            _ => mcs_m_words::<RUNTIME_WIDTH>(ws),
        }
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
/// at least this large. Loads `g` into [`TriScratch::input`] and runs
/// the same body as [`Triangulator::triangulate_loaded`].
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
/// per row word: at most `n` thresholds and `n` absorbed vertices.
///
/// Every qualified `u` becomes a neighbour of `v` in the triangulation,
/// so `v` joins `u`'s row of numbered neighbours. When a vertex is
/// numbered, its row is complete; the clique-generator rule (see the
/// module docs) picks the rows that are separators, which are then
/// sorted and deduplicated by [`NodeSet`](mintri_graph::NodeSet) order
/// and written out as sets.
pub fn mcs_m_into(g: &Graph, ws: &mut TriScratch) {
    McsM.triangulate_into(g, ws);
}

/// The `W` of [`mcs_m_words`] that reads the row width at run time.
const RUNTIME_WIDTH: usize = 0;

/// The MCS-M body over the matrix in `ws.input`, for rows of `W` words
/// (or, with `W = RUNTIME_WIDTH`, of the matrix's own width). See
/// [`mcs_m_into`] for the algorithm.
fn mcs_m_words<const W: usize>(ws: &mut TriScratch) {
    let TriScratch {
        input,
        fill,
        peo,
        weight,
        levels,
        rows,
        temps,
        generators,
        separators,
    } = ws;
    let n = input.num_nodes();
    let w = if W == RUNTIME_WIDTH { input.width() } else { W };
    debug_assert_eq!(w, input.width());
    let adj = input.words();
    let row = |v: usize| &adj[v * w..][..w];
    fill.clear();
    peo.clear();
    generators.clear();
    weight.clear();
    weight.resize(n, 0);
    levels.clear();
    levels.resize(n.max(1) * w, 0);
    rows.clear();
    rows.resize(n * w, 0);
    temps.clear();
    temps.resize(7 * w, 0);
    let (unnumbered, rest) = temps.split_at_mut(w);
    let (reach, rest) = rest.split_at_mut(w);
    let (component, rest) = rest.split_at_mut(w);
    let (lighter, rest) = rest.split_at_mut(w);
    let (heavier, rest) = rest.split_at_mut(w);
    let (fresh, qualified) = rest.split_at_mut(w);
    fill_first(&mut levels[..w], n);
    fill_first(unnumbered, n);
    // an upper bound on the highest non-empty weight level
    let mut top = 0;

    let mut prev_label = 0;
    loop {
        // max weight, then smallest id
        let v = loop {
            if let Some(v) = pop_first(&mut levels[top * w..][..w]) {
                break Some(v);
            }
            if top == 0 {
                break None;
            }
            top -= 1;
        };
        let Some(v) = v else { break };
        let label = top;
        debug_assert_eq!(label, weight[v] as usize);
        debug_assert_eq!(
            label,
            rows[v * w..][..w]
                .iter()
                .map(|x| x.count_ones() as usize)
                .sum::<usize>()
        );
        if label > 0 && label <= prev_label {
            generators.push(v as Node);
        }
        prev_label = label;
        unnumbered[v / 64] &= !(1 << (v % 64));
        // Intersecting with a weight level keeps unnumbered vertices only,
        // so `reach` may hold `v` and numbered vertices harmlessly.
        reach.copy_from_slice(row(v));
        component.fill(0);
        lighter.fill(0);
        heavier.copy_from_slice(unnumbered);
        qualified.fill(0);
        'thresholds: for t in 0..=top {
            if t > 0 {
                let below = &levels[(t - 1) * w..][..w];
                if below.iter().any(|&x| x != 0) {
                    // lighter: weight < t; heavier: weight >= t
                    union_with(lighter, below);
                    difference_with(heavier, below);
                    loop {
                        if is_subset(heavier, reach) {
                            // reach only grows: every heavier vertex will
                            // qualify at its own threshold
                            union_with(qualified, heavier);
                            break 'thresholds;
                        }
                        // fresh = reach ∩ lighter \ C, which then joins C
                        let mut any = 0;
                        for (((f, c), &r), &l) in fresh
                            .iter_mut()
                            .zip(component.iter_mut())
                            .zip(reach.iter())
                            .zip(lighter.iter())
                        {
                            *f = r & l & !*c;
                            *c |= *f;
                            any |= *f;
                        }
                        if any == 0 {
                            break;
                        }
                        for_each_bit(fresh, |a| union_with(reach, row(a)));
                    }
                }
            }
            // Every reached lighter vertex is in `C` now; with no heavier
            // one reached, no later threshold can change anything.
            if is_disjoint(reach, heavier) {
                break;
            }
            let level = &levels[t * w..][..w];
            for ((q, &r), &l) in qualified.iter_mut().zip(reach.iter()).zip(level) {
                *q |= r & l;
            }
        }

        let (v_word, v_bit) = (v / 64, 1 << (v % 64));
        for_each_bit(qualified, |u| {
            let (u_word, u_bit) = (u / 64, 1 << (u % 64));
            let k = weight[u] as usize;
            levels[k * w + u_word] &= !u_bit;
            levels[(k + 1) * w + u_word] |= u_bit;
            weight[u] += 1;
            top = top.max(k + 1);
            rows[u * w + v_word] |= v_bit;
            if adj[u * w + v_word] & v_bit == 0 {
                fill.push((u.min(v) as Node, u.max(v) as Node));
            }
        });
        peo.push(v as Node);
    }

    peo.reverse();
    let row_of = |v: Node| &rows[v as usize * w..][..w];
    generators.sort_unstable_by(|&a, &b| row_of(a).cmp(row_of(b)));
    generators.dedup_by(|a, b| row_of(*a) == row_of(*b));
    if separators.len() < generators.len() {
        separators.resize_with(generators.len(), Default::default);
    }
    for (set, &v) in separators.iter_mut().zip(generators.iter()) {
        set.assign_words(n, row_of(v));
    }
}

/// Sets the bits of `0..n` in `set`, whose other bits are zero.
fn fill_first(set: &mut [u64], n: usize) {
    for (i, word) in set.iter_mut().enumerate() {
        let lo = i * 64;
        *word = match n.saturating_sub(lo) {
            0 => 0,
            k if k >= 64 => u64::MAX,
            k => (1 << k) - 1,
        };
    }
}

/// `a ∪= b`.
#[inline(always)]
fn union_with(a: &mut [u64], b: &[u64]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x |= y;
    }
}

/// `a \= b`.
#[inline(always)]
fn difference_with(a: &mut [u64], b: &[u64]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x &= !y;
    }
}

/// `a ⊆ b`.
#[inline(always)]
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// `a ∩ b = ∅`.
#[inline(always)]
fn is_disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & y == 0)
}

/// Calls `f` on every element of `set`, in increasing order.
#[inline(always)]
fn for_each_bit(set: &[u64], mut f: impl FnMut(usize)) {
    for (i, &word) in set.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(i * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Removes and returns the smallest element of `set`, if any.
fn pop_first(set: &mut [u64]) -> Option<usize> {
    for (i, word) in set.iter_mut().enumerate() {
        if *word != 0 {
            let bit = word.trailing_zeros() as usize;
            *word &= *word - 1;
            return Some(i * 64 + bit);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_chordal::{
        is_chordal, is_perfect_elimination_order, minimal_separators_with, ForestScratch,
    };
    use mintri_graph::{Node, NodeSet};
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

        /// Random graphs up to 300 vertices (the 1- and 2-word kernels
        /// and the runtime-width one), from sparse to dense, through one
        /// shared workspace.
        #[test]
        fn collected_separators_match_second_search(
            n in 0usize..300,
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

        /// Random graphs up to 300 vertices (the 1- and 2-word kernels
        /// and the runtime-width one), from sparse to dense, through one
        /// shared workspace.
        #[test]
        fn word_parallel_mcs_m_matches_bucket_search(
            n in 0usize..300,
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

    /// Random graphs on both sides of every row-width boundary, where
    /// the kernel switches from one word to two and from two to the
    /// runtime width.
    fn width_boundary_graphs() -> impl Iterator<Item = Graph> {
        [63, 64, 65, 127, 128, 129]
            .into_iter()
            .flat_map(|n| [(n, 0.05, 1), (n, 0.3, 2)])
            .map(|(n, p, seed)| erdos_renyi(n, p, seed))
    }

    #[test]
    fn word_parallel_mcs_m_matches_bucket_search_on_paper_families() {
        let mut ws = TriScratch::default();
        for family in PgmFamily::ALL {
            for instance in family.instances(2, 7) {
                assert_matches_oracle(&instance.graph, &mut ws);
            }
        }
        for g in width_boundary_graphs() {
            assert_matches_oracle(&g, &mut ws);
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
        for g in width_boundary_graphs() {
            assert_separators_match_second_search(&g, &mut ws, &mut forest);
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
