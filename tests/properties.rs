//! Property-based tests (proptest) over random small graphs: the fast
//! algorithms must agree with brute-force oracles and preserve their
//! invariants on *every* input, not just the hand-picked ones.

use mintri::core::{
    BruteForce, CostMeasure, ExtendScratch, MinimalTriangulationsEnumerator, MsGraph,
    ProperTreeDecompositions, Query, SepId,
};
use mintri::engine::Engine;
use mintri::prelude::*;
use mintri::separators::all_minimal_separators;
use mintri::separators::bruteforce::{all_minimal_separators_bruteforce, crossing_bruteforce};
use mintri::sgr::bruteforce::all_maximal_independent_sets;
use mintri::sgr::{build_jv, ExplicitSgr};
use mintri::triangulate::{
    eliminate, lb_triang, mcs_m, minimal_triangulation_sandwich, CompleteFill, OrderingStrategy,
};
use mintri::workloads::PgmFamily;
use proptest::prelude::*;

/// A random graph on `3..=max_n` nodes with independent edge bits.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n).prop_flat_map(|n| {
        let m = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), m).prop_map(move |bits| {
            let mut g = Graph::new(n);
            let mut k = 0;
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if bits[k] {
                        g.add_edge(u, v);
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

/// Ordered fill lists of the best-k winners on the in-process executor.
fn best_k_fills_local(
    g: &Graph,
    k: usize,
    cost: CostMeasure,
    planned: bool,
    ranked: bool,
) -> Vec<Vec<(Node, Node)>> {
    let mut resp = Query::best_k(k, cost)
        .policy(
            ExecPolicy::default()
                .with_planned(planned)
                .with_ranked(ranked),
        )
        .run_local(g);
    resp.triangulations().into_iter().map(|t| t.fill).collect()
}

/// Ordered fill lists of the best-k winners on a `mintri-engine`
/// executor. Its atom streams run the sequential schedule, whose fixed
/// production order makes tie-breaking comparable across gears.
fn best_k_fills_engine(
    engine: &Engine,
    g: &Graph,
    k: usize,
    cost: CostMeasure,
    planned: bool,
    ranked: bool,
) -> Vec<Vec<(Node, Node)>> {
    let mut resp = engine.run(
        g,
        Query::best_k(k, cost).policy(
            ExecPolicy::default()
                .with_planned(planned)
                .with_ranked(ranked),
        ),
    );
    resp.triangulations().into_iter().map(|t| t.fill).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A completed sequential schedule emits the same full sequence in
    /// both print modes: the queue `Q` is FIFO, so `UponPop` pops answers
    /// in the order `UponGeneration` emitted them, and a run completes
    /// only once `Q` is empty. The engine replays a completed list
    /// recorded under either mode on this ground.
    #[test]
    fn print_modes_emit_the_same_full_sequence(g in graph_strategy(7)) {
        let run = |mode: PrintMode| -> Vec<Vec<(Node, Node)>> {
            MinimalTriangulationsEnumerator::with_config(&g, Box::new(McsM), mode)
                .map(|t| t.graph.edges())
                .collect()
        };
        prop_assert_eq!(run(PrintMode::UponGeneration), run(PrintMode::UponPop));
    }

    /// The incremental-polynomial-time enumerator produces exactly the
    /// brute-force set of minimal triangulations.
    #[test]
    fn enumerator_matches_brute_force(g in graph_strategy(6)) {
        let mut fast: Vec<_> = MinimalTriangulationsEnumerator::new(&g)
            .map(|t| t.graph.edges())
            .collect();
        fast.sort();
        let slow: Vec<_> = BruteForce::minimal_triangulations(&g)
            .iter()
            .map(|h| h.edges())
            .collect();
        prop_assert_eq!(fast, slow);
    }

    /// Berry–Bordat–Cogis agrees with the definitional brute force.
    #[test]
    fn separator_enumeration_matches_brute_force(g in graph_strategy(7)) {
        prop_assert_eq!(
            all_minimal_separators(&g),
            all_minimal_separators_bruteforce(&g)
        );
    }

    /// The component-counting crossing test agrees with the definitional
    /// one, and is symmetric; `MsGraph`'s label-scan edges agree with it.
    #[test]
    fn crossing_test_is_correct_and_symmetric(g in graph_strategy(7)) {
        let seps = all_minimal_separators(&g);
        for s in &seps {
            for t in &seps {
                prop_assert_eq!(crossing(&g, s, t), crossing_bruteforce(&g, s, t));
                prop_assert_eq!(crossing(&g, s, t), crossing(&g, t, s));
            }
        }
        let ms = MsGraph::new(&g);
        let ids: Vec<SepId> = ms.nodes().collect();
        prop_assert_eq!(ids.len(), seps.len());
        assert_label_crossing_matches_reference(&g, &ms, &ids);
    }

    /// MCS-M always produces a minimal triangulation whose reported PEO is
    /// a perfect elimination order of it.
    #[test]
    fn mcs_m_is_minimal(g in graph_strategy(8)) {
        let t = mcs_m(&g);
        prop_assert!(is_chordal(&t.graph));
        prop_assert!(is_minimal_triangulation(&g, &t.graph));
        prop_assert!(mintri::chordal::is_perfect_elimination_order(
            &t.graph,
            t.peo.as_ref().unwrap()
        ));
    }

    /// LB-Triang produces a minimal triangulation for every strategy.
    #[test]
    fn lb_triang_is_minimal(g in graph_strategy(7), which in 0usize..3) {
        let strat = match which {
            0 => OrderingStrategy::MinFill,
            1 => OrderingStrategy::MinDegree,
            _ => OrderingStrategy::Natural,
        };
        let t = lb_triang(&g, &strat);
        prop_assert!(is_chordal(&t.graph));
        prop_assert!(is_minimal_triangulation(&g, &t.graph));
    }

    /// Elimination fill-in always triangulates (possibly non-minimally),
    /// and the sandwich step always minimalizes it.
    #[test]
    fn sandwich_minimalizes_any_triangulation(g in graph_strategy(7)) {
        let raw = eliminate(&g, &OrderingStrategy::Natural);
        prop_assert!(is_chordal(&raw.graph));
        let m = minimal_triangulation_sandwich(&g, &raw.graph);
        prop_assert!(is_minimal_triangulation(&g, &m.graph));
        let naive = CompleteFill.triangulate(&g);
        let m2 = minimal_triangulation_sandwich(&g, &naive.graph);
        prop_assert!(is_minimal_triangulation(&g, &m2.graph));
    }

    /// `EnumMIS` over an explicit SGR equals brute-force maximal
    /// independent set enumeration.
    #[test]
    fn enum_mis_matches_brute_force(g in graph_strategy(8)) {
        let sgr = ExplicitSgr::new(&g);
        let mut fast: Vec<Vec<Node>> = EnumMis::new(&sgr, PrintMode::UponGeneration).collect();
        fast.sort();
        prop_assert_eq!(fast, all_maximal_independent_sets(&g));
    }

    /// MCS and Lex-BFS agree on chordality.
    #[test]
    fn chordality_deciders_agree(g in graph_strategy(8)) {
        let via_mcs = is_chordal(&g);
        let via_lexbfs = mintri::chordal::is_perfect_elimination_order(
            &g,
            &mintri::chordal::lexbfs_order(&g),
        );
        prop_assert_eq!(via_mcs, via_lexbfs);
    }

    /// Chordal maximal-clique extraction agrees with Bron–Kerbosch.
    #[test]
    fn chordal_cliques_match_bron_kerbosch(g in graph_strategy(8)) {
        let h = mcs_m(&g).graph; // make it chordal
        let mut fast = mintri::chordal::maximal_cliques_chordal(&h);
        fast.sort();
        prop_assert_eq!(fast, maximal_cliques(&h));
    }

    /// Every emitted proper tree decomposition is valid and proper, with
    /// distinct (bags, edges) pairs.
    #[test]
    fn proper_decompositions_are_valid_and_distinct(g in graph_strategy(6)) {
        let mut seen = Vec::new();
        for d in ProperTreeDecompositions::new(&g).take(60) {
            prop_assert!(d.validate(&g).is_ok());
            prop_assert!(d.is_proper(&g));
            let mut key_bags = d.bags.clone();
            key_bags.sort();
            let mut key_edges = d.edges.clone();
            key_edges.sort_unstable();
            let key = (key_bags, key_edges);
            prop_assert!(!seen.contains(&key));
            seen.push(key);
        }
    }

    /// The minimal separators of every minimal triangulation of `g` are
    /// minimal separators of `g` (one half of Theorem 4.1, on random
    /// inputs).
    #[test]
    fn triangulation_separators_come_from_the_input(g in graph_strategy(6)) {
        let g_seps = all_minimal_separators(&g);
        for tri in MinimalTriangulationsEnumerator::new(&g) {
            for s in all_minimal_separators(&tri.graph) {
                prop_assert!(g_seps.contains(&s));
            }
        }
    }

    /// The clique forest of a chordal graph satisfies the junction
    /// property and covers the graph.
    #[test]
    fn clique_forests_are_junction_forests(g in graph_strategy(8)) {
        let h = mcs_m(&g).graph;
        let f = CliqueForest::build(&h);
        prop_assert!(f.is_valid_junction_forest(h.num_nodes()));
        // decomposition induced by the forest is a valid TD of h
        let d = TreeDecomposition { bags: f.cliques, edges: f.edges };
        prop_assert!(d.validate(&h).is_ok());
    }

    /// The ranked best-k gear agrees with the exhaustive scan bit for
    /// bit — same winners, same order — for every cost measure, every
    /// planning mode, and k ∈ {1, 3, all}, on random graphs.
    #[test]
    fn ranked_best_k_matches_exhaustive_locally(g in graph_strategy(6)) {
        for cost in [CostMeasure::Width, CostMeasure::Fill] {
            for planned in [true, false] {
                for k in [1usize, 3, 1_000] {
                    let ranked = best_k_fills_local(&g, k, cost, planned, true);
                    let exhaustive = best_k_fills_local(&g, k, cost, planned, false);
                    prop_assert_eq!(ranked, exhaustive, "cost {:?} planned {} k {}", cost, planned, k);
                }
            }
        }
    }
}

proptest! {
    // Fewer cases: each one boots an engine and runs 24 queries.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same bit-for-bit agreement holds on the engine executor —
    /// warm sessions and replay caches included (all combinations share
    /// one engine, so later queries exercise the warm paths).
    #[test]
    fn ranked_best_k_matches_exhaustive_on_the_engine(g in graph_strategy(6)) {
        let engine = Engine::new();
        for cost in [CostMeasure::Width, CostMeasure::Fill] {
            for planned in [true, false] {
                for k in [1usize, 3, 1_000] {
                    let ranked = best_k_fills_engine(&engine, &g, k, cost, planned, true);
                    let exhaustive = best_k_fills_engine(&engine, &g, k, cost, planned, false);
                    prop_assert_eq!(ranked, exhaustive, "cost {:?} planned {} k {}", cost, planned, k);
                }
            }
        }
    }
}

/// `ms.edge(a, b) == crossing(g, S_a, S_b)` for every pair of `ids`, in
/// both orders, and no separator crosses itself.
fn assert_label_crossing_matches_reference(g: &Graph, ms: &MsGraph<'_>, ids: &[SepId]) {
    for &a in ids {
        assert!(!ms.edge(&a, &a), "separator {a} crosses itself");
        let s = ms.separator(a);
        for &b in ids {
            let t = ms.separator(b);
            assert_eq!(ms.edge(&a, &b), crossing(g, &s, &t), "edge({a}, {b})");
        }
    }
}

/// `MsGraph` seen only through its `edge` oracle, so its `build_jv` is
/// the `Sgr` default: one `edge` query per `u ∈ J`.
struct PerPair<'a>(&'a MsGraph<'a>);

impl Sgr for PerPair<'_> {
    type Node = SepId;
    type NodeCursor = ();
    type Scratch = ();

    fn start_nodes(&self) {}

    fn next_node(&self, _: &mut ()) -> Option<SepId> {
        None
    }

    fn edge(&self, u: &SepId, v: &SepId) -> bool {
        self.0.edge(u, v)
    }

    fn extend(&self, base: &[SepId]) -> Vec<SepId> {
        self.0.extend(base)
    }
}

/// `MsGraph::build_jv` (one label fetch per `Jv`, relying on crossing
/// being symmetric) appends exactly what the per-pair default build over
/// `edge` appends, and returns the same, for every `(answer, v)` with
/// `v` in `ids` — over the given answers and, for each `v`, over
/// `J = ids \ {v}`, which asks every pair in the `S_v` orientation.
fn assert_bulk_jv_matches_per_pair(ms: &MsGraph<'_>, answers: &[Vec<SepId>], ids: &[SepId]) {
    let (mut bulk, mut per_pair) = (Vec::new(), Vec::new());
    for &v in ids {
        let others: Vec<SepId> = ids.iter().copied().filter(|&u| u != v).collect();
        for answer in answers.iter().chain([&others]) {
            bulk.clear();
            per_pair.clear();
            assert_eq!(
                build_jv(&ms, answer, &v, &mut ExtendScratch::default(), &mut bulk),
                build_jv(&PerPair(ms), answer, &v, &mut (), &mut per_pair),
                "v ∈ J must agree for v = {v}"
            );
            assert_eq!(bulk, per_pair, "Jv for v = {v}, J = {answer:?}");
        }
    }
}

/// The first `cap` separators of a short enumeration of `g` (its first
/// three answers and the node pulls between them), and those answers.
fn short_enumeration(ms: &MsGraph<'_>, cap: usize) -> (Vec<Vec<SepId>>, Vec<SepId>) {
    let answers: Vec<Vec<SepId>> = EnumMis::new(ms, PrintMode::UponGeneration)
        .take(3)
        .collect();
    let interned = ms.stats().separators_interned.min(cap) as SepId;
    (answers, (0..interned).collect())
}

/// `G(n, p)` on both sides of the 64- and 128-node word boundaries.
#[test]
fn bulk_jv_matches_per_pair_on_gnp() {
    for (seed, n) in (1u64..).zip([63usize, 64, 65, 127, 128, 129, 150]) {
        let g = mintri::workloads::random::erdos_renyi(n, 4.0 / n as f64, seed);
        let ms = MsGraph::new(&g);
        let (answers, ids) = short_enumeration(&ms, 80);
        assert!(ids.len() > 1, "G({n}, p) has too few separators to pin");
        assert_label_crossing_matches_reference(&g, &ms, &ids);
        assert_bulk_jv_matches_per_pair(&ms, &answers, &ids);
    }
}

/// Nested separators: in the 4-cycle `0-1-2-3` with a pendant `4` on `0`,
/// `{0}` cuts off the pendant and `{0, 2}` splits `1` from `3`, so
/// `S_u ⊂ S_v`; the pin runs over every answer and every separator.
#[test]
fn bulk_jv_matches_per_pair_on_nested_separators() {
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]);
    let ms = MsGraph::new(&g);
    let answers: Vec<Vec<SepId>> = EnumMis::new(&ms, PrintMode::UponGeneration).collect();
    let ids: Vec<SepId> = ms.nodes().collect();
    let sets: Vec<Vec<Node>> = ids.iter().map(|&id| ms.separator(id).to_vec()).collect();
    assert!(sets.contains(&vec![0]) && sets.contains(&vec![0, 2]));
    assert_label_crossing_matches_reference(&g, &ms, &ids);
    assert_bulk_jv_matches_per_pair(&ms, &answers, &ids);
}

/// Label crossing, per pair and per `Jv`, on the paper-family graphs
/// (instance 0 of each family, generator seed 2017). Their minimal
/// separators are too many to pull in full, so the check covers the
/// first 120 separators a short enumeration interns (from its first
/// answers and node pulls).
#[test]
fn label_crossing_matches_reference_on_pgm_families() {
    for family in PgmFamily::ALL {
        let g = family.instances(1, 2017).pop().unwrap().graph;
        let ms = MsGraph::new(&g);
        let (answers, ids) = short_enumeration(&ms, 120);
        assert_label_crossing_matches_reference(&g, &ms, &ids);
        assert_bulk_jv_matches_per_pair(&ms, &answers, &ids);
        assert!(ms.stats().crossing_computed <= ms.stats().separators_interned);
    }
}

/// The agreement pinned on the planner's favorite corpus: chained
/// cycles decompose into one atom per cycle, so the ranked odometer
/// (not just the flat ranked stream) carries the best-k query. C4, C5
/// and C6 have 2 × 5 × 14 = 140 minimal triangulations combined.
#[test]
fn ranked_matches_exhaustive_on_chained_cycles() {
    let g = mintri::workloads::random::chained_cycles(&[4, 5, 6]);
    let engine = Engine::new();
    for cost in [CostMeasure::Width, CostMeasure::Fill] {
        for planned in [true, false] {
            for k in [1usize, 3, 200] {
                let exhaustive = best_k_fills_local(&g, k, cost, planned, false);
                assert_eq!(
                    best_k_fills_local(&g, k, cost, planned, true),
                    exhaustive,
                    "local: cost {cost:?} planned {planned} k {k}"
                );
                assert_eq!(
                    best_k_fills_engine(&engine, &g, k, cost, planned, true),
                    exhaustive,
                    "engine: cost {cost:?} planned {planned} k {k}"
                );
            }
        }
    }
}
