//! Contracts of the typed `Query` → `Response` front door:
//!
//! * `Query::run_local` is the sequential enumerator, bit for bit — and
//!   `Engine::run` with `Delivery::Deterministic` reproduces it at every
//!   thread count, while `Delivery::Unordered` reproduces the answer
//!   *set* (the parity guarantees of `tests/engine_parallel.rs`, now
//!   exercised through the one serving entry point);
//! * every task — enumerate, best-k, decompose, stats — matches its
//!   pre-query reference implementation;
//! * warm sessions replay for *ranked and decompose* queries too, with
//!   zero `Extend` calls and `is_replay()` set;
//! * budgets and outcomes are reported identically across executors.

use mintri::core::MinimalTriangulationsEnumerator;
use mintri::prelude::*;
use mintri::workloads::random::erdos_renyi;

fn edges_of(tris: &[Triangulation]) -> Vec<Vec<(Node, Node)>> {
    tris.iter().map(|t| t.graph.edges()).collect()
}

/// Runs `query` through `run_local`, or through a fresh engine when
/// `engine` is set, and returns the emitted edge lists plus the outcome.
fn run_on(g: &Graph, query: Query, engine: bool) -> (Vec<Vec<(Node, Node)>>, QueryOutcome) {
    let mut response = if engine {
        Engine::new().run(g, query)
    } else {
        query.run_local(g)
    };
    let edges = edges_of(&response.triangulations());
    (edges, response.outcome())
}

fn atom_spans(outcome: &QueryOutcome) -> usize {
    let trace = outcome.trace.as_ref().expect("traced query");
    let query = trace.find("query").expect("root query span");
    query.children.iter().filter(|c| c.name == "atom").count()
}

#[test]
fn unplanned_run_local_is_the_sequential_iterator_bit_for_bit() {
    // A plan that reduces nothing — planning off, or a graph whose plan
    // is one atom spanning it — hands the whole-graph sequential
    // enumerator through unwrapped, on both executors: the same order
    // and `EnumMIS` counters, one dispatch entry and one `atom` span.
    let single_atom: Vec<Graph> = (0..)
        .map(|seed| erdos_renyi(12, 0.35, seed))
        .filter(|g| Plan::of(g).is_unreduced())
        .take(3)
        .collect();
    // C4 and C5 glued at vertex 0, plus a pendant path: several atoms.
    let multi_atom = Graph::from_edges(
        11,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (0, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 0),
            (7, 8),
            (8, 9),
            (9, 10),
        ],
    );
    assert!(Plan::of(&multi_atom).atoms.len() > 1);
    let unplanned = ExecPolicy::default().with_planned(false);
    let mut cases: Vec<(&Graph, ExecPolicy)> = vec![(&multi_atom, unplanned)];
    for g in &single_atom {
        cases.push((g, ExecPolicy::default()));
        cases.push((g, unplanned));
    }
    for (g, policy) in cases {
        let policy = policy.with_threads(1);
        let sole = |kind| {
            vec![AtomDispatch {
                index: 0,
                nodes: g.num_nodes(),
                threads: 1,
                kind,
            }]
        };
        for mode in [PrintMode::UponGeneration, PrintMode::UponPop] {
            let mut direct = MinimalTriangulationsEnumerator::with_config(g, Box::new(McsM), mode);
            let expected: Vec<_> = direct.by_ref().take(300).map(|t| t.graph.edges()).collect();
            let expected_stats = direct.enum_stats();
            for engine in [false, true] {
                let query = Query::enumerate()
                    .policy(policy)
                    .mode(mode)
                    .budget(EnumerationBudget::results(300))
                    .traced(true);
                let (edges, outcome) = run_on(g, query, engine);
                let at = format!("{policy:?} {mode:?} engine={engine}");
                assert_eq!(edges, expected, "{at}");
                assert_eq!(outcome.enum_stats, Some(expected_stats), "{at}");
                assert_eq!(outcome.dispatch, sole(DispatchKind::Sequential), "{at}");
                assert_eq!(atom_spans(&outcome), 1, "{at}");
            }
        }
        // Best-k rides the ranked gear over the same unwrapped stream.
        let expected = edges_of(&best_k_of_stream(
            MinimalTriangulationsEnumerator::new(g),
            5,
            EnumerationBudget::unlimited(),
            |t| t.fill_count(),
        ));
        let best_k = || {
            Query::best_k(5, CostMeasure::Fill)
                .policy(policy)
                .traced(true)
        };
        let (local_edges, local) = run_on(g, best_k(), false);
        let (engine_edges, served) = run_on(g, best_k(), true);
        assert_eq!(local_edges, expected, "{policy:?}");
        assert_eq!(engine_edges, expected, "{policy:?}");
        assert_eq!(local.enum_stats, served.enum_stats, "{policy:?}");
        for outcome in [&local, &served] {
            assert_eq!(outcome.dispatch, sole(DispatchKind::Ranked), "{policy:?}");
            assert_eq!(atom_spans(outcome), 1, "{policy:?}");
        }
    }
}

#[test]
fn planned_run_local_matches_the_unreduced_answer_set() {
    // Planning may reorder (the composed odometer order) but never
    // changes the answer set — here on a graph with several atoms: two
    // cycles and a pendant path glued on.
    let mut g = erdos_renyi(8, 0.35, 5);
    let base = g.num_nodes() as Node;
    let mut grow = |edges: &[(Node, Node)]| {
        let n = g.num_nodes() + edges.len();
        let mut bigger = Graph::new(n);
        for (u, v) in g.edges() {
            bigger.add_edge(u, v);
        }
        for &(u, v) in edges {
            bigger.add_edge(u, v);
        }
        g = bigger;
    };
    grow(&[
        (0, base),
        (base, base + 1),
        (base + 1, base + 2),
        (base + 2, 0),
        (base + 2, base + 3),
        (base + 3, base + 4),
    ]);
    let planned = {
        let mut v = edges_of(&Query::enumerate().run_local(&g).triangulations());
        v.sort();
        v
    };
    let unreduced = {
        let mut v = edges_of(
            &Query::enumerate()
                .policy(ExecPolicy::default().with_planned(false))
                .run_local(&g)
                .triangulations(),
        );
        v.sort();
        v
    };
    assert_eq!(planned, unreduced);
}

#[cfg(feature = "parallel")]
#[test]
fn deterministic_engine_queries_match_run_local_exactly() {
    let g = erdos_renyi(16, 0.3, 99);
    let reference = edges_of(&Query::enumerate().run_local(&g).triangulations());
    for threads in [2, 4] {
        let engine = Engine::new();
        let got: Vec<_> = engine
            .run(
                &g,
                Query::enumerate().policy(
                    ExecPolicy::default()
                        .with_threads(threads)
                        .with_delivery(Delivery::Deterministic),
                ),
            )
            .filter_map(QueryItem::into_triangulation)
            .map(|t| t.graph.edges())
            .collect();
        assert_eq!(got, reference, "{threads} threads");
    }
}

#[cfg(feature = "parallel")]
#[test]
fn unordered_engine_queries_match_the_answer_set() {
    let g = erdos_renyi(14, 0.3, 41);
    let mut reference = edges_of(&Query::enumerate().run_local(&g).triangulations());
    reference.sort();
    for threads in [2, 4] {
        let engine = Engine::new();
        let mut got: Vec<_> = engine
            .run(
                &g,
                Query::enumerate().policy(ExecPolicy::default().with_threads(threads)),
            )
            .filter_map(QueryItem::into_triangulation)
            .map(|t| t.graph.edges())
            .collect();
        got.sort();
        assert_eq!(got, reference, "{threads} threads");
    }
}

#[test]
fn best_k_task_matches_the_selection_loop() {
    let g = erdos_renyi(12, 0.3, 3);
    let via_task = edges_of(
        &Query::best_k(5, CostMeasure::Fill)
            .run_local(&g)
            .triangulations(),
    );
    let via_loop = edges_of(&best_k_of_stream(
        MinimalTriangulationsEnumerator::new(&g),
        5,
        EnumerationBudget::unlimited(),
        |t| t.fill_count(),
    ));
    assert_eq!(via_task, via_loop);
}

#[test]
fn decompose_task_matches_proper_tree_decompositions() {
    let g = Graph::cycle(6);
    let via_task: Vec<_> = Query::decompose(TdEnumerationMode::AllDecompositions)
        .run_local(&g)
        .decompositions()
        .iter()
        .map(|d| (d.num_bags(), d.width()))
        .collect();
    let direct: Vec<_> = ProperTreeDecompositions::new(&g)
        .map(|d| (d.num_bags(), d.width()))
        .collect();
    assert_eq!(via_task, direct);
}

#[test]
fn ranked_and_decompose_engine_queries_replay_warm_sessions() {
    // The replay-bypass fix: a best-k query on warm sessions must serve
    // from the completed-answer caches — zero Extend calls — and say so.
    // (`memo_stats` aggregates over all sessions, so this holds whether
    // the graph planned into several atom sessions or one whole-graph
    // session.)
    let engine = Engine::new();
    let g = erdos_renyi(12, 0.25, 11);

    let mut cold = engine.run(&g, Query::best_k(2, CostMeasure::Width));
    assert!(!cold.is_replay());
    let cold_best = edges_of(&cold.triangulations());
    let extends = engine.memo_stats().extends;
    assert!(extends > 0);

    let mut warm = engine.run(&g, Query::best_k(2, CostMeasure::Width));
    assert!(
        warm.is_replay(),
        "ranked query must replay the warm sessions"
    );
    assert_eq!(edges_of(&warm.triangulations()), cold_best);
    assert!(warm.outcome().replayed);
    assert_eq!(
        engine.memo_stats().extends,
        extends,
        "replayed ranked query must not call Extend"
    );

    let warm_decompose = engine.run(&g, Query::decompose(TdEnumerationMode::OnePerClass));
    assert!(
        warm_decompose.is_replay(),
        "decompose query must replay the warm sessions"
    );
    assert!(warm_decompose.count() > 0);
    assert_eq!(engine.memo_stats().extends, extends);

    // …and the instrumented stats task replays too.
    let warm_stats = engine.run(&g, Query::stats());
    assert!(warm_stats.is_replay());
    let outcome = warm_stats.wait();
    assert!(outcome.replayed && outcome.completed);
    assert_eq!(engine.memo_stats().extends, extends);
}

#[test]
fn atom_sessions_carry_warm_state_between_different_graphs() {
    // The cross-query sharing per-atom keying buys: two *different*
    // graphs containing the same atom. The second query replays the
    // shared atom's recorded answers — `is_replay()`/`outcome()`-level
    // evidence plus flat engine-wide Extend counters.
    let engine = Engine::new();
    let c6: &[(Node, Node)] = &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)];
    // g1: the C6 atom plus a pendant C4 glued at vertex 0
    let mut g1 = Graph::from_edges(9, c6);
    for &(u, v) in &[(0, 6), (6, 7), (7, 8), (8, 0)] {
        g1.add_edge(u, v);
    }
    // g2: the same C6 atom plus a pendant edge — a different graph
    let mut g2 = Graph::from_edges(7, c6);
    g2.add_edge(0, 6);

    let mut first = engine.run(&g1, Query::enumerate());
    assert!(!first.is_replay());
    assert_eq!(first.by_ref().count(), 14 * 2, "C6 × C4 product");
    assert!(first.outcome().completed);
    let extends_after_g1 = engine.memo_stats().extends;
    assert!(extends_after_g1 > 0);

    // g2's only non-trivial atom is the shared C6 ⇒ full replay.
    let mut second = engine.run(&g2, Query::enumerate());
    assert!(
        second.is_replay(),
        "a different graph sharing the atom must replay its warm session"
    );
    assert_eq!(second.by_ref().count(), 14);
    let outcome = second.outcome();
    assert!(outcome.replayed && outcome.completed);
    assert_eq!(
        engine.memo_stats().extends,
        extends_after_g1,
        "the shared atom served from cache: zero new Extend calls"
    );
}

#[test]
fn outcomes_agree_between_local_and_engine_execution() {
    let g = Graph::cycle(7);
    let local = Query::stats().run_local(&g).wait();
    let engine = Engine::with_config(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let served = engine.run(&g, Query::stats()).wait();
    assert_eq!(local.scanned, served.scanned);
    assert_eq!(local.completed, served.completed);
    assert_eq!(
        local.enum_stats.expect("sequential stats"),
        served.enum_stats.expect("engine sequential stats"),
        "the engine's sequential path runs the identical schedule"
    );
}

#[test]
fn budget_is_honored_identically_across_executors() {
    let g = erdos_renyi(12, 0.3, 17);
    let engine = Engine::new();
    for k in [1usize, 4, 9] {
        let local = Query::enumerate()
            .budget(EnumerationBudget::results(k))
            .run_local(&g)
            .triangulations()
            .len();
        let served = engine
            .run(&g, Query::enumerate().budget(EnumerationBudget::results(k)))
            .count();
        assert!(local <= k);
        assert_eq!(local, served, "budget results({k})");
    }
}
