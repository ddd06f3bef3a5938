//! Contracts of the typed `Query` → `Response` front door:
//!
//! * `Query::run_local` is the sequential enumerator, bit for bit — and
//!   every `Engine::run` stream reproduces `run_local`'s sequence, for
//!   every task, planned and unreduced, in either print mode, whether
//!   the engine runs it cold, replays it or hydrates it from a store
//!   (the parity guarantees of `tests/engine_parallel.rs`, exercised
//!   through the one serving entry point);
//! * every task — enumerate, best-k, decompose, stats — matches its
//!   pre-query reference implementation;
//! * warm sessions replay for *ranked and decompose* queries too, with
//!   zero `Extend` calls and `is_replay()` set;
//! * budgets and outcomes are reported identically across executors.

use mintri::core::MinimalTriangulationsEnumerator;
use mintri::engine::{Store, StoreConfig};
use mintri::prelude::*;
use mintri::workloads::random::{chained_cycles, erdos_renyi};
use std::sync::Arc;

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
        let sole = |kind| {
            vec![AtomDispatch {
                index: 0,
                nodes: g.num_nodes(),
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

/// One emitted item in comparable form: a triangulation's edge list, a
/// decomposition's bags and tree edges, or a record's index, width and
/// fill (its timestamp differs run to run).
fn item_key(item: QueryItem) -> String {
    match item {
        QueryItem::Triangulation(t) => format!("{:?}", t.graph.edges()),
        QueryItem::Decomposition(d) => {
            let bags: Vec<_> = d.bags.iter().map(|b| b.to_vec()).collect();
            format!("{bags:?} {:?}", d.edges)
        }
        QueryItem::Record(r) => format!("{} {} {}", r.index, r.width, r.fill),
    }
}

/// Every task shape a query can take, the ranked gear and the
/// exhaustive scan both.
const TASKS: [&str; 6] = [
    "enumerate",
    "best_k ranked",
    "best_k exhaustive",
    "decompose all",
    "decompose one",
    "stats",
];

/// The query for one of [`TASKS`], under a results budget that keeps the
/// decomposition expansion small.
fn task_query(task: &str, policy: ExecPolicy, mode: PrintMode) -> Query {
    let (query, policy) = match task {
        "enumerate" => (Query::enumerate(), policy),
        "best_k ranked" => (Query::best_k(4, CostMeasure::Width), policy),
        "best_k exhaustive" => (
            Query::best_k(4, CostMeasure::Fill),
            policy.with_ranked(false),
        ),
        "decompose all" => (
            Query::decompose(TdEnumerationMode::AllDecompositions),
            policy,
        ),
        "decompose one" => (Query::decompose(TdEnumerationMode::OnePerClass), policy),
        "stats" => (Query::stats(), policy),
        other => unreachable!("unknown task {other}"),
    };
    query
        .policy(policy)
        .mode(mode)
        .budget(EnumerationBudget::results(400))
}

/// How an engine comes to serve a query.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Round {
    /// A fresh engine runs it live.
    Cold,
    /// An engine whose sessions hold the completed answer lists.
    Replayed,
    /// A fresh engine over a store that holds them.
    Hydrated,
}

/// Drains `response` into comparable items plus its outcome.
fn drain_keys(mut response: Response<'_>) -> (Vec<String>, QueryOutcome) {
    let items = response.by_ref().map(item_key).collect();
    (items, response.outcome())
}

/// The whole matrix on `g`: every task, planned and unreduced, in both
/// print modes, served cold, replayed and hydrated, must emit exactly
/// the items `run_local` emits and end the same way. A cold live run
/// also reports the local run's `EnumMIS` counters.
fn assert_engine_matches_run_local_everywhere(g: &Graph, tag: &str) {
    let root = std::env::temp_dir().join(format!("mintri-query-api-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(Store::open(StoreConfig::at(&root)).expect("store opens"));
    let warm = Engine::with_store(EngineConfig::default(), Arc::clone(&store));
    let policies = [
        ExecPolicy::default(),
        ExecPolicy::default().with_planned(false),
    ];
    for policy in policies {
        // Record every atom of this plan to completion.
        let recorded = warm.run(g, Query::enumerate().policy(policy)).wait();
        assert!(recorded.completed, "{tag}: the recording completes");
    }
    store.flush();
    for policy in policies {
        for mode in [PrintMode::UponGeneration, PrintMode::UponPop] {
            for task in TASKS {
                let (expected, local) = drain_keys(task_query(task, policy, mode).run_local(g));
                for round in [Round::Cold, Round::Replayed, Round::Hydrated] {
                    let at = format!("{tag} {task} {policy:?} {mode:?} {round:?}");
                    let q = task_query(task, policy, mode);
                    let response = match round {
                        Round::Cold => Engine::new().run(g, q),
                        Round::Replayed => warm.run(g, q),
                        Round::Hydrated => {
                            Engine::with_store(EngineConfig::default(), Arc::clone(&store))
                                .run(g, q)
                        }
                    };
                    let (items, outcome) = drain_keys(response);
                    assert_eq!(items, expected, "{at}: items");
                    assert_eq!(outcome.produced, local.produced, "{at}: produced");
                    assert_eq!(outcome.scanned, local.scanned, "{at}: scanned");
                    assert_eq!(outcome.completed, local.completed, "{at}: completed");
                    match round {
                        Round::Cold => {
                            assert_eq!(outcome.enum_stats, local.enum_stats, "{at}: counters")
                        }
                        _ => assert!(outcome.replayed, "{at}: served without Extend"),
                    }
                }
            }
        }
    }
    drop(warm);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deterministic_engine_queries_match_run_local_exactly() {
    for (i, g) in [
        erdos_renyi(10, 0.3, 99),
        erdos_renyi(9, 0.4, 7),
        erdos_renyi(11, 0.25, 3),
    ]
    .iter()
    .enumerate()
    {
        assert!(!is_chordal(g), "a corpus graph has something to enumerate");
        assert_engine_matches_run_local_everywhere(g, &format!("random{i}"));
    }
}

#[test]
fn engine_queries_match_run_local_exactly_on_chained_cycles() {
    for (i, shape) in [&[4usize, 6][..], &[5, 4, 5], &[6, 6]].iter().enumerate() {
        assert_engine_matches_run_local_everywhere(&chained_cycles(shape), &format!("chain{i}"));
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
    let engine = Engine::new();
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
