//! Contracts of the engine against the sequential reference:
//!
//! * an unplanned query through `Engine::run` reproduces the sequential
//!   enumerator's output **in order**, and its `EnumMIS` counters, in
//!   either print mode, on the same graph families `tests/determinism.rs`
//!   pins — the engine must never change golden outputs;
//! * a planned query reproduces `run_local`'s sequence on random graphs,
//!   cold and replayed, and an unplanned one the sequential iterator's;
//! * the `Engine` session layer serves repeated queries from its warm
//!   cache without recomputation and without changing answers.

use mintri::core::MinimalTriangulationsEnumerator;
use mintri::prelude::*;
use mintri::workloads::pgm::promedas;
use mintri::workloads::random::erdos_renyi;
use proptest::prelude::*;

const PRINT_MODES: [PrintMode; 2] = [PrintMode::UponGeneration, PrintMode::UponPop];

fn sequential_edges(g: &Graph, mode: PrintMode, limit: usize) -> Vec<Vec<(Node, Node)>> {
    MinimalTriangulationsEnumerator::with_config(g, Box::new(McsM), mode)
        .take(limit)
        .map(|t| t.graph.edges())
        .collect()
}

/// The first `limit` results of an unplanned query in print mode `mode`
/// on a cold engine, plus its outcome.
fn engine_run(g: &Graph, mode: PrintMode, limit: usize) -> (Vec<Vec<(Node, Node)>>, QueryOutcome) {
    let mut resp = Engine::new().run(
        g,
        Query::enumerate()
            .mode(mode)
            .policy(ExecPolicy::default().with_planned(false))
            .budget(EnumerationBudget::results(limit)),
    );
    let edges = resp
        .triangulations()
        .iter()
        .map(|t| t.graph.edges())
        .collect();
    (edges, resp.outcome())
}

fn engine_edges(g: &Graph, mode: PrintMode, limit: usize) -> Vec<Vec<(Node, Node)>> {
    engine_run(g, mode, limit).0
}

#[test]
fn deterministic_mode_matches_sequential_on_determinism_families() {
    // the same graphs tests/determinism.rs uses for its golden runs
    let families = [
        erdos_renyi(20, 0.3, 99),
        promedas(12, 36, 3, 5),
        erdos_renyi(25, 0.25, 7),
        mintri::workloads::tpch_query(7).graph,
    ];
    for g in &families {
        for mode in PRINT_MODES {
            assert_eq!(
                engine_edges(g, mode, 50),
                sequential_edges(g, mode, 50),
                "the engine diverged from the sequential order in {mode:?} \
                 on a {}-node graph",
                g.num_nodes()
            );
        }
    }
}

/// An engine query runs the *same* `Frontier` schedule as the
/// sequential iterator, so its `EnumMIS` counters — extend calls,
/// edge queries, nodes generated, answers — must match exactly, not just
/// the emitted stream. Counter drift would mean the schedules diverged
/// even if the outputs happened to agree.
#[test]
fn deterministic_stats_match_sequential_on_determinism_families() {
    let families = [
        erdos_renyi(20, 0.3, 99),
        promedas(12, 36, 3, 5),
        erdos_renyi(25, 0.25, 7),
        mintri::workloads::tpch_query(7).graph,
    ];
    for g in &families {
        for mode in PRINT_MODES {
            let mut seq = MinimalTriangulationsEnumerator::with_config(g, Box::new(McsM), mode);
            let n_seq = seq.by_ref().take(50).count();
            let (edges, outcome) = engine_run(g, mode, 50);
            assert_eq!(n_seq, edges.len());
            assert_eq!(
                seq.enum_stats(),
                outcome
                    .enum_stats
                    .expect("a live engine stream exposes EnumMIS stats"),
                "EnumMIS counters diverged from the sequential schedule in \
                 {mode:?} on a {}-node graph",
                g.num_nodes()
            );
        }
    }
}

#[test]
fn deterministic_mode_is_reproducible_across_runs() {
    let g = erdos_renyi(18, 0.3, 12345);
    let a = engine_edges(&g, PrintMode::UponGeneration, 40);
    let b = engine_edges(&g, PrintMode::UponGeneration, 40);
    assert_eq!(a, b);
}

#[test]
fn engine_replay_preserves_results_across_queries() {
    let engine = Engine::new();
    let g = erdos_renyi(14, 0.25, 3);
    let first: Vec<_> = engine
        .run(&g, Query::enumerate())
        .filter_map(QueryItem::into_triangulation)
        .map(|t| t.graph.edges())
        .collect();
    let computed = engine.session(&g).stats().extends;
    let replay = engine.run(&g, Query::enumerate());
    assert!(replay.is_replay(), "second query must be a cache replay");
    let second: Vec<_> = replay
        .filter_map(QueryItem::into_triangulation)
        .map(|t| t.graph.edges())
        .collect();
    assert_eq!(
        engine.session(&g).stats().extends,
        computed,
        "replay must not invoke Extend"
    );
    assert_eq!(first, second, "replay preserves the order");
    let reference: Vec<_> = Query::enumerate()
        .run_local(&g)
        .triangulations()
        .iter()
        .map(|t| t.graph.edges())
        .collect();
    assert_eq!(first, reference);
}

/// A random graph on `3..=max_n` nodes with independent edge bits (the
/// same strategy `tests/properties.rs` uses).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A planned engine query yields exactly `run_local`'s sequence in
    /// either print mode — cold, then replayed — on every random input,
    /// not just the nice ones.
    #[test]
    fn engine_enumeration_matches_run_local_order(g in graph_strategy(7)) {
        let engine = Engine::new();
        for mode in PRINT_MODES {
            let expected: Vec<_> = Query::enumerate()
                .mode(mode)
                .run_local(&g)
                .triangulations()
                .iter()
                .map(|t| t.graph.edges())
                .collect();
            for _ in ["cold", "replayed"] {
                let got: Vec<_> = engine
                    .run(&g, Query::enumerate().mode(mode))
                    .filter_map(QueryItem::into_triangulation)
                    .map(|t| t.graph.edges())
                    .collect();
                prop_assert_eq!(&got, &expected, "{:?}", mode);
            }
        }
    }

    /// An unplanned engine query agrees with the brute-force-validated
    /// sequential enumerator on arbitrary graphs, in order.
    #[test]
    fn engine_enumeration_matches_sequential_set(g in graph_strategy(6)) {
        let engine = Engine::new();
        let got: Vec<_> = engine
            .run(&g, Query::enumerate().policy(ExecPolicy::default().with_planned(false)))
            .filter_map(QueryItem::into_triangulation)
            .map(|t| t.graph.edges())
            .collect();
        let expected: Vec<_> = MinimalTriangulationsEnumerator::new(&g)
            .map(|t| t.graph.edges())
            .collect();
        prop_assert_eq!(got, expected);
    }
}
