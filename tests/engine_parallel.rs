//! Contracts of the parallel engine against the sequential reference:
//!
//! * `Delivery::Deterministic` reproduces the sequential enumerator's
//!   output **in order** on the same graph families `tests/determinism.rs`
//!   pins — parallel hardware must never change golden outputs;
//! * `Delivery::Unordered` reproduces the answer **set** at every thread
//!   count (property-tested over random graphs at 1, 2 and 4 threads);
//! * the `Engine` session layer serves repeated queries from its warm
//!   cache without recomputation and without changing answers.

use mintri::core::MinimalTriangulationsEnumerator;
use mintri::engine::{Delivery, Engine, EngineConfig, ParallelEnumerator};
use mintri::prelude::*;
use mintri::triangulate::McsM;
use mintri::workloads::pgm::promedas;
use mintri::workloads::random::erdos_renyi;
use proptest::prelude::*;

fn sequential_edges(g: &Graph, limit: usize) -> Vec<Vec<(Node, Node)>> {
    MinimalTriangulationsEnumerator::new(g)
        .take(limit)
        .map(|t| t.graph.edges())
        .collect()
}

fn deterministic_parallel_edges(g: &Graph, threads: usize, limit: usize) -> Vec<Vec<(Node, Node)>> {
    ParallelEnumerator::with_config(
        g,
        Box::new(McsM),
        &EngineConfig {
            threads,
            delivery: Delivery::Deterministic,
            ..EngineConfig::default()
        },
        PrintMode::UponGeneration,
    )
    .take(limit)
    .map(|t| t.graph.edges())
    .collect()
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
        let expected = sequential_edges(g, 50);
        for threads in [2, 4] {
            assert_eq!(
                deterministic_parallel_edges(g, threads, 50),
                expected,
                "Deterministic delivery diverged from the sequential order \
                 at {threads} threads on a {}-node graph",
                g.num_nodes()
            );
        }
    }
}

/// The deterministic driver runs the *same* `Frontier` schedule as the
/// sequential iterator, so its `EnumMIS` counters — extend calls, edge
/// queries, nodes generated, answers — must match exactly, not just the
/// emitted stream. Counter drift would mean the schedules diverged even
/// if the outputs happened to agree.
#[test]
fn deterministic_stats_match_sequential_on_determinism_families() {
    let families = [
        erdos_renyi(20, 0.3, 99),
        promedas(12, 36, 3, 5),
        erdos_renyi(25, 0.25, 7),
        mintri::workloads::tpch_query(7).graph,
    ];
    for g in &families {
        let mut seq = MinimalTriangulationsEnumerator::new(g);
        let n_seq = seq.by_ref().take(50).count();
        for threads in [2, 4] {
            let mut par = ParallelEnumerator::with_config(
                g,
                Box::new(McsM),
                &EngineConfig {
                    threads,
                    delivery: Delivery::Deterministic,
                    ..EngineConfig::default()
                },
                PrintMode::UponGeneration,
            );
            let n_par = par.by_ref().take(50).count();
            assert_eq!(n_seq, n_par);
            assert_eq!(
                seq.enum_stats(),
                par.enum_stats()
                    .expect("deterministic delivery exposes EnumMIS stats"),
                "EnumMIS counters diverged from the sequential schedule at \
                 {threads} threads on a {}-node graph",
                g.num_nodes()
            );
        }
    }
}

#[test]
fn deterministic_mode_is_reproducible_across_runs() {
    let g = erdos_renyi(18, 0.3, 12345);
    let a = deterministic_parallel_edges(&g, 4, 40);
    let b = deterministic_parallel_edges(&g, 4, 40);
    assert_eq!(a, b);
}

#[test]
fn engine_replay_preserves_results_across_queries() {
    let engine = Engine::new();
    let g = erdos_renyi(14, 0.25, 3);
    let mut first: Vec<_> = engine
        .run(&g, Query::enumerate())
        .filter_map(QueryItem::into_triangulation)
        .map(|t| t.graph.edges())
        .collect();
    let computed = engine.session(&g).stats().extends;
    let replay = engine.run(&g, Query::enumerate());
    assert!(replay.is_replay(), "second query must be a cache replay");
    let mut second: Vec<_> = replay
        .filter_map(QueryItem::into_triangulation)
        .map(|t| t.graph.edges())
        .collect();
    assert_eq!(
        engine.session(&g).stats().extends,
        computed,
        "replay must not invoke Extend"
    );
    first.sort();
    second.sort();
    assert_eq!(first, second);
    let mut reference: Vec<_> = MinimalTriangulationsEnumerator::new(&g)
        .map(|t| t.graph.edges())
        .collect();
    reference.sort();
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

    /// `Unordered` mode yields exactly the sequential answer set at 1, 2
    /// and 4 threads — on every random input, not just the nice ones.
    #[test]
    fn unordered_mode_yields_the_same_set_at_every_thread_count(g in graph_strategy(7)) {
        let mut expected: Vec<_> = MinimalTriangulationsEnumerator::new(&g)
            .map(|t| t.graph.edges())
            .collect();
        expected.sort();
        for threads in [1usize, 2, 4] {
            let mut got: Vec<_> = ParallelEnumerator::new(&g, threads)
                .map(|t| t.graph.edges())
                .collect();
            got.sort();
            prop_assert_eq!(&got, &expected, "thread count {}", threads);
        }
    }

    /// The engine session agrees with brute-force-validated sequential
    /// enumeration on arbitrary graphs.
    #[test]
    fn engine_enumeration_matches_sequential_set(g in graph_strategy(6)) {
        let engine = Engine::new();
        let mut got: Vec<_> = engine
            .run(&g, Query::enumerate())
            .filter_map(QueryItem::into_triangulation)
            .map(|t| t.graph.edges())
            .collect();
        got.sort();
        let mut expected: Vec<_> = MinimalTriangulationsEnumerator::new(&g)
            .map(|t| t.graph.edges())
            .collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }
}
