//! The planning-layer reduction, pinned:
//!
//! * planned enumeration is **set- and count-identical** to the
//!   unreduced whole-graph path — property-tested over random `G(n,p)`
//!   graphs (which are frequently disconnected and pendant-heavy, i.e.
//!   atom-rich), explicit disconnected compositions, and graphs that
//!   are already chordal / atom-free;
//! * the composed `Delivery::Deterministic` order is **stable across
//!   thread counts** and identical to `run_local`'s planned order;
//! * budgets and cancellation cut composed streams exactly like flat
//!   ones.

use mintri::prelude::*;
use mintri::workloads::random::{chained_cycles, erdos_renyi};
use proptest::prelude::*;

fn sorted_edges(tris: Vec<Triangulation>) -> Vec<Vec<(Node, Node)>> {
    let mut out: Vec<_> = tris.iter().map(|t| t.graph.edges()).collect();
    out.sort();
    out
}

fn planned_local(g: &Graph) -> Vec<Vec<(Node, Node)>> {
    sorted_edges(Query::enumerate().run_local(g).triangulations())
}

fn unreduced_local(g: &Graph) -> Vec<Vec<(Node, Node)>> {
    sorted_edges(
        Query::enumerate()
            .policy(ExecPolicy::default().with_planned(false))
            .run_local(g)
            .triangulations(),
    )
}

#[test]
fn chained_cycles_plan_one_atom_per_cycle() {
    let g = chained_cycles(&[6, 5, 7]);
    let plan = Plan::of(&g);
    assert_eq!(plan.atoms.len(), 3);
    assert_eq!(plan.decomposition.separators.len(), 2);
    // Catalan(4) × Catalan(3) × Catalan(5)
    let results = Query::enumerate().run_local(&g).triangulations();
    assert_eq!(results.len(), 14 * 5 * 42);
}

#[test]
fn planned_matches_unreduced_on_disconnected_graphs() {
    // C4 + C5 + P3 + isolated vertex
    let g = Graph::from_edges(
        13,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 4),
            (9, 10),
            (10, 11),
        ],
    );
    let planned = planned_local(&g);
    assert_eq!(planned.len(), 2 * 5);
    assert_eq!(planned, unreduced_local(&g));
}

#[test]
fn planned_matches_unreduced_on_chordal_graphs() {
    for g in [
        Graph::path(8),
        Graph::complete(5),
        McsM.triangulate(&erdos_renyi(10, 0.3, 7)).graph,
        Graph::new(4),
    ] {
        let planned = planned_local(&g);
        assert_eq!(planned.len(), 1, "chordal graphs have one triangulation");
        assert_eq!(planned, unreduced_local(&g));
    }
}

#[cfg(feature = "parallel")]
#[test]
fn composed_deterministic_order_is_stable_across_thread_counts() {
    let g = chained_cycles(&[6, 4, 5]);
    let reference: Vec<_> = Query::enumerate()
        .run_local(&g)
        .triangulations()
        .iter()
        .map(|t| t.graph.edges())
        .collect();
    assert_eq!(reference.len(), 14 * 2 * 5);
    for threads in [1usize, 2, 4] {
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
        assert_eq!(
            got, reference,
            "composed order diverged at {threads} threads"
        );
        // …and the deterministic replay preserves it too.
        let replay = engine.run(
            &g,
            Query::enumerate().policy(
                ExecPolicy::default()
                    .with_threads(threads)
                    .with_delivery(Delivery::Deterministic),
            ),
        );
        assert!(replay.is_replay());
        let replayed: Vec<_> = replay
            .filter_map(QueryItem::into_triangulation)
            .map(|t| t.graph.edges())
            .collect();
        assert_eq!(
            replayed, reference,
            "replay order diverged at {threads} threads"
        );
    }
}

#[cfg(feature = "parallel")]
#[test]
fn composed_unordered_engine_queries_match_the_set() {
    let g = chained_cycles(&[5, 6]);
    let reference = planned_local(&g);
    for threads in [2usize, 4] {
        let engine = Engine::new();
        let got = sorted_edges(
            engine
                .run(
                    &g,
                    Query::enumerate().policy(ExecPolicy::default().with_threads(threads)),
                )
                .filter_map(QueryItem::into_triangulation)
                .collect(),
        );
        assert_eq!(got, reference, "{threads} threads");
    }
}

#[test]
fn budgets_truncate_composed_streams() {
    let g = chained_cycles(&[6, 6]);
    let mut response = Query::enumerate()
        .budget(EnumerationBudget::results(17))
        .run_local(&g);
    assert_eq!(response.by_ref().count(), 17);
    let outcome = response.outcome();
    assert_eq!(outcome.produced, 17);
    assert!(!outcome.completed, "a truncated product is not complete");
}

#[test]
fn cancellation_stops_composed_streams() {
    let g = chained_cycles(&[7, 7]);
    let mut response = Query::enumerate().run_local(&g);
    let token = response.cancel_token();
    assert!(response.next().is_some());
    token.cancel();
    assert!(response.next().is_none());
    let outcome = response.outcome();
    assert!(outcome.cancelled && !outcome.completed);
}

#[test]
fn best_k_and_decompose_tasks_run_over_composed_streams() {
    let g = chained_cycles(&[5, 4]);
    let best = Query::best_k(3, CostMeasure::Fill)
        .run_local(&g)
        .triangulations();
    assert_eq!(best.len(), 3);
    // every minimal triangulation of C5+C4 fills (5-3) + (4-3) edges
    assert!(best.iter().all(|t| t.fill_count() == 3));
    let mut response = Query::decompose(TdEnumerationMode::OnePerClass).run_local(&g);
    let ds = response.decompositions();
    assert_eq!(ds.len(), 5 * 2);
    assert!(ds.iter().all(|d| d.is_proper(&g)));
    assert!(response.outcome().completed);
}

/// A random graph on `3..=max_n` nodes with independent edge bits —
/// frequently disconnected, pendant-heavy and clique-separable, which is
/// exactly the population planning rearranges.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline reduction contract: planned enumeration is
    /// set-identical (and therefore count-identical) to unreduced on
    /// arbitrary graphs, for the local executor.
    #[test]
    fn planned_enumeration_is_set_identical_to_unreduced(g in graph_strategy(8)) {
        prop_assert_eq!(planned_local(&g), unreduced_local(&g));
    }

    /// The same contract through the engine, at several thread counts.
    #[test]
    fn planned_engine_queries_are_set_identical_to_unreduced(g in graph_strategy(7)) {
        let reference = unreduced_local(&g);
        for threads in [1usize, 2] {
            let engine = Engine::new();
            let got = sorted_edges(
                engine
                    .run(&g, Query::enumerate().policy(ExecPolicy::default().with_threads(threads)))
                    .filter_map(QueryItem::into_triangulation)
                    .collect(),
            );
            prop_assert_eq!(&got, &reference, "thread count {}", threads);
        }
    }
}
