//! The default dispatch contract. Under `ExecPolicy::default()` an
//! engine must answer exactly what `Query::run_local` answers: the same
//! sequence, in either print mode, and the same best-k winners — on a
//! cold engine, again once the first run's recordings replay, and again
//! after `clear_sessions`. Concurrent consumers sharing one engine get
//! the same sequence each. A ranked query that follows a default
//! enumeration replays every atom that enumeration recorded.

use mintri::core::{AtomDispatch, DispatchKind};
use mintri::prelude::*;
use mintri::workloads::random::chained_cycles;
use proptest::prelude::*;

type Answers = Vec<Vec<(Node, Node)>>;

const PRINT_MODES: [PrintMode; 2] = [PrintMode::UponGeneration, PrintMode::UponPop];

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

/// Drains one response into the full edge list of each triangulation —
/// a faithful identity for order comparisons — plus the per-atom
/// dispatch it reported.
fn drain(mut resp: Response<'_>) -> (Answers, Vec<AtomDispatch>) {
    let answers = resp
        .by_ref()
        .filter_map(QueryItem::into_triangulation)
        .map(|t| t.graph.edges())
        .collect();
    (answers, resp.outcome().dispatch)
}

/// The default policy on `engine` against `run_local`, in both print
/// modes: cold, replayed, and after `clear_sessions`.
fn assert_default_matches_run_local(engine: &Engine, g: &Graph) {
    for mode in PRINT_MODES {
        let (local, _) = drain(Query::enumerate().mode(mode).run_local(g));
        for round in ["cold", "replayed"] {
            let (order, _) = drain(engine.run(g, Query::enumerate().mode(mode)));
            assert_eq!(
                order, local,
                "{mode:?} ({round}): the engine changed the order"
            );
        }
        engine.clear_sessions();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The default policy matches `run_local` on random graphs.
    #[test]
    fn default_dispatch_matches_run_local_on_random_graphs(g in graph_strategy(6)) {
        assert_default_matches_run_local(&Engine::new(), &g);
    }

    /// The same with two consumers running it in parallel on one shared
    /// engine: each gets `run_local`'s sequence whichever of them
    /// records an atom's answers first.
    #[test]
    fn default_dispatch_matches_run_local_on_random_graphs_parallel(g in graph_strategy(6)) {
        let engine = Engine::new();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let (local, _) = drain(Query::enumerate().run_local(&g));
                    for _ in 0..3 {
                        let (order, _) = drain(engine.run(&g, Query::enumerate()));
                        assert_eq!(order, local, "a shared engine changed the order");
                    }
                });
            }
        });
    }
}

/// Chained cycles plan to one atom per cycle, so the composed odometer
/// runs over several streams.
#[test]
fn default_dispatch_matches_run_local_on_chained_cycles() {
    let engine = Engine::new();
    for shape in [&[4usize, 6][..], &[4, 5, 6], &[5, 5]] {
        assert_default_matches_run_local(&engine, &chained_cycles(shape));
    }
}

/// Ranked best-k under the default policy picks the winners `run_local`
/// picks, in the same order, cold and replayed.
#[test]
fn default_best_k_matches_run_local_on_chained_cycles() {
    let g = chained_cycles(&[4, 5, 6]);
    let best = || Query::best_k(7, CostMeasure::Fill);
    let fills = |resp: Response<'_>| -> (Answers, Vec<AtomDispatch>) {
        let mut resp = resp;
        let fills = resp.triangulations().into_iter().map(|t| t.fill).collect();
        (fills, resp.outcome().dispatch)
    };
    let (local, _) = fills(best().run_local(&g));
    assert_eq!(local.len(), 7);
    let engine = Engine::new();
    for round in ["cold", "cleared"] {
        let (winners, dispatch) = fills(engine.run(&g, best()));
        assert_eq!(winners, local, "best-k winners diverged ({round})");
        assert_eq!(dispatch.len(), 3);
        assert!(dispatch.iter().all(|d| d.kind == DispatchKind::Ranked));
        engine.clear_sessions();
    }
    // Once a default enumeration has recorded every atom, the ranked
    // gear replays them and still picks the same winners.
    assert_eq!(engine.run(&g, Query::enumerate()).count(), 2 * 5 * 14);
    let ranked = engine.run(&g, best());
    assert!(ranked.is_replay());
    let (winners, _) = fills(ranked);
    assert_eq!(winners, local, "replayed best-k winners diverged");
}

/// A default `enumerate` on a 2-atom graph records each atom's answer
/// list; a ranked `best_k` on the same engine then serves every atom by
/// replay, with zero new `Extend` calls, and picks `run_local`'s
/// winners.
#[test]
fn ranked_best_k_replays_every_atom_a_default_enumerate_recorded() {
    let g = chained_cycles(&[5, 6]);
    let engine = Engine::new();
    let (all, dispatch) = drain(engine.run(&g, Query::enumerate()));
    assert_eq!(all.len(), 5 * 14);
    assert_eq!(dispatch.len(), 2, "a 2-atom plan");
    let extends = engine.memo_stats().extends;
    assert!(extends > 0);

    let best = || Query::best_k(4, CostMeasure::Width);
    let mut ranked = engine.run(&g, best());
    let winners: Vec<_> = ranked
        .triangulations()
        .into_iter()
        .map(|t| t.fill)
        .collect();
    let outcome = ranked.outcome();
    assert!(outcome.replayed, "every atom is served by replay");
    assert_eq!(outcome.dispatch.len(), 2);
    assert!(outcome
        .dispatch
        .iter()
        .all(|d| d.kind == DispatchKind::Ranked));
    assert_eq!(
        engine.memo_stats().extends,
        extends,
        "the ranked query made no new Extend call"
    );
    let local: Vec<_> = best()
        .run_local(&g)
        .triangulations()
        .into_iter()
        .map(|t| t.fill)
        .collect();
    assert_eq!(winners, local);
}
