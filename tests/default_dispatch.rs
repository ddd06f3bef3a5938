//! The default dispatch contract. With the thread count left to the
//! engine (`ExecPolicy::default()`), a multi-threaded engine must answer
//! exactly what `Query::run_local` answers: the same set under
//! `Delivery::Unordered`, the same sequence under
//! `Delivery::Deterministic`, the same best-k winners. It must also keep
//! the one scheduling rule: every per-atom stream under the
//! deterministic contract (ranked best-k included) runs on one thread,
//! with the thread count left to the engine or given explicitly.
//! Each check runs on a cold engine and again after `clear_sessions`.

use mintri::core::{AtomDispatch, DispatchKind};
use mintri::prelude::*;
use mintri::workloads::random::chained_cycles;
use proptest::prelude::*;

type Answers = Vec<Vec<(Node, Node)>>;

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
/// a faithful identity for both set and order comparisons — plus the
/// per-atom dispatch it reported.
fn drain(mut resp: Response<'_>) -> (Answers, Vec<AtomDispatch>) {
    let answers = resp
        .by_ref()
        .filter_map(QueryItem::into_triangulation)
        .map(|t| t.graph.edges())
        .collect();
    (answers, resp.outcome().dispatch)
}

fn sorted(mut v: Answers) -> Answers {
    v.sort();
    v
}

fn engine_with_threads(threads: usize) -> Engine {
    Engine::with_config(EngineConfig {
        threads,
        ..EngineConfig::default()
    })
}

fn four_thread_engine() -> Engine {
    engine_with_threads(4)
}

fn assert_one_thread(dispatch: &[AtomDispatch], what: &str) {
    for d in dispatch {
        assert_eq!(d.threads, 1, "{what}: atom {} got {d:?}", d.index);
    }
}

/// The default policy on an engine with `threads` workers against
/// `run_local`, cold and after `clear_sessions`, under both delivery
/// contracts.
fn assert_default_matches_run_local(g: &Graph, threads: usize) {
    let det = ExecPolicy::default().with_delivery(Delivery::Deterministic);
    let (local_set, _) = drain(Query::enumerate().run_local(g));
    let (local_order, _) = drain(Query::enumerate().policy(det).run_local(g));
    let engine = engine_with_threads(threads);
    for round in ["cold", "cleared"] {
        let (set, _) = drain(engine.run(g, Query::enumerate()));
        assert_eq!(
            sorted(set),
            sorted(local_set.clone()),
            "unordered ({round}): the engine changed the result set"
        );
        let (order, dispatch) = drain(engine.run(g, Query::enumerate().policy(det)));
        assert_eq!(
            order, local_order,
            "deterministic ({round}): the engine changed the order"
        );
        assert_one_thread(&dispatch, &format!("deterministic ({round})"));
        engine.clear_sessions();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The default policy matches `run_local` on random graphs, on a
    /// sequential engine.
    #[test]
    fn default_dispatch_matches_run_local_on_random_graphs(g in graph_strategy(6)) {
        assert_default_matches_run_local(&g, 1);
    }

    /// The same on a 4-thread engine, where unordered streams get the
    /// worker pool and deterministic ones must still stay on one thread.
    #[test]
    fn default_dispatch_matches_run_local_on_random_graphs_parallel(g in graph_strategy(6)) {
        assert_default_matches_run_local(&g, 4);
    }
}

/// Chained cycles plan to one atom per cycle, so the composed odometer
/// runs over several streams and only the last one may get threads.
#[test]
fn default_dispatch_matches_run_local_on_chained_cycles() {
    for shape in [&[4usize, 6][..], &[4, 5, 6], &[5, 5]] {
        assert_default_matches_run_local(&chained_cycles(shape), 4);
    }
}

/// Ranked best-k forces its atom streams onto the deterministic
/// contract, so under the default policy they run on one thread and
/// pick the winners `run_local` picks, in the same order.
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
    let engine = four_thread_engine();
    for round in ["cold", "cleared"] {
        let (winners, dispatch) = fills(engine.run(&g, best()));
        assert_eq!(winners, local, "best-k winners diverged ({round})");
        assert_eq!(dispatch.len(), 3);
        assert!(dispatch.iter().all(|d| d.kind == DispatchKind::Ranked));
        assert_one_thread(&dispatch, &format!("ranked ({round})"));
        engine.clear_sessions();
    }
}

/// Drains `resp`, asserting after its first result and at its end that
/// `engine`'s live-thread gauge reads 0: no worker ever ran.
fn drain_without_workers(
    engine: &Engine,
    mut resp: Response<'_>,
    what: &str,
) -> (Vec<Triangulation>, Vec<AtomDispatch>) {
    let live = &engine.telemetry().threads_live;
    let mut tris: Vec<Triangulation> = resp
        .next()
        .into_iter()
        .filter_map(QueryItem::into_triangulation)
        .collect();
    assert_eq!(live.get(), 0, "{what}: workers live mid-stream");
    tris.extend(resp.triangulations());
    assert_eq!(live.get(), 0, "{what}: workers live at the end");
    (tris, resp.outcome().dispatch)
}

/// Deterministic delivery is the sequential schedule, so even an
/// explicit thread count runs every deterministic atom, ranked or not,
/// on one thread: the order and the winners are `run_local`'s, and no
/// worker thread starts.
#[test]
fn explicit_threads_run_deterministic_atoms_sequential() {
    let g = chained_cycles(&[4, 5, 6]);
    let engine = four_thread_engine();
    let four = ExecPolicy::default().with_threads(4);
    let det = four.with_delivery(Delivery::Deterministic);

    let (local_order, _) = drain(Query::enumerate().policy(det).run_local(&g));
    let (tris, dispatch) = drain_without_workers(
        &engine,
        engine.run(&g, Query::enumerate().policy(det)),
        "plain",
    );
    let order: Answers = tris.iter().map(|t| t.graph.edges()).collect();
    assert_eq!(order, local_order);
    let kinds: Vec<(DispatchKind, usize)> = dispatch.iter().map(|d| (d.kind, d.threads)).collect();
    assert_eq!(kinds, vec![(DispatchKind::Sequential, 1); 3]);

    // Cleared, so the ranked atoms run live instead of replaying the
    // recordings the query above left.
    engine.clear_sessions();
    let best = || Query::best_k(7, CostMeasure::Fill);
    let local = best().run_local(&g).triangulations();
    let (winners, dispatch) =
        drain_without_workers(&engine, engine.run(&g, best().policy(four)), "ranked");
    let fills = |ts: &[Triangulation]| ts.iter().map(|t| t.fill.clone()).collect::<Vec<_>>();
    assert_eq!(fills(&winners), fills(&local));
    assert_eq!(dispatch.len(), 3);
    assert!(dispatch.iter().all(|d| d.kind == DispatchKind::Ranked));
    assert_one_thread(&dispatch, "ranked");
}
