//! Early ends of an engine [`Response`]: a response whose budget trips,
//! or that is cancelled mid-stream — from the consumer or from another
//! thread — must end its stream promptly, flag the cause in its outcome,
//! and leave the session clean, under either print mode. Ranked best-k
//! streams end the same way and keep the winners already proven. A
//! response dropped after any prefix deposits no partial answer list: a
//! later query still runs the full enumeration, in `run_local`'s order.

use mintri::core::CostMeasure;
use mintri::prelude::*;
use mintri::workloads::random::erdos_renyi;
use proptest::prelude::*;
use std::time::Duration;

const PRINT_MODES: [PrintMode; 2] = [PrintMode::UponGeneration, PrintMode::UponPop];

/// A graph with plenty of results.
fn graph() -> Graph {
    erdos_renyi(16, 0.3, 7)
}

fn edges(tris: &[Triangulation]) -> Vec<Vec<(Node, Node)>> {
    tris.iter().map(|t| t.graph.edges()).collect()
}

/// The first `k` triangulations `run_local` yields for `query`.
fn local_prefix(g: &Graph, query: Query, k: usize) -> Vec<Vec<(Node, Node)>> {
    let mut local = query.budget(EnumerationBudget::results(k)).run_local(g);
    edges(&local.triangulations())
}

#[test]
fn response_cancel_mid_stream_is_honored_in_both_print_modes() {
    let g = graph();
    for mode in PRINT_MODES {
        let engine = Engine::new();
        let mut response = engine.run(&g, Query::enumerate().mode(mode));
        let first: Vec<Triangulation> = response
            .by_ref()
            .take(2)
            .filter_map(QueryItem::into_triangulation)
            .collect();
        assert_eq!(
            edges(&first),
            local_prefix(&g, Query::enumerate().mode(mode), 2),
            "{mode:?}: the prefix is run_local's"
        );
        response.cancel();
        // The stream must end promptly — not hang, not keep producing.
        assert!(
            response.next().is_none(),
            "{mode:?}: cancel must end the stream"
        );
        let outcome = response.outcome();
        assert!(outcome.cancelled, "{mode:?}: cancelled flag");
        assert!(!outcome.completed, "{mode:?}: not complete");
        assert_eq!(outcome.produced, 2);
        drop(response);
        assert!(
            !engine.run(&g, Query::enumerate().mode(mode)).is_replay(),
            "{mode:?}: a cancelled run deposits nothing"
        );
    }
}

#[test]
fn cross_thread_cancel_unblocks_a_draining_consumer() {
    // C30 has Catalan(28) ≈ 2.6e14 minimal triangulations, so no drain
    // completes before the cancel lands, however fast the build runs.
    let g = Graph::cycle(30);
    for mode in PRINT_MODES {
        let engine = Engine::new();
        // Safety net: if cancellation were broken the budget still ends
        // the run, and the `cancelled` assertion below catches the bug
        // instead of the suite hanging.
        let mut response = engine.run(
            &g,
            Query::enumerate()
                .mode(mode)
                .budget(EnumerationBudget::results(200_000)),
        );
        let token = response.cancel_token();
        // Drain until the stream ends — mid-stream, whenever the cancel
        // lands.
        let drained = std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                token.cancel();
            });
            response.by_ref().count()
        });
        let outcome = response.outcome();
        assert!(
            outcome.cancelled,
            "{mode:?}: the cross-thread cancel must have ended the run \
             (drained {drained} results)"
        );
        assert_eq!(outcome.produced, drained);
    }
}

#[test]
fn result_budget_mid_stream_ends_the_stream_in_both_print_modes() {
    let g = graph();
    for mode in PRINT_MODES {
        let engine = Engine::new();
        let mut response = engine.run(
            &g,
            Query::enumerate()
                .mode(mode)
                .budget(EnumerationBudget::results(7)),
        );
        assert_eq!(
            edges(&response.triangulations()),
            local_prefix(&g, Query::enumerate().mode(mode), 7),
            "{mode:?}: the budgeted prefix is run_local's"
        );
        let outcome = response.outcome();
        assert!(!outcome.completed, "{mode:?}: budget, not completion");
        assert!(!outcome.cancelled, "{mode:?}");
        assert_eq!(outcome.produced, 7);
    }
}

#[test]
fn time_budget_mid_stream_ends_the_stream_in_both_print_modes() {
    let g = Graph::cycle(30);
    for mode in PRINT_MODES {
        let engine = Engine::new();
        let mut response = engine.run(
            &g,
            Query::enumerate()
                .mode(mode)
                // Generous result cap as the hang safety-net; the clock
                // trips far earlier.
                .budget(EnumerationBudget::results_or_time(
                    200_000,
                    Duration::from_millis(40),
                )),
        );
        let n = response.by_ref().count();
        let outcome = response.outcome();
        assert!(n < 200_000, "{mode:?}: the run must have been timeboxed");
        assert!(!outcome.completed, "{mode:?}: timeout, not completion");
        assert!(!outcome.cancelled, "{mode:?}");
    }
}

#[test]
fn cancel_mid_ranked_best_k_yields_the_proven_prefix() {
    let g = graph();
    let engine = Engine::new();
    // Large k so the ranked stream has plenty left to emit when the
    // cancel lands; the results already out are proven winners.
    let best = || Query::best_k(100_000, CostMeasure::Fill);
    let mut response = engine.run(&g, best());
    let first: Vec<Triangulation> = response
        .by_ref()
        .take(2)
        .filter_map(QueryItem::into_triangulation)
        .collect();
    assert_eq!(edges(&first), local_prefix(&g, best(), 2));
    response.cancel();
    assert!(
        response.next().is_none(),
        "cancel must end the ranked stream"
    );
    let outcome = response.outcome();
    assert!(outcome.cancelled);
    assert!(!outcome.completed);
    assert_eq!(outcome.produced, 2);
}

#[test]
fn result_budget_mid_ranked_best_k_bounds_emissions() {
    let g = graph();
    let engine = Engine::new();
    let best = || Query::best_k(100_000, CostMeasure::Fill);
    let mut response = engine.run(&g, best().budget(EnumerationBudget::results(5)));
    assert_eq!(
        edges(&response.triangulations()),
        local_prefix(&g, best(), 5)
    );
    let outcome = response.outcome();
    assert!(!outcome.completed, "budget stop, not completion");
    assert!(!outcome.cancelled);
    assert_eq!(outcome.produced, 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drop a live response after a random prefix of a random-size run:
    /// the prefix is `run_local`'s, the session keeps no partial answer
    /// list, and the next query on the same engine runs live to
    /// completion and yields `run_local`'s full sequence.
    #[test]
    fn dropping_a_live_response_after_a_random_prefix_is_clean(
        seed in 0u64..1000,
        prefix in 0usize..12,
    ) {
        let g = erdos_renyi(12, 0.3, seed);
        let engine = Engine::new();
        let unplanned = || Query::enumerate().policy(ExecPolicy::default().with_planned(false));
        let mut response = engine.run(&g, unplanned());
        let taken: Vec<Triangulation> = response
            .by_ref()
            .take(prefix)
            .filter_map(QueryItem::into_triangulation)
            .collect();
        drop(response);
        let full = edges(&unplanned().run_local(&g).triangulations());
        prop_assert_eq!(edges(&taken), full[..prefix.min(full.len())].to_vec());
        if prefix <= full.len() {
            // The stream never saw its end, so nothing was deposited.
            prop_assert!(engine.session(&g).cached_answers().is_none());
        }
        let rerun = engine.run(&g, unplanned());
        prop_assert_eq!(rerun.is_replay(), prefix > full.len());
        let rerun: Vec<Triangulation> =
            rerun.filter_map(QueryItem::into_triangulation).collect();
        prop_assert_eq!(edges(&rerun), full);
    }
}
