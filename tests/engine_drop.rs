//! Drop-robustness of `ParallelEnumerator`: abandoning an enumeration
//! after an arbitrary prefix, at any thread count, must neither deadlock
//! nor leak worker threads. The same guarantees hold one layer up, for
//! the query front door: a [`Response`] whose budget trips, or that is
//! cancelled mid-stream (from the consumer or from another thread), must
//! end its stream and join every worker — in both delivery modes, though
//! only unordered streams start workers: a deterministic stream is the
//! sequential schedule, so its gauge must stay at zero.
//!
//! The leak check reads each run's own `threads_live` gauge
//! (`EngineConfig::threads_live`; for an `Engine`, its
//! `mintri_engine_threads_live` metric): every worker raises it at spawn
//! and lowers it as it exits. Unlike a count of the process's OS
//! threads, it is blind to sibling tests spinning their own pools up and
//! down concurrently.

use mintri::core::{CostMeasure, MinimalTriangulationsEnumerator};
use mintri::engine::{Delivery, Engine, EngineConfig, ParallelEnumerator};
use mintri::prelude::*;
use mintri::telemetry::Gauge;
use mintri::triangulate::McsM;
use mintri::workloads::random::erdos_renyi;
use proptest::prelude::*;
use std::time::Duration;

/// Waits (briefly) for a live-thread gauge to return to zero. `Drop`
/// joins every worker, so it should read zero at once; the grace period
/// only keeps a slow joiner from reading as a leak.
fn settles_to_zero(live: &Gauge) -> bool {
    for _ in 0..200 {
        if live.get() == 0 {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A parallel engine plus a graph with plenty of results (the delivery
/// contract is chosen per query).
fn launch(threads: usize) -> (Engine, Graph) {
    let engine = Engine::with_config(EngineConfig {
        threads,
        channel_capacity: 2, // small: exercise workers parked in send()
        ..EngineConfig::default()
    });
    let g = erdos_renyi(16, 0.3, 7);
    (engine, g)
}

#[test]
fn response_cancel_mid_stream_is_honored_in_both_deliveries() {
    for delivery in [Delivery::Unordered, Delivery::Deterministic] {
        let (engine, g) = launch(4);
        let live = &engine.telemetry().threads_live;
        let mut response = engine.run(
            &g,
            Query::enumerate().policy(
                ExecPolicy::default()
                    .with_threads(4)
                    .with_delivery(delivery),
            ),
        );
        assert!(response.next().is_some(), "{delivery:?}: first result");
        assert!(response.next().is_some(), "{delivery:?}: second result");
        match delivery {
            Delivery::Unordered => assert!(
                live.get() > 0,
                "unordered: the engine's gauge counts the running workers"
            ),
            Delivery::Deterministic => assert_eq!(
                live.get(),
                0,
                "deterministic: the sequential schedule starts no worker"
            ),
        }
        response.cancel();
        // The stream must end promptly — not hang, not keep producing.
        assert!(
            response.next().is_none(),
            "{delivery:?}: cancel must end the stream"
        );
        let outcome = response.outcome();
        assert!(outcome.cancelled, "{delivery:?}: cancelled flag");
        assert!(!outcome.completed, "{delivery:?}: not complete");
        assert_eq!(outcome.produced, 2);
        drop(response);
        assert!(
            settles_to_zero(live),
            "{delivery:?}: worker threads leaked after cancel: {} still live",
            live.get()
        );
    }
}

#[test]
fn cross_thread_cancel_unblocks_a_draining_consumer() {
    // C30 has Catalan(28) ≈ 2.6e14 minimal triangulations, so no drain
    // completes before the cancel lands, however fast the build runs.
    let g = Graph::cycle(30);
    for delivery in [Delivery::Unordered, Delivery::Deterministic] {
        let (engine, _) = launch(4);
        let live = &engine.telemetry().threads_live;
        // Safety net: if cancellation were broken the budget still ends
        // the run, and the `cancelled` assertion below catches the bug
        // instead of the suite hanging.
        let mut response = engine.run(
            &g,
            Query::enumerate()
                .policy(
                    ExecPolicy::default()
                        .with_threads(4)
                        .with_delivery(delivery),
                )
                .budget(EnumerationBudget::results(200_000)),
        );
        let token = response.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        });
        // Drain until the stream ends — mid-stream, whenever the cancel
        // lands, including while parked on the parallel result channel.
        let drained = response.by_ref().count();
        canceller.join().unwrap();
        let outcome = response.outcome();
        assert!(
            outcome.cancelled,
            "{delivery:?}: the cross-thread cancel must have ended the run \
             (drained {drained} results)"
        );
        drop(response);
        assert!(
            settles_to_zero(live),
            "{delivery:?}: worker threads leaked after cross-thread cancel: {} still live",
            live.get()
        );
    }
}

#[test]
fn result_budget_mid_stream_joins_workers_in_both_deliveries() {
    for delivery in [Delivery::Unordered, Delivery::Deterministic] {
        let (engine, g) = launch(4);
        let live = &engine.telemetry().threads_live;
        let mut response = engine.run(
            &g,
            Query::enumerate()
                .policy(
                    ExecPolicy::default()
                        .with_threads(4)
                        .with_delivery(delivery),
                )
                .budget(EnumerationBudget::results(7)),
        );
        assert_eq!(response.by_ref().count(), 7, "{delivery:?}");
        let outcome = response.outcome();
        assert!(!outcome.completed, "{delivery:?}: budget, not completion");
        assert!(!outcome.cancelled, "{delivery:?}");
        drop(response);
        assert!(
            settles_to_zero(live),
            "{delivery:?}: worker threads leaked after budget stop: {} still live",
            live.get()
        );
    }
}

#[test]
fn time_budget_mid_stream_joins_workers_in_both_deliveries() {
    for delivery in [Delivery::Unordered, Delivery::Deterministic] {
        let (engine, g) = launch(4);
        let live = &engine.telemetry().threads_live;
        let mut response = engine.run(
            &g,
            Query::enumerate()
                .policy(
                    ExecPolicy::default()
                        .with_threads(4)
                        .with_delivery(delivery),
                )
                // Generous result cap as the hang safety-net; the clock
                // trips far earlier.
                .budget(EnumerationBudget::results_or_time(
                    200_000,
                    Duration::from_millis(40),
                )),
        );
        let n = response.by_ref().count();
        let outcome = response.outcome();
        assert!(
            !outcome.completed || n < 200_000,
            "{delivery:?}: the run must have been timeboxed"
        );
        drop(response);
        assert!(
            settles_to_zero(live),
            "{delivery:?}: worker threads leaked after timeout: {} still live",
            live.get()
        );
    }
}

#[test]
fn cancel_mid_ranked_best_k_yields_the_proven_prefix_and_joins_workers() {
    let (engine, g) = launch(4);
    let live = &engine.telemetry().threads_live;
    // Large k so the ranked stream has plenty left to emit when the
    // cancel lands; the results already out are proven winners.
    let mut response = engine.run(
        &g,
        Query::best_k(100_000, CostMeasure::Fill).policy(ExecPolicy::default().with_threads(4)),
    );
    assert!(response.next().is_some(), "first ranked result");
    assert!(response.next().is_some(), "second ranked result");
    assert_eq!(live.get(), 0, "ranked atom streams start no worker");
    response.cancel();
    assert!(
        response.next().is_none(),
        "cancel must end the ranked stream"
    );
    let outcome = response.outcome();
    assert!(outcome.cancelled);
    assert!(!outcome.completed);
    assert_eq!(outcome.produced, 2);
    drop(response);
    assert!(
        settles_to_zero(live),
        "worker threads leaked after mid-ranked cancel: {} still live",
        live.get()
    );
}

#[test]
fn result_budget_mid_ranked_best_k_bounds_emissions_and_joins_workers() {
    let (engine, g) = launch(4);
    let live = &engine.telemetry().threads_live;
    let mut response = engine.run(
        &g,
        Query::best_k(100_000, CostMeasure::Fill)
            .policy(ExecPolicy::default().with_threads(4))
            .budget(EnumerationBudget::results(5)),
    );
    assert_eq!(response.by_ref().count(), 5);
    assert_eq!(live.get(), 0, "ranked atom streams start no worker");
    let outcome = response.outcome();
    assert!(!outcome.completed, "budget stop, not completion");
    assert!(!outcome.cancelled);
    drop(response);
    assert!(
        settles_to_zero(live),
        "worker threads leaked after mid-ranked budget stop: {} still live",
        live.get()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drop a `ParallelEnumerator` after a random prefix of a random-size
    /// run: `Drop` must join every worker (the test hangs on deadlock and
    /// the live-thread gauge exposes a leak) and the prefix itself must
    /// be a prefix of the sequential answer set's size.
    #[test]
    fn dropping_the_parallel_enumerator_after_a_random_prefix_is_clean(
        seed in 0u64..1000,
        prefix in 0usize..12,
        threads in 1usize..5,
    ) {
        let g = erdos_renyi(12, 0.3, seed);
        let config = EngineConfig {
            threads,
            channel_capacity: 2, // small: exercise workers parked in send()
            ..EngineConfig::default()
        };
        let live = &config.threads_live;
        let mut e = ParallelEnumerator::with_config(&g, Box::new(McsM), &config);
        // The gauge counts this enumerator's workers; some may already have
        // finished.
        prop_assert!(live.get() <= threads as i64);
        let taken = e.by_ref().take(prefix).count();
        let total = MinimalTriangulationsEnumerator::new(&g).count();
        prop_assert_eq!(taken, prefix.min(total));
        drop(e); // must join all workers without deadlocking…
        // …and leave no pool thread behind.
        prop_assert!(
            settles_to_zero(live),
            "worker threads leaked: {} still live",
            live.get()
        );
    }
}
