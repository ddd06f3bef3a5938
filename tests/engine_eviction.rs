//! Eviction under concurrent traffic — the serving-layer scenario the
//! HTTP transport creates: many clients hammering *distinct* graphs
//! through one shared engine whose session store is far smaller than the
//! working set. The store must never deadlock, never corrupt an answer,
//! and never invalidate a session mid-query (an in-flight `Response`
//! keeps its session alive through its `Arc` even after the LRU drops
//! it).

use mintri::engine::{Engine, EngineConfig};
use mintri::prelude::*;
use mintri::workloads::random::chord_cycle;

#[test]
fn concurrent_clients_past_the_session_cap_stay_correct() {
    let engine = Engine::with_config(EngineConfig {
        max_sessions: 2, // far below the 8-graph working set
        ..EngineConfig::default()
    });
    // Planning is left ON: each graph splits into two cycle atoms, so
    // the store also churns on *shared* atom sessions while whole
    // graphs come and go.
    let graphs: Vec<Graph> = (2..8).map(|j| chord_cycle(9, j)).collect();
    let expected: Vec<usize> = graphs
        .iter()
        .map(|g| Query::enumerate().run_local(g).count())
        .collect();
    assert!(expected.iter().all(|&n| n > 0));

    std::thread::scope(|scope| {
        for (g, &want) in graphs.iter().zip(&expected) {
            let engine = &engine;
            scope.spawn(move || {
                for round in 0..6 {
                    let got = engine.run(g, Query::enumerate()).count();
                    assert_eq!(got, want, "round {round} returned a wrong answer set");
                }
            });
        }
    });
    assert!(
        engine.sessions_cached() <= 2,
        "the LRU cap holds under concurrency"
    );
}

#[test]
fn eviction_mid_query_does_not_cut_the_stream() {
    let engine = Engine::with_config(EngineConfig {
        max_sessions: 1,
        ..EngineConfig::default()
    });
    let g = Graph::cycle(9);
    let expected = Query::enumerate().run_local(&g).count();

    let mut response = engine.run(&g, Query::enumerate());
    assert!(response.next().is_some(), "stream is live");

    // Evict the session both explicitly and by LRU pressure while the
    // response is mid-stream.
    engine.evict(&g);
    for j in 2..6 {
        let other = chord_cycle(7, j);
        let _ = engine.run(&other, Query::enumerate()).count();
    }
    assert_eq!(
        engine.sessions_cached(),
        1,
        "the hammered graphs displaced everything"
    );

    // The in-flight stream still owns its session: it completes, and
    // completely.
    let rest = response.count();
    assert_eq!(
        1 + rest,
        expected,
        "eviction must not truncate a live query"
    );
}

#[test]
fn racing_first_queries_on_one_graph_share_a_session() {
    // The double-checked insert: N threads discover the same cold graph
    // at once; exactly one session must win and all answers agree.
    let engine = Engine::new();
    let g = Graph::cycle(8);
    let expected = Query::enumerate().run_local(&g).count();
    let barrier = std::sync::Barrier::new(6);
    std::thread::scope(|scope| {
        let racers: Vec<_> = (0..6)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.run(&g, Query::enumerate()).count()
                })
            })
            .collect();
        for racer in racers {
            assert_eq!(racer.join().expect("racer"), expected);
        }
    });
    assert_eq!(
        engine.sessions_cached(),
        1,
        "losing builders must discard their duplicate session"
    );
}
