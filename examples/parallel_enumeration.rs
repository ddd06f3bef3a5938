//! The engine in three acts: parallel streaming, deterministic delivery,
//! and warm sessions serving repeated queries — every act the same typed
//! [`Query`] through [`Engine::run`]. Only unordered streams run in
//! parallel; deterministic delivery is the sequential schedule.
//!
//! Run with: `cargo run --release --example parallel_enumeration`

use mintri::prelude::*;
use mintri::workloads::random::erdos_renyi;
use std::time::Instant;

fn main() {
    let g = erdos_renyi(35, 0.22, 7);
    println!(
        "input: G(35, 0.22) — {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );
    let take = 3000;
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let engine = Engine::new();

    // Act 1 — the sequential baseline vs. the unordered parallel stream:
    // the same query, executed locally vs. on the engine's pool.
    let t0 = Instant::now();
    let sequential = Query::enumerate()
        .budget(EnumerationBudget::results(take))
        .run_local(&g)
        .triangulations()
        .len();
    let sequential_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let parallel = engine
        .run(
            &g,
            Query::enumerate()
                .budget(EnumerationBudget::results(take))
                .policy(ExecPolicy::default().with_threads(threads)),
        )
        .count();
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sequential, parallel);
    println!(
        "first {take} triangulations: sequential {sequential_ms:.0} ms, \
         {threads} threads {parallel_ms:.0} ms ({:.1}x)",
        sequential_ms / parallel_ms
    );

    // Act 2 — deterministic delivery: the sequential order, because it is
    // the sequential schedule. The engine runs it on one thread even when
    // the query asks for more.
    let mut deterministic = engine.run(
        &g,
        Query::enumerate()
            .budget(EnumerationBudget::results(10))
            .policy(
                ExecPolicy::default()
                    .with_threads(threads)
                    .with_delivery(Delivery::Deterministic),
            ),
    );
    let ordered: Vec<_> = deterministic
        .triangulations()
        .iter()
        .map(|t| t.fill_count())
        .collect();
    let dispatch = deterministic.outcome().dispatch;
    assert!(dispatch.iter().all(|d| d.threads == 1));
    let reference: Vec<_> = Query::enumerate()
        .budget(EnumerationBudget::results(10))
        .run_local(&g)
        .triangulations()
        .iter()
        .map(|t| t.fill_count())
        .collect();
    assert_eq!(ordered, reference);
    println!("deterministic mode reproduces the sequential stream: {ordered:?}");

    // Act 3 — the serving story: one Engine, repeated traffic. The
    // second query replays the completed answer list with zero Extend
    // calls — and so would a best-k or decompose query on the same graph.
    let small = erdos_renyi(18, 0.3, 42);
    let t0 = Instant::now();
    let n = engine.run(&small, Query::enumerate()).count();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let warm = engine.run(&small, Query::enumerate());
    assert!(warm.is_replay());
    let m = warm.count();
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(n, m);
    println!(
        "engine session: {n} triangulations — cold query {cold_ms:.1} ms, \
         warm replay {warm_ms:.1} ms"
    );
    // Sessions are keyed per planned atom, so aggregate across them.
    let stats = engine.memo_stats();
    println!(
        "warm session state: {} separators interned, {} of them labelled \
         by components for crossing tests (shared by every future query \
         touching these atoms)",
        stats.separators_interned, stats.crossing_computed
    );
}
