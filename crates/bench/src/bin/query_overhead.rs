//! Dispatch overhead of the typed `Query` → `Response` front door vs.
//! driving the sequential iterator directly, plus the engine's
//! query-path costs (cold run and warm replay). Emits `BENCH_query.json`
//! so future PRs can watch the front door stay thin.
//!
//! Three configurations per workload, all streaming the same `k`
//! results:
//!
//! * `direct`    — `MinimalTriangulationsEnumerator` (the kernel);
//! * `run_local` — `Query::enumerate().run_local(&g)` (adds budget
//!   checks, per-result quality records and the response plumbing);
//! * `engine`    — `Engine::run` on a cold session (adds fingerprinting,
//!   the session store and the shared-memo `MsGraph`), then the same
//!   query again as a warm `is_replay()` serve.
//!
//! Flags: `--out FILE` (default `BENCH_query.json`), `--results K`
//! (default 1500), `--max-n N` (default 40).
//!
//! The counts of all paths are asserted equal in-process; the gates are
//! the `doc.gate` calls below. The overhead figures are sequential, so
//! they hold at any CPU count. `quick` is stamped when `--results` or
//! `--max-n` is below its default.

use mintri_bench::{time_stream, timed, Args, BenchDoc};
use mintri_core::query::{ExecPolicy, Query};
use mintri_core::{EnumerationBudget, MinimalTriangulationsEnumerator};
use mintri_engine::Engine;
use mintri_graph::Graph;
use mintri_workloads::random_suite;

fn one_thread() -> ExecPolicy {
    ExecPolicy::default().with_threads(1)
}

/// The whole enumeration on one thread.
fn full() -> Query {
    Query::enumerate().policy(one_thread())
}

/// Runs [`full`] on `g` again; its result count if `engine` replayed it.
fn run_replay(engine: &Engine, g: &Graph) -> Option<usize> {
    let response = engine.run(g, full());
    response.is_replay().then(|| response.count())
}

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "results", "max-n"]);
    let out_path = args.get_str("out", "BENCH_query.json");
    let k = args.get_usize("results", 1500);
    let max_n = args.get_usize("max-n", 40);
    let mut doc = BenchDoc::new("query_overhead", k < 1500 || max_n < 40);
    doc.metric("results_per_run", "count", k as f64);

    let suite: Vec<_> = random_suite(max_n, 20, 42)
        .into_iter()
        .filter(|(p, _)| *p < 0.6)
        .collect();
    doc.metric("workloads", "count", suite.len() as f64);
    doc.gate("workloads", ">=", 1.0);
    for (p, inst) in &suite {
        eprintln!("workload {} …", inst.name);
        let g = &inst.graph;

        let (n_direct, direct_s) = time_stream(MinimalTriangulationsEnumerator::new(g), k);
        let budget = || Query::enumerate().budget(EnumerationBudget::results(k));
        let (n_local, local_s) = timed(|| budget().run_local(g).count());
        assert_eq!(n_direct, n_local, "the front door must not change counts");

        // Engine path: cold query, then the warm replay of the same query.
        // Replay needs a *completed* enumeration, so only time it when the
        // workload finishes within k results.
        let engine = Engine::new();
        let (n_engine, engine_s) = timed(|| engine.run(g, budget().policy(one_thread())).count());
        assert_eq!(n_direct, n_engine);
        let replay = (n_direct < k).then(|| {
            let (replayed, replay_s) = timed(|| run_replay(&engine, g));
            assert_eq!(replayed, Some(n_direct));
            replay_s
        });

        let pct = |s: f64| 100.0 * (s - direct_s) / direct_s;
        let m = |field: &str| format!("{}/{field}", inst.name);
        doc.metric(m("p"), "ratio", *p);
        doc.metric(m("nodes"), "count", g.num_nodes() as f64);
        doc.metric(m("results"), "count", n_direct as f64);
        doc.metric(m("direct/seconds"), "s", direct_s);
        doc.metric(
            m("direct/avg_delay_us"),
            "us",
            1e6 * direct_s / n_direct.max(1) as f64,
        );
        doc.metric(m("run_local/seconds"), "s", local_s);
        doc.metric(m("run_local/overhead_pct"), "pct", pct(local_s));
        doc.metric(m("engine_cold/seconds"), "s", engine_s);
        doc.metric(m("engine_cold/overhead_pct"), "pct", pct(engine_s));
        if let Some(replay_s) = replay {
            doc.metric(m("engine_replay/seconds"), "s", replay_s);
            doc.metric(
                m("engine_replay/speedup_vs_direct"),
                "ratio",
                direct_s / replay_s.max(1e-9),
            );
        }
        doc.gate(m("results"), ">", 0.0);
    }

    // The serving story through the front door, on a graph whose
    // enumeration *completes* (replay requires a finished run): cold
    // engine query vs. warm `is_replay()` serve of the same query.
    let small = mintri_workloads::random::erdos_renyi(18, 0.3, 42);
    let engine = Engine::new();
    let (cold_n, cold_s) = timed(|| engine.run(&small, full()).count());
    let (warm_n, warm_s) = timed(|| run_replay(&engine, &small));
    assert_eq!(
        warm_n,
        Some(cold_n),
        "the warm run must replay every answer"
    );
    doc.metric("session_replay/results", "count", cold_n as f64);
    doc.metric("session_replay/cold_seconds", "s", cold_s);
    doc.metric("session_replay/warm_seconds", "s", warm_s);
    doc.metric("session_replay/speedup", "ratio", cold_s / warm_s.max(1e-9));
    doc.write(&out_path)?;
    Ok(())
}
