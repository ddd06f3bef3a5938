//! Engine baseline: the sequential iterator's delay over the first K
//! results of the Figure-7 random workloads, plus the session layer's
//! warm-replay speedup. Emits `BENCH_engine.json` so future changes have
//! a perf trajectory to compare against.
//!
//! Flags: `--out FILE` (default `BENCH_engine.json`), `--results K`
//! (triangulations measured per workload, default 1500), `--max-n N`
//! (largest random-graph size, default 50).
//!
//! The gates are the `doc.gate` calls below: every workload produces
//! results, and the warm replay yields as many as the cold run. Delays
//! and the replay speedup are recorded, not gated.
//! `quick` is stamped when `--results` or `--max-n` is below its default.

use mintri_bench::{time_stream, Args, BenchDoc};
use mintri_core::MinimalTriangulationsEnumerator;
use mintri_engine::{Engine, Query};
use mintri_workloads::random::erdos_renyi;
use mintri_workloads::random_suite;

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "results", "max-n"]);
    let out_path = args.get_str("out", "BENCH_engine.json");
    let k = args.get_usize("results", 1500);
    let max_n = args.get_usize("max-n", 50);
    let mut doc = BenchDoc::new("engine_scaling", k < 1500 || max_n < 50);
    doc.metric("results_per_run", "count", k as f64);

    let suite: Vec<_> = random_suite(max_n, 20, 42)
        .into_iter()
        .filter(|(p, _)| *p < 0.6) // densest family is too slow for a baseline
        .collect();
    doc.metric("workloads", "count", suite.len() as f64);
    doc.gate("workloads", ">=", 1.0);
    for (p, inst) in &suite {
        eprintln!("workload {} …", inst.name);

        let (seq_n, seq_s) = time_stream(MinimalTriangulationsEnumerator::new(&inst.graph), k);
        let m = |field: &str| format!("{}/{field}", inst.name);
        doc.metric(m("p"), "ratio", *p);
        doc.metric(m("nodes"), "count", inst.graph.num_nodes() as f64);
        doc.metric(m("edges"), "count", inst.graph.num_edges() as f64);
        doc.metric(m("results"), "count", seq_n as f64);
        doc.metric(m("sequential_seconds"), "s", seq_s);
        doc.metric(
            m("sequential_avg_delay_us"),
            "us",
            1e6 * seq_s / seq_n.max(1) as f64,
        );
        doc.gate(m("results"), ">", 0.0);
    }

    // The serving story, measured on a graph whose enumeration *completes*
    // (replay requires a finished run): warm-session replay vs cold query.
    let small = erdos_renyi(18, 0.3, 42);
    let engine = Engine::new();
    let (cold_n, cold_s) = time_stream(engine.run(&small, Query::enumerate()), usize::MAX);
    let (warm_n, warm_s) = time_stream(engine.run(&small, Query::enumerate()), usize::MAX);
    doc.metric("session_replay/results", "count", cold_n as f64);
    doc.metric("session_replay/warm_results", "count", warm_n as f64);
    doc.metric("session_replay/cold_seconds", "s", cold_s);
    doc.metric("session_replay/warm_seconds", "s", warm_s);
    doc.metric("session_replay/speedup", "ratio", cold_s / warm_s.max(1e-9));
    doc.gate_eq("session_replay/warm_results", "session_replay/results");
    doc.write(&out_path)?;
    Ok(())
}
