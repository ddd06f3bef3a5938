//! Thread-scaling baseline for the parallel engine: sequential delay vs.
//! `ParallelEnumerator` at 1/2/4/8 threads over the first K results of
//! the Figure-7 random workloads, full drains of graphs whose
//! enumeration completes at 1 and 2 threads, plus the session layer's
//! warm-replay speedup. Emits `BENCH_engine.json` so future changes have
//! a perf trajectory to compare against.
//!
//! The first-K rows time an unordered race, which may stop on any K
//! answers; only the full-drain rows do the same work on both sides, so
//! they are the ones to judge `ParallelEnumerator` by.
//!
//! Flags: `--out FILE` (default `BENCH_engine.json`), `--results K`
//! (triangulations measured per configuration, default 1500),
//! `--max-n N` (largest random-graph size, default 50).
//!
//! The parallel counts are asserted equal to the sequential ones
//! in-process, and the full-drain counts are also gated equal in the
//! document; the gates are the `doc.gate` calls below. Speedups are
//! recorded, not gated. The header's `cpus` says whether they mean
//! anything: on one CPU the multi-thread rows measure coordination
//! overhead, not scaling.
//! `quick` is stamped when `--results` or `--max-n` is below its default.

use mintri_bench::{time_stream, Args, BenchDoc};
use mintri_core::MinimalTriangulationsEnumerator;
use mintri_engine::{Engine, ParallelEnumerator, Query};
use mintri_graph::Graph;
use mintri_workloads::random::erdos_renyi;
use mintri_workloads::random_suite;

/// Full drains timed per side; each side reports its fastest.
const DRAIN_REPS: usize = 3;

/// The result count and the fastest of [`DRAIN_REPS`] full drains of
/// the streams `make` builds (building is not timed).
fn best_drain<I: Iterator>(make: impl Fn() -> I) -> (usize, f64) {
    (0..DRAIN_REPS)
        .map(|_| time_stream(make(), usize::MAX))
        .fold((0, f64::INFINITY), |(_, best), (n, s)| (n, best.min(s)))
}

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "results", "max-n"]);
    let out_path = args.get_str("out", "BENCH_engine.json");
    let k = args.get_usize("results", 1500);
    let max_n = args.get_usize("max-n", 50);
    let mut doc = BenchDoc::new("engine_scaling", k < 1500 || max_n < 50);
    if doc.cpus == 1 {
        eprintln!(
            "warning: only 1 CPU visible — parallel rows measure coordination \
             overhead, not scaling"
        );
    }
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
        for threads in [1usize, 2, 4, 8] {
            let (par_n, par_s) = time_stream(ParallelEnumerator::new(&inst.graph, threads), k);
            assert_eq!(par_n, seq_n, "parallel run must produce the same count");
            let t = |field: &str| m(&format!("threads{threads}/{field}"));
            doc.metric(t("seconds"), "s", par_s);
            doc.metric(t("avg_delay_us"), "us", 1e6 * par_s / par_n.max(1) as f64);
            doc.metric(t("speedup_vs_sequential"), "ratio", seq_s / par_s);
        }
    }

    // Like for like: full drains, sequential against the unordered
    // `ParallelEnumerator` at 1 and 2 threads, on graphs whose enumeration completes
    // in well under a second. The same graphs run at every size flag.
    for (name, g) in [
        ("drain_c11", Graph::cycle(11)),
        ("drain_gnp_n16_p0.3", erdos_renyi(16, 0.3, 42)),
    ] {
        eprintln!("full drain {name} …");
        let m = |field: &str| format!("{name}/{field}");
        let (seq_n, seq_s) = best_drain(|| MinimalTriangulationsEnumerator::new(&g));
        doc.metric(m("results"), "count", seq_n as f64);
        doc.metric(m("sequential_seconds"), "s", seq_s);
        for threads in [1usize, 2] {
            let (par_n, par_s) = best_drain(|| ParallelEnumerator::new(&g, threads));
            let t = |field: &str| m(&format!("threads{threads}/{field}"));
            doc.metric(t("results"), "count", par_n as f64);
            doc.metric(t("seconds"), "s", par_s);
            doc.metric(t("speedup_vs_sequential"), "ratio", seq_s / par_s);
            doc.gate_eq(t("results"), &m("results"));
        }
    }

    // The serving story, measured on a graph whose enumeration *completes*
    // (replay requires a finished run): warm-session replay vs cold query.
    let small = erdos_renyi(18, 0.3, 42);
    let engine = Engine::new();
    let (replay_n, cold_s) = time_stream(engine.run(&small, Query::enumerate()), usize::MAX);
    let (_, warm_s) = time_stream(engine.run(&small, Query::enumerate()), usize::MAX);
    doc.metric("session_replay/results", "count", replay_n as f64);
    doc.metric("session_replay/cold_seconds", "s", cold_s);
    doc.metric("session_replay/warm_seconds", "s", warm_s);
    doc.metric("session_replay/speedup", "ratio", cold_s / warm_s.max(1e-9));
    doc.write(&out_path)?;
    Ok(())
}
