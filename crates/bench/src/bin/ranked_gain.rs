//! End-to-end win of the ranked best-k gear: the same best-k query,
//! exhaustive (`ExecPolicy::default().with_ranked(false)`: scan every
//! result, keep the top k) vs.
//! ranked (output-sensitive: stop after ~k pulls), both cold — no warm
//! sessions, no replay caches. Emits `BENCH_ranked.json` so future PRs
//! can watch the ranked gear stay ahead (the `doc.gate` calls below).
//!
//! Workloads are the families where exhaustive best-k hurts most:
//! * `bestk_C12_chord` — a 12-cycle plus one chord; the atom
//!   decomposition drops the triangle and leaves one C11 atom with
//!   4862 minimal triangulations, all of which the exhaustive gear
//!   scans for any k.
//! * `bestk_4xC6_chain` — four 6-cycles chained through cut vertices;
//!   the composed product has 14^4 = 38416 results, which the ranked
//!   odometer never materializes.
//!
//! `first_result` delay is recorded for both gears: ranked best-k must
//! not only finish earlier, it must *start* emitting winners without
//! draining the enumeration first.
//!
//! Flags: `--out FILE` (default `BENCH_ranked.json`), `--k K` (default
//! 5), `--reps N` (default 3, min-of-N timing), `--quick 1` (smoke mode
//! for CI: smallest workload only).

use mintri_bench::{Args, BenchDoc};
use mintri_core::query::{CostMeasure, ExecPolicy, Query};
use mintri_graph::Graph;
use mintri_workloads::random::{chained_cycles, chord_cycle};
use std::time::Instant;

/// One cold best-k run: (ordered winner fill lists, seconds to drain,
/// seconds to the first emitted result).
fn time_best_k(
    g: &Graph,
    k: usize,
    cost: CostMeasure,
    ranked: bool,
) -> (Vec<Vec<(u32, u32)>>, f64, f64) {
    let started = Instant::now();
    let mut response = Query::best_k(k, cost)
        .policy(ExecPolicy::default().with_ranked(ranked))
        .run_local(g);
    let mut first_s = 0.0;
    let mut winners = Vec::new();
    for item in response.by_ref() {
        if winners.is_empty() {
            first_s = started.elapsed().as_secs_f64();
        }
        if let Some(tri) = item.into_triangulation() {
            winners.push(tri.fill);
        }
    }
    (winners, started.elapsed().as_secs_f64(), first_s)
}

/// Min-of-`reps` timing; the winners are asserted identical across reps.
fn best_of(
    g: &Graph,
    k: usize,
    cost: CostMeasure,
    ranked: bool,
    reps: usize,
) -> (Vec<Vec<(u32, u32)>>, f64, f64) {
    let (winners, mut total, mut first) = time_best_k(g, k, cost, ranked);
    for _ in 1..reps {
        let (w, t, f) = time_best_k(g, k, cost, ranked);
        assert_eq!(w, winners, "winners must be stable across reps");
        total = total.min(t);
        first = first.min(f);
    }
    (winners, total, first)
}

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "k", "reps", "quick"]);
    let out_path = args.get_str("out", "BENCH_ranked.json");
    let k = args.get_usize("k", 5);
    let reps = args.get_usize("reps", 3).max(1);
    let quick = args.get_usize("quick", 0) != 0;

    let workloads: Vec<(&str, Graph)> = if quick {
        vec![("bestk_C12_chord", chord_cycle(12, 2))]
    } else {
        vec![
            ("bestk_C12_chord", chord_cycle(12, 2)),
            ("bestk_4xC6_chain", chained_cycles(&[6, 6, 6, 6])),
        ]
    };

    let costs = [CostMeasure::Width, CostMeasure::Fill];
    let mut doc = BenchDoc::new("ranked_gain", quick);
    doc.metric("k", "count", k as f64);
    doc.metric("workloads", "count", (workloads.len() * costs.len()) as f64);
    doc.gate("workloads", ">=", 1.0);
    for (name, g) in &workloads {
        for cost in costs {
            let cost_name = match cost {
                CostMeasure::Width => "width",
                CostMeasure::Fill => "fill",
            };
            eprintln!("workload {name} ({cost_name}, k={k}) …");

            let (exh_winners, exh_s, exh_first_s) = best_of(g, k, cost, false, reps);
            let (ranked_winners, ranked_s, ranked_first_s) = best_of(g, k, cost, true, reps);
            assert_eq!(
                ranked_winners, exh_winners,
                "{name}/{cost_name}: ranked and exhaustive winners must agree bit for bit"
            );
            assert_eq!(ranked_winners.len(), k, "{name}/{cost_name}: k winners");

            let speedup = exh_s / ranked_s.max(1e-9);
            let first_speedup = exh_first_s / ranked_first_s.max(1e-9);
            eprintln!(
                "  exhaustive {exh_s:.4}s (first {exh_first_s:.4}s), \
                 ranked {ranked_s:.4}s (first {ranked_first_s:.4}s) — {speedup:.1}x"
            );

            let m = |field: &str| format!("{name}/{cost_name}/{field}");
            doc.metric(m("nodes"), "count", g.num_nodes() as f64);
            doc.metric(m("winners"), "count", ranked_winners.len() as f64);
            doc.metric(m("exhaustive_seconds"), "s", exh_s);
            doc.metric(m("exhaustive_first_result_seconds"), "s", exh_first_s);
            doc.metric(m("ranked_seconds"), "s", ranked_s);
            doc.metric(m("ranked_first_result_seconds"), "s", ranked_first_s);
            doc.metric(m("first_result_speedup"), "ratio", first_speedup);
            doc.metric(m("speedup"), "ratio", speedup);
            doc.gate_eq(m("winners"), "k");
            doc.gate(m("exhaustive_seconds"), ">", 0.0);
            doc.gate(m("ranked_seconds"), ">", 0.0);
            doc.gate(m("speedup"), ">=", 3.0);
        }
    }
    doc.write(&out_path)?;
    Ok(())
}
