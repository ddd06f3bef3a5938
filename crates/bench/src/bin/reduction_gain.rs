//! End-to-end win of the atom-decomposition planning layer: the same
//! enumeration query, unreduced (whole-graph frontier,
//! `ExecPolicy::default().with_planned(false)`) vs.
//! planned (per-atom streams + product composer), on workloads with
//! several non-trivial atoms. Emits `BENCH_reduction.json` so future PRs
//! can watch the reduction stay ahead.
//!
//! Workloads are cycles chained through cut vertices and glued edges —
//! each cycle is one atom, so the unreduced path drives the exponential
//! product through a single frontier while the planned path enumerates
//! each cycle once and recombines. Both paths stream every result to
//! completion and their counts are asserted equal, so `speedup` is a
//! genuine end-to-end (same-answer-set) ratio.
//!
//! Flags: `--out FILE` (default `BENCH_reduction.json`), `--quick 1`
//! (smoke mode for CI: smallest workload only).
//!
//! The gates are the `doc.gate` calls below. The speedups are
//! sequential-vs-sequential, so they hold at any CPU count.

use mintri_bench::{timed, Args, BenchDoc};
use mintri_core::query::{ExecPolicy, Plan, Query};
use mintri_graph::Graph;
use mintri_workloads::random::chained_cycles;

/// Seconds (and result count) to stream the whole enumeration.
fn time_enumeration(g: &Graph, planned: bool) -> (usize, f64) {
    let policy = ExecPolicy::default().with_planned(planned);
    timed(|| Query::enumerate().policy(policy).run_local(g).count())
}

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "quick"]);
    let out_path = args.get_str("out", "BENCH_reduction.json");
    let quick = args.get_usize("quick", 0) != 0;

    let workloads: Vec<(&str, Graph)> = if quick {
        vec![("3xC6_chain", chained_cycles(&[6, 6, 6]))]
    } else {
        vec![
            ("3xC6_chain", chained_cycles(&[6, 6, 6])),
            ("4xC6_chain", chained_cycles(&[6, 6, 6, 6])),
            ("3xC7_chain", chained_cycles(&[7, 7, 7])),
            ("C7_C6_C5_C4_chain", chained_cycles(&[7, 6, 5, 4])),
        ]
    };

    let mut doc = BenchDoc::new("reduction_gain", quick);
    doc.metric("workloads", "count", workloads.len() as f64);
    doc.gate("workloads", ">=", 1.0);
    for (name, g) in &workloads {
        let plan = Plan::of(g);
        eprintln!(
            "workload {name}: {} nodes, {} atoms …",
            g.num_nodes(),
            plan.atoms.len()
        );
        assert!(
            plan.atoms.len() >= 3 || quick,
            "reduction workloads must have several non-trivial atoms"
        );

        let (n_unreduced, unreduced_s) = time_enumeration(g, false);
        let (n_planned, planned_s) = time_enumeration(g, true);
        assert_eq!(
            n_unreduced, n_planned,
            "planned and unreduced enumerations must agree on {name}"
        );
        let speedup = unreduced_s / planned_s.max(1e-9);
        eprintln!(
            "  {n_planned} results: unreduced {unreduced_s:.3}s, planned {planned_s:.3}s \
             ({speedup:.1}x)"
        );

        let m = |field: &str| format!("{name}/{field}");
        doc.metric(m("nodes"), "count", g.num_nodes() as f64);
        doc.metric(m("atoms"), "count", plan.atoms.len() as f64);
        doc.metric(m("results"), "count", n_planned as f64);
        doc.metric(m("unreduced_seconds"), "s", unreduced_s);
        doc.metric(m("planned_seconds"), "s", planned_s);
        doc.metric(m("speedup"), "ratio", speedup);
        doc.gate(m("results"), ">", 0.0);
        doc.gate(m("unreduced_seconds"), ">", 0.0);
        doc.gate(m("planned_seconds"), ">", 0.0);
    }
    doc.write(&out_path)?;
    Ok(())
}
