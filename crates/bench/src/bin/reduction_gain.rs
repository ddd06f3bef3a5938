//! End-to-end win of the atom-decomposition planning layer: the same
//! enumeration query, unreduced (whole-graph frontier,
//! `ExecPolicy::fixed().with_planned(false)`) vs.
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
//! Per the `BENCH_engine.json` convention the document stamps the host's
//! CPU count and `"speedup_observable": false` when `cpus == 1` — the
//! *planning* speedups here are sequential-vs-sequential and remain
//! valid either way (the stamp gates only thread-scaling readings).

use mintri_bench::Args;
use mintri_core::query::{ExecPolicy, Plan, Query};
use mintri_graph::Graph;
use mintri_workloads::random::chained_cycles;
use std::fmt::Write as _;
use std::time::Instant;

/// Seconds (and result count) to stream the whole enumeration.
fn time_enumeration(g: &Graph, planned: bool) -> (usize, f64) {
    let started = Instant::now();
    let produced = Query::enumerate()
        .policy(ExecPolicy::fixed().with_planned(planned))
        .run_local(g)
        .count();
    (produced, started.elapsed().as_secs_f64())
}

fn main() -> std::io::Result<()> {
    let args = Args::parse();
    let out_path = args.get_str("out", "BENCH_reduction.json");
    let quick = args.get_usize("quick", 0) != 0;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup_observable = cpus > 1;

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

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"reduction_gain\",");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"speedup_observable\": {speedup_observable},");
    let _ = writeln!(json, "  \"workloads\": [");

    let mut first = true;
    for (name, g) in &workloads {
        if !first {
            json.push_str(",\n");
        }
        first = false;
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

        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{name}\",");
        let _ = writeln!(json, "      \"nodes\": {},", g.num_nodes());
        let _ = writeln!(json, "      \"atoms\": {},", plan.atoms.len());
        let _ = writeln!(json, "      \"results\": {n_planned},");
        let _ = writeln!(json, "      \"unreduced_seconds\": {unreduced_s:.6},");
        let _ = writeln!(json, "      \"planned_seconds\": {planned_s:.6},");
        let _ = writeln!(json, "      \"speedup\": {speedup:.2}");
        let _ = write!(json, "    }}");
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json)?;
    eprintln!("wrote {out_path}");
    Ok(())
}
