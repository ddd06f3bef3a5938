//! Measures what adaptive execution buys on a **repeat visit**: a mixed
//! query family (full enumeration, ranked best-k, one-per-class tree
//! decompositions) is driven twice through the **same** engine under
//! the default `ExecPolicy::Auto`. Run 1 is cold — every query computes
//! live while the profiler learns per-atom costs. Run 2 hits the warm
//! tier the first run deposited: answer replay where the session
//! survives, profile-steered dispatch everywhere else. Emits
//! `BENCH_adaptive.json`.
//!
//! The gate reading is `run1_seconds / run2_seconds` — the second visit
//! must be at least 1.2x the first (in practice replay puts the ratio
//! far higher; the floor guards against the profile/dispatch layer ever
//! making a repeat visit *slower*). Both runs must scan identical
//! answer counts: adaptivity reschedules, it never answers. The gates
//! are the `doc.gate` calls in `main`.
//!
//! Flags: `--out FILE` (default `BENCH_adaptive.json`), `--quick 1`
//! (CI smoke: smaller cycles), `--rounds N` (cold/warm pairs, default
//! 3; every round gets a fresh engine so run 1 is genuinely cold).

use mintri_bench::{timed, Args, BenchDoc};
use mintri_core::query::CostMeasure;
use mintri_core::TdEnumerationMode;
use mintri_engine::{Engine, EngineConfig, Query};
use mintri_graph::{Graph, Node};
use mintri_workloads::random::{chained_cycles, chord_cycle};

/// Drives the mixed workload to completion on `engine` under the
/// default (Auto) policy; total item count and wall time.
fn drive(engine: &Engine, graphs: &[Graph]) -> (usize, f64) {
    timed(|| {
        let mut scanned = 0;
        for g in graphs {
            scanned += engine.run(g, Query::enumerate()).count();
            scanned += engine.run(g, Query::best_k(3, CostMeasure::Width)).count();
            scanned += engine
                .run(g, Query::decompose(TdEnumerationMode::OnePerClass))
                .count();
        }
        scanned
    })
}

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "quick", "rounds"]);
    let out_path = args.get_str("out", "BENCH_adaptive.json");
    let quick = args.get_usize("quick", 0) != 0;
    let rounds = args.get_usize("rounds", 3).max(1);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Chord-cycles plan to one atom, whose stream runs unwrapped;
    // chained cycles decompose into one atom per cycle, so the composed
    // odometer (where Auto's cursor and thread-split decisions live)
    // carries real queries.
    let n = if quick { 10 } else { 12 };
    let mut graphs: Vec<Graph> = (2..(n as Node - 1)).map(|j| chord_cycle(n, j)).collect();
    graphs.push(chained_cycles(&[4, 5, 6]));
    graphs.push(chained_cycles(&[5, 6]));

    eprintln!(
        "adaptive: {} graphs x 3 queries x {rounds} rounds, run 1 (cold) vs run 2 (same engine) …",
        graphs.len()
    );
    let mut run1_seconds = 0.0;
    let mut run2_seconds = 0.0;
    let mut run1_scanned = 0;
    let mut run2_scanned = 0;
    let mut profile_entries = 0;
    for _ in 0..rounds {
        let engine = Engine::with_config(EngineConfig {
            threads: cpus.min(4),
            ..EngineConfig::default()
        });
        let (scanned, seconds) = drive(&engine, &graphs);
        (run1_scanned, run1_seconds) = (scanned, run1_seconds + seconds);
        let (scanned, seconds) = drive(&engine, &graphs);
        (run2_scanned, run2_seconds) = (scanned, run2_seconds + seconds);
        profile_entries = engine.profile_views().len();
    }
    assert!(
        profile_entries > 0,
        "run 1 must have taught the profiler something"
    );

    let ratio = run1_seconds / run2_seconds.max(1e-9);
    eprintln!(
        "gate: run 1 {run1_seconds:.4}s, run 2 {run2_seconds:.4}s ({ratio:.0}x) \
         over {run1_scanned} answers, {profile_entries} profile entries"
    );

    let mut doc = BenchDoc::new("adaptive_gain", quick);
    doc.metric("rounds", "count", rounds as f64);
    doc.metric("queries_per_run", "count", (graphs.len() * 3) as f64);
    doc.metric("run1_seconds", "s", run1_seconds);
    doc.metric("run2_seconds", "s", run2_seconds);
    doc.metric("run1_over_run2", "ratio", ratio);
    doc.metric("run1_scanned", "count", run1_scanned as f64);
    doc.metric("run2_scanned", "count", run2_scanned as f64);
    doc.metric("profile_entries", "count", profile_entries as f64);
    doc.gate("run1_scanned", ">", 0.0);
    doc.gate_eq("run2_scanned", "run1_scanned");
    doc.gate("profile_entries", ">", 0.0);
    doc.gate("run1_seconds", ">", 0.0);
    doc.gate("run2_seconds", ">", 0.0);
    doc.gate("run1_over_run2", ">=", 1.2);
    doc.write(&out_path)?;
    Ok(())
}
