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
//! must be at least 1.2x the first (CI gates via
//! `bench_check --adaptive`; in practice replay puts the ratio far
//! higher, the floor guards against the profile/dispatch layer ever
//! making a repeat visit *slower*). Both runs must scan identical
//! answer counts: adaptivity reschedules, it never answers.
//!
//! Flags: `--out FILE` (default `BENCH_adaptive.json`), `--quick 1`
//! (CI smoke: smaller cycles), `--rounds N` (cold/warm pairs, default
//! 3; every round gets a fresh engine so run 1 is genuinely cold).

use mintri_bench::Args;
use mintri_core::query::CostMeasure;
use mintri_core::TdEnumerationMode;
use mintri_engine::{Engine, EngineConfig, Query};
use mintri_graph::{Graph, Node};
use mintri_workloads::random::{chained_cycles, chord_cycle};
use std::fmt::Write as _;
use std::time::Instant;

struct Measured {
    seconds: f64,
    scanned: usize,
}

/// Drives the mixed workload to completion on `engine` under the
/// default (Auto) policy; total wall time and total item count.
fn drive(engine: &Engine, graphs: &[Graph]) -> Measured {
    let started = Instant::now();
    let mut scanned = 0;
    for g in graphs {
        scanned += engine.run(g, Query::enumerate()).count();
        scanned += engine.run(g, Query::best_k(3, CostMeasure::Width)).count();
        scanned += engine
            .run(g, Query::decompose(TdEnumerationMode::OnePerClass))
            .count();
    }
    Measured {
        seconds: started.elapsed().as_secs_f64(),
        scanned,
    }
}

fn main() -> std::io::Result<()> {
    let args = Args::parse();
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
        let run1 = drive(&engine, &graphs);
        run1_seconds += run1.seconds;
        run1_scanned = run1.scanned;
        let run2 = drive(&engine, &graphs);
        run2_seconds += run2.seconds;
        run2_scanned = run2.scanned;
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

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"adaptive_gain\",");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"gate\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"mixed_C{n}_chord_chained_cycles\","
    );
    let _ = writeln!(json, "    \"queries_per_run\": {},", graphs.len() * 3);
    let _ = writeln!(json, "    \"run1_seconds\": {run1_seconds:.6},");
    let _ = writeln!(json, "    \"run2_seconds\": {run2_seconds:.6},");
    let _ = writeln!(json, "    \"run1_over_run2\": {ratio:.2},");
    let _ = writeln!(json, "    \"run1_scanned\": {run1_scanned},");
    let _ = writeln!(json, "    \"run2_scanned\": {run2_scanned},");
    let _ = writeln!(json, "    \"profile_entries\": {profile_entries}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json)?;
    eprintln!("wrote {out_path}");
    Ok(())
}
