//! Cost of the observability layer: engine enumeration with per-query
//! span tracing (`Query::traced(true)`) vs. the same query untraced, on
//! the chord-cycle family. Emits `BENCH_telemetry.json` so CI can hold
//! the tracing tax under a hard ceiling (the `doc.gate` calls in `main`).
//!
//! The registry counters/histograms are *always* on — they are plain
//! atomics on the hot paths and not separable — so the measured delta
//! is the span tree itself: `TraceBuilder` allocation, per-atom span
//! wrapping, clock reads and the attr writes at stream close. Both
//! sides run on a fresh cold `Engine` per round (no replay; replay
//! would serve from the answer cache and hide the enumeration cost the
//! gate is about), drain every result, and take a full `outcome()`
//! snapshot — the traced side pays for rendering the tree into the
//! outcome, which is part of the honest price.
//!
//! The overhead estimate is the median of paired per-round ratios
//! (untraced then traced back to back each round), which cancels the
//! slow clock-speed drift a shared CI box shows; the raw min-of-round
//! times are reported alongside. Flags: `--out FILE` (default
//! `BENCH_telemetry.json`), `--quick 1` (CI smoke: C10 family),
//! `--rounds N` (default 5, quick 9), `--reps N` (family sweeps per
//! timed pass; default 3, quick 12).

use mintri_bench::{paired_rounds, Args, BenchDoc};
use mintri_core::query::{ExecPolicy, Query};
use mintri_engine::Engine;
use mintri_graph::{Graph, Node};
use mintri_workloads::random::chord_cycle;
use std::time::Instant;

/// One timed pass: `reps` cold engine sweeps over the whole family
/// (fresh `Engine` per sweep — replay would hide the enumeration cost
/// the gate is about). Returns results per sweep and total seconds.
fn run_family(graphs: &[Graph], traced: bool, reps: usize) -> (usize, f64) {
    let started = Instant::now();
    let mut produced = 0;
    for _ in 0..reps {
        let engine = Engine::new();
        produced = 0;
        for g in graphs {
            let mut response = engine.run(
                g,
                Query::enumerate()
                    .policy(ExecPolicy::default().with_threads(1))
                    .traced(traced),
            );
            produced += response.by_ref().count();
            let outcome = response.outcome();
            assert_eq!(
                outcome.trace.is_some(),
                traced,
                "trace presence must follow the query flag"
            );
        }
    }
    (produced, started.elapsed().as_secs_f64())
}

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "quick", "rounds", "reps"]);
    let out_path = args.get_str("out", "BENCH_telemetry.json");
    let quick = args.get_usize("quick", 0) != 0;
    let rounds = args.get_usize("rounds", if quick { 9 } else { 5 });
    // Each timed pass sweeps the family `reps` times so one pass is
    // long enough (hundreds of ms) that scheduler jitter on a shared
    // box doesn't swamp a few-percent signal.
    let reps = args.get_usize("reps", if quick { 12 } else { 3 });

    // Same family as `kernel_gain`: an n-cycle plus one chord at
    // varying positions — pairwise distinct fingerprints, so every
    // query is a genuine cold enumeration.
    let n = if quick { 10 } else { 12 };
    let graphs: Vec<Graph> = (2..(n as Node - 1)).map(|j| chord_cycle(n, j)).collect();

    eprintln!(
        "telemetry_overhead: C{n} chord family, {} graphs, {rounds} rounds x {reps} sweeps",
        graphs.len()
    );
    let (results, untraced_s, traced_s, overhead_pct) = paired_rounds(
        rounds,
        reps,
        "tracing",
        |traced, reps| run_family(&graphs, traced, reps),
        |untraced, traced| 100.0 * (traced - untraced) / untraced.max(1e-9),
    );
    eprintln!("  untraced: {results} results/sweep in {untraced_s:.4}s (min of {rounds})");
    eprintln!("  traced:   {results} results/sweep in {traced_s:.4}s (min of {rounds})");
    eprintln!("  overhead: {overhead_pct:.2}% (median of {rounds} paired rounds)");

    let mut doc = BenchDoc::new("telemetry_overhead", quick);
    doc.metric("graphs", "count", graphs.len() as f64);
    doc.metric("rounds", "count", rounds as f64);
    doc.metric("reps_per_pass", "count", reps as f64);
    doc.metric("results", "count", results as f64);
    doc.metric("untraced_seconds", "s", untraced_s);
    doc.metric("traced_seconds", "s", traced_s);
    doc.metric("overhead_pct", "pct", overhead_pct);
    doc.gate("results", ">", 0.0);
    doc.gate("untraced_seconds", ">", 0.0);
    doc.gate("traced_seconds", ">", 0.0);
    doc.gate("overhead_pct", "<=", 5.0);
    doc.write(&out_path)?;
    Ok(())
}
