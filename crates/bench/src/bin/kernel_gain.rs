//! Gain of the scratch-space execution kernel: cold sequential
//! enumeration throughput (`Extend` calls per second) with the kernel on
//! vs. ablated (`MsGraph::without_scratch_kernel`), on the chord-cycle
//! family. Emits `BENCH_kernel.json` so CI can hold the kernel's speedup
//! above a floor (the `doc.gate` calls in `main`).
//!
//! Both sides run the *same* enumeration — the kernel is identity-
//! preserving (see `tests/scratch_kernel.rs`) — so the delta is purely
//! the allocation traffic: per-`Extend` graph clones, bitset clones, BFS
//! queues, MCS-M buffers and clique-forest scratch that the ablated path
//! re-acquires from the allocator every call. A fresh `MsGraph` per
//! sweep keeps every pass cold (warm memo tables would collapse both
//! sides into cache lookups and hide the difference the gate is about).
//!
//! The speedup estimate is the median of paired per-round ratios
//! (ablated then kernel back to back each round), which cancels slow
//! clock-speed drift on a shared CI box; min-of-round times are reported
//! alongside. Single-threaded, so the speedup is observable on any
//! machine. Flags: `--out FILE` (default `BENCH_kernel.json`),
//! `--quick 1` (CI smoke: C10 family), `--rounds N` (default 5),
//! `--reps N` (family sweeps per timed pass; default 3, quick 6).

use mintri_bench::{paired_rounds, Args, BenchDoc};
use mintri_core::{MinimalTriangulationsEnumerator, MsGraph};
use mintri_graph::{Graph, Node};
use mintri_sgr::PrintMode;
use mintri_workloads::random::chord_cycle;
use std::time::Instant;

/// One timed pass: `reps` cold sweeps over the whole family, each graph
/// enumerated to completion on a fresh `MsGraph`. Returns total `Extend`
/// calls per sweep and total seconds.
fn run_family(graphs: &[Graph], kernel: bool, reps: usize) -> (usize, f64) {
    let started = Instant::now();
    let mut extends = 0;
    for _ in 0..reps {
        extends = 0;
        for g in graphs {
            let ms = if kernel {
                MsGraph::new(g)
            } else {
                MsGraph::new(g).without_scratch_kernel()
            };
            let mut e =
                MinimalTriangulationsEnumerator::from_msgraph(ms, PrintMode::UponGeneration);
            let produced = e.by_ref().count();
            assert!(produced > 0, "family graph enumerated nothing");
            extends += e.msgraph_stats().extends;
        }
    }
    (extends, started.elapsed().as_secs_f64())
}

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "quick", "rounds", "reps"]);
    let out_path = args.get_str("out", "BENCH_kernel.json");
    let quick = args.get_usize("quick", 0) != 0;
    let rounds = args.get_usize("rounds", 5);
    let reps = args.get_usize("reps", if quick { 6 } else { 3 });

    // An n-cycle plus one chord at varying positions — the same cold
    // family the store/telemetry gates sweep, rich enough that every
    // Extend saturates, triangulates and extracts separators.
    let n = if quick { 10 } else { 12 };
    let graphs: Vec<Graph> = (2..(n as Node - 1)).map(|j| chord_cycle(n, j)).collect();

    eprintln!(
        "kernel_gain: C{n} chord family, {} graphs, {rounds} rounds x {reps} sweeps",
        graphs.len()
    );
    let (extends, ablated_s, kernel_s, speedup) = paired_rounds(
        rounds,
        reps,
        "the kernel",
        |kernel, reps| run_family(&graphs, kernel, reps),
        |ablated, kernel| ablated / kernel.max(1e-9),
    );
    let ablated_rate = extends as f64 * reps as f64 / ablated_s.max(1e-9);
    let kernel_rate = extends as f64 * reps as f64 / kernel_s.max(1e-9);
    eprintln!("  ablated: {extends} extends/sweep, {ablated_rate:.0}/s (min of {rounds})");
    eprintln!("  kernel:  {extends} extends/sweep, {kernel_rate:.0}/s (min of {rounds})");
    eprintln!("  speedup: {speedup:.3}x (median of {rounds} paired rounds)");

    let mut doc = BenchDoc::new("kernel_gain", quick);
    doc.metric("graphs", "count", graphs.len() as f64);
    doc.metric("rounds", "count", rounds as f64);
    doc.metric("reps_per_pass", "count", reps as f64);
    doc.metric("extends_per_sweep", "count", extends as f64);
    doc.metric("ablated_seconds", "s", ablated_s);
    doc.metric("kernel_seconds", "s", kernel_s);
    doc.metric("ablated_extends_per_sec", "1/s", ablated_rate);
    doc.metric("kernel_extends_per_sec", "1/s", kernel_rate);
    doc.metric("speedup", "ratio", speedup);
    doc.gate("extends_per_sweep", ">", 0.0);
    doc.gate("ablated_seconds", ">", 0.0);
    doc.gate("kernel_seconds", ">", 0.0);
    doc.gate("speedup", ">=", 1.3);
    doc.write(&out_path)?;
    Ok(())
}
