//! Measures what the persistent warm-state tier buys: the same query
//! family is driven **cold** (fresh engine, empty `--store-dir`), then
//! **disk-hydrated** (a brand-new engine over the same directory — the
//! restart / second-replica story: plans and answer caches come back
//! from snapshots, zero `Extend` calls), then **RAM-warm** (the same
//! engine again — the in-memory replay ceiling). Emits
//! `BENCH_store.json`.
//!
//! The workload is a family of `n`-cycles plus one chord at varying
//! positions, enumerated to completion so every graph deposits its
//! answer list. The gate reading is `cold_seconds / hydrated_seconds` —
//! hydration re-interns separators instead of re-running `EnumMIS`, so
//! it must be a large multiple. The gates are the `doc.gate` calls in
//! `main`.
//!
//! Flags: `--out FILE` (default `BENCH_store.json`), `--quick 1` (CI
//! smoke: smaller cycles), `--rounds N` (passes per phase, default 3;
//! cold rounds run on distinct fresh directories so every pass is
//! genuinely cold, hydrated rounds reopen the same directory with a
//! fresh engine).

use mintri_bench::{Args, BenchDoc};
use mintri_engine::{Engine, EngineConfig, Query, Store, StoreConfig};
use mintri_graph::{Graph, Node};
use mintri_workloads::random::chord_cycle;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A scratch store root, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("mintri-store-gain-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn engine_over(dir: &ScratchDir) -> Engine {
    Engine::with_store(
        EngineConfig::default(),
        Arc::new(Store::open(StoreConfig::at(&dir.0)).expect("store opens")),
    )
}

struct Measured {
    seconds: f64,
    scanned: usize,
    all_replayed: bool,
}

/// Enumerates every graph to completion on `engine`; total wall time,
/// total result count, and whether every response was a replay.
fn drive(engine: &Engine, graphs: &[Graph]) -> Measured {
    let started = Instant::now();
    let mut scanned = 0;
    let mut all_replayed = true;
    for g in graphs {
        let response = engine.run(g, Query::enumerate());
        all_replayed &= response.is_replay();
        scanned += response.count();
    }
    Measured {
        seconds: started.elapsed().as_secs_f64(),
        scanned,
        all_replayed,
    }
}

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "quick", "rounds"]);
    let out_path = args.get_str("out", "BENCH_store.json");
    let quick = args.get_usize("quick", 0) != 0;
    let rounds = args.get_usize("rounds", 3).max(1);

    let n = if quick { 10 } else { 12 };
    let graphs: Vec<Graph> = (2..(n as Node - 1)).map(|j| chord_cycle(n, j)).collect();

    // -- cold: fresh engine, empty directory, every round ----------------
    eprintln!(
        "cold: {} distinct C{n}+chord graphs x {rounds} rounds …",
        graphs.len()
    );
    let mut cold_seconds = 0.0;
    let mut cold_scanned = 0;
    for round in 0..rounds {
        let dir = ScratchDir::new(&format!("cold-{round}"));
        let engine = engine_over(&dir);
        let cold = drive(&engine, &graphs);
        assert!(!cold.all_replayed, "cold rounds must compute, not replay");
        cold_seconds += cold.seconds;
        cold_scanned = cold.scanned;
    }

    // -- seed one directory, then hydrate fresh engines from it ----------
    let dir = ScratchDir::new("warm");
    {
        let seeder = engine_over(&dir);
        drive(&seeder, &graphs);
        seeder.store().expect("store attached").flush();
    }
    eprintln!("hydrated: fresh engine over the seeded directory x {rounds} rounds …");
    let mut hydrated_seconds = 0.0;
    let mut hydrated_scanned = 0;
    let mut hydrated_is_replay = true;
    let mut ram_seconds = 0.0;
    let mut ram_scanned = 0;
    let mut store_entries = 0;
    let mut store_bytes = 0;
    for _ in 0..rounds {
        let engine = engine_over(&dir);
        let hydrated = drive(&engine, &graphs);
        hydrated_seconds += hydrated.seconds;
        hydrated_scanned = hydrated.scanned;
        hydrated_is_replay &= hydrated.all_replayed;
        // -- RAM-warm ceiling: the same engine, sessions already hot ----
        let ram = drive(&engine, &graphs);
        assert!(ram.all_replayed, "the second pass must replay from RAM");
        ram_seconds += ram.seconds;
        ram_scanned = ram.scanned;
        let store = engine.store().expect("store attached");
        store_entries = store.entries();
        store_bytes = store.bytes_stored();
    }

    let ratio = cold_seconds / hydrated_seconds.max(1e-9);
    let ram_ratio = cold_seconds / ram_seconds.max(1e-9);
    eprintln!(
        "gate: cold {cold_seconds:.4}s, disk-hydrated {hydrated_seconds:.4}s ({ratio:.0}x), \
         RAM-warm {ram_seconds:.4}s ({ram_ratio:.0}x) over {cold_scanned} answers"
    );

    let mut doc = BenchDoc::new("store_gain", quick);
    doc.metric("rounds", "count", rounds as f64);
    doc.metric("queries_per_round", "count", graphs.len() as f64);
    doc.metric("cold_seconds", "s", cold_seconds);
    doc.metric("hydrated_seconds", "s", hydrated_seconds);
    doc.metric("ram_seconds", "s", ram_seconds);
    doc.metric("cold_over_hydrated", "ratio", ratio);
    doc.metric("cold_over_ram", "ratio", ram_ratio);
    doc.metric("cold_scanned", "count", cold_scanned as f64);
    doc.metric("hydrated_scanned", "count", hydrated_scanned as f64);
    doc.metric("ram_scanned", "count", ram_scanned as f64);
    doc.metric("hydrated_is_replay", "bool", f64::from(hydrated_is_replay));
    doc.metric("store_entries", "count", store_entries as f64);
    doc.metric("store_bytes", "bytes", store_bytes as f64);
    doc.gate("hydrated_is_replay", "==", 1.0);
    doc.gate("cold_scanned", ">", 0.0);
    doc.gate_eq("hydrated_scanned", "cold_scanned");
    doc.gate("cold_over_hydrated", ">=", 5.0);
    doc.write(&out_path)?;
    Ok(())
}
