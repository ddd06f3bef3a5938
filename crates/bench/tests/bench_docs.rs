//! The committed `BENCH_*.json` baselines against the one generic gate:
//! every document parses into the `mintri_bench::doc` schema and passes
//! its own gates, and fails once a reading is pushed past any one of the
//! checks its bench has always been held to.

use mintri_bench::BenchDoc;
use mintri_core::json::JsonValue;
use std::path::PathBuf;

/// Committed file stem → producing bench.
const DOCS: [(&str, &str); 8] = [
    ("engine", "engine_scaling"),
    ("kernel", "kernel_gain"),
    ("query", "query_overhead"),
    ("ranked", "ranked_gain"),
    ("reduction", "reduction_gain"),
    ("serve", "serve_throughput"),
    ("store", "store_gain"),
    ("telemetry", "telemetry_overhead"),
];

fn committed(stem: &str) -> BenchDoc {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{stem}.json"));
    BenchDoc::load(path.to_str().expect("utf-8 path")).unwrap_or_else(|e| panic!("{e}"))
}

fn round_trip(doc: &BenchDoc) -> BenchDoc {
    BenchDoc::from_json(&JsonValue::parse(&doc.render()).expect("renders valid JSON"))
        .expect("reads back")
}

/// A mutation of one reading: its new value, or `None` to remove it.
type Change = fn(f64) -> Option<f64>;

/// Asserts that `doc`, with `metric` changed by `change`, fails the gate
/// on that metric. A `*/` prefix picks the first workload's metric. The
/// mutated document crosses the writer and the reader first (a NaN
/// crosses as `null`).
fn rejects(mut doc: BenchDoc, metric: &str, change: Change) {
    let i = doc
        .metrics
        .iter()
        .position(|m| match metric.strip_prefix('*') {
            Some(suffix) => m.name.ends_with(suffix),
            None => m.name == metric,
        })
        .unwrap_or_else(|| panic!("{} records no {metric}", doc.bench));
    let name = doc.metrics[i].name.clone();
    match change(doc.metrics[i].value) {
        Some(value) => doc.metrics[i].value = value,
        None => drop(doc.metrics.remove(i)),
    }
    let failed = round_trip(&doc)
        .evaluate()
        .expect_err("a mutated document fails");
    assert!(
        failed
            .iter()
            .any(|line| line.starts_with(&format!("{name} "))),
        "{}: no gate on {name} failed: {failed:?}",
        doc.bench
    );
}

#[test]
fn every_committed_document_parses_and_passes_its_gates() {
    for (stem, bench) in DOCS {
        let doc = committed(stem);
        assert_eq!(doc.bench, bench, "BENCH_{stem}.json");
        assert!(
            doc.cpus >= 2,
            "BENCH_{stem}.json was taken on {} CPU",
            doc.cpus
        );
        assert!(!doc.quick, "BENCH_{stem}.json is a --quick smoke run");
        if let Err(failed) = doc.evaluate() {
            panic!("BENCH_{stem}.json fails {failed:?}");
        }
        assert_eq!(round_trip(&doc), doc, "BENCH_{stem}.json round-trips");
    }
}

/// One case per check the seven per-bench checkers of `bench_check`
/// used to make, each pushed just past its old threshold.
#[test]
fn each_former_gate_rejects_a_document_pushed_past_it() {
    let cases: [(&str, &str, Change); 26] = [
        ("serve", "warm_is_replay", |_| Some(0.0)),
        ("serve", "cold_scanned", |_| Some(0.0)),
        ("serve", "warm_scanned", |cold| Some(cold + 1.0)),
        ("serve", "warm_over_cold", |_| Some(9.99)),
        ("reduction", "workloads", |_| Some(0.0)),
        ("reduction", "*/results", |_| Some(0.0)),
        ("reduction", "*/planned_seconds", |_| Some(0.0)),
        ("reduction", "*/unreduced_seconds", |_| Some(f64::NAN)),
        ("ranked", "workloads", |_| Some(0.0)),
        ("ranked", "*/winners", |k| Some(k - 1.0)),
        ("ranked", "*/speedup", |_| Some(2.99)),
        ("ranked", "*/ranked_seconds", |_| None),
        ("ranked", "*/exhaustive_seconds", |_| Some(0.0)),
        ("store", "hydrated_is_replay", |_| Some(0.0)),
        ("store", "cold_scanned", |_| Some(0.0)),
        ("store", "hydrated_scanned", |cold| Some(cold - 1.0)),
        ("store", "cold_over_hydrated", |_| Some(4.99)),
        ("telemetry", "overhead_pct", |_| Some(5.01)),
        ("telemetry", "overhead_pct", |_| Some(f64::NAN)),
        ("telemetry", "results", |_| Some(0.0)),
        ("telemetry", "traced_seconds", |_| Some(f64::NAN)),
        ("telemetry", "untraced_seconds", |_| Some(0.0)),
        ("kernel", "speedup", |_| Some(1.29)),
        ("kernel", "extends_per_sweep", |_| Some(0.0)),
        ("kernel", "ablated_seconds", |_| None),
        ("kernel", "kernel_seconds", |_| Some(-1.0)),
    ];
    for (stem, metric, change) in cases {
        rejects(committed(stem), metric, change);
    }
}

#[test]
fn a_zero_workload_document_is_rejected() {
    for stem in ["reduction", "ranked"] {
        let mut doc = committed(stem);
        doc.metrics.retain(|m| !m.name.contains('/'));
        doc.gates.retain(|g| !g.metric.contains('/'));
        rejects(doc, "workloads", |_| Some(0.0));
    }
}
