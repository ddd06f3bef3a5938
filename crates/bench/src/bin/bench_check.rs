//! The bench-regression gate: `bench_check FILE…` reads each
//! `BENCH_*.json` document (see `mintri_bench::doc`) with the same
//! `mintri_core::json` parser the wire uses and evaluates the gates the
//! producing bench stated. It knows nothing about any one bench: every
//! threshold lives in the document. CI runs it after the `--quick` bench
//! smoke runs; locally it doubles as a sanity check on freshly
//! regenerated baselines.
//!
//! `bench_check --parse FILE` only checks that `FILE` parses as JSON —
//! the serve smoke uses it to prove a `"trace": true` response
//! round-trips through the core parser.
//!
//! Checks every file, printing each gate with the values it compared,
//! and exits non-zero if any file fails to load, states no gates or
//! fails one, or if two files of the same bench state different gates
//! on whole-document metrics. CI passes each fresh run next to its
//! committed baseline, so a producer cannot drop a gate or move a
//! threshold without its baseline changing with it.

use mintri_bench::BenchDoc;
use mintri_core::json::JsonValue;
use std::process::ExitCode;

/// Loads and evaluates one document, printing its gates; whether every
/// gate held, and the document if it loaded.
fn check(path: &str) -> (bool, Option<BenchDoc>) {
    let doc = match BenchDoc::load(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("FAIL {e}");
            return (false, None);
        }
    };
    let (verdict, lines) = match doc.evaluate() {
        Ok(passed) => ("ok", passed),
        Err(failed) => ("FAIL", failed),
    };
    eprintln!("{verdict}: {path} ({}, {} cpus)", doc.bench, doc.cpus);
    lines
        .iter()
        .for_each(|line| eprintln!("  {verdict} {line}"));
    (verdict == "ok", Some(doc))
}

/// Not a gate on values — a gate on *shape*: the file must survive the
/// parser the wire clients use.
fn parse(path: &str) -> bool {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| JsonValue::parse(&text).map_err(|e| e.to_string()));
    match &parsed {
        Ok(_) => eprintln!("parse ok: {path}"),
        Err(e) => eprintln!("FAIL {path}: {e}"),
    }
    parsed.is_ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.as_slice() {
        [flag, path] if flag == "--parse" => parse(path),
        files if !files.is_empty() && files.iter().all(|f| !f.starts_with("--")) => {
            let mut ok = true;
            let mut docs: Vec<BenchDoc> = Vec::new();
            for path in files {
                let (passed, doc) = check(path);
                ok &= passed;
                let Some(doc) = doc else { continue };
                let earlier = docs.iter().find(|d| d.bench == doc.bench);
                if let Some(Err(e)) = earlier.map(|d| doc.same_gates_as(d)) {
                    eprintln!("FAIL {path}: {e}");
                    ok = false;
                }
                docs.push(doc);
            }
            ok
        }
        _ => {
            eprintln!("usage: bench_check BENCH_*.json… | bench_check --parse FILE.json");
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
