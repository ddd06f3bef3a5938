//! The CLI's `--format json` output must parse with the shared
//! `mintri_core::json` parser — no more write-only JSON. These tests run
//! the real `mintri` binary on a temp graph file and parse its stdout.

use mintri::core::json::JsonValue;
use std::process::Command;

const DIMACS_C6: &str = "p edge 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 1\n";

/// A temp DIMACS C6 file, named per test (`tag`) so parallel tests never
/// remove each other's input.
fn graph_file(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "mintri_cli_json_c6_{tag}_{}.col",
        std::process::id()
    ));
    std::fs::write(&path, DIMACS_C6).expect("write temp graph");
    path
}

fn run_json(args: &[&str]) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_mintri"))
        .args(args)
        .output()
        .expect("run mintri");
    assert!(
        out.status.success(),
        "mintri {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    JsonValue::parse(stdout.trim())
        .unwrap_or_else(|e| panic!("mintri {args:?} emitted unparseable JSON: {e}\n{stdout}"))
}

#[test]
fn every_json_command_parses_back() {
    let path = graph_file("json");
    let input = path.to_str().unwrap();

    let doc = run_json(&["stats", "--input", input, "--format", "json"]);
    assert_eq!(doc.get("command").unwrap().as_str(), Some("stats"));
    assert_eq!(doc.get("chordal").unwrap().as_bool(), Some(false));

    let doc = run_json(&["atoms", "--input", input, "--format", "json"]);
    assert_eq!(doc.get("atoms").unwrap().as_array().unwrap().len(), 1);

    let doc = run_json(&["triangulate", "--input", input, "--format", "json"]);
    assert_eq!(doc.get("algo").unwrap().as_str(), Some("MCS_M"));
    assert!(doc.get("fill").unwrap().as_array().is_some());

    let doc = run_json(&["enumerate", "--input", input, "--format", "json"]);
    assert_eq!(doc.get("command").unwrap().as_str(), Some("enumerate"));
    assert_eq!(doc.get("results").unwrap().as_array().unwrap().len(), 14);
    let outcome = doc.get("outcome").unwrap();
    assert_eq!(outcome.get("completed").unwrap().as_bool(), Some(true));
    assert_eq!(outcome.get("scanned").unwrap().as_usize(), Some(14));

    let doc = run_json(&[
        "best-k", "--input", input, "--k", "3", "--by", "fill", "--format", "json",
    ]);
    assert_eq!(doc.get("results").unwrap().as_array().unwrap().len(), 3);

    let doc = run_json(&["decompose", "--input", input, "--format", "json"]);
    assert!(!doc.get("results").unwrap().as_array().unwrap().is_empty());

    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let path = graph_file("flags");
    let input = path.to_str().unwrap();
    for (args, flag) in [
        (
            vec!["enumerate", "--input", input, "--polcy", "fixed"],
            "--polcy",
        ),
        (
            vec!["enumerate", "--input", input, "--no-plan"],
            "--no-plan",
        ),
        (
            vec!["enumerate", "--input", input, "--policy", "auto"],
            "--policy",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mintri"))
            .args(&args)
            .output()
            .expect("run mintri");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "mintri {args:?} must fail");
        assert!(stderr.contains(flag), "stderr must name {flag}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}
