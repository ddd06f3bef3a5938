//! Load generator for the HTTP transport: boots an in-process
//! `mintri-serve` server over one shared engine and measures request
//! throughput **cold** (every request hits a graph the engine has never
//! seen — the full enumeration runs) vs. **warm-replay** (the same query
//! again — served from the session's completed answer cache with zero
//! `Extend` calls). Emits `BENCH_serve.json`.
//!
//! The gate workload is a budget-free best-k scan with `"plan": false`
//! and `"ranked": false`: the response body is tiny (k = 2 items), so
//! the measured ratio is compute-vs-replay, not JSON rendering;
//! planning is disabled so every distinct cold graph owns a distinct
//! whole-graph session (no atom sharing between the "cold" requests);
//! the ranked gear is disabled because its output-sensitive scan never
//! drains the enumeration, which is the very compute this gate measures.
//! Cold and warm compare like for like: the cold graphs are the `n`
//! rotations of one `n`-cycle with a chord cutting off a triangle
//! (Catalan(n − 3) answers each, pairwise distinct fingerprints), and
//! the warm side replays the last of them. A second, ungated workload
//! streams a full `enumerate` (items and all) for end-to-end wire
//! throughput.
//!
//! Flags: `--out FILE` (default `BENCH_serve.json`), `--quick 1` (CI
//! smoke: smaller enumerate workload), `--warm N` (warm requests,
//! default 50). The gates are the `doc.gate` calls at the end of `main`;
//! the ratio is single-stream, so they hold at any CPU count.

use mintri_bench::{Args, BenchDoc};
use mintri_core::json::{graph_to_json, JsonValue};
use mintri_engine::Engine;
use mintri_graph::{Graph, Node};
use mintri_serve::client::Client;
use mintri_serve::{ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

struct Measured {
    requests: usize,
    seconds: f64,
    scanned_last: usize,
    replay_last: bool,
}

/// Runs `specs` sequentially over one keep-alive connection; returns
/// wall-clock plus the last response's scan count and replay flag.
fn drive(client: &mut Client, specs: &[String]) -> Measured {
    let started = Instant::now();
    let mut scanned_last = 0;
    let mut replay_last = false;
    for spec in specs {
        let resp = client
            .request("POST", "/v1/query", Some(spec))
            .expect("query request");
        assert_eq!(resp.status, 200, "query failed: {}", resp.body);
        let doc = JsonValue::parse(&resp.body).expect("response parses");
        scanned_last = doc
            .get("outcome")
            .and_then(|o| o.get("scanned"))
            .and_then(JsonValue::as_usize)
            .expect("outcome.scanned");
        replay_last = doc
            .get("is_replay")
            .and_then(JsonValue::as_bool)
            .expect("is_replay");
    }
    Measured {
        requests: specs.len(),
        seconds: started.elapsed().as_secs_f64(),
        scanned_last,
        replay_last,
    }
}

fn upload(client: &mut Client, g: &Graph) -> String {
    let resp = client
        .request("POST", "/v1/graphs", Some(&graph_to_json(g)))
        .expect("upload request");
    assert_eq!(resp.status, 200, "upload failed: {}", resp.body);
    JsonValue::parse(&resp.body)
        .expect("upload response parses")
        .get("graph_id")
        .and_then(JsonValue::as_str)
        .expect("graph_id")
        .to_string()
}

// `"ranked": false` keeps this the full-scan gate: the ranked gear is
// output-sensitive (stops after ~k pulls, deposits no answer cache), so
// a ranked cold request would neither exercise the compute being gated
// nor arm the warm replay.
fn best_k_spec(graph_id: &str) -> String {
    format!(
        r#"{{"graph_id":"{graph_id}","query":{{"task":{{"type":"best_k","k":2,"cost":"width"}},"plan":false,"ranked":false}}}}"#
    )
}

fn enumerate_spec(graph_id: &str) -> String {
    format!(r#"{{"graph_id":"{graph_id}","query":{{"task":{{"type":"enumerate"}}}}}}"#)
}

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out", "quick", "warm"]);
    let out_path = args.get_str("out", "BENCH_serve.json");
    let quick = args.get_usize("quick", 0) != 0;
    let warm_rounds = args.get_usize("warm", 50);

    // The cold family: every rotation of C12 plus the chord (r, r + 2).
    let n = 12;
    let graphs: Vec<Graph> = (0..n as Node)
        .map(|r| {
            let mut g = Graph::cycle(n);
            g.add_edge(r, (r + 2) % n as Node);
            g
        })
        .collect();

    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
        Arc::new(Engine::new()),
    )?;
    let addr = server.local_addr()?;
    let handle = server.handle()?;
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr)?;

    // -- gate workload: best-k over the rotated chord family ------------
    let ids: Vec<String> = graphs.iter().map(|g| upload(&mut client, g)).collect();
    eprintln!(
        "cold: {} rotations of C{n}+chord, best-k scan each …",
        ids.len()
    );
    let cold_specs: Vec<String> = ids.iter().map(|id| best_k_spec(id)).collect();
    let cold = drive(&mut client, &cold_specs);
    assert!(!cold.replay_last, "cold requests must compute, not replay");

    // The gate graph is the last cold one; its scan count is in hand.
    let gate_id = ids.last().expect("non-empty chord family");
    let cold_scanned = cold.scanned_last;
    eprintln!("warm: {warm_rounds} replays of the same best-k query …");
    let warm_specs: Vec<String> = (0..warm_rounds).map(|_| best_k_spec(gate_id)).collect();
    let warm = drive(&mut client, &warm_specs);
    assert!(warm.replay_last, "warm requests must replay");
    assert_eq!(
        warm.scanned_last, cold_scanned,
        "replay must scan the same answer set"
    );

    let cold_rps = cold.requests as f64 / cold.seconds.max(1e-9);
    let warm_rps = warm.requests as f64 / warm.seconds.max(1e-9);
    let ratio = warm_rps / cold_rps.max(1e-9);
    eprintln!("gate: cold {cold_rps:.1} req/s, warm-replay {warm_rps:.1} req/s ({ratio:.0}x)");

    // -- side workload: full enumerate stream over the wire --------------
    let enum_id = upload(&mut client, &Graph::cycle(if quick { 7 } else { 8 }));
    let enum_cold = drive(&mut client, &[enumerate_spec(&enum_id)]);
    let enum_warm_specs: Vec<String> = (0..warm_rounds).map(|_| enumerate_spec(&enum_id)).collect();
    let enum_warm = drive(&mut client, &enum_warm_specs);
    assert!(enum_warm.replay_last);
    assert_eq!(enum_warm.scanned_last, enum_cold.scanned_last);
    let enum_cold_rps = enum_cold.requests as f64 / enum_cold.seconds.max(1e-9);
    let enum_warm_rps = enum_warm.requests as f64 / enum_warm.seconds.max(1e-9);
    eprintln!(
        "enumerate: cold {enum_cold_rps:.1} req/s, warm {enum_warm_rps:.1} req/s \
         ({} results per response)",
        enum_cold.scanned_last
    );

    drop(client);
    handle.shutdown();
    server_thread.join().expect("server thread").ok();

    let mut doc = BenchDoc::new("serve_throughput", quick);
    doc.metric("cold_requests", "count", cold.requests as f64);
    doc.metric("cold_seconds", "s", cold.seconds);
    doc.metric("cold_rps", "1/s", cold_rps);
    doc.metric("warm_requests", "count", warm.requests as f64);
    doc.metric("warm_seconds", "s", warm.seconds);
    doc.metric("warm_rps", "1/s", warm_rps);
    doc.metric("warm_over_cold", "ratio", ratio);
    doc.metric("cold_scanned", "count", cold_scanned as f64);
    doc.metric("warm_scanned", "count", warm.scanned_last as f64);
    doc.metric("warm_is_replay", "bool", f64::from(warm.replay_last));
    doc.metric(
        "enumerate/results_per_response",
        "count",
        enum_cold.scanned_last as f64,
    );
    doc.metric("enumerate/cold_rps", "1/s", enum_cold_rps);
    doc.metric("enumerate/warm_rps", "1/s", enum_warm_rps);
    doc.metric(
        "enumerate/warm_is_replay",
        "bool",
        f64::from(enum_warm.replay_last),
    );
    doc.gate("warm_is_replay", "==", 1.0);
    doc.gate("cold_scanned", ">", 0.0);
    doc.gate_eq("warm_scanned", "cold_scanned");
    doc.gate("warm_over_cold", ">=", 10.0);
    doc.write(&out_path)?;
    Ok(())
}
