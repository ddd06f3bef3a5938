//! End-to-end transport tests over real sockets: boot a [`Server`] on a
//! free port, drive it with the crate's own minimal client, and pin the
//! serving contract — upload/query/replay, batch, streaming, timeouts,
//! and (the satellite fix) structured 4xx answers for malformed input
//! with no worker ever panicking or wedging the server.

use mintri_core::json::{graph_to_json, JsonValue};
use mintri_engine::Engine;
use mintri_graph::Graph;
use mintri_serve::client::{request, Client};
use mintri_serve::http::Limits;
use mintri_serve::{ServeConfig, Server, ServerHandle};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

struct TestServer {
    handle: ServerHandle,
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn boot(config: ServeConfig) -> TestServer {
        TestServer::boot_with(config, Arc::new(Engine::new()))
    }

    fn boot_with(mut config: ServeConfig, engine: Arc<Engine>) -> TestServer {
        config.addr = "127.0.0.1:0".into();
        // Keeps worker drain quick when a test leaves a connection open.
        config.read_timeout = Duration::from_millis(500);
        let server = Server::bind(config, engine).expect("bind");
        let addr = server.local_addr().expect("local_addr");
        let handle = server.handle().expect("handle");
        let thread = std::thread::spawn(move || server.run().expect("run"));
        TestServer {
            handle,
            addr,
            thread: Some(thread),
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn parse(body: &str) -> JsonValue {
    JsonValue::parse(body).unwrap_or_else(|e| panic!("unparseable body {body:?}: {e}"))
}

#[test]
fn healthz_and_stats_answer() {
    let server = TestServer::boot(ServeConfig::default());
    let health = request(server.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        parse(&health.body).get("status").unwrap().as_str(),
        Some("ok")
    );

    let stats = request(server.addr, "GET", "/v1/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    let doc = parse(&stats.body);
    assert_eq!(doc.get("sessions").unwrap().as_usize(), Some(0));
    assert_eq!(doc.get("graphs").unwrap().as_usize(), Some(0));
    assert!(doc.get("memo").unwrap().get("extends").is_some());
}

#[test]
fn upload_then_query_then_replay_over_one_connection() {
    let server = TestServer::boot(ServeConfig::default());
    let mut client = Client::connect(server.addr).unwrap();

    let upload = client
        .request("POST", "/v1/graphs", Some(&graph_to_json(&Graph::cycle(6))))
        .unwrap();
    assert_eq!(upload.status, 200, "{}", upload.body);
    let graph_id = parse(&upload.body)
        .get("graph_id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    let spec = format!(r#"{{"graph_id":"{graph_id}","query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let cold = client.request("POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    let cold_doc = parse(&cold.body);
    assert_eq!(cold_doc.get("count").unwrap().as_usize(), Some(14));
    assert_eq!(cold_doc.get("is_replay").unwrap().as_bool(), Some(false));
    assert_eq!(
        cold_doc
            .get("outcome")
            .unwrap()
            .get("completed")
            .unwrap()
            .as_bool(),
        Some(true)
    );

    // The same query again: served from the warm session's answer cache.
    let warm = client.request("POST", "/v1/query", Some(&spec)).unwrap();
    let warm_doc = parse(&warm.body);
    assert_eq!(warm_doc.get("count").unwrap().as_usize(), Some(14));
    assert_eq!(
        warm_doc.get("is_replay").unwrap().as_bool(),
        Some(true),
        "second identical query must replay: {}",
        warm.body
    );

    // And the whole exchange left exactly the atom sessions behind.
    let stats = client.request("GET", "/v1/stats", None).unwrap();
    let stats_doc = parse(&stats.body);
    assert!(stats_doc.get("sessions").unwrap().as_usize().unwrap() >= 1);
    assert_eq!(stats_doc.get("graphs").unwrap().as_usize(), Some(1));
    drop(client);
}

#[test]
fn best_k_and_inline_graphs_work() {
    let server = TestServer::boot(ServeConfig::default());
    let g = graph_to_json(&Graph::cycle(7));
    let spec =
        format!(r#"{{"graph":{g},"query":{{"task":{{"type":"best_k","k":3,"cost":"fill"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = parse(&resp.body);
    let items = doc.get("items").unwrap().as_array().unwrap();
    assert_eq!(items.len(), 3);
    for item in items {
        assert_eq!(item.get("fill").unwrap().as_usize(), Some(4));
        assert!(item.get("fill_edges").unwrap().as_array().unwrap().len() == 4);
    }
}

#[test]
fn decompose_and_stats_tasks_serve() {
    let server = TestServer::boot(ServeConfig::default());
    let g = graph_to_json(&Graph::cycle(6));
    let spec = format!(
        r#"{{"graph":{g},"query":{{"task":{{"type":"decompose","mode":"one_per_class"}}}}}}"#
    );
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    let doc = parse(&resp.body);
    assert_eq!(doc.get("count").unwrap().as_usize(), Some(14));
    assert!(doc.get("items").unwrap().as_array().unwrap()[0]
        .get("bags")
        .is_some());

    let spec = format!(r#"{{"graph":{g},"query":{{"task":{{"type":"stats"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    let doc = parse(&resp.body);
    assert_eq!(doc.get("count").unwrap().as_usize(), Some(14));
    assert!(
        !doc.get("outcome")
            .unwrap()
            .get("quality")
            .unwrap()
            .is_null(),
        "stats queries carry quality aggregates"
    );
}

#[test]
fn batch_runs_many_queries_and_isolates_bad_specs() {
    let server = TestServer::boot(ServeConfig::default());
    let g6 = graph_to_json(&Graph::cycle(6));
    let g7 = graph_to_json(&Graph::cycle(7));
    let body = format!(
        r#"{{"queries":[
            {{"graph":{g6},"query":{{"task":{{"type":"enumerate"}}}}}},
            {{"graph":{g7},"query":{{"task":{{"type":"best_k","k":2,"cost":"width"}}}}}},
            {{"graph_id":"gdeadbeef","query":{{"task":{{"type":"enumerate"}}}}}},
            {{"graph":{g6},"stream":true,"query":{{"task":{{"type":"enumerate"}}}}}}
        ]}}"#
    );
    let resp = request(server.addr, "POST", "/v1/batch", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = parse(&resp.body);
    let responses = doc.get("responses").unwrap().as_array().unwrap();
    assert_eq!(responses.len(), 4);
    assert_eq!(responses[0].get("count").unwrap().as_usize(), Some(14));
    assert_eq!(responses[1].get("count").unwrap().as_usize(), Some(2));
    assert_eq!(
        responses[2]
            .get("error")
            .unwrap()
            .get("status")
            .unwrap()
            .as_usize(),
        Some(404),
        "a bad spec fails its slot, not the batch"
    );
    assert_eq!(
        responses[3]
            .get("error")
            .unwrap()
            .get("status")
            .unwrap()
            .as_usize(),
        Some(400),
        "a streamed spec is rejected, not silently collected"
    );
}

#[test]
fn streamed_queries_arrive_as_ndjson_chunks() {
    let server = TestServer::boot(ServeConfig::default());
    let g = graph_to_json(&Graph::cycle(6));
    let spec =
        format!(r#"{{"graph":{g},"stream":true,"query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(resp.status, 200);
    let lines: Vec<&str> = resp.body.lines().collect();
    assert_eq!(lines.len(), 15, "14 items + the done line: {}", resp.body);
    for line in &lines[..14] {
        assert!(parse(line).get("item").is_some(), "{line}");
    }
    let done = parse(lines[14]);
    let done = done.get("done").unwrap();
    assert_eq!(
        done.get("count").unwrap().as_usize(),
        Some(14),
        "the done line counts the streamed items"
    );
    assert_eq!(
        done.get("outcome")
            .unwrap()
            .get("produced")
            .unwrap()
            .as_usize(),
        Some(14)
    );
}

#[test]
fn per_request_timeouts_cancel_via_the_token() {
    let server = TestServer::boot(ServeConfig::default());
    // C16 enumerates millions of triangulations; a 20 ms deadline must
    // cut the scan off mid-stream, not hang the request.
    let g = graph_to_json(&Graph::cycle(16));
    let spec =
        format!(r#"{{"graph":{g},"timeout_ms":20,"query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let outcome_cancelled = parse(&resp.body)
        .get("outcome")
        .unwrap()
        .get("cancelled")
        .unwrap()
        .as_bool();
    assert_eq!(outcome_cancelled, Some(true), "{}", resp.body);
}

// ---------------------------------------------------------------------------
// Malformed input: structured 4xx, never a worker panic, server survives
// ---------------------------------------------------------------------------

fn assert_error(body: &str, status: usize) {
    let doc = parse(body);
    assert_eq!(
        doc.get("error").unwrap().get("status").unwrap().as_usize(),
        Some(status),
        "{body}"
    );
}

#[test]
fn malformed_requests_get_structured_400s_and_the_server_survives() {
    let server = TestServer::boot(ServeConfig::default());

    // Garbage instead of HTTP.
    let resp = Client::connect(server.addr)
        .unwrap()
        .send_raw(b"ENUMERATE ALL THE THINGS\r\n\r\n")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_error(&resp.body, 400);

    // Truncated head: the client dies mid-request-line.
    {
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.write_all(b"POST /v1/que").unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        // Server answers 400 (or just closes); it must not crash.
    }

    // Truncated body: Content-Length promises more than arrives.
    let resp = Client::connect(server.addr)
        .unwrap()
        .send_raw(b"POST /v1/query HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"partial\":")
        .unwrap();
    assert_eq!(resp.status, 408, "read timeout on the missing bytes");

    // Invalid JSON.
    let resp = request(server.addr, "POST", "/v1/query", Some("{not json")).unwrap();
    assert_eq!(resp.status, 400);
    assert_error(&resp.body, 400);

    // Unknown task variant.
    let g = graph_to_json(&Graph::cycle(4));
    let spec = format!(r#"{{"graph":{g},"query":{{"task":{{"type":"hack_the_planet"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("unknown task type"), "{}", resp.body);

    // Bad routes and methods.
    let resp = request(server.addr, "GET", "/v2/everything", None).unwrap();
    assert_eq!(resp.status, 404);
    assert_error(&resp.body, 404);
    let resp = request(server.addr, "DELETE", "/v1/query", None).unwrap();
    assert_eq!(resp.status, 405);

    // Malformed graph uploads.
    for bad in [
        r#"{"nodes":3,"edges":[[0,9]]}"#,
        r#"{"nodes":99999999,"edges":[]}"#,
        r#"{"nodes":"three","edges":[]}"#,
    ] {
        let resp = request(server.addr, "POST", "/v1/graphs", Some(bad)).unwrap();
        assert_eq!(resp.status, 400, "{bad} -> {}", resp.body);
        assert_error(&resp.body, 400);
    }

    // After all that abuse, a clean request still serves.
    let resp = request(server.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    let spec = format!(r#"{{"graph":{g},"query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(parse(&resp.body).get("count").unwrap().as_usize(), Some(2));
}

#[test]
fn collected_queries_are_budget_capped_but_streams_are_not() {
    use mintri_serve::api::ApiLimits;
    let server = TestServer::boot(ServeConfig {
        api: ApiLimits {
            max_collected_results: 10,
            ..ApiLimits::default()
        },
        ..ServeConfig::default()
    });
    let g = graph_to_json(&Graph::cycle(6)); // 14 triangulations

    // Collected: an unbudgeted exponential enumeration cannot buffer
    // unboundedly — the server imposes its cap and reports truncation.
    let spec = format!(r#"{{"graph":{g},"query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let doc = parse(
        &request(server.addr, "POST", "/v1/query", Some(&spec))
            .unwrap()
            .body,
    );
    assert_eq!(doc.get("count").unwrap().as_usize(), Some(10));
    assert_eq!(
        doc.get("outcome")
            .unwrap()
            .get("completed")
            .unwrap()
            .as_bool(),
        Some(false),
        "a capped run must report truncation"
    );
    // A tighter client budget still wins.
    let spec = format!(
        r#"{{"graph":{g},"query":{{"task":{{"type":"enumerate"}},"budget":{{"max_results":3}}}}}}"#
    );
    let doc = parse(
        &request(server.addr, "POST", "/v1/query", Some(&spec))
            .unwrap()
            .body,
    );
    assert_eq!(doc.get("count").unwrap().as_usize(), Some(3));

    // Streaming is O(1) memory and stays uncapped: all 14 items arrive.
    let spec =
        format!(r#"{{"graph":{g},"stream":true,"query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(
        resp.body.lines().count(),
        15,
        "14 items + done: {}",
        resp.body
    );
}

#[test]
fn http10_requests_default_to_connection_close() {
    let server = TestServer::boot(ServeConfig::default());
    let resp = Client::connect(server.addr)
        .unwrap()
        .send_raw(b"GET /healthz HTTP/1.0\r\n\r\n")
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("connection"),
        Some("close"),
        "an HTTP/1.0 client without keep-alive must not pin a worker"
    );
}

#[test]
fn oversized_bodies_are_rejected_by_the_cap() {
    let config = ServeConfig {
        limits: Limits {
            max_body_bytes: 1024,
            ..Limits::default()
        },
        ..ServeConfig::default()
    };
    let server = TestServer::boot(config);

    // Declared oversize: rejected from the Content-Length alone — the
    // server never reads (or allocates) the body.
    let resp = Client::connect(server.addr)
        .unwrap()
        .send_raw(b"POST /v1/graphs HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n")
        .unwrap();
    assert_eq!(resp.status, 413);
    assert_error(&resp.body, 413);

    // An actually-oversized body hits the same wall.
    let big = format!(
        r#"{{"nodes":2,"edges":[[0,1]],"padding":"{}"}}"#,
        "x".repeat(2048)
    );
    let resp = request(server.addr, "POST", "/v1/graphs", Some(&big)).unwrap();
    assert_eq!(resp.status, 413);

    // A request head past its cap is refused too.
    let mut head = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..2000 {
        head.push_str(&format!("X-Padding-{i}: {}\r\n", "y".repeat(64)));
    }
    head.push_str("\r\n");
    let resp = Client::connect(server.addr)
        .unwrap()
        .send_raw(head.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 431);

    // And the server is still healthy.
    let resp = request(server.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
}

#[test]
fn metrics_endpoint_serves_prometheus_text_and_counters_advance() {
    use mintri_telemetry::promtext;
    let server = TestServer::boot(ServeConfig::default());
    let g = graph_to_json(&Graph::cycle(6));
    let spec = format!(r#"{{"graph":{g},"query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let _ = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    let _ = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();

    let resp = request(server.addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.header("content-type")
            .unwrap_or("")
            .starts_with("text/plain"),
        "metrics are text exposition, not JSON"
    );
    // The document is valid Prometheus text: every line parses.
    let samples = promtext::parse(&resp.body)
        .unwrap_or_else(|e| panic!("metrics must parse as Prometheus text: {e}\n{}", resp.body));

    let value = |name: &str, label: Option<(&str, &str)>| -> Option<f64> {
        samples
            .iter()
            .find(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
            .map(|s| s.value)
    };
    // Per-endpoint counter advanced (two /v1/query requests).
    assert_eq!(
        value(
            "mintri_http_requests_total",
            Some(("endpoint", "/v1/query"))
        ),
        Some(2.0)
    );
    // Per-endpoint latency histogram is present with buckets.
    assert!(samples.iter().any(|s| {
        s.name == "mintri_http_request_microseconds_bucket"
            && s.label("endpoint") == Some("/v1/query")
    }));
    // Engine counters crossed the registry: the repeat query replayed.
    assert!(value("mintri_engine_replay_hits_total", None).unwrap() >= 1.0);
    assert!(value("mintri_engine_sessions_built_total", None).unwrap() >= 1.0);
    assert_eq!(value("mintri_engine_sessions_live", None).unwrap(), 1.0);
}

#[test]
fn traced_queries_return_a_span_tree() {
    let server = TestServer::boot(ServeConfig::default());
    let g = graph_to_json(&Graph::cycle(6));
    let spec = format!(r#"{{"graph":{g},"query":{{"task":{{"type":"enumerate"}},"trace":true}}}}"#);
    let _ = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    let warm = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);
    let doc = parse(&warm.body);
    let trace = doc
        .get("outcome")
        .unwrap()
        .get("trace")
        .expect("traced queries carry a trace in the outcome");
    let children = trace.get("children").unwrap().as_array().unwrap();
    let query_span = children
        .iter()
        .find(|c| c.get("name").unwrap().as_str() == Some("query"))
        .expect("query span");
    assert!(query_span.get("duration_us").unwrap().as_u64().is_some());
    let query_children = query_span.get("children").unwrap().as_array().unwrap();
    let atom = query_children
        .iter()
        .find(|c| c.get("name").unwrap().as_str() == Some("atom"))
        .expect("per-atom span");
    assert_eq!(
        atom.get("attrs").unwrap().get("dispatch").unwrap().as_str(),
        Some("replay"),
        "the warm query's atom must report replay dispatch"
    );
    assert_eq!(
        atom.get("attrs").unwrap().get("results").unwrap().as_str(),
        Some("14")
    );

    // An untraced query's outcome stays trace-free.
    let plain = format!(r#"{{"graph":{g},"query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&plain)).unwrap();
    assert!(parse(&resp.body)
        .get("outcome")
        .unwrap()
        .get("trace")
        .is_none());
}

/// A unique scratch store root, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mintri-serve-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_engine(config: mintri_engine::StoreConfig) -> Arc<Engine> {
    use mintri_engine::{EngineConfig, Store};
    Arc::new(Engine::with_store(
        EngineConfig::default(),
        Arc::new(Store::open(config).expect("store opens")),
    ))
}

#[test]
fn a_full_graph_registry_ages_by_lru_instead_of_answering_503() {
    use mintri_serve::api::ApiLimits;
    let server = TestServer::boot(ServeConfig {
        api: ApiLimits {
            max_graphs: 1,
            ..ApiLimits::default()
        },
        ..ServeConfig::default()
    });
    let first = request(
        server.addr,
        "POST",
        "/v1/graphs",
        Some(&graph_to_json(&Graph::cycle(5))),
    )
    .unwrap();
    assert_eq!(first.status, 200);
    let first_id = parse(&first.body)
        .get("graph_id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // A second upload past the cap is admitted — the LRU entry ages out
    // of RAM instead of the server turning clients away.
    let second = request(
        server.addr,
        "POST",
        "/v1/graphs",
        Some(&graph_to_json(&Graph::cycle(6))),
    )
    .unwrap();
    assert_eq!(
        second.status, 200,
        "no 503 on RAM pressure: {}",
        second.body
    );
    let stats = parse(&request(server.addr, "GET", "/v1/stats", None).unwrap().body);
    assert_eq!(stats.get("graphs").unwrap().as_usize(), Some(1));

    // With no disk tier behind the registry the aged-out id is gone…
    let spec = format!(r#"{{"graph_id":"{first_id}","query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let gone = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(gone.status, 404);

    // …but re-uploading answers the same fingerprint id again.
    let again = request(
        server.addr,
        "POST",
        "/v1/graphs",
        Some(&graph_to_json(&Graph::cycle(5))),
    )
    .unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(
        parse(&again.body).get("graph_id").unwrap().as_str(),
        Some(first_id.as_str())
    );
}

#[test]
fn an_aged_out_graph_rehydrates_from_the_store_on_its_next_query() {
    use mintri_serve::api::ApiLimits;
    let dir = ScratchDir::new("lru-rehydrate");
    let server = TestServer::boot_with(
        ServeConfig {
            api: ApiLimits {
                max_graphs: 1,
                ..ApiLimits::default()
            },
            ..ServeConfig::default()
        },
        store_engine(mintri_engine::StoreConfig::at(&dir.0)),
    );
    let first = request(
        server.addr,
        "POST",
        "/v1/graphs",
        Some(&graph_to_json(&Graph::cycle(6))),
    )
    .unwrap();
    assert_eq!(first.status, 200);
    let id = parse(&first.body)
        .get("graph_id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    // Age the first upload out of RAM.
    let second = request(
        server.addr,
        "POST",
        "/v1/graphs",
        Some(&graph_to_json(&Graph::cycle(5))),
    )
    .unwrap();
    assert_eq!(second.status, 200);

    // The aged-out id still answers: the registry reloads it from disk.
    let spec = format!(r#"{{"graph_id":"{id}","query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(parse(&resp.body).get("count").unwrap().as_usize(), Some(14));
}

#[test]
fn a_graph_past_the_disk_budget_answers_structured_503_with_retry_after() {
    let dir = ScratchDir::new("disk-budget");
    let server = TestServer::boot_with(
        ServeConfig::default(),
        store_engine(mintri_engine::StoreConfig {
            // Below even the snapshot header: every upload exceeds it.
            max_disk_bytes: Some(16),
            ..mintri_engine::StoreConfig::at(&dir.0)
        }),
    );
    let full = request(
        server.addr,
        "POST",
        "/v1/graphs",
        Some(&graph_to_json(&Graph::cycle(6))),
    )
    .unwrap();
    assert_eq!(full.status, 503);
    assert_eq!(
        full.header("retry-after"),
        Some("1"),
        "a 503 must tell clients when to retry"
    );
    let error = parse(&full.body);
    let error = error.get("error").unwrap();
    assert_eq!(error.get("status").unwrap().as_usize(), Some(503));
    assert_eq!(error.get("budget_bytes").unwrap().as_usize(), Some(16));
    assert_eq!(error.get("stored_bytes").unwrap().as_usize(), Some(0));
}

#[test]
fn uploads_and_warm_answers_survive_a_server_restart() {
    let dir = ScratchDir::new("restart");
    let id = {
        let engine = store_engine(mintri_engine::StoreConfig::at(&dir.0));
        let server = TestServer::boot_with(ServeConfig::default(), Arc::clone(&engine));
        let uploaded = request(
            server.addr,
            "POST",
            "/v1/graphs",
            Some(&graph_to_json(&Graph::cycle(6))),
        )
        .unwrap();
        assert_eq!(uploaded.status, 200);
        let id = parse(&uploaded.body)
            .get("graph_id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let spec = format!(r#"{{"graph_id":"{id}","query":{{"task":{{"type":"enumerate"}}}}}}"#);
        let warm = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
        assert_eq!(warm.status, 200);
        // Barrier the write-behind queue so the snapshots are published
        // before the "restart".
        engine.store().unwrap().flush();
        id
    };
    // A brand-new server process over the same --store-dir.
    let server = TestServer::boot_with(
        ServeConfig::default(),
        store_engine(mintri_engine::StoreConfig::at(&dir.0)),
    );
    let spec = format!(r#"{{"graph_id":"{id}","query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(resp.status, 200, "the uploaded id survives a restart");
    let doc = parse(&resp.body);
    assert_eq!(doc.get("count").unwrap().as_usize(), Some(14));
    assert_eq!(
        doc.get("is_replay").unwrap().as_bool(),
        Some(true),
        "the first repeat query after a restart replays from the disk tier"
    );
}

#[test]
fn slow_queries_land_in_the_stats_ring_buffer() {
    use mintri_serve::api::ApiLimits;
    // Threshold 0: every query is "slow", so the ring fills determinately.
    let server = TestServer::boot(ServeConfig {
        api: ApiLimits {
            slow_query_ms: 0,
            ..ApiLimits::default()
        },
        ..ServeConfig::default()
    });
    let g = graph_to_json(&Graph::cycle(7));
    let spec =
        format!(r#"{{"graph":{g},"query":{{"task":{{"type":"best_k","k":3,"cost":"fill"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(resp.status, 200);

    let stats = parse(&request(server.addr, "GET", "/v1/stats", None).unwrap().body);
    assert_eq!(stats.get("slow_query_ms").unwrap().as_usize(), Some(0));
    let slow = stats.get("slow_queries").unwrap().as_array().unwrap();
    assert!(!slow.is_empty(), "threshold 0 must capture the query");
    let entry = slow
        .iter()
        .find(|e| e.get("task").unwrap().as_str() == Some("best_k"))
        .expect("the best_k query is logged");
    assert_eq!(entry.get("count").unwrap().as_usize(), Some(3));
    assert!(entry.get("elapsed_ms").unwrap().as_u64().is_some());

    // Per-endpoint request totals ride along in the same document.
    let requests = stats.get("requests").unwrap().as_array().unwrap();
    let query_total = requests
        .iter()
        .find(|r| r.get("endpoint").unwrap().as_str() == Some("/v1/query"))
        .and_then(|r| r.get("requests").unwrap().as_usize());
    assert_eq!(query_total, Some(1));
    let engine = stats.get("engine").unwrap();
    assert!(engine.get("replay_misses").unwrap().as_usize().unwrap() >= 1);
}

#[test]
fn warm_replay_shares_across_connections_and_graph_reuploads() {
    let server = TestServer::boot(ServeConfig::default());
    let g = graph_to_json(&Graph::cycle(7));

    // Upload twice: idempotent id.
    let a = request(server.addr, "POST", "/v1/graphs", Some(&g)).unwrap();
    let b = request(server.addr, "POST", "/v1/graphs", Some(&g)).unwrap();
    let id_a = parse(&a.body)
        .get("graph_id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let id_b = parse(&b.body)
        .get("graph_id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(id_a, id_b, "equal graphs register under one id");

    // Query from one connection, replay from a different one.
    let spec = format!(r#"{{"graph_id":"{id_a}","query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let cold = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(
        parse(&cold.body).get("is_replay").unwrap().as_bool(),
        Some(false)
    );
    let warm = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(
        parse(&warm.body).get("is_replay").unwrap().as_bool(),
        Some(true),
        "the engine is shared: replay crosses connections"
    );
}

#[test]
fn stats_count_sessions_and_queries_report_their_dispatch() {
    let server = TestServer::boot(ServeConfig::default());
    let doc = parse(&request(server.addr, "GET", "/v1/stats", None).unwrap().body);
    assert_eq!(doc.get("sessions").unwrap().as_usize(), Some(0));
    assert!(doc.get("profile").is_none(), "stats carry no profile");

    let g = graph_to_json(&Graph::cycle(6));
    let spec = format!(r#"{{"graph":{g},"query":{{"task":{{"type":"enumerate"}}}}}}"#);
    let resp = request(server.addr, "POST", "/v1/query", Some(&spec)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    // The outcome reports the actual per-atom dispatch.
    let dispatch = parse(&resp.body)
        .get("outcome")
        .unwrap()
        .get("dispatch")
        .expect("outcome must carry the dispatch array")
        .as_array()
        .unwrap()
        .len();
    assert_eq!(dispatch, 1);

    let doc = parse(&request(server.addr, "GET", "/v1/stats", None).unwrap().body);
    assert_eq!(doc.get("sessions").unwrap().as_usize(), Some(1));
    let engine = doc.get("engine").unwrap();
    assert_eq!(engine.get("replay_misses").unwrap().as_usize(), Some(1));
}
