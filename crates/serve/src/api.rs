//! The JSON API: five endpoints, zero task logic. Every handler only
//! (de)serializes with `mintri_core::json` and calls [`Engine::run`] —
//! budgets, best-k selection, decomposition expansion, replay and
//! cancellation all live behind the front door, exactly where the CLI
//! and library callers get them.
//!
//! | Method | Path         | Body                                        | Answer |
//! |--------|--------------|---------------------------------------------|--------|
//! | GET    | `/healthz`   | —                                           | `{"status":"ok",…}` |
//! | GET    | `/v1/stats`  | —                                           | sessions, graphs, memo and store counters |
//! | POST   | `/v1/graphs` | `{"nodes":N,"edges":[[u,v],…]}`             | `{"graph_id":…}` |
//! | POST   | `/v1/query`  | `{"graph_id"∣"graph", "query", ["timeout_ms"], ["stream"]}` | one response document (or NDJSON chunks) |
//! | POST   | `/v1/batch`  | `{"queries":[spec,…]}`                      | `{"responses":[…]}` |
//!
//! Errors are structured: `{"error":{"status":S,"message":…}}` with the
//! same status on the HTTP line — malformed input is a 4xx, never a
//! worker panic.

use crate::http::{HttpError, Request};
use mintri_core::json::{
    graph_from_json, graph_summary_json, outcome_json, query_from_json, JsonObject, JsonValue,
};
use mintri_core::query::{QueryItem, Response, Task};
use mintri_engine::{graph_fingerprint, Engine, GraphSnapshot};
use mintri_graph::Graph;
use mintri_telemetry::{Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Caps on what remote clients may register and submit.
#[derive(Debug, Clone)]
pub struct ApiLimits {
    /// Largest graph (in nodes) `/v1/graphs` and inline `"graph"` fields
    /// accept (adjacency is quadratic in nodes).
    pub max_graph_nodes: usize,
    /// RAM capacity of the graph registry: past it the least recently
    /// used graph ages out of RAM under the same LRU policy the engine's
    /// sessions use. With a persistent store attached the aged entry
    /// stays on disk and rehydrates on its next use; uploads never see a
    /// capacity 503 — only exhausting the store's *disk budget* answers
    /// a structured 503.
    pub max_graphs: usize,
    /// Largest `/v1/batch` request, in queries.
    pub max_batch: usize,
    /// Default/maximum `max_results` budget imposed on **collected**
    /// queries (`/v1/query` without `"stream":true`, every batch slot):
    /// a collected response buffers every rendered item in memory, and
    /// enumerations are exponential, so an uncapped budget would let one
    /// small graph exhaust the server. Capped runs report
    /// `"completed":false`; streaming responses are O(1) memory and stay
    /// uncapped.
    pub max_collected_results: usize,
    /// Queries that take at least this long (wall clock, request start
    /// to stream end) land in the slow-query ring buffer surfaced under
    /// `/v1/stats`.
    pub slow_query_ms: u64,
}

impl Default for ApiLimits {
    fn default() -> Self {
        ApiLimits {
            max_graph_nodes: 4096,
            max_graphs: 1024,
            max_batch: 256,
            max_collected_results: 100_000,
            slow_query_ms: 250,
        }
    }
}

/// One endpoint's request counter and latency histogram — the same two
/// metric names for every endpoint, distinguished by the `endpoint`
/// label value.
struct EndpointMetrics {
    requests: Arc<Counter>,
    latency_us: Arc<Histogram>,
}

impl EndpointMetrics {
    fn new(registry: &mintri_telemetry::Registry, endpoint: &str) -> Self {
        let labels = &[("endpoint", endpoint)];
        EndpointMetrics {
            requests: registry.counter_with(
                "mintri_http_requests_total",
                "HTTP requests routed, by endpoint",
                labels,
            ),
            latency_us: registry.histogram_with(
                "mintri_http_request_microseconds",
                "Request handling wall time (collected queries include the full drain)",
                labels,
            ),
        }
    }

    fn observe(&self, elapsed: Duration) {
        self.requests.inc();
        self.latency_us.record_duration(elapsed);
    }
}

/// The transport's metric handles, registered into the **engine's**
/// registry — one Prometheus render covers engine and HTTP layer alike.
pub(crate) struct HttpMetrics {
    healthz: EndpointMetrics,
    stats: EndpointMetrics,
    metrics: EndpointMetrics,
    graphs: EndpointMetrics,
    query: EndpointMetrics,
    batch: EndpointMetrics,
    /// Unrouted paths / wrong methods.
    other: EndpointMetrics,
    /// Connections currently held by a worker.
    pub(crate) active_connections: Arc<Gauge>,
    /// Size of the connection worker pool.
    pub(crate) workers: Arc<Gauge>,
}

impl HttpMetrics {
    fn new(registry: &mintri_telemetry::Registry) -> Self {
        HttpMetrics {
            healthz: EndpointMetrics::new(registry, "/healthz"),
            stats: EndpointMetrics::new(registry, "/v1/stats"),
            metrics: EndpointMetrics::new(registry, "/v1/metrics"),
            graphs: EndpointMetrics::new(registry, "/v1/graphs"),
            query: EndpointMetrics::new(registry, "/v1/query"),
            batch: EndpointMetrics::new(registry, "/v1/batch"),
            other: EndpointMetrics::new(registry, "other"),
            active_connections: registry.gauge(
                "mintri_http_active_connections",
                "Connections currently held by a worker",
            ),
            workers: registry.gauge("mintri_http_workers", "Size of the connection worker pool"),
        }
    }

    fn endpoint(&self, path: &str) -> &EndpointMetrics {
        match path {
            "/healthz" => &self.healthz,
            "/v1/stats" => &self.stats,
            "/v1/metrics" => &self.metrics,
            "/v1/graphs" => &self.graphs,
            "/v1/query" => &self.query,
            "/v1/batch" => &self.batch,
            _ => &self.other,
        }
    }
}

/// One slow-query record: what ran, how long it took, and when (as an
/// uptime offset, so entries order without wall-clock reads).
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Wire name of the task.
    pub task: &'static str,
    /// Full wall time, request start to stream end, in ms.
    pub elapsed_ms: u64,
    /// Items the query produced.
    pub count: usize,
    /// Server uptime when the query finished, in ms.
    pub at_ms: u64,
}

/// Fixed-capacity ring of the most recent slow queries.
struct SlowLog {
    entries: Vec<SlowQuery>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
}

const SLOW_LOG_CAPACITY: usize = 32;

impl SlowLog {
    fn new() -> Self {
        SlowLog {
            entries: Vec::with_capacity(SLOW_LOG_CAPACITY),
            next: 0,
        }
    }

    fn push(&mut self, entry: SlowQuery) {
        if self.entries.len() < SLOW_LOG_CAPACITY {
            self.entries.push(entry);
        } else {
            self.entries[self.next] = entry;
            self.next = (self.next + 1) % SLOW_LOG_CAPACITY;
        }
    }

    /// Entries oldest-first.
    fn ordered(&self) -> Vec<SlowQuery> {
        let mut out = Vec::with_capacity(self.entries.len());
        out.extend_from_slice(&self.entries[self.next..]);
        out.extend_from_slice(&self.entries[..self.next]);
        out
    }
}

/// The uploaded-graph registry: id → graph with a recency stamp, LRU-
/// aged at [`ApiLimits::max_graphs`] — the same unified eviction policy
/// the engine's session store applies, replacing the old hard-capped
/// 503-when-full behavior. Aging only frees RAM: with a persistent store
/// attached the entry's disk copy survives and rehydrates on its next
/// resolve.
struct GraphRegistry {
    by_id: HashMap<String, (u64, Arc<Graph>)>,
    clock: u64,
}

impl GraphRegistry {
    fn new() -> Self {
        GraphRegistry {
            by_id: HashMap::new(),
            clock: 0,
        }
    }

    /// Looks `id` up, refreshing its recency stamp on a hit.
    fn touch(&mut self, id: &str) -> Option<Arc<Graph>> {
        self.clock += 1;
        let clock = self.clock;
        let (stamp, g) = self.by_id.get_mut(id)?;
        *stamp = clock;
        Some(Arc::clone(g))
    }

    /// Inserts, aging the least recently used entries out of RAM past
    /// `cap`.
    fn insert(&mut self, id: String, g: Arc<Graph>, cap: usize) {
        self.clock += 1;
        self.by_id.insert(id, (self.clock, g));
        while self.by_id.len() > cap.max(1) {
            let Some(victim) = self
                .by_id
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(id, _)| id.clone())
            else {
                break;
            };
            self.by_id.remove(&victim);
        }
    }
}

/// Rebuilds a registry graph from its snapshot, rejecting out-of-range
/// endpoints instead of panicking (the checksum makes this unreachable
/// for files the store wrote, but a loader must not trust disk).
fn graph_from_snapshot(snap: &GraphSnapshot) -> Option<Graph> {
    let n = snap.nodes as usize;
    if snap
        .edges
        .iter()
        .any(|&(u, v)| u as usize >= n || v as usize >= n)
    {
        return None;
    }
    Some(Graph::from_edges(n, &snap.edges))
}

/// Shared server state: the engine (all warm sessions and replay caches
/// live there) plus the uploaded-graph registry.
pub struct AppState {
    engine: Arc<Engine>,
    graphs: Mutex<GraphRegistry>,
    limits: ApiLimits,
    started: Instant,
    metrics: HttpMetrics,
    slow: Mutex<SlowLog>,
}

impl AppState {
    /// Fresh state over a shared engine. The transport's metrics are
    /// registered into the engine's registry here.
    pub fn new(engine: Arc<Engine>, limits: ApiLimits) -> Self {
        let metrics = HttpMetrics::new(engine.registry());
        AppState {
            engine,
            graphs: Mutex::new(GraphRegistry::new()),
            limits,
            started: Instant::now(),
            metrics,
            slow: Mutex::new(SlowLog::new()),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Number of graphs currently registered in RAM.
    pub fn graphs_registered(&self) -> usize {
        self.graphs.lock().unwrap().by_id.len()
    }

    /// The transport's metric handles (connection gauges for the server
    /// loop).
    pub(crate) fn http_metrics(&self) -> &HttpMetrics {
        &self.metrics
    }

    /// The slow-query entries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().unwrap().ordered()
    }

    /// Records a finished query's wall time; entries at or above
    /// [`ApiLimits::slow_query_ms`] land in the slow-query ring.
    pub(crate) fn observe_query(&self, task: &'static str, elapsed: Duration, count: usize) {
        let elapsed_ms = elapsed.as_millis() as u64;
        if elapsed_ms >= self.limits.slow_query_ms {
            self.slow.lock().unwrap().push(SlowQuery {
                task,
                elapsed_ms,
                count,
                at_ms: self.started.elapsed().as_millis() as u64,
            });
        }
    }
}

/// What a routed request produced: either a complete body, or a query
/// stream the connection loop writes out chunk by chunk.
pub enum Reply {
    /// A finished document.
    Full {
        /// HTTP status.
        status: u16,
        /// The response body.
        body: String,
        /// `Content-Type` of the body (`application/json` for every
        /// endpoint but `/v1/metrics`).
        content_type: &'static str,
        /// Extra response headers, e.g. a 503's `Retry-After`.
        headers: Vec<(String, String)>,
    },
    /// A live query to stream as NDJSON chunks (boxed: the running
    /// query dwarfs the other variant).
    Stream(Box<RunningQuery>),
}

impl Reply {
    fn ok(body: String) -> Reply {
        Reply::Full {
            status: 200,
            body,
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// A 200 with the Prometheus text exposition content type.
    fn prometheus(body: String) -> Reply {
        Reply::Full {
            status: 200,
            body,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
        }
    }
}

/// Renders the structured error document every non-2xx answer carries.
pub fn error_body(status: u16, message: &str) -> String {
    error_body_with(status, message, &[])
}

/// [`error_body`] with extra numeric fields merged into the error
/// object (a 503's `capacity`/`stored`, say).
pub fn error_body_with(status: u16, message: &str, detail: &[(&'static str, u64)]) -> String {
    let mut inner = JsonObject::new();
    inner.usize("status", status as usize);
    inner.str("message", message);
    for (key, value) in detail {
        inner.raw(key, value.to_string());
    }
    let mut doc = JsonObject::new();
    doc.raw("error", inner.finish());
    doc.finish()
}

impl From<HttpError> for Reply {
    fn from(e: HttpError) -> Reply {
        let headers = e
            .retry_after
            .map(|secs| ("Retry-After".to_string(), secs.to_string()))
            .into_iter()
            .collect();
        Reply::Full {
            status: e.status,
            body: error_body_with(e.status, &e.message, &e.detail),
            content_type: "application/json",
            headers,
        }
    }
}

/// A query mid-execution: the engine response stream. A per-request
/// timeout rides on the query's cancel token as a deadline.
pub struct RunningQuery {
    /// Wire name of the task, stamped on the response document.
    pub task_name: &'static str,
    /// The live response stream.
    pub response: Response<'static>,
    /// When the request started (for the slow-query log: a streamed
    /// query's wall time only closes when its drain does).
    pub(crate) started: Instant,
}

/// The wire name of a task (also the `"task"` field of every response
/// document).
pub fn task_name(task: &Task) -> &'static str {
    match task {
        Task::Enumerate => "enumerate",
        Task::BestK { .. } => "best_k",
        Task::Decompose { .. } => "decompose",
        Task::Stats => "stats",
    }
}

/// Renders one streamed [`QueryItem`] the way the CLI renders the same
/// result kind (1-based vertices, 0-based bag indices).
pub fn render_item(item: &QueryItem) -> String {
    match item {
        QueryItem::Triangulation(t) => {
            let fill: Vec<String> = t
                .fill
                .iter()
                .map(|(u, v)| format!("[{},{}]", u + 1, v + 1))
                .collect();
            let mut doc = JsonObject::new();
            doc.usize("width", t.width());
            doc.usize("fill", t.fill_count());
            doc.raw("fill_edges", format!("[{}]", fill.join(",")));
            doc.finish()
        }
        QueryItem::Decomposition(d) => {
            let bags: Vec<String> = d
                .bags
                .iter()
                .map(|bag| {
                    let items: Vec<String> = bag.iter().map(|v| (v + 1).to_string()).collect();
                    format!("[{}]", items.join(","))
                })
                .collect();
            let edges: Vec<String> = d.edges.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
            let mut doc = JsonObject::new();
            doc.usize("width", d.width());
            doc.raw("bags", format!("[{}]", bags.join(",")));
            doc.raw("edges", format!("[{}]", edges.join(",")));
            doc.finish()
        }
        QueryItem::Record(r) => {
            let mut doc = JsonObject::new();
            doc.usize("index", r.index);
            doc.raw("elapsed_us", r.at.as_micros().to_string());
            doc.usize("width", r.width);
            doc.usize("fill", r.fill);
            doc.finish()
        }
    }
}

/// The final document of a drained query: task, rendered items, replay
/// flag and the full outcome. `count` is the number of items produced —
/// `items.len()` for a collected response, the number of already-written
/// chunks for a streamed one (whose `items` array is empty here).
pub fn finish_document(
    task_name: &str,
    items: &[String],
    count: usize,
    response: &Response<'_>,
) -> String {
    let outcome = response.outcome();
    let mut doc = JsonObject::new();
    doc.str("task", task_name);
    doc.raw("items", format!("[{}]", items.join(",")));
    doc.usize("count", count);
    doc.bool("is_replay", response.is_replay());
    doc.raw("outcome", outcome_json(&outcome));
    doc.finish()
}

impl AppState {
    fn register_graph(&self, v: &JsonValue) -> Result<(String, Arc<Graph>), HttpError> {
        let g = graph_from_json(v, self.limits.max_graph_nodes).map_err(HttpError::bad_request)?;
        let g = Arc::new(g);
        let store = self.engine.store().cloned();
        let mut graphs = self.graphs.lock().unwrap();
        // Ids are the engine's own session fingerprint (one definition:
        // graph ids and session keys must never diverge), with equality
        // verified on collision — a clash costs a probe, never a wrong
        // graph.
        let base = format!("g{:016x}", graph_fingerprint(&g));
        for probe in 0.. {
            let id = if probe == 0 {
                base.clone()
            } else {
                format!("{base}-{probe}")
            };
            if let Some(existing) = graphs.touch(&id) {
                if *existing == *g {
                    return Ok((id, existing));
                }
                continue; // fingerprint collision: probe onward
            }
            // Not in RAM. A disk copy (this replica's LRU-aged entry, a
            // previous life's upload, or another replica's) settles the
            // probe the same way a RAM hit would.
            if let Some(store) = &store {
                if let Some(snap) = store.load_graph(&id) {
                    if snap.id != id {
                        continue; // name sanitation aliased two ids
                    }
                    match graph_from_snapshot(&snap) {
                        Some(disk) if disk == *g => {
                            graphs.insert(id.clone(), Arc::clone(&g), self.limits.max_graphs);
                            return Ok((id, g));
                        }
                        Some(_) => continue, // disk-recorded collision
                        None => {}           // unusable snapshot: treat as absent
                    }
                }
                // Genuinely new: persist before admitting. Disk budget is
                // the one remaining hard limit (RAM pressure just ages
                // the LRU); the 503 is structured so clients read
                // budget/stored (and honor Retry-After) instead of
                // parsing the message.
                let snap = GraphSnapshot {
                    id: id.clone(),
                    nodes: g.num_nodes() as u32,
                    edges: g.edges(),
                };
                let bytes = snap.encode();
                if store.would_exceed_budget(bytes.len() as u64) {
                    return Err(HttpError::new(503, "graph store disk budget exhausted")
                        .detail("budget_bytes", store.max_disk_bytes().unwrap_or(0))
                        .detail("stored_bytes", store.bytes_stored())
                        .retry_after(1));
                }
                store.put_graph(&snap);
            }
            graphs.insert(id.clone(), Arc::clone(&g), self.limits.max_graphs);
            return Ok((id, g));
        }
        unreachable!("the probe loop always returns")
    }

    fn resolve_graph(&self, spec: &JsonValue) -> Result<Arc<Graph>, HttpError> {
        match (spec.get("graph_id"), spec.get("graph")) {
            (Some(id), None) => {
                let id = id
                    .as_str()
                    .ok_or_else(|| HttpError::bad_request("`graph_id` must be a string"))?;
                if let Some(g) = self.graphs.lock().unwrap().touch(id) {
                    return Ok(g);
                }
                // RAM miss: rehydrate from the persistent registry — the
                // graph may have been LRU-aged out, uploaded before a
                // restart, or registered by another replica sharing the
                // store directory.
                if let Some(store) = self.engine.store() {
                    if let Some(snap) = store.load_graph(id) {
                        if snap.id == id {
                            if let Some(g) = graph_from_snapshot(&snap) {
                                let g = Arc::new(g);
                                self.graphs.lock().unwrap().insert(
                                    id.to_string(),
                                    Arc::clone(&g),
                                    self.limits.max_graphs,
                                );
                                return Ok(g);
                            }
                        }
                    }
                }
                Err(HttpError::new(404, format!("unknown graph_id {id:?}")))
            }
            (None, Some(inline)) => Ok(Arc::new(
                graph_from_json(inline, self.limits.max_graph_nodes)
                    .map_err(HttpError::bad_request)?,
            )),
            (Some(_), Some(_)) => Err(HttpError::bad_request(
                "give either `graph_id` or an inline `graph`, not both",
            )),
            (None, None) => Err(HttpError::bad_request(
                "query spec needs a `graph_id` or an inline `graph`",
            )),
        }
    }

    /// Parses one query spec and starts it on the engine. The returned
    /// [`RunningQuery`] has produced nothing yet; the caller drains it
    /// (collected or chunk by chunk). `collected` responses get the
    /// [`ApiLimits::max_collected_results`] budget clamp — they buffer
    /// every item, so an unbudgeted exponential enumeration must not be
    /// allowed to collect unboundedly.
    fn start_query(&self, spec: &JsonValue, collected: bool) -> Result<RunningQuery, HttpError> {
        if spec.entries().is_none() {
            return Err(HttpError::bad_request("query spec must be a JSON object"));
        }
        let graph = self.resolve_graph(spec)?;
        let query_field = spec
            .get("query")
            .ok_or_else(|| HttpError::bad_request("query spec needs a `query` object"))?;
        let mut query = query_from_json(query_field).map_err(HttpError::bad_request)?;
        if collected {
            let cap = self.limits.max_collected_results.max(1);
            query.budget.max_results = Some(match query.budget.max_results {
                Some(n) => n.min(cap),
                None => cap,
            });
        }
        let timeout = match spec.get("timeout_ms") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
                HttpError::bad_request("`timeout_ms` must be a non-negative integer")
            })?)),
        };
        if let Some(timeout) = timeout {
            query.cancel = query.cancel.with_deadline(Instant::now() + timeout);
        }
        let name = task_name(&query.task);
        let response = self.engine.run(&graph, query);
        Ok(RunningQuery {
            task_name: name,
            response,
            started: Instant::now(),
        })
    }

    /// Runs one spec to completion and renders the response document.
    /// The full drain is timed; slow runs land in the slow-query log.
    fn run_collected(&self, spec: &JsonValue) -> Result<String, HttpError> {
        let started = Instant::now();
        let mut running = self.start_query(spec, true)?;
        let items: Vec<String> = running.response.by_ref().map(|i| render_item(&i)).collect();
        self.observe_query(running.task_name, started.elapsed(), items.len());
        Ok(finish_document(
            running.task_name,
            &items,
            items.len(),
            &running.response,
        ))
    }

    fn handle_healthz(&self) -> Reply {
        let mut doc = JsonObject::new();
        doc.str("status", "ok");
        doc.raw("uptime_ms", self.started.elapsed().as_millis().to_string());
        Reply::ok(doc.finish())
    }

    fn handle_stats(&self) -> Reply {
        let memo = self.engine.memo_stats();
        let mut memo_doc = JsonObject::new();
        memo_doc.usize("extends", memo.extends);
        memo_doc.usize("crossing_computed", memo.crossing_computed);
        memo_doc.usize("separators_interned", memo.separators_interned);
        let t = self.engine.telemetry();
        let mut engine_doc = JsonObject::new();
        engine_doc.raw("sessions_built", t.sessions_built.get().to_string());
        engine_doc.raw("sessions_evicted", t.sessions_evicted.get().to_string());
        engine_doc.raw("replay_hits", t.replay_hits.get().to_string());
        engine_doc.raw("replay_misses", t.replay_misses.get().to_string());
        engine_doc.raw("plans_computed", t.plans_computed.get().to_string());
        engine_doc.raw("plan_cache_hits", t.plan_cache_hits.get().to_string());
        let requests: Vec<String> = [
            ("/healthz", &self.metrics.healthz),
            ("/v1/stats", &self.metrics.stats),
            ("/v1/metrics", &self.metrics.metrics),
            ("/v1/graphs", &self.metrics.graphs),
            ("/v1/query", &self.metrics.query),
            ("/v1/batch", &self.metrics.batch),
            ("other", &self.metrics.other),
        ]
        .iter()
        .map(|(endpoint, m)| {
            let mut entry = JsonObject::new();
            entry.str("endpoint", endpoint);
            entry.raw("requests", m.requests.get().to_string());
            entry.finish()
        })
        .collect();
        let slow: Vec<String> = self
            .slow_queries()
            .iter()
            .map(|s| {
                let mut entry = JsonObject::new();
                entry.str("task", s.task);
                entry.raw("elapsed_ms", s.elapsed_ms.to_string());
                entry.usize("count", s.count);
                entry.raw("at_ms", s.at_ms.to_string());
                entry.finish()
            })
            .collect();
        let mut doc = JsonObject::new();
        doc.usize("sessions", self.engine.sessions_cached());
        doc.usize("graphs", self.graphs_registered());
        doc.raw("memo", memo_doc.finish());
        doc.raw("engine", engine_doc.finish());
        if let Some(store) = self.engine.store() {
            let stats = store.stats();
            let mut store_doc = JsonObject::new();
            store_doc.raw("bytes", stats.bytes.to_string());
            store_doc.raw("entries", stats.entries.to_string());
            store_doc.raw("writes", stats.writes.to_string());
            store_doc.raw("loads", stats.loads.to_string());
            store_doc.raw("load_misses", stats.load_misses.to_string());
            store_doc.raw("corrupt_quarantined", stats.corrupt_quarantined.to_string());
            store_doc.raw("hits", t.store_hits.get().to_string());
            store_doc.raw("misses", t.store_misses.get().to_string());
            store_doc.raw("spills", t.store_spills.get().to_string());
            doc.raw("store", store_doc.finish());
        }
        doc.raw("requests", format!("[{}]", requests.join(",")));
        doc.raw("slow_queries", format!("[{}]", slow.join(",")));
        doc.raw("slow_query_ms", self.limits.slow_query_ms.to_string());
        doc.raw("uptime_ms", self.started.elapsed().as_millis().to_string());
        Reply::ok(doc.finish())
    }

    /// `GET /v1/metrics`: the whole registry — engine counters and
    /// per-endpoint HTTP families alike — in Prometheus text exposition
    /// format. Gauge mirrors of pull-only state are refreshed first.
    fn handle_metrics(&self) -> Reply {
        self.engine.refresh_gauges();
        Reply::prometheus(self.engine.registry().render_prometheus())
    }

    fn handle_graphs(&self, body: &JsonValue) -> Result<Reply, HttpError> {
        let (id, g) = self.register_graph(body)?;
        let mut doc = JsonObject::new();
        doc.str("graph_id", &id);
        doc.raw("graph", graph_summary_json(&g));
        Ok(Reply::ok(doc.finish()))
    }

    fn handle_query(&self, body: &JsonValue) -> Result<Reply, HttpError> {
        let stream = match body.get("stream") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| HttpError::bad_request("`stream` must be a boolean"))?,
        };
        if stream {
            return Ok(Reply::Stream(Box::new(self.start_query(body, false)?)));
        }
        Ok(Reply::ok(self.run_collected(body)?))
    }

    fn handle_batch(&self, body: &JsonValue) -> Result<Reply, HttpError> {
        let specs = body
            .get("queries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| HttpError::bad_request("batch needs a `queries` array"))?;
        if specs.len() > self.limits.max_batch {
            return Err(HttpError::bad_request(format!(
                "batch of {} queries exceeds the cap of {}",
                specs.len(),
                self.limits.max_batch
            )));
        }
        // One connection, many queries; a bad spec fails its own slot,
        // not the batch.
        let responses: Vec<String> = specs
            .iter()
            .map(|spec| {
                // Batch answers are one collected document per slot; a
                // requested stream can't be honored here, so validate the
                // field exactly like /v1/query does and reject it rather
                // than silently dropping the streaming request.
                match spec.get("stream") {
                    Some(JsonValue::Bool(true)) => {
                        return error_body(400, "streaming is not supported inside /v1/batch")
                    }
                    Some(v) if v.as_bool().is_none() => {
                        return error_body(400, "`stream` must be a boolean")
                    }
                    _ => {}
                }
                match self.run_collected(spec) {
                    Ok(doc) => doc,
                    Err(e) => error_body(e.status, &e.message),
                }
            })
            .collect();
        let mut doc = JsonObject::new();
        doc.raw("responses", format!("[{}]", responses.join(",")));
        doc.usize("count", responses.len());
        Ok(Reply::ok(doc.finish()))
    }

    /// Routes one parsed request. Infallible: every error is already a
    /// structured [`Reply::Full`]. Each route lands in its endpoint's
    /// request counter and latency histogram (collected queries time the
    /// full drain; streamed ones only the setup — the drain happens in
    /// the connection loop).
    pub fn route(&self, req: &Request) -> Reply {
        let started = Instant::now();
        let result = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Ok(self.handle_healthz()),
            ("GET", "/v1/stats") => Ok(self.handle_stats()),
            ("GET", "/v1/metrics") => Ok(self.handle_metrics()),
            ("POST", "/v1/graphs") => self.parse_body(req).and_then(|v| self.handle_graphs(&v)),
            ("POST", "/v1/query") => self.parse_body(req).and_then(|v| self.handle_query(&v)),
            ("POST", "/v1/batch") => self.parse_body(req).and_then(|v| self.handle_batch(&v)),
            (
                _,
                "/healthz" | "/v1/stats" | "/v1/metrics" | "/v1/graphs" | "/v1/query" | "/v1/batch",
            ) => Err(HttpError::new(
                405,
                format!("{} is not valid here", req.method),
            )),
            (_, path) => Err(HttpError::new(404, format!("no route for {path:?}"))),
        };
        let endpoint = match (req.method.as_str(), req.path.as_str()) {
            ("GET", p @ ("/healthz" | "/v1/stats" | "/v1/metrics"))
            | ("POST", p @ ("/v1/graphs" | "/v1/query" | "/v1/batch")) => p,
            _ => "other",
        };
        self.metrics.endpoint(endpoint).observe(started.elapsed());
        result.unwrap_or_else(Reply::from)
    }

    fn parse_body(&self, req: &Request) -> Result<JsonValue, HttpError> {
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| HttpError::bad_request("request body is not valid UTF-8"))?;
        JsonValue::parse(text).map_err(|e| HttpError::bad_request(e.to_string()))
    }
}
