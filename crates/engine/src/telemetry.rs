//! The engine's metric surface: every [`Engine`](crate::Engine) owns a
//! [`Registry`] and registers its session/replay/plan counters there at
//! construction time, so serving layers can merge their own per-endpoint
//! metrics into the same registry and render one Prometheus document.
//!
//! All handles are `Arc`s resolved once — the engine's hot paths bump
//! atomics and never touch the registry lock (the workspace invariant:
//! telemetry is write-only from hot paths).

use mintri_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// The engine's registered metric handles. Created by
/// [`Engine::with_config`](crate::Engine::with_config); read them back
/// through [`Engine::telemetry`](crate::Engine::telemetry) or rendered
/// via the shared [`EngineTelemetry::registry`].
pub struct EngineTelemetry {
    registry: Arc<Registry>,
    /// Cold session builds (graph + backend pairs constructed).
    pub sessions_built: Arc<Counter>,
    /// Sessions dropped: LRU pressure, explicit eviction, or clears.
    pub sessions_evicted: Arc<Counter>,
    /// Live warm sessions right now.
    pub sessions_live: Arc<Gauge>,
    /// Streams served from a completed-answer replay (zero `Extend`s).
    pub replay_hits: Arc<Counter>,
    /// Streams that had to run live (no compatible cached answer list).
    pub replay_misses: Arc<Counter>,
    /// Best-k queries routed through the ranked gear.
    pub ranked_queries: Arc<Counter>,
    /// Raw results pulled by ranked frontiers (the ranked analogue of a
    /// scan length; divide by `ranked_queries` for the mean expansion
    /// count per query).
    pub ranked_expansions: Arc<Counter>,
    /// Delay from ranked-stream creation to its first emitted result (µs).
    pub ranked_first_result_us: Arc<Histogram>,
    /// Atom decompositions computed.
    pub plans_computed: Arc<Counter>,
    /// Queries served a memoized plan.
    pub plan_cache_hits: Arc<Counter>,
    /// Streams or plans hydrated from the persistent store (disk hits).
    pub store_hits: Arc<Counter>,
    /// Store lookups that found no usable entry (absent, corrupt, or a
    /// graph-equality mismatch under a colliding fingerprint).
    pub store_misses: Arc<Counter>,
    /// Answer caches spilled to the store (deposits on completed runs
    /// plus eviction-time spills).
    pub store_spills: Arc<Counter>,
    /// Bytes the persistent store currently holds, mirrored by
    /// [`Engine::refresh_gauges`](crate::Engine::refresh_gauges).
    pub store_bytes: Arc<Gauge>,
    /// Entry files the persistent store currently holds (same mirror).
    pub store_entries: Arc<Gauge>,
    /// Wall time to hydrate one entry from disk — read, verify,
    /// re-intern (µs).
    pub store_hydrate_us: Arc<Histogram>,
    /// Wall time to build one cold session (µs).
    pub session_build_us: Arc<Histogram>,
    /// Wall time from stream creation to its drop — replay or live (µs).
    pub stream_wall_us: Arc<Histogram>,
    /// `MsGraph` memo mirrors, refreshed by
    /// [`Engine::refresh_gauges`](crate::Engine::refresh_gauges): the
    /// summed `extends` / crossing counters of every live session.
    pub memo_extends: Arc<Gauge>,
    /// Component labellings computed (one BFS each), summed over live
    /// sessions.
    pub memo_crossing_computed: Arc<Gauge>,
    /// Distinct separators interned, summed over live sessions.
    pub memo_separators_interned: Arc<Gauge>,
}

impl EngineTelemetry {
    /// Registers the engine family in `registry` and resolves the
    /// handles.
    pub fn new(registry: Arc<Registry>) -> Self {
        let c = |name: &str, help: &str| registry.counter(name, help);
        let g = |name: &str, help: &str| registry.gauge(name, help);
        let h = |name: &str, help: &str| registry.histogram(name, help);
        EngineTelemetry {
            sessions_built: c(
                "mintri_engine_sessions_built_total",
                "Cold graph-session builds",
            ),
            sessions_evicted: c(
                "mintri_engine_sessions_evicted_total",
                "Warm sessions dropped (LRU pressure, eviction or clears)",
            ),
            sessions_live: g("mintri_engine_sessions_live", "Live warm sessions"),
            replay_hits: c(
                "mintri_engine_replay_hits_total",
                "Streams served from a completed-answer replay",
            ),
            replay_misses: c(
                "mintri_engine_replay_misses_total",
                "Streams that ran a live enumeration",
            ),
            ranked_queries: c(
                "mintri_engine_ranked_queries_total",
                "Best-k queries routed through the ranked gear",
            ),
            ranked_expansions: c(
                "mintri_engine_ranked_expansions_total",
                "Raw results pulled by ranked frontiers",
            ),
            ranked_first_result_us: h(
                "mintri_engine_ranked_first_result_microseconds",
                "Delay from ranked-stream creation to its first result",
            ),
            plans_computed: c(
                "mintri_engine_plans_computed_total",
                "Atom decompositions computed",
            ),
            plan_cache_hits: c(
                "mintri_engine_plan_cache_hits_total",
                "Queries served a memoized plan",
            ),
            store_hits: c(
                "mintri_store_hits_total",
                "Streams or plans hydrated from the persistent store",
            ),
            store_misses: c(
                "mintri_store_misses_total",
                "Store lookups that found no usable entry",
            ),
            store_spills: c(
                "mintri_store_spills_total",
                "Answer caches spilled to the persistent store",
            ),
            store_bytes: g("mintri_store_bytes", "Bytes held by the persistent store"),
            store_entries: g(
                "mintri_store_entries",
                "Entry files held by the persistent store",
            ),
            store_hydrate_us: h(
                "mintri_store_hydrate_microseconds",
                "Wall time to hydrate one store entry (read, verify, re-intern)",
            ),
            session_build_us: h(
                "mintri_engine_session_build_microseconds",
                "Wall time to build a cold session",
            ),
            stream_wall_us: h(
                "mintri_engine_stream_wall_microseconds",
                "Stream lifetime, creation to drop",
            ),
            memo_extends: g(
                "mintri_engine_memo_extends",
                "Extend calls, summed over live sessions",
            ),
            memo_crossing_computed: g(
                "mintri_engine_memo_crossing_computed",
                "Component labellings computed, summed over live sessions",
            ),
            memo_separators_interned: g(
                "mintri_engine_memo_separators_interned",
                "Distinct separators interned, summed over live sessions",
            ),
            registry,
        }
    }

    /// The registry these metrics live in. Serving layers register their
    /// per-endpoint metrics here too, so one render covers the stack.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}
