//! The serving layer: one [`Engine`] caches warm per-graph state across
//! queries, and [`Engine::run`] executes any typed
//! [`Query`](mintri_core::query::Query) against it — routed through the
//! planning layer, so the cached unit is the **atom subgraph**, not the
//! whole query graph.
//!
//! A [`GraphSession`] holds the shared, internally synchronized
//! [`MsGraph`] for one (graph, triangulation backend) pair — so its
//! interned separators and their component labels survive across
//! queries — plus, once any enumeration has run to completion, the full
//! answer list in the sequential schedule's order. Every later query
//! replays it without touching `Extend` at all — for *every* task:
//! enumeration, ranked and exhaustive best-k, decomposition and stats
//! queries all stream through the same replay-aware source. This is the "repeated traffic" story: the first
//! query over a graph pays for its atoms' enumerations, every later one
//! — including queries on *different* graphs sharing an atom — is a
//! cache replay (or at worst a warm-memo rerun).

use crate::telemetry::EngineTelemetry;
use crate::EngineConfig;
use mintri_core::query::{DispatchKind, OpenedAtom, Plan, Query, Response, TriangulationStream};
use mintri_core::{MsGraph, MsGraphStats, SepId};
use mintri_graph::{FxHashMap, FxHasher, Graph, NodeSet};
use mintri_sgr::{EnumMis, EnumMisStats, PrintMode};
use mintri_store::{AnswerSnapshot, MemoSummary, PlanSnapshot, Store, StoredOrder};
use mintri_telemetry::{Counter, Histogram, Registry, TraceBuilder};
use mintri_triangulate::{McsM, Triangulation, Triangulator};
use std::hash::Hasher;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Cached plans colliding under one fingerprint (equality-verified on
/// lookup, like sessions).
type PlanBucket = Vec<(Graph, Arc<Plan>)>;

/// Structural fingerprint of a graph: node count plus the canonical edge
/// list, hashed. Sessions verify true equality on lookup, so a collision
/// costs a comparison, never a wrong answer. Public because the serving
/// layers key their own registries by the same value (one definition —
/// graph ids and session keys must never diverge).
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(g.num_nodes());
    for (u, v) in g.edges() {
        h.write_u32(u);
        h.write_u32(v);
    }
    h.finish()
}

/// The store-level order values an answer list may carry. Every list is
/// the sequential schedule's emission order, and both print modes emit
/// the same full sequence: the schedule's queue `Q` is FIFO, so answers
/// leave it (`UponPop`) in the order they entered it (`UponGeneration`),
/// and a run completes only once `Q` is empty (`tests/properties.rs`
/// pins this). Writes use the first value; a hydrate accepts either,
/// since older stores hold lists under both.
const STORED_ORDERS: [StoredOrder; 2] = [StoredOrder::UponGeneration, StoredOrder::UponPop];

/// The portable snapshot of one recorded answer list: separators leave
/// as sorted vertex lists (session-local [`SepId`]s mean nothing to
/// another process) together with the graph itself, so a loader can
/// verify equality before trusting a fingerprint match.
fn answer_snapshot(session: &GraphSession, answers: &[Vec<SepId>]) -> AnswerSnapshot {
    let stats = session.ms.stats();
    AnswerSnapshot {
        fingerprint: graph_fingerprint(&session.graph),
        backend: session.backend.to_string(),
        order: STORED_ORDERS[0],
        nodes: session.graph.num_nodes() as u32,
        edges: session.graph.edges(),
        answers: answers
            .iter()
            .map(|answer| {
                answer
                    .iter()
                    .map(|&id| session.ms.separator(id).to_vec())
                    .collect()
            })
            .collect(),
        summary: MemoSummary {
            extends: stats.extends as u64,
            crossing_computed: stats.crossing_computed as u64,
            separators_interned: stats.separators_interned as u64,
        },
    }
}

/// Warm state for one (graph, triangulation backend) pair: the shared
/// memoized `MSGraph` and, once an enumeration has completed, its full
/// answer list.
pub struct GraphSession {
    graph: Arc<Graph>,
    backend: &'static str,
    ms: Arc<MsGraph<'static>>,
    answers: OnceLock<Arc<Vec<Vec<SepId>>>>,
}

impl GraphSession {
    fn new(g: &Graph, triangulator: Box<dyn Triangulator>) -> Self {
        let graph = Arc::new(g.clone());
        GraphSession {
            backend: triangulator.name(),
            ms: Arc::new(MsGraph::shared(Arc::clone(&graph), triangulator)),
            graph,
            answers: OnceLock::new(),
        }
    }

    /// The session's graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The name of the triangulation backend this session runs.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The shared memoized `MSGraph` (interner + per-separator component
    /// labels).
    pub fn msgraph(&self) -> &Arc<MsGraph<'static>> {
        &self.ms
    }

    /// Memo counters — watch `crossing_computed` stay flat across repeat
    /// queries to see the warm cache at work.
    pub fn stats(&self) -> MsGraphStats {
        self.ms.stats()
    }

    /// The cached complete answer list, if an enumeration has finished.
    pub fn cached_answers(&self) -> Option<Arc<Vec<Vec<SepId>>>> {
        self.answers.get().cloned()
    }

    /// Deposits a completed answer list and returns the list now cached
    /// — the deposited one, or the incumbent when a racing run (or
    /// hydrate) got there first.
    fn store_answers(&self, answers: Vec<Vec<SepId>>) -> Arc<Vec<Vec<SepId>>> {
        Arc::clone(self.answers.get_or_init(|| Arc::new(answers)))
    }
}

/// The portable snapshot of a memoized plan: the decomposition's vertex
/// sets plus the graph for load-time equality verification. The planner
/// re-derives induced subgraphs and chordality on hydrate — cheap next
/// to the decomposition (one MCS-M triangulation per split) being
/// skipped.
fn plan_snapshot(g: &Graph, fingerprint: u64, plan: &Plan) -> PlanSnapshot {
    let sets = |sets: &[NodeSet]| -> Vec<Vec<u32>> { sets.iter().map(|s| s.to_vec()).collect() };
    PlanSnapshot {
        fingerprint,
        nodes: g.num_nodes() as u32,
        edges: g.edges(),
        components: sets(&plan.decomposition.components),
        atoms: sets(&plan.decomposition.atoms),
        separators: sets(&plan.decomposition.separators),
    }
}

enum Source {
    /// Replaying a previously completed enumeration — no `Extend` calls.
    Cached {
        answers: Arc<Vec<Vec<SepId>>>,
        next: usize,
    },
    /// A live run of the sequential schedule against the warm shared
    /// memo. `Arc<MsGraph>` is itself an SGR, so the plain iterator runs
    /// over the session's shared graph with no wrapper. Boxed: the
    /// frontier's bookkeeping dwarfs the other variant.
    Live(Box<EnumMis<Arc<MsGraph<'static>>>>),
}

/// The engine's replay-aware triangulation stream: what every
/// [`Engine::run`] response consumes, one per planned atom. On natural
/// exhaustion of a live run it deposits the complete answer list back
/// into its session for future replays.
pub(crate) struct EngineEnumeration {
    session: Arc<GraphSession>,
    source: Source,
    /// How the stream is served; a replay and a disk hydration share
    /// `Source::Cached`, so the source alone cannot tell them apart.
    kind: DispatchKind,
    /// The live run's answers so far, deposited on completion.
    recorded: Option<Vec<Vec<SepId>>>,
    /// The persistent tier (plus its spill counter), when the engine has
    /// one: a natural completion writes the deposited answer list
    /// through to disk (write-behind — the enqueue is the only hot-path
    /// cost).
    spill: Option<(Arc<Store>, Arc<Counter>)>,
    /// Stream creation time; its lifetime lands in `wall` at drop.
    created: Instant,
    /// The engine's stream-lifetime histogram. Recording happens once,
    /// at drop — two clock reads per stream total, so the always-on
    /// metric cannot perturb per-result delay.
    wall: Option<Arc<Histogram>>,
}

impl Drop for EngineEnumeration {
    fn drop(&mut self) {
        if let Some(wall) = self.wall.take() {
            wall.record_duration(self.created.elapsed());
        }
    }
}

impl EngineEnumeration {
    fn next_pair(&mut self) -> Option<(Vec<SepId>, Triangulation)> {
        let pair = match &mut self.source {
            Source::Cached { answers, next } => {
                let answer = answers.get(*next)?.clone();
                *next += 1;
                let tri = self.session.ms.materialize(&answer);
                return Some((answer, tri));
            }
            // A live stream only ends when complete; one abandoned
            // mid-run is dropped before it gets here and deposits nothing.
            Source::Live(seq) => seq.next().map(|answer| {
                if let Some(rec) = &mut self.recorded {
                    rec.push(answer.clone());
                }
                let tri = self.session.ms.materialize(&answer);
                (answer, tri)
            }),
        };
        if pair.is_none() {
            self.deposit();
        }
        pair
    }

    /// Deposits the recording into the session — and, with a store
    /// attached, spills it to disk (write-behind; `overwrite = true`
    /// because a completed run is the freshest truth for its graph).
    fn deposit(&mut self) {
        if let Some(rec) = self.recorded.take() {
            let answers = self.session.store_answers(rec);
            if let Some((store, spills)) = &self.spill {
                store.put_answers(&answer_snapshot(&self.session, &answers), true);
                spills.inc();
            }
        }
    }

    /// `true` when this stream replays a cached enumeration.
    pub fn is_replay(&self) -> bool {
        matches!(self.source, Source::Cached { .. })
    }
}

impl Iterator for EngineEnumeration {
    type Item = Triangulation;

    fn next(&mut self) -> Option<Triangulation> {
        self.next_pair().map(|(_, tri)| tri)
    }
}

impl TriangulationStream for EngineEnumeration {
    fn next_tri(&mut self) -> Option<Triangulation> {
        self.next_pair().map(|(_, tri)| tri)
    }

    fn finished(&self) -> bool {
        // A replay or live stream only ends by exhaustion.
        true
    }

    fn enum_stats(&self) -> Option<EnumMisStats> {
        match &self.source {
            Source::Cached { .. } => None,
            Source::Live(seq) => Some(seq.stats()),
        }
    }

    fn is_replay(&self) -> bool {
        EngineEnumeration::is_replay(self)
    }
}

/// The cache-sharing enumeration engine: a session store over
/// [`GraphSession`]s plus the one serving entry point, [`Engine::run`].
/// Cheap to share behind an `Arc`; all methods take `&self`.
///
/// ```
/// use mintri_engine::{Engine, Query};
/// use mintri_graph::Graph;
///
/// let engine = Engine::new();
/// let g = Graph::cycle(6);
/// assert_eq!(engine.run(&g, Query::enumerate()).count(), 14); // computes
/// assert_eq!(engine.run(&g, Query::enumerate()).count(), 14); // replays the cache
/// assert_eq!(engine.sessions_cached(), 1);
/// ```
pub struct Engine {
    config: EngineConfig,
    sessions: Mutex<SessionStore>,
    /// Memoized atom decompositions, fingerprint-keyed like the
    /// sessions (collisions verified by equality), so warm repeated
    /// traffic skips straight to the per-atom replay caches.
    plans: Mutex<FxHashMap<u64, PlanBucket>>,
    /// The persistent warm-state tier, when one is attached
    /// ([`Engine::with_store`]): sessions hydrate from it on a RAM miss
    /// and spill back to it on completion and eviction. `None` keeps
    /// every prior engine behavior bit for bit.
    store: Option<Arc<Store>>,
    /// Registered metric handles (and the registry they live in).
    telemetry: EngineTelemetry,
}

/// The session cache: fingerprint → colliding sessions (collisions are
/// astronomically rare but must coexist, not evict each other; distinct
/// triangulation backends over one graph also coexist here), with a
/// recency stamp per session for LRU eviction under `max_sessions`.
#[derive(Default)]
struct SessionStore {
    by_key: FxHashMap<u64, Vec<(u64, Arc<GraphSession>)>>,
    clock: u64,
    live: usize,
}

impl SessionStore {
    /// Looks `(g, backend)` up, refreshing its recency stamp; `None` on
    /// miss.
    fn get(&mut self, key: u64, g: &Graph, backend: &str) -> Option<Arc<GraphSession>> {
        self.clock += 1;
        let clock = self.clock;
        let entries = self.by_key.get_mut(&key)?;
        for (stamp, session) in entries.iter_mut() {
            // Fingerprints are 64-bit but not a proof; verify.
            if session.graph.as_ref() == g && session.backend == backend {
                *stamp = clock;
                return Some(Arc::clone(session));
            }
        }
        None
    }

    /// Inserts, evicting LRU sessions past `cap`; returns the evicted
    /// sessions (the caller owns the telemetry counters — and, with a
    /// store attached, spills them outside this lock).
    fn insert(
        &mut self,
        key: u64,
        session: Arc<GraphSession>,
        cap: usize,
    ) -> Vec<Arc<GraphSession>> {
        self.clock += 1;
        let clock = self.clock;
        self.by_key.entry(key).or_default().push((clock, session));
        self.live += 1;
        let mut evicted = Vec::new();
        while self.live > cap.max(1) {
            match self.evict_lru() {
                Some(victim) => evicted.push(victim),
                None => break,
            }
        }
        evicted
    }

    fn evict_lru(&mut self) -> Option<Arc<GraphSession>> {
        let (&victim_key, _) = self
            .by_key
            .iter()
            .min_by_key(|(_, entries)| entries.iter().map(|(stamp, _)| *stamp).min())?;
        let entries = self.by_key.get_mut(&victim_key).unwrap();
        let oldest = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (stamp, _))| *stamp)
            .map(|(i, _)| i)
            .unwrap();
        let (_, victim) = entries.remove(oldest);
        if entries.is_empty() {
            self.by_key.remove(&victim_key);
        }
        self.live -= 1;
        Some(victim)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Engine with the default configuration.
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// Engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let telemetry = EngineTelemetry::new(Arc::new(Registry::new()));
        Engine {
            config,
            sessions: Mutex::new(SessionStore::default()),
            plans: Mutex::new(FxHashMap::default()),
            store: None,
            telemetry,
        }
    }

    /// Engine backed by a persistent warm-state tier. Dispatch per
    /// stream becomes replay → disk-hydrate → sequential:
    /// completed runs and evicted sessions spill their answer lists (and
    /// memoized plans) to `store`, and a RAM miss whose entry is on disk
    /// rebuilds the warm session by re-interning instead of
    /// re-enumerating — across restarts, and across replicas sharing the
    /// directory.
    pub fn with_store(config: EngineConfig, store: Arc<Store>) -> Self {
        let mut engine = Self::with_config(config);
        engine.store = Some(store);
        engine
    }

    /// The attached persistent tier, if any. Serving layers persist
    /// their registries through the same handle — one store, one
    /// eviction policy, one budget.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's registered metric handles: session churn, replay
    /// hits/misses, plan-cache traffic, build and stream-lifetime
    /// histograms.
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// The metrics registry this engine registers into. Serving layers
    /// add their own per-endpoint families here, so a single
    /// [`Registry::render_prometheus`] call covers engine and transport
    /// alike.
    pub fn registry(&self) -> &Arc<Registry> {
        self.telemetry.registry()
    }

    /// Refreshes the gauge mirrors of pull-only state: the summed
    /// `MsGraph` memo counters and the live-session count. Call before
    /// rendering the registry (e.g. on each `GET /v1/metrics`).
    pub fn refresh_gauges(&self) {
        let stats = self.memo_stats();
        let t = &self.telemetry;
        t.memo_extends.set(stats.extends as i64);
        t.memo_crossing_computed.set(stats.crossing_computed as i64);
        t.memo_separators_interned
            .set(stats.separators_interned as i64);
        t.sessions_live.set(self.sessions_cached() as i64);
        if let Some(store) = &self.store {
            t.store_bytes.set(store.bytes_stored() as i64);
            t.store_entries.set(store.entries() as i64);
        }
    }

    /// Number of live warm sessions.
    pub fn sessions_cached(&self) -> usize {
        self.sessions.lock().unwrap().live
    }

    /// The (existing or fresh) warm session for `g` under the default
    /// (MCS-M) backend. Touching a session refreshes it in the LRU
    /// order; when the store exceeds [`EngineConfig::max_sessions`], the
    /// least recently used session is dropped (its memory — memo tables
    /// and answer cache — with it).
    pub fn session(&self, g: &Graph) -> Arc<GraphSession> {
        self.session_keyed(g, Box::new(McsM))
    }

    /// The warm session for `g` under `triangulator`'s backend (sessions
    /// are keyed by graph *and* backend name — different backends
    /// discover the same answer set in different orders, so their caches
    /// must not alias). Consumes the triangulator only on a miss.
    fn session_keyed(&self, g: &Graph, triangulator: Box<dyn Triangulator>) -> Arc<GraphSession> {
        let key = graph_fingerprint(g);
        {
            let mut sessions = self.sessions.lock().unwrap();
            if let Some(existing) = sessions.get(key, g, triangulator.name()) {
                return existing;
            }
        }
        // Build the warm state outside the store lock: construction
        // clones the graph and allocates the sharded memo tables, and
        // concurrent traffic on *other* graphs must not serialize behind
        // it. Two clients racing on the same new graph both build; the
        // re-check below keeps exactly one.
        let build_start = Instant::now();
        let session = Arc::new(GraphSession::new(g, triangulator));
        let build_time = build_start.elapsed();
        let mut sessions = self.sessions.lock().unwrap();
        if let Some(existing) = sessions.get(key, g, session.backend()) {
            // Lost the race: the discarded duplicate is not a cold build.
            return existing;
        }
        let evicted = sessions.insert(key, Arc::clone(&session), self.config.max_sessions);
        let live = sessions.live;
        drop(sessions);
        self.telemetry.sessions_built.inc();
        self.telemetry.session_build_us.record_duration(build_time);
        self.telemetry.sessions_evicted.add(evicted.len() as u64);
        self.telemetry.sessions_live.set(live as i64);
        // Spill outside the store lock: the write is an enqueue, but the
        // snapshot encoding walks the victim's answer lists.
        for victim in &evicted {
            self.spill_session(victim);
        }
        session
    }

    /// Persists every recorded answer list of a session about to lose
    /// its RAM (LRU pressure, explicit eviction, or a clear), so the
    /// winnings survive as disk entries instead of vanishing. No-op
    /// without a store — the pre-store engine dropped them silently,
    /// which is exactly the bug this path closes. `overwrite = false`:
    /// completed runs already wrote the freshest copy through on
    /// deposit; an eviction must not clobber it with the same data (or
    /// race a concurrent deposit).
    fn spill_session(&self, session: &Arc<GraphSession>) {
        let Some(store) = &self.store else { return };
        if let Some(answers) = session.cached_answers() {
            store.put_answers(&answer_snapshot(session, &answers), false);
            self.telemetry.store_spills.inc();
        }
    }

    /// Drops every warm session for `g` (all backends) and its cached
    /// plan, if any — frees their memo tables and cached answers; a
    /// later query rebuilds from scratch. (An atom session shared with
    /// another graph is only dropped when evicted under *its own*
    /// subgraph.)
    /// With a store attached the sessions spill their recorded answers
    /// to disk first (plans were already persisted at compute time), so
    /// "rebuilds from scratch" becomes "rehydrates from disk".
    pub fn evict(&self, g: &Graph) {
        let key = graph_fingerprint(g);
        let mut sessions = self.sessions.lock().unwrap();
        let store = &mut *sessions;
        let mut victims = Vec::new();
        if let Some(entries) = store.by_key.get_mut(&key) {
            entries.retain(|(_, s)| {
                if s.graph.as_ref() == g {
                    victims.push(Arc::clone(s));
                    false
                } else {
                    true
                }
            });
            store.live -= victims.len();
            if entries.is_empty() {
                store.by_key.remove(&key);
            }
        }
        let live = store.live;
        drop(sessions);
        self.telemetry.sessions_evicted.add(victims.len() as u64);
        self.telemetry.sessions_live.set(live as i64);
        for victim in &victims {
            self.spill_session(victim);
        }
        let mut plans = self.plans.lock().unwrap();
        if let Some(entries) = plans.get_mut(&key) {
            entries.retain(|(pg, _)| pg != g);
            if entries.is_empty() {
                plans.remove(&key);
            }
        }
    }

    /// Drops every warm session and cached plan (spilling recorded
    /// answers to the store first, when one is attached).
    pub fn clear_sessions(&self) {
        let mut sessions = self.sessions.lock().unwrap();
        let removed = sessions.live;
        let victims: Vec<Arc<GraphSession>> = sessions
            .by_key
            .values()
            .flat_map(|entries| entries.iter().map(|(_, s)| Arc::clone(s)))
            .collect();
        sessions.by_key.clear();
        sessions.live = 0;
        drop(sessions);
        self.telemetry.sessions_evicted.add(removed as u64);
        self.telemetry.sessions_live.set(0);
        for victim in &victims {
            self.spill_session(victim);
        }
        self.plans.lock().unwrap().clear();
    }

    /// **The serving entry point**: executes a typed [`Query`] against
    /// the warm sessions for `g`'s plan and returns the unified
    /// [`Response`] stream.
    ///
    /// `g` is first decomposed into clique-minimal-separator atoms
    /// ([`Plan`](mintri_core::query::Plan); a policy with planning off
    /// gets [`Plan::unreduced`], one atom spanning `g`). **Sessions are
    /// keyed per atom subgraph** (fingerprint + backend), one
    /// replay-aware stream runs per atom, and [`Plan::compose`]
    /// recombines them. Two queries on *different* graphs that share an
    /// atom therefore share that atom's warm memo and recorded answers.
    ///
    /// Per-atom dispatch, in order:
    ///
    /// 1. **Replay** — if the session holds a completed answer list, it
    ///    is served with zero `Extend` calls ([`Response::is_replay`]),
    ///    for every task: ranked and decomposition queries replay just
    ///    like plain enumerations. The list serves either [`PrintMode`]:
    ///    the two emit the same full sequence.
    /// 2. **Hydrate** — else an answer list in the attached store is
    ///    re-interned and replayed.
    /// 3. **Sequential** — else the plain `EnumMIS` iterator runs over
    ///    the session's warm memo, on the consumer's thread.
    ///
    /// Every route yields the sequence [`Query::run_local`] yields for
    /// the same query.
    ///
    /// A live run that drains to natural completion deposits its answer
    /// list back into its session, so the *next* query touching that
    /// atom — of any task shape, over any containing graph — replays.
    pub fn run(&self, g: &Graph, query: Query) -> Response<'static> {
        let Query {
            task,
            triangulator,
            mode,
            budget,
            policy,
            trace,
            cancel,
        } = query;
        let ranked_measure = policy.ranked_measure(task);
        if ranked_measure.is_some() {
            self.telemetry.ranked_queries.inc();
        }
        let tracer = trace.then(TraceBuilder::new);
        let query_span = tracer.as_ref().map(|t| {
            let span = t.root_span("query");
            span.attr("task", task.name());
            span.attr("dispatch", "engine");
            span
        });
        let plan = Plan::for_query(policy.planned, g, query_span.as_ref(), || self.plan_for(g));
        let shared: Arc<dyn Triangulator> = Arc::from(triangulator);
        let mut composed = plan.compose(
            g,
            ranked_measure,
            query_span.as_ref(),
            Some(&self.telemetry.ranked_expansions),
            |_, atom| {
                let session = self.session_keyed(&atom.graph, Box::new(Arc::clone(&shared)));
                let stream = self.stream_for(&session, mode);
                OpenedAtom {
                    kind: stream.kind,
                    stream: Box::new(stream),
                }
            },
        );
        if composed.ranked {
            composed.stream = Box::new(FirstResultTimed::new(
                composed.stream,
                Arc::clone(&self.telemetry.ranked_first_result_us),
            ));
        }
        Response::over_composed(task, budget, cancel, composed, tracer.zip(query_span))
    }

    /// The cached (or freshly computed) [`Plan`] for `g`. Planning is
    /// polynomial but not free (one MCS-M triangulation per
    /// decomposition split), and the engine exists for *repeated*
    /// traffic — so plans are memoized by graph fingerprint, with true
    /// equality verified on lookup, and the whole cache is dropped when
    /// it outgrows twice the session cap (plans are cheap to rebuild;
    /// LRU bookkeeping is not worth it here).
    fn plan_for(&self, g: &Graph) -> Arc<Plan> {
        let key = graph_fingerprint(g);
        {
            let plans = self.plans.lock().unwrap();
            if let Some(entries) = plans.get(&key) {
                if let Some((_, plan)) = entries.iter().find(|(pg, _)| pg == g) {
                    self.telemetry.plan_cache_hits.inc();
                    return Arc::clone(plan);
                }
            }
        }
        let plan = match self.hydrate_plan(g, key) {
            Some(plan) => plan,
            None => {
                let plan = Arc::new(Plan::of(g));
                self.telemetry.plans_computed.inc();
                if let Some(store) = &self.store {
                    store.put_plan(&plan_snapshot(g, key, &plan));
                }
                plan
            }
        };
        let mut plans = self.plans.lock().unwrap();
        // Planning ran outside the lock (it is polynomial but not free),
        // so a concurrent first query may have beaten us here — re-check
        // before inserting, or the bucket accumulates duplicates.
        if let Some(entries) = plans.get(&key) {
            if let Some((_, existing)) = entries.iter().find(|(pg, _)| pg == g) {
                self.telemetry.plan_cache_hits.inc();
                return Arc::clone(existing);
            }
        }
        if plans.len() >= self.config.max_sessions.max(1) * 2 {
            plans.clear();
        }
        plans
            .entry(key)
            .or_default()
            .push((g.clone(), Arc::clone(&plan)));
        plan
    }

    /// Loads a persisted plan snapshot for `g`, if the store holds one
    /// whose graph is *equal* (a fingerprint is an address, not a
    /// proof). The decomposition is taken as given; only the cheap parts
    /// (induced subgraphs, chordality) are re-derived.
    fn hydrate_plan(&self, g: &Graph, key: u64) -> Option<Arc<Plan>> {
        let store = self.store.as_ref()?;
        let start = Instant::now();
        let snap = match store.load_plan(key) {
            Some(snap) if snap.nodes as usize == g.num_nodes() && snap.edges == g.edges() => snap,
            _ => {
                self.telemetry.store_misses.inc();
                return None;
            }
        };
        let n = g.num_nodes();
        let sets = |sets: &[Vec<u32>]| -> Vec<NodeSet> {
            sets.iter()
                .map(|s| NodeSet::from_iter(n, s.iter().copied()))
                .collect()
        };
        let decomposition = mintri_separators::AtomDecomposition {
            components: sets(&snap.components),
            atoms: sets(&snap.atoms),
            separators: sets(&snap.separators),
        };
        let plan = Arc::new(Plan::from_decomposition(g, decomposition));
        self.telemetry.store_hits.inc();
        self.telemetry
            .store_hydrate_us
            .record_duration(start.elapsed());
        Some(plan)
    }

    /// The engine-wide memo counters: [`MsGraphStats`] summed over every
    /// live session (all graphs, atoms and backends). Watch `extends`
    /// stay flat across a query to prove it was served entirely from
    /// replayed answers — the per-atom analogue of
    /// [`GraphSession::stats`].
    pub fn memo_stats(&self) -> MsGraphStats {
        let sessions = self.sessions.lock().unwrap();
        let mut total = MsGraphStats::default();
        for entries in sessions.by_key.values() {
            for (_, session) in entries {
                let s = session.stats();
                total.crossing_computed += s.crossing_computed;
                total.extends += s.extends;
                total.separators_interned += s.separators_interned;
            }
        }
        total
    }

    /// The replay-aware stream behind every atom of a query: the cached
    /// answers when the session or the store holds them, otherwise a
    /// live run against the warm session memo.
    fn stream_for(&self, session: &Arc<GraphSession>, mode: PrintMode) -> EngineEnumeration {
        if let Some(answers) = session.cached_answers() {
            self.telemetry.replay_hits.inc();
            let source = Source::Cached { answers, next: 0 };
            return self.enumeration(session, DispatchKind::Replay, source);
        }
        self.telemetry.replay_misses.inc();
        if let Some(hydrated) = self.hydrate_stream(session) {
            return hydrated;
        }
        let source = Source::Live(Box::new(EnumMis::new(Arc::clone(&session.ms), mode)));
        self.enumeration(session, DispatchKind::Sequential, source)
    }

    /// The disk-hydrate step of the dispatch order (replay →
    /// **disk-hydrate** → sequential): on a RAM replay miss with a store
    /// attached, probe the persistent tier for a recorded answer list. A
    /// hit verifies graph equality (a fingerprint is an address, not a
    /// proof), re-interns the vertex-list separators into this session's
    /// `MsGraph`, deposits the list for future RAM replays, and serves a
    /// `Cached` stream — zero `Extend` calls, ever. Interning and
    /// deposit race concurrent hydrators safely: the session keeps
    /// exactly one list.
    fn hydrate_stream(&self, session: &Arc<GraphSession>) -> Option<EngineEnumeration> {
        let store = self.store.as_ref()?;
        let start = Instant::now();
        let fp = graph_fingerprint(&session.graph);
        let snap = STORED_ORDERS
            .iter()
            .filter_map(|&order| store.load_answers(fp, session.backend, order))
            .find(|snap| {
                snap.nodes as usize == session.graph.num_nodes()
                    && snap.edges == session.graph.edges()
            });
        let Some(snap) = snap else {
            self.telemetry.store_misses.inc();
            return None;
        };
        let n = session.graph.num_nodes();
        let answers: Vec<Vec<SepId>> = snap
            .answers
            .iter()
            .map(|answer| {
                answer
                    .iter()
                    .map(|sep| {
                        session
                            .ms
                            .intern(NodeSet::from_iter(n, sep.iter().copied()))
                    })
                    .collect()
            })
            .collect();
        let answers = session.store_answers(answers);
        self.telemetry.store_hits.inc();
        self.telemetry
            .store_hydrate_us
            .record_duration(start.elapsed());
        let source = Source::Cached { answers, next: 0 };
        Some(self.enumeration(session, DispatchKind::Hydrate, source))
    }

    /// Wraps `source` into the engine's stream over `session`. Every
    /// stream carries the stream-lifetime histogram; a live run also
    /// records its answers for the deposit, written through to the store
    /// when the engine has one.
    fn enumeration(
        &self,
        session: &Arc<GraphSession>,
        kind: DispatchKind,
        source: Source,
    ) -> EngineEnumeration {
        let live = matches!(source, Source::Live(_));
        EngineEnumeration {
            session: Arc::clone(session),
            source,
            kind,
            recorded: live.then(Vec::new),
            spill: self
                .store
                .as_ref()
                .filter(|_| live)
                .map(|store| (Arc::clone(store), Arc::clone(&self.telemetry.store_spills))),
            created: Instant::now(),
            wall: Some(Arc::clone(&self.telemetry.stream_wall_us)),
        }
    }
}

/// Records the delay from ranked-stream creation to its first emitted
/// result onto `mintri_engine_ranked_first_result_microseconds` — the
/// headline number of the ranked gear (how fast does the best answer
/// surface, regardless of how big the space is). Two clock reads total
/// (construction + first pull) and one histogram write; the PR 6
/// hot-path invariant (write-only atomics) holds.
struct FirstResultTimed {
    inner: Box<dyn TriangulationStream + 'static>,
    created: Instant,
    hist: Arc<Histogram>,
    fired: bool,
}

impl FirstResultTimed {
    fn new(inner: Box<dyn TriangulationStream + 'static>, hist: Arc<Histogram>) -> Self {
        FirstResultTimed {
            inner,
            created: Instant::now(),
            hist,
            fired: false,
        }
    }
}

impl TriangulationStream for FirstResultTimed {
    fn next_tri(&mut self) -> Option<Triangulation> {
        let tri = self.inner.next_tri();
        if tri.is_some() && !self.fired {
            self.fired = true;
            self.hist.record_duration(self.created.elapsed());
        }
        tri
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn enum_stats(&self) -> Option<EnumMisStats> {
        self.inner.enum_stats()
    }

    fn is_replay(&self) -> bool {
        self.inner.is_replay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_core::query::{CostMeasure, ExecPolicy, QueryItem};
    use mintri_core::{
        MinimalTriangulationsEnumerator, ProperTreeDecompositions, TdEnumerationMode,
    };

    fn enumerate_edges(engine: &Engine, g: &Graph) -> (bool, Vec<Vec<(u32, u32)>>) {
        let response = engine.run(g, Query::enumerate());
        let replayed = response.is_replay();
        let edges = response
            .filter_map(QueryItem::into_triangulation)
            .map(|t| t.graph.edges())
            .collect();
        (replayed, edges)
    }

    #[test]
    fn repeat_enumeration_replays_from_cache() {
        let engine = Engine::new();
        let g = Graph::cycle(7);
        let (cold_replay, first) = enumerate_edges(&engine, &g);
        assert!(!cold_replay);
        assert_eq!(first.len(), 42);
        let session = engine.session(&g);
        let extends_after_first = session.stats().extends;
        let (warm_replay, second) = enumerate_edges(&engine, &g);
        assert!(warm_replay);
        assert_eq!(first, second, "replay preserves emission order");
        assert_eq!(
            session.stats().extends,
            extends_after_first,
            "replay must not invoke Extend"
        );
        assert_eq!(engine.sessions_cached(), 1);
    }

    #[test]
    fn incomplete_runs_do_not_poison_the_cache() {
        let engine = Engine::new();
        let g = Graph::cycle(9);
        let mut response = engine.run(&g, Query::enumerate());
        let _ = response.next();
        drop(response); // abandoned early: no cached answer list
        assert!(engine.session(&g).cached_answers().is_none());
        // a full run afterwards still works and caches
        let (_, edges) = enumerate_edges(&engine, &g);
        assert_eq!(
            edges.len(),
            MinimalTriangulationsEnumerator::new(&g).count()
        );
        assert!(engine.session(&g).cached_answers().is_some());
    }

    #[test]
    fn session_store_evicts_least_recently_used() {
        let engine = Engine::with_config(EngineConfig {
            max_sessions: 2,
            ..EngineConfig::default()
        });
        let (a, b, c) = (Graph::cycle(4), Graph::cycle(5), Graph::cycle(6));
        let sa = engine.session(&a);
        let _sb = engine.session(&b);
        let sa2 = engine.session(&a); // touch a: b becomes the LRU
        assert!(Arc::ptr_eq(&sa, &sa2));
        let _sc = engine.session(&c); // evicts b
        assert_eq!(engine.sessions_cached(), 2);
        assert!(Arc::ptr_eq(&sa, &engine.session(&a)), "a stayed warm");
        // b was evicted: a fresh session comes back for it
        let _ = engine.session(&b);
        assert_eq!(engine.sessions_cached(), 2);
    }

    #[test]
    fn explicit_eviction_frees_sessions() {
        let engine = Engine::new();
        let g = Graph::cycle(5);
        let s1 = engine.session(&g);
        engine.evict(&g);
        assert_eq!(engine.sessions_cached(), 0);
        assert!(!Arc::ptr_eq(&s1, &engine.session(&g)));
        engine.clear_sessions();
        assert_eq!(engine.sessions_cached(), 0);
    }

    #[test]
    fn sessions_are_fingerprint_keyed() {
        let engine = Engine::new();
        let a = Graph::cycle(5);
        let b = Graph::cycle(6);
        let _ = engine.run(&a, Query::enumerate()).count();
        let _ = engine.run(&b, Query::enumerate()).count();
        assert_eq!(engine.sessions_cached(), 2);
        let s1 = engine.session(&a);
        let s2 = engine.session(&Graph::cycle(5));
        assert!(Arc::ptr_eq(&s1, &s2), "equal graphs share a session");
    }

    #[test]
    fn sessions_are_backend_keyed() {
        let engine = Engine::new();
        let g = Graph::cycle(6);
        let n = engine
            .run(&g, Query::enumerate().triangulator(Box::new(McsM)))
            .count();
        let m = engine
            .run(
                &g,
                Query::enumerate().triangulator(Box::new(mintri_triangulate::LexM)),
            )
            .count();
        assert_eq!(n, m, "backends agree on the answer set");
        assert_eq!(
            engine.sessions_cached(),
            2,
            "distinct backends must not alias one session"
        );
    }

    #[test]
    fn best_k_matches_core_ranked() {
        let engine = Engine::new();
        let g = Graph::cycle(7);
        let best = engine
            .run(&g, Query::best_k(3, CostMeasure::Fill))
            .triangulations();
        assert_eq!(best.len(), 3);
        assert!(best.iter().all(|t| t.fill_count() == 4));
    }

    #[test]
    fn decompose_matches_sequential_pipeline() {
        let engine = Engine::new();
        let g = Graph::cycle(6);
        let mut via_engine: Vec<_> = engine
            .run(&g, Query::decompose(TdEnumerationMode::AllDecompositions))
            .filter_map(QueryItem::into_decomposition)
            .map(|d| (d.num_bags(), d.width()))
            .collect();
        let mut via_core: Vec<_> = ProperTreeDecompositions::new(&g)
            .map(|d| (d.num_bags(), d.width()))
            .collect();
        via_engine.sort();
        via_core.sort();
        assert_eq!(via_engine, via_core);
    }

    #[test]
    fn planned_queries_key_sessions_per_atom() {
        // two cycles glued at a cut vertex → two atom sessions, no
        // whole-graph session
        let engine = Engine::new();
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 3),
            ],
        );
        let n = engine.run(&g, Query::enumerate()).count();
        assert_eq!(n, 2 * 14, "C4 × C6 product");
        assert_eq!(
            engine.sessions_cached(),
            2,
            "one session per non-trivial atom, none for the whole graph"
        );
        // the same query replays both atoms
        let warm = engine.run(&g, Query::enumerate());
        assert!(warm.is_replay(), "all atom sessions replay");
        assert_eq!(warm.count(), 28);
    }

    #[test]
    fn atom_sessions_are_shared_across_different_graphs() {
        // g1 and g2 are different graphs sharing the C5 atom on {0..4}
        let engine = Engine::new();
        let c5 = &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let mut g1 = Graph::from_edges(8, c5);
        for e in [(0, 5), (5, 6), (6, 7), (7, 0)] {
            g1.add_edge(e.0, e.1);
        }
        let mut g2 = Graph::from_edges(7, c5);
        for e in [(0, 5), (5, 6), (6, 0)] {
            g2.add_edge(e.0, e.1);
        }
        let n1 = engine.run(&g1, Query::enumerate()).count();
        assert_eq!(n1, 5 * 2, "C5 × C4");
        let extends_after_g1 = engine.memo_stats().extends;

        // g2's C5 atom replays g1's session: only the triangle (chordal,
        // no stream) and... the C5 is g2's only non-trivial atom, so the
        // whole query is a replay and extends stay flat.
        let warm = engine.run(&g2, Query::enumerate());
        assert!(
            warm.is_replay(),
            "a different graph sharing the atom replays its session"
        );
        assert_eq!(warm.count(), 5);
        assert_eq!(
            engine.memo_stats().extends,
            extends_after_g1,
            "the shared atom session served without any new Extend"
        );
    }

    #[test]
    fn warm_sessions_share_crossing_work_across_queries() {
        let engine = Engine::new();
        let g = Graph::cycle(8);
        // Different query kinds against one session: enumeration first...
        let _ = engine.run(&g, Query::enumerate()).count();
        let computed_once = engine.session(&g).stats().crossing_computed;
        assert!(computed_once > 0);
        // ...then best-k, which replays and computes nothing new.
        let _ = engine.run(&g, Query::best_k(2, CostMeasure::Width)).count();
        assert_eq!(engine.session(&g).stats().crossing_computed, computed_once);
    }

    #[test]
    fn ranked_and_decompose_queries_replay_without_extends() {
        // Best-k and decompose queries must be served from a
        // completed-answer replay — zero Extend calls, `is_replay()`
        // true — once some earlier query ran the enumeration to
        // completion: the drain deposits the session's answer list, and
        // the ranked gear's per-atom streams replay it lazily.
        let engine = Engine::new();
        let g = Graph::cycle(7);

        // Cold best-k query: the ranked gear stops after ~k pulls
        // (output-sensitive), so it runs live and deposits nothing.
        let mut cold = engine.run(&g, Query::best_k(3, CostMeasure::Fill));
        assert!(!cold.is_replay());
        assert_eq!(cold.triangulations().len(), 3);
        let cold_scanned = cold.outcome().scanned;
        assert!(
            cold_scanned < 42,
            "ranked best-k must not drain C7's 42 results (scanned {cold_scanned})"
        );

        // A full enumeration completes and deposits the answer list for
        // this session.
        assert_eq!(engine.run(&g, Query::enumerate()).count(), 42);
        let extends_after_drain = engine.session(&g).stats().extends;
        assert!(extends_after_drain > 0);

        // Warm best-k: replay, zero new Extends.
        let mut warm = engine.run(&g, Query::best_k(3, CostMeasure::Fill));
        assert!(warm.is_replay(), "ranked queries must replay warm sessions");
        let warm_winners = warm.triangulations();
        assert_eq!(warm_winners.len(), 3);
        assert!(warm.outcome().replayed);
        assert_eq!(engine.session(&g).stats().extends, extends_after_drain);

        // Ranked and exhaustive gears agree on the winners bit for bit.
        let mut exhaustive = engine.run(
            &g,
            Query::best_k(3, CostMeasure::Fill).policy(ExecPolicy::default().with_ranked(false)),
        );
        let fills = |ts: &[Triangulation]| ts.iter().map(|t| t.fill.clone()).collect::<Vec<_>>();
        assert_eq!(fills(&warm_winners), fills(&exhaustive.triangulations()));

        // Warm decompose: same replay, still zero new Extends.
        let warm_decompose = engine.run(&g, Query::decompose(TdEnumerationMode::OnePerClass));
        assert!(
            warm_decompose.is_replay(),
            "decompose queries must replay warm sessions"
        );
        assert_eq!(warm_decompose.count(), 42);
        assert_eq!(engine.session(&g).stats().extends, extends_after_drain);
    }

    #[test]
    fn telemetry_counts_sessions_replays_and_plans() {
        let engine = Engine::new();
        let g = Graph::cycle(6);
        let t = engine.telemetry();
        let _ = engine.run(&g, Query::enumerate()).count();
        assert_eq!(t.sessions_built.get(), 1);
        assert_eq!(t.replay_misses.get(), 1);
        assert_eq!(t.replay_hits.get(), 0);
        assert_eq!(t.plans_computed.get(), 1);
        let _ = engine.run(&g, Query::enumerate()).count();
        assert_eq!(t.sessions_built.get(), 1, "warm query builds nothing");
        assert_eq!(t.replay_hits.get(), 1);
        assert_eq!(t.plan_cache_hits.get(), 1);
        assert_eq!(t.session_build_us.count(), 1);
        assert_eq!(t.stream_wall_us.count(), 2, "one record per stream drop");
        engine.clear_sessions();
        assert_eq!(t.sessions_evicted.get(), 1);
        assert_eq!(t.sessions_live.get(), 0);
        engine.refresh_gauges();
        let text = engine.registry().render_prometheus();
        assert!(text.contains("mintri_engine_replay_hits_total 1"));
        assert!(text.contains("mintri_engine_sessions_built_total 1"));
    }

    #[test]
    fn traced_engine_run_reports_replay_dispatch() {
        let engine = Engine::new();
        let g = Graph::cycle(6);
        let _ = engine.run(&g, Query::enumerate()).count();
        let mut warm = engine.run(&g, Query::enumerate().traced(true));
        assert_eq!(warm.by_ref().count(), 14);
        let outcome = warm.outcome();
        let trace = outcome.trace.expect("traced query must attach a trace");
        let query = trace.find("query").expect("query span");
        assert_eq!(query.attr("dispatch"), Some("engine"));
        assert_eq!(query.attr("task"), Some("enumerate"));
        assert!(trace.find("plan").is_some());
        let atom = trace.find("atom").expect("atom span");
        assert_eq!(atom.attr("dispatch"), Some("replay"));
        assert_eq!(atom.attr("results"), Some("14"));
        let untraced = engine.run(&g, Query::enumerate());
        assert_eq!(untraced.count(), 14);
    }

    #[test]
    fn traced_ranked_best_k_reports_ranked_dispatch_and_counters() {
        let engine = Engine::new();
        let g = Graph::cycle(6);
        let t = engine.telemetry();
        let mut resp = engine.run(&g, Query::best_k(3, CostMeasure::Fill).traced(true));
        assert_eq!(resp.by_ref().count(), 3);
        let outcome = resp.outcome();
        let trace = outcome.trace.expect("traced query must attach a trace");
        let atom = trace.find("atom").expect("atom span");
        assert_eq!(atom.attr("dispatch"), Some("ranked"));
        assert_eq!(t.ranked_queries.get(), 1);
        assert!(
            t.ranked_expansions.get() >= 3,
            "ranked frontier must have pulled at least k results (got {})",
            t.ranked_expansions.get()
        );
        assert_eq!(
            t.ranked_first_result_us.count(),
            1,
            "one first-result delay record per ranked stream"
        );
        // The exhaustive escape hatch is not a ranked query.
        let _ = engine
            .run(
                &g,
                Query::best_k(3, CostMeasure::Fill)
                    .policy(ExecPolicy::default().with_ranked(false)),
            )
            .count();
        assert_eq!(t.ranked_queries.get(), 1);
    }

    /// One query's dispatch kinds, with the drained result count.
    fn dispatch_of(engine: &Engine, g: &Graph, q: Query) -> (usize, Vec<DispatchKind>) {
        let mut resp = engine.run(g, q);
        let n = resp.by_ref().count();
        let kinds = resp.outcome().dispatch.iter().map(|d| d.kind).collect();
        (n, kinds)
    }

    #[test]
    fn outcome_reports_per_atom_dispatch() {
        let engine = Engine::new();
        let g = Graph::cycle(6);
        let (n, cold) = dispatch_of(&engine, &g, Query::enumerate());
        assert_eq!(n, 14);
        assert_eq!(cold, vec![DispatchKind::Sequential]);
        let (_, warm) = dispatch_of(&engine, &g, Query::enumerate());
        assert_eq!(warm, vec![DispatchKind::Replay]);
        let mut ranked = engine.run(&g, Query::best_k(2, CostMeasure::Fill));
        assert_eq!(ranked.by_ref().count(), 2);
        assert_eq!(ranked.outcome().dispatch.len(), 1);
        assert_eq!(ranked.outcome().dispatch[0].kind, DispatchKind::Ranked);
    }

    #[test]
    fn a_completed_list_replays_under_either_print_mode() {
        // The schedule's queue is FIFO and a run completes only once it is
        // empty, so both print modes emit the same full sequence.
        let engine = Engine::new();
        let g = Graph::cycle(7);
        let drain = |mode: PrintMode| {
            let resp = engine.run(&g, Query::enumerate().mode(mode));
            let replayed = resp.is_replay();
            let order: Vec<_> = resp
                .filter_map(QueryItem::into_triangulation)
                .map(|t| t.graph.edges())
                .collect();
            (replayed, order)
        };
        let (cold, generated) = drain(PrintMode::UponGeneration);
        assert!(!cold);
        let extends = engine.session(&g).stats().extends;
        let (warm, popped) = drain(PrintMode::UponPop);
        assert!(
            warm,
            "an UponPop query must replay the UponGeneration drain"
        );
        assert_eq!(popped, generated);
        assert_eq!(engine.session(&g).stats().extends, extends);
        let reference: Vec<_> =
            MinimalTriangulationsEnumerator::with_config(&g, Box::new(McsM), PrintMode::UponPop)
                .map(|t| t.graph.edges())
                .collect();
        assert_eq!(popped, reference);
    }

    #[test]
    fn a_query_hydrates_either_stored_print_mode() {
        // Writes use one `StoredOrder` value, but a list stored under
        // either print mode's value must still hydrate.
        let g = Graph::cycle(7);
        let config = EngineConfig::default();
        let unplanned = ExecPolicy::default().with_planned(false);
        let order = |resp: Response<'_>| -> Vec<Vec<(u32, u32)>> {
            resp.filter_map(QueryItem::into_triangulation)
                .map(|t| t.graph.edges())
                .collect()
        };
        let recorder = Engine::with_config(config.clone());
        let reference = order(recorder.run(&g, Query::enumerate().policy(unplanned)));
        let session = recorder.session(&g);
        let answers = session.cached_answers().unwrap();
        for stored in [StoredOrder::UponGeneration, StoredOrder::UponPop] {
            let root = std::env::temp_dir().join(format!(
                "mintri-session-hydrate-{stored:?}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let store = Arc::new(Store::open(mintri_store::StoreConfig::at(&root)).unwrap());
            let mut snap = answer_snapshot(&session, &answers);
            snap.order = stored;
            store.put_answers(&snap, true);
            store.flush();
            for mode in [PrintMode::UponGeneration, PrintMode::UponPop] {
                let reader = Engine::with_store(config.clone(), Arc::clone(&store));
                let resp = reader.run(&g, Query::enumerate().mode(mode).policy(unplanned));
                assert!(resp.is_replay(), "{mode:?} query over a {stored:?} list");
                assert_eq!(order(resp), reference);
                assert_eq!(reader.memo_stats().extends, 0);
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn a_plan_with_zero_enumerated_atoms_dispatches_nothing() {
        // A chordal graph reduces to no non-trivial atoms.
        let engine = Engine::new();
        let g = Graph::cycle(3);
        let mut resp = engine.run(&g, Query::enumerate());
        assert_eq!(resp.by_ref().count(), 1);
        assert!(resp.outcome().dispatch.is_empty());
    }
}
