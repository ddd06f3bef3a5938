//! The one front door: a typed [`Query`] describing **what** to compute,
//! and a [`Response`] handle describing **how it went**.
//!
//! Every enumeration workload — streaming `MinTri(g)`, budgeted best-`k`
//! selection, proper tree decompositions, instrumented anytime runs — is
//! a [`Task`] inside one request type, and every execution path — the
//! zero-setup sequential iterator ([`Query::run_local`]), the engine's
//! warm sessions and completed-answer replay
//! (`mintri_engine::Engine::run`), and any future transport serializing
//! queries over the wire — answers with the same [`Response`]: a blocking
//! result stream plus [`Response::cancel`], [`Response::outcome`]
//! (budget, per-result quality, `EnumMIS` counters) and
//! [`Response::is_replay`].
//!
//! ```
//! use mintri_core::query::{CostMeasure, Query};
//! use mintri_core::EnumerationBudget;
//! use mintri_graph::Graph;
//!
//! let g = Graph::cycle(6);
//! // What to compute…
//! let query = Query::best_k(3, CostMeasure::Fill).budget(EnumerationBudget::unlimited());
//! // …and how it went.
//! let mut response = query.run_local(&g);
//! let best = response.triangulations();
//! assert_eq!(best.len(), 3);
//! let outcome = response.outcome();
//! assert!(outcome.completed);
//! // Best-k rides the ranked gear by default: output-sensitive, so only
//! // ~k of C6's Catalan(4) = 14 triangulations are ever materialized.
//! // `ExecPolicy::default().with_ranked(false)` restores the exhaustive
//! // scan (scanned = 14).
//! assert_eq!(outcome.scanned, 3);
//! ```
//!
//! Execution layers open one [`TriangulationStream`] per plan atom and
//! hand them to [`Plan::compose`]; all task logic (budgets, top-`k`
//! selection, decomposition expansion, quality records, cancellation)
//! lives here, in [`Response`], once.

/// The planning layer lives in [`crate::plan`]; re-exported here because
/// a [`Plan`] is part of the query vocabulary (every executor routes a
/// query through one).
pub use crate::plan::{AtomStream, Composed, ComposedStream, OpenedAtom, Plan, PlannedAtom};
use crate::ranked::TopK;
use crate::{
    EnumerationBudget, MinimalTriangulationsEnumerator, MsGraph, QualityStats, ResultRecord,
    TdEnumerationMode,
};
use mintri_chordal::CliqueForest;
use mintri_graph::Graph;
use mintri_sgr::{EnumMisStats, PrintMode};
use mintri_telemetry::{SpanHandle, TraceBuilder, TraceNode};
use mintri_treedecomp::{proper_decompositions_of_chordal, TreeDecomposition};
use mintri_triangulate::{McsM, Triangulation, Triangulator};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a [`Query`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Stream every minimal triangulation of the graph.
    Enumerate,
    /// Scan the enumeration (under the query budget) and keep the `k`
    /// best triangulations by `cost`, emitted in ascending cost order.
    BestK {
        /// How many results to keep.
        k: usize,
        /// The ranking measure.
        cost: CostMeasure,
    },
    /// Stream proper tree decompositions (Section 5 reduction), expanded
    /// from each minimal triangulation.
    Decompose {
        /// All decompositions, or one per bag-equivalence class.
        mode: TdEnumerationMode,
    },
    /// Drive the enumeration (under the query budget) and emit one
    /// [`ResultRecord`] per triangulation instead of the triangulations
    /// themselves — the instrumented "anytime" run of the paper's
    /// experimental study. The aggregates land in [`QueryOutcome`].
    Stats,
}

impl Task {
    /// The task's wire name (`"enumerate"` / `"best_k"` / `"decompose"`
    /// / `"stats"`) — the `type` tag of the JSON codec, also used as the
    /// `task` attribute on trace spans.
    pub fn name(&self) -> &'static str {
        match self {
            Task::Enumerate => "enumerate",
            Task::BestK { .. } => "best_k",
            Task::Decompose { .. } => "decompose",
            Task::Stats => "stats",
        }
    }
}

/// A built-in, serializable ranking measure for [`Task::BestK`].
///
/// (Arbitrary closures stay available through
/// [`best_k_of_stream`](crate::best_k_of_stream) over a streaming
/// response; a typed query keeps the measure wire-encodable.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostMeasure {
    /// Treewidth of the triangulation (max clique − 1). Smaller is better.
    #[default]
    Width,
    /// Number of fill edges. Smaller is better.
    Fill,
}

impl CostMeasure {
    /// Evaluates the measure on one triangulation.
    pub fn evaluate(&self, t: &Triangulation) -> usize {
        match self {
            CostMeasure::Width => t.width(),
            CostMeasure::Fill => t.fill_count(),
        }
    }

    /// The measure's conventional name (`"width"` / `"fill"`).
    pub fn name(&self) -> &'static str {
        match self {
            CostMeasure::Width => "width",
            CostMeasure::Fill => "fill",
        }
    }
}

/// **How** a query executes: two independent knobs for planning and
/// ranking.
///
/// A policy picks the route — through the planning layer or over the
/// whole graph, through the ranked gear or the exhaustive scan — and
/// never the answers. Every executor runs each per-atom stream as the
/// paper's sequential `EnumMIS` schedule, so one query under one policy
/// yields the same sequence on every executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Route through the planning layer (atom decomposition + product
    /// composition).
    pub planned: bool,
    /// Route [`Task::BestK`] through the ranked gear.
    pub ranked: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            planned: true,
            ranked: true,
        }
    }
}

impl ExecPolicy {
    /// The measure `task` is ranked by: [`Task::BestK`] rides the ranked
    /// gear unless this policy turns it off.
    pub fn ranked_measure(&self, task: Task) -> Option<CostMeasure> {
        match task {
            Task::BestK { cost, .. } if self.ranked => Some(cost),
            _ => None,
        }
    }

    /// Sets the planning knob.
    pub fn with_planned(self, planned: bool) -> Self {
        ExecPolicy { planned, ..self }
    }

    /// Sets the ranked knob.
    pub fn with_ranked(self, ranked: bool) -> Self {
        ExecPolicy { ranked, ..self }
    }
}

/// How one per-atom stream was actually served — the dispatch the
/// executor *chose*, reported per atom in [`QueryOutcome::dispatch`] so
/// untraced queries can see it too (previously only trace spans carried
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchKind {
    /// Served from a completed in-RAM answer list — zero `Extend` calls.
    Replay,
    /// Re-interned from a persistent-store snapshot, then replayed.
    Hydrate,
    /// Live run on the plain sequential iterator.
    Sequential,
    /// Live run feeding a ranked (ascending-cost) frontier.
    Ranked,
}

impl DispatchKind {
    /// The dispatch's conventional name — the same vocabulary the trace
    /// spans' `dispatch` attribute uses.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchKind::Replay => "replay",
            DispatchKind::Hydrate => "hydrate",
            DispatchKind::Sequential => "sequential",
            DispatchKind::Ranked => "ranked",
        }
    }
}

/// The per-atom dispatch record of one executed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomDispatch {
    /// The atom's index in the plan (also its cursor position); `0`
    /// for an unplanned whole-graph run.
    pub index: usize,
    /// Nodes in the atom's subgraph.
    pub nodes: usize,
    /// How the stream was served.
    pub kind: DispatchKind,
}

/// A cloneable cancellation handle shared between a [`Response`] and any
/// thread that wants to stop it mid-stream.
///
/// [`CancelToken::cancel`] flips a flag the response checks between
/// emissions; a token with a deadline ([`CancelToken::with_deadline`])
/// also reads as cancelled once the deadline has passed, so a timeout
/// needs no timer thread. A token can be attached to a query up front
/// ([`Query::cancel_token`]) so the controller never needs the
/// `Response` itself.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: the response ends its stream at the next
    /// emission boundary. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// This token, cancelled from `deadline` on as well. Clones made
    /// before the call keep only the flag.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// `true` once [`CancelToken::cancel`] has been called or the
    /// deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// One streamed result of a [`Response`]; which variant arrives is
/// determined by the query's [`Task`].
#[derive(Debug, Clone)]
pub enum QueryItem {
    /// A minimal triangulation ([`Task::Enumerate`], [`Task::BestK`]).
    Triangulation(Triangulation),
    /// A proper tree decomposition ([`Task::Decompose`]).
    Decomposition(TreeDecomposition),
    /// A per-result measurement ([`Task::Stats`]).
    Record(ResultRecord),
}

impl QueryItem {
    /// The triangulation, if this item is one.
    pub fn into_triangulation(self) -> Option<Triangulation> {
        match self {
            QueryItem::Triangulation(t) => Some(t),
            _ => None,
        }
    }

    /// The tree decomposition, if this item is one.
    pub fn into_decomposition(self) -> Option<TreeDecomposition> {
        match self {
            QueryItem::Decomposition(d) => Some(d),
            _ => None,
        }
    }

    /// The measurement record, if this item is one.
    pub fn as_record(&self) -> Option<ResultRecord> {
        match self {
            QueryItem::Record(r) => Some(*r),
            _ => None,
        }
    }
}

/// How a query's execution went: counts, per-result quality records,
/// termination cause and (when the executor replays the sequential
/// schedule) the `EnumMIS` counters.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// One record per triangulation scanned, in scan order — populated
    /// only by [`Task::Stats`], the instrumented scan. The other tasks
    /// stream without per-result instrumentation: no quality
    /// measurements are computed and nothing accumulates, so an
    /// exponential-size enumeration stays O(1) memory.
    pub records: Vec<ResultRecord>,
    /// Items emitted to the consumer.
    pub produced: usize,
    /// Triangulations pulled from the underlying enumeration.
    pub scanned: usize,
    /// `true` iff the enumeration genuinely finished — the scan covered
    /// all of `MinTri(g)` — rather than the budget tripping, the
    /// consumer stopping early, or a cancellation.
    pub completed: bool,
    /// `true` iff the stream ended because [`Response::cancel`] (or the
    /// query's [`CancelToken`]) fired.
    pub cancelled: bool,
    /// `true` iff the executor served a previously completed enumeration
    /// from cache, with zero `Extend` calls.
    pub replayed: bool,
    /// Wall-clock time from query start to the end of the stream (or to
    /// the snapshot, while streaming).
    pub elapsed: Duration,
    /// `EnumMIS` counters of the run — present when the executor ran the
    /// sequential schedule live; absent for cache replays.
    pub enum_stats: Option<EnumMisStats>,
    /// The dispatch the executor actually chose, one entry per atom
    /// stream (or one entry for an unplanned whole-graph run) — replay,
    /// hydrate, sequential or ranked.
    /// Present for every query, traced or not.
    pub dispatch: Vec<AtomDispatch>,
    /// The query's span tree — present only when the query was traced
    /// ([`Query::traced`]): plan decomposition, per-atom stream setup and
    /// dispatch, first-result delay and drain, with timings in
    /// microseconds. A snapshot; while the stream is still running, open
    /// spans show their duration so far.
    pub trace: Option<Arc<TraceNode>>,
}

impl QueryOutcome {
    /// Table 1 / Table 2 quality statistics over the scan records
    /// (`None` unless the task was [`Task::Stats`]).
    pub fn quality(&self) -> Option<QualityStats> {
        QualityStats::from_records(&self.records)
    }

    /// Mean delay between consecutive scanned results (records required,
    /// so [`Task::Stats`] only).
    pub fn average_delay(&self) -> Option<Duration> {
        if self.records.is_empty() {
            return None;
        }
        Some(self.elapsed / self.records.len() as u32)
    }

    /// The running minimum of a measure over the scan records:
    /// `(elapsed, value)` at every improvement, for Figure 10 (records
    /// required, so [`Task::Stats`] only).
    pub fn running_min(&self, measure: impl Fn(&ResultRecord) -> usize) -> Vec<(Duration, usize)> {
        let mut out = Vec::new();
        let mut best = usize::MAX;
        for r in &self.records {
            let v = measure(r);
            if v < best {
                best = v;
                out.push((r.at, v));
            }
        }
        out
    }
}

/// A stream of minimal triangulations an executor opens per plan atom
/// for [`Plan::compose`] (or hands to [`Response::over_stream`]) — the
/// single integration point between the query layer and any execution
/// backend (sequential iterator, warm engine sessions, replayed caches,
/// remote transports).
pub trait TriangulationStream {
    /// The next triangulation, or `None` once the enumeration is
    /// exhausted. A stream never stops early on its own: cancellation
    /// and budgets are checked by the [`Response`] before each pull.
    fn next_tri(&mut self) -> Option<Triangulation>;

    /// `EnumMIS` counters, when this stream runs the sequential schedule.
    fn enum_stats(&self) -> Option<EnumMisStats> {
        None
    }

    /// `true` when this stream replays a previously completed
    /// enumeration without recomputation.
    fn is_replay(&self) -> bool {
        false
    }
}

/// A [`TriangulationStream`] decorator that charges the wrapped stream's
/// work to a trace span: times the *first* pull (the stream's own
/// first-result delay), counts every result, and stamps both onto the
/// span (`first_result_us`, `results`) when the stream ends or is
/// dropped. The span stays open from stream setup to exhaustion, so its
/// duration is the full drain wall time.
///
/// [`Plan::compose`] wraps each per-atom stream in one of these when the
/// query is traced — untraced queries never construct one, so the hot
/// path pays nothing. Deliberately, only the first pull reads the
/// clock: per-item `Instant::now()` calls cost more than producing a
/// result on small atoms and would bust the tracing-overhead gate
/// (`telemetry_overhead`'s `overhead_pct <= 5`); every later pull is one counter bump.
pub struct TracedStream<'a> {
    inner: Box<dyn TriangulationStream + 'a>,
    span: SpanHandle,
    produced: u64,
    first_us: Option<u64>,
    closed: bool,
}

impl<'a> TracedStream<'a> {
    /// Wraps `inner`, charging its work to `span` (opened by the caller,
    /// typically an `atom` child of the query span).
    pub fn new(inner: Box<dyn TriangulationStream + 'a>, span: SpanHandle) -> Self {
        TracedStream {
            inner,
            span,
            produced: 0,
            first_us: None,
            closed: false,
        }
    }

    fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            self.span.attr("results", self.produced.to_string());
            if let Some(us) = self.first_us {
                self.span.attr("first_result_us", us.to_string());
            }
            self.span.finish();
        }
    }
}

impl TriangulationStream for TracedStream<'_> {
    fn next_tri(&mut self) -> Option<Triangulation> {
        let tri = if self.first_us.is_none() {
            let begin = Instant::now();
            let tri = self.inner.next_tri();
            self.first_us = Some(begin.elapsed().as_micros().min(u64::MAX as u128) as u64);
            tri
        } else {
            self.inner.next_tri()
        };
        match tri {
            Some(tri) => {
                self.produced += 1;
                Some(tri)
            }
            None => {
                self.close();
                None
            }
        }
    }

    fn enum_stats(&self) -> Option<EnumMisStats> {
        self.inner.enum_stats()
    }

    fn is_replay(&self) -> bool {
        self.inner.is_replay()
    }
}

impl Drop for TracedStream<'_> {
    fn drop(&mut self) {
        // Budget-truncated streams never see the final `None`; stamp the
        // attrs here so partial runs still trace.
        self.close();
    }
}

/// The sequential iterator is the stream [`Query::run_local`] opens per
/// atom.
impl TriangulationStream for MinimalTriangulationsEnumerator<'_> {
    fn next_tri(&mut self) -> Option<Triangulation> {
        self.next()
    }

    fn enum_stats(&self) -> Option<EnumMisStats> {
        Some(MinimalTriangulationsEnumerator::enum_stats(self))
    }
}

/// A typed request: **what** to compute ([`Task`]), over which
/// triangulation backend, under which budget and execution policy.
/// Build one with the task constructors
/// ([`Query::enumerate`], [`Query::best_k`], [`Query::decompose`],
/// [`Query::stats`]), refine it with the builder methods, then execute it
/// with [`Query::run_local`] (sequential, zero setup) or
/// `mintri_engine::Engine::run` (warm sessions, answer replay).
///
/// The fields are public on purpose: a query is plain data — the request
/// type a batch or HTTP transport serializes — and execution layers
/// destructure it.
pub struct Query {
    /// What to compute.
    pub task: Task,
    /// The triangulation backend `Extend` runs (default MCS-M).
    pub triangulator: Box<dyn Triangulator>,
    /// The printing discipline of the sequential schedule (default
    /// [`PrintMode::UponGeneration`]).
    pub mode: PrintMode,
    /// Stopping condition (default unlimited). For [`Task::BestK`] and
    /// [`Task::Stats`] the budget bounds the *scan*; for
    /// [`Task::Enumerate`] and [`Task::Decompose`] it bounds the emitted
    /// results.
    pub budget: EnumerationBudget,
    /// **How** to execute (default [`ExecPolicy::default`]): planning
    /// and ranking.
    pub policy: ExecPolicy,
    /// Collect a per-query span trace (default `false`): plan
    /// decomposition, per-atom stream setup, dispatch choice,
    /// first-result delay and drain, delivered as
    /// [`QueryOutcome::trace`]. Tracing costs two clock reads per pulled
    /// result plus one brief lock per span; untraced queries pay
    /// nothing.
    pub trace: bool,
    /// Cancellation handle; clone it before running to keep a controller.
    pub cancel: CancelToken,
}

impl Query {
    /// A query with the given task and all defaults.
    pub fn new(task: Task) -> Self {
        Query {
            task,
            triangulator: Box::new(McsM),
            mode: PrintMode::UponGeneration,
            budget: EnumerationBudget::unlimited(),
            policy: ExecPolicy::default(),
            trace: false,
            cancel: CancelToken::new(),
        }
    }

    /// Stream every minimal triangulation.
    pub fn enumerate() -> Self {
        Self::new(Task::Enumerate)
    }

    /// The `k` best triangulations under `cost`.
    pub fn best_k(k: usize, cost: CostMeasure) -> Self {
        Self::new(Task::BestK { k, cost })
    }

    /// Stream proper tree decompositions.
    pub fn decompose(mode: TdEnumerationMode) -> Self {
        Self::new(Task::Decompose { mode })
    }

    /// Instrumented anytime run: per-result records plus aggregates.
    pub fn stats() -> Self {
        Self::new(Task::Stats)
    }

    /// Sets the triangulation backend.
    pub fn triangulator(mut self, t: Box<dyn Triangulator>) -> Self {
        self.triangulator = t;
        self
    }

    /// Sets the print mode.
    pub fn mode(mut self, mode: PrintMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the budget.
    pub fn budget(mut self, budget: EnumerationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the execution policy (see [`Query::policy`]).
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables span tracing (see [`Query::trace`]).
    pub fn traced(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches an external cancellation token.
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Executes the query on the calling thread against a borrowed graph
    /// — the zero-setup path for scripts and tests. No warm state is
    /// kept; for repeated traffic, hand the query to
    /// `mintri_engine::Engine::run` instead.
    ///
    /// The graph is first decomposed into atoms ([`Plan::of`], or
    /// [`Plan::unreduced`] when the policy turns planning off); each
    /// atom runs its own sequential `EnumMIS` and [`Plan::compose`]
    /// recombines them. Output order is the plan's odometer order —
    /// deterministic, and identical to what an engine produces for the
    /// same query.
    pub fn run_local(self, g: &Graph) -> Response<'_> {
        let Query {
            task,
            triangulator,
            mode,
            budget,
            cancel,
            policy,
            trace,
        } = self;
        let tracer = trace.then(TraceBuilder::new);
        let query_span = tracer.as_ref().map(|t| {
            let span = t.root_span("query");
            span.attr("task", task.name());
            span.attr("dispatch", "local");
            span
        });
        let plan = Plan::for_query(policy.planned, g, query_span.as_ref(), || Plan::of(g));
        let shared: Arc<dyn Triangulator> = Arc::from(triangulator);
        let ranked = policy.ranked_measure(task);
        let composed = plan.compose(g, ranked, query_span.as_ref(), None, |_, atom| {
            let ms = MsGraph::shared(Arc::new(atom.graph.clone()), Box::new(Arc::clone(&shared)));
            OpenedAtom {
                stream: Box::new(MinimalTriangulationsEnumerator::from_msgraph(ms, mode)),
                kind: DispatchKind::Sequential,
            }
        });
        Response::over_composed(task, budget, cancel, composed, tracer.zip(query_span))
    }
}

impl std::fmt::Debug for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query")
            .field("task", &self.task)
            .field("triangulator", &self.triangulator.name())
            .field("mode", &self.mode)
            .field("budget", &self.budget)
            .field("policy", &self.policy)
            .field("trace", &self.trace)
            .field("cancel", &self.cancel)
            .finish()
    }
}

/// The unified answer handle: a blocking stream of [`QueryItem`]s (via
/// [`Iterator`]) plus [`Response::cancel`], [`Response::outcome`] and
/// [`Response::is_replay`].
///
/// Dropping a response drops the underlying execution. The budget and
/// the cancel token are honored between emissions.
pub struct Response<'a> {
    task: Task,
    budget: EnumerationBudget,
    cancel: CancelToken,
    source: Option<Box<dyn TriangulationStream + 'a>>,
    started: Instant,
    records: Vec<ResultRecord>,
    produced: usize,
    scanned: usize,
    completed: bool,
    cancelled: bool,
    replay: bool,
    /// The source emits in ascending cost order ([`Composed::ranked`]):
    /// [`Task::BestK`] streams the first `k` results directly instead of
    /// scanning everything.
    ranked: bool,
    enum_stats: Option<EnumMisStats>,
    /// The per-atom dispatch the executor chose ([`Composed::dispatch`]).
    dispatch: Vec<AtomDispatch>,
    done_at: Option<Duration>,
    /// Buffered emissions ([`Task::BestK`] results after the scan).
    pending: VecDeque<QueryItem>,
    /// The current triangulation's decomposition class
    /// ([`Task::Decompose`] with [`TdEnumerationMode::AllDecompositions`]).
    class: Option<Box<dyn Iterator<Item = TreeDecomposition>>>,
    /// The query's tracer, when tracing ([`Response::over_composed`]).
    trace: Option<TraceBuilder>,
    /// The root `query` span; finished by [`Response::end_stream`].
    query_span: Option<SpanHandle>,
    /// The `first_result` span: open from trace attachment until the
    /// first pull succeeds — its duration is the first-result delay.
    first_span: Option<SpanHandle>,
    /// The `drain` span: first successful pull → end of stream.
    drain_span: Option<SpanHandle>,
}

impl<'a> Response<'a> {
    /// Builds a response executing `task` over an arbitrary
    /// [`TriangulationStream`] — the constructor execution layers (the
    /// engine, future transports) use. All task logic runs here; the
    /// stream only produces triangulations.
    pub fn over_stream(
        task: Task,
        budget: EnumerationBudget,
        cancel: CancelToken,
        source: Box<dyn TriangulationStream + 'a>,
    ) -> Response<'a> {
        Response {
            task,
            budget,
            cancel,
            replay: source.is_replay(),
            source: Some(source),
            started: Instant::now(),
            records: Vec::new(),
            produced: 0,
            scanned: 0,
            completed: false,
            cancelled: false,
            ranked: false,
            enum_stats: None,
            dispatch: Vec::new(),
            done_at: None,
            pending: VecDeque::new(),
            class: None,
            trace: None,
            query_span: None,
            first_span: None,
            drain_span: None,
        }
    }

    /// The response over a plan's composed stream ([`Plan::compose`]) —
    /// the constructor both executors use. A ranked stream is contracted
    /// to emit in ascending cost order under the query's measure:
    /// [`Task::BestK`] then streams the first `k` results directly (the
    /// answer is exact after ~`k` pulls, [`QueryOutcome::completed`] is
    /// set once `k` winners are out, the budget bounds the emissions, and
    /// a cancel still yields the already-proven prefix). The dispatch
    /// record surfaces as [`QueryOutcome::dispatch`]. With a tracer and
    /// its root `query` span the response takes over the span lifecycle:
    /// a `first_result` child opens immediately (its duration is the
    /// delay to the first pulled result), a `drain` child covers first
    /// result → end of stream, and the query span is stamped with the
    /// final `produced`/`scanned` counts when the stream ends.
    pub fn over_composed(
        task: Task,
        budget: EnumerationBudget,
        cancel: CancelToken,
        composed: Composed<'a>,
        trace: Option<(TraceBuilder, SpanHandle)>,
    ) -> Response<'a> {
        let mut response = Response::over_stream(task, budget, cancel, composed.stream);
        response.ranked = composed.ranked;
        response.dispatch = composed.dispatch;
        if let Some((tracer, query_span)) = trace {
            response.first_span = Some(query_span.child("first_result"));
            response.trace = Some(tracer);
            response.query_span = Some(query_span);
        }
        response
    }

    /// `true` when this response replays a previously completed
    /// enumeration (zero `Extend` calls).
    pub fn is_replay(&self) -> bool {
        self.replay
    }

    /// Requests cancellation (equivalent to cancelling the query's
    /// [`CancelToken`]): the stream ends at the next emission boundary
    /// and [`QueryOutcome::cancelled`] is set.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A cloneable handle for cancelling from another thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// A snapshot of how the run went so far; final once the stream has
    /// ended. Cheap enough to call per item (clones the record list).
    pub fn outcome(&self) -> QueryOutcome {
        QueryOutcome {
            records: self.records.clone(),
            produced: self.produced,
            scanned: self.scanned,
            completed: self.completed,
            cancelled: self.cancelled,
            replayed: self.replay,
            elapsed: self.done_at.unwrap_or_else(|| self.started.elapsed()),
            enum_stats: self.enum_stats,
            dispatch: self.dispatch.clone(),
            trace: self.trace.as_ref().map(TraceBuilder::snapshot),
        }
    }

    /// Drains the stream and collects the triangulations (for
    /// [`Task::Enumerate`] / [`Task::BestK`]).
    pub fn triangulations(&mut self) -> Vec<Triangulation> {
        self.by_ref()
            .filter_map(QueryItem::into_triangulation)
            .collect()
    }

    /// Drains the stream and collects the tree decompositions (for
    /// [`Task::Decompose`]).
    pub fn decompositions(&mut self) -> Vec<TreeDecomposition> {
        self.by_ref()
            .filter_map(QueryItem::into_decomposition)
            .collect()
    }

    /// Drains the stream (discarding items) and returns the final
    /// outcome — the "just tell me how it went" call for [`Task::Stats`].
    pub fn wait(mut self) -> QueryOutcome {
        self.by_ref().for_each(drop);
        self.outcome()
    }

    /// Ends the stream: captures counters, drops the source and freezes
    /// the elapsed clock.
    fn end_stream(&mut self) {
        if let Some(source) = self.source.take() {
            if self.enum_stats.is_none() {
                self.enum_stats = source.enum_stats();
            }
            drop(source);
        }
        if !self.completed && self.cancel.is_cancelled() {
            self.cancelled = true;
        }
        if self.done_at.is_none() {
            self.done_at = Some(self.started.elapsed());
        }
        // Close any trace spans still open (a stream that ended before
        // its first result never opened `drain`; `first_result` then
        // covers the whole wait).
        if let Some(span) = self.first_span.take() {
            span.finish();
        }
        if let Some(span) = self.drain_span.take() {
            span.finish();
        }
        if let Some(span) = self.query_span.take() {
            span.attr("scanned", self.scanned.to_string());
            span.attr("produced", self.produced.to_string());
            span.attr("completed", self.completed.to_string());
            span.finish();
        }
    }

    /// Pulls one triangulation from the source. Checks cancellation, and
    /// the budget against `spent` (which count the budget limits differs
    /// by task). For [`Task::Stats`] — and only there, so plain streams
    /// stay O(1) memory and skip the width computation — a quality
    /// record is accumulated per pull. `None` ends the stream.
    fn pull(&mut self, spent: usize) -> Option<Triangulation> {
        let source = self.source.as_mut()?;
        if self.cancel.is_cancelled() || self.budget.exhausted(spent, self.started) {
            self.end_stream();
            return None;
        }
        match source.next_tri() {
            Some(tri) => {
                self.scanned += 1;
                if let Some(first) = self.first_span.take() {
                    first.finish();
                    self.drain_span = self.query_span.as_ref().map(|q| q.child("drain"));
                }
                if matches!(self.task, Task::Stats) {
                    self.records.push(ResultRecord {
                        index: self.records.len(),
                        at: self.started.elapsed(),
                        width: tri.width(),
                        fill: tri.fill_count(),
                    });
                }
                Some(tri)
            }
            None => {
                self.completed = !self.cancel.is_cancelled();
                self.end_stream();
                None
            }
        }
    }

    /// Runs the whole [`Task::BestK`] scan, buffering the winners.
    fn scan_best_k(&mut self, k: usize, cost: CostMeasure) {
        let mut top = TopK::new(k);
        let mut index = 0usize;
        while let Some(tri) = self.pull(index) {
            top.offer(cost.evaluate(&tri), index, tri);
            index += 1;
        }
        self.pending = top
            .into_vec()
            .into_iter()
            .map(QueryItem::Triangulation)
            .collect();
    }

    fn next_item(&mut self) -> Option<QueryItem> {
        if let Some(item) = self.pending.pop_front() {
            self.produced += 1;
            return Some(item);
        }
        match self.task {
            Task::Enumerate => {
                let tri = self.pull(self.produced)?;
                self.produced += 1;
                Some(QueryItem::Triangulation(tri))
            }
            Task::Stats => {
                let _ = self.pull(self.produced)?;
                self.produced += 1;
                Some(QueryItem::Record(
                    *self.records.last().expect("just recorded"),
                ))
            }
            Task::BestK { k, cost } => {
                if self.ranked {
                    // Ranked source: ascending cost order, so the first k
                    // emissions *are* the answer — no scan, no buffer.
                    if self.produced >= k {
                        if self.source.is_some() {
                            self.completed = true;
                            self.end_stream();
                        }
                        return None;
                    }
                    let tri = self.pull(self.produced)?;
                    self.produced += 1;
                    return Some(QueryItem::Triangulation(tri));
                }
                if self.source.is_some() {
                    self.scan_best_k(k, cost);
                }
                self.pending.pop_front().inspect(|_| self.produced += 1)
            }
            Task::Decompose { mode } => loop {
                if let Some(class) = &mut self.class {
                    match class.next() {
                        Some(d) => {
                            // The emitted-results budget also bounds
                            // mid-class emissions.
                            if self.cancel.is_cancelled()
                                || self.budget.exhausted(self.produced, self.started)
                            {
                                self.class = None;
                                self.end_stream();
                                return None;
                            }
                            self.produced += 1;
                            return Some(QueryItem::Decomposition(d));
                        }
                        None => self.class = None,
                    }
                }
                let tri = self.pull(self.produced)?;
                match mode {
                    TdEnumerationMode::OnePerClass => {
                        let forest = CliqueForest::build(&tri.graph);
                        self.produced += 1;
                        return Some(QueryItem::Decomposition(TreeDecomposition {
                            bags: forest.cliques,
                            edges: forest.edges,
                        }));
                    }
                    TdEnumerationMode::AllDecompositions => {
                        self.class = Some(Box::new(proper_decompositions_of_chordal(&tri.graph)));
                    }
                }
            },
        }
    }
}

impl Iterator for Response<'_> {
    type Item = QueryItem;

    fn next(&mut self) -> Option<QueryItem> {
        self.next_item()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProperTreeDecompositions;

    #[test]
    fn enumerate_matches_the_sequential_iterator() {
        let g = Graph::cycle(7);
        let via_query: Vec<_> = Query::enumerate()
            .run_local(&g)
            .triangulations()
            .iter()
            .map(|t| t.graph.edges())
            .collect();
        let direct: Vec<_> = MinimalTriangulationsEnumerator::new(&g)
            .map(|t| t.graph.edges())
            .collect();
        assert_eq!(via_query, direct, "run_local is the sequential order");
    }

    #[test]
    fn outcome_reports_completion_and_stats() {
        let g = Graph::cycle(6);
        let mut response = Query::enumerate().run_local(&g);
        let n = response.by_ref().count();
        assert_eq!(n, 14);
        let outcome = response.outcome();
        assert!(outcome.completed);
        assert!(!outcome.cancelled);
        assert!(!outcome.replayed);
        assert_eq!(outcome.produced, 14);
        assert_eq!(outcome.scanned, 14);
        assert!(
            outcome.records.is_empty(),
            "plain enumeration streams without per-result instrumentation"
        );
        let stats = outcome
            .enum_stats
            .expect("sequential run exposes EnumMIS stats");
        assert_eq!(stats.answers, 14);
    }

    #[test]
    fn budget_truncates_and_clears_completed() {
        let g = Graph::cycle(8);
        let outcome = Query::stats()
            .budget(EnumerationBudget::results(5))
            .run_local(&g)
            .wait();
        assert_eq!(outcome.records.len(), 5);
        assert!(!outcome.completed);
        assert!(!outcome.cancelled);
    }

    #[test]
    fn cancel_mid_stream_stops_and_flags() {
        let g = Graph::cycle(9);
        let mut response = Query::enumerate().run_local(&g);
        let token = response.cancel_token();
        assert!(response.next().is_some());
        token.cancel();
        assert!(response.next().is_none(), "cancellation ends the stream");
        let outcome = response.outcome();
        assert!(outcome.cancelled);
        assert!(!outcome.completed);
        assert_eq!(outcome.produced, 1);
    }

    #[test]
    fn best_k_matches_ranked_selection() {
        let g = Graph::cycle(7);
        let best = Query::best_k(3, CostMeasure::Fill)
            .run_local(&g)
            .triangulations();
        assert_eq!(best.len(), 3);
        assert!(best.iter().all(|t| t.fill_count() == 4));
        // ascending cost order
        for w in best.windows(2) {
            assert!(w[0].fill_count() <= w[1].fill_count());
        }
    }

    #[test]
    fn best_k_budget_bounds_the_scan() {
        let g = Graph::cycle(9);
        let mut response = Query::best_k(2, CostMeasure::Width)
            .policy(ExecPolicy::default().with_ranked(false))
            .budget(EnumerationBudget::results(5))
            .run_local(&g);
        let best = response.triangulations();
        assert_eq!(best.len(), 2);
        let outcome = response.outcome();
        assert_eq!(outcome.scanned, 5, "budget bounds the scan, not the output");
        assert!(!outcome.completed);
    }

    #[test]
    fn ranked_best_k_budget_bounds_the_emissions() {
        let g = Graph::cycle(9);
        // Ranked: every pull is a final result, so a results(2) budget on
        // a k=4 query yields exactly 2 winners and an incomplete outcome.
        let mut response = Query::best_k(4, CostMeasure::Width)
            .budget(EnumerationBudget::results(2))
            .run_local(&g);
        let best = response.triangulations();
        assert_eq!(best.len(), 2);
        let outcome = response.outcome();
        assert_eq!(outcome.scanned, 2, "ranked scan = emissions");
        assert!(!outcome.completed, "budget truncated the answer");
    }

    #[test]
    fn ranked_best_k_completes_after_k_winners() {
        let g = Graph::cycle(9);
        let mut response = Query::best_k(2, CostMeasure::Width).run_local(&g);
        let best = response.triangulations();
        assert_eq!(best.len(), 2);
        let outcome = response.outcome();
        assert!(outcome.completed, "k exact winners are a complete answer");
        assert_eq!(outcome.scanned, 2, "output-sensitive: ~k pulls, not 429");
    }

    #[test]
    fn ranked_best_k_cancel_yields_the_proven_prefix() {
        let g = Graph::cycle(9);
        let mut response = Query::best_k(5, CostMeasure::Fill).run_local(&g);
        let token = response.cancel_token();
        assert!(response.next().is_some(), "first winner");
        token.cancel();
        assert!(response.next().is_none(), "cancellation ends the stream");
        let outcome = response.outcome();
        assert!(outcome.cancelled);
        assert!(!outcome.completed);
        assert_eq!(outcome.produced, 1);
    }

    #[test]
    fn decompose_matches_proper_tree_decompositions() {
        let g = Graph::cycle(6);
        for (mode, reference) in [
            (
                TdEnumerationMode::AllDecompositions,
                ProperTreeDecompositions::new(&g).count(),
            ),
            (
                TdEnumerationMode::OnePerClass,
                ProperTreeDecompositions::one_per_class(&g).count(),
            ),
        ] {
            let mut response = Query::decompose(mode).run_local(&g);
            let ds = response.decompositions();
            assert_eq!(ds.len(), reference, "{mode:?}");
            assert!(response.outcome().completed);
            assert!(ds.iter().all(|d| d.is_proper(&g)));
        }
    }

    #[test]
    fn decompose_budget_bounds_emitted_decompositions() {
        let g = Graph::cycle(7);
        let mut response = Query::decompose(TdEnumerationMode::AllDecompositions)
            .budget(EnumerationBudget::results(3))
            .run_local(&g);
        assert_eq!(response.decompositions().len(), 3);
        assert!(!response.outcome().completed);
    }

    #[test]
    fn stats_task_emits_records_and_quality() {
        let g = Graph::cycle(6);
        let mut response = Query::stats().run_local(&g);
        let records: Vec<_> = response.by_ref().filter_map(|i| i.as_record()).collect();
        assert_eq!(records.len(), 14);
        let outcome = response.outcome();
        assert!(outcome.completed);
        let q = outcome.quality().unwrap();
        assert_eq!(q.num_results, 14);
        assert_eq!(q.min_width, 2);
    }

    #[test]
    fn zero_time_budget_yields_nothing() {
        let outcome = Query::stats()
            .budget(EnumerationBudget::time(Duration::ZERO))
            .run_local(&Graph::cycle(8))
            .wait();
        assert!(outcome.records.is_empty());
        assert!(!outcome.completed);
    }

    #[test]
    fn pre_cancelled_token_yields_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let g = Graph::cycle(6);
        let mut response = Query::enumerate().cancel_token(token).run_local(&g);
        assert!(response.next().is_none());
        assert!(response.outcome().cancelled);
    }

    #[test]
    fn a_passed_deadline_cancels_and_a_met_one_completes() {
        let g = Graph::cycle(6);
        let past = CancelToken::new().with_deadline(Instant::now());
        let outcome = Query::enumerate().cancel_token(past).run_local(&g).wait();
        assert!(outcome.cancelled && !outcome.completed);
        assert_eq!(outcome.produced, 0);
        let far = Instant::now() + Duration::from_secs(3600);
        let token = CancelToken::new().with_deadline(far);
        let outcome = Query::enumerate().cancel_token(token).run_local(&g).wait();
        assert!(outcome.completed && !outcome.cancelled);
        assert_eq!(outcome.produced, 14);
    }

    #[test]
    fn traced_query_attaches_a_span_tree() {
        let g = Graph::cycle(6);
        let mut response = Query::enumerate().traced(true).run_local(&g);
        assert_eq!(response.by_ref().count(), 14);
        let outcome = response.outcome();
        let trace = outcome.trace.expect("traced query carries a trace");
        let query = trace.find("query").expect("root query span");
        assert_eq!(query.attr("task"), Some("enumerate"));
        assert_eq!(query.attr("produced"), Some("14"));
        assert!(query.find("plan").is_some(), "plan span present");
        let atom = query.find("atom").expect("per-atom span");
        assert_eq!(atom.attr("results"), Some("14"));
        assert!(query.find("first_result").is_some());
        assert!(query.find("drain").is_some());
        // untraced queries carry nothing
        assert!(Query::enumerate().run_local(&g).wait().trace.is_none());
    }

    #[test]
    fn traced_planned_query_has_one_span_per_atom() {
        // Two C4s sharing the cut vertex 3: the plan splits them into
        // two non-chordal atoms of 2 triangulations each (product 4).
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 3),
            ],
        );
        let mut response = Query::enumerate().traced(true).run_local(&g);
        assert_eq!(response.by_ref().count(), 4);
        let trace = response.outcome().trace.unwrap();
        let query = trace.find("query").unwrap();
        let atoms: Vec<_> = query.children.iter().filter(|c| c.name == "atom").collect();
        assert_eq!(atoms.len(), 2, "one span per planned atom");
        assert!(atoms
            .iter()
            .all(|a| a.attr("dispatch") == Some("sequential")));
        assert_eq!(atoms[0].attr("index"), Some("0"));
        assert_eq!(atoms[1].attr("index"), Some("1"));
        assert!(
            atoms.iter().all(|a| a.attr("results") == Some("2")),
            "each atom enumerated exactly its own 2 triangulations"
        );
    }

    #[test]
    fn query_debug_names_the_backend() {
        let q = Query::enumerate();
        let dbg = format!("{q:?}");
        assert!(dbg.contains("Enumerate"));
        assert!(dbg.contains("MCS_M"), "{dbg}");
        assert!(dbg.contains("planned: true"), "default policy: {dbg}");
    }

    #[test]
    fn exec_policy_defaults_and_knobs() {
        let default = ExecPolicy::default();
        assert_eq!(
            default,
            ExecPolicy {
                planned: true,
                ranked: true,
            }
        );
        // Each builder sets its own knob and leaves the other.
        assert_eq!(
            default.with_planned(false),
            ExecPolicy {
                planned: false,
                ranked: true,
            }
        );
        assert_eq!(
            default.with_ranked(false),
            ExecPolicy {
                planned: true,
                ranked: false,
            }
        );
    }

    #[test]
    fn outcome_reports_actual_dispatch() {
        // Planned local run: one sequential entry per atom.
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 3),
            ],
        );
        let mut response = Query::enumerate().run_local(&g);
        assert_eq!(response.by_ref().count(), 4);
        let dispatch = response.outcome().dispatch;
        assert_eq!(dispatch.len(), 2, "one entry per planned atom");
        assert!(dispatch.iter().all(|d| d.kind == DispatchKind::Sequential));
        // Ranked best-k reports the ranked dispatch.
        let c6 = Graph::cycle(6);
        let mut ranked = Query::best_k(2, CostMeasure::Fill).run_local(&c6);
        let _ = ranked.by_ref().count();
        let dispatch = ranked.outcome().dispatch;
        assert_eq!(dispatch.len(), 1);
        assert_eq!(dispatch[0].kind, DispatchKind::Ranked);
        assert_eq!(dispatch[0].kind.name(), "ranked");
    }
}
