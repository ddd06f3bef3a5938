//! The parallel `EnumMIS` frontier.
//!
//! `EnumMIS` (Figure 1 of the paper) is embarrassingly parallel at the
//! frontier: every queued answer `J` must be extended *in the direction
//! of* every generated SGR node `v`, and each `(J, v)` pair is an
//! independent unit of work against a shared, internally synchronized
//! [`MsGraph`]. The engine materializes exactly that pair set:
//!
//! * **Unordered delivery** — dedicated worker threads drive the shared
//!   striped-deque [`Scheduler`] over `(answer, node)` tasks. A finished
//!   task first builds its `Jv` and claims it in a sharded key set, so
//!   each distinct `Jv` is extended once (see
//!   [`Frontier`](mintri_sgr::Frontier)); a new answer is admitted
//!   through a sharded seen-set, paired
//!   with every known node under a registry lock (so each pair is
//!   created exactly once), and streamed to the consumer over a bounded
//!   channel. Idle workers pull fresh separators from the (mutex-guarded)
//!   Berry–Bordat–Cogis cursor. Fastest; answer *order* varies run to
//!   run, the answer *set* never.
//! * **Deterministic delivery** — drives the *same*
//!   [`Frontier`](mintri_sgr::Frontier) state machine as the sequential
//!   iterator, fanning each drained batch of independent `Extend` calls
//!   over a [`WorkPool`] and absorbing the results in batch order. The
//!   frontier builds every `Jv` and skips repeats before the fan-out, so
//!   both drivers skip exactly the same pairs.
//!   Because the schedule lives in one place and `Extend`/the edge
//!   oracle are pure functions of the input graph, the emitted stream is
//!   *identical* to [`mintri_core::MinimalTriangulationsEnumerator`]'s —
//!   the mode tests and golden files rely on this, and
//!   [`ParallelEnumerator::enum_stats`] exposes counter-level parity.
//!
//! Termination (Unordered): an `active` counter tracks queued-or-running
//! tasks. When it hits zero and the separator cursor is exhausted, the
//! closure is complete — exactly the condition under which the sequential
//! loop's queue runs dry with no nodes left to pull.

use crate::pool::{LiveThread, WorkPool};
use crate::sched::{Backoff, Idle, Scheduler};
use crate::{Delivery, EngineConfig};
use mintri_core::{MsGraph, MsGraphStats, SepId};
use mintri_graph::{FxHashSet, Graph};
use mintri_separators::MinSepState;
use mintri_sgr::{
    build_jv, EnumMisStats, EvalScratch, ExtendBatch, Frontier, JvKeys, PrintMode, Sgr,
};
use mintri_triangulate::{McsM, Triangulation, Triangulator};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Stripes of the concurrent seen-set (answer deduplication) and of the
/// concurrent `Jv` key set (repeat skipping).
const SEEN_SHARDS: usize = 16;

/// A unit of frontier work: extend `answers[0]` in the direction of
/// `nodes[1]`. `BOOTSTRAP` is the initial `Extend(∅)` call.
type Task = (u32, u32);
const BOOTSTRAP: Task = (u32::MAX, u32::MAX);

/// The per-worker evaluation workspace every driver threads through the
/// shared `MsGraph`'s scratch kernel.
type Workspace = EvalScratch<Arc<MsGraph<'static>>>;

/// One deterministic-driver pool job: extend a contiguous chunk of a
/// drained batch's `Jv` sets, yielding each result in batch order.
type ChunkJob = Box<dyn FnOnce() -> Vec<Vec<SepId>> + Send>;

/// Streaming iterator over all minimal triangulations of a graph,
/// computed by a pool of work-stealing threads sharing one memoized
/// [`MsGraph`].
///
/// Yields each minimal triangulation exactly once. Dropping the iterator
/// aborts the enumeration and joins the workers. See [`Delivery`] for the
/// ordering contract of the two modes.
///
/// ```
/// use mintri_engine::ParallelEnumerator;
/// use mintri_graph::Graph;
///
/// let g = Graph::cycle(6);
/// // C6 has Catalan(4) = 14 minimal triangulations
/// assert_eq!(ParallelEnumerator::new(&g, 4).count(), 14);
/// ```
pub struct ParallelEnumerator {
    ms: Arc<MsGraph<'static>>,
    inner: Inner,
}

enum Inner {
    Unordered(UnorderedStream),
    Deterministic(Box<DeterministicDriver>),
}

impl ParallelEnumerator {
    /// Unordered enumeration of `g` over `threads` workers with the
    /// default (MCS-M) backend. Clones the graph once.
    pub fn new(g: &Graph, threads: usize) -> Self {
        Self::with_config(
            g,
            Box::new(McsM),
            &EngineConfig {
                threads,
                ..EngineConfig::default()
            },
            PrintMode::UponGeneration,
        )
    }

    /// Full configuration over a borrowed graph (cloned once).
    /// `Deterministic` delivery honors `mode` exactly like the sequential
    /// enumerator (`UponPop` = `EnumMISHold` order); `Unordered` delivery
    /// ignores it — emission there is discovery order by construction.
    pub fn with_config(
        g: &Graph,
        triangulator: Box<dyn Triangulator>,
        config: &EngineConfig,
        mode: PrintMode,
    ) -> Self {
        Self::from_msgraph(
            Arc::new(MsGraph::shared(Arc::new(g.clone()), triangulator)),
            config,
            mode,
        )
    }

    /// Runs over an existing (possibly already warm) shared [`MsGraph`] —
    /// the entry point the session layer uses so repeated queries reuse
    /// interned separators and their component labels. `mode` as in
    /// [`ParallelEnumerator::with_config`].
    pub fn from_msgraph(ms: Arc<MsGraph<'static>>, config: &EngineConfig, mode: PrintMode) -> Self {
        let inner =
            match config.delivery {
                Delivery::Unordered => {
                    Inner::Unordered(UnorderedStream::launch(Arc::clone(&ms), config))
                }
                Delivery::Deterministic => Inner::Deterministic(Box::new(
                    DeterministicDriver::new(Arc::clone(&ms), config, mode),
                )),
            };
        ParallelEnumerator { ms, inner }
    }

    /// The shared `MSGraph` driving this run.
    pub fn msgraph(&self) -> &Arc<MsGraph<'static>> {
        &self.ms
    }

    /// Memo-table counters of the underlying `MSGraph`.
    pub fn msgraph_stats(&self) -> MsGraphStats {
        self.ms.stats()
    }

    /// `EnumMIS`-level counters of this run, for `Deterministic` delivery
    /// (which replays the sequential schedule and therefore matches the
    /// sequential iterator's counters exactly). `None` in `Unordered`
    /// mode, whose relaxed schedule has no sequential counterpart.
    pub fn enum_stats(&self) -> Option<EnumMisStats> {
        match &self.inner {
            Inner::Unordered(_) => None,
            Inner::Deterministic(d) => Some(d.frontier.stats()),
        }
    }

    /// `true` once the stream ended because the enumeration genuinely
    /// finished (rather than the consumer stopping early).
    pub fn is_complete(&self) -> bool {
        match &self.inner {
            Inner::Unordered(s) => s.complete,
            Inner::Deterministic(d) => d.frontier.is_complete(),
        }
    }

    /// A thread-safe hook that aborts this run when called: unordered
    /// workers wind down (unblocking a consumer parked on the result
    /// channel), the deterministic driver stops at the next batch
    /// boundary. The stream then ends with
    /// [`ParallelEnumerator::is_complete`] still `false`. Used by the
    /// query layer's `CancelToken`; idempotent.
    pub fn abort_hook(&self) -> Box<dyn Fn() + Send + Sync + 'static> {
        match &self.inner {
            Inner::Unordered(s) => {
                let shared = Arc::clone(&s.shared);
                Box::new(move || shared.abort())
            }
            Inner::Deterministic(d) => {
                let stop = Arc::clone(&d.stop);
                Box::new(move || stop.store(true, Ordering::SeqCst))
            }
        }
    }

    /// Next answer as interned separator ids plus its materialized
    /// triangulation (the session layer records the ids for replay).
    pub fn next_pair(&mut self) -> Option<(Vec<SepId>, Triangulation)> {
        match &mut self.inner {
            Inner::Unordered(s) => s.next_pair(),
            Inner::Deterministic(d) => {
                let answer = d.next_answer()?;
                let tri = self.ms.materialize(&answer);
                Some((answer, tri))
            }
        }
    }
}

impl Iterator for ParallelEnumerator {
    type Item = Triangulation;

    fn next(&mut self) -> Option<Triangulation> {
        self.next_pair().map(|(_, tri)| tri)
    }
}

// ---------------------------------------------------------------------------
// Unordered mode
// ---------------------------------------------------------------------------

/// Answers admitted so far plus the generated SGR nodes. Guarded by one
/// `RwLock`: reads are per-task and cheap, writes happen once per *new*
/// answer or node and atomically create that item's `(answer, node)`
/// pairs — the lock is what guarantees each pair exists exactly once.
#[derive(Default)]
struct Registry {
    answers: Vec<Arc<Vec<SepId>>>,
    nodes: Vec<SepId>,
}

struct UnorderedShared {
    ms: Arc<MsGraph<'static>>,
    sched: Scheduler<Task>,
    seen: Vec<Mutex<FxHashSet<Vec<SepId>>>>,
    /// Every `Jv` some task has claimed for `Extend`, striped like `seen`.
    extended: Vec<Mutex<JvKeys<SepId>>>,
    registry: RwLock<Registry>,
    /// The sequential separator source (`A_V`); `None` once exhausted.
    cursor: Mutex<Option<MinSepState>>,
    node_iter_done: AtomicBool,
    /// Tasks queued or running. 0 + exhausted cursor ⇒ enumeration done.
    active: AtomicUsize,
    /// Consumer went away (or an internal abort): wind down early.
    stop: AtomicBool,
    /// Set exactly once, when the full closure has been enumerated.
    finished: AtomicBool,
}

impl UnorderedShared {
    fn abort(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.sched.request_shutdown();
    }

    /// Deduplicates, registers and streams a freshly extended answer
    /// (left in the worker's result buffer), fanning out its
    /// `(answer, node)` tasks. Duplicate answers — the steady-state
    /// majority — are rejected without allocating.
    fn offer(&self, answer: &mut Vec<SepId>, tx: &SyncSender<(Vec<SepId>, Triangulation)>) {
        // Canonicalize like the frontier's offer does: dedup and the
        // binary_search in evaluate need sorted ids, and relying on
        // `extend`'s current sorted-output habit would couple the two
        // crates through an unchecked postcondition.
        answer.sort_unstable();
        let shard = mintri_core::memo::stripe_of(answer, SEEN_SHARDS);
        {
            let mut seen = self.seen[shard].lock().unwrap();
            if seen.contains(answer.as_slice()) {
                return;
            }
            seen.insert(answer.clone());
        }
        let tasks: Vec<Task> = {
            let mut reg = self.registry.write().unwrap();
            let a_idx = reg.answers.len() as u32;
            reg.answers.push(Arc::new(answer.clone()));
            (0..reg.nodes.len() as u32).map(|v| (a_idx, v)).collect()
        };
        self.active.fetch_add(tasks.len(), Ordering::SeqCst);
        self.sched.push_batch(tasks);
        if !self.stop.load(Ordering::SeqCst) {
            let tri = self.ms.materialize(answer);
            if tx.send((std::mem::take(answer), tri)).is_err() {
                // Receiver vanished without the usual drain-on-drop;
                // abort the run.
                self.abort();
            }
        }
    }

    fn run_task(
        &self,
        task: Task,
        tx: &SyncSender<(Vec<SepId>, Triangulation)>,
        ws: &mut Workspace,
    ) {
        // Task accounting must run even when stopping — and even if a
        // user-supplied Triangulator panics mid-Extend — or `active`
        // sticks above zero and the consumer hangs in recv() forever.
        let _token = TaskToken(self);
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        if task == BOOTSTRAP {
            self.ms.extend_with(&[], &mut ws.out, &mut ws.sgr);
            self.offer(&mut ws.out, tx);
        } else {
            let (j, v) = {
                let reg = self.registry.read().unwrap();
                (
                    Arc::clone(&reg.answers[task.0 as usize]),
                    reg.nodes[task.1 as usize],
                )
            };
            // The same `Jv` the sequential frontier builds (nothing when
            // `v ∈ J`), extended only by the first task to claim it — a
            // repeat's answer is already admitted or on its way. Runs
            // through the worker's own workspace, so a steady-state task
            // allocates only when its answer or its `Jv` is new.
            ws.jv.clear();
            if !build_jv(&self.ms, &j, &v, &mut ws.sgr, &mut ws.jv) {
                return;
            }
            let shard = mintri_core::memo::stripe_of(&ws.jv, SEEN_SHARDS);
            let claimed = self.extended[shard]
                .lock()
                .expect("a worker panicked holding a Jv key shard")
                .insert(&ws.jv);
            if !claimed {
                return;
            }
            self.ms.extend_with(&ws.jv, &mut ws.out, &mut ws.sgr);
            self.offer(&mut ws.out, tx);
        }
    }

    /// Pulls one separator from the cursor and pairs it with every known
    /// answer. Returns `false` when the cursor is exhausted (or being
    /// exhausted by someone else) and the caller should idle.
    fn try_pull_node(&self) -> bool {
        if self.node_iter_done.load(Ordering::SeqCst) {
            return false;
        }
        let mut cur = self.cursor.lock().unwrap();
        let Some(state) = cur.as_mut() else {
            return false;
        };
        match self.ms.next_node(state) {
            None => {
                *cur = None;
                self.node_iter_done.store(true, Ordering::SeqCst);
                drop(cur);
                if self.active.load(Ordering::SeqCst) == 0 {
                    self.finished.store(true, Ordering::SeqCst);
                    self.sched.request_shutdown();
                }
                true
            }
            Some(v) => {
                let tasks: Vec<Task> = {
                    let mut reg = self.registry.write().unwrap();
                    let v_idx = reg.nodes.len() as u32;
                    reg.nodes.push(v);
                    (0..reg.answers.len() as u32).map(|a| (a, v_idx)).collect()
                };
                // `active` must grow *before* the cursor lock is released:
                // a racing worker that exhausts the cursor right after us
                // checks `active` to declare completion, and must see
                // these tasks or they would be orphaned (lost answers).
                self.active.fetch_add(tasks.len(), Ordering::SeqCst);
                drop(cur);
                self.sched.push_batch(tasks);
                true
            }
        }
    }
}

/// Panic-safe task accounting: decrements `active` on drop and performs
/// the completion check. If the task unwound (a panicking user
/// triangulator), the run is marked aborted so the stream never claims
/// completeness over a partial answer set.
struct TaskToken<'a>(&'a UnorderedShared);

impl Drop for TaskToken<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        if std::thread::panicking() {
            shared.abort();
        }
        if shared.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            if shared.node_iter_done.load(Ordering::SeqCst) {
                shared.finished.store(true, Ordering::SeqCst);
                shared.sched.request_shutdown();
            } else {
                // Wake idlers to pull the next separator now that the
                // frontier has drained.
                shared.sched.wake_all();
            }
        }
    }
}

fn unordered_worker(
    shared: &UnorderedShared,
    own: usize,
    tx: SyncSender<(Vec<SepId>, Triangulation)>,
) {
    // The backoff timeout is the lost-wakeup net: the idle callback's
    // `try_pull_node` creates work through `push_batch` (which re-locks
    // the scheduler gate), so it cannot run inside the parked re-check —
    // see the sched module docs.
    const BACKOFF: Backoff = Backoff {
        min: Duration::from_micros(500),
        max: Duration::from_millis(50),
    };
    // Each worker owns one kernel workspace for its whole life — the
    // scratch buffers warm up over the first few tasks and are reused
    // for every extend/crossing call after that.
    let mut ws = Workspace::default();
    shared.sched.worker_loop(
        own,
        Some(BACKOFF),
        |task| shared.run_task(task, &tx, &mut ws),
        || {
            if shared.stop.load(Ordering::SeqCst) || shared.finished.load(Ordering::SeqCst) {
                Idle::Exit // dropping tx; the channel closes with the last worker
            } else if shared.try_pull_node() {
                Idle::Rescan
            } else {
                Idle::Park
            }
        },
    );
}

struct UnorderedStream {
    shared: Arc<UnorderedShared>,
    rx: Receiver<(Vec<SepId>, Triangulation)>,
    handles: Vec<JoinHandle<()>>,
    complete: bool,
}

impl UnorderedStream {
    fn launch(ms: Arc<MsGraph<'static>>, config: &EngineConfig) -> Self {
        let threads = config.resolved_threads();
        let (tx, rx) = std::sync::mpsc::sync_channel(config.channel_capacity.max(1));
        let shared = Arc::new(UnorderedShared {
            ms: Arc::clone(&ms),
            sched: Scheduler::new(threads),
            seen: (0..SEEN_SHARDS)
                .map(|_| Mutex::new(FxHashSet::default()))
                .collect(),
            extended: (0..SEEN_SHARDS)
                .map(|_| Mutex::new(JvKeys::default()))
                .collect(),
            registry: RwLock::new(Registry::default()),
            cursor: Mutex::new(Some(ms.start_nodes())),
            node_iter_done: AtomicBool::new(false),
            active: AtomicUsize::new(1), // the bootstrap task
            stop: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        });
        shared.sched.push(BOOTSTRAP);
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                let live = LiveThread::new(&config.threads_live);
                std::thread::Builder::new()
                    .name(format!("mintri-enum-{i}"))
                    .spawn(move || {
                        let _live = live;
                        unordered_worker(&shared, i, tx)
                    })
                    .expect("spawning enumeration worker")
            })
            .collect();
        drop(tx); // workers hold the only senders
        UnorderedStream {
            shared,
            rx,
            handles,
            complete: false,
        }
    }

    fn next_pair(&mut self) -> Option<(Vec<SepId>, Triangulation)> {
        match self.rx.recv() {
            Ok(pair) => Some(pair),
            Err(_) => {
                // All workers exited; completion vs abort is recorded in
                // the flags.
                self.complete = self.shared.finished.load(Ordering::SeqCst)
                    && !self.shared.stop.load(Ordering::SeqCst);
                None
            }
        }
    }
}

impl Drop for UnorderedStream {
    fn drop(&mut self) {
        self.shared.abort();
        // Keep receiving until every sender is gone: a one-shot
        // non-blocking drain would race with workers re-blocking on the
        // bounded channel, leaving them parked in send() while join()
        // waits forever. recv() both unblocks them and detects the final
        // disconnect.
        while self.rx.recv().is_ok() {}
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic mode
// ---------------------------------------------------------------------------

/// Lock-step driver over the *shared* [`Frontier`] state machine: drain
/// the schedule's next batch of independent `Extend` calls, fan it over a
/// [`WorkPool`], absorb the results in batch order. There is no mirrored
/// queue/processed/seen state here — the frontier is the single source of
/// truth for the paper's schedule, which is what makes the emitted stream
/// identical to the sequential enumerator's in both print modes.
/// Pull-driven — no channel; work happens inside `next_answer`, on a
/// [`WorkPool`] each driver builds for itself and joins on drop.
struct DeterministicDriver {
    frontier: Frontier<Arc<MsGraph<'static>>>,
    pool: WorkPool,
    /// Worker count, mirrored from the config: batches are split into
    /// this many contiguous chunks so each steal amortizes its boxing
    /// and scratch checkout over many pairs.
    threads: usize,
    /// Pool of warm kernel workspaces, checked out per chunk job and
    /// returned afterwards: [`WorkPool`] jobs are plain `FnOnce` boxes
    /// with no worker-local state, so the workspaces travel with the
    /// jobs. Batches run inline use the frontier's own workspace.
    scratches: Arc<Mutex<Vec<Workspace>>>,
    /// External abort (the query layer's cancellation): checked between
    /// batches, so a cancel takes effect at the next emission boundary.
    stop: Arc<AtomicBool>,
}

impl DeterministicDriver {
    fn new(ms: Arc<MsGraph<'static>>, config: &EngineConfig, mode: PrintMode) -> Self {
        DeterministicDriver {
            frontier: Frontier::new(ms, mode),
            pool: WorkPool::with_live_gauge(config.resolved_threads(), &config.threads_live),
            threads: config.resolved_threads(),
            scratches: Arc::new(Mutex::new(Vec::new())),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Extends one drained batch and absorbs its results in batch
    /// order. Small batches (or a single-thread pool) run inline through
    /// the frontier's own workspace; larger ones are split into
    /// ≈`threads` contiguous, order-preserving chunks so each pool job
    /// extends many `Jv` sets against one checked-out workspace.
    fn evaluate_batch(&mut self, batch: ExtendBatch<SepId>) {
        if batch.len() < 2 || self.threads < 2 {
            self.frontier.extend_inline(batch);
            return;
        }
        let batch = Arc::new(batch);
        let chunk_len = batch.len().div_ceil(self.threads).max(1);
        let jobs: Vec<ChunkJob> = (0..batch.len())
            .step_by(chunk_len)
            .map(|start| {
                let chunk = start..(start + chunk_len).min(batch.len());
                let batch = Arc::clone(&batch);
                let ms = Arc::clone(self.frontier.sgr());
                let scratches = Arc::clone(&self.scratches);
                Box::new(move || {
                    let mut ws = scratches.lock().unwrap().pop().unwrap_or_default();
                    let results = chunk
                        .map(|i| {
                            ms.extend_with(batch.get(i), &mut ws.out, &mut ws.sgr);
                            ws.out.clone()
                        })
                        .collect();
                    scratches.lock().unwrap().push(ws);
                    results
                }) as ChunkJob
            })
            .collect();
        let results: Vec<Vec<SepId>> = self.pool.run_batch(jobs).into_iter().flatten().collect();
        self.frontier.absorb(results);
    }

    fn next_answer(&mut self) -> Option<Vec<SepId>> {
        while !self.frontier.has_emissions() && !self.frontier.is_complete() {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            let batch = self.frontier.drain_pending();
            self.evaluate_batch(batch);
        }
        self.frontier.pop_emission()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_core::MinimalTriangulationsEnumerator;

    fn edges_of(stream: impl Iterator<Item = Triangulation>) -> Vec<Vec<(u32, u32)>> {
        stream.map(|t| t.graph.edges()).collect()
    }

    #[test]
    fn deterministic_mode_matches_sequential_order_exactly() {
        for g in [
            Graph::cycle(7),
            Graph::path(6),
            Graph::complete(4),
            Graph::from_edges(
                7,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 0),
                    (2, 4),
                    (4, 5),
                    (5, 6),
                    (6, 2),
                ],
            ),
        ] {
            let sequential = edges_of(MinimalTriangulationsEnumerator::new(&g));
            let parallel = edges_of(ParallelEnumerator::with_config(
                &g,
                Box::new(McsM),
                &EngineConfig {
                    threads: 4,
                    delivery: Delivery::Deterministic,
                    ..EngineConfig::default()
                },
                PrintMode::UponGeneration,
            ));
            assert_eq!(sequential, parallel, "order must match on {g:?}");
        }
    }

    #[test]
    fn unordered_mode_yields_the_same_set() {
        let g = Graph::cycle(8);
        let mut sequential = edges_of(MinimalTriangulationsEnumerator::new(&g));
        sequential.sort();
        for threads in [1, 2, 4] {
            let mut parallel = edges_of(ParallelEnumerator::new(&g, threads));
            parallel.sort();
            assert_eq!(sequential, parallel, "set must match at {threads} threads");
        }
    }

    #[test]
    fn unordered_mode_reports_completion() {
        let g = Graph::cycle(6);
        let mut e = ParallelEnumerator::new(&g, 2);
        let mut n = 0;
        while e.next_pair().is_some() {
            n += 1;
        }
        assert_eq!(n, 14);
        assert!(e.is_complete());
    }

    #[test]
    fn early_drop_joins_workers_cleanly() {
        let g = Graph::cycle(9);
        let mut e = ParallelEnumerator::new(&g, 4);
        let _first = e.next().expect("at least one triangulation");
        drop(e); // must not hang
    }

    #[test]
    fn early_drop_with_tiny_channel_and_many_workers_does_not_deadlock() {
        // Regression: a one-shot drain in Drop raced with workers
        // re-blocking on the full bounded channel, deadlocking join().
        let g = Graph::cycle(10);
        for _ in 0..10 {
            let mut e = ParallelEnumerator::with_config(
                &g,
                Box::new(McsM),
                &EngineConfig {
                    threads: 8,
                    channel_capacity: 1,
                    ..EngineConfig::default()
                },
                PrintMode::UponGeneration,
            );
            let _first = e.next().expect("at least one triangulation");
            drop(e);
        }
    }

    #[test]
    fn deterministic_mode_honors_upon_pop() {
        let g = Graph::cycle(7);
        let sequential = edges_of(MinimalTriangulationsEnumerator::with_config(
            &g,
            Box::new(McsM),
            PrintMode::UponPop,
        ));
        let parallel = edges_of(ParallelEnumerator::with_config(
            &g,
            Box::new(McsM),
            &EngineConfig {
                threads: 3,
                delivery: Delivery::Deterministic,
                ..EngineConfig::default()
            },
            PrintMode::UponPop,
        ));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn results_are_not_duplicated_under_contention() {
        let g = Graph::cycle(8);
        for _ in 0..5 {
            let all: Vec<_> = ParallelEnumerator::new(&g, 8)
                .map(|t| {
                    let mut e = t.graph.edges();
                    e.sort();
                    e
                })
                .collect();
            let mut dedup = all.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(all.len(), dedup.len(), "duplicate answer emitted");
        }
    }

    #[test]
    fn deterministic_stats_match_the_sequential_iterator() {
        let g = Graph::cycle(7);
        let mut seq = MinimalTriangulationsEnumerator::new(&g);
        let n_seq = seq.by_ref().count();
        let mut par = ParallelEnumerator::with_config(
            &g,
            Box::new(McsM),
            &EngineConfig {
                threads: 4,
                delivery: Delivery::Deterministic,
                ..EngineConfig::default()
            },
            PrintMode::UponGeneration,
        );
        let n_par = par.by_ref().count();
        assert_eq!(n_seq, n_par);
        assert_eq!(seq.enum_stats(), par.enum_stats().unwrap());
    }
}
