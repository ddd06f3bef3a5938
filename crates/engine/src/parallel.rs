//! The parallel `EnumMIS` frontier.
//!
//! `EnumMIS` (Figure 1 of the paper) is embarrassingly parallel at the
//! frontier: every queued answer `J` must be extended *in the direction
//! of* every generated SGR node `v`, and each `(J, v)` pair is an
//! independent unit of work against a shared, internally synchronized
//! [`MsGraph`]. [`ParallelEnumerator`] materializes exactly that pair set
//! under [`Delivery::Unordered`](crate::Delivery::Unordered): dedicated
//! worker threads drive the striped-deque [`Scheduler`] over
//! `(answer, node)` tasks. A finished task first builds its `Jv` and
//! claims it in a sharded key set, so each distinct `Jv` is extended once
//! (see [`Frontier`](mintri_sgr::Frontier)); a new answer is admitted
//! through a sharded seen-set, paired with every known node under a
//! registry lock (so each pair is created exactly once), and streamed to
//! the consumer over a bounded channel. Idle workers pull fresh
//! separators from the (mutex-guarded) Berry–Bordat–Cogis cursor. Answer
//! *order* varies run to run, the answer *set* never.
//!
//! [`Delivery::Deterministic`](crate::Delivery::Deterministic) has no
//! parallel path: its contract is the sequential schedule itself, which
//! the engine runs as [`EnumMis`](mintri_sgr::EnumMis) over the session's
//! warm `MsGraph`.
//!
//! Termination: an `active` counter tracks queued-or-running tasks. When
//! it hits zero and the separator cursor is exhausted, the closure is
//! complete — exactly the condition under which the sequential loop's
//! queue runs dry with no nodes left to pull.

use crate::sched::{Backoff, Idle, Scheduler};
use crate::EngineConfig;
use mintri_core::{MsGraph, MsGraphStats, SepId};
use mintri_graph::{FxHashSet, Graph};
use mintri_separators::MinSepState;
use mintri_sgr::{build_jv, EvalScratch, JvKeys, Sgr};
use mintri_telemetry::Gauge;
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

/// The per-worker evaluation workspace threaded through the shared
/// `MsGraph`'s scratch kernel.
type Workspace = EvalScratch<Arc<MsGraph<'static>>>;

/// One worker's share of a live-thread gauge: raised when created by the
/// spawning thread, lowered when dropped. Moved into the worker's
/// closure, it is dropped as the worker exits, before `join` returns.
struct LiveThread(Arc<Gauge>);

impl LiveThread {
    fn new(gauge: &Arc<Gauge>) -> Self {
        gauge.add(1);
        LiveThread(Arc::clone(gauge))
    }
}

impl Drop for LiveThread {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Streaming iterator over all minimal triangulations of a graph,
/// computed by work-stealing threads sharing one memoized [`MsGraph`],
/// in unordered delivery: the answer set equals the sequential
/// enumerator's, the order is a race.
///
/// Yields each minimal triangulation exactly once. Dropping the iterator
/// aborts the enumeration and joins the workers.
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
    shared: Arc<UnorderedShared>,
    rx: Receiver<(Vec<SepId>, Triangulation)>,
    handles: Vec<JoinHandle<()>>,
    complete: bool,
}

impl ParallelEnumerator {
    /// Enumeration of `g` over `threads` workers with the default
    /// (MCS-M) backend. Clones the graph once.
    pub fn new(g: &Graph, threads: usize) -> Self {
        Self::with_config(
            g,
            Box::new(McsM),
            &EngineConfig {
                threads,
                ..EngineConfig::default()
            },
        )
    }

    /// Full configuration over a borrowed graph (cloned once).
    pub fn with_config(
        g: &Graph,
        triangulator: Box<dyn Triangulator>,
        config: &EngineConfig,
    ) -> Self {
        Self::from_msgraph(
            Arc::new(MsGraph::shared(Arc::new(g.clone()), triangulator)),
            config,
        )
    }

    /// Runs over an existing (possibly already warm) shared [`MsGraph`] —
    /// the entry point the session layer uses so repeated queries reuse
    /// interned separators and their component labels. Spawns
    /// `config.resolved_threads()` workers, each counted in
    /// `config.threads_live` until it exits.
    pub fn from_msgraph(ms: Arc<MsGraph<'static>>, config: &EngineConfig) -> Self {
        let threads = config.resolved_threads();
        let (tx, rx) = std::sync::mpsc::sync_channel(config.channel_capacity.max(1));
        let shared = Arc::new(UnorderedShared {
            cursor: Mutex::new(Some(ms.start_nodes())),
            ms,
            sched: Scheduler::new(threads),
            seen: (0..SEEN_SHARDS)
                .map(|_| Mutex::new(FxHashSet::default()))
                .collect(),
            extended: (0..SEEN_SHARDS)
                .map(|_| Mutex::new(JvKeys::default()))
                .collect(),
            registry: RwLock::new(Registry::default()),
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
        ParallelEnumerator {
            shared,
            rx,
            handles,
            complete: false,
        }
    }

    /// The shared `MSGraph` driving this run.
    pub fn msgraph(&self) -> &Arc<MsGraph<'static>> {
        &self.shared.ms
    }

    /// Memo-table counters of the underlying `MSGraph`.
    pub fn msgraph_stats(&self) -> MsGraphStats {
        self.shared.ms.stats()
    }

    /// `true` once the stream ended because the enumeration genuinely
    /// finished (rather than the consumer stopping early).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// A thread-safe hook that aborts this run when called: the workers
    /// wind down, unblocking a consumer parked on the result channel. The
    /// stream then ends with [`ParallelEnumerator::is_complete`] still
    /// `false`. Used by the query layer's `CancelToken`; idempotent.
    pub fn abort_hook(&self) -> Box<dyn Fn() + Send + Sync + 'static> {
        let shared = Arc::clone(&self.shared);
        Box::new(move || shared.abort())
    }

    /// Next answer as interned separator ids plus its materialized
    /// triangulation (the session layer records the ids for replay).
    pub fn next_pair(&mut self) -> Option<(Vec<SepId>, Triangulation)> {
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

impl Iterator for ParallelEnumerator {
    type Item = Triangulation;

    fn next(&mut self) -> Option<Triangulation> {
        self.next_pair().map(|(_, tri)| tri)
    }
}

impl Drop for ParallelEnumerator {
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
        BACKOFF,
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

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_core::MinimalTriangulationsEnumerator;

    fn edges_of(stream: impl Iterator<Item = Triangulation>) -> Vec<Vec<(u32, u32)>> {
        stream.map(|t| t.graph.edges()).collect()
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
            );
            let _first = e.next().expect("at least one triangulation");
            drop(e);
        }
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
}
