//! The `EnumMIS` schedule as a reusable state machine.
//!
//! [`Frontier`] owns every piece of bookkeeping Figure 1 of the paper
//! needs — the queue `Q` of unprocessed answers, the processed list `P`,
//! the seen-set `Q ∪ P`, the generated node list `V`, node-pulling when
//! the queue runs dry, revisiting processed answers in the direction of a
//! newly pulled node, and the `UponGeneration` / `UponPop` printing split
//! of Section 3.2.2 — plus the set of `Jv` inputs already sent to
//! `Extend`. It advances in explicit batches:
//!
//! 1. [`Frontier::drain_pending`] moves the schedule to its next step,
//!    builds that step's `Jv = {v} ∪ {u ∈ J | ¬A_E(v, u)}` sets (all
//!    directions of one popped answer, or one fresh node against every
//!    processed answer) and returns the ones no earlier pair produced as
//!    an [`ExtendBatch`];
//! 2. [`Frontier::extend_inline`] runs `Extend` on each `Jv` of the
//!    batch and absorbs the results **in batch order**, which is what
//!    keeps the emission order the sequential algorithm's.
//!
//! **Repeated `Jv` sets are skipped.** Many pairs `(J, v)` produce the
//! same `Jv`, and `Extend` depends only on the set it is given (see
//! [`Sgr::extend`]), so a repeat can only rebuild an answer already in
//! the seen-set. The frontier keys every `Jv` on its *sorted* node list
//! in a [`JvKeys`] set and hands out only first occurrences, deciding in
//! `drain_pending` — that is, in absorb order, where the first `Extend`
//! of a key always precedes its repeats. Skipping therefore changes
//! neither the answers nor their order.
//!
//! [`EnumMis`](crate::EnumMis) is the thin loop that drives these two
//! steps; every sequential stream of the workspace is one.

use crate::{JvKeys, Sgr};
use mintri_graph::FxHashSet;
use std::collections::VecDeque;
use std::sync::Arc;

/// When answers become visible to the consumer; see the docs of
/// [`EnumMis`](crate::EnumMis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrintMode {
    /// Print as soon as an answer is generated (`EnumMIS`, lines 2/14/23).
    #[default]
    UponGeneration,
    /// Print when an answer is popped from the queue (`EnumMISHold`).
    UponPop,
}

/// Running counters, exposed for the benchmark harness and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumMisStats {
    /// Calls to the SGR `extend` operation actually made.
    pub extend_calls: usize,
    /// Pairs whose `Jv` repeated an earlier pair's and so were not
    /// extended. `extend_calls + extend_repeats` is the `Extend` count of
    /// the literal Figure 1 loop.
    pub extend_repeats: usize,
    /// Calls to the SGR `edge` oracle, including those that built a
    /// repeated `Jv`.
    pub edge_queries: usize,
    /// Nodes pulled from the SGR node iterator so far (`|V|`).
    pub nodes_generated: usize,
    /// Answers produced so far.
    pub answers: usize,
}

/// Counter-wise sum: how per-atom stats are totalled.
impl std::ops::AddAssign for EnumMisStats {
    fn add_assign(&mut self, other: Self) {
        self.extend_calls += other.extend_calls;
        self.extend_repeats += other.extend_repeats;
        self.edge_queries += other.edge_queries;
        self.nodes_generated += other.nodes_generated;
        self.answers += other.answers;
    }
}

/// Appends `Jv = {v} ∪ {u ∈ J | ¬A_E(v, u)}`, sorted, to `jv` for the
/// sorted answer `J`, through [`Sgr::build_jv`] (by default `|J|` edge
/// queries through `scratch`). Returns `false`, appending nothing and
/// querying nothing, when `v ∈ J`: the extension would reproduce `J`
/// itself, so lines 11/20 of Figure 1 skip it.
pub fn build_jv<S: Sgr>(
    sgr: &S,
    answer: &[S::Node],
    v: &S::Node,
    scratch: &mut S::Scratch,
    jv: &mut Vec<S::Node>,
) -> bool {
    sgr.build_jv(answer, v, scratch, jv)
}

/// One schedule step's `Extend` inputs: the distinct, never-before-seen
/// `Jv` sets, each sorted, in absorb order, stored back to back.
#[derive(Debug, Clone)]
pub struct ExtendBatch<N> {
    nodes: Vec<N>,
    /// `ends[i]`: one past input `i`'s last node.
    ends: Vec<usize>,
}

impl<N> Default for ExtendBatch<N> {
    fn default() -> Self {
        ExtendBatch {
            nodes: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<N> ExtendBatch<N> {
    /// Number of `Extend` inputs.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the step needs no `Extend` call.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th `Jv`, sorted.
    pub fn get(&self, i: usize) -> &[N] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.nodes[start..self.ends[i]]
    }

    /// Every `Jv` in absorb order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[N]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.ends.clear();
    }
}

/// Per-worker evaluation workspace: the SGR's own kernel scratch plus the
/// `Jv` and result buffers. One per engine worker or sequential stream,
/// never shared — with a warm workspace (and an SGR kernel behind it) a
/// steady-state `Jv` build plus `Extend` performs zero heap allocations.
pub struct EvalScratch<S: Sgr> {
    /// The SGR-specific kernel scratch, forwarded to
    /// [`Sgr::edge_with`] / [`Sgr::extend_with`].
    pub sgr: S::Scratch,
    /// `Jv` under construction (see [`build_jv`]).
    pub jv: Vec<S::Node>,
    /// The last extension produced through this workspace.
    pub out: Vec<S::Node>,
}

impl<S: Sgr> Default for EvalScratch<S> {
    fn default() -> Self {
        EvalScratch {
            sgr: S::Scratch::default(),
            jv: Vec::new(),
            out: Vec::new(),
        }
    }
}

/// The shared `EnumMIS` schedule (see the module docs). Drive it with:
///
/// ```text
/// while !frontier.has_emissions() && !frontier.is_complete() {
///     let batch = frontier.drain_pending();
///     frontier.extend_inline(batch);
/// }
/// frontier.pop_emission()
/// ```
pub struct Frontier<S: Sgr> {
    sgr: S,
    mode: PrintMode,
    cursor: S::NodeCursor,
    node_iter_done: bool,
    /// `V`: the SGR nodes generated so far.
    nodes: Vec<S::Node>,
    /// `Q`: answers generated but not yet processed.
    queue: VecDeque<Arc<Vec<S::Node>>>,
    /// `P`: processed answers.
    processed: Vec<Arc<Vec<S::Node>>>,
    /// Membership structure for `Q ∪ P` (answers ever created).
    seen: FxHashSet<Arc<Vec<S::Node>>>,
    /// Every `Jv` handed out so far, sorted.
    extended: JvKeys<S::Node>,
    /// The stream's own workspace: builds every `Jv` and runs the
    /// batches evaluated on the calling thread.
    ws: EvalScratch<S>,
    /// The batch under construction; its buffers come back through
    /// [`Frontier::extend_inline`] for reuse.
    batch: ExtendBatch<S::Node>,
    /// Answers awaiting emission to the consumer.
    pending: VecDeque<Vec<S::Node>>,
    /// Size of the last drained batch, awaiting `extend_inline`.
    in_flight: usize,
    started: bool,
    complete: bool,
    stats: EnumMisStats,
}

impl<S: Sgr> Frontier<S> {
    /// Starts a schedule over `sgr` in the given print mode.
    pub fn new(sgr: S, mode: PrintMode) -> Self {
        let cursor = sgr.start_nodes();
        Frontier {
            sgr,
            mode,
            cursor,
            node_iter_done: false,
            nodes: Vec::new(),
            queue: VecDeque::new(),
            processed: Vec::new(),
            seen: FxHashSet::default(),
            extended: JvKeys::default(),
            ws: EvalScratch::default(),
            batch: ExtendBatch::default(),
            pending: VecDeque::new(),
            in_flight: 0,
            started: false,
            complete: false,
            stats: EnumMisStats::default(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> EnumMisStats {
        self.stats
    }

    /// The wrapped SGR.
    pub fn sgr(&self) -> &S {
        &self.sgr
    }

    /// `true` once the schedule is exhausted: the queue is dry and the
    /// node iterator is done. Emissions may still be pending.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// `true` while answers await [`Frontier::pop_emission`].
    pub fn has_emissions(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Pops the next answer in emission order.
    pub fn pop_emission(&mut self) -> Option<Vec<S::Node>> {
        self.pending.pop_front()
    }

    /// Advances the schedule to its next step and returns that step's
    /// batch of independent `Extend` inputs (lines 8–15 on a popped
    /// answer, lines 16–24 on a freshly pulled node), minus the pairs
    /// with `v ∈ J` and the pairs whose `Jv` an earlier pair produced. An
    /// empty batch means the step produced emissions without extend work,
    /// or the schedule is complete — re-check [`Frontier::has_emissions`]
    /// / [`Frontier::is_complete`] and loop.
    ///
    /// Every returned batch must be answered by exactly one
    /// [`Frontier::extend_inline`] call before the next `drain_pending`.
    pub fn drain_pending(&mut self) -> ExtendBatch<S::Node> {
        assert_eq!(
            self.in_flight, 0,
            "drain_pending called with a batch still in flight; extend it first"
        );
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        self.fill(&mut batch);
        self.in_flight = batch.len();
        batch
    }

    fn fill(&mut self, batch: &mut ExtendBatch<S::Node>) {
        if self.complete {
            return;
        }
        if !self.started {
            // lines 1–3: bootstrap with Extend(∅)
            self.started = true;
            self.push_jv(batch, &[], None);
            return;
        }
        loop {
            if let Some(j) = self.queue.pop_front() {
                // lines 8–15: process J in the direction of every known node
                if self.mode == PrintMode::UponPop {
                    self.pending.push_back((*j).clone());
                    self.stats.answers += 1;
                }
                self.processed.push(Arc::clone(&j));
                let nodes = std::mem::take(&mut self.nodes);
                for v in &nodes {
                    self.push_jv(batch, &j, Some(v));
                }
                self.nodes = nodes;
                if batch.is_empty() && self.pending.is_empty() {
                    continue; // nothing new to extend toward; keep popping
                }
                return;
            }
            // lines 16–24: queue is dry — pull the next node
            if self.node_iter_done {
                self.complete = true;
                return;
            }
            match self.sgr.next_node(&mut self.cursor) {
                None => {
                    self.node_iter_done = true;
                    self.complete = true;
                    return;
                }
                Some(v) => {
                    self.stats.nodes_generated += 1;
                    let processed = std::mem::take(&mut self.processed);
                    for j in &processed {
                        self.push_jv(batch, j, Some(&v));
                    }
                    self.processed = processed;
                    self.nodes.push(v);
                    if batch.is_empty() {
                        continue; // nothing new to extend; pull on
                    }
                    return;
                }
            }
        }
    }

    /// Appends the pair `(J, v)`'s `Jv` to `batch` unless `v ∈ J` or an
    /// earlier pair — in this batch or a previous one — produced the same
    /// set. `None` is the bootstrap direction (`Jv = ∅`).
    fn push_jv(
        &mut self,
        batch: &mut ExtendBatch<S::Node>,
        answer: &[S::Node],
        v: Option<&S::Node>,
    ) {
        let start = batch.nodes.len();
        if let Some(v) = v {
            if !build_jv(&self.sgr, answer, v, &mut self.ws.sgr, &mut batch.nodes) {
                return;
            }
            self.stats.edge_queries += answer.len();
        }
        if self.extended.insert(&batch.nodes[start..]) {
            batch.ends.push(batch.nodes.len());
        } else {
            batch.nodes.truncate(start);
            self.stats.extend_repeats += 1;
        }
    }

    /// Runs `Extend` on every `Jv` of the last drained batch on the
    /// calling thread, through the frontier's own workspace, absorbing
    /// each result in batch order as it lands. Duplicate answers — the
    /// overwhelming majority in steady state — absorb without allocating.
    pub fn extend_inline(&mut self, batch: ExtendBatch<S::Node>) {
        assert_eq!(
            self.in_flight,
            batch.len(),
            "extend_inline must answer the drained batch"
        );
        for jv in batch.iter() {
            self.sgr.extend_with(jv, &mut self.ws.out, &mut self.ws.sgr);
            debug_assert!(
                jv.iter().all(|u| self.ws.out.contains(u)),
                "Extend must return a superset of its input"
            );
            let mut out = std::mem::take(&mut self.ws.out);
            self.absorb_one(&mut out);
            self.ws.out = out;
        }
        self.in_flight = 0;
        self.batch = batch;
    }

    /// Canonicalizes one `Extend` result in place and registers it if it
    /// is new; queues it and — in `UponGeneration` mode — emits it. Only
    /// a new answer is copied, at its exact size, so the caller's buffer
    /// stays reusable.
    fn absorb_one(&mut self, answer: &mut Vec<S::Node>) {
        self.stats.extend_calls += 1;
        answer.sort_unstable();
        if self.seen.contains(answer) {
            return;
        }
        let answer = Arc::new(answer.clone());
        self.seen.insert(Arc::clone(&answer));
        if self.mode == PrintMode::UponGeneration {
            self.pending.push_back((*answer).clone());
            self.stats.answers += 1;
        }
        self.queue.push_back(answer);
    }
}
