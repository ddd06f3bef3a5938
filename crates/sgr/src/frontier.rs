//! The `EnumMIS` schedule as a reusable state machine.
//!
//! [`Frontier`] owns every piece of bookkeeping Figure 1 of the paper
//! needs — the answers `Q ∪ P` (one [`AnswerIndex`]: `P` is its first
//! ids, `Q` the rest, since the queue is FIFO and ids follow absorb
//! order), the generated node list `V`, node-pulling when the queue runs
//! dry, revisiting processed answers in the direction of a newly pulled
//! node, and the `UponGeneration` / `UponPop` printing split of Section
//! 3.2.2. It advances in explicit batches:
//!
//! 1. [`Frontier::drain_pending`] moves the schedule to its next step and
//!    builds that step's `Jv = {v} ∪ {u ∈ J | ¬A_E(v, u)}` sets (all
//!    directions of one popped answer, or one fresh node against every
//!    processed answer) as an [`ExtendBatch`];
//! 2. [`Frontier::extend_inline`] checks each `Jv` of the batch **in
//!    batch order**, runs `Extend` on those that no answer in `Q ∪ P`
//!    contains, and absorbs each result as it lands, which is what keeps
//!    the emission order deterministic.
//!
//! **A `Jv` that an answer already contains is skipped.** Figure 1
//! extends every pair `(J, v)` with `v ∉ J`, but its completeness needs
//! only one fact about `Extend(Jv)`: at the end, some answer in `P`
//! contains `Jv`. An answer already in `Q ∪ P` that contains `Jv` is as
//! good as a fresh one. The argument, with Figure 1's lazy node pulls:
//!
//! * every pair meets the check once. A node pulled when `Q` runs dry is
//!   paired with every `J` in `P`, and every popped `J` with the current
//!   `V`; at the end `Q` is empty, `P` holds every answer found and `V`
//!   every node, so each pair `(J, v)` with `J ∈ P`, `v ∉ J` was built
//!   exactly once. Either it was extended, or an answer in `Q ∪ P`
//!   already contained `Jv`; both end up in `P`.
//! * so no maximal independent set `J*` is missing. If one were, take
//!   `J ∈ P` with the largest `|J ∩ J*|` (`P` is not empty: it holds
//!   `Extend(∅)`) and `v ∈ J* \ J` (one exists, as `J*` is maximal and
//!   `J ≠ J*`). Every `u ∈ J ∩ J*` is independent of `v`, so
//!   `Jv ⊇ (J ∩ J*) ∪ {v}`, and an answer in `P` containing `Jv` meets
//!   `J*` in more nodes than `J` does, which contradicts the choice
//!   of `J`.
//!
//! The check runs right before each `Extend`, so it also sees answers
//! absorbed earlier in the same batch. Every `Extend` that runs
//! therefore returns a **new** answer: its output contains `Jv`, and no
//! answer held does. No repeat-key set and no seen-set is needed;
//! `extend_calls` equals the answer count on a full drain. The bootstrap
//! `Extend(∅)` always runs, since the index starts empty.
//!
//! [`EnumMis`](crate::EnumMis) is the thin loop that drives these two
//! steps; every sequential stream of the workspace is one.

use crate::{AnswerIndex, Sgr};
use std::collections::VecDeque;

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
    /// Calls to the SGR `extend` operation actually made. Each one
    /// returned a new answer.
    pub extend_calls: usize,
    /// Pairs `(J, v)` with `v ∉ J` that were not extended, because an
    /// answer already in `Q ∪ P` contains their `Jv`. On a full drain
    /// `extend_calls + extend_repeats` is the `Extend` count of the
    /// literal Figure 1 loop.
    pub extend_repeats: usize,
    /// Calls to the SGR `edge` oracle, including those that built a
    /// skipped `Jv`.
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

/// One schedule step's `Extend` candidates: the `Jv` set of every pair
/// of the step with `v ∉ J`, each sorted, in absorb order, stored back
/// to back. [`Frontier::extend_inline`] extends those that no answer
/// contains by then.
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
    /// Number of `Jv` sets.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the step has no `Jv` to check.
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
    /// `Q ∪ P` in absorb order, with its containment index.
    answers: AnswerIndex<S::Node>,
    /// `|P|`: answers `0..popped` are processed, the rest queued.
    popped: usize,
    /// The stream's own workspace: builds every `Jv` and runs the
    /// batches evaluated on the calling thread.
    ws: EvalScratch<S>,
    /// The batch under construction; its buffers come back through
    /// [`Frontier::extend_inline`] for reuse.
    batch: ExtendBatch<S::Node>,
    /// Ids of the answers awaiting emission to the consumer.
    pending: VecDeque<u32>,
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
            answers: AnswerIndex::default(),
            popped: 0,
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
        let id = self.pending.pop_front()?;
        Some(self.answers.get(id as usize).to_vec())
    }

    /// Advances the schedule to its next step and returns the `Jv` sets
    /// of that step's pairs (lines 8–15 on a popped answer, lines 16–24
    /// on a freshly pulled node), minus the pairs with `v ∈ J`. An empty
    /// batch means the step produced emissions without extend work, or
    /// the schedule is complete — re-check [`Frontier::has_emissions`] /
    /// [`Frontier::is_complete`] and loop.
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
            batch.ends.push(0);
            return;
        }
        loop {
            if self.popped < self.answers.len() {
                // lines 8–15: process J in the direction of every known node
                let j = self.popped;
                self.popped += 1;
                if self.mode == PrintMode::UponPop {
                    self.pending.push_back(j as u32);
                    self.stats.answers += 1;
                }
                let nodes = std::mem::take(&mut self.nodes);
                for v in &nodes {
                    self.push_jv(batch, j, v);
                }
                self.nodes = nodes;
                if batch.is_empty() && self.pending.is_empty() {
                    continue; // nothing to extend toward; keep popping
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
                    for j in 0..self.popped {
                        self.push_jv(batch, j, &v);
                    }
                    self.nodes.push(v);
                    if batch.is_empty() {
                        continue; // nothing to extend; pull on
                    }
                    return;
                }
            }
        }
    }

    /// Appends the pair `(answer j, v)`'s `Jv` to `batch` unless `v ∈ J`.
    fn push_jv(&mut self, batch: &mut ExtendBatch<S::Node>, j: usize, v: &S::Node) {
        let answer = self.answers.get(j);
        if build_jv(&self.sgr, answer, v, &mut self.ws.sgr, &mut batch.nodes) {
            self.stats.edge_queries += answer.len();
            batch.ends.push(batch.nodes.len());
        }
    }

    /// Runs `Extend`, on the calling thread and through the frontier's
    /// own workspace, on every `Jv` of the last drained batch that no
    /// answer in `Q ∪ P` contains, checking and absorbing in batch
    /// order; the rest count as `extend_repeats`. Every result is a new
    /// answer (see the module docs).
    pub fn extend_inline(&mut self, batch: ExtendBatch<S::Node>) {
        assert_eq!(
            self.in_flight,
            batch.len(),
            "extend_inline must answer the drained batch"
        );
        for jv in batch.iter() {
            if self.answers.any_contains(jv) {
                self.stats.extend_repeats += 1;
                continue;
            }
            self.sgr.extend_with(jv, &mut self.ws.out, &mut self.ws.sgr);
            self.stats.extend_calls += 1;
            let out = &mut self.ws.out;
            debug_assert!(
                jv.iter().all(|u| out.contains(u)),
                "Extend must return a superset of its input"
            );
            out.sort_unstable();
            debug_assert!(
                !self.answers.any_contains(out),
                "an Extend of an uncontained Jv returns a new answer"
            );
            let id = self.answers.insert(out);
            if self.mode == PrintMode::UponGeneration {
                self.pending.push_back(id);
                self.stats.answers += 1;
            }
        }
        self.in_flight = 0;
        self.batch = batch;
    }
}
