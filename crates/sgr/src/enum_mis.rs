//! `EnumMIS` (Figure 1 of the paper): enumerating the maximal independent
//! sets of a tractably accessible SGR with tractable expansion, in
//! incremental polynomial time.
//!
//! The algorithm traverses the solution graph depth-first-ish: every
//! produced answer `J` is later *extended in the direction of* every
//! generated SGR node `v` (build `Jv = {v} ∪ {u ∈ J | ¬A_E(v, u)}`, expand
//! with `Extend`). The twist relative to the classical Lawler / Cohen et
//! al. scheme is that the node set `V` is *not* known upfront: new nodes
//! are pulled from the `A_V` iterator only when the queue of unprocessed
//! answers runs dry, and then all previously processed answers are
//! revisited in the direction of the new node (lines 16–24).
//!
//! Both printing disciplines of Section 3.2.2 are available:
//! [`PrintMode::UponGeneration`] (the `EnumMIS` of Figure 1, results appear
//! as soon as created) and [`PrintMode::UponPop`] (`EnumMISHold`, results
//! appear when extracted from the queue — the variant whose incremental
//! polynomial time bound is proved directly, Lemma 3.3). Both emit exactly
//! the same answer set (Lemma 3.2 + Theorem 3.4), which the tests verify.
//!
//! [`EnumMis`] owns all of Figure 1's bookkeeping: the answers `Q ∪ P`
//! (one [`AnswerIndex`]: `P` is its first ids, `Q` the rest, since the
//! queue is FIFO and ids follow absorb order), the generated node list
//! `V`, node-pulling when the queue runs dry, and the print-mode split.
//! Each step — the bootstrap `Extend(∅)`, one popped answer against
//! every known node, or one fresh node against every processed answer —
//! visits its pairs `(J, v)` in order: it builds `Jv`, asks the index
//! whether an answer contains it, and either counts a repeat or runs
//! `Extend` and absorbs the result, before the next pair.
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
//! absorbed earlier in the same step. Every `Extend` that runs
//! therefore returns a **new** answer: its output contains `Jv`, and no
//! answer held does. No repeat-key set and no seen-set is needed;
//! `extend_calls` equals the answer count on a full drain. The bootstrap
//! `Extend(∅)` always runs, since the index starts empty.

use crate::{AnswerIndex, Sgr};
use std::collections::VecDeque;

/// When answers become visible to the consumer; see the module docs.
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

/// Iterator over all maximal independent sets of an SGR.
///
/// Answers are sorted `Vec<S::Node>`s; each maximal independent set is
/// yielded exactly once. Dropping the iterator abandons the enumeration —
/// it is an *anytime* algorithm. [`EnumMis::into_answers`] hands over the
/// whole list once the stream is complete.
///
/// `EnumMis` owns its SGR; pass `&S` (the blanket `Sgr for &S` impl) to
/// borrow one instead.
pub struct EnumMis<S: Sgr> {
    sgr: S,
    mode: PrintMode,
    cursor: S::NodeCursor,
    /// `V`: the SGR nodes generated so far.
    nodes: Vec<S::Node>,
    /// `Q ∪ P` in absorb order, with its containment index.
    answers: AnswerIndex<S::Node>,
    /// `|P|`: answers `0..popped` are processed, the rest queued.
    popped: usize,
    /// The SGR's kernel scratch, forwarded to every `Jv` build and
    /// `Extend`; with it (and an SGR kernel behind it) a steady-state
    /// pair allocates nothing.
    scratch: S::Scratch,
    /// The `Jv` of the pair being visited.
    jv: Vec<S::Node>,
    /// The last `Extend` result.
    out: Vec<S::Node>,
    /// Ids of the answers awaiting emission to the consumer.
    pending: VecDeque<u32>,
    started: bool,
    /// The queue is dry and the node iterator is done.
    complete: bool,
    stats: EnumMisStats,
}

impl<S: Sgr> EnumMis<S> {
    /// Starts an enumeration in the given print mode.
    pub fn new(sgr: S, mode: PrintMode) -> Self {
        let cursor = sgr.start_nodes();
        EnumMis {
            sgr,
            mode,
            cursor,
            nodes: Vec::new(),
            answers: AnswerIndex::default(),
            popped: 0,
            scratch: S::Scratch::default(),
            jv: Vec::new(),
            out: Vec::new(),
            pending: VecDeque::new(),
            started: false,
            complete: false,
            stats: EnumMisStats::default(),
        }
    }

    /// Starts an enumeration in the default (`UponGeneration`) mode.
    pub fn upon_generation(sgr: S) -> Self {
        Self::new(sgr, PrintMode::UponGeneration)
    }

    /// Current counters.
    pub fn stats(&self) -> EnumMisStats {
        self.stats
    }

    /// The wrapped SGR.
    pub fn sgr(&self) -> &S {
        &self.sgr
    }

    /// Every answer of a complete stream, with ids in emission order:
    /// both print modes emit in insertion order, since the queue is
    /// FIFO. `None` while the stream has answers left to find or to emit.
    pub fn into_answers(self) -> Option<AnswerIndex<S::Node>> {
        (self.complete && self.pending.is_empty()).then_some(self.answers)
    }

    /// Runs the schedule's next step: the bootstrap (lines 1–3), one
    /// popped answer toward every known node (lines 8–15), or, once the
    /// queue is dry, one freshly pulled node against every processed
    /// answer (lines 16–24).
    fn step(&mut self) {
        if !self.started {
            // `Extend(∅)`: `jv` starts empty.
            self.started = true;
            self.extend_jv();
        } else if self.popped < self.answers.len() {
            let j = self.popped;
            self.popped += 1;
            if self.mode == PrintMode::UponPop {
                self.emit(j as u32);
            }
            for v in 0..self.nodes.len() {
                self.visit(j, v);
            }
        } else if let Some(v) = self.sgr.next_node(&mut self.cursor) {
            self.stats.nodes_generated += 1;
            self.nodes.push(v);
            let v = self.nodes.len() - 1;
            for j in 0..self.popped {
                self.visit(j, v);
            }
        } else {
            self.complete = true;
        }
    }

    /// The pair of answer `j` and node `v`: nothing when `v ∈ J` (the
    /// extension would reproduce `J`, so lines 11/20 skip it), else
    /// builds `Jv` and extends it unless an answer contains it.
    fn visit(&mut self, j: usize, v: usize) {
        let answer = self.answers.get(j);
        self.jv.clear();
        if self
            .sgr
            .build_jv(answer, &self.nodes[v], &mut self.scratch, &mut self.jv)
        {
            self.stats.edge_queries += answer.len();
            self.extend_jv();
        }
    }

    /// Runs `Extend(Jv)` and absorbs the result, unless an answer in
    /// `Q ∪ P` already contains `Jv`, which counts as a repeat. Every
    /// result is a new answer (see the module docs).
    fn extend_jv(&mut self) {
        if self.answers.any_contains(&self.jv) {
            self.stats.extend_repeats += 1;
            return;
        }
        self.sgr
            .extend_with(&self.jv, &mut self.out, &mut self.scratch);
        self.stats.extend_calls += 1;
        let out = &mut self.out;
        debug_assert!(
            self.jv.iter().all(|u| out.contains(u)),
            "Extend must return a superset of its input"
        );
        out.sort_unstable();
        debug_assert!(
            !self.answers.any_contains(out),
            "an Extend of an uncontained Jv returns a new answer"
        );
        let id = self.answers.insert(out);
        if self.mode == PrintMode::UponGeneration {
            self.emit(id);
        }
    }

    fn emit(&mut self, id: u32) {
        self.pending.push_back(id);
        self.stats.answers += 1;
    }
}

impl<S: Sgr> Iterator for EnumMis<S> {
    type Item = Vec<S::Node>;

    /// Runs whole steps until one has emitted, so every emission, and
    /// every counter, lands at a step boundary.
    fn next(&mut self) -> Option<Vec<S::Node>> {
        while self.pending.is_empty() && !self.complete {
            self.step();
        }
        let id = self.pending.pop_front()?;
        Some(self.answers.get(id as usize).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExplicitSgr;
    use mintri_graph::Graph;

    fn run(g: &Graph, mode: PrintMode) -> Vec<Vec<u32>> {
        let sgr = ExplicitSgr::new(g);
        let mut out: Vec<Vec<u32>> = EnumMis::new(&sgr, mode).collect();
        out.sort();
        out
    }

    #[test]
    fn c5_has_five_maximal_independent_sets() {
        let g = Graph::cycle(5);
        let out = run(&g, PrintMode::UponGeneration);
        assert_eq!(out.len(), 5);
        assert!(out.contains(&vec![0, 2]));
        assert!(out.contains(&vec![1, 4]));
    }

    #[test]
    fn both_modes_agree() {
        for g in [
            Graph::cycle(6),
            Graph::path(7),
            Graph::complete(4),
            Graph::new(3),
            Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4)]),
        ] {
            assert_eq!(
                run(&g, PrintMode::UponGeneration),
                run(&g, PrintMode::UponPop),
                "modes disagree on {g:?}"
            );
        }
    }

    #[test]
    fn complete_graph_yields_singletons() {
        let g = Graph::complete(4);
        let out = run(&g, PrintMode::UponGeneration);
        assert_eq!(out, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn edgeless_graph_yields_everything_once() {
        let g = Graph::new(4);
        let out = run(&g, PrintMode::UponGeneration);
        assert_eq!(out, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn empty_graph_yields_the_empty_set() {
        // MaxInd of the empty graph is {∅}: one (empty) answer.
        let g = Graph::new(0);
        let out = run(&g, PrintMode::UponGeneration);
        assert_eq!(out, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn no_duplicates_on_dense_graphs() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (1, 4),
            ],
        );
        let out = run(&g, PrintMode::UponGeneration);
        let mut dedup = out.clone();
        dedup.dedup();
        assert_eq!(out, dedup);
    }

    #[test]
    fn stats_are_populated() {
        let g = Graph::cycle(5);
        let sgr = ExplicitSgr::new(&g);
        let mut e = EnumMis::upon_generation(&sgr);
        let _ = e.by_ref().count();
        let s = e.stats();
        assert_eq!(s.answers, 5);
        assert_eq!(s.nodes_generated, 5);
        assert!(s.extend_calls >= 5);
    }

    #[test]
    fn anytime_prefix_is_valid() {
        let g = Graph::cycle(7);
        let sgr = ExplicitSgr::new(&g);
        let prefix: Vec<_> = EnumMis::upon_generation(&sgr).take(3).collect();
        assert_eq!(prefix.len(), 3);
        let mut sorted = prefix.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    /// The handed-over list is the emitted sequence, in both print
    /// modes, and only a complete stream hands it over. Five disjoint
    /// triangles have 3^5 = 243 maximal independent sets, so the ids
    /// cross the arena's 64- and 128-id word boundaries.
    #[test]
    fn a_complete_stream_hands_over_its_emissions_in_order() {
        let mut g = Graph::new(15);
        for a in (0..15).step_by(3) {
            g.add_edge(a, a + 1);
            g.add_edge(a + 1, a + 2);
            g.add_edge(a, a + 2);
        }
        let sgr = ExplicitSgr::new(&g);
        for mode in [PrintMode::UponGeneration, PrintMode::UponPop] {
            let mut partial = EnumMis::new(&sgr, mode);
            assert!(partial.nth(130).is_some());
            assert!(partial.into_answers().is_none(), "{mode:?}: incomplete");
            let mut e = EnumMis::new(&sgr, mode);
            let emitted: Vec<Vec<u32>> = e.by_ref().collect();
            assert_eq!(emitted.len(), 243);
            let answers = e.into_answers().expect("a drained stream is complete");
            let handed: Vec<Vec<u32>> = answers.iter().map(<[u32]>::to_vec).collect();
            assert_eq!(handed, emitted, "{mode:?}");
        }
    }

    /// An SGR that records every `Extend` input it is handed.
    struct Recording<'g> {
        inner: ExplicitSgr<'g>,
        bases: std::cell::RefCell<Vec<Vec<u32>>>,
    }

    impl Sgr for Recording<'_> {
        type Node = u32;
        type NodeCursor = u32;
        type Scratch = ();

        fn start_nodes(&self) -> u32 {
            self.inner.start_nodes()
        }

        fn next_node(&self, cursor: &mut u32) -> Option<u32> {
            self.inner.next_node(cursor)
        }

        fn edge(&self, u: &u32, v: &u32) -> bool {
            self.inner.edge(u, v)
        }

        fn extend(&self, base: &[u32]) -> Vec<u32> {
            self.bases.borrow_mut().push(base.to_vec());
            self.inner.extend(base)
        }
    }

    /// Every `Extend` input is sorted, every `Extend` returns a new
    /// answer, and a full drain extends once per answer; the pairs whose
    /// `Jv` an answer already contains are counted, not extended.
    #[test]
    fn each_extend_returns_a_new_answer() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
        for mode in [PrintMode::UponGeneration, PrintMode::UponPop] {
            let sgr = Recording {
                inner: ExplicitSgr::new(&g),
                bases: Default::default(),
            };
            let mut e = EnumMis::new(&sgr, mode);
            let mut answers: Vec<Vec<u32>> = e.by_ref().collect();
            assert_eq!(answers.len(), 7, "C7 has 7 maximal independent sets");
            let stats = e.stats();
            let bases = sgr.bases.take();
            assert_eq!(bases.len(), stats.extend_calls);
            assert_eq!(stats.extend_calls, answers.len());
            assert!(bases.iter().all(|b| b.windows(2).all(|w| w[0] < w[1])));
            let mut results: Vec<Vec<u32>> = bases
                .iter()
                .map(|b| {
                    let mut k = sgr.inner.extend(b);
                    k.sort_unstable();
                    k
                })
                .collect();
            results.sort();
            results.dedup();
            answers.sort();
            assert_eq!(results, answers, "an Extend rebuilt a known answer");
            assert!(stats.extend_repeats > 0);
        }
    }
}
