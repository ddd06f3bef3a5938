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
//! The schedule itself — queue/processed/seen bookkeeping, node-pulling,
//! the print-mode split — lives in [`Frontier`]; this iterator is the
//! sequential loop that extends each drained batch inline.

use crate::frontier::Frontier;
use crate::{EnumMisStats, PrintMode, Sgr};

/// Iterator over all maximal independent sets of an SGR.
///
/// Answers are sorted `Vec<S::Node>`s; each maximal independent set is
/// yielded exactly once. Dropping the iterator abandons the enumeration —
/// it is an *anytime* algorithm.
///
/// `EnumMis` owns its SGR; pass `&S` (the blanket `Sgr for &S` impl) to
/// borrow one instead.
pub struct EnumMis<S: Sgr> {
    /// The schedule; its own workspace extends each drained batch, so
    /// steady-state iteration allocates only for genuinely new answers.
    frontier: Frontier<S>,
}

impl<S: Sgr> EnumMis<S> {
    /// Starts an enumeration in the given print mode.
    pub fn new(sgr: S, mode: PrintMode) -> Self {
        EnumMis {
            frontier: Frontier::new(sgr, mode),
        }
    }

    /// Starts an enumeration in the default (`UponGeneration`) mode.
    pub fn upon_generation(sgr: S) -> Self {
        Self::new(sgr, PrintMode::UponGeneration)
    }

    /// Current counters.
    pub fn stats(&self) -> EnumMisStats {
        self.frontier.stats()
    }

    /// The wrapped SGR.
    pub fn sgr(&self) -> &S {
        self.frontier.sgr()
    }
}

impl<S: Sgr> Iterator for EnumMis<S> {
    type Item = Vec<S::Node>;

    fn next(&mut self) -> Option<Vec<S::Node>> {
        while !self.frontier.has_emissions() && !self.frontier.is_complete() {
            let batch = self.frontier.drain_pending();
            self.frontier.extend_inline(batch);
        }
        self.frontier.pop_emission()
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

    /// Every `Extend` input is sorted and handed out once; the pairs
    /// whose `Jv` repeats are counted, not extended.
    #[test]
    fn each_jv_is_extended_once_and_sorted() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
        for mode in [PrintMode::UponGeneration, PrintMode::UponPop] {
            let sgr = Recording {
                inner: ExplicitSgr::new(&g),
                bases: Default::default(),
            };
            let mut e = EnumMis::new(&sgr, mode);
            assert_eq!(e.by_ref().count(), 7, "C7 has 7 maximal independent sets");
            let stats = e.stats();
            let mut bases = sgr.bases.take();
            assert_eq!(bases.len(), stats.extend_calls);
            assert!(bases.iter().all(|b| b.windows(2).all(|w| w[0] < w[1])));
            bases.sort();
            bases.dedup();
            assert_eq!(bases.len(), stats.extend_calls, "a Jv was extended twice");
            assert!(stats.extend_repeats > 0);
        }
    }
}
