//! The frontier skips every `Jv` that an answer in `Q ∪ P` already
//! contains, and the skip is pinned from three sides:
//!
//! * **schedule.** A literal transcription of Figure 1 with the same
//!   containment rule — checked by scanning every answer, right before
//!   each `Extend` — emits exactly what the frontier emits: same
//!   answers, same order, same interned ids, in both print modes, with
//!   the same `Extend`, skip and edge-query counts.
//! * **answers.** The set is the one the literal loop *without* the skip
//!   finds, and on small graphs the one the brute-force oracle finds.
//! * **work.** On a full drain every `Extend` returns a new answer, so
//!   `extend_calls` equals the answer count, and `extend_calls +
//!   extend_repeats` equals the skip-free loop's `Extend` count: both
//!   loops meet every pair `(J, v)` with `v ∉ J` once.

use mintri::core::{BruteForce, MsGraph, SepId};
use mintri::graph::{Graph, Node};
use mintri::sgr::{EnumMis, EnumMisStats, PrintMode, Sgr};
use mintri::workloads::random::{chained_cycles, erdos_renyi};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// What the literal loop did besides emitting.
#[derive(Default)]
struct Reference {
    emitted: Vec<Vec<SepId>>,
    extends: usize,
    skips: usize,
    edge_queries: usize,
}

/// Figure 1 of the paper, line by line. With `skip`, a pair whose `Jv`
/// some answer in `Q ∪ P` contains is counted, not extended.
struct Literal<'a, 'g> {
    ms: &'a MsGraph<'g>,
    mode: PrintMode,
    skip: bool,
    /// `Q ∪ P`, in absorb order.
    answers: Vec<Vec<SepId>>,
    seen: HashSet<Vec<SepId>>,
    queue: VecDeque<Vec<SepId>>,
    r: Reference,
}

impl Literal<'_, '_> {
    /// `Extend(jv)`, counted, canonicalized like the frontier's answers;
    /// a new answer is recorded, queued and, upon generation, emitted.
    fn extend(&mut self, jv: &[SepId]) {
        self.r.extends += 1;
        let mut k = self.ms.extend(jv);
        k.sort_unstable();
        if self.seen.insert(k.clone()) {
            if self.mode == PrintMode::UponGeneration {
                self.r.emitted.push(k.clone());
            }
            self.answers.push(k.clone());
            self.queue.push_back(k);
        }
    }

    /// Lines 10–14 / 19–23: extend `J` toward `v`.
    fn toward(&mut self, j: &[SepId], v: SepId) {
        if j.contains(&v) {
            return;
        }
        // Jv as the paper writes it: v first, then J minus v's crossers.
        let mut jv = vec![v];
        for &u in j {
            self.r.edge_queries += 1;
            if !self.ms.edge(&v, &u) {
                jv.push(u);
            }
        }
        if self.skip
            && self
                .answers
                .iter()
                .any(|a| jv.iter().all(|u| a.binary_search(u).is_ok()))
        {
            self.r.skips += 1;
            return;
        }
        self.extend(&jv);
    }
}

fn literal_enum_mis(ms: &MsGraph<'_>, mode: PrintMode, skip: bool) -> Reference {
    let mut l = Literal {
        ms,
        mode,
        skip,
        answers: Vec::new(),
        seen: HashSet::new(),
        queue: VecDeque::new(),
        r: Reference::default(),
    };
    let mut processed: Vec<Vec<SepId>> = Vec::new();
    let mut nodes: Vec<SepId> = Vec::new();
    let mut cursor = ms.start_nodes();
    l.extend(&[]);
    loop {
        while let Some(j) = l.queue.pop_front() {
            if mode == PrintMode::UponPop {
                l.r.emitted.push(j.clone());
            }
            for &v in &nodes {
                l.toward(&j, v);
            }
            processed.push(j);
        }
        let Some(v) = ms.next_node(&mut cursor) else {
            break;
        };
        nodes.push(v);
        for j in &processed {
            l.toward(j, v);
        }
    }
    l.r
}

/// Answers as sets of separators, each a sorted vertex list: interned
/// ids follow the order separators are first met, so two schedules
/// over one graph may number them differently.
fn canonical(ms: &MsGraph<'_>, answers: &[Vec<SepId>]) -> Vec<Vec<Vec<Node>>> {
    let mut out: Vec<Vec<Vec<Node>>> = answers
        .iter()
        .map(|a| {
            let mut seps: Vec<Vec<Node>> = a.iter().map(|&s| ms.separator(s).to_vec()).collect();
            seps.sort();
            seps
        })
        .collect();
    out.sort();
    out
}

fn assert_matches_reference(g: &Graph) {
    for mode in [PrintMode::UponGeneration, PrintMode::UponPop] {
        let reference = literal_enum_mis(&MsGraph::new(g), mode, true);
        let ms = MsGraph::new(g);
        let mut e = EnumMis::new(&ms, mode);
        let emitted: Vec<Vec<SepId>> = e.by_ref().collect();
        assert_eq!(
            emitted, reference.emitted,
            "{mode:?} emission diverged from the literal loop on {g:?}"
        );
        let EnumMisStats {
            extend_calls,
            extend_repeats,
            edge_queries,
            answers,
            ..
        } = e.stats();
        assert_eq!(extend_calls, reference.extends, "{mode:?} on {g:?}");
        assert_eq!(extend_repeats, reference.skips, "{mode:?} on {g:?}");
        assert_eq!(edge_queries, reference.edge_queries);
        assert_eq!(ms.stats().extends, extend_calls);
        assert_eq!(
            (extend_calls, answers),
            (emitted.len(), emitted.len()),
            "{mode:?}: every Extend must return a new answer on {g:?}"
        );

        let unskipped_ms = MsGraph::new(g);
        let unskipped = literal_enum_mis(&unskipped_ms, mode, false);
        assert_eq!(
            canonical(&ms, &emitted),
            canonical(&unskipped_ms, &unskipped.emitted),
            "{mode:?}: the skip changed the answer set on {g:?}"
        );
        assert_eq!(
            extend_calls + extend_repeats,
            unskipped.extends,
            "{mode:?}: calls + skips must be the skip-free Extend count on {g:?}"
        );
    }
}

/// The triangulations a run delivers, as sorted edge lists.
fn triangulations(g: &Graph) -> Vec<Vec<(Node, Node)>> {
    let ms = MsGraph::new(g);
    let mut out: Vec<_> = EnumMis::upon_generation(&ms)
        .map(|a| ms.materialize(&a).graph.edges())
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_skip_matches_the_literal_loop_on_gnp(
        n in 3usize..=14,
        tenths in 1u32..=6,
        seed in 0u64..1 << 32,
    ) {
        assert_matches_reference(&erdos_renyi(n, f64::from(tenths) / 10.0, seed));
    }

    #[test]
    fn the_skip_matches_the_literal_loop_on_chained_cycles(
        lengths in proptest::collection::vec(3usize..=6, 1..=3),
    ) {
        assert_matches_reference(&chained_cycles(&lengths));
    }

    #[test]
    fn the_skip_finds_every_brute_force_triangulation(
        n in 3usize..=6,
        tenths in 1u32..=7,
        seed in 0u64..1 << 32,
    ) {
        let g = erdos_renyi(n, f64::from(tenths) / 10.0, seed);
        let oracle: Vec<_> = BruteForce::minimal_triangulations(&g)
            .iter()
            .map(Graph::edges)
            .collect();
        prop_assert_eq!(triangulations(&g), oracle);
    }
}
