//! Skipping repeated `Jv` sets is invisible: the frontier, which extends
//! each distinct sorted `Jv` once, emits exactly what a literal,
//! memo-free transcription of Figure 1 emits — same answers, same order,
//! same interned ids — in both print modes. Its counters account for
//! every pair the literal loop extends: `extend_calls` is the number of
//! distinct sorted `Jv` sets, `extend_calls + extend_repeats` the literal
//! loop's `Extend` count.

use mintri::core::{MsGraph, SepId};
use mintri::graph::Graph;
use mintri::sgr::{EnumMis, EnumMisStats, PrintMode, Sgr};
use mintri::workloads::random::{chained_cycles, erdos_renyi};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// What the literal loop did besides emitting.
#[derive(Default)]
struct Reference {
    emitted: Vec<Vec<SepId>>,
    extends: usize,
    edge_queries: usize,
    /// Every `Jv` the loop extended, as a sorted set.
    distinct_jv: HashSet<Vec<SepId>>,
}

impl Reference {
    /// `Extend(jv)`, counted, canonicalized like the frontier's answers.
    fn extend(&mut self, ms: &MsGraph<'_>, jv: &[SepId]) -> Vec<SepId> {
        self.extends += 1;
        let mut key = jv.to_vec();
        key.sort_unstable();
        self.distinct_jv.insert(key);
        let mut k = ms.extend(jv);
        k.sort_unstable();
        k
    }

    /// Lines 10–14 / 19–23: extend `J` toward `v` and record a new answer.
    fn toward(
        &mut self,
        ms: &MsGraph<'_>,
        mode: PrintMode,
        j: &[SepId],
        v: SepId,
        seen: &mut HashSet<Vec<SepId>>,
        queue: &mut VecDeque<Vec<SepId>>,
    ) {
        if j.contains(&v) {
            return;
        }
        // Jv as the paper writes it: v first, then J minus v's crossers.
        let mut jv = vec![v];
        for &u in j {
            self.edge_queries += 1;
            if !ms.edge(&v, &u) {
                jv.push(u);
            }
        }
        let k = self.extend(ms, &jv);
        if seen.insert(k.clone()) {
            if mode == PrintMode::UponGeneration {
                self.emitted.push(k.clone());
            }
            queue.push_back(k);
        }
    }
}

/// Figure 1 of the paper, line by line, with no `Jv` key set.
fn literal_enum_mis(g: &Graph, mode: PrintMode) -> Reference {
    let ms = MsGraph::new(g);
    let mut r = Reference::default();
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    let mut processed: Vec<Vec<SepId>> = Vec::new();
    let mut nodes: Vec<SepId> = Vec::new();
    let mut cursor = ms.start_nodes();
    let first = r.extend(&ms, &[]);
    seen.insert(first.clone());
    if mode == PrintMode::UponGeneration {
        r.emitted.push(first.clone());
    }
    queue.push_back(first);
    loop {
        while let Some(j) = queue.pop_front() {
            if mode == PrintMode::UponPop {
                r.emitted.push(j.clone());
            }
            for &v in &nodes {
                r.toward(&ms, mode, &j, v, &mut seen, &mut queue);
            }
            processed.push(j);
        }
        let Some(v) = ms.next_node(&mut cursor) else {
            break;
        };
        nodes.push(v);
        for j in &processed {
            r.toward(&ms, mode, j, v, &mut seen, &mut queue);
        }
    }
    r
}

fn assert_matches_reference(g: &Graph) {
    for mode in [PrintMode::UponGeneration, PrintMode::UponPop] {
        let reference = literal_enum_mis(g, mode);
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
            ..
        } = e.stats();
        assert_eq!(
            extend_calls + extend_repeats,
            reference.extends,
            "{mode:?}: calls + repeats must be the literal Extend count on {g:?}"
        );
        assert_eq!(
            extend_calls,
            reference.distinct_jv.len(),
            "{mode:?}: each distinct sorted Jv must be extended exactly once on {g:?}"
        );
        assert_eq!(edge_queries, reference.edge_queries);
        assert_eq!(ms.stats().extends, extend_calls);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skipping_repeats_matches_the_literal_loop_on_gnp(
        n in 3usize..=14,
        tenths in 1u32..=6,
        seed in 0u64..1 << 32,
    ) {
        assert_matches_reference(&erdos_renyi(n, f64::from(tenths) / 10.0, seed));
    }

    #[test]
    fn skipping_repeats_matches_the_literal_loop_on_chained_cycles(
        lengths in proptest::collection::vec(3usize..=6, 1..=3),
    ) {
        assert_matches_reference(&chained_cycles(&lengths));
    }
}
