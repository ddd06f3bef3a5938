//! The minimal separator graph `MSGraph` as an SGR (Section 3.1.1), with
//! the `Extend` procedure of Figure 3 as its tractable expansion
//! (Section 4.3).
//!
//! Performance notes (the "optimized version" of the paper's Section 7):
//! separators are *interned* into dense `u32` ids, so `EnumMIS` hashes
//! answers as sorted integer vectors instead of sets of bitsets, and each
//! separator `S` carries the component labels of `g \ S`, computed by one
//! `O(n + m)` search the first time `S` is asked about. `S ♮ T` is then a
//! scan over `T`'s nodes for a second distinct label. Crossing is
//! symmetric on minimal separators (Parra–Scheffler 1997), so one side's
//! labels decide a pair: `edge` reads the lower id's, and `build_jv`
//! fetches the direction node `v`'s labels once and scans every `u ∈ J`
//! against them.
//!
//! The interner is a sharded concurrent structure (see [`crate::memo`])
//! whose rows read without a lock, which makes `MsGraph: Send + Sync`:
//! the engine's session layer shares a *single* `MsGraph` between every
//! query on the same graph, so each interned separator and its labels
//! are computed once and reused across queries and the threads that
//! serve them.

use crate::memo::ShardedInterner;
use mintri_chordal::CliqueForest;
use mintri_graph::traversal::component_labels;
use mintri_graph::{Graph, NodeSet};
use mintri_separators::MinSepState;
use mintri_sgr::Sgr;
use mintri_triangulate::{minimal_triangulation, McsM, TriScratch, Triangulation, Triangulator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub use crate::memo::SepId;

/// Reusable workspace for the scratch-kernel `Extend`.
///
/// One instance belongs to exactly one sequential enumeration stream and
/// is threaded through
/// [`Sgr::extend_with`]. Every buffer is rebuilt *in place* per call, so
/// after a warm-up pass over the graph's shapes the kernel performs zero
/// heap allocations in steady state — the invariant pinned by the
/// repository's `alloc_audit` test.
#[derive(Default)]
pub struct ExtendScratch {
    /// MCS-M workspace: `g[φ]` is saturated into its input bit matrix,
    /// and the fill edges, the elimination order and the minimal
    /// separators of the triangulation land here.
    tri: TriScratch,
}

/// Counters exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct MsGraphStats {
    /// Component labellings computed, one BFS each: every labelled
    /// separator is counted once, whichever thread labelled it (racing
    /// threads wait for the first), so this never exceeds
    /// `separators_interned`.
    pub crossing_computed: usize,
    /// `Extend` invocations.
    pub extends: usize,
    /// Distinct separators interned.
    pub separators_interned: usize,
}

/// Relaxed atomic counters behind [`MsGraphStats`] — diagnostics only, so
/// cross-counter consistency under concurrency is not required.
#[derive(Default)]
struct AtomicStats {
    crossing_computed: AtomicUsize,
    extends: AtomicUsize,
}

/// How an [`MsGraph`] holds its input graph: borrowed for the classic
/// iterator API, reference-counted for `'static` engine sessions.
enum GraphHandle<'g> {
    Borrowed(&'g Graph),
    Shared(Arc<Graph>),
}

impl GraphHandle<'_> {
    fn get(&self) -> &Graph {
        match self {
            GraphHandle::Borrowed(g) => g,
            GraphHandle::Shared(g) => g,
        }
    }
}

/// The SGR `(G^ms, A_V^ms, A_E^ms)`: nodes are the minimal separators of a
/// fixed graph `g`, edges are crossing pairs, and the expansion runs any
/// black-box [`Triangulator`] through the `Extend` procedure.
///
/// The maximal independent sets of this graph are the maximal sets of
/// pairwise-parallel minimal separators — in bijection with `MinTri(g)`
/// (Theorem 4.1 / Corollary 4.2).
///
/// `MsGraph` is `Send + Sync`: all interior state lives in the sharded
/// concurrent interner, so one instance can serve many sequential
/// queries on many threads at once, sharing its separators and labels.
pub struct MsGraph<'g> {
    g: GraphHandle<'g>,
    triangulator: Box<dyn Triangulator>,
    interner: ShardedInterner,
    /// When `true` (default), `extend_with` runs through the
    /// allocation-free scratch kernel; when `false` it delegates to the
    /// historical allocating path (ablation switch).
    scratch_kernel: bool,
    stats: AtomicStats,
}

impl<'g> MsGraph<'g> {
    /// MSGraph over `g` with the default (MCS-M) expansion backend.
    pub fn new(g: &'g Graph) -> Self {
        Self::with_triangulator(g, Box::new(McsM))
    }

    /// MSGraph with a custom triangulation backend — *any* off-the-shelf
    /// triangulation algorithm works, which is the black-box property the
    /// paper advertises.
    pub fn with_triangulator(g: &'g Graph, triangulator: Box<dyn Triangulator>) -> Self {
        Self::build(GraphHandle::Borrowed(g), triangulator)
    }

    fn build(g: GraphHandle<'g>, triangulator: Box<dyn Triangulator>) -> Self {
        MsGraph {
            g,
            triangulator,
            interner: ShardedInterner::default(),
            scratch_kernel: true,
            stats: AtomicStats::default(),
        }
    }

    /// Disables the scratch-space execution kernel (ablation switch):
    /// `extend_with` falls back to the allocating [`Sgr::extend`] path.
    /// Answers are bit-for-bit identical either way; only the allocation
    /// profile differs.
    pub fn without_scratch_kernel(mut self) -> Self {
        self.scratch_kernel = false;
        self
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.g.get()
    }

    /// Current counters.
    pub fn stats(&self) -> MsGraphStats {
        MsGraphStats {
            crossing_computed: self.stats.crossing_computed.load(Ordering::Relaxed),
            extends: self.stats.extends.load(Ordering::Relaxed),
            separators_interned: self.interner.len(),
        }
    }

    /// Interns a separator (content-addressed: equal sets share an id).
    pub fn intern(&self, s: mintri_graph::NodeSet) -> SepId {
        self.interner.intern(s)
    }

    /// A shared handle on the separator behind an id (refcount bump, no
    /// bitset copy).
    pub fn separator(&self, id: SepId) -> Arc<NodeSet> {
        self.interner.get(id)
    }

    /// `g[φ]` for an answer `φ` given as interned ids: saturates every
    /// separator. For a maximal answer this *is* the corresponding minimal
    /// triangulation (Theorem 4.1 part 1).
    pub fn saturate_answer(&self, answer: &[SepId]) -> Graph {
        let mut h = self.g.get().clone();
        for &id in answer {
            h.saturate(self.interner.row(id).set());
        }
        h
    }

    /// [`Self::saturate_answer`] into the workspace: the input matrix of
    /// `ws.tri` becomes `g[φ]` with no allocation once warm.
    fn saturate_into(&self, answer: &[SepId], ws: &mut ExtendScratch) {
        ws.tri.input.load(self.g.get());
        for &id in answer {
            ws.tri.input.saturate(self.interner.row(id).set());
        }
    }

    /// The component labels of `g \ S_id`, computed (and counted) on
    /// first use.
    fn labels(&self, id: SepId) -> &[u32] {
        self.interner.row(id).labels(|set| {
            self.stats.crossing_computed.fetch_add(1, Ordering::Relaxed);
            component_labels(self.g.get(), set).into_boxed_slice()
        })
    }

    /// Materializes an answer into a full [`Triangulation`] (saturation
    /// plus fill-edge bookkeeping) — shared by the sequential enumerator
    /// and the engine's streams.
    pub fn materialize(&self, answer: &[SepId]) -> Triangulation {
        let h = self.saturate_answer(answer);
        let fill = h.fill_edges_over(self.g.get());
        Triangulation {
            graph: h,
            fill,
            peo: None,
        }
    }

    /// The kernel `Extend`: same result as [`Sgr::extend`], written into
    /// `out` with every intermediate buffer drawn from `ws`.
    fn extend_into(&self, base: &[SepId], out: &mut Vec<SepId>, ws: &mut ExtendScratch) {
        self.stats.extends.fetch_add(1, Ordering::Relaxed);
        out.clear();
        if self.triangulator.guarantees_minimal() {
            self.saturate_into(base, ws);
            if self.triangulator.triangulate_loaded(&mut ws.tri) {
                // The backend wrote `MinSep(h)` into the workspace, sorted
                // and deduplicated. A chordal graph has one set of minimal
                // separators and `CliqueForest::minimal_separators` emits
                // it in the same order, so the interned ids — and hence
                // the enumeration order — match the allocating path.
                out.extend(ws.tri.separators().map(|sep| self.interner.intern_ref(sep)));
                out.sort_unstable();
                return;
            }
        }
        // Allocating fallback: a black-box backend without a kernel hook
        // (or one that needs the sandwich step).
        out.extend(self.extend_allocating(base));
    }

    /// The allocating `Extend` body (Figure 3): saturate `φ`, triangulate
    /// with the black box (plus the sandwich step unless the backend
    /// guarantees minimality), and read the maximal parallel set off the
    /// minimal separators of the chordal result (clique-forest
    /// extraction, Kumar–Madhavan). Sorted ids.
    fn extend_allocating(&self, base: &[SepId]) -> Vec<SepId> {
        let gphi = self.saturate_answer(base);
        let tri = minimal_triangulation(&gphi, self.triangulator.as_ref());
        let forest = match &tri.peo {
            Some(peo) => CliqueForest::build_with_peo(&tri.graph, peo),
            None => CliqueForest::build(&tri.graph),
        };
        let mut ids: Vec<SepId> = forest
            .minimal_separators()
            .into_iter()
            .map(|s| self.interner.intern(s))
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// `S ♮ T` from `S`'s component labels: `true` iff `t`'s nodes carry two
/// distinct non-zero `labels`, that is, `T` meets two components of
/// `g \ S`.
fn crosses(labels: &[u32], t: &NodeSet) -> bool {
    let mut first = 0;
    for v in t.iter() {
        let label = labels[v as usize];
        if label != 0 && label != first {
            if first != 0 {
                return true;
            }
            first = label;
        }
    }
    false
}

/// `MsGraph<'static>` built over a shared graph — the form the engine's
/// session layer caches and shares across queries and threads.
impl MsGraph<'static> {
    /// MSGraph owning (a reference count on) its graph.
    pub fn shared(g: Arc<Graph>, triangulator: Box<dyn Triangulator>) -> Self {
        Self::build(GraphHandle::Shared(g), triangulator)
    }
}

impl Sgr for MsGraph<'_> {
    type Node = SepId;
    type NodeCursor = MinSepState;
    type Scratch = ExtendScratch;

    fn start_nodes(&self) -> MinSepState {
        MinSepState::new()
    }

    fn next_node(&self, cursor: &mut MinSepState) -> Option<SepId> {
        cursor.next(self.g.get()).map(|s| self.interner.intern(s))
    }

    /// `S_a ♮ S_b` for `(a, b) = (min, max)`: `S_b` meets two components
    /// of `g \ S_a`. Only `S_a`'s first query runs its labelling search.
    fn edge(&self, &u: &SepId, &v: &SepId) -> bool {
        u != v && crosses(self.labels(u.min(v)), self.interner.row(u.max(v)).set())
    }

    /// `Jv` from `S_v`'s labels alone: `u ∈ J` stays iff `S_u` meets at
    /// most one component of `g \ S_v`. By symmetry this is what `edge`
    /// decides, with one label fetch per `Jv` instead of one per pair.
    fn build_jv(
        &self,
        answer: &[SepId],
        &v: &SepId,
        _: &mut ExtendScratch,
        jv: &mut Vec<SepId>,
    ) -> bool {
        let Err(at) = answer.binary_search(&v) else {
            return false;
        };
        let labels = self.labels(v);
        let parallel = |&u: &SepId| !crosses(labels, self.interner.row(u).set());
        let (below, above) = answer.split_at(at);
        jv.extend(below.iter().copied().filter(parallel));
        jv.push(v);
        jv.extend(above.iter().copied().filter(parallel));
        true
    }

    /// [`Sgr::extend`] through the scratch kernel (or, with the kernel
    /// ablated, the historical allocating path copied into `out`).
    fn extend_with(&self, base: &[SepId], out: &mut Vec<SepId>, ws: &mut ExtendScratch) {
        if !self.scratch_kernel {
            out.clear();
            out.extend(self.extend(base));
            return;
        }
        self.extend_into(base, out, ws);
    }

    /// The `Extend` procedure (Figure 3) on the allocating path.
    fn extend(&self, base: &[SepId]) -> Vec<SepId> {
        self.stats.extends.fetch_add(1, Ordering::Relaxed);
        self.extend_allocating(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_graph::NodeSet;
    use mintri_sgr::{EnumMis, PrintMode};

    #[test]
    fn msgraph_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MsGraph<'static>>();
    }

    #[test]
    fn interning_is_content_addressed() {
        let g = Graph::cycle(5);
        let ms = MsGraph::new(&g);
        let a = ms.intern(NodeSet::from_iter(5, [0, 2]));
        let b = ms.intern(NodeSet::from_iter(5, [0, 2]));
        assert_eq!(a, b);
        assert_eq!(ms.separator(a).to_vec(), vec![0, 2]);
    }

    #[test]
    fn extend_of_empty_set_is_maximal_parallel_set() {
        let g = Graph::cycle(6);
        let ms = MsGraph::new(&g);
        let m = ms.extend(&[]);
        assert!(!m.is_empty());
        // pairwise parallel
        for (i, &a) in m.iter().enumerate() {
            for &b in &m[i + 1..] {
                assert!(!ms.edge(&a, &b), "extended set must be independent");
            }
        }
        // the saturation is chordal (Theorem 4.1)
        let h = ms.saturate_answer(&m);
        assert!(mintri_chordal::is_chordal(&h));
    }

    #[test]
    fn each_separator_is_labelled_at_most_once() {
        let g = Graph::cycle(6);
        let ms = MsGraph::new(&g);
        let a = ms.intern(NodeSet::from_iter(6, [0, 3]));
        let b = ms.intern(NodeSet::from_iter(6, [1, 4]));
        let c = ms.intern(NodeSet::from_iter(6, [0, 2]));
        assert!(ms.edge(&a, &b));
        assert!(ms.edge(&b, &a));
        assert!(!ms.edge(&a, &c));
        assert_eq!(ms.stats().crossing_computed, 1, "only `a` was a lower id");
        assert!(ms.edge(&b, &c), "{{1,4}} splits 0 from 2");
        assert!(!ms.edge(&c, &c));
        assert_eq!(ms.stats().crossing_computed, 2, "`b` labelled once too");
        // a full sweep labels every separator, each exactly once
        let ids: Vec<SepId> = ms.nodes().collect();
        for _ in 0..2 {
            for a in &ids {
                for b in &ids {
                    ms.edge(a, b);
                }
            }
        }
        let s = ms.stats();
        assert_eq!(s.crossing_computed, s.separators_interned - 1);
    }

    #[test]
    fn enum_mis_over_msgraph_counts_c4() {
        let g = Graph::cycle(4);
        let ms = MsGraph::new(&g);
        let answers: Vec<_> = EnumMis::new(&ms, PrintMode::UponGeneration).collect();
        assert_eq!(answers.len(), 2, "C4 has two minimal triangulations");
    }

    #[test]
    fn shared_msgraph_answers_match_borrowed() {
        let g = Graph::cycle(6);
        let borrowed = MsGraph::new(&g);
        let shared = MsGraph::shared(Arc::new(g.clone()), Box::new(McsM));
        let collect = |ms: &MsGraph<'_>| -> Vec<Vec<SepId>> {
            EnumMis::new(ms, PrintMode::UponGeneration).collect()
        };
        assert_eq!(collect(&borrowed), collect(&shared));
    }

    #[test]
    fn concurrent_edge_queries_agree_with_sequential() {
        let g = Graph::cycle(8);
        let ms = MsGraph::new(&g);
        let ids: Vec<SepId> = ms.nodes().collect();
        let expected: Vec<bool> = ids
            .iter()
            .flat_map(|a| ids.iter().map(move |b| (a, b)))
            .map(|(a, b)| ms.edge(a, b))
            .collect();
        // fresh MsGraph, queried from 4 threads at once
        let fresh = MsGraph::new(&g);
        let fresh_ids: Vec<SepId> = fresh.nodes().collect();
        assert_eq!(ids, fresh_ids);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let got: Vec<bool> = fresh_ids
                        .iter()
                        .flat_map(|a| fresh_ids.iter().map(move |b| (a, b)))
                        .map(|(a, b)| fresh.edge(a, b))
                        .collect();
                    assert_eq!(got, expected);
                });
            }
        });
        // every pair was asked, so every separator but the highest id was
        // a lower id and got labelled — each counted once, whichever
        // thread won
        let s = fresh.stats();
        assert_eq!(s.crossing_computed, s.separators_interned - 1);
    }
}
