//! The planning layer: split a query's graph into connected components
//! and clique-minimal-separator atoms **before** enumerating, run one
//! triangulation stream per non-trivial atom, and recombine through a
//! product composer that is itself a [`TriangulationStream`].
//!
//! Minimal triangulations factor over Leimer's atom decomposition
//! (`mintri_separators::atom_decomposition`): clique separators are
//! never filled and no fill edge crosses one, so `MinTri(g)` is exactly
//! the set of independent per-atom choices. A graph of ten small atoms
//! therefore costs the *sum* of ten small enumerations plus a cheap
//! merge per emitted result — not one enumeration of the exponential
//! blob. Chordal atoms (cliques included) have a single, fill-free
//! minimal triangulation and are dropped from the plan entirely.
//!
//! Every query runs through a plan; with planning turned off it is
//! [`Plan::unreduced`], one atom spanning the whole graph. Each executor
//! opens one stream per atom — [`Query::run_local`](crate::query::Query)
//! a sequential `EnumMIS`, `mintri_engine::Engine::run` a per-atom
//! *session* stream, which is what makes warm memos and replayed answers
//! shareable between different graphs that contain the same atom — and
//! hands them to [`Plan::compose`]. The composers implement
//! [`TriangulationStream`], so budgets, top-k selection, decomposition
//! expansion, stats, cancellation and both deliveries in
//! [`Response`](crate::query::Response) work over them unchanged.

use crate::query::{AtomDispatch, CostMeasure, DispatchKind, TracedStream, TriangulationStream};
use crate::ranked::{cost_floor, RankedAtom, RankedComposed, RankedStream};
use mintri_chordal::{is_chordal, treewidth_of_chordal};
use mintri_graph::{Graph, Node};
use mintri_separators::{atom_decomposition, AtomDecomposition};
use mintri_sgr::EnumMisStats;
use mintri_telemetry::{Counter, SpanHandle};
use mintri_triangulate::Triangulation;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Arc;

/// One non-trivial (non-chordal) atom of a [`Plan`]: the induced
/// subgraph renumbered to `0..k`, plus the `new -> old` node map back
/// into the query's graph.
///
/// The renumbering is canonical (ascending original ids), so two
/// different graphs containing the same atom produce *identical*
/// subgraphs — which is what lets an engine key sessions per atom and
/// share warm state across queries on different graphs.
#[derive(Debug, Clone)]
pub struct PlannedAtom {
    /// The atom's induced subgraph, renumbered to `0..k`.
    pub graph: Graph,
    /// Maps the subgraph's node ids back to the original graph's.
    pub old_of: Vec<Node>,
}

/// How to execute a query over a graph: the atom decomposition, reduced
/// to the non-trivial atoms an executor must actually enumerate.
#[derive(Debug, Clone)]
pub struct Plan {
    nodes: usize,
    /// The full decomposition (components, all atoms, separators) —
    /// what `mintri atoms` prints.
    pub decomposition: AtomDecomposition,
    /// The non-chordal atoms, in decomposition order. Chordal atoms
    /// contribute exactly one fill-free triangulation each and need no
    /// stream.
    pub atoms: Vec<PlannedAtom>,
}

impl Plan {
    /// Plans `g`: decomposes into components and atoms (polynomial; one
    /// MCS-M triangulation per split) and keeps the atoms that need
    /// enumeration.
    pub fn of(g: &Graph) -> Plan {
        Plan::from_decomposition(g, atom_decomposition(g))
    }

    /// Rebuilds the plan for `g` from an already-known decomposition —
    /// the hydration path for a persisted plan snapshot. Only the cheap
    /// parts are re-derived (induced subgraphs and chordality checks);
    /// the polynomial-but-not-free decomposition itself is taken as
    /// given. The caller owns the proof that `decomposition` belongs to
    /// `g` (the store verifies graph equality before handing one over).
    pub fn from_decomposition(g: &Graph, decomposition: AtomDecomposition) -> Plan {
        let atoms = decomposition
            .atoms
            .iter()
            .filter_map(|a| {
                let (graph, old_of) = g.induced_subgraph(a);
                (!is_chordal(&graph)).then_some(PlannedAtom { graph, old_of })
            })
            .collect();
        Plan {
            nodes: g.num_nodes(),
            decomposition,
            atoms,
        }
    }

    /// The plan that reduces nothing: one atom spanning all of `g`, with
    /// identity `old_of`, and no decomposition run. This is how an
    /// executor runs a query whose policy turns planning off. Even a
    /// chordal `g` keeps its atom, so the whole-graph enumeration runs.
    /// The `decomposition` field then names the whole node set as the
    /// single component and atom, with no separators.
    pub fn unreduced(g: &Graph) -> Plan {
        let all = g.node_set();
        Plan {
            nodes: g.num_nodes(),
            decomposition: AtomDecomposition {
                components: vec![all.clone()],
                atoms: vec![all],
                separators: Vec::new(),
            },
            atoms: vec![PlannedAtom {
                graph: g.clone(),
                old_of: (0..g.num_nodes() as Node).collect(),
            }],
        }
    }

    /// The plan a query runs over: with `planned`, `planner`'s plan,
    /// timed under a `plan` child span of `query` (when traced) stamped
    /// with the atom count and whether it is unreduced; otherwise
    /// [`Plan::unreduced`], which plans nothing and opens no span.
    pub fn for_query<P: Borrow<Plan> + From<Plan>>(
        planned: bool,
        g: &Graph,
        query: Option<&SpanHandle>,
        planner: impl FnOnce() -> P,
    ) -> P {
        if !planned {
            return Plan::unreduced(g).into();
        }
        let span = query.map(|q| q.child("plan"));
        let plan = planner();
        if let Some(span) = span {
            span.attr("atoms", plan.borrow().atoms.len().to_string());
            span.attr("unreduced", plan.borrow().is_unreduced().to_string());
            span.finish();
        }
        plan
    }

    /// `true` when planning cannot help: the graph is one single
    /// non-trivial atom with identity `old_of`. [`Plan::compose`] then
    /// hands that atom's stream through unwrapped, which keeps the
    /// whole-graph sequential order and `EnumMIS` counters bit for bit.
    pub fn is_unreduced(&self) -> bool {
        self.atoms.len() == 1 && self.atoms[0].graph.num_nodes() == self.nodes
    }

    /// The fixed width contribution of this plan's *chordal* atoms: the
    /// maximum treewidth over the decomposition atoms that need no
    /// stream (0 when every atom enumerates). Every maximal clique of a
    /// composed triangulation lies inside some decomposition atom, so
    /// the composed width is exactly
    /// `max(chordal_width, per-atom triangulation widths)` — the
    /// aggregation [`RankedComposed`] ranks by.
    pub fn chordal_width(&self, g: &Graph) -> usize {
        self.decomposition
            .atoms
            .iter()
            .filter_map(|a| {
                let (graph, _) = g.induced_subgraph(a);
                is_chordal(&graph).then(|| treewidth_of_chordal(&graph))
            })
            .max()
            .unwrap_or(0)
    }

    /// **The composer both executors share.** `open(index, atom)` opens
    /// one atom's stream and says how it is served; atoms are opened in
    /// plan order, which is also the cursor order (the last varies
    /// fastest).
    ///
    /// Each stream is traced under an `atom` child of `trace`, when
    /// given. For a `ranked` query it is then wrapped in a
    /// [`RankedStream`] gated by its [`cost_floor`] (counting raw pulls
    /// on `expansions`), and the atoms recombine through
    /// [`RankedComposed`]; otherwise through [`ComposedStream`]. An
    /// unreduced plan ([`Plan::is_unreduced`]) is the one exception: its
    /// single stream passes through without a composer.
    pub fn compose<'a>(
        &self,
        g: &Graph,
        ranked: Option<CostMeasure>,
        trace: Option<&SpanHandle>,
        expansions: Option<&Arc<Counter>>,
        mut open: impl FnMut(usize, &PlannedAtom) -> OpenedAtom<'a>,
    ) -> Composed<'a> {
        let mut dispatch = Vec::with_capacity(self.atoms.len());
        let mut plain = Vec::new();
        let mut ranked_atoms = Vec::new();
        for (index, atom) in self.atoms.iter().enumerate() {
            let opened = open(index, atom);
            let kind = match ranked {
                Some(_) => DispatchKind::Ranked,
                None => opened.kind,
            };
            let nodes = atom.graph.num_nodes();
            dispatch.push(AtomDispatch { index, nodes, kind });
            let stream: Box<dyn TriangulationStream + 'a> = match trace {
                Some(parent) => {
                    let span = parent.child("atom");
                    span.attr("index", index.to_string());
                    span.attr("nodes", nodes.to_string());
                    span.attr("dispatch", kind.name());
                    Box::new(TracedStream::new(opened.stream, span))
                }
                None => opened.stream,
            };
            let old_of = atom.old_of.clone();
            match ranked {
                Some(measure) => {
                    let mut stream =
                        RankedStream::over(stream, measure, cost_floor(&atom.graph, measure));
                    if let Some(counter) = expansions {
                        stream = stream.with_expansion_counter(Arc::clone(counter));
                    }
                    ranked_atoms.push(RankedAtom { stream, old_of });
                }
                None => plain.push(AtomStream { stream, old_of }),
            }
        }
        let stream: Box<dyn TriangulationStream + 'a> = match (ranked, self.is_unreduced()) {
            (None, true) => plain.pop().expect("one atom").stream,
            (Some(_), true) => Box::new(ranked_atoms.pop().expect("one atom").stream),
            (None, false) => Box::new(ComposedStream::new(g.clone(), plain)),
            (Some(measure), false) => {
                // Chordal atoms add no fill, only width.
                let width_const = match measure {
                    CostMeasure::Width => self.chordal_width(g),
                    CostMeasure::Fill => 0,
                };
                Box::new(RankedComposed::new(
                    g.clone(),
                    measure,
                    width_const,
                    ranked_atoms,
                ))
            }
        };
        Composed {
            stream,
            ranked: ranked.is_some(),
            dispatch,
        }
    }
}

/// One atom stream as an executor opened it, with how it is served.
pub struct OpenedAtom<'a> {
    /// The atom's triangulation stream, in atom-local node ids.
    pub stream: Box<dyn TriangulationStream + 'a>,
    /// How the stream is served (replaced by
    /// [`DispatchKind::Ranked`] on the ranked gear).
    pub kind: DispatchKind,
}

/// A plan's composed stream plus the per-atom dispatch record — what
/// [`Response::over_composed`](crate::query::Response::over_composed)
/// answers a query with.
pub struct Composed<'a> {
    /// The stream of the base graph's minimal triangulations; in
    /// ascending cost order when `ranked`.
    pub stream: Box<dyn TriangulationStream + 'a>,
    /// `stream` is ranked.
    pub ranked: bool,
    /// One entry per atom, by plan index.
    pub dispatch: Vec<AtomDispatch>,
}

/// One atom's contribution to a composed stream: the stream of its
/// minimal triangulations (in atom-local node ids) plus the map back
/// into the composed graph's ids.
pub struct AtomStream<'a> {
    /// The atom's triangulation stream.
    pub stream: Box<dyn TriangulationStream + 'a>,
    /// Maps the stream's node ids to the composed graph's.
    pub old_of: Vec<Node>,
}

struct AtomCursor<'a> {
    stream: Option<Box<dyn TriangulationStream + 'a>>,
    old_of: Vec<Node>,
    /// Fill edges of results `offset .. offset + cache.len()`, mapped to
    /// base-graph ids.
    cache: VecDeque<Vec<(Node, Node)>>,
    /// Index of the first cached result. Nonzero only for the *first*
    /// cursor, whose odometer digit never resets: its passed entries are
    /// dead and are trimmed, so single-atom composition streams in O(1)
    /// memory like an unwrapped stream (every other cursor is revisited
    /// on each product row and must keep its full cache).
    offset: usize,
    replay: bool,
    stats: Option<EnumMisStats>,
}

impl AtomCursor<'_> {
    /// Makes result `idx` available in the cache, pulling from the live
    /// stream as needed. `false` when the stream ended first. `idx` is
    /// at most one past the last cached result, and never below
    /// `offset`.
    fn ensure(&mut self, idx: usize) -> bool {
        if idx - self.offset < self.cache.len() {
            return true;
        }
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        match stream.next_tri() {
            Some(tri) => {
                let fill = tri
                    .fill
                    .iter()
                    .map(|&(u, v)| (self.old_of[u as usize], self.old_of[v as usize]))
                    .collect();
                self.cache.push_back(fill);
                true
            }
            None => {
                if self.stats.is_none() {
                    self.stats = stream.enum_stats();
                }
                // Drop eagerly: the finished stream's frontier is freed
                // here instead of idling until the whole product ends.
                self.stream = None;
                false
            }
        }
    }

    /// The cached fills of result `idx`.
    fn fill_at(&self, idx: usize) -> &[(Node, Node)] {
        &self.cache[idx - self.offset]
    }

    /// Frees every cached result below `idx`.
    fn trim_below(&mut self, idx: usize) {
        while self.offset < idx {
            self.cache.pop_front();
            self.offset += 1;
        }
    }

    fn stats(&self) -> Option<EnumMisStats> {
        match &self.stream {
            Some(stream) => stream.enum_stats(),
            None => self.stats,
        }
    }
}

/// The product/merge composer: combines one [`AtomStream`] per planned
/// atom into the stream of the base graph's minimal triangulations, and
/// is itself a [`TriangulationStream`], which [`Plan::compose`] hands to
/// the query's [`Response`](crate::query::Response) unchanged.
///
/// Emission order is the lexicographic product (odometer) order: the
/// *last* atom's stream varies fastest, each atom stream in its own
/// emission order. Fills already seen are cached per atom, so every
/// atom's underlying enumeration runs **exactly once** no matter how
/// many product rows recombine it, and each emission costs one base
/// clone plus the fills. The per-atom streams are deterministic, so the
/// composed order is a pure function of the plan — stable across
/// executors.
///
/// Zero atoms (a chordal graph) compose to exactly one result: the base
/// graph itself, fill-free.
pub struct ComposedStream<'a> {
    base: Graph,
    cursors: Vec<AtomCursor<'a>>,
    odometer: Vec<usize>,
    started: bool,
    /// The product has ended: a later pull must not restart the
    /// odometer (which would underflow the trimmed first cursor).
    halted: bool,
}

impl<'a> ComposedStream<'a> {
    /// Composes `children` (one per non-trivial atom, in plan order)
    /// over the base graph they decompose.
    pub fn new(base: Graph, children: Vec<AtomStream<'a>>) -> ComposedStream<'a> {
        let cursors: Vec<AtomCursor<'a>> = children
            .into_iter()
            .map(|child| AtomCursor {
                replay: child.stream.is_replay(),
                stream: Some(child.stream),
                old_of: child.old_of,
                cache: VecDeque::new(),
                offset: 0,
                stats: None,
            })
            .collect();
        ComposedStream {
            odometer: vec![0; cursors.len()],
            base,
            cursors,
            started: false,
            halted: false,
        }
    }

    /// The combination at the current odometer position.
    fn materialize(&self) -> Triangulation {
        let fills = self.cursors.iter().zip(&self.odometer);
        compose_row(&self.base, fills.map(|(cursor, &idx)| cursor.fill_at(idx)))
    }
}

/// One product row: a copy of `base` plus every atom's fill edges (in
/// base-graph ids), with the fill list allocated once.
pub(crate) fn compose_row<'f>(
    base: &Graph,
    fills: impl Iterator<Item = &'f [(Node, Node)]> + Clone,
) -> Triangulation {
    let mut graph = base.clone();
    let mut fill = Vec::with_capacity(fills.clone().map(<[_]>::len).sum());
    for &(u, v) in fills.flatten() {
        // Atoms overlap only inside clique separators, which are never
        // filled — the guard keeps `fill` exact regardless.
        if graph.add_edge(u, v) {
            fill.push((u, v));
        }
    }
    Triangulation {
        graph,
        fill,
        peo: None,
    }
}

impl TriangulationStream for ComposedStream<'_> {
    fn next_tri(&mut self) -> Option<Triangulation> {
        if self.halted {
            return None;
        }
        if !self.started {
            self.started = true;
            // First row: one result from every atom. A graph always has
            // at least one minimal triangulation; should a child still
            // come up empty, so is the product.
            for i in 0..self.cursors.len() {
                if !self.cursors[i].ensure(0) {
                    self.halted = true;
                    return None;
                }
            }
            return Some(self.materialize());
        }
        // Advance the odometer, last atom fastest.
        let mut i = self.cursors.len();
        loop {
            if i == 0 {
                self.halted = true;
                return None;
            }
            i -= 1;
            let next = self.odometer[i] + 1;
            if self.cursors[i].ensure(next) {
                self.odometer[i] = next;
                if i == 0 {
                    // The first digit never resets: everything behind it
                    // is dead, and dropping it keeps a single-cursor
                    // composition O(1) memory over exponential streams.
                    self.cursors[0].trim_below(next);
                }
                break;
            }
            self.odometer[i] = 0;
        }
        Some(self.materialize())
    }

    /// The per-atom kernel counters, **summed** — `extend_calls` (each
    /// one a new answer of its atom), `extend_repeats` (pairs skipped
    /// because an answer of their atom contained their `Jv`),
    /// `edge_queries` and `nodes_generated` are the real work totals;
    /// `answers` sums the per-atom answer counts (the *sum* the plan
    /// pays for, not the product it emits). `None` as soon as any atom
    /// stream cannot report (e.g. a cache replay).
    fn enum_stats(&self) -> Option<EnumMisStats> {
        let mut total = EnumMisStats::default();
        for cursor in &self.cursors {
            total += cursor.stats()?;
        }
        Some(total)
    }

    fn is_replay(&self) -> bool {
        !self.cursors.is_empty() && self.cursors.iter().all(|c| c.replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use mintri_graph::NodeSet;

    fn sorted_edge_sets(g: &Graph, planned: bool) -> Vec<Vec<(Node, Node)>> {
        let mut out: Vec<_> = Query::enumerate()
            .policy(crate::query::ExecPolicy::default().with_planned(planned))
            .run_local(g)
            .triangulations()
            .iter()
            .map(|t| t.graph.edges())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn planned_equals_unreduced_on_glued_cycles() {
        // C4 and C5 glued at vertex 0 → two atoms, 2 × 5 = 10 results
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (0, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
        );
        assert_eq!(Plan::of(&g).atoms.len(), 2);
        let planned = sorted_edge_sets(&g, true);
        assert_eq!(planned.len(), 10);
        assert_eq!(planned, sorted_edge_sets(&g, false));
    }

    #[test]
    fn planned_equals_unreduced_on_disconnected_input() {
        // two disjoint C4s ⇒ 2 × 2 results
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        );
        let planned = sorted_edge_sets(&g, true);
        assert_eq!(planned.len(), 4);
        assert_eq!(planned, sorted_edge_sets(&g, false));
    }

    #[test]
    fn chordal_graphs_compose_to_one_fill_free_result() {
        for g in [
            Graph::path(6),
            Graph::complete(4),
            Graph::new(3),
            Graph::new(0),
        ] {
            let plan = Plan::of(&g);
            assert!(plan.atoms.is_empty(), "chordal graphs need no streams");
            let mut response = Query::enumerate().run_local(&g);
            let results = response.triangulations();
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].graph, g);
            assert!(results[0].fill.is_empty());
            assert!(response.outcome().completed);
        }
    }

    #[test]
    fn single_atom_graphs_take_the_unreduced_path() {
        let plan = Plan::of(&Graph::cycle(7));
        assert!(plan.is_unreduced());
        // and the planned query result is bit-identical to the flat one
        let g = Graph::cycle(7);
        let a: Vec<_> = Query::enumerate()
            .run_local(&g)
            .triangulations()
            .iter()
            .map(|t| t.graph.edges())
            .collect();
        let b: Vec<_> = Query::enumerate()
            .policy(crate::query::ExecPolicy::default().with_planned(false))
            .run_local(&g)
            .triangulations()
            .iter()
            .map(|t| t.graph.edges())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn composed_results_are_minimal_triangulations_with_exact_fill() {
        // pendant C4 off a C5 through a cut vertex, plus a chordal tail
        let g = Graph::from_edges(
            11,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (0, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (7, 8),
                (8, 9),
                (9, 10),
            ],
        );
        for t in Query::enumerate().run_local(&g).triangulations() {
            assert!(mintri_triangulate::is_minimal_triangulation(&g, &t.graph));
            let mut fill = t.fill.clone();
            fill.sort();
            assert_eq!(fill, t.graph.fill_edges_over(&g), "fill list is exact");
        }
    }

    #[test]
    fn planned_atoms_are_canonically_renumbered() {
        // the same C5 atom embedded in two different graphs renumbers to
        // the same subgraph — the property per-atom session keying needs
        let g1 = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (0, 5),
                (5, 6),
                (6, 0),
            ],
        );
        let g2 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]);
        let find_c5 = |p: &Plan| {
            p.atoms
                .iter()
                .find(|a| a.graph.num_nodes() == 5)
                .unwrap()
                .graph
                .clone()
        };
        let (p1, p2) = (Plan::of(&g1), Plan::of(&g2));
        assert_eq!(find_c5(&p1), find_c5(&p2));
    }

    #[test]
    fn odometer_order_is_deterministic() {
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
        let run = || -> Vec<_> {
            Query::enumerate()
                .run_local(&g)
                .triangulations()
                .iter()
                .map(|t| t.graph.edges())
                .collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn composed_stats_sum_per_atom_work() {
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
        let n = response.by_ref().count();
        assert_eq!(n, 4, "2 × 2 product");
        let stats = response
            .outcome()
            .enum_stats
            .expect("sequential atoms report");
        assert_eq!(stats.answers, 4, "2 + 2 per-atom answers");
    }

    #[test]
    fn plan_reports_the_decomposition() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)]);
        let plan = Plan::of(&g);
        assert_eq!(plan.decomposition.components.len(), 1);
        assert!(!plan.decomposition.atoms.is_empty());
        let covered: Vec<NodeSet> = plan.decomposition.atoms.clone();
        let mut union = NodeSet::new(5);
        for a in &covered {
            union.union_with(a);
        }
        assert_eq!(union, g.node_set());
    }
}
