//! Best-k selection over the triangulation stream — the paper's "let the
//! application choose the best according to its internal measure" workflow
//! (Section 1) — in two gears:
//!
//! * **Exhaustive** (`TopK` / [`best_k_of_stream`]): scan every
//!   triangulation, keep the `k` best. Works with *any* cost closure, and
//!   remains the fallback for non-serializable application measures.
//! * **Ranked** ([`RankedStream`] / [`RankedComposed`]): emit
//!   triangulations in ascending cost order, output-sensitively, after the
//!   fashion of Ravid–Medini–Kimelfeld's "Ranked Enumeration of Minimal
//!   Triangulations" [38]. The stream is a best-first reordering buffer
//!   over the deterministic `EnumMIS` schedule: results are pulled into a
//!   binary heap keyed by `(cost, production index)` and released as soon
//!   as an *admissible cost floor* ([`cost_floor`]) proves nothing cheaper
//!   can still arrive. On the cost plateaus that dominate the serializable
//!   measures (every minimal triangulation of a cycle has the same width
//!   *and* the same fill), the floor is tight and a best-k query stops
//!   after ~`k` pulls instead of draining the space.
//!
//! The two gears agree **bit for bit**: same winners, same order. The tie
//! policy is pinned on `TopK::offer`, and the ranked gear preserves it
//! because the floor gate only releases a result when every future result
//! is provably no cheaper — and a future cost-tie always loses on the
//! production index.
//!
//! The typed front door for this workload is
//! [`Task::BestK`](crate::query::Task) — `Query::best_k(k, cost)` — which
//! routes through the ranked gear by default
//! (`ExecPolicy::default().with_ranked(false)` is the escape hatch);
//! [`best_k_of_stream`] remains for
//! application-specific (non-serializable) cost closures over any
//! triangulation stream.

use crate::plan::compose_row;
use crate::query::{CostMeasure, TriangulationStream};
use crate::EnumerationBudget;
use mintri_graph::{Graph, Node};
use mintri_sgr::EnumMisStats;
use mintri_telemetry::Counter;
use mintri_triangulate::Triangulation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// The `k`-best selection state shared by [`best_k_of_stream`] and the
/// query layer's exhaustive [`Task::BestK`](crate::query::Task) path.
///
/// **Tie policy (pinned):** results are ordered by `(cost, production
/// index)`, ascending — of two results with equal cost, the one the
/// underlying enumeration produced *earlier* wins, and the kept `k` are
/// reported in exactly that order. [`RankedStream`] and
/// [`RankedComposed`] emit the identical order under ties (the
/// regression test `ranked_stream_matches_top_k_order_under_ties` and
/// the cross-gear proptests hold both gears to it), so `ranked(true)`
/// and `ranked(false)` queries are observationally equivalent on the
/// winners.
pub(crate) struct TopK<C: Ord> {
    k: usize,
    // (cost, production index) keeps ordering deterministic under ties
    kept: Vec<(C, usize, Triangulation)>,
}

impl<C: Ord> TopK<C> {
    pub(crate) fn new(k: usize) -> Self {
        TopK {
            k,
            kept: Vec::with_capacity(k.min(1024) + 1),
        }
    }

    /// Offers the `i`-th scanned triangulation with its cost. `i` must be
    /// the production index of the underlying enumeration: it is the tie
    /// breaker — equal-cost results keep their production order, so the
    /// `i`-th result is kept over a later equal-cost `j`-th (`i < j`).
    pub(crate) fn offer(&mut self, c: C, i: usize, tri: Triangulation) {
        // only insert if it beats the current worst (or there is room)
        if self.kept.len() < self.k
            || self
                .kept
                .last()
                .is_some_and(|(wc, wi, _)| (&c, &i) < (wc, wi))
        {
            let pos = self
                .kept
                .binary_search_by(|(ec, ei, _)| (ec, ei).cmp(&(&c, &i)))
                .unwrap_or_else(|p| p);
            self.kept.insert(pos, (c, i, tri));
            self.kept.truncate(self.k);
        }
    }

    /// The winners, ascending by `(cost, production index)`.
    pub(crate) fn into_vec(self) -> Vec<Triangulation> {
        self.kept.into_iter().map(|(_, _, t)| t).collect()
    }
}

/// The selection loop behind the exhaustive [`Task::BestK`](crate::query::Task)
/// path, applicable to *any* triangulation stream with *any* cost closure
/// (the engine's replayed/parallel streams and application-specific
/// measures reuse it): keep the `k` best under `cost` within `budget`,
/// ascending, ties keeping the earlier-produced result first (the
/// `TopK` tie policy). This is the fallback for cost measures that
/// cannot ride the ranked gear — closures are not serializable and have
/// no admissible floor.
pub fn best_k_of_stream<C, F>(
    stream: impl IntoIterator<Item = Triangulation>,
    k: usize,
    budget: EnumerationBudget,
    cost: F,
) -> Vec<Triangulation>
where
    C: Ord,
    F: Fn(&Triangulation) -> C,
{
    let started = Instant::now();
    let mut top = TopK::new(k);
    for (i, tri) in stream.into_iter().enumerate() {
        if budget.exhausted(i, started) {
            break;
        }
        let c = cost(&tri);
        top.offer(c, i, tri);
    }
    top.into_vec()
}

// ---------------------------------------------------------------------
// Admissible cost floors
// ---------------------------------------------------------------------

/// An *admissible* lower bound on `measure` over **every** minimal
/// triangulation of `g` — the certificate that lets [`RankedStream`]
/// release a buffered result early: once a result's cost is down at the
/// floor, no future result can undercut it (and a future cost-tie loses
/// on production index). A loose floor never breaks correctness, only
/// output-sensitivity (the stream degrades toward a full sorted drain).
///
/// * [`CostMeasure::Width`]: the degeneracy of `g`. Degeneracy ≤
///   treewidth ≤ width of any triangulation.
/// * [`CostMeasure::Fill`]: a greedy vertex-disjoint packing of shortest
///   (hence chordless) cycles, each of length `ℓ` contributing `ℓ − 3`.
///   Any triangulation must add ≥ `ℓ − 3` fill edges inside each
///   chordless cycle, and vertex-disjoint cycles have disjoint fill-edge
///   candidates, so the contributions add.
///
/// On the families where best-k matters most — cycles with a few chords,
/// chained cycles — both floors are *tight* (every minimal triangulation
/// of `C_n` has width 2 and fill `n − 3`), which is what turns best-k
/// from a full drain into ~`k` pulls.
pub fn cost_floor(g: &Graph, measure: CostMeasure) -> usize {
    match measure {
        CostMeasure::Width => degeneracy(g),
        CostMeasure::Fill => fill_packing_floor(g),
    }
}

/// The degeneracy of `g`: the largest minimum degree over the
/// peeling-order suffixes. A classic treewidth lower bound.
fn degeneracy(g: &Graph) -> usize {
    let n = g.num_nodes();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v as Node)).collect();
    let mut alive = vec![true; n];
    let mut best = 0;
    for _ in 0..n {
        let Some(v) = (0..n).filter(|&v| alive[v]).min_by_key(|&v| deg[v]) else {
            break;
        };
        best = best.max(deg[v]);
        alive[v] = false;
        for u in g.neighbors(v as Node).iter() {
            if alive[u as usize] {
                deg[u as usize] -= 1;
            }
        }
    }
    best
}

/// Greedy vertex-disjoint shortest-cycle packing: repeatedly find a
/// shortest cycle in the residual graph (shortest ⇒ chordless; chordless
/// survives vertex deletion), charge `len − 3`, delete its vertices.
fn fill_packing_floor(g: &Graph) -> usize {
    let n = g.num_nodes();
    let mut alive = vec![true; n];
    let mut floor = 0;
    while let Some(cycle) = shortest_cycle(g, &alive) {
        floor += cycle.len().saturating_sub(3);
        for v in cycle {
            alive[v] = false;
        }
    }
    floor
}

/// A shortest cycle among `alive` vertices, or `None` when the residual
/// graph is acyclic. BFS from every vertex; a non-tree edge `(u, w)` seen
/// from root `r` witnesses a closed walk of length `dist(u) + dist(w) + 1`
/// ≥ girth, with equality (and a *simple* reconstruction) attained from
/// any root on a shortest cycle. The reconstruction is verified; on any
/// mismatch the packing simply stops early, keeping the floor admissible.
fn shortest_cycle(g: &Graph, alive: &[bool]) -> Option<Vec<usize>> {
    let n = g.num_nodes();
    let mut best: Option<(usize, usize)> = None; // (walk length, root)
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    let bfs = |root: usize,
               dist: &mut Vec<usize>,
               parent: &mut Vec<usize>,
               queue: &mut std::collections::VecDeque<usize>| {
        dist.iter_mut().for_each(|d| *d = usize::MAX);
        parent.iter_mut().for_each(|p| *p = usize::MAX);
        queue.clear();
        dist[root] = 0;
        queue.push_back(root);
        let mut shortest = usize::MAX;
        while let Some(u) = queue.pop_front() {
            for w in g.neighbors(u as Node).iter() {
                let w = w as usize;
                if !alive[w] {
                    continue;
                }
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    parent[w] = u;
                    queue.push_back(w);
                } else if parent[u] != w && parent[w] != u {
                    shortest = shortest.min(dist[u] + dist[w] + 1);
                }
            }
        }
        shortest
    };
    for r in (0..n).filter(|&r| alive[r]) {
        let walk = bfs(r, &mut dist, &mut parent, &mut queue);
        if walk < best.map_or(usize::MAX, |(len, _)| len) {
            best = Some((walk, r));
        }
    }
    let (len, root) = best?;
    // Re-run BFS from the witnessing root and reconstruct the cycle from
    // the cheapest non-tree edge.
    bfs(root, &mut dist, &mut parent, &mut queue);
    let mut edge: Option<(usize, usize)> = None;
    'scan: for u in (0..n).filter(|&u| alive[u] && dist[u] != usize::MAX) {
        for w in g.neighbors(u as Node).iter() {
            let w = w as usize;
            if alive[w]
                && dist[w] != usize::MAX
                && parent[u] != w
                && parent[w] != u
                && dist[u] + dist[w] + 1 == len
            {
                edge = Some((u, w));
                break 'scan;
            }
        }
    }
    let (u, w) = edge?;
    let path_to_root = |mut v: usize| {
        let mut path = vec![v];
        while parent[v] != usize::MAX {
            v = parent[v];
            path.push(v);
        }
        path
    };
    let (pu, pw) = (path_to_root(u), path_to_root(w));
    let mut cycle = pu;
    // drop the shared root from one side; at the minimum the two paths
    // are internally disjoint, which the length check below verifies
    cycle.extend(pw.into_iter().rev().skip(1));
    if cycle.len() != len {
        return None;
    }
    let mut seen = vec![false; n];
    for &v in &cycle {
        if seen[v] {
            return None;
        }
        seen[v] = true;
    }
    Some(cycle)
}

// ---------------------------------------------------------------------
// The ranked gear: a best-first reordering buffer with a floor gate
// ---------------------------------------------------------------------

/// One ranked emission: the triangulation, its cost under the stream's
/// measure, and its production index in the underlying deterministic
/// enumeration (the tie breaker; see `TopK`).
pub struct RankedItem {
    pub tri: Triangulation,
    pub cost: usize,
    pub index: usize,
}

/// A heap entry ordered by `(cost, production index)` — the pinned tie
/// policy. Production indices are unique, so the order is total.
struct Entry {
    cost: usize,
    index: usize,
    tri: Triangulation,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.index == other.index
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.cost, self.index).cmp(&(other.cost, other.index))
    }
}

/// Ranked (ascending-cost) enumeration over any deterministic
/// [`TriangulationStream`]: a min-heap reordering buffer keyed
/// `(cost, production index)`, released through an admissible floor gate.
///
/// The stream pulls raw results — each pull is one *expansion* of the
/// underlying `EnumMIS` schedule over the minimal-separator space, and
/// reuses whatever interned separators and labels the wrapped stream carries,
/// so warm engine sessions accelerate ranked queries exactly as they do
/// exhaustive ones. A buffered result is emitted as soon as its cost is
/// ≤ `floor` (nothing cheaper can still arrive, and a future cost-tie
/// loses on production index) or the source is exhausted (the heap then
/// drains in sorted order). With a tight floor — see [`cost_floor`] —
/// a best-k consumer stops after ~`k` expansions.
///
/// Emission order is therefore exactly ascending `(cost, production
/// index)`: bit-for-bit the order `TopK` reports, for any prefix.
pub struct RankedStream<'a> {
    inner: Option<Box<dyn TriangulationStream + 'a>>,
    measure: CostMeasure,
    floor: usize,
    heap: BinaryHeap<Reverse<Entry>>,
    pulled: usize,
    replay: bool,
    stats: Option<EnumMisStats>,
    expansions: Option<Arc<Counter>>,
}

impl<'a> RankedStream<'a> {
    /// Wraps `inner` — which must enumerate deterministically; its
    /// production order is the tie order — with the admissible `floor`
    /// for `measure` (see [`cost_floor`]).
    pub fn over(
        inner: Box<dyn TriangulationStream + 'a>,
        measure: CostMeasure,
        floor: usize,
    ) -> Self {
        let replay = inner.is_replay();
        RankedStream {
            inner: Some(inner),
            measure,
            floor,
            heap: BinaryHeap::new(),
            pulled: 0,
            replay,
            stats: None,
            expansions: None,
        }
    }

    /// Counts every raw pull on `counter` (engine telemetry:
    /// `mintri_engine_ranked_expansions_total`). Write-only on the hot
    /// path — one relaxed atomic add per expansion.
    pub fn with_expansion_counter(mut self, counter: Arc<Counter>) -> Self {
        self.expansions = Some(counter);
        self
    }

    /// Raw results pulled from the underlying stream so far.
    pub fn expansions(&self) -> usize {
        self.pulled
    }

    /// The next emission in ascending `(cost, production index)` order,
    /// with its cost and tie index exposed (the composed odometer feeds
    /// on these).
    pub fn next_ranked(&mut self) -> Option<RankedItem> {
        loop {
            let can_emit = match self.heap.peek() {
                Some(Reverse(e)) => self.inner.is_none() || e.cost <= self.floor,
                None => false,
            };
            if can_emit {
                let Reverse(e) = self.heap.pop().expect("peeked entry");
                return Some(RankedItem {
                    tri: e.tri,
                    cost: e.cost,
                    index: e.index,
                });
            }
            let inner = self.inner.as_mut()?;
            match inner.next_tri() {
                Some(tri) => {
                    if let Some(c) = &self.expansions {
                        c.inc();
                    }
                    let cost = self.measure.evaluate(&tri);
                    self.heap.push(Reverse(Entry {
                        cost,
                        index: self.pulled,
                        tri,
                    }));
                    self.pulled += 1;
                }
                None => {
                    self.stats = inner.enum_stats();
                    self.inner = None;
                    // loop around: drain the heap in sorted order
                }
            }
        }
    }
}

impl TriangulationStream for RankedStream<'_> {
    fn next_tri(&mut self) -> Option<Triangulation> {
        self.next_ranked().map(|item| item.tri)
    }

    fn enum_stats(&self) -> Option<EnumMisStats> {
        match &self.inner {
            Some(inner) => inner.enum_stats(),
            None => self.stats,
        }
    }

    fn is_replay(&self) -> bool {
        self.replay
    }
}

// ---------------------------------------------------------------------
// The ranked odometer over composed plans
// ---------------------------------------------------------------------

/// One atom's contribution to a [`RankedComposed`] stream: its ranked
/// stream (atom-local node ids) plus the map back into the composed
/// graph's ids. The ranked sibling of [`AtomStream`](crate::plan::AtomStream).
pub struct RankedAtom<'a> {
    pub stream: RankedStream<'a>,
    pub old_of: Vec<Node>,
}

/// One atom emission, cached: fill mapped to base-graph ids, cost, and
/// the atom's own production index (its digit order in the exhaustive
/// odometer — the tie key).
struct RankedResult {
    fill: Vec<(Node, Node)>,
    cost: usize,
    index: usize,
}

struct RankedCursor<'a> {
    stream: Option<RankedStream<'a>>,
    old_of: Vec<Node>,
    /// Emissions so far, in the ranked order `(cost, index)`.
    results: Vec<RankedResult>,
    replay: bool,
    stats: Option<EnumMisStats>,
}

impl<'a> RankedCursor<'a> {
    fn new(atom: RankedAtom<'a>) -> Self {
        let replay = atom.stream.is_replay();
        RankedCursor {
            stream: Some(atom.stream),
            old_of: atom.old_of,
            results: Vec::new(),
            replay,
            stats: None,
        }
    }

    /// Pulls one more emission into `results`; `false` when the stream
    /// has ended.
    fn fetch(&mut self) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        match stream.next_ranked() {
            Some(item) => {
                let fill = item
                    .tri
                    .fill
                    .iter()
                    .map(|&(u, v)| {
                        let (a, b) = (self.old_of[u as usize], self.old_of[v as usize]);
                        if a < b {
                            (a, b)
                        } else {
                            (b, a)
                        }
                    })
                    .collect();
                self.results.push(RankedResult {
                    fill,
                    cost: item.cost,
                    index: item.index,
                });
                true
            }
            None => {
                self.stats = stream.enum_stats();
                self.stream = None;
                false
            }
        }
    }

    fn live(&self) -> bool {
        self.stream.is_some()
    }

    /// Cheapest emission cost; cursors are primed before use.
    fn min_cost(&self) -> usize {
        self.results[0].cost
    }

    fn last_cost(&self) -> Option<usize> {
        self.results.last().map(|r| r.cost)
    }

    fn stats(&self) -> Option<EnumMisStats> {
        match &self.stream {
            Some(stream) => stream.enum_stats(),
            None => self.stats,
        }
    }
}

/// An atom's qualifying window for the current level.
enum QualView {
    /// Single-cost window: the plateau `cost == bound` at the head of the
    /// ranked emission order, streamed **lazily** — within equal cost the
    /// ranked order *is* the production order, so the plateau arrives
    /// already digit-ordered and the big atom never drains.
    Plateau { bound: usize },
    /// Multi-cost window `cost ≤ bound`, fully materialized and re-sorted
    /// by the atom's production index (the exhaustive odometer's digit
    /// order). `positions` index into the cursor's `results`.
    Sorted { positions: Vec<usize>, bound: usize },
}

impl QualView {
    fn bound(&self) -> usize {
        match self {
            QualView::Plateau { bound } => *bound,
            QualView::Sorted { bound, .. } => *bound,
        }
    }
}

/// One digit of the current tuple.
struct Frame {
    /// Position within the atom's qualifying sequence.
    view_pos: usize,
    /// Index into the cursor's `results`.
    result_idx: usize,
    cost: usize,
}

enum Step {
    Found,
    LevelDone,
}

enum LevelAdvance {
    Next(usize),
    Complete,
}

/// The ranked odometer over a composed plan: emits the *composed*
/// minimal triangulations of the base graph in ascending total-cost
/// order, pulling each atom's [`RankedStream`] only as far as the
/// current cost level demands — a Lawler/Murty-style successor expansion
/// collapsed onto the plan's lattice structure, so planned multi-atom
/// best-k never materializes the cross product.
///
/// Cost aggregation is exact, not heuristic:
/// * **Fill** adds across atoms (fill never crosses the decomposition's
///   clique separators, and distinct atoms cannot contribute the same
///   fill edge — a shared pair lies inside a clique separator and is
///   already an edge);
/// * **Width** is `max(width_const, per-atom widths)` where
///   `width_const` covers the decomposition's *chordal* atoms (every
///   maximal clique of the composed triangulation lives inside some
///   decomposition atom).
///
/// Emission order is ascending `(total cost, per-atom production-index
/// tuple in lex order with the last atom fastest)` — exactly the order
/// the exhaustive [`ComposedStream`](crate::plan::ComposedStream) +
/// `TopK` pipeline reports, bit for bit. Levels advance through
/// *achievable* totals only (a suffix reachable-sum DP over the known
/// per-atom cost values prunes infeasible combinations), and the only
/// place an atom is pulled past its qualifying window is the level
/// advance itself — a best-k consumer that stops inside level 0 pays
/// ~`k` atom pulls, full stop.
pub struct RankedComposed<'a> {
    base: Graph,
    measure: CostMeasure,
    /// Fixed width contribution of the decomposition's chordal atoms
    /// (0 when there are none). Unused for fill: chordal atoms add none.
    width_const: usize,
    cursors: Vec<RankedCursor<'a>>,
    /// Current total-cost level.
    level: usize,
    views: Vec<QualView>,
    /// `suffix_sums[i][s]`: atoms `i..` can contribute exactly `s`
    /// (fill only; index `m` is `{0}`).
    suffix_sums: Vec<Vec<bool>>,
    /// `suffix_has_level[i]`: some atom `≥ i` has a window value equal to
    /// the level (width only, consulted when `level > width_const`).
    suffix_has_level: Vec<bool>,
    frames: Vec<Frame>,
    started: bool,
    fresh_level: bool,
    base_emitted: bool,
    /// The product has ended: a later pull returns `None` at once.
    halted: bool,
}

impl<'a> RankedComposed<'a> {
    /// `width_const` is the chordal-atom width floor of the plan (pass 0
    /// for fill); see [`Plan::chordal_width`](crate::plan::Plan::chordal_width).
    pub fn new(
        base: Graph,
        measure: CostMeasure,
        width_const: usize,
        atoms: Vec<RankedAtom<'a>>,
    ) -> Self {
        RankedComposed {
            base,
            measure,
            width_const,
            cursors: atoms.into_iter().map(RankedCursor::new).collect(),
            level: 0,
            views: Vec::new(),
            suffix_sums: Vec::new(),
            suffix_has_level: Vec::new(),
            frames: Vec::new(),
            started: false,
            fresh_level: false,
            base_emitted: false,
            halted: false,
        }
    }

    /// The index into `results` of the `pos`-th qualifying result of
    /// atom `i` at the current level, in digit (production-index) order;
    /// `None` past the window's end.
    fn qual(&mut self, i: usize, pos: usize) -> Option<usize> {
        match &self.views[i] {
            QualView::Plateau { bound } => {
                let bound = *bound;
                while self.cursors[i].results.len() <= pos {
                    if !self.cursors[i].fetch() {
                        return None;
                    }
                }
                (self.cursors[i].results[pos].cost <= bound).then_some(pos)
            }
            QualView::Sorted { positions, .. } => positions.get(pos).copied(),
        }
    }

    /// Whether digit value `cost` at atom `i` can extend the current
    /// prefix (`frames[..i]`) to an exact-level tuple.
    fn digit_feasible(&self, i: usize, cost: usize) -> bool {
        match self.measure {
            CostMeasure::Fill => {
                let partial: usize = self.frames[..i].iter().map(|f| f.cost).sum();
                let rem = self.level - partial;
                cost <= rem
                    && self.suffix_sums[i + 1]
                        .get(rem - cost)
                        .copied()
                        .unwrap_or(false)
            }
            CostMeasure::Width => {
                let need_level = self.level > self.width_const
                    && !self.frames[..i].iter().any(|f| f.cost == self.level);
                !need_level || cost == self.level || self.suffix_has_level[i + 1]
            }
        }
    }

    /// First feasible digit of atom `i` at position ≥ `pos`, or `None`
    /// when the window is exhausted for this prefix.
    fn next_valid(&mut self, i: usize, mut pos: usize) -> Option<Frame> {
        if let QualView::Plateau { bound } = self.views[i] {
            // every plateau value is the same: decide feasibility once,
            // then only existence remains — this is what keeps a large
            // single-cost atom from draining
            if !self.digit_feasible(i, bound) {
                return None;
            }
            let idx = self.qual(i, pos)?;
            return Some(Frame {
                view_pos: pos,
                result_idx: idx,
                cost: self.cursors[i].results[idx].cost,
            });
        }
        loop {
            let idx = self.qual(i, pos)?;
            let cost = self.cursors[i].results[idx].cost;
            if self.digit_feasible(i, cost) {
                return Some(Frame {
                    view_pos: pos,
                    result_idx: idx,
                    cost,
                });
            }
            pos += 1;
        }
    }

    /// Advances to the next exact-level tuple in digit-lex order (last
    /// atom fastest), or reports the level exhausted.
    fn step_tuple(&mut self, fresh: bool) -> Step {
        let m = self.cursors.len();
        let mut pos;
        if fresh {
            self.frames.clear();
            pos = 0;
        } else {
            let f = self.frames.pop().expect("advance from a complete tuple");
            pos = f.view_pos + 1;
        }
        loop {
            let i = self.frames.len();
            match self.next_valid(i, pos) {
                Some(frame) => {
                    self.frames.push(frame);
                    if self.frames.len() == m {
                        return Step::Found;
                    }
                    pos = 0;
                }
                None => match self.frames.pop() {
                    Some(f) => pos = f.view_pos + 1,
                    None => return Step::LevelDone,
                },
            }
        }
    }

    /// Rebuilds the per-atom windows and suffix feasibility for `level`.
    fn build_level(&mut self, level: usize) {
        self.level = level;
        let m = self.cursors.len();
        let total_min: usize = self.cursors.iter().map(|c| c.min_cost()).sum();
        self.views.clear();
        for i in 0..m {
            let min_i = self.cursors[i].min_cost();
            let bound = match self.measure {
                CostMeasure::Fill => level - (total_min - min_i),
                CostMeasure::Width => level,
            };
            if bound <= min_i {
                self.views.push(QualView::Plateau { bound: min_i });
            } else {
                // multi-cost window: materialize it fully (one emission
                // past the bound marks it complete), then re-sort into
                // digit order
                loop {
                    let c = &self.cursors[i];
                    if !c.live() || c.last_cost().is_some_and(|lc| lc > bound) {
                        break;
                    }
                    self.cursors[i].fetch();
                }
                let mut positions: Vec<usize> = (0..self.cursors[i].results.len())
                    .filter(|&p| self.cursors[i].results[p].cost <= bound)
                    .collect();
                positions.sort_by_key(|&p| self.cursors[i].results[p].index);
                self.views.push(QualView::Sorted { positions, bound });
            }
        }
        match self.measure {
            CostMeasure::Fill => {
                self.suffix_sums = vec![Vec::new(); m + 1];
                let mut acc = vec![false; level + 1];
                acc[0] = true;
                self.suffix_sums[m] = acc.clone();
                for i in (0..m).rev() {
                    let values = self.window_values(i);
                    let mut next = vec![false; level + 1];
                    for (s, _) in acc.iter().enumerate().filter(|(_, &ok)| ok) {
                        for &v in &values {
                            if s + v <= level {
                                next[s + v] = true;
                            }
                        }
                    }
                    acc = next;
                    self.suffix_sums[i] = acc.clone();
                }
            }
            CostMeasure::Width => {
                self.suffix_has_level = vec![false; m + 1];
                for i in (0..m).rev() {
                    let has = self.window_values(i).contains(&level);
                    self.suffix_has_level[i] = has || self.suffix_has_level[i + 1];
                }
            }
        }
    }

    /// Distinct cost values in atom `i`'s current window.
    fn window_values(&self, i: usize) -> Vec<usize> {
        match &self.views[i] {
            QualView::Plateau { bound } => vec![*bound],
            QualView::Sorted { positions, .. } => {
                let mut vals: Vec<usize> = positions
                    .iter()
                    .map(|&p| self.cursors[i].results[p].cost)
                    .collect();
                vals.sort_unstable();
                vals.dedup();
                vals
            }
        }
    }

    /// The smallest achievable total above the current level, or
    /// `Complete` when the product is exhausted. This is the only place
    /// an atom is pulled past its window (the "plateau end" probe) —
    /// deferred until a consumer actually outlives the level.
    fn next_level(&mut self) -> LevelAdvance {
        let m = self.cursors.len();
        for i in 0..m {
            let bound = self.views[i].bound();
            loop {
                let c = &self.cursors[i];
                if !c.live() || c.last_cost().is_some_and(|lc| lc > bound) {
                    break;
                }
                self.cursors[i].fetch();
            }
        }
        let candidate = match self.measure {
            CostMeasure::Width => self
                .cursors
                .iter()
                .flat_map(|c| c.results.iter().map(|r| r.cost))
                .filter(|&v| v > self.level)
                .min(),
            CostMeasure::Fill => {
                // exact-sum DP over the known distinct values; every
                // not-yet-seen value of a live atom exceeds its window
                // bound, so the cheapest unseen-bearing total is already
                // dominated by a known combination
                let value_sets: Vec<Vec<usize>> = self
                    .cursors
                    .iter()
                    .map(|c| {
                        let mut v: Vec<usize> = c.results.iter().map(|r| r.cost).collect();
                        v.sort_unstable();
                        v.dedup();
                        v
                    })
                    .collect();
                let cap: usize = value_sets
                    .iter()
                    .map(|v| v.last().copied().unwrap_or(0))
                    .sum();
                let mut acc = vec![false; cap + 1];
                acc[0] = true;
                for values in &value_sets {
                    let mut next = vec![false; cap + 1];
                    for (s, _) in acc.iter().enumerate().filter(|(_, &ok)| ok) {
                        for &v in values {
                            if s + v <= cap {
                                next[s + v] = true;
                            }
                        }
                    }
                    acc = next;
                }
                (self.level + 1..=cap).find(|&s| acc[s])
            }
        };
        match candidate {
            Some(c) => LevelAdvance::Next(c),
            None => {
                debug_assert!(
                    self.cursors.iter().all(|c| !c.live()),
                    "a live cursor always yields a next-level candidate"
                );
                LevelAdvance::Complete
            }
        }
    }

    fn materialize(&self) -> Triangulation {
        let fills = self.frames.iter().zip(&self.cursors);
        let tri = compose_row(
            &self.base,
            fills.map(|(frame, cursor)| cursor.results[frame.result_idx].fill.as_slice()),
        );
        debug_assert_eq!(
            self.measure.evaluate(&tri),
            self.level,
            "composed cost aggregation must equal the measure on the materialized result"
        );
        tri
    }
}

impl TriangulationStream for RankedComposed<'_> {
    fn next_tri(&mut self) -> Option<Triangulation> {
        if self.halted {
            return None;
        }
        if self.cursors.is_empty() {
            // fully chordal decomposition: the base is its own (unique)
            // minimal triangulation
            if self.base_emitted {
                self.halted = true;
                return None;
            }
            self.base_emitted = true;
            return Some(Triangulation {
                graph: self.base.clone(),
                fill: Vec::new(),
                peo: None,
            });
        }
        if !self.started {
            self.started = true;
            for i in 0..self.cursors.len() {
                if !self.cursors[i].fetch() {
                    // an empty atom stream: empty product
                    self.halted = true;
                    return None;
                }
            }
            let c0 = match self.measure {
                CostMeasure::Fill => self.cursors.iter().map(|c| c.min_cost()).sum(),
                CostMeasure::Width => self
                    .cursors
                    .iter()
                    .map(|c| c.min_cost())
                    .fold(self.width_const, usize::max),
            };
            self.build_level(c0);
            self.fresh_level = true;
        }
        loop {
            let step = self.step_tuple(self.fresh_level);
            self.fresh_level = false;
            match step {
                Step::Found => return Some(self.materialize()),
                Step::LevelDone => match self.next_level() {
                    LevelAdvance::Complete => {
                        self.halted = true;
                        return None;
                    }
                    LevelAdvance::Next(c) => {
                        self.build_level(c);
                        self.fresh_level = true;
                    }
                },
            }
        }
    }

    /// Per-atom kernel counters, summed (the ranked analogue of
    /// [`ComposedStream::enum_stats`](crate::plan::ComposedStream)); the
    /// totals reflect only the expansions the ranked frontier actually
    /// paid for.
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
    use crate::query::{CostMeasure, Query};
    use crate::BruteForce;
    use mintri_graph::Graph;

    fn best_k(
        g: &Graph,
        k: usize,
        cost: CostMeasure,
        budget: EnumerationBudget,
    ) -> Vec<Triangulation> {
        Query::best_k(k, cost)
            .budget(budget)
            .run_local(g)
            .triangulations()
    }

    #[test]
    fn best_fill_on_a_cycle_is_optimal() {
        let g = Graph::cycle(8);
        let best = best_k(&g, 1, CostMeasure::Fill, EnumerationBudget::unlimited());
        assert_eq!(best[0].fill_count(), 5);
    }

    #[test]
    fn best_width_matches_exhaustive_minimum() {
        let g = Graph::from_edges(
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
                (1, 4),
            ],
        );
        let exhaustive_min = BruteForce::minimal_triangulations(&g)
            .iter()
            .map(mintri_chordal::treewidth_of_chordal)
            .min()
            .unwrap();
        let best = best_k(&g, 1, CostMeasure::Width, EnumerationBudget::unlimited());
        assert_eq!(best[0].width(), exhaustive_min);
    }

    #[test]
    fn top_k_is_sorted_and_bounded() {
        let g = Graph::cycle(6);
        let top = best_k(&g, 5, CostMeasure::Fill, EnumerationBudget::unlimited());
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].fill_count() <= w[1].fill_count());
        }
        // k larger than the answer count returns everything
        let all = best_k(&g, 100, CostMeasure::Width, EnumerationBudget::unlimited());
        assert_eq!(all.len(), 14);
    }

    #[test]
    fn result_budget_limits_exploration() {
        let g = Graph::cycle(9);
        let top = best_k(&g, 2, CostMeasure::Fill, EnumerationBudget::results(5));
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn zero_k_is_empty() {
        let g = Graph::cycle(5);
        assert!(best_k(&g, 0, CostMeasure::Width, EnumerationBudget::unlimited()).is_empty());
    }

    #[test]
    fn custom_cost_closures_run_through_best_k_of_stream() {
        let g = Graph::cycle(7);
        let via_stream: Vec<_> = best_k_of_stream(
            Query::enumerate()
                .run_local(&g)
                .filter_map(crate::query::QueryItem::into_triangulation),
            4,
            EnumerationBudget::unlimited(),
            |t| t.fill_count(),
        )
        .iter()
        .map(|t| t.graph.edges())
        .collect();
        let via_query: Vec<_> = Query::best_k(4, CostMeasure::Fill)
            .run_local(&g)
            .triangulations()
            .iter()
            .map(|t| t.graph.edges())
            .collect();
        assert_eq!(via_stream, via_query);
    }

    // -- the ranked gear --------------------------------------------------

    /// All results from a flat deterministic stream, as the exhaustive
    /// path produces them (production order).
    fn production_order(g: &Graph) -> Vec<Triangulation> {
        Query::enumerate()
            .policy(crate::query::ExecPolicy::default().with_planned(false))
            .run_local(g)
            .triangulations()
    }

    #[test]
    fn width_floor_is_admissible_and_tight_on_cycles() {
        for n in 4..10 {
            let g = Graph::cycle(n);
            assert_eq!(cost_floor(&g, CostMeasure::Width), 2, "C{n}");
            assert_eq!(cost_floor(&g, CostMeasure::Fill), n - 3, "C{n}");
        }
    }

    #[test]
    fn floors_never_exceed_the_cheapest_triangulation() {
        use crate::MinimalTriangulationsEnumerator;
        for seed in 0..30u64 {
            // small pseudo-random graphs, deterministic in seed
            let n = 5 + (seed % 4) as usize;
            let mut g = Graph::new(n);
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            for u in 0..n as Node {
                for v in (u + 1)..n as Node {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if x >> 62 != 0 {
                        g.add_edge(u, v);
                    }
                }
            }
            let mut min_width = usize::MAX;
            let mut min_fill = usize::MAX;
            for t in MinimalTriangulationsEnumerator::new(&g) {
                min_width = min_width.min(t.width());
                min_fill = min_fill.min(t.fill_count());
            }
            assert!(
                cost_floor(&g, CostMeasure::Width) <= min_width,
                "width floor inadmissible, seed {seed}"
            );
            assert!(
                cost_floor(&g, CostMeasure::Fill) <= min_fill,
                "fill floor inadmissible, seed {seed}"
            );
        }
    }

    /// The pinned tie policy: `RankedStream` must emit exactly the order
    /// `TopK` keeps — `(cost, production index)` ascending — on a family
    /// that is *all* ties (every minimal triangulation of a cycle has the
    /// same width and the same fill).
    #[test]
    fn ranked_stream_matches_top_k_order_under_ties() {
        for measure in [CostMeasure::Width, CostMeasure::Fill] {
            let g = Graph::cycle(7);
            let all = production_order(&g);
            let mut top = TopK::new(all.len());
            for (i, t) in all.iter().enumerate() {
                top.offer(measure.evaluate(t), i, t.clone());
            }
            let exhaustive: Vec<_> = top.into_vec().iter().map(|t| t.graph.edges()).collect();

            let ranked = Query::best_k(all.len(), measure)
                .policy(crate::query::ExecPolicy::default().with_planned(false))
                .run_local(&g)
                .triangulations();
            let ranked: Vec<_> = ranked.iter().map(|t| t.graph.edges()).collect();
            assert_eq!(ranked, exhaustive, "{measure:?}");
        }
    }

    /// Ranked best-k is output-sensitive when the floor is tight: on a
    /// cycle (all ties, floor exact) the underlying enumeration is pulled
    /// only k times.
    #[test]
    fn ranked_best_k_scans_only_k_on_a_tight_floor() {
        let g = Graph::cycle(9); // 429 minimal triangulations
        let mut response = Query::best_k(3, CostMeasure::Fill)
            .policy(crate::query::ExecPolicy::default().with_planned(false))
            .run_local(&g);
        let best = response.triangulations();
        assert_eq!(best.len(), 3);
        let outcome = response.outcome();
        assert!(outcome.completed, "k exact winners are a complete answer");
        assert_eq!(outcome.scanned, 3, "output-sensitive: ~k pulls, not 429");
    }

    /// Ranked and exhaustive agree — same winners, same order — on a
    /// graph with genuinely varied costs (not just plateaus).
    #[test]
    fn ranked_matches_exhaustive_on_varied_costs() {
        let g = Graph::from_edges(
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
                (1, 4),
            ],
        );
        for measure in [CostMeasure::Width, CostMeasure::Fill] {
            for k in [1, 3, 100] {
                for planned in [true, false] {
                    let policy = crate::query::ExecPolicy::default().with_planned(planned);
                    let ranked: Vec<_> = Query::best_k(k, measure)
                        .policy(policy)
                        .run_local(&g)
                        .triangulations()
                        .iter()
                        .map(|t| t.graph.edges())
                        .collect();
                    let exhaustive: Vec<_> = Query::best_k(k, measure)
                        .policy(policy.with_ranked(false))
                        .run_local(&g)
                        .triangulations()
                        .iter()
                        .map(|t| t.graph.edges())
                        .collect();
                    assert_eq!(ranked, exhaustive, "{measure:?} k={k} planned={planned}");
                }
            }
        }
    }
}
