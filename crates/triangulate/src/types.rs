//! The triangulation result type and the pluggable `Triangulate` black box
//! of the paper's `Extend` procedure (Figure 3).

use mintri_graph::{Graph, Node, NodeSet};

/// The result of triangulating a graph `g`: a chordal supergraph plus the
/// fill edges that were added (`E(h) \ E(g)`, Section 2.3).
#[derive(Debug, Clone)]
pub struct Triangulation {
    /// The chordal supergraph `h`.
    pub graph: Graph,
    /// The added edges, each with `u < v`, in no particular order.
    pub fill: Vec<(Node, Node)>,
    /// A perfect elimination order of `graph` if the algorithm produced one
    /// as a by-product (index 0 is eliminated first).
    pub peo: Option<Vec<Node>>,
}

impl Triangulation {
    /// The *fill* quality measure: number of added edges.
    pub fn fill_count(&self) -> usize {
        self.fill.len()
    }

    /// The *width* quality measure: size of the largest clique of the
    /// triangulation, minus one (equals the width of the induced proper
    /// tree decomposition).
    pub fn width(&self) -> usize {
        mintri_chordal::treewidth_of_chordal(&self.graph)
    }
}

/// A black-box triangulation procedure, the `Triangulate` parameter of
/// `Extend` (Figure 3). Implementations need not produce *minimal*
/// triangulations; the enumeration stack runs the minimal-triangulation
/// sandwich afterwards unless [`Triangulator::guarantees_minimal`] is true
/// (the paper skips the sandwich for MCS-M and LB-Triang, Section 6.1.2).
///
/// `Send + Sync` is required because the parallel engine invokes one
/// boxed triangulator from many worker threads at once; keep
/// implementations stateless or use atomics/locks for instrumentation.
pub trait Triangulator: Send + Sync {
    /// Produces a triangulation of `g`.
    fn triangulate(&self, g: &Graph) -> Triangulation;

    /// `true` iff every result is guaranteed to be a *minimal*
    /// triangulation, making the sandwich step unnecessary.
    fn guarantees_minimal(&self) -> bool {
        false
    }

    /// The scratch kernel hook: triangulates the graph already loaded
    /// into [`TriScratch::input`] and writes the fill edges, a perfect
    /// elimination order and the minimal separators `MinSep(h)` of a
    /// **minimal** triangulation `h` into `ws`, without materializing the
    /// chordal graph and allocation-free once the workspace is warm.
    /// Callers that build the input in place (`Extend` saturates `g[φ]`
    /// straight into it) call this directly. Returns `false` —
    /// the default — when the backend has no scratch kernel; callers fall
    /// back to the allocating path. Only backends with
    /// [`Triangulator::guarantees_minimal`] may return `true`.
    fn triangulate_loaded(&self, ws: &mut TriScratch) -> bool {
        let _ = ws;
        false
    }

    /// Scratch-space variant of [`Triangulator::triangulate`]: loads `g`
    /// into [`TriScratch::input`], then runs
    /// [`Triangulator::triangulate_loaded`].
    fn triangulate_into(&self, g: &Graph, ws: &mut TriScratch) -> bool {
        ws.input.clone_from(g);
        self.triangulate_loaded(ws)
    }

    /// Short human-readable name (used by the benchmark harness).
    fn name(&self) -> &'static str;
}

/// Reusable workspace for the scratch kernel
/// ([`Triangulator::triangulate_loaded`]): the input graph, the fill
/// list, elimination order and minimal separators a successful call
/// produces, and the MCS-M search buffers behind them, all flat words. One per enumeration stream; every buffer
/// grows to the largest graph seen and is reused thereafter.
#[derive(Default)]
pub struct TriScratch {
    /// The graph the next kernel call triangulates, loaded by
    /// [`Triangulator::triangulate_into`] or built in place by the caller
    /// (`clone_from` plus saturation), which reuses its word buffer.
    pub input: Graph,
    /// Fill edges of the last successful run, each with `u < v`.
    pub fill: Vec<(Node, Node)>,
    /// Perfect elimination order of the last successful run (index 0 is
    /// eliminated first).
    pub peo: Vec<Node>,
    // MCS-M internals (see `mcs_m_into`), each `width` words per set
    /// Per unnumbered vertex, its weight.
    pub(crate) weight: Vec<u32>,
    /// Weight level `k` (words `k·width..`): the unnumbered vertices of
    /// weight `k`.
    pub(crate) levels: Vec<u64>,
    /// Row `v`: the neighbours of `v` in the triangulation numbered
    /// before it.
    pub(crate) rows: Vec<u64>,
    /// The unnumbered set and the six per-step sets of the search.
    pub(crate) temps: Vec<u64>,
    /// The vertices whose `rows` are the minimal separators, one per
    /// distinct separator, sorted by row.
    pub(crate) generators: Vec<Node>,
    /// The separators as sets, one per generator, in the same order.
    pub(crate) separators: Vec<NodeSet>,
}

impl TriScratch {
    /// The minimal separators of the last successful run's triangulation,
    /// sorted by [`NodeSet`] order and without duplicates — the sequence
    /// `mintri_chordal::minimal_separators_with` reads off the chordal
    /// graph with a second search.
    pub fn separators(&self) -> impl ExactSizeIterator<Item = &NodeSet> + '_ {
        self.separators[..self.generators.len()].iter()
    }
}

/// One triangulator shared by many owners (the planning layer hands a
/// single query backend to every per-atom stream).
impl<T: Triangulator + ?Sized> Triangulator for std::sync::Arc<T> {
    fn triangulate(&self, g: &Graph) -> Triangulation {
        (**self).triangulate(g)
    }

    fn guarantees_minimal(&self) -> bool {
        (**self).guarantees_minimal()
    }

    fn triangulate_loaded(&self, ws: &mut TriScratch) -> bool {
        (**self).triangulate_loaded(ws)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The trivial baseline: add every missing edge. Never minimal (except on
/// complete graphs); exists to exercise the sandwich path and as the
/// "naive implementation" the paper mentions for `Triangulate`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompleteFill;

impl Triangulator for CompleteFill {
    fn triangulate(&self, g: &Graph) -> Triangulation {
        let n = g.num_nodes();
        let h = Graph::complete(n);
        let fill = h.fill_edges_over(g);
        Triangulation {
            graph: h,
            fill,
            peo: Some((0..n as Node).collect()),
        }
    }

    fn name(&self) -> &'static str {
        "COMPLETE_FILL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_fill_fills_everything() {
        let g = Graph::cycle(5);
        let t = CompleteFill.triangulate(&g);
        assert_eq!(t.graph.num_edges(), 10);
        assert_eq!(t.fill_count(), 5);
        assert_eq!(t.width(), 4);
        assert!(mintri_chordal::is_chordal(&t.graph));
        assert!(!CompleteFill.guarantees_minimal());
    }
}
