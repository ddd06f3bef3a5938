//! Clique-minimal-separator (atom) decomposition — Leimer's theorem,
//! computed the Berry–Pogorelčnik–Simonet way.
//!
//! An **atom** of `g` is a maximal connected induced subgraph with no
//! clique separator. Leimer (1993) showed the decomposition is unique
//! and *factors minimal triangulations*: `MinTri(g)` is exactly the set
//! of independent combinations of the minimal triangulations of the
//! atoms (clique separators are never filled, and fill never crosses
//! one). The enumeration stack plans over this decomposition
//! (`mintri_core::query::Plan`) so a graph of ten small atoms costs the
//! sum of ten small enumerations, not one exponential blob.
//!
//! Finding a clique minimal separator does **not** require enumerating
//! `MinSep(g)` (exponential): for any *minimal triangulation* `h` of
//! `g`, the clique minimal separators of `g` are precisely the minimal
//! separators of `h` that induce cliques in `g` (Berry, Pogorelčnik,
//! Simonet 2010). `h` has at most `|V| − 1` minimal separators, which
//! MCS-M reports as it builds `h` — so each decomposition step is one
//! MCS-M run through a workspace reused across steps, polynomial overall.
//!
//! ```
//! use mintri_graph::Graph;
//! use mintri_separators::atom_decomposition;
//!
//! // two 4-cycles sharing node 3: {3} is a clique minimal separator
//! let g = Graph::from_edges(
//!     7,
//!     &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)],
//! );
//! let d = atom_decomposition(&g);
//! assert_eq!(d.components.len(), 1);
//! assert_eq!(d.atoms.len(), 2); // the two cycles
//! assert_eq!(d.separators.len(), 1); // {3}
//! ```

use mintri_graph::traversal::{components_after_removing, components_within};
use mintri_graph::{Graph, NodeSet};
use mintri_triangulate::{mcs_m_into, TriScratch};

/// The clique-minimal-separator decomposition of a graph: connected
/// components, atoms, and the separators the decomposition split on.
/// All node sets are in the input graph's node ids.
#[derive(Debug, Clone)]
pub struct AtomDecomposition {
    /// Connected components of the input, ordered by smallest node.
    /// Isolated vertices are single-node components.
    pub components: Vec<NodeSet>,
    /// The atoms, in the deterministic order the decomposition emits
    /// them (components in order, then recursive blocks by smallest
    /// node). Every vertex lies in at least one atom; two atoms overlap
    /// only inside a clique separator.
    pub atoms: Vec<NodeSet>,
    /// The clique minimal separators the decomposition split on, sorted
    /// and deduplicated. (Empty iff every component is an atom.)
    pub separators: Vec<NodeSet>,
}

impl AtomDecomposition {
    /// `true` iff decomposing bought nothing: the graph is connected and
    /// is its own single atom.
    pub fn is_trivial(&self) -> bool {
        self.atoms.len() == 1 && self.components.len() == 1
    }
}

/// A clique minimal separator of `g`, if one exists — found through a
/// minimal triangulation, never through `MinSep(g)` enumeration. The
/// choice is canonical (the smallest candidate, in [`NodeSet`] order,
/// among the minimal separators of the MCS-M triangulation), so the
/// decomposition is deterministic.
///
/// `g` may be disconnected; only separators of a single component are
/// returned (the empty set is not a clique separator in this sense —
/// split disconnected graphs into components first).
pub fn find_clique_minimal_separator(g: &Graph) -> Option<NodeSet> {
    clique_minimal_separator_with(g, &mut TriScratch::default())
}

/// [`find_clique_minimal_separator`] through a reusable MCS-M workspace,
/// whose separators come out sorted: the first clique among them is the
/// canonical choice.
fn clique_minimal_separator_with(g: &Graph, ws: &mut TriScratch) -> Option<NodeSet> {
    mcs_m_into(g, ws);
    ws.separators().find(|s| g.is_clique(s)).cloned()
}

/// Computes the full [`AtomDecomposition`] of `g`: connected components
/// first, then Leimer's recursive split of each component by clique
/// minimal separators into blocks `C ∪ N(C)` until no clique separator
/// remains. Polynomial: one MCS-M triangulation per split, all through
/// one workspace.
pub fn atom_decomposition(g: &Graph) -> AtomDecomposition {
    let mut ws = TriScratch::default();
    decompose_by(g, &mut |sub| clique_minimal_separator_with(sub, &mut ws))
}

/// [`atom_decomposition`] with the clique-minimal-separator finder as a
/// parameter (the tests run the allocating reference through it).
fn decompose_by(g: &Graph, find: &mut impl FnMut(&Graph) -> Option<NodeSet>) -> AtomDecomposition {
    let components = components_within(g, &g.node_set());
    let mut atoms = Vec::new();
    let mut separators = Vec::new();
    for comp in &components {
        decompose_piece(g, comp.clone(), find, &mut atoms, &mut separators);
    }
    separators.sort();
    separators.dedup();
    AtomDecomposition {
        components,
        atoms,
        separators,
    }
}

/// Recursively splits the induced subgraph `g[piece]`, pushing its atoms
/// and the separators used. `piece` is connected.
fn decompose_piece(
    g: &Graph,
    piece: NodeSet,
    find: &mut impl FnMut(&Graph) -> Option<NodeSet>,
    atoms: &mut Vec<NodeSet>,
    seps: &mut Vec<NodeSet>,
) {
    let (sub, old_of) = g.induced_subgraph(&piece);
    let Some(sep_local) = find(&sub) else {
        atoms.push(piece);
        return;
    };
    seps.push(lift(&sep_local, &old_of, g.num_nodes()));
    // Leimer blocks: one `C ∪ N(C)` per component of the piece minus the
    // separator. Each block is strictly smaller than the piece (the
    // separator leaves at least two components), so this terminates.
    for comp in components_after_removing(&sub, &sep_local) {
        let mut block = sub.neighborhood_of_set(&comp);
        block.union_with(&comp);
        decompose_piece(g, lift(&block, &old_of, g.num_nodes()), find, atoms, seps);
    }
}

/// Maps a node set of a renumbered subgraph back to the parent graph's
/// ids through the `new -> old` table.
fn lift(local: &NodeSet, old_of: &[mintri_graph::Node], n: usize) -> NodeSet {
    NodeSet::from_iter(n, local.iter().map(|v| old_of[v as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_minimal_separators;
    use mintri_triangulate::{minimal_triangulation, McsM};
    use mintri_workloads::random::{chained_cycles, chord_cycle, erdos_renyi};
    use mintri_workloads::PgmFamily;
    use proptest::prelude::*;

    /// The allocating finder the workspace one replaced, kept as its
    /// oracle: one MCS-M triangulation, then the clique forest's minimal
    /// separators, sorted, and the first that is a clique.
    fn allocating_clique_minimal_separator(g: &Graph) -> Option<NodeSet> {
        let h = minimal_triangulation(g, &McsM);
        let mut candidates = mintri_chordal::minimal_separators_of_chordal(&h.graph);
        candidates.sort();
        candidates.into_iter().find(|s| g.is_clique(s))
    }

    /// `atom_decomposition` and the oracle finder decompose `g` into the
    /// same components, atoms (in order) and separators.
    fn assert_matches_allocating(g: &Graph) -> AtomDecomposition {
        let got = atom_decomposition(g);
        let want = decompose_by(g, &mut allocating_clique_minimal_separator);
        assert_eq!(got.components, want.components);
        assert_eq!(got.atoms, want.atoms);
        assert_eq!(got.separators, want.separators);
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sparse to dense random graphs (sparse ones split often).
        #[test]
        fn decomposition_matches_allocating_finder_on_gnp(
            n in 0usize..80,
            percent in 1u64..40,
            seed in any::<u64>(),
        ) {
            assert_matches_allocating(&erdos_renyi(n, percent as f64 / 100.0, seed));
        }

        /// Cycles chained through cut vertices, and cycles split by a chord.
        #[test]
        fn decomposition_matches_allocating_finder_on_glued_cycles(
            lengths in proptest::collection::vec(3usize..9, 1..6),
            n in 5usize..14,
            j in any::<u32>(),
        ) {
            assert_matches_allocating(&chained_cycles(&lengths));
            assert_matches_allocating(&chord_cycle(n, 2 + j % (n as u32 - 3)));
        }
    }

    /// The benchmark corpus's family instances (generator seed 2017) up
    /// to Promedas_03, which splits into 97 atoms; Pedigree, by far the
    /// slowest to decompose, gets a single instance.
    #[test]
    fn decomposition_matches_allocating_finder_on_paper_families() {
        for family in PgmFamily::ALL {
            let count = if family == PgmFamily::Pedigree { 1 } else { 4 };
            for instance in family.instances(count, 2017) {
                let d = assert_matches_allocating(&instance.graph);
                if instance.name == "Promedas_03" {
                    assert_eq!((d.atoms.len(), d.separators.len()), (97, 84));
                }
            }
        }
    }

    /// Ground-truth atom check (exponential; small graphs only): a piece
    /// is an atom iff it has no clique separator, i.e. no minimal
    /// separator of the induced subgraph is a clique.
    fn has_no_clique_separator(g: &Graph, piece: &NodeSet) -> bool {
        let (sub, _) = g.induced_subgraph(piece);
        all_minimal_separators(&sub)
            .iter()
            .all(|s| !sub.is_clique(s))
    }

    fn check_decomposition(g: &Graph) -> AtomDecomposition {
        let d = atom_decomposition(g);
        // every vertex covered
        let mut covered = NodeSet::new(g.num_nodes());
        for a in &d.atoms {
            covered.union_with(a);
        }
        assert_eq!(covered, g.node_set(), "atoms must cover every vertex");
        // every edge inside some atom
        for (u, v) in g.edges() {
            assert!(
                d.atoms.iter().any(|a| a.contains(u) && a.contains(v)),
                "edge ({u},{v}) not inside any atom"
            );
        }
        // each atom genuinely atomic, no atom contained in another
        for (i, a) in d.atoms.iter().enumerate() {
            assert!(has_no_clique_separator(g, a), "atom {a:?} is splittable");
            for (j, b) in d.atoms.iter().enumerate() {
                assert!(i == j || !a.is_subset(b), "atom {a:?} ⊆ atom {b:?}");
            }
        }
        // separators are genuine clique minimal separators
        for s in &d.separators {
            assert!(g.is_clique(s));
            assert!(crate::is_minimal_separator(g, s));
        }
        d
    }

    #[test]
    fn cycles_and_cliques_are_atoms() {
        for g in [Graph::cycle(5), Graph::cycle(8), Graph::complete(4)] {
            let d = check_decomposition(&g);
            assert!(d.is_trivial());
            assert_eq!(d.atoms.len(), 1);
            assert!(d.separators.is_empty());
        }
    }

    #[test]
    fn paths_decompose_into_edges() {
        let d = check_decomposition(&Graph::path(5));
        assert_eq!(d.atoms.len(), 4);
        assert_eq!(d.separators.len(), 3); // the internal nodes
        assert!(d.atoms.iter().all(|a| a.len() == 2));
    }

    #[test]
    fn two_cycles_glued_at_a_vertex() {
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
        let d = check_decomposition(&g);
        assert_eq!(d.atoms.len(), 2);
        assert_eq!(d.separators.len(), 1);
        assert_eq!(d.separators[0].to_vec(), vec![3]);
    }

    #[test]
    fn cycles_glued_on_an_edge_split_there() {
        // C4 and C5 sharing the edge {0, 1}
        let mut g = Graph::from_edges(7, &[(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)]);
        g.add_edge(0, 1);
        let d = check_decomposition(&g);
        assert_eq!(d.atoms.len(), 2);
        assert_eq!(d.separators.len(), 1);
        assert_eq!(d.separators[0].to_vec(), vec![0, 1]);
    }

    #[test]
    fn disconnected_components_decompose_independently() {
        // C4 + P3 + isolated vertex
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)]);
        let d = check_decomposition(&g);
        assert_eq!(d.components.len(), 3);
        // C4 is one atom; P3 splits into two edges; the isolated vertex
        // is its own atom.
        assert_eq!(d.atoms.len(), 4);
    }

    #[test]
    fn chordal_graphs_decompose_into_maximal_cliques() {
        // two triangles sharing an edge, plus a pendant triangle
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        );
        let d = check_decomposition(&g);
        assert_eq!(d.atoms.len(), 3);
        assert!(d.atoms.iter().all(|a| {
            let (sub, _) = g.induced_subgraph(a);
            sub.is_clique(&sub.node_set())
        }));
    }

    #[test]
    fn nested_separators_reach_fixpoint() {
        // a "caterpillar of cycles": C4 - C4 - C4 chained through cut
        // vertices 3 and 6
        let g = Graph::from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 3),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 6),
            ],
        );
        let d = check_decomposition(&g);
        assert_eq!(d.atoms.len(), 3);
        assert_eq!(d.separators.len(), 2);
    }

    #[test]
    fn finder_agrees_with_exhaustive_clique_separator_search() {
        // On every small graph: the MCS-M route finds a clique minimal
        // separator iff the exhaustive MinSep filter finds one.
        for (n, edges) in [
            (
                5,
                vec![(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
            ),
            (4, vec![(0, 1), (1, 2), (2, 3)]),
            (6, vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]),
            (5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]),
        ] {
            let g = Graph::from_edges(n, &edges);
            let exhaustive = all_minimal_separators(&g)
                .into_iter()
                .any(|s| g.is_clique(&s));
            assert_eq!(
                find_clique_minimal_separator(&g).is_some(),
                exhaustive,
                "{g:?}"
            );
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let d = atom_decomposition(&Graph::new(0));
        assert!(d.components.is_empty() && d.atoms.is_empty());
        let d = atom_decomposition(&Graph::new(1));
        assert_eq!(d.atoms.len(), 1);
        let d = check_decomposition(&Graph::from_edges(2, &[(0, 1)]));
        assert_eq!(d.atoms.len(), 1);
    }
}
