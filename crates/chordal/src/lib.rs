//! # mintri-chordal — chordal graph theory
//!
//! Everything the paper needs about chordal graphs (Section 2.3):
//!
//! * recognition via Maximum Cardinality Search / Lex-BFS and perfect
//!   elimination order verification,
//! * maximal clique extraction (linear-path for chordal graphs,
//!   Bron–Kerbosch as a general oracle),
//! * clique trees and the minimal separators of a chordal graph
//!   (Kumar–Madhavan, Theorem 2.2),
//! * [`minimal_separators_with`], the reference scratch-space
//!   `ExtractMinSeps` of the `Extend` procedure (Figure 3): it reads the
//!   same separators off one maximum-cardinality search (the
//!   clique-generator rule), in the same sorted order, with no allocation
//!   once warm. `Extend` itself now takes them from MCS-M, which applies
//!   the rule during triangulation (`mintri_triangulate::mcs_m_into`),
//! * [`WeightBuckets`], the per-weight bitsets behind that search,
//! * chordal treewidth.
//!
//! ```
//! use mintri_chordal::{is_chordal, maximal_cliques_chordal, CliqueForest, treewidth_of_chordal};
//! use mintri_graph::Graph;
//!
//! let mut g = Graph::cycle(4);
//! assert!(!is_chordal(&g)); // C4 has a chordless 4-cycle
//! g.add_edge(0, 2);
//! assert!(is_chordal(&g));
//! assert_eq!(treewidth_of_chordal(&g), 2);
//! assert_eq!(maximal_cliques_chordal(&g).len(), 2); // two triangles
//!
//! // the clique tree connects them through their shared separator {0, 2}
//! let forest = CliqueForest::build(&g);
//! assert_eq!(forest.minimal_separators().len(), 1);
//! ```

mod buckets;
mod cliques;
mod cliquetree;
mod peo;
mod scratch;

pub use buckets::WeightBuckets;
pub use cliques::{
    maximal_cliques, maximal_cliques_chordal, maximal_cliques_of_chordal, treewidth_of_chordal,
};
pub use cliquetree::{minimal_separators_of_chordal, CliqueForest};
pub use peo::{
    is_chordal, is_perfect_elimination_order, lexbfs_order, mcs_order, perfect_elimination_order,
};
pub use scratch::{minimal_separators_with, ForestScratch};
