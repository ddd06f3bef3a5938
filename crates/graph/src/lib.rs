//! # mintri-graph — the graph substrate
//!
//! Undirected graphs over dense node ids `0..n`, stored as one flat
//! adjacency bit matrix whose rows read as [`NodeSet`]s, plus
//! the traversal primitives the triangulation stack is built on:
//! components of `g \ U`, reachability inside restricted node sets, and
//! saturation.
//!
//! Everything in this workspace represents node sets as [`NodeSet`] bitsets:
//! unions, intersections, subset tests and component expansion are all
//! word-parallel, which dominates the running time of the enumeration stack.
//!
//! ```
//! use mintri_graph::{Graph, NodeSet, traversal};
//!
//! let mut g = Graph::cycle(6);
//! assert_eq!(g.num_edges(), 6);
//!
//! // saturating {0, 2, 4} adds the three "long" chords
//! let s = NodeSet::from_iter(6, [0, 2, 4]);
//! assert_eq!(g.saturate(&s), 3);
//! assert!(g.is_clique(&s));
//!
//! // components of g \ {0, 3}
//! let cut = NodeSet::from_iter(6, [0, 3]);
//! let comps = traversal::components_after_removing(&g, &cut);
//! assert_eq!(comps.len(), 1); // the chords keep the rest connected
//! ```

mod fxhash;
mod graph;
pub mod io;
mod nodeset;
pub mod traversal;

pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use graph::Graph;
pub use nodeset::{NodeRow, NodeSet, NodeSetIter};

/// Node identifier. Graphs in this workspace are dense and small enough that
/// `u32` halves the footprint of every edge list and ordering relative to
/// `usize` (per the performance guide's "smaller integers" advice).
pub type Node = u32;
