//! # mintri-separators — minimal separators and the crossing relation
//!
//! This crate implements the two access algorithms of the `MSGraph` SGR
//! (Section 3.1.1 of the paper):
//!
//! * [`MinimalSeparatorIter`] — the polynomial-delay variation (Figure 2) of
//!   the Berry–Bordat–Cogis algorithm for enumerating `MinSep(g)`, playing
//!   the role of `A_V^ms`;
//! * [`crossing`] — the crossing test `S ♮ T` (Section 2.2), playing the
//!   role of `A_E^ms`.
//!
//! A brute-force oracle ([`bruteforce`]) cross-validates both on small
//! graphs.
//!
//! ```
//! use mintri_graph::Graph;
//! use mintri_separators::{all_minimal_separators, crossing};
//!
//! let g = Graph::cycle(4);
//! let seps = all_minimal_separators(&g);
//! // the two diagonals {0,2} and {1,3} are the minimal separators…
//! assert_eq!(seps.len(), 2);
//! // …and they cross: no triangulation can saturate both
//! assert!(crossing(&g, &seps[0], &seps[1]));
//! ```

mod atoms;
mod berry;
mod cliquesep;
mod crossing;

pub mod bruteforce;

pub use atoms::{atom_decomposition, find_clique_minimal_separator, AtomDecomposition};
pub use berry::{all_minimal_separators, MinSepState, MinimalSeparatorIter};
pub use cliquesep::{
    clique_minimal_separators, is_clique_minimal_separator, minimal_uv_separators,
};
pub use crossing::{are_parallel, crossing, is_minimal_separator};
