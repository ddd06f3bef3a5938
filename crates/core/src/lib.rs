//! # mintri-core — enumerating minimal triangulations and proper tree
//! decompositions in incremental polynomial time
//!
//! The primary contribution of *"Efficiently Enumerating Minimal
//! Triangulations"* (Carmeli, Kenig, Kimelfeld, Kröll — PODS 2017):
//!
//! * [`MsGraph`] — the minimal separator graph of a graph `g`, presented as
//!   a succinct graph representation (nodes stream from the
//!   Berry–Bordat–Cogis enumerator, edges are crossing tests read off
//!   per-separator component labels,
//!   expansion is the `Extend` procedure over any black-box triangulator);
//! * [`MinimalTriangulationsEnumerator`] — `EnumMIS` over `MSGraph`,
//!   materializing each maximal set of pairwise-parallel minimal separators
//!   into the corresponding minimal triangulation (Corollary 4.8);
//! * [`ProperTreeDecompositions`] — the Section 5 reduction, emitting every
//!   proper tree decomposition (or one per bag-equivalence class);
//! * [`EnumerationBudget`], [`ResultRecord`] and [`QualityStats`] — the
//!   budgets and the delay and quality measurements of the paper's
//!   experimental study, recorded by [`Query::stats`];
//! * [`BruteForce`] — exponential oracles used to validate all of the above
//!   on small graphs.
//!
//! ## Disconnected inputs
//!
//! The empty set is a minimal separator of a disconnected graph, is parallel
//! to everything, and saturates to nothing — so it belongs to every maximal
//! parallel set and never changes the triangulation. The stack therefore
//! works with the *nonempty* minimal separators throughout; the bijection of
//! Theorem 4.1 survives (`φ ↔ φ ∪ {∅}`), and disconnected graphs enumerate
//! as the product of their components' triangulations with no special
//! casing (see the `disconnected_graphs_multiply` test).

//! ## The front door
//!
//! All four workloads — streaming, best-`k`, decompositions, instrumented
//! anytime runs — are [`Task`]s of one typed [`Query`], answered by one
//! [`Response`] handle (stream + [`Response::cancel`] +
//! [`Response::outcome`]). [`Query::run_local`] executes sequentially
//! with zero setup; `mintri_engine::Engine::run` executes the same query
//! with warm sessions, parallel drivers and completed-answer replay. The
//! items above remain as the underlying kernel.
//!
//! ## The planning layer
//!
//! Every executor first routes the query through a [`Plan`]: the graph
//! splits into connected components and clique-minimal-separator atoms
//! (Leimer's decomposition, `mintri_separators::atom_decomposition`),
//! one [`TriangulationStream`] runs per non-trivial atom, and the
//! product [`ComposedStream`] recombines them — so a graph of many
//! small atoms pays the *sum* of small enumerations instead of one
//! exponential blob. `ExecPolicy::default().with_planned(false)` runs
//! [`Plan::unreduced`], one atom spanning the whole graph.

mod anytime;
mod bruteforce;
mod eager;
mod enumerator;
pub mod json;
pub mod memo;
mod msgraph;
pub mod plan;
mod proper;
pub mod query;
mod ranked;

pub use anytime::{EnumerationBudget, QualityStats, ResultRecord};
pub use bruteforce::BruteForce;
pub use eager::{EagerMinimalTriangulations, EagerMsGraph};
pub use enumerator::MinimalTriangulationsEnumerator;
pub use msgraph::{ExtendScratch, MsGraph, MsGraphStats, SepId};
pub use plan::{AtomStream, Composed, ComposedStream, OpenedAtom, Plan, PlannedAtom};
pub use proper::{ProperTreeDecompositions, TdEnumerationMode};
pub use query::{
    AtomDispatch, CancelHookGuard, CancelToken, CostMeasure, Delivery, DispatchKind, ExecPolicy,
    Query, QueryItem, QueryOutcome, Response, Task, TriangulationStream,
};
pub use ranked::{
    best_k_of_stream, cost_floor, RankedAtom, RankedComposed, RankedItem, RankedStream,
};
