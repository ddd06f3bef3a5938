//! # mintri — enumerating minimal triangulations and proper tree decompositions
//!
//! A Rust implementation of the PODS 2017 paper *"Efficiently Enumerating
//! Minimal Triangulations"* (Carmeli, Kenig, Kimelfeld, Kröll). The facade
//! crate re-exports the whole stack; most users only need [`prelude`].
//!
//! ```
//! use mintri::prelude::*;
//!
//! // The 4-cycle has exactly two minimal triangulations (the two diagonals).
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let results = Query::enumerate().run_local(&g).triangulations();
//! assert_eq!(results.len(), 2);
//! ```
//!
//! ## Choosing an enumeration API
//!
//! There is **one front door**: a typed [`prelude::Query`] describes
//! *what* to compute, and a [`prelude::Response`] describes *how it
//! went*. Everything else is either an execution choice behind that
//! door, or the low-level kernel beneath it.
//!
//! * **What to compute** is the query's [`prelude::Task`]:
//!   `Query::enumerate()` streams `MinTri(g)`;
//!   `Query::best_k(k, cost)` keeps the `k` best under a
//!   [`prelude::CostMeasure`]; `Query::decompose(mode)` streams proper
//!   tree decompositions (Section 5); `Query::stats()` runs the
//!   instrumented anytime scan of the paper's experiments. Budgets
//!   ([`prelude::EnumerationBudget`]), the triangulation backend
//!   ([`prelude::Triangulator`]), the print discipline
//!   ([`prelude::PrintMode`]) and the execution policy
//!   ([`prelude::ExecPolicy`]: planning and ranking)
//!   are all builder parameters of the same query.
//! * **Where to run it** is a two-way choice:
//!   [`core::query::Query::run_local`] executes sequentially on the
//!   calling thread with zero setup (scripts, tests, one-shot calls);
//!   [`engine::Engine::run`] executes the *same query* against warm
//!   per-atom sessions — sharded memo tables shared across the threads
//!   and queries that use one engine, and completed-answer replay
//!   (repeat queries of *any* task shape serve with zero `Extend`
//!   calls). Both run each atom as the paper's sequential schedule on
//!   the consumer's thread.
//! * **How it went** is always the same [`prelude::Response`] handle: a
//!   blocking [`prelude::QueryItem`] stream plus `cancel()` (honored
//!   mid-stream, from the consumer or any other thread), `outcome()`
//!   (budget/quality records, `EnumMIS` counters, termination cause) and
//!   `is_replay()`.
//!
//! Before any of that, **both executors plan**: the graph is decomposed
//! into connected components and clique-minimal-separator atoms
//! ([`prelude::Plan`], over [`prelude::atom_decomposition`]); each
//! non-trivial atom enumerates on its own small subgraph and one
//! composer ([`prelude::Plan::compose`]) recombines the per-atom
//! streams — minimal triangulations factor over atoms, so the answer
//! set is identical while the work drops from one exponential blob to a
//! sum of small enumerations. The engine keys its sessions per atom, so
//! different graphs sharing an atom share its warm cache. With
//! `ExecPolicy::default().with_planned(false)` the plan is one atom
//! spanning the whole graph, whose stream runs unwrapped.
//!
//! The two execution paths agree exactly: every engine stream — cold,
//! replayed or hydrated — reproduces `run_local`'s output sequence
//! (`tests/engine_parallel.rs`, `tests/query_api.rs`,
//! `tests/default_dispatch.rs` and `tests/planning.rs` hold this
//! contract).
//!
//! Beneath the front door, the single-threaded iterator kernel remains
//! public for allocation-lean embedding:
//! [`prelude::MinimalTriangulationsEnumerator`],
//! [`prelude::ProperTreeDecompositions`] and the SGR machinery in
//! [`sgr`].

pub use mintri_chordal as chordal;
pub use mintri_core as core;
pub use mintri_engine as engine;
pub use mintri_graph as graph;
pub use mintri_separators as separators;
pub use mintri_serve as serve;
pub use mintri_sgr as sgr;
pub use mintri_telemetry as telemetry;
pub use mintri_treedecomp as treedecomp;
pub use mintri_triangulate as triangulate;
pub use mintri_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mintri_chordal::{is_chordal, maximal_cliques, treewidth_of_chordal, CliqueForest};
    pub use mintri_core::best_k_of_stream;
    pub use mintri_core::{
        AtomDispatch, BruteForce, CancelToken, ComposedStream, CostMeasure, DispatchKind,
        EagerMinimalTriangulations, EnumerationBudget, ExecPolicy, MinimalTriangulationsEnumerator,
        Plan, PlannedAtom, ProperTreeDecompositions, Query, QueryItem, QueryOutcome, Response,
        Task, TdEnumerationMode, TriangulationStream,
    };
    pub use mintri_engine::{Engine, EngineConfig, GraphSession};
    pub use mintri_graph::{Graph, Node, NodeSet};
    pub use mintri_separators::{
        atom_decomposition, crossing, AtomDecomposition, MinimalSeparatorIter,
    };
    pub use mintri_sgr::{EnumMis, EnumMisStats, PrintMode, Sgr};
    pub use mintri_treedecomp::{exact_treewidth, TreeDecomposition};
    pub use mintri_triangulate::{
        is_minimal_triangulation, EliminationOrder, LbTriang, LexM, McsM, Triangulation,
        Triangulator,
    };
}
