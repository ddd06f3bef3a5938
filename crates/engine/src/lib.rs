//! # mintri-engine — the cache-sharing enumeration engine
//!
//! The crates below this one implement the PODS 2017 algorithm as
//! single-threaded iterators. This crate is the *serving* layer: it keeps
//! per-graph state warm across queries, so repeated traffic pays for an
//! enumeration once. Two pieces stack up:
//!
//! 1. **Sharded memo table** (in `mintri-core`): `MsGraph`'s separator
//!    interner, which also holds each separator's component labels for
//!    the crossing test, is a lock-striped concurrent structure, so one
//!    graph's expensive primitives are computed once and shared by every
//!    query that touches the graph, whichever thread serves it.
//! 2. **[`Engine`]**: sessions keyed by **atom subgraph** fingerprint.
//!    Every query is first routed through the planning layer
//!    (`mintri_core::query::Plan`): the graph splits into
//!    clique-minimal-separator atoms, each non-trivial atom gets its own
//!    warm session and stream, and the product composer recombines
//!    them. Repeated queries against the same graph — or *different*
//!    graphs sharing an atom — reuse the warm memo, and once an atom's
//!    enumeration completes its answer list is cached and replayed
//!    without an `Extend` call.
//!
//! ## One front door
//!
//! [`Engine::run`] is the serving entry point: it takes a typed
//! [`Query`] (what to compute — enumerate / best-k / decompose / stats —
//! plus backend, budget and an `ExecPolicy` saying whether to plan and
//! whether to rank) and answers with a [`Response`] (the blocking result
//! stream plus `cancel()`, `outcome()` — including the per-atom dispatch
//! actually taken — and `is_replay()`). Planning, sessions and
//! completed-answer replay are dispatch details behind it; the
//! zero-setup path is `Query::run_local`, no engine required. Every live
//! per-atom stream is the paper's sequential `EnumMIS` schedule over the
//! session's warm `MsGraph`, run on the consumer's own thread, so an
//! engine answers exactly what `run_local` answers, in the same order,
//! and starts no thread of its own. Concurrent queries share sessions
//! through whatever threads call [`Engine::run`] (the HTTP server's
//! workers, for one).
//!
//! ```
//! use mintri_engine::{Engine, Query};
//! use mintri_graph::Graph;
//!
//! // served: the second query replays the cached answers
//! let g = Graph::cycle(6);
//! let engine = Engine::new();
//! assert_eq!(engine.run(&g, Query::enumerate()).count(), 14);
//! let replay = engine.run(&g, Query::enumerate());
//! assert!(replay.is_replay());
//! assert_eq!(replay.count(), 14);
//! ```

mod session;
mod telemetry;

pub use session::{graph_fingerprint, Engine, GraphSession};
pub use telemetry::EngineTelemetry;

/// The persistent warm-state tier, re-exported so serving layers and the
/// CLI configure [`Engine::with_store`] without naming `mintri-store`
/// directly.
pub use mintri_store::{GraphSnapshot, Store, StoreConfig, StoreStats};

/// The typed query front door, re-exported for convenience: build a
/// [`Query`], hand it to [`Engine::run`], consume the [`Response`].
pub use mintri_core::query::{
    AtomDispatch, CancelToken, CostMeasure, DispatchKind, ExecPolicy, Query, QueryItem,
    QueryOutcome, Response, Task,
};

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Has no effect: the engine runs every stream on the consumer's
    /// thread. Kept only because the benchmark harness
    /// (`perfbench/src/serve.rs`) sets it; it goes with that harness's
    /// next revision.
    pub threads: usize,
    /// Maximum warm [`GraphSession`]s an [`Engine`] keeps; beyond this
    /// the least recently used session (memo tables + cached answers) is
    /// dropped. Minimum 1.
    pub max_sessions: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            max_sessions: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_core::EnumerationBudget;
    use mintri_graph::Graph;

    #[test]
    fn stats_query_runs_under_budget() {
        let g = Graph::cycle(7);
        let outcome = Engine::new()
            .run(&g, Query::stats().budget(EnumerationBudget::results(10)))
            .wait();
        assert_eq!(outcome.records.len(), 10);
        let full = Engine::new().run(&g, Query::stats()).wait();
        assert!(full.completed);
        assert_eq!(full.records.len(), 42);
    }
}
