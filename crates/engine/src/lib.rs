//! # mintri-engine — the parallel, cache-sharing enumeration engine
//!
//! The crates below this one implement the PODS 2017 algorithm as
//! single-threaded iterators. This crate is the *serving* layer: it runs
//! the same `EnumMIS` frontier over a work-stealing thread pool and keeps
//! per-graph state warm across queries. Three pieces stack up:
//!
//! 1. **Sharded memo table** (in `mintri-core`): `MsGraph`'s separator
//!    interner, which also holds each separator's component labels for
//!    the crossing test, is a lock-striped concurrent structure, so one
//!    graph's expensive primitives are computed once and shared by every
//!    thread and every query that touches the graph.
//! 2. **[`ParallelEnumerator`]** (`parallel` feature, on by default):
//!    fans the `EnumMIS` extension frontier — the independent
//!    `(answer, separator)` pairs — out over worker threads, deduplicates
//!    answers through a sharded seen-set, and streams triangulations
//!    over a bounded channel. Two delivery modes:
//!    [`Delivery::Unordered`] (fastest; set-equal to sequential) and
//!    [`Delivery::Deterministic`] (bit-identical to the sequential
//!    enumerator's output order — use it in tests and golden files).
//! 3. **[`Engine`]**: sessions keyed by **atom subgraph** fingerprint.
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
//! plus backend, budget and an `ExecPolicy` saying how to execute:
//! threads, planning, ranking and delivery) and answers with a
//! [`Response`] (the blocking result stream plus `cancel()`,
//! `outcome()` — including the per-atom dispatch actually taken — and
//! `is_replay()`). Planning, sessions, completed-answer replay and the
//! parallel drivers are dispatch details behind it; the zero-setup
//! sequential path is `Query::run_local`, no engine required. With the
//! thread count left to the engine (`threads == 0`, the default), every
//! per-atom stream under the deterministic contract — ranked best-k
//! included — runs sequential, and an unordered query's last atom gets
//! [`EngineConfig::threads`].
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
//!
//! (Direct parallel streaming lives in [`ParallelEnumerator`]'s docs; it
//! needs the `parallel` feature.)

mod session;
mod telemetry;

#[cfg(feature = "parallel")]
mod parallel;
#[cfg(feature = "parallel")]
mod pool;
#[cfg(feature = "parallel")]
mod sched;

pub use session::{graph_fingerprint, Engine, GraphSession};
pub use telemetry::EngineTelemetry;

/// The persistent warm-state tier, re-exported so serving layers and the
/// CLI configure [`Engine::with_store`] without naming `mintri-store`
/// directly.
pub use mintri_store::{GraphSnapshot, Store, StoreConfig, StoreStats};

#[cfg(feature = "parallel")]
pub use parallel::ParallelEnumerator;
#[cfg(feature = "parallel")]
pub use pool::WorkPool;
#[cfg(feature = "parallel")]
pub use sched::{Backoff, Idle, Scheduler};

/// The typed query front door, re-exported for convenience: build a
/// [`Query`], hand it to [`Engine::run`], consume the [`Response`].
pub use mintri_core::query::{
    AtomDispatch, CancelHookGuard, CancelToken, CostMeasure, Delivery, DispatchKind, ExecPolicy,
    Query, QueryItem, QueryOutcome, Response, Task,
};

use mintri_telemetry::Gauge;
use std::sync::Arc;

/// Configuration shared by [`Engine`] and [`ParallelEnumerator`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means "ask [`std::thread::available_parallelism`]".
    pub threads: usize,
    /// Result ordering contract.
    pub delivery: Delivery,
    /// Bound of the result channel in `Unordered` mode (backpressure for
    /// slow consumers).
    pub channel_capacity: usize,
    /// Maximum warm [`GraphSession`]s an [`Engine`] keeps; beyond this
    /// the least recently used session (memo tables + cached answers) is
    /// dropped. Minimum 1.
    pub max_sessions: usize,
    /// Live worker threads of the parallel drivers built from this
    /// config: a worker raises it when spawned and lowers it as it exits,
    /// so it reads 0 once every driver has joined its workers. Clones of
    /// a config share one gauge; an [`Engine`] swaps in its registered
    /// `mintri_engine_threads_live` gauge
    /// ([`EngineTelemetry::threads_live`]).
    pub threads_live: Arc<Gauge>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            delivery: Delivery::Unordered,
            channel_capacity: 256,
            max_sessions: 64,
            threads_live: Arc::default(),
        }
    }
}

impl EngineConfig {
    /// The effective worker count (resolves `threads == 0`).
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolves_threads() {
        assert!(EngineConfig::default().resolved_threads() >= 1);
        assert_eq!(
            EngineConfig {
                threads: 3,
                ..EngineConfig::default()
            }
            .resolved_threads(),
            3
        );
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_stats_query_runs_under_budget() {
        use mintri_core::EnumerationBudget;
        use mintri_graph::Graph;

        let g = Graph::cycle(7);
        let policy = ExecPolicy::default().with_threads(2);
        let outcome = Engine::new()
            .run(
                &g,
                Query::stats()
                    .policy(policy)
                    .budget(EnumerationBudget::results(10)),
            )
            .wait();
        assert_eq!(outcome.records.len(), 10);
        let full = Engine::new().run(&g, Query::stats().policy(policy)).wait();
        assert!(full.completed);
        assert_eq!(full.records.len(), 42);
    }
}
