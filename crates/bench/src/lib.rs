//! # mintri-bench — the experiment harness
//!
//! Shared plumbing for the binaries that regenerate every table and figure
//! of the paper's Section 6 (see `src/bin/`) and for the Criterion
//! micro-benchmarks (see `benches/`). Each binary names its figure or
//! table in its module docs: `fig6_pgm_delay`, `fig7_random_delay`,
//! `fig8_printing_modes`, `fig9_cumulative`, `fig10_quality_over_time`,
//! `table1_width_stats`, `table2_fill_stats` and `tpch_stats`;
//! `run_all` regenerates them all.
//!
//! The eight binaries that back the engine's own claims
//! (`engine_scaling`, `kernel_gain`, `query_overhead`, `ranked_gain`,
//! `reduction_gain`, `serve_throughput`, `store_gain`,
//! `telemetry_overhead`) each write one `BENCH_*.json` [`BenchDoc`]:
//! flat metrics plus the gates that must hold of them. `bench_check`
//! evaluates any such document with [`BenchDoc::evaluate`].

pub mod args;
pub mod baseline;
pub mod doc;
pub mod runs;

pub use args::Args;
pub use doc::BenchDoc;
pub use runs::{paired_rounds, run_budgeted, time_stream, timed, AlgoChoice};
