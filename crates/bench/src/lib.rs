//! # mintri-bench — the experiment harness
//!
//! Shared plumbing for the binaries that regenerate every table and figure
//! of the paper's Section 6 (see `src/bin/`) and for the Criterion
//! micro-benchmarks (see `benches/`). Each binary names its figure or
//! table in its module docs: `fig6_pgm_delay`, `fig7_random_delay`,
//! `fig8_printing_modes`, `fig9_cumulative`, `fig10_quality_over_time`,
//! `table1_width_stats`, `table2_fill_stats` and `tpch_stats`;
//! `run_all` regenerates them all.

pub mod args;
pub mod baseline;
pub mod runs;

pub use args::Args;
pub use runs::{run_budgeted, AlgoChoice};
