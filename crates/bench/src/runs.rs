//! Budgeted enumeration runs shared by the figure/table binaries.

use mintri_core::{EnumerationBudget, Query, QueryOutcome};
use mintri_graph::Graph;
use mintri_sgr::PrintMode;
use mintri_triangulate::{LbTriang, McsM, Triangulator};
use std::time::Duration;

/// The two triangulation backends of the paper's study (Section 6.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// `MCS_M`.
    McsM,
    /// `LB_TRIANG` with the min-fill heuristic.
    LbTriang,
}

impl AlgoChoice {
    /// Both backends, in the paper's table order.
    pub const BOTH: [AlgoChoice; 2] = [AlgoChoice::McsM, AlgoChoice::LbTriang];

    /// The paper's name for the backend.
    pub fn name(self) -> &'static str {
        match self {
            AlgoChoice::McsM => "MCS_M",
            AlgoChoice::LbTriang => "LB_TRIANG",
        }
    }

    /// Builds the triangulator.
    pub fn triangulator(self) -> Box<dyn Triangulator> {
        match self {
            AlgoChoice::McsM => Box::new(McsM),
            AlgoChoice::LbTriang => Box::new(LbTriang::min_fill()),
        }
    }

    /// Parses a `--algo` value (`mcsm`, `lbtriang`, `both`).
    pub fn parse_list(s: &str) -> Vec<AlgoChoice> {
        match s.to_ascii_lowercase().as_str() {
            "mcsm" | "mcs_m" => vec![AlgoChoice::McsM],
            "lbtriang" | "lb_triang" => vec![AlgoChoice::LbTriang],
            "both" => Self::BOTH.to_vec(),
            other => panic!("unknown --algo {other:?} (use mcsm, lbtriang or both)"),
        }
    }
}

/// Runs the enumeration on `g` for at most `budget_ms` milliseconds (the
/// scaled-down version of the paper's 30-minute executions).
pub fn run_budgeted(g: &Graph, algo: AlgoChoice, budget_ms: u64) -> QueryOutcome {
    Query::stats()
        .triangulator(algo.triangulator())
        .mode(PrintMode::UponGeneration)
        .budget(EnumerationBudget::time(Duration::from_millis(budget_ms)))
        .run_local(g)
        .wait()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgeted_runs_terminate_and_produce() {
        let g = Graph::cycle(8);
        let out = run_budgeted(&g, AlgoChoice::McsM, 500);
        assert!(!out.records.is_empty());
    }

    #[test]
    fn algo_parsing() {
        assert_eq!(AlgoChoice::parse_list("both").len(), 2);
        assert_eq!(AlgoChoice::parse_list("mcsm"), vec![AlgoChoice::McsM]);
        assert_eq!(
            AlgoChoice::parse_list("LB_TRIANG"),
            vec![AlgoChoice::LbTriang]
        );
    }
}
