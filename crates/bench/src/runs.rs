//! Budgeted enumeration runs shared by the figure/table binaries.

use mintri_core::{EnumerationBudget, Query, QueryOutcome};
use mintri_graph::Graph;
use mintri_sgr::PrintMode;
use mintri_triangulate::{LbTriang, McsM, Triangulator};
use std::time::{Duration, Instant};

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

/// What `f` returns, and the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// How many of the first `k` items `stream` yields, and the wall-clock
/// seconds that took (building `stream` is not timed).
pub fn time_stream<I: Iterator>(stream: I, k: usize) -> (usize, f64) {
    timed(|| stream.take(k).count())
}

/// A/B timing in paired rounds. After an untimed one-rep warm-up of each
/// side, every round times `pass(false, reps)` (A) then `pass(true, reps)`
/// (B) back to back, and both must report the same count (`what` names
/// the toggled feature in the assertion). Adjacent pairing cancels slow
/// drift (frequency scaling, noisy neighbours on a shared box) that
/// min-of-rounds over two separate series cannot; the median discards
/// the odd preempted round. Returns (count, min A seconds, min B seconds,
/// median over rounds of `ratio(a_seconds, b_seconds)`).
pub fn paired_rounds(
    rounds: usize,
    reps: usize,
    what: &str,
    mut pass: impl FnMut(bool, usize) -> (usize, f64),
    ratio: impl Fn(f64, f64) -> f64,
) -> (usize, f64, f64, f64) {
    pass(false, 1);
    pass(true, 1);
    let (mut count, mut a_min, mut b_min) = (0, f64::INFINITY, f64::INFINITY);
    let mut per_round = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (na, a) = pass(false, reps);
        let (nb, b) = pass(true, reps);
        assert_eq!(na, nb, "{what} must not change the count");
        count = na;
        a_min = a_min.min(a);
        b_min = b_min.min(b);
        per_round.push(ratio(a, b));
    }
    per_round.sort_by(f64::total_cmp);
    let mid = per_round.len() / 2;
    let median = if per_round.len() % 2 == 1 {
        per_round[mid]
    } else {
        (per_round[mid - 1] + per_round[mid]) / 2.0
    };
    (count, a_min, b_min, median)
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
