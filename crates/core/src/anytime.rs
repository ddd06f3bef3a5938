//! Budgets and per-result records of anytime runs: the measurement
//! vocabulary of Section 6 (delays, width/fill statistics, quality over
//! time). [`Task::Stats`](crate::query::Task) runs the instrumented scan
//! and reports these in [`QueryOutcome`](crate::query::QueryOutcome).

use std::time::{Duration, Instant};

/// Stopping condition for an anytime run. Whichever limit trips first ends
/// the run; with neither set, the run continues to completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnumerationBudget {
    /// Stop after this many results.
    pub max_results: Option<usize>,
    /// Stop after this much wall-clock time (checked between results).
    pub time_limit: Option<Duration>,
}

impl EnumerationBudget {
    /// No limits: run to completion.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Stop after `n` results.
    pub fn results(n: usize) -> Self {
        EnumerationBudget {
            max_results: Some(n),
            time_limit: None,
        }
    }

    /// Stop after `d` of wall-clock time (the paper's 30-minute runs, scaled
    /// down).
    pub fn time(d: Duration) -> Self {
        EnumerationBudget {
            max_results: None,
            time_limit: Some(d),
        }
    }

    /// Both limits.
    pub fn results_or_time(n: usize, d: Duration) -> Self {
        EnumerationBudget {
            max_results: Some(n),
            time_limit: Some(d),
        }
    }

    /// `true` once either limit has tripped, given `produced` results so
    /// far and the run's start time — the single budget check shared by
    /// every driver (the query layer, ranked selection, anytime runs).
    pub fn exhausted(&self, produced: usize, started: Instant) -> bool {
        if self.max_results.is_some_and(|n| produced >= n) {
            return true;
        }
        self.time_limit.is_some_and(|t| started.elapsed() >= t)
    }
}

/// One enumerated triangulation, with its timing and quality measures.
#[derive(Debug, Clone, Copy)]
pub struct ResultRecord {
    /// 0-based production index.
    pub index: usize,
    /// Elapsed time from the start of the run to this result.
    pub at: Duration,
    /// Width of the triangulation (max clique − 1).
    pub width: usize,
    /// Number of fill edges.
    pub fill: usize,
}

/// The width/fill statistics of Tables 1 and 2, computed per run: result
/// counts, minima, counts at-least-as-good-as-the-first, and relative
/// improvement over the first result (which is what the plain underlying
/// triangulation algorithm would return).
#[derive(Debug, Clone, Copy)]
pub struct QualityStats {
    /// Number of triangulations produced (`#trng`).
    pub num_results: usize,
    /// Width of the first result (the baseline algorithm's width).
    pub first_width: usize,
    /// Minimum width observed (`min-w`).
    pub min_width: usize,
    /// Results with width ≤ the first result's (`#≤w1`).
    pub num_leq_first_width: usize,
    /// Relative width improvement `(first − min) / first` in percent
    /// (`%w↓`); 0 when the first width is 0.
    pub width_improvement_pct: f64,
    /// Fill of the first result.
    pub first_fill: usize,
    /// Minimum fill observed (`min-f`).
    pub min_fill: usize,
    /// Results with fill ≤ the first result's (`#≤f1`).
    pub num_leq_first_fill: usize,
    /// Relative fill improvement in percent (`%f↓`).
    pub fill_improvement_pct: f64,
}

impl QualityStats {
    /// Aggregates a record list; `None` when empty.
    pub fn from_records(records: &[ResultRecord]) -> Option<QualityStats> {
        let first = records.first()?;
        let min_width = records.iter().map(|r| r.width).min().unwrap();
        let min_fill = records.iter().map(|r| r.fill).min().unwrap();
        let pct = |first: usize, min: usize| {
            if first == 0 {
                0.0
            } else {
                100.0 * (first - min) as f64 / first as f64
            }
        };
        Some(QualityStats {
            num_results: records.len(),
            first_width: first.width,
            min_width,
            num_leq_first_width: records.iter().filter(|r| r.width <= first.width).count(),
            width_improvement_pct: pct(first.width, min_width),
            first_fill: first.fill,
            min_fill,
            num_leq_first_fill: records.iter().filter(|r| r.fill <= first.fill).count(),
            fill_improvement_pct: pct(first.fill, min_fill),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QueryOutcome};
    use mintri_graph::Graph;

    fn stats(g: &Graph, budget: EnumerationBudget) -> QueryOutcome {
        Query::stats().budget(budget).run_local(g).wait()
    }

    #[test]
    fn unlimited_run_completes_and_counts() {
        let outcome = stats(&Graph::cycle(6), EnumerationBudget::unlimited());
        assert!(outcome.completed);
        assert_eq!(outcome.records.len(), 14);
        assert!(outcome.average_delay().is_some());
    }

    #[test]
    fn result_budget_truncates() {
        let outcome = stats(&Graph::cycle(7), EnumerationBudget::results(10));
        assert!(!outcome.completed);
        assert_eq!(outcome.records.len(), 10);
    }

    #[test]
    fn timestamps_are_monotone() {
        let outcome = stats(&Graph::cycle(6), EnumerationBudget::unlimited());
        for w in outcome.records.windows(2) {
            assert!(w[0].at <= w[1].at);
            assert_eq!(w[0].index + 1, w[1].index);
        }
    }

    #[test]
    fn quality_stats_on_cycles() {
        let outcome = stats(&Graph::cycle(6), EnumerationBudget::unlimited());
        let q = outcome.quality().unwrap();
        assert_eq!(q.num_results, 14);
        // every minimal triangulation of a cycle has width 2 and fill n-3
        assert_eq!(q.first_width, 2);
        assert_eq!(q.min_width, 2);
        assert_eq!(q.num_leq_first_width, 14);
        assert_eq!(q.width_improvement_pct, 0.0);
        assert_eq!(q.min_fill, 3);
    }

    #[test]
    fn running_min_is_non_increasing() {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (6, 2),
            ],
        );
        let outcome = stats(&g, EnumerationBudget::unlimited());
        let series = outcome.running_min(|r| r.fill);
        assert!(!series.is_empty());
        for w in series.windows(2) {
            assert!(w[0].1 > w[1].1);
        }
    }

    #[test]
    fn empty_quality_is_none() {
        assert!(QualityStats::from_records(&[]).is_none());
    }

    #[test]
    fn time_budget_is_respected() {
        // zero time budget -> at most the check granularity (0 results)
        let outcome = stats(&Graph::cycle(8), EnumerationBudget::time(Duration::ZERO));
        assert!(outcome.records.is_empty());
        assert!(!outcome.completed);
    }
}
