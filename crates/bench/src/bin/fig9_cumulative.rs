//! Figure 9 (case study): cumulative number of results over time on a
//! single Promedas-style graph — all minimal triangulations, those of the
//! minimum observed width, and those no wider than the first result.
//!
//! Emits CSV: `elapsed_ms,total,min_width_results,leq_w1_results`.
//!
//! Flags: `--budget-ms` (default 10000; the paper ran 30 minutes),
//! `--seed`, `--diseases` / `--findings` (default 24/72, a mid-size
//! Promedas-like graph).

use mintri_bench::Args;
use mintri_core::{EnumerationBudget, Query};
use mintri_workloads::pgm::promedas;
use std::time::Duration;

fn main() {
    let args = Args::parse(&["budget-ms", "seed", "diseases", "findings"]);
    let budget_ms = args.get_u64("budget-ms", 10_000);
    let seed = args.get_u64("seed", 7);
    let diseases = args.get_usize("diseases", 24);
    let findings = args.get_usize("findings", 72);
    let g = promedas(diseases, findings, 4, seed);
    eprintln!(
        "# case study graph: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    let outcome = Query::stats()
        .budget(EnumerationBudget::time(Duration::from_millis(budget_ms)))
        .run_local(&g)
        .wait();

    let first_width = outcome.records.first().map(|r| r.width).unwrap_or(0);
    let min_width = outcome.records.iter().map(|r| r.width).min().unwrap_or(0);

    println!("elapsed_ms,total,min_width_results,leq_w1_results");
    let (mut total, mut at_min, mut leq_w1) = (0usize, 0usize, 0usize);
    for r in &outcome.records {
        total += 1;
        if r.width == min_width {
            at_min += 1;
        }
        if r.width <= first_width {
            leq_w1 += 1;
        }
        println!("{},{},{},{}", r.at.as_millis(), total, at_min, leq_w1);
    }
    eprintln!(
        "# {} results, first width {}, min width {}, completed: {}",
        total, first_width, min_width, outcome.completed
    );
}
