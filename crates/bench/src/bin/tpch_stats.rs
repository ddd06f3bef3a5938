//! Section 6.2.3: the TPC-H query statistics — per query: graph size,
//! chordality, number of minimal separators, number of minimal
//! triangulations, the minimum width over all enumerated triangulations,
//! total enumeration time, and the DunceCap-style exhaustive baseline with
//! a deadline (the paper reports its own implementation 3–4 orders of
//! magnitude faster, with the baseline unable to finish Q7/Q9).
//!
//! Emits CSV:
//! `query,nodes,edges,chordal,minseps,mintri,min_width,max_bag,enum_ms,baseline`.
//!
//! Flags: `--baseline-ms` deadline per query (default 2000), `--cap`
//! maximum triangulations to enumerate per query (default 100000).

use mintri_bench::baseline::{exhaustive_count, BaselineOutcome};
use mintri_bench::Args;
use mintri_chordal::is_chordal;
use mintri_core::MinimalTriangulationsEnumerator;
use mintri_separators::all_minimal_separators;
use mintri_workloads::all_queries;
use std::time::{Duration, Instant};

fn main() {
    let args = Args::parse(&["baseline-ms", "cap"]);
    let baseline_ms = args.get_u64("baseline-ms", 2000);
    let cap = args.get_usize("cap", 100_000);

    println!("query,nodes,edges,chordal,minseps,mintri,min_width,max_bag,enum_ms,baseline");
    let mut enum_total = 0.0f64;
    for q in all_queries() {
        let g = &q.graph;
        let seps = all_minimal_separators(g).len();
        let start = Instant::now();
        let mut count = 0usize;
        let mut min_width = usize::MAX;
        for t in MinimalTriangulationsEnumerator::new(g).take(cap) {
            count += 1;
            min_width = min_width.min(t.width());
        }
        let enum_ms = start.elapsed().as_secs_f64() * 1e3;
        enum_total += enum_ms;
        let baseline = match exhaustive_count(g, Duration::from_millis(baseline_ms)) {
            BaselineOutcome::Completed(c) => c.to_string(),
            BaselineOutcome::TimedOut(seen) => format!("timeout({seen} subsets)"),
        };
        println!(
            "Q{},{},{},{},{},{},{},{},{:.3},{}",
            q.number,
            g.num_nodes(),
            g.num_edges(),
            is_chordal(g),
            seps,
            count,
            min_width,
            min_width + 1,
            enum_ms,
            baseline
        );
    }
    eprintln!(
        "# all 22 queries enumerated in {:.2} s (paper: within 5 seconds); \
         baseline deadline was {} ms per query",
        enum_total / 1e3,
        baseline_ms
    );
}
