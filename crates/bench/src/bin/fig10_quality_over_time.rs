//! Figure 10 (case study): the minimum observed width and fill over time on
//! the same Promedas-style graph as Figure 9. Width typically bottoms out
//! quickly; fill keeps improving for longer.
//!
//! Emits CSV: `measure,elapsed_ms,value` (one row per improvement of each
//! running minimum).
//!
//! Flags as in `fig9_cumulative`.

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

    let outcome = Query::stats()
        .budget(EnumerationBudget::time(Duration::from_millis(budget_ms)))
        .run_local(&g)
        .wait();

    println!("measure,elapsed_ms,value");
    for (at, w) in outcome.running_min(|r| r.width) {
        println!("min_width,{},{}", at.as_millis(), w);
    }
    for (at, f) in outcome.running_min(|r| r.fill) {
        println!("min_fill,{},{}", at.as_millis(), f);
    }
    eprintln!(
        "# {} results over {:.1} ms on a {}-node graph",
        outcome.records.len(),
        outcome.elapsed.as_secs_f64() * 1e3,
        g.num_nodes()
    );
}
