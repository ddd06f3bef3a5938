//! Figure 7 (a/b): average delay on Erdős–Rényi `G(n, p)` graphs for
//! `p ∈ {0.3, 0.5, 0.7}` and growing `n`, for both triangulation backends.
//!
//! Emits CSV: `algo,n,p,edges,results,completed,avg_delay_ms`.
//!
//! Flags: `--budget-ms` (default 1000), `--max-n` (default 90; the paper
//! sweeps to 200 with 30-minute budgets), `--step` (default 10), `--seed`,
//! `--algo`.

use mintri_bench::{run_budgeted, AlgoChoice, Args};
use mintri_workloads::random_suite;

fn main() {
    let args = Args::parse(&["budget-ms", "max-n", "step", "seed", "algo"]);
    let budget_ms = args.get_u64("budget-ms", 1000);
    let max_n = args.get_usize("max-n", 90);
    let step = args.get_usize("step", 10);
    let seed = args.get_u64("seed", 42);
    let algos = AlgoChoice::parse_list(&args.get_str("algo", "both"));

    println!("algo,n,p,edges,results,completed,avg_delay_ms");
    for algo in algos.iter().copied() {
        for (p, inst) in random_suite(max_n, step, seed) {
            let outcome = run_budgeted(&inst.graph, algo, budget_ms);
            let avg_ms = outcome
                .average_delay()
                .map(|d| d.as_secs_f64() * 1e3)
                .unwrap_or(f64::NAN);
            println!(
                "{},{},{},{},{},{},{:.3}",
                algo.name(),
                inst.graph.num_nodes(),
                p,
                inst.graph.num_edges(),
                outcome.records.len(),
                outcome.completed,
                avg_ms
            );
        }
    }
}
