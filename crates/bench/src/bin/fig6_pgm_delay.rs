//! Figure 6 (a/b): average delay between minimal-triangulation printouts on
//! the probabilistic-graphical-model benchmarks, for LB_TRIANG and MCS_M,
//! plotted against the number of edges.
//!
//! Emits CSV: `algo,family,instance,nodes,edges,results,completed,avg_delay_ms`.
//!
//! Flags: `--budget-ms` (default 1000; the paper used 30-minute runs),
//! `--instances` per family (default 4; the paper's counts are in
//! `PgmFamily::paper_instance_count`), `--seed`, `--algo`.

use mintri_bench::{run_budgeted, AlgoChoice, Args};
use mintri_workloads::PgmFamily;

fn main() {
    let args = Args::parse(&["budget-ms", "instances", "seed", "algo"]);
    let budget_ms = args.get_u64("budget-ms", 1000);
    let instances = args.get_usize("instances", 4);
    let seed = args.get_u64("seed", 42);
    let algos = AlgoChoice::parse_list(&args.get_str("algo", "both"));

    println!("algo,family,instance,nodes,edges,results,completed,avg_delay_ms");
    for algo in algos {
        for family in PgmFamily::ALL {
            for inst in family.instances(instances, seed) {
                let outcome = run_budgeted(&inst.graph, algo, budget_ms);
                let avg_ms = outcome
                    .average_delay()
                    .map(|d| d.as_secs_f64() * 1e3)
                    .unwrap_or(f64::NAN);
                println!(
                    "{},{},{},{},{},{},{},{:.3}",
                    algo.name(),
                    family.name(),
                    inst.name,
                    inst.graph.num_nodes(),
                    inst.graph.num_edges(),
                    outcome.records.len(),
                    outcome.completed,
                    avg_ms
                );
            }
        }
    }
}
